"""Exact Laurent polynomials and rational functions in q.

The key ``e`` of a coefficient is the (possibly negative) integer exponent
of ``q**e``.  Coefficients are arbitrary-precision integers and zero
coefficients are never stored, so equality is structural.

``QRat`` is the fraction field.  Values are reduced on construction with a
content-and-primitive-part polynomial gcd (only the content gcd when the
denominator is a constant); the canonical form has the denominator's lowest
exponent at 0, no common polynomial or integer factor, and a positive leading
denominator coefficient, which makes equality a structural comparison as well.

The module also provides the q-combinatorial primitives: q-integers,
q-factorials, q-binomial coefficients (Gaussian polynomials, extended to
negative upper index by reflection), q-Pochhammer products with monomial
arguments, and specialization at q = 1 and q = -1.  Most of the paper's
q-rationals (closed forms, matrix entries, products of closed forms) are
products of factors (1 - q^e) and their inverses.  ``q_product`` takes their
exponent lists (``q_binomial_factors`` gives those of a q-binomial), splits
each factor into cyclotomic polynomials, nets their exponents and returns the
canonical ``QRat`` with no gcd at all (distinct cyclotomic polynomials are
coprime, monic and primitive); the cyclotomic products are expanded by
Moebius inversion, as one linear pass per factor (1 - y^e).
``q_plus_product`` adds factors 1 + q^a = (1 - q^(2a)) / (1 - q^a).  The
q-binomials and ``q_lucas_value`` here, and the q-Catalan values of
``catdet.sequences``, are built this way: none of them takes a polynomial
product, a long division or a gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import accumulate

__all__ = [
    "QPoly",
    "QRat",
    "ExactDivisionError",
    "q_int",
    "q_factorial",
    "q_binomial",
    "q_pochhammer",
    "q_lucas_value",
    "ZERO",
    "ONE",
    "Q",
    "q_product",
    "q_plus_product",
    "q_binomial_factors",
]


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


# Kronecker-substitution multiplication packs the whole exponent span of both
# operands, so it is used when there are at least this many term pairs per
# packed coefficient: dense squares from 12 x 12 terms on, never sparse, wide
# operands (measured against the schoolbook loop, see CHANGES.md).
_KRON_CUTOFF = 6


def _kron_pack(vals: list[int], width: int) -> int:
    """Pack a list of nonnegative ints, each < 2**width, into one integer."""
    nbytes = width // 8
    return int.from_bytes(b"".join([v.to_bytes(nbytes, "little") for v in vals]), "little")


def _kron_unpack_signed(n: int, width: int, count: int) -> list[int]:
    """Decode ``count`` signed base-2**width digits from n (|digit| < 2**(width-1)).

    Raises ``ArithmeticError`` if anything is left after the last digit: the
    value was out of the range its width and count were bounded for.
    """
    neg = n < 0
    if neg:
        n = -n
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = []
    for _ in range(count):
        d = n & mask
        if d >= half:
            d -= mask + 1
            n = (n >> width) + 1
        else:
            n >>= width
        out.append(-d if neg else d)
    if n:
        raise ArithmeticError(f"value exceeds {count} signed base-2**{width} digits")
    return out


def _mul_kronecker(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    la = min(a)
    lb = min(b)
    da = max(a) - la
    db = max(b) - lb
    maxa = max(abs(c) for c in a.values())
    maxb = max(abs(c) for c in b.values())
    bound = maxa * maxb * min(len(a), len(b)) * 2
    width = ((bound.bit_length() + 2 + 7) // 8) * 8
    ap = [0] * (da + 1)
    an = [0] * (da + 1)
    for e, c in a.items():
        if c > 0:
            ap[e - la] = c
        else:
            an[e - la] = -c
    bp = [0] * (db + 1)
    bn = [0] * (db + 1)
    for e, c in b.items():
        if c > 0:
            bp[e - lb] = c
        else:
            bn[e - lb] = -c
    app = _kron_pack(ap, width)
    anp = _kron_pack(an, width)
    bpp = _kron_pack(bp, width)
    bnp = _kron_pack(bn, width)
    n = (app * bpp + anp * bnp) - (app * bnp + anp * bpp)
    digits = _kron_unpack_signed(n, width, da + db + 1)
    base = la + lb
    return {base + i: c for i, c in enumerate(digits) if c}


class QPoly:
    """Exact Laurent polynomial in q."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c: dict[int, int] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e, v in items:
                if v:
                    nv = c.get(e, 0) + v
                    if nv:
                        c[e] = nv
                    elif e in c:
                        del c[e]
        self._c = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, c: dict[int, int]) -> "QPoly":
        p = object.__new__(cls)
        p._c = c
        return p

    @classmethod
    def const(cls, n: int) -> "QPoly":
        return cls._raw({0: n} if n else {})

    @classmethod
    def monomial(cls, e: int, coeff: int = 1) -> "QPoly":
        return cls._raw({e: coeff} if coeff else {})

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_one(self) -> bool:
        return self._c == {0: 1}

    @property
    def low(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no low exponent")
        return min(self._c)

    @property
    def deg(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def items(self):
        return sorted(self._c.items())

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for v in self._c.values():
            g = math.gcd(g, v)
        return g

    @property
    def lead_coeff(self) -> int:
        return self._c[self.deg]

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        if isinstance(other, QPoly):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        # a constant hashes as the int it equals
        c = self._c
        if not c or len(c) == 1 and 0 in c:
            return hash(c.get(0, 0))
        return hash(frozenset(c.items()))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, QPoly):
            return x
        if isinstance(x, int):
            return QPoly.const(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for e, v in o._c.items():
            nv = c.get(e, 0) + v
            if nv:
                c[e] = nv
            elif e in c:
                del c[e]
        return QPoly._raw(c)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._raw({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for e, v in o._c.items():
            nv = c.get(e, 0) - v
            if nv:
                c[e] = nv
            elif e in c:
                del c[e]
        return QPoly._raw(c)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._c, o._c
        if not a or not b:
            return ZERO
        if len(a) == 1:
            ((e1, c1),) = a.items()
            return QPoly._raw({e1 + e: c1 * v for e, v in b.items()})
        if len(b) == 1:
            ((e1, c1),) = b.items()
            return QPoly._raw({e1 + e: c1 * v for e, v in a.items()})
        # the span is at least the term count, so the first test is a cheap filter
        pairs = len(a) * len(b)
        if pairs >= _KRON_CUTOFF * (len(a) + len(b)) and pairs >= _KRON_CUTOFF * (
                max(a) - min(a) + max(b) - min(b) + 2):
            return QPoly._raw(_mul_kronecker(a, b))
        if len(a) > len(b):
            a, b = b, a
        c: dict[int, int] = {}
        get = c.get
        for e1, c1 in a.items():
            for eb, cb in b.items():
                e = e1 + eb
                nv = get(e, 0) + c1 * cb
                if nv:
                    c[e] = nv
                elif e in c:
                    del c[e]
        return QPoly._raw(c)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers need QRat")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, s: int) -> "QPoly":
        """Multiply by the monomial q**s."""
        if not s or not self._c:
            return self
        return QPoly._raw({e + s: v for e, v in self._c.items()})

    def subs_inv_q(self) -> "QPoly":
        """Substitute q -> 1/q (negate every exponent)."""
        return QPoly._raw({-e: v for e, v in self._c.items()})

    def exact_div(self, other) -> "QPoly":
        """Exact division in the Laurent ring; raises ExactDivisionError."""
        b = self._coerce(other)
        if b is None:
            raise TypeError(f"cannot divide QPoly by {other!r}")
        if b.is_zero:
            raise ZeroDivisionError("QPoly division by zero")
        if self.is_zero:
            return ZERO
        la, ha = self.low, self.deg
        lb, hb = b.low, b.deg
        qlow = la - lb
        qhigh = ha - hb
        if qhigh < qlow:
            raise ExactDivisionError("degree mismatch in exact division")
        # dense remainder over [la, ha]
        rem = [0] * (ha - la + 1)
        for e, v in self._c.items():
            rem[e - la] = v
        bl = [0] * (hb - lb + 1)
        for e, v in b._c.items():
            bl[e - lb] = v
        lead_b = bl[-1]
        quot: dict[int, int] = {}
        top = ha - la
        while True:
            while top >= 0 and not rem[top]:
                top -= 1
            if top < 0:
                break
            qe = top - (hb - lb)
            if qe < 0:
                raise ExactDivisionError("nonzero remainder in exact division")
            qc, r = divmod(rem[top], lead_b)
            if r:
                raise ExactDivisionError("nonzero remainder in exact division")
            quot[qe + la - lb] = qc
            off = qe
            for i, bc in enumerate(bl):
                if bc:
                    rem[off + i] -= qc * bc
        return QPoly._raw(quot)

    # -- specialization -----------------------------------------------------

    def specialize(self, value: int) -> int:
        """Exact evaluation at q = 1 or q = -1."""
        if value == 1:
            return sum(self._c.values())
        if value == -1:
            return sum(-v if e % 2 else v for e, v in self._c.items())
        raise ValueError("specialize supports only q = 1 and q = -1")

    # -- display ------------------------------------------------------------

    @staticmethod
    def _pow_str(e: int) -> str:
        return "q" if e == 1 else f"q^{e}"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, v in self.items():
            if e == 0:
                term = str(abs(v))
            else:
                mag = abs(v)
                term = self._pow_str(e) if mag == 1 else f"{mag}*{self._pow_str(e)}"
            if not parts:
                parts.append(term if v > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if v > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({self})"


ZERO = QPoly.const(0)
ONE = QPoly.const(1)
Q = QPoly.monomial(1)


# ---------------------------------------------------------------------------
# dense integer polynomial gcd (primitive pseudo-remainder sequence)
# ---------------------------------------------------------------------------

def _trim(r: list[int]) -> list[int]:
    while r and not r[-1]:
        r.pop()
    return r


def _primitive(r: list[int]) -> list[int]:
    g = 0
    for v in r:
        g = math.gcd(g, v)
    if g > 1:
        r = [v // g for v in r]
    if r and r[-1] < 0:
        r = [-v for v in r]
    return r


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    db = len(b) - 1
    lb = b[-1]
    r = a[:]
    while r and len(r) - 1 >= db:
        dr = len(r) - 1
        lr = r[-1]
        nr = [lb * c for c in r[:dr]]
        off = dr - db
        for i in range(db):
            nr[off + i] -= lr * b[i]
        r = _trim(nr)
    return r


def _poly_gcd_dense(a: list[int], b: list[int]) -> list[int]:
    a = _primitive(_trim(a[:]))
    b = _primitive(_trim(b[:]))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r)
    return a


def _to_dense(p: QPoly) -> tuple[list[int], int]:
    low = p.low
    out = [0] * (p.deg - low + 1)
    for e, v in p._c.items():
        out[e - low] = v
    return out, low


def _from_dense(vals: list[int], low: int) -> QPoly:
    return QPoly._raw({low + i: v for i, v in enumerate(vals) if v})


class QRat:
    """Element of the fraction field of QPoly, kept in canonical reduced form.

    The constructor reduces any num/den by a polynomial gcd (by the content
    gcd alone when the denominator is a constant); a value known to be a
    product of factors (1 - q^e) and their inverses is built without one by
    ``q_product``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_qpoly(num)
        den = ONE if den is None else _as_qpoly(den)
        if den.is_zero:
            raise ZeroDivisionError("QRat with zero denominator")
        if num.is_zero:
            self.num = ZERO
            self.den = ONE
            return
        # strip the monomial part of the denominator into the numerator
        sh = den.low
        if sh:
            den = den.shift(-sh)
            num = num.shift(-sh)
        nsh = num.low
        nproper = num.shift(-nsh) if nsh else num
        # polynomial gcd over the rationals (computed on primitive parts); a
        # constant denominator shares no factor of positive degree
        if den.deg:
            nd, _ = _to_dense(nproper)
            dd, _ = _to_dense(den)
            g = _poly_gcd_dense(nd, dd)
            if len(g) > 1:
                gp = _from_dense(g, 0)
                nproper = nproper.exact_div(gp)
                den = den.exact_div(gp)
        # integer content
        cg = math.gcd(nproper.content(), den.content())
        if cg > 1:
            nproper = QPoly._raw({e: v // cg for e, v in nproper._c.items()})
            den = QPoly._raw({e: v // cg for e, v in den._c.items()})
        if den.lead_coeff < 0:
            nproper = -nproper
            den = -den
        self.num = nproper.shift(nsh)
        self.den = den

    @classmethod
    def _reduced(cls, num: QPoly, den: QPoly) -> "QRat":
        r = object.__new__(cls)
        r.num = num
        r.den = den
        return r

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_one

    def as_poly(self) -> QPoly:
        if not self.den.is_one:
            raise ExactDivisionError(f"not a polynomial: ({self.num}) / ({self.den})")
        return self.num

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other) -> bool:
        o = _as_qrat(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        # a polynomial hashes as the QPoly (or int) it equals
        if self.den.is_one:
            return hash(self.num)
        return hash((self.num, self.den))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _as_qrat(other)
        if o is None:
            return NotImplemented
        return QRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return QRat._reduced(-self.num, self.den)

    def __sub__(self, other):
        o = _as_qrat(other)
        if o is None:
            return NotImplemented
        return QRat(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = _as_qrat(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = _as_qrat(other)
        if o is None:
            return NotImplemented
        return QRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_qrat(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            raise ZeroDivisionError("QRat division by zero")
        return QRat(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = _as_qrat(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, n: int):
        if n < 0:
            if self.num.is_zero:
                raise ZeroDivisionError("inverse of zero")
            return QRat(self.den, self.num) ** (-n)
        return QRat._reduced(self.num ** n, self.den ** n) if n else QRAT_ONE

    def specialize(self, value: int) -> Fraction:
        d = self.den.specialize(value)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the requested point")
        return Fraction(self.num.specialize(value), d)

    def __str__(self) -> str:
        if self.den.is_one:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"QRat({self})"


QRAT_ONE = QRat._reduced(ONE, ONE)
QRAT_ZERO = QRat._reduced(ZERO, ONE)


def _as_qpoly(x) -> QPoly:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, int):
        return QPoly.const(x)
    raise TypeError(f"cannot interpret {x!r} as QPoly")


def _as_qrat(x):
    if isinstance(x, QRat):
        return x
    if isinstance(x, (QPoly, int)):
        return QRat._reduced(_as_qpoly(x), ONE)
    return None


# ---------------------------------------------------------------------------
# q-combinatorial primitives
# ---------------------------------------------------------------------------

_QINT_CACHE: dict[int, QPoly] = {}
_QFACT_CACHE: list[QPoly] = [ONE]
_QBIN_CACHE: dict[tuple[int, int], QPoly] = {}
_QPRODUCT_CACHE: dict[tuple[tuple[int, ...], tuple[int, ...], int], QRat] = {}


def q_int(n: int) -> QPoly:
    """[n] = (1 - q^n)/(1 - q) = 1 + q + ... + q^(n-1) for n >= 0.

    For negative n returns the Laurent value -q^n [ -n ].
    """
    p = _QINT_CACHE.get(n)
    if p is not None:
        return p
    if n >= 0:
        p = QPoly._raw({i: 1 for i in range(n)})
    else:
        p = QPoly._raw({n + i: -1 for i in range(-n)})
    _QINT_CACHE[n] = p
    return p


def q_factorial(n: int) -> QPoly:
    """[n]! = [1][2]...[n]."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    while len(_QFACT_CACHE) <= n:
        k = len(_QFACT_CACHE)
        _QFACT_CACHE.append(_QFACT_CACHE[k - 1] * q_int(k))
    return _QFACT_CACHE[n]


def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian polynomial [n choose k].

    0 for k < 0 and, when n >= 0, for k > n.  For n >= 0 and 2 <= min(k, n-k)
    the value is the ``q_product`` of its factor list
    prod_(l<k) (1 - q^(n-l)) / (1 - q^(l+1)), with no polynomial product,
    division or gcd; min(k, n-k) = 0 or 1 gives 1 or [n] directly.  Negative
    upper index uses the reflection
    [-a choose k] = (-1)^k q^(-ak - k(k-1)/2) [a+k-1 choose k], which is a
    Laurent polynomial.
    """
    if k < 0:
        return ZERO
    if n >= 0 and k > n:
        return ZERO
    key = (n, k)
    p = _QBIN_CACHE.get(key)
    if p is not None:
        return p
    if n >= 0:
        k_ = min(k, n - k)
        if k_ == 0:
            p = ONE
        elif k_ == 1:
            p = q_int(n)
        else:
            p = q_product(*q_binomial_factors(n, k_)).as_poly()
    else:
        a = -n
        p = q_binomial(a + k - 1, k).shift(-(a * k + k * (k - 1) // 2))
        if k & 1:
            p = -p
    _QBIN_CACHE[key] = p
    return p


def q_pochhammer(sign: int, a: int, count: int) -> QPoly:
    """(x; q)_count with monomial argument x = sign * q^a.

    ``sign`` is +1 or -1 and ``a`` is any integer.  The empty product
    (count = 0) is 1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if count < 0:
        raise ValueError("q_pochhammer needs count >= 0")
    out = ONE
    for l in range(count):
        out = out * (ONE - QPoly.monomial(a + l, sign))
    return out


def q_lucas_value(m: int, j: int) -> QPoly:
    """``([m]/[m-j]) * [m-j choose j]`` through its cancelled product form.

    Equals ``(1-q^m) * prod_{l=0}^{j-2} (1-q^(m-j-1-l)) / (q;q)_j`` for
    j >= 1 and 1 for j = 0, built as one ``q_product``; defined (as a Laurent
    polynomial) for every integer m, including the removable pole at m = j.
    """
    if j < 0:
        raise ValueError("q_lucas_value needs j >= 0")
    if j == 0:
        return ONE
    num = [m, *(m - j - 1 - l for l in range(j - 1))]
    return q_product(num, range(1, j + 1)).as_poly()


# ---------------------------------------------------------------------------
# products of (1 - q^e) through cyclotomic polynomials
# ---------------------------------------------------------------------------

@cache
def _divisors(n: int) -> tuple[int, ...]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@cache
def _mobius(n: int) -> int:
    """The Moebius function mu(n) for n >= 1."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _times_one_minus(p: list[int], e: int) -> list[int]:
    """Coefficients of (1 - y^e) p(y), one pass."""
    pad = [0] * e
    return [a - b for a, b in zip(p + pad, pad + p)]


def _over_one_minus(p: list[int], e: int) -> list[int]:
    """Coefficients of p(y) / (1 - y^e); raises ExactDivisionError on a remainder.

    The quotient satisfies c_i = p_i + c_(i-e), a running sum along each residue
    class mod e; the top e coefficients of p must then cancel the carries
    -c_(i-e).
    """
    n = len(p) - e
    if n <= 0:
        raise ExactDivisionError("nonzero remainder in exact division")
    out = [0] * n
    for r in range(min(e, n)):
        out[r::e] = accumulate(p[r:n:e])
    if any(a + c for a, c in zip(p[n:], ([0] * e + out)[n:])):
        raise ExactDivisionError("nonzero remainder in exact division")
    return out


def _expand(powers: dict[int, int], g: int) -> QPoly:
    """prod Phi_d(q^g)^c over ``powers`` (d -> c > 0).

    Moebius inversion of y^d - 1 = prod_(e | d) Phi_e(y) gives
    Phi_d(y) = prod_(e | d) (y^e - 1)^mu(d/e).  The exponents are netted per e,
    and the product is built on a dense coefficient list: one pass per
    multiplication by 1 - y^e (smallest e first, so the list grows late), then
    one exact-division pass per 1 - y^e below (largest e first).  The factors
    (1 - y^e) = -(y^e - 1) contribute (-1)^(sum of net exponents) = (-1)^c_1,
    since sum_(e | d) mu(d/e) is 1 for d = 1 and 0 otherwise.
    """
    net: dict[int, int] = {}
    for d, c in powers.items():
        for e in _divisors(d):
            mu = _mobius(d // e)
            if mu:
                net[e] = net.get(e, 0) + mu * c
    vals = [1]
    for e in sorted(net):
        for _ in range(net[e]):
            vals = _times_one_minus(vals, e)
    for e in sorted(net, reverse=True):
        for _ in range(-net[e]):
            vals = _over_one_minus(vals, e)
    sign = -1 if powers.get(1, 0) & 1 else 1
    return QPoly._raw({g * i: sign * v for i, v in enumerate(vals) if v})


def q_product(num, den=(), power: int = 0) -> QRat:
    """q^power * prod_(e in num) (1 - q^e) / prod_(f in den) (1 - q^f), reduced.

    Exponents are integers and may repeat or be negative.  A zero
    exponent makes the value 0 in ``num`` and raises ``ZeroDivisionError`` in
    ``den``.  With g the gcd of all exponents and y = q^g, each factor is
    1 - y^a = -prod_(d | a) Phi_d(y) for a > 0 and y^a prod_(d | -a) Phi_d(y)
    for a < 0.  After the exponents of each Phi_d are netted, the numerator is
    +-q^s times the Phi_d with positive net exponent and the denominator is
    the product of the rest.  The Phi_d(y) are irreducible, monic and primitive,
    have constant term +-1, and share no root for distinct d (a root x of
    Phi_d(x^g) has x^g of order exactly d), so this is already the
    canonical ``QRat`` form: coprime, denominator monic with its lowest
    exponent at 0.  No gcd is computed, and each side is expanded in one
    linear pass per factor (1 - y^e) of its Moebius form (``_expand``).  A
    product of ``q_product`` values is the ``q_product`` of the joined lists.

    The value does not depend on the order of the factors, so it is memoized
    under the sorted lists and the power, and every call with the same
    multisets returns the one shared ``QRat``; a zero exponent is never
    stored, so one in ``den`` raises on every call.
    """
    num, den = sorted(num), sorted(den)
    key = (tuple(num), tuple(den), power)
    out = _QPRODUCT_CACHE.get(key)
    if out is not None:
        return out
    if 0 in den:
        raise ZeroDivisionError("q_product with a factor 1 - q^0 in the denominator")
    if 0 in num:
        return QRAT_ZERO
    g = 0
    for e in num + den:
        g = math.gcd(g, e)
    sign, powers = 1, {}
    for exps, step in ((num, 1), (den, -1)):
        for e in exps:
            if e > 0:
                sign = -sign
            else:
                power += step * e
            for d in _divisors(abs(e) // g):
                powers[d] = powers.get(d, 0) + step
    top = _expand({d: c for d, c in powers.items() if c > 0}, g)
    bottom = _expand({d: -c for d, c in powers.items() if c < 0}, g)
    top = top.shift(power)
    out = _QPRODUCT_CACHE[key] = QRat._reduced(top if sign > 0 else -top, bottom)
    return out


def q_plus_product(num: list[int], den: list[int], power: int, plus_num, plus_den) -> QRat:
    """``q_product(num, den, power)`` times prod (1 + q^a) over ``plus_num``
    and divided by prod (1 + q^a) over ``plus_den``.

    Through 1 + q^a = (1 - q^(2a)) / (1 - q^a) for a != 0; a factor 1 + q^0 is
    the constant 2.
    """
    num = [*num, *(2 * a for a in plus_num if a), *(a for a in plus_den if a)]
    den = [*den, *(2 * a for a in plus_den if a), *(a for a in plus_num if a)]
    twos = plus_num.count(0) - plus_den.count(0)
    out = q_product(num, den, power)
    return out * QRat(2) ** twos if twos else out


def q_binomial_factors(n: int, k: int) -> tuple[list[int], list[int]]:
    """[n choose k] as exponent lists for ``q_product``.

    [n choose k] = prod_(l<k) (1 - q^(n-l)) / (1 - q^(l+1)) for every integer
    n; when 0 <= n < k the factor 1 - q^0 makes it 0, as does the list [0]
    returned for k < 0.
    """
    if k < 0:
        return [0], []
    return [n - l for l in range(k)], [l + 1 for l in range(k)]
