"""Exact Laurent polynomials and rational functions in q.

Exponents are stored doubled: the key ``e2`` of a coefficient means
``q**(e2/2)``, so half-integer powers of q stay exact.  A polynomial whose
exponents are all even is called *integral*; only integral polynomials can be
specialized at q = -1.  Coefficients are arbitrary-precision integers and
zero coefficients are never stored, so equality is structural.

``QRat`` is the fraction field.  Values are reduced on construction with a
content-and-primitive-part polynomial gcd; the canonical form has the
denominator's lowest exponent at 0, no common polynomial or integer factor,
and a positive leading denominator coefficient, which makes equality a
structural comparison as well.

The module also provides the q-combinatorial primitives: q-integers,
q-factorials, q-binomial coefficients (Gaussian polynomials, extended to
negative upper index by reflection), q-Pochhammer products with monomial
arguments, and specialization at q = 1 and q = -1.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "QPoly",
    "QRat",
    "ExactDivisionError",
    "q_int",
    "q_factorial",
    "q_binomial",
    "q_pochhammer",
    "q_lucas_value",
    "qpow",
    "ZERO",
    "ONE",
    "Q",
    "qpoly_to_json",
    "qpoly_from_json",
    "qrat_to_json",
    "qrat_from_json",
]


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


# Kronecker-substitution multiplication kicks in above this many term pairs.
_KRON_CUTOFF = 2048


def _kron_pack(vals: list[int], width: int) -> int:
    """Pack a list of nonnegative ints, each < 2**width, into one integer."""
    nbytes = width // 8
    buf = bytearray(nbytes * len(vals))
    for i, v in enumerate(vals):
        if v:
            buf[i * nbytes:(i + 1) * nbytes] = v.to_bytes(nbytes, "little")
    return int.from_bytes(buf, "little")


def _kron_unpack_signed(n: int, width: int, count: int) -> list[int]:
    """Decode signed base-2**width digits from n (|digit| < 2**(width-1))."""
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
    """Exact Laurent polynomial in q with doubled-integer exponents."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c: dict[int, int] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e2, v in items:
                if v:
                    nv = c.get(e2, 0) + v
                    if nv:
                        c[e2] = nv
                    elif e2 in c:
                        del c[e2]
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
    def monomial(cls, e2: int, coeff: int = 1) -> "QPoly":
        return cls._raw({e2: coeff} if coeff else {})

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_one(self) -> bool:
        return self._c == {0: 1}

    @property
    def is_integral(self) -> bool:
        """True iff every stored exponent is an even e2 (integer power of q)."""
        return all(e2 % 2 == 0 for e2 in self._c)

    @property
    def low2(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no low exponent")
        return min(self._c)

    @property
    def deg2(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def coeff(self, e2: int) -> int:
        return self._c.get(e2, 0)

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
        return self._c[self.deg2]

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        if isinstance(other, QPoly):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

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
        for e2, v in o._c.items():
            nv = c.get(e2, 0) + v
            if nv:
                c[e2] = nv
            elif e2 in c:
                del c[e2]
        return QPoly._raw(c)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._raw({e2: -v for e2, v in self._c.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for e2, v in o._c.items():
            nv = c.get(e2, 0) - v
            if nv:
                c[e2] = nv
            elif e2 in c:
                del c[e2]
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
            return QPoly._raw({e1 + e2: c1 * v for e2, v in b.items()})
        if len(b) == 1:
            ((e1, c1),) = b.items()
            return QPoly._raw({e1 + e2: c1 * v for e2, v in a.items()})
        if len(a) * len(b) >= _KRON_CUTOFF:
            return QPoly._raw(_mul_kronecker(a, b))
        if len(a) > len(b):
            a, b = b, a
        c: dict[int, int] = {}
        get = c.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                nv = get(e, 0) + c1 * c2
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

    def shift(self, e2: int) -> "QPoly":
        """Multiply by the monomial q**(e2/2)."""
        if not e2 or not self._c:
            return self
        return QPoly._raw({e + e2: v for e, v in self._c.items()})

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
        la, ha = self.low2, self.deg2
        lb, hb = b.low2, b.deg2
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
        """Exact evaluation at q = 1 or q = -1.

        q = -1 requires an integral polynomial (all exponents even); a half
        power of q has no exact value there.
        """
        if value == 1:
            return sum(self._c.values())
        if value == -1:
            total = 0
            for e2, v in self._c.items():
                if e2 % 2:
                    raise ValueError(
                        "cannot specialize a non-integral polynomial at q = -1"
                    )
                total += v if (e2 // 2) % 2 == 0 else -v
            return total
        raise ValueError("specialize supports only q = 1 and q = -1")

    # -- display ------------------------------------------------------------

    @staticmethod
    def _pow_str(e2: int) -> str:
        if e2 == 2:
            return "q"
        if e2 % 2 == 0:
            return f"q^{e2 // 2}"
        return f"q^({e2}/2)"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e2, v in self.items():
            if e2 == 0:
                term = str(abs(v))
            else:
                mag = abs(v)
                term = self._pow_str(e2) if mag == 1 else f"{mag}*{self._pow_str(e2)}"
            if not parts:
                parts.append(term if v > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if v > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({self})"


ZERO = QPoly.const(0)
ONE = QPoly.const(1)
Q = QPoly.monomial(2)


def qpow(e2: int) -> QPoly:
    """The monomial q**(e2/2)."""
    return QPoly.monomial(e2)


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
    low = p.low2
    out = [0] * (p.deg2 - low + 1)
    for e, v in p._c.items():
        out[e - low] = v
    return out, low


def _from_dense(vals: list[int], low: int) -> QPoly:
    return QPoly._raw({low + i: v for i, v in enumerate(vals) if v})


class QRat:
    """Element of the fraction field of QPoly, kept in canonical reduced form."""

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
        sh = den.low2
        if sh:
            den = den.shift(-sh)
            num = num.shift(-sh)
        nsh = num.low2
        nproper = num.shift(-nsh) if nsh else num
        # polynomial gcd over the rationals (computed on primitive parts)
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


def q_int(n: int) -> QPoly:
    """[n] = (1 - q^n)/(1 - q) = 1 + q + ... + q^(n-1) for n >= 0.

    For negative n returns the Laurent value -q^n [ -n ].
    """
    p = _QINT_CACHE.get(n)
    if p is not None:
        return p
    if n >= 0:
        p = QPoly._raw({2 * i: 1 for i in range(n)})
    else:
        p = QPoly._raw({2 * (n + i): -1 for i in range(-n)})
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

    0 for k < 0 and, when n >= 0, for k > n.  Negative upper index uses the
    reflection [-a choose k] = (-1)^k q^(-ak - k(k-1)/2) [a+k-1 choose k],
    which is a Laurent polynomial.
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
        num = ONE
        for l in range(k_):
            num = num * q_int(n - l)
        p = num.exact_div(q_factorial(k_))
    else:
        a = -n
        base = q_binomial(a + k - 1, k)
        e2 = -2 * (a * k + k * (k - 1) // 2)
        p = base.shift(e2)
        if k & 1:
            p = -p
    _QBIN_CACHE[key] = p
    return p


def q_pochhammer(sign: int, a2: int, count: int) -> QPoly:
    """(x; q)_count with monomial argument x = sign * q^(a2/2).

    ``sign`` is +1 or -1; ``a2`` is the doubled exponent, so half-integer
    bases are allowed.  The empty product (count = 0) is 1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if count < 0:
        raise ValueError("q_pochhammer needs count >= 0")
    out = ONE
    for l in range(count):
        out = out * (ONE - QPoly.monomial(a2 + 2 * l, sign))
    return out


def q_lucas_value(m: int, j: int) -> QPoly:
    """``([m]/[m-j]) * [m-j choose j]`` through its cancelled product form.

    Equals ``(1-q^m) * prod_{l=0}^{j-2} (1-q^(m-j-1-l)) / (q;q)_j`` for
    j >= 1 and 1 for j = 0; defined (as a Laurent polynomial) for every
    integer m, including the removable pole at m = j.
    """
    if j == 0:
        return ONE
    num = ONE - QPoly.monomial(2 * m)
    if num.is_zero:
        return ZERO
    for l in range(j - 1):
        f = ONE - QPoly.monomial(2 * (m - j - 1 - l))
        if f.is_zero:
            return ZERO
        num = num * f
    return num.exact_div(q_pochhammer(1, 2, j))


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------

def qpoly_to_json(p: QPoly) -> list[dict]:
    return [{"exp2": e2, "coeff": str(v)} for e2, v in p.items()]


def qpoly_from_json(data: list[dict]) -> QPoly:
    return QPoly([(d["exp2"], int(d["coeff"])) for d in data])


def qrat_to_json(r: QRat) -> dict:
    return {"num": qpoly_to_json(r.num), "den": qpoly_to_json(r.den)}


def qrat_from_json(d: dict) -> QRat:
    return QRat._reduced(qpoly_from_json(d["num"]), qpoly_from_json(d["den"]))
