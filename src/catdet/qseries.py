"""Exact Laurent polynomials and rational functions in q.

A ``QPoly`` is its lowest (possibly negative) exponent ``low`` and one dense
tuple of arbitrary-precision integer coefficients, that of ``q**(low + i)``
at index i, with no zero at either end; zero is ``(0, ())``.  So equality is
structural, a shift only moves ``low``, and sums, products and divisions run
over aligned slices.  Products from ``_KRON_MIN_TERMS`` terms on are one
integer product (Kronecker substitution q = 2**w); so is an exact quotient
of as many terms by a divisor of as many, accepted only when an l1 bound
proves quotient times divisor equal to the dividend, else long division.

``QRat`` is the fraction field.  Values are reduced on construction by the
gcd in Z[q] of both sides: GCDHEU on their primitive parts (one integer gcd
of the parts packed at q = 2**w, read back as a polynomial, and both
cofactors read off the integer quotients under the same l1 proof), w
doubling until a gcd is proved, which a resultant bound shows it must be;
only the content gcd when the denominator is a constant.  The canonical
form has the denominator's lowest exponent at 0, no common polynomial or integer
factor, and a positive leading denominator coefficient, which makes equality
a structural comparison as well.

The module also provides the q-combinatorial primitives: q-integers,
q-binomial coefficients (Gaussian polynomials, extended to negative upper
index by reflection), and specialization at q = 1 and q = -1.  Most of the
paper's q-rationals (closed forms, matrix entries, products of closed forms)
are products of factors (1 - q^e) and their inverses.  ``q_product`` takes their
exponent lists (``q_binomial_factors`` gives those of a q-binomial), splits
each factor into cyclotomic polynomials, nets their exponents and returns the
canonical ``QRat`` with no gcd at all (distinct cyclotomic polynomials are
coprime, monic and primitive); each side's cyclotomic product is one integer
product of the Phi_d packed at y = 2**w, each Phi_d built once per process.
``q_plus_product`` adds factors 1 + q^a = (1 - q^(2a)) / (1 - q^a).  The
q-binomials and ``q_lucas_value`` here, and the q-Catalan values of
``catdet.sequences``, are built this way: none of them takes a polynomial
product, a long division or a gcd.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from functools import cache
from operator import add, neg, sub

__all__ = [
    "QPoly",
    "QRat",
    "ExactDivisionError",
    "q_int",
    "q_binomial",
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


# QPoly.__mul__ packs (Kronecker) when both operands have at least this many
# terms: from about 8 x 8 dense terms on, one packed product beats the
# schoolbook rows (measured on dense coefficient tuples, see CHANGES.md).
_KRON_MIN_TERMS = 8

# array type codes by item size, and for digits of 1 to 8 bytes the smallest
# item size that holds one
_ARRAY_CODES = {array(code).itemsize: code for code in "QLIHB"}
_ITEM_SIZES = {n: min(s for s in _ARRAY_CODES if s >= n) for n in range(1, 9)}


def _kron_width(bound: int) -> int:
    """The least multiple w of 8 above bound.bit_length(), so 2**(w-1) > |bound|."""
    return 8 * (bound.bit_length() // 8 + 1)


def _kron_bias(width: int, count: int) -> int:
    """``count`` base-2**width digits, each 2**(width-1)."""
    return int.from_bytes((1 << (width - 1)).to_bytes(width // 8, "little") * count, "little")


def _restride(data: bytes, src: int, dst: int, count: int) -> bytearray:
    """``count`` little-endian digits of ``src`` bytes each, rewritten with ``dst`` bytes each.

    One strided C copy per byte below min(src, dst): a wider digit is padded
    with zero bytes, a narrower one drops top bytes that the caller knows are 0.
    """
    out = bytearray(dst * count)
    for k in range(min(src, dst)):
        out[k::dst] = data[k::src]
    return out


_KRON_PACKED: dict[tuple[tuple[int, ...], int], int] = {}


def _kron_pack(vals, width: int) -> int:
    """``_kron_pack_fresh(vals, width)``, memoized under (tuple(vals), width).

    A shift keeps the tuple, so a q-binomial or Phi_d packs once per width.
    """
    key = (tuple(vals), width)
    packed = _KRON_PACKED.get(key)
    if packed is None:
        packed = _KRON_PACKED[key] = _kron_pack_fresh(key[0], width)
    return packed


def _kron_pack_fresh(vals, width: int) -> int:
    """The polynomial with coefficients ``vals`` at q = 2**width.

    Each coefficient v, -2**(width-1) <= v < 2**(width-1), is written once, as
    the width // 8 bytes of v + 2**(width-1), and the packed biases are
    subtracted at the end.  Digits of up to 8 bytes are written as one array
    of the smallest item size that holds them (3- and 5- to 7-byte digits
    then narrowed by ``_restride``), wider ones by ``to_bytes`` each.
    """
    nbytes = width // 8
    half = 1 << (width - 1)
    size = _ITEM_SIZES.get(nbytes)
    if size:
        digits = array(_ARRAY_CODES[size], map(half.__add__, vals))
        if sys.byteorder == "big":
            digits.byteswap()
        packed = digits.tobytes()
        if size != nbytes:
            packed = _restride(packed, size, nbytes, len(digits))
    else:
        packed = b"".join([(v + half).to_bytes(nbytes, "little") for v in vals])
    return int.from_bytes(packed, "little") - _kron_bias(width, len(vals))


def _kron_unpack_signed(n: int, width: int, count: int) -> list[int]:
    """Decode ``count`` base-2**width digits d, -2**(width-1) <= d < 2**(width-1), from n.

    n plus ``count`` digits 2**(width-1) has the digits d + 2**(width-1) in
    [0, 2**width), so one ``to_bytes`` reads them all (then read as one array,
    as ``_kron_pack`` writes them).  Raises
    ``ArithmeticError`` if anything is left after the last digit: the value
    was out of the range its width and count were bounded for.
    """
    nbytes = width // 8
    try:
        data = (n + _kron_bias(width, count)).to_bytes(nbytes * count, "little")
    except OverflowError:
        raise ArithmeticError(f"value exceeds {count} signed base-2**{width} digits") from None
    size = _ITEM_SIZES.get(nbytes)
    if size:
        if size != nbytes:
            data = _restride(data, nbytes, size, count)
        digits = array(_ARRAY_CODES[size], data)
        if sys.byteorder == "big":
            digits.byteswap()
    else:
        digits = [int.from_bytes(data[i:i + nbytes], "little") for i in range(0, len(data), nbytes)]
    half = 1 << (width - 1)
    return [d - half for d in digits]


def _mul_kronecker(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Dense coefficients of the product of two dense coefficient tuples.

    Both are packed at q = 2**w, where 2**(w-1) exceeds the largest possible
    product coefficient, and multiplied as one integer.
    """
    width = _kron_width(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
    return _kron_unpack_signed(_kron_pack(a, width) * _kron_pack(b, width), width,
                               len(a) + len(b) - 1)


def _certified(f: list[int], g, width: int) -> bool:
    """Whether every coefficient of the product f * g is below 2**(width-1) in size.

    A coefficient of f * g is at most min(|f|_1 |g|_inf, |f|_inf |g|_1).  So
    when the integers f(2**width) * g(2**width) and p(2**width) are equal and
    every coefficient of p is also below 2**(width-1) in size, both sides are
    the same signed base-2**width digits, and f * g = p as polynomials.
    """
    bound = min(sum(map(abs, f)) * max(map(abs, g)), max(map(abs, f)) * sum(map(abs, g)))
    return bound < 1 << (width - 1)


def _div_kronecker(a, b) -> list[int] | None:
    """a / b read off one integer quotient at q = 2**w, or None when it is not proved.

    With B = |a|_inf |b|_1 and 2**(w-1) > B, the quotient q of an exact
    division has q(2**w) = a(2**w) / b(2**w); the signed digits of that integer
    are accepted only if ``_certified`` proves q * b = a.  An inexact division,
    or an exact one whose quotient is too large for w, gives None.
    """
    width = _kron_width(max(map(abs, a)) * sum(map(abs, b)))
    quot, rem = divmod(_kron_pack_fresh(a, width), _kron_pack_fresh(b, width))
    if rem:
        return None
    try:
        q = _kron_unpack_signed(quot, width, len(a) - len(b) + 1)
    except ArithmeticError:
        return None
    return q if _certified(q, b, width) else None


def _long_div(a, b) -> list[int]:
    """The exact quotient a / b of dense coefficient sequences by long division.

    Raises ``ExactDivisionError`` on a degree mismatch or a remainder.
    """
    top = len(b) - 1
    count = len(a) - top
    if count <= 0:
        raise ExactDivisionError("degree mismatch in exact division")
    # from the top; the remainder is the bottom ``top`` entries
    rem = list(a)
    lead = b[-1]
    quot = [0] * count
    for k in range(count - 1, -1, -1):
        r = rem[k + top]
        if r:
            qc, m = divmod(r, lead)
            if m:
                raise ExactDivisionError("nonzero remainder in exact division")
            quot[k] = qc
            rem[k:k + top] = [x - qc * v for x, v in zip(rem[k:k + top], b)]
    if any(rem[:top]):
        raise ExactDivisionError("nonzero remainder in exact division")
    return quot


class QPoly:
    """Exact Laurent polynomial in q: its lowest exponent and a coefficient tuple."""

    __slots__ = ("_low", "_vals")

    def __init__(self, coeffs=None):
        c: dict[int, int] = {}
        if coeffs:
            for e, v in coeffs.items() if isinstance(coeffs, dict) else coeffs:
                c[e] = c.get(e, 0) + v
        c = {e: v for e, v in c.items() if v}
        low = min(c, default=0)
        vals = [0] * (max(c) - low + 1) if c else []
        for e, v in c.items():
            vals[e - low] = v
        self._low = low
        self._vals = tuple(vals)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, low: int, vals: tuple[int, ...]) -> "QPoly":
        """From a coefficient tuple with no zero at either end (zero is (0, ()))."""
        p = object.__new__(cls)
        p._low = low
        p._vals = vals
        return p

    @classmethod
    def const(cls, n: int) -> "QPoly":
        return cls._raw(0, (n,) if n else ())

    @classmethod
    def monomial(cls, e: int, coeff: int = 1) -> "QPoly":
        return cls._raw(e, (coeff,)) if coeff else ZERO

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._vals

    @property
    def is_one(self) -> bool:
        return self._vals == (1,) and not self._low

    @property
    def low(self) -> int:
        if not self._vals:
            raise ValueError("zero polynomial has no low exponent")
        return self._low

    @property
    def deg(self) -> int:
        if not self._vals:
            raise ValueError("zero polynomial has no degree")
        return self._low + len(self._vals) - 1

    def coeff(self, e: int) -> int:
        i = e - self._low
        return self._vals[i] if 0 <= i < len(self._vals) else 0

    def items(self):
        low = self._low
        return [(low + i, v) for i, v in enumerate(self._vals) if v]

    @property
    def lead_coeff(self) -> int:
        return self._vals[-1]

    def __bool__(self) -> bool:
        return bool(self._vals)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._vals == ((other,) if other else ()) and not self._low
        if isinstance(other, QPoly):
            return self._low == other._low and self._vals == other._vals
        return NotImplemented

    def __hash__(self) -> int:
        # a constant hashes as the int it equals
        c = self._vals
        if not c or len(c) == 1 and not self._low:
            return hash(c[0] if c else 0)
        return hash((self._low, c))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, QPoly):
            return x
        if isinstance(x, int):
            return QPoly.const(x)
        return None

    def _combine(self, o: "QPoly", op) -> "QPoly":
        """self op o for op = add or sub, by one aligned slice operation."""
        a, b = self._vals, o._vals
        if not b:
            return self
        if not a:
            return o if op is add else -o
        la, lb = self._low, o._low
        low = min(la, lb)
        out = [0] * (max(la + len(a), lb + len(b)) - low)
        i = la - low
        out[i:i + len(a)] = a
        i = lb - low
        out[i:i + len(b)] = map(op, out[i:i + len(b)], b)
        return _from_dense(out, low)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, add)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._raw(self._low, tuple(map(neg, self._vals)))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._combine(self, sub)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._vals, o._vals
        if not a or not b:
            return ZERO
        # nonzero end coefficients multiply to nonzero end coefficients
        low = self._low + o._low
        if len(a) == 1 or len(b) == 1:
            (c,), b = (a, b) if len(a) == 1 else (b, a)
            return QPoly._raw(low, tuple([c * v for v in b]))
        na, nb = len(a) - a.count(0), len(b) - b.count(0)
        if min(na, nb) >= _KRON_MIN_TERMS:
            return QPoly._raw(low, tuple(_mul_kronecker(a, b)))
        # schoolbook rows over the operand whose terms times the other's length is smaller
        if na * len(b) > nb * len(a):
            a, b = b, a
        width = len(b)
        out = [0] * (len(a) + width - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + width] = [x + c * v for x, v in zip(out[i:i + width], b)]
        return QPoly._raw(low, tuple(out))

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
        if not s or not self._vals:
            return self
        return QPoly._raw(self._low + s, self._vals)

    def subs_inv_q(self) -> "QPoly":
        """Substitute q -> 1/q (negate every exponent)."""
        if not self._vals:
            return self
        return QPoly._raw(1 - self._low - len(self._vals), self._vals[::-1])

    def exact_div(self, other) -> "QPoly":
        """Exact division in the Laurent ring; raises ExactDivisionError."""
        b = self._coerce(other)
        if b is None:
            raise TypeError(f"cannot divide QPoly by {other!r}")
        if b.is_zero:
            raise ZeroDivisionError("QPoly division by zero")
        if self.is_zero:
            return ZERO
        a, bc = self._vals, b._vals
        quot = None
        if (len(a) - len(bc) + 1 >= _KRON_MIN_TERMS
                and len(bc) - bc.count(0) >= _KRON_MIN_TERMS):
            quot = _div_kronecker(a, bc)
        return QPoly._raw(self._low - b._low, tuple(quot or _long_div(a, bc)))

    # -- specialization -----------------------------------------------------

    def specialize(self, value: int) -> int:
        """Exact evaluation at q = 1 or q = -1."""
        c = self._vals
        if value == 1:
            return sum(c)
        if value == -1:
            alt = sum(c[::2]) - sum(c[1::2])
            return -alt if self._low % 2 else alt
        raise ValueError("specialize supports only q = 1 and q = -1")

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        """Terms by rising exponent, as in ``-q^-1 + 3 - 2*q + q^4``.

        One pass over the coefficient tuple writes each nonzero term after
        its sign ("+ " or "- "); the first term then drops "+ " or closes
        "- " up to "-".  The text is memoized under (low, coefficient tuple),
        so equal values render once per process.
        """
        key = (self._low, self._vals)
        text = _QPOLY_TEXT.get(key)
        if text is not None:
            return text
        parts = []
        for e, v in enumerate(self._vals, self._low):
            if v:
                if v > 0:
                    sign = "+"
                else:
                    sign, v = "-", -v
                if not e:
                    parts.append(f"{sign} {v}")
                elif v == 1:
                    parts.append(f"{sign} q" if e == 1 else f"{sign} q^{e}")
                else:
                    parts.append(f"{sign} {v}*q" if e == 1 else f"{sign} {v}*q^{e}")
        text = " ".join(parts) or "+ 0"
        text = _QPOLY_TEXT[key] = text[2:] if text[0] == "+" else "-" + text[2:]
        return text

    def __repr__(self) -> str:
        return f"QPoly({self})"


_QPOLY_TEXT: dict[tuple[int, tuple[int, ...]], str] = {}
ZERO = QPoly._raw(0, ())
ONE = QPoly.const(1)
Q = QPoly.monomial(1)


def _from_dense(vals, low: int, g: int = 1) -> QPoly:
    """The QPoly sum of vals[i] q^(low + g i): the zeros at both ends are cut."""
    if g > 1 and len(vals) > 1:
        spread = [0] * (g * (len(vals) - 1) + 1)
        spread[::g] = vals
        vals = spread
    hi = len(vals)
    while hi and not vals[hi - 1]:
        hi -= 1
    if not hi:
        return ZERO
    lo = 0
    while not vals[lo]:
        lo += 1
    return QPoly._raw(low + lo, tuple(vals[lo:hi]))


# ---------------------------------------------------------------------------
# dense integer polynomial gcd: GCDHEU
# ---------------------------------------------------------------------------

def _gcdheu(a, b) -> tuple[list[int], list[int]]:
    """GCDHEU: the cofactors (a / g, b / g) of the gcd g of primitive a and b.

    a and b are dense coefficient sequences with nonzero ends, of degrees da
    and db, da + db >= 1.  The first point is xi = 2**w with 2**(w-1) >
    2 max(|a|_inf, |b|_inf) + 2, and w doubles until ``_gcdheu_at`` proves
    a gcd (Char, Geddes and Gonnet 1989; Geddes, Czapor and Labahn,
    Algorithms for Computer Algebra, section 7.7).

    The doubling ends.  Write a = g A and b = g B.  Then gcd(a(xi), b(xi)) is
    |g(xi)| d with d = gcd(A(xi), B(xi)), and d divides the resultant R of A
    and B: R = s A + t B for some s and t in Z[q], and R != 0 as A and B are
    coprime.  So once 2**(w-1) exceeds |R| |g|_inf, the signed digits of the
    gcd are those of d g up to sign, with content d, and g is read back; once
    2**(w-1) also exceeds |A|_1 |g|_inf and |B|_1 |g|_inf, both cofactors
    are certified.  With N = 2**(da+db) |a|_2 |b|_2, Mignotte's bound gives
    |g|_1, |A|_1 and |B|_1 <= N, and Hadamard's bound on the Sylvester
    matrix |R| <= |A|_2**deg B |B|_2**deg A <= N**(da+db).  Every bound
    above is at most N**(da+db+1), so every width from the cap on, the bit
    length of 2 N**(da+db+1) (taken here as (da+db+1) times the bit length
    of N, plus one), proves the gcd.  A width past the cap that proves
    nothing raises ``ArithmeticError``.
    """
    width = _kron_width(2 * max(max(map(abs, a)), max(map(abs, b))) + 2)
    cap = 0
    while True:
        found = _gcdheu_at(a, b, width)
        if found:
            return found
        if not cap:  # needed only on a retry, which few calls take
            da, db = len(a) - 1, len(b) - 1
            norm = (math.isqrt(sum(v * v for v in a) * sum(v * v for v in b)) + 1) << (da + db)
            cap = (da + db + 1) * norm.bit_length() + 1
        if width >= cap:
            raise ArithmeticError(f"GCDHEU proved no gcd at {width} bits, past its cap of {cap}")
        width *= 2


def _gcdheu_at(a, b, width: int) -> tuple[list[int], list[int]] | None:
    """GCDHEU at xi = 2**width: (a / g, b / g), or None when this xi proves nothing.

    The signed base-xi digits of gcd(a(xi), b(xi)) are a polynomial G; its
    primitive part P has P(xi) = gcd / content.  Each cofactor is read off
    the integer quotient a(xi) / P(xi) and accepted only if ``_certified``
    proves cofactor * P equal to the operand.  Then P divides a and b, and for
    primitive a and b with xi > 2 min(|a|_inf, |b|_inf) + 2 a common divisor
    read this way is their gcd (op. cit., Theorem 7.7).
    """
    alpha = _kron_pack_fresh(a, width)
    beta = _kron_pack_fresh(b, width)
    gamma = math.gcd(alpha, beta)
    try:  # gamma divides a(xi) and b(xi), so g is no longer than a or b
        g = _kron_unpack_signed(gamma, width, min(len(a), len(b)))
    except ArithmeticError:
        return None
    while not g[-1]:
        g.pop()
    if len(g) == 1:
        return a, b
    # gamma > 0, so the top digit is positive too
    content = math.gcd(*g)
    if content > 1:
        g = [v // content for v in g]
    g_at_xi = gamma // content
    cofactors = []
    for p, p_at_xi in ((a, alpha), (b, beta)):
        try:
            f = _kron_unpack_signed(p_at_xi // g_at_xi, width, len(p) - len(g) + 1)
        except ArithmeticError:
            return None
        if not _certified(f, g, width):
            return None
        cofactors.append(f)
    return cofactors[0], cofactors[1]


def _coprime_parts(a, b) -> tuple[list[int], list[int]]:
    """a / g and b / g for dense a and b with nonzero ends, g their gcd in Z[q].

    b is not a constant.  The primitive parts' cofactors by GCDHEU, each
    times its side's content over the contents' gcd.
    """
    ca, cb = math.gcd(*a), math.gcd(*b)
    if ca > 1:
        a = [v // ca for v in a]
    if cb > 1:
        b = [v // cb for v in b]
    a, b = _gcdheu(a, b)
    c = math.gcd(ca, cb)
    if ca > c:
        a = [ca // c * v for v in a]
    if cb > c:
        b = [cb // c * v for v in b]
    return a, b


class QRat:
    """Element of the fraction field of QPoly, kept in canonical reduced form.

    The constructor divides num and den by their gcd in Z[q], reading both
    cofactors off GCDHEU, which doubles its width until it proves the gcd
    (``_coprime_parts``; by the content gcd alone when the denominator
    is a constant); a value known to be a product of factors
    (1 - q^e) and their inverses is built without one by ``q_product``.
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
        # each side's coefficients, read from its lowest term on, divided by
        # their gcd in Z[q]; a constant denominator shares only integer content
        nv, dv = num._vals, den._vals
        if len(dv) > 1:
            nv, dv = _coprime_parts(nv, dv)
        else:
            cg = math.gcd(dv[0], *nv)
            if cg > 1:
                nv, dv = [v // cg for v in nv], [dv[0] // cg]
        if dv[-1] < 0:
            nv, dv = map(neg, nv), map(neg, dv)
        self.num = QPoly._raw(num._low, tuple(nv))
        self.den = QPoly._raw(0, tuple(dv))

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

    numerator = property(lambda self: self.num)  # Fraction's names, read by linalg.clear_row
    denominator = property(lambda self: self.den)

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
        p = QPoly._raw(0, (1,) * n)
    else:
        p = QPoly._raw(n, (-1,) * -n)
    _QINT_CACHE[n] = p
    return p


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


_CYCLOTOMIC: dict[int, tuple[tuple[int, ...], int]] = {}


def _cyclotomic(d: int) -> tuple[tuple[int, ...], int]:
    """Phi_d's dense coefficients and their l1 norm, built once per process.

    Moebius inversion of y^d - 1 = prod_(e | d) Phi_e(y) gives
    Phi_d(y) = prod_(e | d) (y^e - 1)^mu(d/e), a polynomial of degree
    phi(d) = sum_(e | d) e mu(d/e).  As a power series each factor is
    1 - y^e or 1 / (1 - y^e) = sum_k y^(ke), so Phi_d is the product of these,
    each series cut above y^phi(d), read up to y^phi(d): ``QPoly`` products
    only, no division.  The factors (1 - y^e) = -(y^e - 1) contribute the
    sign (-1)^(sum of mu(d/e)), which is -1 for d = 1 and 1 otherwise.
    """
    entry = _CYCLOTOMIC.get(d)
    if entry is None:
        mus = [(e, _mobius(d // e)) for e in _divisors(d)]
        top = sum(e * mu for e, mu in mus)
        p = ONE
        for e, mu in mus:
            if mu:
                p = p * (ONE - QPoly.monomial(e) if mu > 0
                         else _from_dense([1] * (top // e + 1), 0, e))
        vals = (-p if d == 1 else p)._vals[:top + 1]
        entry = _CYCLOTOMIC[d] = (vals, sum(map(abs, vals)))
    return entry


def _expand(powers: dict[int, int], g: int) -> QPoly:
    """prod Phi_d(q^g)^c over ``powers`` (d -> c > 0), as one integer product.

    The product P(y) = prod Phi_d(y)^c is read off the integer
    P(2^w) = prod Phi_d(2^w)^c (Kronecker substitution), each Phi_d(2^w) packed
    once per process and width.  Every coefficient of P is at most its l1 norm,
    and the l1 norm of a product is at most the product of the l1 norms, so
    |coefficient| <= B = prod |Phi_d|_1^c; with 2^(w-1) > B (``_kron_width``)
    the signed base-2^w digits of P(2^w) are P's coefficients.  Only the
    multiplications run per call: no division, no pass per factor.
    """
    if not powers:
        return ONE
    bound, degree = 1, 0
    for d, c in powers.items():
        vals, norm = _cyclotomic(d)
        bound *= norm ** c
        degree += (len(vals) - 1) * c
    width = _kron_width(bound)
    value = 1
    for d, c in powers.items():
        value *= _kron_pack(_cyclotomic(d)[0], width) ** c
    return _from_dense(_kron_unpack_signed(value, width, degree + 1), 0, g)


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
    exponent at 0.  No gcd is computed, and each side is expanded as one
    integer product of its cached Phi_d packed at y = 2**w (``_expand``).  A
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
