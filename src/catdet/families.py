"""The paper's matrix families as one table, and closed-form evaluators.

Every matrix family is a :class:`Family` constant (``EQ1``, ``EQ54``,
``THM11_B``, ...) and every matrix is built by :func:`build`: an n = 0 slice
is the valid 0x0 matrix.  A matrix the paper states at shifted parameters is
the same family read there: the null-vector matrices of (36)-(39), (47) and
Theorem 15 are ``EQ35``, ``EQ55``, ``EQ45``, ``EQ86`` and ``EQ92`` at
negative parameters, and the banded Theorem 4 matrix (65) is ``EQ74`` at
k = 0.  Hankel-type families take their size as ``size`` and their shift as
a parameter.  Families whose displayed entries contain removable rational
factors (the (a/(b)) * binomial(b, c) shapes) are built through cancelled
product forms, so negative parameter values evaluate cleanly.

Closed forms (Krattenthaler-style products, Cauchy/Hilbert products, the
w/v determinant ratios) are evaluated exactly, as Fraction or QPoly/QRat.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from catdet.exact import binomial, choose2
from catdet.linalg import (FRAC, INT, QPOLY, QRAT, BandedMinors, LeadingMinors, Matrix, Ring,
                           clear_row)
from catdet.qseries import (
    ONE,
    QPoly,
    QRat,
    _kron_pack_fresh,
    q_binomial,
    q_binomial_factors,
    q_lucas_value,
    q_plus_product,
    q_product,
)
from catdet.sequences import carlitz, catalan, catalan_power, gfun, q_catalan_power

F = Fraction


class Family(NamedTuple):
    """Entries ``entry(i, j, **params)`` over ``ring``, for 0 <= i, j < size.

    No entry depends on the size, so ``build(family, n, **params)`` is the
    leading n x n block of ``build(family, N, **params)`` for every N >= n.
    That makes a sweep valid: the determinants of a family at every size are
    read off one growing matrix.  A banded family names the parameter that is
    its ``band`` m (``"m"`` for each of them): h(i, j) = 0 for j > i + m and
    h(i, i + m) != 0, and ``linalg.BandedMinors`` sweeps it by substitution
    against that outer diagonal.  Every other swept family is lower Hessenberg
    and is swept by ``LeadingMinors``; over a fraction ring that sweep scales
    each row once, by the lcm of its denominators, and runs the expansion over
    the scaled rows in the ring's ``integral`` ring (``_ClearedMinors``).  The
    two families whose displayed entries involve their own size take it as a
    parameter, ``EQ74_REVERSED`` as n and ``REMARK_RHS`` as m, and are never
    swept.

    The entry functions look up ``binomial``/``q_binomial`` in this module when
    called, so rebinding a module attribute (as a tracer does) reaches them.
    """

    ring: Ring
    entry: Callable[..., object]
    band: str | None = None

    def sweep(self, **params) -> LeadingMinors | BandedMinors | _ClearedMinors:
        """det of the n x n matrix at ``params`` for every n, grown on demand."""
        entry = partial(self.entry, **params)
        if self.band:
            return BandedMinors(entry, self.ring, params[self.band])
        if self.ring.integral:
            return _ClearedMinors(entry, self.ring)
        return LeadingMinors(entry, self.ring)


class _ClearedMinors:
    """Leading minors D_0, D_1, ... of a lower Hessenberg family over a fraction ring.

    Row i is scaled once, by the lcm L_i of the denominators of its entries
    (i, 0..i+1) (``linalg.clear_row``).  Reading the superdiagonal entry with
    its row is valid because a family's entries exist at every size.  The
    ``LeadingMinors`` of the scaled rows, over ``ring.integral``, are
    D'_n = L_0 ... L_(n-1) D_n, so each read reduces one quotient, as ``det``
    does for one matrix.  A scaled row never recurs, so over q-polynomials
    its entries are packed outside the ``_kron_pack`` memo.
    """

    def __init__(self, entry: Callable[[int, int], object], ring: Ring):
        self.entry = entry
        self.ring = ring
        self._rows: list[list] = []
        self._scales = [ring.integral.one]  # _scales[n] = L_0 ... L_(n-1)
        self._minors = LeadingMinors(self._scaled, ring.integral, _kron_pack_fresh)

    def _scaled(self, i: int, j: int):
        if j > i + 1:
            return self.entry(i, j)  # only tested for being nonzero
        rows, ring = self._rows, self.ring
        while len(rows) <= i:
            r = len(rows)
            row, lcm = clear_row([ring.coerce(self.entry(r, c)) for c in range(r + 2)], ring)
            rows.append(row)
            self._scales.append(self._scales[-1] * lcm)
        return rows[i][j]

    def __getitem__(self, n: int):
        """D_n, the determinant of the leading n x n block."""
        minor = self._minors[n]  # builds the rows whose lcms make up the scale
        return type(self.ring.one)(minor, self._scales[n])  # Fraction or QRat, reduced once


def build(family: Family, size: int, **params) -> Matrix:
    """The size x size matrix of ``family`` at ``params``."""
    return Matrix.build(size, size, partial(family.entry, **params), family.ring)


# ---------------------------------------------------------------------------
# integer / rational families
# ---------------------------------------------------------------------------

# binomial(i+j+1, i-j+1): determinant is the n-th Catalan number
EQ1 = Family(INT, lambda i, j: binomial(i + j + 1, i - j + 1))
# binomial(i+j+1, 2j): the same matrix written through its complement
EQ1B = Family(INT, lambda i, j: binomial(i + j + 1, 2 * j))
EQ54 = Family(INT, lambda i, j, k: binomial(i + j + k, i - j + 1))
# the column-index-only variant; at k = -m the null-vector matrix of (39)
EQ55 = Family(INT, lambda i, j, k: binomial(j + k, i - j + 1))
EQ58 = Family(INT, lambda i, j, k, r: binomial(i + (r - 1) * j + k, i - j + 1))
EQ61 = Family(INT, lambda i, j, k, r: binomial((r - 1) * j + k, i - j + 1))
# at x = -m the null-vector matrix of (36)/(37)
EQ35 = Family(INT, lambda i, j, x: binomial(x + i + j, i - j + 1))
# banded (support j <= i + m, outer diagonal binomial(., 0) = 1); at k = 0
# the Theorem 4 matrix (65)
EQ74 = Family(INT, lambda i, j, m, k: binomial(i + j + k + m, i - j + m), "m")
# the row/column-reversed form binomial(2n+m+k-i-j, j-i+m) with 1-based i, j
EQ74_REVERSED = Family(INT, lambda i, j, n, m, k:
                       binomial(2 * n + m + k - i - j - 2, j - i + m))
# the signed binomial matrix whose inverse is the ballot triangle
EQ34 = Family(INT, lambda i, j: binomial(i + j, i - j) * (-1 if (i - j) % 2 else 1))
# the m x m block of shifted Catalan power values C^(2i+k+1)_(n-i+j)
CATALAN_POWER_HANKEL = Family(INT, lambda i, j, n, k: catalan_power(n - i + j, 2 * i + k + 1))
CATALAN_HANKEL = Family(INT, lambda i, j, shift: catalan(shift + i + j))
HILBERT_HANKEL = Family(FRAC, lambda i, j, shift: F(1, shift + i + j + 1))
EQ10_RHS = Family(INT, lambda i, j, n, x: binomial(2 * n + 2 * j + x - 1, n - i + j))
# binomial(L_i + A - j, L_i + j) with 1-based i, j; its size is len(L)
KRATTENTHALER = Family(INT, lambda i, j, L, A: binomial(L[i] + A - j - 1, L[i] + j + 1))
EQ72 = Family(FRAC, lambda i, j, m: F(binomial(i + m, j) * binomial(i + m + j, j),
                                      binomial(2 * (i + m), i + m)), "m")
# ((i+1-m)/(j-m)) binomial(i+j-m, i-j+1), defined for j < m
EQ49 = Family(FRAC, lambda i, j, m: F(i + 1 - m, j - m) * binomial(i + j - m, i - j + 1))
EQ46 = Family(FRAC, lambda i, j, k: F(i + k + 1, j + k) * binomial(j + k, i - j + 1))


def _ratio_entry(i: int, j: int, x: int, m: int) -> Fraction:
    """((x+2i-1+2m)/(x+i+j+m-1)) binomial(x+i+j+m-1, i-j+m) through cancellation."""
    c = i - j + m
    if c < 0:
        return F(0)
    if c == 0:
        return F(1)
    num = x + 2 * i - 1 + 2 * m
    for l in range(1, c):
        num *= x + i + j + m - 1 - l
    return F(num, math.factorial(c))


EQ10 = Family(FRAC, _ratio_entry, "m")
# the row-weighted family ((2i+k+1)/(i+j+k)) binomial(i+j+k, i-j+1): EQ10 at m = 1
EQ45 = Family(FRAC, lambda i, j, k: _ratio_entry(i, j, k, 1))
EQ43 = Family(FRAC, lambda i, j: _ratio_entry(i, j, 1, 1))


# ---------------------------------------------------------------------------
# q families
# ---------------------------------------------------------------------------

def _qb(top: int, bottom: int, e: int) -> QPoly:
    return q_binomial(top, bottom).shift(e)


EQ27 = Family(QPOLY, lambda i, j, k: _qb(i + 1 + k, j + k, choose2(i - j)))
EQ77 = Family(QPOLY, lambda i, j: _qb(i + 1 + j, i + 1 - j, 2 * choose2(i - j)))
EQ78 = Family(QPOLY, lambda i, j: q_binomial(i + j + 1, i - j + 1))
EQ81 = Family(QPOLY, lambda i, j, r: _qb((r - 1) * j + 1, i - j + 1, choose2(i - j + 1)))
EQ83 = Family(QPOLY, lambda i, j: _qb(i + j + 1, i - j + 1, choose2(i - j + 1)))
EQ84 = Family(QPOLY, lambda i, j: _qb(i + j + 1, i - j + 1, choose2(i - j)))
# both prefactor variants q^C(i-j,2) and q^C(i-j+1,2) of the same family; at
# k = -m, unshifted, the Theorem 15 matrix A
EQ86 = Family(QPOLY, lambda i, j, k, shifted:
              _qb(i + j + k, i - j + 1, choose2(i - j + (1 if shifted else 0))))
EQ98 = Family(QPOLY, lambda i, j, x: q_binomial(2 * i + x + 1, i - j + 1))
EQ71 = Family(QPOLY, lambda i, j, m: _qb(i + m, j, choose2(i - j)), "m")
EQ91 = Family(QPOLY, lambda i, j, m, k: _qb(k + i + j + m, i - j + m, choose2(i - j + m)),
              "m")
EQ91_HANKEL = Family(QPOLY, lambda i, j, n, k: q_catalan_power(n - i + j, 2 * i + k + 1))
THM11_H = Family(QPOLY, lambda i, j, x, n: q_binomial(2 * (n - i + j) + x + 2 * i - 1, n - i + j))
REMARK = Family(QPOLY, lambda i, j, m, x: _qb(i + x + m, i - j + m, choose2(i - j + m)),
                "m")
REMARK_RHS = Family(QPOLY, lambda i, j, n, m, x: q_binomial(n - i + j + x + m - 1, n - i + j))
# q^(j L_i) [L_i + A - j choose L_i + j] with 1-based i, j; its size is len(L)
Q_KRATTENTHALER = Family(QPOLY, lambda i, j, L, A:
                         _qb(L[i] + A - j - 1, L[i] + j + 1, (j + 1) * L[i]))


def _eq88_entry(i: int, j: int) -> QPoly:
    """(-1)^(i-j) q^C(i-j,2) [i+j choose i-j]; its inverse is the q-ballot table."""
    v = _qb(i + j, i - j, choose2(i - j))
    return -v if (i - j) % 2 else v


def _andrews_weight(c: int, top: int) -> QRat:
    """q^(2 C(c,2)) [top choose c] (-q^top;q)_c / (-q;q)_c, and 0 for c < 0."""
    num, den = q_binomial_factors(top, c)
    return q_plus_product(num, den, 2 * choose2(c), range(top, top + c), range(1, c + 1))


def _q_ratio_entry(i: int, j: int, x: int, m: int, s: int) -> QRat:
    """q^C(i-j+s,2) ([2i+x+2m-1]/[i+j+x+m-1]) [i+j+x+m-1 choose i-j+m].

    Evaluated through the cancelled form [2i+x+2m-1] [i+j+x+m-2 choose c-1] /
    [c] with c = i-j+m, which avoids the [i+j+x+m-1] pole at negative x; the
    ratio [a]/[c] of q-integers is (1 - q^a)/(1 - q^c).
    """
    c = i - j + m
    if c < 0:
        return QRat(0)
    sh = choose2(i - j + s)
    if c == 0:
        return QRat(ONE.shift(sh))
    num, den = q_binomial_factors(i + j + x + m - 2, c - 1)
    return q_product([2 * i + x + 2 * m - 1, *num], [c, *den], sh)


def _sec33_entry(i: int, j: int, k: int) -> QRat:
    """q^((i+1-j)^2) / ((-q;q)_(i+1-j) (-q^(i+j+k+1);q)_(i+1-j)) [i+j+k choose i+1-j]."""
    c = i + 1 - j
    num, den = q_binomial_factors(i + j + k, c)
    a = i + j + k + 1
    return q_plus_product(num, den, c * c, (), [*range(1, c + 1), *range(a, a + c)])


EQ88 = Family(QPOLY, _eq88_entry)
# the Pochhammer-weighted entry of the Andrews-type determinant
EQ89 = Family(QRAT, lambda i, j, k: _andrews_weight(i - j + 1, j + k))
# q^C(i-j,2) ([2i+k+1]/[i+j+k]) [i+j+k choose i-j+1]; at k = -m the Theorem
# 15 matrix B
EQ92 = Family(QRAT, lambda i, j, k: _q_ratio_entry(i, j, k, 1, 0))
THM11_B = Family(QRAT, lambda i, j, x, m: _q_ratio_entry(i, j, x, m, m), "m")
SEC33 = Family(QRAT, _sec33_entry)


def thm15_vector_A(n: int, m: int) -> list[QPoly]:
    """Null vector of the shifted-binomial family at x = -m."""
    y = m // 2
    add = 5 if m % 2 == 0 else 7
    out = []
    for j in range(n):
        # the two factors differ by add - 2j, which is odd, so one is even
        out.append(q_lucas_value(m, j).shift((y - j) * (y + add - 3 * j) // 2))
    return out


def thm15_vector_B(n: int, m: int) -> list[QPoly]:
    """Null vector of the row-weighted family at x = -m."""
    y = m // 2
    add = 3 if m % 2 == 0 else 5
    out = []
    for j in range(n):
        # the two factors differ by add - 2j, which is odd, so one is even
        out.append(q_binomial(m - j, j).shift((y - j) * (y + add - 3 * j) // 2))
    return out


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def krattenthaler_lemma_rhs(L: list[int], A: int) -> Fraction:
    """Product form of det(binomial(L_i+A-j, L_i+j)) for decreasing L."""
    n = len(L)
    num = den = 1
    for i in range(n):
        num *= math.factorial(L[i] + A - n)
        den *= math.factorial(L[i] + n) * math.factorial(A - 2 * (i + 1))
    for j in range(n):
        for i in range(j):
            num *= (L[i] - L[j]) * (L[i] + L[j] + A + 1)
    return F(num, den)


def _q_fact(n: int) -> range:
    """Exponents e of (q;q)_n = [n]! (1-q)^n, as factors (1 - q^e)."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    return range(1, n + 1)


def _q_poch(num: list[int], den: list[int], a: int, count: int) -> None:
    """Append (q^a; q)_count, extended by (q^a; q)_(-k) = 1/(q^(a-k); q)_k."""
    if count >= 0:
        num += range(a, a + count)
    elif 0 in range(a + count, a):
        raise ZeroDivisionError(f"(q^{a}; q)_{count} has a pole")
    else:
        den += range(a + count, a)


def q_krattenthaler_lemma_rhs(L: list[int], A: int) -> QRat:
    """q-analogue of the same product, including the q^(sum i L_i) prefactor.

    Written through (q;q)_N and (1 - q^a): the (1 - q) factors of the
    q-integers cancel, as many above as below.
    """
    n = len(L)
    num: list[int] = []
    den: list[int] = []
    for i in range(n):
        num += _q_fact(L[i] + A - n)
        den += _q_fact(L[i] + n)
        den += _q_fact(A - 2 * (i + 1))
    for j in range(n):
        for i in range(j):
            num += (L[i] - L[j], L[i] + L[j] + A + 1)
    return q_product(num, den, sum((i + 1) * L[i] for i in range(n)))


def _v_terms(n: int, m: int, k: int) -> tuple[int, int]:
    """Numerator and denominator of ``v_ratio``, unreduced."""
    num = math.prod(2 * n - 1 + k + l for l in range(2 * m))
    den = math.prod((n + l) * (n + k + l + m) for l in range(m))
    return num, den


def v_ratio(n: int, m: int, k: int) -> Fraction:
    """The one-step ratio of consecutive shifted-binomial determinants."""
    return F(*_v_terms(n, m, k))


def krattenthaler_rhs_product(n: int, m: int, k: int) -> Fraction:
    """prod_(j=1..n) v(j, m, k): closed form of the Theorem-6 determinants."""
    num = den = 1
    for j in range(1, n + 1):
        a, b = _v_terms(j, m, k)
        num *= a
        den *= b
    return F(num, den)


def catalan_hankel_product(n: int, m: int) -> Fraction:
    """prod_(j<n) prod_(i<=j) (2m+i+j)/(i+j): the shifted Catalan Hankel."""
    num = den = 1
    for j in range(1, n):
        for i in range(1, j + 1):
            num *= 2 * m + i + j
            den *= i + j
    return F(num, den)


def thm4_product(n: int, m: int) -> Fraction:
    """prod_(j<n) j!/(2j)! (2m+2j)!/(2m+j)!: the same value, factorial form."""
    num = den = 1
    for j in range(1, n):
        num *= math.factorial(j) * math.factorial(2 * m + 2 * j)
        den *= math.factorial(2 * j) * math.factorial(2 * m + j)
    return F(num, den)


def hilbert_hankel_product(shift: int, m: int) -> Fraction:
    """Cauchy product for det(1/(shift+i+j+1)): prod j! j! (shift+j)!/(shift+m+j)!."""
    num = den = 1
    for j in range(m):
        num *= math.factorial(j) ** 2 * math.factorial(shift + j)
        den *= math.factorial(shift + m + j)
    return F(num, den)


def q_krattenthaler_rhs(n: int, m: int, k: int) -> QPoly:
    """Closed form of the q-shifted-binomial determinant.

    per-factor q^C(m,2) prod_l [2j-1+k+l] / prod_l [j+l][j+k+m+l], j = 1..n
    (the q-power rides inside the j-product, so the total prefactor is
    q^(n C(m,2))).
    """
    num: list[int] = []
    den: list[int] = []
    for j in range(1, n + 1):
        num += range(2 * j - 1 + k, 2 * j - 1 + k + 2 * m)
        den += range(j, j + m)
        den += range(j + k + m, j + k + 2 * m)
    # 2m q-integers above and below, so their (1 - q) factors cancel
    return q_product(num, den, choose2(m) * n).as_poly()


def thm11_w_factors(n: int, x: int, m: int) -> tuple[list[int], list[int], int]:
    """``thm11_w(n, x, m)`` as the (num, den, power) arguments of ``q_product``.

    A product of such values is the ``q_product`` of the joined lists.
    """
    if m == 0 or n == 0:
        return [], [], 0
    if n < 0 or m < 0:
        raise ValueError("thm11_w needs n, m >= 0")
    num: list[int] = []
    den: list[int] = []
    for j in range(m):
        den += range(j + 1, n + j + 1)
    for j in range(1, n + 1):
        _q_poch(num, den, x + 2 * j - 2, m - j)
        _q_poch(num, den, x + 2 * m + j - 2, j)
    return num, den, choose2(m) * n


def thm11_w(n: int, x: int, m: int) -> QRat:
    """The balanced product equal to both Theorem-11 determinants.

    q^(n C(m,2)) (1-q)^(-mn) prod_(j<m) [j]!/[n+j]!
    prod_(j=1..n) (q^(x+2j-2);q)_(m-j) (q^(x+2m+j-2);q)_j,
    with the Pochhammer factors extended to negative count; the m = 0 and
    n = 0 slices are 1.  Since [j]!/[n+j]! = (1-q)^n / (q^(j+1);q)_n, the
    (1-q) powers cancel.
    """
    return q_product(*thm11_w_factors(n, x, m))


def thm11_w1m(x: int, m: int) -> QRat:
    """w(1, x, m) = q^C(m,2) [x+m-1 choose m] [x+2m-1]/[x+m-1]."""
    num, den = q_binomial_factors(x + m - 1, m)
    return q_product([*num, x + 2 * m - 1], [*den, x + m - 1], choose2(m))


def sec33_rhs(n: int, k: int) -> QRat:
    """q^n (1+q^k)/(1+q^(n+k)) [k]/[2n+k] [2n+k choose n] / ((-q;q)_n (-q^k;q)_n)."""
    if n < 0:
        raise ValueError("sec33_rhs needs n >= 0")
    num, den = q_binomial_factors(2 * n + k, n)
    return q_plus_product([k, *num], [2 * n + k, *den], n,
                          [k], [n + k, *range(1, n + 1), *range(k, k + n)])


def remark_rhs_product(n: int, m: int, x: int) -> QRat:
    """q^(n C(m,2)) prod_(j<m) (q^(x+j+1);q)_(m+n-1-2j) / (q^(j+1);q)_(m+n-1-2j)."""
    num: list[int] = []
    den: list[int] = []
    for j in range(m):
        cnt = m + n - 1 - 2 * j
        _q_poch(num, den, x + j + 1, cnt)
        _q_poch(den, num, j + 1, cnt)
    return q_product(num, den, choose2(m) * n)


def gfun_reversed(n: int, r: int) -> QPoly:
    """q^((r-1) n(n-1)/2) g_n(r, 1/q): the value the gfun determinant takes.

    The convolution recurrence and the determinant/sum identities pin down
    mutually reversed polynomials; the degree of g_n(r) is (r-1) C(n,2).
    """
    return gfun(n, r).subs_inv_q().shift((r - 1) * choose2(n))


def carlitz_reversed(n: int) -> QPoly:
    """q^(2 C(n,2)) c_n(1/q): the plain q-binomial determinant value."""
    return carlitz(n).subs_inv_q().shift(2 * choose2(n))
