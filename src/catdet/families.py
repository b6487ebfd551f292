"""Matrix-family builders and closed-form evaluators for the identity checks.

Every builder returns an exact :class:`~catdet.linalg.Matrix`; entries depend
only on (i, j) and the family parameters, and an n = 0 slice is the valid
0x0 matrix.  A family whose entries do not depend on n is also declared once
as a :class:`Family` constant (``EQ1``, ``EQ54``, ...), and its ``fam_*``
builds from it: each n x n matrix is then the leading block of every larger
one, so the determinant of a lower Hessenberg family at every n is read off
one ``LeadingMinors`` sweep.  Families whose displayed entries contain removable rational
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
from catdet.linalg import FRAC, INT, QPOLY, QRAT, LeadingMinors, Matrix, Ring
from catdet.qseries import (
    ONE,
    QPoly,
    QRat,
    q_binomial,
    q_int,
    q_lucas_value,
    q_pochhammer,
    q_product,
)
from catdet.sequences import carlitz, catalan, catalan_power, gfun, q_catalan_power

F = Fraction


class Family(NamedTuple):
    """Entries ``entry(i, j, **params)`` over ``ring`` that do not depend on n.

    The entry functions look up ``binomial``/``q_binomial`` in this module when
    called, so rebinding a module attribute (as a tracer does) reaches them.
    """

    ring: Ring
    entry: Callable[..., object]

    def matrix(self, n: int, **params) -> Matrix:
        """The n x n matrix at ``params``."""
        return Matrix.build(n, n, partial(self.entry, **params), self.ring)

    def sweep(self, **params) -> LeadingMinors:
        """Every leading minor at ``params``, for a lower Hessenberg family."""
        return LeadingMinors(partial(self.entry, **params), self.ring)


# ---------------------------------------------------------------------------
# integer / rational families
# ---------------------------------------------------------------------------

EQ1 = Family(INT, lambda i, j: binomial(i + j + 1, i - j + 1))
EQ1B = Family(INT, lambda i, j: binomial(i + j + 1, 2 * j))
EQ54 = Family(INT, lambda i, j, k: binomial(i + j + k, i - j + 1))
EQ55 = Family(INT, lambda i, j, k: binomial(j + k, i - j + 1))
EQ58 = Family(INT, lambda i, j, k, r: binomial(i + (r - 1) * j + k, i - j + 1))
EQ61 = Family(INT, lambda i, j, k, r: binomial((r - 1) * j + k, i - j + 1))
EQ35 = Family(INT, lambda i, j, x: binomial(x + i + j, i - j + 1))
# banded (support j <= i + m), so not lower Hessenberg once m > 1
EQ65 = Family(INT, lambda i, j, m: binomial(i + j + m, i - j + m))


def fam_eq1(n: int) -> Matrix:
    """binomial(i+j+1, i-j+1): determinant is the n-th Catalan number."""
    return EQ1.matrix(n)


def fam_eq1b(n: int) -> Matrix:
    """binomial(i+j+1, 2j): the same matrix written through its complement."""
    return EQ1B.matrix(n)


def fam_eq54(n: int, k: int) -> Matrix:
    """binomial(i+j+k, i-j+1): determinant is the Catalan power value."""
    return EQ54.matrix(n, k=k)


def fam_eq55(n: int, k: int) -> Matrix:
    """binomial(j+k, i-j+1): column-index-only variant of the same family."""
    return EQ55.matrix(n, k=k)


def fam_eq58(n: int, k: int, r: int) -> Matrix:
    return EQ58.matrix(n, k=k, r=r)


def fam_eq61(n: int, k: int, r: int) -> Matrix:
    return EQ61.matrix(n, k=k, r=r)


def fam_eq35(n: int, x: int) -> Matrix:
    """binomial(x+i+j, i-j+1) at an arbitrary integer shift x."""
    return EQ35.matrix(n, x=x)


def fam_eq39(n: int, m: int) -> Matrix:
    return Matrix.build(n, n, lambda i, j: binomial(j - m, i - j + 1), INT)


def _ratio_row_entry(i: int, j: int, k: int) -> Fraction:
    """((2i+1+k)/(i+j+k)) binomial(i+j+k, i-j+1) through cancellation."""
    c = i - j + 1
    if c < 0:
        return F(0)
    if c == 0:
        return F(1)
    num = F(2 * i + 1 + k)
    for l in range(1, c):
        num *= k + i + j - l
    return num / math.factorial(c)


EQ45 = Family(FRAC, _ratio_row_entry)
EQ43 = Family(FRAC, lambda i, j: _ratio_row_entry(i, j, 1))
EQ46 = Family(FRAC, lambda i, j, k: F(i + k + 1, j + k) * binomial(j + k, i - j + 1))


def fam_eq45(n: int, k: int) -> Matrix:
    """The row-weighted family ((2i+k+1)/(i+j+k)) binomial(i+j+k, i-j+1)."""
    return EQ45.matrix(n, k=k)


def fam_eq43(n: int) -> Matrix:
    """k = 1 case of the row-weighted family: (2i+2)/(i+j+1) binomial(...)."""
    return EQ43.matrix(n)


def fam_eq46(n: int, k: int) -> Matrix:
    return EQ46.matrix(n, k=k)


def fam_eq49(n: int, m: int) -> Matrix:
    """((i+1-m)/(j-m)) binomial(i+j-m, i-j+1) (defined for j < m)."""
    return Matrix.build(
        n, n, lambda i, j: F(i + 1 - m, j - m) * binomial(i + j - m, i - j + 1), FRAC
    )


def fam_eq34(n: int) -> Matrix:
    """The signed binomial matrix whose inverse is the ballot triangle."""
    return Matrix.build(
        n, n,
        lambda i, j: binomial(i + j, i - j) * (-1 if (i - j) % 2 else 1),
        INT,
    )


def fam_eq65(n: int, m: int) -> Matrix:
    return EQ65.matrix(n, m=m)


def fam_eq74(n: int, m: int, k: int) -> Matrix:
    return Matrix.build(n, n, lambda i, j: binomial(i + j + k + m, i - j + m), INT)


def fam_eq74_reversed(n: int, m: int, k: int) -> Matrix:
    """Row/column-reversed form binomial(2n+m+k-i-j, j-i+m), 1-based."""
    return Matrix.build(
        n, n,
        lambda i, j: binomial(2 * n + m + k - (i + 1) - (j + 1), (j + 1) - (i + 1) + m),
        INT,
    )


def catalan_power_hankel(n: int, m: int, k: int) -> Matrix:
    """The m x m block of shifted Catalan power values C^(2i+k+1)_(n-i+j)."""
    return Matrix.build(m, m, lambda i, j: catalan_power(n - i + j, 2 * i + k + 1), INT)


def catalan_hankel(shift: int, m: int) -> Matrix:
    return Matrix.build(m, m, lambda i, j: catalan(shift + i + j), INT)


def hilbert_hankel(shift: int, m: int) -> Matrix:
    return Matrix.build(m, m, lambda i, j: F(1, shift + i + j + 1), FRAC)


def fam_eq72(n: int, m: int) -> Matrix:
    def e(i, j):
        return F(
            binomial(i + m, j) * binomial(i + m + j, j), binomial(2 * (i + m), i + m)
        )
    return Matrix.build(n, n, e, FRAC)


def fam_eq10(n: int, m: int, x: int) -> Matrix:
    """((x+2i-1+2m)/(x+i+j+m-1)) binomial(x+i+j+m-1, i-j+m), cancelled form."""
    def e(i, j):
        c = i - j + m
        if c < 0:
            return F(0)
        if c == 0:
            return F(1)
        num = F(x + 2 * i - 1 + 2 * m)
        for l in range(1, c):
            num *= x + i + j + m - 1 - l
        return num / math.factorial(c)
    return Matrix.build(n, n, e, FRAC)


def fam_eq10_rhs(n: int, m: int, x: int) -> Matrix:
    return Matrix.build(m, m, lambda i, j: binomial(2 * n + 2 * j + x - 1, n - i + j), INT)


def fam_krattenthaler(L: list[int], A: int) -> Matrix:
    """binomial(L_i + A - j, L_i + j) with 1-based i, j."""
    n = len(L)
    return Matrix.build(
        n, n, lambda i, j: binomial(L[i] + A - (j + 1), L[i] + (j + 1)), INT
    )


# ---------------------------------------------------------------------------
# q families
# ---------------------------------------------------------------------------

def _qb(top: int, bottom: int, e2: int) -> QPoly:
    return q_binomial(top, bottom).shift(e2)


EQ27 = Family(QPOLY, lambda i, j, k: _qb(i + 1 + k, j + k, 2 * choose2(i - j)))
EQ77 = Family(QPOLY, lambda i, j: _qb(i + 1 + j, i + 1 - j, 4 * choose2(i - j)))
EQ78 = Family(QPOLY, lambda i, j: q_binomial(i + j + 1, i - j + 1))
EQ81 = Family(QPOLY, lambda i, j, r: _qb((r - 1) * j + 1, i - j + 1, 2 * choose2(i - j + 1)))
EQ83 = Family(QPOLY, lambda i, j: _qb(i + j + 1, i - j + 1, 2 * choose2(i - j + 1)))
EQ84 = Family(QPOLY, lambda i, j: _qb(i + j + 1, i - j + 1, 2 * choose2(i - j)))
# both prefactor variants q^C(i-j,2) and q^C(i-j+1,2) of the same family
EQ86 = Family(QPOLY, lambda i, j, k, shifted:
              _qb(i + j + k, i - j + 1, 2 * choose2(i - j + (1 if shifted else 0))))


def fam_eq27(n: int, k: int) -> Matrix:
    return EQ27.matrix(n, k=k)


def fam_eq71(n: int, m: int) -> Matrix:
    return Matrix.build(n, n, lambda i, j: _qb(i + m, j, 2 * choose2(i - j)), QPOLY)


def fam_eq77(n: int) -> Matrix:
    return EQ77.matrix(n)


def fam_eq78(n: int) -> Matrix:
    return EQ78.matrix(n)


def fam_eq81(n: int, r: int) -> Matrix:
    return EQ81.matrix(n, r=r)


def fam_eq83(n: int) -> Matrix:
    return EQ83.matrix(n)


def fam_eq84(n: int) -> Matrix:
    return EQ84.matrix(n)


def fam_eq86(n: int, k: int, shifted: bool) -> Matrix:
    """Both prefactor variants q^C(i-j,2) and q^C(i-j+1,2) of the same family."""
    return EQ86.matrix(n, k=k, shifted=shifted)


def fam_eq88(n: int) -> Matrix:
    """(-1)^(i-j) q^C(i-j,2) [i+j choose i-j]; inverse is the q-ballot table."""
    def e(i, j):
        v = _qb(i + j, i - j, 2 * choose2(i - j))
        return -v if (i - j) % 2 else v
    return Matrix.build(n, n, e, QPOLY)


def fam_eq89(n: int, k: int) -> Matrix:
    """The Pochhammer-weighted family of the Andrews-type determinant."""
    def e(i, j):
        c = i - j + 1
        if c < 0:
            return QRat(0)
        num = q_binomial(j + k, c) * q_pochhammer(-1, 2 * (j + k), c)
        den = q_pochhammer(-1, 2, c)
        return QRat(num.shift(4 * choose2(c)), den)
    return Matrix.build(n, n, e, QRAT)


def q_lucas_matrix_entry(i: int, j: int, x: int) -> QRat:
    """q^C(i-j,2) ([2i+x+1]/[i+j+x]) [i+j+x choose i-j+1].

    Evaluated through the cancelled form [2i+x+1] [i+j+x-1 choose i-j] /
    [i-j+1], which avoids the [i+j+x] pole at negative x.
    """
    c = i - j + 1
    if c < 0:
        return QRat(0)
    sh = 2 * choose2(i - j)
    if c == 0:
        return QRat(ONE.shift(sh))
    num = q_int(2 * i + x + 1) * q_binomial(i + j + x - 1, c - 1)
    return QRat(num.shift(sh), q_int(c))


def fam_eq92(n: int, x: int) -> Matrix:
    """q^C(i-j,2) ([2i+x+1]/[i+j+x]) [i+j+x choose i-j+1] (cancelled form)."""
    return Matrix.build(n, n, lambda i, j: q_lucas_matrix_entry(i, j, x), QRAT)


def fam_eq91(n: int, m: int, k: int) -> Matrix:
    return Matrix.build(
        n, n, lambda i, j: _qb(k + i + j + m, i - j + m, 2 * choose2(i - j + m)), QPOLY
    )


def fam_eq91_hankel(n: int, m: int, k: int) -> Matrix:
    return Matrix.build(
        m, m, lambda i, j: q_catalan_power(n - i + j, 2 * i + k + 1), QPOLY
    )


def fam_thm11_B(n: int, x: int, m: int) -> Matrix:
    """q^C(i-j+m,2) ([2i+x+2m-1]/[i+j+x+m-1]) [i+j+x+m-1 choose i-j+m]."""
    def e(i, j):
        c = i - j + m
        if c < 0:
            return QRat(0)
        sh = 2 * choose2(i - j + m)
        if c == 0:
            return QRat(ONE.shift(sh))
        num = q_int(2 * i + x + 2 * m - 1) * q_binomial(i + j + x + m - 2, c - 1)
        return QRat(num.shift(sh), q_int(c))
    return Matrix.build(n, n, e, QRAT)


def fam_thm11_H(m: int, x: int, n: int) -> Matrix:
    return Matrix.build(
        m, m,
        lambda i, j: q_binomial(2 * (n - i + j) + (x + 2 * i) - 1, n - i + j),
        QPOLY,
    )


def fam_sec33(n: int, k: int) -> Matrix:
    """q^((i+1-j)^2) / ((-q;q)_(i+1-j) (-q^(i+j+k+1);q)_(i+1-j)) [i+j+k choose i+1-j]."""
    def e(i, j):
        c = i + 1 - j
        if c < 0:
            return QRat(0)
        num = q_binomial(i + j + k, c).shift(2 * c * c)
        den = q_pochhammer(-1, 2, c) * q_pochhammer(-1, 2 * (i + j + k + 1), c)
        return QRat(num, den)
    return Matrix.build(n, n, e, QRAT)


def fam_remark(n: int, m: int, x: int) -> Matrix:
    return Matrix.build(
        n, n, lambda i, j: _qb(i + x + m, i - j + m, 2 * choose2(i - j + m)), QPOLY
    )


def fam_remark_rhs(n: int, m: int, x: int) -> Matrix:
    return Matrix.build(
        m, m,
        lambda i, j: q_binomial((n - i + j) + (x + m - 1), n - i + j),
        QPOLY,
    )


def fam_q_krattenthaler(L: list[int], A: int) -> Matrix:
    """q^(j L_i) [L_i + A - j choose L_i + j] with 1-based i, j."""
    n = len(L)
    return Matrix.build(
        n, n,
        lambda i, j: _qb(L[i] + A - (j + 1), L[i] + (j + 1), 2 * (j + 1) * L[i]),
        QPOLY,
    )


def fam_thm15_A(n: int, m: int) -> Matrix:
    return Matrix.build(
        n, n, lambda i, j: _qb(i + j - m, i - j + 1, 2 * choose2(i - j)), QPOLY
    )


def fam_thm15_B(n: int, m: int) -> Matrix:
    def e(i, j):
        c = i - j + 1
        if c < 0:
            return QRat(0)
        sh = 2 * choose2(i - j)
        if c == 0:
            return QRat(ONE.shift(sh))
        num = q_int(2 * i - m + 1) * q_binomial(i + j - m - 1, c - 1)
        return QRat(num.shift(sh), q_int(c))
    return Matrix.build(n, n, e, QRAT)


def thm15_vector_A(n: int, m: int) -> list[QPoly]:
    """Null vector of the shifted-binomial family at x = -m."""
    y = m // 2
    add = 5 if m % 2 == 0 else 7
    out = []
    for j in range(n):
        e = (y - j) * (y + add - 3 * j)  # always even; doubled exponent
        out.append(q_lucas_value(m, j).shift(e))
    return out


def thm15_vector_B(n: int, m: int) -> list[QPoly]:
    """Null vector of the row-weighted family at x = -m."""
    y = m // 2
    add = 3 if m % 2 == 0 else 5
    out = []
    for j in range(n):
        e = (y - j) * (y + add - 3 * j)
        out.append(q_binomial(m - j, j).shift(e))
    return out


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def krattenthaler_lemma_rhs(L: list[int], A: int) -> Fraction:
    """Product form of det(binomial(L_i+A-j, L_i+j)) for decreasing L."""
    n = len(L)
    r = F(1)
    for i in range(n):
        r *= F(
            math.factorial(L[i] + A - n),
            math.factorial(L[i] + n) * math.factorial(A - 2 * (i + 1)),
        )
    for j in range(n):
        for i in range(j):
            r *= (L[i] - L[j]) * (L[i] + L[j] + A + 1)
    return r


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


def v_ratio(n: int, m: int, k: int) -> Fraction:
    """The one-step ratio of consecutive shifted-binomial determinants."""
    num = F(1)
    for l in range(2 * m):
        num *= 2 * n - 1 + k + l
    den = F(1)
    for l in range(m):
        den *= (n + l) * (n + k + l + m)
    return num / den


def krattenthaler_rhs_product(n: int, m: int, k: int) -> Fraction:
    """prod_(j=1..n) v(j, m, k): closed form of the Theorem-6 determinants."""
    r = F(1)
    for j in range(1, n + 1):
        r *= v_ratio(j, m, k)
    return r


def catalan_hankel_product(n: int, m: int) -> Fraction:
    """prod_(j<n) prod_(i<=j) (2m+i+j)/(i+j): the shifted Catalan Hankel."""
    r = F(1)
    for j in range(1, n):
        for i in range(1, j + 1):
            r *= F(2 * m + i + j, i + j)
    return r


def thm4_product(n: int, m: int) -> Fraction:
    """prod_(j<n) j!/(2j)! (2m+2j)!/(2m+j)!: the same value, factorial form."""
    r = F(1)
    for j in range(1, n):
        r *= F(math.factorial(j), math.factorial(2 * j))
        r *= F(math.factorial(2 * m + 2 * j), math.factorial(2 * m + j))
    return r


def hilbert_hankel_product(shift: int, m: int) -> Fraction:
    """Cauchy product for det(1/(shift+i+j+1)): prod j! j! (shift+j)!/(shift+m+j)!."""
    r = F(1)
    for j in range(m):
        r *= F(
            math.factorial(j) ** 2 * math.factorial(shift + j),
            math.factorial(shift + m + j),
        )
    return r


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


def thm11_w(n: int, x: int, m: int) -> QRat:
    """The balanced product equal to both Theorem-11 determinants.

    q^(n C(m,2)) (1-q)^(-mn) prod_(j<m) [j]!/[n+j]!
    prod_(j=1..n) (q^(x+2j-2);q)_(m-j) (q^(x+2m+j-2);q)_j,
    with the Pochhammer factors extended to negative count; the m = 0 and
    n = 0 slices are 1.  Since [j]!/[n+j]! = (1-q)^n / (q^(j+1);q)_n, the
    (1-q) powers cancel.
    """
    if m == 0 or n == 0:
        return QRat(1)
    if n < 0 or m < 0:
        raise ValueError("thm11_w needs n, m >= 0")
    num: list[int] = []
    den: list[int] = []
    for j in range(m):
        den += range(j + 1, n + j + 1)
    for j in range(1, n + 1):
        _q_poch(num, den, x + 2 * j - 2, m - j)
        _q_poch(num, den, x + 2 * m + j - 2, j)
    return q_product(num, den, choose2(m) * n)


def thm11_w1m(x: int, m: int) -> QRat:
    """w(1, x, m) = q^C(m,2) [x+m-1 choose m] [x+2m-1]/[x+m-1]."""
    num = (q_binomial(x + m - 1, m) * q_int(x + 2 * m - 1)).shift(2 * choose2(m))
    return QRat(num, q_int(x + m - 1))


def sec33_rhs(n: int, k: int) -> QRat:
    """q^n (1+q^k)/(1+q^(n+k)) [k]/[2n+k] [2n+k choose n] / ((-q;q)_n (-q^k;q)_n).

    Through 1 + q^a = (1 - q^(2a)) / (1 - q^a) for a != 0 (a factor 1 + q^0
    is the constant 2) and [N choose n] = prod_(l<n) (1-q^(N-l))/(1-q^(l+1)).
    """
    if n < 0:
        raise ValueError("sec33_rhs needs n >= 0")
    num = [k] + [2 * n + k - l for l in range(n)]
    den = [2 * n + k] + [l + 1 for l in range(n)]
    plus_num = [k]
    plus_den = [n + k, *range(1, n + 1), *range(k, k + n)]
    num += [2 * a for a in plus_num if a] + [a for a in plus_den if a]
    den += [2 * a for a in plus_den if a] + [a for a in plus_num if a]
    twos = plus_num.count(0) - plus_den.count(0)
    out = q_product(num, den, n)
    return out * QRat(2) ** twos if twos else out


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
    return gfun(n, r).subs_inv_q().shift(2 * (r - 1) * choose2(n))


def carlitz_reversed(n: int) -> QPoly:
    """q^(2 C(n,2)) c_n(1/q): the plain q-binomial determinant value."""
    return carlitz(n).subs_inv_q().shift(4 * choose2(n))
