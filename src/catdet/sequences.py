"""Closed forms and recurrences for the combinatorial sequence families.

Everything is exact: integer sequences return ints, q-sequences return
``QPoly`` (or ``QRat`` where the value is genuinely rational).  Recursive
families (the convolution-defined q-Catalan variants) are memoized, so tables
grow monotonically and results are independent of query order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from catdet.exact import binomial
from catdet.qseries import (
    ONE,
    QPoly,
    QRat,
    q_binomial,
    q_int,
    q_pochhammer,
)

__all__ = [
    "catalan",
    "catalan_power",
    "ballot",
    "gould",
    "fib_coeff",
    "lucas_coeff",
    "carlitz",
    "gfun",
    "q_catalan",
    "q_catalan_power",
    "andrews_c",
    "andrews_moment",
    "h_poly",
]


def _integer(value: Fraction, what: str) -> int:
    """``value`` as an int; a closed form that is not integral is an arithmetic fault."""
    if value.denominator != 1:
        raise ArithmeticError(f"{what} is not an integer: {value}")
    return int(value)


@cache
def catalan(n: int) -> int:
    """Catalan number C_n = binomial(2n, n)/(n+1); 0 for n < 0."""
    if n < 0:
        return 0
    return binomial(2 * n, n) // (n + 1)


@cache
def catalan_power(n: int, k: int) -> int:
    """Coefficient of z^n in the k-th power of the Catalan generating function.

    Closed form (k/(2n+k)) * binomial(2n+k, n) for k >= 1.  The boundary
    k = 0 is the constant series 1, i.e. [n = 0]; n < 0 gives 0.
    """
    if n < 0:
        return 0
    if k == 0:
        return 1 if n == 0 else 0
    if k < 0:
        raise ValueError("catalan_power needs k >= 0")
    value = Fraction(k, 2 * n + k) * binomial(2 * n + k, n)
    return _integer(value, f"catalan_power({n}, {k})")


def ballot(i: int, j: int) -> int:
    """Catalan-triangle entry ((2j+1)/(i+j+1)) * binomial(2i, i-j).

    Zero for j > i; the diagonal is 1.
    """
    if i < 0 or j < 0 or j > i:
        return 0
    value = Fraction(2 * j + 1, i + j + 1) * binomial(2 * i, i - j)
    return _integer(value, f"ballot({i}, {j})")


def gould(n: int, x: int, r: int) -> Fraction:
    """Gould value (x/(rn+x)) * binomial(rn+x, n) as an exact rational.

    Raises at the pole x = -rn (use :func:`catdet.exact.gould_product`
    for the polynomial continuation).
    """
    if n < 0:
        raise ValueError("gould needs n >= 0")
    if n == 0:
        return Fraction(1)
    if r * n + x == 0:
        raise ZeroDivisionError(f"gould pole at x = {-r * n}")
    return Fraction(x, r * n + x) * binomial(r * n + x, n)


def fib_coeff(n: int, j: int) -> int:
    """Signed coefficient of x^(n-2j) in the Fibonacci polynomial family."""
    if n < 0 or j < 0 or 2 * j > n:
        return 0
    value = binomial(n - j, j)
    return -value if j % 2 else value


def lucas_coeff(n: int, j: int) -> int:
    """Signed coefficient of x^(n-2j) in the Lucas polynomial variant.

    (-1)^j (n/(n-j)) binomial(n-j, j), with the n = 0 polynomial equal to 1.
    """
    if n < 0 or j < 0 or 2 * j > n:
        return 0
    if n == 0:
        return 1
    value = _integer(Fraction(n, n - j) * binomial(n - j, j), f"lucas_coeff({n}, {j})")
    return -value if j % 2 else value


@cache
def carlitz(n: int) -> QPoly:
    """Carlitz q-Catalan number from c_n = sum_k q^k c_k c_(n-1-k), c_0 = 1."""
    if n < 0:
        return QPoly.const(0)
    if n == 0:
        return ONE
    total = QPoly.const(0)
    for k in range(n):
        total = total + QPoly.monomial(2 * k) * carlitz(k) * carlitz(n - 1 - k)
    return total


@cache
def _gfun_weighted_prefix(r: int, j: int, n: int) -> QPoly:
    """Coefficient of z^n in prod_{i=1..j} (sum_k q^((r-i)k) g_k(r) z^k)."""
    if j == 0:
        return ONE if n == 0 else QPoly.const(0)
    total = QPoly.const(0)
    for k in range(n + 1):
        left = _gfun_weighted_prefix(r, j - 1, n - k)
        if left.is_zero:
            continue
        total = total + left * QPoly.monomial(2 * (r - j) * k) * gfun(k, r)
    return total


@cache
def gfun(n: int, r: int) -> QPoly:
    """q-analogue of (1/(rn+1)) binomial(rn+1, n) via the r-fold convolution.

    g_n(r) = sum over k_1+...+k_r = n-1 of prod_j q^((r-j) k_j) g_(k_j)(r),
    with g_0(r) = 1.
    """
    if r < 1:
        raise ValueError("gfun needs r >= 1")
    if n < 0:
        return QPoly.const(0)
    if n == 0:
        return ONE
    return _gfun_weighted_prefix(r, r, n - 1)


@cache
def q_catalan(n: int) -> QPoly:
    """q-Catalan number [2n choose n] / [n+1] (exact polynomial)."""
    if n < 0:
        return QPoly.const(0)
    return QRat(q_binomial(2 * n, n), q_int(n + 1)).as_poly()


@cache
def q_catalan_power(n: int, k: int) -> QPoly:
    """q-analogue of the k-th Catalan power: ([k]/[2n+k]) [2n+k choose n]."""
    if n < 0:
        return QPoly.const(0)
    if k == 0:
        return ONE if n == 0 else QPoly.const(0)
    if k < 0:
        raise ValueError("q_catalan_power needs k >= 0")
    return QRat(q_int(k) * q_binomial(2 * n + k, n), q_int(2 * n + k)).as_poly()


@cache
def andrews_c(n: int, k: int) -> QRat:
    """Andrews-type q-Catalan value with the Pochhammer correction factor.

    ([k]/[2n+k]) [2n+k choose n] (-q^(n+1); q)_(k-1) / (-q; q)_(k-1),
    reduced canonically.  A polynomial for k <= 2 but genuinely rational in
    general (already at n = 2, k = 3 the reduced denominator is 1 + q^2).
    """
    if n < 0:
        return QRat(0)
    if k < 1:
        raise ValueError("andrews_c needs k >= 1")
    num = q_int(k) * q_binomial(2 * n + k, n) * q_pochhammer(-1, 2 * (n + 1), k - 1)
    den = q_int(2 * n + k) * q_pochhammer(-1, 2, k - 1)
    return QRat(num, den)


@cache
def andrews_moment(n: int) -> QRat:
    """Moment value ([2n choose n]/[n+1]) (1+q)/(1+q^(n+1)) q^n/(-q;q)_n^2."""
    if n < 0:
        raise ValueError("andrews_moment needs n >= 0")
    poch = q_pochhammer(-1, 2, n)
    num = q_catalan(n) * (ONE + QPoly.monomial(2)) * QPoly.monomial(2 * n)
    den = (ONE + QPoly.monomial(2 * (n + 1))) * poch * poch
    return QRat(num, den)


def h_poly(n: int, x: int) -> QPoly:
    """The q-binomial [2n+x-1 choose n] (Laurent for negative upper index)."""
    if n < 0:
        return QPoly.const(0)
    return q_binomial(2 * n + x - 1, n)


def catalan_series_power_coeff(n: int, k: int) -> int:
    """Oracle: coefficient of z^n in the k-th power of the Catalan series,
    computed by repeated convolution (independent of the closed form)."""
    if n < 0:
        return 0
    coeffs = [1] + [0] * n
    base = [catalan(i) for i in range(n + 1)]
    for _ in range(k):
        coeffs = [
            sum(coeffs[a] * base[m - a] for a in range(m + 1)) for m in range(n + 1)
        ]
    return coeffs[n]


def fib_poly_coeffs(n: int) -> list[int]:
    """Oracle: true coefficient vector of the n-th Fibonacci polynomial from
    the recurrence F_n = x F_(n-1) - F_(n-2), F_0 = 1, F_1 = x."""
    prev = [1]
    if n == 0:
        return prev
    cur = [0, 1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def lucas_poly_coeffs(n: int) -> list[int]:
    """Oracle: coefficient vector of the Lucas variant, L_0 = 1, L_1 = x,
    L_2 = x^2 - 2, then L_n = x L_(n-1) - L_(n-2)."""
    if n == 0:
        return [1]
    if n == 1:
        return [0, 1]
    prev, cur = [2], [0, 1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur
