"""Closed forms and recurrences for the combinatorial sequence families.

Everything is exact: integer sequences return ints, q-sequences return
``QPoly`` (or ``QRat`` where the value is genuinely rational).  Recursive
families (the convolution-defined q-Catalan variants) are memoized, so tables
grow monotonically and results are independent of query order.
"""

from __future__ import annotations

from functools import cache

from catdet.exact import binomial, exact_quotient
from catdet.qseries import (
    ONE,
    QPoly,
    QRat,
    q_binomial_factors,
    q_plus_product,
    q_product,
)

__all__ = [
    "catalan",
    "catalan_power",
    "ballot",
    "carlitz",
    "gfun",
    "q_catalan",
    "q_catalan_power",
    "andrews_c",
    "andrews_moment",
]


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
    return exact_quotient(k * binomial(2 * n + k, n), 2 * n + k, f"catalan_power({n}, {k})")


def ballot(i: int, j: int) -> int:
    """Catalan-triangle entry ((2j+1)/(i+j+1)) * binomial(2i, i-j),
    computed as the integer difference binomial(2i, i-j) - binomial(2i, i-j-1).

    Zero for j > i; the diagonal is 1.
    """
    if i < 0 or j < 0 or j > i:
        return 0
    return binomial(2 * i, i - j) - binomial(2 * i, i - j - 1)


@cache
def carlitz(n: int) -> QPoly:
    """Carlitz q-Catalan number from c_n = sum_k q^k c_k c_(n-1-k), c_0 = 1."""
    if n < 0:
        return QPoly.const(0)
    if n == 0:
        return ONE
    total = QPoly.const(0)
    for k in range(n):
        total = total + QPoly.monomial(k) * carlitz(k) * carlitz(n - 1 - k)
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
        total = total + left * QPoly.monomial((r - j) * k) * gfun(k, r)
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
    """q-Catalan number [2n choose n] / [n+1] (exact polynomial).

    Built as one ``q_product``: the factor list of [2n choose n] with
    (1 - q) joined to the numerator and (1 - q^(n+1)) to the denominator.
    """
    if n < 0:
        return QPoly.const(0)
    num, den = q_binomial_factors(2 * n, n)
    return q_product([*num, 1], [*den, n + 1]).as_poly()


@cache
def q_catalan_power(n: int, k: int) -> QPoly:
    """q-analogue of the k-th Catalan power: ([k]/[2n+k]) [2n+k choose n].

    Built as one ``q_product``: the factor list of [2n+k choose n] with
    (1 - q^k) joined to the numerator and (1 - q^(2n+k)) to the denominator.
    """
    if n < 0:
        return QPoly.const(0)
    if k == 0:
        return ONE if n == 0 else QPoly.const(0)
    if k < 0:
        raise ValueError("q_catalan_power needs k >= 0")
    num, den = q_binomial_factors(2 * n + k, n)
    return q_product([*num, k], [*den, 2 * n + k]).as_poly()


@cache
def andrews_c(n: int, k: int) -> QRat:
    """Andrews-type q-Catalan value with the Pochhammer correction factor.

    ([k]/[2n+k]) [2n+k choose n] (-q^(n+1); q)_(k-1) / (-q; q)_(k-1), built
    as one ``q_plus_product`` (each 1 + q^a as (1 - q^(2a))/(1 - q^a)), so it
    is canonical with no gcd.  A polynomial for k <= 2 but genuinely rational
    in general (already at n = 2, k = 3 the reduced denominator is 1 + q^2).
    """
    if n < 0:
        return QRat(0)
    if k < 1:
        raise ValueError("andrews_c needs k >= 1")
    num, den = q_binomial_factors(2 * n + k, n)
    return q_plus_product([*num, k], [*den, 2 * n + k], 0,
                          range(n + 1, n + k), range(1, k))


@cache
def andrews_moment(n: int) -> QRat:
    """Moment value ([2n choose n]/[n+1]) (1+q)/(1+q^(n+1)) q^n/(-q;q)_n^2.

    One ``q_plus_product``, so it is canonical with no gcd.
    """
    if n < 0:
        raise ValueError("andrews_moment needs n >= 0")
    num, den = q_binomial_factors(2 * n, n)
    return q_plus_product([*num, 1], [*den, n + 1], n,
                          [1], [n + 1, *range(1, n + 1), *range(1, n + 1)])


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
