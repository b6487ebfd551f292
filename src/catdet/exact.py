"""Exact integer and rational scalar arithmetic.

Python integers are arbitrary precision and ``fractions.Fraction`` keeps the
canonical reduced form (positive denominator, gcd(num, den) = 1), so they are
used directly as the ground rings.  This module adds the binomial-coefficient
conventions that all the identity checks rely on and a couple of product-form
helpers that avoid removable poles.

Conventions for ``binomial(a, k)``:

* ``k < 0`` always gives 0,
* ``a < 0`` uses the falling-factorial continuation, equivalently the
  reflection ``binomial(-a, k) = (-1)**k * binomial(a + k - 1, k)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

def binomial(a: int, k: int) -> int:
    """Binomial coefficient for arbitrary integer upper argument.

    Returns 0 for ``k < 0``; for ``a < 0`` evaluates the falling-factorial
    product ``a(a-1)...(a-k+1)/k!`` exactly.
    """
    if k < 0:
        return 0
    if a >= 0:
        return math.comb(a, k)
    # negative upper index: (-1)^k * C(k - a - 1, k)
    value = math.comb(k - a - 1, k)
    return -value if k & 1 else value


def exact_quotient(num: int, den: int, what: str = "the quotient") -> int:
    """num / den as an int; a value that is not integral is an arithmetic fault."""
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{what} is not an integer: {Fraction(num, den)}")
    return value


def choose2(a: int) -> int:
    """``a*(a-1)/2`` for any integer a (meaningful for negative a too)."""
    return a * (a - 1) // 2


def gould_product(n: int, x, r: int):
    """Value of the degree-n Gould basis polynomial at x, via its product form.

    For ``n >= 1`` this is ``x * (x+rn-1)(x+rn-2)...(x+rn-n+1) / n!``; the
    quotient by ``rn + x`` present in the closed form has been cancelled, so
    the evaluation is defined for every x (including ``x = -rn``).
    """
    if n == 0:
        return x - x + 1 if not isinstance(x, int) else 1
    num = x
    for l in range(1, n):
        num = num * (x + r * n - l)
    den = math.factorial(n)
    if isinstance(x, int):
        value, rem = divmod(num, den)
        if not rem:
            return value
    return Fraction(num, den)


def lucas_value(m: int, j: int):
    """``(m/(m-j)) * binomial(m-j, j)`` evaluated through its cancelled form.

    ``m * (m-j-1)(m-j-2)...(m-2j+1) / j!`` for ``j >= 1`` and 1 for
    ``j = 0``, defined for every integer m (also m = j, where the raw
    quotient has a removable pole).
    """
    if j == 0:
        return 1
    num = m
    for l in range(j - 1):
        num *= m - j - 1 - l
    return exact_quotient(num, math.factorial(j), f"lucas_value({m}, {j})")
