"""Independent reference values the tests compare the library against.

Each oracle takes a route of its own (a convolution, a falling factorial, a
plain product, a pairing with the moment table, a pseudo-remainder
sequence), so that a test that checks
a library value against it checks two routes against each other.  Nothing in
``catdet`` uses them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from catdet.exact import binomial, exact_quotient
from catdet.orthopoly import FavardSystem, FavardTables
from catdet.qseries import ONE, QPoly
from catdet.sequences import catalan


def catalan_series_power_coeff(n: int, k: int) -> int:
    """Coefficient of z^n in the k-th power of the Catalan series,
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


def lucas_coeff(n: int, j: int) -> int:
    """Signed coefficient of x^(n-2j) in the Lucas polynomial variant.

    (-1)^j (n/(n-j)) binomial(n-j, j), with the n = 0 polynomial equal to 1.
    """
    if n < 0 or j < 0 or 2 * j > n:
        return 0
    if n == 0:
        return 1
    value = exact_quotient(n * binomial(n - j, j), n - j, f"lucas_coeff({n}, {j})")
    return -value if j % 2 else value


def gould(n: int, x: int, r: int) -> Fraction:
    """Gould value (x/(rn+x)) * binomial(rn+x, n) as an exact rational.

    Raises at the pole x = -rn (``catdet.exact.gould_product`` is the
    polynomial continuation).
    """
    if n < 0:
        raise ValueError("gould needs n >= 0")
    if n == 0:
        return Fraction(1)
    if r * n + x == 0:
        raise ZeroDivisionError(f"gould pole at x = {-r * n}")
    return Fraction(x * binomial(r * n + x, n), r * n + x)


def falling(x, k: int):
    """Falling factorial ``x(x-1)...(x-k+1)`` with k >= 0 factors.

    Works for any value supporting ``*`` and ``-`` with ints (int, Fraction).
    """
    out = x - x + 1 if not isinstance(x, int) else 1
    for i in range(k):
        out *= x - i
    return out


def q_pochhammer(sign: int, a: int, count: int) -> QPoly:
    """(x; q)_count with monomial argument x = sign * q^a, as a plain product.

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


def orthogonality_defect(tables: FavardTables, n: int):
    """Lambda(p_n), the coefficients of p_n paired with the moments; it is [n = 0]."""
    acc = tables.system.ring.zero
    for i, v in enumerate(tables.coeff_row(n)):
        acc = acc + v * tables.moment(i)
    return acc


def moments_from_system(system: FavardSystem, count: int) -> list:
    """First ``count`` moments, touching only the dependency cone of column 0.

    Unlike the full triangular table this needs s(j), t(j) only for
    j <= (count-1)/2, so it also works for systems recovered from finitely
    many moments.
    """
    ring = system.ring
    zero = ring.zero
    s, t = system.s, system.t
    if count <= 0:
        return []
    out = [ring.one]
    row = [ring.one]  # row r stored for columns 0..min(r, count-1-r)
    for r in range(1, count):
        width = min(r, count - 1 - r)
        prev_width = len(row) - 1

        def at(j):
            return row[j] if 0 <= j <= prev_width else zero

        new = []
        for j in range(width + 1):
            if j == 0:
                v = s(0) * at(0) if 0 <= prev_width else zero
                if 1 <= prev_width:
                    v = v + t(0) * at(1)
            else:
                v = at(j - 1)
                if j <= prev_width:
                    v = v + s(j) * at(j)
                if j + 1 <= prev_width:
                    v = v + t(j) * at(j + 1)
            new.append(v)
        row = new
        out.append(row[0])
    return out



def render_qpoly(p: QPoly) -> str:
    """``str(p)`` written term by term from ``p.items()``, the reference renderer."""
    if not p:
        return "0"
    parts = []
    for e, v in p.items():
        mag = abs(v)
        if e == 0:
            term = str(mag)
        else:
            power = "q" if e == 1 else f"q^{e}"
            term = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(term if v > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if v > 0 else f"- {term}")
    return " ".join(parts)


def _primitive(r: list[int]) -> list[int]:
    """r over its content, with a positive leading coefficient."""
    g = math.gcd(*r)
    if g > 1:
        r = [v // g for v in r]
    if r and r[-1] < 0:
        r = [-v for v in r]
    return r


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """The pseudo-remainder of a by b, dense lowest first, with no zero on top."""
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
        while nr and not nr[-1]:
            nr.pop()
        r = nr
    return r


def poly_gcd_prs(a, b) -> list[int]:
    """The primitive gcd in Z[q] of dense a and b with nonzero ends, lead positive.

    The primitive pseudo-remainder sequence: each pseudo-remainder is divided
    by its content, so its coefficients stay small, and the last nonzero one
    is the gcd.  It shares no step with GCDHEU's evaluation at q = 2**w.
    """
    a, b = _primitive(list(a)), _primitive(list(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a
