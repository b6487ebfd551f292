"""Residue-lift determinants, the base-2 digit lemma, and conjecture searches.

Residues are reinterpreted as integers before any determinant is taken:
mod 2 entries lift to {0, 1}; mod 3 entries lift to {0, 1, 2} (that is what
the displayed matrices show), while the *values* of the mod-3 conjecture are
compared through the balanced residue mu with mu(3n) = 0, mu(3n+1) = 1,
mu(3n+2) = -1.  Determinants of lifted matrices are computed exactly over
the integers — computing them in the residue field would make the statements
trivial.

A lift is itself a ``families.Family`` (``_lift``), so every lifted matrix is
built through ``families.build``.  Every lifted determinant is read off one
sweep per lift, modulus and parameters other than n (``registry.swept_det``):
a leading-minor sweep for the lower Hessenberg lifts (eq107, eq109), and a
banded sweep against the outer diagonal of ones for the eq110 lift (of
``EQ74`` at k = 0), whose leading minors vanish.  The Hankel side of c13b (of
``CATALAN_POWER_HANKEL`` at k = 0) is built and expanded per point.

A conjecture search scans a grid and reports either the verified range or
the first counterexample (re-verified by a recomputation that discards every
sweep first); a counterexample is a report outcome, never a suite failure.

Its identity checks are registry rows: eq106 is a ``sum_check``, and eq104
and eq107 are ``equal_check`` rows.  The parity bridge eq103 and the
digit-lemma properties are functions, and each conjecture search is one check
whose grid point is the maxima it searches.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from catdet import families as fam
from catdet.exact import binomial
from catdet.linalg import FRAC, INT, Matrix, det
from catdet.orthopoly import FavardTables, system_from_moments
from catdet.registry import (
    AXIS_BOUNDS,
    TOP,
    Bounds,
    Check,
    alternating_sum,
    declare,
    discard_sweeps,
    equal_check,
    grid,
    kron,
    register,
    sum_check,
    swept_det,
)
from catdet.sequences import ballot, catalan, catalan_power

__all__ = [
    "lift2",
    "mu",
    "lucas_binomial_mod2",
    "unique_power_index",
    "lifted_det",
    "mod2_orthopoly_bridge",
    "ConjectureReport",
    "conjecture_search",
    "Conjecture",
    "CONJECTURES",
    "CONJECTURE_IDS",
]


def lift2(x: int) -> int:
    """Residue mod 2 as an element of {0, 1}."""
    return x & 1


def catalan_parity_moments(count: int) -> list[int]:
    """The sequence C_n mod 2 as integers from {0, 1}."""
    return [lift2(catalan(n)) for n in range(count)]


def mu(x: int) -> int:
    """Balanced residue mod 3: mu(3n) = 0, mu(3n+1) = 1, mu(3n+2) = -1."""
    r = x % 3
    return r if r < 2 else -1


def lucas_binomial_mod2(a: int, b: int) -> int:
    """binomial(a, b) mod 2 via the digit product over base-2 expansions.

    The product is odd exactly when every bit of b is a bit of a: of the four
    digit binomials, binomial(0, 1) = 0 is the only even one.
    """
    if a < 0 or b < 0:
        raise ValueError("lucas_binomial_mod2 needs a, b >= 0")
    return 0 if b & ~a else 1


def unique_power_index(m: int) -> int:
    """The unique j >= 0 with binomial(m + 2^j, m + 1 - 2^j) odd.

    It is the position of the lowest zero bit of m (the digit argument makes
    the flipped binomial a bit-subset pair exactly there).  The oddness and
    exhaustive uniqueness over the admissible j are asserted.
    """
    if m < 0:
        raise ValueError("unique_power_index needs m >= 0")
    h = 0
    while (m >> h) & 1:
        h += 1
    hits = []
    j = 0
    while (1 << j) <= m + 1:
        if lucas_binomial_mod2(m + (1 << j), m + 1 - (1 << j)):
            hits.append(j)
        j += 1
    if hits != [h]:
        raise AssertionError(f"digit lemma failed at m={m}: odd positions {hits}")
    return h


def _lift(family: fam.Family) -> fam.Family:
    """The entry-wise residue lift of an integer family; the modulus is parameter p.

    The lift keeps the family's band: an outer diagonal of ones lifts to ones.
    """
    entry = family.entry
    return fam.Family(INT, lambda i, j, p, **params: entry(i, j, **params) % p, family.band)


_LIFT_FAMILIES = {"eq107": _lift(fam.EQ1), "eq109": _lift(fam.EQ54), "eq110": _lift(fam.EQ74)}


def lifted_det(family: str, params: dict, modulus: int) -> int:
    """Entry-wise residue lift of an integer family, then an exact integer det off its sweep."""
    return swept_det(_LIFT_FAMILIES[family], p=modulus, **params)


@functools.cache
def _parity_tables(count: int) -> FavardTables:
    """Tables of the system recovered from the first ``count`` parity moments.

    One recovery per moment count and process, shared by eq103 and eq104.
    """
    _, _, sys = system_from_moments(catalan_parity_moments(count), FRAC)
    return sys.tables()


def mod2_orthopoly_bridge(n: int, m: int) -> bool:
    """The parity identities chained through the lifted coefficient table.

    Verifies that the rows r(n', j) = binomial(n'+j, n'-j) mod 2 annihilate
    the parity Catalan sequence (the Kronecker sum), that the lifted
    determinant equals C_n mod 2, and — through the system recovered from the
    parity moments — the shifted-table bridge with the (-1)^C(m,2) Hankel
    values.
    """
    # Kronecker sums up to n
    for nn in range(n + 1):
        total = alternating_sum(
            nn, lambda j: lucas_binomial_mod2(nn + j, nn - j) * lift2(catalan(j)))
        if total != kron(nn == 0):
            return False
    # lifted determinant equals the Catalan parity
    if lifted_det("eq107", {"n": n}, 2) != lift2(catalan(n)):
        return False
    # bridge: det(p(i+m, j))_(i,j<n) = (-1)^C(m,2) det(a(i+j+n))_(i,j<m)
    count = 2 * (n + m) + 2
    moments = catalan_parity_moments(count)
    pm = _parity_tables(count).p_matrix(m, n)
    am = Matrix.build(m, m, lambda i, j: Fraction(moments[i + j + n]), FRAC)
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return det(pm) == sign * det(am)


# ---------------------------------------------------------------------------
# conjecture searches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureReport:
    conjecture_id: str
    grid: dict
    checked: int
    counterexample: dict | None
    elapsed: float

    @property
    def status(self) -> str:
        return "counterexample" if self.counterexample else "verified-up-to"

    def to_json(self) -> dict:
        return {
            "conjecture": self.conjecture_id,
            "status": self.status,
            "grid": self.grid,
            "checked": self.checked,
            "counterexample": self.counterexample,
        }


def _c12_point(size: int) -> tuple[bool, str, str]:
    signed = Matrix.build(
        size, size,
        lambda i, j: (-1 if (i - j) % 2 else 1) * lift2(binomial(i + j, i - j)),
        INT,
    )
    expected = Matrix.build(size, size, lambda i, j: lift2(ballot(i, j)), INT)
    ok = signed * expected == Matrix.identity(size)
    return ok, "inverse of lifted signed binomial matrix", "lifted ballot triangle"


def _c13a_point(n: int, k: int) -> tuple[bool, str, str]:
    lhs = lifted_det("eq109", {"n": n, "k": k}, 2)
    rhs = (-1 if (k - 1) % 2 else 1) * lift2(catalan_power(n, k))
    return lhs == rhs, str(lhs), str(rhs)


def _c13b_point(n: int, m: int) -> tuple[bool, str, str]:
    lhs = lifted_det("eq110", {"n": n, "m": m, "k": 0}, 2)
    rhs = det(fam.build(_lift(fam.CATALAN_POWER_HANKEL), m, p=2, n=n, k=0))
    return lhs == rhs, str(lhs), str(rhs)


def _c14_point(n: int) -> tuple[bool, str, str]:
    lhs = lifted_det("eq107", {"n": n}, 3)
    rhs = mu(catalan(n))
    return lhs == rhs, str(lhs), str(rhs)


class Conjecture(NamedTuple):
    anchor: str
    modulus: int
    point: Callable[..., tuple[bool, str, str]]
    grid: Callable[[Bounds], list[dict]]


CONJECTURES = {
    "c12": Conjecture("4 Conjecture 12 (108)", 2, _c12_point,
                      grid(size=(16, 32, TOP))),
    "c13a": Conjecture("4 Conjecture 13 (109); also (12)", 2, _c13a_point,
                       grid(n=(16, 32, 1), k=(4, 6, 1))),
    "c13b": Conjecture("4 Conjecture 13 (110); also (13)", 2, _c13b_point,
                       grid(n=(10, 16, 1), m=(3, 4, 1))),
    "c14": Conjecture("4 Conjecture 14 (111); also (14)", 3, _c14_point,
                      grid(n=(40, 81))),
}

CONJECTURE_IDS = tuple(CONJECTURES)

# looked up at each search, so that a caller can replace an entry (the
# benchmark times each point this way)
_CONJECTURE_POINTS = {cid: c.point for cid, c in CONJECTURES.items()}


def _maxima(points: list[dict]) -> dict:
    """The largest value of each parameter over the points."""
    out: dict = {}
    for point in points:
        for key, value in point.items():
            out[key] = max(out.get(key, value), value)
    return out


def conjecture_search(conjecture_id: str, bounds: Bounds | None = None) -> ConjectureReport:
    """Scan the grid; report the verified range or the first counterexample."""
    if conjecture_id not in CONJECTURES:
        raise KeyError(f"unknown conjecture id: {conjecture_id!r}")
    points = CONJECTURES[conjecture_id].grid(bounds or Bounds())
    point_fn = _CONJECTURE_POINTS[conjecture_id]
    t0 = time.perf_counter()
    counterexample = None
    checked = 0
    for point in points:
        ok, lhs, rhs = point_fn(**point)
        checked += 1
        if not ok:
            # a counterexample must re-verify as a genuine failure, recomputed
            # rather than read off the sweeps that gave it
            discard_sweeps()
            again_ok, lhs2, rhs2 = point_fn(**point)
            if again_ok:
                raise AssertionError(f"non-reproducible failure at {point}")
            counterexample = {"params": point, "lhs": lhs2, "rhs": rhs2}
            break
    return ConjectureReport(
        conjecture_id, _maxima(points), checked, counterexample, time.perf_counter() - t0
    )


# ---------------------------------------------------------------------------
# registry entries
# ---------------------------------------------------------------------------

declare(
    sum_check("eq106", "4 (106)", grid(n=(32, 64)),
              lambda j, n: lucas_binomial_mod2(n + j, n - j) * lift2(catalan(j))),
    equal_check("eq107", "4 (107); also (11)", "det", grid(n=(20, 32)),
                lambda n: lifted_det("eq107", {"n": n}, 2), lambda n: lift2(catalan(n))),
    equal_check("eq104", "4 (104)", "det", grid(n=(6, 8)),
                lambda n: det(_parity_tables(2 * n + 4).p_matrix(1, n)), lambda n: Fraction(lift2(catalan(n)))),
)


@register("eq103", "4 (103)", "bridge", grid(n=(5, 6), m=(4, 6)))
def _eq103(n: int, m: int):
    ok = mod2_orthopoly_bridge(n, m)
    return ok, f"parity bridge at (n={n}, m={m})", "holds"


@register("sec4uniq", "4 digit lemma", "property", grid(m_below=(256, 512, TOP)))
def _sec4uniq(m_below: int):
    for m in range(m_below):
        unique_power_index(m)
    return True, f"unique odd flip index for all m < {m_below}", "unique"


@register("sec4lucas", "4 Lucas theorem", "property", grid(limit=(128, 256, TOP)))
def _sec4lucas(limit: int):
    row = [1]  # binomial(a, b) for b <= a; it is 0 for b > a
    for a in range(limit + 1):
        for b_ in range(limit + 1):
            if lucas_binomial_mod2(a, b_) != (row[b_] if b_ <= a else 0) % 2:
                return False, f"mismatch at ({a}, {b_})", "parity"
        row = [x + y for x, y in zip([0, *row], [*row, 0])]  # Pascal's rule
    return True, f"digit product equals parity for a, b <= {limit}", "agree"


def _conjecture_check(cid: str, conjecture: Conjecture) -> Check:
    """A conjecture's search as one check whose grid point is the searched maxima.

    With no parameters the search runs over its full default grid.
    """
    def maxima(b: Bounds) -> list[dict]:
        points = conjecture.grid(b)
        return [_maxima(points)] if points else []

    def run(**top):
        report = conjecture_search(cid, Bounds(**{AXIS_BOUNDS[a]: v for a, v in top.items()}))
        # CONJECTURE: the check passes when the search ran and the report is
        # reproducible; a counterexample is surfaced verbatim in the values
        if report.counterexample is None:
            return True, report.status, "search completed"
        return True, f"counterexample {report.counterexample}", "search completed"

    return Check(cid, conjecture.anchor, "conjecture", maxima, run)


declare(*(_conjecture_check(cid, c) for cid, c in CONJECTURES.items()))
