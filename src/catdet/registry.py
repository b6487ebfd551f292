"""Registry of executable identity checks.

Every verifiable display gets a check with a stable id ("eqNN", "thmNN",
"lemNN", plus a few derived ids like "eq92s" for an unnumbered companion
sum).  A check knows its catalogue anchor (section and display number), a
kind tag, a default parameter grid (a trimmed "fast" grid and the full
acceptance grid), and a run function that computes both sides exactly and
compares them structurally.

Most checks are data.  A grid is a product of axes (``grid``).  A chain of
equal values is one ``equal_check`` row, whose sides are swept families
(lower Hessenberg or banded) or functions of the grid point; "det of family
= closed form" is its commonest case, and "this matrix kills this vector" is
one whose sides are the product and the zero vector.  An "alternating sum = [n = 0]" is one
``sum_check`` row; ``declare`` adds rows to ``CHECKS``.
The rest are functions under ``register``: checks with extra conditions,
differently rendered sides, inverse products, boolean bridges and
properties, and sides that share per-point state.

Every matrix is a ``families.Family`` built by ``families.build``.  A lower
Hessenberg or banded family is not rebuilt per grid point: ``swept_det``
keeps one sweep (``Family.sweep``, a ``linalg.BandedMinors``: substitution
against the family's outer diagonal, at m = 1 for a lower Hessenberg family,
row-cleared over a fraction ring) per family and parameters other than n,
and reads each point's determinant off it, so a grid over n builds each
entry of its largest matrix once.  In the same way each named Favard system's coefficient
and moment tables (``_tables``) are grown once per process and shared by
every orthogonal-polynomial check.

Conjecture checks are tagged; a counterexample there is a reportable
outcome, never a suite failure.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from catdet import families as fam
from catdet.exact import binomial, choose2, gould_product, lucas_value
from catdet.linalg import (
    FRAC,
    INT,
    QPOLY,
    Matrix,
    det,
    det_bareiss,
    det_cofactor,
    det_condensation,
    matvec,
    rank,
)
from catdet.orthopoly import (
    FavardSystem,
    FavardTables,
    carlitz_system,
    catalan_moment_system,
    central_binomial_system,
    fibonacci_system,
    geometric_q_system,
    geometric_q_coeff,
    hankel_shift_checks,
    lucas_variant_system,
    q_chebyshev_system,
    random_integer_system,
    system_from_coeff_rows,
    tyson_check,
)
from catdet.qseries import (
    ONE,
    QPoly,
    QRat,
    q_binomial,
    q_binomial_factors,
    q_int,
    q_lucas_value,
    q_product,
)
from catdet.sequences import (
    andrews_c,
    andrews_moment,
    ballot,
    carlitz,
    catalan,
    catalan_power,
    lucas_poly_coeffs,
    q_catalan,
    q_catalan_power,
)

F = Fraction


# ---------------------------------------------------------------------------
# framework
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bounds:
    """Grid overrides; None fields fall back to the per-check defaults."""

    n_max: int | None = None
    k_max: int | None = None
    m_max: int | None = None
    r_max: int | None = None
    x_max: int | None = None
    cases: int | None = None
    seed: int = 0
    fast: bool = False

    def get(self, field: str, fast_default: int, full_default: int) -> int:
        """The override in ``field`` if set, else the fast or the full default."""
        value = getattr(self, field)
        if value is not None:
            return value
        return fast_default if self.fast else full_default


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    params: dict
    status: str  # "pass" | "fail" | "error"
    lhs: str
    rhs: str
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "params": self.params,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class Check:
    id: str
    anchor: str
    kind: str  # det | sum | nullspace | inverse | bridge | closed-form | property | conjecture
    grid: Callable[[Bounds], list[dict]]
    run: Callable[..., tuple[bool, object, object]]

    @property
    def conjecture(self) -> bool:
        return self.kind == "conjecture"


CHECKS: dict[str, Check] = {}


def register(id: str, anchor: str, kind: str, grid):
    def wrap(fn):
        CHECKS[id] = Check(id, anchor, kind, grid, fn)
        return fn
    return wrap


def declare(*checks: Check) -> None:
    """Add table rows (``equal_check``, ``sum_check``) to ``CHECKS``."""
    CHECKS.update((check.id, check) for check in checks)


def run_check(check_id: str, **params) -> CheckResult:
    """Run one registered check at one grid point.

    A point whose check raises gets status ``error``, with the exception's
    type as ``lhs`` and its message as ``rhs``, so one crashing point does
    not abort the run.
    """
    try:
        check = CHECKS[check_id]
    except KeyError:
        raise KeyError(f"unknown check id: {check_id!r}") from None
    t0 = time.perf_counter()
    try:
        ok, lhs, rhs = check.run(**params)
    except Exception as exc:
        return CheckResult(check_id, params, "error", type(exc).__name__, str(exc),
                           time.perf_counter() - t0)
    elapsed = time.perf_counter() - t0
    return CheckResult(
        check_id, params, "pass" if ok else "fail",
        str(lhs), str(rhs), elapsed,
    )


def verify_range(check_id: str, grid: Iterable[dict] | None = None,
                 bounds: Bounds | None = None, fail_fast: bool = False
                 ) -> list[CheckResult]:
    """Run a check over a grid (default grid from bounds when not given)."""
    check = CHECKS.get(check_id)
    if check is None:
        raise KeyError(f"unknown check id: {check_id!r}")
    if grid is None:
        grid = check.grid(bounds or Bounds())
    results = []
    for point in grid:
        res = run_check(check_id, **point)
        results.append(res)
        if fail_fast and not res.passed:
            break
    return results


def kron(cond: bool) -> int:
    return 1 if cond else 0


def _sign(parity: int) -> int:
    return -1 if parity % 2 else 1


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

# The Bounds field that overrides the maximum of each bounded grid axis.
AXIS_BOUNDS = {
    "n": "n_max", "size": "n_max", "i": "n_max", "limit": "n_max",
    "k": "k_max", "m": "m_max", "r": "r_max", "x": "x_max", "x2": "x_max",
}

# Lower limit of a bounded axis that keeps only its maximum.
TOP = None


def grid(**axes) -> Callable[[Bounds], list[dict]]:
    """The product grid over ``axes``, the first axis outermost.

    An axis is ``(fast, full)`` or ``(fast, full, lo)``: the values ``lo`` (0
    when omitted; the maximum itself when ``TOP``) up to the maximum, which is
    the axis's ``AXIS_BOUNDS`` override, else its fast or full default.  A
    callable axis is ``axis(b, **earlier)``, its values at the bounds ``b``
    and at the values of the axes before it.  Any other axis is a fixed
    sequence of values.
    """
    def build(b: Bounds) -> list[dict]:
        points = [{}]
        for name, axis in axes.items():
            if isinstance(axis, tuple):
                fast, full, lo = (axis + (0,))[:3]
                top = b.get(AXIS_BOUNDS[name], fast, full)
                axis = range(top if lo is TOP else lo, top + 1)
            points = [{**point, name: v} for point in points
                      for v in (axis(b, **point) if callable(axis) else axis)]
        return points
    return build


def _cases_grid(fast: int, full: int):
    """``cases`` random cases (by default ``fast`` or ``full``), each with the run's seed."""
    return grid(case=lambda b: range(b.get("cases", fast, full)), seed=lambda b, case: (b.seed,))


# ---------------------------------------------------------------------------
# the common shapes: chains of equal values and alternating sums
# ---------------------------------------------------------------------------

# One sweep (``Family.sweep``) per (family, parameters other than n).
_SWEEPS: dict[tuple, object] = {}


def swept_det(family: fam.Family, n: int, **params):
    """det of the n x n matrix of ``family`` at ``params``, lower Hessenberg or banded.

    It is D_n of the sweep kept under ``family`` and ``params``, grown on demand.
    """
    key = (family, *sorted(params.items()))
    sweep = _SWEEPS.get(key)
    if sweep is None:
        sweep = _SWEEPS[key] = family.sweep(**params)
    return sweep[n]


def discard_sweeps() -> None:
    """Drop every sweep; the next reads recompute from scratch."""
    _SWEEPS.clear()


def equal_check(id: str, anchor: str, kind: str, grid, *sides) -> Check:
    """Every side equals the first, at each point of ``grid``.

    A side is either a lower Hessenberg or banded ``families.Family``, whose
    value at a point is its determinant read off the family's sweep
    (``swept_det``), or a function of the point's parameters.  The report's
    lhs is the first side; its rhs is the second side, or the rest joined by
    "; " when there are more.  Side functions look module names up when
    called, so that rebinding a module attribute (as a tracer does) reaches
    them.
    """
    def value_of(side):
        if isinstance(side, fam.Family):
            return lambda n, **rest: swept_det(side, n, **rest)
        return side
    values = [value_of(side) for side in sides]

    def run(**params):
        first, *rest = [value(**params) for value in values]
        return all(first == other for other in rest), first, "; ".join(map(str, rest))
    return Check(id, anchor, kind, grid, run)


def alternating_sum(n: int, term: Callable[[int], object], by_j: bool = False):
    """sum_(j=0..n) (-1)^(n-j) term(j); the sign is (-1)^j with ``by_j``.

    The sum starts from the int 0, which renders as "0" in every ring.
    """
    total = 0
    for j in range(n + 1):
        t = term(j)
        total = total + (t if (j if by_j else n - j) % 2 == 0 else -t)
    return total


def sum_check(id: str, anchor: str, grid, term, by_j: bool = False) -> Check:
    """``alternating_sum(n, j -> term(j, **point), by_j)`` is [n = 0]."""
    return equal_check(
        id, anchor, "sum", grid,
        lambda n, **rest: alternating_sum(n, lambda j: term(j, n=n, **rest), by_j),
        lambda n, **rest: kron(n == 0),
    )


def _at_q(qm: Matrix, value: int) -> Matrix:
    """Entry-wise specialization at q = value: q-polynomial entries become integers."""
    ring = INT if qm.ring is QPOLY else FRAC
    return Matrix(qm.nrows, qm.ncols, [v.specialize(value) for v in qm.data], ring)


def _random_krattenthaler_case(seed: int, case: int) -> tuple[list[int], int]:
    rng = random.Random(f"{seed}:{case}")
    n = rng.randint(1, 4)
    L = sorted(rng.sample(range(0, 9), n), reverse=True)
    A = 2 * n + rng.randint(0, 4)
    return L, A


def _krattenthaler_matrix(family: fam.Family, seed: int, case: int) -> Matrix:
    L, A = _random_krattenthaler_case(seed, case)
    return fam.build(family, len(L), L=L, A=A)


declare(
    equal_check("eq1", "1 (1)", "det", grid(n=(12, 40)),
                fam.EQ1, lambda n: catalan(n)),
    equal_check("eq1b", "1 (1)", "det", grid(n=(12, 40)),
                fam.EQ1B, lambda n: catalan(n)),
    equal_check("eq35", "2.1.1 (35)", "det",
                grid(n=(5, 6), x=lambda b, n: range(-(s := b.get("x_max", 2 * n + 2, 2 * n + 2)),
                                                    s + 1)),
                fam.EQ35, lambda n, x: gould_product(n, x, 2)),
    equal_check("eq43", "2.1.1 (43)", "det", grid(n=(10, 10)),
                fam.EQ43, lambda n: binomial(2 * n, n)),
    equal_check("eq45", "2.1.1 (45)", "det", grid(n=(10, 10), k=(6, 6, 1)),
                fam.EQ45, lambda n, k: binomial(2 * n + k - 1, n)),
    equal_check("eq46", "2.1.1 (46)", "det", grid(n=(10, 10), k=(6, 6, 1)),
                fam.EQ46, lambda n, k: binomial(2 * n + k - 1, n)),
    equal_check("eq54", "2.1.2 (54); also (3), (32)", "det", grid(n=(10, 20), k=(4, 8, 1)),
                fam.EQ54, lambda n, k: catalan_power(n, k)),
    equal_check("eq55", "2.1.2 (55); also (3), (33)", "det", grid(n=(10, 20), k=(4, 8, 1)),
                fam.EQ55, lambda n, k: catalan_power(n, k)),
    equal_check("eq58", "2.1.2 (58)", "det", grid(n=(6, 6), k=(4, 4, 1), r=(4, 4, 1)),
                fam.EQ58, lambda n, k, r: F(k, r * n + k) * binomial(r * n + k, n)),
    equal_check("eq61", "2.1.2 (61)", "det", grid(n=(6, 6), k=(4, 4, 1), r=(4, 4, 1)),
                fam.EQ61, lambda n, k, r: F(k, r * n + k) * binomial(r * n + k, n)),
    equal_check("eq63", "2.2 Lemma 3 (63)", "det", _cases_grid(8, 16),
                lambda case, seed=0: QRat(det(
                    _krattenthaler_matrix(fam.Q_KRATTENTHALER, seed, case))),
                lambda case, seed=0: fam.q_krattenthaler_lemma_rhs(
                    *_random_krattenthaler_case(seed, case))),
    equal_check("eq64", "2.2 Lemma 3 (64)", "det", _cases_grid(8, 16),
                lambda case, seed=0: det(_krattenthaler_matrix(fam.KRATTENTHALER, seed, case)),
                lambda case, seed=0: fam.krattenthaler_lemma_rhs(
                    *_random_krattenthaler_case(seed, case))),
    equal_check("eq67", "2.2 (67)", "closed-form", grid(n=(8, 12), m=(4, 6)),
                lambda n, m: det(fam.build(fam.CATALAN_HANKEL, m, shift=n)),
                lambda n, m: fam.catalan_hankel_product(n, m)),
    equal_check("eq71", "2.2 (71)", "det", grid(n=(5, 6), m=(4, 5)),
                fam.EQ71, lambda n, m: ONE),
    equal_check("eq73", "2.2 (73)", "closed-form", grid(n=(6, 8), m=(4, 5)),
                lambda n, m: det(fam.build(fam.HILBERT_HANKEL, m, shift=n)),
                lambda n, m: fam.hilbert_hankel_product(n, m)),
    equal_check("eq27", "2.1.1 (27)", "det", grid(n=(5, 6), k=(4, 4, 0)),
                fam.EQ27, lambda n, k: q_binomial(n + k, k)),
    equal_check("eq77", "3.1 (77)", "det", grid(n=(6, 8)),
                fam.EQ77, lambda n: carlitz(n)),
    equal_check("eq78", "3.1 (78)", "det", grid(n=(6, 9)),
                fam.EQ78, lambda n: fam.carlitz_reversed(n)),
    # the entry-wise q = -1 specialization of the Carlitz matrix family
    equal_check("eq79", "3.1 (79)", "det", grid(size=(7, 9)),
                lambda size: det(_at_q(fam.build(fam.EQ77, size), -1)),
                lambda size: kron(size == 0) if size % 2 == 0
                else _sign(size // 2) * catalan(size // 2)),
    equal_check("eq81", "3.1 (81)", "det", grid(n=(5, 6), r=(4, 4, 1)),
                fam.EQ81, lambda n, r: fam.gfun_reversed(n, r)),
    equal_check("eq83", "3.2 (83)", "det", grid(n=(6, 8)),
                fam.EQ83, lambda n: q_catalan(n)),
    equal_check("eq84", "3.2 (84)", "det", grid(n=(6, 8)),
                fam.EQ84, lambda n: q_catalan(n)),
    equal_check("eq85", "3.2 (85)", "det", grid(size=(8, 10)),
                lambda size: det(_at_q(fam.build(fam.EQ84, size), -1)),
                lambda size: binomial(size, size // 2)),
    equal_check("eq89", "3.2 Theorem 8 (89); also (8)", "det", grid(n=(5, 6), k=(4, 4, 1)),
                fam.EQ89, lambda n, k: andrews_c(n, k)),
    equal_check("eq92", "3.2 (92)", "det", grid(n=(6, 8), k=(4, 4, 1)),
                fam.EQ92, lambda n, k: QRat(q_binomial(2 * n + k - 1, n))),
    equal_check("sec33det", "3.3 unnumbered det", "det", grid(n=(4, 5), k=(4, 4, 1)),
                fam.SEC33, lambda n, k: fam.sec33_rhs(n, k)),
)


# ---------------------------------------------------------------------------
# section 1 and 2 checks: Catalan matrices and their relatives
# ---------------------------------------------------------------------------

def _null_grid(n_lo: int, m_offset: int, fast: int = 6, full: int = 8):
    """n from ``n_lo`` up to the bound, and m from n + ``m_offset`` to 2n - 1."""
    return grid(n=(fast, full, n_lo), m=lambda b, n: range(n + m_offset, 2 * n))


def _lucas_binomial_sum(n: int) -> list[int]:
    """The coefficients of sum_k C(n, k) L_(n-2k)(x) over the Lucas variant L, lowest first."""
    acc = [0] * (n + 1)
    for k in range(n // 2 + 1):
        c = binomial(n, k)
        for i, v in enumerate(lucas_poly_coeffs(n - 2 * k)):
            acc[i] += c * v
    return acc


def _zero_vector(n: int, m: int) -> list[int]:
    """The zero vector of length n."""
    return [0] * n


def _x_power(n: int) -> list[int]:
    """The coefficients of x^n, lowest first."""
    return [0] * n + [1]


declare(
    sum_check("eq2", "1 (2)", grid(n=(20, 60)),
              lambda j, n: binomial(n + j, n - j) * catalan(j)),
    equal_check("eq4", "1 (4)", "closed-form", grid(n=(8, 10), k=(5, 6, 1)),
                lambda n, k: catalan_power(n, k),
                lambda n, k: F(k, n + k) * binomial(2 * n + k - 1, n),
                lambda n, k: binomial(2 * n + k - 2, n) - binomial(2 * n + k - 2, n - 2)),
    equal_check("eq30", "2.1.1 (30)", "sum", grid(n=(12, 12), k=(12, 12, 1)),
                lambda n, k: catalan_power(n, k),
                lambda n, k: catalan_power(n, k - 1) + catalan_power(n - 1, k + 1)),
    sum_check("eq31", "2.1.1 (31)", grid(n=(10, 12), k=(5, 6, 0)),
              lambda j, n, k: binomial(n + k + j, n - j) * catalan_power(j, k + 1)),
    sum_check("eq33", "2.1.1 (33)", grid(n=(10, 12), k=(5, 6, 0)),
              lambda j, n, k: binomial(k + 1 + j, n - j) * catalan_power(j, k + 1)),
    equal_check("eq36", "2.1.1 (36)/(37)", "nullspace", _null_grid(2, 1),
                lambda n, m: matvec(fam.build(fam.EQ35, n, x=-m),
                                    [lucas_value(m, j) for j in range(n)]),
                _zero_vector),
    equal_check("eq39", "2.1.1 (39)", "nullspace", _null_grid(2, 1),
                lambda n, m: matvec(fam.build(fam.EQ55, n, k=-m),
                                    [lucas_value(m, j) for j in range(n)]),
                _zero_vector),
    equal_check("eq47", "2.1.1 (47)/(48)", "nullspace", _null_grid(1, 0),
                lambda n, m: matvec(fam.build(fam.EQ45, n, k=-m),
                                    [binomial(m - j, j) for j in range(n)]),
                _zero_vector),
    equal_check("eq49", "2.1.1 (49)", "nullspace", _null_grid(1, 0),
                lambda n, m: matvec(fam.build(fam.EQ49, n, m=m),
                                    [binomial(m - j, j) for j in range(n)]),
                _zero_vector),
    equal_check("eq38", "2.1.1 (38)", "sum",
                grid(n=(4, 6), r=(3, 4, 1), s=range(0, 5), t=range(-2, 4)),
                lambda n, r, s, t: sum(gould_product(j, r, t) * binomial(s + t * n - t * j, n - j)
                                       for j in range(n + 1)),
                lambda n, r, s, t: binomial(r + s + t * n, n)),
    equal_check("eq42", "2.1.1 (42)", "sum", grid(n=(10, 10)),
                _lucas_binomial_sum, _x_power),
    sum_check("eq44", "2.1.1 (44)", grid(n=(10, 10), k=(6, 6, 1)),
              lambda j, n, k: F(2 * n + k, n + k + j) * binomial(n + k + j, n - j)
              * binomial(2 * j + k, j)),
    equal_check("eq52", "2.1.2 (52)", "sum", grid(n=(8, 10), x=range(-5, 9)),
                lambda n, x: alternating_sum(
                    n, lambda j: binomial(n + j, n - j) * gould_product(j, x, 2)),
                lambda n, x: binomial(x - 1, n)),
    equal_check("eq53", "2.1.2 (53)", "sum", grid(n=(6, 8), k=(4, 5, 1), x=range(-4, 7)),
                lambda n, k, x: alternating_sum(
                    n, lambda j: binomial(n + j + k - 1, n - j) * gould_product(j, x, 2)),
                lambda n, k, x: binomial(x - k, n)),
    equal_check("eq56", "2.1.2 (56)", "sum",
                grid(n=(5, 6), k=(3, 4, 1), r=(3, 4, 1), x=range(-3, 6)),
                lambda n, k, r, x: alternating_sum(
                    n, lambda j: binomial(n + (r - 1) * j + k - 1, n - j)
                    * gould_product(j, x, r)),
                lambda n, k, r, x: binomial(x - k, n)),
    sum_check("eq57", "2.1.2 (57)", grid(n=(8, 9), k=(4, 4, 1), r=(4, 4, 1)),
              lambda j, n, k, r: binomial(n + (r - 1) * j + k - 1, n - j)
              * gould_product(j, k, r)),
    equal_check("eq59", "2.1.2 (59)", "sum",
                grid(n=(5, 6), r=(3, 3, 1), alpha=range(0, 6), gamma=range(1, 6)),
                lambda n, r, alpha, gamma: alternating_sum(
                    n, lambda j: binomial((r - 1) * j + alpha, n - j)
                    * gould_product(j, gamma, r)),
                lambda n, r, alpha, gamma: _sign(n) * binomial(alpha - gamma, n)),
    sum_check("eq60", "2.1.2 (60)", grid(n=(7, 8), k=(4, 4, 1), r=(4, 4, 1)),
              lambda j, n, k, r: binomial((r - 1) * j + k, n - j) * gould_product(j, k, r)),
    # the rewritten finite chain: sum_j (-1)^j C(2n-j, j) C_(n-j) = [n=0]
    sum_check("eq62", "2.1.3 (62)", grid(n=(20, 60)),
              lambda j, n: binomial(2 * n - j, j) * catalan(n - j), by_j=True),
)


@register("eq34", "2.1.1 (34)", "inverse", grid(size=(8, 12, TOP)))
def _eq34(size: int):
    ok = fam.build(fam.EQ34, size) * Matrix.build(size, size, ballot, INT) == Matrix.identity(size)
    return ok, "inverse of signed binomial matrix", "ballot triangle"


# ---------------------------------------------------------------------------
# section 2.2: Krattenthaler route, Hankel bridges, condensation
# ---------------------------------------------------------------------------

def _condensed(m: int, n: int, k: int):
    """det of the m x m Catalan-power Hankel matrix at (n, k), by condensation."""
    return det_condensation(fam.build(fam.CATALAN_POWER_HANKEL, m, n=n, k=k))


declare(
    equal_check("eq65", "2.2 Theorem 4 (65); also (5)", "bridge", grid(n=(8, 12), m=(4, 6)),
                lambda n, m: swept_det(fam.EQ74, n, m=m, k=0),
                lambda n, m: det(fam.build(fam.CATALAN_HANKEL, m, shift=n)),
                lambda n, m: fam.thm4_product(n, m),
                lambda n, m: fam.catalan_hankel_product(n, m)),
    equal_check("eq74", "2.2 Theorem 6 (74); also (9)", "bridge",
                grid(n=(6, 10), m=(3, 4), k=(3, 4)),
                fam.EQ74,
                lambda n, m, k: det(fam.build(fam.EQ74_REVERSED, n, n=n, m=m, k=k)),
                lambda n, m, k: det(fam.build(fam.CATALAN_POWER_HANKEL, m, n=n, k=k)),
                lambda n, m, k: fam.krattenthaler_rhs_product(n, m, k)),
    equal_check("eq76", "2.2 (76)", "recurrence", grid(n=(5, 10, 1), m=(4, 4, 2), k=(3, 4)),
                lambda n, m, k: _condensed(m, n, k) * _condensed(m - 2, n, k + 2),
                lambda n, m, k: _condensed(m - 1, n, k + 2) * _condensed(m - 1, n, k)
                - _condensed(m - 1, n + 1, k) * _condensed(m - 1, n - 1, k + 2)),
    equal_check("eq10", "1 (10)", "bridge", grid(n=(4, 5), m=(3, 3), x=(4, 4, 1)),
                fam.EQ10,
                lambda n, m, x: det(fam.build(fam.EQ10_RHS, m, n=n, x=x))),
    # the Hilbert Hankel determinants are nonzero
    equal_check("eq72", "2.2 (72)", "bridge", grid(n=(6, 8), m=(4, 5)),
                fam.EQ72,
                lambda n, m: det(fam.build(fam.HILBERT_HANKEL, m, shift=n))
                / det(fam.build(fam.HILBERT_HANKEL, m, shift=0))),
)


@register("eq75", "2.2 (75)", "closed-form", grid(n=(10, 12), k=(5, 6, 0)))
def _eq75(n: int, k: int):
    prod = fam.krattenthaler_rhs_product(n, 1, k)
    ok = prod == catalan_power(n, k + 1) and fam.v_ratio(max(n, 1), 0, k) == 1
    return ok, prod, catalan_power(n, k + 1)


# ---------------------------------------------------------------------------
# section 3: q-analogues
# ---------------------------------------------------------------------------

def _q_ballot(size: int) -> Matrix:
    """The q-ballot table of (88), the inverse of the signed q-binomial matrix."""
    return Matrix.build(size, size, lambda i, j: q_catalan_power(i - j, 2 * j + 1), QPOLY)


@register("eq88", "3.2 (88)", "inverse", grid(size=(5, 5, TOP)))
def _eq88(size: int):
    ok = fam.build(fam.EQ88, size) * _q_ballot(size) == Matrix.identity(size, QPOLY)
    return ok, "inverse of signed q-binomial matrix", "q-ballot table"


def _thm8_c(np: int, jp: int) -> QRat:
    # Lemma 9's c(n', j') is the Andrews-type entry at i = n' - 1, j = j', k = 0
    return fam.EQ89.entry(np - 1, jp, 0)


def _eq92s_term(n: int, k: int, j: int) -> QRat:
    # q^C(j,2) [2n+k-1]/[j] [2n-j+k-2 choose j-1] [2n-2j+k-1 choose n-j], with
    # the first two factors read as 1 at j = 0
    num, den = q_binomial_factors(2 * n - 2 * j + k - 1, n - j)
    if j:
        core_num, core_den = q_binomial_factors(2 * n - j + k - 2, j - 1)
        num += [2 * n + k - 1, *core_num]
        den += [j, *core_den]
    return q_product(num, den, choose2(j))


declare(
    sum_check("eq80", "3.1 (80)", grid(n=(5, 6), r=(4, 4, 1)),
              lambda j, n, r: q_binomial((r - 1) * j + 1, n - j).shift(choose2(n - j))
              * fam.gfun_reversed(j, r)),
    sum_check("eq87", "3.2 (87)", grid(n=(6, 8), k=(4, 4, 1)),
              lambda j, n, k: q_binomial(n + j + k - 1, n - j).shift(choose2(n - j))
              * q_catalan_power(j, k)),
    sum_check("eq90", "3.2 Lemma 9 (90)", grid(n=(5, 6), k=(4, 4, 1)),
              lambda j, n, k: _thm8_c(n + k, j + k) * andrews_c(j, k)),
    equal_check("eq91", "3.2 Theorem 10 (91)", "bridge", grid(n=(4, 6), m=(3, 3), k=(3, 3)),
                fam.EQ91,
                lambda n, m, k: det(fam.build(fam.EQ91_HANKEL, m, n=n, k=k)),
                lambda n, m, k: fam.q_krattenthaler_rhs(n, m, k)),
    sum_check("eq92s", "3.2 (92) companion sum", grid(n=(6, 7), k=(4, 4, 1)),
              lambda j, n, k: _eq92s_term(n, k, j), by_j=True),
    equal_check("eq97", "3.2 (97)", "closed-form", grid(n=(5, 6), x=(5, 5, 1)),
                lambda n, x: fam.thm11_w(n, x, 1),
                lambda n, x: QRat(q_binomial(2 * n + x - 1, n))),
    equal_check("remarkdet", "3.3 final remark det", "bridge",
                grid(n=(4, 5), m=(3, 3), x=(3, 3, 1)),
                lambda n, m, x: QRat(swept_det(fam.REMARK, n, m=m, x=x)),
                lambda n, m, x: QRat(det(fam.build(fam.REMARK_RHS, m, n=n, m=m, x=x))),
                lambda n, m, x: fam.remark_rhs_product(n, m, x)),
)


@register("eq86", "3.2 Theorem 7 (86); also (7)", "det", grid(n=(6, 8), k=(4, 4, 1)))
def _eq86(n: int, k: int):
    d1 = swept_det(fam.EQ86, n, k=k, shifted=False)
    d2 = swept_det(fam.EQ86, n, k=k, shifted=True)
    rhs = q_catalan_power(n, k)
    return d1 == rhs and d2 == rhs, d1, rhs


@register("eq96", "3.2 Theorem 11 (96)", "bridge", grid(n=(4, 6), m=(3, 3), x=(4, 4, 1)))
def _eq96(n: int, m: int, x: int):
    dB = swept_det(fam.THM11_B, n, x=x, m=m)
    dH = QRat(det(fam.build(fam.THM11_H, m, x=x, n=n)))
    w = fam.thm11_w(n, x, m)
    ok = dB == w and dH == w
    return ok, f"{dB}; {dH}", w


@register("eq98", "3.2 (98)", "closed-form", grid(m=(4, 5, 1), x=(4, 5, 1)))
def _eq98(m: int, x: int):
    lhs = fam.thm11_w(1, x, m)
    rhs = fam.thm11_w1m(x, m)
    det_form = swept_det(fam.EQ98, m, x=x)
    ok = lhs == rhs and QRat(det_form) == rhs
    return ok, lhs, rhs


def _w_product(a: tuple, b: tuple) -> QRat:
    """thm11_w(*a) * thm11_w(*b) as one ``q_product`` of the joined factor lists."""
    num_a, den_a, power_a = fam.thm11_w_factors(*a)
    num_b, den_b, power_b = fam.thm11_w_factors(*b)
    return q_product(num_a + num_b, den_a + den_b, power_a + power_b)


@register("eq99", "3.2 (99)", "recurrence", grid(n=(4, 5, 2), m=(3, 3, 1), x=(4, 4, 1)))
def _eq99(n: int, m: int, x: int):
    # balance identity from the condensation proof
    one = ONE
    t1 = q_int(n - 1) * (one - QPoly.monomial(n + 2 * m - 2 + x))
    t2 = q_int(n + m - 1) * (one - QPoly.monomial(n + m - 2 + x))
    t3 = QPoly.monomial(n - 1) * q_int(m) * (one - QPoly.monomial(x + m - 1))
    balance = t1 - t2 + t3
    # determinant recurrence on the row-weighted family
    r1 = _w_product((n, x, m), (n - 2, x + 2, m))
    r2 = _w_product((n - 1, x + 2, m), (n - 1, x, m))
    r3 = _w_product((n - 1, x, m + 1), (n - 1, x + 2, m - 1))
    rec = r1 - r2 + r3
    ok = balance.is_zero and rec.is_zero
    return ok, f"balance {balance}; rec {rec}", "0; 0"


@register("eq100", "3.2 (100)", "recurrence", grid(n=(4, 5, 1), m=(3, 3, 2), x=(4, 4, 1)))
def _eq100(n: int, m: int, x: int):
    # the third exponent reads x+2m+n-3 (the displayed x+2m+n does not balance)
    one = ONE
    t1 = QPoly.monomial(n) * q_int(m - 1) * (one - QPoly.monomial(x + m - 2))
    t2 = q_int(m + n - 1) * (one - QPoly.monomial(x + m + n - 2))
    t3 = q_int(n) * (one - QPoly.monomial(x + 2 * m + n - 3))
    balance = t1 - t2 + t3
    r1 = _w_product((n, x, m), (n, x + 2, m - 2))
    r2 = _w_product((n, x + 2, m - 1), (n, x, m - 1))
    r3 = _w_product((n + 1, x, m - 1), (n - 1, x + 2, m - 1))
    rec = r1 - r2 + r3
    ok = balance.is_zero and rec.is_zero
    return ok, f"balance {balance}; rec {rec}", "0; 0"


# ---------------------------------------------------------------------------
# Lemma 16 / Theorem 15
# ---------------------------------------------------------------------------

_lem16_grid = grid(i=(5, 6), x2=(13, 13, 2))


def _lem16_poly_sum(i: int, y: int) -> QPoly:
    # terms carry the common factor q^(x(x+5)/2) which is dropped: the
    # remaining per-term offsets j(3j-5)/2 - j*y are integers even at odd y,
    # since j and 3j-5 have opposite parity
    total = QPoly.const(0)
    for j in range(i + 2):
        off = j * (3 * j - 5) // 2 - j * y
        term = (
            q_binomial(i + j - y, i - j + 1).shift(choose2(i - j) + off)
            * q_lucas_value(y, j)
        )
        total = total + term
    return total


def _lem16_rat_sum(i: int, y: int) -> QRat:
    # y = 2i+1 is a genuine pole of the j = i+1 term and is excluded
    total = QRat(0)
    for j in range(i + 2):
        off = 3 * choose2(j) - j * y
        b = i + j - y
        c = i - j + 1
        # the core is 1/[b] at c = 0, else [b-1 choose c-1]/[c]; 1/[a] = (1-q)/(1-q^a)
        num, den = q_binomial_factors(y - j, j)
        if c == 0:
            num += [1]
            den += [b]
        else:
            core_num, core_den = q_binomial_factors(b - 1, c - 1)
            num += [1, *core_num]
            den += [c, *core_den]
        total = total + q_product(num, den, choose2(i - j) + off)
    return total


# (113) and (115) are (112) and (114) with x2 + 1 in place of x2
declare(
    equal_check("eq112", "3.3 Lemma 16 (112)", "sum", _lem16_grid,
                lambda i, x2: _lem16_poly_sum(i, x2), lambda i, x2: 0),
    equal_check("eq113", "3.3 Lemma 16 (113)", "sum", _lem16_grid,
                lambda i, x2: _lem16_poly_sum(i, x2 + 1), lambda i, x2: 0),
    equal_check("eq114", "3.3 Lemma 16 (114)", "sum",
                lambda b: [p for p in _lem16_grid(b) if p["x2"] != 2 * p["i"] + 1],
                lambda i, x2: _lem16_rat_sum(i, x2), lambda i, x2: 0),
    equal_check("eq115", "3.3 Lemma 16 (115)", "sum",
                lambda b: [p for p in _lem16_grid(b) if p["x2"] != 2 * p["i"]],
                lambda i, x2: _lem16_rat_sum(i, x2 + 1), lambda i, x2: 0),
)


@register("thm15", "3.3 Theorem 15", "nullspace", _null_grid(2, 0, 4, 5))
def _thm15(n: int, m: int):
    checks = []
    if n + 1 <= m <= 2 * n - 1:
        a = fam.build(fam.EQ86, n, k=-m, shifted=False)
        va = fam.thm15_vector_A(n, m)
        checks.append(all(v.is_zero for v in matvec(a, va)))
        checks.append(rank(a) == n - 1)
    if n <= m <= 2 * n - 1:
        bmat = fam.build(fam.EQ92, n, k=-m)
        vb = fam.thm15_vector_B(n, m)
        checks.append(all(v.is_zero for v in matvec(bmat, [QRat(v) for v in vb])))
        checks.append(rank(bmat) == n - 1)
    ok = bool(checks) and all(checks)
    return ok, f"annihilation and corank-1 checks: {checks}", "all true"


# ---------------------------------------------------------------------------
# orthogonal-polynomial engine checks
# ---------------------------------------------------------------------------

_SYSTEMS: dict[str, Callable[[], FavardSystem]] = {
    "fibonacci": fibonacci_system,
    "lucas-variant": lucas_variant_system,
    "catalan": catalan_moment_system,
    "central-binomial": central_binomial_system,
    "geometric-q": geometric_q_system,
    "carlitz": carlitz_system,
    "q-chebyshev": q_chebyshev_system,
}


@functools.cache
def _tables(system: str) -> FavardTables:
    """The named system's tables, one per process, grown on demand by every point.

    Sharing is safe: a table only appends whole rows, so a point that grows it
    cannot change what another point reads.
    """
    return _SYSTEMS[system]().tables()


def _thm5_grid(b: Bounds) -> list[dict]:
    # the classical systems come first in _SYSTEMS, then the q systems
    classical, q_systems = list(_SYSTEMS)[:4], list(_SYSTEMS)[4:]
    return (grid(system=classical, n=(5, 8), m=(4, 5))(b)
            + grid(system=q_systems, n=(3, 4), m=(3, 3))(b))


@register("thm5", "2.2 Theorem 5 (68); also (6)", "bridge", _thm5_grid)
def _thm5(system: str, n: int, m: int):
    ok = tyson_check(_tables(system), n, m)
    return ok, f"{system} bridge at (n={n}, m={m})", "holds"


@register("thm5r", "2.2 Theorem 5 (68), random systems", "bridge", _cases_grid(40, 200))
def _thm5r(case: int, seed: int = 0):
    # random_integer_system draws t(n) != 0, so by Favard's theorem every
    # Hankel prefix is nonzero and no draw is rejected; the ":0" suffix is part
    # of the seed string of the recorded draws (benchmark/expected.json)
    rng = random.Random(f"{seed}:{case}:0")
    sys = random_integer_system(rng)
    n, m = rng.randint(0, 5), rng.randint(0, 5)
    ok = tyson_check(sys.tables(), n, m)
    return ok, f"random system case {case} at (n={n}, m={m})", "holds"


@register("eq69", "2.2 (69)-(70)", "bridge", grid(system=list(_SYSTEMS), m=(4, 5)))
def _eq69(system: str, m: int):
    ok = hankel_shift_checks(_tables(system), m)
    return ok, f"{system} shifted Hankel formulas at m={m}", "hold"


def _coefficient_row_sum(system: str, n: int) -> list:
    """sum_k c(n, k) p_k(x) over the system's tables, as coefficients lowest first."""
    tab = _tables(system)
    acc = [0] * (n + 1)
    for k in range(n + 1):
        ck = tab.c(n, k)
        for j, v in enumerate(tab.coeff_row(k)):
            acc[j] += ck * v
    return acc


declare(
    equal_check("eq22", "2.1.1 (22)", "sum",
                grid(system=["fibonacci", "lucas-variant"], n=(8, 10)),
                _coefficient_row_sum, lambda system, n: _x_power(n)),
    equal_check("eq29", "2.1.1 (29)", "closed-form", grid(n=(7, 8), k=(6, 6, 0)),
                lambda n, k: _tables("fibonacci").c(2 * n + k, k),
                lambda n, k: catalan_power(n, k + 1)),
    sum_check("eq24", "2.1.1 (24)", grid(n=(6, 8), k=(4, 4, 0)),
              lambda j, n, k: _tables("fibonacci").p_entry(n + k, j + k)
              * _tables("fibonacci").c(j + k, k)),
    equal_check("eq25", "2.1.1 (25)", "det",
                grid(system=["fibonacci", "lucas-variant"], n=(5, 6), k=(3, 3)),
                lambda system, n, k: det(Matrix.build(
                    n, n, lambda i, j: _tables(system).p_entry(i + k + 1, j + k),
                    _tables(system).system.ring)),
                lambda system, n, k: _tables(system).c(n + k, k)),
)


@register("eq26", "2.1.1 (26)", "closed-form", grid(n=(5, 6)))
def _eq26(n: int):
    # recover (s, t) from the explicit coefficient table and cross-check the
    # closed forms used by the geometric-q system
    rows = [[geometric_q_coeff(nn, j) for j in range(nn + 1)] for nn in range(n + 2)]
    s_list, t_list, _ = system_from_coeff_rows(rows, QPOLY)
    ref = geometric_q_system()
    ok = all(s_list[i] == ref.s(i) for i in range(len(s_list))) and all(
        t_list[i] == ref.t(i) for i in range(len(t_list))
    )
    tab = ref.tables()
    ok = ok and all(tab.moment(i) == QPoly.monomial(choose2(i)) for i in range(n + 1))
    return ok, "recovered recurrence and moments", "closed forms"


@register("eq41", "2.1.1 (41)", "closed-form", grid(n=(7, 8), k=(6, 6, 0)))
def _eq41(n: int, k: int):
    tab = _tables("lucas-variant")
    lhs = tab.c(2 * n + k, k)
    rhs = binomial(2 * n + k, n)
    odd_zero = tab.c(2 * n + k + 1, k) == 0
    return lhs == rhs and odd_zero, lhs, rhs


@register("eq102", "3.3 (101)-(102)", "closed-form", grid(n=(5, 5)))
def _eq102(n: int):
    tab = _tables("q-chebyshev")
    lhs = tab.moment(2 * n)
    rhs = andrews_moment(n)
    ok = lhs == rhs and tab.moment(2 * n + 1) == QRat(0)
    return ok, lhs, rhs


# family: (field of the product, matrix at (n, k), moment M_i at (i, k))
_LEM1 = {
    "eq1": (F, lambda n, k: fam.build(fam.EQ1, n), lambda i, k: catalan(i)),
    "eq54": (F, lambda n, k: fam.build(fam.EQ54, n, k=k), lambda i, k: catalan_power(i, k)),
    "eq43": (F, lambda n, k: fam.build(fam.EQ43, n), lambda i, k: binomial(2 * i, i)),
    "eq83": (QRat, lambda n, k: fam.build(fam.EQ83, n), lambda i, k: q_catalan(i)),
}


def _lem1_grid(b: Bounds) -> list[dict]:
    out = []
    for n in range(b.get("n_max", 6, 8) + 1):
        out += [{"family": family, "n": n, "k": 1} for family in ("eq1", "eq43", "eq83")]
        out += [{"family": "eq54", "n": n, "k": k}
                for k in range(1, b.get("k_max", 3, 4) + 1)]
    return out


@register("lem1", "2 Lemma 1 (15)-(16)", "bridge", _lem1_grid)
def _lem1(family: str, n: int, k: int):
    """Product route: the determinant equals prod M_(i+1)/M_i of the moments."""
    field, matrix, moment = _LEM1[family]
    lhs = field(det(matrix(n, k)))
    moments = [moment(i, k) for i in range(n + 1)]
    prod = field(1)
    for i in range(n):
        prod = prod * field(moments[i + 1], moments[i])
    return lhs == prod, lhs, prod


# ---------------------------------------------------------------------------
# q -> 1 coherence and engine cross-agreement properties
# ---------------------------------------------------------------------------

# pair: (points, the q-side value with every entry at q = 1, its classical values)
_COHERENCE = {
    "eq83": (list(itertools.product(range(6))),
             lambda n: det(_at_q(fam.build(fam.EQ83, n), 1)),
             lambda n: (catalan(n), q_catalan(n).specialize(1))),
    "eq84": (list(itertools.product(range(6))),
             lambda n: det(_at_q(fam.build(fam.EQ84, n), 1)),
             lambda n: (catalan(n),)),
    "eq86a": (list(itertools.product(range(5), range(1, 4))),
              lambda n, k: det(_at_q(fam.build(fam.EQ86, n, k=k, shifted=False), 1)),
              lambda n, k: (det(fam.build(fam.EQ54, n, k=k)),)),
    "eq86b": (list(itertools.product(range(5), range(1, 4))),
              lambda n, k: det(_at_q(fam.build(fam.EQ86, n, k=k, shifted=True), 1)),
              lambda n, k: (catalan_power(n, k),)),
    "eq91": (list(itertools.product(range(4), range(3), range(3))),
             lambda n, m, k: det(_at_q(fam.build(fam.EQ91, n, m=m, k=k), 1)),
             lambda n, m, k: (det(fam.build(fam.EQ74, n, m=m, k=k)),)),
    "eq92": (list(itertools.product(range(5), range(1, 4))),
             lambda n, k: det(_at_q(fam.build(fam.EQ92, n, k=k), 1)),
             lambda n, k: (det(fam.build(fam.EQ45, n, k=k)), binomial(2 * n + k - 1, n))),
    "eq27": (list(itertools.product(range(5), range(4))),
             lambda n, k: det(_at_q(fam.build(fam.EQ27, n, k=k), 1)),
             lambda n, k: (binomial(n + k, k),)),
    "eq88": ([(5,)],
             lambda size: _at_q(_q_ballot(size), 1),
             lambda size: (Matrix.build(size, size, ballot, INT),)),
}


def _coherent(at_one, classical, point) -> bool:
    value = at_one(*point)
    return all(value == other for other in classical(*point))


@register("coh", "q -> 1 coherence across paired checks", "property",
          grid(pair=list(_COHERENCE)))
def _coh(pair: str):
    """Specializing every matrix entry at q = 1 reproduces the classical check."""
    points, at_one, classical = _COHERENCE[pair]
    ok = all(_coherent(at_one, classical, point) for point in points)
    return ok, f"{pair} at q = 1", "classical counterpart"


def _random_qpoly(rng) -> QPoly:
    terms = [
        (rng.randint(0, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))
    ]
    return QPoly(terms)


@register("engines", "determinant engine cross-agreement", "property", _cases_grid(60, 260))
def _engines(case: int, seed: int = 0):
    rng = random.Random(f"{seed}:{case}")
    if case % 13 < 10:
        n = rng.randint(0, 6)
        m = Matrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)], INT)
    else:
        n = rng.randint(1, 4)
        m = Matrix(n, n, [_random_qpoly(rng) for _ in range(n * n)], QPOLY)
    d = det_cofactor(m)
    ok = det_bareiss(m) == d and det_condensation(m) == d
    ok = ok and det_bareiss(m.transpose()) == d
    if m.ring is QPOLY:  # det's route for q-polynomials: one Kronecker determinant
        ok = ok and det(m) == d
    if m.ring is INT and n == 4:
        other = Matrix(4, 4, [rng.randint(-5, 5) for _ in range(16)], INT)
        ok = ok and det_bareiss(m * other) == d * det_bareiss(other)
    return ok, f"case {case} ({m.ring.name}, {n}x{n})", "engines agree"


def check_index() -> list[dict]:
    """The id -> catalogue-location index, for the CLI `list` command."""
    return [
        {
            "id": c.id,
            "anchor": c.anchor,
            "kind": c.kind,
            "conjecture": c.conjecture,
            "params": sorted({k for pt in c.grid(Bounds(fast=True)) for k in pt}),
        }
        for c in sorted(CHECKS.values(), key=lambda c: c.id)
    ]
