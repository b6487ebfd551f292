"""Registry of executable identity checks.

Every verifiable display gets a check with a stable id ("eqNN", "thmNN",
"lemNN", plus a few derived ids like "eq92s" for an unnumbered companion
sum).  A check knows its catalogue anchor (section and display number), a
kind tag, a default parameter grid (a trimmed "fast" grid and the full
acceptance grid), and a run function that computes both sides exactly and
compares them structurally.

Most checks are data: a grid is a product of axes (``grid``), "det of family
= closed form" is one row of ``_DET_CHECKS`` (``det_check``), a null vector is
one row of ``_NULL_CHECKS``, and an "alternating sum = [n = 0]" runner is one
call of ``kron_sum``.  The rest are written out below their section headers.

Conjecture checks are tagged; a counterexample there is a reportable
outcome, never a suite failure.
"""

from __future__ import annotations

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
    QRAT,
    Matrix,
    det,
    det_bareiss,
    det_cofactor,
    det_condensation,
    inverse,
    matvec,
    rank,
)
from catdet.orthopoly import (
    FavardSystem,
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
    q_int,
    q_lucas_value,
    q_pochhammer,
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
    status: str  # "pass" | "fail"
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
    conjecture: bool = False


CHECKS: dict[str, Check] = {}


def register(id: str, anchor: str, kind: str, grid, conjecture: bool = False):
    def wrap(fn):
        CHECKS[id] = Check(id, anchor, kind, grid, fn, conjecture)
        return fn
    return wrap


def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def run_check(check_id: str, **params) -> CheckResult:
    """Run one registered check at one grid point."""
    try:
        check = CHECKS[check_id]
    except KeyError:
        raise KeyError(f"unknown check id: {check_id!r}") from None
    t0 = time.perf_counter()
    ok, lhs, rhs = check.run(**params)
    elapsed = time.perf_counter() - t0
    return CheckResult(
        check_id, dict(params), "pass" if ok else "fail",
        fmt_value(lhs), fmt_value(rhs), elapsed,
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
    "n": "n_max", "size": "n_max", "i": "n_max", "m_below": "n_max", "limit": "n_max",
    "k": "k_max", "m": "m_max", "r": "r_max", "x": "x_max", "x2": "x_max",
    "case": "cases",
}

# Lower limit of a bounded axis that keeps only its maximum.
TOP = None


def grid(**axes) -> Callable[[Bounds], list[dict]]:
    """The product grid over ``axes``, the first axis outermost.

    An axis is ``(fast, full)`` or ``(fast, full, lo)``: the values ``lo`` (0
    when omitted; the maximum itself when ``TOP``) up to the maximum, which is
    the axis's ``AXIS_BOUNDS`` override, else its fast or full default.  Any
    other axis is a fixed sequence of values.
    """
    def build(b: Bounds) -> list[dict]:
        values = []
        for name, axis in axes.items():
            if isinstance(axis, tuple):
                fast, full, lo = (axis + (0,))[:3]
                top = b.get(AXIS_BOUNDS[name], fast, full)
                axis = range(top if lo is TOP else lo, top + 1)
            values.append(axis)
        return [dict(zip(axes, point)) for point in itertools.product(*values)]
    return build


def _cases_grid(fast: int, full: int):
    def build(b: Bounds) -> list[dict]:
        return [{"case": c, "seed": b.seed} for c in range(b.get("cases", fast, full))]
    return build


# ---------------------------------------------------------------------------
# the common shapes: det of family = closed form, alternating sums, null vectors
# ---------------------------------------------------------------------------

def det_check(id: str, anchor: str, grid, family, closed_form, wrap=None,
              kind: str = "det") -> Check:
    """``det(family(**p))``, passed through ``wrap``, equals ``closed_form(**p)``.

    ``family`` and ``closed_form`` take the grid point's parameters.  They are
    lambdas that look up module names when called, so that rebinding a module
    attribute (as a tracer does) reaches them.
    """
    def run(**params):
        lhs = det(family(**params))
        if wrap is not None:
            lhs = wrap(lhs)
        rhs = closed_form(**params)
        return lhs == rhs, lhs, rhs
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


def kron_sum(n: int, term: Callable[[int], object], by_j: bool = False):
    """Check that ``alternating_sum(n, term, by_j)`` is [n = 0]."""
    total = alternating_sum(n, term, by_j)
    rhs = kron(n == 0)
    return total == rhs, total, rhs


def null_check(id: str, anchor: str, grid, matrix, vector) -> Check:
    """``matrix(n, m)`` times ``vector(n, m)`` is the zero vector."""
    def run(n: int, m: int):
        vec = vector(n, m)
        out = matvec(matrix(n, m), vec)
        return all(v == 0 for v in out), out, [0] * n
    return Check(id, anchor, "nullspace", grid, run)


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


def _eq35_grid(b: Bounds) -> list[dict]:
    out = []
    for n in range(b.get("n_max", 5, 6) + 1):
        span = b.get("x_max", 2 * n + 2, 2 * n + 2)
        for x in range(-span, span + 1):
            out.append({"n": n, "x": x})
    return out


_DET_CHECKS = (
    det_check("eq1", "1 (1)", grid(n=(12, 40)),
              lambda n: fam.fam_eq1(n), lambda n: catalan(n)),
    det_check("eq1b", "1 (1)", grid(n=(12, 40)),
              lambda n: fam.fam_eq1b(n), lambda n: catalan(n)),
    det_check("eq35", "2.1.1 (35)", _eq35_grid,
              lambda n, x: fam.fam_eq35(n, x), lambda n, x: gould_product(n, x, 2)),
    det_check("eq43", "2.1.1 (43)", grid(n=(10, 10)),
              lambda n: fam.fam_eq43(n), lambda n: binomial(2 * n, n)),
    det_check("eq45", "2.1.1 (45)", grid(n=(10, 10), k=(6, 6, 1)),
              lambda n, k: fam.fam_eq45(n, k), lambda n, k: binomial(2 * n + k - 1, n)),
    det_check("eq46", "2.1.1 (46)", grid(n=(10, 10), k=(6, 6, 1)),
              lambda n, k: fam.fam_eq46(n, k), lambda n, k: binomial(2 * n + k - 1, n)),
    det_check("eq54", "2.1.2 (54); also (3), (32)", grid(n=(10, 20), k=(4, 8, 1)),
              lambda n, k: fam.fam_eq54(n, k), lambda n, k: catalan_power(n, k)),
    det_check("eq55", "2.1.2 (55); also (3), (33)", grid(n=(10, 20), k=(4, 8, 1)),
              lambda n, k: fam.fam_eq55(n, k), lambda n, k: catalan_power(n, k)),
    det_check("eq58", "2.1.2 (58)", grid(n=(6, 6), k=(4, 4, 1), r=(4, 4, 1)),
              lambda n, k, r: fam.fam_eq58(n, k, r),
              lambda n, k, r: F(k, r * n + k) * binomial(r * n + k, n)),
    det_check("eq61", "2.1.2 (61)", grid(n=(6, 6), k=(4, 4, 1), r=(4, 4, 1)),
              lambda n, k, r: fam.fam_eq61(n, k, r),
              lambda n, k, r: F(k, r * n + k) * binomial(r * n + k, n)),
    det_check("eq63", "2.2 Lemma 3 (63)", _cases_grid(8, 16),
              lambda case, seed=0: fam.fam_q_krattenthaler(
                  *_random_krattenthaler_case(seed, case)),
              lambda case, seed=0: fam.q_krattenthaler_lemma_rhs(
                  *_random_krattenthaler_case(seed, case)),
              wrap=QRat),
    det_check("eq64", "2.2 Lemma 3 (64)", _cases_grid(8, 16),
              lambda case, seed=0: fam.fam_krattenthaler(
                  *_random_krattenthaler_case(seed, case)),
              lambda case, seed=0: fam.krattenthaler_lemma_rhs(
                  *_random_krattenthaler_case(seed, case))),
    det_check("eq67", "2.2 (67)", grid(n=(8, 12), m=(4, 6)),
              lambda n, m: fam.catalan_hankel(n, m),
              lambda n, m: fam.catalan_hankel_product(n, m), kind="closed-form"),
    det_check("eq71", "2.2 (71)", grid(n=(5, 6), m=(4, 5)),
              lambda n, m: fam.fam_eq71(n, m), lambda n, m: ONE),
    det_check("eq73", "2.2 (73)", grid(n=(6, 8), m=(4, 5)),
              lambda n, m: fam.hilbert_hankel(n, m),
              lambda n, m: fam.hilbert_hankel_product(n, m), kind="closed-form"),
    det_check("eq27", "2.1.1 (27)", grid(n=(5, 6), k=(4, 4, 0)),
              lambda n, k: fam.fam_eq27(n, k), lambda n, k: q_binomial(n + k, k)),
    det_check("eq77", "3.1 (77)", grid(n=(6, 8)),
              lambda n: fam.fam_eq77(n), lambda n: carlitz(n)),
    det_check("eq78", "3.1 (78)", grid(n=(6, 9)),
              lambda n: fam.fam_eq78(n), lambda n: fam.carlitz_reversed(n)),
    # the entry-wise q = -1 specialization of the Carlitz matrix family
    det_check("eq79", "3.1 (79)", grid(size=(7, 9)),
              lambda size: _at_q(fam.fam_eq77(size), -1),
              lambda size: kron(size == 0) if size % 2 == 0
              else _sign(size // 2) * catalan(size // 2)),
    det_check("eq81", "3.1 (81)", grid(n=(5, 6), r=(4, 4, 1)),
              lambda n, r: fam.fam_eq81(n, r), lambda n, r: fam.gfun_reversed(n, r)),
    det_check("eq83", "3.2 (83)", grid(n=(6, 8)),
              lambda n: fam.fam_eq83(n), lambda n: q_catalan(n)),
    det_check("eq84", "3.2 (84)", grid(n=(6, 8)),
              lambda n: fam.fam_eq84(n), lambda n: q_catalan(n)),
    det_check("eq85", "3.2 (85)", grid(size=(8, 10)),
              lambda size: _at_q(fam.fam_eq84(size), -1),
              lambda size: binomial(size, size // 2)),
    det_check("eq89", "3.2 Theorem 8 (89); also (8)", grid(n=(5, 6), k=(4, 4, 1)),
              lambda n, k: fam.fam_eq89(n, k), lambda n, k: andrews_c(n, k)),
    det_check("eq92", "3.2 (92)", grid(n=(6, 8), k=(4, 4, 1)),
              lambda n, k: fam.fam_eq92(n, k),
              lambda n, k: QRat(q_binomial(2 * n + k - 1, n))),
    det_check("sec33det", "3.3 unnumbered det", grid(n=(4, 5), k=(4, 4, 1)),
              lambda n, k: fam.fam_sec33(n, k), lambda n, k: fam.sec33_rhs(n, k)),
)
CHECKS.update((check.id, check) for check in _DET_CHECKS)


# ---------------------------------------------------------------------------
# section 1 and 2 checks: Catalan matrices and their relatives
# ---------------------------------------------------------------------------

@register("eq2", "1 (2)", "sum", grid(n=(20, 60)))
def _eq2(n: int):
    return kron_sum(n, lambda j: binomial(n + j, n - j) * catalan(j))


@register("eq4", "1 (4)", "closed-form", grid(n=(8, 10), k=(5, 6, 1)))
def _eq4(n: int, k: int):
    a = catalan_power(n, k)
    b = F(k, n + k) * binomial(2 * n + k - 1, n)
    c = binomial(2 * n + k - 2, n) - binomial(2 * n + k - 2, n - 2)
    return a == b == c, a, f"{b}; {c}"


@register("eq30", "2.1.1 (30)", "sum", grid(n=(12, 12), k=(12, 12, 1)))
def _eq30(n: int, k: int):
    lhs = catalan_power(n, k)
    rhs = catalan_power(n, k - 1) + catalan_power(n - 1, k + 1)
    return lhs == rhs, lhs, rhs


@register("eq31", "2.1.1 (31)", "sum", grid(n=(10, 12), k=(5, 6, 0)))
def _eq31(n: int, k: int):
    return kron_sum(n, lambda j: binomial(n + k + j, n - j) * catalan_power(j, k + 1))


@register("eq33", "2.1.1 (33)", "sum", grid(n=(10, 12), k=(5, 6, 0)))
def _eq33(n: int, k: int):
    return kron_sum(n, lambda j: binomial(k + 1 + j, n - j) * catalan_power(j, k + 1))


@register("eq34", "2.1.1 (34)", "inverse", grid(size=(8, 12, TOP)))
def _eq34(size: int):
    inv = inverse(fam.fam_eq34(size))
    expected = Matrix.build(size, size, lambda i, j: F(ballot(i, j)), FRAC)
    return inv == expected, "inverse of signed binomial matrix", "ballot triangle"


def _null_grid(n_lo: int, m_offset: int):
    """n from ``n_lo`` up to the bound, and m from n + ``m_offset`` to 2n - 1."""
    def build(b: Bounds) -> list[dict]:
        return [
            {"n": n, "m": m}
            for n in range(n_lo, b.get("n_max", 6, 8) + 1)
            for m in range(n + m_offset, 2 * n)
        ]
    return build


_NULL_CHECKS = (
    null_check("eq36", "2.1.1 (36)/(37)", _null_grid(2, 1),
               lambda n, m: fam.fam_eq35(n, -m),
               lambda n, m: [lucas_value(m, j) for j in range(n)]),
    null_check("eq39", "2.1.1 (39)", _null_grid(2, 1),
               lambda n, m: fam.fam_eq39(n, m),
               lambda n, m: [lucas_value(m, j) for j in range(n)]),
    null_check("eq47", "2.1.1 (47)/(48)", _null_grid(1, 0),
               lambda n, m: fam.fam_eq45(n, -m),
               lambda n, m: [binomial(m - j, j) for j in range(n)]),
    null_check("eq49", "2.1.1 (49)", _null_grid(1, 0),
               lambda n, m: fam.fam_eq49(n, m),
               lambda n, m: [binomial(m - j, j) for j in range(n)]),
)
CHECKS.update((check.id, check) for check in _NULL_CHECKS)


@register("eq38", "2.1.1 (38)", "sum",
          grid(n=(4, 6), r=(3, 4, 1), s=range(0, 5), t=range(-2, 4)))
def _eq38(n: int, r: int, s: int, t: int):
    lhs = sum(
        gould_product(j, r, t) * binomial(s + t * n - t * j, n - j)
        for j in range(n + 1)
    )
    rhs = binomial(r + s + t * n, n)
    return lhs == rhs, lhs, rhs


@register("eq42", "2.1.1 (42)", "sum", grid(n=(10, 10)))
def _eq42(n: int):
    acc = [0] * (n + 1)
    for k in range(n // 2 + 1):
        row = lucas_poly_coeffs(n - 2 * k)
        c = binomial(n, k)
        for i, v in enumerate(row):
            acc[i] += c * v
    rhs = [0] * n + [1]
    return acc == rhs, acc, rhs


@register("eq44", "2.1.1 (44)", "sum", grid(n=(10, 10), k=(6, 6, 1)))
def _eq44(n: int, k: int):
    return kron_sum(n, lambda j: F(2 * n + k, n + k + j) * binomial(n + k + j, n - j)
                    * binomial(2 * j + k, j))


@register("eq52", "2.1.2 (52)", "sum", grid(n=(8, 10), x=range(-5, 9)))
def _eq52(n: int, x: int):
    lhs = alternating_sum(n, lambda j: binomial(n + j, n - j) * gould_product(j, x, 2))
    rhs = binomial(x - 1, n)
    return lhs == rhs, lhs, rhs


@register("eq53", "2.1.2 (53)", "sum", grid(n=(6, 8), k=(4, 5, 1), x=range(-4, 7)))
def _eq53(n: int, k: int, x: int):
    lhs = alternating_sum(n, lambda j: binomial(n + j + k - 1, n - j) * gould_product(j, x, 2))
    rhs = binomial(x - k, n)
    return lhs == rhs, lhs, rhs


@register("eq56", "2.1.2 (56)", "sum",
          grid(n=(5, 6), k=(3, 4, 1), r=(3, 4, 1), x=range(-3, 6)))
def _eq56(n: int, k: int, r: int, x: int):
    lhs = alternating_sum(n, lambda j: binomial(n + (r - 1) * j + k - 1, n - j)
                          * gould_product(j, x, r))
    rhs = binomial(x - k, n)
    return lhs == rhs, lhs, rhs


@register("eq57", "2.1.2 (57)", "sum", grid(n=(8, 9), k=(4, 4, 1), r=(4, 4, 1)))
def _eq57(n: int, k: int, r: int):
    return kron_sum(n, lambda j: binomial(n + (r - 1) * j + k - 1, n - j)
                    * gould_product(j, k, r))


@register("eq59", "2.1.2 (59)", "sum",
          grid(n=(5, 6), r=(3, 3, 1), alpha=range(0, 6), gamma=range(1, 6)))
def _eq59(n: int, r: int, alpha: int, gamma: int):
    lhs = alternating_sum(n, lambda j: binomial((r - 1) * j + alpha, n - j)
                          * gould_product(j, gamma, r))
    rhs = _sign(n) * binomial(alpha - gamma, n)
    return lhs == rhs, lhs, rhs


@register("eq60", "2.1.2 (60)", "sum", grid(n=(7, 8), k=(4, 4, 1), r=(4, 4, 1)))
def _eq60(n: int, k: int, r: int):
    return kron_sum(n, lambda j: binomial((r - 1) * j + k, n - j) * gould_product(j, k, r))


@register("eq62", "2.1.3 (62)", "sum", grid(n=(20, 60)))
def _eq62(n: int):
    # the rewritten finite chain: sum_j (-1)^j C(2n-j, j) C_(n-j) = [n=0]
    return kron_sum(n, lambda j: binomial(2 * n - j, j) * catalan(n - j), by_j=True)


# ---------------------------------------------------------------------------
# section 2.2: Krattenthaler route, Hankel bridges, condensation
# ---------------------------------------------------------------------------

@register("eq65", "2.2 Theorem 4 (65); also (5)", "bridge", grid(n=(8, 12), m=(4, 6)))
def _eq65(n: int, m: int):
    d = det(fam.fam_eq65(n, m))
    h = det(fam.catalan_hankel(n, m))
    p1 = fam.thm4_product(n, m)
    p2 = fam.catalan_hankel_product(n, m)
    ok = d == h == p1 == p2
    return ok, d, f"{h}; {p1}; {p2}"


@register("eq72", "2.2 (72)", "bridge", grid(n=(6, 8), m=(4, 5)))
def _eq72(n: int, m: int):
    lhs = det(fam.fam_eq72(n, m))
    h0 = det(fam.hilbert_hankel(0, m))
    hn = det(fam.hilbert_hankel(n, m))
    ok = lhs * h0 == hn
    return ok, lhs, hn / h0


@register("eq74", "2.2 Theorem 6 (74); also (9)", "bridge",
          grid(n=(6, 10), m=(3, 4), k=(3, 4)))
def _eq74(n: int, m: int, k: int):
    d1 = det(fam.fam_eq74(n, m, k))
    d2 = det(fam.fam_eq74_reversed(n, m, k))
    d3 = det(fam.catalan_power_hankel(n, m, k))
    p = fam.krattenthaler_rhs_product(n, m, k)
    ok = d1 == d2 == d3 == p
    return ok, d1, f"{d2}; {d3}; {p}"


@register("eq75", "2.2 (75)", "closed-form", grid(n=(10, 12), k=(5, 6, 0)))
def _eq75(n: int, k: int):
    prod = fam.krattenthaler_rhs_product(n, 1, k)
    ok = prod == catalan_power(n, k + 1) and fam.v_ratio(max(n, 1), 0, k) == 1
    return ok, prod, catalan_power(n, k + 1)


@register("eq76", "2.2 (76)", "recurrence", grid(n=(5, 10, 1), m=(4, 4, 2), k=(3, 4)))
def _eq76(n: int, m: int, k: int):
    def M(mm, nn, kk):
        return det_condensation(fam.catalan_power_hankel(nn, mm, kk))

    lhs = M(m, n, k) * M(m - 2, n, k + 2)
    rhs = M(m - 1, n, k + 2) * M(m - 1, n, k) - M(m - 1, n + 1, k) * M(m - 1, n - 1, k + 2)
    return lhs == rhs, lhs, rhs


@register("eq10", "1 (10)", "bridge", grid(n=(4, 5), m=(3, 3), x=(4, 4, 1)))
def _eq10(n: int, m: int, x: int):
    d1 = det(fam.fam_eq10(n, m, x))
    d2 = det(fam.fam_eq10_rhs(n, m, x))
    return d1 == d2, d1, d2


# ---------------------------------------------------------------------------
# section 3: q-analogues
# ---------------------------------------------------------------------------

@register("eq80", "3.1 (80)", "sum", grid(n=(5, 6), r=(4, 4, 1)))
def _eq80(n: int, r: int):
    return kron_sum(n, lambda j: q_binomial((r - 1) * j + 1, n - j).shift(2 * choose2(n - j))
                    * fam.gfun_reversed(j, r))


@register("eq86", "3.2 Theorem 7 (86); also (7)", "det", grid(n=(6, 8), k=(4, 4, 1)))
def _eq86(n: int, k: int):
    d1 = det(fam.fam_eq86(n, k, shifted=False))
    d2 = det(fam.fam_eq86(n, k, shifted=True))
    rhs = q_catalan_power(n, k)
    return d1 == rhs and d2 == rhs, d1, rhs


@register("eq87", "3.2 (87)", "sum", grid(n=(6, 8), k=(4, 4, 1)))
def _eq87(n: int, k: int):
    return kron_sum(n, lambda j: q_binomial(n + j + k - 1, n - j).shift(2 * choose2(n - j))
                    * q_catalan_power(j, k))


@register("eq88", "3.2 (88)", "inverse", grid(size=(5, 5, TOP)))
def _eq88(size: int):
    inv = inverse(fam.fam_eq88(size))
    expected = Matrix.build(
        size, size, lambda i, j: QRat(q_catalan_power(i - j, 2 * j + 1)), QRAT
    )
    return inv == expected, "inverse of signed q-binomial matrix", "q-ballot table"


def _thm8_c(np: int, jp: int) -> QRat:
    d = np - jp
    if d < 0:
        return QRat(0)
    num = q_binomial(jp, d) * q_pochhammer(-1, 2 * jp, d)
    return QRat(num.shift(4 * choose2(d)), q_pochhammer(-1, 2, d))


@register("eq90", "3.2 Lemma 9 (90)", "sum", grid(n=(5, 6), k=(4, 4, 1)))
def _eq90(n: int, k: int):
    return kron_sum(n, lambda j: _thm8_c(n + k, j + k) * andrews_c(j, k))


@register("eq91", "3.2 Theorem 10 (91)", "bridge", grid(n=(4, 6), m=(3, 3), k=(3, 3)))
def _eq91(n: int, m: int, k: int):
    d1 = det(fam.fam_eq91(n, m, k))
    d2 = det(fam.fam_eq91_hankel(n, m, k))
    p = fam.q_krattenthaler_rhs(n, m, k)
    ok = d1 == d2 == p
    return ok, d1, f"{d2}; {p}"


def _eq92s_term(n: int, k: int, j: int) -> QRat:
    if j == 0:
        core = QRat(1)
    else:
        core = QRat(q_int(2 * n + k - 1) * q_binomial(2 * n - j + k - 2, j - 1), q_int(j))
    return core * QRat(q_binomial(2 * n - 2 * j + k - 1, n - j).shift(2 * choose2(j)))


@register("eq92s", "3.2 (92) companion sum", "sum", grid(n=(6, 7), k=(4, 4, 1)))
def _eq92s(n: int, k: int):
    return kron_sum(n, lambda j: _eq92s_term(n, k, j), by_j=True)


@register("eq96", "3.2 Theorem 11 (96)", "bridge", grid(n=(4, 6), m=(3, 3), x=(4, 4, 1)))
def _eq96(n: int, m: int, x: int):
    dB = det(fam.fam_thm11_B(n, x, m))
    dH = QRat(det(fam.fam_thm11_H(m, x, n)))
    w = fam.thm11_w(n, x, m)
    ok = dB == w and dH == w
    return ok, f"{dB}; {dH}", w


@register("eq97", "3.2 (97)", "closed-form", grid(n=(5, 6), x=(5, 5, 1)))
def _eq97(n: int, x: int):
    lhs = fam.thm11_w(n, x, 1)
    rhs = QRat(q_binomial(2 * n + x - 1, n))
    return lhs == rhs, lhs, rhs


@register("eq98", "3.2 (98)", "closed-form", grid(m=(4, 5, 1), x=(4, 5, 1)))
def _eq98(m: int, x: int):
    lhs = fam.thm11_w(1, x, m)
    rhs = fam.thm11_w1m(x, m)
    det_form = det(
        Matrix.build(
            m, m, lambda i, j: q_binomial(2 * i + x + 1, i - j + 1), QPOLY
        )
    )
    ok = lhs == rhs and QRat(det_form) == rhs
    return ok, lhs, rhs


@register("eq99", "3.2 (99)", "recurrence", grid(n=(4, 5, 2), m=(3, 3, 1), x=(4, 4, 1)))
def _eq99(n: int, m: int, x: int):
    # balance identity from the condensation proof
    one = ONE
    t1 = q_int(n - 1) * (one - QPoly.monomial(2 * (n + 2 * m - 2 + x)))
    t2 = q_int(n + m - 1) * (one - QPoly.monomial(2 * (n + m - 2 + x)))
    t3 = QPoly.monomial(2 * (n - 1)) * q_int(m) * (one - QPoly.monomial(2 * (x + m - 1)))
    balance = t1 - t2 + t3
    # determinant recurrence on the row-weighted family
    w = fam.thm11_w
    r1 = w(n, x, m) * w(n - 2, x + 2, m)
    r2 = w(n - 1, x + 2, m) * w(n - 1, x, m)
    r3 = w(n - 1, x, m + 1) * w(n - 1, x + 2, m - 1)
    ok = balance.is_zero and (r1 - r2 + r3).is_zero
    return ok, f"balance {balance}; rec {r1 - r2 + r3}", "0; 0"


@register("eq100", "3.2 (100)", "recurrence", grid(n=(4, 5, 1), m=(3, 3, 2), x=(4, 4, 1)))
def _eq100(n: int, m: int, x: int):
    # the third exponent reads x+2m+n-3 (the displayed x+2m+n does not balance)
    one = ONE
    t1 = QPoly.monomial(2 * n) * q_int(m - 1) * (one - QPoly.monomial(2 * (x + m - 2)))
    t2 = q_int(m + n - 1) * (one - QPoly.monomial(2 * (x + m + n - 2)))
    t3 = q_int(n) * (one - QPoly.monomial(2 * (x + 2 * m + n - 3)))
    balance = t1 - t2 + t3
    w = fam.thm11_w
    r1 = w(n, x, m) * w(n, x + 2, m - 2)
    r2 = w(n, x + 2, m - 1) * w(n, x, m - 1)
    r3 = w(n + 1, x, m - 1) * w(n - 1, x + 2, m - 1)
    ok = balance.is_zero and (r1 - r2 + r3).is_zero
    return ok, f"balance {balance}; rec {r1 - r2 + r3}", "0; 0"


@register("remarkdet", "3.3 final remark det", "bridge",
          grid(n=(4, 5), m=(3, 3), x=(3, 3, 1)))
def _remarkdet(n: int, m: int, x: int):
    d1 = QRat(det(fam.fam_remark(n, m, x)))
    d2 = QRat(det(fam.fam_remark_rhs(n, m, x)))
    p = fam.remark_rhs_product(n, m, x)
    ok = d1 == d2 == p
    return ok, d1, f"{d2}; {p}"


# ---------------------------------------------------------------------------
# Lemma 16 / Theorem 15
# ---------------------------------------------------------------------------

_lem16_grid = grid(i=(5, 6), x2=(13, 13, 2))


def _lem16_poly_sum(i: int, y: int):
    # terms carry the common factor q^(x(x+5)/2) which is dropped: the
    # remaining per-term offsets j(3j-5)/2 - j*y are integers even at odd y
    total = QPoly.const(0)
    for j in range(i + 2):
        off = j * (3 * j - 5) - 2 * j * y  # doubled exponent
        term = (
            q_binomial(i + j - y, i - j + 1).shift(2 * choose2(i - j) + off)
            * q_lucas_value(y, j)
        )
        total = total + term
    return total.is_zero, total, QPoly.const(0)


def _lem16_rat_sum(i: int, y: int):
    # y = 2i+1 is a genuine pole of the j = i+1 term and is excluded
    total = QRat(0)
    for j in range(i + 2):
        off = j * (3 * j - 3) - 2 * j * y
        b = i + j - y
        c = i - j + 1
        core = QRat(ONE, q_int(b)) if c == 0 else QRat(q_binomial(b - 1, c - 1), q_int(c))
        term = core * QRat(q_binomial(y - j, j).shift(2 * choose2(i - j) + off))
        total = total + term
    return total.is_zero, total, QRat(0)


# (113) and (115) are (112) and (114) with x2 + 1 in place of x2

@register("eq112", "3.3 Lemma 16 (112)", "sum", _lem16_grid)
def _eq112(i: int, x2: int):
    return _lem16_poly_sum(i, x2)


@register("eq113", "3.3 Lemma 16 (113)", "sum", _lem16_grid)
def _eq113(i: int, x2: int):
    return _lem16_poly_sum(i, x2 + 1)


@register("eq114", "3.3 Lemma 16 (114)", "sum",
          lambda b: [p for p in _lem16_grid(b) if p["x2"] != 2 * p["i"] + 1])
def _eq114(i: int, x2: int):
    return _lem16_rat_sum(i, x2)


@register("eq115", "3.3 Lemma 16 (115)", "sum",
          lambda b: [p for p in _lem16_grid(b) if p["x2"] != 2 * p["i"]])
def _eq115(i: int, x2: int):
    return _lem16_rat_sum(i, x2 + 1)


def _thm15_grid(b: Bounds) -> list[dict]:
    return [
        {"n": n, "m": m}
        for n in range(2, b.get("n_max", 4, 5) + 1)
        for m in range(n, 2 * n)
    ]


@register("thm15", "3.3 Theorem 15", "nullspace", _thm15_grid)
def _thm15(n: int, m: int):
    checks = []
    if n + 1 <= m <= 2 * n - 1:
        a = fam.fam_thm15_A(n, m)
        va = fam.thm15_vector_A(n, m)
        checks.append(all(v.is_zero for v in matvec(a, va)))
        checks.append(rank(a) == n - 1)
    if n <= m <= 2 * n - 1:
        bmat = fam.fam_thm15_B(n, m)
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


def _thm5_grid(b: Bounds) -> list[dict]:
    out = []
    for name in _SYSTEMS:
        if name in ("geometric-q", "carlitz", "q-chebyshev"):
            out += grid(system=[name], n=(3, 4), m=(3, 3))(b)
        else:
            out += grid(system=[name], n=(5, 8), m=(4, 5))(b)
    return out


@register("thm5", "2.2 Theorem 5 (68); also (6)", "bridge", _thm5_grid)
def _thm5(system: str, n: int, m: int):
    sys = _SYSTEMS[system]()
    ok = tyson_check(sys, n, m)
    return ok, f"{system} bridge at (n={n}, m={m})", "holds"


@register("thm5r", "2.2 Theorem 5 (68), random systems", "bridge", _cases_grid(40, 200))
def _thm5r(case: int, seed: int = 0):
    # random_integer_system draws t(n) != 0, so by Favard's theorem every
    # Hankel prefix is nonzero and no draw is rejected; the ":0" suffix is part
    # of the seed string of the recorded draws (benchmark/expected.json)
    rng = random.Random(f"{seed}:{case}:0")
    sys = random_integer_system(rng)
    n, m = rng.randint(0, 5), rng.randint(0, 5)
    ok = tyson_check(sys, n, m)
    return ok, f"random system case {case} at (n={n}, m={m})", "holds"


@register("eq69", "2.2 (69)-(70)", "bridge", grid(system=list(_SYSTEMS), m=(4, 5)))
def _eq69(system: str, m: int):
    sys = _SYSTEMS[system]()
    ok = hankel_shift_checks(sys, m)
    return ok, f"{system} shifted Hankel formulas at m={m}", "hold"


@register("eq22", "2.1.1 (22)", "sum",
          grid(system=["fibonacci", "lucas-variant"], n=(8, 10)))
def _eq22(system: str, n: int):
    tab = _SYSTEMS[system]().tables()
    acc = [0] * (n + 1)
    for k in range(n + 1):
        ck = tab.c(n, k)
        row = tab.coeff_row(k)
        for j, v in enumerate(row):
            acc[j] += ck * v
    rhs = [0] * n + [1]
    return acc == rhs, acc, rhs


@register("eq24", "2.1.1 (24)", "sum", grid(n=(6, 8), k=(4, 4, 0)))
def _eq24(n: int, k: int):
    tab = fibonacci_system().tables()
    return kron_sum(n, lambda j: tab.p_entry(n + k, j + k) * tab.c(j + k, k))


@register("eq25", "2.1.1 (25)", "det",
          grid(system=["fibonacci", "lucas-variant"], n=(5, 6), k=(3, 3)))
def _eq25(system: str, n: int, k: int):
    sys = _SYSTEMS[system]()
    tab = sys.tables()
    matrix = Matrix.build(n, n, lambda i, j: tab.p_entry(i + k + 1, j + k), sys.ring)
    lhs = det(matrix)
    rhs = tab.c(n + k, k)
    return lhs == rhs, lhs, rhs


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
    ok = ok and all(tab.moment(i) == QPoly.monomial(i * (i - 1)) for i in range(n + 1))
    return ok, "recovered recurrence and moments", "closed forms"


@register("eq29", "2.1.1 (29)", "closed-form", grid(n=(7, 8), k=(6, 6, 0)))
def _eq29(n: int, k: int):
    tab = fibonacci_system().tables()
    lhs = tab.c(2 * n + k, k)
    rhs = catalan_power(n, k + 1)
    return lhs == rhs, lhs, rhs


@register("eq41", "2.1.1 (41)", "closed-form", grid(n=(7, 8), k=(6, 6, 0)))
def _eq41(n: int, k: int):
    tab = lucas_variant_system().tables()
    lhs = tab.c(2 * n + k, k)
    rhs = binomial(2 * n + k, n)
    odd_zero = tab.c(2 * n + k + 1, k) == 0
    return lhs == rhs and odd_zero, lhs, rhs


@register("eq102", "3.3 (101)-(102)", "closed-form", grid(n=(5, 5)))
def _eq102(n: int):
    tab = q_chebyshev_system().tables()
    lhs = tab.moment(2 * n)
    rhs = andrews_moment(n)
    ok = lhs == rhs and tab.moment(2 * n + 1) == QRat(0)
    return ok, lhs, rhs


# family: (field of the product, matrix at (n, k), moment M_i at (i, k))
_LEM1 = {
    "eq1": (F, lambda n, k: fam.fam_eq1(n), lambda i, k: catalan(i)),
    "eq54": (F, lambda n, k: fam.fam_eq54(n, k), lambda i, k: catalan_power(i, k)),
    "eq43": (F, lambda n, k: fam.fam_eq43(n), lambda i, k: binomial(2 * i, i)),
    "eq83": (QRat, lambda n, k: fam.fam_eq83(n), lambda i, k: q_catalan(i)),
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
             lambda n: det(_at_q(fam.fam_eq83(n), 1)),
             lambda n: (catalan(n), q_catalan(n).specialize(1))),
    "eq84": (list(itertools.product(range(6))),
             lambda n: det(_at_q(fam.fam_eq84(n), 1)),
             lambda n: (catalan(n),)),
    "eq86a": (list(itertools.product(range(5), range(1, 4))),
              lambda n, k: det(_at_q(fam.fam_eq86(n, k, False), 1)),
              lambda n, k: (det(fam.fam_eq54(n, k)),)),
    "eq86b": (list(itertools.product(range(5), range(1, 4))),
              lambda n, k: det(_at_q(fam.fam_eq86(n, k, True), 1)),
              lambda n, k: (catalan_power(n, k),)),
    "eq91": (list(itertools.product(range(4), range(3), range(3))),
             lambda n, m, k: det(_at_q(fam.fam_eq91(n, m, k), 1)),
             lambda n, m, k: (det(fam.fam_eq74(n, m, k)),)),
    "eq92": (list(itertools.product(range(5), range(1, 4))),
             lambda n, k: det(_at_q(fam.fam_eq92(n, k), 1)),
             lambda n, k: (det(fam.fam_eq45(n, k)), binomial(2 * n + k - 1, n))),
    "eq27": (list(itertools.product(range(5), range(4))),
             lambda n, k: det(_at_q(fam.fam_eq27(n, k), 1)),
             lambda n, k: (binomial(n + k, k),)),
    "eq88": ([(5,)],
             lambda size: _at_q(inverse(fam.fam_eq88(size)), 1),
             lambda size: (inverse(fam.fam_eq34(size)),)),
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
        (2 * rng.randint(0, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))
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
