"""Registry of executable identity checks.

Every verifiable display gets a check with a stable id ("eqNN", "thmNN",
"lemNN", plus a few derived ids like "eq92s" for an unnumbered companion
sum).  A check knows its catalogue anchor (section and display number), a
kind tag, a default parameter grid (a trimmed "fast" grid and the full
acceptance grid), and a run function that computes both sides exactly and
compares them structurally.

Conjecture checks are tagged; a counterexample there is a reportable
outcome, never a suite failure.
"""

from __future__ import annotations

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
    mod: int | None = None
    cases: int | None = None
    seed: int = 0
    fast: bool = False

    def n(self, fast_default: int, full_default: int) -> int:
        if self.n_max is not None:
            return self.n_max
        return fast_default if self.fast else full_default

    def k(self, fast_default: int, full_default: int) -> int:
        if self.k_max is not None:
            return self.k_max
        return fast_default if self.fast else full_default

    def m(self, fast_default: int, full_default: int) -> int:
        if self.m_max is not None:
            return self.m_max
        return fast_default if self.fast else full_default

    def r(self, fast_default: int, full_default: int) -> int:
        if self.r_max is not None:
            return self.r_max
        return fast_default if self.fast else full_default

    def x(self, fast_default: int, full_default: int) -> int:
        if self.x_max is not None:
            return self.x_max
        return fast_default if self.fast else full_default

    def case_count(self, fast_default: int, full_default: int) -> int:
        if self.cases is not None:
            return self.cases
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
    if isinstance(v, Fraction):
        return str(v)
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


def run_sum_check(check_id: str, **params) -> CheckResult:
    """Entry point for the pure summation identities."""
    check = CHECKS.get(check_id)
    if check is None:
        raise KeyError(f"unknown check id: {check_id!r}")
    if check.kind != "sum":
        raise ValueError(f"{check_id} is a {check.kind} check, not a sum check")
    return run_check(check_id, **params)


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

def _n_grid(fast: int, full: int):
    def grid(b: Bounds) -> list[dict]:
        return [{"n": n} for n in range(b.n(fast, full) + 1)]
    return grid


def _nk_grid(nf, nF, kf, kF, k_min=1):
    def grid(b: Bounds) -> list[dict]:
        return [
            {"n": n, "k": k}
            for n in range(b.n(nf, nF) + 1)
            for k in range(k_min, b.k(kf, kF) + 1)
        ]
    return grid


def _nm_grid(nf, nF, mf, mF, m_min=0):
    def grid(b: Bounds) -> list[dict]:
        return [
            {"n": n, "m": m}
            for n in range(b.n(nf, nF) + 1)
            for m in range(m_min, b.m(mf, mF) + 1)
        ]
    return grid


def _cases_grid(fast: int, full: int):
    def grid(b: Bounds) -> list[dict]:
        return [{"case": c, "seed": b.seed} for c in range(b.case_count(fast, full))]
    return grid


# ---------------------------------------------------------------------------
# section 1 and 2 checks: Catalan matrices and their relatives
# ---------------------------------------------------------------------------

@register("eq1", "1 (1)", "det", _n_grid(12, 40))
def _eq1(n: int):
    lhs = det(fam.fam_eq1(n))
    rhs = catalan(n)
    return lhs == rhs, lhs, rhs


@register("eq1b", "1 (1)", "det", _n_grid(12, 40))
def _eq1b(n: int):
    lhs = det(fam.fam_eq1b(n))
    rhs = catalan(n)
    return lhs == rhs, lhs, rhs


@register("eq2", "1 (2)", "sum", _n_grid(20, 60))
def _eq2(n: int):
    lhs = sum(
        _sign(n - j) * binomial(n + j, n - j) * catalan(j) for j in range(n + 1)
    )
    rhs = kron(n == 0)
    return lhs == rhs, lhs, rhs


@register("eq4", "1 (4)", "closed-form", _nk_grid(8, 10, 5, 6))
def _eq4(n: int, k: int):
    a = catalan_power(n, k)
    b = F(k, n + k) * binomial(2 * n + k - 1, n)
    c = binomial(2 * n + k - 2, n) - binomial(2 * n + k - 2, n - 2)
    return a == b == c, a, f"{b}; {c}"


@register("eq30", "2.1.1 (30)", "sum", _nk_grid(12, 12, 12, 12))
def _eq30(n: int, k: int):
    lhs = catalan_power(n, k)
    rhs = catalan_power(n, k - 1) + catalan_power(n - 1, k + 1)
    return lhs == rhs, lhs, rhs


@register("eq31", "2.1.1 (31)", "sum", _nk_grid(10, 12, 5, 6, k_min=0))
def _eq31(n: int, k: int):
    lhs = sum(
        _sign(n - j) * binomial(n + k + j, n - j) * catalan_power(j, k + 1)
        for j in range(n + 1)
    )
    rhs = kron(n == 0)
    return lhs == rhs, lhs, rhs


@register("eq33", "2.1.1 (33)", "sum", _nk_grid(10, 12, 5, 6, k_min=0))
def _eq33(n: int, k: int):
    lhs = sum(
        _sign(n - j) * binomial(k + 1 + j, n - j) * catalan_power(j, k + 1)
        for j in range(n + 1)
    )
    rhs = kron(n == 0)
    return lhs == rhs, lhs, rhs


@register("eq34", "2.1.1 (34)", "inverse",
          lambda b: [{"size": b.n(8, 12)}])
def _eq34(size: int):
    inv = inverse(fam.fam_eq34(size))
    expected = Matrix.build(size, size, lambda i, j: F(ballot(i, j)), FRAC)
    return inv == expected, "inverse of signed binomial matrix", "ballot triangle"


def _eq35_grid(b: Bounds) -> list[dict]:
    out = []
    for n in range(b.n(5, 6) + 1):
        span = b.x(2 * n + 2, 2 * n + 2)
        for x in range(-span, span + 1):
            out.append({"n": n, "x": x})
    return out


@register("eq35", "2.1.1 (35)", "det", _eq35_grid)
def _eq35(n: int, x: int):
    lhs = det(fam.fam_eq35(n, x))
    rhs = gould_product(n, x, 2)
    return lhs == rhs, lhs, rhs


def _null_grid_a(b: Bounds) -> list[dict]:
    return [
        {"n": n, "m": m}
        for n in range(2, b.n(6, 8) + 1)
        for m in range(n + 1, 2 * n)
    ]


def _null_grid_b(b: Bounds) -> list[dict]:
    return [
        {"n": n, "m": m}
        for n in range(1, b.n(6, 8) + 1)
        for m in range(n, 2 * n)
    ]


@register("eq36", "2.1.1 (36)/(37)", "nullspace", _null_grid_a)
def _eq36(n: int, m: int):
    vec = [lucas_value(m, j) for j in range(n)]
    out = matvec(fam.fam_eq35(n, -m), vec)
    return all(v == 0 for v in out), out, [0] * n


@register("eq39", "2.1.1 (39)", "nullspace", _null_grid_a)
def _eq39(n: int, m: int):
    vec = [lucas_value(m, j) for j in range(n)]
    out = matvec(fam.fam_eq39(n, m), vec)
    return all(v == 0 for v in out), out, [0] * n


def _eq38_grid(b: Bounds) -> list[dict]:
    n_hi = b.n(4, 6)
    r_hi = b.r(3, 4)
    return [
        {"n": n, "r": r, "s": s, "t": t}
        for n in range(n_hi + 1)
        for r in range(1, r_hi + 1)
        for s in range(0, 5)
        for t in range(-2, 4)
    ]


@register("eq38", "2.1.1 (38)", "sum", _eq38_grid)
def _eq38(n: int, r: int, s: int, t: int):
    lhs = sum(
        gould_product(j, r, t) * binomial(s + t * n - t * j, n - j)
        for j in range(n + 1)
    )
    rhs = binomial(r + s + t * n, n)
    return lhs == rhs, lhs, rhs


@register("eq42", "2.1.1 (42)", "sum", _n_grid(10, 10))
def _eq42(n: int):
    acc = [0] * (n + 1)
    for k in range(n // 2 + 1):
        row = lucas_poly_coeffs(n - 2 * k)
        c = binomial(n, k)
        for i, v in enumerate(row):
            acc[i] += c * v
    rhs = [0] * n + [1]
    return acc == rhs, acc, rhs


@register("eq43", "2.1.1 (43)", "det", _n_grid(10, 10))
def _eq43(n: int):
    lhs = det(fam.fam_eq43(n))
    rhs = binomial(2 * n, n)
    return lhs == rhs, lhs, rhs


@register("eq44", "2.1.1 (44)", "sum", _nk_grid(10, 10, 6, 6))
def _eq44(n: int, k: int):
    lhs = sum(
        F(_sign(n - j) * (2 * n + k), n + k + j)
        * binomial(n + k + j, n - j)
        * binomial(2 * j + k, j)
        for j in range(n + 1)
    )
    rhs = kron(n == 0)
    return lhs == rhs, lhs, rhs


@register("eq45", "2.1.1 (45)", "det", _nk_grid(10, 10, 6, 6))
def _eq45(n: int, k: int):
    lhs = det(fam.fam_eq45(n, k))
    rhs = binomial(2 * n + k - 1, n)
    return lhs == rhs, lhs, rhs


@register("eq46", "2.1.1 (46)", "det", _nk_grid(10, 10, 6, 6))
def _eq46(n: int, k: int):
    lhs = det(fam.fam_eq46(n, k))
    rhs = binomial(2 * n + k - 1, n)
    return lhs == rhs, lhs, rhs


@register("eq47", "2.1.1 (47)/(48)", "nullspace", _null_grid_b)
def _eq47(n: int, m: int):
    vec = [binomial(m - j, j) for j in range(n)]
    out = matvec(fam.fam_eq45(n, -m), vec)
    return all(v == 0 for v in out), out, [0] * n


@register("eq49", "2.1.1 (49)", "nullspace", _null_grid_b)
def _eq49(n: int, m: int):
    vec = [binomial(m - j, j) for j in range(n)]
    out = matvec(fam.fam_eq49(n, m), vec)
    return all(v == 0 for v in out), out, [0] * n


def _x_grid(b: Bounds, n_pair=(8, 10), lo=-5, hi=8, **extra):
    out = []
    for n in range(b.n(*n_pair) + 1):
        for x in range(lo, hi + 1):
            out.append({"n": n, "x": x, **extra})
    return out


@register("eq52", "2.1.2 (52)", "sum", lambda b: _x_grid(b))
def _eq52(n: int, x: int):
    lhs = sum(
        _sign(n - j) * binomial(n + j, n - j) * gould_product(j, x, 2)
        for j in range(n + 1)
    )
    rhs = binomial(x - 1, n)
    return lhs == rhs, lhs, rhs


def _eq53_grid(b: Bounds) -> list[dict]:
    return [
        {"n": n, "k": k, "x": x}
        for n in range(b.n(6, 8) + 1)
        for k in range(1, b.k(4, 5) + 1)
        for x in range(-4, 7)
    ]


@register("eq53", "2.1.2 (53)", "sum", _eq53_grid)
def _eq53(n: int, k: int, x: int):
    lhs = sum(
        _sign(n - j) * binomial(n + j + k - 1, n - j) * gould_product(j, x, 2)
        for j in range(n + 1)
    )
    rhs = binomial(x - k, n)
    return lhs == rhs, lhs, rhs


@register("eq54", "2.1.2 (54); also (3), (32)", "det", _nk_grid(10, 20, 4, 8))
def _eq54(n: int, k: int):
    lhs = det(fam.fam_eq54(n, k))
    rhs = catalan_power(n, k)
    return lhs == rhs, lhs, rhs


@register("eq55", "2.1.2 (55); also (3), (33)", "det", _nk_grid(10, 20, 4, 8))
def _eq55(n: int, k: int):
    lhs = det(fam.fam_eq55(n, k))
    rhs = catalan_power(n, k)
    return lhs == rhs, lhs, rhs


def _eq56_grid(b: Bounds) -> list[dict]:
    return [
        {"n": n, "k": k, "r": r, "x": x}
        for n in range(b.n(5, 6) + 1)
        for k in range(1, b.k(3, 4) + 1)
        for r in range(1, b.r(3, 4) + 1)
        for x in range(-3, 6)
    ]


@register("eq56", "2.1.2 (56)", "sum", _eq56_grid)
def _eq56(n: int, k: int, r: int, x: int):
    lhs = sum(
        _sign(n - j) * binomial(n + (r - 1) * j + k - 1, n - j) * gould_product(j, x, r)
        for j in range(n + 1)
    )
    rhs = binomial(x - k, n)
    return lhs == rhs, lhs, rhs


def _nkr_grid(nf, nF, kf, kF, rf, rF):
    def grid(b: Bounds) -> list[dict]:
        return [
            {"n": n, "k": k, "r": r}
            for n in range(b.n(nf, nF) + 1)
            for k in range(1, b.k(kf, kF) + 1)
            for r in range(1, b.r(rf, rF) + 1)
        ]
    return grid


@register("eq57", "2.1.2 (57)", "sum", _nkr_grid(8, 9, 4, 4, 4, 4))
def _eq57(n: int, k: int, r: int):
    lhs = sum(
        _sign(n - j) * binomial(n + (r - 1) * j + k - 1, n - j) * gould_product(j, k, r)
        for j in range(n + 1)
    )
    rhs = kron(n == 0)
    return lhs == rhs, lhs, rhs


@register("eq58", "2.1.2 (58)", "det", _nkr_grid(6, 6, 4, 4, 4, 4))
def _eq58(n: int, k: int, r: int):
    lhs = det(fam.fam_eq58(n, k, r))
    rhs = F(k, r * n + k) * binomial(r * n + k, n)
    return lhs == rhs, lhs, rhs


def _eq59_grid(b: Bounds) -> list[dict]:
    return [
        {"n": n, "r": r, "alpha": a, "gamma": g}
        for n in range(b.n(5, 6) + 1)
        for r in range(1, b.r(3, 3) + 1)
        for a in range(0, 6)
        for g in range(1, 6)
    ]


@register("eq59", "2.1.2 (59)", "sum", _eq59_grid)
def _eq59(n: int, r: int, alpha: int, gamma: int):
    lhs = sum(
        _sign(n - j) * binomial((r - 1) * j + alpha, n - j) * gould_product(j, gamma, r)
        for j in range(n + 1)
    )
    rhs = _sign(n) * binomial(alpha - gamma, n)
    return lhs == rhs, lhs, rhs


@register("eq60", "2.1.2 (60)", "sum", _nkr_grid(7, 8, 4, 4, 4, 4))
def _eq60(n: int, k: int, r: int):
    lhs = sum(
        _sign(n - j) * binomial((r - 1) * j + k, n - j) * gould_product(j, k, r)
        for j in range(n + 1)
    )
    rhs = kron(n == 0)
    return lhs == rhs, lhs, rhs


@register("eq61", "2.1.2 (61)", "det", _nkr_grid(6, 6, 4, 4, 4, 4))
def _eq61(n: int, k: int, r: int):
    lhs = det(fam.fam_eq61(n, k, r))
    rhs = F(k, r * n + k) * binomial(r * n + k, n)
    return lhs == rhs, lhs, rhs


@register("eq62", "2.1.3 (62)", "sum", _n_grid(20, 60))
def _eq62(n: int):
    # the rewritten finite chain: sum_j (-1)^j C(2n-j, j) C_(n-j) = [n=0]
    lhs = sum(_sign(j) * binomial(2 * n - j, j) * catalan(n - j) for j in range(n + 1))
    rhs = kron(n == 0)
    return lhs == rhs, lhs, rhs


# ---------------------------------------------------------------------------
# section 2.2: Krattenthaler route, Hankel bridges, condensation
# ---------------------------------------------------------------------------

def _random_krattenthaler_case(seed: int, case: int) -> tuple[list[int], int]:
    rng = random.Random(f"{seed}:{case}")
    n = rng.randint(1, 4)
    L = sorted(rng.sample(range(0, 9), n), reverse=True)
    A = 2 * n + rng.randint(0, 4)
    return L, A


@register("eq63", "2.2 Lemma 3 (63)", "det", _cases_grid(8, 16))
def _eq63(case: int, seed: int = 0):
    L, A = _random_krattenthaler_case(seed, case)
    lhs = QRat(det(fam.fam_q_krattenthaler(L, A)))
    rhs = fam.q_krattenthaler_lemma_rhs(L, A)
    return lhs == rhs, lhs, rhs


@register("eq64", "2.2 Lemma 3 (64)", "det", _cases_grid(8, 16))
def _eq64(case: int, seed: int = 0):
    L, A = _random_krattenthaler_case(seed, case)
    lhs = det(fam.fam_krattenthaler(L, A))
    rhs = fam.krattenthaler_lemma_rhs(L, A)
    return lhs == rhs, lhs, rhs


@register("eq65", "2.2 Theorem 4 (65); also (5)", "bridge", _nm_grid(8, 12, 4, 6))
def _eq65(n: int, m: int):
    d = det(fam.fam_eq65(n, m))
    h = det(fam.catalan_hankel(n, m))
    p1 = fam.thm4_product(n, m)
    p2 = fam.catalan_hankel_product(n, m)
    ok = d == h == p1 == p2
    return ok, d, f"{h}; {p1}; {p2}"


@register("eq67", "2.2 (67)", "closed-form", _nm_grid(8, 12, 4, 6))
def _eq67(n: int, m: int):
    lhs = det(fam.catalan_hankel(n, m))
    rhs = fam.catalan_hankel_product(n, m)
    return lhs == rhs, lhs, rhs


@register("eq71", "2.2 (71)", "det", _nm_grid(5, 6, 4, 5))
def _eq71(n: int, m: int):
    lhs = det(fam.fam_eq71(n, m))
    return lhs == ONE, lhs, ONE


@register("eq72", "2.2 (72)", "bridge", _nm_grid(6, 8, 4, 5))
def _eq72(n: int, m: int):
    lhs = det(fam.fam_eq72(n, m))
    h0 = det(fam.hilbert_hankel(0, m))
    hn = det(fam.hilbert_hankel(n, m))
    ok = lhs * h0 == hn
    return ok, lhs, hn / h0


@register("eq73", "2.2 (73)", "closed-form", _nm_grid(6, 8, 4, 5))
def _eq73(n: int, m: int):
    lhs = det(fam.hilbert_hankel(n, m))
    rhs = fam.hilbert_hankel_product(n, m)
    return lhs == rhs, lhs, rhs


def _nmk_grid(nf, nF, mf, mF, kf, kF, m_min=0, k_min=0, n_min=0):
    def grid(b: Bounds) -> list[dict]:
        return [
            {"n": n, "m": m, "k": k}
            for n in range(n_min, b.n(nf, nF) + 1)
            for m in range(m_min, b.m(mf, mF) + 1)
            for k in range(k_min, b.k(kf, kF) + 1)
        ]
    return grid


@register("eq74", "2.2 Theorem 6 (74); also (9)", "bridge", _nmk_grid(6, 10, 3, 4, 3, 4))
def _eq74(n: int, m: int, k: int):
    d1 = det(fam.fam_eq74(n, m, k))
    d2 = det(fam.fam_eq74_reversed(n, m, k))
    d3 = det(fam.catalan_power_hankel(n, m, k))
    p = fam.krattenthaler_rhs_product(n, m, k)
    ok = d1 == d2 == d3 == p
    return ok, d1, f"{d2}; {d3}; {p}"


@register("eq75", "2.2 (75)", "closed-form", _nk_grid(10, 12, 5, 6, k_min=0))
def _eq75(n: int, k: int):
    prod = fam.krattenthaler_rhs_product(n, 1, k)
    ok = prod == catalan_power(n, k + 1) and fam.v_ratio(max(n, 1), 0, k) == 1
    return ok, prod, catalan_power(n, k + 1)


@register("eq76", "2.2 (76)", "recurrence",
          _nmk_grid(5, 10, 4, 4, 3, 4, m_min=2, n_min=1))
def _eq76(n: int, m: int, k: int):
    def M(mm, nn, kk):
        return det_condensation(fam.catalan_power_hankel(nn, mm, kk))

    lhs = M(m, n, k) * M(m - 2, n, k + 2)
    rhs = M(m - 1, n, k + 2) * M(m - 1, n, k) - M(m - 1, n + 1, k) * M(m - 1, n - 1, k + 2)
    return lhs == rhs, lhs, rhs


def _eq10_grid(b: Bounds) -> list[dict]:
    return [
        {"n": n, "m": m, "x": x}
        for n in range(b.n(4, 5) + 1)
        for m in range(b.m(3, 3) + 1)
        for x in range(1, b.x(4, 4) + 1)
    ]


@register("eq10", "1 (10)", "bridge", _eq10_grid)
def _eq10(n: int, m: int, x: int):
    d1 = det(fam.fam_eq10(n, m, x))
    d2 = det(fam.fam_eq10_rhs(n, m, x))
    return d1 == d2, d1, d2


# ---------------------------------------------------------------------------
# section 3: q-analogues
# ---------------------------------------------------------------------------

@register("eq27", "2.1.1 (27)", "det", _nk_grid(5, 6, 4, 4, k_min=0))
def _eq27(n: int, k: int):
    lhs = det(fam.fam_eq27(n, k))
    rhs = q_binomial(n + k, k)
    return lhs == rhs, lhs, rhs


@register("eq77", "3.1 (77)", "det", _n_grid(6, 8))
def _eq77(n: int):
    lhs = det(fam.fam_eq77(n))
    rhs = carlitz(n)
    return lhs == rhs, lhs, rhs


@register("eq78", "3.1 (78)", "det", _n_grid(6, 9))
def _eq78(n: int):
    lhs = det(fam.fam_eq78(n))
    rhs = fam.carlitz_reversed(n)
    return lhs == rhs, lhs, rhs


@register("eq79", "3.1 (79)", "det", lambda b: [{"size": s} for s in range(b.n(7, 9) + 1)])
def _eq79(size: int):
    # entry-wise q = -1 specialization of the Carlitz matrix family
    qm = fam.fam_eq77(size)
    m = Matrix(size, size, [v.specialize(-1) for v in qm.data], INT)
    lhs = det(m)
    if size % 2 == 0:
        rhs = kron(size == 0)
    else:
        half = size // 2
        rhs = _sign(half) * catalan(half)
    return lhs == rhs, lhs, rhs


def _nr_grid(nf, nF, rf, rF):
    def grid(b: Bounds) -> list[dict]:
        return [
            {"n": n, "r": r}
            for n in range(b.n(nf, nF) + 1)
            for r in range(1, b.r(rf, rF) + 1)
        ]
    return grid


@register("eq80", "3.1 (80)", "sum", _nr_grid(5, 6, 4, 4))
def _eq80(n: int, r: int):
    total = QPoly.const(0)
    for j in range(n + 1):
        t = (
            q_binomial((r - 1) * j + 1, n - j).shift(2 * choose2(n - j))
            * fam.gfun_reversed(j, r)
        )
        total = total + (t if (n - j) % 2 == 0 else -t)
    rhs = QPoly.const(kron(n == 0))
    return total == rhs, total, rhs


@register("eq81", "3.1 (81)", "det", _nr_grid(5, 6, 4, 4))
def _eq81(n: int, r: int):
    lhs = det(fam.fam_eq81(n, r))
    rhs = fam.gfun_reversed(n, r)
    return lhs == rhs, lhs, rhs


@register("eq83", "3.2 (83)", "det", _n_grid(6, 8))
def _eq83(n: int):
    lhs = det(fam.fam_eq83(n))
    rhs = q_catalan(n)
    return lhs == rhs, lhs, rhs


@register("eq84", "3.2 (84)", "det", _n_grid(6, 8))
def _eq84(n: int):
    lhs = det(fam.fam_eq84(n))
    rhs = q_catalan(n)
    return lhs == rhs, lhs, rhs


@register("eq85", "3.2 (85)", "det", lambda b: [{"size": s} for s in range(b.n(8, 10) + 1)])
def _eq85(size: int):
    qm = fam.fam_eq84(size)
    m = Matrix(size, size, [v.specialize(-1) for v in qm.data], INT)
    lhs = det(m)
    rhs = binomial(size, size // 2)
    return lhs == rhs, lhs, rhs


@register("eq86", "3.2 Theorem 7 (86); also (7)", "det", _nk_grid(6, 8, 4, 4))
def _eq86(n: int, k: int):
    d1 = det(fam.fam_eq86(n, k, shifted=False))
    d2 = det(fam.fam_eq86(n, k, shifted=True))
    rhs = q_catalan_power(n, k)
    return d1 == rhs and d2 == rhs, d1, rhs


@register("eq87", "3.2 (87)", "sum", _nk_grid(6, 8, 4, 4))
def _eq87(n: int, k: int):
    total = QPoly.const(0)
    for j in range(n + 1):
        t = (
            q_binomial(n + j + k - 1, n - j).shift(2 * choose2(n - j))
            * q_catalan_power(j, k)
        )
        total = total + (t if (n - j) % 2 == 0 else -t)
    rhs = QPoly.const(kron(n == 0))
    return total == rhs, total, rhs


@register("eq88", "3.2 (88)", "inverse", lambda b: [{"size": b.n(5, 5)}])
def _eq88(size: int):
    inv = inverse(fam.fam_eq88(size))
    expected = Matrix.build(
        size, size, lambda i, j: QRat(q_catalan_power(i - j, 2 * j + 1)), QRAT
    )
    return inv == expected, "inverse of signed q-binomial matrix", "q-ballot table"


@register("eq89", "3.2 Theorem 8 (89); also (8)", "det", _nk_grid(5, 6, 4, 4))
def _eq89(n: int, k: int):
    lhs = det(fam.fam_eq89(n, k))
    rhs = andrews_c(n, k)
    return lhs == rhs, lhs, rhs


def _thm8_c(np: int, jp: int) -> QRat:
    d = np - jp
    if d < 0:
        return QRat(0)
    num = q_binomial(jp, d) * q_pochhammer(-1, 2 * jp, d)
    return QRat(num.shift(4 * choose2(d)), q_pochhammer(-1, 2, d))


@register("eq90", "3.2 Lemma 9 (90)", "sum", _nk_grid(5, 6, 4, 4))
def _eq90(n: int, k: int):
    total = QRat(0)
    for j in range(n + 1):
        t = _thm8_c(n + k, j + k) * andrews_c(j, k)
        total = total + (t if (n - j) % 2 == 0 else -t)
    rhs = QRat(kron(n == 0))
    return total == rhs, total, rhs


@register("eq91", "3.2 Theorem 10 (91)", "bridge",
          _nmk_grid(4, 6, 3, 3, 3, 3))
def _eq91(n: int, m: int, k: int):
    d1 = det(fam.fam_eq91(n, m, k))
    d2 = det(fam.fam_eq91_hankel(n, m, k))
    p = fam.q_krattenthaler_rhs(n, m, k)
    ok = d1 == d2 == p
    return ok, d1, f"{d2}; {p}"


@register("eq92", "3.2 (92)", "det", _nk_grid(6, 8, 4, 4))
def _eq92(n: int, k: int):
    lhs = det(fam.fam_eq92(n, k))
    rhs = QRat(q_binomial(2 * n + k - 1, n))
    return lhs == rhs, lhs, rhs


@register("eq92s", "3.2 (92) companion sum", "sum", _nk_grid(6, 7, 4, 4))
def _eq92s(n: int, k: int):
    total = QRat(0)
    for j in range(n + 1):
        if j == 0:
            core = QRat(1)
        else:
            core = QRat(
                q_int(2 * n + k - 1) * q_binomial(2 * n - j + k - 2, j - 1), q_int(j)
            )
        term = core * QRat(q_binomial(2 * n - 2 * j + k - 1, n - j).shift(2 * choose2(j)))
        total = total + (term if j % 2 == 0 else -term)
    rhs = QRat(kron(n == 0))
    return total == rhs, total, rhs


def _thm11_grid(b: Bounds) -> list[dict]:
    return [
        {"n": n, "m": m, "x": x}
        for n in range(b.n(4, 6) + 1)
        for m in range(b.m(3, 3) + 1)
        for x in range(1, b.x(4, 4) + 1)
    ]


@register("eq96", "3.2 Theorem 11 (96)", "bridge", _thm11_grid)
def _eq96(n: int, m: int, x: int):
    dB = det(fam.fam_thm11_B(n, x, m))
    dH = QRat(det(fam.fam_thm11_H(m, x, n)))
    w = fam.thm11_w(n, x, m)
    ok = dB == w and dH == w
    return ok, f"{dB}; {dH}", w


def _nx_grid(nf, nF, xf, xF, n_min=0):
    def grid(b: Bounds) -> list[dict]:
        return [
            {"n": n, "x": x}
            for n in range(n_min, b.n(nf, nF) + 1)
            for x in range(1, b.x(xf, xF) + 1)
        ]
    return grid


@register("eq97", "3.2 (97)", "closed-form", _nx_grid(5, 6, 5, 5))
def _eq97(n: int, x: int):
    lhs = fam.thm11_w(n, x, 1)
    rhs = QRat(q_binomial(2 * n + x - 1, n))
    return lhs == rhs, lhs, rhs


def _eq98_grid(b: Bounds) -> list[dict]:
    return [
        {"m": m, "x": x}
        for m in range(1, b.m(4, 5) + 1)
        for x in range(1, b.x(4, 5) + 1)
    ]


@register("eq98", "3.2 (98)", "closed-form", _eq98_grid)
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


def _bal_grid(n_min, m_min):
    def grid(b: Bounds) -> list[dict]:
        return [
            {"n": n, "m": m, "x": x}
            for n in range(n_min, b.n(4, 5) + 1)
            for m in range(m_min, b.m(3, 3) + 1)
            for x in range(1, b.x(4, 4) + 1)
        ]
    return grid


@register("eq99", "3.2 (99)", "recurrence", _bal_grid(2, 1))
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


@register("eq100", "3.2 (100)", "recurrence", _bal_grid(1, 2))
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


@register("sec33det", "3.3 unnumbered det", "det", _nk_grid(4, 5, 4, 4))
def _sec33det(n: int, k: int):
    lhs = det(fam.fam_sec33(n, k))
    rhs = fam.sec33_rhs(n, k)
    return lhs == rhs, lhs, rhs


def _remark_grid(b: Bounds) -> list[dict]:
    return [
        {"n": n, "m": m, "x": x}
        for n in range(b.n(4, 5) + 1)
        for m in range(b.m(3, 3) + 1)
        for x in range(1, b.x(3, 3) + 1)
    ]


@register("remarkdet", "3.3 final remark det", "bridge", _remark_grid)
def _remarkdet(n: int, m: int, x: int):
    d1 = QRat(det(fam.fam_remark(n, m, x)))
    d2 = QRat(det(fam.fam_remark_rhs(n, m, x)))
    p = fam.remark_rhs_product(n, m, x)
    ok = d1 == d2 == p
    return ok, d1, f"{d2}; {p}"


# ---------------------------------------------------------------------------
# Lemma 16 / Theorem 15
# ---------------------------------------------------------------------------

def _lem16_grid(exclude: Callable[[int, int], bool] | None = None):
    def grid(b: Bounds) -> list[dict]:
        out = []
        for i in range(b.n(5, 6) + 1):
            for x2 in range(2, b.x(13, 13) + 1):
                if exclude is None or not exclude(i, x2):
                    out.append({"i": i, "x2": x2})
        return out
    return grid


@register("eq112", "3.3 Lemma 16 (112)", "sum", _lem16_grid())
def _eq112(i: int, x2: int):
    # terms carry the common factor q^(x(x+5)/2) which is dropped: the
    # remaining per-term offsets j(3j-5)/2 - j*x2 are integers even at odd x2
    total = QPoly.const(0)
    for j in range(i + 2):
        off = j * (3 * j - 5) - 2 * j * x2  # doubled exponent
        term = (
            q_binomial(i + j - x2, i - j + 1).shift(2 * choose2(i - j) + off)
            * q_lucas_value(x2, j)
        )
        total = total + term
    return total.is_zero, total, QPoly.const(0)


@register("eq113", "3.3 Lemma 16 (113)", "sum", _lem16_grid())
def _eq113(i: int, x2: int):
    total = QPoly.const(0)
    for j in range(i + 2):
        off = j * (3 * j - 7) - 2 * j * x2
        term = (
            q_binomial(i + j - x2 - 1, i - j + 1).shift(2 * choose2(i - j) + off)
            * q_lucas_value(x2 + 1, j)
        )
        total = total + term
    return total.is_zero, total, QPoly.const(0)


@register("eq114", "3.3 Lemma 16 (114)", "sum",
          _lem16_grid(exclude=lambda i, x2: x2 == 2 * i + 1))
def _eq114(i: int, x2: int):
    # x2 = 2i+1 is a genuine pole of the j = i+1 term and is excluded
    total = QRat(0)
    for j in range(i + 2):
        off = j * (3 * j - 3) - 2 * j * x2
        b = i + j - x2
        c = i - j + 1
        core = QRat(ONE, q_int(b)) if c == 0 else QRat(q_binomial(b - 1, c - 1), q_int(c))
        term = core * QRat(q_binomial(x2 - j, j).shift(2 * choose2(i - j) + off))
        total = total + term
    return total.is_zero, total, QRat(0)


@register("eq115", "3.3 Lemma 16 (115)", "sum",
          _lem16_grid(exclude=lambda i, x2: x2 == 2 * i))
def _eq115(i: int, x2: int):
    total = QRat(0)
    for j in range(i + 2):
        off = j * (3 * j - 5) - 2 * j * x2
        b = i + j - x2 - 1
        c = i - j + 1
        core = QRat(ONE, q_int(b)) if c == 0 else QRat(q_binomial(b - 1, c - 1), q_int(c))
        term = core * QRat(q_binomial(x2 + 1 - j, j).shift(2 * choose2(i - j) + off))
        total = total + term
    return total.is_zero, total, QRat(0)


def _thm15_grid(b: Bounds) -> list[dict]:
    return [
        {"n": n, "m": m}
        for n in range(2, b.n(4, 5) + 1)
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
        q_system = name in ("geometric-q", "carlitz", "q-chebyshev")
        n_hi = b.n(3, 4) if q_system else b.n(5, 8)
        m_hi = b.m(3, 3) if q_system else b.m(4, 5)
        for n in range(n_hi + 1):
            for m in range(m_hi + 1):
                out.append({"system": name, "n": n, "m": m})
    return out


@register("thm5", "2.2 Theorem 5 (68); also (6)", "bridge", _thm5_grid)
def _thm5(system: str, n: int, m: int):
    sys = _SYSTEMS[system]()
    ok = tyson_check(sys, n, m)
    return ok, f"{system} bridge at (n={n}, m={m})", "holds"


@register("thm5r", "2.2 Theorem 5 (68), random systems", "bridge", _cases_grid(40, 200))
def _thm5r(case: int, seed: int = 0):
    attempt = 0
    while True:
        rng = random.Random(f"{seed}:{case}:{attempt}")
        sys = random_integer_system(rng)
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        try:
            ok = tyson_check(sys, n, m)
        except ArithmeticError:
            # singular Hankel prefix: redraw (Theorem 5 presumes orthogonalizability)
            attempt += 1
            continue
        return ok, f"random system case {case} at (n={n}, m={m})", "holds"


def _eq69_grid(b: Bounds) -> list[dict]:
    return [
        {"system": name, "m": m}
        for name in _SYSTEMS
        for m in range(b.m(4, 5) + 1)
    ]


@register("eq69", "2.2 (69)-(70)", "bridge", _eq69_grid)
def _eq69(system: str, m: int):
    sys = _SYSTEMS[system]()
    ok = hankel_shift_checks(sys, m)
    return ok, f"{system} shifted Hankel formulas at m={m}", "hold"


@register("eq22", "2.1.1 (22)", "sum",
          lambda b: [{"system": s, "n": n} for s in ("fibonacci", "lucas-variant")
                     for n in range(b.n(8, 10) + 1)])
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


@register("eq24", "2.1.1 (24)", "sum", _nk_grid(6, 8, 4, 4, k_min=0))
def _eq24(n: int, k: int):
    tab = fibonacci_system().tables()
    acc = 0
    for j in range(n + 1):
        term = tab.p_entry(n + k, j + k) * tab.c(j + k, k)
        acc += term if (n - j) % 2 == 0 else -term
    rhs = kron(n == 0)
    return acc == rhs, acc, rhs


@register("eq25", "2.1.1 (25)", "det",
          lambda b: [{"system": s, "n": n, "k": k}
                     for s in ("fibonacci", "lucas-variant")
                     for n in range(b.n(5, 6) + 1)
                     for k in range(b.k(3, 3) + 1)])
def _eq25(system: str, n: int, k: int):
    sys = _SYSTEMS[system]()
    tab = sys.tables()
    matrix = Matrix.build(n, n, lambda i, j: tab.p_entry(i + k + 1, j + k), sys.ring)
    lhs = det(matrix)
    rhs = tab.c(n + k, k)
    return lhs == rhs, lhs, rhs


@register("eq26", "2.1.1 (26)", "closed-form", _n_grid(5, 6))
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


@register("eq29", "2.1.1 (29)", "closed-form", _nk_grid(7, 8, 6, 6, k_min=0))
def _eq29(n: int, k: int):
    tab = fibonacci_system().tables()
    lhs = tab.c(2 * n + k, k)
    rhs = catalan_power(n, k + 1)
    return lhs == rhs, lhs, rhs


@register("eq41", "2.1.1 (41)", "closed-form", _nk_grid(7, 8, 6, 6, k_min=0))
def _eq41(n: int, k: int):
    tab = lucas_variant_system().tables()
    lhs = tab.c(2 * n + k, k)
    rhs = binomial(2 * n + k, n)
    odd_zero = tab.c(2 * n + k + 1, k) == 0
    return lhs == rhs and odd_zero, lhs, rhs


@register("eq102", "3.3 (101)-(102)", "closed-form", _n_grid(5, 5))
def _eq102(n: int):
    tab = q_chebyshev_system().tables()
    lhs = tab.moment(2 * n)
    rhs = andrews_moment(n)
    ok = lhs == rhs and tab.moment(2 * n + 1) == QRat(0)
    return ok, lhs, rhs


def _lem1_grid(b: Bounds) -> list[dict]:
    out = []
    for n in range(b.n(6, 8) + 1):
        out.append({"family": "eq1", "n": n, "k": 1})
        out.append({"family": "eq43", "n": n, "k": 1})
        out.append({"family": "eq83", "n": n, "k": 1})
        for k in range(1, b.k(3, 4) + 1):
            out.append({"family": "eq54", "n": n, "k": k})
    return out


@register("lem1", "2 Lemma 1 (15)-(16)", "bridge", _lem1_grid)
def _lem1(family: str, n: int, k: int):
    """Product route: the determinant equals prod M_(i+1)/M_i of the moments."""
    if family == "eq1":
        lhs = det(fam.fam_eq1(n))
        moments = [catalan(i) for i in range(n + 1)]
        prod = F(1)
        for i in range(n):
            prod *= F(moments[i + 1], moments[i])
    elif family == "eq54":
        lhs = det(fam.fam_eq54(n, k))
        moments = [catalan_power(i, k) for i in range(n + 1)]
        prod = F(1)
        for i in range(n):
            prod *= F(moments[i + 1], moments[i])
    elif family == "eq43":
        lhs = det(fam.fam_eq43(n))
        moments = [binomial(2 * i, i) for i in range(n + 1)]
        prod = F(1)
        for i in range(n):
            prod *= F(moments[i + 1], moments[i])
    elif family == "eq83":
        lhs = QRat(det(fam.fam_eq83(n)))
        moments = [q_catalan(i) for i in range(n + 1)]
        prod = QRat(1)
        for i in range(n):
            prod = prod * QRat(moments[i + 1], moments[i])
    else:
        raise ValueError(f"unknown lem1 family {family!r}")
    return lhs == prod, lhs, prod


# ---------------------------------------------------------------------------
# q -> 1 coherence and engine cross-agreement properties
# ---------------------------------------------------------------------------

_COHERENCE_PAIRS = ("eq83", "eq84", "eq86a", "eq86b", "eq91", "eq92", "eq27", "eq88")


def _coherence_grid(b: Bounds) -> list[dict]:
    return [{"pair": p} for p in _COHERENCE_PAIRS]


def _specialize_matrix(qm: Matrix) -> Matrix:
    if qm.ring is QPOLY:
        return Matrix(qm.nrows, qm.ncols, [v.specialize(1) for v in qm.data], INT)
    return Matrix(qm.nrows, qm.ncols, [v.specialize(1) for v in qm.data], FRAC)


@register("coh", "q -> 1 coherence across paired checks", "property", _coherence_grid)
def _coh(pair: str):
    """Specializing every matrix entry at q = 1 reproduces the classical check."""
    if pair == "eq83":
        points = [(n,) for n in range(6)]
        ok = all(
            det(_specialize_matrix(fam.fam_eq83(n))) == catalan(n)
            == q_catalan(n).specialize(1)
            for (n,) in points
        )
    elif pair == "eq84":
        ok = all(
            det(_specialize_matrix(fam.fam_eq84(n))) == catalan(n)
            for n in range(6)
        )
    elif pair == "eq86a":
        ok = all(
            det(_specialize_matrix(fam.fam_eq86(n, k, False)))
            == det(fam.fam_eq54(n, k))
            for n in range(5) for k in range(1, 4)
        )
    elif pair == "eq86b":
        ok = all(
            det(_specialize_matrix(fam.fam_eq86(n, k, True)))
            == catalan_power(n, k)
            for n in range(5) for k in range(1, 4)
        )
    elif pair == "eq91":
        ok = all(
            det(_specialize_matrix(fam.fam_eq91(n, m, k)))
            == det(fam.fam_eq74(n, m, k))
            for n in range(4) for m in range(3) for k in range(3)
        )
    elif pair == "eq92":
        ok = all(
            det(_specialize_matrix(fam.fam_eq92(n, k)))
            == det(fam.fam_eq45(n, k))
            == binomial(2 * n + k - 1, n)
            for n in range(5) for k in range(1, 4)
        )
    elif pair == "eq27":
        ok = all(
            det(_specialize_matrix(fam.fam_eq27(n, k)))
            == binomial(n + k, k)
            for n in range(5) for k in range(4)
        )
    elif pair == "eq88":
        size = 5
        inv_q = inverse(fam.fam_eq88(size))
        at_one = Matrix(
            size, size, [v.specialize(1) for v in inv_q.data], FRAC
        )
        ok = at_one == inverse(fam.fam_eq34(size))
    else:
        raise ValueError(f"unknown coherence pair {pair!r}")
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
