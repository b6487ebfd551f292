import pytest

import catdet.residues  # noqa: F401  (registers the modular checks)
from catdet import families as fam
from catdet.linalg import det_bareiss
from catdet.qseries import ONE, Q, QPoly, q_int
from catdet.registry import (
    CHECKS,
    Bounds,
    check_index,
    run_check,
    verify_range,
)


def P(*terms):
    return QPoly(list(terms))


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        run_check("eq9999", n=1)
    with pytest.raises(KeyError):
        verify_range("nope")


def test_eq1_examples():
    res = run_check("eq1", n=4)
    assert res.passed and res.lhs == "14" and res.rhs == "14"
    out = verify_range("eq1", bounds=Bounds(n_max=12))
    assert len(out) == 13 and all(r.passed for r in out)
    assert verify_range("eq1", grid=[]) == []


def test_eq2_explicit_row():
    # C_4 - 7 C_3 + 15 C_2 - 10 C_1 + C_0 = 0
    from catdet.exact import binomial
    from catdet.sequences import catalan

    coeffs = [binomial(4 + j, 4 - j) for j in range(5)]
    assert coeffs == [1, 10, 15, 7, 1]
    value = sum((-1) ** (4 - j) * coeffs[j] * catalan(j) for j in range(5))
    assert value == 0
    assert run_check("eq2", n=4).passed


def test_matrix_displays():
    # introduction 4x4
    m = fam.fam_eq1(4)
    assert m.rows() == [
        [1, 1, 0, 0],
        [1, 3, 1, 0],
        [1, 6, 5, 1],
        [1, 10, 15, 7],
    ]
    # q-Catalan 2x2: ((1, 1), (q, [3]))
    m = fam.fam_eq83(2)
    assert m[0, 0] == ONE and m[0, 1] == ONE
    assert m[1, 0] == Q and m[1, 1] == q_int(3)
    # carlitz 2x2 and 3x3 displays
    m = fam.fam_eq77(2)
    assert m[0, 1] == P((4, 1))
    m3 = fam.fam_eq77(3)
    assert m3[2, 0] == P((4, 1))
    assert m3[2, 1] == (ONE + P((4, 1))) * q_int(3)
    assert m3[2, 2] == q_int(5)
    # 0x0 slices
    assert fam.fam_eq72(0, 3).nrows == 0
    assert fam.fam_eq72(3, 0).nrows == 3  # 0 columns in the Hankels only
    assert det_bareiss(fam.fam_eq1(0)) == 1


def test_eq77_displayed_values():
    r2 = run_check("eq77", n=2)
    assert r2.passed and r2.lhs == "1 + q"
    r3 = run_check("eq77", n=3)
    assert r3.passed and r3.lhs == "1 + 2*q + q^2 + q^3"


def test_eq79_displayed_value():
    res = run_check("eq79", size=5)
    assert res.passed and res.lhs == "2"  # (-1)^2 C_2


def test_eq65_bridge_value():
    res = run_check("eq65", n=5, m=3)
    assert res.passed
    hankel = det_bareiss(fam.catalan_hankel(5, 3))
    assert res.lhs == str(hankel)


def test_eq59_example():
    res = run_check("eq59", n=3, r=3, alpha=2, gamma=5)
    assert res.passed and res.lhs == "10"


def test_eq112_half_integer_x():
    res = run_check("eq112", i=3, x2=9)
    assert res.passed and res.lhs == "0"


def test_eq83_displayed_values():
    assert run_check("eq83", n=2).lhs == "1 + q^2"
    lhs3 = det_bareiss(fam.fam_eq83(3))
    assert lhs3 == P((0, 1), (2, -1), (4, 1)) * q_int(5)


def test_eq54_eq55_agree():
    for n in range(7):
        for k in range(1, 5):
            a = det_bareiss(fam.fam_eq54(n, k))
            b = det_bareiss(fam.fam_eq55(n, k))
            assert a == b


def test_every_check_has_nonempty_fast_grid():
    for cid, check in CHECKS.items():
        grid = check.grid(Bounds(fast=True))
        assert isinstance(grid, list)
        assert grid, f"{cid} has an empty fast grid"


def test_full_fast_registry_green():
    failures = []
    for cid in sorted(CHECKS):
        for res in verify_range(cid, bounds=Bounds(fast=True)):
            if not res.passed:
                failures.append((cid, res.params))
    assert failures == []


def test_transpose_and_reversal_invariance_of_registered_families():
    # transposition and simultaneous row/column reversal leave the computed
    # determinants unchanged
    from catdet.linalg import Matrix

    def reversed_copy(m):
        n = m.nrows
        return Matrix.build(n, n, lambda i, j: m[n - 1 - i, n - 1 - j], m.ring)

    for n in range(9):
        m = fam.fam_eq1(n)
        d = det_bareiss(m)
        assert det_bareiss(m.transpose()) == d
        assert det_bareiss(reversed_copy(m)) == d
        for k in range(3):
            mm = fam.fam_eq74(n, 2, k)
            dd = det_bareiss(mm)
            assert det_bareiss(mm.transpose()) == dd
            assert det_bareiss(reversed_copy(mm)) == dd


def test_check_index_contents():
    index = check_index()
    ids = {e["id"] for e in index}
    for required in ("eq1", "eq2", "eq54", "eq65", "eq77", "eq83", "eq86",
                     "eq89", "eq91", "eq96", "eq106", "eq107", "thm5",
                     "thm15", "lem1", "c12", "c13a", "c13b", "c14"):
        assert required in ids
    by_id = {e["id"]: e for e in index}
    assert by_id["c14"]["conjecture"] is True
    assert by_id["eq1"]["conjecture"] is False
    assert all(e["anchor"] for e in index)


def test_conjecture_c13a_surfaces_counterexample_but_passes():
    res = run_check("c13a")
    assert res.passed  # the search ran and reproduced
    assert "counterexample" in res.lhs
    assert "'n': 4" in res.lhs and "'k': 6" in res.lhs


def test_grids_pinned():
    # per check id: point count and SHA-256 of the full and fast grid lists
    # (order, keys and values); a grid change must update grid_pins.json on
    # purpose.  A conjecture check's one point is the maxima it searches.
    import hashlib
    import json
    from pathlib import Path

    pins = json.loads((Path(__file__).parent / "grid_pins.json").read_text())
    assert sorted(pins) == sorted(CHECKS)
    totals = {"full": 0, "fast": 0}
    for cid, check in CHECKS.items():
        for level in ("full", "fast"):
            points = check.grid(Bounds(fast=level == "fast"))
            digest = hashlib.sha256(
                json.dumps(points, separators=(",", ":")).encode()).hexdigest()
            assert [len(points), digest] == pins[cid][level], (cid, level)
            totals[level] += len(points)
    assert totals == {"full": 8468, "fast": 5402}


def test_kron_sum_renders_zero_in_every_ring():
    from fractions import Fraction

    from catdet.qseries import QRat
    from catdet.registry import fmt_value, kron_sum

    for one in (1, Fraction(1), ONE, QRat(1)):
        ok, total, rhs = kron_sum(1, lambda j: one)  # -1 + 1
        assert ok and fmt_value(total) == "0" and fmt_value(rhs) == "0"
        ok, total, rhs = kron_sum(0, lambda j: one)
        assert ok and fmt_value(total) == "1" and fmt_value(rhs) == "1"


def test_conjecture_checks_follow_bounds(monkeypatch):
    from catdet import residues

    searched = []
    search = residues.conjecture_search

    def recorded(cid, bounds=None):
        report = search(cid, bounds)
        searched.append((cid, report.grid, report.checked))
        return report

    monkeypatch.setattr(residues, "conjecture_search", recorded)
    assert CHECKS["c14"].grid(Bounds(n_max=5)) == [{"n": 5}]
    assert CHECKS["c13a"].grid(Bounds(fast=True)) == [{"n": 16, "k": 4}]
    assert CHECKS["c13a"].grid(Bounds(n_max=0)) == []
    assert run_check("c14", n=5).passed
    assert run_check("c12", size=4).passed
    assert run_check("c13b", n=3, m=2).passed
    assert searched == [("c14", {"n": 5}, 6), ("c12", {"size": 4}, 1),
                        ("c13b", {"n": 3, "m": 2}, 6)]
