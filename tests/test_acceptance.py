"""Acceptance suite: every criterion at its stated grid and time budget.

Each test prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import catdet.residues  # noqa: F401
from catdet import families as fam
from catdet.exact import binomial
from catdet.linalg import det_bareiss
from catdet.registry import Bounds, verify_range
from catdet.residues import conjecture_search
from catdet.sequences import carlitz, catalan

FULL = Bounds()


def _run_ids(ids, bounds=FULL):
    failures = []
    count = 0
    for cid in ids:
        for res in verify_range(cid, bounds=bounds):
            count += 1
            if not res.passed:
                failures.append((cid, res.params, res.lhs, res.rhs))
    return count, failures


def _report(num, label, t0, failures, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{label}]: {status} ({elapsed:.2f}s / budget {budget}s)")
    assert not failures, f"criterion {num} failures: {failures[:3]}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_01_catalan_determinants():
    t0 = time.perf_counter()
    count, failures = _run_ids(["eq1", "eq1b"], Bounds(n_max=40))
    assert count == 2 * 41
    assert det_bareiss(fam.build(fam.EQ1, 4)) == 14
    _report(1, "det equals C_n for n <= 40; n = 4 gives 14", t0, failures, 5)


def test_criterion_02_alternating_sum():
    t0 = time.perf_counter()
    count, failures = _run_ids(["eq2"], Bounds(n_max=60))
    assert count == 61
    row = [binomial(4 + j, 4 - j) for j in range(5)]
    assert row == [1, 10, 15, 7, 1]  # C_4 - 7C_3 + 15C_2 - 10C_1 + C_0 = 0
    value = sum((-1) ** (4 - j) * row[j] * catalan(j) for j in range(5))
    assert value == 0
    _report(2, "alternating sum is [n=0] for n <= 60", t0, failures, 1)


def test_criterion_03_catalan_power_families():
    t0 = time.perf_counter()
    bounds = Bounds(n_max=20, k_max=8)
    count, failures = _run_ids(["eq54", "eq55"], bounds)
    assert count == 2 * 21 * 8
    # the two families agree with each other on the grid
    a = verify_range("eq54", bounds=bounds)
    b = verify_range("eq55", bounds=bounds)
    mutual = [(x.params, x.lhs, y.lhs) for x, y in zip(a, b) if x.lhs != y.lhs]
    failures.extend(mutual)
    _report(3, "(54) and (55) equal C_n^(k) and each other", t0, failures, 10)


def test_criterion_04_hankel_bridge():
    t0 = time.perf_counter()
    bounds = Bounds(n_max=12, m_max=6)
    count, failures = _run_ids(["eq65", "eq67"], bounds)
    assert count == 2 * 13 * 7
    _report(4, "Theorem 4: det = Hankel = product (67)", t0, failures, 10)


def test_criterion_05_theorem_6_and_condensation():
    t0 = time.perf_counter()
    count, failures = _run_ids(["eq74"], Bounds(n_max=10, m_max=4, k_max=4))
    assert count == 11 * 5 * 5
    c2, f2 = _run_ids(["eq76"], Bounds(n_max=10, m_max=4, k_max=4))
    failures.extend(f2)
    _report(5, "Theorem 6 forms agree; condensation recurrence (76)", t0, failures, 30)


def test_criterion_06_hilbert_bridge():
    t0 = time.perf_counter()
    count, failures = _run_ids(["eq72", "eq73"], Bounds(n_max=8, m_max=5))
    assert count == 2 * 9 * 6
    _report(6, "Hilbert bridge (72) and Cauchy product (73)", t0, failures, 10)


def test_criterion_07_carlitz():
    t0 = time.perf_counter()
    count, failures = _run_ids(["eq77"], Bounds(n_max=8))
    c2, f2 = _run_ids(["eq78", "eq79"], Bounds(n_max=9))
    failures.extend(f2)
    assert str(carlitz(2)) == "1 + q"
    assert str(carlitz(3)) == "1 + 2*q + q^2 + q^3"
    assert det_bareiss(fam.build(fam.EQ77, 2)) == carlitz(2)
    assert det_bareiss(fam.build(fam.EQ77, 3)) == carlitz(3)
    _report(7, "Carlitz det (77), reversal (78), q=-1 collapse (79)", t0, failures, 60)


def test_criterion_08_q_catalan():
    t0 = time.perf_counter()
    count, failures = _run_ids(["eq83", "eq84"], Bounds(n_max=8))
    c2, f2 = _run_ids(["eq86"], Bounds(n_max=8, k_max=4))
    failures.extend(f2)
    c3, f3 = _run_ids(["eq85"], Bounds(n_max=10))
    failures.extend(f3)
    from catdet.qseries import QPoly, q_int
    from catdet.sequences import q_catalan

    assert q_catalan(2) == QPoly([(0, 1), (2, 1)])  # 1 + q^2
    assert q_catalan(3) == QPoly([(0, 1), (1, -1), (2, 1)]) * q_int(5)
    for n in range(11):
        assert q_catalan(n).specialize(-1) == binomial(n, n // 2)
    _report(8, "q-Catalan dets (83)-(86) with displayed values and q=-1", t0, failures, 60)


def test_criterion_09_andrews_type():
    t0 = time.perf_counter()
    count, failures = _run_ids(["eq89", "eq90"], Bounds(n_max=6, k_max=4))
    assert count == 2 * 7 * 4
    _report(9, "Theorem 8 det (89) and Lemma 9 sum (90)", t0, failures, 60)


def test_criterion_10_theorems_10_11():
    t0 = time.perf_counter()
    count, failures = _run_ids(["eq91"], Bounds(n_max=6, m_max=3, k_max=3))
    c2, f2 = _run_ids(
        ["eq96", "eq97", "eq98", "eq99", "eq100"], Bounds(n_max=6, m_max=3, x_max=4)
    )
    failures.extend(f2)
    _report(10, "Theorems 10 and 11 with balance identities", t0, failures, 120)


def test_criterion_11_null_spaces():
    t0 = time.perf_counter()
    count, failures = _run_ids(["eq36", "eq39", "eq47", "eq49"], Bounds(n_max=8))
    c2, f2 = _run_ids(
        ["eq112", "eq113", "eq114", "eq115"], Bounds(n_max=6, x_max=13)
    )
    failures.extend(f2)
    c3, f3 = _run_ids(["thm15"], Bounds(n_max=5))
    failures.extend(f3)
    _report(11, "null spaces (36)/(39), (47)/(49), Lemma 16, Theorem 15", t0, failures, 60)


def test_criterion_12_tyson_bridge():
    t0 = time.perf_counter()
    count, failures = _run_ids(["thm5r"], Bounds(cases=200))
    assert count == 200
    c2, f2 = _run_ids(["thm5", "eq69"], Bounds(n_max=5, m_max=5))
    failures.extend(f2)
    _report(12, "Theorem 5 on 200 random systems, named systems, shifts", t0, failures, 60)


def test_criterion_13_parity_suite():
    t0 = time.perf_counter()
    count, failures = _run_ids(["eq106"], Bounds(n_max=64))
    assert count == 65
    c2, f2 = _run_ids(["eq107"], Bounds(n_max=32))
    failures.extend(f2)
    c3, f3 = _run_ids(["sec4uniq", "sec4lucas"], Bounds(n_max=512))
    failures.extend(f3)
    # sec4uniq covers m < 512; sec4lucas wants a, b <= 256
    c4, f4 = _run_ids(["sec4lucas"], Bounds(n_max=256))
    failures.extend(f4)
    _report(13, "(106) to n=64, (107) to n=32, digit lemma, Lucas theorem", t0, failures, 30)


def test_criterion_14_conjecture_searches():
    t0 = time.perf_counter()
    reports = {
        "c12": conjecture_search("c12", Bounds(n_max=32)),
        "c13a": conjecture_search("c13a", Bounds(n_max=32, k_max=6)),
        "c13b": conjecture_search("c13b", Bounds(n_max=16, m_max=4)),
        "c14": conjecture_search("c14", Bounds(n_max=81)),
    }
    failures = []
    for cid, rep in reports.items():
        if rep.status not in ("verified-up-to", "counterexample"):
            failures.append((cid, rep.status))
        again = conjecture_search(cid, Bounds(
            n_max=rep.grid.get("n", rep.grid.get("size")),
            k_max=rep.grid.get("k"), m_max=rep.grid.get("m")))
        if again.to_json() != rep.to_json():
            failures.append((cid, "not reproducible"))
    # expected outcomes at these bounds
    assert reports["c12"].status == "verified-up-to"
    assert reports["c13b"].status == "verified-up-to"
    assert reports["c14"].status == "verified-up-to"
    # the (109) sign rule has a genuine counterexample, surfaced verbatim
    assert reports["c13a"].status == "counterexample"
    assert reports["c13a"].counterexample["params"] == {"n": 4, "k": 6}
    print(f"  conjecture reports: "
          f"{ {cid: rep.status for cid, rep in reports.items()} }")
    _report(14, "conjecture searches run and reproduce", t0, failures, 120)


def test_criterion_15_property_suites():
    t0 = time.perf_counter()
    count, failures = _run_ids(["engines"], Bounds(cases=260))
    assert count >= 200
    c2, f2 = _run_ids(["coh"])
    failures.extend(f2)
    c3, f3 = _run_ids(["eq30"], Bounds(n_max=12, k_max=12))
    failures.extend(f3)
    _report(15, "engine cross-agreement, q->1 coherence, (30) recurrence", t0, failures, 60)
