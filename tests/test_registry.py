import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import catdet.residues  # noqa: F401  (registers the modular checks)
from catdet import families as fam
from catdet import sequences as seq
from catdet.exact import choose2
from catdet.linalg import FRAC, QRAT, BandedMinors, det, det_bareiss, det_cofactor
from catdet.qseries import ONE, Q, QPoly, QRat, q_binomial, q_int
from catdet.registry import (
    CHECKS,
    Bounds,
    check_index,
    discard_sweeps,
    run_check,
    swept_det,
    verify_range,
)
from oracles import q_pochhammer

SRC = Path(__file__).resolve().parents[1] / "src"


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
    m = fam.build(fam.EQ1, 4)
    assert m.rows() == [
        [1, 1, 0, 0],
        [1, 3, 1, 0],
        [1, 6, 5, 1],
        [1, 10, 15, 7],
    ]
    # q-Catalan 2x2: ((1, 1), (q, [3]))
    m = fam.build(fam.EQ83, 2)
    assert m[0, 0] == ONE and m[0, 1] == ONE
    assert m[1, 0] == Q and m[1, 1] == q_int(3)
    # carlitz 2x2 and 3x3 displays
    m = fam.build(fam.EQ77, 2)
    assert m[0, 1] == P((2, 1))
    m3 = fam.build(fam.EQ77, 3)
    assert m3[2, 0] == P((2, 1))
    assert m3[2, 1] == (ONE + P((2, 1))) * q_int(3)
    assert m3[2, 2] == q_int(5)
    # 0x0 slices
    assert fam.build(fam.EQ72, 0, m=3).nrows == 0
    assert fam.build(fam.EQ72, 3, m=0).nrows == 3  # 0 columns in the Hankels only
    assert det_bareiss(fam.build(fam.EQ1, 0)) == 1


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
    hankel = det_bareiss(fam.build(fam.CATALAN_HANKEL, 3, shift=5))
    assert res.lhs == str(hankel)


def test_eq59_example():
    res = run_check("eq59", n=3, r=3, alpha=2, gamma=5)
    assert res.passed and res.lhs == "10"


def test_eq112_half_integer_x():
    res = run_check("eq112", i=3, x2=9)
    assert res.passed and res.lhs == "0"


def test_eq83_displayed_values():
    assert run_check("eq83", n=2).lhs == "1 + q^2"
    lhs3 = det_bareiss(fam.build(fam.EQ83, 3))
    assert lhs3 == P((0, 1), (1, -1), (2, 1)) * q_int(5)


def test_eq54_eq55_agree():
    for n in range(7):
        for k in range(1, 5):
            a = det_bareiss(fam.build(fam.EQ54, n, k=k))
            b = det_bareiss(fam.build(fam.EQ55, n, k=k))
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
        m = fam.build(fam.EQ1, n)
        d = det_bareiss(m)
        assert det_bareiss(m.transpose()) == d
        assert det_bareiss(reversed_copy(m)) == d
        for k in range(3):
            mm = fam.build(fam.EQ74, n, m=2, k=k)
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


def test_check_index_pinned():
    # id, anchor, kind, conjecture flag and parameter names of every check; a
    # row that changes any of them must update index_pins.json on purpose
    import json
    from pathlib import Path

    pins = json.loads((Path(__file__).parent / "index_pins.json").read_text())
    assert check_index() == pins


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


def test_sum_check_renders_zero_in_every_ring(monkeypatch):
    from fractions import Fraction

    from catdet.registry import sum_check

    for one in (1, Fraction(1), ONE, QRat(1)):
        monkeypatch.setitem(CHECKS, "test-sum", sum_check(
            "test-sum", "test", lambda b: [], lambda j, n: one))
        res = run_check("test-sum", n=1)  # -1 + 1
        assert res.passed and res.lhs == "0" and res.rhs == "0"
        res = run_check("test-sum", n=0)
        assert res.passed and res.lhs == "1" and res.rhs == "1"


def test_equal_check_sides(monkeypatch):
    from catdet.registry import equal_check

    def declare(*sides):
        monkeypatch.setitem(CHECKS, "test-equal", equal_check(
            "test-equal", "test", "bridge", lambda b: [], *sides))

    # every side is compared with the first; the rest render joined by "; "
    declare(lambda n: n, lambda n: n + 1, lambda n: n)
    res = run_check("test-equal", n=3)
    assert (res.status, res.lhs, res.rhs) == ("fail", "3", "4; 3")
    declare(lambda n: n, lambda n: n, lambda n: n)
    assert run_check("test-equal", n=3).status == "pass"
    # two sides: the rhs renders the second side alone
    declare(lambda n: n, lambda n: [n])
    res = run_check("test-equal", n=3)
    assert (res.status, res.lhs, res.rhs) == ("fail", "3", "[3]")
    # a Family side is the determinant of its matrix at the point
    declare(fam.EQ54, lambda n, k: det(fam.build(fam.EQ54, n, k=k)))
    try:
        for n in range(6):
            res = run_check("test-equal", n=n, k=2)
            assert res.passed and res.lhs == str(det(fam.build(fam.EQ54, n, k=2)))
    finally:
        discard_sweeps()
    # a side that raises gives status error, not fail
    declare(lambda n: n, lambda n: 1 // (n - n))
    res = run_check("test-equal", n=3)
    assert (res.status, res.lhs) == ("error", "ZeroDivisionError")


def test_equal_check_reads_one_sweep_per_family_side(monkeypatch):
    from catdet.registry import equal_check

    # det EQ1 is C_n and det EQ43 is C(2n, n): the row holds at n = 0 only
    monkeypatch.setitem(CHECKS, "test-two-families", equal_check(
        "test-two-families", "test", "det", lambda b: [], fam.EQ1, fam.EQ43))
    try:
        assert run_check("test-two-families", n=0).passed
        res = run_check("test-two-families", n=3)
        assert (res.status, res.lhs, res.rhs) == ("fail", "5", "20")
    finally:
        discard_sweeps()


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


# every Family read off a sweep, with parameters from its checks' grids
SWEPT_FAMILIES = [
    (fam.EQ1, [{}]),
    (fam.EQ1B, [{}]),
    (fam.EQ35, [{"x": x} for x in (-9, -4, -1, 0, 3, 8)]),
    (fam.EQ43, [{}]),
    (fam.EQ45, [{"k": k} for k in (1, 2, 6)]),
    (fam.EQ46, [{"k": k} for k in (1, 2, 6)]),
    (fam.EQ54, [{"k": k} for k in (1, 4, 8)]),
    (fam.EQ55, [{"k": k} for k in (1, 4, 8)]),
    (fam.EQ58, [{"k": k, "r": r} for k in (1, 4) for r in (1, 4)]),
    (fam.EQ61, [{"k": k, "r": r} for k in (1, 4) for r in (1, 4)]),
    (fam.EQ27, [{"k": 0}, {"k": 3}]),
    (fam.EQ77, [{}]),
    (fam.EQ78, [{}]),
    (fam.EQ81, [{"r": 1}, {"r": 4}]),
    (fam.EQ83, [{}]),
    (fam.EQ84, [{}]),
    (fam.EQ86, [{"k": 3, "shifted": False}, {"k": 3, "shifted": True}]),
    (fam.EQ98, [{"x": 1}, {"x": 5}]),
    (fam.EQ89, [{"k": 1}, {"k": 4}]),
    # negative k: Theorem 15 reads the family at k = -m
    (fam.EQ92, [{"k": k} for k in (1, 4, -3, -6)]),
    (fam.SEC33, [{"k": 1}, {"k": 4}]),
    # banded: support j <= i + m, swept against the outer diagonal h(i, i + m)
    (fam.EQ74, [{"m": m, "k": k} for m in (0, 2, 4) for k in (0, 3)]),
    (fam.EQ10, [{"m": 2, "x": 1}, {"m": 3, "x": 4}]),
    (fam.EQ72, [{"m": m} for m in (0, 3, 5)]),
    (fam.EQ71, [{"m": m} for m in (0, 2, 5)]),
    (fam.EQ91, [{"m": 3, "k": 3}, {"m": 2, "k": 0}]),
    (fam.REMARK, [{"m": 3, "x": 3}, {"m": 2, "x": 1}]),
    (fam.THM11_B, [{"x": 4, "m": 3}, {"x": -2, "m": 2}]),
]

# every other declared Family, with the reason its determinants stay per point
NOT_SWEPT = (
    (fam.EQ74_REVERSED, "size-dependent: takes its size as parameter n"),
    (fam.REMARK_RHS, "size-dependent: takes its size as parameter m"),
    (fam.CATALAN_POWER_HANKEL, "dense Hankel-type block"),
    (fam.CATALAN_HANKEL, "dense Hankel-type block"),
    (fam.HILBERT_HANKEL, "dense Hankel-type block"),
    (fam.EQ10_RHS, "dense Hankel-type block"),
    (fam.EQ91_HANKEL, "dense Hankel-type block"),
    (fam.THM11_H, "dense Hankel-type block"),
    (fam.KRATTENTHALER, "dense, random size per case"),
    (fam.Q_KRATTENTHALER, "dense, random size per case"),
    (fam.EQ34, "only inverted"),
    (fam.EQ88, "only inverted"),
    (fam.EQ49, "only multiplied by its null vector; pole at j = m"),
)


def test_swept_families_cover_every_sweepable_family():
    # a new Family lands in SWEPT_FAMILIES or in NOT_SWEPT, never in both
    declared = {id(v) for v in vars(fam).values() if isinstance(v, fam.Family)}
    swept = [id(family) for family, _ in SWEPT_FAMILIES]
    not_swept = [id(family) for family, _ in NOT_SWEPT]
    assert len(set(swept)) == len(swept) and len(set(not_swept)) == len(not_swept)
    assert not set(swept) & set(not_swept)
    assert declared == set(swept) | set(not_swept)


@pytest.mark.parametrize("family,points", SWEPT_FAMILIES,
                         ids=[f"family{i}" for i in range(len(SWEPT_FAMILIES))])
def test_swept_family_minors_equal_bareiss(family, points):
    for params in points:
        minors = family.sweep(**params)
        for n in range(13):
            m = fam.build(family, n, **params)
            if family.ring is not QRAT:
                assert minors[n] == det_bareiss(m), (params, n)
                continue
            # q-rational Bareiss takes a gcd per step, too slow at n = 12: det
            # clears each matrix's rows and takes one integer determinant at
            # q = 2^w, and cofactors are a third route
            assert minors[n] == det(m), (params, n)
            if n <= 6:
                assert minors[n] == det_cofactor(m), (params, n)


def test_every_swept_family_sweeps_through_banded_minors():
    # one sweep engine: each swept family is read off a BandedMinors (at m = 1
    # when lower Hessenberg or, at band 0, lower triangular), and no module of
    # the package defines a second class that grows a matrix and reads its
    # sizes by index
    for family, points in SWEPT_FAMILIES:
        for params in points:
            sweep = family.sweep(**params)
            assert type(sweep) is BandedMinors, family
            assert sweep.m == max(params[family.band] if family.band else 1, 1), family
    found = []
    for path in sorted((SRC / "catdet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                if {"__getitem__", "__len__"} <= methods or "_grow" in methods:
                    found.append(f"{path.name}:{node.name}")
    assert found == ["linalg.py:BandedMinors"]


def _calls_by_scope(tree: ast.AST, name: str, scope: str = "") -> list[str]:
    """The dotted class and function scopes of every call of ``name`` or ``x.name`` in ``tree``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.append(scope or "<module>")
        found += _calls_by_scope(node, name, inner)
    return found


def test_only_family_sweep_builds_a_banded_minors():
    # det and every check reach the sweep engine through Family.sweep alone,
    # so a swept family's value and det of its built matrix stay two routes
    found = [f"{path.name}:{where}"
             for path in sorted((SRC / "catdet").glob("*.py"))
             for where in _calls_by_scope(ast.parse(path.read_text()), "BandedMinors")]
    assert found == ["families.py:Family.sweep"]


def _random_fraction_hessenberg(seed, ring):
    """A seeded lower Hessenberg entry function over a fraction ring, defined at every size.

    Denominators are shared ([2] and [2][3]; 2, 4 and 6), coprime ([3] and
    1 + q^2; 5 and 7) or constant; some entries are zero, and so is the
    superdiagonal entry (3, 4).
    """
    if ring is FRAC:
        dens = [1, 3, -2, 2, 4, 6, 5, 7]
    else:
        dens = [ONE, QPoly.const(3), QPoly.const(-2), q_int(2), q_int(2) * q_int(3),
                q_int(3), ONE + Q * Q]

    def entry(i, j):
        if j > i + 1 or (i, j) == (3, 4):
            return 0
        rng = random.Random(f"{seed}:{i}:{j}")
        if rng.random() < 0.2:
            return ring.zero
        if ring is FRAC:
            return Fraction(rng.randint(-9, 9), rng.choice(dens))
        num = QPoly([(rng.randint(-2, 3), rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))])
        return QRat(num, rng.choice(dens))
    return entry


FRACTION_RINGS = pytest.mark.parametrize("ring", [QRAT, FRAC], ids=lambda r: r.name)


@FRACTION_RINGS
def test_q_rational_sweep_on_random_hessenberg_entries(ring):
    for seed in range(6):
        family = fam.Family(ring, _random_fraction_hessenberg(seed, ring))
        minors = family.sweep()
        for n in range(8):
            assert minors[n] == det_cofactor(fam.build(family, n)), (seed, n)


@FRACTION_RINGS
def test_q_rational_sweep_rejects_an_entry_above_the_superdiagonal(ring):
    base = _random_fraction_hessenberg(0, ring)
    poke = QRat(Q, q_int(2)) if ring is QRAT else Fraction(1, 2)
    family = fam.Family(ring, lambda i, j: poke if (i, j) == (1, 4) else base(i, j))
    minors = family.sweep()
    assert minors[4] == det_cofactor(fam.build(family, 4))
    with pytest.raises(ValueError, match=r"entry \(1, 4\)"):
        minors[5]


# parameters at which each q-polynomial Family meets the outside oracle
Q_POLY_FAMILIES = {
    fam.EQ27: [{"k": 0}, {"k": 3}],
    fam.EQ77: [{}],
    fam.EQ78: [{}],
    fam.EQ81: [{"r": 1}, {"r": 4}],
    fam.EQ83: [{}],
    fam.EQ84: [{}],
    fam.EQ86: [{"k": 3, "shifted": False}, {"k": -4, "shifted": False},
               {"k": 2, "shifted": True}],
    fam.EQ98: [{"x": 1}, {"x": 5}],
    fam.EQ71: [{"m": 2}, {"m": 4}],
    fam.EQ88: [{}],
    fam.EQ91: [{"m": 2, "k": 3}, {"m": 3, "k": 1}],
    fam.EQ91_HANKEL: [{"n": 3, "k": 2}, {"n": 5, "k": 0}],
    fam.THM11_H: [{"x": 4, "n": 3}, {"x": 1, "n": 2}],
    fam.REMARK: [{"m": 2, "x": 3}, {"m": 3, "x": 1}],
    fam.REMARK_RHS: [{"n": 4, "m": 3, "x": 3}, {"n": 2, "m": 2, "x": 1}],
    fam.Q_KRATTENTHALER: [{"L": [8, 5, 3, 2, 0], "A": 10}, {"L": [6, 4, 3, 1, 0], "A": 12}],
}


def test_q_polynomial_family_determinants_against_sympy():
    pytest.importorskip("sympy")
    from sympy import ZZ, symbols
    from sympy.polys.matrices import DomainMatrix

    from catdet.linalg import QPOLY, det

    declared = {v for v in vars(fam).values() if isinstance(v, fam.Family) and v.ring is QPOLY}
    assert declared == set(Q_POLY_FAMILIES)
    ring = ZZ[symbols("q")]

    def oracle(m):
        rows, shift = [], 0
        for i in range(m.nrows):
            row = [m[i, j] for j in range(m.ncols)]
            low = min((v.low for v in row if not v.is_zero), default=0)
            shift += low
            rows.append([ring.ring.from_dict({(e - low,): c for e, c in v.items()})
                         for v in row])
        value = DomainMatrix(rows, (m.nrows, m.ncols), ring).det()
        return QPoly([(e + shift, int(c)) for (e,), c in value.items()])

    for family, points in Q_POLY_FAMILIES.items():
        for params in points:
            for n in range(6):
                m = fam.build(family, n, **params)
                assert det(m) == oracle(m), (params, n)


@pytest.mark.parametrize("check_id,small,large", [
    ("eq1", {"n": 9}, {"n": 30}),
    ("eq35", {"n": 4, "x": -7}, {"n": 6, "x": -7}),
    ("eq45", {"n": 5, "k": 3}, {"n": 10, "k": 3}),
    ("eq58", {"n": 3, "k": 2, "r": 3}, {"n": 6, "k": 2, "r": 3}),
    ("eq86", {"n": 4, "k": 2}, {"n": 7, "k": 2}),
    ("eq92", {"n": 3, "k": 2}, {"n": 7, "k": 2}),
    ("eq74", {"n": 3, "m": 4, "k": 2}, {"n": 9, "m": 4, "k": 2}),
    ("eq91", {"n": 2, "m": 3, "k": 1}, {"n": 6, "m": 3, "k": 1}),
    ("eq96", {"n": 2, "m": 3, "x": 2}, {"n": 6, "m": 3, "x": 2}),
    ("remarkdet", {"n": 3, "m": 2, "x": 3}, {"n": 5, "m": 2, "x": 3}),
    ("c13b", {"n": 4, "m": 3}, {"n": 12, "m": 4}),
])
def test_run_check_equal_on_cold_and_warm_sweeps(check_id, small, large):
    discard_sweeps()
    cold = run_check(check_id, **small).to_json()
    run_check(check_id, **large)
    warm = run_check(check_id, **small).to_json()
    discard_sweeps()
    run_check(check_id, **large)
    grown_first = run_check(check_id, **small).to_json()
    assert cold == warm == grown_first
    assert cold["status"] == "pass"


def test_swept_det_keeps_one_sweep_per_name_and_parameters():
    # the name of a sweep is its family
    from catdet import registry

    discard_sweeps()
    assert swept_det(fam.EQ54, 6, k=2) == 429  # C^(2)_6
    assert swept_det(fam.EQ54, 6, k=3) == 1001  # C^(3)_6
    assert swept_det(fam.EQ54, 2, k=2) == 5
    kept = {key: len(sweep) for key, sweep in registry._SWEEPS.items()}
    assert kept == {(fam.EQ54, ("k", 2)): 7, (fam.EQ54, ("k", 3)): 7}
    discard_sweeps()
    assert not registry._SWEEPS


# The q-rational entries and products built from (1 - q^e) factor lists, next
# to the QRat(num, den) forms they replaced, which reduce by a polynomial gcd.

def _qrat_ratio_entry(i, j, x, m, s):
    c = i - j + m
    if c < 0:
        return QRat(0)
    sh = choose2(i - j + s)
    if c == 0:
        return QRat(ONE.shift(sh))
    num = q_int(2 * i + x + 2 * m - 1) * q_binomial(i + j + x + m - 2, c - 1)
    return QRat(num.shift(sh), q_int(c))


def _qrat_andrews_entry(c, top):
    if c < 0:
        return QRat(0)
    num = q_binomial(top, c) * q_pochhammer(-1, top, c)
    return QRat(num.shift(2 * choose2(c)), q_pochhammer(-1, 1, c))


def _qrat_sec33_entry(i, j, k):
    c = i + 1 - j
    if c < 0:
        return QRat(0)
    num = q_binomial(i + j + k, c).shift(c * c)
    return QRat(num, q_pochhammer(-1, 1, c) * q_pochhammer(-1, i + j + k + 1, c))


def _same(a, b):
    return (a.num, a.den) == (b.num, b.den)


def test_factor_list_entries_equal_the_gcd_route():
    # x and k in -9..9 reach the zero factors ([0] above, and 0 <= N < c in a
    # q-binomial) and the constant factors 1 + q^0 = 2 of SEC33 and EQ89
    # (i+j+k+1 <= 0 and j+k <= 0)
    span = range(-9, 10)
    for i in range(8):
        for j in range(8):
            for x in span:
                assert _same(fam.EQ92.entry(i, j, k=x), _qrat_ratio_entry(i, j, x, 1, 0))
                for m in range(5):
                    assert _same(fam.THM11_B.entry(i, j, x=x, m=m),
                                 _qrat_ratio_entry(i, j, x, m, m)), (i, j, x, m)
            for k in span:
                assert _same(fam.SEC33.entry(i, j, k=k), _qrat_sec33_entry(i, j, k)), (i, j, k)
                assert _same(fam.EQ89.entry(i, j, k=k),
                             _qrat_andrews_entry(i - j + 1, j + k)), (i, j, k)


def test_factor_list_closed_forms_equal_the_gcd_route():
    from catdet.registry import _eq92s_term, _lem16_rat_sum, _thm8_c

    span = range(-9, 10)
    for x in span:
        for m in range(5):
            if x + m - 1 == 0:
                with pytest.raises(ZeroDivisionError):
                    fam.thm11_w1m(x, m)
                continue
            num = (q_binomial(x + m - 1, m) * q_int(x + 2 * m - 1)).shift(choose2(m))
            assert _same(fam.thm11_w1m(x, m), QRat(num, q_int(x + m - 1))), (x, m)
    for np_ in span:
        for jp in span:
            assert _same(_thm8_c(np_, jp), _qrat_andrews_entry(np_ - jp, jp)), (np_, jp)
    for n in range(8):
        for k in span:
            for j in range(n + 1):
                core = QRat(1) if j == 0 else QRat(
                    q_int(2 * n + k - 1) * q_binomial(2 * n - j + k - 2, j - 1), q_int(j))
                tail = q_binomial(2 * n - 2 * j + k - 1, n - j).shift(choose2(j))
                assert _same(_eq92s_term(n, k, j), core * QRat(tail)), (n, k, j)
    for i in range(8):
        for y in span:
            if y == 2 * i + 1:
                continue
            total = QRat(0)
            for j in range(i + 2):
                b, c = i + j - y, i - j + 1
                core = QRat(ONE, q_int(b)) if c == 0 else QRat(q_binomial(b - 1, c - 1), q_int(c))
                off = choose2(i - j) + 3 * choose2(j) - j * y
                total = total + core * QRat(q_binomial(y - j, j).shift(off))
            assert _same(_lem16_rat_sum(i, y), total), (i, y)


def test_thm11_w_products_join_their_factor_lists():
    from catdet.registry import _w_product

    for n in range(6):
        for m in range(4):
            # x >= 2 keeps the Pochhammer factors of negative count clear of poles
            for x in range(2, 7):
                a, b = (n, x, m), (max(n - 1, 0), x + 2, m + 1)
                assert _same(_w_product(a, b), fam.thm11_w(*a) * fam.thm11_w(*b)), (a, b)


def _inverse_statement_holds(check_id: str, size: int) -> bool:
    """The check's verdict at one size (c12's run_check reports its search instead)."""
    from catdet.residues import _c12_point

    if check_id == "c12":
        return _c12_point(size)[0]
    return run_check(check_id, size=size).passed


def test_inverse_statements_against_sympy_inverse():
    pytest.importorskip("sympy")
    from sympy import QQ, ZZ, symbols
    from sympy.polys.matrices import DomainMatrix

    from catdet.exact import binomial
    from catdet.linalg import INT, Matrix
    from catdet.registry import _q_ballot
    from catdet.residues import lift2
    from catdet.sequences import ballot

    def rational_inverse(m):
        rows = [[QQ(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)]
        inv = DomainMatrix(rows, (m.nrows, m.ncols), QQ).inv().to_Matrix()
        return Matrix.build(m.nrows, m.ncols, lambda i, j: int(inv[i, j]), INT)

    for size in range(1, 17):
        assert rational_inverse(fam.build(fam.EQ34, size)) == Matrix.build(size, size, ballot, INT)
        lifted = Matrix.build(size, size, lambda i, j: (-1) ** ((i - j) % 2)
                              * lift2(binomial(i + j, i - j)), INT)
        lifted_ballot = Matrix.build(size, size, lambda i, j: lift2(ballot(i, j)), INT)
        assert rational_inverse(lifted) == lifted_ballot
        assert _inverse_statement_holds("eq34", size)
        assert _inverse_statement_holds("c12", size)

    ring = ZZ[symbols("q")]
    for size in range(1, 7):
        a = fam.build(fam.EQ88, size)
        assert all(v.is_zero or v.low >= 0 for v in a.data)
        rows = [[ring.ring.from_dict({(e,): c for e, c in a[i, j].items()})
                 for j in range(size)] for i in range(size)]
        inv, den = DomainMatrix(rows, (size, size), ring).inv_den()
        assert den in (ring.one, -ring.one)
        sign = 1 if den == ring.one else -1
        oracle = Matrix.build(size, size, lambda i, j: QPoly(
            [(e, sign * int(c)) for (e,), c in inv[i, j].element.items()]), a.ring)
        assert oracle == _q_ballot(size)
        assert _inverse_statement_holds("eq88", size)


@pytest.mark.parametrize("check_id", ["eq34", "eq88", "c12"])
def test_inverse_statement_fails_on_one_flipped_entry(check_id, monkeypatch):
    from catdet import registry, residues
    from catdet.linalg import Matrix

    size = 4
    for flip in [(i, j) for i in range(size) for j in range(size)]:
        if check_id == "eq88":
            def flipped_table(n, table=registry._q_ballot):
                m = table(n)
                data = list(m.data)
                data[flip[0] * n + flip[1]] += Q
                return Matrix(n, n, data, m.ring)
            monkeypatch.setattr(registry, "_q_ballot", flipped_table)
        else:
            module = registry if check_id == "eq34" else residues
            def flipped_ballot(i, j, ballot=module.ballot):
                return ballot(i, j) + ((i, j) == flip)
            monkeypatch.setattr(module, "ballot", flipped_ballot)
        assert not _inverse_statement_holds(check_id, size), flip
        monkeypatch.undo()
        assert _inverse_statement_holds(check_id, size)


def test_thm5_and_eq69_take_each_hankel_determinant_once(monkeypatch):
    # both checks read one table per system, whose memo serves thm5's base
    # determinant at every n and eq69's shifts 0, 1 and 2
    from catdet import orthopoly, registry

    taken, reads = [], []
    hankel, hankel_det = orthopoly.FavardTables.hankel, orthopoly.FavardTables.hankel_det

    def counted_hankel(self, shift, m):
        taken.append((self.system.name, shift, m))
        return hankel(self, shift, m)

    def counted_det(self, shift, m):
        reads.append((self.system.name, shift, m))
        return hankel_det(self, shift, m)

    monkeypatch.setattr(orthopoly.FavardTables, "hankel", counted_hankel)
    monkeypatch.setattr(orthopoly.FavardTables, "hankel_det", counted_det)
    registry._tables.cache_clear()
    try:
        for cid in ("thm5", "eq69"):
            assert all(r.passed for r in verify_range(cid, bounds=Bounds()))
    finally:
        registry._tables.cache_clear()
    assert len(taken) == len(set(taken)) == len(set(reads))
    assert len(reads) > len(taken)


@pytest.mark.parametrize("guarded", [
    lambda: seq.catalan_power(1, -1),
    lambda: seq.gfun(1, 0),
    lambda: seq.q_catalan_power(1, -1),
    lambda: seq.andrews_c(1, 0),
    lambda: seq.andrews_moment(-1),
    lambda: fam.thm11_w(-1, 0, 1),
    lambda: fam.sec33_rhs(-1, 1),
    lambda: catdet.residues.unique_power_index(-1),
], ids=["catalan_power", "gfun", "q_catalan_power", "andrews_c", "andrews_moment", "thm11_w",
        "sec33_rhs", "unique_power_index"])
def test_domain_guards_raise_value_error(guarded):
    with pytest.raises(ValueError, match="needs"):
        guarded()


def test_q_pochhammer_with_a_negative_count_at_its_pole_raises():
    with pytest.raises(ZeroDivisionError, match="pole"):
        fam._q_poch([], [], 1, -2)
