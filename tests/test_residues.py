import random

import pytest

from catdet import registry, residues
from catdet.exact import binomial
from catdet.linalg import INT, BandedMinors, LeadingMinors, Matrix, det_bareiss
from catdet.registry import Bounds, run_check
from catdet.residues import (
    conjecture_search,
    lift2,
    lifted_det,
    lucas_binomial_mod2,
    mod2_orthopoly_bridge,
    mu,
    unique_power_index,
)
from catdet.sequences import catalan, catalan_power


def test_mu_values():
    assert [mu(x) for x in range(9)] == [0, 1, -1, 0, 1, -1, 0, 1, -1]
    assert mu(-1) == -1  # -1 = 3*(-1) + 2


def test_lifts_respect_congruence():
    rng = random.Random(0)
    for _ in range(10000):
        x = rng.randrange(0, 10**9)
        assert (lift2(x) - x) % 2 == 0 and lift2(x) in (0, 1)
        assert (mu(x) - x) % 3 == 0 and mu(x) in (-1, 0, 1)


def test_lucas_against_exact_parity():
    for a in range(257):
        for b in range(257):
            assert lucas_binomial_mod2(a, b) == binomial(a, b) % 2
    # halving identities
    assert lucas_binomial_mod2(6, 2) == lucas_binomial_mod2(3, 1) == 1
    assert lucas_binomial_mod2(7, 3) == lucas_binomial_mod2(3, 1) == 1
    for a in range(40):
        assert lucas_binomial_mod2(a, 0) == 1
    # above 2^64, b within a few units of 0 or a (and just past a) keeps binomial small
    for a in (2**64 + 5, 2**65 + 2**64 + 6, 2**65 + 2, 2**100 - 1, 3**50):
        for b in (*range(6), *range(a - 5, a + 3)):
            assert lucas_binomial_mod2(a, b) == binomial(a, b) % 2, (a, b)
    for a, b in ((-1, 0), (0, -1), (-5, -3), (-(2**70), 2**70)):
        with pytest.raises(ValueError):
            lucas_binomial_mod2(a, b)


@pytest.mark.parametrize("planted", [[(5, 3)], [(3, 7)], [(5, 3), (3, 7)]],
                         ids=["b<=a", "b>a", "first-in-row-order"])
def test_sec4lucas_reports_a_planted_wrong_digit_product(monkeypatch, planted):
    # (5, 3): an even binomial read as odd; (3, 7): b > a, where the binomial is 0
    monkeypatch.setattr(residues, "lucas_binomial_mod2",
                        lambda a, b: lucas_binomial_mod2(a, b) ^ ((a, b) in planted))
    res = run_check("sec4lucas", limit=8)
    # the first mismatch in (a, b) row order is the one reported
    assert (res.status, res.lhs, res.rhs) == ("fail", f"mismatch at {min(planted)}", "parity")


def test_unique_power_index():
    # lowest zero bit; the flipped binomial is odd exactly there
    assert unique_power_index(1) == 1
    assert unique_power_index(0) == 0
    assert unique_power_index(2) == 0
    assert unique_power_index(3) == 2
    for m in range(512):
        h = unique_power_index(m)  # asserts uniqueness internally
        assert binomial(m + 2**h, m + 1 - 2**h) % 2 == 1


def test_unique_power_index_oracle_scan():
    # independent oracle: exact binomials over every admissible j
    for m in range(200):
        odd = [
            j
            for j in range(0, (m + 2).bit_length() + 1)
            if m + 1 - 2**j >= 0 and binomial(m + 2**j, m + 1 - 2**j) % 2 == 1
        ]
        assert odd == [unique_power_index(m)]


def test_mod3_displayed_determinants():
    assert lifted_det("eq107", {"n": 0}, 3) == 1
    assert lifted_det("eq107", {"n": 1}, 3) == 1
    for n in (2, 3, 4):
        assert lifted_det("eq107", {"n": n}, 3) == -1
    # displayed 3x3 entries use the {0,1,2} lift (the entry 2 is visible)
    from catdet.linalg import Matrix, INT

    m = Matrix.build(3, 3, lambda i, j: binomial(i + j + 1, i - j + 1) % 3, INT)
    assert m.rows() == [[1, 1, 0], [1, 0, 1], [1, 0, 2]]


def test_eq107_matches_catalan_parity():
    for n in range(21):
        assert lifted_det("eq107", {"n": n}, 2) == lift2(catalan(n))


def test_parity_criterion():
    # C_n is odd exactly when n = 2^k - 1
    for n in range(65):
        expected = 1 if (n + 1) & n == 0 else 0
        assert lift2(catalan(n)) == expected


def test_r_polynomial_first_rows():
    # rows of (-1)^(n-j) r(n, j): 1; x-1; x^2-x+1; x^3-x^2-1; x^4-x^3+x^2+1
    rows = []
    for n in range(5):
        coeffs = []
        for j in range(n + 1):
            v = lucas_binomial_mod2(n + j, n - j)
            coeffs.append(v if (n - j) % 2 == 0 else -v)
        rows.append(coeffs)
    assert rows == [
        [1],
        [-1, 1],
        [1, -1, 1],
        [-1, 0, -1, 1],
        [1, 0, 1, -1, 1],
    ]


def test_eq106_range():
    for n in range(65):
        assert run_check("eq106", n=n).passed


def test_mod2_orthopoly_bridge():
    for n in range(5):
        for m in range(5):
            assert mod2_orthopoly_bridge(n, m)


def test_c12_small_truncation():
    report = conjecture_search("c12", Bounds(n_max=6))
    assert report.status == "verified-up-to"
    assert report.counterexample is None


def test_c13a_k1_consistent_with_eq107():
    # the k = 1 column reduces to the proven parity determinant
    from catdet.residues import _c13a_point

    for n in range(1, 20):
        ok, lhs, rhs = _c13a_point(n, 1)
        assert ok
        assert int(lhs) == lift2(catalan(n))


def test_c13a_counterexample_is_genuine_and_reproducible():
    report = conjecture_search("c13a", Bounds(n_max=8, k_max=6))
    assert report.status == "counterexample"
    ce = report.counterexample
    assert ce["params"] == {"n": 4, "k": 6}
    # magnitude matches the parity; the conjectured sign does not
    assert abs(int(ce["lhs"])) == abs(int(ce["rhs"]))
    assert int(ce["lhs"]) == -int(ce["rhs"])


def test_c13b_and_c14_small():
    assert conjecture_search("c13b", Bounds(n_max=8, m_max=3)).counterexample is None
    rep = conjecture_search("c14", Bounds(n_max=30))
    assert rep.counterexample is None
    assert rep.to_json()["status"] == "verified-up-to"


def test_report_json_shape():
    rep = conjecture_search("c14", Bounds(n_max=5))
    data = rep.to_json()
    assert set(data) == {"conjecture", "status", "grid", "checked", "counterexample"}
    assert data["checked"] == 6


def test_unknown_conjecture():
    with pytest.raises(KeyError):
        conjecture_search("c99")


@pytest.mark.parametrize("modulus", [2, 3])
@pytest.mark.parametrize("family,k", [("eq107", 1), ("eq109", 2), ("eq109", 6)])
def test_swept_lifts_equal_bareiss_of_the_built_lift(family, k, modulus):
    params = {} if family == "eq107" else {"k": k}
    for n in range(41):
        lift = Matrix.build(n, n, lambda i, j: binomial(i + j + k, i - j + 1) % modulus, INT)
        assert lifted_det(family, {"n": n, **params}, modulus) == det_bareiss(lift), n


def test_c13a_counterexample_pinned_against_bareiss():
    ce = conjecture_search("c13a").counterexample
    assert ce["params"] == {"n": 4, "k": 6}
    lift = Matrix.build(4, 4, lambda i, j: binomial(i + j + 6, i - j + 1) % 2, INT)
    assert ce["lhs"] == str(det_bareiss(lift)) == "1"
    assert ce["rhs"] == str(-lift2(catalan_power(4, 6))) == "-1"


def test_counterexample_recheck_recomputes_instead_of_reading_the_sweep(monkeypatch):
    # a sweep whose D_1 is wrong makes the search fail at its first point
    # (n = 1 and k = 1 for c13a, m = 1 for c13b); the re-check must discard
    # it, recompute, and find no failure.  Both lifts there are binomial(i +
    # j + 1, i - j + 1) mod 2: EQ54 at k = 1 and EQ74 at m = 1, k = 0
    def entry(i, j):
        return 2 if (i, j) == (0, 0) else binomial(i + j + 1, i - j + 1) % 2

    cases = [("c13a", "eq109", {"k": 1}, LeadingMinors(entry, INT)),
             ("c13b", "eq110", {"m": 1, "k": 0}, BandedMinors(entry, INT, 1))]
    for cid, lift, params, sweep in cases:
        key = (residues._LIFT_FAMILIES[lift], *sorted({**params, "p": 2}.items()))
        monkeypatch.setitem(registry._SWEEPS, key, sweep)
        with pytest.raises(AssertionError, match="non-reproducible failure"):
            conjecture_search(cid, Bounds(n_max=2, k_max=1, m_max=1))
        assert lifted_det(lift, {"n": 1, **params}, 2) == 1
