import random
from fractions import Fraction

import pytest

from catdet.exact import binomial
from catdet.linalg import FRAC, INT, QPOLY, QRAT, Matrix, det_bareiss
from catdet.orthopoly import (
    FavardSystem,
    InconsistentRecurrenceError,
    carlitz_system,
    fibonacci_system,
    geometric_q_coeff,
    geometric_q_system,
    hankel_shift_checks,
    lucas_variant_system,
    q_chebyshev_system,
    random_integer_system,
    system_from_coeff_rows,
    system_from_moments,
    tyson_check,
)
from catdet.qseries import ONE, QPoly, QRat, q_binomial
from catdet.residues import catalan_parity_moments
from catdet.sequences import andrews_moment, carlitz, catalan, catalan_power
from oracles import moments_from_system, orthogonality_defect, q_pochhammer


def test_pure_power_system():
    sys = FavardSystem(lambda n: 0, lambda n: 0, INT, "x^n")
    tab = sys.tables()
    for n in range(6):
        row = tab.coeff_row(n)
        assert row == [0] * n + [1]


def test_fibonacci_coefficient_rows():
    tab = fibonacci_system().tables()
    # true coefficient of x^(2j) in p_(2n) is (-1)^(n-j) binomial(n+j, n-j);
    # odd-position coefficients vanish
    for n in range(6):
        for j in range(n + 1):
            expected = binomial(n + j, n - j)
            if (n - j) % 2:
                expected = -expected
            assert tab.coeff(2 * n, 2 * j) == expected
        for j in range(n):
            assert tab.coeff(2 * n, 2 * j + 1) == 0


def test_fibonacci_moments_are_catalan():
    tab = fibonacci_system().tables()
    for n in range(10):
        assert tab.moment(2 * n) == catalan(n)
        assert tab.moment(2 * n + 1) == 0
    # c(2n+k, k) = C_n^(k+1)
    for n in range(8):
        for k in range(6):
            assert tab.c(2 * n + k, k) == catalan_power(n, k + 1)


def test_lucas_variant_moments_are_central_binomials():
    tab = lucas_variant_system().tables()
    for n in range(9):
        assert tab.moment(2 * n) == binomial(2 * n, n)
        assert tab.moment(2 * n + 1) == 0
    for n in range(7):
        for k in range(5):
            assert tab.c(2 * n + k, k) == binomial(2 * n + k, n)
            if k > 0:
                assert tab.c(2 * n + k, k - 1) == 0


def test_carlitz_system_moments():
    tab = carlitz_system().tables()
    for n in range(7):
        assert tab.moment(2 * n) == carlitz(n)
        assert tab.moment(2 * n + 1) == QPoly.const(0)


def test_q_chebyshev_moments_are_andrews():
    tab = q_chebyshev_system().tables()
    for n in range(6):
        assert tab.moment(2 * n) == andrews_moment(n)
        assert tab.moment(2 * n + 1) == QRat(0)


def test_q_chebyshev_t_is_the_reduced_quotient():
    t = q_chebyshev_system().t
    one = QPoly.const(1)
    for n in range(32):
        expected = QRat(QPoly.monomial(n + 1),
                        (one + QPoly.monomial(n + 1)) * (one + QPoly.monomial(n + 2)))
        assert t(n).num == expected.num, n
        assert t(n).den == expected.den, n


def test_q_chebyshev_coefficients_match_explicit_formula():
    tab = q_chebyshev_system().tables()
    for n in range(6):
        for k in range(n // 2 + 1):
            expected = QRat(
                q_binomial(n - k, k).shift(k * k),
                q_pochhammer(-1, 1, k) * q_pochhammer(-1, n + 1 - k, k),
            )
            if k % 2:
                expected = -expected
            assert tab.coeff(n, n - 2 * k) == expected


def test_orthogonality_by_construction():
    for sys in (fibonacci_system(), lucas_variant_system(), carlitz_system()):
        tab = sys.tables()
        for n in range(9):
            defect = orthogonality_defect(tab, n)
            if n == 0:
                assert defect == tab._one
            else:
                assert not defect


def test_monomial_expansion_identity():
    # sum_k c(n, k) p_k(x) = x^n
    for sys in (fibonacci_system(), lucas_variant_system()):
        tab = sys.tables()
        for n in range(11):
            acc = [0] * (n + 1)
            for k in range(n + 1):
                ck = tab.c(n, k)
                row = tab.coeff_row(k)
                for j, v in enumerate(row):
                    acc[j] += ck * v
            assert acc == [0] * n + [1]


def test_row_pairing_gives_kronecker():
    # sum_j (-1)^(n-j) p(n+k, j+k) c(j+k, k) = [n = 0]
    tab = fibonacci_system().tables()
    for n in range(9):
        for k in range(5):
            acc = 0
            for j in range(n + 1):
                term = tab.p_entry(n + k, j + k) * tab.c(j + k, k)
                acc += term if (n - j) % 2 == 0 else -term
            assert acc == (1 if n == 0 else 0)


def test_shifted_coefficient_determinant_is_c_table():
    # det(p(i+k+1, j+k))_(i,j<n) = c(n+k, k)
    for sys in (fibonacci_system(), lucas_variant_system()):
        tab = sys.tables()
        for n in range(7):
            for k in range(4):
                m = Matrix.build(
                    n, n, lambda i, j, k=k: tab.p_entry(i + k + 1, j + k), sys.ring
                )
                assert det_bareiss(m) == tab.c(n + k, k)


def test_lemma1_product_route():
    # det(p(i+1, j))_(i,j<n) = M_n when no moment vanishes (even subsequence)
    tab = fibonacci_system().tables()
    even = FavardSystem(lambda n: 0, lambda n: 1, INT)
    # use the Lucas-variant even moments instead: all moments nonzero
    lv = lucas_variant_system().tables()
    for n in range(8):
        m = Matrix.build(n, n, lambda i, j: lv.p_entry(i + 1, j), INT)
        det = det_bareiss(m)
        assert det == lv.moment(n)


def test_tyson_check_named_systems():
    assert tyson_check(fibonacci_system().tables(), 3, 0)
    for n in range(9):
        for m in range(5):
            assert tyson_check(fibonacci_system().tables(), n, m)
    for n in range(6):
        for m in range(5):
            assert tyson_check(lucas_variant_system().tables(), n, m)
    for n in range(5):
        for m in range(4):
            assert tyson_check(carlitz_system().tables(), n, m)
            assert tyson_check(q_chebyshev_system().tables(), n, m)
            assert tyson_check(geometric_q_system().tables(), n, m)


def test_tyson_check_random_systems():
    count = 0
    case = 0
    while count < 40:
        rng = random.Random(1000 + case)
        case += 1
        sys = random_integer_system(rng)
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        tab = sys.tables()
        try:
            ok = tyson_check(tab, n, m)
        except ArithmeticError:
            continue
        assert ok
        count += 1


def test_tyson_zero_hankel_raises():
    # moments of x^n system: M = (1,0,0,...) gives singular 2x2 Hankel
    sys = FavardSystem(lambda n: 0, lambda n: 0, INT)
    with pytest.raises(ArithmeticError):
        tyson_check(sys.tables(), 1, 2)


def test_raise_in_a_row_keeps_the_tables_whole():
    # t(3) first multiplies in moment row 5 and coefficient row 5; the rows
    # kept before the raise must be whole and equal a fresh table's
    def t(n):
        if n == 3:
            raise ZeroDivisionError("t(3)")
        return n + 2

    sys = FavardSystem(lambda n: n - 1, t, INT)
    tab = sys.tables()
    with pytest.raises(ZeroDivisionError):
        tab.c(8, 0)
    with pytest.raises(ZeroDivisionError):
        tab.coeff(8, 0)
    fresh = sys.tables()
    fresh.c(4, 0)
    fresh.coeff(4, 0)
    for rows, fresh_rows in ((tab._moments, fresh._moments), (tab._coeffs, fresh._coeffs)):
        assert [len(row) for row in rows] == [1, 2, 3, 4, 5]
        assert rows == fresh_rows
    with pytest.raises(ZeroDivisionError):
        tab.c(5, 0)


def test_hankel_shift_formulas():
    for sys in (fibonacci_system(), lucas_variant_system()):
        for m in range(6):
            assert hankel_shift_checks(sys.tables(), m)
    # m = 1 reduces to M_1 = s(0) and M_2 = s(0)^2 + t(0)
    rng = random.Random(5)
    s0, t0 = 2, 3
    sys = FavardSystem(lambda n: s0, lambda n: t0, INT)
    tab = sys.tables()
    assert tab.moment(1) == s0
    assert tab.moment(2) == s0 * s0 + t0
    assert hankel_shift_checks(sys.tables(), 1)


def test_hankel_shift_on_random_systems():
    for case in range(25):
        rng = random.Random(4000 + case)
        sys = random_integer_system(rng)
        m = rng.randint(0, 5)
        try:
            assert hankel_shift_checks(sys.tables(), m)
        except ArithmeticError:
            continue


def test_geometric_q_system_matches_explicit_coefficients():
    tab = geometric_q_system().tables()
    for n in range(6):
        for j in range(n + 1):
            assert tab.coeff(n, j) == geometric_q_coeff(n, j)
    # moments are q^(n(n-1)/2)
    for n in range(8):
        assert tab.moment(n) == QPoly.monomial(n * (n - 1) // 2)


def test_system_recovery_from_coeff_rows():
    rows = [[geometric_q_coeff(n, j) for j in range(n + 1)] for n in range(7)]
    s_list, t_list, sys = system_from_coeff_rows(rows, QPOLY)
    ref = geometric_q_system()
    for k in range(5):
        assert s_list[k] == ref.s(k)
    for k in range(4):
        assert t_list[k] == ref.t(k)
    # a perturbed table is flagged
    bad = [row[:] for row in rows]
    bad[4][1] = bad[4][1] + ONE
    with pytest.raises(InconsistentRecurrenceError):
        system_from_coeff_rows(bad, QPOLY)


def test_system_recovery_from_moments_hilbert():
    moments = [Fraction(1, n + 1) for n in range(16)]
    s_list, t_list, sys = system_from_moments(moments, FRAC)
    tab = sys.tables()
    for n in range(8):
        assert tab.moment(n) == Fraction(1, n + 1)
    # recovered coefficient table matches binom(n,j) binom(n+j,j) / binom(2n,n)
    for n in range(6):
        for j in range(n + 1):
            expected = Fraction(binomial(n, j) * binomial(n + j, j), binomial(2 * n, n))
            assert tab.p_entry(n, j) == expected


def test_system_recovery_from_moments_catalan_parity():
    moments = catalan_parity_moments(20)
    s_list, t_list, sys = system_from_moments(moments, FRAC)
    assert moments_from_system(sys, 20) == moments


def test_lambda_moment_list_roundtrip():
    # the q-rational system behind the listed moment sequence
    # 1, 0, 1+q, 0, (1+q^2)(1+2q), 0, (1+q^3)(1+3q+3q^2+3q^3), ...
    q = QPoly.monomial(1)
    listed = [
        QRat(ONE),
        QRat(0),
        QRat(ONE + q),
        QRat(0),
        QRat((ONE + q * q) * (ONE + 2 * q)),
        QRat(0),
        QRat((ONE + q ** 3) * (ONE + 3 * q + 3 * q * q + 3 * q ** 3)),
        QRat(0),
        QRat(
            (ONE + q ** 4)
            * (ONE + 2 * q + 2 * q ** 3)
            * (ONE + 2 * q + 2 * q * q + 2 * q ** 3)
        ),
    ]
    s_list, t_list, sys = system_from_moments(listed, QRAT)
    for s in s_list:
        assert s == QRat(0)
    assert t_list[0] == QRat(ONE + q)
    assert t_list[1] == QRat(2 * q ** 3, ONE + q)
    assert moments_from_system(sys, len(listed)) == listed


def _random_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _random_qrat(rng):
    q = QPoly.monomial(1)
    num = QPoly.const(rng.randint(-2, 2)) + rng.randint(-2, 2) * q
    return QRat(num, ONE + rng.randint(0, 2) * q)


@pytest.mark.parametrize("ring, draw, size", [(FRAC, _random_fraction, 6),
                                              (QRAT, _random_qrat, 3)],
                         ids=["rational", "q-rational"])
def test_moment_recovery_round_trips_at_every_length(ring, draw, size):
    # M moments of a system with t != 0 give back s(j) for 2j + 2 <= M and
    # t(j) for 2j + 3 <= M, whatever the (nonzero) scale of the moments
    rng = random.Random(f"moments-{ring.name}")
    for _ in range(12 if ring is FRAC else 3):
        s = [draw(rng) for _ in range(size + 1)]
        t = []
        while len(t) < size + 1:
            t.append(draw(rng) or ring.one)
        moments = moments_from_system(FavardSystem(s.__getitem__, t.__getitem__, ring),
                                      2 * size + 2)
        scale = draw(rng) or ring.one
        for count in range(2 * size + 2):
            for listed in (moments[:count], [scale * m for m in moments[:count]]):
                s_list, t_list, sys = system_from_moments(listed, ring)
                assert s_list == s[:count // 2] and t_list == t[:max(0, (count - 1) // 2)]
                assert sys.ring is ring


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moment_recovery_raises_on_a_vanishing_norm(n):
    # t(n-1) = 0 makes L(p_n^2) = t(0) ... t(n-1) vanish; it is read only
    # once 2n + 1 moments are given
    t = [Fraction(k + 2, 3) for k in range(8)]
    t[n - 1] = Fraction(0)
    system = FavardSystem(lambda k: Fraction(k - 1, 2), t.__getitem__, FRAC)
    moments = moments_from_system(system, 2 * n + 3)
    s_list, t_list, _ = system_from_moments(moments[:2 * n], FRAC)
    assert len(s_list) == n and t_list == t[:n - 1]
    for count in (2 * n + 1, 2 * n + 3):
        with pytest.raises(ArithmeticError) as info:
            system_from_moments(moments[:count], FRAC)
        assert str(info.value) == f"vanishing norm at n = {n}: moments not orthogonalizable"


def test_moment_recovery_raises_on_a_zero_first_moment():
    for moments in ([0], [0, 1, 2], [Fraction(0), Fraction(1, 2), Fraction(3)]):
        with pytest.raises(ArithmeticError) as info:
            system_from_moments(moments, FRAC)
        assert str(info.value) == "vanishing norm at n = 0: moments not orthogonalizable"
    assert system_from_moments([], FRAC)[:2] == ([], [])


@pytest.mark.parametrize("ring", [INT, QPOLY], ids=["integer", "q-polynomial"])
def test_moment_recovery_refuses_a_ring_that_is_not_a_field(ring):
    # over INT `/` would leave exact arithmetic (s = [0.0, 0.0]); every
    # length is refused, the empty one too, before a moment is read
    for moments in ([1, 0, 1, 0, 2], [], [0]):
        with pytest.raises(TypeError) as info:
            system_from_moments(moments, ring)
        assert str(info.value) == f"moment recovery needs a field, not the {ring.name} ring"


def test_moment_recovery_over_the_fields_is_unchanged():
    # moments 1, 0, 1, 0, 2 give s = 0, 0 and t = 1, 1, as Fraction
    # over FRAC and as QRat over QRAT
    s_list, t_list, _ = system_from_moments([1, 0, 1, 0, 2], FRAC)
    assert s_list == [0, 0] and t_list == [1, 1]
    assert all(type(v) is Fraction for v in s_list + t_list)
    s_list, t_list, _ = system_from_moments([1, 0, 1, 0, 2], QRAT)
    assert s_list == [QRat(0)] * 2 and t_list == [QRat(1)] * 2
    assert all(type(v) is QRat for v in s_list + t_list)
    assert system_from_moments([], QRAT)[:2] == ([], [])


def _coefficient_tables():
    yield [[geometric_q_coeff(n, j) for j in range(n + 1)] for n in range(7)], QPOLY, ONE
    tab = random_integer_system(random.Random("coeff-rows")).tables()
    yield [tab.coeff_row(n) for n in range(8)], INT, 1


@pytest.mark.parametrize("rows, ring, unit", _coefficient_tables(), ids=["geometric-q", "random"])
def test_coeff_row_recovery_names_the_perturbed_entry(rows, ring, unit):
    # s(n-1) and t(n-2) are read off columns n-1 and n-2 of row n, so a change
    # there gives another system; any other entry, row 0 and the leading 1s
    # included, is flagged where it was changed
    system_from_coeff_rows(rows, ring)
    for n, row in enumerate(rows):
        for j in [*range(n - 2), n]:
            bad = [r[:] for r in rows]
            bad[n][j] = bad[n][j] + unit
            with pytest.raises(InconsistentRecurrenceError) as info:
                system_from_coeff_rows(bad, ring)
            assert str(info.value) == (
                f"coefficient table breaks the three-term recurrence at (n={n}, j={j})")
    with pytest.raises(InconsistentRecurrenceError, match=r"\(n=0, j=0\)"):
        system_from_coeff_rows([[ring.zero]], ring)
