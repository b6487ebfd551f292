from fractions import Fraction

import pytest

import oracles
from catdet import sequences
from catdet.exact import binomial, gould_product
from catdet.qseries import ONE, QPoly, QRat, q_binomial, q_int
from catdet.sequences import (
    andrews_c,
    andrews_moment,
    ballot,
    carlitz,
    catalan,
    catalan_power,
    gfun,
    lucas_poly_coeffs,
    q_catalan,
    q_catalan_power,
)
from oracles import catalan_series_power_coeff, gould, lucas_coeff, q_pochhammer


def P(*terms):
    return QPoly(list(terms))


def test_catalan_values():
    assert [catalan(n) for n in range(5)] == [1, 1, 2, 5, 14]
    assert catalan(-1) == 0


def test_catalan_power_reduces_to_catalan():
    for n in range(21):
        assert catalan_power(n, 1) == catalan(n)


def test_catalan_power_against_convolution_oracle():
    for n in range(9):
        for k in range(0, 6):
            assert catalan_power(n, k) == catalan_series_power_coeff(n, k)
    assert catalan_power(2, 3) == 9


def test_catalan_power_recurrence():
    # C_n^(k) = C_n^(k-1) + C_(n-1)^(k+1), with C^(0)_n = [n = 0]
    for n in range(1, 13):
        for k in range(1, 13):
            assert catalan_power(n, k) == catalan_power(n, k - 1) + catalan_power(n - 1, k + 1)
    assert catalan_power(0, 0) == 1


def test_catalan_power_is_catalan_shift():
    for n in range(12):
        assert catalan_power(n, 2) == catalan(n + 1)


def test_ballot_triangle():
    assert [ballot(4, j) for j in range(5)] == [14, 28, 20, 7, 1]
    assert ballot(6, 2) == 275
    for n in range(8):
        assert ballot(n, n) == 1
    assert ballot(2, 5) == 0
    # agrees with the Catalan-power form C^(2j+1)_(i-j)
    for i in range(8):
        for j in range(i + 1):
            assert ballot(i, j) == catalan_power(i - j, 2 * j + 1)


def test_ballot_difference_matches_the_fraction_formula():
    # the closed form ((2j+1)/(i+j+1)) C(2i, i-j) as a fraction, zero outside 0 <= j <= i
    def formula(i, j):
        if i < 0 or j < 0 or j > i:
            return 0
        value = Fraction(2 * j + 1, i + j + 1) * binomial(2 * i, i - j)
        assert value.denominator == 1
        return value.numerator

    for i in range(-3, 85):
        for j in range(-3, 85):
            assert ballot(i, j) == formula(i, j), (i, j)


def test_gould_values():
    for n in range(11):
        assert gould(n, 1, 2) == catalan(n)
    assert gould(0, 5, 3) == 1
    for n in range(9):
        for k in range(1, 9):
            assert gould(n, k, 2) == catalan_power(n, k)
    with pytest.raises(ZeroDivisionError):
        gould(2, -4, 2)
    # the product form continues through the pole
    assert gould_product(2, -4, 2) == Fraction(-4) * Fraction(1, 2) * (-4 + 4 - 1) / 1


def test_gould_matches_product_form_off_pole():
    for n in range(7):
        for r in (1, 2, 3):
            for x in range(-9, 9):
                if r * n + x != 0:
                    assert gould(n, x, r) == gould_product(n, x, r)


def test_lucas_coeffs():
    # L_2(x) = x^2 - 2
    assert lucas_poly_coeffs(2) == [-2, 0, 1]
    assert abs(lucas_coeff(2, 1)) == 2
    for n in range(11):
        oracle = lucas_poly_coeffs(n)
        for j in range(0, n // 2 + 1):
            assert lucas_coeff(n, j) == oracle[n - 2 * j]
    assert lucas_coeff(0, 0) == 1


def test_non_integral_closed_form_raises_arithmetic_error(monkeypatch):
    # a binomial of 1 makes every closed form below a proper fraction; the
    # check must survive ``python -O``, so it cannot be an ``assert``
    monkeypatch.setattr(sequences, "binomial", lambda n, k: 1)
    monkeypatch.setattr(oracles, "binomial", lambda n, k: 1)
    catalan_power.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="not an integer"):
            catalan_power(1, 1)
        with pytest.raises(ArithmeticError, match="not an integer"):
            lucas_coeff(4, 1)
    finally:
        catalan_power.cache_clear()


def test_carlitz_values():
    assert carlitz(0) == ONE
    assert carlitz(1) == ONE
    assert carlitz(2) == P((0, 1), (1, 1))
    assert carlitz(3) == P((0, 1), (1, 2), (2, 1), (3, 1))


def test_carlitz_specializations():
    for n in range(9):
        assert carlitz(n).specialize(1) == catalan(n)
    for n in range(7):
        assert carlitz(2 * n).specialize(-1) == (1 if n == 0 else 0)
        expected = catalan(n) if n % 2 == 0 else -catalan(n)
        assert carlitz(2 * n + 1).specialize(-1) == expected


def test_gfun_reduces_to_carlitz_at_r2():
    for n in range(9):
        assert gfun(n, 2) == carlitz(n)
    for r in range(1, 5):
        assert gfun(0, r) == ONE


def test_gfun_at_q1_is_fuss_catalan():
    for n in range(6):
        for r in range(1, 6):
            expected = Fraction(1, r * n + 1) * binomial(r * n + 1, n)
            assert gfun(n, r).specialize(1) == expected


def test_q_catalan_values():
    assert q_catalan(2) == P((0, 1), (2, 1))
    assert q_catalan(3) == P((0, 1), (1, -1), (2, 1)) * q_int(5)
    for n in range(9):
        assert q_catalan(n).specialize(1) == catalan(n)


def test_q_catalan_at_minus_one():
    for n in range(11):
        assert q_catalan(n).specialize(-1) == binomial(n, n // 2)


def test_q_catalan_difference_form():
    # C_n(q) = [2n choose n] - q [2n choose n-1]
    for n in range(8):
        alt = q_binomial(2 * n, n) - QPoly.monomial(1) * q_binomial(2 * n, n - 1)
        assert q_catalan(n) == alt


def test_q_catalan_power_alternative_form():
    # [2n+k-2 choose n] - q^k [2n+k-2 choose n-2]
    for n in range(9):
        for k in range(1, 9):
            alt = q_binomial(2 * n + k - 2, n) - QPoly.monomial(k) * q_binomial(
                2 * n + k - 2, n - 2
            )
            assert q_catalan_power(n, k) == alt


def test_q_catalan_power_specializes_to_catalan_power():
    for n in range(8):
        for k in range(1, 7):
            assert q_catalan_power(n, k).specialize(1) == catalan_power(n, k)
    assert q_catalan_power(0, 0) == ONE
    assert q_catalan_power(3, 0).is_zero


def test_andrews_c_polynomiality_and_base_case():
    for n in range(7):
        assert andrews_c(n, 1) == q_catalan(n)
        for k in range(1, 5):
            value = andrews_c(n, k)
            assert value.specialize(1) == catalan_power(n, k)


def _exact_div_binomial(n, k):
    """[n choose k] for n >= 0 by one long division of q-integer products."""
    num, den = ONE, ONE
    for l in range(k):
        num = num * q_int(n - l)
        den = den * q_int(l + 1)
    return num.exact_div(den)


def test_q_catalan_family_matches_the_gcd_route():
    # the q_product values against their QRat(num, den) forms, reduced by the
    # polynomial gcd over q-integer products, with no q_product anywhere
    for n in range(16):
        assert q_catalan(n) == QRat(_exact_div_binomial(2 * n, n), q_int(n + 1)).as_poly()
        for k in range(1, 9):
            binom = _exact_div_binomial(2 * n + k, n)
            expected = QRat(q_int(k) * binom, q_int(2 * n + k))
            assert q_catalan_power(n, k) == expected.as_poly(), (n, k)
            num = q_int(k) * binom * q_pochhammer(-1, n + 1, k - 1)
            den = q_int(2 * n + k) * q_pochhammer(-1, 1, k - 1)
            assert andrews_c(n, k) == QRat(num, den), (n, k)


def test_andrews_moment_values():
    assert andrews_moment(0) == QRat(ONE)
    expected = QRat(
        QPoly.monomial(1),
        (ONE + QPoly.monomial(1)) * (ONE + QPoly.monomial(2)),
    )
    assert andrews_moment(1) == expected
    for n in range(7):
        assert andrews_moment(n).specialize(1) == Fraction(catalan(n), 4**n)
    # Against the definition: num and den equal the gcd-reduced quotient.
    for n in range(16):
        poch = q_pochhammer(-1, 1, n)
        reference = QRat(
            q_catalan(n) * (ONE + QPoly.monomial(1)) * QPoly.monomial(n),
            (ONE + QPoly.monomial(n + 1)) * poch * poch,
        )
        value = andrews_moment(n)
        assert (value.num, value.den) == (reference.num, reference.den), n
