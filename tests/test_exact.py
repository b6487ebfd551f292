import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catdet.exact import (
    binomial,
    choose2,
    gould_product,
    lucas_value,
)
from oracles import falling


def test_binomial_small_pascal_entry():
    assert binomial(4, 2) == 6


def test_binomial_negative_lower_index_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(-3, -2) == 0


def test_binomial_negative_upper_index():
    # equals (-1)^1 * C(3, 1)
    assert binomial(-3, 1) == -3
    assert binomial(-1, 4) == 1
    assert binomial(-2, 3) == -4


def test_binomial_matches_falling_factorial_definition():
    for a in range(-8, 9):
        for k in range(0, 8):
            expected = Fraction(falling(a, k), math.factorial(k))
            assert expected.denominator == 1
            assert binomial(a, k) == expected


@given(st.integers(0, 60), st.integers(0, 60))
def test_binomial_symmetry(a, k):
    if k <= a:
        assert binomial(a, k) == binomial(a, a - k)


@given(st.integers(-40, 40), st.integers(1, 12))
@settings(max_examples=200)
def test_binomial_pascal_recurrence(a, k):
    assert binomial(a, k) == binomial(a - 1, k) + binomial(a - 1, k - 1)


@given(st.integers(1, 30), st.integers(0, 12))
def test_binomial_negative_upper_reflection(a, k):
    expected = binomial(a + k - 1, k)
    if k % 2:
        expected = -expected
    assert binomial(-a, k) == expected


def test_choose2_negative_arguments():
    assert choose2(0) == 0
    assert choose2(1) == 0
    assert choose2(2) == 1
    assert choose2(-1) == 1
    assert choose2(-2) == 3


def test_fraction_canonical_form():
    x = Fraction(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    assert Fraction(2, 4) + Fraction(1, 4) == Fraction(3, 4)


def test_rational_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(1, 3) / Fraction(1, 3) == 1
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_hilbert_2x2_determinant_by_cofactor():
    # entries 1/(i+j+1); expansion a00*a11 - a01*a10
    a = [[Fraction(1, i + j + 1) for j in range(2)] for i in range(2)]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    assert det == Fraction(1, 12)


def test_gould_product_values():
    # G_n(1, 2) are the Catalan numbers
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    for n in range(10):
        assert gould_product(n, 1, 2) == catalan[n]
    assert gould_product(0, 7, 3) == 1
    # continuous extension through the removable pole at x = -rn
    assert gould_product(1, -2, 2) == -2


def test_lucas_value_examples():
    assert lucas_value(4, 1) == 4
    assert lucas_value(4, 2) == 2
    assert lucas_value(3, 0) == 1
    # removable pole m = j
    assert lucas_value(2, 2) == -1


@given(st.integers(1, 25), st.integers(0, 10))
def test_lucas_value_matches_quotient_form(m, j):
    if m != j:
        expected = Fraction(m, m - j) * binomial(m - j, j)
        assert lucas_value(m, j) == expected
