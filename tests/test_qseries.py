import ast
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catdet import qseries
from catdet.exact import binomial
from catdet.qseries import (
    ONE,
    Q,
    ZERO,
    ExactDivisionError,
    QPoly,
    QRat,
    _expand,
    q_binomial,
    q_int,
    q_lucas_value,
    q_product,
)
from oracles import poly_gcd_prs, q_pochhammer, render_qpoly

small_polys = st.builds(
    QPoly,
    st.lists(
        st.tuples(st.integers(-6, 10), st.integers(-9, 9)),
        max_size=6,
    ),
)


def P(*terms):
    """Helper: QPoly from (exponent, coeff) pairs."""
    return QPoly(list(terms))


def test_construction_drops_zero_coefficients():
    p = P((0, 1), (1, 0), (2, 3), (2, -3))
    assert p.items() == [(0, 1)]
    assert P() == ZERO
    assert QPoly.const(0).is_zero


def test_arithmetic_examples():
    one_plus_q = ONE + Q
    one_minus_q = ONE - Q
    assert one_plus_q * one_minus_q == ONE - QPoly.monomial(2)
    # (1 - q^4) / (1 - q) = [4]
    assert (ONE - QPoly.monomial(4)).exact_div(ONE - Q) == q_int(4)
    # (1 - q + q^2) * [5] = 1 + q^2 + q^3 + q^4 + q^6
    lhs = P((0, 1), (1, -1), (2, 1)) * q_int(5)
    assert lhs == P((0, 1), (2, 1), (3, 1), (4, 1), (6, 1))


def test_exact_div_failure_raises():
    with pytest.raises(ExactDivisionError):
        (ONE + Q).exact_div(ONE - Q)
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)


def test_laurent_division():
    # q^-1 * [2] divided by [2]
    p = q_int(2).shift(-1)
    assert p.exact_div(q_int(2)) == QPoly.monomial(-1)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=150)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(small_polys, small_polys)
@settings(max_examples=150)
def test_exact_div_roundtrip(a, b):
    if not b.is_zero:
        assert (a * b).exact_div(b) == a


def _schoolbook(a, b):
    """Plain double-loop product of two dense coefficient sequences."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_kronecker_multiplication_matches_schoolbook():
    from catdet.qseries import _mul_kronecker

    rng = random.Random(7)
    for _ in range(60):
        mag = rng.choice((1, 99, 10**6, 10**30))
        a, b = ([rng.randint(-mag, mag) for _ in range(rng.randrange(1, 50))] for _ in "ab")
        a[-1] = a[-1] or 1
        b[0] = b[0] or -1
        assert _mul_kronecker(tuple(a), tuple(b)) == _schoolbook(a, b), (a, b)


def test_multiplication_across_the_kronecker_cutoff(monkeypatch):
    # QPoly.__mul__ packs when both operands have _KRON_MIN_TERMS terms or more;
    # checked just below and at the cutoff, against the plain double loop
    used = []
    kron = qseries._mul_kronecker

    def counted(a, b):
        used.append((len(a), len(b)))
        return kron(a, b)

    monkeypatch.setattr(qseries, "_mul_kronecker", counted)
    rng = random.Random("kron-cutoff")
    c = qseries._KRON_MIN_TERMS

    def poly(terms, low, step=1):
        return QPoly([(low + step * i, rng.choice((-1, 1)) * rng.randrange(1, 10**6))
                      for i in range(terms)])

    cases = [
        (poly(c - 1, -3), poly(c - 1, 5), False),
        (poly(c, -3), poly(c, 5), True),
        (poly(c - 1, 0), poly(10 * c, 2), False),
        (poly(10 * c, 0), poly(c, 2), True),
        # sparse and wide: a packed product spans every exponent between the terms
        (poly(2, 0, step=50), poly(4 * c, 1), False),
        (poly(c, 0, step=8), poly(c, 1, step=8), True),
    ]
    for a, b, packed in cases:
        la, lb = a.low, b.low
        a_vals = [a.coeff(e) for e in range(la, a.deg + 1)]
        b_vals = [b.coeff(e) for e in range(lb, b.deg + 1)]
        expected = QPoly(list(enumerate(_schoolbook(a_vals, b_vals), la + lb)))
        used.clear()
        assert a * b == expected
        assert bool(used) == packed, (len(a.items()), len(b.items()))


def test_kronecker_unpack_raises_on_a_leftover():
    from catdet.qseries import _kron_pack, _kron_unpack_signed

    assert _kron_unpack_signed(_kron_pack([3, 0, 5], 8) - _kron_pack([0, 7], 8), 8, 3) == [3, -7, 5]
    assert _kron_unpack_signed(-127, 8, 1) == [-127]
    # 128 and -129 need a second signed 8-bit digit: the carry is a leftover, not a truncation
    for value in (128, -129):
        with pytest.raises(ArithmeticError):
            _kron_unpack_signed(value, 8, 1)
    with pytest.raises(ArithmeticError):
        _kron_unpack_signed(-(1 << 16), 8, 2)
    assert _kron_unpack_signed(1 << 16, 8, 3) == [0, 0, 1]
    # digits of 1, 2, 3, 4, 8 and 10 bytes, through the array and the byte-slice paths
    for width in (8, 16, 24, 32, 64, 80):
        half = 1 << (width - 1)
        vals = [half - 1, 0, -half + 1, 1, -1]
        assert _kron_unpack_signed(_kron_pack(vals, width), width, 5) == vals
        with pytest.raises(ArithmeticError):
            _kron_unpack_signed(_kron_pack(vals, width), width, 4)


def test_kronecker_pack_round_trips_at_every_width():
    # every byte count from 1 to 17: array items of their own size (1, 2, 4, 8
    # bytes), of the next size through strided copies (3, 5-7) and to_bytes (9+)
    from catdet.qseries import _kron_pack, _kron_unpack_signed, _kron_width

    rng = random.Random("kron-widths")
    for width in range(8, 137, 8):
        half = 1 << (width - 1)
        edges = [-half, half - 1, 0]
        for vals in (edges, edges[::-1], [0, -half, 0],
                     [rng.randrange(-half, half) for _ in range(rng.randint(1, 40))] + edges):
            packed = _kron_pack(vals, width)
            assert packed == sum(v << (width * i) for i, v in enumerate(vals)), (width, vals)
            assert _kron_unpack_signed(packed, width, len(vals)) == vals, (width, vals)
        assert _kron_width(half - 1) == width
        assert _kron_width(-half) == width + 8


def test_memoized_kronecker_pack_equals_a_fresh_pack(monkeypatch):
    # digits of 1, 3, 7, 8, 9 and 16 bytes; a hit returns the first pack
    from catdet.qseries import _kron_pack, _kron_pack_fresh

    monkeypatch.setattr(qseries, "_KRON_PACKED", {})
    rng = random.Random("kron-memo")
    for width in (8, 24, 56, 64, 72, 128):
        half = 1 << (width - 1)
        vals = [rng.randrange(-half, half) for _ in range(9)] + [-half, -1, 0, half - 1]
        expected = sum(v << (width * i) for i, v in enumerate(vals))
        for listed in (vals, tuple(vals), vals, tuple(vals)):
            assert _kron_pack(listed, width) == _kron_pack_fresh(listed, width) == expected
    assert len(qseries._KRON_PACKED) == 6


def test_kronecker_pack_memo_keys_on_tuple_and_width(monkeypatch):
    from catdet.qseries import _kron_pack

    monkeypatch.setattr(qseries, "_KRON_PACKED", {})
    vals = (1, -3, 0, 2)
    at8, at16 = _kron_pack(vals, 8), _kron_pack(vals, 16)
    assert at8 != at16
    assert qseries._KRON_PACKED == {(vals, 8): at8, (vals, 16): at16}
    # a list and a tuple with equal contents share the one entry
    assert _kron_pack(list(vals), 8) is at8
    assert len(qseries._KRON_PACKED) == 2


def test_q_int_and_factorial():
    assert q_int(0).is_zero
    assert q_int(1) == ONE
    assert q_int(4) == P((0, 1), (1, 1), (2, 1), (3, 1))
    # [-n] = -q^-n [n]
    assert q_int(-2) == -q_int(2).shift(-2)


def test_q_binomial_examples():
    # oracle: product formula (q;q)_4 / ((q;q)_2 (q;q)_2)
    oracle = q_pochhammer(1, 1, 4).exact_div(
        q_pochhammer(1, 1, 2) * q_pochhammer(1, 1, 2)
    )
    assert q_binomial(4, 2) == oracle
    assert q_binomial(4, 2) == P((0, 1), (1, 1), (2, 2), (3, 1), (4, 1))
    for n in range(7):
        assert q_binomial(n, 0) == ONE
    assert q_binomial(3, 1) == q_int(3)
    assert q_binomial(3, 5).is_zero
    assert q_binomial(5, -1).is_zero


def test_q_binomial_negative_upper_index():
    # [-2 choose 1] = [-2] = -q^-2 - q^-1
    assert q_binomial(-2, 1) == P((-2, -1), (-1, -1))
    # reflection identity against the definition through q-Pascal extension:
    # [-a choose k] = [a+k-1 choose k] (-1)^k q^(-ak - C(k,2))
    for a in range(1, 6):
        for k in range(0, 6):
            lhs = q_binomial(-a, k)
            rhs = q_binomial(a + k - 1, k).shift(-(a * k + k * (k - 1) // 2))
            if k % 2:
                rhs = -rhs
            assert lhs == rhs


def test_q_pascal_recurrence():
    # [n, k] = [n-1, k-1] + q^k [n-1, k] on every 0 <= k <= n+1 up to n = 40,
    # the edges included: an additive route that shares nothing with the
    # factor-list product q_binomial takes
    assert q_binomial(0, 0) == ONE
    for n in range(1, 41):
        for k in range(n + 2):
            rhs = q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shift(k)
            assert q_binomial(n, k) == rhs, (n, k)


@given(st.integers(0, 14), st.integers(0, 14))
def test_q_binomial_symmetry_and_degree(n, k):
    if k <= n:
        assert q_binomial(n, k) == q_binomial(n, n - k)
        if 0 < k < n:
            assert q_binomial(n, k).deg == k * (n - k)


def test_q_pochhammer_examples():
    assert q_pochhammer(1, 1, 2) == (ONE - Q) * (ONE - QPoly.monomial(2))
    assert q_pochhammer(-1, 1, 0) == ONE
    # (-q^2; q)_2 = (1+q^2)(1+q^3)
    assert q_pochhammer(-1, 2, 2) == (ONE + QPoly.monomial(2)) * (ONE + QPoly.monomial(3))


def test_specialize_at_one_and_minus_one():
    assert q_binomial(4, 2).specialize(1) == 6
    assert q_binomial(4, 2).specialize(-1) == 2 == binomial(2, 1)
    assert q_binomial(5, 3).specialize(-1) == 2 == binomial(2, 1)
    assert (ONE + Q).specialize(-1) == 0
    assert P((-3, 2), (0, 1)).specialize(-1) == -1
    with pytest.raises(ValueError):
        ONE.specialize(2)


@given(st.integers(0, 12), st.integers(0, 12))
def test_specialize_one_agrees_with_binomial(n, k):
    assert q_binomial(n, k).specialize(1) == binomial(n, k)


@given(small_polys, small_polys)
@settings(max_examples=100)
def test_specialize_one_is_ring_morphism(a, b):
    assert (a + b).specialize(1) == a.specialize(1) + b.specialize(1)
    assert (a * b).specialize(1) == a.specialize(1) * b.specialize(1)


def test_q_binomial_at_minus_one_even_odd_pattern():
    for n in range(0, 7):
        for k in range(0, n + 1):
            assert q_binomial(2 * n, 2 * k).specialize(-1) == binomial(n, k)
            assert q_binomial(2 * n, 2 * k + 1).specialize(-1) == 0
            assert q_binomial(2 * n + 1, 2 * k).specialize(-1) == binomial(n, k)
            assert q_binomial(2 * n + 1, 2 * k + 1).specialize(-1) == binomial(n, k)


def test_qrat_reduction_to_polynomial():
    r = QRat(ONE - QPoly.monomial(4), ONE - Q)
    assert r.den.is_one
    assert r.as_poly() == q_int(4)
    # [k]/[2n+k] * [2n+k choose n] at k=1, n=2 is the q-Catalan number 1+q^2
    r = QRat(q_int(1) * q_binomial(5, 2), q_int(5))
    assert r.as_poly() == P((0, 1), (2, 1))


def test_qrat_canonical_form():
    a = QRat(Q - QPoly.monomial(2), (ONE - Q) * 2)
    b = QRat(Q, QPoly.const(2))
    assert a == b
    assert a.den.lead_coeff > 0
    # cross-form equality
    assert QRat(ONE, ONE + Q) == QRat(ONE - Q, ONE - Q * Q)


def test_qrat_arithmetic():
    half = QRat(ONE, ONE + Q)
    other = QRat(Q, ONE + Q)
    assert half + other == QRat(ONE + Q, ONE + Q)
    assert (half + other).as_poly() == ONE
    assert half * (ONE + Q) == QRat(ONE)
    assert (half / half) == QRat(ONE)
    with pytest.raises(ZeroDivisionError):
        half / QRat(ZERO)
    with pytest.raises(ExactDivisionError):
        QRat(ONE, ONE + Q).as_poly()


def test_qrat_specialize():
    r = QRat(Q, (ONE + Q) * (ONE + Q * Q))
    assert r.specialize(1) == Fraction(1, 4)


# denominators get +1 so they are never zero
small_qrats = st.builds(
    lambda num, den_terms: QRat(num, QPoly(den_terms) + 1),
    small_polys,
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=3),
)


@given(small_qrats, small_qrats, small_qrats)
@settings(max_examples=60, deadline=None)
def test_qrat_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if not b.is_zero:
        assert (a / b) * b == a


def test_q_lucas_value_matches_quotient():
    for m in range(1, 12):
        for j in range(0, 6):
            if m != j:
                expected = QRat(q_int(m) * q_binomial(m - j, j), q_int(m - j))
                assert QRat(q_lucas_value(m, j)) == expected
    # removable pole m = j: matches [m-j;j] + q^(m-j) [m-j-1;j-1]
    for j in range(1, 7):
        alt = q_binomial(0, j) + q_binomial(-1, j - 1).shift(0)
        assert q_lucas_value(j, j) == alt
    # the product form reduced by QRat's polynomial gcd, negative m included
    for m in range(-9, 16):
        for j in range(9):
            num = ONE - QPoly.monomial(m) if j else ONE
            for l in range(j - 1):
                num = num * (ONE - QPoly.monomial(m - j - 1 - l))
            assert QRat(q_lucas_value(m, j)) == QRat(num, q_pochhammer(1, 1, j)), (m, j)
    with pytest.raises(ValueError):
        q_lucas_value(3, -1)


def expanded_product(num, den, power):
    top = QPoly.monomial(power)
    for e in num:
        top = top * (ONE - QPoly.monomial(e))
    bottom = ONE
    for f in den:
        bottom = bottom * (ONE - QPoly.monomial(f))
    return QRat(top, bottom)


def test_q_product_matches_the_reduced_expansion():
    rng = random.Random("q_product")
    exps = [e for e in range(-9, 13) if e]
    for _ in range(300):
        num = [rng.choice(exps) for _ in range(rng.randint(0, 5))]
        den = [rng.choice(exps) for _ in range(rng.randint(0, 5))]
        # repeated exponents, and some shared between numerator and denominator
        if num and rng.random() < 0.5:
            den.append(rng.choice(num))
        if num and rng.random() < 0.3:
            num.append(num[0])
        power = rng.randint(-4, 4)
        r = q_product(num, den, power)
        expected = expanded_product(num, den, power)
        assert (r.num, r.den) == (expected.num, expected.den)
    # long lists, up to 40 factors with exponents up to +-60; the other side
    # stays short (and shares two exponents) so that the gcd of the expanded
    # route stays cheap
    exps = [e for e in range(-60, 61) if e]
    for _ in range(16):
        long = [rng.choice(exps) for _ in range(rng.randint(20, 40))]
        short = [rng.choice(exps) for _ in range(rng.randint(0, 6))] + rng.sample(long, 2)
        num, den = (long, short) if rng.random() < 0.5 else (short, long)
        power = rng.randint(-4, 4)
        r = q_product(num, den, power)
        expected = expanded_product(num, den, power)
        assert (r.num, r.den) == (expected.num, expected.den), (num, den, power)


def test_q_product_zero_exponent():
    assert q_product([3, 0, -2], [1]) == 0
    assert q_product([3, 0], [1]).den == ONE
    with pytest.raises(ZeroDivisionError):
        q_product([3], [1, 0])
    assert q_product([], [], 0) == 1


def test_q_product_memo_equals_a_fresh_computation(monkeypatch):
    # seeded lists with negative, repeated and shared exponents; the memo is
    # cleared before each fresh computation
    cache = {}
    monkeypatch.setattr(qseries, "_QPRODUCT_CACHE", cache)
    rng = random.Random("q_product-memo")
    exps = [e for e in range(-9, 13) if e]
    cases = []
    for _ in range(200):
        num = [rng.choice(exps) for _ in range(rng.randint(0, 6))]
        den = [rng.choice(exps) for _ in range(rng.randint(0, 6))]
        if num and rng.random() < 0.5:
            num.append(num[0])
        if num and rng.random() < 0.5:
            den.append(rng.choice(num))
        cases.append((num, den, rng.randint(-4, 4)))
    cached = [q_product(*case) for case in cases]
    assert all(q_product(*case) is value for case, value in zip(cases, cached))
    for case, value in zip(cases, cached):
        cache.clear()
        fresh = q_product(*case)
        assert fresh is not value and (fresh.num, fresh.den) == (value.num, value.den), case


def test_q_product_memo_keys_on_multisets_and_power(monkeypatch):
    cache = {}
    monkeypatch.setattr(qseries, "_QPRODUCT_CACHE", cache)
    value = q_product([5, -2, 3, 3], [1, 4], 2)
    for num, den in (([3, 5, 3, -2], [4, 1]), ((3, -2, 5, 3), range(1, 5, 3))):
        assert q_product(num, den, 2) is value
    assert len(cache) == 1
    others = [
        q_product([5, -2, 3], [1, 4], 2),
        q_product([5, -2, 3, 3, 3], [1, 4], 2),
        q_product([5, -2, 3, 3], [1, 4, 4], 2),
        q_product([5, -2, 3, 3], [1, 4], 3),
    ]
    assert len(cache) == 5
    assert all(other != value for other in others)


def test_q_product_zero_denominator_raises_on_every_call(monkeypatch):
    cache = {}
    monkeypatch.setattr(qseries, "_QPRODUCT_CACHE", cache)
    for _ in range(3):
        with pytest.raises(ZeroDivisionError):
            q_product([3], [1, 0])
    assert cache == {}


class _FieldWrites(ast.NodeVisitor):
    """Every store into a QPoly/QRat field (``_low``, ``_vals``, ``num``, ``den``), by scope."""

    FIELDS = {"_low", "_vals", "num", "den"}

    def __init__(self):
        self.scope = []
        self.found = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _record(self, node):
        self.found.append((tuple(self.scope[-2:]), node.lineno))

    def visit_Attribute(self, node):
        if node.attr in self.FIELDS and isinstance(node.ctx, (ast.Store, ast.Del)):
            self._record(node)
        self.generic_visit(node)

    def visit_Subscript(self, node):
        # an item stored into a field, as in p._vals[i] = v
        target = node.value
        if (isinstance(node.ctx, (ast.Store, ast.Del)) and isinstance(target, ast.Attribute)
                and target.attr in self.FIELDS):
            self._record(node)
        self.generic_visit(node)

    def visit_Call(self, node):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if (name in ("setattr", "__setattr__", "delattr") and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant) and node.args[1].value in self.FIELDS):
            self._record(node)
        self.generic_visit(node)


def test_qpoly_and_qrat_fields_are_written_only_by_their_constructors():
    # q_product's memo, _QBIN_CACHE and the leading-minor sweeps hand out
    # shared values, so nothing may change one after it is built
    allowed = {("QPoly", "__init__"), ("QPoly", "_raw"), ("QRat", "__init__"), ("QRat", "_reduced")}
    seen = set()
    for path in sorted(pathlib.Path(qseries.__file__).parent.glob("*.py")):
        visitor = _FieldWrites()
        visitor.visit(ast.parse(path.read_text(), str(path)))
        for scope, line in visitor.found:
            assert scope in allowed, f"{path.name}:{line} writes a field in {'.'.join(scope)}"
            seen.add(scope)
    assert seen == allowed


def _sympy_cyclotomic(sympy, d):
    x = sympy.Symbol("x")
    coeffs = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
    return QPoly([(k, int(c)) for k, c in enumerate(coeffs)])


def test_cyclotomic_expansion_against_sympy():
    sympy = pytest.importorskip("sympy")
    # from d = 105 on, Phi_d has coefficients of absolute value 2 and 3
    for d in [*range(1, 61), 105, 165, 195, 210, 255, 385]:
        assert _expand({d: 1}, 1) == _sympy_cyclotomic(sympy, d), d
    assert {abs(v) for _, v in _expand({385: 1}, 1).items()} == {1, 2, 3}


def test_expand_matches_the_schoolbook_product():
    # prod Phi_d(q^g)^c by plain multiplication of sympy's Phi_d, on seeded maps
    sympy = pytest.importorskip("sympy")
    phi = {d: _sympy_cyclotomic(sympy, d) for d in range(1, 31)}
    rng = random.Random("expand")
    for _ in range(500):
        powers = {d: rng.randint(1, 4) for d in rng.sample(range(1, 31), rng.randint(0, 4))}
        g = rng.choice((1, 2, 3))
        expected = ONE
        for d, c in powers.items():
            for _ in range(c):
                expected = expected * phi[d]
        expected = QPoly([(g * e, v) for e, v in expected.items()])
        assert _expand(powers, g) == expected, (powers, g)


def test_expand_with_digits_wider_than_eight_bytes(monkeypatch):
    # (y - 1)^70 (y + 1)^40 is bounded by 2^110: 14-byte digits, packed and
    # read through to_bytes; checked against the schoolbook product
    expected = ONE
    for phi, c in ((Q - 1, 70), (Q + 1, 40)):
        for _ in range(c):
            expected = expected * phi
    monkeypatch.setattr(qseries, "_KRON_PACKED", {})
    assert _expand({1: 70, 2: 40}, 1) == expected
    assert {w for _, w in qseries._KRON_PACKED} == {qseries._kron_width(2**110)} == {112}
    assert _expand({1: 70, 2: 40}, 3) == QPoly([(3 * e, v) for e, v in expected.items()])


def test_expand_of_no_factor_is_one():
    for g in (1, 2, 5):
        assert _expand({}, g) is ONE


def test_one_minus_passes_run_only_while_a_cyclotomic_is_first_cached(monkeypatch):
    phi6 = P((0, 1), (1, -1), (2, 1))
    phi6_40 = QPoly([(2 * e, v) for e, v in (phi6 ** 40).items()])
    phi6_factors = [ONE - Q, ONE + Q ** 2, ONE, ONE - Q ** 6]
    phi5_factors = [ONE + Q + Q ** 2 + Q ** 3 + Q ** 4, ONE - Q ** 5]
    factors = []
    mul = QPoly.__mul__

    def counted(self, other):
        factors.append(other)
        return mul(self, other)

    monkeypatch.setattr(qseries, "_CYCLOTOMIC", {})
    monkeypatch.setattr(qseries, "_KRON_PACKED", {})
    monkeypatch.setattr(QPoly, "__mul__", counted)
    # Phi_6 = (1 - y)(1 - y^6) / ((1 - y^2)(1 - y^3)): one product per factor,
    # each 1 / (1 - y^e) a geometric series cut above y^2
    assert _expand({6: 1}, 1) == phi6
    assert factors == phi6_factors
    # Phi_6 again, at other powers, widths and g, and inside q_product: no product
    factors.clear()
    assert _expand({6: 40}, 2) == phi6_40
    assert _expand({6: 1}, 7) == QPoly([(7 * e, v) for e, v in phi6.items()])
    monkeypatch.setattr(qseries, "_QPRODUCT_CACHE", {})
    assert q_product([6, 1], [2, 3]) == QRat(phi6)
    assert factors == []
    assert set(qseries._CYCLOTOMIC) == {6}
    # a new d is built once: Phi_5 = (1 - y^5) / (1 - y)
    _expand({5: 2, 6: 1}, 1)
    _expand({5: 3}, 1)
    assert factors == phi5_factors


def test_constant_denominator_takes_no_polynomial_gcd(monkeypatch):
    # QRat(p, c) equals the gcd route QRat(p f, c f) with a planted factor f,
    # for negative c and content shared with p, and the form read off the
    # coefficients p_e / c in lowest terms; then again with both gcds disabled
    rng = random.Random("qrat-constant")
    cases = []
    while len(cases) < 200:
        share = rng.choice((1, 2, 3, 6))
        p = P(*((rng.randint(-5, 8), share * rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))))
        c = share * rng.choice((-4, -3, -2, -1, 1, 2, 5))
        if not p.is_zero:
            cases.append((p, c))
    f = ONE - Q + QPoly.monomial(3)
    expected = [QRat(p * f, f * c) for p, c in cases]
    for (p, c), e in zip(cases, expected):
        coeffs = [(k, Fraction(v, c)) for k, v in p.items()]
        d = math.lcm(*(v.denominator for _, v in coeffs))
        assert (e.num, e.den) == (QPoly([(k, int(v * d)) for k, v in coeffs]), d), (p, c)

    def no_gcd(*args):
        raise AssertionError("polynomial gcd on a constant denominator")

    monkeypatch.setattr(qseries, "_gcdheu", no_gcd)
    for (p, c), e in zip(cases, expected):
        r = QRat(p, c)
        assert (r.num, r.den) == (e.num, e.den), (p, c)
        assert r.den.deg == 0 and r.den.lead_coeff > 0


def _sympy_expr(sympy, q, p):
    return sympy.Add(*(c * q**e for e, c in p.items()))


def test_q_binomial_against_sympy_product():
    # [n choose k] = prod_(i<k) (1 - q^(n-i)) / (1 - q^(i+1)) in sympy's
    # field of rational functions, negative n included
    pytest.importorskip("sympy")
    from sympy import ZZ, field

    K, q = field("q", ZZ)
    for n in range(-6, 13):
        for k in range(9):
            product = K.one
            for i in range(k):
                product *= (1 - q**(n - i)) / (1 - q**(i + 1))
            value = sum((c * q**e for e, c in q_binomial(n, k).items()), K.zero)
            assert value == product, (n, k)


def test_qrat_reduction_against_sympy_cancel():
    # seeded Laurent pairs a f / b f with a planted common factor f: the
    # reduced value equals sympy's and its numerator and denominator are coprime
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    rng = random.Random("qrat-cancel")

    def laurent(lo, hi):
        return P(*((rng.randint(lo, hi), rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))))

    checked = 0
    while checked < 60:
        a, b, f = laurent(-3, 5), laurent(-3, 5), laurent(0, 4)
        if b.is_zero or f.is_zero:
            continue
        r = QRat(a * f, b * f)
        expected = sympy.cancel(_sympy_expr(sympy, q, a) / _sympy_expr(sympy, q, b))
        num, den = _sympy_expr(sympy, q, r.num), _sympy_expr(sympy, q, r.den)
        assert sympy.cancel(num / den - expected) == 0, (a, b, f)
        if not r.is_zero:
            assert sympy.gcd(sympy.expand(num * q**-r.num.low), den) == 1, (a, b, f)
        checked += 1


def _dense(rng, length, bits):
    """A seeded dense coefficient list with nonzero ends, entries below 2**bits in size."""
    vals = [rng.randint(-(1 << bits), 1 << bits) for _ in range(length)]
    vals[0] = vals[0] or 1
    vals[-1] = vals[-1] or -1
    return vals


def _planted_pairs(seed, count):
    """Seeded pairs f a, f b with a planted common factor f, at coefficient sizes of 2 to 90 bits."""
    rng = random.Random(seed)
    for _ in range(count):
        bits = rng.choice((2, 5, 40, 90))
        f = _dense(rng, rng.randint(1, 12), bits)
        yield (_schoolbook(f, _dense(rng, rng.randint(1, 10), bits)),
               _schoolbook(f, _dense(rng, rng.randint(1, 10), bits)))


def _sympy_poly(sympy, x, vals):
    return sympy.Poly(list(reversed(vals)), x)


def test_gcdheu_against_the_pseudo_remainder_gcd_and_sympy():
    # on primitive parts, leads of either sign kept: GCDHEU's cofactors are the
    # operands divided by the pseudo-remainder gcd of the oracle, which is
    # sympy's up to sign
    sympy = pytest.importorskip("sympy")
    from catdet.qseries import _gcdheu, _long_div

    x = sympy.Symbol("x")
    negative_leads = 0
    for fa, fb in _planted_pairs("gcdheu", 120):
        a = [v // math.gcd(*fa) for v in fa]
        b = [v // math.gcd(*fb) for v in fb]
        negative_leads += a[-1] < 0
        g = poly_gcd_prs(a, b)
        assert _gcdheu(a, b) == (_long_div(a, g), _long_div(b, g)), (a, b)
        expected = sympy.gcd(_sympy_poly(sympy, x, a), _sympy_poly(sympy, x, b))
        assert _sympy_poly(sympy, x, g) in (expected, -expected), (a, b)
    assert negative_leads > 20


def test_coprime_parts_divide_out_the_gcd_with_its_content():
    # with content planted on both sides, a / b = a' / b' and sympy finds
    # a' and b' coprime in Z[q], content included
    sympy = pytest.importorskip("sympy")
    from catdet.qseries import _coprime_parts

    x = sympy.Symbol("x")
    rng = random.Random("coprime-content")
    for fa, fb in _planted_pairs("coprime-parts", 80):
        share = rng.choice((1, 2, 6, 10**12))
        a = [share * rng.choice((1, 3, -5)) * v for v in fa]
        b = [share * rng.choice((1, 2, -7)) * v for v in fb]
        ra, rb = _coprime_parts(a, b)
        assert _schoolbook(ra, b) == _schoolbook(rb, a), (a, b)
        assert sympy.gcd(_sympy_poly(sympy, x, ra), _sympy_poly(sympy, x, rb)) == 1, (a, b)


# 1 + q and a cofactor b with b(-1) = 257 = 2**8 + 1: at xi = 2**8 = -1 mod 257,
# gcd(a(xi), b(xi)) holds a spurious 257 whose digits read as 1 + q
_SPURIOUS_A = [1, 1]
_SPURIOUS_B = [9, -31, 31, -31, 31, -31, 31, -31, 31]


def test_gcdheu_widens_when_its_first_point_proves_nothing():
    from catdet.qseries import _gcdheu, _gcdheu_at, _kron_width

    f = [1, 0, -1, 1]
    a, b = _schoolbook(_SPURIOUS_A, f), _schoolbook(_SPURIOUS_B, f)
    width = _kron_width(2 * max(map(abs, a + b)) + 2)
    assert width == 8
    assert _gcdheu_at(a, b, width) is None
    assert _gcdheu_at(a, b, 2 * width) == (_SPURIOUS_A, _SPURIOUS_B)
    assert _gcdheu(a, b) == (_SPURIOUS_A, _SPURIOUS_B)
    r = QRat(QPoly(enumerate(a)), QPoly(enumerate(b)))
    assert (r.num._vals, r.den._vals) == (tuple(_SPURIOUS_A), tuple(_SPURIOUS_B))


def _proof_bits(a, b) -> int:
    """The bit length of 2 N**(da+db+1), N = 2**(da+db) |a|_2 |b|_2: every width from it on proves."""
    da, db = len(a) - 1, len(b) - 1
    norm = math.isqrt(sum(v * v for v in a) * sum(v * v for v in b) << 2 * (da + db)) + 1
    return (2 * norm ** (da + db + 1)).bit_length()


def test_qrat_reduces_through_gcdheu_at_doubled_widths(monkeypatch):
    # with the first four GCDHEU points refused, each reduction doubles its
    # width and reads the same value at 16w, or raises ArithmeticError when
    # 8w already passed the proven cap
    rng = random.Random("prs-fallback")
    pairs = []
    for fa, fb in _planted_pairs("prs-fallback", 40):
        shift = rng.randint(-3, 3)
        pairs.append((QPoly(enumerate(fa)).shift(shift), QPoly(enumerate(fb))))
    expected = [QRat(a, b) for a, b in pairs]
    widths = []
    gcdheu_at = qseries._gcdheu_at

    def refuse_four(a, b, width):
        widths.append((width, a, b))
        return None if len(widths) <= 4 else gcdheu_at(a, b, width)

    monkeypatch.setattr(qseries, "_gcdheu_at", refuse_four)
    read = raised = 0
    for (a, b), e in zip(pairs, expected):
        del widths[:]
        try:
            r = QRat(a, b)
        except ArithmeticError:
            w, pa, pb = widths[-1]
            assert len(widths) == 4 and w >= _proof_bits(pa, pb), (a, b)
            raised += 1
            continue
        assert (r.num, r.den) == (e.num, e.den), (a, b)
        if b.deg > b.low:
            assert [w for w, _, _ in widths] == [widths[0][0] << i for i in range(5)], (a, b)
            read += 1
    assert read > 30 and raised == 1


def test_gcdheu_raises_past_its_cap_when_no_width_proves(monkeypatch):
    # a _gcdheu_at that proves nothing at any width fails loudly, once the
    # width has passed the bound from which every width proves the gcd
    widths = []
    monkeypatch.setattr(qseries, "_gcdheu_at", lambda a, b, width: widths.append(width))
    for fa, fb in _planted_pairs("gcdheu-cap", 30):
        a = [v // math.gcd(*fa) for v in fa]
        b = [v // math.gcd(*fb) for v in fb]
        if len(a) + len(b) < 3:
            continue
        del widths[:]
        with pytest.raises(ArithmeticError):
            qseries._gcdheu(a, b)
        bits = _proof_bits(a, b)
        assert widths == [widths[0] << i for i in range(len(widths))], (a, b)
        assert bits <= widths[-1] < 4 * bits and len(widths) < 12, (a, b)


def test_packed_exact_div_equals_long_division():
    # seeded exact quotients of at least _KRON_MIN_TERMS terms by divisors of
    # at least as many: the packed quotient, long division and the QPoly agree
    from catdet.qseries import _KRON_MIN_TERMS, _div_kronecker, _long_div

    rng = random.Random("packed-division")
    for _ in range(60):
        bits = rng.choice((1, 7, 33, 100))
        q = _dense(rng, rng.randint(_KRON_MIN_TERMS, 40), bits)
        b = _dense(rng, rng.randint(_KRON_MIN_TERMS, 30), rng.choice((1, bits)))
        a = _schoolbook(q, b)
        assert _div_kronecker(a, b) == q == _long_div(a, b), (q, b)
        low = rng.randint(-4, 4)
        pa = QPoly(enumerate(a)).shift(low)
        assert pa.exact_div(QPoly(enumerate(b)).shift(2)) == QPoly(enumerate(q)).shift(low - 2)


def test_packed_exact_div_refuses_what_it_cannot_prove():
    from catdet.qseries import _div_kronecker

    # (q;q)_12 / (1 - q)^12 = [12]_q!: exact, but its coefficients exceed the
    # packed width's bound, so the packed quotient is refused and long
    # division returns the q-factorial
    a = (ONE - Q)._vals
    for e in range(2, 13):
        a = _schoolbook(a, [1] + [0] * (e - 1) + [-1])
    b = [binomial(12, i) * (-1) ** i for i in range(13)]
    factorial = ONE
    for e in range(1, 13):
        factorial = factorial * q_int(e)
    assert _div_kronecker(a, b) is None
    assert QPoly(enumerate(a)).exact_div(QPoly(enumerate(b))) == factorial
    # a remainder, in the lowest or the top coefficient, raises
    rng = random.Random("packed-remainder")
    for _ in range(20):
        q, b = _dense(rng, 12, 20), _dense(rng, 9, 20)
        a = _schoolbook(q, b)
        a[rng.choice((0, len(a) - 1, 5))] += rng.choice((1, -1, 1 << 30))
        assert _div_kronecker(a, b) is None
        with pytest.raises(ExactDivisionError):
            QPoly(enumerate(a)).exact_div(QPoly(enumerate(b)))


def test_equal_values_hash_equal():
    # ints, constant and non-constant QPoly and polynomial QRat values that
    # compare equal are one set element
    groups = [
        [3, QPoly.const(3), QRat(3), QRat(QPoly.const(3)), QRat(6, 2)],
        [0, ZERO, QRat(0), QRat(ZERO, Q + 1)],
        [-1, -ONE, QRat(-1), QRat(Q - 1, ONE - Q)],
        [Q, QRat(Q), QRat(Q * Q + Q, Q + 1)],
        [P((-2, 1), (3, -4)), QRat(P((-2, 1), (3, -4)))],
    ]
    for group in groups:
        for x in group:
            for y in group:
                assert x == y and hash(x) == hash(y), (x, y)
        assert len(set(group)) == 1, group
    assert len({x for group in groups for x in group}) == len(groups)
    assert QRat(1, Q + 1) != QRat(Q + 1) and len({QRat(1, Q + 1), QRat(Q + 1)}) == 2


def test_degree_undefined_on_zero():
    with pytest.raises(ValueError):
        ZERO.deg
    with pytest.raises(ValueError):
        ZERO.low
    p = P((1, 3), (-2, 1))
    assert p.deg == 1 and p.low == -2


def test_str_forms():
    assert str(P((0, 1), (1, -1), (2, 2))) == "1 - q + 2*q^2"
    assert str(P((-3, -1), (1, 1))) == "-q^-3 + q"
    assert str(ZERO) == "0"


def test_str_equals_the_term_by_term_renderer():
    # exponents 0, 1 and negative, coefficients +-1 and above 2**64, zeros inside
    rng = random.Random("render")
    coefficients = [1, -1, 2, -7, 2**64 + 1, -(2**64) - 3, 10**30, -(10**40)]
    seen = set()
    for _ in range(400):
        terms = [(rng.randint(-4, 4), rng.choice(coefficients))
                 for _ in range(rng.randint(0, 6))]
        p = P(*terms)
        assert str(p) == render_qpoly(p), p.items()
        seen.update((e if -1 <= e <= 1 else "other", abs(v) == 1) for e, v in p.items())
    assert seen == {(e, unit) for e in (-1, 0, 1, "other") for unit in (True, False)}
    assert str(P((0, -1))) == render_qpoly(P((0, -1))) == "-1"
    assert str(P((1, -(2**64)))) == "-18446744073709551616*q"


def test_str_memo_is_shared_by_equal_values_and_keyed_on_the_low_exponent(monkeypatch):
    monkeypatch.setattr(qseries, "_QPOLY_TEXT", {})
    # a shifted cached q-binomial and the same value built term by term
    shifted = q_binomial(6, 3).shift(-4)
    separate = P(*((e - 4, v) for e, v in q_binomial(6, 3).items()))
    assert shifted is not separate and shifted == separate
    assert str(shifted) == render_qpoly(separate)
    assert str(separate) == str(shifted)
    assert list(qseries._QPOLY_TEXT) == [(-4, separate._vals)]
    # q p and p share the coefficient tuple but not the text
    p = q_binomial(5, 2)
    assert str(Q * p) == render_qpoly(Q * p) != str(p) == render_qpoly(p)
    assert (1, p._vals) in qseries._QPOLY_TEXT and (0, p._vals) in qseries._QPOLY_TEXT


# -- the (low, coefficient tuple) normal form, against plain exponent dicts --

def _d_add(a, b, sign=1):
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + sign * v
    return {e: v for e, v in out.items() if v}


def _d_mul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def _d_det(rows):
    """Cofactor expansion along the first row, over exponent dicts."""
    if not rows:
        return {0: 1}
    out = {}
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        out = _d_add(out, _d_mul(entry, _d_det(minor)), -1 if j % 2 else 1)
    return out


def _assert_normal(p, ref):
    """p is in normal form and equals the exponent dict ``ref``."""
    assert type(p._vals) is tuple
    if p._vals:
        assert p._vals[0] and p._vals[-1], (p._low, p._vals)
    else:
        assert p._low == 0
    assert dict(p.items()) == {e: v for e, v in ref.items() if v}


def test_every_construction_keeps_the_normal_form():
    # no zero at either end of the tuple, and zero is (0, ()), on every path
    # that builds a QPoly: seeded Laurent inputs against exponent-dict arithmetic
    from catdet.linalg import QPOLY, Matrix, _det_kronecker

    rng = random.Random("normal-form")

    def rand(terms, lo=-9, hi=12, mag=50):
        return {e: v for e, v in ((rng.randint(lo, hi), rng.randint(-mag, mag))
                                  for _ in range(terms)) if v}

    c = qseries._KRON_MIN_TERMS
    for _ in range(150):
        a = rand(rng.randint(0, 6))
        b = rand(rng.choice((rng.randint(0, c - 1), rng.randint(c, 3 * c))), mag=10**9)
        pa, pb = QPoly(a), QPoly(b)
        _assert_normal(pa, a)
        _assert_normal(pb, b)
        # + and - where both end terms cancel, and down to zero
        if a:
            ends = {min(a): -a[min(a)], max(a): -a[max(a)]}
            mid = rand(3, min(a) + 1, max(a) - 1) if max(a) - min(a) > 1 else {}
            cancel = _d_add(ends, mid)
            _assert_normal(pa + QPoly(cancel), _d_add(a, cancel))
            _assert_normal(QPoly(cancel) + pa, _d_add(a, cancel))
            _assert_normal(pa - QPoly(_d_add({}, cancel, -1)), _d_add(a, cancel))
        _assert_normal(pa - pa, {})
        _assert_normal(pa + pb, _d_add(a, b))
        _assert_normal(pa - pb, _d_add(a, b, -1))
        _assert_normal(3 - pa, _d_add({0: 3}, a, -1))
        # * on the schoolbook and the packed branch (pb has 0 to 3c terms)
        _assert_normal(pa * pb, _d_mul(a, b))
        _assert_normal(pb * pb, _d_mul(b, b))
        _assert_normal(-pb, {e: -v for e, v in b.items()})
        s = rng.randint(-20, 20)
        _assert_normal(pb.shift(s), {e + s: v for e, v in b.items()})
        _assert_normal(pb.subs_inv_q(), {-e: v for e, v in b.items()})
        if b:
            _assert_normal((pa * pb).exact_div(pb), a)
    # _expand with g > 1 spreads the g = 1 coefficients onto multiples of g
    for _ in range(40):
        powers = {d: rng.randint(1, 3) for d in rng.sample(range(1, 20), rng.randint(0, 3))}
        g = rng.randint(2, 5)
        _assert_normal(_expand(powers, g), {g * e: v for e, v in _expand(powers, 1).items()})
    # _det_kronecker on rows in q^g, each shifted by its own Laurent monomial
    for _ in range(40):
        n, g = rng.randint(1, 4), rng.randint(2, 4)
        rows = [[{g * e + s: v for e, v in rand(rng.randint(0, 3), 0, 4, 9).items()}
                 for _ in range(n)] for s in (rng.randint(-5, 5) for _ in range(n))]
        m = Matrix.from_rows([[QPoly(d) for d in row] for row in rows], QPOLY)
        _assert_normal(_det_kronecker(m), _d_det(rows))
    # QRat divides out the integer content of its numerator and denominator
    for _ in range(60):
        num = {e: 6 * v for e, v in rand(rng.randint(1, 5)).items()} or {0: 6}
        den = {e: 4 * v for e, v in rand(rng.randint(1, 4), 0, 6).items()} or {0: -4}
        r = QRat(QPoly(num), QPoly(den))
        _assert_normal(r.num, dict(r.num.items()))
        _assert_normal(r.den, dict(r.den.items()))
        assert r.den.low == 0 and r.den.lead_coeff > 0
        assert _d_mul(dict(r.num.items()), den) == _d_mul(num, dict(r.den.items()))
