"""Tests for exact sparse polynomial arithmetic in t1..t9."""

import ast
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import preproj
from engine_helpers import assert_clean_poly as assert_clean, reduce_text, verify_all
from preproj import polyring
from preproj.e6 import lemma_coefficients
from preproj.freealg import FreeElement
from preproj.polyring import _ZERO_EXP, NVARS, Poly, _times, power
from preproj.quiver import builtin_quiver

T = [None] + [Poly.var(i) for i in range(1, 10)]


def test_additive_inverse():
    assert T[1] + (-T[1]) == Poly.zero()
    assert (T[1] + (-T[1])).is_zero()


def test_add_identity():
    p = T[1] + T[2] - 2 * T[3]
    assert p + Poly.zero() == p
    assert Poly.zero() + p == p


def test_second_lemma_coefficient_assembles_term_by_term():
    # 3*t4 - 2*t5 + t6 + t1^2 - t1*t2 + t2^2 - t3^2, built in pieces
    p = 3 * T[4]
    p = p - 2 * T[5]
    p = p + T[6]
    p = p + T[1] ** 2
    p = p - T[1] * T[2]
    p = p + T[2] ** 2
    p = p - T[3] ** 2
    expected_terms = {
        (0, 0, 0, 1, 0, 0, 0, 0, 0): Fraction(3),
        (0, 0, 0, 0, 1, 0, 0, 0, 0): Fraction(-2),
        (0, 0, 0, 0, 0, 1, 0, 0, 0): Fraction(1),
        (2, 0, 0, 0, 0, 0, 0, 0, 0): Fraction(1),
        (1, 1, 0, 0, 0, 0, 0, 0, 0): Fraction(-1),
        (0, 2, 0, 0, 0, 0, 0, 0, 0): Fraction(1),
        (0, 0, 2, 0, 0, 0, 0, 0, 0): Fraction(-1),
    }
    assert p.terms == expected_terms


def test_square_expansion():
    assert (T[3] - T[1]) * (T[3] - T[1]) == T[3] ** 2 - 2 * T[1] * T[3] + T[1] ** 2


def test_scaled_square_expansion():
    assert 3 * (T[3] - T[1]) ** 2 == 3 * T[3] ** 2 - 6 * T[1] * T[3] + 3 * T[1] ** 2


def test_multiply_by_zero():
    p = T[1] * T[2] + 7 * T[9]
    assert p * Poly.zero() == Poly.zero()


def test_substitute_first_constraint():
    theta = T[1:]
    theta[1] = 2 * T[3] - T[1]
    c1, _ = lemma_coefficients(theta)
    assert c1.is_zero()


def test_substitute_both_constraints_kills_second_coefficient():
    theta = T[1:]
    theta[1] = 2 * T[3] - T[1]
    theta[5] = 2 * T[5] - 3 * T[4] - 3 * (T[3] - T[1]) ** 2
    _, c2 = lemma_coefficients(theta)
    assert c2.is_zero()


def test_evaluate_examples():
    p = T[1] + T[2] - 2 * T[3]
    assert p.evaluate({1: 1, 2: 3, 3: 2}) == 0
    assert Poly.zero().evaluate({}) == 0
    assert (T[1] * T[3]).evaluate({1: Fraction(2, 3), 3: Fraction(3, 2)}) == 1


def test_evaluate_missing_binding_names_the_indeterminate():
    with pytest.raises(KeyError, match="t6"):
        (T[6] + T[1]).evaluate({1: 1})


def test_rational_embedding():
    p = Poly.const(Fraction(-7, 3))
    assert p.is_rational()
    assert p.as_rational() == Fraction(-7, 3)
    with pytest.raises(ValueError):
        T[1].as_rational()


def test_canonical_no_zero_terms():
    p = T[1] - T[1] + T[2]
    assert all(c != 0 for c in p.terms.values())
    assert len(p.terms) == 1


small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=7)


@st.composite
def polys(draw, max_terms=4, max_exp=3):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        exp = tuple(
            draw(st.integers(min_value=0, max_value=max_exp)) if i < 4 else 0
            for i in range(NVARS)
        )
        terms[exp] = terms.get(exp, Fraction(0)) + draw(small_fractions)
    return Poly(terms)


@st.composite
def assignments(draw):
    return {i: draw(small_fractions) for i in range(1, NVARS + 1)}


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), polys(), assignments())
def test_evaluation_is_ring_homomorphism(a, b, c, sigma):
    assert (a * b + c).evaluate(sigma) == a.evaluate(sigma) * b.evaluate(sigma) + c.evaluate(sigma)


@settings(max_examples=200, deadline=None)
@given(polys(), polys())
def test_canonical_form_is_construction_order_independent(a, b):
    left = a + b
    right = b + a
    assert left.terms == right.terms
    assert hash(left) == hash(right)


# -- evaluation: the integer core against the slow path -------------------------


def term_by_term_value(poly, assignment):
    """Slow path of ``Poly.evaluate``: every term in ``Fraction`` arithmetic,
    each power formed anew."""
    total = Fraction(0)
    for exp, coeff in poly.terms.items():
        term = coeff
        for i, e in enumerate(exp):
            if e:
                term *= Fraction(assignment[i + 1]) ** e
        total += term
    return total


@st.composite
def sparse_polys(draw, coefficients=small_fractions):
    """Polynomials in all nine indeterminates, up to degree 4 in each."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        exp = tuple(draw(st.integers(min_value=0, max_value=4)) for _ in range(NVARS))
        terms[exp] = terms.get(exp, Fraction(0)) + draw(coefficients)
    return Poly(terms)


# zero, negative, integral and non-integral values
point_values = st.one_of(st.just(0), st.integers(min_value=-12, max_value=12), small_fractions)


@settings(max_examples=300, deadline=None)
@given(sparse_polys(), st.lists(point_values, min_size=NVARS, max_size=NVARS))
def test_evaluate_matches_the_term_by_term_fraction_value(poly, values):
    sigma = dict(enumerate(values, 1))
    value = poly.evaluate(sigma)
    assert type(value) is Fraction
    assert value == term_by_term_value(poly, sigma)


# coefficient denominators up to 12, so that 2, 3 and 11 each divide some
@settings(max_examples=300, deadline=None)
@given(
    sparse_polys(st.fractions(min_value=-10, max_value=10, max_denominator=12)),
    st.sampled_from([2, 3, 11]),
    st.lists(st.integers(min_value=-30, max_value=30), min_size=NVARS, max_size=NVARS),
)
def test_evaluate_mod_is_evaluate_reduced_mod_p(poly, p, values):
    sigma = dict(enumerate(values, 1))
    if any(c.denominator % p == 0 for c in poly.terms.values()):
        with pytest.raises(ZeroDivisionError, match=f"divisible by {p}"):
            poly.evaluate_mod(sigma, p)
        return
    value = poly.evaluate(sigma)
    residue = poly.evaluate_mod(sigma, p)
    assert type(residue) is int and 0 <= residue < p
    assert residue == value.numerator * pow(value.denominator, -1, p) % p


# a monomial no ``sparse_polys`` term has (t1^5), so a coefficient there stays
_T1_FIFTH = (5,) + (0,) * (NVARS - 1)


@settings(max_examples=150, deadline=None)
@given(
    sparse_polys(st.fractions(min_value=-10, max_value=10, max_denominator=12)),
    st.lists(st.lists(point_values, min_size=NVARS, max_size=NVARS), min_size=2, max_size=4),
    st.lists(st.integers(min_value=-30, max_value=30), min_size=NVARS, max_size=NVARS),
    st.lists(st.sampled_from([2, 5, 7, 11, 2**31 - 1]), min_size=1, max_size=4),
)
def test_one_poly_evaluates_at_many_points_and_fields(poly, points, values, primes):
    """The evaluation plan is built once per ``Poly`` and read by every later
    call: each call must still read its own point and its own p.  GF(3)
    cannot invert the coefficient 1/3 of t1^5, so it raises both before
    and after evaluations that succeed."""
    poly = poly + Poly({_T1_FIFTH: Fraction(1, 3)})
    for point in points:
        sigma = dict(enumerate(point, 1))
        assert poly.evaluate(sigma) == term_by_term_value(poly, sigma)
    sigma = dict(enumerate(values, 1))
    value = term_by_term_value(poly, sigma)
    for p in [3, *primes, 3, *primes]:
        if any(c.denominator % p == 0 for c in poly.terms.values()):
            with pytest.raises(ZeroDivisionError, match=f"denominator divisible by {p}$"):
                poly.evaluate_mod(sigma, p)
        else:
            assert poly.evaluate_mod(sigma, p) == value.numerator * pow(value.denominator, -1, p) % p
    assert poly.evaluate(sigma) == value


def test_evaluate_mod_rejects_a_coefficient_the_field_cannot_invert():
    poly = T[1] + Fraction(1, 11) * T[2]
    with pytest.raises(ZeroDivisionError, match="1/11 has denominator divisible by 11"):
        poly.evaluate_mod({1: 1, 2: 1}, 11)
    assert poly.evaluate_mod({1: 1, 2: 1}, 7) == (1 + pow(11, -1, 7)) % 7


def test_evaluate_rejects_a_value_that_is_not_rational():
    with pytest.raises(TypeError, match="float"):
        T[1].evaluate({1: 0.5})


# -- arithmetic results against their re-validated copies ------------------------


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), st.integers(min_value=-3, max_value=3))
def test_arithmetic_results_are_clean(a, b, n):
    # a - a, (a + b) * (a - b) and n * a with n = 0 cancel terms
    for result in (
        a + b, a - b, -a, a * b, a - a, (a + b) * (a - b),
        a + n, n + a, n - a, a * n, n * a, a ** 0, a ** 3, (a - b) ** 2,
    ):
        assert_clean(result)


def repeated_product(poly, k):
    """Slow path of ``Poly.__pow__``: k products from the constant 1."""
    result = Poly.const(1)
    for _ in range(k):
        result = result * poly
    return result


def test_power_takes_the_products_of_square_and_multiply():
    # integers mod 64, where 2 is nilpotent: 2^6 = 0
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b % 64

    # the base itself is the first factor; 3^5 = 3 * 3^4
    assert power(3, 5, mul, None) == 3 ** 5 % 64
    assert calls == [(3, 3), (9, 9), (3, 17)]
    calls.clear()
    # 2^14 = 2^2 * 2^4 * 2^8 stops at the zero product 2^2 * 2^4
    assert power(2, 14, mul, None) == 0
    assert calls == [(2, 2), (4, 4), (4, 16)]
    calls.clear()
    # and at the first zero square, 2^8, whatever the exponent
    assert power(2, 2 ** 40, mul, None) == 0
    assert calls == [(2, 2), (4, 4), (16, 16)]
    calls.clear()
    assert power(2, 0, mul, lambda: "one") == "one" and power(7, 1, mul, None) == 7
    assert calls == []
    for n in (-1, 1.0):
        with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
            power(2, n, mul, None)


@settings(max_examples=30, deadline=None)
@given(polys(max_terms=3, max_exp=2), st.integers(min_value=0, max_value=9))
def test_power_by_squaring_matches_repeated_products(poly, k):
    power = poly ** k
    assert power == repeated_product(poly, k)
    assert_clean(power)


# -- products against the term-by-term slow path ----------------------------------


def term_by_term_product(a, b):
    """Slow path of ``Poly.__mul__``: every pair of terms, exponents added
    slot by slot, coefficients summed from ``Fraction(0)``, zero sums
    dropped at the end."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, Fraction(0)) + ca * cb
    return {exp: c for exp, c in out.items() if c}


# constants (zero among them), sparse polynomials in t1..t4 and in all nine
operands = st.one_of(st.builds(Poly.const, small_fractions), polys(), sparse_polys())


@settings(max_examples=200, deadline=None)
@given(operands, operands)
def test_product_matches_the_term_by_term_product(a, b):
    product = a * b
    assert product.terms == term_by_term_product(a, b)
    assert_clean(product)


# -- sums and products that cancel: against the zero-seeded loops ----------------


def zero_seeded_sum(a, b):
    """Slow path of ``Poly.__add__``: the terms of b added one by one to a
    copy of a's, each from ``Fraction(0)`` when a lacks its monomial, and
    every zero sum dropped."""
    out = dict(a.terms)
    for exp, coeff in b.terms.items():
        acc = out.get(exp, Fraction(0)) + coeff
        if acc:
            out[exp] = acc
        else:
            out.pop(exp, None)
    return out


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), polys())
def test_sums_and_products_that_cancel_match_the_zero_seeded_loops(a, b, c):
    # a + (b - a) and (a + b) + (-a) cancel every term of a; the cross
    # terms of (a + c) * (a - c) and the products with b - b cancel
    for x, y in ((a, b - a), (a + b, -a), (a, -a), (a - c, c - b), (a, b)):
        assert_clean(y)
        assert (x + y).terms == zero_seeded_sum(x, y)
        assert_clean(x + y)
    for x, y in ((a + c, a - c), (a - b, a + b), (a + b, c - b), (a, b - b)):
        assert (x * y).terms == term_by_term_product(x, y)
        assert_clean(x * y)
    assert (a + (b - a)).terms == b.terms
    assert not a + (-a)


nonzero_fractions = st.fractions(max_denominator=10**12).filter(bool)


# integers (some past 2^64, some negative), +-1 as Fraction, +-1/d, and
# general fractions, all nonzero
rule_coefficients = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80).filter(bool).map(Fraction),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2**64 + 1), Fraction(-(3**50))]),
    st.builds(lambda d, s: Fraction(s, d), st.integers(2, 10**20), st.sampled_from([1, -1])),
    nonzero_fractions,
)


def assert_same_fraction(got, want):
    assert type(got) is Fraction
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@settings(max_examples=400, deadline=None)
@given(rule_coefficients, rule_coefficients)
def test_product_of_two_constants_is_one_fraction_product(a, b):
    # the one coefficient-product rule gives Fraction's own product
    assert_same_fraction(_times(a, b), a * b)
    for product in (Poly.const(a) * Poly.const(b), Poly.const(a) * b, b * Poly.const(a)):
        ((exp, coeff),) = product.terms.items()
        assert type(exp) is tuple and exp == _ZERO_EXP
        assert_same_fraction(coeff, a * b)
    # +1 forms no product: the other Poly itself; the left operand is read
    # first, so a unit y times 1 is 1 or its negation
    one, y = Poly.const(1), Poly.const(b)
    assert one * y is y
    assert y * one is y or b in (1, -1)


def test_power_rejects_a_negative_or_non_integer_exponent():
    for n in (-1, 2.0):
        with pytest.raises(ValueError, match="non-negative integer"):
            T[1] ** n


# -- a constant operand scales: against the slow path ------------------------------

# 0, the units +-1 as int and as Fraction, 2 and 1/2, integers past a
# machine word, and fractions
scalars = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(1), Fraction(-1), 2, Fraction(1, 2), 2**70, -(3**50)]),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.fractions(max_denominator=10**12),
)


@settings(max_examples=300, deadline=None)
@given(sparse_polys(), sparse_polys(), scalars)
def test_product_with_a_constant_scales_every_coefficient(p, q, k):
    expected = term_by_term_product(p, Poly.const(k))
    for product in (p * k, k * p, p * Poly.const(k), Poly.const(k) * p):
        assert product.terms == expected
        assert_clean(product)
    if k == 1:  # the unit rule shares the operand
        assert p * k is p and k * p is p
    # FreeElement.scale hands a bare scalar to Poly.__mul__, term by term
    quiver = builtin_quiver("L2")
    element = FreeElement(quiver, {quiver.path("x"): p, quiver.path("x", "y"): q})
    want = {
        path: terms
        for path, c in element.terms.items()
        if (terms := term_by_term_product(c, Poly.const(k)))
    }
    scaled = element.scale(k)
    assert {path: c.terms for path, c in scaled.terms.items()} == want
    for c in scaled.terms.values():
        assert_clean(c)


class _NotIterated(dict):
    """Terms whose ``items`` must not be called."""

    def items(self):
        raise AssertionError("the terms of a constant were iterated")


@settings(max_examples=100, deadline=None)
@given(nonzero_fractions, nonzero_fractions)
def test_product_of_two_constants_never_iterates_their_terms(a, b):
    # the one-term branch comes before scaling: the reduce tail's powers
    # multiply constants, and neither operand's terms is walked
    x = Poly._unchecked(_NotIterated({_ZERO_EXP: a}))
    y = Poly._unchecked(_NotIterated({_ZERO_EXP: b}))
    assert (x * y).terms == {_ZERO_EXP: a * b}


def test_a_tail_query_forms_no_fraction_product_and_tests_no_unit_by_equality(monkeypatch):
    """The pe6 tail query of the ``reduce`` stream, whose coefficients are
    all integers: no ``Fraction`` product is formed, and ``Poly.__mul__``
    calls no ``Fraction.__eq__``, since units are read from the numerator
    and denominator."""
    query = "(2*b0*a0 - 3*b2*a2 + a3*b3)^8"
    assert reduce_text("pe6", query) == "0"  # warm: pe6 is built
    counts = count_fraction_products(monkeypatch)
    rule = {"integral pairs": 0}
    times = polyring._times

    def counting_times(a, b):
        # read as ints: a Fraction comparison here would count as one in
        # Poly.__mul__
        (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
        rule["integral pairs"] += da == 1 == db and na not in (1, -1) and nb not in (1, -1)
        return times(a, b)

    inside = [0]
    eq_inside = [0]
    poly_mul, fraction_eq = Poly.__mul__, Fraction.__eq__

    def mul(a, b):
        inside[0] += 1
        try:
            return poly_mul(a, b)
        finally:
            inside[0] -= 1

    def eq(a, b):
        eq_inside[0] += inside[0] > 0
        return fraction_eq(a, b)

    monkeypatch.setattr(polyring, "_times", counting_times)
    monkeypatch.setattr(Poly, "__mul__", mul)
    monkeypatch.setattr(Poly, "__rmul__", mul)
    monkeypatch.setattr(Fraction, "__eq__", eq)
    assert reduce_text("pe6", query) == "0"
    assert counts["products"] == 0
    assert eq_inside[0] == 0
    # not vacuous: the rule multiplies integers other than +-1 here
    assert rule["integral pairs"] > 1000, rule


# -- hashing agrees with equality across Poly, int and Fraction --------------------


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(min_value=-(10**30), max_value=10**30), small_fractions), polys())
def test_equal_values_hash_equal(q, p):
    forms = [Fraction(q), Poly.const(q), Poly({_ZERO_EXP: q}), p - p + q, q + p - p]
    if Fraction(q).denominator == 1:
        forms.append(int(q))
    for x in forms:
        for y in forms:
            assert x == y
            assert hash(x) == hash(y)
    assert p * 1 == p and hash(p * 1) == hash(p)
    assert len({Poly.const(q), q, Fraction(q)}) == 1


def test_a_constant_and_its_rational_are_one_set_element():
    assert len({Poly.const(3), 3}) == 1
    assert len({Poly.zero(), 0, Fraction(0)}) == 1
    assert {Poly.const(Fraction(1, 2)): "half"}[Fraction(1, 2)] == "half"


# -- no coefficient product has a unit operand --------------------------------------

# +1 and -1 as int and as Fraction, often, between other ints and fractions
unit_rich = st.one_of(
    st.sampled_from([1, -1, Fraction(1), Fraction(-1)]),
    st.integers(min_value=-3, max_value=3),
    small_fractions,
)


@st.composite
def unit_rich_polys(draw):
    """Polynomials in t1 and t2 of degree at most 2 in each, so that
    products of two of them land several terms on one monomial."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        exp = (draw(st.integers(0, 2)), draw(st.integers(0, 2))) + (0,) * (NVARS - 2)
        terms[exp] = terms.get(exp, Fraction(0)) + draw(unit_rich)
    return Poly(terms)


unit_rich_operands = st.one_of(st.builds(Poly.const, unit_rich), unit_rich_polys())


@settings(max_examples=300, deadline=None)
@given(unit_rich_operands, unit_rich_operands, unit_rich)
def test_products_with_unit_coefficients_match_the_loop_that_forms_every_product(a, b, k):
    # every branch: two constants, a constant Poly or a bare scalar, the loop
    for x, y in ((a, b), (b, a), (a, Poly.const(k)), (Poly.const(k), a), (a + b, a - b)):
        assert (x * y).terms == term_by_term_product(x, y)
        assert_clean(x * y)
    for product in (a * k, k * a):
        assert product.terms == term_by_term_product(a, Poly.const(k))
        assert_clean(product)


def mul_branch(a, b):
    """The branch of ``Poly.__mul__`` that ``a * b`` takes, told from the
    operands alone: two constant ``Poly``s, one constant operand (a
    constant ``Poly`` or a bare scalar), or the loop over both."""
    def constant(x):
        return not isinstance(x, Poly) or (len(x.terms) == 1 and _ZERO_EXP in x.terms)

    if isinstance(b, Poly) and constant(a) and constant(b):
        return "two constants"
    return "scaling" if constant(a) or constant(b) else "loop"


def has_unit_coefficient(*operands):
    return any(
        c in (1, -1) for x in operands for c in (x.terms.values() if isinstance(x, Poly) else [x])
    )


def count_fraction_products(monkeypatch) -> dict:
    """Count every ``Fraction`` product from here on, whatever forms it,
    and those with a +1 or -1 operand, in the dict returned.  A call that
    returns ``NotImplemented``, such as ``Fraction(-1) * poly`` before
    ``Poly.__rmul__`` takes over, forms no product and is not counted."""
    counts = {"products": 0, "unit products": 0}

    def counting(fraction_op):
        def op(a, b):
            result = fraction_op(a, b)
            if result is not NotImplemented:
                counts["products"] += 1
                counts["unit products"] += a in (1, -1) or b in (1, -1)
            return result

        return op

    monkeypatch.setattr(Fraction, "__mul__", counting(Fraction.__mul__))
    monkeypatch.setattr(Fraction, "__rmul__", counting(Fraction.__rmul__))
    return counts


def test_warm_verify_all_forms_no_product_with_a_unit_scalar(monkeypatch):
    """Every ``Fraction`` product of a warm ``verify all`` is counted,
    whatever calls it: there is none, because every coefficient product
    left after the unit rule has two integral operands, which
    ``_times`` multiplies as integers.  The pairs ``_times`` multiplies
    with no unit operand are counted instead.  Without the unit rule
    of ``Poly.__mul__`` and ``_times`` it forms 3,533 products, 3,439 of
    them with a unit operand: 125 of two constants, 1,992 in scalings and
    1,322 in the loop (3,590 and 3,496 while a negated factor was a new
    element, 4,645 and 4,535 without the set-up's product table).  Each
    branch meets unit coefficients
    here; ``test_each_branch_forms_no_product_with_a_unit_coefficient``
    drives every branch with them directly."""
    assert verify_all() == 0  # warm: the algebras and caches are built
    unit_calls = {"two constants": 0, "scaling": 0, "loop": 0}
    rule = {"pairs": 0, "unit pairs": 0}
    poly_mul, times = Poly.__mul__, polyring._times

    def mul(a, b):
        unit_calls[mul_branch(a, b)] += has_unit_coefficient(a, b)
        return poly_mul(a, b)

    def counting_times(a, b):
        rule["pairs"] += 1
        rule["unit pairs"] += a in (1, -1) or b in (1, -1)
        return times(a, b)

    counts = count_fraction_products(monkeypatch)
    monkeypatch.setattr(Poly, "__mul__", mul)
    monkeypatch.setattr(Poly, "__rmul__", mul)
    monkeypatch.setattr(polyring, "_times", counting_times)
    assert verify_all() == 0
    assert counts["unit products"] == 0
    assert counts["products"] == 0
    non_unit_pairs = rule["pairs"] - rule["unit pairs"]
    assert non_unit_pairs <= 1000
    # not vacuous: every branch meets unit coefficients (125 of two
    # constants, 900 scalings and 475 in the loop), and the rule meets the
    # pairs that need a product (94, all in the loop and the scalings, all
    # integral; 110 before the set-up's product table formed each repeated
    # free product once)
    assert min(unit_calls.values()) > 0, unit_calls
    assert non_unit_pairs > 85, rule


# +1 and -1 as int and as Fraction
UNITS = (1, -1, Fraction(1), Fraction(-1))


def unit_battery(u):
    """Products that take each branch of ``Poly.__mul__`` with the unit
    ``u`` as an operand or a coefficient, each beside non-unit ones."""
    k = Fraction(2, 3)
    # p has no unit coefficient, q has only unit ones
    p = 3 * T[1] * T[2] - Fraction(1, 2) * T[1] + 5
    q = T[1] - T[2] + Poly.const(u)
    unit, scalar = Poly.const(u), Poly.const(k)
    return {
        "two constants": [(unit, scalar), (scalar, unit), (unit, unit)],
        "scaling": [(unit, p), (p, unit), (u, p), (p, u), (scalar, q), (q, scalar), (q, 7)],
        "loop": [(q, p), (p, q), (q, q), (q, q * p)],
    }


@pytest.mark.parametrize("u", UNITS, ids=repr)
def test_each_branch_forms_no_product_with_a_unit_coefficient(monkeypatch, u):
    for branch, pairs in unit_battery(u).items():
        for a, b in pairs:
            # the battery takes the branch it names, with a unit in it
            assert mul_branch(a, b) == branch and has_unit_coefficient(a, b)
            expected = term_by_term_product(*(x if isinstance(x, Poly) else Poly.const(x) for x in (a, b)))
            with monkeypatch.context() as patch:
                counts = count_fraction_products(patch)
                product = a * b
            assert counts["unit products"] == 0, (branch, a, b)
            assert product.terms == expected, (branch, a, b)
            assert_clean(product)


# -- no term dict is changed in place: the unit rule shares operands ---------------

_DICT_MUTATORS = {"pop", "popitem", "update", "setdefault", "clear"}


def in_place_term_changes(tree) -> list[int]:
    """Line numbers where ``tree`` changes a ``.terms`` dict in place.

    A change is a subscript assignment, augmented assignment or ``del`` on
    it, an augmented assignment to it, or a call of a mutating dict method
    on it; "it" is ``<expr>.terms`` or a name that the same function binds
    to one (``terms = self.terms``, ``a, b = x.terms, y``).
    """
    def is_terms(node, aliases):
        return (isinstance(node, ast.Attribute) and node.attr == "terms") or (
            isinstance(node, ast.Name) and node.id in aliases
        )

    lines = set()
    scopes = [tree] + [
        node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Lambda))
    ]
    for scope in scopes:
        aliases = set()
        # the module's walk reaches every function: it finds direct changes only
        for node in ast.walk(scope) if scope is not tree else ():
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    for name, value in pairs:
                        if isinstance(name, ast.Name) and is_terms(value, set()):
                            aliases.add(name.id)
        for node in ast.walk(scope):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete, ast.AnnAssign)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [
                    node.target
                ]
                for target in targets:
                    if isinstance(target, ast.Subscript) and is_terms(target.value, aliases):
                        lines.add(target.lineno)
                    elif isinstance(node, ast.AugAssign) and is_terms(target, aliases):
                        lines.add(target.lineno)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DICT_MUTATORS
                and is_terms(node.func.value, aliases)
            ):
                lines.add(node.lineno)
    return sorted(lines)


def test_no_module_changes_a_term_dict_in_place():
    """``Poly.__mul__`` returns an operand itself for a scalar of 1, and
    ``Poly`` and ``FreeElement`` results share coefficients with their
    operands; that is sound only while no code changes a ``terms`` dict
    after its object is made."""
    sources = sorted(pathlib.Path(preproj.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        assert in_place_term_changes(tree) == [], source.name
    # not vacuous: every form of change is found, through an alias too
    planted = ast.parse(
        "def f(p, q, e):\n"
        "    p.terms[e] = 1\n"
        "    del q.terms[e]\n"
        "    p.terms.pop(e)\n"
        "    p.terms.update({})\n"
        "    q.terms.setdefault(e, 0)\n"
        "    a = p.terms\n"
        "    a[e] += 1\n"
        "    b, c = q.terms, 0\n"
        "    b.clear()\n"
        "    a |= {}\n"
        "    out = dict(p.terms)\n"
        "    out[e] = 2\n"
        "    return p.terms.get(e), p.terms[e]\n"
    )
    assert in_place_term_changes(planted) == [2, 3, 4, 5, 6, 8, 10, 11]
