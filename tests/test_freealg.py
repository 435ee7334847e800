"""Tests for the free path algebra and generator substitution."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from preproj.e6 import (
    corner_embedding,
    get_algebra,
    substituted_generators,
)
from preproj.freealg import FreeElement, GeneratorMap, generators
from preproj.polyring import _ZERO_EXP, Poly
from preproj.quiver import builtin_quiver, compose

E6 = builtin_quiver("E6")
L2 = builtin_quiver("L2")
G = generators(E6)
GL = generators(L2)


def test_vertex2_relation_shape():
    lhs = G["b1"] * G["a1"] + G["a2"] * G["b2"]
    assert len(lhs.terms) == 2
    assert lhs.is_endpoint_homogeneous()
    assert lhs.endpoints() == (2, 2)


def test_additive_inverse_and_zero():
    a = G["a0"] * G["a1"]  # 0->3 then 1->2: non-composable, already zero
    assert a.is_zero()
    b = G["b0"] * G["a0"]
    assert (b + b.scale(-1)).is_zero()
    assert (FreeElement.zero(E6) + b) == b


def test_loop_at_zero():
    p = G["a0"] * G["b0"]
    ((path, coeff),) = p.terms.items()
    assert (path.source, path.target, len(path)) == (0, 0, 2)
    assert coeff == Poly.const(1)


def test_non_composable_product_is_zero():
    assert (G["a1"] * G["a0"]).is_zero()


def test_length_four_loop():
    p = (G["b0"] * G["a0"]) * (G["b2"] * G["a2"])
    ((path, _),) = p.terms.items()
    assert (path.source, path.target, len(path)) == (3, 3, 4)
    assert str(path) == "b0*a0*b2*a2"


def test_quiver_mismatch_raises():
    with pytest.raises(ValueError):
        G["a0"] + GL["x"]
    with pytest.raises(ValueError):
        G["a0"] * GL["x"]


def test_identity_element():
    one = FreeElement.one(E6)
    a = G["a3"] * G["b3"] + G["b0"] * G["a0"].scale(Fraction(3, 2))
    assert one * a == a
    assert a * one == a


def corner_map():
    return GeneratorMap(
        L2, E6, {"x": G["b0"] * G["a0"], "y": G["b2"] * G["a2"]}, vertex_map={0: 3}
    )


def test_substitute_xy():
    m = corner_map()
    image = m(GL["x"] * GL["y"])
    ((path, _),) = image.terms.items()
    assert str(path) == "b0*a0*b2*a2"


def test_substitute_identity_map():
    m = GeneratorMap(E6, E6, {a.name: G[a.name] for a in E6.arrows})
    e = G["a0"] * G["b0"] + G["b2"].scale(2)
    assert m(e) == e


def test_substitute_x_squared():
    m = corner_map()
    image = m(GL["x"] * GL["x"])
    ((path, _),) = image.terms.items()
    assert str(path) == "b0*a0*b0*a0"


def test_substitute_unbound_arrow_named():
    m = GeneratorMap(L2, E6, {"x": G["b0"] * G["a0"]}, vertex_map={0: 3})
    with pytest.raises(KeyError, match="'y'"):
        m(GL["y"])


def test_generator_map_rejects_wrong_endpoints():
    with pytest.raises(ValueError):
        GeneratorMap(L2, E6, {"x": G["a0"], "y": G["b2"] * G["a2"]}, vertex_map={0: 3})


def test_generator_map_rejects_inhomogeneous_image():
    with pytest.raises(ValueError):
        GeneratorMap(
            L2,
            E6,
            {"x": G["b0"] * G["a0"] + G["b3"], "y": G["b2"] * G["a2"]},
            vertex_map={0: 3},
        )


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def elements(draw, quiver=E6, max_paths=3, max_len=3):
    terms = {}
    n = draw(st.integers(min_value=0, max_value=max_paths))
    for _ in range(n):
        length = draw(st.integers(min_value=0, max_value=max_len))
        source = draw(st.sampled_from(quiver.vertices))
        target = draw(st.sampled_from(quiver.vertices))
        candidates = quiver.enumerate_paths(source, target, length)
        if not candidates:
            continue
        path = draw(st.sampled_from(candidates))
        terms[path] = terms.get(path, Fraction(0)) + draw(small_fractions)
    return FreeElement(quiver, {p: Poly.const(c) for p, c in terms.items()})


@settings(max_examples=200, deadline=None)
@given(elements(), elements(), elements())
def test_product_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=200, deadline=None)
@given(elements(L2, max_paths=2, max_len=3), elements(L2, max_paths=2, max_len=3))
def test_substitution_is_algebra_homomorphism(a, b):
    m = corner_map()
    assert m(a * b) == m(a) * m(b)
    assert m(a + b) == m(a) + m(b)


@settings(max_examples=200, deadline=None)
@given(elements())
def test_sum_of_idempotents_is_identity(a):
    one = FreeElement.one(E6)
    assert one * a == a
    assert a * one == a


# -- products modulo paths of length >= N -------------------------------------


def truncated(element, below):
    return FreeElement(
        element.quiver, {p: c for p, c in element.terms.items() if len(p) < below}
    )


QUOTIENTS = ["pe6", "re6"]


@pytest.mark.parametrize("name", QUOTIENTS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_truncated_product_matches_slow_path(name, data):
    algebra = get_algebra(name)
    n = algebra.nilpotency_degree
    a = data.draw(elements(algebra.quiver, max_len=n - 1))
    b = data.draw(elements(algebra.quiver, max_len=n - 1))
    product = a * b
    cut = a.mul(b, below=n)
    assert cut == truncated(product, n)
    assert algebra.normal_form(cut) == algebra.normal_form(product)


@pytest.mark.parametrize("name", QUOTIENTS)
@settings(max_examples=50, deadline=None)
@given(data=st.data(), k=st.integers(min_value=0, max_value=4))
def test_truncated_power_matches_slow_path(name, data, k):
    algebra = get_algebra(name)
    n = algebra.nilpotency_degree
    a = data.draw(elements(algebra.quiver, max_len=n // 2))
    power = a ** k
    cut = a.power(k, below=n)
    assert cut == truncated(power, n)
    assert algebra.normal_form(cut) == algebra.normal_form(power)


@pytest.mark.parametrize(
    "name,base", [("re6", GL["x"]), ("pe6", G["b0"] * G["a0"])], ids=["re6", "pe6"]
)
def test_truncated_power_stops_at_zero(monkeypatch, name, base):
    n = get_algebra(name).nilpotency_degree
    bound = math.ceil(math.log2(n)) + 2
    calls = []
    mul = FreeElement.mul

    def counting_mul(self, other, below=None):
        calls.append(below)
        assert len(calls) <= bound, "power kept multiplying a zero result"
        return mul(self, other, below)

    monkeypatch.setattr(FreeElement, "mul", counting_mul)
    assert base.power(10**9, below=n).is_zero()
    assert calls and calls == [n] * len(calls)


def repeated_mul(element, k, below=None):
    """Slow path of ``FreeElement.power``: k products from the identity."""
    result = FreeElement.one(element.quiver)
    for _ in range(k):
        result = result.mul(element, below)
    return result


@pytest.mark.parametrize("k", range(14))
@settings(max_examples=10, deadline=None)
@given(a=st.one_of(elements(L2, max_paths=2, max_len=2), elements(E6, max_paths=2, max_len=2)))
def test_power_by_squaring_matches_repeated_products(k, a):
    assert a.power(k) == repeated_mul(a, k)


@pytest.mark.parametrize("k", range(14))
@pytest.mark.parametrize("name", QUOTIENTS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_truncated_power_by_squaring_matches_repeated_products(name, k, data):
    algebra = get_algebra(name)
    n = algebra.nilpotency_degree
    # paths of length n and n + 1 too, which the base drops first
    a = data.draw(elements(algebra.quiver, max_len=n + 1))
    assert a.power(k, below=n) == repeated_mul(a, k, below=n)


def checked_repeated_mul(element, k):
    """Slow path of ``FreeElement.power`` on rational coefficients: k
    products from the identity, each pair of paths composed and their
    coefficients multiplied as ``Fraction``s, every partial product built
    through the checking constructors of ``Poly`` and ``FreeElement``."""
    base = {p: c.as_rational() for p, c in element.terms.items()}
    result = FreeElement.one(element.quiver)
    for _ in range(k):
        out = {}
        for pa, ca in result.terms.items():
            for pb, cb in base.items():
                pab = compose(pa, pb)
                if pab is not None:
                    out[pab] = out.get(pab, Fraction(0)) + ca.as_rational() * cb
        result = FreeElement(element.quiver, {p: Poly({_ZERO_EXP: c}) for p, c in out.items()})
    return result


@pytest.mark.parametrize("name", QUOTIENTS)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), k=st.integers(min_value=0, max_value=6))
def test_power_of_rational_coefficients_matches_checked_products(name, data, k):
    a = data.draw(elements(get_algebra(name).quiver, max_len=3))
    power = a.power(k)
    assert power.terms == checked_repeated_mul(a, k).terms
    assert_clean(power)


# the tail powers of the reduce benchmark: loops at vertex 3 of pe6, x and y on re6
@pytest.mark.parametrize("base,k", [
    (G["b0"] * G["a0"] * 2 - G["b2"] * G["a2"] + G["a3"] * G["b3"] * 3, 8),
    (G["a3"] * G["b3"] * Fraction(-3, 2) + G["b0"] * G["a0"] * Fraction(2, 3), 8),
    (GL["x"] * 2 - GL["y"] * 3, 12),
], ids=["pe6", "pe6-rational", "re6"])
def test_tail_power_matches_checked_products(base, k):
    power = base.power(k)
    assert power.terms == checked_repeated_mul(base, k).terms
    assert_clean(power)


def test_first_power_drops_long_paths_of_the_base():
    n = get_algebra("re6").nilpotency_degree
    x = GL["x"]
    long_path = x.power(n) + x.power(n + 3).scale(2)
    assert (x + long_path).power(1, below=n) == x
    assert long_path.power(1, below=n).is_zero()
    assert long_path.power(1) == long_path


@settings(max_examples=100, deadline=None)
@given(elements(L2, max_paths=3, max_len=7))
def test_truncated_corner_embedding_matches_slow_path(a):
    algebra = get_algebra("pe6")
    n = algebra.nilpotency_degree
    embed = corner_embedding()
    cut = embed(a, below=n)
    assert cut == truncated(embed(a), n)
    assert algebra.normal_form(cut) == algebra.normal_form(embed(a))


NUMERIC_CHANGE = substituted_generators((1, -1, 0, 2, 1, -7, 3, -2, 5))


@settings(max_examples=100, deadline=None)
@given(elements(E6, max_paths=3, max_len=6))
def test_truncated_change_of_generators_matches_slow_path(a):
    algebra = get_algebra("pe6")
    n = algebra.nilpotency_degree
    cut = NUMERIC_CHANGE(a, below=n)
    full = NUMERIC_CHANGE(a)
    assert cut == truncated(full, n)
    assert algebra.normal_form(cut) == algebra.normal_form(full)


# -- arithmetic results against their re-validated copies ------------------------


def assert_clean(element):
    """``element`` equals its copy through the checking constructor: paths on
    its own quiver and nonzero, themselves clean ``Poly`` coefficients."""
    assert type(element) is FreeElement
    assert element.terms == FreeElement(element.quiver, element.terms).terms
    for path, coeff in element.terms.items():
        assert path.quiver is element.quiver
        assert type(coeff) is Poly and coeff
        assert coeff.terms == Poly(coeff.terms).terms


@st.composite
def poly_elements(draw, quiver=E6):
    """``elements`` with coefficients of degree up to 1 in t1, t2."""
    base = draw(elements(quiver))
    coeffs = st.builds(
        lambda c, d, i: Poly.const(c) + Poly.const(d) * Poly.var(i),
        small_fractions,
        small_fractions,
        st.integers(min_value=1, max_value=2),
    )
    return FreeElement(quiver, {p: c * draw(coeffs) for p, c in base.terms.items()})


@settings(max_examples=200, deadline=None)
@given(data=st.data(), quiver=st.sampled_from([E6, L2]))
def test_arithmetic_results_are_clean(data, quiver):
    a = data.draw(poly_elements(quiver))
    b = data.draw(poly_elements(quiver))
    c = data.draw(st.sampled_from([Poly.zero(), Poly.const(-2), Poly.var(1) - 1]))
    n = get_algebra("re6" if quiver is L2 else "pe6").nilpotency_degree
    # a - a, (a + b) * (a - b) and the zero scale cancel terms
    for result in (
        a + b, a - b, -a, a * b, a - a, (a + b) * (a - b), a.mul(b, below=3),
        a.scale(c), c * a, a * 3, a.power(0), a.power(3), (a - b).power(2, below=n),
    ):
        assert_clean(result)
