"""Tests for the E6 layer: algebras, admissibility, and verifications."""

import ast
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from engine_helpers import printed_inverse_mismatches
from field_scalars import GF, PrimeFieldScalars, RationalScalars
from preproj import derivation, e6, oracle
from preproj.derivation import verify_identities
from preproj.e6 import (
    CONSTRAINED_THETA,
    FREE_THETA,
    _element_from_symbols,
    admissibility_residual,
    as_free_element,
    build_pe6,
    build_re6,
    constraint_residuals,
    corner_embedding,
    deformed_relations,
    derived_constants,
    inverse_formula_terms,
    is_admissible,
    lemma_coefficients,
    primed_generators,
    sample_check,
    substituted_generators,
    theorem_residuals,
    verify_corner_iso,
    verify_inverse,
    verify_lemma,
    verify_theorem,
)
from preproj.freealg import FreeElement, GeneratorMap, generators
from preproj.oracle import (
    GeneratorScalars,
    _draw_theta,
    _generator_vectors,
    _integer_theta,
    constraint_theta2,
    constraint_theta6,
    primed_generator_terms,
)
from preproj.polyring import Poly
from preproj.quiver import Path, Quiver, builtin_quiver
from preproj.quotient import QuotientAlgebra, build_quotient


ZERO = (0,) * 9


def failures(report):
    return [c.name for c in report.checks if not c.passed]


# -- algebras ---------------------------------------------------------------


def test_pe6_relations_die_in_quotient():
    alg = build_pe6()
    for rel in deformed_relations(ZERO)[:5]:
        assert alg.normal_form(rel).is_zero()


def test_pe6_corner_dimension():
    assert build_pe6().dimension_at(3, 3) == 12


def test_pe6_loop_square_vanishes():
    alg = build_pe6()
    g = generators(alg.quiver)
    assert alg.normal_form((g["b0"] * g["a0"]) ** 2).is_zero()


def test_re6_shape():
    alg = build_re6()
    assert alg.dimension() == 12
    assert alg.nilpotency_degree == 6
    g = generators(alg.quiver)
    assert alg.normal_form(g["x"] * g["y"]) != alg.normal_form(g["y"] * g["x"])


# -- deformation parameters ----------------------------------------------------


def test_constrained_theta_substitutes_theta2_theta6():
    theta = CONSTRAINED_THETA
    t1, t3, t4, t5 = (Poly.var(i) for i in (1, 3, 4, 5))
    assert theta[1] == 2 * t3 - t1
    assert theta[5] == 2 * t5 - 3 * t4 - 3 * (t3 - t1) ** 2
    assert not any(constraint_residuals(theta))
    assert theta[:1] + theta[2:5] + theta[6:] == FREE_THETA[:1] + FREE_THETA[2:5] + FREE_THETA[6:]


def test_rational_theta_validation():
    for short in ([1, 2, 3], ZERO + (0,)):
        with pytest.raises(ValueError):
            as_free_element(short)
        with pytest.raises(ValueError):
            derived_constants(short)
    assert not any(constraint_residuals([1, -1, 0, 0, 0, -3, 0, 0, 0]))


# -- admissibility ------------------------------------------------------------


def test_zero_deformation_is_admissible():
    assert is_admissible(ZERO)


def test_symbolic_free_residual_two_terms():
    residual = admissibility_residual(FREE_THETA)
    alg = build_re6()
    g = generators(alg.quiver)
    x, y = g["x"], g["y"]
    c1, c2 = lemma_coefficients(FREE_THETA)
    expected = alg.normal_form((x * y * x * y).scale(c1) + (x * y * x * y * y).scale(c2))
    assert residual == expected
    assert len(residual.coords) == 2


@lru_cache(maxsize=None)
def _symbolic_lemma_coefficients():
    """The coefficients of [xyxy] and [xyxyy] in the residual of (x+y+f)^3
    with all nine thetas free, read off the reduction in re6."""
    residual = admissibility_residual(FREE_THETA)
    by_word = {str(p).replace("*", ""): c for p, c in residual.coords.items()}
    return by_word["xyxy"], by_word["xyxyy"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=9, max_size=9))
def test_lemma_coefficients_at_rational_theta_evaluate_the_symbolic_residual(theta):
    # slow path: the residual's polynomial coefficients, evaluated at theta
    assignment = dict(enumerate(theta, 1))
    symbolic = tuple(c.evaluate(assignment) for c in _symbolic_lemma_coefficients())
    assert lemma_coefficients(theta) == symbolic


def test_xy_alone_is_not_admissible():
    theta = (1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert not is_admissible(theta)
    residual = admissibility_residual(theta)
    coeffs = sorted(str(c) for c in residual.coords.values())
    assert "1" in coeffs  # the first condition residual t1 + t2 - 2*t3 = 1


def test_numeric_admissible_example():
    # constraints hold by construction: t2 = 2*0 - 1 = -1, t6 = -3*(0-1)^2 = -3
    assert is_admissible((1, -1, 0, 0, 0, -3, 0, 0, 0))


def test_constrained_symbolic_is_admissible():
    assert is_admissible(CONSTRAINED_THETA)


# -- lemma -----------------------------------------------------------------------


def test_verify_lemma_three_checks_pass():
    report = verify_lemma()
    assert len(report.checks) == 3
    assert report.passed, failures(report)


def test_lemma_mutation_fails():
    # corrupt the first constraint: theta2 := 2*theta3 (instead of 2*theta3 - theta1)
    t = {i: Poly.var(i) for i in range(1, 10)}
    t[2] = 2 * t[3]
    t[6] = constraint_theta6(t[1], t[3], t[4], t[5])
    corrupted = tuple(t[i] for i in range(1, 10))
    residual = admissibility_residual(corrupted)
    assert not residual.is_zero()


def test_lemma_random_numeric_spot_checks():
    import random

    rng = random.Random(11)
    for _ in range(5):
        free = {i: Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for i in (1, 3, 4, 5, 7, 8, 9)}
        theta = [None] * 9
        for i, v in free.items():
            theta[i - 1] = v
        theta[1] = constraint_theta2(free[1], free[3])
        theta[5] = constraint_theta6(free[1], free[3], free[4], free[5])
        assert is_admissible(theta)


# -- derived constants ----------------------------------------------------------


def test_derived_constants_zero():
    dc = derived_constants(ZERO)
    assert all(
        not getattr(dc, name)
        for name in ("alpha", "beta", "gamma", "delta", "alpha1", "beta1", "alpha2", "beta2", "alpha3")
    )


def test_alpha_at_equal_thetas():
    dc = derived_constants((2, 2, 2, 1, 0, constraint_theta6(2, 2, 1, 0), 0, 0, 0))
    assert dc.alpha == 1  # theta4 + (theta3 - theta1)^2 with theta1 = theta3


def test_alpha1_identity():
    dc = derived_constants(CONSTRAINED_THETA)
    t1, t3 = Poly.var(1), Poly.var(3)
    assert dc.alpha1 + dc.alpha == t1 * t3 - t3 ** 2
    assert dc.beta1 + dc.beta == t1 * t3 - t3 ** 2


def test_derived_constants_require_constraints():
    # off the constraint variety: the free point, a symbolic point that
    # breaks the first constraint, and a rational one
    broken = (FREE_THETA[0], 2 * FREE_THETA[2]) + CONSTRAINED_THETA[2:]
    for theta, residuals in (
        (FREE_THETA, "- 2*t3 + t2 + t1, t6 - 2*t5 + 3*t4 + 3*t3^2 - 6*t1*t3 + 3*t1^2)"),
        (broken, "t1, 0)"),
        ((1, 0, 0, 0, 0, 0, 0, 0, 0), "1, 3)"),
        ((Fraction(1, 2),) + (0,) * 8, "1/2, 3/4)"),
    ):
        for change in (derived_constants, substituted_generators):
            with pytest.raises(ValueError, match=f"constraints \\(residuals {re.escape(residuals)}"):
                change(theta)


# -- change of generators ----------------------------------------------------------


def test_zero_parameters_give_identity_map():
    change = substituted_generators(ZERO)
    quiver = builtin_quiver("E6")
    for arrow in quiver.arrows:
        image = change.bindings[arrow.name]
        assert image == FreeElement.from_path(quiver.path(arrow.name))


def test_primed_a2_formula():
    change = substituted_generators(CONSTRAINED_THETA)
    quiver = builtin_quiver("E6")
    t8 = Poly.var(8)
    a2 = FreeElement.from_path(quiver.path("a2"))
    correction = FreeElement.from_path(
        quiver.path("a2", "b0", "a0", "b2", "a2", "b2", "a2")
    )
    assert change.bindings["a2"] == a2 - correction.scale(t8)


def test_primed_b3_leading_term():
    change = substituted_generators(CONSTRAINED_THETA)
    quiver = builtin_quiver("E6")
    image = change.bindings["b3"]
    b3 = quiver.path("b3")
    assert image.terms[b3] == Poly.const(1)
    assert min(len(p) for p in image.terms) == 1


def test_leading_term_triangularity():
    change = substituted_generators(CONSTRAINED_THETA)
    quiver = builtin_quiver("E6")
    for arrow in quiver.arrows:
        image = change.bindings[arrow.name]
        base = quiver.path(arrow.name)
        assert image.terms[base] == Poly.const(1)
        assert all(len(p) > 1 for p in image.terms if p != base)


def test_substituted_generators_constraint_violation():
    with pytest.raises(ValueError, match="constraint"):
        substituted_generators((1, 0, 0, 0, 0, 0, 0, 0, 0))


# -- deformed relations --------------------------------------------------------------


def test_deformed_relations_at_zero():
    rels = deformed_relations(ZERO)
    assert len(rels) == 7
    alg = build_pe6()
    for rel in rels:
        assert alg.normal_form(rel).is_zero()


def test_deformed_relation6_contains_theta1_monomial():
    rels = deformed_relations(FREE_THETA)
    quiver = builtin_quiver("E6")
    loop = quiver.path("b0", "a0", "b2", "a2")
    assert rels[5].terms[loop] == Poly.var(1)


def test_deformed_relations_endpoint_homogeneous():
    for rel in deformed_relations(CONSTRAINED_THETA):
        assert rel.is_endpoint_homogeneous()


# -- theorem ---------------------------------------------------------------------------


def test_verify_theorem_symbolic():
    report = verify_theorem()
    assert len(report.checks) == 8  # 7 relations + integer certificate
    assert report.passed, failures(report)


def test_verify_theorem_at_zero():
    report = verify_theorem(ZERO)
    assert report.passed, failures(report)


def test_theorem_numeric_agrees_with_symbolic_evaluation():
    report = sample_check(seed=123, trials=20)
    assert len(report.checks) == 20
    assert report.passed, failures(report)


# -- identities --------------------------------------------------------------------------


def test_verify_identities_catalog():
    report = verify_identities()
    assert report.passed, failures(report)
    assert len(report.checks) >= 25


def test_spot_identities():
    alg = build_pe6()
    g = generators(alg.quiver)
    b0, a0, b2, a2, a3, b3 = g["b0"], g["a0"], g["b2"], g["a2"], g["a3"], g["b3"]
    assert alg.normal_form(b0 * a0 * a3 * b3 + b0 * a0 * b2 * a2).is_zero()
    assert alg.normal_form(
        b2 * a2 * b0 * a0 * a3 * b3 + b2 * a2 * b0 * a0 * b2 * a2
    ).is_zero()


def test_final_sum_identity():
    alg = build_pe6()
    change = substituted_generators(CONSTRAINED_THETA)
    rel6 = deformed_relations(CONSTRAINED_THETA)[5]
    assert alg.normal_form(change(rel6)).is_zero()


# -- inverse -------------------------------------------------------------------------------


def test_verify_inverse_corrected():
    report = verify_inverse("corrected")
    assert len(report.checks) == 6
    assert report.passed, failures(report)


def test_verify_inverse_printed_mismatch_set_is_stable():
    assert printed_inverse_mismatches() == ["a3", "a4"]


def test_inverse_trivial_at_zero():
    for mode in ("printed", "corrected"):
        report = verify_inverse(mode, ZERO)
        # at theta = 0 every correction term vanishes except the printed
        # a4 = a4'*a2' formula, whose leading product is non-composable
        names = failures(report)
        if mode == "corrected":
            assert not names
        else:
            assert names == ["a4 recovered from the printed formula"]


def test_inverse_unknown_mode():
    with pytest.raises(ValueError):
        verify_inverse("fixed")


# -- corner isomorphism -----------------------------------------------------------------------


def test_verify_corner_iso():
    report = verify_corner_iso()
    assert report.passed, failures(report)


def test_corner_embedding_kills_relations():
    alg = build_pe6()
    embed = corner_embedding()
    g = generators(builtin_quiver("L2"))
    x, y = g["x"], g["y"]
    for rel in (x * x, y * y * y, (x + y) ** 3):
        assert alg.normal_form(embed(rel)).is_zero()


# -- numeric pipeline -------------------------------------------------------------------------


def test_sample_check_prime_fields():
    for p in (2, 3, 5, 7, 11):
        report = sample_check(seed=p, trials=3, field=p)
        assert report.passed, failures(report)


def test_sample_check_computes_its_symbolic_side_once(monkeypatch):
    def as_data(report):
        return [(c.name, c.passed, c.residual) for c in report.checks]

    for field in (None, 11, 2):
        first = sample_check(seed=7, trials=4, field=field)
        # the cached side must not be recomputed by later calls
        monkeypatch.setattr("preproj.e6.theorem_residuals", None)
        assert as_data(sample_check(seed=7, trials=4, field=field)) == as_data(first)
        monkeypatch.undo()
        assert first.passed, failures(first)


FIELDS = {
    "rationals": RationalScalars(),
    "GF(2)": PrimeFieldScalars(2),
    "GF(3)": PrimeFieldScalars(3),
    "GF(11)": PrimeFieldScalars(11),
}


def random_constrained_theta(rng, scalars):
    """Reference draw of a constrained theta, on field scalars: t1, t3,
    t4, t5, t7, t8, t9 from ``random_element`` in that order, then t2 and t6
    from the constraints."""
    free = {i: scalars.random_element(rng) for i in (1, 3, 4, 5, 7, 8, 9)}
    theta = [None] * 9
    for i, v in free.items():
        theta[i - 1] = v
    theta[1] = constraint_theta2(free[1], free[3])
    theta[5] = constraint_theta6(free[1], free[3], free[4], free[5])
    return theta


def integer_theta(theta, scalars):
    """``_integer_theta`` of field-scalar thetas, a ``GF`` given as its residue."""
    if scalars.p is not None:
        theta = [v.value for v in theta]
    return _integer_theta(theta, scalars.p)


def as_field_scalar(value, scalars):
    """A value of the integer side (``int``, or over Q a ``_Scaled``) as a
    field scalar, through its numerator and denominator."""
    return scalars.convert(Fraction(value.numerator, value.denominator))


def field_vector(algebra, vec, scalars):
    """An integer vector (coords, den) of the oracle as paths to field scalars."""
    coords, den = vec
    if scalars.p is not None:
        # over GF(p) every coordinate is reduced and the denominator is 1
        assert den == 1 and all(0 < c < scalars.p for c in coords.values())
    return {algebra.basis[k]: scalars.convert(Fraction(c, den)) for k, c in coords.items()}


def fresh_generator_vectors(algebra, s, one):
    """Slow path of ``_generator_vectors``: build every path anew, reduce it
    and scale its ``Fraction`` coefficients term by term.  Each constant of
    ``s`` is multiplied by ``one``, the field's one, so that the ``int``
    unit coefficient is read in the field too."""
    quiver = algebra.quiver
    terms = {name: [(1, (name,))] for name in ("a0", "b0", "a1", "b1")}
    terms.update(primed_generator_terms(s))
    vectors = {}
    for name, generator_terms in terms.items():
        coords = {}
        for coeff, names in generator_terms:
            coeff = one * coeff
            for b, c in algebra.reduce_path(quiver.path(*names)).items():
                coords[b] = coords[b] + coeff * c if b in coords else coeff * c
        vectors[name] = {b: c for b, c in coords.items() if c}
    return vectors


def e6_modulo_paths_of_length(n):
    """The path algebra of the E6 quiver modulo all paths of length n."""
    quiver = builtin_quiver("E6")
    relations = [
        FreeElement.from_path(p)
        for v in quiver.vertices
        for w in quiver.vertices
        for p in quiver.enumerate_paths(v, w, n)
    ]
    return build_quotient(quiver, relations, name=f"E6/J^{n}")


@pytest.mark.parametrize("field", list(FIELDS))
def test_cached_generator_vectors_match_a_fresh_reduction(field):
    scalars = FIELDS[field]
    rng = random.Random(41)
    # two algebras on one quiver: a cache keyed by the word alone would
    # hand one algebra's vectors to the other
    algebras = [build_pe6(), e6_modulo_paths_of_length(4)]
    for _ in range(4):
        theta = random_constrained_theta(rng, scalars)
        s = GeneratorScalars(theta)
        bundles = [GeneratorScalars(integer_theta(theta, scalars))]
        if scalars.p is None:
            # Fraction constants too: their denominators are not powers of
            # one base, so a sum needs the lcm of them
            bundles.append(GeneratorScalars(theta))
        for lifted in bundles:
            got = [_generator_vectors(algebra, lifted, scalars.p) for algebra in algebras]
            for algebra, vectors in zip(algebras, got):
                assert {
                    name: field_vector(algebra, vec, scalars) for name, vec in vectors.items()
                } == fresh_generator_vectors(algebra, s, scalars.one())
                assert all(
                    type(c) is int for coords, _ in vectors.values() for c in coords.values()
                )
            assert got[0] != got[1]


def generic_relation_residuals(theta, scalars):
    """Slow path of ``numeric_relation_residuals``: field scalars throughout.

    The generator vectors come from ``fresh_generator_vectors`` and every
    product is the generic ``QuotientAlgebra.product`` on ``Fraction`` or
    ``GF`` coordinates; each word of f is multiplied out anew.
    """
    algebra = build_pe6()
    index = algebra.basis_index
    gen = {
        name: {index[b]: c for b, c in vec.items()}
        for name, vec in fresh_generator_vectors(
            algebra, GeneratorScalars(theta), scalars.one()
        ).items()
    }

    def add(*vectors):
        out = {}
        for vec in vectors:
            for k, c in vec.items():
                out[k] = out[k] + c if k in out else c
        return {k: c for k, c in out.items() if c}

    def prod(*names):
        out = gen[names[0]]
        for name in names[1:]:
            out = algebra.product(out, gen[name])
        return out

    x, y = prod("b0", "a0"), prod("b2", "a2")
    loops = {"x": x, "y": y}
    f = {}
    for value, word in zip(theta, oracle.THETA_MONOMIALS):
        vec = loops[word[0]]
        for letter in word[1:]:
            vec = algebra.product(vec, loops[letter])
        f = add(f, {k: value * c for k, c in vec.items()})
    s = add(x, y)
    residuals = [
        ("a0*b0", prod("a0", "b0")),
        ("a1*b1", prod("a1", "b1")),
        ("b1*a1 + a2*b2", add(prod("b1", "a1"), prod("a2", "b2"))),
        ("b3*a3 + a4*b4", add(prod("b3", "a3"), prod("a4", "b4"))),
        ("b4*a4", prod("b4", "a4")),
        ("b0*a0 + b2*a2 + a3*b3 + f(b0*a0, b2*a2)", add(s, prod("a3", "b3"), f)),
        ("(b0*a0 + b2*a2)^3", algebra.product(algebra.product(s, s), s)),
    ]
    basis = algebra.basis
    return (
        [(name, {basis[k]: c for k, c in vec.items()}) for name, vec in residuals],
        {"b2'*a2'": {basis[k]: c for k, c in y.items()}},
    )


@pytest.mark.parametrize("field", list(FIELDS))
def test_integer_oracle_matches_the_generic_product_on_field_scalars(field):
    scalars = FIELDS[field]
    algebra = build_pe6()
    rng = random.Random(47)
    nonzero_residuals = 0
    for trial in range(6):
        theta = random_constrained_theta(rng, scalars)
        if trial % 2:
            # break a constraint, so that residuals are nonzero too
            theta[1 if trial % 4 == 1 else 5] += scalars.one()
        residuals, y = oracle.numeric_relation_residuals(
            algebra, integer_theta(theta, scalars), scalars.p
        )
        got = (
            [(name, field_vector(algebra, vec, scalars)) for name, vec in residuals],
            {"b2'*a2'": field_vector(algebra, y, scalars)},
        )
        assert got == generic_relation_residuals(theta, scalars)
        assert got[1]["b2'*a2'"]
        nonzero_residuals += sum(1 for _, vec in got[0] if vec)
    assert nonzero_residuals >= 3


@pytest.mark.parametrize("field", [None, 11])
def test_numeric_oracle_hashes_no_path(monkeypatch, field):
    """After warm-up, a passing trial hashes no path, in the oracle or
    around it: the oracle returns integer vectors keyed by basis index,
    and the symbolic side is keyed the same way."""
    assert sample_check(seed=3, trials=1, field=field).passed
    calls = Counter()
    returned = []
    original = e6.numeric_relation_residuals

    def traced(algebra, theta, p):
        result = original(algebra, theta, p)
        returned.append(result)
        return result

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls["hash"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # set on e6, where sample_check looks the name up, as the benchmark's tracer does
    monkeypatch.setattr(e6, "numeric_relation_residuals", traced)
    monkeypatch.setattr(Path, "__hash__", counting(Path.__hash__))
    assert sample_check(seed=4, trials=3, field=field).passed
    assert len(returned) == 3
    assert all(not coords for residuals, _ in returned for _, (coords, _) in residuals)
    assert all(y[0] for _, y in returned)
    assert calls["hash"] == 0


@pytest.mark.parametrize("field", [None, 11])
def test_numeric_oracle_uses_no_symbolic_arithmetic(monkeypatch, field):
    # warm-up: pe6, the symbolic side and the generator words are built
    # and cached, as they are before every trial but the first
    assert sample_check(seed=3, trials=1, field=field).passed
    re6, embed, t1 = build_re6(), corner_embedding(), Poly.var(1)
    g = generators(re6.quiver)
    x, y, one = g["x"], g["y"], re6.one()
    # what the symbolic pipeline computes with, each with one use of it:
    # the oracle must use none of it, or the two pipelines are not independent
    symbolic_arithmetic = {
        (Poly, "__add__"): lambda: t1 + t1,
        (Poly, "__radd__"): lambda: 1 + t1,
        (Poly, "__sub__"): lambda: t1 - 1,
        (Poly, "__mul__"): lambda: t1 * t1,
        (Poly, "__rmul__"): lambda: 2 * t1,
        (Poly, "__pow__"): lambda: t1 ** 2,
        (FreeElement, "mul"): lambda: x.mul(y),
        (FreeElement, "__mul__"): lambda: x * y,
        (GeneratorMap, "__call__"): lambda: embed(x),
        (QuotientAlgebra, "normal_form"): lambda: re6.normal_form(x),
        (QuotientAlgebra, "multiply"): lambda: re6.multiply(one, one),
    }
    touched = []

    def forbidden(name):
        def raising(*args, **kwargs):
            touched.append(name)
            raise AssertionError(f"the numeric oracle called {name}")

        return raising

    for cls, name in symbolic_arithmetic:
        monkeypatch.setattr(cls, name, forbidden(f"{cls.__name__}.{name}"))
    residuals, y_vec = oracle.numeric_relation_residuals(
        build_pe6(), _draw_theta(random.Random(8), field), field
    )
    assert all(not coords for _, (coords, _) in residuals) and y_vec[0]
    report = sample_check(seed=9, trials=1, field=field)
    assert report.passed, [c.residual for c in report.checks]
    assert touched == []
    # not vacuous: each patched callable raises where it is used
    for (cls, name), use in symbolic_arithmetic.items():
        with pytest.raises(AssertionError, match=f"called {cls.__name__}.{name}$"):
            use()


# the modules of the symbolic pipeline and of the layers above the oracle,
# and the two ways a quotient algebra reduces a general element
SYMBOLIC_MODULES = {"polyring", "freealg", "expr", "e6", "derivation", "cli"}
SYMBOLIC_CALLS = {"normal_form", "multiply"}


def package_imports(tree) -> set:
    """The ``preproj`` modules that the import statements of ``tree`` name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "preproj":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import polyring
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "preproj" and len(parts) > 1:
                    found.add(parts[1])
    return found


def names_used(tree) -> set:
    """Every name, attribute, imported name and string constant in ``tree``,
    so that ``getattr(algebra, "normal_form")`` counts as well."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def imports_inside_functions(tree) -> list[int]:
    """Line numbers of the import statements inside a function of ``tree``."""
    return sorted(
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def module_tree(module):
    with open(module.__file__, encoding="utf-8") as handle:
        return ast.parse(handle.read())


def test_numeric_oracle_imports_nothing_of_the_symbolic_pipeline():
    """The oracle's independence, read off its source: unlike the patch
    test above, this also covers code that the warm-up leaves cached."""
    tree = module_tree(oracle)
    imported = package_imports(tree)
    assert "quotient" in imported
    assert not imported & SYMBOLIC_MODULES
    assert not names_used(tree) & SYMBOLIC_CALLS
    for module in (e6, oracle, derivation):
        assert imports_inside_functions(module_tree(module)) == [], module.__name__
    # not vacuous: each helper finds what it looks for
    planted = ast.parse(
        "from .polyring import Poly\n"
        "import preproj.freealg\n"
        "from . import expr\n"
        "from preproj.e6 import build_pe6\n"
        "def f(a, x):\n"
        "    from .derivation import verify_identities\n"
        "    return a.normal_form(x), getattr(a, 'multiply')\n"
    )
    assert package_imports(planted) == {"polyring", "freealg", "expr", "e6", "derivation"}
    assert names_used(planted) >= SYMBOLIC_CALLS
    assert imports_inside_functions(planted) == [6]


CHANGE_CONSTANTS = ("alpha", "beta", "gamma", "delta", "psi", "kappa1", "kappa2")


def displayed_change_constants(theta):
    """Slow path of ``GeneratorScalars``: the change-of-generator constants
    as displayed, each power computed anew."""
    t1, t2, t3, t4, t5, t6, t7, t8, t9 = theta
    return {
        "alpha": t4 + (t3 - t1) ** 2,
        "beta": t5 - 2 * t4 - 2 * (t3 - t1) ** 2,
        "gamma": (
            t7 - 8 * t1 * t3 ** 2 + 7 * t1 ** 2 * t3 + 2 * t3 * t4
            - 2 * t1 ** 3 - 2 * t1 * t4 + 3 * t3 ** 3
        ),
        "delta": (
            2 * t1 ** 4 - 6 * t1 ** 3 * t3 - 3 * t1 ** 2 * t5 + 4 * t1 ** 2 * t4
            + 6 * t1 ** 2 * t3 ** 2 + 5 * t1 * t3 * t5 - 6 * t1 * t3 * t4
            + t5 ** 2 - 3 * t5 * t4 + 2 * t4 ** 2 - 2 * t3 ** 3 * t1
            - 2 * t3 ** 2 * t5 + 2 * t3 ** 2 * t4 + 2 * t1 * t8 - 3 * t3 * t8 - t9
        ),
        "psi": t4 - t5 - t1 * t3 + t1 ** 2,
        "kappa1": (t1 - t3) * (2 * t3 - t1) - t4,
        "kappa2": (
            3 * t1 * t3 ** 2 - t3 * t4 - t7 - 2 * t1 ** 2 * t3 - t3 ** 3 + t1 * t5
        ),
    }


@pytest.mark.parametrize("field", list(FIELDS))
def test_change_constants_agree_with_the_displayed_formulas(field):
    symbolic = GeneratorScalars(FREE_THETA)
    displayed = displayed_change_constants(FREE_THETA)
    for name in CHANGE_CONSTANTS:
        assert getattr(symbolic, name) == displayed[name], name
    scalars = FIELDS[field]
    rng = random.Random(53)
    for _ in range(5):
        theta = random_constrained_theta(rng, scalars)
        numeric = GeneratorScalars(theta)
        # the integer oracle's bundle: over GF(p), on residues, reduced after
        lifted = GeneratorScalars(integer_theta(theta, scalars))
        assignment = {i + 1: v for i, v in enumerate(theta)}
        for name in CHANGE_CONSTANTS:
            poly = getattr(symbolic, name)
            if isinstance(scalars, PrimeFieldScalars):
                residues = {i: v.value for i, v in assignment.items()}
                expected = GF(scalars.p, poly.evaluate_mod(residues, scalars.p))
            else:
                expected = poly.evaluate(assignment)
            assert getattr(numeric, name) == expected, name
            assert as_field_scalar(getattr(lifted, name), scalars) == expected, name


LAZY_CONSTANTS = (
    "alpha1", "beta1", "alpha2", "beta2", "alpha3", "alpha2_inv", "beta2_inv", "alpha3_inv",
)


@pytest.mark.parametrize("field", list(FIELDS))
def test_lazy_constants_agree_with_the_symbolic_bundle(field):
    scalars = FIELDS[field]
    symbolic = derived_constants(CONSTRAINED_THETA)
    rng = random.Random(43)
    for _ in range(5):
        theta = random_constrained_theta(rng, scalars)
        numeric = GeneratorScalars(theta)
        primed_generator_terms(numeric)
        # the change of generators reads none of the inverse constants
        assert not set(LAZY_CONSTANTS) & set(vars(numeric))
        assignment = {i + 1: v for i, v in enumerate(theta)}
        for name in LAZY_CONSTANTS:
            poly = getattr(symbolic, name)
            if isinstance(scalars, PrimeFieldScalars):
                residues = {i: v.value for i, v in assignment.items()}
                expected = GF(scalars.p, poly.evaluate_mod(residues, scalars.p))
            else:
                expected = poly.evaluate(assignment)
            assert getattr(numeric, name) == expected, name


ALL_CONSTANTS = CHANGE_CONSTANTS + LAZY_CONSTANTS
Q = RationalScalars()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=7, max_size=7),
    st.integers(min_value=0, max_value=2**32),
)
def test_integer_constants_over_q_match_the_fraction_bundle(free, seed):
    """Slow path of the ``_Scaled`` bundle: every named constant, the lazy
    inverse ones included, against ``GeneratorScalars`` on ``Fraction``.
    A given theta is over one power of d; a drawn one has t6 over d^2."""
    t1, t3, t4, t5, t7, t8, t9 = free
    given_theta = [
        t1, constraint_theta2(t1, t3), t3, t4, t5, constraint_theta6(t1, t3, t4, t5), t7, t8, t9
    ]
    drawn = _draw_theta(random.Random(seed), None)
    for theta, integer in (
        (given_theta, _integer_theta(given_theta, None)),
        ([as_field_scalar(v, Q) for v in drawn], drawn),
    ):
        reference = GeneratorScalars(theta)
        lifted = GeneratorScalars(integer)
        for name in ALL_CONSTANTS:
            assert as_field_scalar(getattr(lifted, name), Q) == getattr(reference, name), name


def test_scaled_values_over_different_bases_do_not_mix():
    a, b = oracle._Scaled(1, 1, 6), oracle._Scaled(1, 1, 10)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError, match="bases 6 and 10"):
            op()
    # 1/6 + 1/36 - 2/6 and 3 * (1/6)^2, read as fractions
    for value, expected in ((a + a * a - 2 * a, Fraction(-5, 36)), (3 * a ** 2, Fraction(1, 12))):
        assert Fraction(value.numerator, value.denominator) == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(list(FIELDS)))
def test_integer_draw_gives_the_points_of_the_field_scalar_draw(seed, field):
    scalars = FIELDS[field]
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(3):
        theta = _draw_theta(ours, scalars.p)
        assert [as_field_scalar(v, scalars) for v in theta] == random_constrained_theta(
            reference, scalars
        )
        if scalars.p is not None:
            assert all(type(v) is int and 0 <= v < scalars.p for v in theta)
    # the same RNG calls: both generators are left in the same state
    assert ours.getstate() == reference.getstate()


def field_value(poly, theta):
    """Slow path of ``Poly.evaluate``/``evaluate_mod``: the polynomial at
    field-scalar thetas, term by term in the field's own arithmetic."""
    total = 0 * theta[0]
    for exp, coeff in poly.terms.items():
        term = coeff * (theta[0] ** 0)
        for i, e in enumerate(exp):
            if e:
                term = term * theta[i] ** e
        total = total + term
    return total


def vec_str(vec):
    """Reference text of a failing trial's vector: ``c*path`` terms in path
    order, each c written by ``repr`` of a ``GF`` or ``str`` of a ``Fraction``."""
    parts = [f"{c}*{p}" for p, c in sorted(vec.items(), key=lambda kv: kv[0].key)]
    return " + ".join(parts)


def reference_trial(theta, scalars, symbolic, symbolic_y):
    """Slow path of a ``sample_check`` trial: the generic oracle on field
    scalars, the symbolic side evaluated in the field, and vectors keyed
    by path compared as dicts of field scalars."""
    algebra = build_pe6()
    residuals, intermediates = generic_relation_residuals(theta, scalars)

    def evaluated(pairs):
        values = {algebra.basis[k]: field_value(poly, theta) for k, poly in pairs}
        return {path: v for path, v in values.items() if v}

    for (name, vec), pairs in zip(residuals, symbolic):
        if vec:
            return False, f"{name} nonzero: {vec_str(vec)}"
        if evaluated(pairs) != vec:
            return False, f"{name} disagrees with evaluated symbolic residual"
    evaluated_y = evaluated(symbolic_y)
    if evaluated_y != intermediates["b2'*a2'"]:
        return False, "b2'*a2' disagrees between the two pipelines"
    if not evaluated_y:
        return False, "b2'*a2' unexpectedly reduced to zero"
    return True, None


def symbolic_sides():
    """The symbolic side as built, and altered so that trials fail in each
    of the ways a trial reports."""
    symbolic, y = e6._symbolic_side()
    (k, poly), *rest = y
    t1 = Poly.var(1)
    return {
        "as built": (symbolic, y),
        "b2'*a2' coordinate off by one": (symbolic, ((k, poly + 1), *rest)),
        "b2'*a2' coordinate times t1": (symbolic, ((k, poly * t1), *rest)),
        "b2'*a2' coordinate dropped": (symbolic, tuple(rest)),
        "b2'*a2' only that coordinate": (symbolic, ((k, poly),)),
        "t1 in a residual": (symbolic[:2] + (((k, t1),),) + symbolic[3:], y),
    }


@pytest.mark.parametrize("side", list(symbolic_sides()))
@pytest.mark.parametrize("field", list(FIELDS))
def test_sample_trial_on_integers_matches_the_field_scalar_reference(monkeypatch, field, side):
    scalars = FIELDS[field]
    symbolic, symbolic_y = symbolic_sides()[side]
    monkeypatch.setattr(e6, "_symbolic_side", lambda: (symbolic, symbolic_y))
    outcomes = set()
    for seed in (5, 6):
        report = sample_check(seed=seed, trials=3, field=scalars.p)
        rng = random.Random(seed)
        expected = [
            reference_trial(random_constrained_theta(rng, scalars), scalars, symbolic, symbolic_y)
            for _ in range(3)
        ]
        assert [(c.passed, c.residual) for c in report.checks] == expected
        outcomes.update(passed for passed, _ in expected)
    # not vacuous: the symbolic side as built passes, each alteration fails
    assert outcomes == {True} if side == "as built" else False in outcomes


def test_sample_check_reduces_no_generator_word_per_trial(monkeypatch):
    algebra = build_pe6()
    # with every structure constant cached, a reduce_path call can only
    # come from a generator word
    algebra.precompute_structure_constants()
    oracle._word_vector.cache_clear()
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Quiver, "path", counting("path", Quiver.path))
    monkeypatch.setattr(
        QuotientAlgebra, "reduce_path", counting("reduce_path", QuotientAlgebra.reduce_path)
    )
    assert sample_check(seed=3, trials=1, field=11).passed
    # the first trial reduces the generator words, so the counters are live
    assert calls["path"] > 0 and calls["reduce_path"] > 0
    calls.clear()
    assert sample_check(seed=4, trials=3, field=11).passed
    assert calls["path"] == calls["reduce_path"] == 0


def test_sample_check_rejects_constraint_violation():
    with pytest.raises(ValueError, match="constraint"):
        sample_check(theta=[1, 0, 0, 0, 0, 0, 0, 0, 0])


def test_sample_check_explicit_theta():
    report = sample_check(theta=[1, -1, 0, 0, 0, -3, 0, 0, 0])
    assert report.passed


def test_sample_check_names_the_violated_constraints_as_field_scalars():
    with pytest.raises(ValueError, match=r"residuals 1, 3\)"):
        sample_check(theta=[1, 0, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"residuals 1 \(mod 11\), 3 \(mod 11\)\)"):
        sample_check(theta=[1, 0, 0, 0, 0, 0, 0, 0, 0], field=11)


ADMISSIBLE_ONES = (1, 1, 1, 0, 0, 0, 0, 0, 0)


def test_sample_check_takes_int_and_fraction_theta_entries_only():
    for field in (None, 11):
        for theta, kind in (
            ([0.5] + list(ADMISSIBLE_ONES[1:]), "float"),
            # a field scalar, even of the trial's own field, is no theta entry
            ([GF(11, 1)] + list(ADMISSIBLE_ONES[1:]), "GF"),
            ([Poly.const(1)] + list(ADMISSIBLE_ONES[1:]), "Poly"),
        ):
            with pytest.raises(TypeError, match=f"cannot use {kind} as a theta sample"):
                sample_check(theta=theta, field=field)
        with pytest.raises(ValueError, match="expected 9"):
            sample_check(theta=ADMISSIBLE_ONES[:8], field=field)
        # int and Fraction entries, alone or mixed, run
        assert sample_check(theta=ADMISSIBLE_ONES, field=field).passed
        assert sample_check(theta=[Fraction(1)] + list(ADMISSIBLE_ONES[1:]), field=field).passed


def test_sample_check_rejects_a_rational_theta_the_field_cannot_invert():
    # t1 = t2 = t3 = 1/11 satisfies both constraints over Q and over GF(7)
    theta = [Fraction(1, 11)] * 3 + [0] * 6
    with pytest.raises(ValueError, match="1/11 has a denominator divisible by 11"):
        sample_check(theta=theta, field=11)
    assert sample_check(theta=theta, field=7).passed
    assert sample_check(theta=theta).passed


def test_gf_arithmetic():
    a = GF(7, 3)
    b = GF(7, 5)
    assert (a + b).value == 1
    assert (a * b).value == 1
    assert (a - b).value == 5
    assert (-a).value == 4
    assert (a ** 2).value == 2
    assert GF(7, 3) == GF(7, 10)
    assert a + 4 == GF(7, 0)
    assert Fraction(1, 2) * GF(7, 2) == GF(7, 1)


def test_integer_certificate():
    report = verify_theorem()
    cert = [c for c in report.checks if "integer certificate" in c.name]
    assert len(cert) == 1 and cert[0].passed
    report = verify_identities()
    cert = [c for c in report.checks if "integer certificate" in c.name]
    assert len(cert) == 1 and cert[0].passed


def test_integer_certificate_fails_at_a_non_integral_point():
    # the seven relations still vanish; only the certificate reads the
    # coefficients of the substituted relations, here halves
    t1 = Fraction(1, 2)
    theta = (t1, constraint_theta2(t1, 0), 0, 0, 0, constraint_theta6(t1, 0, 0, 0), 0, 0, 0)
    report = verify_theorem(theta)
    assert [c.passed for c in report.checks] == [True] * 7 + [False]
    assert "integer certificate" in report.checks[-1].name


def test_integer_certificate_fails_on_a_pivot_other_than_one():
    # 2*x*y - 3*y*x eliminates y*x with the pivot 3, leaving y*x = 2/3 * x*y
    quiver = builtin_quiver("L2")
    g = generators(quiver)
    x, y = g["x"], g["y"]
    algebra = build_quotient(
        quiver, [x * x, y * y, (x * y).scale(2) - (y * x).scale(3)], name="L2/(2xy - 3yx)"
    )
    assert algebra.reduce_path(quiver.path("y", "x")) == {quiver.path("x", "y"): Fraction(2, 3)}
    assert oracle._reduction_is_integral(algebra) is False
    # every word, even one whose own normal form is integral, is refused
    with pytest.raises(ValueError, match="L2/\\(2xy - 3yx\\) has non-integral normal forms"):
        oracle._word_vector(algebra, ("x", "y"))
    assert oracle._reduction_is_integral(build_pe6()) is True


def test_theorem_residuals_expose_images():
    rows = theorem_residuals(CONSTRAINED_THETA)
    assert len(rows) == 7
    for _, image, nf in rows:
        assert image.has_integral_coefficients()
        assert nf.is_zero()


def test_truncation_keeps_theorem_and_inverse_normal_forms():
    t1, t3, t4, t5 = Fraction(1, 2), Fraction(2), Fraction(-1), Fraction(3)
    theta = [
        t1, constraint_theta2(t1, t3), t3, t4, t5,
        constraint_theta6(t1, t3, t4, t5), Fraction(5), Fraction(-2), Fraction(7),
    ]
    algebra = build_pe6()
    quiver = algebra.quiver
    n = algebra.nilpotency_degree
    g = generators(quiver)

    # the seven relations with f expanded in the free algebra
    relations = deformed_relations(theta)
    relations[5] = (
        g["b0"] * g["a0"] + g["b2"] * g["a2"] + g["a3"] * g["b3"]
        + corner_embedding()(as_free_element(theta))
    )
    change = substituted_generators(theta)
    rows = theorem_residuals(theta)
    assert len(rows) == len(relations) == 7
    for (name, image, nf), relation in zip(rows, relations):
        full = change(relation)
        assert image == FreeElement(
            quiver, {p: c for p, c in full.terms.items() if len(p) < n}
        ), name
        assert nf == algebra.normal_form(full), name

    s = derived_constants(theta)
    primed = primed_generators(s)
    for mode in ("corrected", "printed"):
        for name, terms in inverse_formula_terms(s, mode).items():
            cut = _element_from_symbols(quiver, terms, primed, below=n)
            full = _element_from_symbols(quiver, terms, primed)
            assert algebra.normal_form(cut) == algebra.normal_form(full), (mode, name)
