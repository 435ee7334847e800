"""Tests for the E6 layer: algebras, admissibility, and verifications."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from preproj import e6
from preproj.e6 import (
    DeformationParameters,
    GF,
    GeneratorScalars,
    PrimeFieldScalars,
    RationalScalars,
    _element_from_symbols,
    _generator_vectors,
    _random_constrained_theta,
    admissibility_residual,
    build_pe6,
    build_re6,
    constraint_theta2,
    constraint_theta6,
    corner_embedding,
    deformed_relations,
    derived_constants,
    inverse_formula_terms,
    is_admissible,
    lemma_coefficients,
    primed_generator_terms,
    primed_generators,
    printed_inverse_mismatches,
    sample_check,
    substituted_generators,
    theorem_residuals,
    verify_corner_iso,
    verify_identities,
    verify_inverse,
    verify_lemma,
    verify_theorem,
)
from preproj.freealg import FreeElement, generators
from preproj.polyring import Poly
from preproj.quiver import Path, Quiver, builtin_quiver
from preproj.quotient import QuotientAlgebra, build_quotient


def failures(report):
    return [c.name for c in report.checks if not c.passed]


# -- algebras ---------------------------------------------------------------


def test_pe6_relations_die_in_quotient():
    alg = build_pe6()
    for rel in deformed_relations(DeformationParameters.zero())[:5]:
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


def test_constrained_mode_substitutes_theta2_theta6():
    params = DeformationParameters.symbolic_constrained()
    t1, t3, t4, t5 = (Poly.var(i) for i in (1, 3, 4, 5))
    assert params.theta[1] == 2 * t3 - t1
    assert params.theta[5] == 2 * t5 - 3 * t4 - 3 * (t3 - t1) ** 2
    assert params.constraints_satisfied()


def test_numeric_mode_validation():
    with pytest.raises(ValueError):
        DeformationParameters.numeric([1, 2, 3])
    params = DeformationParameters.numeric([1, -1, 0, 0, 0, -3, 0, 0, 0])
    assert params.constraints_satisfied()


# -- admissibility ------------------------------------------------------------


def test_zero_deformation_is_admissible():
    assert is_admissible(DeformationParameters.zero())


def test_symbolic_free_residual_two_terms():
    residual = admissibility_residual(DeformationParameters.symbolic_free())
    alg = build_re6()
    g = generators(alg.quiver)
    x, y = g["x"], g["y"]
    c1, c2 = lemma_coefficients()
    expected = alg.normal_form((x * y * x * y).scale(c1) + (x * y * x * y * y).scale(c2))
    assert residual == expected
    assert len(residual.coords) == 2


def test_xy_alone_is_not_admissible():
    params = DeformationParameters.numeric([1, 0, 0, 0, 0, 0, 0, 0, 0])
    assert not is_admissible(params)
    residual = admissibility_residual(params)
    coeffs = sorted(str(c) for c in residual.coords.values())
    assert "1" in coeffs  # the first condition residual t1 + t2 - 2*t3 = 1


def test_numeric_admissible_example():
    # constraints hold by construction: t2 = 2*0 - 1 = -1, t6 = -3*(0-1)^2 = -3
    params = DeformationParameters.numeric([1, -1, 0, 0, 0, -3, 0, 0, 0])
    assert is_admissible(params)


def test_constrained_symbolic_is_admissible():
    assert is_admissible(DeformationParameters.symbolic_constrained())


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
    corrupted = DeformationParameters(tuple(t[i] for i in range(1, 10)), "symbolic-free")
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
        assert is_admissible(DeformationParameters.numeric(theta))


# -- derived constants ----------------------------------------------------------


def test_derived_constants_zero():
    dc = derived_constants(DeformationParameters.zero())
    assert all(
        not getattr(dc, name)
        for name in ("alpha", "beta", "gamma", "delta", "alpha1", "beta1", "alpha2", "beta2", "alpha3")
    )


def test_alpha_at_equal_thetas():
    params = DeformationParameters.numeric([2, 2, 2, 1, 0, constraint_theta6(2, 2, 1, 0), 0, 0, 0])
    dc = derived_constants(params)
    assert dc.alpha == 1  # theta4 + (theta3 - theta1)^2 with theta1 = theta3


def test_alpha1_identity():
    params = DeformationParameters.symbolic_constrained()
    dc = derived_constants(params)
    t1, t3 = Poly.var(1), Poly.var(3)
    assert dc.alpha1 + dc.alpha == t1 * t3 - t3 ** 2
    assert dc.beta1 + dc.beta == t1 * t3 - t3 ** 2


def test_derived_constants_require_constraints():
    with pytest.raises(ValueError):
        derived_constants(DeformationParameters.symbolic_free())


# -- change of generators ----------------------------------------------------------


def test_zero_parameters_give_identity_map():
    change = substituted_generators(DeformationParameters.zero())
    quiver = builtin_quiver("E6")
    for arrow in quiver.arrows:
        image = change.bindings[arrow.name]
        assert image == FreeElement.from_path(quiver.path(arrow.name))


def test_primed_a2_formula():
    params = DeformationParameters.symbolic_constrained()
    change = substituted_generators(params)
    quiver = builtin_quiver("E6")
    t8 = Poly.var(8)
    a2 = FreeElement.from_path(quiver.path("a2"))
    correction = FreeElement.from_path(
        quiver.path("a2", "b0", "a0", "b2", "a2", "b2", "a2")
    )
    assert change.bindings["a2"] == a2 - correction.scale(t8)


def test_primed_b3_leading_term():
    params = DeformationParameters.symbolic_constrained()
    change = substituted_generators(params)
    quiver = builtin_quiver("E6")
    image = change.bindings["b3"]
    b3 = quiver.path("b3")
    assert image.terms[b3] == Poly.const(1)
    assert min(len(p) for p in image.terms) == 1


def test_leading_term_triangularity():
    params = DeformationParameters.symbolic_constrained()
    change = substituted_generators(params)
    quiver = builtin_quiver("E6")
    for arrow in quiver.arrows:
        image = change.bindings[arrow.name]
        base = quiver.path(arrow.name)
        assert image.terms[base] == Poly.const(1)
        assert all(len(p) > 1 for p in image.terms if p != base)


def test_substituted_generators_constraint_violation():
    params = DeformationParameters.numeric([1, 0, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="constraint"):
        substituted_generators(params)


# -- deformed relations --------------------------------------------------------------


def test_deformed_relations_at_zero():
    rels = deformed_relations(DeformationParameters.zero())
    assert len(rels) == 7
    alg = build_pe6()
    for rel in rels:
        assert alg.normal_form(rel).is_zero()


def test_deformed_relation6_contains_theta1_monomial():
    rels = deformed_relations(DeformationParameters.symbolic_free())
    quiver = builtin_quiver("E6")
    loop = quiver.path("b0", "a0", "b2", "a2")
    assert rels[5].terms[loop] == Poly.var(1)


def test_deformed_relations_endpoint_homogeneous():
    for rel in deformed_relations(DeformationParameters.symbolic_constrained()):
        assert rel.is_endpoint_homogeneous()


# -- theorem ---------------------------------------------------------------------------


def test_verify_theorem_symbolic():
    report = verify_theorem()
    assert len(report.checks) == 8  # 7 relations + integer certificate
    assert report.passed, failures(report)


def test_verify_theorem_at_zero():
    report = verify_theorem(DeformationParameters.zero())
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
    params = DeformationParameters.symbolic_constrained()
    alg = build_pe6()
    change = substituted_generators(params)
    rel6 = deformed_relations(params)[5]
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
        report = verify_inverse(mode, DeformationParameters.zero())
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


def integer_scalars(theta, scalars):
    """``theta`` as the integer oracle scales by it: residues over GF(p)."""
    return [v if scalars.p is None else v.value for v in theta]


def field_vector(algebra, vec, scalars):
    """An integer vector (coords, den) of the oracle as paths to field scalars."""
    coords, den = vec
    if scalars.p is not None:
        # over GF(p) every coordinate is reduced and the denominator is 1
        assert den == 1 and all(0 < c < scalars.p for c in coords.values())
    return {algebra.basis[k]: scalars.convert(Fraction(c, den)) for k, c in coords.items()}


def fresh_generator_vectors(algebra, s):
    """Slow path of ``_generator_vectors``: build every path anew, reduce it
    and scale its ``Fraction`` coefficients term by term."""
    quiver = algebra.quiver
    terms = {name: [(s.one, (name,))] for name in ("a0", "b0", "a1", "b1")}
    terms.update(primed_generator_terms(s))
    vectors = {}
    for name, generator_terms in terms.items():
        coords = {}
        for coeff, names in generator_terms:
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
        theta = _random_constrained_theta(rng, scalars)
        s = GeneratorScalars(theta, scalars.one())
        lifted = GeneratorScalars(integer_scalars(theta, scalars), 1)
        got = [_generator_vectors(algebra, lifted, scalars.p) for algebra in algebras]
        for algebra, vectors in zip(algebras, got):
            assert {
                name: field_vector(algebra, vec, scalars) for name, vec in vectors.items()
            } == fresh_generator_vectors(algebra, s)
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
            algebra, GeneratorScalars(theta, scalars.one())
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
    for value, word in zip(theta, e6.THETA_MONOMIALS):
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
    rng = random.Random(47)
    nonzero_residuals = 0
    for trial in range(6):
        theta = _random_constrained_theta(rng, scalars)
        if trial % 2:
            # break a constraint, so that residuals are nonzero too
            theta[1 if trial % 4 == 1 else 5] += scalars.one()
        got = e6.numeric_relation_residuals(theta, scalars)
        assert got == generic_relation_residuals(theta, scalars)
        assert got[1]["b2'*a2'"]
        nonzero_residuals += sum(1 for _, vec in got[0] if vec)
    assert nonzero_residuals >= 3


@pytest.mark.parametrize("field", [None, 11])
def test_numeric_oracle_makes_no_field_scalar_and_hashes_no_path(monkeypatch, field):
    """After warm-up, the oracle makes ``GF`` scalars and hashes paths only
    for the coordinates it returns: the zero residuals have none, so that
    is the nonzero b2'*a2' (one path and, over GF(p), one scalar each)."""
    assert sample_check(seed=3, trials=1, field=field).passed
    calls = Counter()
    returned = []
    inside = []
    oracle = e6.numeric_relation_residuals

    def traced(theta, scalars):
        inside.append(True)
        try:
            result = oracle(theta, scalars)
        finally:
            inside.pop()
        returned.append(result)
        return result

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if inside:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(e6, "numeric_relation_residuals", traced)
    monkeypatch.setattr(GF, "__init__", counting("GF", GF.__init__))
    monkeypatch.setattr(Path, "__hash__", counting("hash", Path.__hash__))
    assert sample_check(seed=4, trials=3, field=field).passed
    assert len(returned) == 3
    assert all(not vec for residuals, _ in returned for _, vec in residuals)
    coordinates = sum(len(y["b2'*a2'"]) for _, y in returned)
    assert coordinates >= 3
    assert calls["hash"] == coordinates
    assert calls["GF"] == (0 if field is None else coordinates)


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
    free = DeformationParameters.symbolic_free().theta
    symbolic = GeneratorScalars(free, Poly.const(1))
    displayed = displayed_change_constants(free)
    for name in CHANGE_CONSTANTS:
        assert getattr(symbolic, name) == displayed[name], name
    scalars = FIELDS[field]
    rng = random.Random(53)
    for _ in range(5):
        theta = _random_constrained_theta(rng, scalars)
        numeric = GeneratorScalars(theta, scalars.one())
        # the integer oracle's bundle: over GF(p), on residues, reduced after
        lifted = GeneratorScalars(integer_scalars(theta, scalars), 1)
        assignment = {i + 1: v for i, v in enumerate(theta)}
        for name in CHANGE_CONSTANTS:
            poly = getattr(symbolic, name)
            if isinstance(scalars, PrimeFieldScalars):
                residues = {i: v.value for i, v in assignment.items()}
                expected = GF(scalars.p, poly.evaluate_mod(residues, scalars.p))
            else:
                expected = poly.evaluate(assignment)
            assert getattr(numeric, name) == expected, name
            assert scalars.convert(Fraction(getattr(lifted, name))) == expected, name


LAZY_CONSTANTS = (
    "alpha1", "beta1", "alpha2", "beta2", "alpha3", "alpha2_inv", "beta2_inv", "alpha3_inv",
)


@pytest.mark.parametrize("field", list(FIELDS))
def test_lazy_constants_agree_with_the_symbolic_bundle(field):
    scalars = FIELDS[field]
    symbolic = derived_constants(DeformationParameters.symbolic_constrained())
    rng = random.Random(43)
    for _ in range(5):
        theta = _random_constrained_theta(rng, scalars)
        numeric = GeneratorScalars(theta, scalars.one())
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


def test_sample_check_converts_and_reduces_no_generator_word_per_trial(monkeypatch):
    algebra = build_pe6()
    # with every structure constant cached, a reduce_path call can only
    # come from a generator word
    algebra.precompute_structure_constants()
    e6._word_vector.cache_clear()
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(e6, "_fraction_mod", counting("_fraction_mod", e6._fraction_mod))
    monkeypatch.setattr(Quiver, "path", counting("path", Quiver.path))
    monkeypatch.setattr(
        QuotientAlgebra, "reduce_path", counting("reduce_path", QuotientAlgebra.reduce_path)
    )
    assert sample_check(seed=3, trials=1, field=11).passed
    # the first trial reduces the generator words, so the counters are live
    assert calls["path"] > 0 and calls["reduce_path"] > 0
    calls.clear()
    assert sample_check(seed=4, trials=3, field=11).passed
    assert calls["_fraction_mod"] == calls["path"] == calls["reduce_path"] == 0


def test_sample_check_rejects_constraint_violation():
    with pytest.raises(ValueError, match="constraint"):
        sample_check(theta=[1, 0, 0, 0, 0, 0, 0, 0, 0])


def test_sample_check_explicit_theta():
    report = sample_check(theta=[1, -1, 0, 0, 0, -3, 0, 0, 0])
    assert report.passed


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


def test_theorem_residuals_expose_images():
    rows = theorem_residuals(DeformationParameters.symbolic_constrained())
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
    params = DeformationParameters.numeric(theta)
    algebra = build_pe6()
    quiver = algebra.quiver
    n = algebra.nilpotency_degree
    g = generators(quiver)

    # the seven relations with f expanded in the free algebra
    relations = deformed_relations(params)
    relations[5] = (
        g["b0"] * g["a0"] + g["b2"] * g["a2"] + g["a3"] * g["b3"]
        + corner_embedding()(params.as_free_element())
    )
    change = substituted_generators(params)
    rows = theorem_residuals(params)
    assert len(rows) == len(relations) == 7
    for (name, image, nf), relation in zip(rows, relations):
        full = change(relation)
        assert image == FreeElement(
            quiver, {p: c for p, c in full.terms.items() if len(p) < n}
        ), name
        assert nf == algebra.normal_form(full), name

    s = derived_constants(params)
    primed = primed_generators(s)
    for mode in ("corrected", "printed"):
        for name, terms in inverse_formula_terms(s, mode).items():
            cut = _element_from_symbols(quiver, terms, primed, below=n)
            full = _element_from_symbols(quiver, terms, primed)
            assert algebra.normal_form(cut) == algebra.normal_form(full), (mode, name)
