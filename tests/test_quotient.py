"""Tests for quotient construction, normal forms, and structure constants.

The 2-arrow quotient is pinned against a hand elimination; the graded
dimensions of re6 are additionally cross-checked against a brute-force
span of the ideal (every u*r*v product), which is independent of the
incremental row generation used by the engine.  The basis-driven build is
compared table for table with an elimination over every path (the
``full_path_build`` fixture), and the Dynkin preprojective algebras are
checked against the Etingof-Eu Hilbert series.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from engine_helpers import graded_dimensions, map_coefficients
from field_scalars import PrimeFieldScalars
from preproj import quotient
from preproj.e6 import build_pe6, build_re6, pe6_relations
from preproj.freealg import FreeElement, generators
from preproj.polyring import Poly
from preproj.quiver import Arrow, Quiver, builtin_quiver, compose
from preproj.quotient import DEFAULT_MAX_DEGREE, RelationSet, build_quotient

L2 = builtin_quiver("L2")
GL = generators(L2)
X, Y = GL["x"], GL["y"]


def two_arrow_quiver():
    return Quiver("A", [0, 3], [Arrow("a0", 0, 3), Arrow("b0", 3, 0)])


def test_two_arrow_hand_elimination():
    # Hand oracle: ideal (a0*b0) leaves e0, e3, a0, b0, b0*a0 and nothing else;
    # degree 3 dies because a0*b0*a0 and b0*a0*b0 contain the relation.
    q = two_arrow_quiver()
    a0 = FreeElement.from_path(q.path("a0"))
    b0 = FreeElement.from_path(q.path("b0"))
    alg = build_quotient(q, [a0 * b0], name="two-arrow")
    assert alg.dimension() == 5
    assert alg.nilpotency_degree == 3
    assert [str(p) for p in alg.basis] == ["e0", "e3", "a0", "b0", "b0*a0"]
    assert alg.normal_form((b0 * a0) * (b0 * a0)).is_zero()
    # corner at 0 is just the idempotent
    assert [str(p) for p in alg.corner_basis(0)] == ["e0"]
    assert alg.dimension_at(0, 0) == 1


def test_re6_dimension_and_nilpotency():
    alg = build_re6()
    assert alg.dimension() == 12
    assert alg.nilpotency_degree == 6
    assert graded_dimensions(alg) == [1, 2, 3, 3, 2, 1]


def brute_force_ideal_rank(relations: RelationSet, degree: int, rational_rank) -> int:
    """Rank of span{u*r*v} via plain elimination; independent oracle."""
    rows = []
    for row in relations.rows:
        gdeg = len(next(iter(row)))
        src = next(iter(row)).source
        tgt = next(iter(row)).target
        for lu in range(0, degree - gdeg + 1):
            lv = degree - gdeg - lu
            for u in L2.enumerate_paths(0, src, lu):
                for v in L2.enumerate_paths(tgt, 0, lv):
                    rows.append(
                        {compose(compose(u, p), v): c for p, c in row.items()}
                    )
    return rational_rank(rows)


def test_re6_graded_dimensions_against_brute_force_ideal(rational_rank):
    relations = RelationSet(L2, [X * X, Y * Y * Y, (X + Y) ** 3])
    alg = build_re6()
    for degree in range(2, 7):
        rank = brute_force_ideal_rank(relations, degree, rational_rank)
        expected_dim = 2 ** degree - rank
        got = graded_dimensions(alg)[degree] if degree < alg.nilpotency_degree else 0
        assert got == expected_dim


def test_basis_words_of_the_12_element_basis_are_independent(rational_rank):
    alg = build_re6()
    words = ["", "x", "y", "xy", "yx", "yy", "xyx", "xyy", "yxy", "xyxy", "yxyy", "xyxyy"]
    seen = set()
    vectors = []
    for word in words:
        e = FreeElement.from_path(L2.idempotent(0))
        for ch in word:
            e = e * GL[ch]
        nf = alg.normal_form(e)
        assert not nf.is_zero()
        vectors.append(nf)
    # linear independence over the canonical basis coordinates
    rank = rational_rank(
        {p: c.as_rational() for p, c in v.coords.items()} for v in vectors
    )
    assert rank == 12


def test_trivial_quotient():
    alg = build_quotient(L2, [X, Y], name="trivial")
    assert alg.dimension() == 1
    assert alg.nilpotency_degree == 1


@pytest.mark.parametrize("word,expected", [
    ("yyx", "- x*y*x - x*y*y - y*x*y"),
    ("yxyx", "x*y*x*y"),
    ("yyxyy", "- x*y*x*y*y"),
])
def test_re6_rewrites(word, expected):
    alg = build_re6()
    e = FreeElement.from_path(L2.idempotent(0))
    for ch in word:
        e = e * GL[ch]
    assert str(alg.normal_form(e)) == expected


def test_pe6_rewrite_a2b2a2b2():
    alg = build_pe6()
    g = generators(alg.quiver)
    assert alg.normal_form(g["a2"] * g["b2"] * g["a2"] * g["b2"]).is_zero()


def test_qe_mul_examples():
    alg = build_re6()
    x = alg.normal_form(X)
    y = alg.normal_form(Y)
    one = alg.one()
    assert (x * x).is_zero()
    assert one * x == x and x * one == x
    assert ((x + y) * (x + y) * (x + y)).is_zero()


def test_qe_mul_matches_free_reduction():
    alg = build_re6()
    rng = random.Random(5)
    paths = [p for d in range(0, 4) for p in L2.enumerate_paths(0, 0, d)]
    for _ in range(50):
        a = FreeElement(
            L2, {rng.choice(paths): Poly.const(rng.randint(-4, 4)) for _ in range(2)}
        )
        b = FreeElement(
            L2, {rng.choice(paths): Poly.const(rng.randint(-4, 4)) for _ in range(2)}
        )
        assert alg.normal_form(a) * alg.normal_form(b) == alg.normal_form(a * b)


def by_index(algebra, coords):
    """Path-keyed coordinates keyed by basis index, as ``product`` takes them."""
    return {algebra.basis_index[p]: c for p, c in coords.items()}


def by_path(algebra, coords):
    """Index-keyed coordinates, as ``product`` returns them, keyed by path."""
    return {algebra.basis[k]: c for k, c in coords.items()}


def _random_coords(rng, algebra, size, denominators=(1, 2, 3)):
    """Nonzero rational coordinates on ``size`` random basis paths."""
    return {
        b: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice(denominators))
        for b in rng.sample(algebra.basis, size)
    }


@pytest.mark.parametrize("build", [build_re6, build_pe6])
def test_coordinate_product_matches_multiply_and_free_reduction(build):
    alg = build()
    rng = random.Random(17)
    for _ in range(40):
        u = _random_coords(rng, alg, rng.randint(1, 6))
        v = _random_coords(rng, alg, rng.randint(1, 6))
        a = alg.element({p: Poly.const(c) for p, c in u.items()})
        b = alg.element({p: Poly.const(c) for p, c in v.items()})
        product = by_path(alg, alg.product(by_index(alg, u), by_index(alg, v)))
        assert all(product.values())
        assert alg.element({p: Poly.const(c) for p, c in product.items()}) == alg.multiply(a, b)
        assert alg.normal_form(a.lift() * b.lift()) == alg.multiply(a, b)


@pytest.mark.parametrize("p", [2, 11])
def test_coordinate_product_over_prime_field_is_rational_product_mod_p(p):
    alg = build_pe6()
    field = PrimeFieldScalars(p)
    rng = random.Random(p)
    nonzero_mod_p = 0
    for _ in range(40):
        # denominators prime to both 2 and 11
        u = _random_coords(rng, alg, rng.randint(1, 6), denominators=(1, 3, 5, 7))
        v = _random_coords(rng, alg, rng.randint(1, 6), denominators=(1, 3, 5, 7))
        product = by_path(alg, alg.product(by_index(alg, u), by_index(alg, v)))
        reduced = {b: field.convert(c) for b, c in product.items()}
        expected = {b: c for b, c in reduced.items() if c}
        got = by_path(alg, alg.product(
            by_index(alg, {b: field.convert(c) for b, c in u.items()}),
            by_index(alg, {b: field.convert(c) for b, c in v.items()}),
        ))
        assert got == expected
        nonzero_mod_p += bool(got)
    assert nonzero_mod_p > 10


def pairwise_product(alg, u, v):
    """Slow path of ``QuotientAlgebra.product``: reduce every composed pair.

    Reads the reduction table (``Fraction`` coefficients), not the
    structure constants, and keeps the sum path-keyed.
    """
    out = {}
    for pu, cu in u.items():
        for pv, cv in v.items():
            path = compose(pu, pv)
            if path is None:
                continue
            for b, c in alg.reduce_path(path).items():
                term = cu * cv * c
                out[b] = out[b] + term if b in out else term
    return {b: c for b, c in out.items() if c}


COORDINATE_TYPES = {
    "rationals": lambda c: c,
    "GF(2)": PrimeFieldScalars(2).convert,
    "GF(11)": PrimeFieldScalars(11).convert,
    "constant Poly": Poly.const,
}


@pytest.mark.parametrize("kind", list(COORDINATE_TYPES))
@pytest.mark.parametrize("build", [build_re6, build_pe6])
def test_coordinate_product_matches_pairwise_reference(build, kind):
    alg = build()
    convert = COORDINATE_TYPES[kind]
    rng = random.Random(29)
    nonzero = 0
    for _ in range(40):
        u, v = (
            {b: convert(c) for b, c in coords.items() if convert(c)}
            for coords in (
                _random_coords(rng, alg, rng.randint(1, 8), denominators=(1, 3, 5, 7))
                for _ in range(2)
            )
        )
        # one coordinate on the unit keeps every basis element of the other
        # factor in play, with its unit and non-unit constants
        u[alg.quiver.idempotent(rng.choice(alg.quiver.vertices))] = convert(Fraction(1))
        got = by_path(alg, alg.product(by_index(alg, u), by_index(alg, v)))
        assert got == pairwise_product(alg, u, v)
        sample = next(iter(u.values()))
        assert all(type(c) is type(sample) and c for c in got.values())
        nonzero += bool(got)
    assert nonzero > 20


@pytest.mark.parametrize("build", [build_re6, build_pe6])
def test_structure_constants_are_ints(build):
    alg = build()
    alg.precompute_structure_constants()
    constants = [c for entry in alg._structure.values() for _, c in entry]
    assert constants and all(type(c) is int for c in constants)
    assert {abs(c) for c in constants} == {1}


# quiver, relations and number of elimination pivots of each built-in algebra
ELIMINATIONS = {
    "pe6": (lambda: (builtin_quiver("E6"), pe6_relations()), 150),
    "re6": (lambda: (L2, [X * X, Y * Y * Y, (X + Y) ** 3]), 13),
}


@pytest.mark.parametrize("name", list(ELIMINATIONS))
def test_every_elimination_pivot_is_plus_or_minus_one(monkeypatch, name):
    """The integer certificate's claim that reduction divides by nothing:
    every pivot recorded while a fresh build eliminates the relations has
    lead coefficient +1 or -1."""
    insert_row = quotient._insert_row
    leads = []

    def recording(pivots, row):
        # reduce a copy as _insert_row does, to read the lead it records
        probe = dict(row)
        while probe and (lead := max(probe)) in pivots:
            quotient._add_multiple(probe, -probe.pop(lead), pivots[lead])
        before = len(pivots)
        insert_row(pivots, row)
        assert len(pivots) == before + bool(probe)
        if probe:
            leads.append(probe[max(probe)])

    relations, count = ELIMINATIONS[name]
    monkeypatch.setattr(quotient, "_insert_row", recording)
    build_quotient(*relations(), name=name)
    assert len(leads) == count
    assert {abs(c) for c in leads} == {1}


def assert_table_holds_the_nonzero_rows_of(alg, reduction):
    """The reduction table against a full one (every path below N).

    Every path below N reduces as in ``reduction``, and the table holds no
    path of length >= N and no empty row: so it stores exactly the nonzero
    rows of ``reduction``, and ``reduce_path`` fills in the zero ones.
    """
    n = alg.nilpotency_degree
    assert {len(p) for p in reduction} == set(range(n)), alg.name
    for p, row in reduction.items():
        assert alg.reduce_path(p) == row, (alg.name, p)
    assert all(len(p) < n and row for p, row in alg.reduction.items()), alg.name


def test_tables_stop_below_the_nilpotency_degree(rational_rank, full_path_build):
    q = two_arrow_quiver()
    a0 = FreeElement.from_path(q.path("a0"))
    b0 = FreeElement.from_path(q.path("b0"))
    for alg in (build_pe6(), build_re6(), build_quotient(q, [a0 * b0], name="two-arrow")):
        n = alg.nilpotency_degree
        quiver = alg.quiver
        reduction, _, _ = full_path_build(quiver, alg.relations)
        assert_table_holds_the_nonzero_rows_of(alg, reduction)
        # paths of length >= N are not in the table and reduce to zero
        longer = [
            p
            for d in (n, n + 1)
            for p in quiver.enumerate_paths(quiver.vertices[0], quiver.vertices[0], d)
        ]
        assert longer and all(alg.reduce_path(p) == {} for p in longer)
    # slow path: the whole brute-force ideal fills degrees N and N + 1 of re6
    relations = RelationSet(L2, [X * X, Y * Y * Y, (X + Y) ** 3])
    for degree in (6, 7):
        assert brute_force_ideal_rank(relations, degree, rational_rank) == 2 ** degree


def test_dimensions():
    assert build_re6().dimension() == 12
    assert build_pe6().dimension_at(3, 3) == 12
    assert build_quotient(L2, [X, Y]).dimension() == 1


def test_corner_algebra():
    # e3 A e3 is closed under the product of A: every product of two
    # corner basis words reduces to loops at vertex 3
    pe6 = build_pe6()
    corner = [pe6.basis_index[p] for p in pe6.corner_basis(3)]
    assert len(corner) == 12
    products = [pe6.product({i: 1}, {j: 1}) for i in corner for j in corner]
    assert sum(map(bool, products)) > 12
    for k in {k for product in products for k in product}:
        assert pe6.basis[k].source == pe6.basis[k].target == 3
    re6 = build_re6()
    assert [str(p) for p in re6.corner_basis(0)] == [str(p) for p in re6.basis]


def test_relations_have_zero_normal_form():
    for alg in (build_re6(), build_pe6()):
        for row in alg.relations.rows:
            e = FreeElement(alg.quiver, {p: Poly.const(c) for p, c in row.items()})
            assert alg.normal_form(e).is_zero()


def test_grading_of_products():
    alg = build_re6()
    for i, p in enumerate(alg.basis):
        for j, q in enumerate(alg.basis):
            for k, _ in alg.structure_constant(i, j):
                assert len(alg.basis[k]) == len(p) + len(q)


def test_structure_constants_csv_shape():
    alg = build_quotient(L2, [X, Y], name="tiny")
    csv = alg.structure_constants_csv()
    assert csv == "0,0,0,1"
    # rows by ascending (left, right, result) index, whatever the table order
    for alg in (build_re6(), build_pe6()):
        lines = alg.structure_constants_csv().splitlines()
        keys = [tuple(map(int, line.split(",")[:3])) for line in lines]
        assert keys == sorted(set(keys))


def test_degenerate_relations():
    zero = FreeElement.zero(L2)
    alg = build_quotient(L2, [X * X, Y * Y * Y, (X + Y) ** 3, zero, X * X])
    assert alg.dimension() == 12


def test_invalid_relations_rejected():
    t1 = Poly.var(1)
    with pytest.raises(ValueError, match="non-rational"):
        RelationSet(L2, [X.scale(t1)])
    with pytest.raises(ValueError, match="degree-homogeneous"):
        RelationSet(L2, [X + X * X])
    e6 = builtin_quiver("E6")
    g = generators(e6)
    with pytest.raises(ValueError, match="endpoint-homogeneous"):
        RelationSet(e6, [g["a0"] * g["b0"] + g["a1"] * g["b1"]])


def test_max_degree_guard():
    # K<x,y>/(x*y) is infinite-dimensional: words y^a x^b survive
    with pytest.raises(ValueError, match="finite-dimensional"):
        build_quotient(L2, [X * Y], max_degree=8)


def test_associativity_all_re6_triples():
    alg = build_re6()
    n = alg.dimension()
    for i in range(n):
        for j in range(n):
            uv = alg.structure_constant(i, j)
            for k in range(n):
                lhs = {}
                for t, c in uv:
                    for m, d in alg.structure_constant(t, k):
                        lhs[m] = lhs.get(m, Fraction(0)) + c * d
                rhs = {}
                for t, c in alg.structure_constant(j, k):
                    for m, d in alg.structure_constant(i, t):
                        rhs[m] = rhs.get(m, Fraction(0)) + c * d
                assert {m: c for m, c in lhs.items() if c} == {
                    m: c for m, c in rhs.items() if c
                }


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)
small_polys = st.builds(
    lambda c, i, d: Poly.const(c) * Poly.var(i) ** d,
    small_fractions,
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2),
)


@st.composite
def l2_elements(draw, max_paths=3, max_len=4, polynomial=False):
    terms = {}
    n = draw(st.integers(min_value=0, max_value=max_paths))
    for _ in range(n):
        length = draw(st.integers(min_value=0, max_value=max_len))
        path = draw(st.sampled_from(L2.enumerate_paths(0, 0, length)))
        coeff = draw(small_polys) if polynomial else Poly.const(draw(small_fractions))
        terms[path] = terms.get(path, Poly.zero()) + coeff
    return FreeElement(L2, terms)


@settings(max_examples=200, deadline=None)
@given(l2_elements(polynomial=True))
def test_normal_form_idempotent(e):
    alg = build_re6()
    nf = alg.normal_form(e)
    assert alg.normal_form(nf.lift()) == nf


@settings(max_examples=200, deadline=None)
@given(l2_elements(polynomial=True), l2_elements(polynomial=True), small_polys, small_polys)
def test_normal_form_linear(a, b, p, q):
    alg = build_re6()
    assert alg.normal_form(a.scale(p) + b.scale(q)) == (
        alg.normal_form(a) * p + alg.normal_form(b) * q
    )


@settings(max_examples=200, deadline=None)
@given(
    l2_elements(polynomial=True),
    st.lists(small_fractions, min_size=9, max_size=9),
)
def test_evaluation_commutes_with_reduction(e, values):
    alg = build_re6()
    sigma = dict(zip(range(1, 10), values))

    def ev(poly):
        return Poly.const(poly.evaluate(sigma))

    assert map_coefficients(alg.normal_form(e), ev) == alg.normal_form(
        map_coefficients(e, ev)
    )


# -- the basis-driven build against its slow path and the Hilbert series -----


def assert_matches_full_path_elimination(quiver, relations, full_path_build):
    reduction, basis, n = full_path_build(quiver, relations)
    # max_degree=n keeps a faulty build that misses the vanishing degree
    # from growing without bound
    alg = build_quotient(quiver, relations, max_degree=n)
    assert_table_holds_the_nonzero_rows_of(alg, reduction)
    assert alg.basis == basis
    assert alg.nilpotency_degree == n


@pytest.mark.parametrize("which", ["pe6", "re6", "two-arrow"])
def test_build_matches_full_path_elimination(which, full_path_build):
    if which == "pe6":
        quiver = builtin_quiver("E6")
        relations = pe6_relations()
    elif which == "re6":
        quiver, relations = L2, [X * X, Y * Y * Y, (X + Y) ** 3]
    else:
        quiver = two_arrow_quiver()
        g = generators(quiver)
        relations = [g["a0"] * g["b0"]]
    relations = RelationSet(quiver, relations)
    assert_matches_full_path_elimination(quiver, relations, full_path_build)


small_ints = st.integers(min_value=-2, max_value=2)


@st.composite
def finite_l2_relations(draw):
    """x^a, y^b, a relation led by y*x, and up to two random relations.

    The leading words include x^a, y^b and y*x, so every normal word is
    some x^i y^j with i < a and j < b: the quotient is finite.
    """
    a, b = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    relations = [X ** a, Y ** b, Y * X - X * Y * draw(small_ints) - X * X * draw(small_ints)]
    for _ in range(draw(st.integers(0, 2))):
        degree = draw(st.integers(2, 4))
        relation = FreeElement.zero(L2)
        for _ in range(draw(st.integers(1, 4))):
            word = draw(st.lists(st.sampled_from([X, Y]), min_size=degree, max_size=degree))
            term = word[0]
            for letter in word[1:]:
                term = term * letter
            relation = relation + term * draw(small_ints)
        relations.append(relation)
    return relations


@settings(max_examples=40, deadline=None)
@given(relations=finite_l2_relations())
def test_build_matches_full_path_elimination_on_l2(relations, full_path_build):
    assert_matches_full_path_elimination(L2, RelationSet(L2, relations), full_path_build)


DYNKIN = [
    *((f"A{n}", n, tuple((i, i + 1) for i in range(n - 1)), n + 1) for n in range(1, 7)),
    *(
        (f"D{n}", n, ((0, 2), (1, 2), *((i, i + 1) for i in range(2, n - 1))), 2 * n - 2)
        for n in range(4, 9)
    ),
    ("E6", 6, ((0, 3), (1, 2), (2, 3), (3, 4), (4, 5)), 12),
    ("E7", 7, ((0, 3), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)), 18),
]


@pytest.mark.parametrize("name,n,edges,h", DYNKIN, ids=[d[0] for d in DYNKIN])
def test_preprojective_hilbert_series(name, n, edges, h, dynkin_preprojective):
    """Graded dimensions per (degree, source, target) against Etingof-Eu.

    H_0 = I, H_1 = C (adjacency of the double quiver) and
    H_d = C*H_{d-1} - H_{d-2}; the algebra has dimension n*h*(h+1)/6 and
    vanishes from degree h - 1 on, h the Coxeter number.
    """
    quiver, relations = dynkin_preprojective(name, n, edges)
    alg = build_quotient(quiver, relations, name=name)
    adjacency = [[0] * n for _ in range(n)]
    for u, v in edges:
        adjacency[u][v] += 1
        adjacency[v][u] += 1
    layers = [[[int(i == j) for j in range(n)] for i in range(n)], adjacency]
    while len(layers) < h:
        prev, last = layers[-2], layers[-1]
        layers.append([
            [sum(adjacency[i][k] * last[k][j] for k in range(n)) - prev[i][j] for j in range(n)]
            for i in range(n)
        ])
    # H_{h-1} = 0: the series stops there
    assert not any(map(any, layers.pop()))
    counts = {}
    for p in alg.basis:
        key = (len(p), p.source, p.target)
        counts[key] = counts.get(key, 0) + 1
    expected = {
        (d, s, t): layer[s][t]
        for d, layer in enumerate(layers)
        for s in range(n)
        for t in range(n)
        if layer[s][t]
    }
    assert counts == expected
    assert alg.dimension() == n * h * (h + 1) // 6
    assert alg.nilpotency_degree == h - 1


def test_infinite_quotient_reaches_the_default_max_degree_quickly():
    # K<x,y>/(x*y) has d + 1 basis words in degree d but 2^d paths: the
    # build must cost the former to get to degree 64 and give up there
    start = time.perf_counter()
    with pytest.raises(ValueError, match="finite-dimensional"):
        build_quotient(L2, [X * Y])
    assert DEFAULT_MAX_DEGREE == 64
    assert time.perf_counter() - start < 5
