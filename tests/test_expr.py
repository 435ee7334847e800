"""Tests for the expression grammar: parsing, printing, round-trips."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from preproj.expr import (
    INDETERMINATE_IDENTS,
    MAX_COEFFICIENT_BITS,
    ExprError,
    Ident,
    Mul,
    Neg,
    Num,
    Pow,
    ProductTable,
    Sum,
    evaluate,
    format_element,
    parse,
    parse_element,
    printable,
    to_element,
)
from preproj.freealg import FreeElement, generators
from preproj.polyring import Poly
from preproj.quiver import Path, builtin_quiver

E6 = builtin_quiver("E6")
L2 = builtin_quiver("L2")


def test_parse_relation_sum():
    e = parse_element("b0*a0 + b2*a2 + a3*b3", E6)
    assert len(e.terms) == 3
    assert e.is_endpoint_homogeneous()
    assert e.endpoints() == (3, 3)


def test_parse_cube_of_sum():
    e = parse_element("(x+y)^3", L2)
    g = generators(L2)
    assert e == (g["x"] + g["y"]) ** 3
    assert len(e.terms) == 8


def test_cross_quiver_identifier_rejected():
    with pytest.raises(ExprError, match="not defined in quiver"):
        parse_element("a0 + x", E6)
    with pytest.raises(ExprError, match="not defined in quiver"):
        parse_element("a0 + x", L2)


def test_unknown_identifier_with_position():
    with pytest.raises(ExprError) as exc:
        parse("x + zz")
    assert exc.value.line == 1
    assert exc.value.column == 5


def test_syntax_error_reports_expected_tokens():
    with pytest.raises(ExprError) as exc:
        parse("x + ")
    assert exc.value.expected


def test_juxtaposition_is_rejected():
    with pytest.raises(ExprError):
        parse("x y")


def test_rationals():
    e = parse_element("3/2*x - 2*y + 1/3", L2)
    g = generators(L2)
    expected = (
        g["x"].scale(Fraction(3, 2))
        - g["y"].scale(2)
        + FreeElement.one(L2).scale(Fraction(1, 3))
    )
    assert e == expected
    with pytest.raises(ExprError):
        parse("1/0")


def test_indeterminate_coefficients():
    e = parse_element("t1*x*y - (t3 - t1)*y*x", L2)
    g = generators(L2)
    expected = (g["x"] * g["y"]).scale(Poly.var(1)) - (g["y"] * g["x"]).scale(
        Poly.var(3) - Poly.var(1)
    )
    assert e == expected


def test_power_binds_to_atom():
    e = parse_element("x*y^2", L2)
    g = generators(L2)
    assert e == g["x"] * g["y"] * g["y"]


def test_negation():
    e = parse_element("-x - -y", L2)
    g = generators(L2)
    assert e == -g["x"] + g["y"]


def test_idempotents():
    e = parse_element("e0 + e3", E6)
    assert len(e.terms) == 2
    assert all(len(p) == 0 for p in e.terms)


def test_format_examples():
    g = generators(L2)
    x, y = g["x"], g["y"]
    assert format_element(FreeElement.zero(L2)) == "0"
    assert format_element(-(x * y * x) - x * y * y - y * x * y) == (
        "- x*y*x - x*y*y - y*x*y"
    )
    assert format_element(x.scale(Fraction(3, 2))) == "3/2*x"
    assert format_element(x.scale(Poly.var(1) + 1)) == "(1 + t1)*x"
    assert format_element(x.scale(-2 * Poly.var(8))) == "- 2*t8*x"


def test_format_orders_by_length_then_lex():
    g = generators(L2)
    x, y = g["x"], g["y"]
    e = y * x + x + y * y * x + FreeElement.one(L2)
    assert format_element(e) == "e0 + x + y*x + y*y*x"


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)
small_polys = st.one_of(
    st.builds(Poly.const, small_fractions),
    st.builds(
        lambda c, i: Poly.const(c) * Poly.var(i),
        small_fractions,
        st.integers(min_value=1, max_value=9),
    ),
    st.builds(
        lambda c, i, j: Poly.const(c) * Poly.var(i) + Poly.var(j),
        small_fractions,
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
    ),
)


@st.composite
def elements(draw, quiver, coefficients=small_polys):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        length = draw(st.integers(min_value=0, max_value=3))
        source = draw(st.sampled_from(quiver.vertices))
        target = draw(st.sampled_from(quiver.vertices))
        candidates = quiver.enumerate_paths(source, target, length)
        if not candidates:
            continue
        path = draw(st.sampled_from(candidates))
        coeff = draw(coefficients)
        terms[path] = terms.get(path, Poly.zero()) + coeff
    return FreeElement(quiver, terms)


@settings(max_examples=200, deadline=None)
@given(st.one_of(elements(E6), elements(L2)))
def test_print_then_parse_round_trip(e):
    text = format_element(e)
    back = parse_element(text, e.quiver)
    assert back == e
    assert format_element(back) == text


# monomials in t1..t3 of degree 2 or 3, powers among them
monomials = st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=3).map(
    lambda factors: tuple(factors.count(i) for i in range(3)) + (0,) * 6
)


@st.composite
def polynomial_coefficients(draw, min_terms=2):
    """Polynomials of ``min_terms`` to four terms in t1..t3, printed in
    parentheses when there are several; their coefficients are often 1 or
    -1, which the printer leaves out."""
    terms = {}
    for _ in range(draw(st.integers(min_value=min_terms, max_value=4))):
        terms[draw(monomials)] = draw(st.one_of(st.sampled_from([1, -1]), small_fractions))
    return Poly(terms)


@settings(max_examples=300, deadline=None)
@given(st.one_of(elements(E6, polynomial_coefficients()), elements(L2, polynomial_coefficients())))
def test_print_then_parse_round_trip_with_polynomial_coefficients(e):
    # a leading "- t1^2" inside parentheses would read back as (-t1)^2
    text = format_element(e)
    back = parse_element(text, e.quiver)
    assert back == e
    assert format_element(back) == text


@pytest.mark.parametrize("text,printed", [
    ("(0 - t1^2 + t2^3)*x", "(- 1*t1^2 + t2^3)*x"),
    # unary "-" binds tighter than "^": -t2^2 is (-t2)^2 = t2^2
    ("(-t2^2*t3 + t1)*x", "(t1 + t2^2*t3)*x"),
    ("(-t1^2 - t2)*x", "(- t2 + t1^2)*x"),
    ("(0 - t1^2*t2 - t3^2)*x", "(- 1*t3^2 - t1^2*t2)*x"),
])
def test_a_negative_leading_power_is_printed_so_that_it_reads_back(text, printed):
    e = parse_element(text, L2)
    assert format_element(e) == printed
    assert parse_element(printed, L2) == e


@settings(max_examples=300, deadline=None)
@given(polynomial_coefficients(min_terms=0))
def test_a_polynomial_prints_so_that_it_reads_back(p):
    assert evaluate(parse(str(p)), L2) == p


@pytest.mark.parametrize("text,printed", [
    ("0 - t5^2 + t1*t2*t3", "- 1*t5^2 + t1*t2*t3"),
    ("0 - t1^2*t2", "- 1*t1^2*t2"),
    ("-t1*t2^2", "- t1*t2^2"),
    ("t1 - t2^2", "t1 - t2^2"),
    ("0 - 2*t1^2", "- 2*t1^2"),
])
def test_a_polynomial_with_a_negative_leading_power_prints_its_unit(text, printed):
    p = evaluate(parse(text), L2)
    assert str(p) == printed
    assert evaluate(parse(printed), L2) == p


# -- evaluation: scalars kept as scalars against the per-node slow path ---------


def per_node_element(ast, quiver, scope=None, below=None):
    """Slow path of ``to_element``: every node a ``FreeElement``, every
    number and indeterminate a multiple of the identity, every product and
    power through ``FreeElement.mul`` from the left, dropping the paths of
    length ``below`` or more.  A name of ``scope`` shadows the quiver's."""
    arrow_names = {a.name for a in quiver.arrows}
    idem_names = {f"e{v}": v for v in quiver.vertices}
    scope = scope or {}

    def ev(node):
        if isinstance(node, Num):
            return FreeElement.one(quiver).scale(node.value)
        if isinstance(node, Ident):
            if node.name in scope:
                value = scope[node.name]()
                if isinstance(value, Poly):
                    return FreeElement.one(quiver).scale(value)
                return value if isinstance(value, FreeElement) else FreeElement.from_path(value)
            if node.name in arrow_names:
                return FreeElement.from_path(quiver.path(node.name))
            if node.name in idem_names:
                return FreeElement.from_path(quiver.idempotent(idem_names[node.name]))
            if node.name in INDETERMINATE_IDENTS:
                return FreeElement.one(quiver).scale(Poly.var(int(node.name[1:])))
            raise ExprError(
                f"identifier {node.name!r} is not defined in quiver {quiver.name}",
                node.line,
                node.column,
            )
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Pow):
            base, result = ev(node.base), FreeElement.one(quiver)
            for _ in range(node.exponent):
                result = result.mul(base, below)
            return result
        if isinstance(node, Mul):
            result = None
            for f in node.factors:
                value = ev(f)
                result = value if result is None else result.mul(value, below)
            return result
        if isinstance(node, Sum):
            result = FreeElement.zero(quiver)
            for sign, part in node.parts:
                value = ev(part)
                result = result + (value if sign > 0 else -value)
            return result
        raise TypeError(f"unexpected AST node {node!r}")

    return ev(ast)


def _chain_exponent(node):
    """The largest product of exponents along a chain of nested powers."""
    if isinstance(node, Pow):
        return max(node.exponent, 1) * _chain_exponent(node.base)
    if isinstance(node, Neg):
        return _chain_exponent(node.operand)
    if isinstance(node, Mul):
        return max(map(_chain_exponent, node.factors))
    if isinstance(node, Sum):
        return max(_chain_exponent(part) for _, part in node.parts)
    return 1


# every identifier of the grammar: on either quiver some are undefined
ast_leaves = st.one_of(
    st.builds(Num, st.fractions(min_value=-4, max_value=4, max_denominator=3)),
    st.sampled_from(sorted(INDETERMINATE_IDENTS)).map(Ident),
    st.sampled_from(["x", "y", "e0", "a0", "b0", "a2", "b2", "a3", "b3", "e3"]).map(Ident),
)
asts = st.recursive(
    ast_leaves,
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(Pow, children, st.integers(min_value=0, max_value=3)),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: Mul(tuple(fs))),
        st.lists(st.tuples(st.sampled_from([1, -1]), children), min_size=1, max_size=3).map(
            lambda parts: Sum(tuple(parts))
        ),
    ),
    max_leaves=8,
)


@settings(max_examples=500, deadline=None)
@given(asts, st.sampled_from([E6, L2]))
def test_scalars_kept_as_scalars_match_the_per_node_evaluator(ast, quiver):
    assume(_chain_exponent(ast) <= 9)
    try:
        expected = per_node_element(ast, quiver)
    except ExprError as error:
        with pytest.raises(ExprError) as exc:
            to_element(ast, quiver)
        assert str(exc.value) == str(error)
        return
    assert to_element(ast, quiver) == expected


# Products with runs of arrows among idempotents, scalars and the names of
# a scope, one of which shadows an arrow; the names are mostly the
# quiver's own, so that runs compose, with one of the other quiver.  The
# scope's paths have length 2 and ``below`` is 3 or more, so no single
# factor or sum is long enough to be kept whole where the slow path
# would drop it.
RUN_NAMES = {
    "E6": ["a0", "b0", "a3", "b3", "a4", "b4", "e0", "e3", "u", "x"],
    "L2": ["x", "y", "x", "y", "e0", "u", "a0"],
}
RUN_SCOPES = {
    "E6": {"u": lambda: E6.path("b0", "a0"), "a0": lambda: E6.path("a0", "b0")},
    "L2": {"u": lambda: L2.path("x", "y"), "x": lambda: Poly.var(2)},
}


def run_asts(names):
    leaves = st.one_of(
        st.sampled_from(names).map(Ident),
        st.sampled_from([Num(Fraction(2)), Num(Fraction(-1, 2)), Ident("t1")]),
    )
    def factors(children):
        # a product's factor may be negated once or twice: -u*v, u*-(-v)
        return st.one_of(
            children, st.builds(Neg, st.one_of(children, st.builds(Neg, children)))
        )

    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(factors(children), min_size=2, max_size=6).map(lambda fs: Mul(tuple(fs))),
            st.builds(Pow, children, st.integers(min_value=0, max_value=2)),
            st.lists(st.tuples(st.sampled_from([1, -1]), children), min_size=1, max_size=2).map(
                lambda parts: Sum(tuple(parts))
            ),
        ),
        max_leaves=12,
    )


@settings(max_examples=500, deadline=None)
@given(st.data(), st.sampled_from([E6, L2]), st.sampled_from([None, 3, 4, 6]), st.booleans())
def test_runs_of_arrows_match_the_per_node_evaluator(data, quiver, below, scoped):
    ast = data.draw(run_asts(RUN_NAMES[quiver.name]))
    scope = RUN_SCOPES[quiver.name] if scoped else None
    try:
        expected = per_node_element(ast, quiver, scope, below)
    except ExprError as error:
        with pytest.raises(ExprError) as exc:
            to_element(ast, quiver, scope, below)
        assert str(exc.value) == str(error)
        return
    assert to_element(ast, quiver, scope, below) == expected


@pytest.mark.parametrize("text,below,word", [
    ("x*y*x", 3, "0"),
    ("x*y", 3, "x*y"),
    ("2*x*t1*y*x", 3, "0"),
    ("a3*a4*b4*b3*a3", 5, "0"),
    ("-a3*a4*b4*b3", 5, "- a3*a4*b4*b3"),
])
def test_a_run_of_arrows_of_length_below_is_zero(text, below, word):
    quiver = E6 if "a" in text else L2
    ast = parse(text)
    assert str(to_element(ast, quiver, below=below)) == word
    assert str(per_node_element(ast, quiver, below=below)) == word


@pytest.mark.parametrize("text,word", [
    ("b3*a3*a4*b4*b3", "b3*a3*a4*b4*b3"),
    ("2*b0*t1*a0*b2*a2", "2*t1*b0*a0*b2*a2"),
    ("x*x*y*x*y*y*x", "x*x*y*x*y*y*x"),
    ("a0*a0*b0", "0"),
])
def test_a_run_of_arrows_is_one_path_built_on_its_indices(monkeypatch, text, word):
    ast = parse(text)
    quiver = E6 if "x" not in text else L2
    built = []
    unchecked = Path._unchecked.__func__

    def counting(cls, *args):
        built.append(args[1])
        return unchecked(cls, *args)

    monkeypatch.setattr("preproj.expr.compose", None)
    monkeypatch.setattr(Path, "_unchecked", classmethod(counting))
    value = evaluate(ast, quiver)
    monkeypatch.undo()
    assert str(value) == word
    indices = tuple(quiver.arrow_index[a] for a in text.split("*") if a in quiver.arrow_index)
    assert built == ([] if word == "0" else [indices])


@pytest.mark.parametrize("text,identities", [
    ("1 + x + 2", 1), ("(1 + x)*(2 + y) - t1 + 3*e0", 1), ("x + y - 2*x", 0), ("5", 1),
    ("t1*t2 - t2 + x", 1), ("(x + 1)^3 + (y - 1)^2", 1),
])
def test_to_element_builds_the_identity_at_most_once(monkeypatch, text, identities):
    built = []
    one = FreeElement.one

    def counting_one(quiver):
        built.append(quiver)
        return one(quiver)

    monkeypatch.setattr(FreeElement, "one", staticmethod(counting_one))
    result = parse_element(text, L2)
    assert len(built) == identities
    monkeypatch.undo()
    assert result == per_node_element(parse(text), L2)


@pytest.mark.parametrize("quiver,text", [
    (L2, "x^65536"), (L2, "(x^256)^256"), (L2, "((y^2)^0)^32768"), (L2, "1^65536*x"),
    (L2, "(-1)^65536*x + 0^65536*y"), (L2, "2^14284*x"), (E6, "(b0*a0)^65536 + a3^1"),
])
def test_exponents_up_to_the_cap_are_accepted(quiver, text):
    # the rejected ones run in a memory-limited child process, in test_cli
    to_element(parse(text), quiver)


# -- the cap on the coefficients of a scalar power ---------------------------------

def _power_ast(c, d, k):
    """(c + d*t1)^k * x"""
    return Mul((Pow(Sum(((1, Num(c)), (1, Mul((Num(d), Ident("t1")))))), k, 1, 1), Ident("x")))


def assert_capped_or_printable(c, d, k):
    """The power is rejected exactly when k * ceil(log2 max(S, D)) exceeds
    the cap, S the sum of |c| and |d| over their common denominator D; an
    accepted power has printable coefficients only."""
    den = lcm(c.denominator, d.denominator)
    num = abs(c.numerator) * (den // c.denominator) + abs(d.numerator) * (den // d.denominator)
    bits = k * (max(num, den) - 1).bit_length() if c or d else 0
    if bits > MAX_COEFFICIENT_BITS:
        with pytest.raises(ExprError, match=f"coefficients of {bits} bits .* at 1:1"):
            to_element(_power_ast(c, d, k), L2)
    else:
        assert all(map(printable, to_element(_power_ast(c, d, k), L2).terms.values()))


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(max_denominator=10**6).filter(lambda c: abs(c.numerator) < 10**9),
    st.integers(min_value=0, max_value=20000),
)
def test_an_accepted_constant_power_prints(c, k):
    assert_capped_or_printable(c, Fraction(0), k)


huge_fractions = st.builds(
    Fraction, st.integers(min_value=-(10**150), max_value=10**150), st.integers(1, 10**150)
)


@settings(max_examples=100, deadline=None)
@given(huge_fractions, huge_fractions, st.integers(min_value=0, max_value=40))
def test_an_accepted_polynomial_power_prints(c, d, k):
    assert_capped_or_printable(c, d, k)


# -- the exponent cap, checked while parsing ---------------------------------------


@pytest.mark.parametrize("text,outer,column", [
    ("x^65537", 65537, 3),
    # the first offending power in pre-order: the innermost of its chain,
    # past two powers that are each at the cap
    ("y + ((x^65536)^65536)^0", 2**32, 9),
    ("x*(y*(x^2)^300)^300 + y^2", 90000, 12),
    ("((x^2)^3 + (y^256)^256)^2", 131072, 15),
    ("-(x + -(y^3)^30000)^2", 180000, 11),
])
def test_nested_exponents_over_the_cap_are_rejected_at_the_first_offender(text, outer, column):
    with pytest.raises(ExprError) as exc:
        parse(text)
    assert str(exc.value) == f"nested exponents multiply to {outer} (at most 65536) at 1:{column}"


def test_a_syntax_error_comes_before_the_exponent_cap():
    with pytest.raises(ExprError, match="unexpected end of input at 1:18"):
        parse("((x^2)^256)^256 +")


def test_the_cap_reads_the_largest_chain_not_the_product_of_all_exponents():
    # 2^16 in each of two chains, side by side: each chain is at the cap
    for text in ("x^256*y^256*(x^16)^4096", "(x^256)^256 + (y^65536)^1 - x^0"):
        to_element(parse(text), L2)


# -- scope: the names the derivation catalog binds ---------------------------------


SCOPE_TEST_NAMES = frozenset({"u", "u'", "c"})


def test_a_scope_binds_paths_elements_and_scalars():
    g = generators(E6)
    u_path = E6.path("b0", "a0")
    scope = {
        "u": lambda: u_path,
        "u'": lambda: g["b0"] * g["a0"] + g["b2"] * g["a2"],
        "c": lambda: Poly.var(2) - 1,
        "t1": lambda: Poly.var(3),
    }
    ast = parse("b3*u*u'*a3 - c*t1*u + t2*a3*b3", SCOPE_TEST_NAMES)
    b0a0 = g["b0"] * g["a0"]
    expected = (
        g["b3"] * b0a0 * (b0a0 + g["b2"] * g["a2"]) * g["a3"]
        - (Poly.var(2) - 1) * Poly.var(3) * b0a0
        + Poly.var(2) * g["a3"] * g["b3"]
    )
    assert to_element(ast, E6, scope) == expected


def test_a_word_of_scope_paths_is_one_path_and_forms_no_product(monkeypatch):
    u_path, c = E6.path("b0", "a0"), Poly.var(1)
    scope = {"u": lambda: u_path, "c": lambda: c}
    ast = parse("b3*u*u*a3", SCOPE_TEST_NAMES)
    scaled = parse("-2*c*b3*u*a3", SCOPE_TEST_NAMES)

    def forbidden(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(FreeElement, "mul", forbidden)
    monkeypatch.setattr(Poly, "__mul__", forbidden)
    monkeypatch.setattr(Poly, "__rmul__", forbidden)
    monkeypatch.setattr(type(E6.path("a0")), "__init__", forbidden)
    value = evaluate(ast, E6, scope)
    assert str(value) == "b3*b0*a0*b0*a0*a3"
    assert len(value) == 6
    with pytest.raises(AssertionError, match="a product was formed"):
        evaluate(scaled, E6, scope)
    monkeypatch.undo()
    assert str(evaluate(scaled, E6, scope)) == "- 2*t1*b3*b0*a0*a3"


@pytest.mark.parametrize("text,message", [
    ("a2'", "unexpected character \"'\" at 1:3"),
    ("x + u'", "unexpected character \"'\" at 1:6"),
    ("c*x", "unknown identifier 'c' at 1:1"),
])
def test_scope_names_are_unknown_without_the_scope(text, message):
    with pytest.raises(ExprError) as exc:
        parse(text)
    assert str(exc.value) == message
    parse(text.replace("a2'", "u'"), SCOPE_TEST_NAMES)


def test_truncation_drops_long_products_only():
    scope = {"u": lambda: E6.path("b0", "a0")}
    g = generators(E6)
    ast = parse("b3*u*a3 + b3*u*a3*a4 + 2*b3*u*u*a3 + (a3*b3)^2 + b3*a3", frozenset({"u"}))
    cut = to_element(ast, E6, scope, below=5)
    full = to_element(ast, E6, scope)
    b3xa3 = g["b3"] * g["b0"] * g["a0"] * g["a3"]
    assert full == (
        b3xa3 + b3xa3 * g["a4"] + 2 * g["b3"] * g["b0"] * g["a0"] * g["b0"] * g["a0"] * g["a3"]
        + g["a3"] * g["b3"] * g["a3"] * g["b3"] + g["b3"] * g["a3"]
    )
    assert cut == FreeElement(E6, {p: c for p, c in full.terms.items() if len(p) < 5})
    assert len(cut.terms) == 3


# -- a product table changes no value ---------------------------------------------

# one object per name for the module, as ``e6.SymbolicSetup`` hands out
# one per name for its run, so that the table finds their products
_TABLE_VALUES = {
    "u": parse_element("x + y", L2),
    "v": parse_element("2*x*y - t1*y", L2),
    "p": L2.path("x", "y"),
    "q": L2.path("y", "x", "x"),
    "c": Poly.var(2),
}
TABLE_SCOPE = {name: (lambda value=value: value) for name, value in _TABLE_VALUES.items()}


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(run_asts(["u", "v", "p", "q", "c", "x", "y"]), st.sampled_from([None, 2, 3, 4, 6])),
    min_size=1,
    max_size=6,
))
def test_a_product_table_changes_no_value(evaluations):
    """Slow path of ``ProductTable``: each text read with one table, twice
    over, the second time from the products the first put in it, has the
    value it has without a table, at every ``below``."""
    table = ProductTable()
    for _ in range(2):
        for ast, below in evaluations:
            assert to_element(ast, L2, TABLE_SCOPE, below, table) == to_element(
                ast, L2, TABLE_SCOPE, below
            )


def test_a_negated_factor_finds_its_product_in_the_table():
    """A negated factor is read as -1 on the held value itself, so -u*v,
    u*-v, --u*v and -u*-v are +-(u*v), which the table forms once."""
    table = ProductTable()
    names = frozenset(TABLE_SCOPE)
    uv = to_element(parse("u*v", names), L2, TABLE_SCOPE, None, table)
    for text, sign in (("-u*v", -1), ("u*-v", -1), ("--u*v", 1), ("-u*-v", 1)):
        value = to_element(parse(text, names), L2, TABLE_SCOPE, None, table)
        assert value == uv.scale(sign) == to_element(parse(text, names), L2, TABLE_SCOPE)
    assert len(table.formed) == 1


def test_a_product_table_keys_both_operands_and_below():
    """A product of two held values is found again only for the same two
    operands and ``below``: u*v cut below 2 is not u*v cut below 3, nor
    kept whole, nor u*p, nor v*u."""
    table = ProductTable()
    texts = [("u*v", 2), ("u*v", 3), ("u*v", None), ("u*p", None), ("v*u", None), ("u*v*q", None)]
    values = set()
    for text, below in texts * 2:
        value = to_element(parse(text, frozenset(TABLE_SCOPE)), L2, TABLE_SCOPE, below, table)
        assert value == to_element(parse(text, frozenset(TABLE_SCOPE)), L2, TABLE_SCOPE, below)
        values.add(str(value))
    assert len(values) == len(texts)
    # one product per text, each formed once: u*v*q finds u*v kept whole
    # and forms only its product with q
    assert len(table.formed) == len(texts)
    assert all(id(_TABLE_VALUES[name]) in table.held for name in "uvpq")
