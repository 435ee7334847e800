"""Surface syntax for path-algebra elements: parser and evaluator.

Grammar (LL(1); ``*`` is mandatory between factors):

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := atom ("^" nat)?
    atom     := rational | ident | "(" expr ")" | "-" atom
    rational := int ("/" posint)?
    ident    := "a0".."a4" | "b0".."b4" | "x" | "y" | "e0".."e5" | "t1".."t9"

A scope (see ``parse`` and ``evaluate``) binds further identifiers, such
as the primed generators "a2'" of the derivation catalog; ``reduce``
passes none, so there they stay unknown.

An atom nests at most ``MAX_NESTING`` = 100 deep: each "(" and each unary
"-" still open around it counts one level, so x inside 100 parentheses,
or after 100 unary minus signs, is accepted, and the 101st level is an
error at its "(" or "-".  The parser and the evaluator recurse on every
level, and the cap keeps them far inside Python's recursion limit.

The product of the exponents along any chain of nested powers, an
exponent 0 counted as 1, is at most ``MAX_EXPONENT`` = 2^16 = 65536:
``x^65536`` and ``(x^256)^256`` are accepted, ``x^65537`` and
``((x^2)^256)^256`` are rejected when the text is parsed.  A power of a
scalar (numbers and t1..t9), or of an element with an idempotent term,
is also rejected, before it is computed, when its coefficients could
exceed ``MAX_COEFFICIENT_DIGITS`` = 4300 digits, the default limit of
``str`` on an int: ``2^14284`` is accepted, ``2^14285``, ``3^10000``
and ``(2*e0)^14285`` are rejected (see ``evaluate``).

The pretty-printer, ``freealg.format_element``, which this module
exports too, emits terms in the canonical order (path length, then
arrow-lexicographic) so output is diff-stable; printing then re-parsing
is the identity on canonical elements, polynomial coefficients included
(``test_print_then_parse_round_trip_with_polynomial_coefficients``), as
a negative leading power prints "- 1*t1^2" (see ``polyring.signed_terms``).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .freealg import FreeElement, format_element
from .polyring import NVARS, Poly
from .quiver import Path, Quiver, compose

ARROW_IDENTS = {f"a{i}" for i in range(5)} | {f"b{i}" for i in range(5)} | {"x", "y"}
IDEMPOTENT_IDENTS = {f"e{i}" for i in range(6)}
INDETERMINATE_IDENTS = {f"t{i}" for i in range(1, NVARS + 1)}
KNOWN_IDENTS = ARROW_IDENTS | IDEMPOTENT_IDENTS | INDETERMINATE_IDENTS
# the largest product of nested exponents that ``parse`` accepts
MAX_EXPONENT = 2 ** 16
# the most "(" and unary "-" that the parser accepts around one atom
MAX_NESTING = 100
# The most digits a coefficient's numerator or denominator may have: the
# default limit of int -> str conversion (Python >= 3.10.7), fixed here so
# that every version accepts the same inputs.  |n| < 2^MAX_COEFFICIENT_BITS
# is below 10^MAX_COEFFICIENT_DIGITS, so it has at most that many digits.
MAX_COEFFICIENT_DIGITS = 4300
_DIGIT_BOUND = 10 ** MAX_COEFFICIENT_DIGITS
MAX_COEFFICIENT_BITS = _DIGIT_BOUND.bit_length() - 1


class ExprError(ValueError):
    """Parse or identifier-resolution failure, carrying line and column."""

    def __init__(self, message: str, line: int, column: int, expected=None):
        self.line = line
        self.column = column
        self.expected = sorted(expected) if expected else []
        detail = f"{message} at {line}:{column}"
        if self.expected:
            detail += f" (expected one of: {', '.join(self.expected)})"
        super().__init__(detail)


# -- AST -------------------------------------------------------------------


class Num(NamedTuple):
    value: Fraction


class Ident(NamedTuple):
    name: str
    line: int = 0
    column: int = 0


class Neg(NamedTuple):
    operand: object


class Pow(NamedTuple):
    base: object
    exponent: int
    line: int = 0  # of the exponent
    column: int = 0


class Mul(NamedTuple):
    factors: tuple


class Sum(NamedTuple):
    # (sign, term) pairs with sign in {+1, -1}
    parts: tuple


# -- tokenizer ----------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # INT, IDENT, SYMBOL, END
    text: str
    line: int
    column: int


_SYMBOLS = set("+-*/^()")
_DIGITS = set("0123456789")


def _tokenize(text: str, primes: bool = False) -> list[Token]:
    """The tokens of ``text``; with ``primes`` an identifier may end in "'"."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        # ASCII digits only: str.isdigit() also holds for "²", which int() refuses
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            while primes and j < len(text) and text[j] == "'":
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token("SYMBOL", ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("END", "", line, col))
    return tokens


def _int(tok: Token) -> int:
    """The value of an INT token.

    ``int`` refuses a literal of more digits than the interpreter's limit
    for integer string conversion (4,300 by default) with a ValueError;
    that is a fault of the input, so it is reported at the token.
    """
    try:
        return int(tok.text)
    except ValueError:
        raise ExprError(
            f"integer literal of {len(tok.text)} digits is too long", tok.line, tok.column
        ) from None


class _Parser:
    def __init__(self, tokens: list[Token], names: frozenset):
        self.tokens = tokens
        self.names = names
        self.pos = 0
        self.depth = 0  # "(" and unary "-" open around the current atom

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_symbol(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind == "SYMBOL" and tok.text == sym:
            return self.advance()
        raise ExprError(
            f"unexpected {tok.text!r}" if tok.kind != "END" else "unexpected end of input",
            tok.line,
            tok.column,
            expected={repr(sym)},
        )

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprError(
                f"unexpected {tok.text!r}",
                tok.line,
                tok.column,
                expected={"'+'", "'-'", "'*'", "'^'", "end of input"},
            )
        _check_exponents(node)
        return node

    def expr(self):
        parts = [(1, self.term())]
        while True:
            tok = self.peek()
            if tok.kind == "SYMBOL" and tok.text in "+-":
                self.advance()
                sign = 1 if tok.text == "+" else -1
                parts.append((sign, self.term()))
            else:
                break
        return parts[0][1] if len(parts) == 1 and parts[0][0] == 1 else Sum(tuple(parts))

    def term(self):
        factors = [self.factor()]
        while True:
            tok = self.peek()
            if tok.kind == "SYMBOL" and tok.text == "*":
                self.advance()
                factors.append(self.factor())
            else:
                break
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def factor(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "SYMBOL" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "INT":
                raise ExprError(
                    "exponent must be a natural number",
                    exp_tok.line,
                    exp_tok.column,
                    expected={"integer"},
                )
            self.advance()
            return Pow(base, _int(exp_tok), exp_tok.line, exp_tok.column)
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            value = Fraction(_int(tok))
            nxt = self.peek()
            if nxt.kind == "SYMBOL" and nxt.text == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "INT" or _int(den_tok) == 0:
                    raise ExprError(
                        "denominator must be a positive integer",
                        den_tok.line,
                        den_tok.column,
                        expected={"positive integer"},
                    )
                self.advance()
                value = value / _int(den_tok)
            return Num(value)
        if tok.kind == "IDENT":
            self.advance()
            if tok.text not in KNOWN_IDENTS and tok.text not in self.names:
                raise ExprError(
                    f"unknown identifier {tok.text!r}", tok.line, tok.column
                )
            return Ident(tok.text, tok.line, tok.column)
        if tok.kind == "SYMBOL" and tok.text in "(-":
            if self.depth == MAX_NESTING:
                raise ExprError(
                    f"nesting of '(' and unary '-' deeper than {MAX_NESTING}",
                    tok.line,
                    tok.column,
                )
            self.advance()
            self.depth += 1
            if tok.text == "(":
                node = self.expr()
                self.expect_symbol(")")
            else:
                node = Neg(self.atom())
            self.depth -= 1
            return node
        raise ExprError(
            f"unexpected {tok.text!r}" if tok.kind != "END" else "unexpected end of input",
            tok.line,
            tok.column,
            expected={"number", "identifier", "'('", "'-'"},
        )


def parse(text: str, names: frozenset = frozenset()):
    """Parse surface syntax to an AST; raises ExprError with position info.

    ``names`` are identifiers beyond the grammar's, bound by the scope the
    AST is to be evaluated in (see ``evaluate``); with them, an identifier
    may end in "'", as the primed generators do.

    The exponent cap (see ``evaluate``) is checked here, by
    ``_check_exponents`` once the whole text is read: a syntax error
    anywhere comes first, and no power is computed before the cap is
    checked.
    """
    primes = any(name.endswith("'") for name in names)
    return _Parser(_tokenize(text, primes), names).parse()


# -- AST evaluation ------------------------------------------------------------


def _check_exponents(node, outer: int = 1) -> None:
    """Reject the first power whose exponent, times those of the powers
    around it, exceeds ``MAX_EXPONENT`` (see ``parse``)."""
    kind = type(node)
    if kind is Mul:
        for factor in node.factors:
            _check_exponents(factor, outer)
    elif kind is Sum:
        for _, part in node.parts:
            _check_exponents(part, outer)
    elif kind is Pow:
        outer *= max(node.exponent, 1)
        if outer > MAX_EXPONENT:
            raise ExprError(
                f"nested exponents multiply to {outer} (at most {MAX_EXPONENT})",
                node.line,
                node.column,
            )
        _check_exponents(node.base, outer)
    elif kind is Neg:
        _check_exponents(node.operand, outer)


def _check_power(coeffs: list[Fraction], node: Pow, kind: str) -> None:
    """Reject the power at ``node`` of a base with the rational coefficients
    ``coeffs`` if a coefficient of it could have more than
    ``MAX_COEFFICIENT_DIGITS`` digits (see ``evaluate``); ``kind`` names
    the base in the message.

    With D the lcm of the denominators and S the sum of |numerator| * D /
    denominator, the base is q / D for a q with integer coefficients whose
    absolute values sum to S.  That holds for a ``Poly`` scalar, a sum of
    c_m * m over monomials m of Q[t1..t9], and for an element, a sum of
    q_p * p over paths p with ``Poly`` coefficients q_p, whose coefficients
    are those of all the q_p.  So base^k = q^k / D^k, and every
    coefficient of q^k is at most S^k in absolute value: the absolute
    values of the coefficients sum to at most S^k, because a product of two
    monomials, or of two (path, monomial) pairs in kQ, is one monomial or
    zero.  Each numerator of base^k is then at most S^k and each
    denominator divides D^k.  With b = ceil(log2 max(S, D)), both are at
    most 2^(k*b), so k*b <= ``MAX_COEFFICIENT_BITS`` keeps them printable.
    For a constant n/d, b is the bit length of max(|n|, d) - 1, so 1 and
    -1 take any exponent.
    """
    if not coeffs:
        return
    # a list, not a generator, is unpacked (see ``oracle._vec_sum``)
    den = lcm(*[c.denominator for c in coeffs])
    num = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs)
    bits = node.exponent * (max(num, den) - 1).bit_length()
    if bits > MAX_COEFFICIENT_BITS:
        raise ExprError(
            f"{kind} power may have coefficients of {bits} bits"
            f" (at most {MAX_COEFFICIENT_BITS} bits, {MAX_COEFFICIENT_DIGITS} digits)",
            node.line,
            node.column,
        )


def printable(coeff: Poly) -> bool:
    """Whether every numerator and denominator of ``coeff`` has at most
    ``MAX_COEFFICIENT_DIGITS`` digits, so that ``str`` can print it."""
    return all(
        -_DIGIT_BOUND < c.numerator < _DIGIT_BOUND and c.denominator < _DIGIT_BOUND
        for c in coeff.terms.values()
    )


class ProductTable:
    """The free products of the values that one scope hands out, formed
    once each for the life of the table.

    ``evaluate`` given a table holds each value that its scope hands out
    (``held``, keyed by ``id``), and forms a product of two held values,
    in a product node, at most once per ``below``: ``formed`` maps
    (id of the left operand, id of the right one, ``below``) to the
    product, which is held in turn, so a chain such as x*b2'*a2' finds
    x*b2' and then its product with a2'.

    Sound because a key names its product exactly while the table lives:
      * the table keeps every held value, the operands of every product
        in it among them, so no id in a key is reused by another object
        while the table exists;
      * the operands are immutable: no code changes a ``.terms`` dict in
        place, or writes a ``Path``'s hashed fields, after the object is
        made (tier-1 tests check both on the source);
      * the product of two elements is fixed by them and by ``below``,
        the length from which its paths are dropped; the operands fix
        the quiver too.
    ``e6.SymbolicSetup`` keeps one table per set-up, for pe6's one quiver,
    so the table is freed with the set-up: it is per run, not a process
    cache.
    """

    __slots__ = ("held", "formed", "__weakref__")

    def __init__(self):
        self.held: dict = {}
        self.formed: dict = {}

    def hold(self, value):
        self.held[id(value)] = value
        return value


def evaluate(ast, quiver: Quiver, scope=None, below: int | None = None, products=None):
    """The value of an AST on the given quiver: a ``Poly`` scalar, a
    ``Path``, or a ``FreeElement``.

    Identifiers that are not arrows or idempotents of the quiver are
    rejected, which is what rules out mixing alphabets of different
    quivers in one expression.  The quiver's ``arrow_index`` and
    ``idempotent_index`` resolve its names.

    ``scope`` maps further names (see ``parse``) to functions of no
    arguments that give their values, a ``Poly``, a ``Path`` or a
    ``FreeElement`` on ``quiver``; a name in it shadows the quiver's names
    and t1..t9.  The function is called at every use, so one whose value is
    costly should keep it.  ``reduce`` passes no scope.

    Numbers and t1..t9, with their products, negations, powers and sums,
    stay ``Poly`` scalars, and a product scales the product of its other
    factors by them.  This is exact because scalars are central in kQ and
    c*x = (c*1)*x, 1 the identity; a scalar becomes c*1 only where it is
    added to an element, and 1 is built at most once per call.  A run of
    arrow identifiers in a product, with scalars among them or not, is one
    path: its arrow indices are checked to compose pair by pair and one
    ``Path`` is built for the run, and a run that does not compose is
    zero.  Other paths in a product, idempotents and the paths of the
    scope, join the path so far by ``compose``; the other products are
    ``FreeElement.mul``.

    With ``below`` set, every product and power drops the paths of length
    ``below`` or more (see ``FreeElement.mul``); sums and single factors
    are kept whole.  For ``below`` the nilpotency degree of a quotient this
    leaves the normal form unchanged.

    Powers are formed by repeated squaring, so x^n builds x^(2^k) for
    2^k <= n.  The product of the exponents along any chain of nested
    powers, an exponent 0 counted as 1, may be at most ``MAX_EXPONENT``
    (2^16); ``parse`` rejects a larger one, an ``ExprError`` at its
    exponent.  Without the cap "x^1000000000" would build one path of about
    2^30 arrows.  A power of a scalar is an ``ExprError`` at its exponent,
    before it is computed, when its coefficients could have more than
    ``MAX_COEFFICIENT_DIGITS`` digits (see ``_check_power``): such a
    coefficient could not be printed, and "<4,000 nines>^65536" would
    build a number of 870 million bits.  So is a power of an element with
    a nonzero term of length 0, an idempotent: such a power never vanishes
    for its length, as e0^k = e0, and "(<4,000 nines>*e0)^65536" would
    build that number too.  A base with no such term is not checked,
    because its power may be zero in the quotient whatever its
    coefficients: "(2*x)^65536" reduces to 0 in re6.

    ``products``, a ``ProductTable`` or None, keeps the products of the
    values of ``scope`` that a product node forms, and gives each again
    when it is asked for with the same operands and ``below``.  The
    reports' runner (``e6.run_text_checks``) and ``SymbolicSetup.element``
    pass their set-up's table; ``reduce`` and ``admissible`` pass none.
    """
    return _Evaluation(quiver, scope, below, products).value(ast)


class _Evaluation:
    """One call of ``evaluate``: the quiver, scope, ``below`` and product
    table it reads, and the identity once a scalar has been made an element.

    A node's value comes from the method for its type in ``_NODE_VALUES``.
    The methods are looked up on the class, not kept on the instance, so an
    evaluation refers to no function and forms no reference cycle.
    """

    __slots__ = ("quiver", "bound", "below", "products", "identity")

    def __init__(self, quiver: Quiver, scope, below: int | None, products):
        self.quiver = quiver
        self.bound = {} if scope is None else scope
        self.below = below
        self.products = products
        self.identity = None

    def value(self, node):
        """A ``Poly`` scalar, a ``Path`` or a ``FreeElement``."""
        method = _NODE_VALUES.get(type(node))
        if method is None:
            raise TypeError(f"unexpected AST node {node!r}")
        return method(self, node)

    def element(self, value) -> FreeElement:
        kind = type(value)
        if kind is FreeElement:
            return value
        if kind is Path:
            return FreeElement.from_path(value)
        if self.identity is None:
            self.identity = FreeElement.one(self.quiver)
        return self.identity.scale(value)

    def number(self, node: Num) -> Poly:
        return Poly.const(node.value)

    def ident(self, node: Ident):
        name = node.name
        if name in self.bound:
            value = self.bound[name]()
            return value if self.products is None else self.products.hold(value)
        quiver = self.quiver
        index = quiver.arrow_index.get(name)
        if index is not None:
            # one arrow always composes: no check of ``Path.__init__`` to run
            arrow = quiver.arrows[index]
            return Path._unchecked(quiver, (index,), arrow.source, arrow.target)
        vertex = quiver.idempotent_index.get(name)
        if vertex is not None:
            return quiver.idempotent(vertex)
        if name in INDETERMINATE_IDENTS:
            return Poly.var(int(name[1:]))
        raise ExprError(
            f"identifier {name!r} is not defined in quiver {quiver.name}",
            node.line,
            node.column,
        )

    def negation(self, node: Neg):
        value = self.value(node.operand)
        return FreeElement.from_path(value, -1) if type(value) is Path else -value

    def power(self, node: Pow):
        value = self.value(node.base)
        if type(value) is Poly:
            _check_power(list(value.terms.values()), node, "scalar")
            return value ** node.exponent
        base = self.element(value)
        if any(not len(p) for p in base.terms):
            coeffs = [c for q in base.terms.values() for c in q.terms.values()]
            _check_power(coeffs, node, "element")
        return base.power(node.exponent, self.below)

    def product(self, node: Mul):
        bound, arrow_index = self.bound, self.quiver.arrow_index
        scalar = None
        product = None  # a Path, a FreeElement, or None before the first
        run: list[int] = []  # arrow indices of the bare arrows since the last other factor
        for f in node.factors:
            if type(f) is Ident and f.name not in bound:
                index = arrow_index.get(f.name)
                if index is not None:
                    run.append(index)
                    continue
            value = self.value(f)
            if type(value) is Poly:
                scalar = value if scalar is None else scalar * value
                continue
            if run:
                product = self.join(product, run)
                run = []
            product = self.times(product, value)
        if run:
            product = self.join(product, run)
        if product is None:
            return scalar
        if scalar is None:
            return product
        if type(product) is Path:
            return FreeElement.from_path(product, scalar)
        return product.scale(scalar)

    def join(self, product, run: list[int]):
        """``times(product, p)`` for the path p of the arrows ``run``, built
        on their indices, or zero if two of them do not compose."""
        quiver = self.quiver
        arrows = quiver.arrows
        first = arrows[run[0]]
        target = first.target
        for index in run[1:]:
            arrow = arrows[index]
            if arrow.source != target:
                return FreeElement.zero(quiver)
            target = arrow.target
        below = self.below
        if product is None and len(run) > 1 and below is not None and len(run) >= below:
            # a product of two or more paths, cut as in ``times``
            return FreeElement.zero(quiver)
        return self.times(product, Path._unchecked(quiver, tuple(run), first.source, target))

    def times(self, product, value):
        """The product so far, a ``Path``, a ``FreeElement`` or None before
        the first factor, times a factor ``value`` that is not a scalar;
        looked up in the product table when both are held there."""
        if product is None:
            return value
        table = self.products
        if table is None or id(product) not in table.held or id(value) not in table.held:
            return self.form(product, value)
        key = (id(product), id(value), self.below)
        result = table.formed.get(key)
        if result is None:
            result = table.formed[key] = table.hold(self.form(product, value))
        return result

    def form(self, product, value):
        """The product of ``times``, formed anew."""
        if type(product) is Path and type(value) is Path:
            path = compose(product, value)
            below = self.below
            if path is None or below is not None and len(path) >= below:
                return FreeElement.zero(self.quiver)
            return path
        return self.element(product).mul(self.element(value), self.below)

    def sum(self, node: Sum):
        values = [(sign, self.value(part)) for sign, part in node.parts]
        if all(type(value) is Poly for _, value in values):
            (sign, result), *rest = values
            result = result if sign > 0 else -result
            for sign, value in rest:
                result = result + value if sign > 0 else result - value
            return result
        # one dict for all parts, accumulated as in ``FreeElement.__add__``
        terms: dict = {}
        for sign, value in values:
            for path, coeff in self.element(value).terms.items():
                coeff = coeff if sign > 0 else -coeff
                acc = terms.get(path)
                if acc is None:
                    terms[path] = coeff
                elif acc := acc + coeff:
                    terms[path] = acc
                else:
                    del terms[path]
        return FreeElement._unchecked(self.quiver, terms)


_NODE_VALUES = {
    Num: _Evaluation.number,
    Ident: _Evaluation.ident,
    Neg: _Evaluation.negation,
    Pow: _Evaluation.power,
    Mul: _Evaluation.product,
    Sum: _Evaluation.sum,
}


def to_element(
    ast, quiver: Quiver, scope=None, below: int | None = None, products=None
) -> FreeElement:
    """``evaluate``, with a scalar c made the element c*1 and a path p the
    element 1*p; ``products`` is the product table of ``evaluate``."""
    evaluation = _Evaluation(quiver, scope, below, products)
    return evaluation.element(evaluation.value(ast))


def parse_element(text: str, quiver: Quiver) -> FreeElement:
    return to_element(parse(text), quiver)
