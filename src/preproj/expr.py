"""Surface syntax for path-algebra elements: parser and pretty-printer.

Grammar (LL(1); ``*`` is mandatory between factors):

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := atom ("^" nat)?
    atom     := rational | ident | "(" expr ")" | "-" atom
    rational := int ("/" posint)?
    ident    := "a0".."a4" | "b0".."b4" | "x" | "y" | "e0".."e5" | "t1".."t9"

An atom nests at most ``MAX_NESTING`` = 100 deep: each "(" and each unary
"-" still open around it counts one level, so x inside 100 parentheses,
or after 100 unary minus signs, is accepted, and the 101st level is an
error at its "(" or "-".  The parser and the evaluator recurse on every
level, and the cap keeps them far inside Python's recursion limit.

The product of the exponents along any chain of nested powers, an
exponent 0 counted as 1, is at most ``MAX_EXPONENT`` = 2^16 = 65536:
``x^65536`` and ``(x^256)^256`` are accepted, ``x^65537`` and
``((x^2)^256)^256`` are rejected when the AST is evaluated.  A power of a
scalar (numbers and t1..t9), or of an element with an idempotent term,
is also rejected, before it is computed, when its coefficients could
exceed ``MAX_COEFFICIENT_DIGITS`` = 4300 digits, the default limit of
``str`` on an int: ``2^14284`` is accepted, ``2^14285``, ``3^10000``
and ``(2*e0)^14285`` are rejected (see ``to_element``).

The pretty-printer emits terms in the canonical order (path length, then
arrow-lexicographic) so output is diff-stable; printing then re-parsing
is the identity on canonical elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .freealg import FreeElement
from .polyring import NVARS, Poly
from .quiver import Path, Quiver, compose

ARROW_IDENTS = {f"a{i}" for i in range(5)} | {f"b{i}" for i in range(5)} | {"x", "y"}
IDEMPOTENT_IDENTS = {f"e{i}" for i in range(6)}
INDETERMINATE_IDENTS = {f"t{i}" for i in range(1, NVARS + 1)}
KNOWN_IDENTS = ARROW_IDENTS | IDEMPOTENT_IDENTS | INDETERMINATE_IDENTS
# the largest product of nested exponents that ``to_element`` accepts
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


def _tokenize(text: str) -> list[Token]:
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
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
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
            if tok.text not in KNOWN_IDENTS:
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


def parse(text: str):
    """Parse surface syntax to an AST; raises ExprError with position info."""
    return _Parser(_tokenize(text)).parse()


# -- AST evaluation ------------------------------------------------------------


def _check_exponents(node, outer: int = 1) -> None:
    """Reject the first power whose exponent, times those of the powers
    around it, exceeds ``MAX_EXPONENT`` (see ``to_element``)."""
    if isinstance(node, Pow):
        outer *= max(node.exponent, 1)
        if outer > MAX_EXPONENT:
            raise ExprError(
                f"nested exponents multiply to {outer} (at most {MAX_EXPONENT})",
                node.line,
                node.column,
            )
        _check_exponents(node.base, outer)
    elif isinstance(node, Neg):
        _check_exponents(node.operand, outer)
    elif isinstance(node, Mul):
        for factor in node.factors:
            _check_exponents(factor, outer)
    elif isinstance(node, Sum):
        for _, part in node.parts:
            _check_exponents(part, outer)


def _check_power(coeffs: list[Fraction], node: Pow, kind: str) -> None:
    """Reject the power at ``node`` of a base with the rational coefficients
    ``coeffs`` if a coefficient of it could have more than
    ``MAX_COEFFICIENT_DIGITS`` digits (see ``to_element``); ``kind`` names
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


def to_element(ast, quiver: Quiver) -> FreeElement:
    """Evaluate an AST to a FreeElement on the given quiver.

    Identifiers that are not arrows or idempotents of the quiver are
    rejected, which is what rules out mixing alphabets of different
    quivers in one expression.

    Numbers and t1..t9, with their products, negations, powers and sums,
    stay ``Poly`` scalars, and a product scales the product of its other
    factors by them.  This is exact because scalars are central in kQ and
    c*x = (c*1)*x, 1 the identity; a scalar becomes c*1 only where it is
    added to an element.  A run of arrows and idempotents in a product is
    one path, formed by ``compose``; the other products are
    ``FreeElement.mul``.

    Powers are formed by repeated squaring, so x^n builds x^(2^k) for
    2^k <= n.  The product of the exponents along any chain of nested
    powers, an exponent 0 counted as 1, may be at most ``MAX_EXPONENT``
    (2^16); a larger one is an ``ExprError`` at its exponent.  Without the
    cap "x^1000000000" would build one path of about 2^30 arrows.  A power
    of a scalar is an ``ExprError`` at its exponent, before it is
    computed, when its coefficients could have more than
    ``MAX_COEFFICIENT_DIGITS`` digits (see ``_check_power``): such a
    coefficient could not be printed, and "<4,000 nines>^65536" would
    build a number of 870 million bits.  So is a power of an element with
    a nonzero term of length 0, an idempotent: such a power never vanishes
    for its length, as e0^k = e0, and "(<4,000 nines>*e0)^65536" would
    build that number too.  A base with no such term is not checked,
    because its power may be zero in the quotient whatever its
    coefficients: "(2*x)^65536" reduces to 0 in re6.
    """
    _check_exponents(ast)
    arrow_names = {a.name for a in quiver.arrows}
    idem_names = {f"e{v}": v for v in quiver.vertices}

    def element(value) -> FreeElement:
        if isinstance(value, FreeElement):
            return value
        if isinstance(value, Path):
            return FreeElement.from_path(value)
        return FreeElement.one(quiver).scale(value)

    def ev(node):
        """A ``Poly`` scalar, a ``Path`` or a ``FreeElement``."""
        if isinstance(node, Num):
            return Poly.const(node.value)
        if isinstance(node, Ident):
            if node.name in arrow_names:
                return quiver.path(node.name)
            if node.name in idem_names:
                return quiver.idempotent(idem_names[node.name])
            if node.name in INDETERMINATE_IDENTS:
                return Poly.var(int(node.name[1:]))
            raise ExprError(
                f"identifier {node.name!r} is not defined in quiver {quiver.name}",
                node.line,
                node.column,
            )
        if isinstance(node, Neg):
            value = ev(node.operand)
            return FreeElement.from_path(value, -1) if isinstance(value, Path) else -value
        if isinstance(node, Pow):
            value = ev(node.base)
            if isinstance(value, Poly):
                _check_power(list(value.terms.values()), node, "scalar")
                return value ** node.exponent
            base = element(value)
            if any(not len(p) for p in base.terms):
                coeffs = [c for q in base.terms.values() for c in q.terms.values()]
                _check_power(coeffs, node, "element")
            return base.power(node.exponent)
        if isinstance(node, Mul):
            scalar = Poly.const(1)
            product = None  # a Path, a FreeElement, or None before the first
            for f in node.factors:
                value = ev(f)
                if isinstance(value, Poly):
                    scalar = scalar * value
                elif product is None:
                    product = value
                elif isinstance(product, Path) and isinstance(value, Path):
                    product = compose(product, value)
                    if product is None:
                        product = FreeElement.zero(quiver)
                else:
                    product = element(product).mul(element(value))
            if product is None:
                return scalar
            if isinstance(product, Path):
                return FreeElement.from_path(product, scalar)
            return product.scale(scalar)
        if isinstance(node, Sum):
            values = [(sign, ev(part)) for sign, part in node.parts]
            if all(isinstance(value, Poly) for _, value in values):
                result = Poly.zero()
                for sign, value in values:
                    result = result + value if sign > 0 else result - value
                return result
            result = FreeElement.zero(quiver)
            for sign, value in values:
                value = element(value)
                result = result + (value if sign > 0 else -value)
            return result
        raise TypeError(f"unexpected AST node {node!r}")

    return element(ev(ast))


def parse_element(text: str, quiver: Quiver) -> FreeElement:
    return to_element(parse(text), quiver)


# -- pretty-printing --------------------------------------------------------------


def _coefficient_prefix(poly: Poly) -> tuple[bool, str]:
    """(negative, text) where text is '' for a plain unit coefficient."""
    if poly.is_rational():
        value = poly.as_rational()
        negative = value < 0
        mag = abs(value)
        return negative, "" if mag == 1 else str(mag)
    if len(poly.terms) == 1:
        ((exp, coeff),) = poly.terms.items()
        negative = coeff < 0
        mag = abs(coeff)
        factors = [] if mag == 1 else [str(mag)]
        for i, e in enumerate(exp):
            if e == 1:
                factors.append(f"t{i + 1}")
            elif e > 1:
                factors.append(f"t{i + 1}^{e}")
        if negative and factors and "^" in factors[0]:
            # "- t1^2*..." would re-parse as (-t1)^2; force "- 1*t1^2*..."
            factors.insert(0, "1")
        return negative, "*".join(factors)
    return False, f"({poly})"


def format_element(element: FreeElement) -> str:
    """Canonical text: terms by (length, path-lex), '*' separated factors."""
    if element.is_zero():
        return "0"
    parts = []
    for path, coeff in element.sorted_terms():
        negative, prefix = _coefficient_prefix(coeff)
        body = str(path)
        if prefix:
            body = f"{prefix}*{body}"
        if not parts:
            parts.append(f"- {body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)
