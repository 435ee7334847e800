"""Exact sparse multivariate polynomials over the rationals in t1..t9.

A polynomial is a mapping from exponent vectors (length-9 tuples of
non-negative ints, one slot per indeterminate t1..t9) to nonzero Fraction
coefficients.  All arithmetic is exact; there is no floating point anywhere.
Degree-0 polynomials embed rationals losslessly.

Only ring arithmetic, evaluation and zero-testing are provided.  No factorization, no GCDs, no Groebner machinery.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import Mapping, Union

NVARS = 9
VAR_NAMES = tuple(f"t{i}" for i in range(1, NVARS + 1))

Exponent = tuple  # length-9 tuple of non-negative ints
Scalar = Union[int, Fraction]

_ZERO_EXP = (0,) * NVARS


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def monomial_key(exp: Exponent) -> tuple:
    """Sort key for the fixed degree-lexicographic monomial order."""
    return (sum(exp), exp)


class Poly:
    """Immutable sparse polynomial in t1..t9 with Fraction coefficients."""

    __slots__ = ("terms", "_plan")

    def __init__(self, terms: Mapping[Exponent, Scalar] | None = None):
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                c = _as_fraction(coeff)
                if c:
                    if len(exp) != NVARS:
                        raise ValueError(f"exponent vector must have length {NVARS}")
                    clean[tuple(exp)] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _unchecked(cls, terms: dict) -> "Poly":
        """A polynomial on ``terms`` as given, without the checks of ``__init__``.

        For results of ring arithmetic on polynomials, whose terms are
        already clean: every exponent is a sum of 9-slot tuples, hence a
        9-slot tuple, and every coefficient a nonzero Fraction.  Sums
        accumulate in a dict with no zero seed: the first term at a
        monomial is stored as it is, because 0 + t = t; a later one stores
        the sum, or deletes the key when the sum cancels.  A stored term is
        an operand's coefficient, an immutable Fraction that is safe to
        share and keeps its type, or its negation, or a product of two
        nonzero Fractions, which is a nonzero Fraction because Q is a
        domain (see ``_times``).  So no zero is ever stored.  A
        product with a constant operand keeps the other operand's
        exponents and multiplies each of its coefficients by a nonzero
        rational, so none comes out zero either (see ``__mul__``).
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(value: Scalar) -> "Poly":
        c = _as_fraction(value)
        return Poly({_ZERO_EXP: c}) if c else Poly()

    @staticmethod
    def var(index: int) -> "Poly":
        """The indeterminate t<index>, 1-based."""
        if not 1 <= index <= NVARS:
            raise ValueError(f"indeterminate index must be in 1..{NVARS}")
        exp = [0] * NVARS
        exp[index - 1] = 1
        return Poly({tuple(exp): Fraction(1)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(e == _ZERO_EXP for e in self.terms)

    def as_rational(self) -> Fraction:
        """The embedded rational value; raises if the degree is positive."""
        if not self.terms:
            return Fraction(0)
        if self.is_rational():
            return self.terms[_ZERO_EXP]
        raise ValueError(f"polynomial {self} is not a rational constant")

    def is_integral(self) -> bool:
        """Whether every coefficient is an integer."""
        return all(c.denominator == 1 for c in self.terms.values())

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]))

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = out.get(exp)
            if acc is None:
                out[exp] = coeff
            elif acc := acc + coeff:
                out[exp] = acc
            else:
                del out[exp]
        return Poly._unchecked(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._unchecked({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        """The product; a constant operand scales the other one's coefficients.

        Two constants, each with the single monomial ``_ZERO_EXP``, give
        ``{_ZERO_EXP: a * b}`` without the loop below.  This is the term the
        loop computes: (0,...,0) + (0,...,0) = (0,...,0), and the loop
        stores the first product at a monomial as it is (see
        ``_unchecked``).  No other product of nonzero polynomials is a
        constant.  A unit a or b returns an operand or its negation, as a
        unit k does below.

        One constant operand k, a constant ``Poly`` or a bare ``int`` or
        ``Fraction``, gives {e: c * k} over the other operand's terms c*t^e,
        also without the loop.  This is what the loop computes: e +
        (0,...,0) = e, so the exponents stay those of the other operand and
        stay distinct, no two products land on one monomial, and each is
        stored as the first term at its monomial: c * k, taken by
        ``_times`` with k as a ``Fraction``.  A zero k gives the zero
        polynomial; otherwise every c * k is nonzero, since Q is a domain,
        as ``_unchecked`` requires.

        A unit k forms no product at all: for k = 1 the result is the other
        operand itself, and for k = -1 its negation, since 1*p = p and
        (-1)*p = -p term by term.  Sharing the operand is sound because a
        ``Poly`` is immutable and no code changes its ``terms`` in place;
        its coefficients are already nonzero ``Fraction``s, and so are their
        negations.  The change of generators is unitriangular and every
        entry of pe6's reduction table is +1 or -1, so on the symbolic path
        most scalings are by a unit, and most coefficients the loop
        multiplies are units too; ``_times`` forms no product for those.
        """
        a = self.terms
        if isinstance(other, Poly):
            b = other.terms
            if len(a) == 1 == len(b) and _ZERO_EXP in a and _ZERO_EXP in b:
                ca, cb = a[_ZERO_EXP], b[_ZERO_EXP]
                if ca == 1 or ca == -1:
                    return other if ca == 1 else -other
                if cb == 1 or cb == -1:
                    return self if cb == 1 else -self
                return Poly._unchecked({_ZERO_EXP: ca * cb})
            if len(b) == 1 and _ZERO_EXP in b:
                scaled, k = self, b[_ZERO_EXP]
            elif len(a) == 1 and _ZERO_EXP in a:
                scaled, k = other, a[_ZERO_EXP]
            else:
                k = None
        elif isinstance(other, (int, Fraction)):
            scaled, k = self, other
        else:
            return NotImplemented
        if k is not None:
            if k == 1:
                return scaled
            if k == -1:
                return -scaled
            k = _as_fraction(k)
            return Poly._unchecked({e: _times(c, k) for e, c in scaled.terms.items()} if k else {})
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                # from a list, not a generator (see ``oracle._vec_sum``)
                exp = tuple([x + y for x, y in zip(ea, eb)])
                acc = out.get(exp)
                if acc is None:
                    out[exp] = _times(ca, cb)
                elif acc := acc + _times(ca, cb):
                    out[exp] = acc
                else:
                    del out[exp]
        return Poly._unchecked(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        """The n-th power by repeated squaring (see ``power``)."""
        return power(self, n, operator.mul, lambda: Poly.const(1))

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        """Equal to the hash of the rational a constant or zero polynomial
        equals (``Poly.const(3) == 3``), as ``__eq__`` requires."""
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and _ZERO_EXP in terms:
            return hash(terms[_ZERO_EXP])
        return hash(frozenset(terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- evaluation ----------------------------------------------------------

    def _evaluation_plan(self) -> tuple:
        """What evaluation needs of this polynomial alone, built on the first
        call and kept in ``_plan``: (L, tops, terms).

        L is the lcm of the coefficient denominators; ``tops`` holds
        (i, E_i) for each indeterminate t_(i+1) present, E_i its highest
        exponent; ``terms`` holds, for each term (a/b) * t^e, the integer
        a * (L/b) and the tuple of its exponents e_i in the order of
        ``tops``.  Why keeping it is sound: every part is a function of
        ``terms`` alone, and a ``Poly`` is immutable: ``__setattr__``
        raises and no code changes ``terms`` in place (see ``__mul__``),
        so a plan built once is the plan of every later call.  Nothing of
        a call is kept: the point, p, and whether p divides L are read
        anew by each call (``_value_over``).  Construction builds no plan,
        so arithmetic results that are never evaluated pay nothing.
        """
        try:
            return self._plan
        except AttributeError:
            pass
        terms = self.terms
        # a list, not a generator, is unpacked (see ``oracle._vec_sum``)
        scale = lcm(*[c.denominator for c in terms.values()])
        tops = [(i, top) for i, top in enumerate(map(max, zip(*terms))) if top]
        plan = (
            scale,
            tuple(tops),
            tuple([
                (c.numerator * (scale // c.denominator), tuple([exp[i] for i, _ in tops]))
                for exp, c in terms.items()
            ]),
        )
        object.__setattr__(self, "_plan", plan)
        return plan

    def _value_over(self, assignment: Mapping[int, Scalar], p: int | None) -> tuple[int, int]:
        """The value at ``assignment`` as (numerator, denominator) integers,
        reduced mod ``p`` when one is given; the fraction is not reduced.

        Each assigned value is read through its numerator and denominator,
        as a ``Fraction``'s.  Why one common denominator is exact: with
        E_i the highest exponent of t_i in the polynomial, v_i = n_i/d_i and
        L the lcm of the coefficient denominators, every term
        (a/b) * prod v_i^e_i equals
            a * (L/b) * prod n_i^e_i * d_i^(E_i - e_i)  /  (L * prod d_i^E_i),
        so the numerators sum over one denominator, and each n_i^e *
        d_i^(E_i - e) is formed once per call.  L, the E_i and each term's
        a * (L/b) and exponents come from ``_evaluation_plan``.  Mod p both
        integers are reduced once at the end, which is exact because
        Z -> GF(p) is a ring homomorphism; L is invertible mod p exactly
        when no coefficient denominator is divisible by p.
        """
        scale, tops, plan_terms = self._evaluation_plan()
        if p is not None and scale % p == 0:
            coeff = next(c for c in self.terms.values() if c.denominator % p == 0)
            raise ZeroDivisionError(f"coefficient {coeff} has denominator divisible by {p}")
        den = scale
        rows = []  # n^e * d^(E - e) for e = 0..E, one list per entry of ``tops``
        for i, top in tops:
            if i + 1 not in assignment:
                raise KeyError(f"no value bound for indeterminate t{i + 1}")
            value = assignment[i + 1]
            try:
                n, d = value.numerator, value.denominator
            except AttributeError:
                raise TypeError(
                    f"expected a rational value, got {type(value).__name__}"
                ) from None
            rows.append([n ** e * d ** (top - e) for e in range(top + 1)])
            den *= d ** top
        total = 0
        for term, exps in plan_terms:
            for row, e in zip(rows, exps):
                term *= row[e]
            total += term
        if p is None:
            return total, den
        return total % p, den % p

    def evaluate(self, assignment: Mapping[int, Scalar]) -> Fraction:
        """Exact value at a rational point.

        ``assignment`` maps 1-based indices to rationals (anything with a
        ``numerator`` and a ``denominator``) and must cover every
        indeterminate occurring in the polynomial.
        """
        num, den = self._value_over(assignment, None)
        return Fraction(num, den)

    def evaluate_mod(self, assignment: Mapping[int, int], p: int) -> int:
        """Value in the prime field GF(p); coefficients must be p-invertible."""
        num, den = self._value_over(assignment, p)
        return num * pow(den, -1, p) % p

    # -- printing ------------------------------------------------------------

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        return signed_sum(signed_terms(self))


def _times(ca: Fraction, cb: Fraction) -> Fraction:
    """``ca * cb`` for nonzero Fractions, with no product when one is +-1.

    Sound because 1*c = c and (-1)*c = -c, and the other operand is an
    immutable nonzero ``Fraction``, safe to share, as is its negation.
    """
    if ca == 1 or ca == -1:
        return cb if ca == 1 else -cb
    if cb == 1 or cb == -1:
        return ca if cb == 1 else -ca
    return ca * cb


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return NotImplemented


def power(base, n: int, mul, one):
    """``base`` to the n-th power, the products taken by ``mul(a, b)``.

    Square and multiply (Knuth, TAOCP vol. 2, 4.6.3): the result is the
    product of the squares base^(2^i) over the set bits i of n, so it
    takes at most 2*log2(n) products.  Sound for any associative ``mul``,
    because then every bracketing of base*...*base gives base^n.  For
    n = 0 the result is ``one()``, the identity, made only then; otherwise
    the first factor is the base itself, not a product with the identity.
    It stops as soon as the result or the squared base is zero (false),
    since every later product with a zero factor is zero again.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a non-negative integer")
    if n == 0:
        return one()
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
            if not result:
                return result
        n >>= 1
        if not n:
            return result
        base = mul(base, base)
        if not base:
            return base


def monomial_text(exp: Exponent, magnitude: Fraction) -> str:
    """``magnitude * t^exp`` as '*'-separated factors: the magnitude first,
    left out when it is 1 and a factor follows, then ``t<i>`` or
    ``t<i>^<e>`` for each indeterminate in ascending order."""
    factors = [
        VAR_NAMES[i] if e == 1 else f"{VAR_NAMES[i]}^{e}" for i, e in enumerate(exp) if e
    ]
    if magnitude != 1 or not factors:
        factors.insert(0, str(magnitude))
    return "*".join(factors)


def signed_terms(poly: Poly) -> list[tuple[bool, str]]:
    """The terms of ``poly`` in ``sorted_terms`` order as (negative, text)
    pairs for ``signed_sum``, each text a ``monomial_text``.

    A negative first term whose first factor is a power keeps its unit
    magnitude, "- 1*t1^2*...": unary "-" binds tighter than "^", so
    "- t1^2*..." would read back as (-t1)^2*....  A later term follows a
    binary "-", which binds looser than "^", and needs no such care.
    """
    terms = [(c < 0, monomial_text(e, abs(c))) for e, c in poly.sorted_terms()]
    if terms:
        negative, text = terms[0]
        if negative and "^" in text.split("*", 1)[0]:
            terms[0] = negative, "1*" + text
    return terms


def signed_sum(terms) -> str:
    """The (negative, text) pairs of ``terms`` as one signed sum: '- ' before
    every negative term, '+ ' before every later positive one, joined by
    spaces; '0' when there is no term."""
    parts = []
    for negative, text in terms:
        parts.append(f"- {text}" if negative else f"+ {text}" if parts else text)
    return " ".join(parts) if parts else "0"
