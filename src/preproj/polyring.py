"""Exact sparse multivariate polynomials over the rationals in t1..t9.

A polynomial is a mapping from exponent vectors (length-9 tuples of
non-negative ints, one slot per indeterminate t1..t9) to nonzero Fraction
coefficients.  All arithmetic is exact; there is no floating point anywhere.
Degree-0 polynomials embed rationals losslessly.

Only ring arithmetic, evaluation and zero-testing are provided.  No factorization, no GCDs, no Groebner machinery.
"""

from __future__ import annotations

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

    __slots__ = ("terms",)

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
        9-slot tuple; every coefficient is a sum or product of Fractions,
        or a Fraction times an int, hence a Fraction; and the arithmetic
        drops each coefficient that comes out zero.  A product with a
        constant operand keeps the other operand's exponents and multiplies
        each of its coefficients by a nonzero rational, so none comes out
        zero, because Q is a domain (see ``__mul__``).
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
            acc = out.get(exp, Fraction(0)) + coeff
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
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
        loop computes: (0,...,0) + (0,...,0) = (0,...,0), and
        ``Fraction(0) + a * b`` equals ``a * b`` and is a ``Fraction`` too.
        No other product of nonzero polynomials is a constant.

        One constant operand k, a constant ``Poly`` or a bare ``int`` or
        ``Fraction``, gives {e: c * k} over the other operand's terms c*t^e,
        also without the loop.  This is what the loop computes: e +
        (0,...,0) = e, so the exponents stay those of the other operand and
        stay distinct, no two products land on one monomial, and each sum
        ``Fraction(0) + c * k`` is ``c * k``, a ``Fraction`` because c is
        one.  A zero k gives the zero polynomial; otherwise every c * k is
        nonzero, since Q is a domain, as ``_unchecked`` requires.
        """
        a = self.terms
        if isinstance(other, Poly):
            b = other.terms
            if len(a) == 1 == len(b) and _ZERO_EXP in a and _ZERO_EXP in b:
                return Poly._unchecked({_ZERO_EXP: a[_ZERO_EXP] * b[_ZERO_EXP]})
            if len(b) == 1 and _ZERO_EXP in b:
                k = b[_ZERO_EXP]
            elif len(a) == 1 and _ZERO_EXP in a:
                a, k = b, a[_ZERO_EXP]
            else:
                k = None
        elif isinstance(other, (int, Fraction)):
            k = other
        else:
            return NotImplemented
        if k is not None:
            return Poly._unchecked({e: c * k for e, c in a.items()} if k else {})
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                # from a list, not a generator (see ``oracle._vec_sum``)
                exp = tuple([x + y for x, y in zip(ea, eb)])
                acc = out.get(exp, Fraction(0)) + ca * cb
                if acc:
                    out[exp] = acc
                else:
                    out.pop(exp, None)
        return Poly._unchecked(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        """The n-th power by repeated squaring (see ``FreeElement.power``)."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n == 0:
            return Poly.const(1)
        base, result = self, None
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

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
        d_i^(E_i - e) is formed once per call.  Mod p both integers are
        reduced once at the end, which is exact because Z -> GF(p) is a
        ring homomorphism; L is invertible mod p exactly when no
        coefficient denominator is divisible by p.
        """
        terms = self.terms
        # a list, not a generator, is unpacked (see ``oracle._vec_sum``)
        scale = lcm(*[c.denominator for c in terms.values()])
        if p is not None and scale % p == 0:
            coeff = next(c for c in terms.values() if c.denominator % p == 0)
            raise ZeroDivisionError(f"coefficient {coeff} has denominator divisible by {p}")
        den = scale
        rows = []  # (slot, n^e * d^(E - e) for e = 0..E)
        for i, top in enumerate(map(max, zip(*terms))):
            if not top:
                continue
            if i + 1 not in assignment:
                raise KeyError(f"no value bound for indeterminate t{i + 1}")
            value = assignment[i + 1]
            try:
                n, d = value.numerator, value.denominator
            except AttributeError:
                raise TypeError(
                    f"expected a rational value, got {type(value).__name__}"
                ) from None
            rows.append((i, [n ** e * d ** (top - e) for e in range(top + 1)]))
            den *= d ** top
        total = 0
        for exp, coeff in terms.items():
            term = coeff.numerator * (scale // coeff.denominator)
            for i, row in rows:
                term *= row[exp[i]]
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
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(VAR_NAMES[i])
                elif e > 1:
                    factors.append(f"{VAR_NAMES[i]}^{e}")
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(f"- {body}" if coeff < 0 else body)
            else:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(parts)


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return NotImplemented
