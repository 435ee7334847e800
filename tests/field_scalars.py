"""Field scalars with operator arithmetic: the tests' reference for the
numeric oracle, which computes on integers (``oracle._Scaled`` over Q, ``int``
residues over GF(p)).

``RationalScalars`` and ``PrimeFieldScalars`` bundle a field's conversion,
one and random draw; ``random_element`` makes the RNG calls of
``oracle._draw_theta`` for one free theta.
"""

import random
from fractions import Fraction


class RationalScalars:
    """Exact rational arithmetic: the reference for a trial over Q."""

    name = "rationals"
    p = None  # no modulus: the integer oracle keeps a denominator

    def convert(self, value: Fraction) -> Fraction:
        return Fraction(value)

    def one(self) -> Fraction:
        return Fraction(1)

    def random_element(self, rng: random.Random) -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


class GF:
    """A prime-field scalar with operator arithmetic."""

    __slots__ = ("p", "value")

    def __init__(self, p: int, value: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "value", value % p)

    def __setattr__(self, name, value):
        raise AttributeError("GF is immutable")

    def _lift(self, other):
        if isinstance(other, GF):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other
        if isinstance(other, int):
            return GF(self.p, other)
        if isinstance(other, Fraction):
            return GF(self.p, fraction_mod(other, self.p))
        return None

    def __add__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else GF(self.p, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else GF(self.p, self.value - other.value)

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else GF(self.p, other.value - self.value)

    def __mul__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else GF(self.p, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        return GF(self.p, -self.value)

    def __pow__(self, n: int):
        return GF(self.p, pow(self.value, n, self.p))

    def __eq__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self.value == other.value

    def __hash__(self):
        return hash((self.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


def fraction_mod(fr: Fraction, p: int) -> int:
    if fr.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {fr} is divisible by {p}")
    return fr.numerator * pow(fr.denominator, -1, p) % p


class PrimeFieldScalars:
    """GF(p) arithmetic: the reference for a trial over GF(p)."""

    def __init__(self, p: int):
        self.p = p
        self.name = f"GF({p})"

    def convert(self, value: Fraction) -> GF:
        return GF(self.p, fraction_mod(Fraction(value), self.p))

    def one(self) -> GF:
        return GF(self.p, 1)

    def random_element(self, rng: random.Random) -> GF:
        return GF(self.p, rng.randrange(self.p))
