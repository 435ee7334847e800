"""The independent numeric oracle for the isomorphism theorem.

The theorem is checked by two pipelines.  The symbolic one, in ``e6``,
expands the change of generators over Q[t1..t9] and reduces the seven
deformed relations in pe6.  This module is the other one:
``numeric_relation_residuals`` computes the same seven relations at one
point theta, over Q or GF(p), on integer coordinate vectors keyed by
basis index, multiplied through pe6's structure constants alone.  No
polynomial, no free-algebra element and no reduction of a general
element takes part.  ``e6.sample_check`` compares the two.

The two pipelines share only these inputs, each defined here or passed
in, so that every name the oracle may use appears in its import lines:

  * ``THETA_MONOMIALS`` and ``DEFORMED_RELATION_NAMES``: the nine words
    of f and the names of the seven relations;
  * ``constraint_theta2`` and ``constraint_theta6``: the two
    admissibility constraints;
  * ``GeneratorScalars``: the named constants of the change of
    generators, over any commutative scalar ring;
  * ``primed_generator_terms``: the terms of the substituted generators;
  * ``_scalar_text`` and ``_reduction_is_integral``: how a report writes
    a scalar, and whether an algebra's normal forms are integral;
  * pe6 as built, passed in as an argument: its basis, the reduced
    generator words and its structure constants.

The module imports ``quotient`` for the algebra's type and nothing of
the symbolic arithmetic (``polyring``, ``freealg``, ``expr``) or of the
modules above it (``e6``, ``derivation``, ``cli``); a test checks that on
the source.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Sequence

from .quotient import QuotientAlgebra


# -- inputs shared with the symbolic pipeline -------------------------------------

# names of the rad^2 basis words carrying theta_1..theta_9, in order
THETA_MONOMIALS = (
    "xy", "yx", "yy", "xyx", "xyy", "yxy", "xyxy", "yxyy", "xyxyy",
)

DEFORMED_RELATION_NAMES = (
    "a0*b0",
    "a1*b1",
    "b1*a1 + a2*b2",
    "b3*a3 + a4*b4",
    "b4*a4",
    "b0*a0 + b2*a2 + a3*b3 + f(b0*a0, b2*a2)",
    "(b0*a0 + b2*a2)^3",
)


def constraint_theta2(th1, th3):
    """First admissibility constraint: theta_2 = 2*theta_3 - theta_1."""
    return 2 * th3 - th1


def constraint_theta6(th1, th3, th4, th5):
    """Second constraint: theta_6 = 2*theta_5 - 3*theta_4 - 3*(theta_3-theta_1)^2."""
    return 2 * th5 - 3 * th4 - 3 * (th3 - th1) ** 2


class GeneratorScalars:
    """All named coefficients of the change of generators, over one scalar ring.

    Works over any commutative scalar ring with +, -, * and integer
    multiples (Poly, Fraction, ``_Scaled`` in a ``sample`` trial over Q,
    or ``int``, which the numeric oracle reduces mod p afterwards).  The
    constants of the inverse formulas are computed on first use: only
    ``inverse_formula_terms`` reads them, and the numeric oracle never does.
    The unit coefficient of the formulas is the ``int`` 1, which
    ``FreeElement.scale`` and ``_vec_sum`` read in every ring.
    """

    def __init__(self, theta: Sequence):
        (self.th1, self.th2, self.th3, self.th4, self.th5,
         self.th6, self.th7, self.th8, self.th9) = theta
        t1, t2, t3, t4, t5, t6, t7, t8, t9 = theta
        # each shared power once: these are most of the work per trial
        t1_2, t3_2, t13 = t1 * t1, t3 * t3, t1 * t3
        t1_3, t3_3, t1_2t3, t1t3_2 = t1_2 * t1, t3_2 * t3, t1_2 * t3, t1 * t3_2
        d = t3 - t1
        d2 = d * d
        self.alpha = t4 + d2
        self.beta = t5 - 2 * t4 - 2 * d2
        self.gamma = (
            t7 - 8 * t1t3_2 + 7 * t1_2t3 + 2 * t3 * t4
            - 2 * t1_3 - 2 * t1 * t4 + 3 * t3_3
        )
        self.delta = (
            2 * t1_3 * t1 - 6 * t1_3 * t3 - 3 * t1_2 * t5 + 4 * t1_2 * t4
            + 6 * t1_2 * t3_2 + 5 * t13 * t5 - 6 * t13 * t4
            + t5 * t5 - 3 * t5 * t4 + 2 * t4 * t4 - 2 * t3_3 * t1
            - 2 * t3_2 * t5 + 2 * t3_2 * t4 + 2 * t1 * t8 - 3 * t3 * t8 - t9
        )
        # b3 / a4 / b4 correction coefficients
        self.psi = t4 - t5 - t13 + t1_2
        self.kappa1 = 3 * t13 - t1_2 - 2 * t3_2 - t4  # (t1 - t3)*(2*t3 - t1) - t4
        self.kappa2 = (
            3 * t1t3_2 - t3 * t4 - t7 - 2 * t1_2t3 - t3_3 + t1 * t5
        )

    # -- constants of the inverse formulas ------------------------------------

    @cached_property
    def alpha1(self):
        t1, t3 = self.th1, self.th3
        return -self.alpha + t1 * t3 - t3 ** 2

    @cached_property
    def beta1(self):
        t1, t3 = self.th1, self.th3
        return -self.beta + t1 * t3 - t3 ** 2

    @cached_property
    def alpha2(self):
        t1, t2, t3 = self.th1, self.th2, self.th3
        return (
            -self.gamma - t3 ** 2 * (t2 - t3) + t1 * self.beta
            + t1 * self.alpha1 - t3 * self.alpha1
        )

    @cached_property
    def beta2(self):
        t1, t3 = self.th1, self.th3
        return -t3 ** 2 * (t1 - t3) + t3 * self.alpha + t3 * self.beta1 + t3 * self.beta

    @cached_property
    def alpha3(self):
        t1, t2, t3, t4, t5, t6, t8 = (
            self.th1, self.th2, self.th3, self.th4, self.th5, self.th6, self.th8
        )
        alpha, beta, alpha1, beta1 = self.alpha, self.beta, self.alpha1, self.beta1
        return (
            -t3 ** 2 * (
                t1 ** 2 + t2 ** 2 + 2 * t4 - 2 * t5 + t6 - t1 * t2 - t2 * t3
            )
            + alpha1 * t3 ** 2 * (t1 - t3)
            + beta * t3 ** 2 * (t2 - t3)
            + t3 * t8
            - t3 * self.alpha2
            - t3 * self.beta2
            - alpha * alpha1
            + beta * alpha1
            - beta * beta1
            - self.gamma * t3
        )

    # True coefficients of the inverse a3 formula, solved exactly from the
    # triangular system; the printed alpha2 / beta2 / alpha3 do not invert
    # (see README).  Differences from the printed constants:
    #   alpha2 - inv: (t3-t1)*(2*t4 + 3*t3^2 - 6*t1*t3 + 2*t1^2)
    #   beta2  - inv: -t3^2*(t3-t1)

    @cached_property
    def alpha2_inv(self):
        t1, t3, t4, t5, t7 = self.th1, self.th3, self.th4, self.th5, self.th7
        return (
            -t7 + t1 * t5 + t1 * t4 - 3 * t3 * t4
            + t1 ** 3 - 7 * t1 ** 2 * t3 + 11 * t1 * t3 ** 2 - 5 * t3 ** 3
        )

    @cached_property
    def beta2_inv(self):
        t1, t3, t4 = self.th1, self.th3, self.th4
        return t3 * t4 + t1 ** 2 * t3 - 3 * t1 * t3 ** 2 + 2 * t3 ** 3

    @cached_property
    def alpha3_inv(self):
        t1, t3, t4, t5, t7, t8 = self.th1, self.th3, self.th4, self.th5, self.th7, self.th8
        return (
            t5 ** 2 - 5 * t4 * t5 + 7 * t4 ** 2 + t3 * t8 + 2 * t3 * t7
            - 5 * t3 ** 2 * t5 + 21 * t3 ** 2 * t4 + 9 * t1 * t3 * t5
            - 33 * t1 * t3 * t4 - 5 * t1 ** 2 * t5 + 14 * t1 ** 2 * t4
            + 18 * t3 ** 4 - 55 * t1 * t3 ** 3 + 63 * t1 ** 2 * t3 ** 2
            - 33 * t1 ** 3 * t3 + 7 * t1 ** 4
        )


# The substituted generators: each arrow of {a2,b2,a3,b3,a4,b4} maps to
# itself plus corrections of strictly greater path length.  x and y stand
# for the loops b0*a0 and b2*a2 at the exceptional vertex.
_X = ("b0", "a0")
_Y = ("b2", "a2")


def primed_generator_terms(s: GeneratorScalars) -> dict[str, list]:
    """(coefficient, arrow-name tuple) terms of each substituted generator."""
    return {
        "a2": [
            (1, ("a2",)),
            (-s.th8, ("a2",) + _X + _Y + _Y),
        ],
        "b2": [
            (1, ("b2",)),
            (s.delta, _X + _Y + _X + _Y + ("b2",)),
        ],
        "a3": [
            (1, ("a3",)),
            (s.th1, _X + ("a3",)),
            (s.th3, _Y + ("a3",)),
            (s.alpha, _X + _Y + ("a3",)),
            (s.beta, _Y + _X + ("a3",)),
            (s.gamma, _X + _Y + _X + ("a3",)),
        ],
        "b3": [
            (1, ("b3",)),
            (s.th3 - s.th1, ("b3",) + _X),
            (s.psi, ("b3",) + _Y + _X),
        ],
        "a4": [
            (1, ("a4",)),
            (s.kappa1, ("b3",) + _X + ("a3", "a4")),
            (s.kappa2, ("b3",) + _Y + _X + ("a3", "a4")),
        ],
        "b4": [
            (1, ("b4",)),
            (-s.kappa1, ("b4", "b3") + _X + ("a3",)),
        ],
    }


def _scalar_text(num: int, den: int, p: int | None) -> str:
    """The value num/den as a report writes it: over Q the reduced
    fraction, as ``str`` of a ``Fraction`` writes it; over GF(p), where den
    is 1 and num a residue in [0, p), as ``num (mod p)``."""
    if p is None:
        return str(Fraction(num, den))
    return f"{num} (mod {p})"


@lru_cache(maxsize=None)
def _reduction_is_integral(algebra: QuotientAlgebra) -> bool:
    """Whether every normal form in the algebra's table has integer
    coefficients; then so has every structure constant.  Checked once per
    algebra (the table never changes once built)."""
    return all(
        c.denominator == 1
        for row in algebra.reduction.values()
        for c in row.values()
    )


# -- the numeric pipeline -----------------------------------------------------------


class _Scaled:
    """The rational n / d**k, for values that share one denominator base d.

    A trial over Q writes its thetas over one d (the lcm of their
    denominators) and computes the change-of-generator constants on them.
    Why this is exact: n1/d**k1 * n2/d**k2 = n1*n2 / d**(k1+k2); a sum is
    taken over the larger power, n1*d**(k-k1) + n2*d**(k-k2) over d**k;
    an ``int`` multiple c scales n.  No gcd is taken, so the fraction is not
    reduced, but its value is exact.  ``numerator`` and ``denominator``
    read it as a ``Fraction`` is read (``_vec_sum``, ``Poly.evaluate``).
    Values over different bases do not mix.
    """

    __slots__ = ("n", "k", "d")

    def __init__(self, n: int, k: int, d: int):
        self.n = n
        self.k = k
        self.d = d

    @property
    def numerator(self) -> int:
        return self.n

    @property
    def denominator(self) -> int:
        return self.d ** self.k

    def _aligned(self, other: "_Scaled") -> tuple[int, int, int]:
        """(self's numerator, other's numerator, k) over the common d**k."""
        if other.d != self.d:
            raise ValueError(f"values over the bases {self.d} and {other.d} do not mix")
        k, j = self.k, other.k
        if k == j:
            return self.n, other.n, k
        if k > j:
            return self.n, other.n * self.d ** (k - j), k
        return self.n * self.d ** (j - k), other.n, j

    def __add__(self, other: "_Scaled") -> "_Scaled":
        a, b, k = self._aligned(other)
        return _Scaled(a + b, k, self.d)

    def __sub__(self, other: "_Scaled") -> "_Scaled":
        a, b, k = self._aligned(other)
        return _Scaled(a - b, k, self.d)

    def __mul__(self, other):
        if type(other) is _Scaled:
            if other.d != self.d:
                raise ValueError(f"values over the bases {self.d} and {other.d} do not mix")
            return _Scaled(self.n * other.n, self.k + other.k, self.d)
        if isinstance(other, int):
            return _Scaled(other * self.n, self.k, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return _Scaled(-self.n, self.k, self.d)

    def __pow__(self, e: int):
        return _Scaled(self.n ** e, self.k * e, self.d)

    def __bool__(self):
        return self.n != 0

    def __repr__(self):
        return f"{self.n}/{self.d}^{self.k}"


def _draw_theta(rng: random.Random, p: int | None) -> list:
    """A trial's constrained thetas, drawn and constrained on integers.

    t1, t3, t4, t5, t7, t8, t9 are drawn in that order, each over Q as
    n = randint(-9, 9), then d = randint(1, 9), for n/d, and over GF(p) as
    randrange(p), so a seed gives the same points as a draw of field
    scalars with those calls; t2 and t6 follow from the constraints.
    Over Q the values are ``_Scaled`` over the lcm of the drawn d; over
    GF(p) they are residues in [0, p).
    """
    if p is None:
        drawn = [(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)]
        d = lcm(*[den for _, den in drawn])
        free = [_Scaled(n * (d // den), 1, d) for n, den in drawn]
    else:
        free = [rng.randrange(p) for _ in range(7)]
    t1, t3, t4, t5, t7, t8, t9 = free
    t2 = constraint_theta2(t1, t3)
    t6 = constraint_theta6(t1, t3, t4, t5)
    if p is not None:
        t2, t6 = t2 % p, t6 % p
    return [t1, t2, t3, t4, t5, t6, t7, t8, t9]


def _integer_theta(theta: Sequence, p: int | None) -> list:
    """Nine given thetas as a trial computes on them (see ``_draw_theta``).

    Each entry is an ``int`` or a ``Fraction``, else a TypeError is
    raised; over GF(p) a rational whose denominator p divides is rejected
    with a ValueError.
    """
    if len(theta) != 9:
        raise ValueError("expected 9 theta values")
    for v in theta:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"cannot use {type(v).__name__} as a theta sample")
        if p is not None and v.denominator % p == 0:
            raise ValueError(f"theta entry {v} has a denominator divisible by {p}, the field size")
    if p is None:
        d = lcm(*[v.denominator for v in theta])
        return [_Scaled(v.numerator * (d // v.denominator), 1, d) for v in theta]
    return [v.numerator * pow(v.denominator, -1, p) % p for v in theta]


# The oracle's vectors are pairs (coords, den): ``int`` coordinates keyed
# by basis index over one positive ``int`` denominator, so no field scalar
# and no path is made per product.  Why this is exact:
#   * every normal form of pe6 has integer coefficients (checked once per
#     algebra, ``_word_vector``), so every structure constant is an
#     ``int`` and ``QuotientAlgebra.product`` maps integer vectors to
#     integer vectors;
#   * over Q a vector's value is coords/den exactly: a product multiplies
#     the denominators, and a sum brings both sides to the lcm of theirs;
#   * over GF(p) the denominator is 1 and every scalar an ``int``: Z ->
#     GF(p) is a ring homomorphism, so reducing each coordinate mod p once
#     per product or sum gives the GF(p) result, and a coordinate is zero
#     in GF(p) exactly when its reduction is 0.
# Paths reappear only in ``_vec_text``, for the text of a failing trial.


@lru_cache(maxsize=None)
def _word_vector(algebra: QuotientAlgebra, names: tuple[str, ...]) -> dict[int, int]:
    """Integer basis coordinates of the path through the named arrows,
    keyed by basis index and reduced once.

    Sound to cache: an algebra's reduction table never changes once built,
    and the key holds the algebra as well as the word.  Raises ValueError
    when the algebra has a non-integral normal form, where the integer
    oracle does not apply.  Callers must not change the returned dict.
    """
    if not _reduction_is_integral(algebra):
        raise ValueError(f"{algebra.name} has non-integral normal forms")
    index = algebra.basis_index
    path = algebra.quiver.path(*names)
    return {index[b]: c.numerator for b, c in algebra.reduce_path(path).items()}


def _vec_sum(terms: Iterable[tuple], p: int | None) -> tuple[dict[int, int], int]:
    """The sum of c * u over the (c, u) pairs of ``terms``.

    Each c is read through its numerator and denominator: an ``int``, a
    ``Fraction`` or a ``_Scaled`` (over GF(p), an ``int``); each u is a
    vector (coords, den).  The result is over the lcm of the denominators
    of the c * u; over GF(p) each coordinate is reduced mod p.
    """
    scaled = [(c.numerator, c.denominator * den, coords) for c, (coords, den) in terms]
    # unpack a list, not a generator: CPython sizes a tuple from a
    # generator by a guess and resizes it, so every call would leave one
    # more tuple of the final size on its free lists (up to 2,000 per size
    # stay allocated, about 0.15 MB each for the sizes of these sums)
    den = lcm(*[d for _, d, _ in scaled])
    acc: dict[int, int] = {}
    for num, d, coords in scaled:
        factor = num * (den // d)
        for k, x in coords.items():
            acc[k] = acc.get(k, 0) + factor * x
    if p is None:
        return {k: x for k, x in acc.items() if x}, den
    return {k: r for k, x in acc.items() if (r := x % p)}, 1


def _vec_mul(
    algebra: QuotientAlgebra, u: tuple, v: tuple, p: int | None
) -> tuple[dict[int, int], int]:
    """The product of two vectors (coords, den) through the structure constants.

    Over Q the denominators multiply; over GF(p) each coordinate of the
    integer product is reduced mod p.
    """
    coords = algebra.product(u[0], v[0])
    if p is None:
        return coords, u[1] * v[1]
    return {k: r for k, x in coords.items() if (r := x % p)}, 1


def _generator_vectors(
    algebra: QuotientAlgebra, s: GeneratorScalars, p: int | None
) -> dict[str, tuple[dict[int, int], int]]:
    """Vectors of a0, b0, a1, b1 and the six substituted generators, each a
    sum of the constants of ``s`` times the cached word vectors.

    ``s`` holds ``int`` constants over GF(p) (``p`` given) and ``int``,
    ``Fraction`` or ``_Scaled`` constants over Q (``p`` None).
    """
    terms = {name: [(1, (name,))] for name in ("a0", "b0", "a1", "b1")}
    terms.update(primed_generator_terms(s))
    return {
        name: _vec_sum(
            ((coeff, (_word_vector(algebra, names), 1)) for coeff, names in generator_terms),
            p,
        )
        for name, generator_terms in terms.items()
    }


def numeric_relation_residuals(
    algebra: QuotientAlgebra, theta: Sequence, p: int | None
) -> tuple[list[tuple[str, tuple]], tuple]:
    """The seven relation residuals through structure-constant arithmetic only.

    ``algebra`` is pe6 as built (``e6.build_pe6``); this module cannot
    build it, since the build runs on free-algebra relations.
    ``theta`` holds a trial's nine values satisfying the two constraints,
    as ``_draw_theta`` and ``_integer_theta`` give them: ``_Scaled`` over
    Q (``p`` None), ``int`` residues over GF(p).  No polynomial objects
    and no free-algebra multiplication take part; this is the independent
    oracle for the symbolic pipeline.  It computes on integer vectors
    keyed by basis index (see the note above ``_word_vector``).  Returns
    the (name, residual vector) pairs, together with the vector of a
    nonzero intermediate, b2'*a2', used to cross-check the pipelines on
    more than zeros.
    """
    gen = _generator_vectors(algebra, GeneratorScalars(theta), p)

    def mul(u, v):
        return _vec_mul(algebra, u, v, p)

    def prod(a, b):
        return mul(gen[a], gen[b])

    def add(*vectors):
        return _vec_sum(((1, u) for u in vectors), p)

    x = prod("b0", "a0")
    y = prod("b2", "a2")
    words = {"xy": mul(x, y), "yx": mul(y, x), "yy": mul(y, y)}
    words["xyx"] = mul(words["xy"], x)
    words["xyy"] = mul(words["xy"], y)
    words["yxy"] = mul(words["yx"], y)
    words["xyxy"] = mul(words["xyx"], y)
    words["yxyy"] = mul(words["yxy"], y)
    words["xyxyy"] = mul(words["xyxy"], y)
    f = _vec_sum(zip(theta, (words[w] for w in THETA_MONOMIALS)), p)
    x_plus_y = add(x, y)

    residuals = [
        prod("a0", "b0"),
        prod("a1", "b1"),
        add(prod("b1", "a1"), prod("a2", "b2")),
        add(prod("b3", "a3"), prod("a4", "b4")),
        prod("b4", "a4"),
        add(x_plus_y, prod("a3", "b3"), f),
        mul(mul(x_plus_y, x_plus_y), x_plus_y),
    ]
    return list(zip(DEFORMED_RELATION_NAMES, residuals)), y


def _equals_vector(values: dict, vec: tuple, p: int | None) -> bool:
    """Whether evaluated values keyed by basis index (a ``Fraction`` each
    over Q, a residue each over GF(p)) equal the oracle's vector.

    Over Q a ``Fraction`` v equals c/den exactly when v.numerator * den ==
    c * v.denominator, both denominators being positive, so no
    ``Fraction`` is made of the vector.
    """
    coords, den = vec
    if p is not None:
        return values == coords
    return values.keys() == coords.keys() and all(
        v.numerator * den == coords[k] * v.denominator for k, v in values.items()
    )


def _vec_text(algebra: QuotientAlgebra, vec: tuple, p: int | None) -> str:
    """A vector (coords, den) as ``c*path`` terms in the order of the
    paths, each c written by ``_scalar_text``."""
    coords, den = vec
    basis = algebra.basis
    terms = sorted((basis[k], c) for k, c in coords.items())
    return " + ".join(f"{_scalar_text(c, den, p)}*{path}" for path, c in terms)
