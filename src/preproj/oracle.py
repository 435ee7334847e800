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
    generators, over any commutative scalar ring (the constants of the
    inverse formulas, which only the symbolic pipeline reads, are text
    in ``e6``);
  * ``generator_terms`` and ``primed_generator_terms``: the terms of the
    change of generators, all ten images and the six substituted ones;
  * ``_scalar_text``: how a report writes a scalar;
  * pe6 as built, passed in as an argument: its basis, the reduced
    generator words, its structure constants and ``integral``: whether
    its relations are integral and every pivot of its build is +1 or -1.

The module imports ``quotient`` for the algebra's type and nothing of
the symbolic arithmetic (``polyring``, ``freealg``, ``expr``) or of the
modules above it (``e6``, ``derivation``, ``cli``); a test checks that on
the source.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence
from weakref import WeakKeyDictionary

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
    """The named coefficients of the change of generators, over one scalar ring.

    Works over any commutative scalar ring with +, -, * and integer
    multiples (Poly, Fraction, ``_Scaled`` in a ``sample`` trial over Q,
    or ``int``, which the numeric oracle reduces mod p afterwards).  The
    constants that only the inverse formulas read are text beside them
    (``e6.INVERSE_CONSTANTS``).  The unit coefficient of the terms is the
    ``int`` 1, which ``FreeElement.scale`` and ``_vec_sum`` read in every
    ring.
    """

    def __init__(self, theta: Sequence):
        t1, t2, t3, t4, t5, t6, t7, t8, t9 = theta
        # the entries that the terms of the change of generators read
        self.th1, self.th3, self.th8 = t1, t3, t8
        # each shared power once; on a 2-vCPU VM these constants take about
        # 32 us of a 250 us trial over Q (``_Scaled``), 1.4 us over GF(11)
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


# The substituted generators: each arrow of {a2,b2,a3,b3,a4,b4} maps to
# itself plus corrections of strictly greater path length.  x and y stand
# for the loops b0*a0 and b2*a2 at the exceptional vertex.
_X = ("b0", "a0")
_Y = ("b2", "a2")

# the arrows that the change of generators fixes, each its own image
FIXED_GENERATORS = ("a0", "b0", "a1", "b1")

# the arrow names of the terms of each substituted generator, built once
# at import; ``_primed_coefficients`` lists their coefficients in this order
PRIMED_WORDS = {
    "a2": (("a2",), ("a2",) + _X + _Y + _Y),
    "b2": (("b2",), _X + _Y + _X + _Y + ("b2",)),
    "a3": (
        ("a3",),
        _X + ("a3",),
        _Y + ("a3",),
        _X + _Y + ("a3",),
        _Y + _X + ("a3",),
        _X + _Y + _X + ("a3",),
    ),
    "b3": (("b3",), ("b3",) + _X, ("b3",) + _Y + _X),
    "a4": (("a4",), ("b3",) + _X + ("a3", "a4"), ("b3",) + _Y + _X + ("a3", "a4")),
    "b4": (("b4",), ("b4", "b3") + _X + ("a3",)),
}


def _primed_coefficients(s: GeneratorScalars) -> dict[str, tuple]:
    """The coefficients of the terms of each substituted generator, in the
    order of the words of ``PRIMED_WORDS``."""
    return {
        # a2, a2*x*y*y
        "a2": (1, -s.th8),
        # b2, x*y*x*y*b2
        "b2": (1, s.delta),
        # a3, x*a3, y*a3, x*y*a3, y*x*a3, x*y*x*a3
        "a3": (1, s.th1, s.th3, s.alpha, s.beta, s.gamma),
        # b3, b3*x, b3*y*x
        "b3": (1, s.th3 - s.th1, s.psi),
        # a4, b3*x*a3*a4, b3*y*x*a3*a4
        "a4": (1, s.kappa1, s.kappa2),
        # b4, b4*b3*x*a3
        "b4": (1, -s.kappa1),
    }


def primed_generator_terms(s: GeneratorScalars) -> dict[str, list]:
    """(coefficient, arrow-name tuple) terms of each substituted generator."""
    return {
        name: list(zip(coefficients, PRIMED_WORDS[name]))
        for name, coefficients in _primed_coefficients(s).items()
    }


def generator_terms(s: GeneratorScalars) -> dict[str, list]:
    """The terms of every arrow's image under the change of generators:
    the arrows of ``FIXED_GENERATORS`` map to themselves, the others as in
    ``primed_generator_terms``."""
    terms = {name: [(1, (name,))] for name in FIXED_GENERATORS}
    terms.update(primed_generator_terms(s))
    return terms


def _scalar_text(num: int, den: int, p: int | None) -> str:
    """The value num/den as a report writes it: over Q the reduced
    fraction, as ``str`` of a ``Fraction`` writes it; over GF(p), where den
    is 1 and num a residue in [0, p), as ``num (mod p)``."""
    if p is None:
        return str(Fraction(num, den))
    return f"{num} (mod {p})"


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
#   * pe6 is ``integral`` (integral relations, every pivot +1 or -1; read
#     by ``_word_vector``), so every normal form has integer coefficients,
#     every structure constant is an ``int``, and
#     ``QuotientAlgebra.product`` maps integer vectors to integer vectors;
#   * over Q a vector's value is coords/den exactly: a product multiplies
#     the denominators, and a sum brings both sides to the lcm of theirs;
#   * over GF(p) the denominator is 1 and every scalar an ``int``: Z ->
#     GF(p) is a ring homomorphism, so reducing each coordinate mod p once
#     per product or sum gives the GF(p) result, and a coordinate is zero
#     in GF(p) exactly when its reduction is 0.
# Paths reappear only in ``_vec_text``, for the text of a failing trial.


# each algebra's word vectors by arrow names; a table goes when its algebra does
_WORD_TABLES: WeakKeyDictionary = WeakKeyDictionary()


def _word_vector(algebra: QuotientAlgebra, names: tuple[str, ...]) -> dict[int, int]:
    """Integer basis coordinates of the path through the named arrows,
    keyed by basis index and reduced once per algebra.

    Sound to cache: an algebra's reduction table never changes once built,
    and each algebra has a table of its own in ``_WORD_TABLES``, which
    holds the algebra weakly.  Raises ValueError unless the algebra is
    ``integral`` (see ``build_quotient``): the integer oracle applies only
    where reduction divides by nothing.  Callers must not change the
    returned dict.
    """
    words = _WORD_TABLES.get(algebra)
    if words is not None and names in words:
        return words[names]
    if not algebra.integral:
        raise ValueError(
            f"{algebra.name} has a non-integral relation or a pivot other than +1 or -1"
        )
    index = algebra.basis_index
    path = algebra.quiver.path(*names)
    vector = {index[b]: c.numerator for b, c in algebra.reduce_path(path).items()}
    _WORD_TABLES.setdefault(algebra, {})[names] = vector
    return vector


# empties every table, as ``cache_clear`` of a functools cache would
_word_vector.cache_clear = _WORD_TABLES.clear


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
    """Vectors of a0, b0, a1, b1 and the six substituted generators.

    ``s`` holds ``int`` constants over GF(p) (``p`` given) and ``int``,
    ``Fraction`` or ``_Scaled`` constants over Q (``p`` None).  The
    algebra's word table is looked up once per call, so every word
    vector, a fixed generator's too, is read from ``_WORD_TABLES`` as it
    stands; a word it lacks goes through ``_word_vector``, which reduces
    and stores it.  Each substituted generator is the sum of the
    constants of ``s`` times its word vectors (``_vec_sum``).  A fixed
    generator is 1 times its own arrow, so its vector is that word
    vector itself: over Q the sum of the single term 1 * u is u, over the
    denominator 1, with no zero coordinate to drop (a reduced word has
    none); over GF(p) it is u with each coordinate reduced mod p.  The
    table's dict is shared over Q, which is sound because no caller
    changes a generator vector.
    """
    words = _WORD_TABLES.get(algebra, {})
    vectors = {}
    for name in FIXED_GENERATORS:
        word = (name,)
        coords = words[word] if word in words else _word_vector(algebra, word)
        if p is not None:
            coords = {k: r for k, x in coords.items() if (r := x % p)}
        vectors[name] = coords, 1
    for name, coefficients in _primed_coefficients(s).items():
        vectors[name] = _vec_sum(
            [
                (c, (words[w] if w in words else _word_vector(algebra, w), 1))
                for c, w in zip(coefficients, PRIMED_WORDS[name])
            ],
            p,
        )
    return vectors


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
