"""Elements of the free path algebra with polynomial coefficients.

A FreeElement is a finite linear combination of paths of one quiver with
Poly coefficients.  The product extends path concatenation bilinearly;
non-composable concatenations contribute zero, which is the standard path
algebra convention and what makes sums of loops at different vertices
well-typed.

A GeneratorMap sends each arrow of a source quiver to an
endpoint-homogeneous element of a target quiver and extends to the unique
algebra homomorphism on free elements.  It is the engine behind both the
embedding x -> b0*a0, y -> b2*a2 of the two-loop quiver and the change of
generators used in the isomorphism verification.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .polyring import Poly
from .quiver import Arrow, Path, Quiver, compose


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class FreeElement:
    """Immutable linear combination of paths with Poly coefficients."""

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver: Quiver, terms: Mapping[Path, Poly] | None = None):
        clean = {}
        if terms:
            for path, coeff in terms.items():
                if path.quiver is not quiver:
                    raise ValueError("path belongs to a different quiver")
                c = _as_poly(coeff)
                if c:
                    clean[path] = c
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _unchecked(cls, quiver: Quiver, terms: dict) -> "FreeElement":
        """An element on ``terms`` as given, without the checks of ``__init__``.

        For results of arithmetic on elements of ``quiver``, whose terms are
        already clean: every path is a term of an operand or a ``compose``
        of two of them, hence a path on ``quiver``; every coefficient is a
        sum or product of ``Poly`` coefficients, hence a ``Poly``; and the
        arithmetic drops each coefficient that cancels to zero.  A product
        of two nonzero coefficients is nonzero, because Q[t1..t9] is an
        integral domain.
        """
        element = object.__new__(cls)
        object.__setattr__(element, "quiver", quiver)
        object.__setattr__(element, "terms", terms)
        return element

    def __setattr__(self, name, value):
        raise AttributeError("FreeElement is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(quiver: Quiver) -> "FreeElement":
        return FreeElement(quiver)

    @staticmethod
    def from_path(path: Path, coeff=1) -> "FreeElement":
        return FreeElement(path.quiver, {path: _as_poly(coeff)})

    @staticmethod
    def one(quiver: Quiver) -> "FreeElement":
        """The two-sided identity: the sum of all vertex idempotents."""
        return FreeElement(
            quiver, {quiver.idempotent(v): Poly.const(1) for v in quiver.vertices}
        )

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Path, Poly]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].key)

    def max_length(self) -> int:
        return max((len(p) for p in self.terms), default=0)

    def is_endpoint_homogeneous(self) -> bool:
        ends = {(p.source, p.target) for p in self.terms}
        return len(ends) <= 1

    def endpoints(self) -> tuple[int, int]:
        ends = {(p.source, p.target) for p in self.terms}
        if len(ends) != 1:
            raise ValueError("element is zero or not endpoint-homogeneous")
        return ends.pop()

    def is_degree_homogeneous(self) -> bool:
        return len({len(p) for p in self.terms}) <= 1

    def has_rational_coefficients(self) -> bool:
        return all(c.is_rational() for c in self.terms.values())

    def has_integral_coefficients(self) -> bool:
        return all(c.is_integral() for c in self.terms.values())

    # -- arithmetic ----------------------------------------------------------------

    def _check_same_quiver(self, other: "FreeElement"):
        if self.quiver is not other.quiver:
            raise ValueError(
                f"elements live on different quivers "
                f"({self.quiver.name} vs {other.quiver.name})"
            )

    def __add__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        self._check_same_quiver(other)
        out = dict(self.terms)
        for path, coeff in other.terms.items():
            acc = out.get(path)
            if acc is None:
                out[path] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[path] = acc
                else:
                    del out[path]
        return FreeElement._unchecked(self.quiver, out)

    def __neg__(self):
        return FreeElement._unchecked(self.quiver, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.mul(other)

    def mul(self, other: "FreeElement", below: int | None = None) -> "FreeElement":
        """The product, dropping every path of length ``below`` or more.

        With ``below=None`` this is the product of the free path algebra.
        Pairs of paths whose lengths add up to ``below`` or more are skipped
        before any path or coefficient product is formed.

        Soundness, for ``below`` the nilpotency degree N of a quotient
        A = kQ/I: the relations are homogeneous and A_d = 0 for d >= N, so
        J^N is contained in I (J the arrow ideal).  The map kQ -> A thus
        factors through the algebra homomorphism kQ -> kQ/J^N, and dropping
        paths of length >= N after every intermediate product leaves the
        normal form unchanged; ``QuotientAlgebra.reduce_path`` relies on the
        same fact.
        """
        self._check_same_quiver(other)
        limit = math.inf if below is None else below
        out: dict = {}
        for pa, ca in self.terms.items():
            room = limit - len(pa)
            for pb, cb in other.terms.items():
                if len(pb) >= room:
                    continue
                pab = compose(pa, pb)
                if pab is None:
                    continue
                acc = out.get(pab)
                if acc is None:
                    out[pab] = ca * cb
                else:
                    acc = acc + ca * cb
                    if acc:
                        out[pab] = acc
                    else:
                        del out[pab]
        return FreeElement._unchecked(self.quiver, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        return NotImplemented

    def scale(self, coeff) -> "FreeElement":
        # a bare int or Fraction scales each Poly directly (see ``Poly.__mul__``)
        c = coeff if isinstance(coeff, (int, Fraction)) else _as_poly(coeff)
        if not c:
            return FreeElement.zero(self.quiver)
        return FreeElement._unchecked(self.quiver, {p: c * v for p, v in self.terms.items()})

    def __pow__(self, n: int) -> "FreeElement":
        return self.power(n)

    def power(self, n: int, below: int | None = None) -> "FreeElement":
        """The n-th power, dropping paths of length ``below`` or more (see ``mul``).

        Square and multiply (Knuth, TAOCP vol. 2, 4.6.3): the result is the
        product of the squares x^(2^i) over the set bits i of n, so it takes
        at most 2*log2(n) products, and it stops once the result or the
        squared base is zero.  Sound because kQ is associative, so any
        bracketing of x*...*x gives x^n, and because dropping the paths of
        length ``below`` or more is a ring map kQ -> kQ/J^below, so
        truncating the base and every partial product gives the truncation
        of x^n.  The first factor is the truncated base itself, not a
        product with ``one``.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n == 0:
            return FreeElement.one(self.quiver)
        base = self
        if below is not None:
            base = FreeElement._unchecked(
                self.quiver, {p: c for p, c in self.terms.items() if len(p) < below}
            )
        result = None
        while True:
            if n & 1:
                result = base if result is None else result.mul(base, below)
                if not result:
                    return result
            n >>= 1
            if not n:
                return result
            base = base.mul(base, below)
            if not base:
                return base

    def __eq__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.quiver is other.quiver and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.quiver), frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        from .expr import format_element

        return format_element(self)

    def __repr__(self):
        return f"FreeElement({self})"


def generators(quiver: Quiver) -> dict[str, FreeElement]:
    """Arrow names and vertex idempotents as single-term elements."""
    gens = {a.name: FreeElement.from_path(quiver.path(a.name)) for a in quiver.arrows}
    for v in quiver.vertices:
        gens[f"e{v}"] = FreeElement.from_path(quiver.idempotent(v))
    return gens


@lru_cache(maxsize=None)
def dynkin_preprojective(
    name: str, n: int, edges: tuple[tuple[int, int], ...]
) -> tuple[Quiver, tuple[FreeElement, ...]]:
    """Double quiver of a Dynkin diagram and its preprojective relations.

    Edge i ``(u, v)`` becomes arrows ``a<i>: u -> v`` and ``b<i>: v -> u``;
    the relation at a vertex is the sum of the loops there through each
    incident edge, ``b<i>*a<i>`` for the edges into it before ``a<i>*b<i>``
    for the edges out of it (all signs +, which over a tree loses no
    generality).  ``edges`` is a tuple, so that the call is memoised: the
    same arguments give the same quiver object, whose paths compose.
    """
    arrows = []
    for i, (u, v) in enumerate(edges):
        arrows += [Arrow(f"a{i}", u, v), Arrow(f"b{i}", v, u)]
    quiver = Quiver(name, range(n), arrows)
    g = generators(quiver)
    relations = []
    for v in range(n):
        loops = [g[f"b{i}"] * g[f"a{i}"] for i, (_, t) in enumerate(edges) if t == v]
        loops += [g[f"a{i}"] * g[f"b{i}"] for i, (s, _) in enumerate(edges) if s == v]
        if loops:
            relations.append(sum(loops[1:], loops[0]))
    return quiver, tuple(relations)


class GeneratorMap:
    """Arrow substitution defining an algebra homomorphism between path algebras.

    Each arrow of the source quiver is bound to an endpoint-homogeneous
    element of the target quiver; vertices map per ``vertex_map`` and the
    endpoints of each image must match the mapped endpoints of its arrow.
    """

    def __init__(
        self,
        source: Quiver,
        target: Quiver,
        bindings: Mapping[str, FreeElement],
        vertex_map: Mapping[int, int] | None = None,
    ):
        self.source = source
        self.target = target
        if vertex_map is None:
            if source is not target:
                raise ValueError("a vertex map is required between distinct quivers")
            vertex_map = {v: v for v in source.vertices}
        self.vertex_map = dict(vertex_map)
        self.bindings = dict(bindings)
        for v in source.vertices:
            if v not in self.vertex_map:
                raise ValueError(f"vertex {v} is not mapped")
        for name, element in self.bindings.items():
            arrow = source.arrow(name)
            if element.quiver is not target:
                raise ValueError(f"image of {name} lives on the wrong quiver")
            if element.is_zero():
                raise ValueError(f"image of {name} is zero")
            src, tgt = element.endpoints()
            want = (self.vertex_map[arrow.source], self.vertex_map[arrow.target])
            if (src, tgt) != want:
                raise ValueError(
                    f"image of {name} runs {src} -> {tgt}, expected {want[0]} -> {want[1]}"
                )

    def __call__(self, element: FreeElement, below: int | None = None) -> FreeElement:
        """Apply the multiplicative extension to a free element.

        With ``below`` set, every product drops paths of length ``below``
        or more (see ``FreeElement.mul``), and so does the result.
        """
        if element.quiver is not self.source:
            raise ValueError("element does not live on the source quiver")
        out = FreeElement.zero(self.target)
        for path, coeff in element.terms.items():
            image = FreeElement.from_path(
                self.target.idempotent(self.vertex_map[path.source])
            )
            for i in path.arrows:
                name = self.source.arrows[i].name
                if name not in self.bindings:
                    raise KeyError(f"arrow {name!r} is not bound by the generator map")
                image = image.mul(self.bindings[name], below)
            out = out + image.scale(coeff)
        return out

