"""Finite-dimensional quotients of path algebras by homogeneous relations.

The construction works degree by degree.  At degree d the ideal component
is spanned by arrow * (row of degree d-1) together with relation * path;
exact Gaussian elimination over the rationals with the fixed monomial
order (length, then arrow-lexicographic) turns that span into reduced
pivot rows.  The pivot of each row is its largest monomial, so small
monomials survive as basis elements and the resulting basis is canonical.
Construction stops at the first degree N whose component vanishes: every
path of length N + 1 is an arrow times a path of length N, which lies in
the ideal, so the algebra is zero from degree N on.  The reduction table
holds only paths shorter than N; ``reduce_path`` maps every longer path
to zero without looking it up.

Reduction data is stored over the rationals only.  Elements with
polynomial coefficients are reduced coefficient-wise, which is sound
because the ideal itself is rational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .freealg import FreeElement
from .polyring import Poly
from .quiver import Path, Quiver, compose

Row = dict  # Path -> Fraction, endpoint-homogeneous, single degree

DEFAULT_MAX_DEGREE = 64


class RelationSet:
    """Validated homogeneous relations generating a two-sided ideal.

    Every relation must have purely rational coefficients and all its
    monomials must share source, target and length.  Zero relations are
    dropped; duplicates are harmless.
    """

    def __init__(self, quiver: Quiver, relations: Iterable[FreeElement]):
        self.quiver = quiver
        rows: list[Row] = []
        for rel in relations:
            if rel.quiver is not quiver:
                raise ValueError("relation lives on a different quiver")
            if rel.is_zero():
                continue
            if not rel.has_rational_coefficients():
                raise ValueError(f"relation {rel} has non-rational coefficients")
            if not rel.is_endpoint_homogeneous():
                raise ValueError(f"relation {rel} is not endpoint-homogeneous")
            if not rel.is_degree_homogeneous():
                raise ValueError(f"relation {rel} is not degree-homogeneous")
            degree = rel.max_length()
            if degree == 0:
                raise ValueError(f"relation {rel} has degree 0")
            rows.append({p: c.as_rational() for p, c in rel.terms.items()})
        self.rows = rows


class QuotientElement:
    """An element of a quotient algebra in basis coordinates.

    Coordinates map basis paths to Poly coefficients; no zero coordinates
    are stored.
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: "QuotientAlgebra", coords: Mapping[Path, Poly]):
        self.algebra = algebra
        self.coords = {p: c for p, c in coords.items() if c}

    def is_zero(self) -> bool:
        return not self.coords

    def lift(self) -> FreeElement:
        """The canonical basis-path representative as a free element."""
        return FreeElement(self.algebra.quiver, dict(self.coords))

    def map_coefficients(self, fn) -> "QuotientElement":
        return QuotientElement(self.algebra, {p: fn(c) for p, c in self.coords.items()})

    def _check_same_algebra(self, other: "QuotientElement"):
        if self.algebra is not other.algebra:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        if not isinstance(other, QuotientElement):
            return NotImplemented
        self._check_same_algebra(other)
        out = dict(self.coords)
        for p, c in other.coords.items():
            acc = out.get(p, Poly.zero()) + c
            if acc:
                out[p] = acc
            else:
                out.pop(p, None)
        return QuotientElement(self.algebra, out)

    def __neg__(self):
        return QuotientElement(self.algebra, {p: -c for p, c in self.coords.items()})

    def __sub__(self, other):
        if not isinstance(other, QuotientElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return QuotientElement(
                self.algebra, {p: c * other for p, c in self.coords.items()}
            )
        if not isinstance(other, QuotientElement):
            return NotImplemented
        self._check_same_algebra(other)
        return self.algebra.multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return QuotientElement(
                self.algebra, {p: other * c for p, c in self.coords.items()}
            )
        return NotImplemented

    def __pow__(self, n: int) -> "QuotientElement":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.algebra.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, QuotientElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.coords.items())))

    def __bool__(self):
        return bool(self.coords)

    def __str__(self):
        from .expr import format_element

        return format_element(self.lift())

    def __repr__(self):
        return f"QuotientElement({self})"


class QuotientAlgebra:
    """Basis, reduction table and structure constants of a graded quotient."""

    def __init__(
        self,
        name: str,
        quiver: Quiver,
        relations: RelationSet,
        basis_by_degree: list[list[Path]],
        reduction: dict[Path, dict[Path, Fraction]],
        nilpotency_degree: int,
    ):
        self.name = name
        self.quiver = quiver
        self.relations = relations
        self.basis_by_degree = basis_by_degree
        self.reduction = reduction
        self.nilpotency_degree = nilpotency_degree
        self.basis: list[Path] = [p for deg in basis_by_degree for p in deg]
        self.basis_index = {p: i for i, p in enumerate(self.basis)}
        self._structure: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}

    # -- queries -------------------------------------------------------------

    def dimension(self) -> int:
        return len(self.basis)

    def dimension_at(self, source: int, target: int) -> int:
        self.quiver._check_vertex(source)
        self.quiver._check_vertex(target)
        return sum(1 for p in self.basis if p.source == source and p.target == target)

    def graded_dimensions(self) -> list[int]:
        return [len(layer) for layer in self.basis_by_degree]

    def one(self) -> QuotientElement:
        return QuotientElement(
            self,
            {self.quiver.idempotent(v): Poly.const(1) for v in self.quiver.vertices},
        )

    # -- reduction -------------------------------------------------------------

    def reduce_path(self, path: Path) -> dict[Path, Fraction]:
        """Rational reduction of a single path to basis coordinates.

        The table stops below the nilpotency degree N, so the length guard
        is what sends paths of length >= N (all in the ideal) to zero.
        """
        if len(path) >= self.nilpotency_degree:
            return {}
        return self.reduction[path]

    def normal_form(self, element: FreeElement) -> QuotientElement:
        """The unique basis expression of an element's residue class."""
        if element.quiver is not self.quiver:
            raise ValueError("element lives on a different quiver")
        coords: dict[Path, Poly] = {}
        for path, coeff in element.terms.items():
            for b, c in self.reduce_path(path).items():
                acc = coords.get(b, Poly.zero()) + coeff * c
                if acc:
                    coords[b] = acc
                else:
                    coords.pop(b, None)
        return QuotientElement(self, coords)

    def element(self, coords: Mapping[Path, Poly]) -> QuotientElement:
        return QuotientElement(self, coords)

    # -- multiplication ----------------------------------------------------------

    def structure_constant(self, i: int, j: int) -> list[tuple[int, Fraction]]:
        """Product of basis elements i and j as (basis index, coefficient) pairs."""
        try:
            return self._structure[(i, j)]
        except KeyError:
            pass
        product = compose(self.basis[i], self.basis[j])
        if product is None:
            entry: list[tuple[int, Fraction]] = []
        else:
            entry = [
                (self.basis_index[b], c) for b, c in self.reduce_path(product).items()
            ]
        self._structure[(i, j)] = entry
        return entry

    def precompute_structure_constants(self):
        n = self.dimension()
        for i in range(n):
            for j in range(n):
                self.structure_constant(i, j)

    def product(self, u: Mapping[Path, object], v: Mapping[Path, object]) -> dict:
        """Bilinear product of coordinate dicts through the structure constants.

        Generic over the coefficient type: any scalar that multiplies by a
        ``Fraction`` works (``Poly``, ``Fraction``, a prime-field scalar).
        No zero coordinates are stored.
        """
        out: dict = {}
        for pu, cu in u.items():
            iu = self.basis_index[pu]
            for pv, cv in v.items():
                entry = self.structure_constant(iu, self.basis_index[pv])
                if not entry:
                    continue
                cuv = cu * cv
                for k, c in entry:
                    b = self.basis[k]
                    term = cuv * c
                    acc = out.get(b)
                    acc = term if acc is None else acc + term
                    if acc:
                        out[b] = acc
                    else:
                        out.pop(b, None)
        return out

    def multiply(self, a: QuotientElement, b: QuotientElement) -> QuotientElement:
        return QuotientElement(self, self.product(a.coords, b.coords))

    def structure_constants_csv(self) -> str:
        """CSV rows ``left-index,right-index,result-index,coefficient``."""
        self.precompute_structure_constants()
        lines = []
        n = self.dimension()
        for i in range(n):
            for j in range(n):
                for k, c in self._structure[(i, j)]:
                    lines.append(f"{i},{j},{k},{c}")
        return "\n".join(lines)

    # -- corners --------------------------------------------------------------------

    def corner_basis(self, v: int) -> list[Path]:
        self.quiver._check_vertex(v)
        return [p for p in self.basis if p.source == v and p.target == v]

    def corner_algebra(self, v: int) -> "CornerAlgebra":
        return CornerAlgebra(self, v)

    def basis_listing(self) -> str:
        """One line per basis element: ``deg=<d> <source>-><target> <path>``."""
        return "\n".join(
            f"deg={len(p)} {p.source}->{p.target} {p}" for p in self.basis
        )

    def __repr__(self):
        return (
            f"QuotientAlgebra({self.name}, dim={self.dimension()}, "
            f"nilpotency_degree={self.nilpotency_degree})"
        )


class CornerAlgebra:
    """The unital algebra e_v A e_v with structure constants induced from A."""

    def __init__(self, parent: QuotientAlgebra, vertex: int):
        self.parent = parent
        self.vertex = vertex
        self.basis = parent.corner_basis(vertex)
        self.index = {p: i for i, p in enumerate(self.basis)}

    def dimension(self) -> int:
        return len(self.basis)

    def structure_constants(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        table = {}
        for i, p in enumerate(self.basis):
            for j, q in enumerate(self.basis):
                product = compose(p, q)
                reduced = {} if product is None else self.parent.reduce_path(product)
                table[(i, j)] = {self.index[b]: c for b, c in reduced.items()}
        return table


def _insert_row(pivots: dict[Path, Row], row: Row):
    """Reduce a row against current pivots and record it if nonzero."""
    while row:
        lead = max(row)
        pivot_row = pivots.get(lead)
        if pivot_row is None:
            coeff = row.pop(lead)
            if coeff != 1:
                row = {p: c / coeff for p, c in row.items()}
            pivots[lead] = row
            return
        factor = row.pop(lead)
        for p, c in pivot_row.items():
            acc = row.get(p, Fraction(0)) - factor * c
            if acc:
                row[p] = acc
            else:
                row.pop(p, None)


def _back_substitute(pivots: dict[Path, Row]):
    """Rewrite every tail so it only mentions non-pivot (basis) monomials."""
    for lead in sorted(pivots, reverse=True):
        tail = pivots[lead]
        changed = True
        while changed:
            changed = False
            for p in sorted(tail, reverse=True):
                inner = pivots.get(p)
                if inner is None:
                    continue
                factor = tail.pop(p)
                for q, c in inner.items():
                    acc = tail.get(q, Fraction(0)) - factor * c
                    if acc:
                        tail[q] = acc
                    else:
                        tail.pop(q, None)
                changed = True
                break


def build_quotient(
    quiver: Quiver,
    relations: RelationSet | Sequence[FreeElement],
    name: str = "quotient",
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> QuotientAlgebra:
    """Construct basis, reduction table and nilpotency degree of the quotient.

    Raises ValueError if no vanishing degree is found below ``max_degree``;
    the quotient is then not visibly finite-dimensional and this engine
    does not apply.
    """
    if not isinstance(relations, RelationSet):
        relations = RelationSet(quiver, relations)
    by_degree: dict[int, list[Row]] = {}
    for row in relations.rows:
        by_degree.setdefault(len(next(iter(row))), []).append(row)

    all_paths_prev: list[Path] = []
    basis_by_degree: list[list[Path]] = []
    reduction: dict[Path, dict[Path, Fraction]] = {}
    pivot_rows_prev: list[tuple[Path, Row]] = []

    degree = 0
    while degree <= max_degree:
        if degree == 0:
            paths = [quiver.idempotent(v) for v in quiver.vertices]
            rows: list[Row] = []
        else:
            paths = [
                p
                for v in quiver.vertices
                for w in quiver.vertices
                for p in quiver.enumerate_paths(v, w, degree)
            ]
            rows = [dict(r) for r in by_degree.get(degree, [])]
            # arrow * (ideal row of the previous degree)
            for lead, tail in pivot_rows_prev:
                full = {lead: Fraction(1)}
                full.update(tail)
                for i in quiver.arrows_into(lead.source):
                    prefix = quiver.path(quiver.arrows[i].name)
                    rows.append({compose(prefix, p): c for p, c in full.items()})
            # relation * path, for relations of smaller degree
            for g, rel_rows in by_degree.items():
                if g >= degree:
                    continue
                for row in rel_rows:
                    tgt = next(iter(row)).target
                    for w in quiver.vertices:
                        for q in quiver.enumerate_paths(tgt, w, degree - g):
                            rows.append({compose(p, q): c for p, c in row.items()})

        pivots: dict[Path, Row] = {}
        for row in rows:
            _insert_row(pivots, dict(row))
        _back_substitute(pivots)

        basis = sorted((p for p in paths if p not in pivots), key=lambda p: p.key)
        if not basis:
            # A_d = 0, so every longer path (an arrow times a path in the
            # ideal) is in the ideal too; nothing of length >= d is stored
            return QuotientAlgebra(
                name, quiver, relations, basis_by_degree, reduction, degree
            )
        for p in basis:
            reduction[p] = {p: Fraction(1)}
        for lead, tail in pivots.items():
            reduction[lead] = {p: -c for p, c in tail.items()}

        basis_by_degree.append(basis)
        pivot_rows_prev = list(pivots.items())
        degree += 1

    raise ValueError(
        f"no vanishing degree up to {max_degree}; "
        "the quotient does not appear to be finite-dimensional"
    )
