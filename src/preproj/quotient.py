"""Finite-dimensional quotients of path algebras by homogeneous relations.

The construction works degree by degree under the monomial order (length,
then arrow-lexicographic), and the basis is the set of normal words: the
paths that are not the leading monomial of any element of the ideal.
Normal words are closed under suffixes (Bergman's diamond lemma), so the
basis words of degree d are among the candidates arrow * (basis word of
degree d - 1).  Exact Gaussian elimination over the rationals runs on
those candidates only, with one row per relation * (basis word) projected
through the normal forms of degree d - 1; ``build_quotient`` gives the
soundness argument.  The pivot of each row is its largest monomial, so
small monomials survive as basis elements and the basis is canonical.

Construction stops at the first degree N whose component vanishes: every
path of length N + 1 is an arrow times a path of length N, which lies in
the ideal, so the algebra is zero from degree N on.  Only then is the
reduction table filled, each path reducing as arrow * (normal form of the
rest).  The table holds the nonzero normal forms only: ``reduce_path``
maps every path it does not hold, shorter or longer than N, to zero.

Products go through the structure constants of basis pairs, on
coordinates keyed by basis index (``QuotientAlgebra.product``); paths
appear only where ``multiply`` maps elements in and out.

Reduction data is stored over the rationals only.  Elements with
polynomial coefficients are reduced coefficient-wise, which is sound
because the ideal itself is rational.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .freealg import FreeElement
from .polyring import Poly
from .quiver import Path, Quiver, compose

Row = dict  # monomial (Path or arrow tuple) -> Fraction, single degree

DEFAULT_MAX_DEGREE = 64

# the normal form of every path the reduction table does not hold
_NO_TERMS: Mapping = MappingProxyType({})


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

    def one(self) -> QuotientElement:
        return QuotientElement(
            self,
            {self.quiver.idempotent(v): Poly.const(1) for v in self.quiver.vertices},
        )

    # -- reduction -------------------------------------------------------------

    def reduce_path(self, path: Path) -> Mapping[Path, Fraction]:
        """Rational reduction of a single path to basis coordinates.

        The table holds exactly the paths whose normal form is nonzero
        (``build_quotient`` stores each of them below the nilpotency
        degree N, and nothing of length >= N), so any other path reduces
        to zero: a shared read-only empty mapping.
        """
        return self.reduction.get(path, _NO_TERMS)

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

    def structure_constant(self, i: int, j: int) -> list[tuple[int, Fraction | int]]:
        """Product of basis elements i and j as (basis index, coefficient) pairs.

        A coefficient with denominator 1 is stored as an ``int`` (see
        ``_exact``), so every scalar type multiplies it without converting
        a ``Fraction``.
        """
        try:
            return self._structure[(i, j)]
        except KeyError:
            pass
        product = compose(self.basis[i], self.basis[j])
        if product is None:
            entry: list[tuple[int, Fraction | int]] = []
        else:
            entry = [
                (self.basis_index[b], _exact(c))
                for b, c in self.reduce_path(product).items()
            ]
        self._structure[(i, j)] = entry
        return entry

    def precompute_structure_constants(self):
        n = self.dimension()
        for i in range(n):
            for j in range(n):
                self.structure_constant(i, j)

    def product(self, u: Mapping[int, object], v: Mapping[int, object]) -> dict[int, object]:
        """Bilinear product of coordinate dicts through the structure constants.

        Coordinates are keyed by basis index, in and out.  Generic over the
        coefficient type: any scalar that multiplies by an ``int`` and a
        ``Fraction`` works (``Poly``, ``Fraction``, ``int``, or a field
        scalar with that arithmetic).  A constant 1 adds the coefficient
        product unscaled.
        No zero coordinates are stored.
        """
        right = list(v.items())
        acc: dict[int, object] = {}
        for iu, cu in u.items():
            for iv, cv in right:
                entry = self.structure_constant(iu, iv)
                if not entry:
                    continue
                cuv = cu * cv
                for k, c in entry:
                    term = cuv if c == 1 else cuv * c
                    old = acc.get(k)
                    acc[k] = term if old is None else old + term
        return {k: c for k, c in acc.items() if c}

    def multiply(self, a: QuotientElement, b: QuotientElement) -> QuotientElement:
        index, basis = self.basis_index, self.basis
        coords = self.product(
            {index[p]: c for p, c in a.coords.items()},
            {index[p]: c for p, c in b.coords.items()},
        )
        return QuotientElement(self, {basis[k]: c for k, c in coords.items()})

    def structure_constants_csv(self) -> str:
        """CSV rows ``left-index,right-index,result-index,coefficient``.

        Rows are in ascending index order, so the file does not depend on
        the order in which elimination wrote the reduction table.
        """
        self.precompute_structure_constants()
        lines = []
        n = self.dimension()
        for i in range(n):
            for j in range(n):
                for k, c in sorted(self._structure[(i, j)]):
                    lines.append(f"{i},{j},{k},{c}")
        return "\n".join(lines)

    # -- corners --------------------------------------------------------------------

    def corner_basis(self, v: int) -> list[Path]:
        self.quiver._check_vertex(v)
        return [p for p in self.basis if p.source == v and p.target == v]

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


def _exact(c: Fraction) -> Fraction | int:
    """``c`` as an ``int`` when its denominator is 1, else unchanged."""
    return c.numerator if c.denominator == 1 else c


def _add_multiple(row: Row, factor, other: Mapping) -> None:
    """row += factor * other in place, dropping zero entries."""
    for p, c in other.items():
        acc = row.get(p, Fraction(0)) + factor * c
        if acc:
            row[p] = acc
        else:
            row.pop(p, None)


def _insert_row(pivots: dict, row: Row):
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
        _add_multiple(row, -row.pop(lead), pivot_row)


def _back_substitute(pivots: dict):
    """Rewrite every tail so it only mentions non-pivot (basis) monomials.

    Leads are taken in ascending order, so every pivot met inside a tail
    has a smaller lead and is already reduced: one substitution per pivot
    monomial suffices, and the result is the unique reduced echelon form.
    """
    for lead in sorted(pivots):
        tail = pivots[lead]
        for p in [p for p in tail if p in pivots]:
            _add_multiple(tail, -tail.pop(p), pivots[p])


def build_quotient(
    quiver: Quiver,
    relations: RelationSet | Sequence[FreeElement],
    name: str = "quotient",
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> QuotientAlgebra:
    """Construct basis, reduction table and nilpotency degree of the quotient.

    Degree d is built from the normal forms NF of lower degrees alone,
    with words as arrow-index tuples (their order is the monomial order
    within a degree).  Why this gives the same basis and reduced rows as
    an elimination over all paths of degree d:

    * The candidates are C_d = {a*b : b a basis word of degree d - 1, a
      an arrow into b.source}.  Normal words are closed under suffixes
      (if q is a leading monomial of the ideal, so is a*q), so every
      basis word of degree d is a candidate.
    * The projection pi sends a path a*q to a*NF(q), a vector over C_d.
      It is linear, and its kernel is a*I_{d-1}, which lies in I_d.
    * I_d = a*I_{d-1} + r*kQ, with r over the relations of degree g <= d,
      and r*p = r*NF(p) modulo a*I_{d-1} (every monomial of r starts with
      an arrow).  So pi(I_d) is spanned by the rows pi(r*b), b a basis
      word of degree d - g with b.source = r.target; only these rows are
      eliminated.
    * pi only replaces monomials by smaller ones and fixes span(C_d), so
      pi(I_d) is I_d on span(C_d) and LM(pi(I_d)) = LM(I_d) on C_d.  By
      uniqueness of the reduced echelon form, the basis (C_d minus the
      pivots) and the reduced rows are those of the full elimination.
    * Every path a*q reduces as a*NF(q): NF(a*q) is the sum of
      c_b * NF(a*b) over NF(q) = sum of c_b * b.

    Only once the vanishing degree N is known is the table filled, degree
    by degree below N; until then a degree costs its candidates and
    relation rows, not its paths.  The table keeps the nonzero normal
    forms only, and it still misses none: a path of degree d >= 1 is a*q
    with q of degree d - 1, and NF(q) = 0 gives NF(a*q) = a*NF(q) = 0,
    so every path of nonzero normal form extends a path of nonzero normal
    form, and the fill reaches it.  ``reduce_path`` sends every path the
    table lacks to zero: below N its normal form is zero, and from N on
    the path lies in the ideal.

    Raises ValueError if no vanishing degree is found below ``max_degree``;
    the quotient is then not visibly finite-dimensional and this engine
    does not apply.
    """
    if not isinstance(relations, RelationSet):
        relations = RelationSet(quiver, relations)
    arrows = quiver.arrows
    into = {v: quiver.arrows_into(v) for v in quiver.vertices}
    by_degree: dict[int, list[tuple[int, Row]]] = {}
    for row in relations.rows:
        first = next(iter(row))
        by_degree.setdefault(len(first), []).append(
            (first.target, {p.arrows: c for p, c in row.items()})
        )

    basis_by_degree: list[list[Path]] = [[quiver.idempotent(v) for v in quiver.vertices]]
    basis_paths: dict[tuple, Path] = {}
    # basis words of each degree by source vertex; the empty word at degree 0
    starting_at: list[dict[int, list[tuple]]] = [{v: [()] for v in quiver.vertices}]
    # NF of every candidate, and of the lower-degree words pi has needed
    normal: dict[tuple, Row] = {}

    def prepend(i: int, nf: Row) -> Row:
        """NF of arrow i times a path whose normal form is nf."""
        row: Row = {}
        for b, c in nf.items():
            _add_multiple(row, c, normal[(i,) + b])
        return row

    def normal_form(word: tuple) -> Row:
        row = normal.get(word)
        if row is None:
            row = normal[word] = prepend(word[0], normal_form(word[1:]))
        return row

    def project(word: tuple) -> Row:
        if len(word) == 1:
            return {word: Fraction(1)}
        return {word[:1] + b: c for b, c in normal_form(word[1:]).items()}

    for degree in range(1, max_degree + 1):
        pivots: dict[tuple, Row] = {}
        for g, rows in by_degree.items():
            if g > degree:
                continue
            for target, row in rows:
                for b in starting_at[degree - g].get(target, ()):
                    image: Row = {}
                    for p, c in row.items():
                        _add_multiple(image, c, project(p + b))
                    _insert_row(pivots, image)
        _back_substitute(pivots)

        basis_words: list[tuple] = []
        for v, words in starting_at[-1].items():
            for i in into[v]:
                for b in words:
                    w = (i,) + b
                    tail = pivots.get(w)
                    if tail is None:
                        basis_words.append(w)
                        normal[w] = {w: Fraction(1)}
                    else:
                        normal[w] = {p: -c for p, c in tail.items()}
        if not basis_words:
            # A_d = 0, so every longer path (an arrow times a path in the
            # ideal) is in the ideal too; nothing of length >= d is stored
            break
        basis_words.sort()
        by_source: dict[int, list[tuple]] = {}
        for w in basis_words:
            basis_paths[w] = Path(quiver, w)
            by_source.setdefault(arrows[w[0]].source, []).append(w)
        basis_by_degree.append([basis_paths[w] for w in basis_words])
        starting_at.append(by_source)
    else:
        raise ValueError(
            f"no vanishing degree up to {max_degree}; "
            "the quotient does not appear to be finite-dimensional"
        )

    reduction: dict[Path, dict[Path, Fraction]] = {
        e: {e: Fraction(1)} for e in basis_by_degree[0]
    }
    # every path of degree d > 1 is an arrow times a path of degree d - 1;
    # a path in the ideal has only extensions in the ideal, so each layer
    # keeps the paths of nonzero normal form alone
    layer: dict[tuple, Row] = {}
    for d in range(1, degree):
        if d == 1:
            extended = (((i,), normal[(i,)]) for i in range(len(arrows)))
        else:
            extended = (
                ((i,) + q, prepend(i, nf))
                for q, nf in layer.items()
                for i in into[arrows[q[0]].source]
            )
        layer = {w: nf for w, nf in extended if nf}
        for w, nf in layer.items():
            path = basis_paths.get(w) or Path._unchecked(
                quiver, w, arrows[w[0]].source, arrows[w[-1]].target
            )
            reduction[path] = {basis_paths[b]: c for b, c in nf.items()}
    return QuotientAlgebra(name, quiver, relations, basis_by_degree, reduction, degree)
