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
appear only where ``multiply`` maps elements in and out.  The constants
live in one table of rows, row i mapping each j with a nonzero product
basis[i]*basis[j] to that product.  A row is filled on first use, from
the basis words that start where basis[i] ends, since every other pair
does not compose; pe6 has 1,657 nonzero pairs among its 24,336.

Reduction data is stored over the rationals only.  Elements with
polynomial coefficients are reduced coefficient-wise, which is sound
because the ideal itself is rational.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .freealg import FreeElement, format_element
from .polyring import Poly, power
from .quiver import Path, Quiver, compose

Row = dict  # monomial (Path or arrow tuple) -> Fraction | int, single degree

# the build gives up when no degree up to this one vanishes
MAX_DEGREE = 64

# the normal form of every path the reduction table does not hold
_NO_TERMS: Mapping = MappingProxyType({})


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
        """The canonical basis-path representative as a free element.

        Built unchecked (see ``FreeElement._unchecked``) on a copy of the
        coordinates, which are already clean: every key is a basis path of
        the algebra, hence a path on its quiver; every coefficient is a
        ``Poly``, as the class states; and ``__init__`` keeps no zero one.
        """
        return FreeElement._unchecked(self.algebra.quiver, dict(self.coords))

    def _check_same_algebra(self, other: "QuotientElement"):
        if self.algebra is not other.algebra:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        if not isinstance(other, QuotientElement):
            return NotImplemented
        self._check_same_algebra(other)
        out = dict(self.coords)
        for p, c in other.coords.items():
            acc = out.get(p)
            if acc is None:
                out[p] = c
            elif acc := acc + c:
                out[p] = acc
            else:
                del out[p]
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
        """The n-th power by repeated squaring (``polyring.power``)."""
        return power(self, n, operator.mul, self.algebra.one)

    def __eq__(self, other):
        if not isinstance(other, QuotientElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.coords.items())))

    def __bool__(self):
        return bool(self.coords)

    def __str__(self):
        return format_element(self.lift())

    def __repr__(self):
        return f"QuotientElement({self})"


class QuotientAlgebra:
    """Basis, reduction table and structure constants of a graded quotient."""

    def __init__(
        self,
        name: str,
        quiver: Quiver,
        basis_by_degree: list[list[Path]],
        reduction: dict[Path, dict[Path, Fraction | int]],
        nilpotency_degree: int,
        integral: bool,
    ):
        self.name = name
        self.quiver = quiver
        self.basis_by_degree = basis_by_degree
        self.reduction = reduction
        self.nilpotency_degree = nilpotency_degree
        # integral relations, every pivot +1 or -1 (see ``build_quotient``)
        self.integral = integral
        self.basis: list[Path] = [p for deg in basis_by_degree for p in deg]
        self.basis_index = {p: i for i, p in enumerate(self.basis)}
        # row i of the structure constants, filled by ``structure_row``
        self._rows: list[dict[int, list] | None] = [None] * len(self.basis)

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

    def reduce_path(self, path: Path) -> Mapping[Path, Fraction | int]:
        """Rational reduction of a single path to basis coordinates.

        The table holds exactly the paths whose normal form is nonzero
        (``build_quotient`` stores each of them below the nilpotency
        degree N, and nothing of length >= N), so any other path reduces
        to zero: a shared read-only empty mapping.  The mapping returned
        is the table's own row, which other paths with the same normal
        form share: callers must not change it.
        """
        return self.reduction.get(path, _NO_TERMS)

    def normal_form(self, element: FreeElement) -> QuotientElement:
        """The unique basis expression of an element's residue class.

        The coordinates accumulate with no zero seed (see
        ``Poly._unchecked``): every ``coeff * c`` is nonzero, a nonzero
        ``Poly`` times a nonzero table entry, because Q[t1..t9] is a domain.
        """
        if element.quiver is not self.quiver:
            raise ValueError("element lives on a different quiver")
        coords: dict[Path, Poly] = {}
        for path, coeff in element.terms.items():
            for b, c in self.reduce_path(path).items():
                acc = coords.get(b)
                if acc is None:
                    coords[b] = coeff * c
                elif acc := acc + coeff * c:
                    coords[b] = acc
                else:
                    del coords[b]
        return QuotientElement(self, coords)

    def element(self, coords: Mapping[Path, Poly]) -> QuotientElement:
        return QuotientElement(self, coords)

    # -- multiplication ----------------------------------------------------------

    def structure_constant(self, i: int, j: int) -> list[tuple[int, Fraction | int]]:
        """Product of basis elements i and j as (basis index, coefficient) pairs.

        The reduction table stores a coefficient with denominator 1 as an
        ``int`` (see ``_exact``), so every scalar type multiplies it without
        converting a ``Fraction``.  Computed afresh on each call;
        ``structure_row`` keeps the nonzero ones.
        """
        product = compose(self.basis[i], self.basis[j])
        if product is None:
            return []
        index = self.basis_index
        return [(index[b], c) for b, c in self.reduce_path(product).items()]

    def structure_row(self, i: int) -> dict[int, list[tuple[int, Fraction | int]]]:
        """The nonzero structure constants of basis element i on the left:
        j -> ``structure_constant(i, j)`` for every j where it is not empty,
        in ascending j.  Filled on first use; callers must not change it.
        """
        row = self._rows[i]
        if row is None:
            target = self.basis[i].target
            row = {}
            for j, q in enumerate(self.basis):
                if q.source == target and (entry := self.structure_constant(i, j)):
                    row[j] = entry
            self._rows[i] = row
        return row

    def product(self, u: Mapping[int, object], v: Mapping[int, object]) -> dict[int, object]:
        """Bilinear product of coordinate dicts through the structure constants.

        Coordinates are keyed by basis index, in and out.  Generic over the
        coefficient type: any scalar that multiplies by an ``int`` and a
        ``Fraction`` works (``Poly``, ``Fraction``, ``int``, or a field
        scalar with that arithmetic).  A constant 1 adds the coefficient
        product unscaled.
        No zero coordinates are stored.

        Only the pairs in the rows of ``structure_row`` are multiplied.
        That is the full bilinear sum because:

        * a pair missing from row iu is an empty sum: either basis[iu]
          does not end where basis[iv] starts, so ``compose`` gives None,
          or the composed path reduces to zero;
        * the rows never go stale: they are read from the reduction
          table, which does not change once ``build_quotient`` has
          returned;
        * the result's keys come in the same order as from a loop over
          every pair, u's coordinates outside and v's inside, since the
          pairs left out add no key.
        """
        right = list(v.items())
        acc: dict[int, object] = {}
        for iu, cu in u.items():
            row = self.structure_row(iu)
            if not row:
                continue
            for iv, cv in right:
                entry = row.get(iv)
                if entry is None:
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
        lines = []
        for i in range(self.dimension()):
            for j, entry in self.structure_row(i).items():
                for k, c in sorted(entry):
                    lines.append(f"{i},{j},{k},{c}")
        return "\n".join(lines)

    # -- corners --------------------------------------------------------------------

    def corner_basis(self, v: int) -> list[Path]:
        self.quiver._check_vertex(v)
        return [p for p in self.basis if p.source == v and p.target == v]

    def basis_listing(self, vertex: int | None = None) -> str:
        """One line per basis element, or per loop at ``vertex`` (see
        ``corner_basis``): ``deg=<d> <source>-><target> <path>``."""
        paths = self.basis if vertex is None else self.corner_basis(vertex)
        return "\n".join(f"deg={len(p)} {p.source}->{p.target} {p}" for p in paths)

    def __repr__(self):
        return (
            f"QuotientAlgebra({self.name}, dim={self.dimension()}, "
            f"nilpotency_degree={self.nilpotency_degree})"
        )


def _exact(c: Fraction) -> Fraction | int:
    """``c`` as an ``int`` when its denominator is 1, else unchanged."""
    return c.numerator if c.denominator == 1 else c


def _add_multiple(row: Row, factor, other: Mapping) -> None:
    """row += factor * other in place, dropping zero entries.

    No zero seed: a key new to ``row`` takes the term ``factor * c``
    itself, a sum that cancels deletes its key, and any other sum replaces
    the value where it stands.  That stores what seeding with
    ``Fraction(0)`` stores, in the same key order, as long as ``factor``
    and every c are nonzero (every caller's factor is a coefficient of a
    row, and no row holds a zero): over Q, a domain, each term is then
    nonzero, so a new key is never a zero entry.
    """
    for p, c in other.items():
        acc = row.get(p)
        if acc is None:
            row[p] = factor * c
        elif acc := acc + factor * c:
            row[p] = acc
        else:
            del row[p]


def _insert_row(pivots: dict, row: Row) -> Fraction | int | None:
    """Reduce a row against current pivots and record it if nonzero.

    Returns the pivot, the lead coefficient the recorded row was divided
    by, or None when the row reduced to zero.  The division is exact on
    ``int`` rows too: a pivot -1 negates, any other a ``Fraction`` divides.
    """
    while row:
        lead = max(row)
        pivot_row = pivots.get(lead)
        if pivot_row is None:
            coeff = row.pop(lead)
            if coeff == -1:
                row = {p: -c for p, c in row.items()}
            elif coeff != 1:
                row = {p: Fraction(c, coeff) for p, c in row.items()}
            pivots[lead] = row
            return coeff
        _add_multiple(row, -row.pop(lead), pivot_row)
    return None


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


def _prepend(normal: dict, i: int, nf: Row) -> Row:
    """NF of arrow i times a path whose normal form is nf."""
    row: Row = {}
    for b, c in nf.items():
        _add_multiple(row, c, normal[(i,) + b])
    return row


def _normal_form(normal: dict, word: tuple) -> Row:
    """NF of a word of degree >= 1, memoised in ``normal``.

    A module function, not a closure in ``build_quotient``: a closure that
    calls itself is a reference cycle, which would keep ``normal`` and
    every row in it alive after the build until the collector runs.
    """
    row = normal.get(word)
    if row is None:
        row = normal[word] = _prepend(normal, word[0], _normal_form(normal, word[1:]))
    return row


def _relation_rows(quiver: Quiver, relations: Sequence[FreeElement]) -> dict[int, list]:
    """The relations as (target vertex, row over arrow-index words), by degree.

    Every relation must lie on ``quiver``, have rational coefficients and
    be homogeneous: all its monomials share source, target and a length
    of at least 1.  Zero relations are dropped; duplicates are harmless.
    """
    by_degree: dict[int, list[tuple[int, Row]]] = {}
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
        target = next(iter(rel.terms)).target
        by_degree.setdefault(degree, []).append(
            (target, {p.arrows: c.as_rational() for p, c in rel.terms.items()})
        )
    return by_degree


def build_quotient(
    quiver: Quiver, relations: Sequence[FreeElement], name: str = "quotient"
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
    the path lies in the ideal.  Each distinct row is stored once, its
    entries ``_exact``: paths whose normal forms have the same terms in
    the same order, coefficients included, share one dict, which thus has
    every replaced row's keys, values and key order.  Sharing is sound
    because no table row changes once the build returns (``reduce_path``).

    The algebra records as ``integral`` whether every relation coefficient
    is an integer and every pivot, the lead coefficient a recorded row is
    divided by, is +1 or -1.  Then every row of the build is integral, by
    induction on the degree: an image row is an integer combination of
    integral normal forms, reducing it against a pivot row adds an integer
    multiple of an integral row, and dividing by +1 or -1 keeps it
    integral.  So every normal form and every structure constant is an
    integer, and reducing an element with integer coefficients divides by
    nothing.

    Raises ValueError if no vanishing degree is found up to ``MAX_DEGREE``;
    the quotient is then not visibly finite-dimensional and this engine
    does not apply.
    """
    by_degree = _relation_rows(quiver, relations)
    integral = all(
        c.denominator == 1 for rows in by_degree.values() for _, row in rows for c in row.values()
    )
    arrows = quiver.arrows
    into = {v: quiver.arrows_into(v) for v in quiver.vertices}

    basis_by_degree: list[list[Path]] = [[quiver.idempotent(v) for v in quiver.vertices]]
    basis_paths: dict[tuple, Path] = {}
    # basis words of each degree by source vertex; the empty word at degree 0
    starting_at: list[dict[int, list[tuple]]] = [{v: [()] for v in quiver.vertices}]
    # NF of every candidate, and of the lower-degree words pi has needed
    normal: dict[tuple, Row] = {}

    def project(word: tuple) -> Row:
        if len(word) == 1:
            return {word: Fraction(1)}
        return {word[:1] + b: c for b, c in _normal_form(normal, word[1:]).items()}

    for degree in range(1, MAX_DEGREE + 1):
        pivots: dict[tuple, Row] = {}
        for g, rows in by_degree.items():
            if g > degree:
                continue
            for target, row in rows:
                for b in starting_at[degree - g].get(target, ()):
                    image: Row = {}
                    for p, c in row.items():
                        _add_multiple(image, c, project(p + b))
                    pivot = _insert_row(pivots, image)
                    if pivot is not None and abs(pivot) != 1:
                        integral = False
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
            f"no vanishing degree up to {MAX_DEGREE}; "
            "the quotient does not appear to be finite-dimensional"
        )

    reduction: dict[Path, dict[Path, Fraction | int]] = {e: {e: 1} for e in basis_by_degree[0]}
    shared: dict[tuple, dict[Path, Fraction | int]] = {}
    # every path of degree d > 1 is an arrow times a path of degree d - 1;
    # a path in the ideal has only extensions in the ideal, so each layer
    # keeps the paths of nonzero normal form alone
    layer: dict[tuple, Row] = {}
    for d in range(1, degree):
        if d == 1:
            extended = (((i,), normal[(i,)]) for i in range(len(arrows)))
        else:
            extended = (
                ((i,) + q, _prepend(normal, i, nf))
                for q, nf in layer.items()
                for i in into[arrows[q[0]].source]
            )
        layer = {w: nf for w, nf in extended if nf}
        for w, nf in layer.items():
            path = basis_paths.get(w) or Path._unchecked(
                quiver, w, arrows[w[0]].source, arrows[w[-1]].target
            )
            terms = tuple([(b, _exact(c)) for b, c in nf.items()])
            row = shared.get(terms)
            if row is None:
                row = shared[terms] = {basis_paths[b]: c for b, c in terms}
            reduction[path] = row
    return QuotientAlgebra(name, quiver, basis_by_degree, reduction, degree, integral)
