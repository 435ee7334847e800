"""Shared test helpers."""

from fractions import Fraction

import pytest

from preproj import freealg
from preproj.quiver import compose


def _echelon(rows) -> dict:
    """Pivot rows ``{lead: tail}`` (lead coefficient 1) of sparse rows.

    Rows are ``{column: Fraction}`` with orderable columns.  A reference
    elimination with no code from ``preproj``, so the ranks and tables the
    tests assert do not rest on the engine's own elimination.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row)
            factor = row.pop(lead)
            if lead not in pivots:
                pivots[lead] = {k: c / factor for k, c in row.items()}
                break
            for k, c in pivots[lead].items():
                acc = row.get(k, Fraction(0)) - factor * c
                if acc:
                    row[k] = acc
                else:
                    row.pop(k, None)
    return pivots


def _rational_rank(rows) -> int:
    return len(_echelon(rows))


def _full_path_build(quiver, relations, max_degree=64):
    """``(reduction, basis, N)`` by elimination over every path of each degree.

    The slow path of ``build_quotient``: at degree d the ideal is spanned
    by arrow * (ideal row of degree d - 1) and relation * path, and all
    paths of degree d are the columns.  Tails are reduced by substituting
    pivots until none is left.  ``relations`` are free elements with
    rational coefficients, each homogeneous.
    """
    by_degree = {}
    for relation in relations:
        if relation.terms:
            row = {p: c.as_rational() for p, c in relation.terms.items()}
            by_degree.setdefault(len(next(iter(row))), []).append(row)
    reduction, basis, previous = {}, [], {}
    vertices = quiver.vertices
    for degree in range(max_degree + 1):
        paths = [
            p
            for v in vertices
            for w in vertices
            for p in quiver.enumerate_paths(v, w, degree)
        ]
        rows = []
        for lead, tail in previous.items():
            full = {lead: Fraction(1), **tail}
            for a in quiver.arrows:
                if a.target == lead.source:
                    prefix = quiver.path(a.name)
                    rows.append({compose(prefix, p): c for p, c in full.items()})
        for g, relation_rows in by_degree.items():
            if g > degree:
                continue
            for row in relation_rows:
                target = next(iter(row)).target
                for w in vertices:
                    for q in quiver.enumerate_paths(target, w, degree - g):
                        rows.append({compose(p, q): c for p, c in row.items()})
        pivots = _echelon(rows)
        for tail in pivots.values():
            while hits := [p for p in tail if p in pivots]:
                factor = tail.pop(hits[0])
                for q, c in pivots[hits[0]].items():
                    acc = tail.get(q, Fraction(0)) - factor * c
                    if acc:
                        tail[q] = acc
                    else:
                        tail.pop(q, None)
        layer = sorted(p for p in paths if p not in pivots)
        if not layer:
            return reduction, basis, degree
        basis += layer
        reduction.update({p: {p: Fraction(1)} for p in layer})
        reduction.update({lead: {p: -c for p, c in tail.items()} for lead, tail in pivots.items()})
        previous = pivots
    raise ValueError(f"no vanishing degree up to {max_degree}")


@pytest.fixture
def rational_rank():
    return _rational_rank


@pytest.fixture(scope="session")
def full_path_build():
    return _full_path_build


@pytest.fixture
def dynkin_preprojective():
    return freealg.dynkin_preprojective
