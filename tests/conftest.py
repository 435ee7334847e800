"""Shared test helpers."""

from fractions import Fraction

import pytest


def _rational_rank(rows) -> int:
    """Rank of sparse rows ``{column: Fraction}`` with orderable columns.

    A reference elimination that imports nothing from ``preproj``, so the
    ranks the tests assert do not rest on the engine's own elimination.
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
    return len(pivots)


@pytest.fixture
def rational_rank():
    return _rational_rank
