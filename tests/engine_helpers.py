"""Views of the engine's objects that only the tests read.

``map_coefficients`` applies a map to every coefficient of a free or a
quotient element, ``graded_dimensions`` lists an algebra's dimension per
degree, and ``printed_inverse_mismatches`` names the inverse formulas
that fail as printed.
"""

from preproj.e6 import CONSTRAINED_THETA, INVERSE_ORDER, verify_inverse
from preproj.freealg import FreeElement
from preproj.quotient import QuotientElement


def map_coefficients(element, fn):
    """``element``, a ``FreeElement`` or a ``QuotientElement``, with ``fn``
    applied to every coefficient."""
    if isinstance(element, FreeElement):
        return FreeElement(element.quiver, {p: fn(c) for p, c in element.terms.items()})
    return QuotientElement(element.algebra, {p: fn(c) for p, c in element.coords.items()})


def graded_dimensions(algebra) -> list[int]:
    return [len(layer) for layer in algebra.basis_by_degree]


def printed_inverse_mismatches(theta=CONSTRAINED_THETA) -> list[str]:
    """Names of inverse formulas that fail verbatim (stable across runs)."""
    report = verify_inverse("printed", theta)
    return [name for name, check in zip(INVERSE_ORDER, report.checks) if not check.passed]
