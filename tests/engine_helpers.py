"""Views of the engine's objects that only the tests read.

``map_coefficients`` applies a map to every coefficient of a free or a
quotient element, ``graded_dimensions`` lists an algebra's dimension per
degree, ``printed_inverse_mismatches`` names the inverse formulas that
fail as printed, ``assert_clean_poly`` checks a polynomial against
its copy through the checking constructor, ``verify_all`` runs
``preproj verify all`` in process, and ``preproj_garbage`` lists the
package's objects that a call leaves in reference cycles.
"""

import contextlib
import gc
import io
from fractions import Fraction

from preproj import cli
from preproj.e6 import CONSTRAINED_THETA, INVERSE_ORDER, SymbolicSetup, verify_inverse
from preproj.freealg import FreeElement
from preproj.polyring import NVARS, Poly
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
    report = verify_inverse("printed", SymbolicSetup(theta))
    return [name for name, check in zip(INVERSE_ORDER, report.checks) if not check.passed]


def assert_clean_poly(poly):
    """``poly`` equals its copy through the checking constructor: 9-slot
    exponent tuples and nonzero ``Fraction`` coefficients only."""
    assert type(poly) is Poly
    assert poly.terms == Poly(poly.terms).terms
    for exp, coeff in poly.terms.items():
        assert type(exp) is tuple and len(exp) == NVARS
        assert type(coeff) is Fraction and coeff != 0


def verify_all():
    """``preproj verify all --quiet`` in process; returns its exit status."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(["verify", "all", "--quiet"])


def preproj_garbage(fn) -> list:
    """The objects that ``fn()`` leaves unreachable in reference cycles and
    whose type or function is defined in ``preproj``.

    The collector is off while ``fn`` runs, so nothing is freed before the
    one collection after it, which saves all it finds in ``gc.garbage``.
    Objects of other modules' cycles, such as the standard library's
    ``json`` indent encoder, are left out by their module.
    """
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()
    garbage = list(gc.garbage)
    gc.garbage.clear()
    return [o for o in garbage if _defined_in_preproj(o)]


def _defined_in_preproj(obj) -> bool:
    """Whether ``obj`` is a function or class of ``preproj``, or an
    instance of one of its classes."""
    module = getattr(obj, "__module__", None) or type(obj).__module__
    return isinstance(module, str) and module.split(".")[0] == "preproj"
