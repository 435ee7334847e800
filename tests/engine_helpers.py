"""Views of the engine's objects that only the tests read.

``map_coefficients`` applies a map to every coefficient of a free or a
quotient element, ``graded_dimensions`` lists an algebra's dimension per
degree, ``printed_inverse_mismatches`` names the inverse formulas that
fail as printed, ``text_scope`` binds text definitions into a set-up's
scope, ``text_inverse_constants`` and ``reference_inverse_constants``
give the constants of the inverse formulas from their text and from
Python arithmetic, ``assert_clean_poly`` checks a polynomial against
its copy through the checking constructor, ``verify_all`` runs
``preproj verify all`` in process, ``reduce_text`` runs ``preproj
reduce`` in process and returns what it prints, ``cyclic_garbage``
lists the objects that a call leaves in reference cycles, and
``corner_embedding`` is the corner map x -> b0*a0, y -> b2*a2 as a
``GeneratorMap``, the reference for the text that the reports read.
"""

import contextlib
import gc
import io
from fractions import Fraction
from functools import cache

from preproj import cli
from preproj.e6 import (
    CONSTRAINED_THETA,
    EXCEPTIONAL_VERTEX,
    INVERSE_CONSTANTS,
    PRIMED_NAMES,
    SCOPE_NAMES,
    SymbolicSetup,
    build_pe6,
    verify_inverse,
)
from preproj.expr import evaluate, parse
from preproj.freealg import FreeElement, GeneratorMap, generators
from preproj.oracle import GeneratorScalars
from preproj.polyring import NVARS, Poly
from preproj.quiver import builtin_quiver
from preproj.quotient import QuotientElement


def map_coefficients(element, fn):
    """``element``, a ``FreeElement`` or a ``QuotientElement``, with ``fn``
    applied to every coefficient."""
    if isinstance(element, FreeElement):
        return FreeElement(element.quiver, {p: fn(c) for p, c in element.terms.items()})
    return QuotientElement(element.algebra, {p: fn(c) for p, c in element.coords.items()})


def corner_embedding() -> GeneratorMap:
    """x -> b0*a0, y -> b2*a2: the two-loop quiver into loops at vertex 3."""
    e6 = builtin_quiver("E6")
    g = generators(e6)
    return GeneratorMap(
        builtin_quiver("L2"),
        e6,
        {"x": g["b0"] * g["a0"], "y": g["b2"] * g["a2"]},
        vertex_map={0: EXCEPTIONAL_VERTEX},
    )


def graded_dimensions(algebra) -> list[int]:
    return [len(layer) for layer in algebra.basis_by_degree]


def printed_inverse_mismatches(theta=CONSTRAINED_THETA) -> list[str]:
    """Names of inverse formulas that fail verbatim (stable across runs)."""
    report = verify_inverse("printed", SymbolicSetup(theta))
    return [name for name, check in zip(PRIMED_NAMES, report.checks) if not check.passed]


def text_scope(setup, definitions, below=None) -> dict:
    """``setup.scope()`` with the text ``definitions`` bound, each parsed
    anew and evaluated on pe6 on first use, every product dropping the
    paths of length ``below`` or more if it is given and kept whole if not.
    The definitions refer to the scope, so the caller clears it."""
    quiver = build_pe6().quiver
    names = SCOPE_NAMES.union(definitions)
    scope = setup.scope()
    scope.update(
        (name, cache(lambda ast=parse(text, names): evaluate(ast, quiver, scope, below)))
        for name, text in definitions.items()
    )
    return scope


def text_inverse_constants(theta) -> dict:
    """The ``Poly`` values of ``e6.INVERSE_CONSTANTS`` at ``theta``."""
    scope = text_scope(SymbolicSetup(theta), INVERSE_CONSTANTS)
    try:
        return {name: scope[name]() for name in INVERSE_CONSTANTS}
    finally:
        scope.clear()


def reference_inverse_constants(theta) -> dict:
    """Slow path of ``e6.INVERSE_CONSTANTS``: the eight constants of the
    inverse formulas in Python arithmetic, over any commutative scalar ring
    that ``GeneratorScalars`` takes (``Poly``, ``Fraction``, ``GF``,
    ``_Scaled``), on the change-of-generator constants it computes."""
    s = GeneratorScalars(theta)
    alpha, beta, gamma = s.alpha, s.beta, s.gamma
    t1, t2, t3, t4, t5, t6, t7, t8, _ = theta
    alpha1 = -alpha + t1 * t3 - t3 ** 2
    beta1 = -beta + t1 * t3 - t3 ** 2
    alpha2 = -gamma - t3 ** 2 * (t2 - t3) + t1 * beta + t1 * alpha1 - t3 * alpha1
    beta2 = -t3 ** 2 * (t1 - t3) + t3 * alpha + t3 * beta1 + t3 * beta
    alpha3 = (
        -t3 ** 2 * (t1 ** 2 + t2 ** 2 + 2 * t4 - 2 * t5 + t6 - t1 * t2 - t2 * t3)
        + alpha1 * t3 ** 2 * (t1 - t3)
        + beta * t3 ** 2 * (t2 - t3)
        + t3 * t8 - t3 * alpha2 - t3 * beta2
        - alpha * alpha1 + beta * alpha1 - beta * beta1 - gamma * t3
    )
    return {
        "alpha1": alpha1,
        "beta1": beta1,
        "alpha2": alpha2,
        "beta2": beta2,
        "alpha3": alpha3,
        "alpha2_inv": (
            -t7 + t1 * t5 + t1 * t4 - 3 * t3 * t4
            + t1 ** 3 - 7 * t1 ** 2 * t3 + 11 * t1 * t3 ** 2 - 5 * t3 ** 3
        ),
        "beta2_inv": t3 * t4 + t1 ** 2 * t3 - 3 * t1 * t3 ** 2 + 2 * t3 ** 3,
        "alpha3_inv": (
            t5 ** 2 - 5 * t4 * t5 + 7 * t4 ** 2 + t3 * t8 + 2 * t3 * t7
            - 5 * t3 ** 2 * t5 + 21 * t3 ** 2 * t4 + 9 * t1 * t3 * t5
            - 33 * t1 * t3 * t4 - 5 * t1 ** 2 * t5 + 14 * t1 ** 2 * t4
            + 18 * t3 ** 4 - 55 * t1 * t3 ** 3 + 63 * t1 ** 2 * t3 ** 2
            - 33 * t1 ** 3 * t3 + 7 * t1 ** 4
        ),
    }


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


def reduce_text(algebra: str, text: str) -> str:
    """``preproj reduce --algebra <algebra> -- <text>`` in process; the
    normal form it prints, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["reduce", "--algebra", algebra, "--", text]) == 0
    return out.getvalue().strip()


def cyclic_garbage(fn) -> list:
    """The objects that ``fn()`` leaves unreachable in reference cycles,
    of every module.

    The collector is off while ``fn`` runs, so nothing is freed before the
    one collection after it, which saves all it finds in ``gc.garbage``.
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
    return garbage
