"""Preprojective algebra of type E6, its deformations, and the verifications.

This module defines the two built-in algebras

    pe6:  the preprojective algebra of the double quiver of E6,
    re6:  the 12-dimensional local algebra K<x,y>/(x^2, y^3, (x+y)^3),

the deformations, each a point theta = (theta_1..theta_9) of k^9 given as
a plain nine-tuple, the explicit change of generators with its inverse,
and the machine verifications:

  * verify_lemma     -- the admissibility criterion for f in rad^2(re6),
  * verify_theorem   -- the seven deformed relations vanish after the
                        change of generators, over the constrained
                        7-variable polynomial ring,
  * verify_inverse   -- the inverse change of generators (two modes),
  * verify_corner_iso-- re6 is the corner of pe6 at the exceptional vertex,
  * sample_check     -- the symbolic residuals against the independent
                        numeric oracle (``oracle``) over Q or GF(p).

The catalog of displayed derivation steps, ``verify_identities``, is in
``derivation``.  The derived constants, the terms of the change of
generators and the names of the seven relations are in ``oracle``, the
one place both pipelines read them from.  ``SymbolicSetup`` holds what
the symbolic reports share at one theta, and the scope in which their
elements are evaluated: the theorem's seven relations, f(x, y), the
corner isomorphism, the inverse formulas and the catalog are all text in
the ``reduce`` grammar, and every check of them goes through the one
runner, ``run_text_checks``.

Vertex labels follow the quiver: the exceptional vertex carrying the
deformed relation b0*a0 + b2*a2 + a3*b3 (+ f) is vertex 3, and the corner
isomorphic to re6 lives there, via x -> b0*a0, y -> b2*a2.  (The corner
at the leaf vertex 0 is 4-dimensional; see README for the labeling note.)
"""
from __future__ import annotations

import random
import time
from functools import cache, cached_property, lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from .expr import ProductTable, evaluate, parse, to_element
from .freealg import FreeElement, GeneratorMap, _as_poly, dynkin_preprojective, generators
from .oracle import (
    DEFORMED_RELATION_NAMES,
    THETA_MONOMIALS,
    GeneratorScalars,
    _draw_theta,
    _equals_vector,
    _integer_theta,
    _scalar_text,
    _vec_text,
    constraint_theta2,
    constraint_theta6,
    generator_terms,
    numeric_relation_residuals,
    primed_generator_terms,
)
from .polyring import Poly
from .quiver import E6_EDGES, Path, Quiver, builtin_quiver
from .quotient import (
    QuotientAlgebra,
    QuotientElement,
    _insert_row,
    build_quotient,
)

EXCEPTIONAL_VERTEX = 3


# -- the two built-in algebras ------------------------------------------------


def pe6_relations() -> list[FreeElement]:
    """The six preprojective relations of E6, on ``builtin_quiver("E6")``."""
    return list(dynkin_preprojective("E6", 6, E6_EDGES)[1])


@lru_cache(maxsize=None)
def build_pe6() -> QuotientAlgebra:
    """The preprojective algebra of type E6 (dimension computed exactly)."""
    return build_quotient(builtin_quiver("E6"), pe6_relations(), name="pe6")


@lru_cache(maxsize=None)
def build_re6() -> QuotientAlgebra:
    """The local algebra K<x,y>/(x^2, y^3, (x+y)^3); 12-dimensional."""
    quiver = builtin_quiver("L2")
    g = generators(quiver)
    x, y = g["x"], g["y"]
    return build_quotient(quiver, [x * x, y * y * y, (x + y) ** 3], name="re6")


def get_algebra(name: str) -> QuotientAlgebra:
    if name == "pe6":
        return build_pe6()
    if name == "re6":
        return build_re6()
    raise KeyError(f"unknown algebra {name!r} (expected pe6 or re6)")


# -- deformations: points theta of k^9 -----------------------------------------
#
# A deformation is one point theta of k^9, a sequence of nine scalars of
# one ring: f = sum theta_i * w_i, w_i the words of ``THETA_MONOMIALS``.
# Over Q[t1..t9] the entries are ``Poly``; a rational point has ``int`` or
# ``Fraction`` entries.


def constraint_residuals(theta: Sequence) -> tuple:
    """(theta1+theta2-2*theta3, theta6 - (2*theta5-3*theta4-3*(theta3-theta1)^2)).

    Works over any scalar ring (Poly, Fraction, ``_Scaled``, ``int``).
    """
    t = theta
    return (
        t[0] + t[1] - 2 * t[2],
        t[5] - constraint_theta6(t[0], t[2], t[3], t[4]),
    )


def check_constraints(theta: Sequence, p: int | None = None) -> None:
    """Raise ValueError unless theta satisfies both admissibility constraints.

    With ``p`` the thetas are ``int`` residues and the constraints are
    read mod p; either way the error writes rational residuals as
    ``_scalar_text`` does, and ``Poly`` residuals as ``str`` does.
    """
    c1, c2 = constraint_residuals(theta)
    if p is not None:
        c1, c2 = c1 % p, c2 % p
    if c1 or c2:
        c1, c2 = (
            str(c) if isinstance(c, Poly) else _scalar_text(c.numerator, c.denominator, p)
            for c in (c1, c2)
        )
        raise ValueError(
            f"theta values violate the admissibility constraints (residuals {c1}, {c2})"
        )


# The two symbolic points of k^9: all nine thetas free, and theta_2,
# theta_6 eliminated by the two constraints, leaving seven free.
FREE_THETA = tuple(Poly.var(i) for i in range(1, 10))
_t1, _, _t3, _t4, _t5, _, _t7, _t8, _t9 = FREE_THETA
CONSTRAINED_THETA = (
    _t1, constraint_theta2(_t1, _t3), _t3, _t4, _t5,
    constraint_theta6(_t1, _t3, _t4, _t5), _t7, _t8, _t9,
)


def _path_sum(quiver: Quiver, terms: Iterable) -> FreeElement:
    """The sum of coeff * path(*names) over the (coeff, names) pairs of ``terms``."""
    total = FreeElement.zero(quiver)
    for coeff, names in terms:
        total = total + FreeElement.from_path(quiver.path(*names)).scale(coeff)
    return total


def as_free_element(theta: Sequence) -> FreeElement:
    """f = sum theta_i * (i-th rad^2 basis word) on the two-loop quiver."""
    # each letter of a word names an arrow of L2
    return _path_sum(builtin_quiver("L2"), zip(theta, THETA_MONOMIALS, strict=True))


# -- derived constants ---------------------------------------------------------


def derived_constants(theta: Sequence) -> GeneratorScalars:
    """The named coefficients of the change of generators at ``theta``.

    The change of generators is the theorem's at admissible points only,
    so a theta off the constraint variety, symbolic or rational, is a
    ValueError (``check_constraints``), as is one of other than nine
    entries (the unpacking in ``GeneratorScalars``).
    """
    s = GeneratorScalars(theta)
    check_constraints(theta)
    return s


def primed_generators(s: GeneratorScalars) -> dict[str, FreeElement]:
    """The substituted generators a2', b2', ..., b4' as free elements on E6."""
    quiver = builtin_quiver("E6")
    return {name: _path_sum(quiver, terms) for name, terms in primed_generator_terms(s).items()}


def substituted_generators(theta: Sequence) -> GeneratorMap:
    """The change of generators of pe6 at an admissible theta (checked by
    ``derived_constants``), as a homomorphism of the free path algebra.

    No report calls it: they read the primed generators as text (see
    ``SymbolicSetup.scope``), and the tests apply this map as their
    reference.
    """
    quiver = builtin_quiver("E6")
    terms = generator_terms(derived_constants(theta))
    return GeneratorMap(
        quiver, quiver, {name: _path_sum(quiver, t) for name, t in terms.items()}
    )


# the substituted generators, a2' ... b4'
PRIMED_NAMES = ("a2", "b2", "a3", "b3", "a4", "b4")
# the named constants of ``GeneratorScalars`` that a scope binds
SCOPE_CONSTANTS = ("alpha", "beta", "gamma", "delta", "psi", "kappa1", "kappa2")
# f(x, y) = sum t_i * w_i over the words of ``THETA_MONOMIALS``, and
# f(x, b2'*a2'), as text in the scope of ``SymbolicSetup``
F_TEXT = " + ".join(f"t{i}*{'*'.join(word)}" for i, word in enumerate(THETA_MONOMIALS, 1))
F_PRIMED_TEXT = F_TEXT.replace("y", "b2'*a2'")


class SymbolicSetup:
    """The set-up that the symbolic reports share at one point theta.

    Each part is built on first use, by the check that first reads it, and
    kept for the life of the object.  ``verify all`` makes one and hands
    it to the theorem, the derivation catalog, the corner isomorphism and
    the inverse formulas, so the derived constants, the primed generators,
    f(x, y) and f(x, b2'*a2') are each built once per run; a report run on
    its own makes its own.  It is per run, not a process cache: a CLI call
    runs once and would gain nothing from one.

    ``products`` is the set-up's ``expr.ProductTable``: the free products
    of the values its scope hands out (the loops x, y and z, the primed
    generators, f(x, y), f(x, b2'*a2') and the definitions of a report),
    and of products already in it, each formed once for the run although
    many texts ask for it: ``verify all`` asks for b2'*a2' eleven times.
    ``element`` and ``run_text_checks`` pass it to ``expr``; the table
    holds no reference to the set-up, so it is freed with it.  Its
    soundness argument is in ``expr.ProductTable``.
    """

    def __init__(self, theta: Sequence = CONSTRAINED_THETA):
        self.theta = theta
        self.products = ProductTable()

    @cached_property
    def constants(self) -> GeneratorScalars:
        return derived_constants(self.theta)

    @cached_property
    def primed(self) -> dict[str, FreeElement]:
        return primed_generators(self.constants)

    @cached_property
    def loops(self) -> dict[str, Path]:
        """x = b0*a0, y = b2*a2 and z = a3*b3, the loops at the exceptional
        vertex, as paths: one object each for the set-up, so that the
        product table finds their products."""
        quiver = builtin_quiver("E6")
        return {
            name: quiver.path(*word)
            for name, word in (("x", ("b0", "a0")), ("y", ("b2", "a2")), ("z", ("a3", "b3")))
        }

    @cached_property
    def f_xy(self) -> FreeElement:
        """f(b0*a0, b2*a2), the text ``F_TEXT`` (see ``element``)."""
        return self.element(F_TEXT)

    @cached_property
    def f_xy_primed(self) -> FreeElement:
        """f(b0*a0, b2'*a2'), the text ``F_PRIMED_TEXT`` (see ``element``)."""
        return self.element(F_PRIMED_TEXT)

    def element(self, text: str) -> FreeElement:
        """The element of ``text`` on E6 in a new ``scope``, every product
        and power dropping the paths of length >= N, the nilpotency degree
        of pe6, and the products of scope values read from ``products``, as
        ``run_text_checks`` builds its elements."""
        pe6 = build_pe6()
        return to_element(
            parsed(text, SCOPE_NAMES),
            pe6.quiver,
            self.scope(),
            pe6.nilpotency_degree,
            self.products,
        )

    def scope(self) -> dict:
        """The names of ``SCOPE_NAMES``, for ``expr.evaluate`` on E6.

        t1..t9 are the entries of theta; x, y and z are the ``loops`` b0*a0,
        b2*a2 and a3*b3 at the exceptional vertex, as paths, so that a word
        such as b3*y*x*a3 composes to one path; a2' ... b4' are the primed
        generators; the constants are those of ``GeneratorScalars``; f_xy
        and f_xy' are f(x, y) and f(x, b2'*a2').  Each is looked up, and
        the costly ones built, on first use.  A new dict at each call, not
        kept on the set-up: its functions refer to the set-up, and a set-up
        that held them would be a reference cycle, freed only by the
        garbage collector.
        """
        scope = {name: (lambda name=name: self.loops[name]) for name in ("x", "y", "z")}
        scope.update(
            (f"t{i}", lambda value=_as_poly(value): value) for i, value in enumerate(self.theta, 1)
        )
        scope.update((f"{n}'", lambda n=n: self.primed[n]) for n in PRIMED_NAMES)
        scope.update(
            (n, lambda n=n: _as_poly(getattr(self.constants, n))) for n in SCOPE_CONSTANTS
        )
        scope["f_xy"] = lambda: self.f_xy
        scope["f_xy'"] = lambda: self.f_xy_primed
        return scope


# every name a scope binds: t1..t9 and the names beyond the grammar's
SCOPE_NAMES = frozenset(SymbolicSetup().scope())


# The six inverse formulas, in the scope of ``SymbolicSetup`` and of
# ``INVERSE_CONSTANTS``.  ``printed`` is the verbatim form; ``corrected``
# drops the stray ``a2'`` factor from the a4 formula, primes the lone
# unprimed ``a2`` in the a3 formula (immaterial in the quotient), and
# replaces the three constants alpha2, beta2, alpha3 of the a3 formula by
# the solved inverting coefficients (the printed ones do not invert).
_PRINTED_INVERSE = {
    "a2": "a2' + t8*a2'*x*b2'*a2'*b2'*a2'",
    "b2": "b2' - delta*x*b2'*a2'*x*b2'*a2'*b2'",
    "a3": "a3' - t1*x*a3' - t3*b2'*a2'*a3' + alpha1*x*b2'*a2'*a3' + beta1*b2'*a2*x*a3'"
          " + alpha2*x*b2'*a2'*x*a3' + beta2*b2'*a2'*x*b2'*a2'*a3'"
          " + alpha3*x*b2'*a2'*x*b2'*a2'*a3'",
    "b3": "b3' - (t3 - t1)*b3'*x - psi*b3'*b2'*a2'*x + (t3 - t1)*psi*b3'*x*b2'*a2'*x"
          " + psi^2*b3'*b2'*a2'*x*b2'*a2'*x",
    "a4": "a4'*a2' - kappa1*b3'*x*a3'*a4' - kappa2*b3'*b2'*a2'*x*a3'*a4'",
    "b4": "b4' + kappa1*b4'*b3'*x*a3' - t3*kappa1*b4'*b3'*x*b2'*a2'*a3'",
}
INVERSE_FORMULAS = {
    "printed": _PRINTED_INVERSE,
    "corrected": {
        **_PRINTED_INVERSE,
        "a3": "a3' - t1*x*a3' - t3*b2'*a2'*a3' + alpha1*x*b2'*a2'*a3' + beta1*b2'*a2'*x*a3'"
              " + alpha2_inv*x*b2'*a2'*x*a3' + beta2_inv*b2'*a2'*x*b2'*a2'*a3'"
              " + alpha3_inv*x*b2'*a2'*x*b2'*a2'*a3'",
        "a4": "a4' - kappa1*b3'*x*a3'*a4' - kappa2*b3'*b2'*a2'*x*a3'*a4'",
    },
}
# The constants that only the inverse a3 formula reads, as printed, and the
# exactly solved alpha2_inv, beta2_inv, alpha3_inv of the corrected one.
# Unary "-" binds tighter than "^", so a leading -t3^2 is written -1*t3^2.
# At the constrained theta the printed constants differ from the solved ones by
#   alpha2 - alpha2_inv = (t3 - t1)*(2*t4 + 3*t3^2 - 6*t1*t3 + 2*t1^2)
#   beta2 - beta2_inv = t3^2*(t1 - t3)
#   alpha3 - alpha3_inv = t3*((t3 - t1)*(t3*t5 - (t3 + 7)*t4 + t1*t3*(t3 - t1)
#       - 11*t3^2 + 20*t1*t3 - 7*t1^2) - 2*t7)
INVERSE_CONSTANTS = {
    "alpha1": "-alpha + t1*t3 - t3^2",
    "beta1": "-beta + t1*t3 - t3^2",
    "alpha2": "-gamma - t3^2*(t2 - t3) + t1*beta + t1*alpha1 - t3*alpha1",
    "beta2": "-1*t3^2*(t1 - t3) + t3*alpha + t3*beta1 + t3*beta",
    "alpha3": "-1*t3^2*(t1^2 + t2^2 + 2*t4 - 2*t5 + t6 - t1*t2 - t2*t3)"
              " + alpha1*t3^2*(t1 - t3) + beta*t3^2*(t2 - t3) + t3*t8 - t3*alpha2"
              " - t3*beta2 - alpha*alpha1 + beta*alpha1 - beta*beta1 - gamma*t3",
    "alpha2_inv": "-t7 + t1*t5 + t1*t4 - 3*t3*t4 + t1^3 - 7*t1^2*t3 + 11*t1*t3^2 - 5*t3^3",
    "beta2_inv": "t3*t4 + t1^2*t3 - 3*t1*t3^2 + 2*t3^3",
    "alpha3_inv": "t5^2 - 5*t4*t5 + 7*t4^2 + t3*t8 + 2*t3*t7 - 5*t3^2*t5 + 21*t3^2*t4"
                  " + 9*t1*t3*t5 - 33*t1*t3*t4 - 5*t1^2*t5 + 14*t1^2*t4 + 18*t3^4"
                  " - 55*t1*t3^3 + 63*t1^2*t3^2 - 33*t1^3*t3 + 7*t1^4",
}


# -- admissibility -----------------------------------------------------------------


def admissibility_residual(theta: Sequence) -> QuotientElement:
    """Normal form of (x + y + f)^3 in re6."""
    algebra = build_re6()
    g = generators(algebra.quiver)
    cube = (g["x"] + g["y"] + as_free_element(theta)).power(
        3, below=algebra.nilpotency_degree
    )
    return algebra.normal_form(cube)


def is_admissible(theta: Sequence) -> bool:
    return admissibility_residual(theta).is_zero()


def lemma_coefficients(theta: Sequence) -> tuple:
    """The coefficients c1, c2 of [xyxy] and [xyxyy] in the residual of
    (x + y + f)^3 at ``theta``.

    Works over any scalar ring, as ``constraint_residuals`` does; at the
    free indeterminates t1..t9 it gives the two polynomials of the lemma.
    """
    t = theta
    c1 = t[0] + t[1] - 2 * t[2]
    c2 = (
        3 * t[3] - 2 * t[4] + t[5]
        + t[0] ** 2 - t[0] * t[1] + t[1] ** 2 - t[2] ** 2
    )
    return c1, c2


# -- verification reports ------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    passed: bool
    residual: str | None
    ms: float


class VerificationReport:
    def __init__(self, title: str):
        self.title = title
        self.checks: list[CheckResult] = []

    @property
    def passed(self) -> bool:
        """True when there is at least one check and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def counts(self) -> tuple[int, int]:
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks)

    def run(self, name: str, fn: Callable[[], tuple]):
        """Run one check; its ``ms`` is the wall time of ``fn``.

        The one way a check is run: every report, and every kind of text
        check (``run_text_checks``), passes its check here as ``fn``, which
        builds and reduces its elements itself, so ``ms`` covers that work.
        ``fn`` returns (passed, residual), the residual a string, ``None``,
        or a function that makes the string; a passing check keeps no
        residual, so the function is called only when the check fails, and
        a passing check formats nothing.
        """
        start = time.perf_counter()
        passed, residual = fn()
        if passed:
            residual = None
        elif callable(residual):
            residual = residual()
        ms = (time.perf_counter() - start) * 1000.0
        self.checks.append(CheckResult(name, passed, residual, ms))


# -- text checks: the theorem, the corner, the catalog and the inverse formulas -----


@cache
def parsed(text: str, names: frozenset):
    """``parse(text, names)``, once per process for each text and names."""
    return parse(text, names)


def run_text_checks(
    report: VerificationReport, definitions: dict, entries: Iterable, setup: SymbolicSetup
) -> bool:
    """Run the checks of ``entries``, text in the ``reduce`` grammar, into ``report``.

    The one runner of every symbolic check of a relation or an identity:
    the theorem's seven relations, the corner isomorphism's three, the
    derivation catalog and the inverse formulas.  Each entry is (kind,
    check name) or (kind, check name, text), the text being the name when
    left out:

      * ``re6`` and ``pe6``: a chain ``A = B = C`` in that algebra, one check
        per link, that A - B and B - C reduce to zero; a failing link's
        residual is the normal form of its difference;
      * ``differs``: ``A = B`` with A and B of one nonzero normal form; the
        residual is ``got <nf of A>; expected <nf of B>``, and the check
        fails when both are zero;
      * ``scalar``: ``A = B`` for two equal polynomials; the residual is
        ``difference is <A - B>``.

    Each kind is a check function passed to ``VerificationReport.run``,
    the one way a check is run.

    pe6 text is read in the scope of ``setup`` (see ``SymbolicSetup.scope``)
    and of ``definitions``, named texts that the entries and each other
    read, each evaluated by the first check that reads it, and a product of
    scope values is read from the set-up's product table (see
    ``SymbolicSetup``); re6 text has no scope and no table.  Every text is
    parsed once per process.  Each side of a chain is built once, by the
    first link that reads it, inside that check's timed span.  Every product and power drops the paths of length N or
    more, N the nilpotency degree of the algebra (see ``expr.evaluate``);
    they lie in the ideal of relations, so every normal form is that of
    the full element.

    Returns whether every element built on pe6 has integer coefficients.
    The definitions refer to the scope that holds them, so the scope is
    cleared on return, not left to the garbage collector.
    """
    pe6, re6 = build_pe6(), build_re6()
    n = pe6.nilpotency_degree
    names = SCOPE_NAMES.union(definitions)
    scope, products = setup.scope(), setup.products
    scope.update(
        (
            name,
            cache(lambda ast=parsed(text, names): evaluate(ast, pe6.quiver, scope, n, products)),
        )
        for name, text in definitions.items()
    )
    integral = True

    def element(ast, algebra):
        nonlocal integral
        if algebra is re6:
            return to_element(ast, re6.quiver, below=re6.nilpotency_degree)
        value = to_element(ast, pe6.quiver, scope, n, products)
        integral = integral and value.has_integral_coefficients()
        return value

    try:
        for kind, name, *text in entries:
            sides = [parsed(side, names) for side in (text[0] if text else name).split("=")]
            if kind == "scalar":
                lhs, rhs = sides

                def scalar_check(lhs=lhs, rhs=rhs):
                    value = evaluate(lhs, pe6.quiver, scope, n, products)
                    other = evaluate(rhs, pe6.quiver, scope, n, products)
                    return value == other, lambda: f"difference is {value - other}"

                report.run(name, scalar_check)
            elif kind == "differs":
                lhs, rhs = sides

                def differs_check(lhs=lhs, rhs=rhs):
                    got = pe6.normal_form(element(lhs, pe6))
                    want = pe6.normal_form(element(rhs, pe6))
                    ok = got == want and not got.is_zero()
                    return ok, lambda: f"got {got}; expected {want}"

                report.run(name, differs_check)
            else:
                algebra = re6 if kind == "re6" else pe6
                members = [cache(lambda ast=ast: element(ast, algebra)) for ast in sides]
                for k in range(len(members) - 1):

                    def link_check(a=members[k], b=members[k + 1]):
                        nf = algebra.normal_form(a() - b())
                        return nf.is_zero(), lambda: str(nf)

                    suffix = "" if len(members) == 2 else f" [step {k + 1}]"
                    report.run(f"{name}{suffix}", link_check)
    finally:
        scope.clear()
    return integral


# -- lemma -------------------------------------------------------------------------


def verify_lemma() -> VerificationReport:
    """Three checks pinning down the admissibility criterion exactly."""
    report = VerificationReport("lemma")
    algebra = build_re6()
    quiver = algebra.quiver
    g = generators(quiver)
    x, y = g["x"], g["y"]

    def check_free_residual():
        residual = admissibility_residual(FREE_THETA)
        c1, c2 = lemma_coefficients(FREE_THETA)
        expected = algebra.normal_form(
            (x * y * x * y).scale(c1) + (x * y * x * y * y).scale(c2)
        )
        ok = residual == expected
        return ok, lambda: f"got {residual}"

    report.run("residual of (x+y+f)^3 equals c1*[xyxy] + c2*[xyxyy]", check_free_residual)

    def check_constrained_residual():
        residual = admissibility_residual(CONSTRAINED_THETA)
        return residual.is_zero(), lambda: str(residual)

    report.run("residual vanishes under the two constraints", check_constrained_residual)

    def check_second_coefficient_rewrite():
        t = FREE_THETA
        _, substituted = lemma_coefficients((t[0], constraint_theta2(t[0], t[2])) + t[2:])
        target = t[5] - constraint_theta6(t[0], t[2], t[3], t[4])
        ok = substituted == target
        return ok, lambda: f"got {substituted}; expected {target}"

    report.run(
        "second coefficient rewrites to t6 - (2*t5 - 3*t4 - 3*(t3-t1)^2)",
        check_second_coefficient_rewrite,
    )
    return report


# -- deformed relations and theorem --------------------------------------------------


# The seven deformed relations after the change of generators phi, in the
# order of ``DEFORMED_RELATION_NAMES``, as text in the scope of
# ``SymbolicSetup``: phi fixes a0, b0, a1 and b1 and sends every other arrow
# to its primed generator, so phi(f(b0*a0, b2*a2)) is f_xy' = f(x, b2'*a2').
THEOREM_TEXTS = (
    "a0*b0",
    "a1*b1",
    "b1*a1 + a2'*b2'",
    "b3'*a3' + a4'*b4'",
    "b4'*a4'",
    "b0*a0 + b2'*a2' + a3'*b3' + f_xy'",
    "(b0*a0 + b2'*a2')^3",
)


def deformed_relations(theta: Sequence) -> list[FreeElement]:
    """The seven relations presenting the deformed algebra, f expanded.

    f(b0*a0, b2*a2) is expanded modulo paths of length >= N, the
    nilpotency degree of pe6 (see ``SymbolicSetup.f_xy``).
    """
    g = generators(builtin_quiver("E6"))
    a0, b0, a1, b1 = g["a0"], g["b0"], g["a1"], g["b1"]
    a2, b2, a3, b3 = g["a2"], g["b2"], g["a3"], g["b3"]
    a4, b4 = g["a4"], g["b4"]
    return [
        a0 * b0,
        a1 * b1,
        b1 * a1 + a2 * b2,
        b3 * a3 + a4 * b4,
        b4 * a4,
        b0 * a0 + b2 * a2 + a3 * b3 + SymbolicSetup(theta).f_xy,
        (b0 * a0 + b2 * a2) ** 3,
    ]


def theorem_residuals(
    theta: Sequence,
) -> list[tuple[str, FreeElement, QuotientElement]]:
    """(name, substituted relation, normal form) for the seven relations:
    the texts of ``THEOREM_TEXTS`` at ``theta``, built as ``verify_theorem``
    builds them, below N (see ``SymbolicSetup.element``)."""
    setup, algebra = SymbolicSetup(theta), build_pe6()
    rows = []
    for name, text in zip(DEFORMED_RELATION_NAMES, THEOREM_TEXTS):
        image = setup.element(text)
        rows.append((name, image, algebra.normal_form(image)))
    return rows


def verify_theorem(setup: SymbolicSetup | None = None) -> VerificationReport:
    """All seven deformed relations vanish after the change of generators.

    At the theta of ``setup``, by default a new set-up at the fully
    symbolic constrained theta.  Each relation is the entry "<text> = 0" of
    ``run_text_checks``, its text that of ``THEOREM_TEXTS``, so its check's
    time covers building and reducing its image; the set-up it reads
    first, the derived constants, the primed generators and f_xy', is
    charged to the first check that reads it.

    Also records the integer certificate: every substituted relation has
    integer coefficients before reduction.  The runner keeps only the
    terms of length below N, the nilpotency degree, so the certificate
    covers those terms; the dropped ones lie in J^N, which is contained in
    the ideal of relations.  It still holds over Z, so the identities hold
    over any coefficient ring: pe6 is ``integral``, that is, its relations
    have integer coefficients and every pivot of the elimination that built
    the table is +1 or -1, so reducing an integral relation divides by
    nothing (see ``build_quotient``).
    """
    report = VerificationReport("theorem")
    entries = [
        ("pe6", name, f"{text} = 0") for name, text in zip(DEFORMED_RELATION_NAMES, THEOREM_TEXTS)
    ]
    integral = run_text_checks(report, {}, entries, setup or SymbolicSetup())
    report.run(
        "integer certificate (substituted relations have integer coefficients)",
        lambda: (integral and build_pe6().integral, None),
    )
    return report


# -- inverse change of generators ------------------------------------------------------


def verify_inverse(
    mode: str = "corrected", setup: SymbolicSetup | None = None
) -> VerificationReport:
    """Substitute the primed definitions into the six inverse formulas.

    ``corrected`` applies the documented corrections (see
    ``INVERSE_FORMULAS``); ``printed`` uses the formulas verbatim and
    records the mismatches it finds.  At the theta of ``setup``, by
    default a new set-up at the constrained theta.

    Each formula is the entry "<formula> = <arrow>" of ``run_text_checks``,
    with the constants of ``INVERSE_CONSTANTS``.  The set-up the six share,
    the derived constants and the primed generators, is built by the first
    check that reads it and charged to it.
    """
    if mode not in INVERSE_FORMULAS:
        raise ValueError(f"unknown mode {mode!r}")
    report = VerificationReport(f"inverse ({mode})")
    formulas = INVERSE_FORMULAS[mode]
    entries = [
        ("pe6", f"{name} recovered from the {mode} formula", f"{formulas[name]} = {name}")
        for name in PRIMED_NAMES
    ]
    run_text_checks(report, INVERSE_CONSTANTS, entries, setup or SymbolicSetup())
    return report


# -- corner isomorphism ---------------------------------------------------------------


def verify_corner_iso(setup: SymbolicSetup | None = None) -> VerificationReport:
    """re6 is the corner of pe6 at the exceptional vertex.

    The corner at the exceptional vertex 3 (where the deformed relation
    lives) is 12-dimensional and the map x -> b0*a0, y -> b2*a2 is an
    isomorphism onto it.  The corner at the leaf vertex 0 has dimension 4;
    the final informational check records that discrepancy with the
    conventional labeling of the corner statement.

    The map is no object of its own: x and y are the loops b0*a0 and
    b2*a2 of the scope of ``setup`` (a new one by default), so the image of
    re6 text is that text read in pe6's scope.  The three relations are
    entries "<relation> = 0" of ``run_text_checks``; the rank check reads
    the twelve basis words of re6 as text, its idempotent e0 as pe6's e3,
    and requires every image to lie in e3*pe6*e3, every path of it
    running 3 -> 3, and the images to have rank 12.  Each check builds its
    elements inside its timed span.
    """
    report = VerificationReport("corner-iso")
    pe6 = build_pe6()
    re6 = build_re6()
    setup = setup or SymbolicSetup()
    v = EXCEPTIONAL_VERTEX

    report.run(
        f"corner dimension at exceptional vertex {v} equals dim re6 = 12",
        lambda: (
            pe6.dimension_at(v, v) == re6.dimension() == 12,
            f"dim corner = {pe6.dimension_at(v, v)}, dim re6 = {re6.dimension()}",
        ),
    )

    entries = [
        ("pe6", f"relation image {text} vanishes under x -> b0*a0, y -> b2*a2", f"{text} = 0")
        for text in ("x^2", "y^3", "(x+y)^3")
    ]
    run_text_checks(report, {}, entries, setup)

    def rank_check():
        pivots: dict = {}
        stray = ""
        for word in re6.basis:
            image = pe6.normal_form(setup.element(str(word) if len(word) else f"e{v}"))
            if not stray and any((p.source, p.target) != (v, v) for p in image.coords):
                stray = f"; the image {image} of {word} is not in e{v}*pe6*e{v}"
            _insert_row(
                pivots,
                {pe6.basis_index[p]: c.as_rational() for p, c in image.coords.items()},
            )
        rank = len(pivots)
        ok = not stray and rank == 12 == pe6.dimension_at(v, v)
        return ok, lambda: f"rank = {rank}{stray}"

    report.run("images of the 12 basis words have rank 12 (isomorphism)", rank_check)

    report.run(
        "labeling note: corner at leaf vertex 0 has dimension 4, not 12",
        lambda: (
            pe6.dimension_at(0, 0) == 4,
            f"dim corner at 0 = {pe6.dimension_at(0, 0)}",
        ),
    )
    return report


# -- the comparer: the numeric oracle against the symbolic residuals ---------------


def check_field(p: int) -> None:
    """Raise ValueError unless the field size ``p`` is a prime below 2^31."""
    # the bound keeps the trial division below about 46,000 steps
    if p >= 2 ** 31:
        raise ValueError(f"{p} is too large: the field size must be a prime below 2^31")
    if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"{p} is not prime")


def sample_check(
    seed: int = 0,
    trials: int = 20,
    field: int | None = None,
    theta: Sequence | None = None,
) -> VerificationReport:
    """Numeric cross-check of the theorem through the independent pipeline.

    Runs the seven relation reductions with purely numeric coefficients
    (structure constants only) and compares every residual with the
    evaluation of the symbolic residual at the same point.  ``field``
    selects GF(p) arithmetic; the default is exact rationals.  A trial
    computes on integers throughout: over Q on values over one power of a
    common denominator (``_Scaled``), over GF(p) on ``int`` residues.
    When ``theta`` is given, nine ``int`` or ``Fraction`` entries, it is
    validated and used for a single trial.
    """
    p = field
    if p is not None:
        check_field(p)
    field_name = "rationals" if p is None else f"GF({p})"
    report = VerificationReport(f"sample ({field_name})")
    symbolic, symbolic_y = _symbolic_side()
    algebra = build_pe6()
    rng = random.Random(seed)

    if theta is not None:
        trials_iter = [_integer_theta(theta, p)]
    else:
        # drawn one trial at a time, so only the running trial's values are held
        trials_iter = (_draw_theta(rng, p) for _ in range(trials))

    for k, th in enumerate(trials_iter):
        check_constraints(th, p)

        def run_trial(th=th):
            assignment = dict(enumerate(th, 1))
            if p is None:
                value_at = lambda poly: poly.evaluate(assignment)  # noqa: E731
            else:
                value_at = lambda poly: poly.evaluate_mod(assignment, p)  # noqa: E731
            # the bare name, looked up here at call time: a wrapper set on
            # this module (the benchmark's tracer) sees every oracle call
            residuals, y = numeric_relation_residuals(algebra, th, p)
            for sym_terms, (name, vec) in zip(symbolic, residuals):
                if vec[0]:
                    return False, f"{name} nonzero: {_vec_text(algebra, vec, p)}"
                if any(value_at(poly) for _, poly in sym_terms):
                    return False, f"{name} disagrees with evaluated symbolic residual"
            # a nonzero intermediate keeps the two pipelines honest
            evaluated_y = {i: v for i, poly in symbolic_y if (v := value_at(poly))}
            if not _equals_vector(evaluated_y, y, p):
                return False, "b2'*a2' disagrees between the two pipelines"
            if not evaluated_y:
                return False, "b2'*a2' unexpectedly reduced to zero"
            return True, None

        report.run(f"trial {k} over {field_name}", run_trial)
    return report


@lru_cache(maxsize=None)
def _symbolic_side() -> tuple[tuple, tuple]:
    """The symbolic residuals and b2'*a2' over the constrained ring, each
    as (basis index, Poly) pairs.

    They depend on no trial, seed or field, so they are computed once;
    ``theorem_residuals`` is looked up on the module at that first call.
    """
    primed = SymbolicSetup().primed
    algebra = build_pe6()
    index = algebra.basis_index

    def by_index(nf: QuotientElement) -> tuple:
        return tuple((index[b], poly) for b, poly in nf.coords.items())

    return (
        tuple(by_index(nf) for _, _, nf in theorem_residuals(CONSTRAINED_THETA)),
        by_index(algebra.normal_form(primed["b2"] * primed["a2"])),
    )
