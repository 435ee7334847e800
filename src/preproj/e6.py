"""Preprojective algebra of type E6, its deformations, and the verifications.

This module defines the two built-in algebras

    pe6:  the preprojective algebra of the double quiver of E6,
    re6:  the 12-dimensional local algebra K<x,y>/(x^2, y^3, (x+y)^3),

the family of deformation parameters theta_1..theta_9, the derived
constants, the explicit change of generators with its inverse, and the
machine verifications:

  * verify_lemma     -- the admissibility criterion for f in rad^2(re6),
  * verify_theorem   -- the seven deformed relations vanish after the
                        change of generators, over the constrained
                        7-variable polynomial ring,
  * verify_identities-- the full catalog of displayed derivation steps,
  * verify_inverse   -- the inverse change of generators (two modes),
  * verify_corner_iso-- re6 is the corner of pe6 at the exceptional vertex,
  * sample_check     -- an independent numeric pipeline over Q or GF(p).

Vertex labels follow the quiver: the exceptional vertex carrying the
deformed relation b0*a0 + b2*a2 + a3*b3 (+ f) is vertex 3, and the corner
isomorphic to re6 lives there, via x -> b0*a0, y -> b2*a2.  (The corner
at the leaf vertex 0 is 4-dimensional; see README for the labeling note.)
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .freealg import FreeElement, GeneratorMap, dynkin_preprojective, generators
from .polyring import Poly
from .quiver import E6_EDGES, Quiver, builtin_quiver
from .quotient import (
    QuotientAlgebra,
    QuotientElement,
    _insert_row,
    build_quotient,
)

EXCEPTIONAL_VERTEX = 3

# names of the rad^2 basis words carrying theta_1..theta_9, in order
THETA_MONOMIALS = (
    "xy", "yx", "yy", "xyx", "xyy", "yxy", "xyxy", "yxyy", "xyxyy",
)


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


# -- deformation parameters ---------------------------------------------------


def _coerce_scalar(value):
    if isinstance(value, (Poly, Fraction)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"theta values must be Poly or rational, got {type(value).__name__}")


def constraint_theta2(th1, th3):
    """First admissibility constraint: theta_2 = 2*theta_3 - theta_1."""
    return 2 * th3 - th1


def constraint_theta6(th1, th3, th4, th5):
    """Second constraint: theta_6 = 2*theta_5 - 3*theta_4 - 3*(theta_3-theta_1)^2."""
    return 2 * th5 - 3 * th4 - 3 * (th3 - th1) ** 2


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
    read mod p; either way the error writes the residuals as
    ``_scalar_text`` does.
    """
    c1, c2 = constraint_residuals(theta)
    if p is not None:
        c1, c2 = c1 % p, c2 % p
    if c1 or c2:
        raise ValueError(
            "theta values violate the admissibility constraints (residuals "
            f"{_scalar_text(c1.numerator, c1.denominator, p)}, "
            f"{_scalar_text(c2.numerator, c2.denominator, p)})"
        )


def _scalar_text(num: int, den: int, p: int | None) -> str:
    """The value num/den as a report writes it: over Q the reduced
    fraction, as ``str`` of a ``Fraction`` writes it; over GF(p), where den
    is 1 and num a residue in [0, p), as ``num (mod p)``."""
    if p is None:
        return str(Fraction(num, den))
    return f"{num} (mod {p})"


class DeformationParameters:
    """Coefficients (theta_1..theta_9) of a candidate element of rad^2(re6).

    Modes:
      * ``symbolic-free``: all nine thetas are the free indeterminates t1..t9.
      * ``symbolic-constrained``: theta_2 and theta_6 are eliminated by the
        two admissibility constraints, leaving seven free indeterminates.
      * ``numeric``: all thetas are exact rationals (not necessarily
        admissible; use constraints_satisfied / is_admissible to decide).

    Immutable, and equal to parameters with the same thetas and mode.
    """

    __slots__ = ("theta", "mode")

    def __init__(self, theta: tuple, mode: str):
        if mode not in ("symbolic-free", "symbolic-constrained", "numeric"):
            raise ValueError(f"unknown mode {mode!r}")
        if len(theta) != 9:
            raise ValueError("expected 9 theta values")
        if mode == "symbolic-constrained" and any(constraint_residuals(theta)):
            raise ValueError("constrained mode requires the substituted theta_2, theta_6")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("DeformationParameters is immutable")

    def __eq__(self, other):
        if not isinstance(other, DeformationParameters):
            return NotImplemented
        return (self.theta, self.mode) == (other.theta, other.mode)

    def __hash__(self):
        return hash((self.theta, self.mode))

    def __repr__(self):
        return f"DeformationParameters(theta={self.theta!r}, mode={self.mode!r})"

    @staticmethod
    def symbolic_free() -> "DeformationParameters":
        return DeformationParameters(
            tuple(Poly.var(i) for i in range(1, 10)), "symbolic-free"
        )

    @staticmethod
    def symbolic_constrained() -> "DeformationParameters":
        t = {i: Poly.var(i) for i in range(1, 10)}
        t[2] = constraint_theta2(t[1], t[3])
        t[6] = constraint_theta6(t[1], t[3], t[4], t[5])
        return DeformationParameters(
            tuple(t[i] for i in range(1, 10)), "symbolic-constrained"
        )

    @staticmethod
    def numeric(values: Sequence) -> "DeformationParameters":
        values = tuple(_coerce_scalar(v) for v in values)
        if len(values) != 9:
            raise ValueError("expected 9 theta values")
        if any(isinstance(v, Poly) for v in values):
            raise ValueError("numeric mode requires rational theta values")
        return DeformationParameters(values, "numeric")

    @staticmethod
    def zero() -> "DeformationParameters":
        return DeformationParameters.numeric([0] * 9)

    def constraints_satisfied(self) -> bool:
        return not any(constraint_residuals(self.theta))

    def as_free_element(self) -> FreeElement:
        """f = sum theta_i * (i-th rad^2 basis word) on the two-loop quiver."""
        quiver = builtin_quiver("L2")
        total = FreeElement.zero(quiver)
        for value, word in zip(self.theta, THETA_MONOMIALS):
            # each letter of the word names an arrow of L2
            total = total + FreeElement.from_path(quiver.path(*word)).scale(value)
        return total


# -- derived constants ---------------------------------------------------------


class GeneratorScalars:
    """All named coefficients of the change of generators, over one scalar ring.

    Works over any commutative scalar ring with +, -, * and integer
    multiples (Poly, Fraction, ``_Scaled`` in a ``sample`` trial over Q,
    or ``int``, which the numeric oracle reduces mod p afterwards).  The
    constants of the inverse formulas are computed on first use: only
    ``inverse_formula_terms`` reads them, and the numeric oracle never does.
    """

    def __init__(self, theta: Sequence, one):
        (self.th1, self.th2, self.th3, self.th4, self.th5,
         self.th6, self.th7, self.th8, self.th9) = theta
        t1, t2, t3, t4, t5, t6, t7, t8, t9 = theta
        self.one = one
        # each shared power once: these are most of the work per trial
        t1_2, t3_2, t13 = t1 * t1, t3 * t3, t1 * t3
        t1_3, t3_3, t1_2t3, t1t3_2 = t1_2 * t1, t3_2 * t3, t1_2 * t3, t1 * t3_2
        d = t3 - t1
        d2 = d * d
        self.alpha = t4 + d2
        self.beta = t5 - 2 * t4 - 2 * d2
        self.gamma = (
            t7 - 8 * t1t3_2 + 7 * t1_2t3 + 2 * t3 * t4
            - 2 * t1_3 - 2 * t1 * t4 + 3 * t3_3
        )
        self.delta = (
            2 * t1_3 * t1 - 6 * t1_3 * t3 - 3 * t1_2 * t5 + 4 * t1_2 * t4
            + 6 * t1_2 * t3_2 + 5 * t13 * t5 - 6 * t13 * t4
            + t5 * t5 - 3 * t5 * t4 + 2 * t4 * t4 - 2 * t3_3 * t1
            - 2 * t3_2 * t5 + 2 * t3_2 * t4 + 2 * t1 * t8 - 3 * t3 * t8 - t9
        )
        # b3 / a4 / b4 correction coefficients
        self.psi = t4 - t5 - t13 + t1_2
        self.kappa1 = 3 * t13 - t1_2 - 2 * t3_2 - t4  # (t1 - t3)*(2*t3 - t1) - t4
        self.kappa2 = (
            3 * t1t3_2 - t3 * t4 - t7 - 2 * t1_2t3 - t3_3 + t1 * t5
        )

    # -- constants of the inverse formulas ------------------------------------

    @cached_property
    def alpha1(self):
        t1, t3 = self.th1, self.th3
        return -self.alpha + t1 * t3 - t3 ** 2

    @cached_property
    def beta1(self):
        t1, t3 = self.th1, self.th3
        return -self.beta + t1 * t3 - t3 ** 2

    @cached_property
    def alpha2(self):
        t1, t2, t3 = self.th1, self.th2, self.th3
        return (
            -self.gamma - t3 ** 2 * (t2 - t3) + t1 * self.beta
            + t1 * self.alpha1 - t3 * self.alpha1
        )

    @cached_property
    def beta2(self):
        t1, t3 = self.th1, self.th3
        return -t3 ** 2 * (t1 - t3) + t3 * self.alpha + t3 * self.beta1 + t3 * self.beta

    @cached_property
    def alpha3(self):
        t1, t2, t3, t4, t5, t6, t8 = (
            self.th1, self.th2, self.th3, self.th4, self.th5, self.th6, self.th8
        )
        alpha, beta, alpha1, beta1 = self.alpha, self.beta, self.alpha1, self.beta1
        return (
            -t3 ** 2 * (
                t1 ** 2 + t2 ** 2 + 2 * t4 - 2 * t5 + t6 - t1 * t2 - t2 * t3
            )
            + alpha1 * t3 ** 2 * (t1 - t3)
            + beta * t3 ** 2 * (t2 - t3)
            + t3 * t8
            - t3 * self.alpha2
            - t3 * self.beta2
            - alpha * alpha1
            + beta * alpha1
            - beta * beta1
            - self.gamma * t3
        )

    # True coefficients of the inverse a3 formula, solved exactly from the
    # triangular system; the printed alpha2 / beta2 / alpha3 do not invert
    # (see README).  Differences from the printed constants:
    #   alpha2 - inv: (t3-t1)*(2*t4 + 3*t3^2 - 6*t1*t3 + 2*t1^2)
    #   beta2  - inv: -t3^2*(t3-t1)

    @cached_property
    def alpha2_inv(self):
        t1, t3, t4, t5, t7 = self.th1, self.th3, self.th4, self.th5, self.th7
        return (
            -t7 + t1 * t5 + t1 * t4 - 3 * t3 * t4
            + t1 ** 3 - 7 * t1 ** 2 * t3 + 11 * t1 * t3 ** 2 - 5 * t3 ** 3
        )

    @cached_property
    def beta2_inv(self):
        t1, t3, t4 = self.th1, self.th3, self.th4
        return t3 * t4 + t1 ** 2 * t3 - 3 * t1 * t3 ** 2 + 2 * t3 ** 3

    @cached_property
    def alpha3_inv(self):
        t1, t3, t4, t5, t7, t8 = self.th1, self.th3, self.th4, self.th5, self.th7, self.th8
        return (
            t5 ** 2 - 5 * t4 * t5 + 7 * t4 ** 2 + t3 * t8 + 2 * t3 * t7
            - 5 * t3 ** 2 * t5 + 21 * t3 ** 2 * t4 + 9 * t1 * t3 * t5
            - 33 * t1 * t3 * t4 - 5 * t1 ** 2 * t5 + 14 * t1 ** 2 * t4
            + 18 * t3 ** 4 - 55 * t1 * t3 ** 3 + 63 * t1 ** 2 * t3 ** 2
            - 33 * t1 ** 3 * t3 + 7 * t1 ** 4
        )


def derived_constants(params: DeformationParameters) -> GeneratorScalars:
    """The named coefficients of the change of generators at ``params``."""
    if params.mode == "symbolic-free":
        raise ValueError("the change of generators requires constrained or numeric parameters")
    one = Poly.const(1) if isinstance(params.theta[0], Poly) else Fraction(1)
    return GeneratorScalars(params.theta, one)


# The substituted generators: each arrow of {a2,b2,a3,b3,a4,b4} maps to
# itself plus corrections of strictly greater path length.  x and y stand
# for the loops b0*a0 and b2*a2 at the exceptional vertex.
_X = ("b0", "a0")
_Y = ("b2", "a2")


def primed_generator_terms(s: GeneratorScalars) -> dict[str, list]:
    """(coefficient, arrow-name tuple) terms of each substituted generator."""
    return {
        "a2": [
            (s.one, ("a2",)),
            (-s.th8, ("a2",) + _X + _Y + _Y),
        ],
        "b2": [
            (s.one, ("b2",)),
            (s.delta, _X + _Y + _X + _Y + ("b2",)),
        ],
        "a3": [
            (s.one, ("a3",)),
            (s.th1, _X + ("a3",)),
            (s.th3, _Y + ("a3",)),
            (s.alpha, _X + _Y + ("a3",)),
            (s.beta, _Y + _X + ("a3",)),
            (s.gamma, _X + _Y + _X + ("a3",)),
        ],
        "b3": [
            (s.one, ("b3",)),
            (s.th3 - s.th1, ("b3",) + _X),
            (s.psi, ("b3",) + _Y + _X),
        ],
        "a4": [
            (s.one, ("a4",)),
            (s.kappa1, ("b3",) + _X + ("a3", "a4")),
            (s.kappa2, ("b3",) + _Y + _X + ("a3", "a4")),
        ],
        "b4": [
            (s.one, ("b4",)),
            (-s.kappa1, ("b4", "b3") + _X + ("a3",)),
        ],
    }


def primed_generators(s: GeneratorScalars) -> dict[str, FreeElement]:
    """The substituted generators a2', b2', ..., b4' as free elements on E6."""
    quiver = builtin_quiver("E6")
    primed = {}
    for name, terms in primed_generator_terms(s).items():
        total = FreeElement.zero(quiver)
        for coeff, names in terms:
            total = total + FreeElement.from_path(quiver.path(*names)).scale(coeff)
        primed[name] = total
    return primed


def substituted_generators(params: DeformationParameters) -> GeneratorMap:
    """The change of generators of pe6 attached to admissible parameters.

    In numeric mode the two admissibility constraints are checked first.
    """
    if params.mode == "numeric":
        check_constraints(params.theta)
    quiver = builtin_quiver("E6")
    bindings = {
        name: FreeElement.from_path(quiver.path(name)) for name in
        ("a0", "b0", "a1", "b1")
    }
    bindings.update(primed_generators(derived_constants(params)))
    return GeneratorMap(quiver, quiver, bindings)


def inverse_formula_terms(s: GeneratorScalars, mode: str) -> dict[str, list]:
    """Right-hand sides of the six inverse formulas.

    Each term is (coefficient, tuple of symbols); a symbol is an arrow
    name, or a primed name like ``a2'`` standing for the substituted
    generator.  ``printed`` is the verbatim form; ``corrected`` drops the
    stray ``a2'`` factor from the a4 formula, primes the lone unprimed
    ``a2`` in the a3 formula (immaterial in the quotient), and replaces
    the three constants alpha2, beta2, alpha3 of the a3 formula by the
    solved inverting coefficients (the printed ones do not invert).
    """
    p = lambda name: name + "'"  # noqa: E731 - tiny local shorthand
    xp = ("b0", "a0")
    yp = (p("b2"), p("a2"))
    a3_beta1_mid = ("a2",) if mode == "printed" else (p("a2"),)
    a4_leading = (p("a4"), p("a2")) if mode == "printed" else (p("a4"),)
    if mode == "printed":
        a3_xyx, a3_yxy, a3_xyxy = s.alpha2, s.beta2, s.alpha3
    else:
        a3_xyx, a3_yxy, a3_xyxy = s.alpha2_inv, s.beta2_inv, s.alpha3_inv
    return {
        "a2": [
            (s.one, (p("a2"),)),
            (s.th8, (p("a2"),) + xp + yp + yp),
        ],
        "b2": [
            (s.one, (p("b2"),)),
            (-s.delta, xp + yp + xp + yp + (p("b2"),)),
        ],
        "a3": [
            (s.one, (p("a3"),)),
            (-s.th1, xp + (p("a3"),)),
            (-s.th3, yp + (p("a3"),)),
            (s.alpha1, xp + yp + (p("a3"),)),
            (s.beta1, (p("b2"),) + a3_beta1_mid + xp + (p("a3"),)),
            (a3_xyx, xp + yp + xp + (p("a3"),)),
            (a3_yxy, yp + xp + yp + (p("a3"),)),
            (a3_xyxy, xp + yp + xp + yp + (p("a3"),)),
        ],
        "b3": [
            (s.one, (p("b3"),)),
            (-(s.th3 - s.th1), (p("b3"),) + xp),
            (-s.psi, (p("b3"),) + yp + xp),
            ((s.th3 - s.th1) * s.psi, (p("b3"),) + xp + yp + xp),
            (s.psi * s.psi, (p("b3"),) + yp + xp + yp + xp),
        ],
        "a4": [
            (s.one, a4_leading),
            (-s.kappa1, (p("b3"),) + xp + (p("a3"), p("a4"))),
            (-s.kappa2, (p("b3"),) + yp + xp + (p("a3"), p("a4"))),
        ],
        "b4": [
            (s.one, (p("b4"),)),
            (s.kappa1, (p("b4"), p("b3")) + xp + (p("a3"),)),
            (-s.th3 * s.kappa1, (p("b4"), p("b3")) + xp + yp + (p("a3"),)),
        ],
    }


def _element_from_symbols(
    quiver: Quiver,
    terms: Iterable,
    primed: Mapping[str, FreeElement],
    below: int | None = None,
) -> FreeElement:
    """Sum of coefficient-weighted symbol products, each product taken with
    ``FreeElement.mul(..., below)``."""
    total = FreeElement.zero(quiver)
    for coeff, symbols in terms:
        product = None
        for sym in symbols:
            factor = (
                primed[sym[:-1]]
                if sym.endswith("'")
                else FreeElement.from_path(quiver.path(sym))
            )
            product = factor if product is None else product.mul(factor, below)
        total = total + product.scale(coeff)
    return total


# -- admissibility -----------------------------------------------------------------


def admissibility_residual(params: DeformationParameters) -> QuotientElement:
    """Normal form of (x + y + f)^3 in re6."""
    algebra = build_re6()
    g = generators(algebra.quiver)
    cube = (g["x"] + g["y"] + params.as_free_element()).power(
        3, below=algebra.nilpotency_degree
    )
    return algebra.normal_form(cube)


def is_admissible(params: DeformationParameters) -> bool:
    return admissibility_residual(params).is_zero()


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
    def __init__(self, title: str, algebra: str):
        self.title = title
        self.algebra = algebra
        self.checks: list[CheckResult] = []

    @property
    def passed(self) -> bool:
        """True when there is at least one check and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def counts(self) -> tuple[int, int]:
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks)

    def add(self, name: str, passed: bool, residual: str | None, ms: float):
        self.checks.append(CheckResult(name, passed, residual, ms))

    def run(self, name: str, fn: Callable[[], tuple[bool, str | None]]):
        start = time.perf_counter()
        passed, residual = fn()
        ms = (time.perf_counter() - start) * 1000.0
        self.add(name, passed, residual if not passed else None, ms)

    def run_zero(self, name: str, algebra: QuotientAlgebra, element: FreeElement):
        """Check that an element reduces to the zero class."""

        def check():
            nf = algebra.normal_form(element)
            return nf.is_zero(), str(nf)

        self.run(name, check)

    def run_equal_nf(
        self,
        name: str,
        algebra: QuotientAlgebra,
        element: FreeElement,
        expected: FreeElement,
    ):
        """Check that an element's normal form equals a documented one."""

        def check():
            got = algebra.normal_form(element)
            want = algebra.normal_form(expected)
            ok = got == want and not got.is_zero()
            return ok, f"got {got}; expected {want}"

        self.run(name, check)


# -- lemma -------------------------------------------------------------------------


def verify_lemma() -> VerificationReport:
    """Three checks pinning down the admissibility criterion exactly."""
    report = VerificationReport("lemma", "re6")
    algebra = build_re6()
    quiver = algebra.quiver
    g = generators(quiver)
    x, y = g["x"], g["y"]
    free = DeformationParameters.symbolic_free()
    c1, c2 = lemma_coefficients(free.theta)

    def check_free_residual():
        residual = admissibility_residual(free)
        expected = algebra.normal_form(
            (x * y * x * y).scale(c1) + (x * y * x * y * y).scale(c2)
        )
        ok = residual == expected
        return ok, f"got {residual}"

    report.run("residual of (x+y+f)^3 equals c1*[xyxy] + c2*[xyxyy]", check_free_residual)

    def check_constrained_residual():
        residual = admissibility_residual(DeformationParameters.symbolic_constrained())
        return residual.is_zero(), str(residual)

    report.run("residual vanishes under the two constraints", check_constrained_residual)

    def check_second_coefficient_rewrite():
        t = free.theta
        _, substituted = lemma_coefficients((t[0], constraint_theta2(t[0], t[2])) + t[2:])
        target = t[5] - constraint_theta6(t[0], t[2], t[3], t[4])
        ok = substituted == target
        return ok, f"got {substituted}; expected {target}"

    report.run(
        "second coefficient rewrites to t6 - (2*t5 - 3*t4 - 3*(t3-t1)^2)",
        check_second_coefficient_rewrite,
    )
    return report


# -- deformed relations and theorem --------------------------------------------------


def deformed_relations(params: DeformationParameters) -> list[FreeElement]:
    """The seven relations presenting the deformed algebra, f expanded.

    f(b0*a0, b2*a2) is expanded modulo paths of length >= N, the
    nilpotency degree of pe6 (see ``FreeElement.mul``).
    """
    quiver = builtin_quiver("E6")
    g = generators(quiver)
    a0, b0, a1, b1 = g["a0"], g["b0"], g["a1"], g["b1"]
    a2, b2, a3, b3 = g["a2"], g["b2"], g["a3"], g["b3"]
    a4, b4 = g["a4"], g["b4"]
    f_on_e6 = corner_embedding()(
        params.as_free_element(), below=build_pe6().nilpotency_degree
    )
    return [
        a0 * b0,
        a1 * b1,
        b1 * a1 + a2 * b2,
        b3 * a3 + a4 * b4,
        b4 * a4,
        b0 * a0 + b2 * a2 + a3 * b3 + f_on_e6,
        (b0 * a0 + b2 * a2) ** 3,
    ]


DEFORMED_RELATION_NAMES = (
    "a0*b0",
    "a1*b1",
    "b1*a1 + a2*b2",
    "b3*a3 + a4*b4",
    "b4*a4",
    "b0*a0 + b2*a2 + a3*b3 + f(b0*a0, b2*a2)",
    "(b0*a0 + b2*a2)^3",
)


def _theorem_rows(params: DeformationParameters):
    """Yield (name, substituted relation, normal form), one relation at a time.

    The substitution drops paths of length >= N, the nilpotency degree of
    pe6 (see ``FreeElement.mul``), so a substituted relation holds only its
    terms below N.
    """
    algebra = build_pe6()
    change = substituted_generators(params)
    for name, relation in zip(DEFORMED_RELATION_NAMES, deformed_relations(params)):
        image = change(relation, below=algebra.nilpotency_degree)
        yield name, image, algebra.normal_form(image)


def theorem_residuals(
    params: DeformationParameters,
) -> list[tuple[str, FreeElement, QuotientElement]]:
    """(name, substituted relation, normal form) for the seven relations."""
    return list(_theorem_rows(params))


def verify_theorem(params: DeformationParameters | None = None) -> VerificationReport:
    """All seven deformed relations vanish after the change of generators.

    Defaults to the fully symbolic constrained parameters.  Each relation's
    time covers its own substitution and reduction; the first one's also
    covers building the change of generators and the seven relations (and
    pe6 itself, on first use).

    Also records the integer certificate: every substituted relation has
    integer coefficients before reduction.  The substitution keeps only the
    terms of length below N, the nilpotency degree, so the certificate
    covers those terms; the dropped ones lie in J^N, which is contained in
    the ideal of relations.  It still holds over Z, so the identities hold
    over any coefficient ring: every reduction-table coefficient is an
    integer (``_reduction_is_integral``) and every pivot of the elimination
    that built the table is +1 or -1, so reducing an integral relation
    divides by nothing.
    """
    if params is None:
        params = DeformationParameters.symbolic_constrained()
    report = VerificationReport("theorem", "pe6")
    integral = True
    start = time.perf_counter()
    for name, image, nf in _theorem_rows(params):
        ms = (time.perf_counter() - start) * 1000.0
        integral = integral and image.has_integral_coefficients()
        report.add(name, nf.is_zero(), None if nf.is_zero() else str(nf), ms)
        start = time.perf_counter()
    report.run(
        "integer certificate (substituted relations have integer coefficients)",
        lambda: (integral and _reduction_is_integral(build_pe6()), None),
    )
    return report


@lru_cache(maxsize=None)
def _reduction_is_integral(algebra: QuotientAlgebra) -> bool:
    """Whether every normal form in the algebra's table has integer
    coefficients; then so has every structure constant.  Checked once per
    algebra (the table never changes once built)."""
    return all(
        c.denominator == 1
        for row in algebra.reduction.values()
        for c in row.values()
    )


# -- inverse change of generators ------------------------------------------------------


INVERSE_ORDER = ("a2", "b2", "a3", "b3", "a4", "b4")


def verify_inverse(mode: str = "corrected", params: DeformationParameters | None = None) -> VerificationReport:
    """Substitute the primed definitions into the six inverse formulas.

    ``corrected`` applies the two documented corrections (the stray
    ``a2'`` factor in the a4 formula and the unprimed ``a2`` in the a3
    formula); ``printed`` uses the formulas verbatim and records the
    mismatches it finds.
    """
    if mode not in ("printed", "corrected"):
        raise ValueError(f"unknown mode {mode!r}")
    if params is None:
        params = DeformationParameters.symbolic_constrained()
    report = VerificationReport(f"inverse ({mode})", "pe6")
    algebra = build_pe6()
    quiver = algebra.quiver
    s = derived_constants(params)
    primed = primed_generators(s)
    formulas = inverse_formula_terms(s, mode)
    for name in INVERSE_ORDER:
        rhs = _element_from_symbols(
            quiver, formulas[name], primed, below=algebra.nilpotency_degree
        )
        lhs = FreeElement.from_path(quiver.path(name))
        report.run_zero(f"{name} recovered from the {mode} formula", algebra, rhs - lhs)
    return report


def printed_inverse_mismatches(params: DeformationParameters | None = None) -> list[str]:
    """Names of inverse formulas that fail verbatim (stable across runs)."""
    report = verify_inverse("printed", params)
    return [
        name for name, check in zip(INVERSE_ORDER, report.checks) if not check.passed
    ]


# -- corner isomorphism ---------------------------------------------------------------


def verify_corner_iso() -> VerificationReport:
    """re6 is the corner of pe6 at the exceptional vertex.

    The corner at the exceptional vertex 3 (where the deformed relation
    lives) is 12-dimensional and the map x -> b0*a0, y -> b2*a2 is an
    isomorphism onto it.  The corner at the leaf vertex 0 has dimension 4;
    the final informational check records that discrepancy with the
    conventional labeling of the corner statement.
    """
    report = VerificationReport("corner-iso", "pe6")
    pe6 = build_pe6()
    re6 = build_re6()
    embed = corner_embedding()
    v = EXCEPTIONAL_VERTEX

    report.run(
        f"corner dimension at exceptional vertex {v} equals dim re6 = 12",
        lambda: (
            pe6.dimension_at(v, v) == re6.dimension() == 12,
            f"dim corner = {pe6.dimension_at(v, v)}, dim re6 = {re6.dimension()}",
        ),
    )

    g = generators(re6.quiver)
    x, y = g["x"], g["y"]
    for rel, text in ((x * x, "x^2"), (y * y * y, "y^3"), ((x + y) ** 3, "(x+y)^3")):
        report.run_zero(
            f"relation image {text} vanishes under x -> b0*a0, y -> b2*a2",
            pe6,
            embed(rel),
        )

    def rank_check():
        pivots: dict = {}
        for word in re6.basis:
            image = pe6.normal_form(embed(FreeElement.from_path(word)))
            _insert_row(
                pivots,
                {pe6.basis_index[p]: c.as_rational() for p, c in image.coords.items()},
            )
        rank = len(pivots)
        ok = rank == 12 == pe6.dimension_at(v, v)
        return ok, f"rank = {rank}"

    report.run("images of the 12 basis words have rank 12 (isomorphism)", rank_check)

    report.run(
        "labeling note: corner at leaf vertex 0 has dimension 4, not 12",
        lambda: (
            pe6.dimension_at(0, 0) == 4,
            f"dim corner at 0 = {pe6.dimension_at(0, 0)}",
        ),
    )
    return report


# -- identity catalog (delegates to the derivation module) ------------------------------


def verify_identities(params: DeformationParameters | None = None) -> VerificationReport:
    from .derivation import run_derivation_catalog

    if params is None:
        params = DeformationParameters.symbolic_constrained()
    return run_derivation_catalog(params)


# -- independent numeric pipeline -------------------------------------------------------


def check_field(p: int) -> None:
    """Raise ValueError unless the field size ``p`` is a prime below 2^31."""
    # the bound keeps the trial division below about 46,000 steps
    if p >= 2 ** 31:
        raise ValueError(f"{p} is too large: the field size must be a prime below 2^31")
    if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"{p} is not prime")


class _Scaled:
    """The rational n / d**k, for values that share one denominator base d.

    A trial over Q writes its thetas over one d (the lcm of their
    denominators) and computes the change-of-generator constants on them.
    Why this is exact: n1/d**k1 * n2/d**k2 = n1*n2 / d**(k1+k2); a sum is
    taken over the larger power, n1*d**(k-k1) + n2*d**(k-k2) over d**k;
    an ``int`` multiple c scales n.  No gcd is taken, so the fraction is not
    reduced, but its value is exact.  ``numerator`` and ``denominator``
    read it as a ``Fraction`` is read (``_vec_sum``, ``Poly.evaluate``).
    Values over different bases do not mix.
    """

    __slots__ = ("n", "k", "d")

    def __init__(self, n: int, k: int, d: int):
        self.n = n
        self.k = k
        self.d = d

    @property
    def numerator(self) -> int:
        return self.n

    @property
    def denominator(self) -> int:
        return self.d ** self.k

    def _aligned(self, other: "_Scaled") -> tuple[int, int, int]:
        """(self's numerator, other's numerator, k) over the common d**k."""
        if other.d != self.d:
            raise ValueError(f"values over the bases {self.d} and {other.d} do not mix")
        k, j = self.k, other.k
        if k == j:
            return self.n, other.n, k
        if k > j:
            return self.n, other.n * self.d ** (k - j), k
        return self.n * self.d ** (j - k), other.n, j

    def __add__(self, other: "_Scaled") -> "_Scaled":
        a, b, k = self._aligned(other)
        return _Scaled(a + b, k, self.d)

    def __sub__(self, other: "_Scaled") -> "_Scaled":
        a, b, k = self._aligned(other)
        return _Scaled(a - b, k, self.d)

    def __mul__(self, other):
        if type(other) is _Scaled:
            if other.d != self.d:
                raise ValueError(f"values over the bases {self.d} and {other.d} do not mix")
            return _Scaled(self.n * other.n, self.k + other.k, self.d)
        if isinstance(other, int):
            return _Scaled(other * self.n, self.k, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return _Scaled(-self.n, self.k, self.d)

    def __pow__(self, e: int):
        return _Scaled(self.n ** e, self.k * e, self.d)

    def __bool__(self):
        return self.n != 0

    def __repr__(self):
        return f"{self.n}/{self.d}^{self.k}"


def _draw_theta(rng: random.Random, p: int | None) -> list:
    """A trial's constrained thetas, drawn and constrained on integers.

    t1, t3, t4, t5, t7, t8, t9 are drawn in that order, each over Q as
    n = randint(-9, 9), then d = randint(1, 9), for n/d, and over GF(p) as
    randrange(p), so a seed gives the same points as a draw of field
    scalars with those calls; t2 and t6 follow from the constraints.
    Over Q the values are ``_Scaled`` over the lcm of the drawn d; over
    GF(p) they are residues in [0, p).
    """
    if p is None:
        drawn = [(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)]
        d = lcm(*[den for _, den in drawn])
        free = [_Scaled(n * (d // den), 1, d) for n, den in drawn]
    else:
        free = [rng.randrange(p) for _ in range(7)]
    t1, t3, t4, t5, t7, t8, t9 = free
    t2 = constraint_theta2(t1, t3)
    t6 = constraint_theta6(t1, t3, t4, t5)
    if p is not None:
        t2, t6 = t2 % p, t6 % p
    return [t1, t2, t3, t4, t5, t6, t7, t8, t9]


def _integer_theta(theta: Sequence, p: int | None) -> list:
    """Nine given thetas as a trial computes on them (see ``_draw_theta``).

    Each entry is an ``int`` or a ``Fraction``, else a TypeError is
    raised; over GF(p) a rational whose denominator p divides is rejected
    with a ValueError.
    """
    if len(theta) != 9:
        raise ValueError("expected 9 theta values")
    for v in theta:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"cannot use {type(v).__name__} as a theta sample")
        if p is not None and v.denominator % p == 0:
            raise ValueError(f"theta entry {v} has a denominator divisible by {p}, the field size")
    if p is None:
        d = lcm(*[v.denominator for v in theta])
        return [_Scaled(v.numerator * (d // v.denominator), 1, d) for v in theta]
    return [v.numerator * pow(v.denominator, -1, p) % p for v in theta]


# The oracle's vectors are pairs (coords, den): ``int`` coordinates keyed
# by basis index over one positive ``int`` denominator, so no field scalar
# and no path is made per product.  Why this is exact:
#   * every normal form of pe6 has integer coefficients (checked once per
#     algebra, ``_word_vector``), so every structure constant is an
#     ``int`` and ``QuotientAlgebra.product`` maps integer vectors to
#     integer vectors;
#   * over Q a vector's value is coords/den exactly: a product multiplies
#     the denominators, and a sum brings both sides to the lcm of theirs;
#   * over GF(p) the denominator is 1 and every scalar an ``int``: Z ->
#     GF(p) is a ring homomorphism, so reducing each coordinate mod p once
#     per product or sum gives the GF(p) result, and a coordinate is zero
#     in GF(p) exactly when its reduction is 0.
# Paths reappear only in ``_vec_text``, for the text of a failing trial.


@lru_cache(maxsize=None)
def _word_vector(algebra: QuotientAlgebra, names: tuple[str, ...]) -> dict[int, int]:
    """Integer basis coordinates of the path through the named arrows,
    keyed by basis index and reduced once.

    Sound to cache: an algebra's reduction table never changes once built,
    and the key holds the algebra as well as the word.  Raises ValueError
    when the algebra has a non-integral normal form, where the integer
    oracle does not apply.  Callers must not change the returned dict.
    """
    if not _reduction_is_integral(algebra):
        raise ValueError(f"{algebra.name} has non-integral normal forms")
    index = algebra.basis_index
    path = algebra.quiver.path(*names)
    return {index[b]: c.numerator for b, c in algebra.reduce_path(path).items()}


def _vec_sum(terms: Iterable[tuple], p: int | None) -> tuple[dict[int, int], int]:
    """The sum of c * u over the (c, u) pairs of ``terms``.

    Each c is read through its numerator and denominator: an ``int``, a
    ``Fraction`` or a ``_Scaled`` (over GF(p), an ``int``); each u is a
    vector (coords, den).  The result is over the lcm of the denominators
    of the c * u; over GF(p) each coordinate is reduced mod p.
    """
    scaled = [(c.numerator, c.denominator * den, coords) for c, (coords, den) in terms]
    # unpack a list, not a generator: CPython sizes a tuple from a
    # generator by a guess and resizes it, so every call would leave one
    # more tuple of the final size on its free lists (up to 2,000 per size
    # stay allocated, about 0.15 MB each for the sizes of these sums)
    den = lcm(*[d for _, d, _ in scaled])
    acc: dict[int, int] = {}
    for num, d, coords in scaled:
        factor = num * (den // d)
        for k, x in coords.items():
            acc[k] = acc.get(k, 0) + factor * x
    if p is None:
        return {k: x for k, x in acc.items() if x}, den
    return {k: r for k, x in acc.items() if (r := x % p)}, 1


def _vec_mul(
    algebra: QuotientAlgebra, u: tuple, v: tuple, p: int | None
) -> tuple[dict[int, int], int]:
    """The product of two vectors (coords, den) through the structure constants.

    Over Q the denominators multiply; over GF(p) each coordinate of the
    integer product is reduced mod p.
    """
    coords = algebra.product(u[0], v[0])
    if p is None:
        return coords, u[1] * v[1]
    return {k: r for k, x in coords.items() if (r := x % p)}, 1


def _generator_vectors(
    algebra: QuotientAlgebra, s: GeneratorScalars, p: int | None
) -> dict[str, tuple[dict[int, int], int]]:
    """Vectors of a0, b0, a1, b1 and the six substituted generators, each a
    sum of the constants of ``s`` times the cached word vectors.

    ``s`` holds ``int`` constants over GF(p) (``p`` given) and ``int``,
    ``Fraction`` or ``_Scaled`` constants over Q (``p`` None).
    """
    terms = {name: [(s.one, (name,))] for name in ("a0", "b0", "a1", "b1")}
    terms.update(primed_generator_terms(s))
    return {
        name: _vec_sum(
            ((coeff, (_word_vector(algebra, names), 1)) for coeff, names in generator_terms),
            p,
        )
        for name, generator_terms in terms.items()
    }


def numeric_relation_residuals(
    theta: Sequence, p: int | None
) -> tuple[list[tuple[str, tuple]], tuple]:
    """The seven relation residuals through structure-constant arithmetic only.

    ``theta`` holds a trial's nine values satisfying the two constraints,
    as ``_draw_theta`` and ``_integer_theta`` give them: ``_Scaled`` over
    Q (``p`` None), ``int`` residues over GF(p).  No polynomial objects
    and no free-algebra multiplication take part; this is the independent
    oracle for the symbolic pipeline.  It computes on integer vectors
    keyed by basis index (see the note above ``_word_vector``).  Returns
    the (name, residual vector) pairs, together with the vector of a
    nonzero intermediate, b2'*a2', used to cross-check the pipelines on
    more than zeros.
    """
    algebra = build_pe6()
    gen = _generator_vectors(algebra, GeneratorScalars(tuple(theta), 1), p)

    def mul(u, v):
        return _vec_mul(algebra, u, v, p)

    def prod(a, b):
        return mul(gen[a], gen[b])

    def add(*vectors):
        return _vec_sum(((1, u) for u in vectors), p)

    x = prod("b0", "a0")
    y = prod("b2", "a2")
    words = {"xy": mul(x, y), "yx": mul(y, x), "yy": mul(y, y)}
    words["xyx"] = mul(words["xy"], x)
    words["xyy"] = mul(words["xy"], y)
    words["yxy"] = mul(words["yx"], y)
    words["xyxy"] = mul(words["xyx"], y)
    words["yxyy"] = mul(words["yxy"], y)
    words["xyxyy"] = mul(words["xyxy"], y)
    f = _vec_sum(zip(theta, (words[w] for w in THETA_MONOMIALS)), p)
    x_plus_y = add(x, y)

    residuals = [
        prod("a0", "b0"),
        prod("a1", "b1"),
        add(prod("b1", "a1"), prod("a2", "b2")),
        add(prod("b3", "a3"), prod("a4", "b4")),
        prod("b4", "a4"),
        add(x_plus_y, prod("a3", "b3"), f),
        mul(mul(x_plus_y, x_plus_y), x_plus_y),
    ]
    return list(zip(DEFORMED_RELATION_NAMES, residuals)), y


def _equals_vector(values: dict, vec: tuple, p: int | None) -> bool:
    """Whether evaluated values keyed by basis index (a ``Fraction`` each
    over Q, a residue each over GF(p)) equal the oracle's vector.

    Over Q a ``Fraction`` v equals c/den exactly when v.numerator * den ==
    c * v.denominator, both denominators being positive, so no
    ``Fraction`` is made of the vector.
    """
    coords, den = vec
    if p is not None:
        return values == coords
    return values.keys() == coords.keys() and all(
        v.numerator * den == coords[k] * v.denominator for k, v in values.items()
    )


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
    report = VerificationReport(f"sample ({field_name})", "pe6")
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
            residuals, y = numeric_relation_residuals(th, p)
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
    constrained = DeformationParameters.symbolic_constrained()
    primed = primed_generators(derived_constants(constrained))
    algebra = build_pe6()
    index = algebra.basis_index

    def by_index(nf: QuotientElement) -> tuple:
        return tuple((index[b], poly) for b, poly in nf.coords.items())

    return (
        tuple(by_index(nf) for _, _, nf in theorem_residuals(constrained)),
        by_index(algebra.normal_form(primed["b2"] * primed["a2"])),
    )


def _vec_text(algebra: QuotientAlgebra, vec: tuple, p: int | None) -> str:
    """A vector (coords, den) as ``c*path`` terms in the order of the
    paths, each c written by ``_scalar_text``."""
    coords, den = vec
    basis = algebra.basis
    terms = sorted((basis[k], c) for k, c in coords.items())
    return " + ".join(f"{_scalar_text(c, den, p)}*{path}" for path, c in terms)
