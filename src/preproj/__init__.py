"""Exact path-algebra quotient engine for type E6 preprojective algebras.

The package verifies, fully symbolically over exact rationals extended by
polynomial parameters, the admissibility criterion for deformations of the
E6 preprojective relation and the isomorphism of every deformed algebra
with the undeformed one via an explicit change of generators.
"""

__version__ = "0.1.0"

from .derivation import verify_identities
from .e6 import (
    CONSTRAINED_THETA,
    FREE_THETA,
    admissibility_residual,
    as_free_element,
    build_pe6,
    build_re6,
    corner_embedding,
    deformed_relations,
    derived_constants,
    is_admissible,
    sample_check,
    substituted_generators,
    verify_corner_iso,
    verify_inverse,
    verify_lemma,
    verify_theorem,
)
from .expr import parse, parse_element, format_element
from .freealg import FreeElement, GeneratorMap, generators
from .polyring import Poly
from .quiver import Path, Quiver, builtin_quiver
from .quotient import QuotientAlgebra, QuotientElement, RelationSet, build_quotient

__all__ = [
    "CONSTRAINED_THETA",
    "FREE_THETA",
    "FreeElement",
    "GeneratorMap",
    "Path",
    "Poly",
    "Quiver",
    "QuotientAlgebra",
    "QuotientElement",
    "RelationSet",
    "admissibility_residual",
    "as_free_element",
    "build_pe6",
    "build_quotient",
    "build_re6",
    "builtin_quiver",
    "corner_embedding",
    "deformed_relations",
    "derived_constants",
    "format_element",
    "generators",
    "is_admissible",
    "parse",
    "parse_element",
    "sample_check",
    "substituted_generators",
    "verify_corner_iso",
    "verify_identities",
    "verify_inverse",
    "verify_lemma",
    "verify_theorem",
]
