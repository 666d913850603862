"""Exact Kulshammer ideal sequences for bound quiver algebras over finite fields."""
from __future__ import annotations

from .dsl import parse_element, parse_presentation
from .errors import (
    BadField,
    BadParameters,
    BudgetExceeded,
    CharacteristicMismatch,
    ConsistencyFailure,
    Degenerate,
    DegreeBoundExceeded,
    DimensionMismatch,
    DslSyntaxError,
    InfiniteDimensional,
    InvariantViolation,
    KulsError,
    NonAdmissibleRelation,
    NonComposablePath,
    NonParallelRelation,
    NotNilpotent,
    NotSymmetric,
    UnknownName,
)
from .families import FamilySpec, family, family_source, list_families
from .form import SymmetrizingForm, canonical_form, consistent_form, custom_form, orthogonal
from .gf import GF
from .linalg import Subspace
from .presentation import Presentation, Quiver, emit, validate
from .rewriting import AlgebraTable, RewriteSystem, build_table, complete, normal_form
from .reynolds import (
    ReynoldsReport,
    Verdict,
    brute_force_kuelshammer,
    compare,
    kuelshammer_space,
    reynolds_ideal,
    reynolds_sequence,
)
from .structure import center, commutator_space, radical, socle

__version__ = "0.1.0"

__all__ = [
    "GF", "Subspace", "Presentation", "Quiver", "parse_presentation", "parse_element",
    "validate", "emit", "RewriteSystem", "AlgebraTable", "complete", "build_table",
    "normal_form", "center", "socle", "commutator_space", "radical", "SymmetrizingForm",
    "canonical_form", "consistent_form", "custom_form", "orthogonal", "ReynoldsReport",
    "Verdict", "kuelshammer_space", "reynolds_ideal", "reynolds_sequence", "compare",
    "brute_force_kuelshammer", "FamilySpec", "family", "family_source", "list_families",
    "KulsError", "BadField", "BadParameters", "BudgetExceeded", "CharacteristicMismatch",
    "ConsistencyFailure", "Degenerate", "DegreeBoundExceeded", "DimensionMismatch",
    "DslSyntaxError", "InfiniteDimensional", "InvariantViolation", "NonAdmissibleRelation",
    "NonComposablePath", "NonParallelRelation", "NotNilpotent", "NotSymmetric", "UnknownName",
    "__version__",
]
