"""Exact-arithmetic structure obstructions for closed oriented 4-manifolds.

Given the classical invariants of a closed oriented 4-manifold (Euler
characteristic, signature, intersection form, first homology), this package
decides almost-complex structure existence, checks spin-ness, and produces
symplectic and complex-structure exclusion verdicts.  All arithmetic is
exact.
"""

from .abelian import (
    AbelianGroup,
    Presentation,
    abelianize,
    parse_abelian_group,
    parse_word,
    smith_normal_form,
)
from .classification import (
    KodairaDimension,
    SurfaceKind,
    SurfaceModel,
    ek_filter,
    exclude_complex,
    exclude_symplectic,
    is_minimal_by_parity,
    rational_ruled_models,
    symplectic_kodaira_dimension,
)
from .families import FamilyId, FamilyParameterError, family_invariants
from .forms import (
    DegenerateFormError,
    FormError,
    FormParseError,
    IntegerMatrix,
    IntersectionForm,
    build_form,
)
from .obstruction import (
    ChernEnumeration,
    ChernWitness,
    InvariantError,
    ManifoldInvariants,
    SpinStatus,
    StructureVerdict,
    VerdictStatus,
    almost_complex_excluded,
    characteristic_residue,
    decide_almost_complex,
    decide_wu_existence,
    enumerate_chern_classes,
    is_spin,
    mod8_filter,
    validate_invariants,
    wu_target,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "ChernEnumeration",
    "ChernWitness",
    "DegenerateFormError",
    "FamilyId",
    "FamilyParameterError",
    "FormError",
    "FormParseError",
    "IntegerMatrix",
    "IntersectionForm",
    "InvariantError",
    "KodairaDimension",
    "ManifoldInvariants",
    "Presentation",
    "SpinStatus",
    "StructureVerdict",
    "SurfaceKind",
    "SurfaceModel",
    "VerdictStatus",
    "abelianize",
    "almost_complex_excluded",
    "build_form",
    "characteristic_residue",
    "decide_almost_complex",
    "decide_wu_existence",
    "ek_filter",
    "enumerate_chern_classes",
    "exclude_complex",
    "exclude_symplectic",
    "family_invariants",
    "is_minimal_by_parity",
    "is_spin",
    "mod8_filter",
    "parse_abelian_group",
    "parse_word",
    "rational_ruled_models",
    "smith_normal_form",
    "symplectic_kodaira_dimension",
    "validate_invariants",
    "wu_target",
]
