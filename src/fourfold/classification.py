"""Symplectic and complex structure exclusion via surface classification.

Two engines, one route.  With c1^2 = 2*chi + 3*tau negative and the
manifold minimal, a symplectic structure would have symplectic Kodaira
dimension minus infinity, forcing a rational or ruled model; a complex
structure would place a minimal model in one of the ten standard surface
classes.  Either way the candidate models are pinned down by b1, c1^2 and
c2 alone, so matching those numbers (over all blow-up counts k >= 0, with
c1sq_min = c1sq + k and c2_min = c2 - k) is a mechanical filter.  An empty
match list excludes the structure outright; surviving rational or ruled
models can only be removed by comparing fundamental groups, which callers
opt into as an explicit assumption.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .forms import IntersectionForm
from .obstruction import (
    ManifoldInvariants,
    StructureVerdict,
    require_valid,
    wu_target,
)


class KodairaDimension(enum.Enum):
    MINUS_INFINITY = "-inf"
    ZERO = "0"
    ONE = "1"
    TWO = "2"

    def __str__(self) -> str:
        return self.value


def symplectic_kodaira_dimension(
    c1_dot_omega_sign: int, c1_square_sign: int
) -> KodairaDimension | None:
    """Kodaira dimension of a minimal symplectic 4-manifold from sign data.

    Arguments are the signs (-1, 0, 1) of c1 . [omega] and of c1^2.
    Returns None for the one sign combination the table leaves undefined
    (c1 . [omega] = 0 with c1^2 > 0).
    """
    dot, square = c1_dot_omega_sign, c1_square_sign
    for value in (dot, square):
        if value not in (-1, 0, 1):
            raise ValueError(f"sign arguments must be -1, 0 or 1, got {value!r}")
    if dot > 0 or square < 0:
        return KodairaDimension.MINUS_INFINITY
    if dot == 0 and square == 0:
        return KodairaDimension.ZERO
    if dot < 0 and square == 0:
        return KodairaDimension.ONE
    if dot < 0 and square > 0:
        return KodairaDimension.TWO
    return None


def is_minimal_by_parity(form: IntersectionForm) -> bool:
    """Even forms admit no embedded sphere of square -1, hence no blow-down."""
    return form.is_even


class SurfaceKind(enum.Enum):
    RATIONAL_S2XS2 = "rational S2 x S2"
    RATIONAL_CP2 = "rational CP2 blow-ups"
    RULED = "ruled"
    CLASS_VII = "class VII"
    ENRIQUES = "Enriques"
    BI_ELLIPTIC = "bi-elliptic"
    KODAIRA_SURFACE = "Kodaira surface"
    K3 = "K3"
    TORUS = "torus"
    PROPERLY_ELLIPTIC = "properly elliptic"
    GENERAL_TYPE = "general type"


_RATIONAL_OR_RULED = frozenset(
    {SurfaceKind.RATIONAL_S2XS2, SurfaceKind.RATIONAL_CP2, SurfaceKind.RULED}
)


@dataclass(frozen=True)
class SurfaceModel:
    """A model surface, possibly blown up.

    genus is set for ruled models only.  blowups counts the k in
    "model # k CP2bar"; the S2 x S2 model is kept minimal because its
    blow-ups already appear as CP2 blow-ups.
    """

    kind: SurfaceKind
    genus: int | None = None
    blowups: int = 0

    def __post_init__(self):
        if self.blowups < 0:
            raise ValueError("blow-up count must be nonnegative")
        if (self.genus is not None) != (self.kind is SurfaceKind.RULED):
            raise ValueError("genus is set exactly for ruled models")
        if self.genus is not None and self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.kind is SurfaceKind.RATIONAL_S2XS2 and self.blowups != 0:
            raise ValueError("S2 x S2 blow-ups are recorded as CP2 blow-ups")

    def __str__(self) -> str:
        if self.kind is SurfaceKind.RATIONAL_S2XS2:
            return "S2 x S2"
        if self.kind is SurfaceKind.RATIONAL_CP2:
            base = "CP2"
        elif self.kind is SurfaceKind.RULED:
            base = f"S2 x Sigma_{self.genus}"
        elif self.kind is SurfaceKind.KODAIRA_SURFACE:
            base = self.kind.value
        else:
            base = self.kind.value + " surface"
        if self.blowups:
            return f"{base} # {self.blowups} CP2bar"
        return base


@dataclass(frozen=True)
class ModelMatch:
    """One surviving model, and whether a fundamental-group comparison is
    the remaining discriminator."""

    model: SurfaceModel
    requires_pi1_check: bool


def rational_ruled_models(
    b1: int, chi: int, tau: int, form_even: bool
) -> list[ModelMatch]:
    """Rational or ruled models matching (b1, chi, tau) and the form parity.

    These are the rational and ruled rows of the minimal-surface table at
    c1^2 = 2*chi + 3*tau and c2 = chi.  A blow-up puts a class of square -1
    into the form, so CP2 blow-ups and blown-up ruled models need an odd
    form, while S2 x S2 and minimal ruled models have the even form H.
    """
    return [
        ModelMatch(model, requires_pi1_check=True)
        for model in _ek_rows(b1, wu_target(chi, tau), chi)
        if model.kind in _RATIONAL_OR_RULED
        and form_even == (model.kind is not SurfaceKind.RATIONAL_CP2 and model.blowups == 0)
    ]


def _ek_rows(b1: int, c1sq: int, c2: int):
    """Candidate models, with k blow-ups, for each class of the minimal-surface table.

    Each class constrains (b1, c1sq_min, c2_min); blow-up accounting sets
    c1sq_min = c1sq + k and c2_min = c2 - k with k >= 0, which pins k
    linearly whenever the class fixes c1sq_min.  Classes that only bound
    their invariants (class VII, general type) get the smallest admissible k.
    """
    # (1) minimal rational: (c1sq, c2) = (9, 3) for CP2, (8, 4) for S2 x S2
    if b1 == 0:
        k = 9 - c1sq
        if k >= 0 and c2 - k == 3:
            yield SurfaceModel(SurfaceKind.RATIONAL_CP2, blowups=k)
        if c1sq == 8 and c2 == 4:
            yield SurfaceModel(SurfaceKind.RATIONAL_S2XS2)
    # (2) class VII: b1 = 1, c1sq_min <= 0, c2_min >= 0; k = 0 is admissible
    # whenever any k is
    if b1 == 1 and c1sq <= 0 and c2 >= 0:
        yield SurfaceModel(SurfaceKind.CLASS_VII)
    # (3) ruled genus g >= 1: b1 = 2g, c1sq_min = 8(1-g), c2_min = 4(1-g);
    # genus 0 is the rational row above, not a separate match
    if b1 % 2 == 0 and b1 >= 2:
        genus = b1 // 2
        k = 8 * (1 - genus) - c1sq
        if k >= 0 and c2 - k == 4 * (1 - genus):
            yield SurfaceModel(SurfaceKind.RULED, genus=genus, blowups=k)
    # (4)-(8): classes with (c1sq_min, c2_min) fixed outright
    fixed = (
        (SurfaceKind.ENRIQUES, (0,), 12),
        (SurfaceKind.BI_ELLIPTIC, (2,), 0),
        (SurfaceKind.KODAIRA_SURFACE, (3, 1), 0),
        (SurfaceKind.K3, (0,), 24),
        (SurfaceKind.TORUS, (4,), 0),
    )
    for kind, b1_values, c2_min in fixed:
        k = -c1sq
        if b1 in b1_values and k >= 0 and c2 - k == c2_min:
            yield SurfaceModel(kind, blowups=k)
    # (9) properly elliptic: c1sq_min = 0, c2_min >= 0, no b1 constraint
    k = -c1sq
    if k >= 0 and c2 - k >= 0:
        yield SurfaceModel(SurfaceKind.PROPERLY_ELLIPTIC, blowups=k)
    # (10) general type: b1 even, c1sq_min > 0, c2_min > 0
    if b1 % 2 == 0:
        k = max(0, 1 - c1sq)
        if c2 - k > 0:
            yield SurfaceModel(SurfaceKind.GENERAL_TYPE, blowups=k)


def ek_filter(b1: int, c1sq: int, c2: int) -> list[ModelMatch]:
    """All minimal-surface classes compatible with (b1, c1^2, c2).

    Purely numeric: exactly the printed table constraints and the linear
    blow-up accounting, nothing more.  An empty result proves no complex
    structure; survivors are candidates, not confirmations.
    """
    return [
        ModelMatch(model, requires_pi1_check=model.kind in _RATIONAL_OR_RULED)
        for model in _ek_rows(b1, c1sq, c2)
    ]


def _pi1_assumption(model: SurfaceModel) -> str:
    return f"pi1 differs from ruled model {model}" if model.kind is SurfaceKind.RULED \
        else f"pi1 differs from rational model {model}"


def exclude_symplectic(
    m: ManifoldInvariants, assume_pi1_distinct: bool = False
) -> StructureVerdict:
    """Symplectic exclusion through the negative-c1^2 route.

    Only a definite route is taken: c1^2 >= 0 or a non-even form (where
    minimality is not established) yields Unknown rather than a guess.
    """
    require_valid(m)
    c1sq = wu_target(m.chi, m.tau)
    if c1sq >= 0:
        return StructureVerdict.unknown(
            reasons=[f"c1^2 = {c1sq} >= 0: the negative-square route does not apply"]
        )
    if not is_minimal_by_parity(m.form):
        return StructureVerdict.unknown(
            reasons=["minimality not established: the form is odd"]
        )
    kappa = symplectic_kodaira_dimension(0, -1)
    base = (
        f"c1^2 = {c1sq} < 0 on a minimal manifold forces Kodaira dimension "
        f"{kappa}, i.e. a rational or ruled model"
    )
    survivors = rational_ruled_models(m.b1, m.chi, m.tau, m.form.is_even)
    if not survivors:
        return StructureVerdict.not_exists(
            base, "no rational or ruled model matches (b1, chi, tau)"
        )
    if assume_pi1_distinct:
        return StructureVerdict.conditionally_excluded(
            assumptions=[_pi1_assumption(s.model) for s in survivors],
            reasons=[base],
        )
    return StructureVerdict.unknown(
        reasons=[base] + [f"surviving model: {s.model}" for s in survivors]
    )


def exclude_complex(
    m: ManifoldInvariants, assume_pi1_distinct: bool = False
) -> StructureVerdict:
    """Complex-structure exclusion through the minimal-surface table."""
    require_valid(m)
    c1sq = wu_target(m.chi, m.tau)
    c2 = m.chi
    reasons = []
    if m.b1 != 1:
        reasons.append(f"class VII excluded: b1 = {m.b1} != 1")
    matches = ek_filter(m.b1, c1sq, c2)
    if not matches:
        return StructureVerdict.not_exists(
            *reasons,
            f"no surface class matches (b1, c1^2, c2) = ({m.b1}, {c1sq}, {c2}) "
            "for any blow-up count",
        )
    if assume_pi1_distinct and all(match.requires_pi1_check for match in matches):
        return StructureVerdict.conditionally_excluded(
            assumptions=[_pi1_assumption(match.model) for match in matches],
            reasons=reasons,
        )
    return StructureVerdict.unknown(
        reasons=reasons + [f"surviving class: {match.model}" for match in matches]
    )
