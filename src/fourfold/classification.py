"""Symplectic and complex structure exclusion via surface classification.

One minimal-surface table, two engines.  The table is data, one row per
class: the b1 it admits and the ranges of its minimal model's c1^2 and c2.
ek_filter reads every row by one rule, matching b1, c1^2 and c2 over all
blow-up counts k >= 0 (with c1sq_min = c1sq + k and c2_min = c2 - k), a
mechanical filter.  A complex structure would place a minimal model in one
of those classes.  With c1^2 = 2*chi + 3*tau negative and the form even (no
sphere of square -1, so the manifold is minimal), a symplectic structure
would have Kodaira dimension minus infinity, forcing a rational or ruled
model with no blow-ups.  Both engines read ek_filter and turn its models
into a verdict by one rule: an empty list excludes the structure outright;
models that only a fundamental-group comparison can remove are removed when
callers opt into that as an explicit assumption; anything else is Unknown.

Both engines first apply the cascade: a record with no almost complex
structure has neither a symplectic nor a complex one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .obstruction import (
    ManifoldInvariants,
    StructureVerdict,
    almost_complex_excluded,
    wu_target,
)

_NO_ALMOST_COMPLEX = "no almost complex structure"


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

    @property
    def requires_pi1_check(self) -> bool:
        """Whether only a fundamental-group comparison can rule this model out."""
        return self.kind in _RATIONAL_OR_RULED

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


# One row per class of minimal surfaces: the class, the b1 it admits (a
# closed range and a parity) and the closed ranges of its minimal model's
# c1^2 and c2.  None is an open end, or any parity.  The ruled row holds
# genus 0's numbers: over Sigma_g, g = b1/2, c1^2 = 8 - 4*b1 and
# c2 = 4 - 2*b1, so the rule moves the record by 4*b1 and 2*b1 instead.
_SURFACE_TABLE = (
    (SurfaceKind.RATIONAL_CP2, (0, 0), None, (9, 9), (3, 3)),
    (SurfaceKind.RATIONAL_S2XS2, (0, 0), None, (8, 8), (4, 4)),
    (SurfaceKind.CLASS_VII, (1, 1), None, (None, 0), (0, None)),
    (SurfaceKind.RULED, (2, None), 0, (8, 8), (4, 4)),
    (SurfaceKind.ENRIQUES, (0, 0), None, (0, 0), (12, 12)),
    (SurfaceKind.BI_ELLIPTIC, (2, 2), None, (0, 0), (0, 0)),
    (SurfaceKind.KODAIRA_SURFACE, (1, 3), 1, (0, 0), (0, 0)),
    (SurfaceKind.K3, (0, 0), None, (0, 0), (24, 24)),
    (SurfaceKind.TORUS, (4, 4), None, (0, 0), (0, 0)),
    (SurfaceKind.PROPERLY_ELLIPTIC, (None, None), None, (0, 0), (0, None)),
    (SurfaceKind.GENERAL_TYPE, (None, None), 0, (1, None), (1, None)),
)


def ek_filter(b1: int, c1sq: int, c2: int) -> list[SurfaceModel]:
    """All minimal-surface classes compatible with (b1, c1^2, c2), with k blow-ups.

    Purely numeric: exactly the printed table constraints and the linear
    blow-up accounting, nothing more.  An empty result proves no complex
    structure; survivors are candidates, not confirmations.  One rule reads
    every row of _SURFACE_TABLE.  Blow-ups set c1sq_min = c1sq + k and
    c2_min = c2 - k, so the fewest, k = max(0, lo(c1^2) - c1sq,
    c2 - hi(c2)), is the one to report, and the row matches when
    k <= hi(c1^2) - c1sq and k <= c2 - lo(c2).  S2 x S2 matches at k = 0
    only: its blow-ups are recorded as CP2 blow-ups.
    """
    models = []
    for kind, (b1_lo, b1_hi), parity, (c1sq_lo, c1sq_hi), (c2_lo, c2_hi) in _SURFACE_TABLE:
        if (
            (b1_lo is not None and b1 < b1_lo)
            or (b1_hi is not None and b1 > b1_hi)
            or (parity is not None and b1 % 2 != parity)
        ):
            continue
        genus, x, y = None, c1sq, c2
        if kind is SurfaceKind.RULED:
            genus, x, y = b1 // 2, c1sq + 4 * b1, c2 + 2 * b1
        k = 0
        if c1sq_lo is not None:
            k = max(k, c1sq_lo - x)
        if c2_hi is not None:
            k = max(k, y - c2_hi)
        if (
            (c1sq_hi is not None and k > c1sq_hi - x)
            or (c2_lo is not None and k > y - c2_lo)
            or (k and kind is SurfaceKind.RATIONAL_S2XS2)
        ):
            continue
        models.append(SurfaceModel(kind, genus=genus, blowups=k))
    return models


def _pi1_assumption(model: SurfaceModel) -> str:
    return f"pi1 differs from ruled model {model}" if model.kind is SurfaceKind.RULED \
        else f"pi1 differs from rational model {model}"


def _verdict(
    models: list[SurfaceModel],
    assume_pi1_distinct: bool,
    reasons: list[str],
    no_match: str,
    survivor: str,
) -> StructureVerdict:
    """The one rule from surviving models to a verdict, shared by both engines."""
    if not models:
        return StructureVerdict.not_exists(*reasons, no_match)
    if assume_pi1_distinct and all(model.requires_pi1_check for model in models):
        return StructureVerdict.conditionally_excluded(
            assumptions=[_pi1_assumption(model) for model in models],
            reasons=reasons,
        )
    return StructureVerdict.unknown(
        reasons=reasons + [f"surviving {survivor}: {model}" for model in models]
    )


def exclude_symplectic(
    m: ManifoldInvariants, assume_pi1_distinct: bool = False
) -> StructureVerdict:
    """Symplectic exclusion through the negative-c1^2 route.

    Only a definite route is taken: c1^2 >= 0 or a non-even form (where
    minimality is not established) yields Unknown rather than a guess.
    """
    if almost_complex_excluded(m):  # validates m
        return StructureVerdict.not_exists(_NO_ALMOST_COMPLEX)
    c1sq = wu_target(m.chi, m.tau)
    if c1sq >= 0:
        return StructureVerdict.unknown(
            reasons=[f"c1^2 = {c1sq} >= 0: the negative-square route does not apply"]
        )
    if not m.form.is_even:
        return StructureVerdict.unknown(
            reasons=["minimality not established: the form is odd"]
        )
    # an even form has no class of square -1, so no blow-up; and no unblown
    # rational row (c1^2 = 9 or 8) matches c1^2 < 0, so the survivors are
    # minimal ruled surfaces of genus >= 2
    survivors = [
        model
        for model in ek_filter(m.b1, c1sq, m.chi)
        if model.requires_pi1_check and not model.blowups
    ]
    base = (
        f"c1^2 = {c1sq} < 0 on a minimal manifold forces Kodaira dimension "
        "-inf, i.e. a rational or ruled model"
    )
    return _verdict(
        survivors, assume_pi1_distinct, [base],
        "no rational or ruled model matches (b1, chi, tau)", "model",
    )


def exclude_complex(
    m: ManifoldInvariants, assume_pi1_distinct: bool = False
) -> StructureVerdict:
    """Complex-structure exclusion through the minimal-surface table."""
    reasons = [f"class VII excluded: b1 = {m.b1} != 1"] if m.b1 != 1 else []
    if almost_complex_excluded(m):  # validates m
        return StructureVerdict.not_exists(_NO_ALMOST_COMPLEX, *reasons)
    c1sq = wu_target(m.chi, m.tau)
    c2 = m.chi
    return _verdict(
        ek_filter(m.b1, c1sq, c2), assume_pi1_distinct, reasons,
        f"no surface class matches (b1, c1^2, c2) = ({m.b1}, {c1sq}, {c2}) "
        "for any blow-up count",
        "class",
    )
