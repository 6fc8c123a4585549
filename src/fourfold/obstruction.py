"""Almost-complex structure obstructions for closed oriented 4-manifolds.

A class h in H^2 is the first Chern class of an almost complex structure iff

    q(h) = 3*signature + 2*euler      and      h = w2  (mod 2).

Everything revolves around deciding solvability of that pair of conditions
exactly.  The existence decision runs tiers 0, 1 and 3; tier 2 only lists:

  tier 0   mod-8 filter: on a unimodular form, any class congruent to the
           characteristic residue has square congruent to the signature
           mod 8, so a mismatched target settles NotExists outright.
           It needs no bound; almost_complex_excluded runs it alone.
  tier 1   literal hyperbolic sums kH: the form is even and unimodular,
           so w2 = 0 and tier 0 has settled every target not divisible by
           8; (target/4, 2, 0, ..., 0) is an explicit witness for the rest.
           It is not always the lex-smallest witness of minimal max-norm
           that tier 3 would find.
  tier 2   rank-2 H with w2 = 0 and a nonzero target: divisor enumeration
           of 2ab = target is complete.  Only enumerate_chern_classes runs
           it; decide_wu_existence never does, because H has residue 0 and
           tier 1 settles it first.
  tier 3   bounded box search (default bound 32): deepening boxes of
           max-norm 0, 1, 2, 4, ..., bound, each decided by its lex-first
           solution, stop at the first box with one.  The boxes between the
           last empty one and the hit's max-norm, decided in order, then
           settle the lex-smallest witness of minimal max-norm: each
           follows a box without a solution, so its solutions lie on its
           outer shell.  Every box is decided one way, on the form's
           orthogonal blocks (IntersectionForm.blocks): a first-hit sweep,
           one incremental prefix walk that solves the last coordinate as
           a 1-D quadratic, that may walk only as many prefixes as the
           per-block value tables have points; cut short, the tables and
           their suffix sumsets decide the box block by block.  On one
           block the sweep is never cut short.  Exhausting the whole box
           without a hit is reported as Unknown together with the bound,
           never as a nonexistence claim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import Sequence

from . import search
from .abelian import AbelianGroup, Presentation, abelianize
from .forms import FormError, IntersectionForm

DEFAULT_BOUND = 32


class InvariantError(ValueError):
    """An invariant record failed validation."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SpinStatus(enum.Enum):
    SPIN = "Spin"
    NOT_SPIN = "NotSpin"
    INDETERMINATE = "Indeterminate"

    def __str__(self) -> str:
        return self.value


class VerdictStatus(enum.Enum):
    EXISTS = "Exists"
    NOT_EXISTS = "NotExists"
    CONDITIONALLY_EXCLUDED = "ConditionallyExcluded"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ChernWitness:
    """A candidate first Chern class with its evaluated square."""

    coefficients: tuple[int, ...]
    square: int

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))

    @classmethod
    def on_form(cls, form: IntersectionForm, coefficients: Sequence[int]) -> "ChernWitness":
        coeffs = tuple(coefficients)
        return cls(coeffs, form.evaluate(coeffs))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coefficients) + ")"


@dataclass(frozen=True)
class StructureVerdict:
    """Outcome of a structure-existence question.

    Exists carries a witness; ConditionallyExcluded carries the assumptions
    the exclusion rests on; Unknown carries the exhausted search bound when
    the verdict came from a bounded search (None when no search was
    involved, e.g. classification-table survivors).
    """

    status: VerdictStatus
    witness: ChernWitness | None = None
    reasons: tuple[str, ...] = ()
    assumptions: tuple[str, ...] = ()
    search_bound: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "reasons", tuple(self.reasons))
        object.__setattr__(self, "assumptions", tuple(self.assumptions))
        if self.status is VerdictStatus.EXISTS and self.witness is None:
            raise ValueError("an Exists verdict needs a witness")
        if self.status is not VerdictStatus.EXISTS and self.witness is not None:
            raise ValueError("only Exists verdicts carry a witness")
        if self.status is VerdictStatus.CONDITIONALLY_EXCLUDED and not self.assumptions:
            raise ValueError("a ConditionallyExcluded verdict needs assumptions")

    @classmethod
    def exists(cls, witness: ChernWitness, reasons: Sequence[str] = ()) -> "StructureVerdict":
        return cls(VerdictStatus.EXISTS, witness=witness, reasons=tuple(reasons))

    @classmethod
    def not_exists(cls, *reasons: str) -> "StructureVerdict":
        return cls(VerdictStatus.NOT_EXISTS, reasons=reasons)

    @classmethod
    def conditionally_excluded(
        cls, assumptions: Sequence[str], reasons: Sequence[str] = ()
    ) -> "StructureVerdict":
        return cls(
            VerdictStatus.CONDITIONALLY_EXCLUDED,
            reasons=tuple(reasons),
            assumptions=tuple(assumptions),
        )

    @classmethod
    def unknown(
        cls, reasons: Sequence[str] = (), search_bound: int | None = None
    ) -> "StructureVerdict":
        return cls(VerdictStatus.UNKNOWN, reasons=tuple(reasons), search_bound=search_bound)


@dataclass(frozen=True)
class ManifoldInvariants:
    """Classical invariants of a closed oriented smooth 4-manifold.

    w2 is the mod-2 reduction of the second Stiefel-Whitney class over the
    H2 basis; None means "derive it" (zero for even forms, the
    characteristic residue for odd unimodular forms).
    """

    name: str
    chi: int
    tau: int
    form: IntersectionForm
    b1: int
    h1: AbelianGroup
    w2: tuple[int, ...] | None = None
    presentation: Presentation | None = None

    def __post_init__(self):
        if self.w2 is not None:
            object.__setattr__(self, "w2", tuple(self.w2))

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """validate_invariants(self), run once for this record object."""
        return tuple(validate_invariants(self))


def wu_target(chi: int, tau: int) -> int:
    """The square every almost-complex first Chern class must attain."""
    return 3 * tau + 2 * chi


def is_spin(form: IntersectionForm, h1: AbelianGroup) -> SpinStatus:
    """Spin-ness from the form parity.

    An even intersection form forces spin only when H1 has no 2-torsion;
    with 2-torsion present the form cannot tell, hence Indeterminate.
    """
    if h1.has_two_torsion:
        return SpinStatus.INDETERMINATE
    return SpinStatus.SPIN if form.is_even else SpinStatus.NOT_SPIN


def characteristic_residue(form: IntersectionForm) -> tuple[int, ...]:
    """form.characteristic_residue, solved once per form; FormError unless unimodular."""
    return form.characteristic_residue


def mod8_filter(form: IntersectionForm, target: int, w2: Sequence[int]) -> bool:
    """Necessary condition on a unimodular form: target = signature mod 8.

    Classes congruent to the characteristic residue are characteristic
    vectors, and characteristic vectors of unimodular lattices have squares
    congruent to the signature mod 8.  Returns False when the target fails
    that congruence (so no solution can exist), True when it passes.
    """
    if not form.is_unimodular:
        raise FormError("the mod-8 filter applies to unimodular forms only")
    if tuple(w2) != characteristic_residue(form):
        raise FormError("w2 must equal the characteristic residue of the form")
    return _mod8_obstruction(form, target) is None


def _mod8_obstruction(form: IntersectionForm, target: int) -> str | None:
    """Tier 0's reason when a unimodular form misses the target, else None."""
    if form.is_unimodular and (target - form.signature) % 8:
        return (
            f"mod-8 obstruction: target {target} is not congruent to "
            f"signature {form.signature} mod 8"
        )
    return None


def almost_complex_excluded(m: ManifoldInvariants) -> bool:
    """Whether decide_almost_complex answers NotExists, which only tier 0 does.

    Validates the record first; needs no bound and runs no search.
    """
    require_valid(m)
    return _mod8_obstruction(m.form, wu_target(m.chi, m.tau)) is not None


def resolve_w2(m: ManifoldInvariants) -> tuple[int, ...]:
    """The mod-2 residue class Chern candidates must lie in."""
    if m.w2 is not None:
        return tuple(v & 1 for v in m.w2)
    if m.form.is_unimodular:
        return characteristic_residue(m.form)
    if m.form.is_even:
        return (0,) * m.form.rank
    raise InvariantError(
        ["w2 cannot be derived for an odd non-unimodular form; supply it explicitly"]
    )


def _divisors(n: int) -> list[int]:
    """Positive divisors of |n|, ascending; n must be nonzero."""
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def _hyperbolic_pair_witnesses(target: int) -> list[tuple[int, int]]:
    """All even solutions of 2ab = target on a single hyperbolic plane.

    Complete for target != 0: writing a = 2s, b = 2t turns the equation
    into st = target/8, so solutions correspond to divisors of target/8.
    """
    if target % 8 != 0:
        return []
    t8 = target // 8
    out = set()
    for d in _divisors(t8):
        for s in (d, -d):
            out.add((2 * s, 2 * (t8 // s)))
    return sorted(out)


def decide_wu_existence(
    form: IntersectionForm,
    residue: Sequence[int],
    target: int,
    bound: int = DEFAULT_BOUND,
) -> StructureVerdict:
    """Tiered decision: does some h = residue (mod 2) have q(h) = target?

    The residue must be the characteristic residue when the form is
    unimodular (anything else is inconsistent input).  Exists and NotExists
    answers are exact; Unknown reports the exhausted search bound.
    """
    residue = tuple(r & 1 for r in residue)
    if len(residue) != form.rank:
        raise InvariantError([f"w2 must have length {form.rank}"])

    if form.is_unimodular and residue != characteristic_residue(form):
        raise InvariantError(
            ["w2 is not the characteristic residue of the unimodular form"]
        )
    obstructed = _mod8_obstruction(form, target)
    if obstructed is not None:
        return StructureVerdict.not_exists(obstructed)

    if form.hyperbolic_summands is not None:
        # tier 1: kH is unimodular with residue 0, so tier 0 has left only
        # targets divisible by 8, and q(target/4, 2, 0, ...) = target
        coeffs = (target // 4, 2) + (0,) * (form.rank - 2)
        return StructureVerdict.exists(ChernWitness.on_form(form, coeffs))

    hit = search.find_minimal_witness(form, residue, bound, target)
    if hit is not None:
        return StructureVerdict.exists(ChernWitness.on_form(form, hit))
    return StructureVerdict.unknown(
        reasons=[f"box search exhausted up to max-norm {bound} without a hit"],
        search_bound=bound,
    )


def decide_almost_complex(
    m: ManifoldInvariants, bound: int = DEFAULT_BOUND
) -> StructureVerdict:
    """Almost-complex existence for a valid record (validated once per record)."""
    require_valid(m)
    return decide_wu_existence(
        m.form, resolve_w2(m), wu_target(m.chi, m.tau), bound
    )


@dataclass(frozen=True)
class ChernEnumeration:
    """Witness listing; complete means the list is provably exhaustive.

    Every listed class has the same square, so the listing keeps the raw
    coefficient tuples and that one square.
    """

    coefficients: tuple[tuple[int, ...], ...]
    square: int
    complete: bool
    bound: int | None = None


def enumerate_chern_classes(
    m: ManifoldInvariants, bound: int = DEFAULT_BOUND
) -> ChernEnumeration:
    """All Chern candidates with max coefficient up to the bound.

    Output is duplicate-free, lexicographically sorted and closed under
    negation.  For a rank-2 hyperbolic form with nonzero target the divisor
    enumeration is complete and the bound is ignored.
    """
    require_valid(m)
    form = m.form
    residue = resolve_w2(m)
    target = wu_target(m.chi, m.tau)

    # every divisor pair and sweep hit has square target by construction
    if form.hyperbolic_summands == 1 and residue == (0, 0) and target != 0:
        pairs = _hyperbolic_pair_witnesses(target)
        return ChernEnumeration(tuple(pairs), target, complete=True)

    hits = search.enumerate_witnesses(form, residue, bound, target)
    return ChernEnumeration(tuple(hits), target, complete=False, bound=bound)


def validate_invariants(m: ManifoldInvariants) -> list[str]:
    """Cross-check a record; returns violation messages (empty when clean).

    Violations are data, not exceptions: callers that need a hard failure
    use require_valid, which runs this once per record through the cached
    ManifoldInvariants.violations.  This is the one place that decides
    validity; each call returns a fresh list.
    """
    violations = []
    b2 = m.form.rank
    if m.chi != 2 - 2 * m.b1 + b2:
        violations.append(
            f"Euler characteristic mismatch: chi = {m.chi} but "
            f"2 - 2*b1 + b2 = {2 - 2 * m.b1 + b2}"
        )
    try:
        sig = m.form.signature
        if sig != m.tau:
            violations.append(
                f"signature mismatch: form has signature {sig}, record says {m.tau}"
            )
    except FormError:
        violations.append("intersection form is degenerate")
    if m.b1 != m.h1.rank:
        violations.append(f"b1 = {m.b1} does not equal rank(H1) = {m.h1.rank}")
    if m.presentation is not None:
        computed = abelianize(m.presentation)
        if computed != m.h1:
            violations.append(
                f"H1 mismatch: presentation abelianizes to {computed}, "
                f"record says {m.h1}"
            )
    if m.w2 is None:
        try:
            resolve_w2(m)
        except InvariantError as exc:
            violations.extend(exc.violations)
    elif len(m.w2) != b2:
        violations.append(f"w2 must have length {b2}, got {len(m.w2)}")
    elif any(v not in (0, 1) for v in m.w2):
        violations.append("w2 entries must be 0 or 1")
    elif m.form.is_unimodular and tuple(m.w2) != characteristic_residue(m.form):
        violations.append("w2 is not the characteristic residue of the form")
    return violations


def require_valid(m: ManifoldInvariants) -> None:
    """Raise InvariantError for an invalid record; validation runs once per record."""
    if m.violations:
        raise InvariantError(m.violations)
