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
           of 2ab = target is complete, from the prime factors of
           target/8.  Only enumerate_chern_classes runs it;
           decide_wu_existence never does, because H has residue 0 and
           tier 1 settles it first.
  tier 3   bounded box search (default bound 32): deepening boxes of
           max-norm 0, 1, 2, 4, ..., bound, each decided by its lex-first
           solution, stop at the first box with one.  The boxes between the
           last empty one and the hit's max-norm, decided in order, then
           settle the lex-smallest witness of minimal max-norm: each
           follows a box without a solution, so its solutions lie on its
           outer shell.  Every box is decided one way, on the form's
           orthogonal blocks (IntersectionForm.block_rows): a first-hit sweep,
           one incremental prefix walk that solves the last coordinate as
           a 1-D quadratic, that may walk only as many prefixes as the
           per-block value tables have points; cut short, the tables and
           their suffix sumsets decide the box block by block.  On one
           block the sweep is never cut short.  A definite form whose
           target has the wrong sign, or is 0 with an odd residue, has no
           solution in any box, and the search says so without a walk.
           Exhausting the whole box without a hit is reported as Unknown
           together with the bound, never as a nonexistence claim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from math import gcd, isqrt
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
    characteristic residue for odd unimodular forms).  Validation holds it
    to the one w2 rule, _w2_violation, and resolve_w2 reads it.
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


def is_spin(m: ManifoldInvariants) -> SpinStatus:
    """Spin-ness of a valid record: spin means w2 = 0.

    An odd form has some x.x odd, so w2 != 0 by Wu's formula.  A zero w2
    gives spin unless H1 has 2-torsion; then the record cannot tell.
    """
    if any(resolve_w2(m)) or not m.form.is_even:
        return SpinStatus.NOT_SPIN
    return SpinStatus.INDETERMINATE if m.h1.has_two_torsion else SpinStatus.SPIN


def characteristic_residue(form: IntersectionForm) -> tuple[int, ...]:
    """form.characteristic_residue, solved once per form; FormError unless unimodular."""
    return form.characteristic_residue


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


def _w2_violation(form: IntersectionForm, w2: Sequence[int] | None) -> str | None:
    """The one w2 rule: the first way w2 fails as a mod-2 class of the form, or None."""
    if w2 is None:
        if form.is_even or form.is_unimodular:
            return None
        return "w2 cannot be derived for an odd non-unimodular form; supply it explicitly"
    if len(w2) != form.rank:
        return f"w2 must have length {form.rank}, got {len(w2)}"
    if any(v not in (0, 1) for v in w2):
        return "w2 entries must be 0 or 1"
    if form.is_unimodular and tuple(w2) != characteristic_residue(form):
        return "w2 is not the characteristic residue of the form"
    return None


def resolve_w2(m: ManifoldInvariants) -> tuple[int, ...]:
    """The given or derived w2 of a valid record, the class Chern candidates lie in."""
    require_valid(m)
    if m.w2 is not None:
        return m.w2
    if m.form.is_unimodular:
        return characteristic_residue(m.form)
    return (0,) * m.form.rank


# The first 13 primes.  Trial division takes them out first, and
# Miller-Rabin on them as bases is exact below _PRIME_TEST_EXACT_BELOW
# (Sorenson and Webster, Math. Comp. 2017).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _SMALL_PRIMES; n is odd, above 41 and below _PRIME_TEST_EXACT_BELOW."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(n: int) -> int:
    """A proper factor of the odd composite n, by Pollard's rho with Floyd's cycle test."""
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d


def _prime_factors(n: int) -> list[int]:
    """The prime factors of 1 <= n < _PRIME_TEST_EXACT_BELOW, with multiplicity.

    Trial division by _SMALL_PRIMES while p * p <= n, then Pollard's rho on
    the cofactor until every piece is prime by Miller-Rabin, which is exact
    there.  A piece below 43**2 has no factor below 43, so it is prime.
    """
    primes = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            primes.append(p)
            n //= p
    pieces = [n] if n > 1 else []
    while pieces:
        m = pieces.pop()
        if m < 43 * 43 or _is_prime(m):
            primes.append(m)
        else:
            d = _split(m)
            pieces += [d, m // d]
    return primes


def _divisors(n: int) -> list[int]:
    """Positive divisors of |n|, ascending; n must be nonzero.

    Below _PRIME_TEST_EXACT_BELOW they come from |n|'s prime factors.  Above
    it nothing is guessed: trial division up to sqrt(|n|), exact everywhere.
    """
    n = abs(n)
    if n < _PRIME_TEST_EXACT_BELOW:
        divisors = {1}
        for p in _prime_factors(n):
            divisors |= {d * p for d in divisors}
        return sorted(divisors)
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

    A residue that breaks the w2 rule (_w2_violation) raises InvariantError
    with the rule's message.  Exists and NotExists answers are exact;
    Unknown reports the exhausted search bound.
    """
    if (violation := _w2_violation(form, residue)) is not None:
        raise InvariantError([violation])
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
    return decide_wu_existence(
        m.form, resolve_w2(m), wu_target(m.chi, m.tau), bound
    )


@dataclass(frozen=True)
class ChernEnumeration:
    """Witness listing; complete means the list is provably exhaustive.

    Every listed class has the same square, so the listing keeps the raw
    coefficient tuples and that one square.  A listing asked for a layout
    keeps each witness's text in it instead, as items, and its coefficients
    are None.
    """

    coefficients: tuple[tuple[int, ...], ...] | None
    square: int
    complete: bool
    bound: int | None = None
    items: tuple[str, ...] | None = None


def enumerate_chern_classes(
    m: ManifoldInvariants, bound: int = DEFAULT_BOUND, layout: search.Layout | None = None
) -> ChernEnumeration:
    """All Chern candidates with max coefficient up to the bound.

    Output is duplicate-free, lexicographically sorted and closed under
    negation.  For a rank-2 hyperbolic form with nonzero target the divisor
    enumeration is complete and the bound is ignored.  With a layout the
    listing is each candidate's text in it (see search.Layout).
    """
    residue = resolve_w2(m)
    form = m.form
    target = wu_target(m.chi, m.tau)

    # every divisor pair and sweep hit has square target by construction
    if form.hyperbolic_summands == 1 and residue == (0, 0) and target != 0:
        hits, complete, bound = _hyperbolic_pair_witnesses(target), True, None
        if layout is not None:
            hits = map(layout.item, hits)
    else:
        hits = search.enumerate_witnesses(form, residue, bound, target, layout)
        complete = False
    if layout is None:
        return ChernEnumeration(tuple(hits), target, complete, bound)
    return ChernEnumeration(None, target, complete, bound, items=tuple(hits))


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
    if (w2_violation := _w2_violation(m.form, m.w2)) is not None:
        violations.append(w2_violation)
    return violations


def require_valid(m: ManifoldInvariants) -> None:
    """Raise InvariantError for an invalid record; validation runs once per record."""
    if m.violations:
        raise InvariantError(m.violations)
