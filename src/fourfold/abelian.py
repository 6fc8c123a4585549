"""Smith normal form and finitely generated abelian groups.

The Smith normal form here returns the full factorization D = U * M * V with
unimodular U and V, diagonal entries nonnegative and arranged in a
divisibility chain d1 | d2 | ... .  Group presentations are abelianized by
reading torsion and free rank off the diagonal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .forms import _SPACE, IntegerMatrix


class PresentationError(ValueError):
    """Invalid presentation data or text."""


def _smallest_nonzero(a: list[list[int]], start: int) -> tuple[int, int] | None:
    best = None
    best_abs = None
    for i in range(start, len(a)):
        for j in range(start, len(a[0]) if a else 0):
            v = a[i][j]
            if v != 0 and (best_abs is None or abs(v) < best_abs):
                best = (i, j)
                best_abs = abs(v)
    return best


def smith_normal_form(
    m: IntegerMatrix,
) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Return (D, U, V) with D = U @ m @ V in Smith normal form.

    U and V are unimodular; D is diagonal with nonnegative entries satisfying
    d1 | d2 | ... .  Pivots are chosen as the smallest nonzero absolute value
    in the active block, which keeps intermediate entries small.
    """
    rows, cols = m.rows, m.cols
    a = m.to_lists()
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        # row_dst += factor * row_src, mirrored into U
        arow, asrc = a[dst], a[src]
        for t in range(cols):
            arow[t] += factor * asrc[t]
        urow, usrc = u[dst], u[src]
        for t in range(rows):
            urow[t] += factor * usrc[t]

    def add_col(dst, src, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pick = _smallest_nonzero(a, t)
        if pick is None:
            break
        swap_rows(t, pick[0])
        swap_cols(t, pick[1])
        if a[t][t] < 0:
            negate_row(t)

        while True:
            # clear the pivot column
            restart = False
            for i in range(t + 1, rows):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t] != 0:
                    # remainder is strictly smaller; promote it to pivot
                    swap_rows(t, i)
                    restart = True
                    break
            if restart:
                continue
            # clear the pivot row
            for j in range(t + 1, cols):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j] != 0:
                    swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            # enforce divisibility: pivot must divide the remaining block
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1

    d = IntegerMatrix(a)
    return d, IntegerMatrix(u), IntegerMatrix(v)


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group Z^rank + Z/t1 + Z/t2 + ...

    Torsion coefficients are >= 2 and form a divisibility chain t1 | t2 | ...,
    which makes equality of groups plain structural equality.
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for t in self.torsion:
            if not isinstance(t, int) or t < 2:
                raise ValueError(f"torsion coefficients must be >= 2, got {t!r}")
        for prev, nxt in zip(self.torsion, self.torsion[1:]):
            if nxt % prev != 0:
                raise ValueError(
                    f"torsion coefficients must form a divisibility chain, "
                    f"got {self.torsion}"
                )

    @property
    def has_two_torsion(self) -> bool:
        return any(t % 2 == 0 for t in self.torsion)

    def __str__(self) -> str:
        parts = [f"Z^{self.rank}"]
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts)


_GROUP_RE = re.compile(r"^Z\^([0-9]+)((?:\s*\+\s*Z/[0-9]+)*)$", re.ASCII)
_TORSION_RE = re.compile(r"Z/([0-9]+)")


def parse_abelian_group(text: str) -> AbelianGroup:
    """Parse "Z^r" optionally followed by "+ Z/t" summands."""
    match = _GROUP_RE.match(text.strip(_SPACE))
    if not match:
        raise PresentationError(f"cannot parse abelian group {text!r}")
    rank = int(match.group(1))
    torsion = tuple(int(t) for t in _TORSION_RE.findall(match.group(2)))
    try:
        return AbelianGroup(rank, torsion)
    except ValueError as exc:
        raise PresentationError(str(exc)) from None


@dataclass(frozen=True)
class Presentation:
    """A group presentation recorded as abelianized relation vectors.

    Each relation is the exponent-sum vector of a relator word over the
    ordered generators, which is all that abelianization can see.
    """

    generators: int
    relations: tuple[tuple[int, ...], ...] = ()
    generator_names: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.generators < 0:
            raise PresentationError("generator count must be nonnegative")
        object.__setattr__(
            self, "relations", tuple(tuple(r) for r in self.relations)
        )
        for rel in self.relations:
            if len(rel) != self.generators:
                raise PresentationError(
                    f"relation {rel} does not have {self.generators} entries"
                )
            for x in rel:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise PresentationError(f"relation entries must be ints, got {x!r}")
        if self.generator_names:
            names = tuple(self.generator_names)
            if len(names) != self.generators:
                raise PresentationError("generator_names length must match generators")
            object.__setattr__(self, "generator_names", names)


def abelianize(p: Presentation) -> AbelianGroup:
    """Abelianization of a presentation, via the Smith normal form.

    The group is Z^generators modulo the row span of the relation matrix; the
    free rank is generators minus the number of nonzero pivots, and pivots
    greater than 1 are the torsion coefficients.
    """
    if not p.relations:
        return AbelianGroup(p.generators)
    d, _, _ = smith_normal_form(IntegerMatrix(p.relations))
    pivots = [d.entry(i, i) for i in range(min(d.rows, d.cols))]
    nonzero = [x for x in pivots if x != 0]
    torsion = tuple(x for x in nonzero if x > 1)
    return AbelianGroup(p.generators - len(nonzero), torsion)


_WORD_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^([+-]?[0-9]+))?$")


def parse_word(names: Sequence[str], text: str) -> tuple[int, ...]:
    """Exponent-sum vector of a relator word like "a1^-1 b1^-1 a1 b1".

    Tokens are whitespace separated; each is a generator name with an
    optional ^exponent.
    """
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise PresentationError("generator names must be distinct")
    out = [0] * len(names)
    for token in re.findall(r"\S+", text, re.ASCII):
        match = _WORD_TOKEN_RE.match(token)
        if not match:
            raise PresentationError(f"cannot parse word token {token!r}")
        name, exponent = match.group(1), match.group(2)
        if name not in index:
            raise PresentationError(f"unknown generator {name!r}")
        out[index[name]] += int(exponent) if exponent is not None else 1
    return tuple(out)

