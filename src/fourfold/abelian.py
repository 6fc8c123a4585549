"""Smith normal form and finitely generated abelian groups.

One elimination routine brings an integer matrix to Smith normal form:
diagonal entries nonnegative and arranged in a divisibility chain
d1 | d2 | ... .  It is one loop per pivot position that pivots on a
smallest nonzero entry, finishes each reduction of the pivot's column and
row, and picks again whenever a remainder is left, so coefficients stay
small on dense matrices.  It records the unimodular transforms only when
asked: smith_normal_form returns the full factorization D = U * M * V.
abelianize first clears the unit pivots of the relation rows on sparse
{column: entry} rows (Havas, Holt and Rees, "Recognizing badly presented
Z-modules", Linear Algebra Appl. 1993), so a presentation costs about as
much as its nonzero entries.  It runs the elimination without transforms
on the rows that remain, and reads torsion and free rank off the diagonal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .forms import _SPACE, IntegerMatrix, read_int


_INT_TYPE = frozenset({int})


class PresentationError(ValueError):
    """Invalid presentation data or text."""


def _pivot(a: list[list[int]], start: int) -> tuple[int, int] | None:
    """A smallest nonzero entry of the active block, or None when it is zero.

    A unit is as small as an entry can be, so the scan stops at the first.
    """
    best = None
    best_abs = 0
    for i in range(start, len(a)):
        row = a[i]
        for j in range(start, len(row)):
            x = row[j]
            if x:
                if x == 1 or x == -1:
                    return i, j
                if best is None or abs(x) < best_abs:
                    best, best_abs = (i, j), abs(x)
    return best


def _eliminate(
    a: list[list[int]],
    u: list[list[int]] | None = None,
    v: list[list[int]] | None = None,
) -> None:
    """Bring the rows a to Smith normal form in place.

    Optional identity matrices u and v take every row and column operation
    too, so that afterwards a = u * a_before * v.  One loop per pivot
    position t: a smallest nonzero entry of the active block is moved to
    (t, t) and made positive; the whole column below it is reduced, then
    row t, each entry by its nearest multiple of the pivot.  Whenever a
    reduction leaves a remainder, which is at most half the pivot, the
    smallest entry is picked again, so intermediate entries stay small.
    A pivot 1 divides everything; any other pivot must divide the rest of
    the block, and else the first row it does not divide is added to row t
    and the pick starts again.  The pivot never grows and shrinks at least
    every second pick, so the loop ends.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    left = (a,) if u is None else (a, u)  # matrices that take row operations
    right = (a,) if v is None else (a, v)  # matrices that take column operations
    for t in range(min(rows, cols)):
        while True:
            pick = _pivot(a, t)
            if pick is None:
                return
            r, c = pick
            for m in left:
                m[t], m[r] = m[r], m[t]
            for m in right:
                for row in m:
                    row[t], row[c] = row[c], row[t]
            if a[t][t] < 0:
                for m in left:
                    m[t] = [-x for x in m[t]]
            pivot = a[t][t]
            half = pivot // 2
            left_over = False
            for i in range(t + 1, rows):
                f = (a[i][t] + half) // pivot
                if f:
                    for m in left:
                        m[i] = [x - f * y for x, y in zip(m[i], m[t])]
                if a[i][t]:
                    left_over = True
            if left_over:
                continue
            # the column is clear below the pivot, so a column operation
            # changes only row t of a
            top = a[t]
            for j in range(t + 1, cols):
                f = (top[j] + half) // pivot
                if f:
                    top[j] -= f * pivot
                    if v is not None:
                        for row in v:
                            row[j] -= f * row[t]
            if any(top[t + 1 :]):
                continue
            if pivot == 1:
                break
            offender = next(
                (i for i in range(t + 1, rows) if any(x % pivot for x in a[i][t + 1 :])),
                None,
            )
            if offender is None:
                break
            for m in left:
                m[t] = [x + y for x, y in zip(m[t], m[offender])]


def smith_normal_form(
    m: IntegerMatrix,
) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Return (D, U, V) with D = U m V (matrix products) in Smith normal form.

    U and V are unimodular; D is diagonal with nonnegative entries satisfying
    d1 | d2 | ... .
    """
    a = m.to_lists()
    u = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    v = [[int(i == j) for j in range(m.cols)] for i in range(m.cols)]
    _eliminate(a, u, v)
    return IntegerMatrix(a), IntegerMatrix(u), IntegerMatrix(v)


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
    rank = read_int(match.group(1), "h1 rank", PresentationError)
    torsion = tuple(
        read_int(t, "h1 torsion", PresentationError)
        for t in _TORSION_RE.findall(match.group(2))
    )
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
            # one pass over the entries' types; a row that holds any type
            # but int itself is then checked entry by entry
            if not _INT_TYPE.issuperset(map(type, rel)):
                for x in rel:
                    if isinstance(x, bool) or not isinstance(x, int):
                        raise PresentationError(f"relation entries must be ints, got {x!r}")


def _unit_pivots(
    relations: Sequence[Sequence[int]], generators: int
) -> tuple[list[dict[int, int]], int]:
    """Clear every unit pivot of the relation rows; return the rows left and the count.

    Rows are kept sparse as {column: entry} dicts, with a column -> rows
    index.  A row with a +-1 entry at column j is subtracted from every other
    row that holds j, as many times as clears that row's entry at j; then
    the pivot row and generator j are dropped.  Each step is elementary row operations followed
    by the removal of a unit pivot's row and column, so the group presented
    does not change.  Entries that become +-1 are queued as pivots too.
    """
    columns = range(generators)
    rows: dict[int, dict[int, int]] = {}
    holders: list[set[int]] = [set() for _ in columns]
    queue: list[tuple[int, int]] = []
    for r, rel in enumerate(relations):
        row = {j: rel[j] for j in compress(columns, rel)}
        if row:
            rows[r] = row
            for j, x in row.items():
                holders[j].add(r)
                if x == 1 or x == -1:
                    queue.append((r, j))
    units = 0
    for r, j in queue:  # the loop also takes the pivots appended while it runs
        row = rows.get(r)
        if row is None or row.get(j) not in (1, -1):
            continue  # the row is gone, or its entry at j has changed
        sign = row[j]
        for s in holders[j]:
            if s == r:
                continue
            other = rows[s]
            factor = other[j] * sign  # other[j] - factor * sign == 0
            for k, x in row.items():
                y = other.get(k, 0) - factor * x
                if y:
                    if k not in other:
                        holders[k].add(s)
                    other[k] = y
                    if y == 1 or y == -1:
                        queue.append((s, k))
                else:
                    del other[k]
                    if k != j:  # holders[j] is being walked; it is cleared below
                        holders[k].discard(s)
            if not other:
                del rows[s]
        for k in row:
            holders[k].discard(r)
        holders[j].clear()  # every other row now has 0 at j
        del rows[r]
        units += 1
    return list(rows.values()), units


def abelianize(p: Presentation) -> AbelianGroup:
    """Abelianization of a presentation, via the Smith normal form.

    The group is Z^generators modulo the row span of the relation matrix.
    Unit pivots are cleared first on the sparse rows (_unit_pivots); the
    rows that remain go to _eliminate as a dense matrix over the columns
    they still hold.  The free rank is generators minus the unit pivots and
    the nonzero pivots of the remainder, and the remainder's pivots greater
    than 1 are the torsion coefficients.
    """
    rows, units = _unit_pivots(p.relations, p.generators)
    columns = sorted({k for row in rows for k in row})
    a = [[row.get(k, 0) for k in columns] for row in rows]
    _eliminate(a)
    nonzero = [a[i][i] for i in range(min(len(a), len(columns))) if a[i][i]]
    torsion = tuple(x for x in nonzero if x > 1)
    return AbelianGroup(p.generators - units - len(nonzero), torsion)


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
        step = 1 if exponent is None else read_int(exponent, "word exponent", PresentationError)
        out[index[name]] += step
    return tuple(out)

