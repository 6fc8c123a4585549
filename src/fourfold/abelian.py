"""Finitely generated abelian groups and the abelianization of presentations.

A Presentation stores each relation row sparse, as its nonzero (generator,
exponent) pairs.  Presentation.from_words is the one reader of relator words,
for the families' builders and for a manifold file's word lines alike: it
keeps the generator names and each word as its syllables, and derives the
rows from them once, so a presentation costs the words' length from text to
group.  A file's rel lines hand over the pairs forms.read_sparse_ints reads,
and carry no words.  abelianize reads the group the rows present by one
Smith elimination over them, and torsion and free rank off the pivots it
drops; parse_abelian_group reads a group's text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Sequence

from .forms import _SPACE, _dense, _nonzeros, read_int


class PresentationError(ValueError):
    """Invalid presentation data or text."""


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


Row = tuple[tuple[int, int], ...]
Word = tuple[tuple[int, int], ...]  # (generator index, exponent) syllables, as written

_NAMES_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:,[A-Za-z_][A-Za-z0-9_]*)*")
_WORD_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^([+-]?[0-9]+))?$")
# str.split() also splits at these, which are not ASCII whitespace
_NOT_SPACE_RE = re.compile("[\x1c-\x1f]")


def _length_error(generators: int, relation: tuple[int, ...]) -> PresentationError:
    return PresentationError(f"relation {relation} does not have {generators} entries")


@dataclass(frozen=True, init=False)
class Presentation:
    """A group presentation, its relations recorded as exponent-sum rows.

    Each relation's row is the exponent-sum vector of a relator word over
    the ordered generators, which is all that abelianization can see.  A
    row is stored sparse, as its nonzero (generator, exponent) pairs in
    generator order, so rows, equality and hash cost the nonzero entries;
    relations is the dense view, built when it is read.

    A presentation read by from_words also keeps its generator names and
    each relator word as its (generator index, exponent) syllables, as
    written; the rows are derived from the syllables once.  One built from
    rows (the constructor, or a file's rel lines) has no names or words.
    Equality and hash read only (generators, rows), so a presentation with
    words equals the one on the same rows without them.
    """

    generators: int
    rows: tuple[Row, ...]
    names: tuple[str, ...] | None = field(default=None, compare=False)
    words: tuple[Word, ...] | None = field(default=None, compare=False)

    def __init__(self, generators: int, relations: Iterable[Sequence[int]] = ()):
        if generators < 0:
            raise PresentationError("generator count must be nonnegative")
        rows = []
        for rel in relations:
            rel = tuple(rel)
            if len(rel) != generators:
                raise _length_error(generators, rel)
            for x in rel:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise PresentationError(f"relation entries must be ints, got {x!r}")
            rows.append(_nonzeros(rel))
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _read(cls, generators: int, rows: Sequence[tuple[int, Row]]) -> "Presentation":
        """A presentation on rows read as (length, nonzero pairs), as read_sparse_ints gives them.

        The pairs are trusted; the generator count and the lengths are checked
        as the constructor checks them.
        """
        if generators < 0:
            raise PresentationError("generator count must be nonnegative")
        for length, row in rows:
            if length != generators:
                raise _length_error(generators, _dense(length, row))
        p = cls.__new__(cls)
        object.__setattr__(p, "generators", generators)
        object.__setattr__(p, "rows", tuple(row for _, row in rows))
        return p

    @classmethod
    def from_words(cls, names: Sequence[str], words: Iterable[str]) -> "Presentation":
        """The presentation of relator words like "a1^-1 b1^-1 a1 b1" on names.

        Names are distinct, each a letter or "_" and then letters, digits
        and "_".  A word's tokens are separated by ASCII whitespace; each is
        a generator name with an optional ^exponent (read_int's rule).  One
        name index serves every word.  When the words hold no byte that
        str.split() splits at and ASCII whitespace does not, each token
        costs a split, a partition, a lookup and at most one int(); any
        token that fails there sends the words to _word_error, which reads
        them token by token and says what is wrong.
        """
        names = tuple(names)
        n = len(names)
        index = {name: i for i, name in enumerate(names)}
        if len(index) != n:
            raise PresentationError("generator names must be distinct")
        joined = ",".join(names)
        if n and not (_NAMES_RE.fullmatch(joined) and joined.count(",") == n - 1):
            bad = next(x for x in names if not _NAMES_RE.fullmatch(x) or "," in x)
            raise PresentationError(f"cannot parse generator name {bad!r}")
        words = tuple(words)
        text = "\n".join(words)
        if not text.isascii() or _NOT_SPACE_RE.search(text):
            raise _word_error(index, words)
        syllables = []
        rows = []
        try:
            for word in words:
                word_syllables = []
                sums: dict[int, int] = {}
                for token in word.split():
                    name, caret, exponent = token.partition("^")
                    i = index[name]
                    if caret:
                        if "_" in exponent:  # int() takes "1_0"
                            raise ValueError
                        x = int(exponent)
                    else:
                        x = 1
                    word_syllables.append((i, x))
                    sums[i] = sums.get(i, 0) + x
                syllables.append(tuple(word_syllables))
                if 0 in sums.values():
                    sums = {i: x for i, x in sums.items() if x}
                rows.append(tuple(sorted(sums.items())))
        except (KeyError, ValueError):
            raise _word_error(index, words) from None
        p = cls.__new__(cls)
        object.__setattr__(p, "generators", n)
        object.__setattr__(p, "rows", tuple(rows))
        object.__setattr__(p, "names", names)
        object.__setattr__(p, "words", tuple(syllables))
        return p

    @property
    def relations(self) -> tuple[tuple[int, ...], ...]:
        """The relations as dense exponent-sum vectors."""
        return tuple(_dense(self.generators, row) for row in self.rows)

    def word_texts(self) -> list[str]:
        """The relator words as from_words reads them: name, or name^exponent, per syllable."""
        names = self.names
        return [
            " ".join(names[i] if x == 1 else f"{names[i]}^{x}" for i, x in word)
            for word in self.words
        ]


def _word_error(index: dict[str, int], words: Sequence[str]) -> PresentationError:
    """The error of the first token of words that breaks the word grammar."""
    for text in words:
        for token in re.findall(r"\S+", text, re.ASCII):
            match = _WORD_TOKEN_RE.match(token)
            if not match:
                return PresentationError(f"cannot parse word token {token!r}")
            name, exponent = match.groups()
            if name not in index:
                return PresentationError(f"unknown generator {name!r}")
            if exponent is not None:
                try:
                    read_int(exponent, "word exponent", PresentationError)
                except PresentationError as exc:  # too long for int()
                    return exc
    raise AssertionError("the words hold no bad token")


def _smallest(rows: dict[int, dict[int, int]]) -> tuple[int, int]:
    """(row, column) of a nonzero entry of least absolute value; a unit ends the scan."""
    least = 0
    for r, row in rows.items():
        x = min(map(abs, row.values()))
        if not least or x < least:
            best, least = r, x
            if x == 1:
                break
    return best, next(k for k, x in rows[best].items() if abs(x) == least)


def abelianize(p: Presentation) -> AbelianGroup:
    """Abelianization of a presentation: Z^generators modulo the relation rows.

    One Smith elimination over sparse {column: entry} rows, one dict copy
    of each stored row, with a column -> rows index, so a presentation
    costs about as much as its nonzero entries (Havas, Holt and Rees,
    "Recognizing badly presented Z-modules", Linear Algebra Appl. 1993).  Each pick takes a queued +-1 entry, in the
    order they were found, and only when none is left a smallest entry.
    Every other row that holds the pivot's column loses the nearest multiple
    of the pivot row.  Once the column is clear, a column operation changes
    only the pivot row, so that row is reduced in place the same way; a
    unit pivot clears it outright.  A remainder is less than the pivot, so
    the loop picks again and ends.  A pivot that stands alone is dropped
    with its row and column, and is a cyclic summand of order |pivot|.  The
    free rank is the generators minus the pivots; the orders above 1 are
    put in a divisibility chain by pairwise gcd and lcm.
    """
    rows: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}  # only the columns that occur
    units: list[tuple[int, int]] = []
    for r, pairs in enumerate(p.rows):
        if pairs:
            row = dict(pairs)
            rows[r] = row
            for j, x in row.items():
                holders.setdefault(j, set()).add(r)
                if x == 1 or x == -1:
                    units.append((r, j))
    pivots = 0
    orders: list[int] = []
    head = 0
    while rows:
        while head < len(units):  # the queue also takes the units found while it runs
            r, j = units[head]
            head += 1
            row = rows.get(r)
            if row is not None and row.get(j) in (1, -1):
                break  # else the row is gone, or its entry at j has changed
        else:
            r, j = _smallest(rows)
            row = rows[r]
        pivot = row[j]
        size = abs(pivot)
        sign = pivot // size
        half = size // 2
        left = []  # the other rows that still hold j
        for s in holders[j]:
            if s == r:
                continue
            other = rows[s]
            factor = (other[j] + half) // size * sign  # other[j] - factor * pivot is least
            if factor:
                for k, x in row.items():
                    y = other.get(k, 0) - factor * x
                    if y:
                        if k not in other:
                            holders[k].add(s)
                        other[k] = y
                        if y == 1 or y == -1:
                            units.append((s, k))
                    else:
                        del other[k]
                        if k != j:  # holders[j] is being walked; it is reset below
                            holders[k].discard(s)
                if not other:
                    del rows[s]
            if j in other:
                left.append(s)
        if left:
            holders[j] = {r, *left}
            continue
        if size > 1:
            for k, x in list(row.items()):
                if k != j:
                    y = (x + half) % size - half
                    if y:
                        row[k] = y
                    else:
                        del row[k]
                        holders[k].discard(r)
            if len(row) > 1:
                holders[j] = {r}
                continue
            orders.append(size)
        for k in row:
            holders[k].discard(r)
        del holders[j], rows[r]
        pivots += 1
    for i, a in enumerate(orders):
        for k in range(i + 1, len(orders)):
            b = orders[k]
            g = gcd(a, b)
            a, orders[k] = g, a // g * b
        orders[i] = a
    return AbelianGroup(p.generators - pivots, tuple(x for x in orders if x > 1))

