"""Witness search strategy over the one lattice walk in fourfold._pure.

A map of the module:

- find_minimal_witness: the lex-first solution of minimal max-norm, found
  by deepening the box up to the bound;
- enumerate_witnesses: every solution in the box, in lex order, as tuples
  or, given a Layout, as texts;
- _settled: the coset rule and the sign rule, which answer both with no walk;
- _block_search: how the search decides one box, block by block;
- _block_listing: how the listing lists the box of two or more blocks;
- _walk, _tables and _pieces: a block's parity box in lex order, each
  block's table of values, and a listed block vector's piece of an item.

Both read the form as its contiguous orthogonal blocks,
IntersectionForm.block_rows, never the dense form.matrix.  All of it is
arbitrary-precision, so every form and bound is searched exactly.
_pure.prefixes and the one-block sweeps, _pure.first_hit and _pure.all_hits,
are looked up on the _pure module at call time, so a tracer that wraps those
attributes sees them.
"""

from __future__ import annotations

from itertools import chain
from operator import mul
from typing import Callable, Container, Iterator, NamedTuple, Sequence

from . import _pure
from .forms import IntersectionForm


def compiled_available() -> bool:
    """Always False: there is no compiled sweep; kept for reports that print it."""
    return False


def backend_name() -> str:
    """Name of the sweep backend, for reports."""
    return "pure"


def find_minimal_witness(
    form: IntersectionForm,
    residues: Sequence[int],
    bound: int,
    target: int,
) -> tuple[int, ...] | None:
    """Solution of q(h) = target, h = residues mod 2, max|h_i| <= bound.

    Returns the lexicographically smallest solution among those of minimal
    max-norm, or None when the box holds no solution.  Strategy: decide the
    boxes m = 0, 1, 2, 4, ..., the last one exactly `bound`, in order, each
    by its lexicographically first solution, and stop at the first box that
    holds one.  Every smaller box was empty, so no solution has max-norm at
    or below the last empty box.  The boxes strictly between it and the
    hit's max-norm are then decided in increasing order: each comes after a
    box without a solution, so all its solutions lie on its outer shell and
    its first is the answer.  When none holds a solution, the box hit is
    the answer: it is the lexicographically first of all box solutions, so
    also of those on its own shell.

    Each box is decided by _block_search, and boxes that hold the same
    vectors are decided once.  A target that the coset rule or the sign
    rule settles (_settled) is answered before any box: diag(2,2,2,2) with
    residues 0 and target 20, or positive definite E8 with target -8,
    answers None, and the form of rank 0 answers every target.  The
    residues are trusted: the obstruction layer's w2 rule checks them.  A
    negative bound would never end the deepening, so it is refused.
    """
    if bound < 0:
        raise ValueError("search bound must be nonnegative")
    settled = _settled(form, residues, target)
    if settled is not None:
        return settled[0] if settled else None
    first = _block_search(form, list(residues), target)
    empty = -1  # largest box known to hold no solution
    box = 0
    while True:
        hit = first(box)
        if hit is not None:
            break
        if box == bound:
            return None
        empty = box
        box = min(bound, 2 * box or 1)
    cap = max(abs(c) for c in hit)
    for shell in range(empty + 1, cap):
        found = first(shell)
        if found is not None:
            return found
    return hit


def _settled(
    form: IntersectionForm, residues: Sequence[int], target: int
) -> list[tuple[int, ...]] | None:
    """Every solution in any box, when a rule settles the target; else None.

    First the coset rule.  Every candidate is h = w + 2x, w the residues, so

        q(h) = q(w) + 4(B(w, x) + q(x)),
        B(w, x) + q(x) = sum_i ((Qw)_i + Q_ii) x_i  (mod 2),

    and q(h) = q(w) (mod 4) always, (mod 8) when w is characteristic, that
    is (Qw)_i = Q_ii (mod 2) for every i.  A target outside that coset has
    no solution.  q(w) and the test are read block by block.

    Then the sign rule.  A nondegenerate positive definite form takes no
    negative value and takes 0 only at h = 0, which every box holds and
    which has residues 0; a negative definite form likewise with the signs
    reversed, and the form of rank 0 takes only the value 0.  None, for
    the search to decide, when neither rule settles the target.
    """
    square, characteristic = 0, True
    for rows, (a, b) in zip(form.block_rows, form.blocks):
        w = residues[a:b]
        for i, row in enumerate(rows):
            qw = sum(map(mul, row, w))  # (Qw)_i
            square += w[i] * qw
            characteristic = characteristic and not (qw - row[i]) & 1
    if (target - square) % (8 if characteristic else 4):
        return []
    determinant, negative = form._inertia
    if not determinant or 0 < negative < form.rank:
        return None
    takes = negative if target < 0 else form.rank - negative  # eigenvalues of target's sign
    if target and takes:
        return None
    if target or any(residues):
        return []
    return [(0,) * form.rank]


class Layout(NamedTuple):
    """How a listing writes a witness: open, its coefficients joined by sep, close."""

    open: str
    sep: str
    close: str

    def item(self, x: Sequence[int]) -> str:
        """The whole text of the witness x."""
        return self.open + self.sep.join(map(str, x)) + self.close


Block = tuple[tuple[int, ...], tuple[int, ...], int]


def _blocks(form: IntersectionForm, residues: Sequence[int]) -> list[Block]:
    """(flattened rows, residues, rank) of each of form.block_rows; equal blocks compare equal."""
    residues = tuple(residues)
    return [
        (tuple(chain.from_iterable(rows)), residues[a:b], b - a)
        for rows, (a, b) in zip(form.block_rows, form.blocks)
    ]


def _walk(
    qflat: Sequence[int],
    residues: Sequence[int],
    rank: int,
    bound: int,
    skip: Container[int],
    sep: str | None = None,
) -> Iterator[tuple[tuple[int, ...] | str, int]]:
    """The block's parity box in lex order, less the points whose value is in skip.

    Yields (vector, value), or given sep (text, value), the text being the
    vector's coefficients joined by sep.  A text is made as its prefix's
    part, once per prefix that keeps a point, plus its last coordinate's,
    taken from a list made once per walk, so a kept point costs one
    concatenation.  skip is read at each point, so a caller may add to it
    between yields.
    """
    lo = _pure._start_value(residues[-1], bound)
    last = range(lo, bound + 1, 2)
    ends = None if sep is None else list(map(str, last))
    a = qflat[-1]
    for cur, k, c in _pure.prefixes(qflat, residues, rank, bound):
        start = None
        for v in last:
            q = k + (2 * c + a * v) * v  # q(prefix, v)
            if q in skip:
                continue
            if ends is None:
                cur[-1] = v
                yield tuple(cur), q
            else:
                if start is None:  # each prefix coefficient followed by sep
                    start = "".join([f"{x}{sep}" for x in cur[:-1]])
                yield start + ends[(v - lo) >> 1], q  # last steps by 2 from lo


def _tables(
    blocks: list[Block], bound: int
) -> tuple[list[dict[int, tuple[int, ...]]], list[set[int]]]:
    """Each block's table over its parity box, and the suffix sumsets.

    A table maps each value the block takes to its lex-first vector of that
    value; equal blocks share one table.  reach[b] holds every sum of one
    value from each block after b.
    """
    distinct: dict[Block, dict[int, tuple[int, ...]]] = {block: {} for block in blocks}
    for block, table in distinct.items():
        for x, q in _walk(*block, bound, table):  # each value's first vector
            table[q] = x
    tables = [distinct[block] for block in blocks]
    reach = [{0}] * len(blocks)
    for b in range(len(blocks) - 2, -1, -1):
        reach[b] = {v + s for v in tables[b + 1] for s in reach[b + 1]}
    return tables, reach


def _block_search(
    form: IntersectionForm, residues: list[int], target: int
) -> Callable[[int], tuple[int, ...] | None]:
    """first(box): the lex-first solution in the box, or None; rank 1 or more.

    One block is swept whole: its first hit, the last coordinate solved in
    closed form, is the answer.  A sum of two or more blocks walks its first
    block against the others' tables: after holds the values blocks 1, 2,
    ... reach together, and the first vector v of block 0, in lex order,
    whose residual target - q(v) is in after starts the answer.  Each later
    block then takes its lex-smallest vector whose residual the blocks after
    it still reach.  The blocks are contiguous intervals, so the box's lex
    order is block 0's order first, and that is the lex-first solution.
    """
    blocks = _blocks(form, residues)
    # box m adds only values of m's parity: when no residue has that parity
    # it holds just box m - 1's vectors, and box 0 holds none when a residue
    # is odd; each other box is decided once
    parities = set(residues)
    seen: dict[int, tuple[int, ...] | None] = {}

    def first(box: int) -> tuple[int, ...] | None:
        if box % 2 not in parities or (not box and 1 in parities):
            return first(box - 1) if box else None
        if box not in seen:
            seen[box] = decide(box)
        return seen[box]

    def decide(box: int) -> tuple[int, ...] | None:
        if len(blocks) == 1:
            return _pure.first_hit(*blocks[0], box, target)
        tables, reach = _tables(blocks[1:], box)
        after = {v + s for v in tables[0] for s in reach[0]}
        for found, v in _walk(*blocks[0], box, ()):
            residual = target - v
            if residual in after:
                break
        else:
            return None
        for table, reached in zip(tables, reach):
            x, v = min((x, v) for v, x in table.items() if residual - v in reached)
            found += x
            residual -= v
        return found

    return first


def _pieces(listed: list, layout: Layout | None, b: int, last: int) -> list:
    """(piece, value) of block b's listed vectors: the vector itself, or its wrapped text.

    With a layout, listed holds each vector's coefficient text, rendered by
    the listing walk, and the piece wraps it for position b: the first
    block's opens the witness's item, every block's but the last's ends with
    sep, and the last block's closes the item.  So equal blocks share a
    walked list and its text but not a piece, and one piece per block,
    concatenated, is the item.
    """
    if layout is None:
        return listed
    head = layout.open if b == 0 else ""
    tail = layout.close if b == last else layout.sep
    return [(head + text + tail, v) for text, v in listed]


def _block_listing(blocks: list[Block], bound: int, target: int, layout: Layout | None) -> list:
    """The box solutions of a form with two or more blocks, in lex order.

    The block tables give each block's value set and the suffix sumsets
    reach.  A forward pass keeps, per block, its live residuals, those a
    prefix leaves that the blocks from it on still reach, and the values
    they use: a value is kept when a live residual minus it is still
    reached by the blocks after it.  A block keeps the values v for which
    target - v is a sum of the other blocks' values, so equal blocks keep
    the same set, and one walk per distinct block lists its vectors of kept
    values in lex order; given a layout, that walk renders each one's
    coefficient text, joined by the layout's sep.

    A bottom-up join then builds, for each live residual r of block b,
    tail[r]: the suffixes from block b on whose value is r, in lex order.
    The last block's are its vectors grouped by value; block b's are its
    vectors x in order, each followed by every suffix of tail_(b+1)[r - v],
    v the value of x.  The blocks are contiguous intervals, so that is
    lexicographic order, and tail_0[target] is the answer.  Every live
    suffix extends to a witness, so a level holds no more suffixes than the
    output has rows, and only two levels are alive at once.

    The join reads each block's pieces (_pieces): its vectors, so that a
    suffix is a tuple, or with a layout their texts wrapped for the block's
    position, so that a suffix is the text of its coefficients and
    tail_0[target] holds finished items.
    """
    tables, reach = _tables(blocks, bound)
    last = len(blocks) - 1
    lives = []
    keep: dict[Block, set[int]] = {block: set() for block in blocks}
    live = {target}
    for b in range(last):
        after = reach[b]
        used = [(v, r - v) for r in live for v in tables[b] if r - v in after]
        lives.append(live)
        keep[blocks[b]].update(v for v, _ in used)
        live = {s for _, s in used}
    # reach[last] is {0}: the last block keeps the live residuals it takes
    live &= tables[last].keys()
    if not live:
        return []
    keep[blocks[last]] |= live
    sep = None if layout is None else layout.sep
    lists: dict[Block, list] = {}
    for block, table in zip(blocks, tables):
        if block not in lists:
            lists[block] = list(_walk(*block, bound, table.keys() - keep[block], sep))

    tail: dict[int, list] = {}
    for x, q in _pieces(lists[blocks[last]], layout, last, last):
        tail.setdefault(q, []).append(x)
    for b in range(last - 1, -1, -1):
        listed, after = _pieces(lists[blocks[b]], layout, b, last), tail
        tail = {r: [x + s for x, v in listed for s in after.get(r - v, ())] for r in lives[b]}
    return tail[target]


def enumerate_witnesses(
    form: IntersectionForm,
    residues: Sequence[int],
    bound: int,
    target: int,
    layout: Layout | None = None,
) -> list:
    """All solutions in the box, in lexicographic order.

    Each solution is its coefficient tuple, or with a layout its text in
    that layout.  A target that the coset rule or the sign rule settles
    (_settled) is answered with no walk.  A form of two or more blocks is
    listed by _block_listing.  A form of one block is listed by one
    _pure.all_hits sweep, which solves the last coordinate; its table would
    evaluate every point of the box.  The residues are trusted, as in
    find_minimal_witness, and a negative bound is refused.
    """
    if bound < 0:
        raise ValueError("search bound must be nonnegative")
    hits = _settled(form, residues, target)
    if hits is None:
        if len(form.block_rows) >= 2:
            return _block_listing(_blocks(form, residues), bound, target, layout)
        hits = _pure.all_hits(*_blocks(form, residues)[0], bound, target)
    return hits if layout is None else list(map(layout.item, hits))
