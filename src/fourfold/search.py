"""Witness search strategy over the one lattice walk in fourfold._pure.

The existence search deepens: it decides boxes of max-norm 0, 1, 2, 4, ...
up to the bound and stops at the first box that holds a solution, so a
small witness is found without deciding the whole box.  The boxes between
the last empty one and the hit's max-norm are then decided in order, each
for its first solution.

Both the search and the listing read the form as its contiguous orthogonal
blocks, IntersectionForm.block_rows; on a direct sum q(h) is the sum of the
blocks' squares.  A walk of each distinct block's parity box gives its
table, which maps each value the block takes to its lex-first vector of that
value, and the suffix sumsets reach[b] hold the values the blocks after b
reach together.

Before either, a definite form answers at once when the target's sign
settles it: a target of the wrong sign has no solution, and target 0 only
h = 0.  The search has one box decider for every form.  It sweeps each box
whole for its first hit but walks at most as many prefixes as the tables
have points; a sweep cut short leaves the box to the tables, which pick its
lex-first solution block by block.  On one block that budget covers the
whole box, so the sweep decides it and no table is built.  The listing
sweeps a form of one block whole, by one all_hits sweep that solves the
last coordinate.  On two or more blocks it keeps, per block, only the
values some live residual can use, those that leave a remainder the blocks
after it still reach.  Equal blocks keep the same values, so a second walk
per distinct block lists its vectors of those values.  A bottom-up join
then builds, block by block from the last, the lex-ordered suffix lists of
each live residual, and the first block's list for the target is the
answer.

Given a Layout, the listing gives each witness's text instead of its
coefficient tuple.  The join then concatenates rendered pieces as it
concatenates tuples, so each walked block vector is formatted once per
block position, not once per witness.  The one-block and sign-settled
listings, like obstruction's divisor listing, render each whole vector with
Layout.item.

Everything reads _pure.prefixes, which keeps each prefix's square and its
cross term with the last coordinate as running values: the sweeps solve the
last coordinate in closed form, the tables and the listing evaluate it
value by value.  All of it is arbitrary-precision, so every form and bound
is searched exactly.  _pure.prefixes and the listing's whole-box sweep
(_pure.all_hits) are looked up on the _pure module at call time, so a
tracer that wraps those attributes sees them.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Container, Iterator, NamedTuple, Sequence

from . import _pure
from .forms import IntersectionForm


def compiled_available() -> bool:
    """Always False: there is no compiled sweep; kept for reports that print it."""
    return False


def backend_name() -> str:
    """Name of the sweep backend, for reports."""
    return "pure"


def _flatten(rows: Sequence[Sequence[int]]) -> list[int]:
    return [x for row in rows for x in row]


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

    Every box of a form of rank 1 or more is decided one way
    (_block_search): a first-hit sweep of the whole box that walks at most
    as many prefixes as the block tables have points, then, when that sweep
    is cut short, the tables, which give the box's lexicographically first
    solution.  Boxes that hold the same vectors are decided once.

    A definite form answers at once when the target's sign settles it
    (_sign_settled): a target of the wrong sign has no solution in any box,
    and target 0 has only h = 0, a solution iff every residue is 0.  So
    positive definite E8 with target -8 answers None without a sweep.  The
    residues are trusted: the obstruction layer's w2 rule checks them.  A
    negative bound would never end the deepening, so it is refused.
    """
    if bound < 0:
        raise ValueError("search bound must be nonnegative")
    if not form.rank:
        return () if target == 0 else None
    settled = _sign_settled(form, residues, target)
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


def _sign_settled(
    form: IntersectionForm, residues: Sequence[int], target: int
) -> list[tuple[int, ...]] | None:
    """Every solution in any box, when a definite form's sign settles the target.

    A nondegenerate positive definite form takes no negative value and
    takes 0 only at h = 0, which every box holds and which has residues 0;
    a negative definite form likewise with the signs reversed.  None, for
    the search to decide, on a degenerate or indefinite form and on a
    target of the form's own sign.
    """
    determinant, negative = form._inertia
    if not determinant or 0 < negative < form.rank:
        return None
    if (target < 0) if negative else (target > 0):
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
        (tuple(_flatten(rows)), residues[a:b], b - a)
        for rows, (a, b) in zip(form.block_rows, form.blocks)
    ]


def _walk(
    qflat: Sequence[int],
    residues: Sequence[int],
    rank: int,
    bound: int,
    skip: Container[int],
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The block's parity box in lex order, less the points whose value is in skip.

    Yields (vector, value).  skip is read at each point, so a caller may
    add to it between yields.
    """
    last = range(_pure._start_value(residues[-1], bound), bound + 1, 2)
    a = qflat[-1]
    for cur, k, c in _pure.prefixes(qflat, residues, rank, bound):
        for v in last:
            q = k + (2 * c + a * v) * v  # q(prefix, v)
            if q not in skip:
                cur[-1] = v
                yield tuple(cur), q


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

    A whole-box first-hit sweep runs first.  Its budget is the number of
    points the tables would walk, the sum of the distinct blocks' box sizes,
    and it may walk that many prefixes of the whole box.  So it settles a
    box that it exhausts or whose first hit comes early (E8 + H), and is cut
    short where the box is large and its hits late or absent (CP2 # k CP2bar,
    diag(2,2,2,2)).  On one block the budget is the box's point count, no
    less than its prefix count, so the sweep is never cut short.  Otherwise
    the tables decide: the box holds a solution iff target - v is in
    reach[0] for some value v of block 0.  The blocks are contiguous
    intervals, so the lex-first solution takes, block by block, the
    lex-smallest vector whose residual the blocks after it still reach.
    """
    qflat = _flatten(form.matrix.entries())
    rank = form.rank
    blocks = _blocks(form, residues)
    # a block's box holds evens**e * odds**o vectors, with e even and o odd
    # residues: (e, o) of each distinct block
    shapes = [(res.count(0), res.count(1)) for _, res, _ in set(blocks)]
    # boxes that hold the same vectors have the same first solution: box 2
    # holds just box 1's when every residue is odd, and box 1 just box 0's
    # when every residue is even
    has_even, has_odd = 0 in residues, 1 in residues
    seen: dict[tuple[int, int], tuple[int, ...] | None] = {}

    def first(box: int) -> tuple[int, ...] | None:
        evens, odds = box // 2 * 2 + 1, (box + 1) // 2 * 2
        key = (evens * has_even, odds * has_odd)
        if key not in seen:
            seen[key] = decide(box, evens, odds)
        return seen[key]

    def decide(box: int, evens: int, odds: int) -> tuple[int, ...] | None:
        if has_odd and not odds:  # box 0 holds no odd coordinate
            return None
        budget = sum(evens**e * odds**o for e, o in shapes)
        walk = _pure.prefixes(qflat, residues, rank, box)
        capped = _pure.solutions(islice(walk, budget), qflat, residues, box, target)
        hit = next(capped, None)
        if hit is not None or next(walk, None) is None:  # a hit, or the box exhausted
            return hit
        tables, reach = _tables(blocks, box)
        found: tuple[int, ...] = ()
        residual = target
        for table, after in zip(tables, reach):
            pick = min(((x, v) for v, x in table.items() if residual - v in after), default=None)
            if pick is None:
                return None
            found += pick[0]
            residual -= pick[1]
        return found

    return first


def _pieces(
    listed: list[tuple[tuple[int, ...], int]], layout: Layout | None, b: int, last: int
) -> list:
    """(piece, value) of block b's listed vectors: the vector itself, or its text in layout.

    The first block's text opens the witness's item, every block's text but
    the last's ends with sep, and the last block's closes the item.  So
    equal blocks share a walked list but not a text, and one piece per
    block, concatenated, is the item.
    """
    if layout is None:
        return listed
    sep = layout.sep
    head = layout.open if b == 0 else ""
    tail = layout.close if b == last else sep
    return [(head + sep.join(map(str, x)) + tail, v) for x, v in listed]


def _block_listing(blocks: list[Block], bound: int, target: int, layout: Layout | None) -> list:
    """The box solutions of a form with two or more blocks, in lex order.

    The block tables give each block's value set and the suffix sumsets
    reach.  A forward pass keeps, per block, its live residuals, those a
    prefix leaves that the blocks from it on still reach, and the values
    they use: a value is kept when a live residual minus it is still
    reached by the blocks after it.  A block keeps the values v for which
    target - v is a sum of the other blocks' values, so equal blocks keep
    the same set, and one walk per distinct block lists its vectors of kept
    values in lex order.

    A bottom-up join then builds, for each live residual r of block b,
    tail[r]: the suffixes from block b on whose value is r, in lex order.
    The last block's are its vectors grouped by value; block b's are its
    vectors x in order, each followed by every suffix of tail_(b+1)[r - v],
    v the value of x.  The blocks are contiguous intervals, so that is
    lexicographic order, and tail_0[target] is the answer.  Every live
    suffix extends to a witness, so a level holds no more suffixes than the
    output has rows, and only two levels are alive at once.

    The join reads each block's pieces (_pieces): its vectors, so that a
    suffix is a tuple, or with a layout their texts, so that a suffix is the
    text of its coefficients and tail_0[target] holds finished items.
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
    lists: dict[Block, list[tuple[tuple[int, ...], int]]] = {}
    for block, table in zip(blocks, tables):
        if block not in lists:
            lists[block] = list(_walk(*block, bound, table.keys() - keep[block]))

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
    that layout.  A form of two or more blocks is listed block by block
    (see _block_listing).  A form of one block is listed by one all_hits
    sweep, which solves the last coordinate; its table would evaluate every
    point of the box.  A definite form whose target's sign settles the
    listing is answered without either, as in find_minimal_witness.  The
    residues are trusted, as there.
    """
    if bound < 0:
        raise ValueError("search bound must be nonnegative")
    hits = _sign_settled(form, residues, target)
    if hits is None:
        if len(form.block_rows) >= 2:
            return _block_listing(_blocks(form, residues), bound, target, layout)
        qflat = _flatten(form.matrix.entries())
        hits = _pure.all_hits(qflat, list(residues), form.rank, bound, target)
    return hits if layout is None else list(map(layout.item, hits))
