"""Witness search strategy over the one lattice walk in fourfold._pure.

The existence search deepens: it decides boxes of max-norm 0, 1, 2, 4, ...
up to the bound and stops at the first box that holds a solution, so a
small witness is found without deciding the whole box.  The boxes between
the last empty one and the hit's max-norm are then decided in order, each
for its first solution.

Both the search and the listing read the form as its contiguous orthogonal
blocks, IntersectionForm.blocks; on a direct sum q(h) is the sum of the
blocks' squares.  A walk of each distinct block's parity box gives its
table, which maps each value the block takes to its lex-first vector of that
value, and the suffix sumsets reach[b] hold the values the blocks after b
reach together.

The search has one box decider for every form.  It sweeps each box whole
for its first hit but walks at most as many prefixes as the tables have
points; a sweep cut short leaves the box to the tables, which pick its
lex-first solution block by block.  On one block that budget covers the
whole box, so the sweep decides it and no table is built.  The listing
sweeps a form of one block whole, by one all_hits sweep that solves the
last coordinate.  On two or more blocks it keeps, per block, only the
values some live residual target can use, those that leave a remainder the
blocks after it still reach; a second walk lists the block's vectors of
those values, and a depth-first pass joins those lists in coordinate order.

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
from typing import Callable, Container, Iterator, Sequence

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
    solution.  Boxes that hold the same vectors are decided once.  The
    residues are trusted: the obstruction layer's w2 rule checks them.  A
    negative bound would never end the deepening, so it is refused.
    """
    if bound < 0:
        raise ValueError("search bound must be nonnegative")
    if not form.rank:
        return () if target == 0 else None
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


Block = tuple[tuple[int, ...], tuple[int, ...], int]


def _blocks(form: IntersectionForm, residues: Sequence[int]) -> list[Block]:
    """(flattened matrix, residues, rank) of each block; equal blocks compare equal."""
    rows, residues = form.matrix.entries(), tuple(residues)
    return [
        (tuple([x for row in rows[a:b] for x in row[a:b]]), residues[a:b], b - a)
        for a, b in form.blocks
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


def _block_listing(blocks: list[Block], bound: int, target: int) -> list[tuple[int, ...]]:
    """The box solutions of a form with two or more blocks, in lex order.

    The block tables give each block's value set and the suffix sumsets
    reach.  A forward pass then keeps, per block, the values some live
    residual can use: the residual minus the value is still reached by the
    blocks after it.  A second walk lists each block's vectors of those
    values in lex order, the last block's grouped by value.  Global
    lexicographic order is the order of the block vectors, block by block,
    so a depth-first walk that filters each block's list by the node's
    residual emits it directly.
    """
    tables, reach = _tables(blocks, bound)
    last = len(blocks) - 1
    keep = []
    live = {target}
    for b in range(last):
        after = reach[b]
        used = [(v, r - v) for r in live for v in tables[b] if r - v in after]
        keep.append({v for v, _ in used})
        live = {s for _, s in used}
    # reach[last] is {0}: the last block keeps the live residuals it takes
    keep.append(live & tables[last].keys())
    if not keep[last]:
        return []
    lists = [
        list(_walk(*block, bound, table.keys() - kept))
        for block, table, kept in zip(blocks, tables, keep)
    ]
    tail: dict[int, list[tuple[int, ...]]] = {}
    for x, q in lists.pop():
        tail.setdefault(q, []).append(x)

    out: list[tuple[int, ...]] = []
    # depth first with an explicit stack, so no form is too long to walk;
    # each node is (block, prefix over the blocks before it, residual)
    stack = [(0, (), target)]
    while stack:
        b, prefix, residual = stack.pop()
        if b == last:
            out.extend([prefix + x for x in tail[residual]])
            continue
        after = reach[b]
        kids = [(b + 1, prefix + x, residual - v) for x, v in lists[b] if residual - v in after]
        stack.extend(reversed(kids))  # so the lex-smallest vector is walked first
    return out


def enumerate_witnesses(
    form: IntersectionForm,
    residues: Sequence[int],
    bound: int,
    target: int,
) -> list[tuple[int, ...]]:
    """All solutions in the box, in lexicographic order.

    A form of two or more blocks is listed block by block (see
    _block_listing).  A form of one block is listed by one all_hits sweep,
    which solves the last coordinate; its table would evaluate every point
    of the box.  The residues are trusted, as in find_minimal_witness.
    """
    if bound < 0:
        raise ValueError("search bound must be nonnegative")
    if len(form.blocks) < 2:
        qflat = _flatten(form.matrix.entries())
        return _pure.all_hits(qflat, list(residues), form.rank, bound, target)
    return _block_listing(_blocks(form, residues), bound, target)
