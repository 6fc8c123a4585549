"""Witness search strategy over the one lattice walk in fourfold._pure.

The existence search deepens: it sweeps boxes of max-norm 0, 1, 2, 4, ...
up to the bound and stops at the first box that holds a hit, so a small
witness is found without walking the whole box; only a box without any
solution is exhausted.  The boxes between the last empty one and the hit's
max-norm are then swept in order, each for its first hit.

The listing cuts the form into contiguous orthogonal intervals (blocks).
On a direct sum q(h) is the sum of the blocks' squares.  One walk of each
block's parity box gives its value set; a second lists only the block's
vectors of the values some live residual target can use, those that leave
a remainder the blocks after it still reach.  A depth-first pass then
joins those lists in coordinate order.  A single block is swept whole.

Both read _pure.prefixes, which keeps each prefix's square and its cross
term with the last coordinate as running values: the sweeps solve the last
coordinate in closed form, the listing evaluates it value by value.  All of
it is arbitrary-precision, so every form and bound is searched exactly.  The
sweeps (_pure.first_hit, _pure.all_hits) are looked up on the _pure module
at call time, so a tracer that wraps those attributes sees every sweep; a
listing of two or more blocks runs none.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from . import _pure
from .forms import IntersectionForm, _components


def compiled_available() -> bool:
    """Always False: there is no compiled sweep; kept for reports that print it."""
    return False


def backend_name() -> str:
    """Name of the sweep backend, for reports."""
    return "pure"


def _flatten(form: IntersectionForm) -> list[int]:
    return [x for row in form.matrix.entries() for x in row]


def _check_inputs(form: IntersectionForm, residues: Sequence[int], bound: int) -> None:
    if len(residues) != form.rank:
        raise ValueError(f"residue vector must have length {form.rank}")
    if any(r not in (0, 1) for r in residues):
        raise ValueError("residues must be 0 or 1")
    if bound < 0:
        raise ValueError("search bound must be nonnegative")


def find_minimal_witness(
    form: IntersectionForm,
    residues: Sequence[int],
    bound: int,
    target: int,
) -> tuple[int, ...] | None:
    """Solution of q(h) = target, h = residues mod 2, max|h_i| <= bound.

    Returns the lexicographically smallest solution among those of minimal
    max-norm, or None when the box holds no solution.  Strategy: first-hit
    sweeps over the boxes m = 0, 1, 2, 4, ..., the last one exactly `bound`,
    stopping at the first box that holds a hit.  Every smaller box was
    empty, so no solution has max-norm at or below the last empty box.  The
    boxes strictly between it and the hit's max-norm are then swept in
    increasing order: each comes after a box without a solution, so all its
    hits lie on its outer shell and its first hit is the answer.  When none
    holds a solution, the box hit is the answer: it is the lexicographically
    first of all box solutions, so also of those on its own shell.
    """
    _check_inputs(form, residues, bound)
    qflat = _flatten(form)
    residues = list(residues)
    empty = -1  # largest box known to hold no solution
    box = 0
    while True:
        hit = _pure.first_hit(qflat, residues, form.rank, box, target)
        if hit is not None:
            break
        if box == bound:
            return None
        empty = box
        box = min(bound, 2 * box or 1)
    cap = max((abs(c) for c in hit), default=0)
    for shell in range(empty + 1, cap):
        found = _pure.first_hit(qflat, residues, form.rank, shell, target)
        if found is not None:
            return found
    return hit


def _intervals(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """[start, stop) of each contiguous orthogonal interval, in order.

    A cut goes at each i where no entry couples [0, i) with [i, n): the
    index spans of the off-diagonal graph's components, merged where they
    overlap.
    """
    spans: list[list[int]] = []
    for block in _components(rows):  # ordered by smallest index
        if spans and block[0] < spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], block[-1] + 1)
        else:
            spans.append([block[0], block[-1] + 1])
    return spans


def _walk(
    qflat: list[int], residues: list[int], rank: int, bound: int
) -> Iterator[tuple[tuple[int, ...], range, list[int]]]:
    """The block's parity box in lex order, one prefix at a time.

    Yields (prefix, last, values): last is the ascending range of the last
    coordinate and values[i] is q(prefix, last[i]).
    """
    last = range(_pure._start_value(residues[-1], bound), bound + 1, 2)
    a = qflat[-1]
    for cur, k, c in _pure.prefixes(qflat, residues, rank, bound):
        # q(prefix, v) = k + 2*c*v + a*v*v
        yield tuple(cur[:-1]), last, [k + (2 * c + a * v) * v for v in last]


def _block_listing(
    rows: Sequence[Sequence[int]],
    residues: Sequence[int],
    spans: list[list[int]],
    bound: int,
    target: int,
) -> list[tuple[int, ...]]:
    """The box solutions of a form with two or more blocks, in lex order.

    One walk of each block gives its value set.  A forward pass then keeps,
    per block, the values some live residual can use: the residual minus
    the value is still reached by the blocks after it.  A second walk lists
    each block's vectors of those values in lex order, the last block's
    grouped by value.  Global lexicographic order is the order of the block
    vectors, block by block, so a depth-first walk that filters each block's
    list by the node's residual emits it directly.
    """
    blocks = []
    for start, stop in spans:
        flat = [x for row in rows[start:stop] for x in row[start:stop]]
        blocks.append((flat, list(residues[start:stop]), stop - start))
    values = [{q for _, _, qs in _walk(*block, bound) for q in qs} for block in blocks]
    last = len(blocks) - 1
    # reach[b]: every sum of one value from each block after b
    reach = [{0}] * len(blocks)
    for b in range(last - 1, -1, -1):
        reach[b] = {v + s for v in values[b + 1] for s in reach[b + 1]}
    keep = []
    live = {target}
    for b, after in enumerate(reach):
        used = [(v, r - v) for r in live for v in values[b] if r - v in after]
        keep.append({v for v, _ in used})
        live = {s for _, s in used}
    if not live:
        return []
    lists = [
        [
            (prefix + (v,), q)
            for prefix, last_range, qs in _walk(*block, bound)
            for v, q in zip(last_range, qs)
            if q in kept
        ]
        for block, kept in zip(blocks, keep)
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

    A form that splits into two or more contiguous orthogonal blocks is
    listed block by block (see _block_listing); otherwise one all_hits sweep
    walks the whole box.
    """
    _check_inputs(form, residues, bound)
    rows = form.matrix.entries()
    spans = _intervals(rows)
    if len(spans) < 2:
        return _pure.all_hits(_flatten(form), list(residues), form.rank, bound, target)
    return _block_listing(rows, residues, spans, bound, target)
