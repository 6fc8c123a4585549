"""Witness search strategy over the lattice sweeps in fourfold._pure.

The existence search deepens: it sweeps boxes of max-norm 0, 1, 2, 4, ...
up to the bound and stops at the first box that holds a hit, so a small
witness is found without walking the whole box; only a box without any
solution is exhausted.

The listing cuts the form into contiguous orthogonal intervals (blocks).
On a direct sum q(h) is the sum of the blocks' squares, so it walks the
blocks in coordinate order and keeps only the block vectors whose value
leaves a residual target that the blocks after it can still reach, as told
by their value sets.  A single block is swept whole.

The sweeps solve the last coordinate in closed form and run on
arbitrary-precision integers, so every form and bound is searched exactly.
They are looked up on the _pure module at call time, so a tracer that wraps
those attributes sees every sweep.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

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
    empty, so no solution has max-norm at or below the last empty box; the
    shells strictly between it and the hit's max-norm are then swept in
    increasing order.  When none holds a solution, the box hit is the
    answer: it is the lexicographically first of all box solutions, so also
    of those on its own shell.
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
        found = _pure.first_hit_on_shell(qflat, residues, form.rank, shell, target)
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


def _values(qflat: list[int], residues: list[int], rank: int, bound: int) -> set[int]:
    """Every q(x) over the block's parity box."""
    *head, last = [range(_pure._start_value(r, bound), bound + 1, 2) for r in residues]
    a = qflat[-1]
    cross = qflat[(rank - 1) * rank : -1]  # the last row without its diagonal
    values: set[int] = set()
    for prefix in product(*head):
        # q(prefix, v) = k + 2*c*v + a*v*v
        k = sum(
            qflat[i * rank + j] * x * y
            for i, x in enumerate(prefix)
            for j, y in enumerate(prefix)
        )
        c2 = 2 * sum(q * x for q, x in zip(cross, prefix))
        values.update([k + (c2 + a * v) * v for v in last])
    return values


def _block_listing(
    rows: Sequence[Sequence[int]],
    residues: Sequence[int],
    spans: list[list[int]],
    bound: int,
    target: int,
) -> list[tuple[int, ...]]:
    """The box solutions of a form with two or more blocks, in lex order.

    Each block's vectors of one value come from one all_hits sweep of that
    block, memoised per (block, value).  Global lexicographic order is the
    order of the block vectors, block by block, so a depth-first walk over
    each block's candidates, merged into lex order, emits it directly.
    """
    blocks = []
    for start, stop in spans:
        flat = [x for row in rows[start:stop] for x in row[start:stop]]
        blocks.append((flat, list(residues[start:stop]), stop - start))
    values = [_values(flat, res, rank, bound) for flat, res, rank in blocks]
    last = len(blocks) - 1
    # reach[b]: every sum of one value from each block after b; only the
    # blocks before the last read it
    reach = [{0}] * len(blocks)
    reach[last - 1] = values[last]
    for b in range(last - 2, -1, -1):
        reach[b] = {v + s for v in values[b + 1] for s in reach[b + 1]}

    hits: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def block_hits(b: int, value: int) -> list[tuple[int, ...]]:
        found = hits.get((b, value))
        if found is None:
            flat, res, rank = blocks[b]
            found = hits[b, value] = _pure.all_hits(flat, res, rank, bound, value)
        return found

    out: list[tuple[int, ...]] = []
    # depth first with an explicit stack, so no form is too long to walk;
    # each node is (block, prefix over the blocks before it, residual)
    stack = [(0, (), target)]
    while stack:
        b, prefix, residual = stack.pop()
        if b == last:  # the block before saw residual in values[last]
            out.extend([prefix + x for x in block_hits(b, residual)])
            continue
        after = reach[b]
        found = sorted(
            (x, v)
            for v in values[b]
            if residual - v in after
            for x in block_hits(b, v)
        )
        # pushed in reverse, so the lex-smallest vector is walked first
        stack.extend((b + 1, prefix + x, residual - v) for x, v in reversed(found))
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
