"""Witness search strategy over the lattice sweeps in fourfold._pure.

The existence search deepens: it sweeps boxes of max-norm 0, 1, 2, 4, ...
up to the bound and stops at the first box that holds a hit, so a small
witness is found without walking the whole box; only a box without any
solution is exhausted.  The sweeps solve the last coordinate in closed form
and run on arbitrary-precision integers, so every form and bound is searched
exactly.  They are looked up on the _pure module at call time, so a tracer
that wraps those attributes sees every sweep.
"""

from __future__ import annotations

from typing import Sequence

from . import _pure
from .forms import IntersectionForm


def compiled_available() -> bool:
    """Always False: there is no compiled sweep; kept for reports that print it."""
    return False


def backend_name() -> str:
    """Name of the sweep backend, for reports."""
    return "pure"


def _flatten(form: IntersectionForm) -> list[int]:
    return [form.matrix.entry(i, j) for i in range(form.rank) for j in range(form.rank)]


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


def enumerate_witnesses(
    form: IntersectionForm,
    residues: Sequence[int],
    bound: int,
    target: int,
) -> list[tuple[int, ...]]:
    """All solutions in the box, in lexicographic order."""
    _check_inputs(form, residues, bound)
    return _pure.all_hits(_flatten(form), list(residues), form.rank, bound, target)
