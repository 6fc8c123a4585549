"""Witness search strategy over the lattice sweeps in fourfold._pure.

The sweeps run on arbitrary-precision integers, so every form and bound is
searched exactly.  They are looked up on the _pure module at call time, so a
tracer that wraps those attributes sees every sweep.
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
    max-norm, or None when the box holds no solution.  Strategy: one full
    lexicographic sweep decides existence cheaply (it can stop at the first
    hit); the max-norm of that hit then caps a second pass over max-norm
    shells in increasing order.
    """
    _check_inputs(form, residues, bound)
    qflat = _flatten(form)
    first = _pure.first_hit(qflat, list(residues), form.rank, bound, target)
    if first is None:
        return None
    cap = max((abs(c) for c in first), default=0)
    for shell in range(cap + 1):
        hit = _pure.first_hit_on_shell(qflat, list(residues), form.rank, shell, target)
        if hit is not None:
            return hit
    raise AssertionError("shell pass missed a witness the full sweep found")


def enumerate_witnesses(
    form: IntersectionForm,
    residues: Sequence[int],
    bound: int,
    target: int,
) -> list[tuple[int, ...]]:
    """All solutions in the box, in lexicographic order."""
    _check_inputs(form, residues, bound)
    return _pure.all_hits(_flatten(form), list(residues), form.rank, bound, target)
