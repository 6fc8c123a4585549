"""Independent arithmetic for the benchmark's correctness gate.

Nothing here calls fourfold.  Forms are plain tuples of integer rows.  Box
solutions of q(h) = target with h = residues (mod 2) come from an orthogonal
block split: the form falls apart into the connected components of its
off-diagonal graph, each block lists its own vectors and values, and a
depth-first walk over the blocks, pruned by the sums the remaining blocks
can reach, yields every solution in lexicographic order.  The engine under
test sweeps the whole box coordinate by coordinate instead, so agreement
between the two is evidence, not circularity.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

Matrix = tuple[tuple[int, ...], ...]

H = ((0, 1), (1, 0))

# Cartan matrix of E8 (positive definite, even, unimodular, signature 8)
E8 = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, -1),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, -1, 0, 0, 0, 0, 2),
)


def block_sum(*blocks: Matrix) -> Matrix:
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                rows[offset + i][offset + j] = v
        offset += len(b)
    return tuple(tuple(r) for r in rows)


def negate(m: Matrix) -> Matrix:
    return tuple(tuple(-v for v in row) for row in m)


def diagonal(entries: Sequence[int]) -> Matrix:
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def hyperbolic(k: int) -> Matrix:
    return block_sum(*([H] * k))


def quad(m: Matrix, h: Sequence[int]) -> int:
    """q(h) = h^T M h."""
    n = len(m)
    return sum(h[i] * m[i][j] * h[j] for i in range(n) for j in range(n))


def is_even(m: Matrix) -> bool:
    return all(m[i][i] % 2 == 0 for i in range(len(m)))


def blocks(m: Matrix) -> list[list[int]]:
    """Connected components of the off-diagonal graph, each sorted.

    The corpus only builds forms whose components are contiguous index
    ranges, which the lexicographic walk below relies on; anything else
    raises.
    """
    n = len(m)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if j != i and m[i][j] != 0 and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comp.sort()
        if comp != list(range(comp[0], comp[0] + len(comp))):
            raise ValueError("form blocks must be contiguous index ranges")
        out.append(comp)
    return out


def allowed(residue: int, limit: int) -> list[int]:
    """Integers in [-limit, limit] congruent to residue mod 2, ascending."""
    lo = -limit if (limit + residue) % 2 == 0 else -limit + 1
    return list(range(lo, limit + 1, 2))


class BoxSolver:
    """All h in the box max|h_i| <= limit with q(h) = t, h = residues mod 2."""

    def __init__(self, m: Matrix, residues: Sequence[int], limit: int):
        self._parts = []  # per block: (vectors in lex order with values, value -> vectors)
        for idx in blocks(m):
            sub = tuple(tuple(m[i][j] for j in idx) for i in idx)
            vecs = [
                (v, quad(sub, v))
                for v in product(*(allowed(residues[i] & 1, limit) for i in idx))
            ]
            by_value: dict[int, list[tuple[int, ...]]] = {}
            for v, val in vecs:
                by_value.setdefault(val, []).append(v)
            self._parts.append((vecs, by_value))
        # reach[b]: every sum the blocks b.. can produce
        self._reach = [set() for _ in range(len(self._parts) + 1)]
        self._reach[-1] = {0}
        for b in range(len(self._parts) - 1, -1, -1):
            tail = self._reach[b + 1]
            self._reach[b] = {val + s for val in self._parts[b][1] for s in tail}

    def solvable(self, target: int) -> bool:
        return target in self._reach[0]

    def solutions(self, target: int) -> Iterator[tuple[int, ...]]:
        """Every solution, in lexicographic order."""
        if not self._parts:
            if target == 0:
                yield ()
            return
        yield from self._walk(0, target, ())

    def _walk(self, b: int, remaining: int, prefix: tuple[int, ...]):
        vecs, by_value = self._parts[b]
        if b == len(self._parts) - 1:
            for v in by_value.get(remaining, ()):
                yield prefix + v
            return
        tail = self._reach[b + 1]
        for v, val in vecs:
            if remaining - val in tail:
                yield from self._walk(b + 1, remaining - val, prefix + v)


def minimal_witness(
    m: Matrix, residues: Sequence[int], bound: int, target: int
) -> tuple[int, ...] | None:
    """Lexicographically smallest solution among those of minimal max-norm."""
    for limit in range(bound + 1):
        solver = BoxSolver(m, residues, limit)
        if solver.solvable(target):
            return next(solver.solutions(target))
    return None


def box_solutions(
    m: Matrix, residues: Sequence[int], bound: int, target: int
) -> list[tuple[int, ...]]:
    return list(BoxSolver(m, residues, bound).solutions(target))


def hyperbolic_pairs(target: int) -> list[tuple[int, int]]:
    """Every even (a, b) with 2ab = target on one hyperbolic plane (target != 0)."""
    half = target // 2
    out = []
    for a in range(-abs(target), abs(target) + 1, 2):
        if a != 0 and half % a == 0 and (half // a) % 2 == 0:
            out.append((a, half // a))
    return out
