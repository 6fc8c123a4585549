"""The bounded lattice sweeps used by the characteristic-square solver.

They run on arbitrary-precision integers, so no form entry, bound or target
is too large for them.

All sweeps walk candidate vectors in lexicographic order; each coordinate i
ranges over values congruent to residue[i] mod 2 inside [-limit, limit].
"""

from __future__ import annotations

MODE_FIRST = 0  # first hit in lexicographic order over the whole box
MODE_SHELL = 1  # first lex hit whose max-norm equals `limit` exactly
MODE_COLLECT = 2  # every hit in the box, in lexicographic order


def _start_value(residue: int, limit: int) -> int:
    lo = -limit
    if (lo - residue) % 2 != 0:
        lo += 1
    return lo


def sweep(qflat, residues, rank, limit, target, mode):
    """Run one lattice sweep; see the module docstring for the modes.

    qflat is the row-major flattened form matrix.  Returns a tuple (modes
    FIRST and SHELL; None when no hit) or a list of tuples (mode COLLECT).
    """
    if rank == 0:
        hit = target == 0 and (mode != MODE_SHELL or limit == 0)
        if mode == MODE_COLLECT:
            return [()] if hit else []
        return () if hit else None

    lo = [_start_value(residues[d], limit) for d in range(rank)]
    if any(lo[d] > limit for d in range(rank)):
        return [] if mode == MODE_COLLECT else None

    cur = [0] * rank
    qval = [0] * (rank + 1)
    maxabs = [0] * (rank + 1)
    # cross[d][i] = sum_{j < d} Q[i][j] * cur[j], maintained incrementally
    cross = [[0] * rank for _ in range(rank + 1)]
    hits = [] if mode == MODE_COLLECT else None

    d = 0
    cur[0] = lo[0]
    while d >= 0:
        v = cur[d]
        if v > limit:
            d -= 1
            if d >= 0:
                cur[d] += 2
            continue
        qnext = qval[d] + qflat[d * rank + d] * v * v + 2 * v * cross[d][d]
        if d == rank - 1:
            if qnext == target:
                m = maxabs[d]
                av = -v if v < 0 else v
                if av > m:
                    m = av
                if mode != MODE_SHELL or m == limit:
                    found = tuple(cur)
                    if mode == MODE_COLLECT:
                        hits.append(found)
                    else:
                        return found
            cur[d] += 2
            continue
        row_cross = cross[d]
        next_cross = cross[d + 1]
        for i in range(d + 1, rank):
            next_cross[i] = row_cross[i] + qflat[i * rank + d] * v
        qval[d + 1] = qnext
        av = -v if v < 0 else v
        maxabs[d + 1] = av if av > maxabs[d] else maxabs[d]
        d += 1
        cur[d] = lo[d]

    return hits if mode == MODE_COLLECT else None


def first_hit(qflat, residues, rank, limit, target):
    return sweep(qflat, residues, rank, limit, target, MODE_FIRST)


def first_hit_on_shell(qflat, residues, rank, shell, target):
    return sweep(qflat, residues, rank, shell, target, MODE_SHELL)


def all_hits(qflat, residues, rank, limit, target):
    return sweep(qflat, residues, rank, limit, target, MODE_COLLECT)
