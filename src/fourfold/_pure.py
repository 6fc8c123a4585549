"""The bounded lattice sweeps used by the characteristic-square solver.

They run on arbitrary-precision integers, so no form entry, bound or target
is too large for them.

All sweeps report candidate vectors in lexicographic order; each coordinate
i ranges over values congruent to residue[i] mod 2 inside [-limit, limit].
Only the first rank - 1 coordinates are walked.  Once they are fixed, q is a
quadratic in the last coordinate v,

    q(h) = qval + a*v*v + 2*c*v,

with a = Q[last][last], c the cross term of v with the fixed prefix and qval
the square of the prefix, so the values of v that hit the target are the
integer roots of a 1-D quadratic (or linear) equation, found with isqrt.  A
sweep therefore costs O(limit^(rank - 1)) instead of O(limit^rank).
"""

from __future__ import annotations

from math import isqrt

MODE_FIRST = 0  # first hit in lexicographic order over the whole box
MODE_SHELL = 1  # first lex hit whose max-norm equals `limit` exactly
MODE_COLLECT = 2  # every hit in the box, in lexicographic order


def _start_value(residue: int, limit: int) -> int:
    lo = -limit
    if (lo - residue) % 2 != 0:
        lo += 1
    return lo


def _last_values(a, c, k, lo, limit):
    """Every v in range(lo, limit + 1, 2) with a*v*v + 2*c*v + k == 0, ascending."""
    if a:
        if a < 0:
            a, c, k = -a, -c, -k
        disc = c * c - a * k
        if disc < 0:
            return ()
        s = isqrt(disc)
        if s * s != disc:
            return ()
        den, roots = a, ((-c - s, -c + s) if s else (-c,))
    elif c:
        den, roots = 2 * c, (-k,)
    elif k:
        return ()
    else:
        return range(lo, limit + 1, 2)
    out = []
    for num in roots:
        v, rem = divmod(num, den)
        if not rem and lo <= v <= limit and (v - lo) & 1 == 0:
            out.append(v)
    return out


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

    last = rank - 1
    a_last = qflat[last * rank + last]
    lo_last = lo[last]
    # values of the last coordinate on the shell |v| == limit
    rim = (-limit, limit) if limit else (0,)
    cur = [0] * rank
    qval = [0] * (rank + 1)
    maxabs = [0] * (rank + 1)
    # cross[d][i] = sum_{j < d} Q[i][j] * cur[j], maintained incrementally
    cross = [[0] * rank for _ in range(rank + 1)]
    hits = [] if mode == MODE_COLLECT else None

    d = 0
    cur[0] = lo[0]
    while d >= 0:
        if d == last:
            values = _last_values(a_last, cross[d][d], qval[d] - target, lo_last, limit)
            if values and mode == MODE_SHELL and maxabs[d] < limit:
                values = [v for v in rim if v in values]
            if values:
                if mode != MODE_COLLECT:
                    cur[d] = values[0]
                    return tuple(cur)
                for v in values:
                    cur[d] = v
                    hits.append(tuple(cur))
            d -= 1
            if d >= 0:
                cur[d] += 2
            continue
        v = cur[d]
        if v > limit:
            d -= 1
            if d >= 0:
                cur[d] += 2
            continue
        row_cross = cross[d]
        next_cross = cross[d + 1]
        for i in range(d + 1, rank):
            next_cross[i] = row_cross[i] + qflat[i * rank + d] * v
        qval[d + 1] = qval[d] + qflat[d * rank + d] * v * v + 2 * v * row_cross[d]
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
