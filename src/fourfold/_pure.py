"""The one bounded lattice walk used by the characteristic-square solver.

It runs on arbitrary-precision integers, so no form entry, bound or target
is too large for it.

Each coordinate i ranges over values congruent to residue[i] mod 2 inside
[-limit, limit].  prefixes walks the first rank - 1 coordinates in
lexicographic order and keeps the prefix's square and cross terms as running
values.  Once a prefix is fixed, q is a quadratic in the last coordinate v,

    q(h) = k + a*v*v + 2*c*v,

with a = Q[last][last], c the cross term of v with the prefix and k the
square of the prefix, so the values of v that hit a target are the integer
roots of a 1-D quadratic (or linear) equation, found with isqrt.  hits reads
the whole box's walk that way and yields every solution in lexicographic
order, so a sweep costs O(limit^(rank - 1)) instead of O(limit^rank).  The
block tables and the block walks in fourfold.search read the same walk for
their blocks' values.
"""

from __future__ import annotations

from math import isqrt


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


def prefixes(qflat, residues, rank, limit):
    """Walk the first rank - 1 coordinates of the parity box in lex order.

    qflat is the row-major flattened form matrix and rank is at least 1.
    Yields (cur, k, c) per prefix: cur is one list of length rank, reused
    between yields, whose first rank - 1 entries are the prefix and whose
    last entry is free for the caller; k = q(prefix) and c is the cross term
    sum_j Q[last][j] * prefix[j].  Rank 1 yields the empty prefix once.
    """
    last = rank - 1
    lo = [_start_value(r, limit) for r in residues]
    cur = lo[:]
    qval = [0] * rank  # qval[d] = q(cur[:d])
    # cross[d][i] = sum_{j < d} Q[i][j] * cur[j], maintained incrementally
    cross = [[0] * rank for _ in range(rank)]
    d = 0
    while d >= 0:
        v = cur[d]
        if d < last and v <= limit:
            row_cross = cross[d]
            next_cross = cross[d + 1]
            for i in range(d + 1, rank):
                next_cross[i] = row_cross[i] + qflat[i * rank + d] * v
            qval[d + 1] = qval[d] + qflat[d * rank + d] * v * v + 2 * v * row_cross[d]
            d += 1
            cur[d] = lo[d]
            continue
        if d == last:
            yield cur, qval[d], cross[d][d]
        d -= 1
        if d >= 0:
            cur[d] += 2


def hits(qflat, residues, rank, limit, target):
    """Every h in the box with q(h) == target, in lexicographic order."""
    if rank == 0:
        if target == 0:
            yield ()
        return
    a = qflat[-1]
    lo = _start_value(residues[-1], limit)
    for cur, k, c in prefixes(qflat, residues, rank, limit):
        for v in _last_values(a, c, k - target, lo, limit):
            cur[-1] = v
            yield tuple(cur)


def first_hit(qflat, residues, rank, limit, target):
    return next(hits(qflat, residues, rank, limit, target), None)


def all_hits(qflat, residues, rank, limit, target):
    return list(hits(qflat, residues, rank, limit, target))


def first_hit_on_shell(qflat, residues, rank, shell, target):
    """The first lex hit of max-norm exactly shell; only the benchmark's checks call it."""
    box = hits(qflat, residues, rank, shell, target)
    return next((h for h in box if max(map(abs, h), default=0) == shell), None)
