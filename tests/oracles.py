"""Independent oracles used to freeze expected values.

Nothing in here calls the decision engines under test: determinants come
from cofactor expansion (of large matrices, from Gaussian elimination over
the rationals), ranks over Q and over GF(p) from Gaussian elimination,
Smith diagonals from the gcds of minors (determinantal divisors),
signatures from Descartes' rule of signs on the integer characteristic
polynomial, the finest contiguous block split from the zero off-block
rectangles, solvability over a box comes from an exact per-block value-set
convolution, the solution count of a diagonal form from a per-coordinate
value-count convolution, and the raw sweep oracles walk the box with numpy
or with itertools.product.  The surface classes of a record come from trying
blow-up counts k = 0, 1, ... against the printed table's constraints.
Matrix products are plain list arithmetic.  These
deliberately use different algorithms from the package so that agreement
is evidence, not circularity.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np

from fourfold.forms import IntegerMatrix, IntersectionForm


def cofactor_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [
            [row[k] for k in range(n) if k != j]
            for row in rows[1:]
        ]
        sign = -1 if j % 2 else 1
        total += sign * head * cofactor_determinant(minor)
    return total


def rational_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by Gaussian elimination over Fraction, for matrices too large to expand."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for t in range(n):
        pick = next((i for i in range(t, n) if a[i][t]), None)
        if pick is None:
            return 0
        if pick != t:
            a[t], a[pick] = a[pick], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, n):
            f = a[i][t] / a[t][t]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return int(det)


def _rank(a: list[list], inverse, reduce) -> int:
    """Rank of the rows a over a field, by Gaussian elimination in place.

    inverse(x) is the field inverse of a nonzero entry x, and reduce(x)
    brings an entry back to the field's representatives.
    """
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pick = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pick is None:
            continue
        a[rank], a[pick] = a[pick], a[rank]
        scale = inverse(a[rank][c])
        for i in range(rank + 1, len(a)):
            f = reduce(a[i][c] * scale)
            if f:
                a[i] = [reduce(x - f * y) for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q, by Gaussian elimination over Fraction."""
    return _rank([[Fraction(x) for x in row] for row in rows], lambda x: 1 / x, lambda x: x)


def modular_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p) for a prime p, by Gaussian elimination on residues mod p."""
    return _rank(
        [[x % p for x in row] for row in rows], lambda x: pow(x, -1, p), lambda x: x % p
    )


def trial_division_factors(n: int) -> list[int]:
    """The prime factors of n >= 1 with multiplicity, ascending, by dividing by 2, 3, 4, ..."""
    primes = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            primes.append(d)
            n //= d
        d += 1
    return primes + ([n] if n > 1 else [])


def transpose(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def matmul(*factors: Sequence[Sequence[int]]) -> list[list[int]]:
    """The product of the factors, left to right, entry by entry."""
    out = [list(row) for row in factors[0]]
    for m in factors[1:]:
        cols = transpose(m)
        out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in out]
    return out


def determinantal_divisors(rows: Sequence[Sequence[int]]) -> list[int]:
    """d_1, ..., d_r for r = min(rows, cols): d_k is the gcd of all k x k minors.

    Minors come from cofactor_determinant.  The Smith diagonal is
    d_1, d_2 / d_1, d_3 / d_2, ..., with 0 from the first d_k = 0 on.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for picked_rows in itertools.combinations(range(m), k):
            for picked_cols in itertools.combinations(range(n), k):
                minor = [[rows[i][j] for j in picked_cols] for i in picked_rows]
                g = math.gcd(g, cofactor_determinant(minor))
        out.append(g)
    return out


def quadratic_value(rows: Sequence[Sequence[int]], h: Sequence[int]) -> int:
    """h Q h, summed entry by entry."""
    n = len(rows)
    return sum(rows[i][j] * h[i] * h[j] for i in range(n) for j in range(n))


def characteristic_polynomial(rows: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients c_0, ..., c_n of det(xI - A), by Faddeev-LeVerrier in integers.

    M_1 = I and M_k = A M_(k-1) + c_(n-k+1) I, with c_(n-k) = -tr(A M_k) / k;
    the division is exact for an integer matrix.
    """
    n = len(rows)
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [
            [sum(rows[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        trace = sum(rows[i][t] * m[t][i] for i in range(n) for t in range(n))
        coeffs[n - k], rest = divmod(-trace, k)
        assert rest == 0, "Faddeev-LeVerrier division must be exact"
    return coeffs


def _sign_changes(coeffs: Sequence[int]) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def descartes_signature(rows: Sequence[Sequence[int]]) -> int:
    """Positive minus negative eigenvalues of a symmetric integer matrix.

    A symmetric matrix has only real eigenvalues, so Descartes' rule of signs
    is exact for its characteristic polynomial p: the sign changes of p(x)
    count the positive roots and those of p(-x) the negative ones, with
    multiplicity.
    """
    p = characteristic_polynomial(rows)
    mirrored = [-c if i % 2 else c for i, c in enumerate(p)]
    return _sign_changes(p) - _sign_changes(mirrored)


# the E8 root lattice: Cartan matrix of the E8 Dynkin diagram, det 1
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))
E8_ROWS = [
    [2 if i == j else -((i, j) in _E8_EDGES or (j, i) in _E8_EDGES) for j in range(8)]
    for i in range(8)
]
H_ROWS = [[0, 1], [1, 0]]


def block_sum(*blocks: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows of the block sum of the blocks, in order."""
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[offset + i][offset : offset + len(b)] = row
        offset += len(b)
    return rows


def contiguous_blocks(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """(start, stop) of the finest split of a symmetric matrix into contiguous
    orthogonal blocks: a cut before index c when every entry with one index
    below c and the other at or above c is zero."""
    n = len(rows)
    cuts = [c for c in range(1, n) if not any(rows[i][j] for i in range(c) for j in range(c, n))]
    edges = [0] + cuts + [n] if n else []
    return list(zip(edges, edges[1:]))


# Summand vocabulary for assembled forms: "H" or ("diag", d).
H_SUMMAND = "H"


def summand_rank(summand) -> int:
    return 2 if summand == H_SUMMAND else 1


def assemble_form(summands) -> IntersectionForm:
    """The block sum of the summands, built entry by entry from plain lists."""
    size = sum(summand_rank(s) for s in summands)
    rows = [[0] * size for _ in range(size)]
    offset = 0
    for s in summands:
        if s == H_SUMMAND:
            rows[offset][offset + 1] = rows[offset + 1][offset] = 1
        else:
            rows[offset][offset] = s[1]
        offset += summand_rank(s)
    return IntersectionForm(IntegerMatrix(rows))


def summand_residues(summands) -> list[int]:
    """Characteristic residue of an assembled form, block by block.

    H contributes even coordinates; diag(d) with odd d contributes an odd
    coordinate (the defining congruence reads c*d = d mod 2 there).
    """
    out = []
    for s in summands:
        if s == H_SUMMAND:
            out.extend((0, 0))
        else:
            out.append(s[1] & 1)
    return out


def _allowed_values(residue: int, bound: int) -> list[int]:
    start = -bound if (-bound - residue) % 2 == 0 else -bound + 1
    return list(range(start, bound + 1, 2))


def _block_values(summand, residues, bound: int) -> set[int]:
    if summand == H_SUMMAND:
        a_vals = _allowed_values(residues[0], bound)
        b_vals = _allowed_values(residues[1], bound)
        return {2 * a * b for a in a_vals for b in b_vals}
    d = summand[1]
    return {d * a * a for a in _allowed_values(residues[0], bound)}


def achievable_squares_mask(summands, residues, bound: int) -> tuple[int, int]:
    """Exact set of attainable squares over the box, as (bitmask, offset).

    Works block by block: a direct sum evaluates as the sum of its block
    values, so the attainable set is the iterated sumset of per-block
    value sets, computed by shift-or convolution on a bitmask.  Bit
    (x + offset) is set iff x is attainable.  Equivalent to exhausting the
    whole box, without enumerating it.
    """
    spans = []
    index = 0
    for s in summands:
        width = summand_rank(s)
        spans.append((s, residues[index : index + width]))
        index += width
    offset = 0
    for s, res in spans:
        vals = _block_values(s, res, bound)
        offset += max(abs(v) for v in vals) if vals else 0
    mask = 1 << offset  # zero attainable by the empty prefix
    for s, res in spans:
        vals = sorted(_block_values(s, res, bound))
        if not vals:
            return 0, offset
        acc = 0
        for v in vals:
            acc |= mask << v if v >= 0 else mask >> -v
        mask = acc
    return mask, offset


def box_solvable(summands, bound: int, target: int, residues=None) -> bool:
    """True iff some vector in the box attains the target square."""
    if residues is None:
        residues = summand_residues(summands)
    mask, offset = achievable_squares_mask(summands, residues, bound)
    position = target + offset
    if position < 0:
        return False
    return bool((mask >> position) & 1)


def diagonal_solution_count(
    entries: Sequence[int], residues: Sequence[int], bound: int, target: int
) -> int:
    """How many h with h = residues (mod 2) and max|h_i| <= bound have
    sum d_i h_i^2 = target, for the diagonal form with entries d_i.

    Convolves the coordinates' value counts one at a time: after i
    coordinates, counts[s] is the number of heads of length i whose partial
    sum is s.
    """
    counts = Counter({0: 1})
    for d, r in zip(entries, residues):
        values = Counter(d * v * v for v in _allowed_values(r, bound))
        step: Counter = Counter()
        for s, n in counts.items():
            for v, m in values.items():
                step[s + v] += n * m
        counts = step
    return counts[target]


def numpy_box_exists(
    form: IntersectionForm, residues: Sequence[int], bound: int, target: int
) -> bool:
    """Raw chunked sweep of the whole box with numpy; small ranks only."""
    n = form.rank
    q = np.array(form.matrix.entries(), dtype=np.int64)
    axes = [np.array(_allowed_values(r, bound), dtype=np.int64) for r in residues]
    if any(len(a) == 0 for a in axes):
        return False
    if n <= 3:
        grids = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([g.ravel() for g in grids], axis=1)
        vals = np.einsum("ij,jk,ik->i", flat, q, flat)
        return bool(np.any(vals == target))
    # loop over the first coordinate; vectorize the second and the rest
    tail_axes = axes[2:]
    grids = np.meshgrid(*tail_axes, indexing="ij")
    tail = np.stack([g.ravel() for g in grids], axis=1)
    tail_sq = np.einsum("ij,jk,ik->i", tail, q[2:, 2:], tail)
    cross = 2 * (tail @ q[2:, :2])  # column c: twice the pairing with unit c
    b = axes[1]
    b_part = np.outer(b, cross[:, 1]) + tail_sq
    for a in axes[0]:
        head_sq = q[0, 0] * a * a + 2 * q[0, 1] * a * b + q[1, 1] * b * b
        if np.any(b_part + a * cross[:, 0] + head_sq[:, None] == target):
            return True
    return False


def box_solutions(
    rows: Sequence[Sequence[int]], residues: Sequence[int], bound: int, target: int
) -> list[tuple[int, ...]]:
    """Every h with h = residues (mod 2), max|h_i| <= bound and h Q h = target.

    Walks the whole box with itertools.product, so the list comes out in
    lexicographic order; small ranks and bounds only.
    """
    axes = [_allowed_values(r, bound) for r in residues]
    return [h for h in itertools.product(*axes) if quadratic_value(rows, h) == target]


def random_summands(rng: random.Random, max_rank: int = 6):
    """A random assembly of {H, diag(1), diag(-1)} summands, rank 1..max."""
    target_rank = rng.randint(1, max_rank)
    summands = []
    rank = 0
    while rank < target_rank:
        options = [H_SUMMAND, ("diag", 1), ("diag", -1)]
        if target_rank - rank < 2:
            options = options[1:]
        s = rng.choice(options)
        summands.append(s)
        rank += summand_rank(s)
    return summands



# The minimal-surface table as printed: each class with the constraint its
# minimal model's (b1, c1^2, c2) meets, written with & so that c1^2 and c2
# may be integer arrays.  Ruled surfaces are over Sigma_g with g = b1/2 >= 1;
# genus 0 is rational.
SURFACE_TABLE = (
    ("rational CP2 blow-ups", lambda b1, x, y: (b1 == 0) & (x == 9) & (y == 3)),
    ("rational S2 x S2", lambda b1, x, y: (b1 == 0) & (x == 8) & (y == 4)),
    ("class VII", lambda b1, x, y: (b1 == 1) & (x <= 0) & (y >= 0)),
    (
        "ruled",
        lambda b1, x, y: (b1 >= 2) & (b1 % 2 == 0)
        & (x == 8 * (1 - b1 // 2)) & (y == 4 * (1 - b1 // 2)),
    ),
    ("Enriques", lambda b1, x, y: (b1 == 0) & (x == 0) & (y == 12)),
    ("bi-elliptic", lambda b1, x, y: (b1 == 2) & (x == 0) & (y == 0)),
    ("Kodaira surface", lambda b1, x, y: (b1 in (1, 3)) & (x == 0) & (y == 0)),
    ("K3", lambda b1, x, y: (b1 == 0) & (x == 0) & (y == 24)),
    ("torus", lambda b1, x, y: (b1 == 4) & (x == 0) & (y == 0)),
    ("properly elliptic", lambda b1, x, y: (x == 0) & (y >= 0)),
    ("general type", lambda b1, x, y: (b1 % 2 == 0) & (x > 0) & (y > 0)),
)


def least_blowups(b1: int, c1sq: np.ndarray, c2: np.ndarray) -> dict[str, np.ndarray]:
    """For each class of SURFACE_TABLE, the least k >= 0 at which the minimal
    model (b1, c1sq + k, c2 - k) meets the class's constraint, entry by entry
    over the integer arrays c1sq and c2, and -1 where no k does.

    k blow-ups of a minimal model of (c1^2, c2) give (c1^2 - k, c2 + k).
    Each class tries k = 0, 1, ... on the whole grid at once.  Every class
    has c2 >= min(0, 4 - 2*b1), which ends the tries.  S2 x S2 tries k = 0
    only: its blow-ups are the CP2 row's.
    """
    last = int(c2.max()) - min(0, 4 - 2 * b1)
    least = {}
    for name, meets in SURFACE_TABLE:
        k_of = np.full(c2.shape, -1)
        for k in range(1 if name == "rational S2 x S2" else last + 1):
            k_of[(k_of < 0) & meets(b1, c1sq + k, c2 - k)] = k
        least[name] = k_of
    return least
