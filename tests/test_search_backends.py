"""Witness search: big-integer exactness, input checks and strategy correctness."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourfold import _pure
from fourfold.forms import IntegerMatrix, IntersectionForm, build_form
from fourfold.obstruction import VerdictStatus, decide_wu_existence
from fourfold.search import enumerate_witnesses, find_minimal_witness
from oracles import (
    E8_ROWS,
    H_ROWS,
    assemble_form,
    block_sum,
    box_solutions,
    box_solvable,
    quadratic_value,
    random_summands,
    summand_residues,
)


def _minimal(hits):
    """The lex-smallest of the hits of minimal max-norm, or None."""
    return min(hits, key=lambda w: (max(map(abs, w), default=0), w), default=None)


_E8_H = block_sum(E8_ROWS, H_ROWS)
_NEG_E8 = [[-x for x in row] for row in E8_ROWS]
# a definite chain block, diagonal 2, 2, 2, 4
_CHAIN_2224 = [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 4]]


def _counting_prefixes(monkeypatch) -> list[int]:
    """Count the prefixes _pure.prefixes yields from now on, in a one-item list."""
    walked = [0]
    prefixes = _pure.prefixes

    def counting(*args):
        for item in prefixes(*args):
            walked[0] += 1
            yield item

    monkeypatch.setattr(_pure, "prefixes", counting)
    return walked


class TestGuards:
    def test_huge_entries_still_exact(self):
        # q(h) over this box exceeds 64 bits; the sweep must stay exact
        big = 2**40 + 1
        q = IntersectionForm.diagonal([big])
        target = big * 4
        assert find_minimal_witness(q, (0,), 3000, target) == (-2,)
        assert enumerate_witnesses(q, (0,), 3000, target) == [(-2,), (2,)]

    def test_input_validation(self):
        q = build_form("H")
        with pytest.raises(ValueError):
            find_minimal_witness(q, (0,), 4, 0)
        with pytest.raises(ValueError):
            find_minimal_witness(q, (0, 2), 4, 0)
        with pytest.raises(ValueError):
            find_minimal_witness(q, (0, 0), -1, 0)


class TestSearchStrategy:
    def test_minimal_witness_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(120):
            rank = rng.randint(1, 3)
            rows = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                for j in range(i, rank):
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
            q = IntersectionForm(IntegerMatrix(rows))
            residues = [rng.randint(0, 1) for _ in range(rank)]
            bound = rng.randint(0, 5)
            target = rng.randint(-20, 20)
            hits = box_solutions(rows, residues, bound, target)
            assert find_minimal_witness(q, residues, bound, target) == _minimal(hits)

    def test_enumeration_order_and_parity(self):
        q = build_form("H")
        hits = enumerate_witnesses(q, (0, 0), 4, -8)
        assert hits == sorted(hits)
        assert hits == [(-2, 2), (2, -2)]
        assert find_minimal_witness(q, (0, 0), 4, -8) == (-2, 2)
        for h in hits:
            assert all(c % 2 == 0 for c in h)

    def test_negation_closure(self):
        q = build_form("2H")
        hits = set(enumerate_witnesses(q, (0, 0, 0, 0), 4, 8))
        assert hits
        assert {tuple(-c for c in h) for h in hits} == hits

    def test_odd_residues(self):
        q = IntersectionForm.diagonal([1, 1])
        assert find_minimal_witness(q, (1, 1), 5, 2) == (-1, -1)
        # odd coordinates cannot reach an odd target of wrong parity here
        assert find_minimal_witness(q, (1, 1), 5, 3) is None

    def test_bound_zero(self):
        q = build_form("H")
        assert find_minimal_witness(q, (0, 0), 0, 0) == (0, 0)
        assert find_minimal_witness(q, (0, 0), 0, 4) is None
        assert find_minimal_witness(q, (1, 1), 0, 0) is None

    def test_shells_are_settled_by_first_hit_boxes(self, monkeypatch):
        # diag(1), target 16: boxes 0, 1, 2 are empty and box 4 hits (-4,);
        # box 3 then settles shell 3.  A box that holds the same vectors as
        # one already decided is not walked again: box 1 holds box 0's even
        # points, and box 3 box 2's
        boxes = []
        prefixes = _pure.prefixes

        def recording(qflat, residues, rank, limit):
            boxes.append(limit)
            return prefixes(qflat, residues, rank, limit)

        monkeypatch.setattr(_pure, "prefixes", recording)
        q = IntersectionForm.diagonal([1])
        assert find_minimal_witness(q, (0,), 4, 16) == (-4,)
        assert boxes == [0, 2, 4]

    @pytest.mark.parametrize(
        "rows, residues, target, witness, most",
        [
            # one block sum whose whole-box sweep hits after 27 prefixes: the
            # sweep must settle it, not the E8 block's table
            (_E8_H, (0,) * 10, 48, (-2,) * 6 + (2, 2, -2, -2), 54),
            # boxes without a hit up to 32: a whole-box sweep walks 41,733
            ([[2 if i == j else 0 for j in range(4)] for i in range(4)], (0,) * 4, 20, None, 100),
            # CP2 # 7 CP2bar: a whole-box sweep walks 1,622
            (
                [[(1 if i == 0 else -1) if i == j else 0 for j in range(8)] for i in range(8)],
                (1,) * 8,
                2,
                (-3,) + (-1,) * 7,
                100,
            ),
            # every budgeted sweep exhausts its box, 68 prefixes in all, so
            # no block table is built
            ([[1, 0], [0, -1]], (0, 0), 1, None, 68),
            # one block: every box is one sweep that is never cut short, so no
            # table walks it again; diag(1) walks boxes 1, 4 and 8
            ([[1]], (1,), 25, (-5,), 3),
            (_CHAIN_2224, (1,) * 4, 40, (-1, -3, -1, -1), 26),
        ],
        ids=["E8+H", "diag(2,2,2,2)", "CP2#7CP2bar", "diag(1,-1)", "diag(1)", "chain-2,2,2,4"],
    )
    def test_prefixes_walked_on_block_sums(self, monkeypatch, rows, residues, target, witness, most):
        walked = _counting_prefixes(monkeypatch)
        q = IntersectionForm(IntegerMatrix(rows))
        assert find_minimal_witness(q, residues, 32, target) == witness
        assert 0 < walked[0] <= most

    def test_rank_zero_form(self):
        q = IntersectionForm(IntegerMatrix([]))
        assert find_minimal_witness(q, (), 5, 0) == ()
        assert find_minimal_witness(q, (), 5, 1) is None

    def test_agrees_with_sumset_oracle(self):
        rng = random.Random(2024)
        for _ in range(60):
            summands = random_summands(rng, max_rank=6)
            q = assemble_form(summands)
            residues = summand_residues(summands)
            bound = rng.randint(0, 4)
            target = rng.randint(-40, 40)
            witness = find_minimal_witness(q, residues, bound, target)
            expected = box_solvable(summands, bound, target)
            assert (witness is not None) == expected
            if witness is not None:
                assert q.evaluate(witness) == target
                assert max(abs(c) for c in witness) <= bound
                assert all(c % 2 == r for c, r in zip(witness, residues))


# entries: small, within 2 of +-2**63, and beyond 64 bits
_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.integers(-2, 2).map(lambda e: 2**63 + e),
    st.integers(-2, 2).map(lambda e: -(2**63) + e),
    st.integers(2**64, 2**70),
)


@st.composite
def _search_cases(draw):
    """(rows, residues, bound, target); half the targets are squares in the box."""
    rank = draw(st.integers(0, 4))
    rows = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            rows[i][j] = rows[j][i] = draw(_ENTRY)
    # the last coordinate's equation degenerates to linear (a == 0) or to a
    # constant (a == c == 0) on these shapes
    shape = draw(st.sampled_from(["generic", "zero last diagonal", "zero last row"]))
    if rank and shape != "generic":
        rows[-1][-1] = 0
        if shape == "zero last row":
            for i in range(rank):
                rows[i][-1] = rows[-1][i] = 0
    residues = draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank))
    bound = draw(st.integers(0, 5))
    if draw(st.booleans()):
        point = [
            draw(st.sampled_from([v for v in range(-bound, bound + 1) if (v - r) % 2 == 0] or [0]))
            for r in residues
        ]
        target = sum(rows[i][j] * point[i] * point[j] for i in range(rank) for j in range(rank))
    else:
        target = draw(st.integers(-20, 20))
    return rows, residues, bound, target


def _conjugate(rows, perm):
    return [[rows[i][j] for j in perm] for i in perm]


@st.composite
def _block_sum_cases(draw):
    """(rows, residues, bound, target) on a sum of H, <d> and random blocks.

    Half the sums keep their blocks contiguous; the other half are
    conjugated by a random permutation, so the blocks interleave and fewer
    cuts exist.  Half the targets are squares of points in the box.
    """
    rank = draw(st.integers(0, 5))
    blocks = []
    size = 0
    while size < rank:
        kind = draw(st.sampled_from(["H", "diag", "random"]))
        if kind == "H" and rank - size >= 2:
            block = [[0, 1], [1, 0]]
        elif kind == "diag":
            block = [[draw(st.integers(-3, 3))]]
        else:
            n = draw(st.integers(1, min(3, rank - size)))
            block = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    block[i][j] = block[j][i] = draw(st.integers(-3, 3))
        blocks.append(block)
        size += len(block)
    rows = block_sum(*blocks)
    if draw(st.booleans()):
        rows = _conjugate(rows, draw(st.permutations(range(rank))))
    residues = draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank))
    bound = draw(st.integers(0, 4))
    if draw(st.booleans()):
        point = [
            draw(st.sampled_from([v for v in range(-bound, bound + 1) if (v - r) % 2 == 0] or [0]))
            for r in residues
        ]
        target = quadratic_value(rows, point)
    else:
        target = draw(st.integers(-20, 20))
    return rows, residues, bound, target


class TestPrefixWalk:
    """_pure.prefixes against itertools.product over the head coordinates."""

    @given(_search_cases().filter(lambda case: case[0]))
    # rank 1: the head is empty, so the walk yields the empty prefix once
    @example(([[3]], [1], 2, 0))
    # limit 0 with residue 1: an empty head range gives no prefix, an empty
    # last range still gives the one prefix (0,)
    @example(([[1, 1], [1, 1]], [1, 0], 0, 0))
    @example(([[1, 1], [1, 1]], [0, 1], 0, 0))
    # entries above 64 bits in the prefix square and in the cross term
    @example(([[2**70, 2**65 + 1, 3], [2**65 + 1, -(2**66), 5], [3, 5, 2**64]], [1, 0, 1], 3, 0))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_prefixes_match_product(self, case):
        rows, residues, bound, _ = case
        rank = len(rows)
        flat = [x for row in rows for x in row]
        head = [[v for v in range(-bound, bound + 1) if (v - r) % 2 == 0] for r in residues[:-1]]
        walked = [
            (tuple(cur[:-1]), k, c) for cur, k, c in _pure.prefixes(flat, residues, rank, bound)
        ]
        assert [prefix for prefix, _, _ in walked] == list(itertools.product(*head))
        for prefix, k, c in walked:
            assert k == quadratic_value(rows, prefix + (0,))
            assert k + 2 * c + rows[-1][-1] == quadratic_value(rows, prefix + (1,))


class TestAgainstBruteForce:
    """The sweeps and the search strategy against an itertools.product walk."""

    @given(_search_cases())
    @example(([[1, 2], [2, 0]], [1, 0], 3, 1))
    @example(([[1, 0], [0, 0]], [1, 0], 3, 1))
    @example(([[0, 0], [0, 0]], [0, 1], 2, 0))
    @example(([[2**63 + 1, 1], [1, 0]], [1, 1], 5, 2**63 + 3))
    # box 4 is the first with a hit, (-4, 1), but (-2, 3) on shell 3 is minimal
    @example(([[0, 2], [2, 1]], [0, 1], 4, -15))
    # box 4's hit (-4,) is the answer: box 2 is empty and so is shell 3
    @example(([[1]], [0], 4, 16))
    # rank 0: the empty vector lies on shell 0 only, and solves target 0 only
    @example(([], [], 2, 0))
    @example(([], [], 2, 1))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_search_matches_box_solutions(self, case):
        rows, residues, bound, target = case
        rank = len(rows)
        hits = box_solutions(rows, residues, bound, target)
        q = IntersectionForm(IntegerMatrix(rows))
        assert enumerate_witnesses(q, residues, bound, target) == hits
        assert find_minimal_witness(q, residues, bound, target) == _minimal(hits)
        flat = [x for row in rows for x in row]
        assert _pure.first_hit(flat, residues, rank, bound, target) == (hits[0] if hits else None)
        for shell in range(bound + 1):
            on_shell = [h for h in hits if max(map(abs, h), default=0) == shell]
            got = _pure.first_hit_on_shell(flat, residues, rank, shell, target)
            assert got == (on_shell[0] if on_shell else None)


    @given(_block_sum_cases())
    # two rank-1 blocks: two even squares never sum to 3
    @example(([[1, 0], [0, 1]], [0, 0], 4, 3))
    # three blocks, so the blocks after the first reach a sumset
    @example(([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], [0, 0, 1, 1], 3, 4))
    # a zero block <0> takes every value of its axis
    @example(([[0, 0], [0, 1]], [1, 1], 3, 1))
    @example(([], [], 2, 0))
    @example(([], [], 2, 1))
    # 2H: each H block takes many values, of which several complete the target
    @example(
        ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], [0, 0, 0, 0], 8, 8)
    )
    # an indecomposable rank-3 block, listed through its keep-set first and last
    @example(([[1, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 0], [0, 0, 0, -1]], [1, 0, 1, 1], 3, 2))
    @example(([[-1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]], [1, 1, 0, 1], 3, 2))
    # diag(1,-1,-1,-1): the middle blocks see several live residuals
    @example(
        ([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], [1, 1, 1, 1], 5, 6)
    )
    # box 4 hits first, then shell 3 holds the minimal witness (0, 0, -3)
    @example(([[2, 0, 0], [0, 1, 0], [0, 0, 2]], [0, 0, 1], 8, 18))
    # E8 + H: the whole-box sweep hits early, so it settles the box
    @example((_E8_H, [0] * 10, 2, 8))
    @example((_E8_H, [0] * 10, 2, 48))
    # diag(2,2,2,2): no box holds a solution, so the tables decide each one
    @example(([[2 if i == j else 0 for j in range(4)] for i in range(4)], [0] * 4, 8, 20))
    @settings(max_examples=500, derandomize=True, deadline=None)
    def test_enumerate_on_block_sums(self, case):
        # the listing and the minimal witness, both against the brute force
        rows, residues, bound, target = case
        q = IntersectionForm(IntegerMatrix(rows))
        hits = box_solutions(rows, residues, bound, target)
        assert enumerate_witnesses(q, residues, bound, target) == hits
        assert find_minimal_witness(q, residues, bound, target) == _minimal(hits)


class TestWorstCase:
    """Block sums at the default bound, which a whole-box sweep takes minutes on."""

    def test_cp2_7cp2bar(self):
        q = IntersectionForm.diagonal([1] + [-1] * 7)
        assert find_minimal_witness(q, (1,) * 8, 32, 2) == (-3,) + (-1,) * 7

    def test_decide_cp2_8cp2bar(self):
        q = IntersectionForm.diagonal([1] + [-1] * 8)
        verdict = decide_wu_existence(q, (1,) * 9, 1, bound=32)
        assert verdict.status is VerdictStatus.EXISTS
        assert verdict.witness.coefficients == (-3,) + (-1,) * 8

    def test_cp2_19cp2bar(self):
        q = IntersectionForm.diagonal([1] + [-1] * 19)
        assert find_minimal_witness(q, (1,) * 20, 32, -10) == (-3,) + (-1,) * 19

    def test_diag_2x5_has_no_witness(self):
        q = IntersectionForm.diagonal([2] * 5)
        assert find_minimal_witness(q, (0,) * 5, 32, 14) is None

    def test_k3_form(self):
        # 2(-E8) + 3H, the intersection form of K3
        q = IntersectionForm(IntegerMatrix(block_sum(_NEG_E8, _NEG_E8, H_ROWS, H_ROWS, H_ROWS)))
        assert find_minimal_witness(q, (0,) * 22, 32, 16) == (-2,) * 8 + (0,) * 8 + (-2,) * 6
