"""Witness search: big-integer exactness, input checks and strategy correctness."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourfold import _pure
from fourfold.cli import _TEXT_LAYOUT, _json_layout
from fourfold.forms import IntegerMatrix, IntersectionForm, build_form
from fourfold.obstruction import VerdictStatus, decide_wu_existence
from fourfold.search import Layout, enumerate_witnesses, find_minimal_witness
from oracles import (
    E8_ROWS,
    H_ROWS,
    assemble_form,
    block_sum,
    box_solutions,
    box_solvable,
    diagonal_solution_count,
    matmul,
    quadratic_value,
    random_summands,
    summand_residues,
    transpose,
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
        # residues are the obstruction layer's to check; a negative bound
        # would never end the deepening loop
        q = build_form("H")
        with pytest.raises(ValueError):
            find_minimal_witness(q, (0, 0), -1, 0)
        with pytest.raises(ValueError):
            enumerate_witnesses(q, (0, 0), -1, 0)


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
            # a sum walks its first block against the others' tables: box 0
            # walks one prefix of each block, box 1 holds box 0's points, and
            # box 2 walks H's table, 3 prefixes, and 3 of E8's before its first
            # vector whose residual H reaches
            (_E8_H, (0,) * 10, 48, (-2,) * 6 + (2, 2, -2, -2), 8),
            # target 8200 lies in the coset, 8 * 1025, but sum u_i^2 = 1025
            # exceeds 4 * 16^2 = 1024, so no box up to 32 holds a hit; each of
            # the boxes 0, 2, 4, 8, 16 and 32 walks block 0 and the one table
            # its three equal later blocks share, where a whole-box sweep walks
            # 41,733
            ([[2 if i == j else 0 for j in range(4)] for i in range(4)], (0,) * 4, 8200, None, 12),
            # CP2 # 7 CP2bar: boxes 1 and 4 each walk <1> and the one table of
            # the seven <-1> blocks, where a whole-box sweep walks 1,622
            (
                [[(1 if i == 0 else -1) if i == j else 0 for j in range(8)] for i in range(8)],
                (1,) * 8,
                2,
                (-3,) + (-1,) * 7,
                4,
            ),
            # target 8 lies in the coset, but a^2 - b^2 = 2 has no solution:
            # each of six boxes walks <1> and the table of <-1>
            ([[1, 0], [0, -1]], (0, 0), 8, None, 12),
            # one block: every box is one whole-box sweep and no table walks
            # it again; diag(1) walks boxes 1, 4 and 8
            ([[1]], (1,), 25, (-5,), 3),
            (_CHAIN_2224, (1,) * 4, 40, (-1, -3, -1, -1), 26),
            # E8 + chain(2,2,2,4) + H with no residue: E8's walk stops at its
            # first vector whose residual the later blocks reach, 81,575
            # prefixes with their tables, where a whole-box sweep walks
            # 2,175,900
            (
                block_sum(E8_ROWS, _CHAIN_2224, H_ROWS),
                (0,) * 14,
                -40,
                (-6,) * 5 + (-4, -2, -4) + (0,) * 4 + (-6, 6),
                82_000,
            ),
            # the cost of that walk: H + E8 builds E8's table, 2,190 prefixes,
            # though a whole-box sweep hits after 4
            (block_sum(H_ROWS, E8_ROWS), (0,) * 10, 48, (-2,) * 8 + (2, 2), 2_190),
        ],
        ids=[
            "E8+H", "diag(2,2,2,2)", "CP2#7CP2bar", "diag(1,-1)", "diag(1)", "chain-2,2,2,4",
            "E8+chain-2,2,2,4+H", "H+E8",
        ],
    )
    def test_prefixes_walked_on_block_sums(self, monkeypatch, rows, residues, target, witness, most):
        walked = _counting_prefixes(monkeypatch)
        q = IntersectionForm(IntegerMatrix(rows))
        assert find_minimal_witness(q, residues, 32, target) == witness
        assert 0 < walked[0] <= most

    @pytest.mark.parametrize(
        "rows, residues, target",
        [
            # even squares 8 * sum u_i^2: 20 is 4 mod 8
            ([[2 if i == j else 0 for j in range(4)] for i in range(4)], (0,) * 4, 20),
            # even a, b: a^2 - b^2 is 0 mod 4, and 1 is not
            ([[1, 0], [0, -1]], (0, 0), 1),
        ],
        ids=["diag(2,2,2,2)", "diag(1,-1)"],
    )
    def test_targets_outside_the_coset_walk_no_prefix(self, monkeypatch, rows, residues, target):
        walked = _counting_prefixes(monkeypatch)
        q = IntersectionForm(IntegerMatrix(rows))
        assert find_minimal_witness(q, residues, 32, target) is None
        assert enumerate_witnesses(q, residues, 32, target) == []
        assert walked[0] == 0

    def test_rank_zero_form(self, monkeypatch):
        q = IntersectionForm(IntegerMatrix([]))
        assert find_minimal_witness(q, (), 5, 0) == ()
        assert find_minimal_witness(q, (), 5, 1) is None
        # the form takes only 0, so the sign rule settles every target
        # without a walk
        monkeypatch.setattr(_pure, "prefixes", None)
        monkeypatch.setattr(_pure, "all_hits", None)
        layout = Layout("[", ", ", "]")
        for target, listed in ((-1, []), (0, [()]), (1, [])):
            assert enumerate_witnesses(q, (), 5, target) == listed
            assert enumerate_witnesses(q, (), 5, target, layout) == ["[]"] * len(listed)
            assert find_minimal_witness(q, (), 5, target) == (listed[0] if listed else None)

    @pytest.mark.parametrize(
        "form, rows, residues, bound, target",
        [
            (IntersectionForm.hyperbolic(1), H_ROWS, (0, 0), 4, 8),
            (IntersectionForm.hyperbolic(1), H_ROWS, (1, 1), 3, 2),
            (IntersectionForm.diagonal([3]), [[3]], (1,), 3, 27),
        ],
        ids=["H-even", "H-odd", "diag(3)"],
    )
    def test_one_block_listing_reads_no_dense_matrix(
        self, monkeypatch, form, rows, residues, bound, target
    ):
        # the one-block listing sweeps block_rows[0], so form.matrix is never built
        def dense(_):
            raise AssertionError("the listing read form.matrix")

        monkeypatch.setattr(IntersectionForm, "matrix", property(dense))
        hits = box_solutions(rows, residues, bound, target)
        assert hits
        assert enumerate_witnesses(form, residues, bound, target) == hits
        layout = Layout("[", ", ", "]")
        assert enumerate_witnesses(form, residues, bound, target, layout) == [
            layout.item(h) for h in hits
        ]

    @pytest.mark.parametrize(
        "rows, residues, target, witness",
        [
            (_E8_H, (0,) * 10, 48, (-2,) * 6 + (2, 2, -2, -2)),
            (
                block_sum(_NEG_E8, _NEG_E8, H_ROWS, H_ROWS, H_ROWS),
                (0,) * 22,
                16,
                (-2,) * 8 + (0,) * 8 + (-2,) * 6,
            ),
            ([[(1 if i == 0 else -1) if i == j else 0 for j in range(8)] for i in range(8)],
             (1,) * 8, 2, (-3,) + (-1,) * 7),
            ([[2 if i == j else 0 for j in range(4)] for i in range(4)], (0,) * 4, 8200, None),
            (_CHAIN_2224, (1,) * 4, 40, (-1, -3, -1, -1)),
        ],
        ids=["E8+H", "K3", "CP2#7CP2bar", "diag(2,2,2,2)", "chain-2,2,2,4"],
    )
    def test_search_reads_no_dense_matrix(self, monkeypatch, rows, residues, target, witness):
        # the search reads block_rows only, so the dense view, patched away
        # here, is never built
        q = IntersectionForm(IntegerMatrix(rows))

        def dense(_):
            raise AssertionError("the search read form.matrix")

        monkeypatch.setattr(IntersectionForm, "matrix", property(dense))
        assert find_minimal_witness(q, residues, 32, target) == witness

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
    # E8 + H: E8's walk meets a vector whose residual H's table holds early
    @example((_E8_H, [0] * 10, 2, 8))
    @example((_E8_H, [0] * 10, 2, 48))
    # H + E8: H's walk runs against E8's table, built over E8's whole box
    @example((block_sum(H_ROWS, E8_ROWS), [0] * 10, 2, 8))
    @example((block_sum(H_ROWS, E8_ROWS), [0] * 10, 2, 48))
    # diag(2,2,2,2): target 20 lies outside the coset, so no box is walked;
    # target 520 = 8 * 65 lies in it, no box holds a solution (65 > 4 * 4^2),
    # and every box's walk of block 0 finds no residual the others reach
    @example(([[2 if i == j else 0 for j in range(4)] for i in range(4)], [0] * 4, 8, 20))
    @example(([[2 if i == j else 0 for j in range(4)] for i in range(4)], [0] * 4, 8, 520))
    # <1> + <-1> + <1>: the equal first and last blocks see different live
    # residuals but keep the same values, so one listing walk serves both
    @example(([[1, 0, 0], [0, -1, 0], [0, 0, 1]], [1, 1, 1], 5, 1))
    # equal blocks that are not adjacent: H + <-1> + H
    @example((block_sum(H_ROWS, [[-1]], H_ROWS), [0, 0, 1, 0, 0], 4, 7))
    # H + <2> + <1>, target 5: residual 1 is live at block 1, but less the
    # value 8 that block 1 keeps for residual 9 it leaves -7, dead at block 2
    @example(([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]], [0, 1, 0, 1], 2, 5))
    @settings(max_examples=500, derandomize=True, deadline=None)
    def test_enumerate_on_block_sums(self, case):
        # the listing and the minimal witness, both against the brute force
        rows, residues, bound, target = case
        q = IntersectionForm(IntegerMatrix(rows))
        hits = box_solutions(rows, residues, bound, target)
        assert enumerate_witnesses(q, residues, bound, target) == hits
        assert find_minimal_witness(q, residues, bound, target) == _minimal(hits)


    def test_listing_walks_each_distinct_block_twice(self, monkeypatch):
        # H + <-1> + H: the two H blocks share one table walk and one listing walk
        walks = []
        prefixes = _pure.prefixes

        def recording(qflat, residues, rank, limit):
            walks.append(rank)
            return prefixes(qflat, residues, rank, limit)

        monkeypatch.setattr(_pure, "prefixes", recording)
        rows = block_sum(H_ROWS, [[-1]], H_ROWS)
        residues = (0, 0, 1, 0, 0)
        q = IntersectionForm(IntegerMatrix(rows))
        assert enumerate_witnesses(q, residues, 4, 7) == box_solutions(rows, residues, 4, 7)
        assert sorted(walks) == [1, 1, 2, 2]

    def test_rendered_listing_walks_each_distinct_block_twice(self, monkeypatch):
        # the same listing with a layout: the listing walk renders the texts,
        # so rendering adds no third walk
        rows = block_sum(H_ROWS, [[-1]], H_ROWS)
        residues = (0, 0, 1, 0, 0)
        q = IntersectionForm(IntegerMatrix(rows))
        tuples = enumerate_witnesses(q, residues, 4, 7)
        walks = []
        prefixes = _pure.prefixes

        def recording(qflat, residues, rank, limit):
            walks.append(rank)
            return prefixes(qflat, residues, rank, limit)

        monkeypatch.setattr(_pure, "prefixes", recording)
        layout = Layout("[", ", ", "]")
        assert enumerate_witnesses(q, residues, 4, 7, layout) == list(map(layout.item, tuples))
        assert sorted(walks) == [1, 1, 2, 2]


_A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
_NEG_A3 = [[-x for x in row] for row in _A3]
# blocks of rank 3 and 4, so that a walked prefix holds two or more coordinates
_LISTING_BLOCKS = [_A3, _NEG_A3, _CHAIN_2224, H_ROWS, [[1]], [[-1]], [[2]]]
# one distinct block first, in the middle and last
_PLACED_SUMS = [
    [_A3, [[-1]], _A3],
    [H_ROWS, _A3, H_ROWS],
    [_CHAIN_2224, [[1]], [[1]]],
    [[[2]], _NEG_A3, [[2]]],
    [H_ROWS, H_ROWS, _CHAIN_2224],
    [[[-1]], [[-1]], _A3],
]


class TestRenderedListing:
    """A listing given a layout: its texts against layout.item and the brute force."""

    @staticmethod
    def _check(blocks, residues, bound, target):
        rows = block_sum(*blocks)
        q = IntersectionForm(IntegerMatrix(rows))
        tuples = enumerate_witnesses(q, residues, bound, target)
        assert tuples == box_solutions(rows, residues, bound, target)
        for layout in (_TEXT_LAYOUT, _json_layout(len(rows), target)):
            rendered = enumerate_witnesses(q, residues, bound, target, layout)
            assert rendered == list(map(layout.item, tuples))
        return len(tuples)

    @staticmethod
    def _targets(rng, rows, residues, bound):
        """The value at two random box points, and one random target."""
        axes = [[v for v in range(-bound, bound + 1) if (v - r) % 2 == 0] for r in residues]
        points = [[rng.choice(axis) for axis in axes] for _ in range(2)]
        return [quadratic_value(rows, h) for h in points] + [rng.randint(-20, 20)]

    def test_placed_blocks(self):
        rng = random.Random(28)
        listed = 0
        for blocks in _PLACED_SUMS:
            rows = block_sum(*blocks)
            rank = len(rows)
            mixed = tuple(rng.randint(0, 1) for _ in range(rank))
            for residues in ((0,) * rank, (1,) * rank, mixed):
                for bound in range(5 if rank < 7 else 3):
                    if 1 in residues and bound == 0:
                        continue  # box 0 holds no odd coordinate
                    for target in self._targets(rng, rows, residues, bound):
                        listed += self._check(blocks, residues, bound, target)
        assert listed > 1000

    def test_random_block_sums(self):
        rng = random.Random(128)
        listed = 0
        for _ in range(150):
            blocks = [rng.choice(_LISTING_BLOCKS[:3])]
            blocks += rng.choices(_LISTING_BLOCKS, k=rng.randint(1, 2))
            rng.shuffle(blocks)
            rows = block_sum(*blocks)
            rank = len(rows)
            residues = tuple(rng.randint(0, 1) for _ in range(rank))
            bound = rng.randint(1 if 1 in residues else 0, 4 if rank < 6 else 2)
            while bound > 1 and (bound + 1) ** rank > 4000:  # keep the brute force small
                bound -= 1
            for target in self._targets(rng, rows, residues, bound):
                listed += self._check(blocks, residues, bound, target)
        assert listed > 1000


@st.composite
def _definite_cases(draw):
    """(rows, residues, bound, target): the definite form L L^T or -L L^T of
    rank 1 to 4, for L lower triangular and invertible over Q, with a
    target of the wrong sign or 0."""
    rank = draw(st.integers(1, 4))
    low = [
        [draw(st.integers(-2, 2)) if j < i else 0 for j in range(rank)] for i in range(rank)
    ]
    for i in range(rank):
        low[i][i] = draw(st.sampled_from([-2, -1, 1, 2]))
    sign = draw(st.sampled_from([1, -1]))
    rows = [[sign * x for x in row] for row in matmul(low, transpose(low))]
    residues = draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank))
    bound = draw(st.integers(0, 3))
    target = -sign * draw(st.integers(0, 30))
    return rows, residues, bound, target


class TestSignRule:
    """A definite form takes no value of the wrong sign, and 0 only at h = 0."""

    @given(_definite_cases())
    # positive definite E8: target -8 has no solution, target 0 only h = 0
    @example((E8_ROWS, [0] * 8, 1, -8))
    @example((E8_ROWS, [0] * 8, 1, 0))
    @example((_NEG_E8, [1] + [0] * 7, 1, 0))
    # semidefinite forms take 0 off h = 0, so the search decides them
    @example(([[1, 1], [1, 1]], [1, 1], 1, 0))
    @example(([[1, 0], [0, 0]], [0, 1], 1, 0))
    @example(([[-1, 0], [0, 0]], [0, 1], 1, 0))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_wrong_sign_and_zero_targets(self, case):
        rows, residues, bound, target = case
        hits = box_solutions(rows, residues, bound, target)
        q = IntersectionForm(IntegerMatrix(rows))
        assert enumerate_witnesses(q, residues, bound, target) == hits
        assert find_minimal_witness(q, residues, bound, target) == _minimal(hits)


class TestSettledTargets:
    """A target answered with no walk has no solution in the box, or only h = 0."""

    def test_random_forms_against_box_solutions(self, monkeypatch):
        # symmetric forms of rank 1 to 4 with entries in [-3, 3]: degenerate,
        # indefinite and definite ones, with random residues and targets
        walked = _counting_prefixes(monkeypatch)
        rng = random.Random(27)
        settled = 0
        for _ in range(1500):
            rank = rng.randint(1, 4)
            rows = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                for j in range(i, rank):
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
            residues = tuple(rng.randint(0, 1) for _ in range(rank))
            bound, target = rng.randint(0, 3), rng.randint(-30, 30)
            hits = box_solutions(rows, residues, bound, target)
            q = IntersectionForm(IntegerMatrix(rows))
            before = walked[0]
            assert find_minimal_witness(q, residues, bound, target) == _minimal(hits)
            assert enumerate_witnesses(q, residues, bound, target) == hits
            if walked[0] == before:
                settled += 1
                assert hits in ([], [(0,) * rank])
        # most draws are answered with no walk, nearly all by the coset rule
        assert settled > 1000


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

    def test_listing_cp2_7cp2bar(self):
        entries, residues = [1] + [-1] * 7, (1,) * 8
        q = IntersectionForm.diagonal(entries)
        hits = enumerate_witnesses(q, residues, 8, 2)
        assert len(hits) == diagonal_solution_count(entries, residues, 8, 2) == 37_888
        assert hits[0] == (-7, -5, -3, -3, -1, -1, -1, -1)
        assert hits[-1] == (7, 5, 3, 3, 1, 1, 1, 1)
        assert hits == sorted(set(hits))
        assert {tuple(-c for c in h) for h in hits} == set(hits)
        assert all(q.evaluate(h) == 2 for h in hits)

    def test_definite_e8_at_the_default_bound(self, time_limit):
        # the whole box of E8 at bound 32 holds 33**8 points; the sign answers
        time_limit(10)
        q = IntersectionForm(IntegerMatrix(E8_ROWS))
        assert find_minimal_witness(q, (0,) * 8, 32, -8) is None
        assert enumerate_witnesses(q, (0,) * 8, 32, -8) == []
        assert enumerate_witnesses(q, (0,) * 8, 32, 0) == [(0,) * 8]
        q = IntersectionForm(IntegerMatrix(_NEG_E8))
        assert find_minimal_witness(q, (1,) + (0,) * 7, 32, 0) is None
        assert enumerate_witnesses(q, (0,) * 8, 32, 16) == []
