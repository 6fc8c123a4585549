"""Witness search: big-integer exactness, input checks and strategy correctness."""

import random

import pytest

from fourfold.forms import IntersectionForm, build_form
from fourfold.search import enumerate_witnesses, find_minimal_witness
from oracles import assemble_form, box_solvable, random_summands, summand_residues


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
            from fourfold.forms import IntegerMatrix

            q = IntersectionForm(IntegerMatrix(rows))
            residues = [rng.randint(0, 1) for _ in range(rank)]
            bound = rng.randint(0, 5)
            target = rng.randint(-20, 20)
            hits = enumerate_witnesses(q, residues, bound, target)
            got = find_minimal_witness(q, residues, bound, target)
            if not hits:
                assert got is None
            else:
                expected = min(hits, key=lambda w: (max(abs(c) for c in w), w))
                assert got == expected

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

    def test_rank_zero_form(self):
        from fourfold.forms import IntegerMatrix

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
