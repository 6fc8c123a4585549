"""Wu criterion machinery: targets, spin, residues, decisions, validation."""

import dataclasses
import random

import pytest

from fourfold import cli, search
from fourfold.abelian import AbelianGroup, Presentation
from fourfold.forms import FormError, IntegerMatrix, IntersectionForm, build_form
from fourfold.obstruction import (
    ChernWitness,
    InvariantError,
    ManifoldInvariants,
    SpinStatus,
    StructureVerdict,
    VerdictStatus,
    characteristic_residue,
    decide_almost_complex,
    decide_wu_existence,
    enumerate_chern_classes,
    is_spin,
    mod8_filter,
    resolve_w2,
    validate_invariants,
    wu_target,
)
from fourfold.obstruction import _hyperbolic_pair_witnesses
from oracles import E8_ROWS, H_ROWS, block_sum, box_solutions, box_solvable, quadratic_value


def _record(name="X", chi=4, tau=0, form="H", b1=0, h1=None, **kw):
    q = build_form(form) if isinstance(form, str) else form
    return ManifoldInvariants(
        name=name,
        chi=chi,
        tau=tau,
        form=q,
        b1=b1,
        h1=AbelianGroup(b1) if h1 is None else h1,
        **kw,
    )


class TestWuTarget:
    def test_values(self):
        assert wu_target(4, 0) == 8
        assert wu_target(3, 1) == 9
        assert wu_target(-4, 0) == -8
        assert wu_target(-6, 0) == -12
        assert wu_target(0, 0) == 0


class TestSpin:
    def test_even_form_torsion_free(self):
        assert is_spin(build_form("H"), AbelianGroup(2)) is SpinStatus.SPIN

    def test_odd_form(self):
        assert is_spin(build_form("diag(1)"), AbelianGroup(0)) is SpinStatus.NOT_SPIN

    def test_two_torsion_blocks_the_call(self):
        got = is_spin(build_form("H"), AbelianGroup(0, (2,)))
        assert got is SpinStatus.INDETERMINATE
        # odd torsion does not interfere
        assert is_spin(build_form("2H"), AbelianGroup(1, (3,))) is SpinStatus.SPIN


class TestCharacteristicResidue:
    def test_even_forms_give_zero(self):
        assert characteristic_residue(build_form("H")) == (0, 0)
        assert characteristic_residue(build_form("3H")) == (0,) * 6

    def test_odd_diagonal(self):
        assert characteristic_residue(build_form("diag(1)")) == (1,)
        assert characteristic_residue(build_form("diag(1,-1,-1)")) == (1, 1, 1)

    def test_non_unimodular_rejected(self):
        with pytest.raises(FormError):
            characteristic_residue(build_form("diag(2)"))

    def test_defining_congruence(self):
        # pairing(c, x) = q(x) mod 2 for every x
        rng = random.Random(5)
        neg_e8 = [[-x for x in row] for row in E8_ROWS]
        block_sums = [
            block_sum(E8_ROWS, H_ROWS),
            block_sum(neg_e8, neg_e8, H_ROWS, H_ROWS, H_ROWS),
            block_sum([[1]], [[-1]], H_ROWS),
            [[1, 0, 1], [0, 1, 0], [1, 0, 2]],  # components {0, 2}, {1}: one block
        ]
        specs = ["H", "2H", "diag(1)", "diag(1,-1)", "matrix [[1,1],[1,0]]", "40H"]
        forms = [build_form(spec) for spec in specs]
        for q in forms + [IntersectionForm(IntegerMatrix(rows)) for rows in block_sums]:
            c = characteristic_residue(q)
            for _ in range(40):
                x = [rng.randint(-6, 6) for _ in range(q.rank)]
                assert q.pair(c, x) % 2 == q.evaluate(x) % 2


class TestMod8Filter:
    def test_hyperbolic(self):
        h = build_form("H")
        assert mod8_filter(h, -8, (0, 0))
        assert mod8_filter(h, 0, (0, 0))
        assert not mod8_filter(h, -4, (0, 0))

    def test_three_hyperbolic(self):
        q = build_form("3H")
        assert not mod8_filter(q, -12, (0,) * 6)
        assert mod8_filter(q, -16, (0,) * 6)

    def test_odd_form_uses_signature(self):
        q = build_form("diag(1)")
        assert mod8_filter(q, 9, (1,))
        assert not mod8_filter(q, 3, (1,))

    def test_rejects_wrong_inputs(self):
        with pytest.raises(FormError):
            mod8_filter(build_form("diag(2)"), 0, (0,))
        with pytest.raises(FormError):
            mod8_filter(build_form("H"), 0, (1, 1))


class TestResolveW2:
    def test_explicit_wins(self):
        m = _record(w2=(0, 0))
        assert resolve_w2(m) == (0, 0)

    def test_unimodular_derives_characteristic(self):
        m = _record(chi=4, tau=2, form="diag(1,1)", b1=1)
        assert resolve_w2(m) == (1, 1)

    def test_even_non_unimodular_derives_zero(self):
        m = _record(form="diag(2,-2)", chi=4, tau=0, b1=0)
        assert resolve_w2(m) == (0, 0)

    def test_odd_non_unimodular_needs_explicit(self):
        m = _record(form="diag(3)", chi=3, tau=1, b1=0)
        with pytest.raises(InvariantError):
            resolve_w2(m)


class TestDecideWuExistence:
    def test_mod8_short_circuit(self):
        v = decide_wu_existence(build_form("H"), (0, 0), -4)
        assert v.status is VerdictStatus.NOT_EXISTS
        assert any("mod-8" in r for r in v.reasons)

    def test_mod8_short_circuit_multiple_summands(self):
        v = decide_wu_existence(build_form("3H"), (0,) * 6, -12)
        assert v.status is VerdictStatus.NOT_EXISTS
        assert any("mod-8" in r for r in v.reasons)

    def test_hyperbolic_closed_form_witness(self):
        v = decide_wu_existence(build_form("H"), (0, 0), -8)
        assert v.status is VerdictStatus.EXISTS
        assert v.witness.coefficients == (-2, 2)
        assert v.witness.square == -8

    def test_hyperbolic_closed_form_scales(self):
        v = decide_wu_existence(build_form("2H"), (0,) * 4, 16)
        assert v.status is VerdictStatus.EXISTS
        assert v.witness.coefficients == (4, 2, 0, 0)
        assert v.witness.square == 16

    def test_box_search_finds_odd_witness(self):
        v = decide_wu_existence(build_form("diag(1)"), (1,), 9)
        assert v.status is VerdictStatus.EXISTS
        assert v.witness.coefficients == (-3,)

    def test_box_search_minimality(self):
        # among the max-norm-1 solutions of a^2 - b^2 = 0, lex-least wins
        v = decide_wu_existence(build_form("diag(1,-1)"), (1, 1), 0)
        assert v.status is VerdictStatus.EXISTS
        assert v.witness.coefficients == (-1, -1)

    def test_honest_unknown(self):
        # 42 passes the mod-8 filter (42 = 2 mod 8 = signature) but is not a
        # sum of two squares, so the sweep must come back empty
        v = decide_wu_existence(build_form("diag(1,1)"), (1, 1), 42, bound=16)
        assert v.status is VerdictStatus.UNKNOWN
        assert v.search_bound == 16
        assert any("max-norm 16" in r for r in v.reasons)
        assert not box_solvable([("diag", 1), ("diag", 1)], 16, 42)

    def test_wrong_residue_rejected(self):
        with pytest.raises(InvariantError):
            decide_wu_existence(build_form("H"), (1, 1), -8)
        with pytest.raises(InvariantError):
            decide_wu_existence(build_form("H"), (0,), -8)

    def test_non_unimodular_goes_straight_to_search(self):
        v = decide_wu_existence(build_form("diag(2)"), (0,), 8)
        assert v.status is VerdictStatus.EXISTS
        assert v.witness.coefficients == (-2,)


class TestDecideAlmostComplex:
    def test_product_of_spheres(self):
        v = decide_almost_complex(_record(name="S2xS2"))
        assert v.status is VerdictStatus.EXISTS
        assert v.witness.coefficients == (2, 2)
        assert v.witness.square == 8

    def test_projective_plane(self):
        m = _record(name="CP2", chi=3, tau=1, form="diag(1)")
        v = decide_almost_complex(m)
        assert v.status is VerdictStatus.EXISTS
        assert abs(v.witness.coefficients[0]) == 3
        assert v.witness.square == 9

    def test_invalid_record_raises(self):
        m = _record(chi=5)
        with pytest.raises(InvariantError) as exc:
            decide_almost_complex(m)
        assert any("Euler characteristic" in v for v in exc.value.violations)

    def test_validation_does_not_carry_over_to_a_changed_record(self):
        m = _record(name="S2xS2")
        decide_almost_complex(m)
        with pytest.raises(InvariantError) as exc:
            decide_almost_complex(dataclasses.replace(m, chi=5))
        assert any("Euler characteristic" in v for v in exc.value.violations)


class TestEnumeration:
    def test_rank_two_hyperbolic_is_complete(self):
        enum = enumerate_chern_classes(_record(name="S2xS2"))
        assert enum.complete
        assert enum.bound is None
        assert [w.coefficients for w in enum.witnesses] == [(-2, -2), (2, 2)]
        assert all(w.square == 8 for w in enum.witnesses)

    def test_zero_target_falls_back_to_bounded(self):
        m = _record(chi=0, tau=0, form="H", b1=2, h1=AbelianGroup(2))
        enum = enumerate_chern_classes(m, bound=3)
        assert not enum.complete
        assert enum.bound == 3
        coeffs = [w.coefficients for w in enum.witnesses]
        assert (0, 0) in coeffs
        assert coeffs == sorted(set(coeffs))

    def test_bounded_route_for_odd_forms(self):
        m = _record(name="CP2", chi=3, tau=1, form="diag(1)")
        enum = enumerate_chern_classes(m, bound=10)
        assert not enum.complete
        assert [w.coefficients for w in enum.witnesses] == [(-3,), (3,)]

    def test_divisor_route_matches_sweep(self):
        # tier-2 divisor enumeration against the raw box sweep
        h = build_form("H")
        for target in (8, 16, 24, -8, -48, 72):
            pairs = _hyperbolic_pair_witnesses(target)
            cap = max(abs(c) for p in pairs for c in p)
            swept = search.enumerate_witnesses(h, (0, 0), cap, target)
            assert pairs == swept
            assert all(h.evaluate(p) == target for p in pairs)

    def test_divisor_route_rejects_non_multiples_of_eight(self):
        assert _hyperbolic_pair_witnesses(12) == []

    @pytest.mark.parametrize(
        "record, bound",
        [
            (_record(name="S2xS2"), 32),  # divisor route
            (_record(chi=0, tau=0, form="H", b1=2, h1=AbelianGroup(2)), 4),
            (_record(chi=4, tau=0, form="2H", b1=1), 4),
            (_record(chi=6, tau=-2, form="diag(1,-1,-1,-1)"), 5),
            (_record(chi=4, tau=0, form="diag(2,-2)", w2=(0, 0)), 6),
        ],
    )
    def test_every_witness_has_the_target_square(self, record, bound):
        rows = record.form.matrix.to_lists()
        target = wu_target(record.chi, record.tau)
        enum = enumerate_chern_classes(record, bound)
        assert enum.witnesses
        for w in enum.witnesses:
            assert w.square == target
            assert quadratic_value(rows, w.coefficients) == target
        if not enum.complete:
            assert [w.coefficients for w in enum.witnesses] == box_solutions(
                rows, resolve_w2(record), bound, target
            )

    @pytest.mark.parametrize(
        "record, bound",
        [
            (_record(name="S2xS2"), 32),
            (_record(chi=6, tau=-2, form="diag(1,-1,-1,-1)"), 3),
            (_record(name="CP2", chi=3, tau=1, form="diag(1)"), 10),
        ],
        ids=["divisor", "sweep", "rank-1"],
    )
    def test_witnesses_are_a_view_of_the_raw_listing(self, capsys, tmp_path, record, bound):
        enum = enumerate_chern_classes(record, bound)
        assert enum.square == wu_target(record.chi, record.tau)
        assert enum.witnesses
        assert enum.witnesses == tuple(ChernWitness(c, enum.square) for c in enum.coefficients)
        # text-mode enumerate ends with one "  " + str(w) line per witness
        path = tmp_path / "m.man"
        path.write_text(cli.format_manifold_file(record), encoding="ascii")
        assert cli.main(["enumerate", "--file", str(path), "--bound", str(bound)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-len(enum.witnesses) - 1].split() == ["witnesses", str(len(enum.witnesses))]
        assert lines[-len(enum.witnesses) :] == ["  " + str(w) for w in enum.witnesses]

    def test_negation_closure(self):
        enum = enumerate_chern_classes(_record(name="S2xS2"))
        seen = {w.coefficients for w in enum.witnesses}
        assert {tuple(-c for c in w) for w in seen} == seen


class TestValidation:
    def test_clean_record(self):
        assert validate_invariants(_record()) == []

    def test_chi_mismatch(self):
        out = validate_invariants(_record(chi=5))
        assert len(out) == 1 and "Euler characteristic" in out[0]

    def test_tau_mismatch(self):
        out = validate_invariants(_record(tau=1))
        assert any("signature mismatch" in v for v in out)

    def test_b1_mismatch_hits_two_checks(self):
        out = validate_invariants(_record(b1=1, h1=AbelianGroup(0)))
        assert any("Euler characteristic" in v for v in out)
        assert any("rank(H1)" in v for v in out)

    def test_degenerate_form(self):
        q = IntersectionForm(build_form("matrix [[0,0],[0,0]]").matrix)
        out = validate_invariants(_record(form=q))
        assert any("degenerate" in v for v in out)

    def test_presentation_mismatch(self):
        m = _record(
            chi=2,
            b1=1,
            h1=AbelianGroup(1),
            form="H",
            presentation=Presentation(2),
        )
        out = validate_invariants(m)
        assert any("abelianizes to Z^2" in v for v in out)

    def test_presentation_match(self):
        m = _record(
            chi=2,
            b1=1,
            h1=AbelianGroup(1),
            form="H",
            presentation=Presentation(2, ((0, 1),)),
        )
        assert validate_invariants(m) == []

    def test_w2_length(self):
        out = validate_invariants(_record(w2=(0,)))
        assert any("length" in v for v in out)

    def test_w2_entries(self):
        out = validate_invariants(_record(w2=(0, 2)))
        assert any("0 or 1" in v for v in out)

    def test_w2_must_be_characteristic(self):
        out = validate_invariants(_record(w2=(1, 1)))
        assert any("characteristic" in v for v in out)


class TestVerdictInvariants:
    def test_exists_needs_witness(self):
        with pytest.raises(ValueError):
            StructureVerdict(VerdictStatus.EXISTS)

    def test_only_exists_carries_witness(self):
        w = ChernWitness((1,), 1)
        with pytest.raises(ValueError):
            StructureVerdict(VerdictStatus.UNKNOWN, witness=w)

    def test_conditional_needs_assumptions(self):
        with pytest.raises(ValueError):
            StructureVerdict(VerdictStatus.CONDITIONALLY_EXCLUDED)

    def test_witness_str(self):
        assert str(ChernWitness((-2, 2), -8)) == "(-2, 2)"

    def test_status_str(self):
        assert str(VerdictStatus.CONDITIONALLY_EXCLUDED) == "ConditionallyExcluded"
        assert str(SpinStatus.NOT_SPIN) == "NotSpin"
