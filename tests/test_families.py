"""Built-in family records: construction, validation, and discrepancy notes."""

import pytest

from fourfold.abelian import AbelianGroup, abelianize
from fourfold.classification import exclude_complex, exclude_symplectic
from fourfold.families import (
    FamilyId,
    FamilyParameterError,
    family_invariants,
    known_discrepancies,
)
from fourfold.forms import IntersectionForm
from fourfold.obstruction import (
    ManifoldInvariants,
    SpinStatus,
    VerdictStatus,
    almost_complex_excluded,
    decide_almost_complex,
    is_spin,
    validate_invariants,
)


class TestFamilyId:
    def test_parse_round_trip(self):
        for spec, rendered in [
            ("M1 g=2", "M1(g=2)"),
            ("M2 g=1 n=4", "M2(g=1, n=4)"),
            ("M3 n=2 g=1", "M3(g=1, n=2)"),
            ("M4 n=7", "M4(n=7)"),
        ]:
            fid = FamilyId.parse(spec)
            assert str(fid) == rendered

    @pytest.mark.parametrize(
        "bad",
        ["", "M5 g=1", "M1", "M1 g=0", "M1 g=-2", "M1 n=2", "M3 g=1",
         "M1 g=2 g=3", "M1 g=x", "M1 h=2", "M4 n=1 g=1",
         pytest.param("M1 g=\u0661", id="arabic-indic-digit"),
         pytest.param("M1\u3000g=1", id="ideographic-space"),
         pytest.param("M1\u00a0g=1", id="no-break-space")],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(FamilyParameterError):
            FamilyId.parse(bad)

    def test_constructor_validation(self):
        with pytest.raises(FamilyParameterError):
            FamilyId("M1")
        with pytest.raises(FamilyParameterError):
            FamilyId("M1", g=2, n=1)
        with pytest.raises(FamilyParameterError):
            FamilyId("M4", n=0)
        with pytest.raises(FamilyParameterError):
            FamilyId("X9", g=1)


class TestRecords:
    def test_m1(self):
        m = family_invariants(FamilyId("M1", g=1))
        assert (m.name, m.chi, m.tau, m.b1) == ("M1(g=1)", -4, 0, 4)
        assert m.form == IntersectionForm.hyperbolic(1)
        assert m.w2 == (0, 0)
        assert m.h1 == AbelianGroup(4)

    def test_m1_scaling(self):
        m = family_invariants(FamilyId("M1", g=3))
        assert (m.chi, m.b1) == (-12, 8)
        assert m.form.rank == 2

    def test_m2(self):
        m = family_invariants(FamilyId("M2", g=1, n=1))
        assert (m.name, m.chi, m.b1) == ("M2(g=1, n=1)", -4, 4)
        assert m.form == IntersectionForm.hyperbolic(1)
        m = family_invariants(FamilyId("M2", g=2, n=3))
        assert (m.chi, m.b1) == (-16, 10)

    def test_m3(self):
        m = family_invariants(FamilyId("M3", g=1, n=1))
        assert (m.chi, m.b1) == (-4, 5)
        assert m.form == IntersectionForm.hyperbolic(2)
        assert m.presentation is None
        m = family_invariants(FamilyId("M3", g=2, n=2))
        assert (m.chi, m.b1) == (-12, 10)
        assert m.form.rank == 6

    def test_m4(self):
        m = family_invariants(FamilyId("M4", n=1))
        assert (m.name, m.chi, m.b1) == ("M4(n=1)", -2, 3)
        assert m.form == IntersectionForm.hyperbolic(1)
        m = family_invariants(FamilyId("M4", n=4))
        assert (m.chi, m.b1) == (-8, 9)
        assert m.form.rank == 8

    def test_all_records_validate(self):
        for fid in _grid(limit=6):
            assert validate_invariants(family_invariants(fid)) == [], str(fid)

    def test_all_spin(self):
        for fid in _grid(limit=4):
            m = family_invariants(fid)
            assert is_spin(m.form, m.h1) is SpinStatus.SPIN, str(fid)

    def test_presentations_abelianize_to_h1(self):
        # the benchmark's family grid, up to M4 n=80 (M3 has no presentation)
        fids = [FamilyId("M1", g=g) for g in (1, 2, 4, 8)]
        fids += [FamilyId("M2", g=g, n=n) for g in (1, 2, 3) for n in (1, 2, 3)]
        fids += [FamilyId("M4", n=n) for n in (1, 2, 3, 5, 10, 20, 40, 80)]
        for fid in fids:
            m = family_invariants(fid)
            assert abelianize(m.presentation) == m.h1, str(fid)

    def test_relation_rows_follow_generator_order(self):
        # generators a1, b1, c, d, e, f: the relator "d f^3" is row 2
        p = family_invariants(FamilyId("M1", g=1)).presentation
        assert p.generators == 6
        assert p.relations[2] == (0, 0, 0, 1, 0, 3)


def _grid(limit):
    for g in range(1, limit + 1):
        yield FamilyId("M1", g=g)
        yield FamilyId("M4", n=g)
        for n in range(1, limit + 1):
            yield FamilyId("M2", g=g, n=n)
            yield FamilyId("M3", g=g, n=n)


class TestDiscrepancyNotes:
    def test_odd_n_at_least_three(self):
        m = family_invariants(FamilyId("M4", n=3))
        notes = known_discrepancies(m)
        assert len(notes) == 1
        assert "not a multiple of 8" in notes[0]
        assert "fails the existence criterion" in notes[0]

    def test_quiet_cases(self):
        assert known_discrepancies(family_invariants(FamilyId("M4", n=1))) == []
        assert known_discrepancies(family_invariants(FamilyId("M4", n=2))) == []
        assert known_discrepancies(family_invariants(FamilyId("M1", g=3))) == []
        assert known_discrepancies(family_invariants(FamilyId("M3", g=1, n=2))) == []

    def test_matches_on_data_not_provenance(self):
        by_hand = ManifoldInvariants(
            name="byhand",
            chi=-6,
            tau=0,
            form=IntersectionForm.hyperbolic(3),
            b1=7,
            h1=AbelianGroup(7),
            w2=(0,) * 6,
        )
        assert known_discrepancies(by_hand) == known_discrepancies(
            family_invariants(FamilyId("M4", n=3))
        )

    def test_near_miss_stays_quiet(self):
        tweaked = ManifoldInvariants(
            name="near",
            chi=-6,
            tau=0,
            form=IntersectionForm.hyperbolic(3),
            b1=8,
            h1=AbelianGroup(8),
            w2=(0,) * 6,
        )
        assert known_discrepancies(tweaked) == []


class TestWuOnFamilies:
    def test_m1_exists(self):
        v = decide_almost_complex(family_invariants(FamilyId("M1", g=1)))
        assert v.status is VerdictStatus.EXISTS
        assert v.witness.coefficients == (-2, 2)

    def test_m2_exists(self):
        v = decide_almost_complex(family_invariants(FamilyId("M2", g=1, n=1)))
        assert v.status is VerdictStatus.EXISTS
        assert v.witness.coefficients == (-2, 2)

    def test_m4_even_exists(self):
        v = decide_almost_complex(family_invariants(FamilyId("M4", n=2)))
        assert v.status is VerdictStatus.EXISTS
        assert v.witness.coefficients == (-2, 2, 0, 0)

    def test_m4_odd_fails(self):
        v = decide_almost_complex(family_invariants(FamilyId("M4", n=3)))
        assert v.status is VerdictStatus.NOT_EXISTS
        assert any("mod-8" in r for r in v.reasons)

    def test_m4_odd_cascades_in_the_library(self):
        m = family_invariants(FamilyId("M4", n=3))
        assert almost_complex_excluded(m)
        for assume in (False, True):
            sym = exclude_symplectic(m, assume)
            cpx = exclude_complex(m, assume)
            assert sym.status is cpx.status is VerdictStatus.NOT_EXISTS
            assert sym.reasons == ("no almost complex structure",)
            assert cpx.reasons == (
                "no almost complex structure",
                "class VII excluded: b1 = 7 != 1",
            )
            assert sym.assumptions == cpx.assumptions == ()
