"""Kodaira dimension table, model matching, and the two exclusion engines."""

import pytest

from fourfold.abelian import AbelianGroup
from fourfold.forms import build_form
from fourfold.classification import (
    KodairaDimension,
    SurfaceKind,
    SurfaceModel,
    ek_filter,
    exclude_complex,
    exclude_symplectic,
    is_minimal_by_parity,
    rational_ruled_models,
    symplectic_kodaira_dimension,
)
from fourfold.obstruction import ManifoldInvariants, VerdictStatus


def _record(name="X", chi=4, tau=0, form="H", b1=0):
    return ManifoldInvariants(
        name=name, chi=chi, tau=tau, form=build_form(form), b1=b1, h1=AbelianGroup(b1)
    )


class TestKodairaTable:
    EXPECTED = {
        (1, -1): KodairaDimension.MINUS_INFINITY,
        (1, 0): KodairaDimension.MINUS_INFINITY,
        (1, 1): KodairaDimension.MINUS_INFINITY,
        (0, -1): KodairaDimension.MINUS_INFINITY,
        (-1, -1): KodairaDimension.MINUS_INFINITY,
        (0, 0): KodairaDimension.ZERO,
        (-1, 0): KodairaDimension.ONE,
        (-1, 1): KodairaDimension.TWO,
        (0, 1): None,
    }

    def test_totality(self):
        seen = {}
        for dot in (-1, 0, 1):
            for square in (-1, 0, 1):
                seen[(dot, square)] = symplectic_kodaira_dimension(dot, square)
        assert seen == self.EXPECTED
        assert sum(v is not None for v in seen.values()) == 8

    def test_rejects_non_signs(self):
        with pytest.raises(ValueError):
            symplectic_kodaira_dimension(2, 0)
        with pytest.raises(ValueError):
            symplectic_kodaira_dimension(0, -2)

    def test_str(self):
        assert str(KodairaDimension.MINUS_INFINITY) == "-inf"
        assert str(KodairaDimension.TWO) == "2"


class TestMinimality:
    def test_even_is_minimal(self):
        assert is_minimal_by_parity(build_form("H"))
        assert is_minimal_by_parity(build_form("4H"))

    def test_odd_is_undecided(self):
        assert not is_minimal_by_parity(build_form("diag(1,-1)"))


_KIND_STR = {
    SurfaceKind.RATIONAL_S2XS2: "S2 x S2",
    SurfaceKind.RATIONAL_CP2: "CP2",
    SurfaceKind.RULED: "S2 x Sigma_1",
    SurfaceKind.CLASS_VII: "class VII surface",
    SurfaceKind.ENRIQUES: "Enriques surface",
    SurfaceKind.BI_ELLIPTIC: "bi-elliptic surface",
    SurfaceKind.KODAIRA_SURFACE: "Kodaira surface",
    SurfaceKind.K3: "K3 surface",
    SurfaceKind.TORUS: "torus surface",
    SurfaceKind.PROPERLY_ELLIPTIC: "properly elliptic surface",
    SurfaceKind.GENERAL_TYPE: "general type surface",
}


class TestSurfaceModel:
    def test_str(self):
        assert str(SurfaceModel(SurfaceKind.RATIONAL_S2XS2)) == "S2 x S2"
        assert str(SurfaceModel(SurfaceKind.RATIONAL_CP2, blowups=3)) == "CP2 # 3 CP2bar"
        assert str(SurfaceModel(SurfaceKind.RULED, genus=2)) == "S2 x Sigma_2"
        assert str(SurfaceModel(SurfaceKind.K3)) == "K3 surface"
        assert (
            str(SurfaceModel(SurfaceKind.CLASS_VII, blowups=2))
            == "class VII surface # 2 CP2bar"
        )

    @pytest.mark.parametrize("kind", list(SurfaceKind))
    def test_str_of_every_kind(self, kind):
        genus = 1 if kind is SurfaceKind.RULED else None
        assert str(SurfaceModel(kind, genus=genus)) == _KIND_STR[kind]

    def test_invariants(self):
        with pytest.raises(ValueError):
            SurfaceModel(SurfaceKind.K3, blowups=-1)
        with pytest.raises(ValueError):
            SurfaceModel(SurfaceKind.K3, genus=1)
        with pytest.raises(ValueError):
            SurfaceModel(SurfaceKind.RULED)
        with pytest.raises(ValueError):
            SurfaceModel(SurfaceKind.RATIONAL_S2XS2, blowups=1)


class TestRationalRuledModels:
    def test_spheres_product(self):
        got = rational_ruled_models(0, 4, 0, form_even=True)
        assert set(got) == {SurfaceModel(SurfaceKind.RATIONAL_S2XS2)}

    def test_blown_up_plane(self):
        got = rational_ruled_models(0, 4, 0, form_even=False)
        assert set(got) == {SurfaceModel(SurfaceKind.RATIONAL_CP2, blowups=1)}

    def test_plane_itself(self):
        got = rational_ruled_models(0, 3, 1, form_even=False)
        assert set(got) == {SurfaceModel(SurfaceKind.RATIONAL_CP2, blowups=0)}

    def test_minimal_ruled(self):
        got = rational_ruled_models(4, -4, 0, form_even=True)
        assert set(got) == {SurfaceModel(SurfaceKind.RULED, genus=2)}
        assert all(m.requires_pi1_check for m in got)

    def test_blown_up_ruled(self):
        got = rational_ruled_models(4, -3, -1, form_even=False)
        assert set(got) == {SurfaceModel(SurfaceKind.RULED, genus=2, blowups=1)}

    def test_parity_prunes_blowups(self):
        # one blow-up forces an odd form; an even form cannot match
        assert rational_ruled_models(4, -3, -1, form_even=True) == []
        # and a minimal ruled surface has the even form H
        assert rational_ruled_models(4, -4, 0, form_even=False) == []

    def test_odd_b1_matches_nothing(self):
        assert rational_ruled_models(3, -4, 0, form_even=True) == []
        assert rational_ruled_models(5, 0, 0, form_even=False) == []

    def test_genus_zero_lives_in_the_rational_branch(self):
        got = rational_ruled_models(0, 4, 0, form_even=True)
        assert all(m.kind is not SurfaceKind.RULED for m in got)


class TestEkFilter:
    def test_minimal_ruled_only(self):
        got = ek_filter(4, -8, -4)
        assert set(got) == {SurfaceModel(SurfaceKind.RULED, genus=2)}

    def test_empty_for_odd_b1(self):
        assert ek_filter(3, -2, -2) == []

    def test_projective_plane_numbers(self):
        got = ek_filter(0, 9, 3)
        assert set(got) == {
            SurfaceModel(SurfaceKind.RATIONAL_CP2),
            SurfaceModel(SurfaceKind.GENERAL_TYPE),
        }

    def test_spheres_product_numbers(self):
        got = ek_filter(0, 8, 4)
        assert set(got) == {
            SurfaceModel(SurfaceKind.RATIONAL_S2XS2),
            SurfaceModel(SurfaceKind.RATIONAL_CP2, blowups=1),
            SurfaceModel(SurfaceKind.GENERAL_TYPE),
        }

    def test_b1_one_sector(self):
        got = ek_filter(1, 0, 0)
        assert set(got) == {
            SurfaceModel(SurfaceKind.CLASS_VII),
            SurfaceModel(SurfaceKind.KODAIRA_SURFACE),
            SurfaceModel(SurfaceKind.PROPERLY_ELLIPTIC),
        }

    def test_k3_numbers(self):
        got = ek_filter(0, 0, 24)
        assert set(got) == {
            SurfaceModel(SurfaceKind.K3),
            SurfaceModel(SurfaceKind.PROPERLY_ELLIPTIC),
            SurfaceModel(SurfaceKind.GENERAL_TYPE, blowups=1),
        }

    def test_torus_numbers(self):
        got = ek_filter(4, 0, 0)
        assert set(got) == {
            SurfaceModel(SurfaceKind.TORUS),
            SurfaceModel(SurfaceKind.PROPERLY_ELLIPTIC),
        }

    def test_bi_elliptic_numbers(self):
        got = ek_filter(2, 0, 0)
        assert set(got) == {
            SurfaceModel(SurfaceKind.BI_ELLIPTIC),
            SurfaceModel(SurfaceKind.RULED, genus=1),
            SurfaceModel(SurfaceKind.PROPERLY_ELLIPTIC),
        }

    def test_flags_follow_the_kind(self):
        for model in ek_filter(0, 8, 4) + ek_filter(4, 0, 0):
            expect = model.kind in {
                SurfaceKind.RATIONAL_S2XS2,
                SurfaceKind.RATIONAL_CP2,
                SurfaceKind.RULED,
            }
            assert model.requires_pi1_check == expect

    def test_blowup_accounting_shifts_both_numbers(self):
        # K3 # 2 CP2bar has c1sq = -2 and c2 = 26
        got = ek_filter(0, -2, 26)
        assert SurfaceModel(SurfaceKind.K3, blowups=2) in set(got)

    def test_agrees_with_rational_ruled_on_even_minimal_data(self):
        # even form, tau = 0: both engines must offer the same ruled sector
        for genus in range(1, 7):
            b1, chi, tau = 2 * genus, 4 * (1 - genus), 0
            rr = set(rational_ruled_models(b1, chi, tau, form_even=True))
            ek = {
                m
                for m in ek_filter(b1, 2 * chi + 3 * tau, chi)
                if m.kind
                in {SurfaceKind.RULED, SurfaceKind.RATIONAL_S2XS2, SurfaceKind.RATIONAL_CP2}
            }
            assert rr == ek == {SurfaceModel(SurfaceKind.RULED, genus=genus)}


class TestExcludeSymplectic:
    def test_surface_bundle_survivor(self):
        m = _record(chi=-4, tau=0, form="H", b1=4)
        v = exclude_symplectic(m)
        assert v.status is VerdictStatus.UNKNOWN
        assert any("surviving model: S2 x Sigma_2" in r for r in v.reasons)

    def test_surface_bundle_conditional(self):
        m = _record(chi=-4, tau=0, form="H", b1=4)
        v = exclude_symplectic(m, assume_pi1_distinct=True)
        assert v.status is VerdictStatus.CONDITIONALLY_EXCLUDED
        assert v.assumptions == ("pi1 differs from ruled model S2 x Sigma_2",)
        assert any("Kodaira dimension -inf" in r for r in v.reasons)

    def test_nonnegative_square_is_out_of_scope(self):
        v = exclude_symplectic(_record())
        assert v.status is VerdictStatus.UNKNOWN
        assert any(">= 0" in r for r in v.reasons)

    def test_odd_form_is_out_of_scope(self):
        m = _record(chi=-4, tau=0, form="diag(1,-1)", b1=4)
        v = exclude_symplectic(m)
        assert v.status is VerdictStatus.UNKNOWN
        assert any("minimality" in r for r in v.reasons)

    def test_unconditional_exclusion(self):
        # b1 = 8 with chi = -8 matches no ruled model: genus 4 needs chi = -12
        m = _record(chi=-8, tau=0, form="3H", b1=8)
        v = exclude_symplectic(m)
        assert v.status is VerdictStatus.NOT_EXISTS
        assert any("no rational or ruled model" in r for r in v.reasons)
        # the verdict does not depend on the pi1 switch
        assert exclude_symplectic(m, assume_pi1_distinct=True).status is v.status


class TestExcludeComplex:
    def test_surface_bundle_conditional(self):
        m = _record(chi=-4, tau=0, form="H", b1=4)
        v = exclude_complex(m, assume_pi1_distinct=True)
        assert v.status is VerdictStatus.CONDITIONALLY_EXCLUDED
        assert v.assumptions == ("pi1 differs from ruled model S2 x Sigma_2",)
        assert any("class VII excluded: b1 = 4 != 1" in r for r in v.reasons)

    def test_surface_bundle_default_is_unknown(self):
        m = _record(chi=-4, tau=0, form="H", b1=4)
        v = exclude_complex(m)
        assert v.status is VerdictStatus.UNKNOWN
        assert any("surviving class: S2 x Sigma_2" in r for r in v.reasons)

    def test_unconditional_exclusion(self):
        m = _record(chi=-8, tau=0, form="3H", b1=8)
        v = exclude_complex(m)
        assert v.status is VerdictStatus.NOT_EXISTS
        assert v.reasons[0] == "class VII excluded: b1 = 8 != 1"
        assert any("no surface class matches" in r for r in v.reasons)

    def test_b1_one_keeps_class_vii_in_play(self):
        m = _record(chi=4, tau=-4, form="diag(-1,-1,-1,-1)", b1=1)
        v = exclude_complex(m, assume_pi1_distinct=True)
        assert v.status is VerdictStatus.UNKNOWN
        assert not any("class VII excluded" in r for r in v.reasons)
        assert any("surviving class: class VII surface" in r for r in v.reasons)

    def test_matches_symplectic_verdict_on_bundle_fixtures(self):
        # even-form fixtures: both engines agree on exclude vs survive
        for chi, b1, form in [(-4, 4, "H"), (-8, 8, "3H"), (-6, 6, "2H")]:
            m = _record(chi=chi, tau=0, form=form, b1=b1)
            s = exclude_symplectic(m, assume_pi1_distinct=True)
            c = exclude_complex(m, assume_pi1_distinct=True)
            assert s.status is c.status
