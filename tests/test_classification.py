"""The minimal-surface table and the two exclusion engines that read it."""

import numpy as np
import pytest

from fourfold.abelian import AbelianGroup
from fourfold.forms import IntegerMatrix, IntersectionForm, build_form
from fourfold.classification import (
    SurfaceKind,
    SurfaceModel,
    ek_filter,
    exclude_complex,
    exclude_symplectic,
)
from fourfold.obstruction import ManifoldInvariants, VerdictStatus
from oracles import E8_ROWS, H_ROWS, SURFACE_TABLE, block_sum, least_blowups


def _record(name="X", chi=4, tau=0, form="H", b1=0):
    return ManifoldInvariants(
        name=name, chi=chi, tau=tau, form=build_form(form), b1=b1, h1=AbelianGroup(b1)
    )


_MINIMAL_REASON = "on a minimal manifold forces Kodaira dimension -inf"


class TestMinimality:
    """exclude_symplectic takes an even form as minimal and an odd one as undecided."""

    def test_even_is_minimal(self):
        # H at b1 = 4 and 4H at b1 = 7 both have c1^2 = -8
        for form, chi, b1 in (("H", -4, 4), ("4H", -4, 7)):
            m = _record(chi=chi, tau=0, form=form, b1=b1)
            assert m.form.is_even
            v = exclude_symplectic(m)
            assert _MINIMAL_REASON in v.reasons[0], form
            assert not any("minimality" in r for r in v.reasons), form

    def test_odd_is_undecided(self):
        m = _record(chi=-4, tau=0, form="diag(1,-1)", b1=4)
        assert not m.form.is_even
        for flag in (False, True):
            v = exclude_symplectic(m, assume_pi1_distinct=flag)
            assert v.status is VerdictStatus.UNKNOWN
            assert v.reasons == ("minimality not established: the form is odd",)


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

    def test_ruled_genus_is_nonnegative(self):
        with pytest.raises(ValueError, match="^genus must be nonnegative$"):
            SurfaceModel(SurfaceKind.RULED, genus=-1)


def _rational_ruled(b1, chi, tau):
    """The table's rational and ruled rows with no blow-ups: the minimal models."""
    return {
        model
        for model in ek_filter(b1, 2 * chi + 3 * tau, chi)
        if model.requires_pi1_check and not model.blowups
    }


def _survivors(v):
    return [r for r in v.reasons if r.startswith("surviving model: ")]


class TestRationalRuledModels:
    """The rational and ruled rows of the table, as exclude_symplectic reads them."""

    def test_spheres_product(self):
        assert _rational_ruled(0, 4, 0) == {SurfaceModel(SurfaceKind.RATIONAL_S2XS2)}
        # c1^2 = 8 >= 0: the engine does not take the table route
        v = exclude_symplectic(_record(chi=4, tau=0, form="H", b1=0))
        assert v.status is VerdictStatus.UNKNOWN
        assert _survivors(v) == []

    def test_minimal_ruled(self):
        got = _rational_ruled(4, -4, 0)
        assert got == {SurfaceModel(SurfaceKind.RULED, genus=2)}
        assert all(m.requires_pi1_check for m in got)
        v = exclude_symplectic(_record(chi=-4, tau=0, form="H", b1=4))
        assert _survivors(v) == ["surviving model: S2 x Sigma_2"]

    def test_parity_prunes_blowups(self):
        # the table has S2 x Sigma_2 # CP2bar at (4, -3, -1), but one blow-up
        # forces an odd form, so no minimal model matches
        assert SurfaceModel(SurfaceKind.RULED, genus=2, blowups=1) in ek_filter(4, -9, -3)
        assert _rational_ruled(4, -3, -1) == set()
        # and on an odd form the engine stops before the table
        for chi, tau, form in ((-3, -1, "diag(1,-1,-1)"), (-4, 0, "diag(1,-1)")):
            v = exclude_symplectic(_record(chi=chi, tau=tau, form=form, b1=4))
            assert v.status is VerdictStatus.UNKNOWN, form
            assert _survivors(v) == [], form

    def test_odd_b1_matches_nothing(self):
        assert _rational_ruled(3, -4, 0) == set()
        assert _rational_ruled(5, 0, 0) == set()
        v = exclude_symplectic(_record(chi=-4, tau=0, form="2H", b1=5))
        assert v.status is VerdictStatus.NOT_EXISTS
        assert v.reasons[1:] == ("no rational or ruled model matches (b1, chi, tau)",)

    def test_genus_zero_lives_in_the_rational_branch(self):
        assert all(m.kind is not SurfaceKind.RULED for m in ek_filter(0, 8, 4))
        for c1sq in range(-12, 10):
            for c2 in range(-4, 16):
                got = ek_filter(0, c1sq, c2)
                assert all(m.kind is not SurfaceKind.RULED for m in got), (c1sq, c2)


class TestEkFilter:
    def test_matches_the_printed_table_by_brute_force(self):
        # every (b1, c1^2, c2) with b1 in 0..13 and |c1^2|, |c2| <= 60: the
        # same classes in the same order, with the same genus and blow-ups
        values = range(-60, 61)
        c1sq, c2 = np.meshgrid(values, values, indexing="ij")
        for b1 in range(14):
            least = {name: k.tolist() for name, k in least_blowups(b1, c1sq, c2).items()}
            for i, x in enumerate(values):
                for j, y in enumerate(values):
                    expected = [
                        (name, b1 // 2 if name == "ruled" else None, least[name][i][j])
                        for name, _ in SURFACE_TABLE
                        if least[name][i][j] >= 0
                    ]
                    got = [(m.kind.value, m.genus, m.blowups) for m in ek_filter(b1, x, y)]
                    assert got == expected, (b1, x, y)

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

    def test_a_rational_model_never_survives_alone(self):
        # a rational model needs b1 = 0 and (c1^2, c2) = (9 - k, 3 + k) or
        # (8, 4), where general type also survives with some blow-up count, so
        # a survivor set is never all rational or ruled and the engines never
        # write a rational model's pi1 assumption; a change to the table that
        # breaks this makes that text reachable
        rational = {SurfaceKind.RATIONAL_CP2, SurfaceKind.RATIONAL_S2XS2}
        sets = 0
        for b1 in range(7):
            for c1sq in range(-40, 21):
                for c2 in range(-20, 41):
                    kinds = {model.kind for model in ek_filter(b1, c1sq, c2)}
                    if kinds & rational:
                        sets += 1
                        assert SurfaceKind.GENERAL_TYPE in kinds, (b1, c1sq, c2)
        assert sets

    def test_agrees_with_rational_ruled_on_even_minimal_data(self):
        # even form H, tau = 0: the table offers exactly the ruled surface over
        # Sigma_g, and both engines report it once c1^2 < 0 (g >= 2)
        for genus in range(1, 7):
            b1, chi = 2 * genus, 4 * (1 - genus)
            model = SurfaceModel(SurfaceKind.RULED, genus=genus)
            assert _rational_ruled(b1, chi, 0) == {model}
            if genus < 2:
                continue
            m = _record(chi=chi, tau=0, form="H", b1=b1)
            assert _survivors(exclude_symplectic(m)) == [f"surviving model: {model}"]
            assert f"surviving class: {model}" in exclude_complex(m).reasons


def _even_grid():
    """Valid records on kH + mE8 (k <= 4, m in -1..1, not both 0) with b1 <= 12."""
    for k in range(5):
        for m in (-1, 0, 1):
            if k == m == 0:
                continue
            e8 = [[m * x for x in row] for row in E8_ROWS] if m else []
            form = IntersectionForm(IntegerMatrix(block_sum(*[H_ROWS] * k, *[e8] * abs(m))))
            for b1 in range(13):
                chi = 2 - 2 * b1 + form.rank
                yield ManifoldInvariants(
                    f"{k}H+{m}E8 b1={b1}", chi, 8 * m, form, b1, AbelianGroup(b1)
                )


class TestSymplecticArithmetic:
    """exclude_symplectic on even forms against closed-form answers, not the table."""

    def test_even_grid(self):
        survivors = 0
        for rec in _even_grid():
            c1sq = 2 * rec.chi + 3 * rec.tau
            genus = rec.b1 // 2
            plain = exclude_symplectic(rec)
            flagged = exclude_symplectic(rec, assume_pi1_distinct=True)
            if (c1sq - rec.tau) % 8:
                expected = (VerdictStatus.NOT_EXISTS, ("no almost complex structure",))
                assert (plain.status, plain.reasons) == expected, rec.name
                assert flagged == plain, rec.name
            elif c1sq >= 0:
                assert plain.status is VerdictStatus.UNKNOWN, rec.name
                assert flagged == plain, rec.name
            elif rec.b1 % 2 == 0 and genus >= 2 and rec.chi == 4 * (1 - genus) == c1sq // 2:
                survivors += 1
                model = f"S2 x Sigma_{genus}"
                assert plain.status is VerdictStatus.UNKNOWN, rec.name
                assert plain.reasons[1:] == (f"surviving model: {model}",), rec.name
                assert flagged.status is VerdictStatus.CONDITIONALLY_EXCLUDED, rec.name
                assert flagged.assumptions == (f"pi1 differs from ruled model {model}",)
            else:
                assert plain.status is VerdictStatus.NOT_EXISTS, rec.name
                assert plain.reasons[1:] == (
                    "no rational or ruled model matches (b1, chi, tau)",
                ), rec.name
                assert flagged == plain, rec.name
        # H with b1 = 2g, g = 2..6: the minimal ruled surfaces over Sigma_g
        assert survivors == 5

    def test_reason_text(self):
        v = exclude_symplectic(_record(chi=-8, tau=0, form="3H", b1=8))
        assert v.reasons[0] == (
            "c1^2 = -16 < 0 on a minimal manifold forces Kodaira dimension -inf, "
            "i.e. a rational or ruled model"
        )


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
