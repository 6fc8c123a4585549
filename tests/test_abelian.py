"""Smith normal form, abelianization, and presentation parsing."""

import random
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourfold import abelian
from fourfold.abelian import (
    AbelianGroup,
    Presentation,
    PresentationError,
    abelianize,
    parse_abelian_group,
    parse_word,
    smith_normal_form,
)
from fourfold.families import FamilyId, family_invariants
from fourfold.forms import IntegerMatrix
from oracles import determinantal_divisors, matmul, rational_determinant

_LIMIT_S = 60  # the slowest test here takes about a second


class _Overran(BaseException):
    """Not an Exception, so Hypothesis does not catch it and shrink, re-running the hang."""


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past _LIMIT_S, as a Smith loop that never ends would."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def overran(signum, frame):
        raise _Overran(f"test ran past {_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def integer_matrices(draw, max_n=5, magnitude=20):
    rows = draw(st.integers(min_value=1, max_value=max_n))
    cols = draw(st.integers(min_value=1, max_value=max_n))
    data = [
        [draw(st.integers(min_value=-magnitude, max_value=magnitude)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return IntegerMatrix(data)


@st.composite
def sparse_unit_matrices(draw, max_n=6):
    """Mostly zeros and units, so the unit-pivot pass fills in, cancels rows and leaves some."""
    rows = draw(st.integers(min_value=1, max_value=max_n))
    cols = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 4, -6))
    return IntegerMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)])


def _product(*factors):
    return matmul(*(f.entries() for f in factors))


def _diagonal_pivots(d):
    return [d.entry(i, i) for i in range(min(d.rows, d.cols))]


class TestSmithNormalForm:
    def test_identity(self):
        m = IntegerMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        d, u, v = smith_normal_form(m)
        assert d == m
        assert _product(u, m, v) == d.to_lists()

    def test_known_diagonal(self):
        # diag(2, 3) is not in normal form; the chain forces (1, 6)
        d, u, v = smith_normal_form(IntegerMatrix([[2, 0], [0, 3]]))
        assert _diagonal_pivots(d) == [1, 6]
        assert _product(u, IntegerMatrix([[2, 0], [0, 3]]), v) == d.to_lists()

    def test_frozen_surface_bundle_relations(self):
        m = IntegerMatrix(
            [
                (0, 0, 1, -1, 0, 0),
                (0, 0, -1, 1, 0, 0),
                (0, 0, 0, 1, 0, 3),
            ]
        )
        d, u, v = smith_normal_form(m)
        assert _diagonal_pivots(d) == [1, 1, 0]
        assert _product(u, m, v) == d.to_lists()

    def test_zero_matrix(self):
        m = IntegerMatrix([[0, 0], [0, 0]])
        d, u, v = smith_normal_form(m)
        assert _diagonal_pivots(d) == [0, 0]
        assert _product(u, m, v) == d.to_lists()

    @given(integer_matrices())
    @settings(max_examples=80)
    def test_factorization_properties(self, m):
        d, u, v = smith_normal_form(m)
        # the factorization itself
        assert _product(u, m, v) == d.to_lists()
        # U and V are unimodular
        assert abs(u.determinant()) == 1
        assert abs(v.determinant()) == 1
        # D is diagonal with nonnegative entries
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.entry(i, j) == 0
        pivots = _diagonal_pivots(d)
        assert all(x >= 0 for x in pivots)
        # divisibility chain over the nonzero prefix, zeros only at the end
        nonzero = [x for x in pivots if x != 0]
        assert pivots[: len(nonzero)] == nonzero
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0

    @given(integer_matrices(max_n=4, magnitude=12))
    @settings(max_examples=40)
    def test_pivots_invariant_under_row_shuffle(self, m):
        rows = list(m.to_lists())
        rng = random.Random(11)
        rng.shuffle(rows)
        d1, _, _ = smith_normal_form(m)
        d2, _, _ = smith_normal_form(IntegerMatrix(rows))
        assert _diagonal_pivots(d1) == _diagonal_pivots(d2)


def _smith_diagonal(rows):
    """The Smith diagonal from the determinantal divisors alone."""
    out, prev = [], 1
    for d in determinantal_divisors(rows):
        out.append(d // prev if d else 0)
        prev = d
    return out


def _group(m):
    """The group the rows of m present, from the determinantal divisors alone."""
    nonzero = [x for x in _smith_diagonal(m.to_lists()) if x]
    return AbelianGroup(m.cols - len(nonzero), tuple(x for x in nonzero if x > 1))


class TestAgainstDeterminantalDivisors:
    @given(integer_matrices(max_n=5, magnitude=6))
    @settings(max_examples=200, derandomize=True)
    @example(IntegerMatrix([[2, 0], [0, 3]]))
    @example(IntegerMatrix([[4, 6], [6, 9]]))
    @example(IntegerMatrix([[0, 0, 0], [0, 0, 0]]))
    @example(IntegerMatrix([[6, 10, 15], [2, 4, 8]]))
    @example(IntegerMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    def test_diagonal_and_group(self, m):
        rows = m.to_lists()
        expected = _smith_diagonal(rows)
        d, _, _ = smith_normal_form(m)
        assert _diagonal_pivots(d) == expected
        assert abelianize(Presentation(m.cols, tuple(map(tuple, rows)))) == _group(m)

    @given(sparse_unit_matrices())
    @settings(max_examples=150, derandomize=True, deadline=None)
    @example(IntegerMatrix([[1, 1, 0], [1, 0, 1]]))  # fill-in at column 1
    @example(IntegerMatrix([[1, 2], [-1, -2], [0, 4]]))  # the second row cancels
    @example(IntegerMatrix([[1, 2, 0], [2, 0, 4], [0, 4, -6]]))  # a 2 x 2 remainder
    @example(IntegerMatrix([[2, 0], [0, 3]]))  # no unit: the whole matrix remains
    @example(IntegerMatrix([[0, 0, 0]]))  # no nonzero entry: every generator is free
    def test_unit_pivot_pass(self, m):
        assert abelianize(Presentation(m.cols, tuple(map(tuple, m.to_lists())))) == _group(m)


def _random_rows(seed, rows, cols, magnitude):
    rng = random.Random(seed)
    return [[rng.randint(-magnitude, magnitude) for _ in range(cols)] for _ in range(rows)]


def _sparse_rows():
    """40 x 40 with about 10% nonzero entries in [-5, 5]: few units, much fill-in."""
    rng = random.Random(6)
    return [[rng.randint(-5, 5) if rng.random() < 0.1 else 0 for _ in range(40)] for _ in range(40)]


class TestLargeMatrices:
    """Matrices on which swap-and-restart elimination blew up its coefficients.

    D = U M V with U and V unimodular, and D diagonal, nonnegative and a
    divisibility chain, make D the Smith normal form of M whatever the
    elimination did on the way.
    """

    @pytest.mark.parametrize(
        "rows",
        [
            _random_rows(45, 45, 45, 3),
            _sparse_rows(),
            _random_rows(30, 30, 60, 10),
            _random_rows(60, 60, 30, 10),
        ],
        ids=["dense-45x45", "sparse-40x40", "30x60", "60x30"],
    )
    def test_certified_smith_form(self, rows):
        m = IntegerMatrix(rows)
        d, u, v = smith_normal_form(m)
        assert _product(u, m, v) == d.to_lists()
        assert abs(rational_determinant(u.to_lists())) == 1
        assert abs(rational_determinant(v.to_lists())) == 1
        diagonal = _diagonal_pivots(d)
        assert all(
            x == 0 for i, row in enumerate(d.to_lists()) for j, x in enumerate(row) if i != j
        )
        assert all(x >= 0 for x in diagonal)
        assert all(b % a == 0 if a else b == 0 for a, b in zip(diagonal, diagonal[1:]))
        nonzero = [x for x in diagonal if x]
        group = AbelianGroup(m.cols - len(nonzero), tuple(x for x in nonzero if x > 1))
        assert abelianize(Presentation(m.cols, tuple(map(tuple, rows)))) == group


class TestAbelianGroup:
    def test_str(self):
        assert str(AbelianGroup(4)) == "Z^4"
        assert str(AbelianGroup(2, (2,))) == "Z^2 + Z/2"
        assert str(AbelianGroup(0, (2, 4))) == "Z^0 + Z/2 + Z/4"

    def test_two_torsion(self):
        assert AbelianGroup(1, (2,)).has_two_torsion
        assert AbelianGroup(1, (3, 6)).has_two_torsion
        assert not AbelianGroup(1, (3,)).has_two_torsion
        assert not AbelianGroup(5).has_two_torsion

    def test_rejects_bad_torsion(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(0, (3, 2))
        with pytest.raises(ValueError):
            AbelianGroup(-1)

    def test_parse(self):
        assert parse_abelian_group("Z^4") == AbelianGroup(4)
        assert parse_abelian_group("Z^0") == AbelianGroup(0)
        assert parse_abelian_group("Z^2 + Z/2 + Z/4") == AbelianGroup(2, (2, 4))
        assert parse_abelian_group("  Z^3+Z/5  ") == AbelianGroup(3, (5,))

    @pytest.mark.parametrize(
        "bad",
        ["Z", "Z/2", "Z^-1", "Z^2 + Z/1", "Z^2 + Z/3 + Z/2", "",
         pytest.param("Z^\uff12", id="fullwidth-rank"),
         pytest.param("Z^1 + Z/\u0663", id="arabic-indic-torsion"),
         pytest.param("Z^1 +\u3000Z/2", id="ideographic-space"),
         pytest.param("Z^1\u00a0+ Z/2", id="no-break-space")],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(PresentationError):
            parse_abelian_group(bad)

    def test_parse_round_trips_str(self):
        for g in [AbelianGroup(0), AbelianGroup(3), AbelianGroup(1, (2, 2, 4))]:
            assert parse_abelian_group(str(g)) == g


class TestAbelianize:
    def test_free_group(self):
        assert abelianize(Presentation(3)) == AbelianGroup(3)

    def test_trivial_group(self):
        p = Presentation(2, ((1, 0), (0, 1)))
        assert abelianize(p) == AbelianGroup(0)

    def test_torsion(self):
        assert abelianize(Presentation(1, ((2,),))) == AbelianGroup(0, (2,))
        assert abelianize(Presentation(2, ((2, 0), (0, 2)))) == AbelianGroup(0, (2, 2))
        assert abelianize(Presentation(2, ((2, 0), (0, 3)))) == AbelianGroup(0, (6,))

    def test_mixed(self):
        p = Presentation(3, ((0, 2, 0), (0, 0, 0)))
        assert abelianize(p) == AbelianGroup(2, (2,))

    def test_frozen_surface_bundle(self):
        p = Presentation(
            6,
            (
                (0, 0, 1, -1, 0, 0),
                (0, 0, -1, 1, 0, 0),
                (0, 0, 0, 1, 0, 3),
            ),
        )
        assert abelianize(p) == AbelianGroup(4)

    def test_invariant_under_row_operations(self):
        rng = random.Random(99)
        for _ in range(30):
            gens = rng.randint(1, 5)
            rels = [
                tuple(rng.randint(-9, 9) for _ in range(gens))
                for _ in range(rng.randint(1, 5))
            ]
            base = abelianize(Presentation(gens, tuple(rels)))
            # add a multiple of one relation to another; the group is unchanged
            mutated = [list(r) for r in rels]
            if len(mutated) >= 2:
                i, j = rng.sample(range(len(mutated)), 2)
                factor = rng.randint(-3, 3)
                mutated[i] = [
                    x + factor * y for x, y in zip(mutated[i], mutated[j])
                ]
            rng.shuffle(mutated)
            assert abelianize(Presentation(gens, tuple(tuple(r) for r in mutated))) == base

    def test_redundant_relations_ignored(self):
        p1 = Presentation(2, ((1, 2),))
        p2 = Presentation(2, ((1, 2), (2, 4), (-1, -2)))
        assert abelianize(p1) == abelianize(p2)


class TestUnitPivotPass:
    """abelianize clears unit pivots on sparse rows before the Smith core."""

    def _remainders(self, monkeypatch, p):
        seen = []
        core = abelian._eliminate

        def recording(a, *transforms):
            seen.append([list(row) for row in a])
            return core(a, *transforms)

        monkeypatch.setattr(abelian, "_eliminate", recording)
        return abelianize(p), seen

    def test_family_presentation_leaves_no_remainder(self, monkeypatch):
        p = family_invariants(FamilyId("M4", n=80)).presentation
        assert self._remainders(monkeypatch, p) == (AbelianGroup(161), [[]])

    def test_no_unit_leaves_the_whole_matrix(self, monkeypatch):
        p = Presentation(2, ((2, 0), (0, 3)))
        assert self._remainders(monkeypatch, p) == (AbelianGroup(0, (6,)), [[[2, 0], [0, 3]]])


class TestWords:
    NAMES = ("a1", "b1", "c", "d", "e", "f")

    def test_commutator_vanishes(self):
        assert parse_word(self.NAMES, "a1^-1 b1^-1 a1 b1") == (0, 0, 0, 0, 0, 0)

    def test_exponents(self):
        assert parse_word(self.NAMES, "d f^3") == (0, 0, 0, 1, 0, 3)
        assert parse_word(self.NAMES, "e d e^-1 c^-1") == (0, 0, -1, 1, 0, 0)

    def test_empty_word(self):
        assert parse_word(self.NAMES, "") == (0, 0, 0, 0, 0, 0)

    def test_unknown_generator(self):
        with pytest.raises(PresentationError):
            parse_word(self.NAMES, "a1 z")

    def test_bad_token(self):
        with pytest.raises(PresentationError):
            parse_word(self.NAMES, "a1^x")
        with pytest.raises(PresentationError):
            parse_word(self.NAMES, "^2")
        with pytest.raises(PresentationError):
            parse_word(self.NAMES, "a1^\u0662")  # ARABIC-INDIC DIGIT TWO
        with pytest.raises(PresentationError):
            parse_word(self.NAMES, "a1\u3000b1")  # IDEOGRAPHIC SPACE

    def test_duplicate_names_rejected(self):
        with pytest.raises(PresentationError):
            parse_word(("a", "a"), "a")


class TestPresentationText:
    def test_presentation_validates_relation_length(self):
        with pytest.raises(PresentationError):
            Presentation(2, ((1, 2, 3),))

    def test_presentation_validates_entry_types(self):
        for bad in (True, 1.0, "1", None):
            with pytest.raises(PresentationError, match="relation entries must be ints"):
                Presentation(2, ((1, bad),))

        class Exponent(int):
            pass

        assert Presentation(2, ((Exponent(1), 2),)).relations == ((1, 2),)
