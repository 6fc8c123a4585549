"""Abelianization against independent oracles, and presentation parsing."""

import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourfold.abelian import (
    AbelianGroup,
    Presentation,
    PresentationError,
    abelianize,
    parse_abelian_group,
)
from fourfold.families import FamilyId, family_invariants
from fourfold.forms import IntegerMatrix
from oracles import (
    determinantal_divisors,
    modular_rank,
    rational_determinant,
    rational_rank,
)

_LIMIT_S = 60  # the slowest test here takes a few seconds


@pytest.fixture(autouse=True)
def _time_limit(time_limit):
    """Fail a test that runs past _LIMIT_S, as a Smith loop that never ends would."""
    time_limit(_LIMIT_S)


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
    """Mostly zeros and units, so the unit pivots fill in, cancel rows and leave some."""
    rows = draw(st.integers(min_value=1, max_value=max_n))
    cols = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 4, -6))
    return IntegerMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)])


def _abelianize_rows(rows):
    rows = [tuple(row) for row in rows]
    return abelianize(Presentation(len(rows[0]), tuple(rows)))


def _smith_diagonal(rows):
    """The Smith diagonal from the determinantal divisors alone."""
    out, prev = [], 1
    for d in determinantal_divisors(rows):
        out.append(d // prev if d else 0)
        prev = d
    return out


def _group(m):
    """The group the rows of m present, from the determinantal divisors alone."""
    nonzero = [x for x in _smith_diagonal(m.entries()) if x]
    return AbelianGroup(m.cols - len(nonzero), tuple(x for x in nonzero if x > 1))


def _small_primes(n, bound=2**16):
    """The primes below bound that divide n, by trial division."""
    out = []
    p = 2
    while p < bound and p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if 1 < n < bound:
        out.append(n)
    return out


def _check_ranks(rows, group):
    """The group against ranks over Q and over GF(p), which share no code with abelianize.

    The free rank is the columns minus the rank over Q, and the summands
    Z/t with p | t number the rank over Q minus the rank over GF(p); p runs
    over the primes up to 7 and those below 2**16 that divide a summand.
    """
    rank = rational_rank(rows)
    assert group.rank == len(rows[0]) - rank
    primes = {2, 3, 5, 7}.union(*(_small_primes(t) for t in group.torsion))
    for p in sorted(primes):
        assert sum(t % p == 0 for t in group.torsion) == rank - modular_rank(rows, p), p
    return rank


class TestSmithNormalForm:
    """abelianize reads off the Smith diagonal that the determinantal divisors give."""

    def test_identity(self):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert _smith_diagonal(rows) == [1, 1, 1]
        assert _abelianize_rows(rows) == AbelianGroup(0)

    def test_known_diagonal(self):
        # diag(2, 3) is not in normal form; the chain forces (1, 6)
        assert _smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
        assert _abelianize_rows([[2, 0], [0, 3]]) == AbelianGroup(0, (6,))

    def test_frozen_surface_bundle_relations(self):
        rows = [
            (0, 0, 1, -1, 0, 0),
            (0, 0, -1, 1, 0, 0),
            (0, 0, 0, 1, 0, 3),
        ]
        assert _smith_diagonal(rows) == [1, 1, 0]
        assert _abelianize_rows(rows) == AbelianGroup(4)

    def test_zero_matrix(self):
        assert _smith_diagonal([[0, 0], [0, 0]]) == [0, 0]
        assert _abelianize_rows([[0, 0], [0, 0]]) == AbelianGroup(2)

    @given(integer_matrices())
    @settings(max_examples=80)
    def test_factorization_properties(self, m):
        rows = m.entries()
        group = _abelianize_rows(rows)
        rank = _check_ranks(rows, group)
        assert sum(1 for x in _smith_diagonal(rows) if x) == rank
        assert group == _group(m)

    @given(integer_matrices(max_n=4, magnitude=12))
    @settings(max_examples=40)
    def test_pivots_invariant_under_row_shuffle(self, m):
        rows = list(m.entries())
        random.Random(11).shuffle(rows)
        assert _smith_diagonal(rows) == _smith_diagonal(m.entries())
        assert _abelianize_rows(rows) == _abelianize_rows(m.entries())


class TestAgainstDeterminantalDivisors:
    @given(integer_matrices(max_n=5, magnitude=6))
    @settings(max_examples=200, derandomize=True)
    @example(IntegerMatrix([[2, 0], [0, 3]]))
    @example(IntegerMatrix([[4, 6], [6, 9]]))
    @example(IntegerMatrix([[0, 0, 0], [0, 0, 0]]))
    @example(IntegerMatrix([[6, 10, 15], [2, 4, 8]]))
    @example(IntegerMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    def test_diagonal_and_group(self, m):
        group = _abelianize_rows(m.entries())
        assert group == _group(m)
        nonzero = [x for x in _smith_diagonal(m.entries()) if x]
        assert group.torsion == tuple(x for x in nonzero if x > 1)

    @given(sparse_unit_matrices())
    @settings(max_examples=150, derandomize=True, deadline=None)
    @example(IntegerMatrix([[1, 1, 0], [1, 0, 1]]))  # fill-in at column 1
    @example(IntegerMatrix([[1, 2], [-1, -2], [0, 4]]))  # the second row cancels
    @example(IntegerMatrix([[1, 2, 0], [2, 0, 4], [0, 4, -6]]))  # a 2 x 2 remainder
    @example(IntegerMatrix([[2, 0], [0, 3]]))  # no unit: the whole matrix remains
    @example(IntegerMatrix([[0, 0, 0]]))  # no nonzero entry: every generator is free
    def test_unit_pivot_pass(self, m):
        assert _abelianize_rows(m.entries()) == _group(m)


def _random_rows(seed, rows, cols, magnitude):
    rng = random.Random(seed)
    return [[rng.randint(-magnitude, magnitude) for _ in range(cols)] for _ in range(rows)]


def _sparse_rows():
    """40 x 40 with about 10% nonzero entries in [-5, 5]: few units, much fill-in."""
    rng = random.Random(6)
    return [[rng.randint(-5, 5) if rng.random() < 0.1 else 0 for _ in range(40)] for _ in range(40)]


class TestLargeMatrices:
    """Matrices on which swap-and-restart elimination blew up its coefficients.

    The group is checked against ranks over Q and GF(p) (_check_ranks), and
    on a square matrix of full rank the order of the torsion is |det|, which
    also covers the primes too large to find by trial division.
    """

    @pytest.mark.parametrize(
        "rows",
        [
            _random_rows(45, 45, 45, 3),
            _sparse_rows(),
            _random_rows(30, 30, 60, 10),
            _random_rows(60, 60, 30, 10),
            _random_rows(80, 80, 80, 3),
        ],
        ids=["dense-45x45", "sparse-40x40", "30x60", "60x30", "dense-80x80"],
    )
    def test_certified_smith_form(self, rows):
        group = _abelianize_rows(rows)
        rank = _check_ranks(rows, group)
        if rank == len(rows) == len(rows[0]):
            assert math.prod(group.torsion) == abs(rational_determinant(rows))


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

    def test_invariant_under_column_operations(self):
        # a unimodular column operation is a change of generators
        rng = random.Random(17)
        for _ in range(200):
            gens = rng.randint(1, 6)
            rels = [
                [rng.randint(-9, 9) for _ in range(gens)]
                for _ in range(rng.randint(1, 6))
            ]
            base = abelianize(Presentation(gens, tuple(map(tuple, rels))))
            for _ in range(rng.randint(1, 8)):
                a, b = rng.randrange(gens), rng.randrange(gens)
                factor = rng.randint(-4, 4)
                for row in rels:
                    if a == b:
                        row[a] = -row[a]
                    elif factor:
                        row[b] += factor * row[a]
                    else:
                        row[a], row[b] = row[b], row[a]
            assert abelianize(Presentation(gens, tuple(map(tuple, rels)))) == base

    def test_redundant_relations_ignored(self):
        p1 = Presentation(2, ((1, 2),))
        p2 = Presentation(2, ((1, 2), (2, 4), (-1, -2)))
        assert abelianize(p1) == abelianize(p2)


class TestUnitPivotPass:
    """abelianize takes the unit pivots of the sparse rows first."""

    def test_family_presentation_leaves_no_remainder(self):
        m = family_invariants(FamilyId("M4", n=80))
        assert abelianize(m.presentation) == m.h1 == AbelianGroup(161)

    def test_no_unit_leaves_the_whole_matrix(self):
        assert abelianize(Presentation(2, ((2, 0), (0, 3)))) == AbelianGroup(0, (6,))

    def test_memory_follows_the_entries_not_the_generators(self):
        # a presentation with no relations holds no entries, so the pass
        # indexes no column, however many generators it declares
        tracemalloc.start()
        try:
            group = abelianize(Presentation(10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert group == AbelianGroup(10**6)
        assert peak < 2**20


def word_vector(names, text):
    """The exponent-sum vector of one relator word, read by Presentation.from_words."""
    return Presentation.from_words(names, [text]).relations[0]


class TestWords:
    NAMES = ("a1", "b1", "c", "d", "e", "f")

    def test_commutator_vanishes(self):
        assert word_vector(self.NAMES, "a1^-1 b1^-1 a1 b1") == (0, 0, 0, 0, 0, 0)

    def test_exponents(self):
        assert word_vector(self.NAMES, "d f^3") == (0, 0, 0, 1, 0, 3)
        assert word_vector(self.NAMES, "e d e^-1 c^-1") == (0, 0, -1, 1, 0, 0)

    def test_empty_word(self):
        assert word_vector(self.NAMES, "") == (0, 0, 0, 0, 0, 0)

    def test_unknown_generator(self):
        with pytest.raises(PresentationError):
            word_vector(self.NAMES, "a1 z")

    def test_bad_token(self):
        with pytest.raises(PresentationError):
            word_vector(self.NAMES, "a1^x")
        with pytest.raises(PresentationError):
            word_vector(self.NAMES, "^2")
        with pytest.raises(PresentationError):
            word_vector(self.NAMES, "a1^\u0662")  # ARABIC-INDIC DIGIT TWO
        with pytest.raises(PresentationError):
            word_vector(self.NAMES, "a1\u3000b1")  # IDEOGRAPHIC SPACE

    def test_words_share_the_generators(self):
        p = Presentation.from_words(self.NAMES, ["d f^3", "e d e^-1 c^-1", "a1 a1^-1"])
        assert p.generators == 6
        assert p.rows == (((3, 1), (5, 3)), ((2, -1), (3, 1)), ())
        assert p == Presentation(6, ((0, 0, 0, 1, 0, 3), (0, 0, -1, 1, 0, 0), (0,) * 6))
        assert Presentation.from_words(self.NAMES, []) == Presentation(6)

    def test_duplicate_names_rejected(self):
        with pytest.raises(PresentationError):
            word_vector(("a", "a"), "a")

    def test_words_are_kept_as_written(self):
        p = Presentation.from_words(("a", "b"), ["a a^-1 b^0", "", "b^+2\ta"])
        assert p.names == ("a", "b")
        assert p.words == (((0, 1), (0, -1), (1, 0)), (), ((1, 2), (0, 1)))
        assert p.word_texts() == ["a a^-1 b^0", "", "b^2 a"]
        assert p.rows == ((), (), ((0, 1), (1, 2)))
        assert Presentation(2, ((2, 0),)).words is None

    @pytest.mark.parametrize(
        "word, message",
        [
            # str.split() splits at \x1c-\x1f and Unicode spaces; the grammar does not
            ("a\x1fb", "cannot parse word token 'a\\x1fb'"),
            ("a\x85b", "cannot parse word token 'a\\x85b'"),
            ("a^1_0", "cannot parse word token 'a^1_0'"),  # int() takes "1_0"
            ("a^+-1", "cannot parse word token 'a^+-1'"),
            ("b a^", "cannot parse word token 'a^'"),
            ("z a^x", "unknown generator 'z'"),  # the first bad token is reported
            ("a^x z", "cannot parse word token 'a^x'"),
        ],
    )
    def test_token_messages(self, word, message):
        with pytest.raises(PresentationError) as exc:
            Presentation.from_words(("a", "b"), ["a b", word])
        assert str(exc.value) == message

    @pytest.mark.parametrize("bad", ["1a", "a b", "a,b", "", "\u00e9"])
    def test_names_follow_the_token_grammar(self, bad):
        with pytest.raises(PresentationError) as exc:
            Presentation.from_words(("a", bad), [])
        assert str(exc.value) == f"cannot parse generator name {bad!r}"


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

    def test_rows_are_the_nonzero_entries(self):
        p = Presentation(4, ((0, 2, 0, -1), (0, 0, 0, 0)))
        assert p.rows == (((1, 2), (3, -1)), ())
        assert p.relations == ((0, 2, 0, -1), (0, 0, 0, 0))
        assert p == Presentation(4, [[0, 2, 0, -1], [0, 0, 0, 0]])
        assert hash(p) == hash(Presentation(4, [[0, 2, 0, -1], [0, 0, 0, 0]]))
        assert p != Presentation(4, ((0, 2, 0, -1),))
        assert p != Presentation(5, ((0, 2, 0, -1, 0), (0, 0, 0, 0, 0)))
