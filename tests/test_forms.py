"""Form grammar, exact evaluation, signature and determinant."""

import math
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourfold.forms import (
    DegenerateFormError,
    FormError,
    FormParseError,
    IntegerMatrix,
    IntersectionForm,
    _parse_matrix_literal,
    build_form,
    read_ints,
)
from oracles import (
    E8_ROWS,
    H_ROWS,
    block_sum,
    cofactor_determinant,
    contiguous_blocks,
    descartes_signature,
    matmul,
    quadratic_value,
    rational_determinant,
    transpose,
)


@st.composite
def symmetric_rows(draw, max_n=5, magnitude=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(st.integers(min_value=-magnitude, max_value=magnitude))
            rows[i][j] = rows[j][i] = v
    return rows


# small entries, and entries on either side of the int64 limits
_ORACLE_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.integers(2**63 - 2, 2**63 + 1).flatmap(lambda v: st.sampled_from([v, -v])),
)


@st.composite
def oracle_rows(draw, max_n=6):
    """Symmetric rows, some with a zero diagonal, some made degenerate on purpose."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    zero_diagonal = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            rows[i][j] = rows[j][i] = draw(_ORACLE_ENTRY)
    if n > 1 and draw(st.booleans()):
        # E^T A E with E's last column replaced by v (v[-1] = 0): det E = 0
        v = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1)) + [0]
        e = [[int(i == j) for j in range(n - 1)] + [v[i]] for i in range(n)]
        rows = matmul(transpose(e), rows, e)
    return rows


class TestGrammar:
    def test_single_hyperbolic(self):
        q = build_form("H")
        assert q.matrix.entries() == ((0, 1), (1, 0))

    def test_hyperbolic_sum(self):
        q = build_form("3H")
        assert q.rank == 6
        assert q.matrix.entries()[2][3] == 1
        assert q.matrix.entries()[0][3] == 0
        assert q == IntersectionForm.hyperbolic(3)

    def test_diagonal(self):
        q = build_form("diag(1,-1,-1)")
        assert q.matrix.entries() == ((1, 0, 0), (0, -1, 0), (0, 0, -1))

    def test_matrix_literal(self):
        assert build_form("matrix [[0,1],[1,0]]") == build_form("H")
        # CP2 # 40 CP2bar written as a literal: 41 rows, each 41 wide with
        # one nonzero entry, the shape a matrix row is read in
        entries = [1] + [-1] * 40
        rows = [",".join(str(d) if j == i else "0" for j in range(41))
                for i, d in enumerate(entries)]
        wide = build_form("matrix [[" + "],[".join(rows) + "]]")
        diagonal = build_form("diag(" + ",".join(map(str, entries)) + ")")
        assert wide == diagonal
        assert wide.matrix == diagonal.matrix

    def test_whitespace_and_signs(self):
        assert build_form("  2H ") == build_form("2H")
        assert build_form("diag( +1 , -1 )") == build_form("diag(1,-1)")
        assert build_form("matrix [ [0, 1], [1, 0] ]") == build_form("H")

    @pytest.mark.parametrize(
        "bad",
        ["", "0H", "-1H", "diag()", "diag(1,)", "H2",
         "matrix [[1,2]]", "matrix [1,2]", "diag(a)", "2 H H",
         pytest.param("diag(\uff11)", id="fullwidth-digit"),
         pytest.param("\u0662H", id="arabic-indic-count"),
         pytest.param("matrix [[\u0661]]", id="arabic-indic-entry"),
         pytest.param("diag(1,\u3000-1)", id="ideographic-space"),
         pytest.param("diag(1,\u00a0-1)", id="no-break-space"),
         pytest.param("2\u3000H", id="ideographic-space-hyperbolic"),
         pytest.param("matrix [[1,\u00a00],[0,1]]", id="no-break-space-matrix"),
         pytest.param("matrix [[1 2]]", id="space-inside-entry"),
         pytest.param("matrix [[1,- 1],[-1,1]]", id="space-after-sign"),
         pytest.param("matrix [[]]", id="empty-row"),
         pytest.param(3, id="not-a-string")],
    )
    def test_rejects(self, bad):
        with pytest.raises(FormParseError):
            build_form(bad)

    @pytest.mark.parametrize(
        "bad",
        ["matrix [[0,1],[2,0]]", "matrix [[1,2],[3]]",
         # an entry whose mirror is 0, alone and in a later component
         "matrix [[0,0],[1,0]]", "matrix [[1,0,0],[0,1,0],[0,2,1]]"],
    )
    def test_rejects_bad_matrices(self, bad):
        with pytest.raises(FormError):
            build_form(bad)

    def test_matrix_literal_agrees_with_the_group_template_squeeze(self):
        # the literal reader against the squeeze with a group template and
        # IntegerMatrix's entry check, on seeded literals with ASCII
        # whitespace (and a few other bytes) around and inside the tokens
        def oracle(literal):
            squeezed = re.sub(r"\s*([][,])\s*", r"\1", literal, flags=re.ASCII)
            if not (squeezed.startswith("[[") and squeezed.endswith("]]")):
                raise FormParseError(f"malformed matrix literal: {literal!r}")
            body = squeezed[2:-2]
            if "[" in body.replace("],[", "") or "]" in body.replace("],[", ""):
                raise FormParseError(f"malformed matrix literal: {literal!r}")
            rows = []
            for chunk in body.split("],["):
                if not chunk:
                    raise FormParseError("matrix rows must be nonempty")
                rows.append(read_ints(chunk, "matrix entry", FormParseError))
            matrix = IntegerMatrix(rows)
            if matrix.rows != matrix.cols:
                raise FormParseError("matrix literal must be square")
            return rows, IntersectionForm(matrix)

        def outcome(read, literal):
            try:
                return read(literal)
            except FormError as exc:
                return type(exc), str(exc)

        def reader(literal):
            return _parse_matrix_literal(literal), build_form("matrix " + literal)

        rng = random.Random(26)
        spaces = " \t\n\r\x0b\x0c"
        extra = ["\x1c", "\u00a0", "x", "[", "]", ",", "", "+", "-"]
        kinds = Counter()
        for _ in range(600):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    rows[i][j] = rows[j][i]
            if rng.random() < 0.2:  # ragged or not square
                rows[rng.randrange(n)].append(rng.randint(-9, 9))
            if rng.random() < 0.1:
                rows.append([1] * len(rows[0]))
            tokens = ["["]
            for i, row in enumerate(rows):
                tokens += [",", "["] if i else ["["]
                for j, x in enumerate(row):
                    entry = f"{x:+d}" if rng.random() < 0.2 else str(x)
                    if rng.random() < 0.05:  # whitespace inside the entry
                        at = rng.randint(0, len(entry))
                        entry = entry[:at] + rng.choice(spaces) + entry[at:]
                    tokens += ([","] if j else []) + [entry]
                tokens.append("]")
            tokens.append("]")
            pieces = []
            for token in tokens:
                if rng.random() < 0.4:
                    pieces.append("".join(rng.choices(spaces, k=rng.randint(1, 3))))
                pieces.append(token)
            if rng.random() < 0.15:  # a byte out of place, or one taken away
                at = rng.randrange(len(pieces))
                pieces[at] = rng.choice(extra)
            if rng.random() < 0.2:  # build_form strips it; the literal reader sees it
                pieces.append(rng.choice(spaces))
            literal = "".join(pieces)
            got, expected = outcome(reader, literal), outcome(oracle, literal)
            if isinstance(expected, tuple) and isinstance(expected[0], type):
                assert got == expected, literal
                kinds[expected[1].split(",")[0].split(":")[0]] += 1
            else:
                assert got[0] == expected[0] and got[1] == expected[1], literal
                kinds["read"] += 1
        # good literals and each kind of error were drawn
        assert kinds["read"] > 200
        assert len(kinds) >= 6, kinds

    def test_descriptor_round_trip(self):
        for spec in ["H", "4H", "diag(1,-1)", "matrix [[2,1],[1,2]]"]:
            q = build_form(spec)
            assert build_form(q.descriptor()) == q


class TestEvaluation:
    def test_hyperbolic_square(self):
        q = build_form("H")
        assert q.evaluate([-2, 2]) == -8

    def test_hyperbolic_pairing(self):
        q = build_form("H")
        assert q.pair([-2, 2], [2, -2]) == 8

    def test_two_hyperbolic_square(self):
        assert build_form("2H").evaluate([2, 2, 2, -4]) == -8

    def test_pairing_on_a_block_sum(self):
        # x is zero on whole blocks and inside E8; y is dense, so each
        # nonzero coordinate of x must meet y through its own block's row
        rows = block_sum(H_ROWS, [[1, 1], [1, 0]], E8_ROWS, [[-3]], H_ROWS)
        q = IntersectionForm(IntegerMatrix(rows))
        assert len(q.block_rows) == 5
        x = [0, 0, 0, 5, 0, -2, 0, 0, 0, 0, 7, 0, 4, 0, 0]
        y = list(range(-7, 8))
        expected = sum(x[i] * rows[i][j] * y[j] for i in range(15) for j in range(15))
        # 5 * y[2] - 2 * (-y[4] + 2 * y[5] - y[6]) + 7 * (-y[9] + 2 * y[10]) + 4 * -3 * y[12]
        assert q.pair(x, y) == expected == -25 + 0 + 28 - 60

    def test_dimension_mismatch(self):
        with pytest.raises(FormError):
            build_form("H").evaluate([1, 2, 3])

    @given(symmetric_rows())
    def test_pairing_symmetric(self, rows):
        q = IntersectionForm(IntegerMatrix(rows))
        n = q.rank
        x = [(i * 7 - 3) % 11 - 5 for i in range(n)]
        y = [(i * 5 + 2) % 9 - 4 for i in range(n)]
        assert q.pair(x, y) == q.pair(y, x)

    @given(symmetric_rows(), st.integers(-6, 6), st.integers(-6, 6))
    def test_pairing_bilinear(self, rows, alpha, beta):
        q = IntersectionForm(IntegerMatrix(rows))
        n = q.rank
        x = [(i * 3 + 1) % 7 - 3 for i in range(n)]
        y = [(i * 2 - 1) % 5 - 2 for i in range(n)]
        z = [(i + 4) % 6 - 3 for i in range(n)]
        combined = [alpha * a + beta * b for a, b in zip(x, y)]
        assert q.pair(combined, z) == alpha * q.pair(x, z) + beta * q.pair(y, z)

    def test_hyperbolic_sum_closed_form(self):
        # q(x) on kH is 2 * sum of coordinate-pair products
        rng = random.Random(7)
        for k in (1, 2, 4):
            q = IntersectionForm.hyperbolic(k)
            for _ in range(25):
                x = [rng.randint(-50, 50) for _ in range(2 * k)]
                expected = 2 * sum(x[2 * i] * x[2 * i + 1] for i in range(k))
                assert q.evaluate(x) == expected

    def test_exact_at_large_magnitudes(self):
        q = build_form("H")
        big = 2**200 + 3
        assert q.evaluate([big, big]) == 2 * big * big

    @pytest.mark.parametrize(
        "x, y, bad",
        [
            ((True, 0, 0, 0), None, "True"),
            ((0, 0, 1.5, 0), None, "1.5"),
            ((2, 0, 0.0, 0), None, "0.0"),  # at a zero coordinate, still refused
            ((2, 2, 0, 0), (0, 0, 0, 0.0), "0.0"),  # in the second vector
            ((2, "1", True, 0), None, "'1'"),  # the first bad entry is named
        ],
    )
    def test_pairing_refuses_entries_that_are_not_ints(self, x, y, bad):
        with pytest.raises(FormError, match=f"must be integers, got {bad}$"):
            build_form("2H").pair(x, x if y is None else y)

    def test_pairing_takes_an_int_subclass(self):
        class Coefficient(int):
            pass

        x = [Coefficient(4), 2, 0, Coefficient(0)]
        assert build_form("2H").evaluate(x) == 16
        assert build_form("2H").pair(x, [1, 1, 1, 1]) == 6


class TestParity:
    def test_even_forms(self):
        assert build_form("H").is_even
        assert build_form("3H").is_even
        assert build_form("diag(2,-4)").is_even

    def test_odd_forms(self):
        assert not build_form("diag(1)").is_even
        assert not build_form("diag(1,-1,-1)").is_even


class TestSignature:
    def test_hyperbolic(self):
        assert build_form("H").signature == 0
        assert build_form("4H").signature == 0

    def test_diagonal_example(self):
        assert build_form("diag(1,-1,-1)").signature == -1

    def test_non_unimodular(self):
        assert build_form("diag(2)").signature == 1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFormError):
            _ = build_form("diag(1,0)").signature

    @given(st.lists(st.integers(-9, 9).filter(lambda v: v != 0), min_size=1, max_size=7))
    def test_diagonal_closed_form(self, diag):
        q = IntersectionForm.diagonal(diag)
        assert q.signature == sum(1 if d > 0 else -1 for d in diag)

    @given(oracle_rows())
    @example([[0, 2], [2, 0]])
    @example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    @example([[0, 0], [0, 0]])
    @settings(max_examples=200)
    def test_matches_exact_oracles(self, rows):
        q = IntersectionForm(IntegerMatrix(rows))
        determinant = cofactor_determinant(rows)
        assert q.determinant == determinant
        if determinant == 0:
            with pytest.raises(DegenerateFormError):
                _ = q.signature
        else:
            assert q.signature == descartes_signature(rows)

    def test_congruence_invariance(self):
        # signature is invariant under Q -> S^T Q S for unimodular S
        rng = random.Random(20240817)
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-6, 6)
            q = IntersectionForm(IntegerMatrix(rows))
            if q.determinant == 0:
                continue
            s = _random_unimodular(rng, n)
            transformed = IntersectionForm(IntegerMatrix(matmul(transpose(s), rows, s)))
            assert transformed.signature == q.signature


def _permuted_block_sum(blocks, perm):
    """The block sum of blocks, rows and columns both reordered by perm."""
    q = block_sum(*blocks)
    return [[q[i][j] for j in perm] for i in perm]


@st.composite
def permuted_block_sums(draw):
    """(rows, blocks): H, E8, <d> and small symmetric blocks, summed and permuted."""
    block = st.one_of(
        st.just([[0, 1], [1, 0]]),
        st.integers(-5, 5).map(lambda d: [[d]]),
        symmetric_rows(max_n=3, magnitude=3),
    )
    blocks = draw(st.lists(block, min_size=1, max_size=4))
    if draw(st.booleans()):
        sign = draw(st.sampled_from([1, -1]))
        e8 = [[sign * x for x in row] for row in E8_ROWS]
        blocks.insert(draw(st.integers(0, len(blocks))), e8)
    n = sum(len(b) for b in blocks)
    return _permuted_block_sum(blocks, draw(st.permutations(range(n)))), blocks


class TestBlockwisePass:
    @given(permuted_block_sums())
    @settings(max_examples=150, derandomize=True)
    def test_matches_oracles(self, case):
        rows, blocks = case
        q = IntersectionForm(IntegerMatrix(rows))
        determinant = math.prod(cofactor_determinant(b) for b in blocks)
        if len(rows) <= 6:
            assert cofactor_determinant(rows) == determinant
        assert q.determinant == determinant
        if determinant == 0:
            with pytest.raises(DegenerateFormError):
                _ = q.signature
        else:
            assert q.signature == descartes_signature(rows)

    def test_one_degenerate_block(self):
        blocks = [[[0, 1], [1, 0]], E8_ROWS, [[1, 1], [1, 1]], [[3]]]
        perm = list(range(13))
        random.Random(6).shuffle(perm)
        q = IntersectionForm(IntegerMatrix(_permuted_block_sum(blocks, perm)))
        assert q.determinant == 0
        with pytest.raises(DegenerateFormError):
            _ = q.signature

    def test_large_hyperbolic_sum(self):
        perm = list(range(160))
        random.Random(80).shuffle(perm)
        q = IntersectionForm(IntegerMatrix(_permuted_block_sum([[[0, 1], [1, 0]]] * 80, perm)))
        assert (q.determinant, q.signature) == (1, 0)


def _random_unimodular(rng, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            factor = rng.randint(-3, 3)
            for t in range(n):
                rows[i][t] += factor * rows[j][t]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return rows


class TestDeterminant:
    def test_known_values(self):
        assert build_form("H").determinant == -1
        assert build_form("2H").determinant == 1
        assert build_form("diag(2,3)").determinant == 6
        assert build_form("diag(1,0)").determinant == 0

    @given(symmetric_rows(max_n=5, magnitude=7))
    @settings(max_examples=60)
    def test_matches_cofactor_expansion(self, rows):
        assert IntegerMatrix(rows).determinant() == cofactor_determinant(rows)

    def test_unimodularity(self):
        assert build_form("H").is_unimodular
        assert build_form("5H").is_unimodular
        assert build_form("diag(1,-1)").is_unimodular
        assert not build_form("diag(2)").is_unimodular

    def test_exact_large_entries(self):
        # values chosen to break float arithmetic: near powers of two
        a = 2**63 + 1
        m = IntegerMatrix([[a, 1], [1, a]])
        assert m.determinant() == a * a - 1

    def test_needs_a_symmetric_matrix(self):
        for rows in (
            [[1, 2], [3, 4]], [[1, 2, 3], [4, 5, 6]], [[0, 1], [-1, 0]],
            [[0, 0], [1, 0]], [[1, 0, 0], [0, 1, 0], [0, 2, 1]],
        ):
            with pytest.raises(FormError, match="^determinant needs a symmetric matrix$"):
                IntegerMatrix(rows).determinant()


class TestHyperbolicRecognition:
    def test_recognizes_literal_sums(self):
        assert build_form("H").hyperbolic_summands == 1
        assert build_form("7H").hyperbolic_summands == 7

    def test_rejects_lookalikes(self):
        assert build_form("diag(1,-1)").hyperbolic_summands is None
        assert build_form("matrix [[0,2],[2,0]]").hyperbolic_summands is None
        # an H block out of pair position does not count
        off = IntegerMatrix(
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
        )
        assert IntersectionForm(off).hyperbolic_summands is None

    def test_rejects_permuted_and_mixed_sums(self):
        # 2H in the basis e1, e2, f1, f2: one block of rank 4, not two H blocks
        permuted = build_form("matrix [[0,0,1,0],[0,0,0,1],[1,0,0,0],[0,1,0,0]]")
        assert permuted.hyperbolic_summands is None
        assert permuted.descriptor().startswith("matrix")
        mixed = IntersectionForm(IntegerMatrix(block_sum(H_ROWS, [[1]])))
        assert mixed.hyperbolic_summands is None
        assert mixed.descriptor() == "matrix [[0,1,0],[1,0,0],[0,0,1]]"


class TestBlocks:
    def test_block_sum(self):
        q = IntersectionForm(IntegerMatrix(block_sum(E8_ROWS, H_ROWS)))
        assert q.blocks == ((0, 8), (8, 10))

    def test_rank_zero(self):
        assert IntersectionForm(IntegerMatrix([])).blocks == ()

    def test_diagonal(self):
        assert build_form("diag(1,-1,2)").blocks == ((0, 1), (1, 2), (2, 3))

    def test_interleaved_components_merge(self):
        # {0, 2} and {1} are components, but {0, 2} spans index 1
        assert build_form("matrix [[1,0,1],[0,1,0],[1,0,2]]").blocks == ((0, 3),)

    def test_literal_holds_only_its_blocks(self):
        # the dense view of a literal is built from its blocks when first read
        rows = ((1, 0, 1, 0), (0, 1, 0, 0), (1, 0, 2, 0), (0, 0, 0, -1))
        literal = "matrix [" + ",".join(str(list(row)) for row in rows) + "]"
        for form in (build_form(literal), IntersectionForm(IntegerMatrix(rows))):
            assert "matrix" not in vars(form)
            assert form.block_rows == (tuple(row[:3] for row in rows[:3]), ((-1,),))
            assert form.matrix.entries() == rows
            assert "matrix" in vars(form)


# H, <1>, <-1>, <2>, <0>, E8, an odd rank-2 block and a degenerate one
_SUMMANDS = [H_ROWS, [[1]], [[-1]], [[2]], [[0]], E8_ROWS, [[1, 1], [1, 0]], [[1, 1], [1, 1]]]


@st.composite
def stored_block_sums(draw):
    """Rows of a block sum of _SUMMANDS, sometimes permuted."""
    blocks = draw(st.lists(st.sampled_from(_SUMMANDS), min_size=1, max_size=5))
    n = sum(len(b) for b in blocks)
    perm = draw(st.permutations(range(n))) if draw(st.booleans()) else range(n)
    return _permuted_block_sum(blocks, perm)


class TestBlockStorage:
    """A literal, its descriptor's form, its dense view's form and its blocks agree."""

    @given(stored_block_sums(), st.randoms(use_true_random=False))
    @example(block_sum(H_ROWS, H_ROWS, H_ROWS), random.Random(0))
    @example(block_sum([[1]], [[-1]], [[0]], [[2]]), random.Random(0))
    @example(_permuted_block_sum([H_ROWS, [[1]], H_ROWS], [4, 0, 2, 1, 3]), random.Random(0))
    @settings(max_examples=150, derandomize=True)
    def test_constructions_agree_with_the_oracles(self, rows, rng):
        q = IntersectionForm(IntegerMatrix(rows))
        entries = tuple(map(tuple, rows))
        spans = tuple(contiguous_blocks(rows))
        split = tuple(tuple(row[a:b] for row in entries[a:b]) for a, b in spans)
        forms = [
            q,
            build_form(q.descriptor()),
            IntersectionForm(IntegerMatrix(q.matrix.entries())),
            IntersectionForm._of_blocks(split),
        ]
        changed = [row[:] for row in rows]
        changed[0][0] += 1
        other = IntersectionForm(IntegerMatrix(changed))
        determinant = rational_determinant(rows)
        n = len(rows)
        kh = n // 2 if rows == block_sum(*[H_ROWS] * (n // 2)) else None
        vectors = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(5)]
        for form in forms:
            assert form == q and hash(form) == hash(q) and form != other
            assert form.matrix.entries() == entries
            assert (form.blocks, form.block_rows) == (spans, split)
            assert form.rank == n and form.determinant == determinant
            if determinant:
                assert form.signature == descartes_signature(rows)
            else:
                with pytest.raises(DegenerateFormError):
                    _ = form.signature
            assert form.is_even == all(rows[i][i] % 2 == 0 for i in range(n))
            if determinant in (1, -1):
                # the residue c is the unique class with Q c = diag Q mod 2
                c = form.characteristic_residue
                assert set(c) <= {0, 1}
                assert all((sum(map(math.prod, zip(row, c))) - row[i]) % 2 == 0
                           for i, row in enumerate(rows))
            else:
                with pytest.raises(FormError):
                    _ = form.characteristic_residue
            assert form.hyperbolic_summands == kh
            assert form.descriptor() == q.descriptor()
            for x in vectors:
                assert form.evaluate(x) == quadratic_value(rows, x)

    @pytest.mark.parametrize("entries", [[1.5], [True], []])
    def test_diagonal_rejects_non_integer_and_empty_entries(self, entries):
        with pytest.raises(FormError):
            IntersectionForm.diagonal(entries)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: IntersectionForm(IntegerMatrix([[1, 0]])), "an intersection form must be square"),
            (lambda: IntersectionForm.hyperbolic(0), "hyperbolic sum needs k >= 1"),
            (
                lambda: IntersectionForm(IntegerMatrix([[0, 0], [1, 0]])),
                "an intersection form must be symmetric",
            ),
            (
                lambda: IntersectionForm(IntegerMatrix([[1, 0, 0], [0, 1, 0], [0, 2, 1]])),
                "an intersection form must be symmetric",
            ),
        ],
        ids=["not-square", "no-planes", "not-symmetric", "not-symmetric-later-component"],
    )
    def test_constructors_refuse(self, build, message):
        with pytest.raises(FormError, match=f"^{re.escape(message)}$"):
            build()

    def test_large_hyperbolic_metadata_stays_small(self, time_limit):
        # the blocks are 2000 references to one H: no 4000 x 4000 matrix is built
        time_limit(10)
        tracemalloc.start()
        try:
            q = build_form("2000H")
            assert q.signature == 0
            assert q.characteristic_residue == (0,) * 4000
            assert q.blocks == tuple((a, a + 2) for a in range(0, 4000, 2))
            assert q.descriptor() == "2000H"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestIntegerMatrix:
    def test_rejects_ragged(self):
        with pytest.raises(FormError):
            IntegerMatrix([[1, 2], [3]])

    def test_rejects_non_integers(self):
        with pytest.raises(FormError):
            IntegerMatrix([[1.5]])
        with pytest.raises(FormError):
            IntegerMatrix([[True]])
