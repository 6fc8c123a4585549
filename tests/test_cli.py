"""CLI behavior: formats, exit codes, precedence, and deterministic output."""

import dataclasses
import io
import itertools
import json
import math
import os
import random
import re
import string
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import cached_property
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fourfold
from fourfold import cli, obstruction, search
from fourfold.abelian import Presentation, PresentationError, abelianize
from fourfold.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    ManifoldFileError,
    _emit_enumeration_json,
    _json_layout,
    _json_text,
    build_parser,
    format_manifold_file,
    main,
    parse_manifold_file,
)
from fourfold.abelian import AbelianGroup
from fourfold.classification import exclude_complex, exclude_symplectic
from fourfold.families import _FAMILIES, FamilyId, family_invariants
from fourfold.forms import IntegerMatrix, IntersectionForm, read_int, read_ints, read_sparse_ints
from fourfold.obstruction import (
    ChernWitness,
    ManifoldInvariants,
    almost_complex_excluded,
    enumerate_chern_classes,
    resolve_w2,
    wu_target,
)
from oracles import E8_ROWS, H_ROWS, block_sum

GOOD_FILE = """\
# a product of a torus and a genus-2 surface, say
name = sample
chi = -4
tau = 0
form = H
b1 = 4
h1 = Z^4
w2 = 0
"""

_LONG = "1" * 5001  # more digits than int() reads by default (4300)

# presentation lines appended to GOOD_FILE (whose last line is line 8) that
# break the names/word grammar, and the message each gives
_WORD_ERRORS = [
    ("names = a,b\nword = a z\n", "unknown generator 'z'"),
    ("names = a\nword = a^\n", "cannot parse word token 'a^'"),
    ("names = a\nword = a^^1\n", "cannot parse word token 'a^^1'"),
    ("names = a\nword = 1a\n", "cannot parse word token '1a'"),
    ("names = a,a\nword = a\n", "generator names must be distinct"),
    ("names = a,1b\n", "cannot parse generator name '1b'"),
    ("word = a\n", "word lines need a names line"),
    (
        "gens = 1\nnames = a\n",
        "line 10: a names line cannot join the gens line on line 9; "
        "a presentation is gens and rel lines or names and word lines",
    ),
    (
        "names = a\nrel = 1\n",
        "line 10: a rel line cannot join the names line on line 9; "
        "a presentation is gens and rel lines or names and word lines",
    ),
    ("names = a,b\nword = a\x1cb\n", "cannot parse word token 'a\\x1cb'"),
    (
        f"names = a\nword = a^{_LONG}\n",
        f"word exponent is too long: 5001 digits, at most {sys.get_int_max_str_digits()} are read",
    ),
    ("gens = -1\n", "generator count must be nonnegative"),
]
_WORD_ERROR_IDS = [
    "unknown-generator", "empty-exponent", "double-caret", "digit-first", "duplicate-names",
    "bad-name", "word-without-names", "names-with-gens", "names-with-rel", "x1c-in-word",
    "long-exponent", "negative-gens",
]

# the family specs of the benchmark corpus
_CORPUS_FAMILY_SPECS = (
    [f"M1 g={g}" for g in (1, 2, 3, 4, 8, 50)]
    + [f"M{kind} g={g} n={n}" for kind in (2, 3) for g in (1, 3) for n in (1, 3)]
    + [f"M4 n={n}" for n in (1, 2, 3, 5, 10, 20, 40, 80)]
)


def _diag_file(entries, b1=0, bits=None) -> str:
    """A valid record on a diagonal form; w2 is the residue when it is unimodular."""
    if all(abs(e) == 1 for e in entries) or bits is None:
        bits = [e & 1 for e in entries]
    tau = sum(1 if e > 0 else -1 for e in entries)
    return (
        f"name = d\nchi = {2 - 2 * b1 + len(entries)}\ntau = {tau}\n"
        f"form = diag({','.join(map(str, entries))})\nb1 = {b1}\nh1 = Z^{b1}\n"
        f"w2 = {','.join(map(str, bits))}\n"
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestManifoldFiles:
    def test_parse_minimal(self):
        m = parse_manifold_file(GOOD_FILE)
        assert m.name == "sample"
        assert (m.chi, m.tau, m.b1) == (-4, 0, 4)
        assert m.form.descriptor() == "H"
        assert m.w2 == (0, 0)
        assert m.presentation is None

    def test_round_trip_all_families(self):
        for fid in [
            FamilyId("M1", g=2),
            FamilyId("M2", g=1, n=3),
            FamilyId("M3", g=2, n=1),
            FamilyId("M4", n=2),
            FamilyId("M4", n=80),
        ]:
            m = family_invariants(fid)
            assert parse_manifold_file(format_manifold_file(m)) == m
        # no generators: the one relation is written as an empty "rel = "
        m = parse_manifold_file(GOOD_FILE)
        m = dataclasses.replace(m, presentation=Presentation(0, ((),)))
        assert "\nrel = \n" in format_manifold_file(m)
        assert parse_manifold_file(format_manifold_file(m)) == m

    @pytest.mark.parametrize(
        "name, problem",
        [
            ("CP2 # 0 CP2bar", "holds '#', which starts a comment"),
            ("a\nchi = 5", "holds a line break, which ends the line"),
            (" a", "has whitespace at an end, which the reader strips"),
            ("a\t", "has whitespace at an end, which the reader strips"),
        ],
    )
    def test_a_name_that_reads_back_differently_is_refused(self, name, problem):
        m = dataclasses.replace(parse_manifold_file(GOOD_FILE), name=name)
        with pytest.raises(ManifoldFileError) as info:
            format_manifold_file(m)
        assert str(info.value) == f"cannot write the name {name!r}: it {problem}"

    @given(st.text(alphabet="#\n\t =ab", max_size=8))
    @example("a = b")
    @example("")
    @settings(max_examples=200, deadline=None)
    def test_names_round_trip_or_are_refused(self, name):
        m = dataclasses.replace(parse_manifold_file(GOOD_FILE), name=name)
        try:
            text = format_manifold_file(m)
        except ManifoldFileError:
            return
        assert parse_manifold_file(text).name == name

    def test_w2_explicit_bits(self):
        text = GOOD_FILE.replace("w2 = 0", "w2 = 0,0")
        assert parse_manifold_file(text).w2 == (0, 0)

    def test_w2_omitted(self):
        text = GOOD_FILE.replace("w2 = 0\n", "")
        assert parse_manifold_file(text).w2 is None

    def test_crlf_line_ends(self):
        assert parse_manifold_file(GOOD_FILE.replace("\n", "\r\n")) == parse_manifold_file(
            GOOD_FILE
        )

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_only_newline_ends_a_line(self, capsys, tmp_path, char):
        # str.splitlines() would split "name = sample<char>chi = -4" in two
        path = tmp_path / "m.man"
        path.write_text(
            GOOD_FILE.replace("name = sample\nchi = -4", f"name = sample{char}chi = -4"),
            encoding="ascii",
        )
        code, out, err = run(capsys, "validate", "--file", str(path))
        assert code == EXIT_PARSE
        assert "missing required keys: chi" in err
        assert out == ""

    @pytest.mark.parametrize(
        "spec",
        [f"M1 g={g}" for g in (1, 2, 3, 4, 8, 50)]
        + [f"M{kind} g={g} n={n}" for kind in (2, 3) for g in (1, 3) for n in (1, 3)]
        + [f"M4 n={n}" for n in (1, 2, 3, 5, 10, 20, 40, 80)],
    )
    def test_parsed_presentation_equals_built(self, spec):
        # the corpus's family specs: a file's sparse rows equal the ones
        # family_invariants reads from the relator words
        built = family_invariants(FamilyId.parse(spec))
        parsed = parse_manifold_file(format_manifold_file(built))
        assert parsed == built
        assert parsed.presentation == built.presentation
        assert hash(parsed.presentation) == hash(built.presentation)

    @pytest.mark.parametrize("spec", ["M1 g=2", "M2 g=1 n=3", "M4 n=3", "M4 n=80"])
    def test_relations_round_trip(self, spec):
        # a family is written as its names and its builder's words; the same
        # rows without words are written as dense rel lines
        fid = FamilyId.parse(spec)
        m = family_invariants(fid)
        p = m.presentation
        family = _FAMILIES[fid.kind]
        names, words = family.words(*(getattr(fid, key) for key in family.params))
        text = format_manifold_file(m)
        lines = text.splitlines()
        assert [line for line in lines if line.startswith(("names = ", "word = "))] == [
            "names = " + ",".join(names)
        ] + ["word = " + word for word in words]
        assert not any(line.startswith(("gens = ", "rel = ")) for line in lines)
        parsed = parse_manifold_file(text).presentation
        assert (parsed.relations, parsed.names, parsed.words) == (p.relations, p.names, p.words)

        twin = dataclasses.replace(m, presentation=Presentation(p.generators, p.relations))
        text = format_manifold_file(twin)
        rel_lines = [line for line in text.splitlines() if line.startswith("rel = ")]
        assert rel_lines == ["rel = " + ",".join(map(str, rel)) for rel in p.relations]
        parsed = parse_manifold_file(text).presentation
        assert parsed.relations == p.relations
        assert parsed.names is parsed.words is None

    @pytest.mark.parametrize("spec", _CORPUS_FAMILY_SPECS)
    def test_word_records_round_trip(self, spec):
        built = family_invariants(FamilyId.parse(spec))
        text = format_manifold_file(built)
        parsed = parse_manifold_file(text)
        assert parsed == built
        p, q = parsed.presentation, built.presentation
        if q is None:  # M3
            assert p is None
        else:
            assert (p.names, p.words) == (q.names, q.words)
            assert q.words is not None and len(q.words) == len(q.rows)
        assert format_manifold_file(parsed) == text

    def test_word_record_equals_its_rel_twin(self):
        # seeded random words, empty ones and exponents that cancel among
        # them, against exponent sums added up here
        rng = random.Random(26)
        for trial in range(60):
            n = rng.randint(0, 6)
            names = rng.sample(["a", "b1", "_c", "d_2", "E", "f9", "g", "h_"], n)
            words, sums = [], []
            for _ in range(rng.randint(0, 5)):
                tokens, vector = [], [0] * n
                for _ in range(rng.randint(0, 6) if n else 0):
                    i = rng.randrange(n)
                    x = rng.choice([1, 1, -1, 2, -3, 0, 12])
                    tokens.append(names[i] if x == 1 and rng.random() < 0.5 else f"{names[i]}^{x:+d}")
                    vector[i] += x
                    if rng.random() < 0.2:  # the syllable and its inverse
                        tokens.append(f"{names[i]}^{-x}")
                        vector[i] -= x
                words.append(rng.choice([" ", "\t", "  "]).join(tokens))
                sums.append(tuple(vector))
            p = Presentation.from_words(names, words)
            twin = Presentation(n, sums)
            assert p.relations == tuple(sums)
            assert p == twin and hash(p) == hash(twin)
            assert abelianize(p) == abelianize(twin)
            record = dataclasses.replace(parse_manifold_file(GOOD_FILE), presentation=p)
            twin_record = dataclasses.replace(record, presentation=twin)
            text, twin_text = format_manifold_file(record), format_manifold_file(twin_record)
            assert "\nword = " in text or not words
            assert "\nrel = " in twin_text or not words
            parsed, parsed_twin = parse_manifold_file(text), parse_manifold_file(twin_text)
            assert parsed == parsed_twin == record == twin_record
            assert parsed.presentation.words == p.words
            assert abelianize(parsed.presentation) == abelianize(parsed_twin.presentation)

    def test_relation_length_message(self, capsys, tmp_path):
        text = GOOD_FILE + "gens = 2\nrel = 1\n"
        message = "relation (1,) does not have 2 entries"
        with pytest.raises(ManifoldFileError) as exc:
            parse_manifold_file(text)
        assert str(exc.value) == message
        with pytest.raises(PresentationError) as exc:
            Presentation(2, ((1,),))
        assert str(exc.value) == message
        path = tmp_path / "short.man"
        path.write_text(text, encoding="ascii")
        assert run(capsys, "validate", "--file", str(path)) == (EXIT_PARSE, "", f"error: {message}\n")

    def test_memory_follows_the_text_not_the_row_width(self):
        # one relation 200,000 entries wide with three nonzeros.  The parse
        # holds a few copies of the line (the split lines, the value, its
        # marked bytes); a dense row would add 8 bytes an entry, four times
        # the text's 2
        width = 200_000
        cells = ["0"] * width
        cells[3], cells[width // 2], cells[-1] = "5", "-7", "1"
        text = GOOD_FILE + f"gens = {width}\nrel = " + ",".join(cells) + "\n"
        tracemalloc.start()
        try:
            m = parse_manifold_file(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.presentation.rows == (((3, 5), (width // 2, -7), (width - 1, 1)),)
        assert peak < 5 * len(text) + 256 * 3 + 2**16

    def test_presentation_lines(self):
        text = GOOD_FILE.replace("w2 = 0\n", "") + "gens = 2\nrel = 0,3\n"
        m = parse_manifold_file(text)
        assert m.presentation.generators == 2
        assert m.presentation.relations == ((0, 3),)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda t: t.replace("chi = -4\n", ""),              # missing key
            lambda t: t + "chi = 9\n",                          # duplicate
            lambda t: t + "color = blue\n",                     # unknown key
            lambda t: t + "rel = 1,x\n",                        # bad relation
            lambda t: t + "rel = 1,2\n",                        # rel without gens
            lambda t: t.replace("w2 = 0", "w2 = a,b"),          # bad w2
            lambda t: t.replace("w2 = 0", "w2 = "),             # empty w2
            lambda t: t.replace("chi = -4", "chi = minus4"),    # non-integer
            lambda t: t + "just words\n",                       # no equals sign
        ]
        + [lambda t, lines=lines: t + lines for lines, _ in _WORD_ERRORS],
    )
    def test_rejects(self, mangle):
        with pytest.raises(ManifoldFileError):
            parse_manifold_file(mangle(GOOD_FILE))


def _int_split(text):
    """The relation grammar as plainly as it can be said: a charset, then int() per piece."""
    if not re.fullmatch(r"[0-9+\-,\s]*", text, re.ASCII):
        raise ValueError(text)
    return tuple(int(p) for p in text.split(","))


def _per_piece_error(text):
    """The message of the first piece read_int refuses."""
    try:
        for piece in text.split(","):
            read_int(piece.strip(string.whitespace), "entry", ValueError)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"read_int takes every piece of {text!r}")


def _check_sparse_scan(text):
    """read_sparse_ints gives the oracle's length and nonzeros, or, where the
    oracle refuses the text, the error read_int gives piece by piece."""
    expected = _outcome(_int_split, text)
    if expected is ValueError:
        with pytest.raises(ValueError) as exc:
            read_sparse_ints(text, "entry", ValueError)
        assert str(exc.value) == _per_piece_error(text)
    else:
        nonzeros = tuple((i, v) for i, v in enumerate(expected) if v)
        assert read_sparse_ints(text, "entry", ValueError) == (len(expected), nonzeros)


_PIECES = ["", "00", " 0", "-0", "0\t", "1", "-2", "+3", "10", "01", " 4 ", "1 2", "0 1", "+", "--1", "x"]

# the last relation row of M4 n=80: 401 entries, 3 of them nonzero, near its end
_M4_ROW = ",".join(map(str, family_invariants(FamilyId("M4", n=80)).presentation.relations[-1]))


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


class TestRelationGrammar:
    @given(st.text(alphabet="0120-+, \t", max_size=12))
    @settings(max_examples=500, derandomize=True)
    @example("")
    @example(",")
    @example("1,")
    @example("1 2")
    @example("--1")
    @example("+")
    @example("00,-00,+0")
    @example(" 0 , 1 ")
    @example("\t7\n,\v-3 ")
    @example("1_0")
    @example("\u0663")  # ARABIC-INDIC DIGIT THREE: int() takes it, the charset does not
    @example("1" + ",0" * 7)  # 15 bytes, one marked: a density guess once split this row
    @example("1" + ",0" * 8)  # 17 bytes, one marked: and scanned this one
    def test_ints_is_int_per_piece(self, text):
        def read(t):
            return read_ints(t, "entry", ValueError)

        assert _outcome(read, text) == _outcome(_int_split, text)

    @given(st.text(alphabet="0120-+, \t", max_size=12))
    @settings(max_examples=500, derandomize=True)
    @example("0" * 5001)  # a zero piece int() refuses as too long
    @example(",,")
    @example(",1")
    @example("1,")
    @example(" 0 ")
    @example("-0")
    @example("+")
    @example("0 0")
    @example("00,-00,+0")
    @example("\u0663")
    @example(_M4_ROW)
    @example("1" + ",0" * 7)  # 15 bytes, one marked: a density guess once split this row
    @example("1" + ",0" * 8)  # 17 bytes, one marked: and scanned this one
    def test_sparse_scan_is_int_per_piece(self, text):
        _check_sparse_scan(text)

    # rows long and sparse enough that the scan finds the nonzero pieces one
    # by one instead of splitting the text
    @given(
        st.lists(st.sampled_from(["0"] * 300 + _PIECES), min_size=40, max_size=200).map(",".join)
    )
    @settings(max_examples=300, derandomize=True)
    @example("0,,0")
    @example("0," * 20 + " 0 ,-00,+0,7")
    @example("0," * 40 + "1 2," + "0," * 40 + "0")
    def test_sparse_rows_are_int_per_piece(self, text):
        _check_sparse_scan(text)


# the names perfbench/layers.py wraps on cli: each must be looked up on cli
# at call time, or the traced benchmark loses that layer
_TRACED_ON_CLI = (
    "decide_almost_complex",
    "exclude_symplectic",
    "exclude_complex",
    "enumerate_chern_classes",
    "validate_invariants",
    "parse_manifold_file",
    "build_form",
)


def test_commands_call_the_names_a_tracer_wraps(capsys, tmp_path, monkeypatch):
    calls = dict.fromkeys(_TRACED_ON_CLI, 0)
    for name in _TRACED_ON_CLI:
        def counted(*args, _name=name, _f=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    path = tmp_path / "sample.man"
    path.write_text(GOOD_FILE, encoding="ascii")
    for command in ("analyze", "enumerate", "validate"):
        assert main([command, "--file", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert all(calls.values()), calls


class TestAnalyze:
    def test_family_report(self, capsys):
        code, out, err = run(capsys, "analyze", "--family", "M1 g=1")
        assert code == EXIT_OK and err == ""
        assert "manifold" in out and "M1(g=1)" in out
        assert "spin" in out and "Spin" in out
        assert "almost complex" in out and "Exists" in out
        assert "(-2, 2)" in out
        assert "square" in out and "-8" in out

    def test_obstructed_family_cascades(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "M4 n=3")
        assert code == EXIT_OK
        assert "NotExists" in out
        assert "mod-8 obstruction" in out
        assert out.count("no almost complex structure") == 2
        assert "class VII excluded: b1 = 7 != 1" in out
        assert "discrepancy" in out and "not a multiple of 8" in out

    def test_pi1_switch(self, capsys):
        _, plain, _ = run(capsys, "analyze", "--family", "M1 g=1")
        assert "Unknown" in plain and "surviving model" in plain
        _, assumed, _ = run(
            capsys, "analyze", "--family", "M1 g=1", "--assume-pi1-distinct"
        )
        assert "ConditionallyExcluded" in assumed
        assert "pi1 differs from ruled model S2 x Sigma_2" in assumed

    def test_file_equals_family(self, capsys, tmp_path):
        code, text, _ = run(capsys, "family", "--family", "M2 g=1 n=2")
        assert code == EXIT_OK
        path = tmp_path / "m.man"
        path.write_text(text, encoding="ascii")
        _, from_family, _ = run(capsys, "analyze", "--family", "M2 g=1 n=2")
        _, from_file, _ = run(capsys, "analyze", "--file", str(path))
        assert from_family == from_file

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "M1 g=2", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) + "\n" == out
        assert doc["manifold"]["name"] == "M1(g=2)"
        assert doc["spin"] == "Spin"
        assert doc["almost_complex"]["status"] == "Exists"
        assert doc["almost_complex"]["witness"]["coefficients"] == [-4, 2]
        assert doc["almost_complex"]["witness"]["square"] == -16
        assert doc["discrepancies"] == []

    def test_cp2_19cp2bar_witness(self, capsys, tmp_path):
        # a rational surface of rank 20, decided block by block
        path = tmp_path / "m.man"
        path.write_text(_diag_file([1] + [-1] * 19), encoding="ascii")
        code, out, err = run(capsys, "analyze", "--file", str(path), "--bound", "32", "--json")
        assert code == EXIT_OK and err == ""
        verdict = json.loads(out)["almost_complex"]
        assert verdict["status"] == "Exists"
        assert verdict["witness"] == {"coefficients": [-3] + [-1] * 19, "square": -10}

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "analyze", "--family", "M3 g=1 n=2")
        _, second, _ = run(capsys, "analyze", "--family", "M3 g=1 n=2")
        assert first == second

    def test_validates_once(self, capsys, monkeypatch):
        # decide, symplectic and complex engines all require a valid record;
        # the presentation is abelianized for the first only
        calls = []
        original = obstruction.abelianize

        def counting(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(obstruction, "abelianize", counting)
        code, _, _ = run(capsys, "analyze", "--family", "M2 g=1 n=2")
        assert code == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("w2", ["w2 = 1,1,1\n", ""], ids=["explicit-w2", "derived-w2"])
    def test_solves_characteristic_residue_once(self, capsys, tmp_path, monkeypatch, w2):
        # validation, w2 resolution, the tiered decision and the mod-8 filter
        # all ask for the residue; the GF(2) system is solved once per form
        solves = []
        solve = IntersectionForm.characteristic_residue.func

        def counting(form):
            solves.append(form)
            return solve(form)

        counted = cached_property(counting)
        counted.__set_name__(IntersectionForm, "characteristic_residue")
        monkeypatch.setattr(IntersectionForm, "characteristic_residue", counted)
        path = tmp_path / "m.man"
        path.write_text(
            "name = cp2-2cp2bar\nchi = 5\ntau = -1\nform = diag(1,-1,-1)\n"
            "b1 = 0\nh1 = Z^0\n" + w2,
            encoding="ascii",
        )
        code, _, _ = run(capsys, "analyze", "--file", str(path))
        assert code == EXIT_OK
        assert len(solves) == 1


# the blocks of the listing test: H, <1>, <-1>, <2> and the odd plane
_ODD_PLANE = [[1, 1], [1, 0]]
_LISTING_BLOCKS = [H_ROWS, [[1]], [[-1]], [[2]], _ODD_PLANE]


def _block_record(blocks, order, b1, bits) -> ManifoldInvariants:
    """A valid record on the block sum, its basis reordered by order when given.

    w2 is derived on a unimodular form and bits otherwise.
    """
    rows = block_sum(*blocks)
    if order is not None:
        rows = [[rows[i][j] for j in order] for i in order]
    form = IntersectionForm(IntegerMatrix(rows))
    w2 = None if form.is_unimodular else tuple(bits[: form.rank])
    chi = 2 - 2 * b1 + form.rank
    return ManifoldInvariants("blocks", chi, form.signature, form, b1, AbelianGroup(b1), w2)


@st.composite
def _block_sums(draw):
    """(blocks, order): one to three listing blocks, half of the sums in a shuffled basis."""
    blocks = draw(st.lists(st.sampled_from(_LISTING_BLOCKS), min_size=1, max_size=3))
    rank = sum(len(b) for b in blocks)
    order = draw(st.none() | st.permutations(range(rank)))
    return blocks, order


class TestEnumerate:
    def test_complete_marker(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "M1 g=2")
        assert code == EXIT_OK
        assert "COMPLETE" in out
        assert "witnesses          4" in out
        for w in ["(-4, 2)", "(-2, 4)", "(2, -4)", "(4, -2)"]:
            assert w in out

    def test_bounded_marker(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "M4 n=2", "--bound", "6")
        assert code == EXIT_OK
        assert "BOUNDED(6)" in out
        assert "(-2, 2, 0, 0)" in out

    def test_json(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--family", "M1 g=1", "--json")
        doc = json.loads(out)
        assert doc["target_square"] == -8
        assert doc["complete"] is True
        assert doc["bound"] is None
        assert [w["coefficients"] for w in doc["witnesses"]] == [[-2, 2], [2, -2]]

    @pytest.mark.parametrize(
        "source, argv, count",
        [
            (None, ["--family", "M1 g=1"], 2),  # divisor route, complete, bound null
            (None, ["--family", "M4 n=2", "--bound", "6"], 116),  # sweep route
            (None, ["--family", "M4 n=3", "--bound", "8"], 0),  # empty listing
            (_diag_file([1]), ["--bound", "5"], 2),  # rank 1, (-3) and (3)
            (_diag_file([1, -1, -1, -1]), ["--bound", "3"], 16),  # odd, rank 4
            # CP2 # 4 CP2bar: more witnesses than one chunk of stdout writes
            (_diag_file([1, -1, -1, -1, -1]), ["--bound", "16"], 5856),
        ],
    )
    def test_json_bytes_match_stdlib(self, capsys, tmp_path, source, argv, count):
        if source is not None:
            path = tmp_path / "m.man"
            path.write_text(source, encoding="ascii")
            argv = ["--file", str(path), *argv]
        code, out, err = run(capsys, "enumerate", *argv, "--json")
        assert code == EXIT_OK and err == ""
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) + "\n" == out
        assert len(doc["witnesses"]) == count
        assert list(doc)[-1] == "witnesses"
        # the text listing: the same classes, one "  (c1, ..., cn)" line each
        code, out, err = run(capsys, "enumerate", *argv)
        assert (code, err) == (EXIT_OK, "")
        lines = out.split("\n")
        assert lines[-count - 2 :] == [f"witnesses          {count}"] + [
            "  (" + ", ".join(map(str, w["coefficients"])) + ")" for w in doc["witnesses"]
        ] + [""]

    def test_rank_zero_listing_matches_stdlib(self, capsys):
        # one witness, the empty class: its coefficients print as []
        header = {"target_square": 0, "complete": False, "bound": 3}
        empty = IntersectionForm(IntegerMatrix([]))
        items = search.enumerate_witnesses(empty, (), 3, 0, _json_layout(0, 0))
        _emit_enumeration_json(header, items)
        expected = dict(header, witnesses=[{"coefficients": [], "square": 0}])
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    @given(
        entries=st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=4),
        bits=st.lists(st.integers(0, 1), min_size=4, max_size=4),
        b1=st.integers(0, 8),  # moves the target 3*tau + 2*chi in steps of 4
        bound=st.integers(0, 4),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_json_bytes_on_small_diagonal_files(self, tmp_path_factory, entries, bits, b1, bound):
        path = tmp_path_factory.mktemp("diag") / "m.man"
        path.write_text(_diag_file(entries, b1, bits[: len(entries)]), encoding="ascii")
        argv = ["enumerate", "--file", str(path), "--bound", str(bound)]
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv + ["--json"]) == EXIT_OK
        out = out.getvalue()
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) + "\n" == out
        # the text listing shows the same classes, one "  (c1, ..., cn)" line each
        text = io.StringIO()
        with redirect_stdout(text):
            assert main(argv) == EXIT_OK
        listed = [w["coefficients"] for w in doc["witnesses"]]
        lines = text.getvalue().splitlines()
        assert lines[len(lines) - len(listed) :] == [
            "  (" + ", ".join(map(str, c)) + ")" for c in listed
        ]

    @given(
        shape=_block_sums(),
        b1=st.integers(0, 6),  # moves the target 3*tau + 2*chi in steps of 4
        bits=st.lists(st.integers(0, 1), min_size=6, max_size=6),
        bound=st.integers(0, 4),
    )
    @example(shape=([[[1]], [[-1]], [[1]]], None), b1=0, bits=[0] * 6, bound=3)
    @example(shape=([H_ROWS, [[-1]], H_ROWS], None), b1=1, bits=[0] * 6, bound=2)
    @example(shape=([[[-1]]], None), b1=2, bits=[0] * 6, bound=4)  # rank 1
    # positive definite E8, target 0: the sign settles the listing to h = 0
    @example(shape=([E8_ROWS], None), b1=11, bits=[0] * 6, bound=2)
    # the record of M1 g=1: H with target -8, listed by divisors
    @example(shape=([H_ROWS], None), b1=4, bits=[0] * 6, bound=0)
    @example(shape=([H_ROWS, H_ROWS], None), b1=0, bits=[0] * 6, bound=0)  # none listed
    @settings(max_examples=120, deadline=None)
    def test_listing_is_the_library_tuples_as_stdlib_writes_them(
        self, tmp_path_factory, shape, b1, bits, bound
    ):
        m = _block_record(*shape, b1, bits)
        target = wu_target(m.chi, m.tau)
        enum = enumerate_chern_classes(m, bound)
        if not enum.complete:
            swept = search.enumerate_witnesses(m.form, resolve_w2(m), bound, target)
            assert enum.coefficients == tuple(swept)
        path = tmp_path_factory.mktemp("blocks") / "m.man"
        path.write_text(format_manifold_file(m), encoding="ascii")
        argv = ["enumerate", "--file", str(path), "--bound", str(bound)]
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv + ["--json"]) == EXIT_OK
        doc = json.loads(out.getvalue())
        assert (doc["target_square"], doc["complete"]) == (target, enum.complete)
        assert doc["bound"] == enum.bound
        witnesses = [{"coefficients": list(c), "square": target} for c in enum.coefficients]
        assert out.getvalue() == json.dumps(dict(doc, witnesses=witnesses), indent=2) + "\n"
        text = io.StringIO()
        with redirect_stdout(text):
            assert main(argv) == EXIT_OK
        lines = text.getvalue().split("\n")
        count = len(enum.coefficients)
        assert lines[-1] == "" and lines[-count - 2] == f"witnesses          {count}"
        assert lines[-count - 1 : -1] == [
            f"  {ChernWitness(c, target)}" for c in enum.coefficients
        ]


def _census_forms():
    """(name, form, signature): I_{p,q}, kH + mE8 and kH, the unimodular census grid."""
    for p in range(7):
        for q in range(7):
            if 1 <= p + q <= 10:
                yield f"I_{p},{q}", IntersectionForm.diagonal([1] * p + [-1] * q), p - q
    for k in range(4):
        for m in (-2, -1, 1, 2):
            e8 = [[(1 if m > 0 else -1) * x for x in row] for row in E8_ROWS]
            rows = block_sum(*[H_ROWS] * k, *[e8] * abs(m))
            yield f"{k}H+{m}E8", IntersectionForm(IntegerMatrix(rows)), 8 * m
    for k in range(1, 6):
        yield f"{k}H", IntersectionForm.hyperbolic(k), 0


def _census():
    for name, form, tau in _census_forms():
        for b1 in range(7):
            chi = 2 - 2 * b1 + form.rank
            yield ManifoldInvariants(f"{name} b1={b1}", chi, tau, form, b1, AbelianGroup(b1))


def _printed(v) -> dict:
    return {
        "status": str(v.status),
        "witness": None,
        "reasons": list(v.reasons),
        "assumptions": list(v.assumptions),
        "search_bound": v.search_bound,
    }


_DATA = Path(__file__).parent / "data"

_E8_LITERAL = "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in E8_ROWS) + "]"


class TestStallGuards:
    """Records whose exhaustive answer once took minutes or never came."""

    def test_definite_e8_with_a_negative_target(self, capsys, tmp_path, monkeypatch, time_limit):
        # positive definite E8 with b1 = 13: chi -16, tau 8, so the target is
        # -8, which no vector reaches; the default bound's box has 33**8 points
        time_limit(10)
        monkeypatch.delenv("FOURFOLD_BOUND", raising=False)
        path = tmp_path / "e8.man"
        path.write_text(
            f"name = E8\nchi = -16\ntau = 8\nform = matrix {_E8_LITERAL}\nb1 = 13\nh1 = Z^13\n",
            encoding="ascii",
        )
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert (code, err) == (EXIT_OK, "")
        assert out == (
            "manifold           E8\n"
            "  chi              -16\n"
            "  tau              8\n"
            "  b1               13\n"
            "  b2               8\n"
            f"  form             matrix {_E8_LITERAL}\n"
            "  H1               Z^13\n"
            "spin               Spin\n"
            "almost complex     Unknown\n"
            "  reason           box search exhausted up to max-norm 32 without a hit\n"
            "  search bound     32\n"
            "symplectic         NotExists\n"
            "  reason           c1^2 = -8 < 0 on a minimal manifold forces Kodaira "
            "dimension -inf, i.e. a rational or ruled model\n"
            "  reason           no rational or ruled model matches (b1, chi, tau)\n"
            "complex            NotExists\n"
            "  reason           class VII excluded: b1 = 13 != 1\n"
            "  reason           no surface class matches (b1, c1^2, c2) = (13, -8, -16) "
            "for any blow-up count\n"
        )

    def test_hyperbolic_plane_with_a_huge_b1(self, capsys, tmp_path, time_limit):
        # H with b1 = 10**18: target 8 - 4 * 10**18, so 2ab = target lists one
        # pair per signed divisor s of t = 1 - 5 * 10**17, as (2s, 2t/s)
        time_limit(10)
        b1 = 10**18
        path = tmp_path / "h.man"
        path.write_text(
            f"name = H\nchi = {4 - 2 * b1}\ntau = 0\nform = H\nb1 = {b1}\nh1 = Z^{b1}\n",
            encoding="ascii",
        )
        code, out, err = run(capsys, "enumerate", "--file", str(path), "--json")
        assert (code, err) == (EXIT_OK, "")
        # |t| = 223 * 208513 * 10753058401, three primes, checked by trial division
        t, primes = 1 - 5 * 10**17, (223, 208513, 10753058401)
        assert math.prod(primes) == -t
        assert all(all(p % d for d in range(2, math.isqrt(p) + 1)) for p in primes)
        divisors = [math.prod(c) for k in range(4) for c in itertools.combinations(primes, k)]
        pairs = sorted((2 * s, 2 * (t // s)) for d in divisors for s in (d, -d))
        doc = json.loads(out)
        assert doc["complete"] is True
        assert doc["target_square"] == 8 - 4 * b1
        assert [tuple(w["coefficients"]) for w in doc["witnesses"]] == pairs

    @pytest.mark.parametrize(
        "b1, completeness",
        [
            # target 8 - 4 * 10**25: |target/8| lies above the range where
            # the prime factors are exact, so the box is listed
            (10**25, "BOUNDED(32)"),
            # odd b1: target 4 - 4 * 10**25 is not a multiple of 8, so no
            # pair exists at any size and nothing is factored
            (10**25 + 1, "COMPLETE"),
        ],
        ids=["above-the-factoring-range", "odd-b1"],
    )
    def test_hyperbolic_plane_with_a_b1_past_the_factoring_range(
        self, capsys, tmp_path, monkeypatch, time_limit, b1, completeness
    ):
        time_limit(10)
        monkeypatch.delenv("FOURFOLD_BOUND", raising=False)
        path = tmp_path / "h.man"
        path.write_text(
            f"name = H\nchi = {4 - 2 * b1}\ntau = 0\nform = H\nb1 = {b1}\nh1 = Z^{b1}\n",
            encoding="ascii",
        )
        code, out, err = run(capsys, "enumerate", "--file", str(path))
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-3:] == [
            f"target square      {8 - 4 * b1}",
            f"completeness       {completeness}",
            "witnesses          0",
        ]

    @pytest.mark.parametrize("command", ["analyze", "enumerate"])
    @pytest.mark.parametrize(
        "record, blocks", [("chain10", 1), ("neg_e8_sum", 5), ("neg_e8_sum_shuffled", 1)]
    )
    def test_a_target_outside_the_coset(self, capsys, time_limit, record, blocks, command):
        # every class congruent to w2 mod 2 has square congruent to q(w2) mod
        # 4, or mod 8 for a characteristic w2; each record's target lies
        # outside that coset (see its file), so no box holds a witness.  A
        # walk of the box up to 16 took longer than 20 s on each
        time_limit(10)
        path = _DATA / f"{record}.man"
        assert len(parse_manifold_file(path.read_text(encoding="ascii")).form.block_rows) == blocks
        code, out, err = run(capsys, command, "--file", str(path), "--bound", "16")
        assert (code, err) == (EXIT_OK, "")
        lines = out.splitlines()
        if command == "analyze":
            start = lines.index("almost complex     Unknown")
            assert lines[start + 1 : start + 3] == [
                "  reason           box search exhausted up to max-norm 16 without a hit",
                "  search bound     16",
            ]
        else:
            assert lines[-2:] == ["completeness       BOUNDED(16)", "witnesses          0"]

    @pytest.mark.parametrize(
        "command, verdict",
        [("analyze", ["spin               Spin", "almost complex     Exists"]),
         ("validate", ["status             ok"])],
    )
    @pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_AS is POSIX")
    def test_large_family_under_an_address_space_cap(self, command, verdict):
        # 20000H stored as blocks; a dense 40000 x 40000 form needs gigabytes.
        # A subprocess, so that a MemoryError cannot take this session down.
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        argv = [sys.executable, "-m", "fourfold", command, "--family", "M4 n=20000"]
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=_module_env(), preexec_fn=cap, timeout=60
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        lines = proc.stdout.splitlines()
        assert lines[: 8 + len(verdict)] == [
            "manifold           M4(n=20000)",
            "  chi              -40000",
            "  tau              0",
            "  b1               40001",
            "  b2               40000",
            "  form             20000H",
            "  H1               Z^40001",
            "  w2               0",
            *verdict,
        ]


    @pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_AS is POSIX")
    def test_a_listing_past_the_memory_cap_ends_with_one_line(self):
        # 10H at bound 4 lists far more witnesses than 1 GiB holds
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        argv = [sys.executable, "-m", "fourfold", "enumerate", "--bound", "4"]
        proc = subprocess.run(
            [*argv, "--family", "M4 n=10"],
            capture_output=True, text=True, env=_module_env(), preexec_fn=cap, timeout=60,
        )
        assert proc.returncode == EXIT_PARSE
        assert proc.stderr == "error: out of memory\n"
        assert proc.stdout == ""


class TestLibraryAgreesWithAnalyze:
    """The library engines give the structure cascade, so they say what analyze says."""

    def test_census_grid(self, capsys, tmp_path):
        records = list(_census())
        assert len(records) == 462
        path = tmp_path / "m.man"
        disagree = []
        for m in records:
            path.write_text(format_manifold_file(m))
            for assume, flag in ((False, []), (True, ["--assume-pi1-distinct"])):
                # symplectic and complex take no bound; bound 0 keeps the search short
                argv = ["analyze", "--file", str(path), "--json", "--bound", "0", *flag]
                code, out, err = run(capsys, *argv)
                assert code == EXIT_OK and err == "", m.name
                report = json.loads(out)
                if (
                    report["symplectic"] != _printed(exclude_symplectic(m, assume))
                    or report["complex"] != _printed(exclude_complex(m, assume))
                    or almost_complex_excluded(m)
                    != (report["almost_complex"]["status"] == "NotExists")
                ):
                    disagree.append((m.name, assume))
        assert disagree == []


class TestFamilyCommand:
    def test_emits_manifold_file(self, capsys):
        code, out, _ = run(capsys, "family", "--family", "M1 g=1")
        assert code == EXIT_OK
        assert out.startswith("# fourfold manifold record\n")
        assert "name = M1(g=1)" in out
        assert "form = H" in out
        assert "\nnames = a1,b1,c,d,e,f\n" in out
        assert "\nword = d f^3\n" in out
        assert "rel = " not in out
        parsed = parse_manifold_file(out)
        assert parsed == family_invariants(FamilyId("M1", g=1))

    def test_no_file_flag(self, capsys):
        code, _, err = run(capsys, "family", "--file", "x.man")
        assert code == EXIT_PARSE
        assert "error:" in err


class TestValidate:
    def test_ok(self, capsys, tmp_path):
        path = tmp_path / "good.man"
        path.write_text(GOOD_FILE, encoding="ascii")
        code, out, _ = run(capsys, "validate", "--file", str(path))
        assert code == EXIT_OK
        assert "ok" in out

    def test_tampered_record(self, capsys, tmp_path):
        path = tmp_path / "bad.man"
        path.write_text(GOOD_FILE.replace("tau = 0", "tau = 1"), encoding="ascii")
        code, out, _ = run(capsys, "validate", "--file", str(path))
        assert code == EXIT_INVALID
        assert "invalid" in out
        assert "signature mismatch" in out

    def test_underivable_w2(self, capsys, tmp_path):
        # clean except that w2 is missing on an odd non-unimodular form,
        # which analyze and enumerate reject too
        path = tmp_path / "no_w2.man"
        path.write_text(
            "name = odd\nchi = 3\ntau = 1\nform = diag(3)\nb1 = 0\nh1 = Z^0\n",
            encoding="ascii",
        )
        code, out, _ = run(capsys, "validate", "--file", str(path))
        assert code == EXIT_INVALID
        assert "invalid" in out
        assert "w2 cannot be derived" in out

    def test_huge_generator_count(self, capsys, tmp_path):
        # gens costs nothing until a relation names a generator
        n = 10**12
        path = tmp_path / "huge.man"
        path.write_text(
            f"name = big\nchi = {4 - 2 * n}\ntau = 0\nform = H\nb1 = {n}\n"
            f"h1 = Z^{n}\nw2 = 0\ngens = {n}\n",
            encoding="ascii",
        )
        code, out, _ = run(capsys, "validate", "--file", str(path))
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "status             ok"

    def test_tampered_record_blocks_analyze(self, capsys, tmp_path):
        path = tmp_path / "bad.man"
        path.write_text(GOOD_FILE.replace("chi = -4", "chi = -3"), encoding="ascii")
        code, _, err = run(capsys, "analyze", "--file", str(path))
        assert code == EXIT_INVALID
        assert "invalid: Euler characteristic mismatch" in err

    def test_json(self, capsys, tmp_path):
        path = tmp_path / "bad.man"
        path.write_text(GOOD_FILE.replace("b1 = 4", "b1 = 3"), encoding="ascii")
        code, out, _ = run(capsys, "validate", "--file", str(path), "--json")
        assert code == EXIT_INVALID
        doc = json.loads(out)
        assert doc["valid"] is False
        assert any("rank(H1)" in v for v in doc["violations"])


class TestExitCodesAndErrors:
    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == EXIT_PARSE
        assert "one of --family or --file" in err

    def test_family_without_spec_names_only_family(self, capsys):
        # the family subcommand takes no --file, so its error names --family alone
        code, out, err = run(capsys, "family")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: the following arguments are required: --family\n"

    def test_both_sources(self, capsys, tmp_path):
        path = tmp_path / "m.man"
        path.write_text(GOOD_FILE, encoding="ascii")
        code, _, err = run(capsys, "analyze", "--family", "M1 g=1", "--file", str(path))
        assert code == EXIT_PARSE
        assert "mutually exclusive" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "analyze", "--family", "M1 g=1", "--frobnicate")
        assert code == EXIT_PARSE
        assert "error:" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "conjecture", "--family", "M1 g=1")
        assert code == EXIT_PARSE

    def test_bad_family_spec(self, capsys):
        code, _, err = run(capsys, "analyze", "--family", "M1 g=0")
        assert code == EXIT_PARSE
        assert "must be >= 1" in err

    def test_non_ascii_digit_in_family_spec(self, capsys):
        # ARABIC-INDIC DIGIT ONE is a Unicode digit, not an ASCII one
        code, out, err = run(capsys, "analyze", "--family", "M1 g=\u0661")
        assert code == EXIT_PARSE
        assert out == ""
        assert "cannot parse parameter" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--file", str(tmp_path / "absent.man"))
        assert code == EXIT_PARSE
        assert "error:" in err

    def test_closed_output_pipe_exits_quietly(self):
        # about 1.2 MB of witnesses; the reader takes one line and closes the pipe
        argv = ["enumerate", "--family", "M4 n=4", "--bound", "4"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "fourfold", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert first == b"manifold           M4(n=4)\n"
        assert (proc.wait(), err) == (EXIT_PARSE, b"")

    @pytest.mark.parametrize(
        "text",
        [
            "not a manifold\n",
            GOOD_FILE + "rel = 1,2\n",                  # rel with no gens
            GOOD_FILE + "gens = 2\nrel = 1\n",          # wrong relation length
            GOOD_FILE + "gens = 2\nrel = 1; 2\n",       # bad separator
            GOOD_FILE + "gens = two\n",                 # non-integer count
            GOOD_FILE + "gens = 2\njust text\n",        # no equals sign
            GOOD_FILE.replace("chi = -4", "chi = 0_4"),  # not the form grammar's integer
            GOOD_FILE + "gens = 2\nrel = 1_0,2\n",     # same, inside a relation
        ],
        ids=[
            "junk", "rel-no-gens", "rel-length", "rel-separator", "gens-word", "no-equals",
            "chi-underscore", "rel-underscore",
        ],
    )
    def test_garbage_file(self, capsys, tmp_path, text):
        path = tmp_path / "junk.man"
        path.write_text(text, encoding="ascii")
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert "error:" in err

    def test_non_ascii_file(self, capsys, tmp_path):
        path = tmp_path / "accent.man"
        path.write_bytes(b"name = \xc3\xa9\n")
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error:") and str(path) in err

    def test_bad_form_in_file(self, capsys, tmp_path):
        path = tmp_path / "badform.man"
        path.write_text(GOOD_FILE.replace("form = H", "form = 0H"), encoding="ascii")
        code, _, err = run(capsys, "analyze", "--file", str(path))
        assert code == EXIT_PARSE

    def test_space_inside_matrix_entry(self, capsys, tmp_path):
        # whitespace goes only next to brackets and commas: "1 2" is not 12
        path = tmp_path / "spaced.man"
        path.write_text(GOOD_FILE.replace("form = H", "form = matrix [[1 2]]"), encoding="ascii")
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert (code, out, err) == (
            EXIT_PARSE, "", "error: matrix entry must be an integer, got '1 2'\n"
        )



# characters json escapes in its own ways: quotes, backslashes, control
# characters, DEL, non-ASCII, the line separators and lone surrogates
_JSON_CHARS = st.sampled_from(
    '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80\xe9\u2028\u2029\ud800\udbff\udfff\U0001f600'
) | st.characters(exclude_categories=())
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.text(_JSON_CHARS)
)
_JSON_DOCUMENTS = st.recursive(
    _JSON_SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(_JSON_CHARS, max_size=4), children, max_size=4)
    ),
    max_leaves=24,
)


class TestJsonWriter:
    """cli._json_text writes json.dumps(indent=2)'s bytes, errors included."""

    @settings(max_examples=400)
    @given(_JSON_DOCUMENTS)
    @example({"a": {}, "b": [], "c": [True, False, None, 0, -1], "d": ("x", {"e": [[]]})})
    @example(["\u2028\ud800\U0001f600 \"\\", -(10**300), 10**299 + 7])
    def test_equals_the_stdlib(self, doc):
        assert _json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "wrap", [lambda x: x, lambda x: {"a": [1, x]}], ids=["bare", "nested"]
    )
    def test_an_int_past_the_digit_limit(self, wrap):
        doc = wrap(-(10 ** (sys.get_int_max_str_digits() + 1)))
        with pytest.raises(ValueError) as stdlib:
            json.dumps(doc, indent=2)
        with pytest.raises(ValueError) as writer:
            _json_text(doc)
        assert str(writer.value) == str(stdlib.value)

    @pytest.mark.parametrize(
        "value", [1.5, {1}, b"x", object()], ids=["float", "set", "bytes", "object"]
    )
    def test_other_types_are_refused(self, value):
        # json.dumps writes a float, but no document the commands build holds one
        with pytest.raises(TypeError):
            _json_text({"a": [value]})


def _main_outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv); a SystemExit's code stands for the exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# F stands for a good record's path
_VALID_ARGV = [
    ["analyze", "--file", "F", "--bound", "4", "--json", "--assume-pi1-distinct"],
    ["analyze", "--assume-pi1-distinct", "--json", "--bound", "4", "--file", "F"],
    ["analyze", "--family", "M1 g=2", "--bound=4"],
    ["analyze", "--bou", "3", "--js", "--fi", "F"],
    ["analyze", "--json", "--file", "F", "--json"],
    ["enumerate", "--file", "F", "--bound", "4", "--json"],
    ["enumerate", "--json", "--bound=4", "--file", "F"],
    ["enumerate", "--fi", "F", "--bou", "2"],
    ["validate", "--file", "F", "--json"],
    ["validate", "--json", "--file", "F"],
    ["validate", "--js", "--fi", "F", "--json"],
    ["family", "--family", "M1 g=2"],
    ["family", "--fam", "M4 n=3"],
]
_USAGE_ERROR_ARGV = [
    ["analyze", "--file", "F", "--frobnicate"],
    ["analyze", "--file", "F", "--bound"],
    ["analyze", "--file", "F", "stray"],
    ["analyze", "--", "--file", "F"],
    ["validate", "--file", "F", "--bound", "3"],
    ["family", "--family", "M1 g=2", "--json"],
    ["family"],
    ["analyze", "--family", "M1 g=2", "--file", "F"],
]
_TOP_LEVEL_ARGV = [
    [], ["--help"], ["analyze", "--help"], ["enumerate", "-h"], ["anal"], ["--version"]
]


def _with_file(argv, path):
    return [str(path) if a == "F" else a for a in argv]


class TestDispatch:
    """main hands a subcommand's argv to its own parser, as argparse's subcommand action does."""

    @pytest.fixture
    def record(self, tmp_path):
        path = tmp_path / "m.man"
        path.write_text(GOOD_FILE, encoding="ascii")
        return path

    @pytest.mark.parametrize("argv", _VALID_ARGV + _USAGE_ERROR_ARGV + _TOP_LEVEL_ARGV)
    def test_main_equals_the_top_level_parser(self, capsys, record, argv):
        argv = _with_file(argv, record)
        direct = _main_outcome(capsys, argv)
        with mock.patch.dict(cli._COMMANDS, clear=True):  # every argv through the top level
            assert _main_outcome(capsys, argv) == direct

    @pytest.mark.parametrize("argv", _USAGE_ERROR_ARGV)
    def test_usage_errors_are_one_error_line(self, capsys, record, argv):
        code, out, err = _main_outcome(capsys, _with_file(argv, record))
        assert (code, out) == (EXIT_PARSE, "")
        assert re.fullmatch(r"error: [^\n]+\n", err)

    @pytest.mark.parametrize("argv", _VALID_ARGV)
    def test_namespaces_are_equal(self, record, argv):
        argv = _with_file(argv, record)
        top = vars(build_parser().parse_args(argv))
        assert top.pop("command") == argv[0]
        assert vars(cli._COMMANDS[argv[0]].parse_args(argv[1:])) == top

    def test_subcommands_skip_the_top_level_parser(self, capsys, record):
        with mock.patch.object(build_parser(), "parse_args", side_effect=AssertionError):
            for argv in (
                ["analyze", "--file", str(record), "--json"],
                ["enumerate", "--file", str(record), "--bound", "2"],
                ["validate", "--file", str(record)],
                ["family", "--family", "M1 g=2"],
            ):
                code, out, err = _main_outcome(capsys, argv)
                assert (code, err) == (EXIT_OK, "")
                assert out


class TestIntegerDigitLimit:
    """An integer too long for int() is its reader's parse error, not a traceback."""

    @pytest.mark.parametrize(
        "old, new, argv, env, field",
        [
            ("chi = -4", f"chi = {_LONG}", (), None, "chi"),
            ("tau = 0", f"tau = -{_LONG}", (), None, "tau"),
            ("b1 = 4", f"b1 = {_LONG}", (), None, "b1"),
            ("w2 = 0", f"w2 = 0\ngens = +{_LONG}", (), None, "gens"),
            ("w2 = 0", f"w2 = 0\ngens = 2\nrel = 1, {_LONG}", (), None, "line 10: relation entry"),
            ("w2 = 0", f"w2 = 1,{_LONG}", (), None, "w2 entry"),
            ("form = H", f"form = diag(1,{_LONG})", (), None, "diag entry"),
            ("form = H", f"form = matrix [[0,{_LONG}],[{_LONG},0]]", (), None, "matrix entry"),
            ("form = H", f"form = {_LONG}H", (), None, "kH count"),
            ("h1 = Z^4", f"h1 = Z^{_LONG}", (), None, "h1 rank"),
            ("h1 = Z^4", f"h1 = Z^4 + Z/{_LONG}", (), None, "h1 torsion"),
            (None, None, ("--bound", _LONG), None, "--bound"),
            (None, None, (), _LONG, "FOURFOLD_BOUND"),
            (None, None, ("--family", f"M4 n={_LONG}"), None, "parameter n"),
        ],
        ids=[
            "chi", "tau", "b1", "gens", "rel", "w2", "diag", "matrix", "kH", "h1-rank", "h1-torsion",
            "bound-flag", "bound-env", "family",
        ],
    )
    def test_names_the_field(self, capsys, tmp_path, monkeypatch, old, new, argv, env, field):
        monkeypatch.delenv("FOURFOLD_BOUND", raising=False)
        if env is not None:
            monkeypatch.setenv("FOURFOLD_BOUND", env)
        if "--family" not in argv:
            path = tmp_path / "long.man"
            text = GOOD_FILE if old is None else GOOD_FILE.replace(old, new)
            path.write_text(text, encoding="ascii")
            argv = ("--file", str(path), *argv)
        code, out, err = run(capsys, "analyze", *argv)
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {field} is too long: 5001 digits, at most {limit} are read\n"

    def test_word_exponent(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(PresentationError) as exc:
            Presentation.from_words(["a"], [f"a^{_LONG}"])
        assert str(exc.value) == f"word exponent is too long: 5001 digits, at most {limit} are read"

    @pytest.mark.parametrize(
        "command, b1, chi",
        [
            # c1^2 = 2 chi = 8 - 4 b1 has 4,301 digits
            ("analyze", "5" + "0" * 4299, "-" + "9" * 4299 + "6"),
            # the Euler characteristic violation states 2 - 2 b1 + b2
            ("validate", "9" + "0" * 4299, "0"),
        ],
        ids=["analyze", "validate"],
    )
    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_derived_value_past_the_limit(self, capsys, tmp_path, command, b1, chi, json_flag):
        path = tmp_path / "big.man"
        path.write_text(
            f"name = big\nchi = {chi}\ntau = 0\nform = H\nb1 = {b1}\nh1 = Z^{b1}\n",
            encoding="ascii",
        )
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, command, "--file", str(path), *json_flag)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == (
            f"error: a derived integer has more than {limit} digits, at most {limit} are written\n"
        )
        assert sys.get_int_max_str_digits() == limit


def _module_env():
    """The environment for `python -m fourfold` that imports this fourfold."""
    env = dict(os.environ)
    paths = (os.path.dirname(os.path.dirname(fourfold.__file__)), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def _alone(argv):
    """(exit code, stdout, stderr) of `python -m fourfold *argv` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-m", "fourfold", *argv],
        capture_output=True, text=True, env=_module_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    """main builds its parser once per process; no call may see an earlier one."""

    def test_calls_print_what_they_print_alone(self, capsys, tmp_path):
        path = tmp_path / "m.man"
        path.write_text(GOOD_FILE, encoding="ascii")
        calls = [
            ["analyze", "--json", "--file", str(path)],
            ["analyze", "--file", str(path)],
            ["enumerate", "--bound", "4", "--file", str(path)],
            ["enumerate", "--file", str(path), "--frobnicate"],
            ["analyze", "--json", "--file", str(path)],
        ]
        in_process = [run(capsys, *argv) for argv in calls]
        assert in_process == [_alone(argv) for argv in calls]
        assert in_process[3][0] == EXIT_PARSE

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
    def test_help_is_the_same_on_a_second_call(self, capsys, argv):
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert "usage: fourfold" in helps[0]


class TestBoundPrecedence:
    def test_default(self, capsys, monkeypatch):
        monkeypatch.delenv("FOURFOLD_BOUND", raising=False)
        _, out, _ = run(capsys, "enumerate", "--family", "M4 n=2")
        assert "BOUNDED(32)" in out

    def test_env_overrides_default(self, capsys, monkeypatch):
        monkeypatch.setenv("FOURFOLD_BOUND", "7")
        _, out, _ = run(capsys, "enumerate", "--family", "M4 n=2")
        assert "BOUNDED(7)" in out

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FOURFOLD_BOUND", "7")
        _, out, _ = run(capsys, "enumerate", "--family", "M4 n=2", "--bound", "5")
        assert "BOUNDED(5)" in out

    @pytest.mark.parametrize(
        "env, flags, named",
        [
            ("many", (), "FOURFOLD_BOUND"),
            ("-3", (), "FOURFOLD_BOUND"),
            ("7", ("--bound", "-1"), "--bound"),
            ("\u0661", (), "FOURFOLD_BOUND"),
            ("0_2", (), "FOURFOLD_BOUND"),
            (" 3", (), "FOURFOLD_BOUND"),
        ],
        ids=["many", "-3", "flag-1", "arabic-indic-digit", "underscore", "space"],
    )
    def test_bad_env_value(self, capsys, monkeypatch, env, flags, named):
        monkeypatch.setenv("FOURFOLD_BOUND", env)
        code, out, err = run(capsys, "enumerate", "--family", "M4 n=2", *flags)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize(
        "flag",
        ["many", "\u0661", "0_2", " 3", "3\n"],
        ids=["many", "arabic-indic-digit", "underscore", "space", "newline"],
    )
    def test_bad_flag_value(self, capsys, monkeypatch, flag):
        monkeypatch.delenv("FOURFOLD_BOUND", raising=False)
        code, out, err = run(capsys, "enumerate", "--family", "M4 n=2", "--bound", flag)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error:") and "--bound" in err


def _quiet_main(argv, env_bound):
    """main(argv) with output discarded and FOURFOLD_BOUND set, or unset for None."""
    sink = io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(sink), redirect_stderr(sink):
        os.environ.pop("FOURFOLD_BOUND", None)
        if env_bound is not None:
            os.environ["FOURFOLD_BOUND"] = env_bound
        return main(argv)


# bound values: small integers, both signs, and text mixing digits with
# characters an integer may not hold (int() would take "0_0" and " 0")
_BOUND_TEXT = st.one_of(st.integers(-5, 8).map(str), st.text(alphabet="abxyz .+-0_", max_size=5))


def _valid_bound(text):
    return re.fullmatch(r"[+-]?[0-9]+", text) is not None and int(text) >= 0


class TestNoTraceback:
    """Any file bytes and any bound value end in exit 0, 1 or 2, never a traceback."""

    @given(
        command=st.sampled_from(["analyze", "enumerate", "validate"]),
        contents=st.binary(max_size=200),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_arbitrary_file_bytes(self, tmp_path_factory, command, contents):
        path = tmp_path_factory.mktemp("fuzz") / "record.man"
        path.write_bytes(contents)
        argv = [command, "--file", str(path)]
        if command != "validate":
            argv += ["--bound", "2"]  # a record that happens to parse stays quick to search
        assert _quiet_main(argv, None) in (EXIT_OK, EXIT_PARSE, EXIT_INVALID)

    @pytest.mark.parametrize("lines, message", _WORD_ERRORS, ids=_WORD_ERROR_IDS)
    @pytest.mark.parametrize("command", ["analyze", "enumerate", "validate"])
    def test_word_format_errors(self, capsys, tmp_path, command, lines, message):
        path = tmp_path / "words.man"
        path.write_text(GOOD_FILE + lines, encoding="ascii")
        assert run(capsys, command, "--file", str(path)) == (EXIT_PARSE, "", f"error: {message}\n")

    @given(
        command=st.sampled_from(["analyze", "enumerate"]),
        flag=st.none() | _BOUND_TEXT,
        env=st.none() | _BOUND_TEXT,
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_bound_values(self, tmp_path_factory, command, flag, env):
        path = tmp_path_factory.mktemp("fuzz") / "good.man"
        path.write_text(GOOD_FILE, encoding="ascii")
        argv = [command, "--file", str(path)]
        if flag is not None:
            argv += ["--bound", flag]
        chosen = flag if flag is not None else env
        expected = EXIT_OK if chosen is None or _valid_bound(chosen) else EXIT_PARSE
        assert _quiet_main(argv, env) == expected
