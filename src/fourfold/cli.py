"""Command-line interface.

Subcommands:

    analyze    full report: spin status, almost-complex decision, symplectic
               and complex exclusion verdicts
    enumerate  list Chern candidates up to a coefficient bound
    family     print a built-in family member as a manifold file
    validate   cross-check a record's invariants

Manifolds come either from --family "M1 g=2" style specs or from --file in a
line-oriented key = value format (see parse_manifold_file).  Exit codes:
1 for parse errors, for derived integers too long to write, for running out
of memory and (silently) for an output pipe closed by its reader, 2 for
invariant validation failures, 0 otherwise.  The default search bound is
32; the FOURFOLD_BOUND environment variable overrides it and the --bound
flag wins over both.  All output is deterministic: two runs on the same
input are byte-identical.

main hands a subcommand's arguments straight to that subcommand's own
parser, as argparse's subcommand action would; the top-level parser runs
only for an empty argument list, help and unknown commands.  --json output
is written by _json_text, byte-identical to json.dumps(indent=2).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .abelian import Presentation, PresentationError, Row, parse_abelian_group
from .classification import exclude_complex, exclude_symplectic
from .families import FamilyId, FamilyParameterError, family_invariants, known_discrepancies
from .forms import _SPACE, FormError, _dense, build_form, read_int, read_ints, read_sparse_ints
from .obstruction import (
    DEFAULT_BOUND,
    ChernEnumeration,
    InvariantError,
    ManifoldInvariants,
    StructureVerdict,
    decide_almost_complex,
    enumerate_chern_classes,
    is_spin,
    validate_invariants,
    wu_target,
)
from .search import Layout

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2


class ManifoldFileError(ValueError):
    """A manifold file that does not follow the key = value format."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the exit-code contract
    # reserves 2 for validation failures, so route usage errors to 1
    def error(self, message):
        raise _UsageError(message)


_REQUIRED_KEYS = ("name", "chi", "tau", "form", "b1", "h1")

# a presentation is written one way or the other: gens and rel lines, or
# names and word lines
_PRESENTATION_STYLE = {"gens": "rel", "rel": "rel", "names": "word", "word": "word"}


def parse_manifold_file(text: str) -> ManifoldInvariants:
    """Parse the line-oriented manifold format.

    Keys: name, chi, tau, form (form grammar), b1, h1 ("Z^r" plus optional
    "+ Z/t" summands), w2 (comma-separated bits, or 0 for the zero vector),
    and an optional presentation: either gens and repeatable rel lines
    (exponent-sum rows), or names (comma-separated generator names) and
    repeatable word lines (relator words, read by Presentation.from_words).
    A record that mixes the two is an error naming the line.  '#' starts a
    comment.
    """
    values: dict[str, str] = {}
    relations: list[tuple[int, Row]] = []  # (length, nonzero pairs) of each rel line
    words: list[str] = []
    first = None  # (key, line number) of the first presentation line
    # lines end at "\n" (a "\r" before it is stripped with the whitespace);
    # str.splitlines() would also end them at "\x0b", "\x0c" and "\x1c"-"\x1e"
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(_SPACE)
        if not line:
            continue
        if "=" not in line:
            raise ManifoldFileError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip(_SPACE)
        value = value.strip(_SPACE)
        style = _PRESENTATION_STYLE.get(key)
        if style is not None:
            if first is None:
                first = key, lineno
            elif style != _PRESENTATION_STYLE[first[0]]:
                raise ManifoldFileError(
                    f"line {lineno}: a {key} line cannot join the {first[0]} line "
                    f"on line {first[1]}; a presentation is gens and rel lines "
                    "or names and word lines"
                )
        if key == "rel":
            # an empty value is the one relation over no generators
            field = f"line {lineno}: relation entry"
            relations.append(read_sparse_ints(value, field, ManifoldFileError) if value else (0, ()))
            continue
        if key == "word":
            words.append(value)  # an empty value is the trivial relator
            continue
        if key in values:
            raise ManifoldFileError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value

    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ManifoldFileError(f"missing required keys: {', '.join(missing)}")
    unknown = set(values) - set(_REQUIRED_KEYS) - {"w2", "gens", "names"}
    if unknown:
        raise ManifoldFileError(f"unknown keys: {', '.join(sorted(unknown))}")

    def as_int(key: str) -> int:
        return read_int(values[key], key, ManifoldFileError)

    form = build_form(values["form"])
    h1 = parse_abelian_group(values["h1"])

    w2 = None
    if values.get("w2") == "0":
        w2 = (0,) * form.rank
    elif "w2" in values:
        w2 = read_ints(values["w2"], "w2 entry", ManifoldFileError)

    presentation = None
    try:
        if "gens" in values or relations:
            if "gens" not in values:
                raise ManifoldFileError("rel lines need a gens line")
            presentation = Presentation._read(as_int("gens"), relations)
        elif "names" in values or words:
            if "names" not in values:
                raise ManifoldFileError("word lines need a names line")
            names = values["names"]
            presentation = Presentation.from_words(
                [name.strip(_SPACE) for name in names.split(",")] if names else (), words
            )
    except PresentationError as exc:
        raise ManifoldFileError(str(exc)) from None

    return ManifoldInvariants(
        name=values["name"],
        chi=as_int("chi"),
        tau=as_int("tau"),
        form=form,
        b1=as_int("b1"),
        h1=h1,
        w2=w2,
        presentation=presentation,
    )


def _w2_text(w2: tuple[int, ...]) -> str:
    """A w2 class as the file and the report write it: comma-joined bits, or 0 for zero."""
    return ",".join(map(str, w2)) if any(w2) else "0"


def _name_line(name: str) -> str:
    """The name line, which parse_manifold_file reads back as name, or ManifoldFileError."""
    if "#" in name:
        problem = "holds '#', which starts a comment"
    elif "\n" in name:
        problem = "holds a line break, which ends the line"
    elif name != name.strip(_SPACE):
        problem = "has whitespace at an end, which the reader strips"
    else:
        return f"name = {name}"
    raise ManifoldFileError(f"cannot write the name {name!r}: it {problem}")


def format_manifold_file(m: ManifoldInvariants) -> str:
    """Serialize a record to the manifold file format (parse round-trips).

    A presentation with words is written as its names and word lines, so
    the text is linear in the words' length; one without is written as
    gens and dense rel lines.  A name that would read back as another
    record (one holding '#' or a line break, or with whitespace at an end)
    raises ManifoldFileError naming the problem.
    """
    lines = [
        "# fourfold manifold record",
        _name_line(m.name),
        f"chi = {m.chi}",
        f"tau = {m.tau}",
        f"form = {m.form.descriptor()}",
        f"b1 = {m.b1}",
        f"h1 = {m.h1}",
    ]
    if m.w2 is not None:
        lines.append(f"w2 = {_w2_text(m.w2)}")
    p = m.presentation
    if p is not None and p.words is not None:
        lines.append("names = " + ",".join(p.names))
        lines.extend("word = " + word for word in p.word_texts())
    elif p is not None:
        lines.append(f"gens = {p.generators}")
        lines.extend("rel = " + ",".join(map(str, _dense(p.generators, row))) for row in p.rows)
    return "\n".join(lines) + "\n"


def _load_manifold(args) -> ManifoldInvariants:
    if args.family is not None:
        return family_invariants(FamilyId.parse(args.family))
    with open(args.file, "r", encoding="ascii") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ManifoldFileError(f"{args.file}: byte {exc.start} is not ASCII") from None
    return parse_manifold_file(text)


def _resolve_bound(args) -> int:
    """The --bound text, else FOURFOLD_BOUND, under the form grammar's integer rule."""
    if args.bound is not None:
        text, source = args.bound, "--bound"
    else:
        text, source = os.environ.get("FOURFOLD_BOUND"), "FOURFOLD_BOUND"
        if text is None:
            return DEFAULT_BOUND
    bound = read_int(text, source, _UsageError)
    if bound < 0:
        raise _UsageError(f"{source} must be nonnegative, got {bound}")
    return bound


def _verdict_dict(v: StructureVerdict) -> dict:
    witness = None
    if v.witness is not None:
        witness = {
            "coefficients": list(v.witness.coefficients),
            "square": v.witness.square,
        }
    return {
        "status": str(v.status),
        "witness": witness,
        "reasons": list(v.reasons),
        "assumptions": list(v.assumptions),
        "search_bound": v.search_bound,
    }


def _manifold_dict(m: ManifoldInvariants) -> dict:
    return {
        "name": m.name,
        "chi": m.chi,
        "tau": m.tau,
        "b1": m.b1,
        "b2": m.form.rank,
        "form": m.form.descriptor(),
        "h1": str(m.h1),
        "w2": list(m.w2) if m.w2 is not None else None,
    }


def _json_text(x, indent: str = "\n") -> str:
    """json.dumps(x, indent=2)'s text of a document the commands build.

    indent is the line break and indentation that x's closing bracket
    follows; x's items each go on a line indented two spaces more.  An
    empty dict or list is {} or [].  Strings and keys go through json's own
    ASCII escaper and ints through int.__repr__, so an int past the digit
    limit raises the same ValueError.  Only dicts with str keys, lists,
    tuples, str, int, bool and None are written; any other type raises
    TypeError.
    """
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    inner = indent + "  "
    if t is dict:
        if not x:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if t is list or t is tuple:
        if not x:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in x]) + indent + "]"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


# the text listing's layout: f"  {w}" of each ChernWitness w
_TEXT_LAYOUT = Layout("  (", ", ", ")")

# the number of listed items per write to stdout
_CHUNK = 4096


def _json_layout(rank: int, square: int) -> Layout:
    """_json_text's text of one witness in the "witnesses" list.

    _json_text indents each nesting level two spaces more, so every witness
    sits at the same indents, and every listed witness has the same square,
    so only the coefficients differ from item to item.
    """
    # an empty list is [] on one line
    vector = ("[\n        ", ",\n        ", "\n      ]") if rank else ("[", "", "]")
    return Layout(
        '    {\n      "coefficients": ' + vector[0],
        vector[1],
        f'{vector[2]},\n      "square": {square}\n    }}',
    )


def _write_items(head: str, items: Sequence[str], sep: str, end: str) -> None:
    """Write head, the items joined by sep and end to stdout, _CHUNK items per write.

    The sep between two chunks is written on its own, so no chunk's text is
    copied to put it in front.
    """
    write = sys.stdout.write
    write(head)
    for i in range(0, len(items), _CHUNK):
        if i:
            write(sep)
        write(sep.join(items[i : i + _CHUNK]))
    write(end)


def _emit_enumeration_json(header: dict, items: Sequence[str]) -> None:
    """What print(_json_text(...)) writes of header plus a last "witnesses" key, byte for byte.

    items are the witnesses' texts in _json_layout, as _json_text writes
    each one inside the list.
    """
    # the header ends in "\n}"; the witnesses key goes in before it
    head = _json_text(header)[:-2] + ',\n  "witnesses": '
    if items:
        _write_items(head + "[\n", items, ",\n", "\n  ]\n}\n")
    else:
        sys.stdout.write(head + "[]\n}\n")


def _kv(key: str, value, indent: int = 0) -> str:
    pad = " " * indent
    return f"{pad}{key:<{18 - indent}} {value}"


def _manifold_lines(m: ManifoldInvariants) -> list[str]:
    lines = [_kv("manifold", m.name)]
    lines.append(_kv("chi", m.chi, 2))
    lines.append(_kv("tau", m.tau, 2))
    lines.append(_kv("b1", m.b1, 2))
    lines.append(_kv("b2", m.form.rank, 2))
    lines.append(_kv("form", m.form.descriptor(), 2))
    lines.append(_kv("H1", m.h1, 2))
    if m.w2 is not None:
        lines.append(_kv("w2", _w2_text(m.w2), 2))
    return lines


def _verdict_lines(label: str, v: StructureVerdict) -> list[str]:
    lines = [_kv(label, v.status)]
    if v.witness is not None:
        lines.append(_kv("c1", v.witness, 2))
        lines.append(_kv("square", v.witness.square, 2))
    lines.extend(_kv("reason", r, 2) for r in v.reasons)
    lines.extend(_kv("assuming", a, 2) for a in v.assumptions)
    if v.search_bound is not None:
        lines.append(_kv("search bound", v.search_bound, 2))
    return lines


def _cmd_analyze(args) -> int:
    m = _load_manifold(args)
    bound = _resolve_bound(args)
    # the engines are looked up on cli, not their home modules, so
    # perfbench's tracer, which wraps cli's names, sees them
    spin = is_spin(m)
    ac = decide_almost_complex(m, bound=bound)
    sym = exclude_symplectic(m, args.assume_pi1_distinct)
    cpx = exclude_complex(m, args.assume_pi1_distinct)
    notes = known_discrepancies(m)
    if args.json:
        print(_json_text({
            "manifold": _manifold_dict(m),
            "spin": str(spin),
            "almost_complex": _verdict_dict(ac),
            "symplectic": _verdict_dict(sym),
            "complex": _verdict_dict(cpx),
            "discrepancies": list(notes),
        }))
        return EXIT_OK
    lines = _manifold_lines(m)
    lines.append(_kv("spin", spin))
    lines.extend(_verdict_lines("almost complex", ac))
    lines.extend(_verdict_lines("symplectic", sym))
    lines.extend(_verdict_lines("complex", cpx))
    lines.extend(_kv("discrepancy", note) for note in notes)
    print("\n".join(lines))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    m = _load_manifold(args)
    bound = _resolve_bound(args)
    target = wu_target(m.chi, m.tau)
    layout = _json_layout(m.form.rank, target) if args.json else _TEXT_LAYOUT
    result: ChernEnumeration = enumerate_chern_classes(m, bound=bound, layout=layout)
    items = result.items
    if args.json:
        _emit_enumeration_json(
            {
                "manifold": _manifold_dict(m),
                "target_square": target,
                "complete": result.complete,
                "bound": result.bound,
            },
            items,
        )
        return EXIT_OK
    lines = _manifold_lines(m)
    lines.append(_kv("target square", target))
    marker = "COMPLETE" if result.complete else f"BOUNDED({result.bound})"
    lines.append(_kv("completeness", marker))
    lines.append(_kv("witnesses", len(items)))
    head = "\n".join(lines)
    if items:
        _write_items(head + "\n", items, "\n", "\n")
    else:
        sys.stdout.write(head + "\n")
    return EXIT_OK


def _cmd_family(args) -> int:
    sys.stdout.write(format_manifold_file(_load_manifold(args)))
    return EXIT_OK


def _cmd_validate(args) -> int:
    m = _load_manifold(args)
    violations = validate_invariants(m)
    if args.json:
        print(_json_text({
            "manifold": _manifold_dict(m),
            "valid": not violations,
            "violations": violations,
        }))
    else:
        lines = _manifold_lines(m)
        lines.append(_kv("status", "ok" if not violations else "invalid"))
        lines.extend(_kv("violation", v) for v in violations)
        print("\n".join(lines))
    return EXIT_OK if not violations else EXIT_INVALID


def _add_source_flags(parser: _Parser, family_only: bool = False) -> None:
    parser.add_argument(
        "--family", metavar="SPEC", required=family_only, help='family spec, e.g. "M1 g=2"'
    )
    if not family_only:
        parser.add_argument("--file", metavar="PATH", help="manifold file to read")


# each subcommand's parser by name, filled by build_parser
_COMMANDS: dict[str, _Parser] = {}


@cache  # argparse formats every argument as it is added; do that once per process
def build_parser() -> _Parser:
    parser = _Parser(prog="fourfold", description="structure obstructions for 4-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full structure report")
    _add_source_flags(analyze)
    analyze.add_argument("--assume-pi1-distinct", action="store_true")
    analyze.add_argument("--bound", default=None)
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(handler=_cmd_analyze)

    enumerate_cmd = sub.add_parser("enumerate", help="list Chern candidates")
    _add_source_flags(enumerate_cmd)
    enumerate_cmd.add_argument("--bound", default=None)
    enumerate_cmd.add_argument("--json", action="store_true")
    enumerate_cmd.set_defaults(handler=_cmd_enumerate)

    family = sub.add_parser("family", help="emit a family member as a manifold file")
    _add_source_flags(family, family_only=True)
    family.set_defaults(handler=_cmd_family)

    validate = sub.add_parser("validate", help="cross-check invariants")
    _add_source_flags(validate)
    validate.add_argument("--json", action="store_true")
    validate.set_defaults(handler=_cmd_validate)

    _COMMANDS.update(sub.choices)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # argparse's subcommand action hands the rest of argv to the named
    # subcommand's parser; a known name goes there without the top level
    command = _COMMANDS.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        if getattr(args, "family", None) is None and getattr(args, "file", None) is None:
            raise _UsageError("one of --family or --file is required")
        if getattr(args, "family", None) is not None and getattr(args, "file", None) is not None:
            raise _UsageError("--family and --file are mutually exclusive")
        return args.handler(args)
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the flush at exit
        # cannot raise again, and report nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PARSE
    except (
        _UsageError, FormError, PresentationError, FamilyParameterError, ManifoldFileError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        # a listing or a form too large for the memory left
        print("error: out of memory", file=sys.stderr)
        return EXIT_PARSE
    except InvariantError as exc:
        for violation in exc.violations:
            print(f"invalid: {violation}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        # str() refuses an int of more than sys.get_int_max_str_digits()
        # digits, and a value derived from a readable record can have more
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(
            f"error: a derived integer has more than {limit} digits, "
            f"at most {limit} are written",
            file=sys.stderr,
        )
        return EXIT_PARSE
