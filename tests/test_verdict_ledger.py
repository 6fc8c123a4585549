"""The verdict ledger: every structure status the engines give on a fixed set of records.

tests/data/verdicts.tsv holds one row per (record, structure): the status
of decide_almost_complex at bound 32, exclude_symplectic and
exclude_complex, on the census grid of test_cli, the Kahler surfaces of
test_ground_truth, the stall records in tests/data, three records whose
almost complex status a cited rule settles but the engines leave Unknown
(BASELINE) and one member of each of the paper's families.  Family rows
also hold the status under assume_pi1_distinct.  tests/data/claims.tsv
holds, per family, the paper's claim and a mark read off the ledger:
reproduced when every status is the claim, discrepancy when a decided
status contradicts it, open otherwise.

The test recomputes both files and, on a mismatch, names every row that
moved.  A change that moves a row rewrites the files and lists the moved
rows in CHANGES.md:

    PYTHONPATH=src python tests/test_verdict_ledger.py --write

Without --write the script prints, from the two files, the status counts
per source and structure, and the claims table.
"""

import sys
from collections import Counter
from pathlib import Path

from fourfold.abelian import AbelianGroup
from fourfold.classification import exclude_complex, exclude_symplectic
from fourfold.cli import parse_manifold_file
from fourfold.families import FamilyId, family_invariants, known_discrepancies
from fourfold.forms import IntegerMatrix, IntersectionForm
from fourfold.obstruction import ManifoldInvariants, decide_almost_complex

from oracles import E8_ROWS
from test_cli import _census
from test_ground_truth import SURFACES

DATA = Path(__file__).parent / "data"
VERDICTS = DATA / "verdicts.tsv"
CLAIMS = DATA / "claims.tsv"
BOUND = 32
STRUCTURES = ("almost_complex", "symplectic", "complex")
STATUSES = ("Exists", "NotExists", "ConditionallyExcluded", "Unknown")

# (family, the record that stands for it): M4's claim splits by the parity of n
FAMILIES = (
    ("M1", "M1 g=1"),
    ("M2", "M2 g=1 n=1"),
    ("M3", "M3 g=1 n=1"),
    ("M4 n even", "M4 n=2"),
    ("M4 n odd", "M4 n=3"),
)
# the paper's claim for every family: almost complex, not symplectic, not complex
PAPER_CLAIM = ("Exists", "NotExists", "NotExists")
# (name, form, b1): the two non-unimodular rational-search records, whose
# even classes miss the target's coset, and positive definite E8 with
# b1 = 13, whose target -8 has the wrong sign; each validates clean
BASELINE = (
    ("diag(2,2,2) b1=1", IntersectionForm.diagonal([2] * 3), 1),
    ("diag(2,2,2,2) b1=1", IntersectionForm.diagonal([2] * 4), 1),
    ("E8 b1=13", IntersectionForm(IntegerMatrix(E8_ROWS)), 13),
)

VERDICTS_HEADER = ("source", "record", "structure", "status", "assuming_pi1_distinct")
CLAIMS_HEADER = ("family", "record", *STRUCTURES, "mark")


def _statuses(m, assume_pi1_distinct=False):
    return (
        str(decide_almost_complex(m, bound=BOUND).status),
        str(exclude_symplectic(m, assume_pi1_distinct).status),
        str(exclude_complex(m, assume_pi1_distinct).status),
    )


def _records():
    """(source, record name, record, whether its rows hold the assumed status)."""
    for m in _census():
        yield "census", m.name, m, False
    for m, _ in SURFACES:
        yield "ground-truth", m.name, m, False
    for path in sorted(DATA.glob("*.man")):
        yield "stall", path.name, parse_manifold_file(path.read_text(encoding="ascii")), False
    for name, form, b1 in BASELINE:
        chi = 2 - 2 * b1 + form.rank
        m = ManifoldInvariants(name, chi, form.signature, form, b1, AbelianGroup(b1))
        yield "baseline", name, m, False
    for _, spec in FAMILIES:
        yield "family", spec, family_invariants(FamilyId.parse(spec)), True


def verdict_rows():
    rows = []
    for source, name, m, assumed in _records():
        plain = _statuses(m)
        assuming = _statuses(m, True) if assumed else ("-",) * len(STRUCTURES)
        for row in zip(STRUCTURES, plain, assuming):
            rows.append((source, name, *row))
    return rows


def _mark(statuses) -> str:
    if statuses == PAPER_CLAIM:
        return "reproduced"
    decided = ("Exists", "NotExists")
    if any(s in decided and c in decided and s != c for s, c in zip(statuses, PAPER_CLAIM)):
        return "discrepancy"
    return "open"


def claim_rows(verdicts):
    status = {(row[1], row[2]): row[3] for row in verdicts if row[0] == "family"}
    return [
        (family, spec, *PAPER_CLAIM, _mark(tuple(status[spec, s] for s in STRUCTURES)))
        for family, spec in FAMILIES
    ]


def _text(header, rows) -> str:
    return "".join("\t".join(row) + "\n" for row in [header, *rows])


def _read(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [tuple(line.split("\t")) for line in lines[1:]]


def _moved(path, rows, width) -> list[str]:
    """One line per row of path that rows change, add or drop, keyed by its first width fields."""
    old = {row[:width]: row[width:] for row in _read(path)}
    new = {row[:width]: row[width:] for row in rows}
    return [
        f"{' | '.join(key)}: {' '.join(old.get(key, ('(none)',)))} -> "
        f"{' '.join(new.get(key, ('(none)',)))}"
        for key in [*old, *(k for k in new if k not in old)]
        if old.get(key) != new.get(key)
    ]


def test_ledger_records_are_named_once():
    names = [name for _, name, _, _ in _records()]
    assert len(names) == len(set(names))


def test_verdicts_and_claims_match_the_ledger():
    verdicts = verdict_rows()
    claims = claim_rows(verdicts)
    moved = _moved(VERDICTS, verdicts, 3) + _moved(CLAIMS, claims, 1)
    assert not moved, "rows moved:\n" + "\n".join(moved)
    assert VERDICTS.read_text(encoding="utf-8") == _text(VERDICTS_HEADER, verdicts)
    assert CLAIMS.read_text(encoding="utf-8") == _text(CLAIMS_HEADER, claims)


def test_baseline_records_validate_clean():
    for source, name, m, _ in _records():
        if source == "baseline":
            assert not m.violations, name


def test_verdicts_follow_the_cascade():
    # almost complex NotExists excludes both structures; invariants never
    # give symplectic or complex Exists; the assumption only settles Unknowns
    status, broken = {}, []
    for _, name, structure, plain, assuming in verdict_rows():
        status[name, structure] = plain
        if structure != "almost_complex" and "Exists" in (plain, assuming):
            broken.append(f"{name} | {structure}: Exists")
        if assuming == "ConditionallyExcluded" and plain != "Unknown":
            broken.append(f"{name} | {structure}: assumed ConditionallyExcluded over {plain}")
    for (name, structure), plain in status.items():
        if structure == "almost_complex" and plain == "NotExists":
            others = (status[name, "symplectic"], status[name, "complex"])
            if others != ("NotExists", "NotExists"):
                broken.append(f"{name}: almost complex NotExists, then {' '.join(others)}")
    assert not broken, "\n".join(broken)


def test_every_discrepancy_carries_a_note():
    # a family whose verdict contradicts the paper says why
    for family, spec, *_, mark in claim_rows(verdict_rows()):
        notes = known_discrepancies(family_invariants(FamilyId.parse(spec)))
        assert bool(notes) == (mark == "discrepancy"), family


def _summary() -> str:
    counts = Counter((row[0], row[2], row[3]) for row in _read(VERDICTS))
    sources = list(dict.fromkeys(row[0] for row in _read(VERDICTS)))
    lines = ["source        structure       " + "".join(f"{s:>23}" for s in STATUSES)]
    for source in sources:
        for structure in STRUCTURES:
            cells = "".join(f"{counts[source, structure, s]:>23}" for s in STATUSES)
            lines.append(f"{source:<14}{structure:<16}{cells}")
    lines.append("")
    lines += ["  ".join(f"{cell:<14}" for cell in row).rstrip()
              for row in [CLAIMS_HEADER, *_read(CLAIMS)]]
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        verdicts = verdict_rows()
        VERDICTS.write_text(_text(VERDICTS_HEADER, verdicts), encoding="utf-8")
        CLAIMS.write_text(_text(CLAIMS_HEADER, claim_rows(verdicts)), encoding="utf-8")
    print(_summary())
