"""Acceptance gate: eleven criteria, one pass/fail line each.

Run with -s to see the per-criterion lines even when everything passes:

    pytest tests/test_acceptance.py -v -s
"""

import json
import os
import random
import subprocess
import sys
import time

import numpy as np

import fourfold
from fourfold.abelian import abelianize
from fourfold.classification import exclude_complex, exclude_symplectic
from fourfold.families import FamilyId, family_invariants, known_discrepancies
from fourfold.obstruction import (
    VerdictStatus,
    decide_almost_complex,
    decide_wu_existence,
    enumerate_chern_classes,
    validate_invariants,
    wu_target,
)
from oracles import (
    assemble_form,
    box_solvable,
    numpy_box_exists,
    random_summands,
    summand_residues,
)


# the directory holding the fourfold under test, installed or on pytest's path
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(fourfold.__file__)))


def _run_cli(argv, env=None, **kwargs):
    """`python -m fourfold *argv` in a subprocess that imports the same fourfold."""
    env = dict(os.environ if env is None else env)
    paths = (_PACKAGE_ROOT, env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run(
        [sys.executable, "-m", "fourfold", *argv], capture_output=True, env=env, **kwargs
    )


def _report(num: int, ok: bool, detail: str = ""):
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_m1_exists_with_documented_witness():
    start = time.monotonic()
    bad = []
    for g in range(1, 51):
        m = family_invariants(FamilyId("M1", g=g))
        v = decide_almost_complex(m)
        documented = (-2 * g, 2)
        if v.status is not VerdictStatus.EXISTS:
            bad.append((g, str(v.status)))
        elif v.witness.coefficients != documented:
            bad.append((g, v.witness.coefficients))
        elif m.form.evaluate(documented) != -8 * g or v.witness.square != -8 * g:
            bad.append((g, "square"))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 1.0
    _report(1, ok, f"g <= 50, witness (-2g, 2), {elapsed:.3f}s" if ok else f"{bad[:3]} {elapsed:.3f}s")


def test_criterion_02_m2_exists_with_documented_witness():
    bad = []
    for g in range(1, 21):
        for n in range(1, 21):
            m = family_invariants(FamilyId("M2", g=g, n=n))
            v = decide_almost_complex(m)
            documented = (2 - 2 * g - 2 * n, 2)
            square = 8 - 8 * g - 8 * n
            if v.status is not VerdictStatus.EXISTS:
                bad.append((g, n, str(v.status)))
            elif v.witness.coefficients != documented or v.witness.square != square:
                bad.append((g, n, v.witness.coefficients))
            elif m.form.evaluate(documented) != square:
                bad.append((g, n, "square"))
    _report(2, not bad, "400 members, witness (2-2g-2n, 2)" if not bad else str(bad[:3]))


def test_criterion_03_m3_documented_witness_and_solver():
    bad = []
    for g in range(1, 21):
        for n in range(2, 21):
            m = family_invariants(FamilyId("M3", g=g, n=n))
            padded = (2, 2, 2, -2 * g, 2, -2 * n) + (0,) * (m.form.rank - 6)
            if m.form.evaluate(padded) != 8 - 8 * g - 8 * n:
                bad.append((g, n, "witness square"))
            if decide_almost_complex(m).status is not VerdictStatus.EXISTS:
                bad.append((g, n, "solver"))
    for g in range(1, 21):
        m = family_invariants(FamilyId("M3", g=g, n=1))
        if decide_almost_complex(m).status is not VerdictStatus.EXISTS:
            bad.append((g, 1, "solver"))
    _report(
        3,
        not bad,
        "six-coefficient witness verifies, solver Exists incl. n=1" if not bad else str(bad[:3]),
    )


def test_criterion_04_m4_even_pattern_and_n1():
    bad = []
    for n in range(2, 41, 2):
        m = family_invariants(FamilyId("M4", n=n))
        pattern = ((2, 2, 2, -4) * (n // 2))
        if m.form.evaluate(pattern) != -4 * n:
            bad.append((n, "pattern square"))
        v = decide_almost_complex(m)
        if v.status is not VerdictStatus.EXISTS:
            bad.append((n, str(v.status)))
    v1 = decide_almost_complex(family_invariants(FamilyId("M4", n=1)))
    if v1.status is not VerdictStatus.NOT_EXISTS:
        bad.append((1, str(v1.status)))
    _report(4, not bad, "even n <= 40 Exists, (2,2,2,-4) pattern checks, n=1 NotExists" if not bad else str(bad[:3]))


def test_criterion_05_discrepancy_audit_odd_n(tmp_path):
    start = time.monotonic()
    bad = []
    rng = np.random.default_rng(20240823)
    for n in range(3, 16, 2):
        m = family_invariants(FamilyId("M4", n=n))
        target = wu_target(m.chi, m.tau)

        # the mod-8 filter must already refuse
        v = decide_almost_complex(m)
        if v.status is not VerdictStatus.NOT_EXISTS or not any(
            "mod-8" in r for r in v.reasons
        ):
            bad.append((n, "filter"))

        # independent exhaustive search: even vectors, coefficients in [-20, 20]
        if box_solvable(["H"] * n, 20, target):
            bad.append((n, "box-20 found a solution"))

        # randomized search to bound 200, a million samples
        found = 0
        for _ in range(4):
            x = 2 * rng.integers(-100, 101, size=(250_000, 2 * n), dtype=np.int64)
            squares = 2 * np.einsum("ij,ij->i", x[:, 0::2], x[:, 1::2])
            found += int(np.count_nonzero(squares == target))
        if found:
            bad.append((n, f"randomized search hit {found}"))

        # the tool itself: NotExists plus a discrepancy note
        proc = _run_cli(["analyze", "--family", f"M4 n={n}"], text=True)
        if proc.returncode != 0 or "NotExists" not in proc.stdout:
            bad.append((n, "cli verdict"))
        if "discrepancy" not in proc.stdout or "not a multiple of 8" not in proc.stdout:
            bad.append((n, "cli note"))
        if not known_discrepancies(m):
            bad.append((n, "no note"))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60.0
    _report(5, ok, f"odd 3 <= n <= 15, box 20 + 10^6 samples to 200, {elapsed:.1f}s" if ok else f"{bad[:3]} {elapsed:.1f}s")


def test_criterion_06_oracle_equivalence():
    rng = random.Random(1618)
    disagreements = 0
    for _ in range(200):
        summands = random_summands(rng, max_rank=6)
        form = assemble_form(summands)
        residues = summand_residues(summands)
        target = rng.randint(-64, 64)
        verdict = decide_wu_existence(form, residues, target, bound=16)
        decided_exists = verdict.status is VerdictStatus.EXISTS
        oracle_exists = box_solvable(summands, 16, target)
        if decided_exists != oracle_exists:
            disagreements += 1
        # a second, independent check: a raw numpy walk of the whole box
        if numpy_box_exists(form, residues, 16, target) != oracle_exists:
            disagreements += 1
        if decided_exists and form.evaluate(verdict.witness.coefficients) != target:
            disagreements += 1
    _report(6, disagreements == 0, f"200 forms, {disagreements} disagreements")


def test_criterion_07_homology_fixtures():
    bad = []
    for g in range(1, 21):
        m = family_invariants(FamilyId("M1", g=g))
        if abelianize(m.presentation).rank != 2 * g + 2:
            bad.append(("M1", g))
        n = g
        m = family_invariants(FamilyId("M4", n=n))
        if abelianize(m.presentation).rank != 2 * n + 1:
            bad.append(("M4", n))
        for n in range(1, 21):
            m = family_invariants(FamilyId("M2", g=g, n=n))
            if abelianize(m.presentation).rank != 2 * g + 2 * n:
                bad.append(("M2", g, n))
    checked = 0
    for g in range(1, 21):
        for fid in [FamilyId("M1", g=g), FamilyId("M4", n=g)] + [
            FamilyId(kind, g=g, n=n)
            for kind in ("M2", "M3")
            for n in range(1, 21)
        ]:
            if validate_invariants(family_invariants(fid)):
                bad.append(("validate", str(fid)))
            checked += 1
    _report(7, not bad, f"ranks match, {checked} records validate" if not bad else str(bad[:3]))


_SYMPLECTIC_EXPECT = {
    "M1": VerdictStatus.CONDITIONALLY_EXCLUDED,
    "M2": VerdictStatus.CONDITIONALLY_EXCLUDED,
    "M3": VerdictStatus.NOT_EXISTS,
    "M4": VerdictStatus.NOT_EXISTS,
}


def _family_grid(limit=10):
    for g in range(1, limit + 1):
        yield FamilyId("M1", g=g)
        yield FamilyId("M4", n=g)
        for n in range(1, limit + 1):
            yield FamilyId("M2", g=g, n=n)
            yield FamilyId("M3", g=g, n=n)


def test_criterion_08_symplectic_exclusion():
    bad = []
    for fid in _family_grid():
        m = family_invariants(fid)
        v = exclude_symplectic(m, assume_pi1_distinct=True)
        if v.status is not _SYMPLECTIC_EXPECT[fid.kind]:
            bad.append((str(fid), str(v.status)))
        if v.status is VerdictStatus.EXISTS:
            bad.append((str(fid), "Exists"))
    _report(
        8,
        not bad,
        "M3/M4 NotExists, M1/M2 ConditionallyExcluded, g,n <= 10" if not bad else str(bad[:3]),
    )


def test_criterion_09_complex_exclusion_mirrors():
    bad = []
    for fid in _family_grid():
        m = family_invariants(fid)
        v = exclude_complex(m, assume_pi1_distinct=True)
        if v.status is not _SYMPLECTIC_EXPECT[fid.kind]:
            bad.append((str(fid), str(v.status)))
        expected_reason = f"class VII excluded: b1 = {m.b1} != 1"
        if expected_reason not in v.reasons:
            bad.append((str(fid), "missing class VII reason"))
    _report(
        9,
        not bad,
        "statuses mirror criterion 8, class VII reason everywhere" if not bad else str(bad[:3]),
    )


def test_criterion_10_enumeration_for_prime_genus():
    bad = []
    for g in (2, 3, 5, 7):
        enum = enumerate_chern_classes(family_invariants(FamilyId("M1", g=g)))
        expected = sorted(
            [(2 * g, -2), (-2 * g, 2), (2, -2 * g), (-2, 2 * g)]
        )
        got = list(enum.coefficients)
        if not enum.complete:
            bad.append((g, "not complete"))
        if got != expected:
            bad.append((g, got))
    _report(10, not bad, "4 witnesses, COMPLETE, prime g in {2,3,5,7}" if not bad else str(bad[:2]))


def test_criterion_11_cli_determinism(tmp_path):
    record = _run_cli(["family", "--family", "M2 g=2 n=1"])
    path = tmp_path / "m2.man"
    path.write_bytes(record.stdout)
    tampered = tmp_path / "bad.man"
    tampered.write_bytes(record.stdout.replace(b"tau = 0", b"tau = 2"))

    suite = [
        ["analyze", "--family", "M1 g=1"],
        ["analyze", "--family", "M1 g=2", "--json"],
        ["analyze", "--family", "M4 n=3"],
        ["analyze", "--family", "M3 g=1 n=2", "--assume-pi1-distinct"],
        ["analyze", "--file", str(path)],
        ["enumerate", "--family", "M1 g=5"],
        ["enumerate", "--family", "M4 n=2", "--bound", "6", "--json"],
        ["family", "--family", "M3 g=1 n=1"],
        ["validate", "--family", "M2 g=3 n=4"],
        ["validate", "--file", str(tampered), "--json"],
    ]

    def run_suite():
        outputs = []
        env = {k: v for k, v in os.environ.items() if k != "FOURFOLD_BOUND"}
        for argv in suite:
            proc = _run_cli(argv, env=env)
            outputs.append((argv[0], proc.returncode, proc.stdout, proc.stderr))
        return outputs

    first = run_suite()
    second = run_suite()
    ok = first == second
    detail = f"{len(suite)} commands byte-identical across two runs"
    if not ok:
        diffs = [a[0] for a, b in zip(first, second) if a != b]
        detail = f"outputs differ: {diffs}"
    codes = [entry[1] for entry in first]
    expected_codes = [0, 0, 0, 0, 0, 0, 0, 0, 0, 2]
    if codes != expected_codes:
        ok = False
        detail = f"exit codes {codes} != {expected_codes}"
    _report(11, ok, detail)


def test_sparse_relations_validate_in_time(tmp_path):
    # 40 relation rows about 10% nonzero in [-5, 5]: the unit pivots run out
    # early and leave a remainder whose elimination must not blow up
    rng = random.Random(6)
    rows = [[rng.randint(-5, 5) if rng.random() < 0.1 else 0 for _ in range(40)] for _ in range(40)]
    path = tmp_path / "relations.man"
    path.write_text(
        "name = relations\nchi = 2\ntau = 0\nform = H\nb1 = 1\n"
        "h1 = Z^1 + Z/4 + Z/4 + Z/8 + Z/8 + Z/40 + Z/200\ngens = 40\n"
        + "".join(f"rel = {','.join(map(str, row))}\n" for row in rows),
        encoding="ascii",
    )
    proc = _run_cli(["validate", "--file", str(path)], timeout=30)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.splitlines()[-1].split() == [b"status", b"ok"]
