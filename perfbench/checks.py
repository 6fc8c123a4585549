"""The correctness gate: what each record must print, and the raw sweep checks.

Expected answers come from oracle.py's arithmetic and from two theorems,
never from the engine under test:

* even lattice, w2 = 0: every admissible h is 2x and q(h) = 4 q(x) with q(x)
  even, so no solution exists unless 8 divides the target;
* unimodular form: characteristic vectors have squares congruent to the
  signature mod 8.

Where the search tier answers, Exists must carry the lexicographically
smallest witness of minimal max-norm.  On a literal kH with w2 = 0 the
engine answers with the documented closed form (target/4, 2, 0, ..., 0),
which is what the gate expects there.  Unknown is accepted only where
fourfold answers Unknown today; NotExists is accepted there only when one
of the theorems above proves it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import oracle
from corpus import Manifold, Record


@dataclass(frozen=True)
class Expected:
    statuses: frozenset[str] = frozenset()
    witness: tuple[int, ...] | None = None
    spin: str = ""
    witnesses: tuple[tuple[int, ...], ...] = ()
    complete: frozenset[bool] = frozenset()


def _even_classes_miss_target(m: Manifold) -> bool:
    return oracle.is_even(m.matrix) and not any(m.w2) and m.target % 8 != 0


def _is_literal_kh(m: Manifold) -> bool:
    rank = len(m.matrix)
    return rank % 2 == 0 and m.matrix == oracle.hyperbolic(rank // 2)


def expected(rec: Record) -> Expected:
    m = rec.manifold
    if rec.command == "validate":
        return Expected()
    if rec.command == "enumerate":
        if len(m.matrix) == 2 and _is_literal_kh(m) and not any(m.w2) and m.target:
            return Expected(
                witnesses=tuple(oracle.hyperbolic_pairs(m.target)),
                complete=frozenset({True}),
            )
        hits = oracle.box_solutions(m.matrix, m.w2, rec.bound, m.target)
        complete = {False, True} if _even_classes_miss_target(m) else {False}
        return Expected(witnesses=tuple(hits), complete=frozenset(complete))

    spin = "Spin" if oracle.is_even(m.matrix) else "NotSpin"
    nothing = Expected(statuses=frozenset({"NotExists"}), spin=spin)
    if m.unimodular and (m.target - m.tau) % 8 != 0:
        return nothing
    if _is_literal_kh(m) and not any(m.w2):
        if _even_classes_miss_target(m):
            return nothing
        closed = (m.target // 4, 2) + (0,) * (len(m.matrix) - 2)
        return Expected(statuses=frozenset({"Exists"}), witness=closed, spin=spin)
    hit = oracle.minimal_witness(m.matrix, m.w2, rec.bound, m.target)
    if hit is not None:
        return Expected(statuses=frozenset({"Exists"}), witness=hit, spin=spin)
    # the search tier answers Unknown; a later NotExists must be a theorem
    statuses = {"Unknown", "NotExists"} if _even_classes_miss_target(m) else {"Unknown"}
    return Expected(statuses=frozenset(statuses), spin=spin)


def _check_witness(m: Manifold, coeffs) -> str | None:
    if not isinstance(coeffs, list) or len(coeffs) != len(m.matrix):
        return f"witness {coeffs!r} is not a vector of length {len(m.matrix)}"
    if oracle.quad(m.matrix, coeffs) != m.target:
        return f"witness {coeffs} has square {oracle.quad(m.matrix, coeffs)}, not {m.target}"
    if any((c - r) % 2 for c, r in zip(coeffs, m.w2)):
        return f"witness {coeffs} is not congruent to w2 {list(m.w2)} mod 2"
    return None


def check(rec: Record, exp: Expected, code: int, out: str) -> str | None:
    """None when the call's exit code and stdout are right, else why not."""
    if code != 0:
        return f"exit code {code}"
    m = rec.manifold
    if rec.command == "validate":
        if not any(line.split() == ["status", "ok"] for line in out.splitlines()):
            return "validate did not report status ok"
        return None
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    shown = doc.get("manifold", {})
    for field, value in (("chi", m.chi), ("tau", m.tau), ("b1", m.b1), ("b2", len(m.matrix))):
        if shown.get(field) != value:
            return f"manifold {field} is {shown.get(field)!r}, expected {value}"

    if rec.command == "enumerate":
        if doc.get("target_square") != m.target:
            return f"target_square {doc.get('target_square')!r}, expected {m.target}"
        if doc.get("complete") not in exp.complete:
            return f"complete is {doc.get('complete')!r}, expected one of {sorted(exp.complete)}"
        listed = doc.get("witnesses")
        if not isinstance(listed, list):
            return "witnesses is not a list"
        if any(w.get("square") != m.target for w in listed):
            return "a listed witness does not report the target square"
        got = [tuple(w.get("coefficients", ())) for w in listed]
        if got != list(exp.witnesses):
            return f"{len(got)} witnesses listed, expected {len(exp.witnesses)} (or order differs)"
        return None

    if doc.get("spin") != exp.spin:
        return f"spin {doc.get('spin')!r}, expected {exp.spin!r}"
    verdict = doc.get("almost_complex", {})
    status = verdict.get("status")
    if status not in exp.statuses:
        return f"almost complex {status!r}, expected one of {sorted(exp.statuses)}"
    witness = verdict.get("witness")
    if status != "Exists":
        return None if witness is None else f"{status} verdict carries a witness"
    if not isinstance(witness, dict):
        return "Exists verdict without a witness"
    coeffs = witness.get("coefficients")
    problem = _check_witness(m, coeffs)
    if problem:
        return problem
    if witness.get("square") != m.target:
        return f"witness reports square {witness.get('square')!r}, not {m.target}"
    if tuple(coeffs) != exp.witness:
        return f"witness {coeffs}, expected {list(exp.witness)}"
    return None


def _flat(m: oracle.Matrix) -> list[int]:
    return [v for row in m for v in row]


# The four raw backend sweeps, called without tiering or size guards:
# (label, backend function, form, residues, limit, target).
SWEEPS = [
    ("exhaust diag(1,1), box 400", "all_hits", oracle.diagonal([1, 1]), (1, 1), 400, 42),
    ("exhaust 2H, box 20, target 8", "all_hits", oracle.hyperbolic(2), (0,) * 4, 20, 8),
    ("first hit 3H, box 4", "first_hit", oracle.hyperbolic(3), (0,) * 6, 4, 4),
    ("shell sweep 2H, shell 24", "first_hit_on_shell", oracle.hyperbolic(2), (0,) * 4, 24, 12),
]


def _sweep_answer(func: str, m: oracle.Matrix, residues, limit: int, target: int):
    hits = oracle.box_solutions(m, residues, limit, target)
    if func == "all_hits":
        return hits
    if func == "first_hit_on_shell":
        hits = [h for h in hits if max(map(abs, h), default=0) == limit]
    return hits[0] if hits else None


def _normalize(result):
    if result is None:
        return None
    if isinstance(result, list):
        return [tuple(int(c) for c in row) for row in result]
    return tuple(int(c) for c in result)


def raw_sweeps(backends: dict) -> list[str]:
    """Run each raw sweep on every backend; returns the disagreements found."""
    problems = []
    for label, func, m, residues, limit, target in SWEEPS:
        want = _sweep_answer(func, m, residues, limit, target)
        for name, backend in backends.items():
            got = getattr(backend, func)(_flat(m), list(residues), len(m), limit, target)
            if _normalize(got) != want:
                problems.append(f"raw sweep {label!r} on {name}: {got!r}, expected {want!r}")
    return problems
