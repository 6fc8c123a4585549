"""The benchmark's workloads: records, the CLI calls on them, and their files.

Importing this module imports fourfold from the checkout's ``src``
directory, and only from there, so a run always measures the code next to
it.  Family records are written by fourfold's own ``format_manifold_file``;
every other record is written here from named blocks whose rank,
signature and determinant are stated, not computed by the program.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import prod
from pathlib import Path

import oracle
from oracle import E8, H, Matrix

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
import fourfold  # noqa: E402
from fourfold import cli  # noqa: E402
from fourfold.families import FamilyId, family_invariants  # noqa: E402

if Path(fourfold.__file__).resolve().parent != SRC / "fourfold":
    raise ImportError(f"fourfold was imported from {fourfold.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Block:
    """An orthogonal summand with its signature and determinant as stated."""

    matrix: Matrix
    signature: int
    det: int


H_BLOCK = Block(H, 0, -1)
E8_BLOCK = Block(E8, 8, 1)
NEG_E8_BLOCK = Block(oracle.negate(E8), -8, 1)
# leading minors 2, 3, 4, 13 are all positive, so the form is positive definite
CHAIN4_BLOCK = Block(((2, 1, 0, 0), (1, 2, 1, 0), (0, 1, 2, 1), (0, 0, 1, 4)), 4, 13)


def unit(d: int) -> Block:
    return Block(((d,),), (d > 0) - (d < 0), d)


@dataclass(frozen=True)
class Manifold:
    """One manifold file: its text plus the invariants the gate checks against."""

    key: str
    text: str
    chi: int
    tau: int
    b1: int
    matrix: Matrix
    w2: tuple[int, ...]
    unimodular: bool

    @property
    def target(self) -> int:
        return 3 * self.tau + 2 * self.chi


@dataclass(frozen=True)
class Record:
    """One CLI call: a subcommand on one manifold file, with --json unless validate."""

    command: str
    manifold: Manifold
    bound: int | None = None

    @property
    def key(self) -> str:
        bound = "" if self.bound is None else f"@{self.bound}"
        return f"{self.command}:{self.manifold.key}{bound}"

    def argv(self, path: Path) -> list[str]:
        flags = [] if self.command == "validate" else ["--json"]
        if self.bound is not None:
            flags += ["--bound", str(self.bound)]
        return [self.command, "--file", str(path), *flags]


def _family(spec: str) -> Manifold:
    """A family member, with chi, b1 and the form from the documented formulas."""
    fid = FamilyId.parse(spec)
    g, n = fid.g, fid.n
    if fid.kind == "M1":
        chi, b1, k = -4 * g, 2 * g + 2, 1
    elif fid.kind == "M2":
        chi, b1, k = 4 - 4 * g - 4 * n, 2 * g + 2 * n, 1
    elif fid.kind == "M3":
        chi, b1, k = 4 - 4 * g - 4 * n, 2 * g + 3 * n, n + 1
    else:
        chi, b1, k = -2 * n, 2 * n + 1, n
    text = cli.format_manifold_file(family_invariants(fid))
    key = spec.replace(" ", "_").replace("=", "")
    return Manifold(key, text, chi, 0, b1, oracle.hyperbolic(k), (0,) * (2 * k), True)


def _assembled(key: str, name: str, blocks: list[Block], b1: int) -> Manifold:
    """A record on a block sum; w2 is left for the program to derive."""
    matrix = oracle.block_sum(*(b.matrix for b in blocks))
    rank = len(matrix)
    if all(len(b.matrix) == 1 for b in blocks):
        form = "diag(" + ",".join(str(b.matrix[0][0]) for b in blocks) + ")"
    else:
        form = "matrix [" + ",".join(
            "[" + ",".join(str(v) for v in row) + "]" for row in matrix
        ) + "]"
    # characteristic residue: odd 1x1 blocks contribute 1, even blocks 0
    w2 = []
    for b in blocks:
        if len(b.matrix) == 1:
            w2.append(b.matrix[0][0] & 1)
        elif oracle.is_even(b.matrix):
            w2.extend([0] * len(b.matrix))
        else:
            raise ValueError("odd blocks of rank > 1 have no stated residue")
    chi = 2 - 2 * b1 + rank
    tau = sum(b.signature for b in blocks)
    text = (
        f"# benchmark record\nname = {name}\nchi = {chi}\ntau = {tau}\n"
        f"form = {form}\nb1 = {b1}\nh1 = Z^{b1}\n"
    )
    unimodular = abs(prod(b.det for b in blocks)) == 1
    return Manifold(key, text, chi, tau, b1, matrix, tuple(w2), unimodular)


def _rational(k: int) -> Manifold:
    """CP2 # k CP2bar, the form diag(1, -1, ..., -1)."""
    return _assembled(f"CP2_{k}CP2bar", f"CP2 # {k} CP2bar", [unit(1)] + [unit(-1)] * k, 0)


def _families() -> list[Record]:
    specs = [f"M1 g={g}" for g in (1, 2, 4, 8)]
    specs += [f"M{kind} g={g} n={n}" for kind in (2, 3) for g in (1, 3) for n in (1, 3)]
    specs += [f"M4 n={n}" for n in (1, 2, 3, 5, 10, 20, 40, 80)]
    manifolds = [_family(s) for s in specs]
    manifolds.append(_assembled("E8_H", "E8 + H", [E8_BLOCK, H_BLOCK], 0))
    manifolds.append(
        _assembled("K3", "K3", [NEG_E8_BLOCK, NEG_E8_BLOCK, H_BLOCK, H_BLOCK, H_BLOCK], 0)
    )
    records = []
    for m in manifolds:
        records.append(Record("analyze", m, 32))
        records.append(Record("validate", m))
    return records


def _rational_search() -> list[Record]:
    cases = [(_rational(k), 16) for k in range(1, 7)]
    cases += [(_rational(k), 32) for k in range(1, 6)]
    cases.append((_rational(7), 8))
    cases.append((_assembled("diag222", "diag(2,2,2)", [unit(2)] * 3, 1), 32))
    cases.append((_assembled("diag2222", "diag(2,2,2,2)", [unit(2)] * 4, 1), 32))
    cases.append((_assembled("chain4", "chain 2,2,2,4", [CHAIN4_BLOCK], 0), 32))
    return [Record("analyze", m, bound) for m, bound in cases]


def _enumerate() -> list[Record]:
    cases = [
        (_family("M1 g=3"), 32),
        (_family("M1 g=50"), 32),
        (_family("M4 n=2"), 16),
        (_family("M4 n=2"), 32),
        (_family("M3 g=1 n=1"), 32),
        (_family("M4 n=3"), 8),
        (_rational(3), 32),
        (_rational(4), 16),
    ]
    return [Record("enumerate", m, bound) for m, bound in cases]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "families": _families,
    "rational-search": _rational_search,
    "enumerate": _enumerate,
}


def records(workload: str) -> list[Record]:
    return WORKLOADS[workload]()


def write_files(recs: list[Record], directory: Path) -> dict[str, Path]:
    """Write each distinct manifold once; returns manifold key -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for rec in recs:
        m = rec.manifold
        if m.key not in paths:
            path = directory / f"{m.key}.man"
            path.write_text(m.text, encoding="ascii")
            paths[m.key] = path
    return paths
