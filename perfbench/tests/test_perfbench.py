"""Tests for the benchmark harness.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from fourfold import _pure, cli  # noqa: E402

TINY_KEYS = {
    "analyze:M1_g1@32", "validate:M1_g1", "analyze:M4_n3@32", "analyze:E8_H@32",
    "analyze:CP2_1CP2bar@16", "analyze:CP2_3CP2bar@16", "analyze:diag222@32",
    "enumerate:M1_g3@32", "enumerate:M4_n2@16",
}


def _tiny() -> list[corpus.Record]:
    everything = [rec for name in corpus.WORKLOADS for rec in corpus.records(name)]
    chosen = [rec for rec in everything if rec.key in TINY_KEYS]
    assert {rec.key for rec in chosen} == TINY_KEYS
    return chosen


@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    """The rational-search workload, shrunk to the tiny corpus in this process."""
    tiny = _tiny()
    monkeypatch.setitem(corpus.WORKLOADS, "rational-search", lambda: tiny)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.delenv("FOURFOLD_PURE", raising=False)
    monkeypatch.delenv("FOURFOLD_BOUND", raising=False)
    return ["--workload", "rational-search", "--seed", "7", "--seconds", "0"]


def _result(capsys) -> tuple[dict, str]:
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(tiny_workload, capsys, trace):
    assert run.main(tiny_workload + ["--trace", trace]) == 0
    result, out = _result(capsys)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= (run.MIN_RECORDS if trace == "0" else 2 * len(TINY_KEYS))
    named = run.END_TO_END if trace == "0" else [(n, u) for n, u, _ in layers.METRICS]
    assert set(result["metrics"]) == {name for name, _ in named}
    for name, unit in named:
        assert result["metrics"][name]["unit"] == unit
        assert type(result["metrics"][name]["value"]) is float
        assert any(line.split()[1:2] == [name] and unit in line for line in out.splitlines())
    if trace == "0":
        assert "failed_ratio" in out
        assert all(result["metrics"][name]["value"] > 0 for name, _ in named)
        setup_row = next(line.split() for line in out.splitlines() if line.startswith("# setup_s"))
        assert int(setup_row[4]) >= run.SETUP_RUNS
    else:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        # six analyze records validate 3 times each, two enumerate records once
        assert values["obstruction.validate.calls_per_record"] == (6 * 3 + 2) / 8
        assert values["cli.parse.calls"] == len(TINY_KEYS)


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    recs = _tiny()
    paths = corpus.write_files(recs, tmp_path)
    plain = [run._call(cli.main, r.argv(paths[r.manifold.key]))[1:] for r in recs]
    original = cli.main
    with layers.Tracer() as tracer:
        traced = [run._call(cli.main, r.argv(paths[r.manifold.key]))[1:] for r in recs]
        values = tracer.take_pass(sum(r.command != "validate" for r in recs))
    assert cli.main is original
    assert traced == plain
    assert values["cli.parse.calls"] == len(recs)
    assert values["obstruction.tier.mod8"] == 1  # M4 n=3
    assert values["obstruction.verdict.unknown"] == 1  # diag(2,2,2)


def test_wrong_expected_witness_fails_the_run(tiny_workload, capsys, monkeypatch):
    real = checks.expected

    def wrong(rec):
        exp = real(rec)
        if exp.witness is not None:
            exp = dataclasses.replace(exp, witness=tuple(-c for c in exp.witness[::-1]) + (1,))
        return exp

    monkeypatch.setattr(checks, "expected", wrong)
    assert run.main(tiny_workload + ["--trace", "0"]) == 1
    result, _ = _result(capsys)
    assert result["correct"] is False
    assert result["failed"] > 0


def test_stdout_mismatch_between_passes_fails(tmp_path):
    recs = [r for r in _tiny() if r.key == "validate:M1_g1"]
    paths = corpus.write_files(recs, tmp_path)
    expectations = {r.key: checks.expected(r) for r in recs}
    runner = run.Runner(cli, checks.check, recs, paths, expectations, seed=1)
    runner.run_pass()
    runner.first_output[recs[0].key] += " "
    runner.run_pass()
    assert runner.failures == [f"{recs[0].key}: stdout differs from an earlier pass"]


def test_repeated_records_weigh_the_same(tmp_path):
    recs = _tiny()
    paths = corpus.write_files(recs, tmp_path)
    expectations = {r.key: checks.expected(r) for r in recs}
    runner = run.Runner(cli, checks.check, recs, paths, expectations, seed=1)
    runner.run_pass()
    runner.repeats[recs[0].key] = 3
    runner.run_pass()
    assert runner.failures == []
    assert runner.attempted == 2 * len(recs) + 2
    assert len(runner.times[recs[0].key]) == 4
    assert len(runner.smoothed_calls()) == 2 * len(recs)


@pytest.mark.parametrize("var", run.REFUSED_ENV)
def test_refuses_a_stray_environment_variable(tiny_workload, capsys, monkeypatch, var):
    monkeypatch.setenv(var, "8")
    assert run.main(tiny_workload + ["--trace", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert var in captured.err


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.METRICS
    ]


@pytest.mark.parametrize(
    "matrix, residues, limit",
    [
        (oracle.diagonal([1, -1, -1]), (1, 1, 1), 3),
        (oracle.hyperbolic(2), (0, 0, 0, 0), 4),
        (corpus.CHAIN4_BLOCK.matrix, (0, 0, 0, 0), 2),
        (oracle.block_sum(oracle.H, ((2,),)), (0, 1, 0), 3),
    ],
)
def test_box_solver_matches_brute_force(matrix, residues, limit):
    box = list(itertools.product(*(oracle.allowed(r, limit) for r in residues)))
    for target in sorted({oracle.quad(matrix, h) for h in box}) + [10**6]:
        want = [h for h in box if oracle.quad(matrix, h) == target]
        assert oracle.box_solutions(matrix, residues, limit, target) == want


def test_raw_sweeps_agree_and_catch_a_wrong_backend():
    assert checks.raw_sweeps({"pure": _pure}) == []

    class Wrong:
        def all_hits(self, *args):
            return []

        def first_hit(self, *args):
            return (0,) * args[2]

        def first_hit_on_shell(self, *args):
            return None

    problems = checks.raw_sweeps({"wrong": Wrong()})
    assert len(problems) == 2  # the 2H box holds hits, the 3H box holds none


def test_gauge_scales_to_the_nominal_speed():
    gauge = reference.Gauge()
    gauge.tick()
    gauge.tick()  # too soon: no second sample
    assert len(gauge.samples) == 1
    gauge.samples = [reference.NOMINAL_S, 3 * reference.NOMINAL_S]
    assert gauge.scale() == pytest.approx(0.5)
