"""fourfold end-to-end benchmark: one workload, one closed-loop caller.

    python3 perfbench/run.py --workload families --seed 1 --seconds 30 --trace 0

Run from anywhere; it measures the checkout it sits in (``src/fourfold``).
Each record is one in-process call of the public entry point
``fourfold.cli.main(argv)`` on a manifold file, one call at a time in one
thread, so interpreter start-up does not swamp sub-millisecond records;
start-up is measured on its own as setup_s, in child processes started
between records over the whole run, so that the speed gauge's window covers
them too.  The seed only shuffles the
record order within each pass.  After the first pass, --trace 0 calls each
short record several times a pass, so the records that p50 and p90 pick are
sampled more often; every record still weighs the same in the metrics.
Every call's exit code and stdout are
checked (checks.py), and each record's stdout must be byte-identical in
every pass.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of layers.py, plus the
tracing overhead.  End-to-end times are scaled to a nominal machine speed by
the gauge in reference.py, timed between records over the same run; the
table also prints them as raw wall time.  Per-layer times are wall time.
The last line of stdout is one JSON object; the lines before it give every
metric with its unit and sample count.  Exit code 0
means every check passed, 1 that some failed, 2 that the run was refused.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".bench_work"
SETUP_RUNS = 9
# a set-up probe runs between records when this long has passed since the last
SETUP_EVERY_S = 2.0
MIN_RECORDS = 100
# records_per_s and the slowest records rest on whole passes, and a families
# pass takes 5 to 8 s, so a run of a few seconds still makes this many
MIN_PASSES = 4
# a record that took under REPEAT_S / k in the first pass is called k times in
# each later untraced pass, up to MAX_REPEATS times
REPEAT_S = 0.7
MAX_REPEATS = 6
# environment variables that change what fourfold computes
REFUSED_ENV = ("FOURFOLD_PURE", "FOURFOLD_BOUND")

END_TO_END = [
    ("setup_s", "s"),
    ("record_s.p50", "s"),
    ("record_s.p90", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _call(main, argv: list[str]) -> tuple[float, int | None, str, str]:
    """One record: wall time, exit code (None on an exception), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is a failed record, not a crash
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Runner:
    """Runs passes over one workload's records and gates every output."""

    def __init__(self, cli, check, records, paths, expectations, seed: int):
        self.cli = cli
        self.check = check
        self.records = records
        self.paths = paths
        self.expectations = expectations
        self.rng = random.Random(seed)
        self.first_output: dict[str, str] = {}
        self.times: dict[str, list[float]] = {rec.key: [] for rec in records}
        self.gauge = reference.Gauge()
        self.setup: SetupProbe | None = None  # probed between records when set
        self.repeats = {rec.key: 1 for rec in records}  # calls per record per pass
        self.passes = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> float:
        """One pass in shuffled order; returns the summed wall time of its calls."""
        order = [rec for rec in self.records for _ in range(self.repeats[rec.key])]
        self.rng.shuffle(order)
        total = 0.0
        for rec in order:
            self.gauge.tick()
            if self.setup is not None:
                self.setup.tick()
            if tracer is not None:
                tracer.record = rec.key
                tracer.implicit_validation = rec.command != "validate"
            # looked up per call so that a tracer's wrapper is the one called
            elapsed, code, out, err = _call(self.cli.main, rec.argv(self.paths[rec.manifold.key]))
            self.times[rec.key].append(elapsed)
            total += elapsed
            self.attempted += 1
            if code is None:
                problem = err.strip().splitlines()[-1]
            else:
                try:
                    problem = self.check(rec, self.expectations[rec.key], code, out)
                except (AttributeError, TypeError, KeyError) as exc:
                    problem = f"malformed output: {exc!r}"
            if problem is None:
                previous = self.first_output.setdefault(rec.key, out)
                if previous != out:
                    problem = "stdout differs from an earlier pass"
            if problem is not None:
                self.failures.append(f"{rec.key}: {problem}")
        self.passes += 1
        return total

    def repeat_short_records(self) -> None:
        """Call each record more often the shorter it was in the passes so far."""
        for key, times in self.times.items():
            self.repeats[key] = max(1, min(MAX_REPEATS, int(REPEAT_S / statistics.fmean(times))))

    def smoothed_calls(self) -> list[float]:
        """Every record once a pass, each at the mean wall time of its calls.

        Every pass calls the same records, so this keeps the shape of the
        per-call distribution while averaging the machine's noise out of the
        order statistics that p50 and p90 pick; a repeated record weighs no
        more than the others.
        """
        return [statistics.fmean(t) for t in self.times.values() for _ in range(self.passes)]


class SetupProbe:
    """Times set-up (interpreter start, import fourfold, corpus written) in a child."""

    def __init__(self, workload: str):
        self.argv = [sys.executable, str(HERE / "probe.py"), workload,
                     str(WORK / f"probe-{workload}")]
        self.samples: list[float] = []
        self._next = 0.0

    def tick(self) -> None:
        """Run one probe if SETUP_EVERY_S has passed since the last one ended."""
        if time.perf_counter() >= self._next:
            self.run_once()

    def run_once(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.argv, check=True)
        end = time.perf_counter()
        self.samples.append(end - start)
        self._next = end + SETUP_EVERY_S


def _measure(runner: Runner, seconds: float) -> list[float]:
    """Untraced passes: at least MIN_RECORDS calls and MIN_PASSES passes, and
    passes until time is up; set-up is probed between records, SETUP_RUNS
    times at least."""
    min_passes = max(MIN_PASSES, -(-MIN_RECORDS // len(runner.records)))
    pass_times, start = [], time.perf_counter()
    while len(pass_times) < min_passes or time.perf_counter() - start < seconds:
        pass_times.append(runner.run_pass())
        if len(pass_times) == 1:
            runner.repeat_short_records()
    while len(runner.setup.samples) < SETUP_RUNS:
        runner.gauge.tick()
        runner.setup.run_once()
    return pass_times


def _measure_traced(runner: Runner, seconds: float):
    """Alternate untraced and traced passes; per-layer medians and overhead."""
    import layers

    implicit = sum(rec.command != "validate" for rec in runner.records)
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not plain or not traced or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(runner.run_pass())
        else:
            with layers.Tracer() as tracer:
                traced.append(runner.run_pass(tracer))
                per_pass.append(tracer.take_pass(implicit))
    values = layers.summarize(per_pass)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    return values, len(traced)


def _metric(value, unit: str) -> dict:
    """One metric of the result line.  Counts become floats too: a median of
    an odd number of passes is a Python int, and box sizes outgrow 64 bits."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric value {value} is not finite")
    return {"value": value, "unit": unit}


def _table(rows) -> None:
    print(f"# {'metric':<42} {'value':>14} {'unit':<12} {'samples':>7} {'wall':>12}")
    for name, value, unit, samples, wall in rows:
        wall = f"{wall:.6g}" if wall != "" else ""
        print(f"# {name:<42} {value:>14.6g} {unit:<12} {samples:>7} {wall:>12}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in REFUSED_ENV:
        if var in os.environ:
            print(f"refusing to run: {var} is set and would change the workload", file=sys.stderr)
            return 2
    sys.path.insert(0, str(HERE))
    try:
        import corpus
    except ImportError as exc:
        print(f"cannot import fourfold from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload not in corpus.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(corpus.WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        return _run(args, corpus)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def _run(args, corpus) -> int:
    import checks
    from fourfold import _pure, cli, search

    records = corpus.records(args.workload)
    paths = corpus.write_files(records, WORK / args.workload)
    expectations = {rec.key: checks.expected(rec) for rec in records}
    backends = {"pure": _pure}
    if search.compiled_available():
        from fourfold import _kernel

        backends["compiled"] = _kernel
    runner = Runner(cli, checks.check, records, paths, expectations, args.seed)
    sweep_problems = checks.raw_sweeps(backends)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"records/pass={len(records)}")
    print(f"# backend={search.backend_name()} compiled_available={search.compiled_available()} "
          f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          "load=closed loop, 1 caller, 1 thread")
    if args.trace:
        import layers

        values, traced_passes = _measure_traced(runner, args.seconds)
        metrics = {name: _metric(values[name], unit) for name, unit, _ in layers.METRICS}
        _table((name, values[name], unit, traced_passes, "") for name, unit, _ in layers.METRICS)
    else:
        runner.setup = SetupProbe(args.workload)
        pass_times = _measure(runner, args.seconds)
        setup = runner.setup.samples
        times = runner.smoothed_calls()
        wall = {
            "setup_s": statistics.median(setup),
            "record_s.p50": statistics.median(times),
            "record_s.p90": statistics.quantiles(times, n=10)[8],
            "records_per_s": len(times) / sum(times),
        }
        scale = runner.gauge.scale()
        values = {name: v / scale if name == "records_per_s" else v * scale
                  for name, v in wall.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = {"setup_s": len(setup), "peak_rss_mb": 1}
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
        rows = [(name, values[name], unit, samples.get(name, runner.attempted), wall.get(name, ""))
                for name, unit in END_TO_END]
        rows.append(("failed_ratio", len(runner.failures) / runner.attempted, "ratio",
                     runner.attempted, ""))
        print(f"# passes={len(pass_times)} calls={runner.attempted} pass_s="
              + ",".join(f"{t:.3f}" for t in pass_times))
        print(f"# speed gauge: {len(runner.gauge.samples)} runs of the reference task, mean "
              f"{reference.NOMINAL_S / scale * 1e3:.3f} ms against {reference.NOMINAL_S * 1e3:g} ms "
              f"nominal; times are scaled by {scale:.4f}, the last column is raw wall time")
        _table(rows)

    for failure in sweep_problems + runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = not runner.failures and not sweep_problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
