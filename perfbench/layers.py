"""Per-layer tracing from outside the program.

A Tracer replaces public functions at the module attributes their callers
look them up through, records a span (name, start, end, parent, record) or
a count around each call, and puts every attribute back when it is closed.
No file of the program changes.  Layer times are self times: a span's
duration minus the time its child spans cover, so the layers of one record
add up to its traced wall time.
"""

from __future__ import annotations

import statistics
from collections import Counter
from functools import cached_property, wraps
from time import perf_counter

import corpus  # noqa: F401  (imports fourfold from this checkout first)
from fourfold import _pure, cli, forms, obstruction, search

try:
    from fourfold import _kernel
except ImportError:
    _kernel = None

# (name, unit, what it is); every value is per pass over the workload's records
METRICS = [
    ("cli.parse_s", "s/pass", "self time of parse_manifold_file"),
    ("cli.parse.calls", "count/pass", "parse_manifold_file calls"),
    ("cli.render_s", "s/pass", "self time of cli.main: argparse, JSON and text output"),
    ("forms.build_form_s", "s/pass", "self time of build_form"),
    ("forms.determinant_s", "s/pass", "self time of IntegerMatrix.determinant"),
    ("forms.determinant.calls", "count/pass", "determinants computed"),
    ("forms.signature_s", "s/pass", "self time of the IntersectionForm.signature getter"),
    ("forms.signature.calls", "count/pass", "signatures computed (cache misses)"),
    ("forms.evaluate.calls", "count/pass", "IntersectionForm.evaluate calls"),
    ("abelian.abelianize_s", "s/pass", "self time of abelianize"),
    ("abelian.abelianize.calls", "count/pass", "abelianize calls"),
    ("abelian.relation_entries", "count/pass", "relation matrix rows x cols, summed over calls"),
    ("obstruction.validate_s", "s/pass", "self time of validate_invariants"),
    ("obstruction.validate.calls_per_record", "calls/record",
     "validate_invariants calls per analyze or enumerate record"),
    ("obstruction.characteristic_residue.calls", "count/pass", "characteristic_residue calls"),
    ("obstruction.decide_s", "s/pass", "self time of decide_almost_complex"),
    ("obstruction.enumerate_s", "s/pass", "self time of enumerate_chern_classes"),
    ("obstruction.tier.mod8", "count/pass", "decisions made by the mod-8 filter"),
    ("obstruction.tier.closed_form", "count/pass", "other decisions made without search"),
    ("obstruction.tier.search", "count/pass", "decisions that called the witness search"),
    ("obstruction.verdict.unknown", "count/pass", "decisions answering Unknown"),
    ("search.find_minimal_witness_s", "s/pass", "self time of find_minimal_witness"),
    ("search.enumerate_witnesses_s", "s/pass", "self time of enumerate_witnesses"),
    ("search.first_hit.calls", "count/pass", "backend first_hit calls"),
    ("search.shell.calls", "count/pass", "backend first_hit_on_shell calls"),
    ("search.all_hits.calls", "count/pass", "backend all_hits calls"),
    ("search.box_points", "count/pass", "candidates in the boxes swept (computed, not visited)"),
    ("search.hit_ratio", "ratio", "backend calls returning a hit over backend calls"),
    ("classification.exclude_s", "s/pass", "self time of exclude_symplectic and exclude_complex"),
    ("classification.calls", "count/pass", "exclude_symplectic and exclude_complex calls"),
    ("trace.overhead_ratio", "ratio", "traced pass time over untraced pass time, minus 1"),
]

# span name -> metric name of its self time
_TIMED = {
    "cli.main": "cli.render_s",
    "cli.parse": "cli.parse_s",
    "forms.build_form": "forms.build_form_s",
    "forms.determinant": "forms.determinant_s",
    "forms.signature": "forms.signature_s",
    "abelian.abelianize": "abelian.abelianize_s",
    "obstruction.validate": "obstruction.validate_s",
    "obstruction.decide": "obstruction.decide_s",
    "obstruction.enumerate": "obstruction.enumerate_s",
    "search.find_minimal_witness": "search.find_minimal_witness_s",
    "search.enumerate_witnesses": "search.enumerate_witnesses_s",
    "classification.exclude": "classification.exclude_s",
}

_BACKEND_CALLS = {
    "first_hit": "search.first_hit.calls",
    "first_hit_on_shell": "search.shell.calls",
    "all_hits": "search.all_hits.calls",
}


def _box_points(residues, limit: int) -> int:
    """Candidates x in [-limit, limit]^n with x = residues (mod 2)."""
    points = 1
    for r in residues:
        points *= 2 * ((limit + 1) // 2) if r & 1 else 2 * (limit // 2) + 1
    return points


class Tracer:
    """Spans and counts for one traced pass at a time; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, record]
        self.counts: Counter = Counter()
        self.record = ""
        self.implicit_validation = True  # False while a validate record runs
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self._install()
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self.record])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _backend_call(self, func: str, fn):
        counts, metric = self.counts, _BACKEND_CALLS[func]

        @wraps(fn)
        def call(qflat, residues, rank, limit, target):
            result = fn(qflat, residues, rank, limit, target)
            counts[metric] += 1
            counts["search.backend_calls"] += 1
            counts["search.box_points"] += _box_points(residues, limit)
            if result is not None and result != []:
                counts["search.backend_hits"] += 1
            return result

        return call

    def _install(self) -> None:
        counts = self.counts
        span = self._span

        def on_abelianize(args, result):
            counts["abelian.abelianize.calls"] += 1
            p = args[0]
            counts["abelian.relation_entries"] += len(p.relations) * p.generators

        def on_validate(args, result):
            if self.implicit_validation:
                counts["obstruction.validate.implicit"] += 1

        def decide(fn):
            def tiered(*args, **kwargs):
                searches = counts["search.find_minimal_witness.calls"]
                verdict = fn(*args, **kwargs)
                if str(verdict.status) == "NotExists" and any(
                    r.startswith("mod-8") for r in verdict.reasons
                ):
                    counts["obstruction.tier.mod8"] += 1
                elif counts["search.find_minimal_witness.calls"] == searches:
                    counts["obstruction.tier.closed_form"] += 1
                else:
                    counts["obstruction.tier.search"] += 1
                if str(verdict.status) == "Unknown":
                    counts["obstruction.verdict.unknown"] += 1
                return verdict

            return span("obstruction.decide", tiered)

        def count_after(name):
            def after(args, result):
                counts[name] += 1

            return after

        def signature(prop):
            traced = cached_property(
                span("forms.signature", prop.func, count_after("forms.signature.calls"))
            )
            traced.__set_name__(forms.IntersectionForm, "signature")
            return traced

        self._replace(cli, "main", lambda f: span("cli.main", f))
        self._replace(
            cli, "parse_manifold_file",
            lambda f: span("cli.parse", f, count_after("cli.parse.calls")),
        )
        self._replace(cli, "build_form", lambda f: span("forms.build_form", f))
        self._replace(
            forms.IntegerMatrix, "determinant",
            lambda f: span("forms.determinant", f, count_after("forms.determinant.calls")),
        )
        self._replace(forms.IntersectionForm, "signature", signature)
        self._replace(
            forms.IntersectionForm, "evaluate",
            lambda f: self._counted("forms.evaluate.calls", f),
        )
        self._replace(
            obstruction, "abelianize", lambda f: span("abelian.abelianize", f, on_abelianize)
        )
        for owner in (obstruction, cli):
            self._replace(
                owner, "validate_invariants",
                lambda f: span("obstruction.validate", f, on_validate),
            )
        self._replace(
            obstruction, "characteristic_residue",
            lambda f: self._counted("obstruction.characteristic_residue.calls", f),
        )
        self._replace(cli, "decide_almost_complex", decide)
        self._replace(cli, "enumerate_chern_classes", lambda f: span("obstruction.enumerate", f))
        self._replace(
            search, "find_minimal_witness",
            lambda f: span(
                "search.find_minimal_witness", f,
                count_after("search.find_minimal_witness.calls"),
            ),
        )
        self._replace(
            search, "enumerate_witnesses", lambda f: span("search.enumerate_witnesses", f)
        )
        for backend in (_pure, _kernel):
            if backend is None:
                continue
            for func in _BACKEND_CALLS:
                self._replace(backend, func, lambda f, func=func: self._backend_call(func, f))
        for name in ("exclude_symplectic", "exclude_complex"):
            self._replace(
                cli, name,
                lambda f: span("classification.exclude", f, count_after("classification.calls")),
            )

    def take_pass(self, implicit_records: int) -> dict[str, float]:
        """Per-layer values of the pass just run; clears spans and counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        values = {name: 0.0 for name, _, _ in METRICS}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            values[_TIMED[name]] += end - start - covered
        c = self.counts
        for name in values:
            if name in c:
                values[name] = c[name]
        values["obstruction.validate.calls_per_record"] = (
            c["obstruction.validate.implicit"] / implicit_records if implicit_records else 0.0
        )
        calls = c["search.backend_calls"]
        values["search.hit_ratio"] = c["search.backend_hits"] / calls if calls else 0.0
        self.spans.clear()
        self.counts.clear()
        return values


def summarize(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of each per-pass value."""
    return {name: statistics.median(p[name] for p in passes) for name, _, _ in METRICS}
