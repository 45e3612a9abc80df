"""What every ledger workload shares: timed operations scaled by
the host-speed probe, failure accounting, the optional span recorder, and
the step from samples and spans to the metrics ``BENCHMARK.json``
declares.

A workload is a sequence of *units*; a unit is a fixed sequence of
*operations* of a few kinds (``cold``, ``rerun``, ``retune``,
``interactive``; ``setup`` before the first unit).  Every timing metric
is the median over the operations of one kind, in seconds at the
reference host speed (see ``probe.py``).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from probe import Sample, SpeedSampler, summary
from spans import GC_SPAN, Recorder

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]

#: per-layer seconds: metric -> (span names, operation kind).  The value
#: is the spans' self time per operation of that kind, median over
#: units.  Everything the cold operation does is booked against
#: ``cold``; retune and cache-replay work against the operation that
#: exists to exercise it.
LAYER_SECONDS = {
    "stats.build_s": (("stats.build",), "cold"),
    "sampling.sample_s": (("sampling.sample",), "cold"),
    "sizeest.estimate_many_s": (("sizeest.estimate_many",), "cold"),
    "sizeest.plan_s": (("sizeest.plan",), "cold"),
    "sizeest.samplecf_s": (("sizeest.samplecf",), "cold"),
    "storage.measure_structure_s": (("storage.measure_structure",), "cold"),
    "advisor.candidates_s": (("advisor.candidates",), "cold"),
    "advisor.selection_s": (("advisor.selection",), "cold"),
    "advisor.merging_s": (("advisor.merging",), "cold"),
    "advisor.enumeration_s": (("advisor.enumeration",), "cold"),
    "advisor.glue_s": (("advisor.glue",), "cold"),
    "advisor.sweep_s": (("advisor.sweep",), "cold"),
    "advisor.retune_s": (("advisor.retune",), "retune"),
    "optimizer.workload_cost_s": (("optimizer.workload_cost",), "cold"),
    "optimizer.statement_cost_s": (("optimizer.statement_cost",), "cold"),
    "optimizer.bounds_s": (("optimizer.bounds",), "cold"),
    "optimizer.retune_cost_s": (
        ("optimizer.workload_cost", "optimizer.statement_cost",
         "optimizer.bounds"), "retune"),
    "parallel.fingerprint_s": (("parallel.fingerprint",), "cold"),
    "parallel.cache_save_s": (("parallel.cache_save",), "cold"),
    "parallel.cache_load_s": (("parallel.cache_load",), "rerun"),
    "parallel.cache_fork_absorb_s": (("parallel.cache_fork_absorb",),
                                     "rerun"),
    "service.run_tune_s": (("service.run_tune",), "cold"),
    "service.serialize_s": (("service.serialize",), "cold"),
    "service.journal_append_s": (("service.journal_append",), "cold"),
    "runtime.gc_s": ((GC_SPAN,), "cold"),
}

#: per-layer counts read from the recorder's counters, per operation.
LAYER_COUNTS = {
    "stats.tables_built": ("stats.tables_built", "cold"),
    "sampling.samples_drawn": ("sampling.samples_drawn", "cold"),
    "sizeest.samplecf_runs": ("sizeest.samplecf_runs", "cold"),
    "sizeest.estimate_calls": ("sizeest.estimate_calls", "cold"),
    "storage.measure_calls": ("storage.measure_calls", "cold"),
    "optimizer.workload_cost_calls": ("optimizer.workload_cost_calls",
                                      "cold"),
    "optimizer.statement_cost_calls": ("optimizer.statement_cost_calls",
                                       "cold"),
}


def declared() -> dict:
    """``BENCHMARK.json`` — the one place metric names, units and
    bounds are written down."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


class Harness:
    def __init__(self, args) -> None:
        self.args = args
        self.speed = SpeedSampler()
        self.samples: list[Sample] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: values a workload reads off results (counts, shares, bytes).
        self.facts: dict[str, float] = {}
        #: end-to-end values that are not timings (quality, memory).
        self.end_facts: dict[str, float] = {}
        self.rec: Recorder | None = None
        #: first unit run with the recorder installed (trace runs spend
        #: their first third untraced, to measure the tracing overhead).
        self.traced_from = 0
        #: serve-mixed: ``{span name: [self seconds, calls]}`` summed
        #: over the traced server's life, and the jobs it executed.
        self.server_totals: dict | None = None
        self.server_counts: dict = {}
        self.server_jobs = 0
        self.unit_walls: list[float] = []
        self.deadline = time.perf_counter()

    # -- running --------------------------------------------------------
    def start_clock(self, seconds: float) -> None:
        """A measured phase of ``seconds`` starts now (set-up is not
        part of ``--seconds``)."""
        self.deadline = time.perf_counter() + seconds

    def run_phase(self, unit_fn, seconds: float, unit: int) -> int:
        """Run units numbered from ``unit`` for ``seconds`` (at least
        one); returns the next unit number."""
        self.start_clock(seconds)
        while True:
            start = time.perf_counter()
            unit_fn(unit)
            self.unit_walls.append(time.perf_counter() - start)
            unit += 1
            if not self.time_for_another():
                return unit

    def time_for_another(self) -> bool:
        """Whether another unit fits before the deadline, judged by the
        median unit so far.  Quick runs do one unit per phase."""
        if self.args.quick:
            return False
        expect = statistics.median(self.unit_walls)
        return time.perf_counter() + expect < self.deadline

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr, flush=True)

    def check(self, ok: bool, what: str) -> None:
        """One output check; a failed check is a failed operation."""
        if not ok:
            self.fail(what)

    def record(self, kind: str, unit: int, start: float, end: float,
               parts: int = 1, seconds: float | None = None) -> None:
        """One finished operation that ran from ``start`` to ``end``,
        scaled by the host speed over that interval.  ``parts`` > 1 is
        that many operations of the kind back to back, recorded as their
        mean; ``seconds`` is their summed wall when it is less than the
        whole interval."""
        if seconds is None:
            seconds = end - start
        self.samples.append(Sample(
            kind, seconds / parts, self.speed.scale(start, end), unit, parts,
        ))

    def timed(self, kind: str, unit: int, fn, parts: int = 1):
        """Run ``fn`` as one timed operation; an exception counts as a
        failed operation and yields None.  ``parts`` > 1 says ``fn``
        does that many operations of the kind back to back (a retune
        cycle): the sample is their mean."""
        self.attempted += 1
        root = None
        if self.rec is not None:
            self.rec.tag = (unit, kind)
            root = self.rec.open("op." + kind)
        start = time.perf_counter()
        try:
            out = fn()
        except Exception:
            traceback.print_exc()
            self.fail(f"{kind} in unit {unit} raised")
            out = None
        end = time.perf_counter()
        if root is not None:
            self.rec.close(root)
            self.rec.tag = None
        if out is not None:
            self.record(kind, unit, start, end, parts)
        return out

    def burst(self, kind: str, unit: int, calls) -> None:
        """Time each of ``calls`` on its own (operations of a
        millisecond or so), all scaled by the burst's readings."""
        if self.rec is not None:
            self.rec.tag = (unit, kind)
        timings = []
        begin = time.perf_counter()
        for call in calls:
            self.attempted += 1
            start = time.perf_counter()
            try:
                call()
            except Exception:
                traceback.print_exc()
                self.fail(f"{kind} in unit {unit} raised")
                continue
            timings.append(time.perf_counter() - start)
        scale = self.speed.scale(begin, time.perf_counter())
        if self.rec is not None:
            self.rec.tag = None
        self.samples.extend(Sample(kind, t, scale, unit) for t in timings)

    # -- reading --------------------------------------------------------
    def of_kind(self, kind: str, traced: bool | None = None) -> list[Sample]:
        out = [s for s in self.samples if s.kind == kind]
        if traced is not None:
            out = [s for s in out
                   if (s.unit >= self.traced_from) == traced]
        return out

    def stat(self, kind: str, traced: bool | None = None) -> dict | None:
        """Median and quartiles of the samples of one kind, in seconds
        at the reference speed; ``raw_p50`` is the median wall as
        measured."""
        samples = self.of_kind(kind, traced)
        if not samples:
            return None
        out = summary([s.seconds for s in samples])
        out["raw_p50"] = statistics.median(s.value for s in samples)
        return out

    def _per_op(self, table: dict, names, kind: str, cell,
                seconds: bool) -> float:
        """Median over traced units of (sum over ``names`` in the unit's
        ``kind`` operations) / (operations of that kind); seconds are
        scaled to the reference speed like the operations themselves."""
        units: dict[int, list[Sample]] = {}
        for s in self.of_kind(kind, traced=True):
            units.setdefault(s.unit, []).append(s)
        values = []
        for unit, ops in units.items():
            row = table.get((unit, kind), {})
            value = sum(cell(row, n) for n in names) \
                / sum(s.parts for s in ops)
            if seconds:
                value *= statistics.fmean(s.scale for s in ops)
            values.append(value)
        return statistics.median(values) if values else 0.0

    def layer_metrics(self) -> dict:
        """Every per-layer metric this run can produce (the rest are
        reported as 0 by :meth:`finish`)."""
        out = dict(self.facts)
        speed = self.speed
        if speed.readings:
            out["probe.spin_ms"] = 1000 * statistics.median(speed.readings)
        out["probe.noisy_share"] = speed.noisy_share()
        out["probe.fallback"] = float(speed.starved())
        if self.server_totals is not None:
            jobs = max(1, self.server_jobs)
            for metric, (names, _op) in LAYER_SECONDS.items():
                out[metric] = sum(
                    self.server_totals.get(n, [0.0, 0])[0] for n in names
                ) / jobs
            out["runtime.gc_collections"] = \
                self.server_totals.get(GC_SPAN, [0.0, 0])[1] / jobs
            for metric, (name, _op) in LAYER_COUNTS.items():
                out[metric] = self.server_counts.get(name, 0) / jobs
        elif self.rec is not None:
            spans = self.rec.by_tag()
            counts = self.rec.counts_by_tag()

            def self_seconds(row, name):
                return row.get(name, (0.0, 0, 0.0))[0]

            def calls(row, name):
                return row.get(name, (0.0, 0, 0.0))[1]

            def counter(row, name):
                return row.get(name, 0)

            for metric, (names, op) in LAYER_SECONDS.items():
                out[metric] = self._per_op(spans, names, op, self_seconds,
                                           seconds=True)
            out["runtime.gc_collections"] = self._per_op(
                spans, (GC_SPAN,), "cold", calls, seconds=False)
            for metric, (name, op) in LAYER_COUNTS.items():
                out[metric] = self._per_op(counts, (name,), op, counter,
                                           seconds=False)
            requested = self._per_op(
                counts, ("sizeest.compressed_requested",), "cold", counter,
                seconds=False)
            if requested:
                out["sizeest.deduced_share"] = \
                    1.0 - out["sizeest.samplecf_runs"] / requested
            # Coverage: the share of the cold operations' wall that sits
            # in a named span rather than in the root's own self time.
            uncovered = self._per_op(spans, ("op.cold",), "cold",
                                     self_seconds, seconds=True)
            whole = self.stat("cold", traced=True)
            if whole:
                out["trace.coverage"] = 1.0 - uncovered / whole["p50"]
        for kind in ("cold", "rerun", "retune"):
            stat = self.stat(kind, traced=True)
            if stat:
                out[f"trace.{kind}_s"] = stat["p50"]
        traced = self.stat("cold", traced=True)
        plain = self.stat("cold", traced=False)
        if traced and plain:
            out["trace.overhead_share"] = traced["p50"] / plain["p50"] - 1.0
        return out

    def end_to_end(self) -> tuple[dict, dict]:
        """(values, detail) of the end-to-end metrics."""
        values, detail = dict(self.end_facts), {}
        for metric, kind, scale in (
            ("setup_s", "setup", 1.0),
            ("cold_p50_s", "cold", 1.0),
            ("rerun_p50_s", "rerun", 1.0),
            ("retune_p50_s", "retune", 1.0),
            ("interactive_p50_ms", "interactive", 1000.0),
        ):
            stat = self.stat(kind)
            if stat is None:
                continue
            values[metric] = stat["p50"] * scale
            detail[metric] = {k: v if k == "n" else v * scale
                              for k, v in stat.items()}
        return values, detail

    # -- reporting ------------------------------------------------------
    def finish(self) -> int:
        """Print every metric by name with its unit, then the result
        line; returns the process exit code."""
        args = self.args
        spec = declared()
        section = "per_layer" if args.trace else "end_to_end"
        if args.trace:
            values, detail = self.layer_metrics(), {}
        else:
            values, detail = self.end_to_end()
        metrics = {}
        for entry in spec[section]:
            name = entry["name"]
            if name not in values and not args.trace:
                self.fail(f"end-to-end metric {name} was not measured")
            metrics[name] = {"value": float(values.pop(name, 0.0)),
                             "unit": entry["unit"]}
        if args.trace:
            for name in sorted(values):
                self.fail(f"metric {name} is not declared in BENCHMARK.json")
        self.attempted = max(1, self.attempted)
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
        readings = self.speed.readings or [0.0]
        host = {**host_facts(),
                "probe_ms_min": round(1000 * min(readings), 4),
                "probe_ms_p50": round(1000 * statistics.median(readings), 4),
                "probe_ms_max": round(1000 * max(readings), 4),
                "probe_noisy_share": round(self.speed.noisy_share(), 3)}
        print(f"== {args.workload} seed={args.seed} trace={args.trace} "
              f"seconds={args.seconds} " +
              " ".join(f"{k}={v}" for k, v in host.items()))
        for name, cell in metrics.items():
            line = f"{name:36s} {cell['value']:14.6f} {cell['unit']}"
            if name in detail:
                d = detail[name]
                line += (f"   q1 {d['q1']:.4f} q3 {d['q3']:.4f} "
                         f"n {d['n']} raw p50 {d['raw_p50']:.4f}")
            print(line)
        for failure in self.failures:
            print(f"failed: {failure}")
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            record = {
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "seconds": args.seconds,
                "host": host, **result, "detail": detail,
                "failures": self.failures,
                "readings": self.speed.readings,
                "samples": [list(s) for s in self.samples],
            }
            if self.rec is not None:
                record["spans"] = self.rec.rows()
            name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
            (out_dir / name).write_text(json.dumps(record) + "\n")
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
