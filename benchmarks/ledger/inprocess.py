"""The three in-process workloads: ``tune-sales-select``,
``tune-tpch-insert`` and ``reuse-sales``.

Each unit walks the life of one tuning session, the way the people the
README names use it:

* ``cold``   — the first recommendation, nothing reusable;
* ``rerun``  — the same request again with reusable state (the same
  ``Session`` in memory; for ``reuse-sales`` a new ``Session`` over a
  fully populated cache directory);
* ``retune`` — adapting the recommendation to a drifted workload phase;
* ``interactive`` — what-if cost and size-estimate questions, wired the
  way the service's shared estimator and optimizer are.

All inputs derive from ``--seed``: the generated data, the advisor's
sampling seed and the interactive questions.  The drift schedule is the
default ``DriftSpec`` applied to that seed's workload.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import tempfile
import time
from functools import partial
from pathlib import Path
from random import Random
from types import SimpleNamespace

from harness import Harness, self_rss_mb
from layers import install_advisor
from spans import Recorder

from repro.advisor.advisor import (
    default_base_configuration,
    quantized_size_lookup,
)
from repro.advisor.candidates import (
    CandidateOptions,
    candidate_indexes,
    expand_compression_variants,
)
from repro.api import Session
from repro.datasets import (
    sales_database,
    sales_workload,
    tpch_database,
    tpch_workload,
)
from repro.optimizer.whatif import WhatIfOptimizer
from repro.sampling.sample_manager import SampleManager
from repro.sizeest.analytic import AnalyticSizer
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats
from repro.workload.drift import DriftingWorkload, DriftSpec

VARIANT = "dtac-both"
QUESTIONS = 24
#: times a unit asks the whole question list.
QUESTION_ROUNDS = 3


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def digest(result) -> str:
    """Identity of a recommendation: members, cost and footprint."""
    names = sorted(ix.display_name() for ix in result.configuration)
    text = f"{names}|{result.final_cost!r}|{result.consumed_bytes!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_result(h: Harness, label: str, result, database, stats,
                 workload) -> None:
    """Budget respected, no worse than untuned, and the reported cost
    equal to a recomputation by a fresh what-if optimizer with no delta
    coster, fed only the sizes the result itself reports."""
    h.check(result.consumed_bytes <= result.budget_bytes,
            f"{label}: consumed {result.consumed_bytes} > budget "
            f"{result.budget_bytes}")
    h.check(result.final_cost <= result.base_cost,
            f"{label}: final cost above base cost")
    sizer = AnalyticSizer(database, stats, SampleManager(database))
    reference = WhatIfOptimizer(
        database, stats,
        sizes=lambda ix: (result.sizes[ix], sizer.estimated_rows(ix)),
    ).workload_cost(workload, result.configuration)
    close = abs(reference - result.final_cost) <= \
        1e-9 * max(1.0, abs(reference))
    h.check(close, f"{label}: final_cost {result.final_cost!r} != "
                   f"reference {reference!r}")


def same(h: Harness, seen: dict, key: str, value: str) -> None:
    """Identical inputs must give identical digests, unit after unit."""
    h.check(seen.setdefault(key, value) == value,
            f"{key}: digest {value} differs from the first unit's "
            f"{seen[key]}")


# ----------------------------------------------------------------------
# interactive questions (the service's executors, minus HTTP)
# ----------------------------------------------------------------------
def candidate_pool(database, workload) -> list:
    options = CandidateOptions()
    pool = []
    for ws in workload.queries:
        pool.extend(expand_compression_variants(
            candidate_indexes(database, ws.statement, options), True
        ))
    return list(dict.fromkeys(pool))


class Asker:
    """Answers size-estimate and what-if questions through one shared
    estimator and a stateless coster — the wiring of the service's
    ``ServiceContext``, so its answers are also the reference the
    served replies are checked against."""

    def __init__(self, database, workload) -> None:
        self.workload = workload
        stats = DatabaseStats(database)
        self.estimator = SizeEstimator(database, stats=stats)
        self.coster = WhatIfOptimizer(
            database, stats,
            sizes=partial(quantized_size_lookup, self.estimator),
        ).coster
        self.base = default_base_configuration(database)
        self.candidates = candidate_pool(database, workload)

    def configuration(self, indexes):
        config = self.base
        for ix in indexes:
            config = config.add(ix)
        return config

    def estimate(self, index):
        return self.estimator.estimate(index)

    def whatif(self, statement_index: int, indexes):
        return self.coster.cost(
            self.workload.statements[statement_index].statement,
            self.configuration(indexes),
        )

    def whatif_workload(self, indexes) -> float:
        config = self.configuration(indexes)
        return sum(
            ws.weight * self.coster.cost(ws.statement, config).total
            for ws in self.workload
        )


def build_questions(database, workload, seed: int) -> list:
    """Seeded what-if questions — the whole workload's cost under three
    drawn candidate indexes — each asked once already, so that timing
    sees the steady state a long-lived service is in (sizes estimated,
    statistics built)."""
    asker = Asker(database, workload)
    rng = Random(seed)
    calls = [
        partial(asker.whatif_workload, rng.sample(asker.candidates, 3))
        for _ in range(QUESTIONS)
    ]
    for call in calls:
        call()
    return calls * QUESTION_ROUNDS


# ----------------------------------------------------------------------
# facts read off results (per-layer counts and shares)
# ----------------------------------------------------------------------
def result_facts(h: Harness, cold) -> None:
    delta = cold.delta_stats
    resolved = sum(delta.get(k, 0) for k in (
        "memo_hits", "reused_terms", "patched_terms",
        "patched_maintenance", "full_recosts",
    ))
    kernel = cold.kernel_stats
    batches = kernel.get("batches_numpy", 0) + kernel.get("batches_scalar", 0)
    h.facts.update({
        "advisor.candidates": cold.candidate_count,
        "advisor.pool_size": cold.pool_size,
        "advisor.greedy_steps": len(cold.steps),
        "optimizer.whatif_calls": cold.optimizer_calls,
        "optimizer.full_recosts": delta.get("full_recosts", 0),
        "optimizer.memo_hit_share":
            delta.get("memo_hits", 0) / resolved if resolved else 0.0,
        "optimizer.pruned_bound": delta.get("pruned_bound", 0),
        "optimizer.kernel_lanes": kernel.get("lanes_total", 0),
        "optimizer.kernel_numpy_batch_share":
            kernel.get("batches_numpy", 0) / batches if batches else 0.0,
        "parallel.engine_parallel_maps":
            cold.engine_stats.get("parallel_maps", 0),
        "parallel.degraded_sequential":
            float(cold.engine_stats.get("degraded_sequential", False)),
    })


def hit_share_facts(h: Harness, cost: dict, estimates: dict,
                    cost_before: dict, estimates_before: dict) -> None:
    """Cache hit shares of the rerun alone: what it added to the
    counters the cold run left (one session's caches count across its
    runs; a new session's start at zero, i.e. ``{}``)."""
    for metric, before, after in (
        ("parallel.cost_cache_hit_share", cost_before, cost),
        ("parallel.est_cache_hit_share", estimates_before, estimates),
    ):
        hits = after.get("hits", 0) - before.get("hits", 0)
        misses = after.get("misses", 0) - before.get("misses", 0)
        h.facts[metric] = hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """What the in-process workloads share: generated inputs, drifted
    phases, questions, and the retune cycle and interactive burst that
    end every unit."""

    retune_phases: tuple = ()

    def __init__(self, make_database, make_workload) -> None:
        self.make_database = make_database
        self.make_workload = make_workload

    def setup(self, seed: int) -> SimpleNamespace:
        start = time.perf_counter()
        database = self.make_database(seed)
        built = time.perf_counter()
        workload = self.make_workload(database)
        parsed = time.perf_counter()
        drifting = DriftingWorkload(workload, DriftSpec())
        return SimpleNamespace(
            database=database, workload=workload, seed=seed,
            build_seconds=built - start, parse_seconds=parsed - built,
            drifting=drifting,
            phases={k: drifting.phase(k) for k in self.retune_phases},
            questions=build_questions(database, workload, seed),
            seen={}, improvements=[],
        )

    def finish_unit(self, h: Harness, state, unit: int, session) -> None:
        """Retune ``session`` through the drifted phases as one timed
        operation (the sample is the mean wall per retune), then ask
        the questions."""
        phases = self.retune_phases
        retunes = h.timed(
            "retune", unit,
            lambda: [session.retune(workload=state.phases[k])
                     for k in phases],
            parts=len(phases),
        )
        if retunes is not None:
            for k, retuned in zip(phases, retunes):
                check_result(h, f"retune phase {k}", retuned.result,
                             state.database, session.stats, state.phases[k])
                same(h, state.seen, f"retune{k}", digest(retuned.result))
            h.facts["advisor.retune_drops"] = \
                statistics.mean(len(r.dropped) for r in retunes)
            h.facts["advisor.retune_adds"] = \
                statistics.mean(len(r.added) for r in retunes)
        h.burst("interactive", unit, state.questions)


class TuneWorkload(Workload):
    """Fresh in-memory ``Session`` per unit: stats, samples, estimation
    and search all start cold."""

    budget = 0.2
    retune_phases = (1, 2)

    def unit(self, h: Harness, state, unit: int) -> None:
        db, wl = state.database, state.workload

        def cold_tune():
            session = Session(db, wl, variant=VARIANT,
                              budget_fraction=self.budget, seed=state.seed)
            return session, session.tune()

        cold = h.timed("cold", unit, cold_tune)
        if cold is None:
            return
        session, cold = cold
        check_result(h, "cold", cold, db, session.stats, wl)
        same(h, state.seen, "cold", digest(cold))
        state.improvements.append(cold.improvement_pct)
        result_facts(h, cold)

        rerun = h.timed("rerun", unit, session.tune)
        if rerun is not None:
            h.check(digest(rerun) == digest(cold),
                    "rerun recommends something else than cold")
            hit_share_facts(h, rerun.cost_cache_stats, rerun.cache_stats,
                            cold.cost_cache_stats, cold.cache_stats)
        self.finish_unit(h, state, unit, session)


class ReuseWorkload(Workload):
    """Sweeps over a persistent cache directory, cold then fully hit,
    and a retune cycle from a fixed phase-0 recommendation."""

    sweep_budgets = (0.1, 0.2)
    retune_budget = 0.15
    retune_phases = (1, 2, 3, 4)

    def __init__(self, make_database, make_workload, scratch: Path) -> None:
        super().__init__(make_database, make_workload)
        self.scratch = scratch

    def setup(self, seed: int) -> SimpleNamespace:
        state = super().setup(seed)
        state.session = Session(state.database, variant=VARIANT,
                                budget_fraction=self.retune_budget, seed=seed)
        state.session.tune(workload=state.drifting.phase(0))
        state.phase0 = state.session.configuration
        return state

    def sweep(self, state, cache_dir: str):
        db = state.database
        session = Session(db, state.workload, variant=VARIANT,
                          cache_dir=cache_dir)
        total = db.total_data_bytes()
        return session.sweep(
            [fraction * total for fraction in self.sweep_budgets],
            seeds=[state.seed],
        ), session.stats

    def unit(self, h: Harness, state, unit: int) -> None:
        cache_dir = tempfile.mkdtemp(dir=self.scratch, prefix="cache-")
        try:
            self.sweeps(h, state, unit, cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        # The retune cycle always starts from the set-up's phase-0
        # recommendation (as advisor_bench's drift section does).
        state.session.configuration = state.phase0
        state.session.generation = 1
        self.finish_unit(h, state, unit, state.session)

    def sweeps(self, h: Harness, state, unit: int, cache_dir: str) -> None:
        cold = h.timed("cold", unit, lambda: self.sweep(state, cache_dir))
        if cold is None:
            return
        cold, stats = cold
        for i, result in enumerate(cold.results):
            check_result(h, f"cold sweep run {i}", result, state.database,
                         stats, state.workload)
        cold_digests = [digest(r) for r in cold.results]
        same(h, state.seen, "cold", "|".join(cold_digests))
        state.improvements.extend(r.improvement_pct for r in cold.results)
        result_facts(h, cold.results[0])
        h.facts["advisor.sweep_runs"] = len(cold.runs)
        h.facts["parallel.cache_bytes"] = sum(
            f.stat().st_size for f in Path(cache_dir).iterdir()
        )

        warm = h.timed("rerun", unit, lambda: self.sweep(state, cache_dir))
        if warm is None:
            return
        warm = warm[0]
        h.check([digest(r) for r in warm.results] == cold_digests,
                "warm sweep differs from cold sweep")
        hit_share_facts(h, warm.cost_cache_stats,
                        warm.estimation_cache_stats, {}, {})
        for metric in ("parallel.cost_cache_hit_share",
                       "parallel.est_cache_hit_share"):
            h.check(h.facts[metric] == 1.0,
                    f"warm sweep: {metric} {h.facts[metric]} != 1.0")


def make_workload(name: str, quick: bool, scratch: Path):
    """The workload object for ``name``.  ``quick`` shrinks the data so
    the smoke test can run every code path in seconds; measured runs
    never scale inputs."""
    sales_scale = 0.05 if quick else 0.1
    tpch_scale = 0.2 if quick else 2.0
    if name == "tune-sales-select":
        return TuneWorkload(
            lambda seed: sales_database(scale=sales_scale, seed=seed),
            lambda db: sales_workload(db, select_weight=10, insert_weight=1),
        )
    if name == "tune-tpch-insert":
        return TuneWorkload(
            lambda seed: tpch_database(scale=tpch_scale, z=1.0, seed=seed),
            lambda db: tpch_workload(db, select_weight=1, insert_weight=10),
        )
    if name == "reuse-sales":
        return ReuseWorkload(
            lambda seed: sales_database(scale=sales_scale, seed=seed),
            sales_workload, scratch,
        )
    raise SystemExit(f"unknown in-process workload {name!r}")


def run(args, scratch: Path) -> int:
    h = Harness(args)
    workload = make_workload(args.workload, args.quick, scratch)

    # Set-up, repeated so its median can be reported; the last state is
    # the one the units run against.
    reps = 1 if args.quick else 3
    state, build, parse = None, [], []
    for _ in range(reps):
        state = h.timed("setup", -1, lambda: workload.setup(args.seed))
        if state is None:
            return h.finish()
        # Scaled to the reference speed like the set-up they are part of.
        build.append(state.build_seconds * h.samples[-1].scale)
        parse.append(state.parse_seconds * h.samples[-1].scale)
    h.facts["datasets.build_s"] = statistics.median(build)
    h.facts["workload.parse_s"] = statistics.median(parse)

    def one(unit: int) -> None:
        workload.unit(h, state, unit)

    if args.trace:
        # First third untraced: the reference the traced units' wall is
        # compared with (trace.overhead_share).
        h.traced_from = h.run_phase(one, args.seconds / 3, 0)
        h.rec = Recorder()
        install_advisor(h.rec)
        h.run_phase(one, args.seconds * 2 / 3, h.traced_from)
    else:
        h.run_phase(one, args.seconds, 0)
    if h.rec is not None:
        h.rec.uninstall()

    if state.improvements:
        h.end_facts["improvement_pct"] = statistics.mean(state.improvements)
    h.end_facts["peak_rss_mb"] = self_rss_mb()
    return h.finish()
