"""Which public functions of which layer get a span or a counter.

Layers are the packages under ``src/repro/``; a span is named
``<layer>.<what>`` and feeds the per-layer metric ``<layer>.<what>_s``
(self seconds) — see ``LAYER_SECONDS`` in ``harness.py``.  Functions that
other modules bind with ``from x import f`` are patched in the importing
module, because that is the name the caller resolves.

Call volumes per cold tune (sales 0.1 / tpch 2.0) decided what gets a
span and what only a counter: ``SizeEstimator.estimate`` runs 35 k
times and is counted, not timed; the delta coster's entry points run
2 k-8 k times and are timed.
"""

from __future__ import annotations

import importlib

from spans import Recorder


def _count_new_compressed(rec: Recorder, estimator, indexes, *_a, **_k):
    """Compressed indexes this ``estimate_many`` call has to produce a
    fresh estimate for — the denominator of ``sizeest.deduced_share``
    (the numerator is what SampleCF did *not* have to build)."""
    rec.count("sizeest.compressed_requested", sum(
        1 for ix in dict.fromkeys(indexes)
        if ix.method.is_compressed and estimator.peek(ix) is None
    ))


def install_advisor(rec: Recorder) -> None:
    """Wrap the in-process tuning path: stats, sampling, size
    estimation, storage, advisor phases, optimizer, caches; and time
    garbage collection."""
    mod = importlib.import_module
    rec.start_gc_timer()

    stats = mod("repro.stats.column_stats")
    rec.wrap(stats.TableStats, "build", "stats.build",
             calls="stats.tables_built")

    manager = mod("repro.sampling.sample_manager").SampleManager
    for attr in ("table_sample", "filtered_sample", "join_synopsis",
                 "mv_sample"):
        rec.wrap(manager, attr, "sampling.sample",
                 calls="sampling.samples_drawn")

    estimator = mod("repro.sizeest.estimator")
    rec.wrap(estimator.SizeEstimator, "estimate_many",
             "sizeest.estimate_many", before=_count_new_compressed)
    rec.wrap_counter(estimator.SizeEstimator, "estimate",
                     "sizeest.estimate_calls")
    rec.wrap(estimator, "choose_plan", "sizeest.plan")
    rec.wrap(estimator, "sample_fingerprint", "parallel.fingerprint")
    samplecf = mod("repro.sizeest.samplecf")
    rec.wrap(samplecf.SampleCFRunner, "run", "sizeest.samplecf",
             calls="sizeest.samplecf_runs")
    for module in (samplecf, estimator):
        rec.wrap(module, "measure_structure", "storage.measure_structure",
                 calls="storage.measure_calls")

    advisor = mod("repro.advisor.advisor")
    rec.wrap(advisor.TuningAdvisor, "__init__", "advisor.glue")
    rec.wrap(advisor.TuningAdvisor, "run", "advisor.glue")
    for attr in ("candidate_indexes", "expand_compression_variants"):
        rec.wrap(advisor, attr, "advisor.candidates")
    rec.wrap(advisor, "evaluate_candidates_batch", "advisor.selection")
    for attr in ("generate_merged_candidates",
                 "compression_aware_variants"):
        rec.wrap(advisor, attr, "advisor.merging")
    greedy = mod("repro.advisor.algorithms.greedy_backtrack")
    rec.wrap(greedy.GreedyBacktrackAlgorithm, "run", "advisor.enumeration")
    retune = mod("repro.advisor.retune")
    rec.wrap(retune._RetuneSearch, "run", "advisor.retune")
    rec.wrap(retune.TuningSession, "retune", "advisor.retune")
    api = mod("repro.api")
    rec.wrap(api, "_run_sweep", "advisor.sweep")

    delta = mod("repro.optimizer.delta").DeltaWorkloadCoster
    rec.wrap(delta, "workload_cost", "optimizer.workload_cost",
             calls="optimizer.workload_cost_calls")
    rec.wrap(delta, "batch", "optimizer.workload_cost")
    rec.wrap(delta, "statement_cost", "optimizer.statement_cost",
             calls="optimizer.statement_cost_calls")
    for attr in ("rebase", "register_universe", "improvement_possible",
                 "improvement_cap"):
        rec.wrap(delta, attr, "optimizer.bounds")

    cache = mod("repro.parallel.cache")
    for cls in (cache.EstimationCache, cache.CostCache):
        rec.wrap(cls, "__init__", "parallel.cache_load")
        rec.wrap(cls, "save", "parallel.cache_save")
        rec.wrap(cls, "fork_view", "parallel.cache_fork_absorb")
        rec.wrap(cls, "absorb", "parallel.cache_fork_absorb")


def install_service(rec: Recorder) -> None:
    """Wrap the served path on top of :func:`install_advisor`: job
    execution, result serialization, journal appends and the two
    interactive executors."""
    mod = importlib.import_module
    context = mod("repro.service.context")
    for attr in ("run_tune", "run_retune"):
        rec.wrap(context.ServiceContext, attr, "service.run_tune",
                 calls="service.jobs_executed")
    rec.wrap(context, "serialize_result", "service.serialize")
    rec.wrap(context.ServiceContext, "run_whatif_cost",
             "service.whatif_exec", calls="service.whatif_requests")
    rec.wrap(context.ServiceContext, "run_estimate_size",
             "service.estimate_exec", calls="service.estimate_requests")
    journal = mod("repro.service.journal").JobJournal
    for attr in ("append_submit", "append_state", "append_event",
                 "append_result"):
        rec.wrap(journal, attr, "service.journal_append",
                 calls="service.journal_append_calls")
