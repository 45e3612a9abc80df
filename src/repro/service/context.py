"""Tuning-service contexts: one registered schema + workload pair.

A :class:`ServiceContext` is everything the service needs to answer
requests against one database: the catalog, the weighted workload, one
:class:`~repro.advisor.retune.TuningSession` its tune, retune and sweep
jobs run through, an estimator for the ``estimate_size`` endpoint, a
what-if optimizer for ``whatif_cost``, and the request executors the
:class:`~repro.service.service.AdvisorService` queue dispatches to.

A job is payload validation, one call on the context's session, and
:func:`serialize_result`; the session's determinism contract is the
service's, so a served result is byte-identical to
``serialize_result(Session.tune())`` no matter what ran before it or
concurrently with it.  The session forks the registration-time snapshot
of the service's estimate cache and the service's live cost cache.  A
context runs on one lane (a single thread), so only one thread ever
touches a session; a cancel, deadline or fault unwinds at a progress
event or a batch entry, leaving either no stage (while preparing) or a
complete one.
"""

from __future__ import annotations

from repro.advisor.advisor import (
    AdvisorOptions,
    AdvisorResult,
    check_budget,
    check_seed,
    default_base_configuration,
    get_variant,
    quantized_size_lookup,
)
from repro.advisor.retune import RetuneResult, TuningSession
from repro.catalog.schema import Database
from repro.compression.base import CompressionMethod
from repro.errors import AdvisorError, ServiceError
from repro.optimizer.whatif import WhatIfOptimizer
from repro.parallel.cache import CostCache, EstimationCache
from repro.physical.index_def import IndexDef
from repro.sampling.sample_manager import DEFAULT_SAMPLE_SEED
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats
from repro.storage.index_build import IndexKind
from repro.storage.page import quantize_bytes
from repro.workload.parser import parse_statement
from repro.workload.query import Workload

#: AdvisorOptions fields a request may override.
_REQUEST_OPTION_FIELDS = frozenset({
    "candidate_selection", "top_k", "strategy", "backtracking",
    "seed_fanout", "min_improvement", "enable_partial", "enable_mv",
    "enable_merging", "compression_aware_merging", "max_key_columns",
    "skyline_cluster_max", "e", "q", "delta_costing", "algorithm",
})

#: Distinct ad-hoc statements a context holds for reuse.  Below the
#: coster's statement memo bound, so a held statement keeps its shapes.
_HELD_AD_HOC_STATEMENTS = 1024


def _column_list(spec: dict, field: str) -> tuple[str, ...]:
    columns = spec.get(field, [])
    if not isinstance(columns, list) or \
            not all(isinstance(c, str) for c in columns):
        raise ServiceError(
            f"index spec {field!r} must be a list of column names, "
            f"got {columns!r}"
        )
    return tuple(columns)


def parse_index_spec(database: Database, spec: dict) -> IndexDef:
    """An :class:`IndexDef` from its JSON wire form::

        {"table": "sales", "key_columns": ["sa_date"],
         "included_columns": [], "kind": "secondary", "method": "page"}

    A heap is unordered and stores every column, so a heap spec naming
    key or included columns is rejected rather than quietly sized as
    something else.
    """
    if not isinstance(spec, dict) or "table" not in spec:
        raise ServiceError(f"index spec needs a 'table': {spec!r}")
    table = spec["table"]
    if not isinstance(table, str):
        raise ServiceError(
            f"index spec 'table' must be a string, got {table!r}"
        )
    key_columns = _column_list(spec, "key_columns")
    included_columns = _column_list(spec, "included_columns")
    schema = database.table(table)  # CatalogError for unknown tables
    for column in key_columns + included_columns:
        schema.column(column)  # CatalogError for unknown columns
    try:
        kind = IndexKind(spec.get("kind", "secondary"))
        method = CompressionMethod(spec.get("method", "none"))
    except ValueError as exc:
        raise ServiceError(str(exc)) from exc
    if kind is IndexKind.HEAP and (key_columns or included_columns):
        raise ServiceError(
            "a heap index spec takes no 'key_columns' or "
            "'included_columns'"
        )
    return IndexDef(
        table,
        key_columns,
        included_columns=included_columns,
        kind=kind,
        method=method,
    )


def index_to_spec(index: IndexDef) -> dict:
    """The JSON wire form of an index (inverse of
    :func:`parse_index_spec` for non-partial, non-MV indexes)."""
    return {
        "table": index.table,
        "key_columns": list(index.key_columns),
        "included_columns": list(index.included_columns),
        "kind": index.kind.value,
        "method": index.method.value,
        "display_name": index.display_name(),
    }


def serialize_result(result: AdvisorResult) -> dict:
    """An :class:`AdvisorResult` as a JSON-able payload.

    Deterministic fields live under ``result`` (two identical requests
    produce byte-identical ``result`` sections — the property the
    service's concurrency tests assert); wall-clock and counter noise
    lives under ``meta``.
    """
    ordered = sorted(result.configuration, key=lambda ix: ix.display_name())
    return {
        "result": {
            "configuration": [ix.display_name() for ix in ordered],
            "indexes": [index_to_spec(ix) for ix in ordered
                        if not ix.is_mv_index],
            "sizes": {
                ix.display_name(): result.sizes[ix] for ix in ordered
            },
            "base_cost": result.base_cost,
            "final_cost": result.final_cost,
            "improvement": result.improvement,
            "consumed_bytes": result.consumed_bytes,
            "budget_bytes": result.budget_bytes,
            "candidate_count": result.candidate_count,
            "pool_size": result.pool_size,
            "steps": list(result.steps),
        },
        "meta": {
            "elapsed_seconds": result.elapsed_seconds,
            "cache_stats": result.cache_stats,
            "cost_cache_stats": result.cost_cache_stats,
            "engine_stats": result.engine_stats,
            "delta_stats": result.delta_stats,
        },
    }


class ServiceContext:
    """One registered (database, workload) pair the service tunes.

    Args:
        name: context name clients address requests to.
        database / workload: what to tune.
        stats: shared statistics (built once when omitted).
        estimation_cache / cost_cache: the service's persistent caches
            (the session's runs fork them; the shared estimator behind
            ``estimate_size`` reads them directly).
        cache_dir: the service's cache directory (a sweep reloads it).
        e, q: accuracy constraint of the shared estimator.
    """

    def __init__(
        self,
        name: str,
        database: Database,
        workload: Workload,
        *,
        stats: DatabaseStats | None = None,
        estimation_cache: EstimationCache | None = None,
        cost_cache: CostCache | None = None,
        cache_dir: str | None = None,
        e: float = 0.5,
        q: float = 0.9,
    ) -> None:
        self.name = name
        self.database = database
        self.workload = workload
        self.session = TuningSession(database, workload, stats=stats)
        self.session.cache_dir = cache_dir
        #: a frozen registration-time snapshot: the live
        #: ``estimation_cache`` keeps growing as the estimate endpoint
        #: serves requests, and every job must see the same estimates
        #: no matter when it executes.
        self.session.estimates = (
            estimation_cache.fork_view()
            if estimation_cache is not None else None
        )
        self.session.costs = cost_cache
        self.stats = self.session.stats
        #: shared estimator for the estimate/cost endpoints (default
        #: sampling seed — the same estimator wiring a plain
        #: ``TuningAdvisor`` would build).
        self.estimator = SizeEstimator(
            database, stats=self.stats, e=e, q=q, cache=estimation_cache,
        )
        self.whatif = WhatIfOptimizer(
            database, self.stats, sizes=self._size_lookup,
        )
        self.base_config = default_base_configuration(database)
        #: statement -> the held object equal to it, for ad-hoc SQL:
        #: the coster's memos are keyed by statement identity, so a
        #: question asked again reuses the first asking's shapes.
        self._workload_statements = {
            ws.statement: ws.statement for ws in workload
        }
        self._ad_hoc_statements: dict = {}

    # ------------------------------------------------------------------
    def _size_lookup(self, index: IndexDef) -> tuple[float, float]:
        # The advisor's own quantization policy — the estimate/cost
        # endpoints must see exactly the sizes a tune run would.
        return quantized_size_lookup(self.estimator, index)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "database": self.database.name,
            "tables": sorted(t.name for t in self.database.tables),
            "total_data_bytes": self.database.total_data_bytes(),
            "statements": len(self.workload),
            "queries": len(self.workload.queries),
            "updates": len(self.workload.updates),
        }

    # ------------------------------------------------------------------
    # request executors (synchronous; run on the service executor)
    # ------------------------------------------------------------------
    def _sweep_budgets(self, payload: dict) -> list[float]:
        """Every budget of a sweep payload in bytes, each checked like a
        tune's."""
        if "budget_bytes" in payload:
            field, scale = "budget_bytes", 1.0
        elif "budget_fractions" in payload:
            field, scale = "budget_fractions", \
                self.database.total_data_bytes()
        else:
            raise ServiceError(
                "sweep payload needs 'budget_bytes' or 'budget_fractions'"
            )
        values = payload[field]
        if not isinstance(values, list) or not values:
            raise ServiceError(
                f"sweep {field!r} must be a non-empty list, got {values!r}"
            )
        return [scale * check_budget(f"{field}[{i}]", value)
                for i, value in enumerate(values)]

    def _sweep_seeds(self, payload: dict) -> "list[int] | None":
        seeds = payload.get("seeds")
        if seeds is None:
            return None
        if not isinstance(seeds, list):
            raise ServiceError(f"'seeds' must be a list, got {seeds!r}")
        return [check_seed(f"seeds[{i}]", seed)
                for i, seed in enumerate(seeds)] or None

    def _advisor_extra(self, payload: dict) -> dict:
        extra = payload.get("options", {})
        if not isinstance(extra, dict):
            raise ServiceError(f"'options' must be an object, got {extra!r}")
        extra = dict(extra)
        unknown = set(extra) - _REQUEST_OPTION_FIELDS
        if unknown:
            raise ServiceError(
                f"unknown advisor options {sorted(unknown)}; allowed: "
                f"{sorted(_REQUEST_OPTION_FIELDS)}"
            )
        try:
            # The options' own rule; the budget is checked on its own.
            AdvisorOptions(budget_bytes=0.0, **extra)
        except AdvisorError as exc:
            raise ServiceError(str(exc)) from None
        return extra

    def _variant(self, payload: dict) -> str:
        variant = payload.get("variant", "dtac-both")
        try:
            get_variant(variant)
        except AdvisorError as exc:
            raise ServiceError(str(exc)) from None
        return variant

    def _resolve(self, payload: dict) -> "tuple[str, int, dict]":
        """(variant, seed, the session call's budget and option
        keywords) of a tune/retune payload, validated in that order:
        variant, options, seed, then budget.  The one validation path
        of a tuning payload: a bad one fails here, at submission for a
        job."""
        variant = self._variant(payload)
        extra = self._advisor_extra(payload)
        seed = check_seed("seed", payload.get("seed", DEFAULT_SAMPLE_SEED))
        for field in ("budget_bytes", "budget_fraction"):
            if field in payload:
                extra[field] = check_budget(field, payload[field])
                return variant, seed, extra
        raise ServiceError(
            "tune payload needs 'budget_bytes' or 'budget_fraction'"
        )

    def _session(self, variant: str, seed: int, progress) -> TuningSession:
        """The context's session, set to one job's variant, seed and
        hook (on the context's lane)."""
        session = self.session
        session.variant, session.seed, session.progress = \
            variant, seed, progress
        return session

    def _envelope(self, result: AdvisorResult) -> dict:
        out = serialize_result(result)
        out["context"] = self.name
        out["variant"] = self.session.variant
        out["seed"] = self.session.seed
        return out

    def run_tune(self, payload: dict, progress=None) -> dict:
        """One advisor run on the context's session.

        ``progress`` threads the job layer's event hook into the
        advisor (one event per greedy step)."""
        variant, seed, call = self._resolve(payload)
        session = self._session(variant, seed, progress)
        return self._envelope(session.tune(workload=self.workload, **call))

    # ------------------------------------------------------------------
    # continuous tuning (the recurring retune job kind)
    # ------------------------------------------------------------------
    def _drift_workload(self, payload: dict):
        """(workload, drift_info) for the run: the context workload,
        drifted to the payload's phase when a ``drift`` object rides
        along."""
        from repro.workload.drift import DriftSpec, drift_phase

        raw = payload.get("drift")
        if raw is None:
            return self.workload, None
        if not isinstance(raw, dict):
            raise ServiceError(f"'drift' must be an object, got {raw!r}")
        raw = dict(raw)
        phase = raw.pop("phase", 0)
        if not isinstance(phase, int) or isinstance(phase, bool) \
                or phase < 0:
            raise ServiceError(
                f"drift phase must be a non-negative integer, got "
                f"{phase!r}"
            )
        try:
            spec = DriftSpec.from_dict(raw)
        except Exception as exc:
            raise ServiceError(str(exc)) from exc
        workload = drift_phase(self.workload, spec, phase)
        return workload, {"phase": phase, "spec": spec.to_dict()}

    def _previous_configuration(self, payload: dict):
        """The carried-forward configuration (base + ``from_config``
        specs), or None for a first/cold retune."""
        specs = payload.get("from_config")
        if not specs:
            return None
        if not isinstance(specs, (list, tuple)):
            raise ServiceError(
                f"'from_config' must be a list of index specs, got "
                f"{specs!r}"
            )
        previous = self.base_config
        for spec in specs:
            previous = previous.add(parse_index_spec(self.database, spec))
        return previous

    def prepare_job(self, kind: str, payload: dict,
                    carried: "tuple[list, int] | None" = None) -> None:
        """Submission-time validation of a job payload, plus the
        carry-forward resolution of a retune (mutates ``payload`` in
        place, **before** it is journaled — a re-run after a restart
        must see the exact previous configuration this submission
        resolved).

        ``carried`` is the job tier's latest completed configuration
        for this context as ``(index_specs, generation)``; it seeds a
        retune's ``from_config`` when the submission did not pin one
        itself.  Bad variants, options, seeds, budgets, index specs and
        drift specs all fail here (HTTP 400), never out of a running
        lane: the options by building the job's :class:`AdvisorOptions`,
        which checks every field against
        :data:`~repro.advisor.advisor.OPTION_RULES`.  Unknown kinds
        pass: the job tier names them."""
        if kind == "tune":
            self._resolve(payload)
        elif kind == "sweep":
            self._resolve_sweep(payload)
        elif kind == "retune":
            self._prepare_retune(payload, carried)

    def _prepare_retune(self, payload: dict, carried) -> None:
        self._resolve(payload)
        self._drift_workload(payload)
        if payload.get("from_config"):
            self._previous_configuration(payload)
            payload.setdefault("generation", 1)
        elif carried is not None:
            specs, generation = carried
            payload["from_config"] = specs
            payload["generation"] = generation + 1
        else:
            # Nothing to carry: the first submission of a recurring
            # retune runs cold and establishes generation 1.
            payload["generation"] = 1

    def run_retune(self, payload: dict, progress=None) -> dict:
        """One incremental retune on the context's session, from the
        payload's previous configuration (``from_config`` and
        ``generation``, resolved at submission and journaled — never the
        session's own, which a restarted service does not have).
        Without one this is the cold first generation, diffed against
        the untuned base.  The result carries a ``retune``
        section (generation, diff, drift) and the event stream gets the
        :meth:`RetuneResult.events`."""
        variant, seed, call = self._resolve(payload)
        workload, drift_info = self._drift_workload(payload)
        previous = self._previous_configuration(payload)
        session = self._session(variant, seed, progress)
        session.configuration = previous
        session.generation = payload.get("generation", 1) - 1
        if previous is not None:
            delta = session.retune(workload=workload, **call)
        else:
            delta = RetuneResult.from_run(
                self.base_config, session.tune(workload=workload, **call),
                session.generation,
            )
            if progress is not None:
                for event in delta.events():
                    progress(event)
        out = self._envelope(delta.result)
        out["retune"] = {
            "generation": delta.generation,
            "config_changed": delta.config_changed,
            "dropped": [ix.display_name() for ix in delta.dropped],
            "added": [ix.display_name() for ix in delta.added],
            "kept": [ix.display_name() for ix in delta.kept],
        }
        if drift_info is not None:
            out["retune"]["drift"] = drift_info
        return out

    def _resolve_sweep(self, payload: dict):
        """(variant, budgets, seeds, options) of a sweep payload, each
        checked as :meth:`_resolve` checks a tune's."""
        return (
            self._variant(payload),
            self._sweep_budgets(payload),
            self._sweep_seeds(payload),
            self._advisor_extra(payload),
        )

    def run_sweep(self, payload: dict, workers: int = 1,
                  progress=None) -> dict:
        """A whole budget sweep / seed ablation as one unit, ``workers``
        advisor runs in flight at once."""
        variant, budgets, seeds, extra = self._resolve_sweep(payload)
        sweep = self._session(variant, DEFAULT_SAMPLE_SEED, progress).sweep(
            budgets, seeds=seeds, workers=workers, workload=self.workload,
            **extra,
        )
        runs = []
        for run in sweep.runs:
            entry = serialize_result(run.result)
            entry["seed"] = run.seed
            entry["budget_bytes"] = run.budget_bytes
            runs.append(entry)
        return {
            "context": self.name,
            "variant": variant,
            "runs": runs,
            "meta": {
                "elapsed_seconds": sweep.elapsed_seconds,
                "workers": sweep.workers,
                "engine_stats": sweep.engine_stats,
                "estimation_cache_stats": sweep.estimation_cache_stats,
                "cost_cache_stats": sweep.cost_cache_stats,
                "delta_stats": sweep.delta_stats,
            },
        }

    def run_estimate_size(self, payload: dict) -> dict:
        """Size-estimate one structure through the shared estimator."""
        index = parse_index_spec(self.database, payload.get("index"))
        estimate = self.estimator.estimate(index)
        return {
            "context": self.name,
            "index": index_to_spec(index),
            "est_bytes": estimate.est_bytes,
            "page_quantized_bytes": quantize_bytes(estimate.est_bytes),
            "compression_fraction": estimate.compression_fraction,
            "source": estimate.source,
            "estimation_cost": estimate.cost,
            "error_mean": estimate.error.mean,
            "error_var": estimate.error.var,
        }

    def _held_statement(self, statement):
        """The held statement equal to ``statement``: the workload's,
        else the first asking's (at most ``_HELD_AD_HOC_STATEMENTS``
        held; past that the holding starts over)."""
        held = self._workload_statements.get(statement)
        if held is None:
            held = self._ad_hoc_statements.get(statement)
        if held is None:
            if len(self._ad_hoc_statements) >= _HELD_AD_HOC_STATEMENTS:
                self._ad_hoc_statements.clear()
            held = self._ad_hoc_statements[statement] = statement
        return held

    def run_whatif_cost(self, payload: dict) -> dict:
        """What-if cost one statement under a hypothetical configuration
        (the base heaps plus the payload's indexes)."""
        if "statement_index" in payload:
            si = payload["statement_index"]
            if not isinstance(si, int) or isinstance(si, bool):
                raise ServiceError(
                    f"statement_index must be an integer, got {si!r}"
                )
            if not 0 <= si < len(self.workload):
                raise ServiceError(
                    f"statement_index {si} out of range "
                    f"(workload has {len(self.workload)} statements)"
                )
            statement = self.workload.statements[si].statement
        elif "sql" in payload:
            sql = payload["sql"]
            if not isinstance(sql, str):
                raise ServiceError(f"'sql' must be a string, got {sql!r}")
            statement = parse_statement(sql)
            statement.validate(self.database)
            statement = self._held_statement(statement)
        else:
            raise ServiceError(
                "whatif_cost payload needs 'statement_index' or 'sql'"
            )
        specs = payload.get("indexes", [])
        if not isinstance(specs, list):
            raise ServiceError(
                f"'indexes' must be a list of index specs, got {specs!r}"
            )
        config = self.base_config
        for spec in specs:
            config = config.add(parse_index_spec(self.database, spec))
        # Cost through the coster, not WhatIfOptimizer.cost: clients
        # control both the statement (ad-hoc SQL) and the
        # configuration, so the optimizer's process-lifetime signature
        # cache would grow without bound in a long-lived service.  The
        # coster's own memos (a statement's shape, its access shapes)
        # are bounded by module constants and start over when full.
        # An ad-hoc statement equal to one already held (a workload
        # statement, an earlier question) is costed as that object, so
        # only distinct SQL pays a derivation.  Same floats either way
        # — both layers only memoize around this exact call.
        breakdown = self.whatif.coster.cost(statement, config)
        return {
            "context": self.name,
            "statement": repr(statement),
            "indexes": [
                ix.display_name()
                for ix in sorted(config, key=lambda i: i.display_name())
            ],
            "total": breakdown.total,
            "io": breakdown.io,
            "cpu": breakdown.cpu,
            "used_mv": breakdown.used_mv,
        }
