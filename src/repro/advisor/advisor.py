"""The tuning advisor front end: DTA (baseline) and DTAc (compression
aware), mirroring the architecture of Figure 1/4 — candidate selection,
merging, enumeration — with the compression extensions of Sections 4-6.
"""

from __future__ import annotations

import hashlib
import numbers
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Mapping
from repro.advisor import algorithms
from repro.advisor.algorithms import EnumerationOptions
from repro.advisor.candidates import (
    CandidateOptions,
    candidate_indexes,
    expand_compression_variants,
)
from repro.advisor.merging import (
    compression_aware_variants,
    generate_merged_candidates,
)
from repro.advisor.selection import (
    cluster_skyline,
    evaluate_candidates_batch,
    select_skyline,
    select_top_k,
)
from repro.catalog.schema import Database
from repro.checks import check_budget, check_count, check_probability
from repro.compression.base import CompressionMethod
from repro.errors import AdvisorError
from repro.optimizer.constants import DEFAULT_COST_CONSTANTS
from repro.optimizer.whatif import WhatIfOptimizer
from repro.parallel.cache import CostCache, CostMemoFile, SelectionFile
from repro.parallel.signature import (
    index_signature,
    sized_index_signature,
    statement_signature,
)
from repro.physical.configuration import Configuration, member_order_key
from repro.physical.index_def import IndexDef
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats
from repro.storage.index_build import IndexKind
from repro.storage.page import quantize_bytes
from repro.workload.query import SelectQuery, Workload

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.optimizer.delta import PlanTables


def default_base_configuration(database: Database) -> Configuration:
    """Uncompressed heaps for every table (the untuned database) — the
    single definition of the advisor's (and the tuning service's)
    starting point."""
    return Configuration(
        IndexDef(t.name, (), kind=IndexKind.HEAP)
        for t in database.tables
    )


def quantized_size_lookup(
    estimator: SizeEstimator, index: IndexDef
) -> tuple[float, float]:
    """(bytes, rows) as every cost consumer must see them: whole-page
    quantization at the consumer boundary — the advisor budgets real
    pages, while the estimator works in fractional bytes for deduction
    accuracy.  One definition, so the advisor's costings and the
    service's estimate/cost endpoints can never quantize differently."""
    return (
        estimator.quantized_bytes(index),
        estimator.sizer.estimated_rows(index),
    )


def check_seed(name: str, value) -> int:
    """``value`` as a sampling seed — an integer (a bool is not one),
    as a plain ``int`` so every spelling of it draws one sample stream
    — or :class:`AdvisorError` naming ``name``.  A session, a sweep's
    seeds and a service payload's seeds apply it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise AdvisorError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _flag(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise AdvisorError(f"{name} must be a bool, got {value!r}")
    return value


def _one_of(choices: "Callable[[], list[str]]") -> Callable:
    """The check that a value is one of ``choices()``: a callable, so
    an algorithm registered after this module is imported counts."""
    def check(name: str, value) -> str:
        if not isinstance(value, str) or value not in choices():
            raise AdvisorError(
                f"{name} {value!r} is unknown; choose from {choices()}"
            )
        return value
    return check


#: The one rule for every :class:`AdvisorOptions` field: field -> check,
#: which returns the value (numbers as plain ``int``/``float``) or
#: raises :class:`AdvisorError` naming the field.  A new field must get
#: an entry (``tests/test_api_facade.py`` fails otherwise).
OPTION_RULES: "dict[str, Callable[[str, object], object]]" = {
    "budget_bytes": check_budget,
    "enable_compression": _flag,
    "candidate_selection": _one_of(lambda: ["topk", "skyline"]),
    "top_k": check_count,
    "strategy": _one_of(lambda: ["greedy", "density"]),
    "backtracking": _flag,
    "seed_fanout": check_count,
    "min_improvement": check_budget,
    "enable_partial": _flag,
    "enable_mv": _flag,
    "enable_merging": _flag,
    "compression_aware_merging": _flag,
    "max_key_columns": check_count,
    "skyline_cluster_max": check_count,
    "e": check_budget,
    "q": check_probability,
    "delta_costing": _flag,
    "algorithm": _one_of(algorithms.names),
}


@dataclass(frozen=True)
class AdvisorOptions:
    """Advisor configuration.

    The paper's tool variants map to flags:

    * DTA:              ``enable_compression=False`` (top-k, pure greedy)
    * DTAc (None):      compression on, top-k, no backtracking
    * DTAc (Skyline):   compression on, skyline selection
    * DTAc (Backtrack): compression on, backtracking enumeration
    * DTAc (Both):      compression on, skyline + backtracking

    ``delta_costing`` routes enumeration costing through the
    delta-aware :class:`~repro.optimizer.delta.DeltaWorkloadCoster`
    (terms rebuilt from the prepared stage's plan table, and read from
    its cost memo); recommendations are byte-identical with it on or
    off — off only costs time.
    Persistent caches are not an option: every run belongs to a
    :class:`~repro.api.Session`, whose holder (the library, a service
    context, a sweep) picks the caches its runs fork.
    A run never forks: parallelism is :func:`repro.api.run_sweep`'s,
    whose shard unit is a whole run.

    Building one checks every field against :data:`OPTION_RULES`; each
    entry point builds its options before doing any work.
    """

    budget_bytes: float
    enable_compression: bool = True
    candidate_selection: str = "topk"  # 'topk' | 'skyline'
    top_k: int = 2
    strategy: str = "greedy"  # 'greedy' | 'density'
    backtracking: bool = False
    seed_fanout: int = 3
    #: greedy acceptance threshold (relative cost drop).
    min_improvement: float = 1e-4
    enable_partial: bool = False
    enable_mv: bool = False
    enable_merging: bool = True
    compression_aware_merging: bool = True
    max_key_columns: int = 4
    skyline_cluster_max: int = 12
    e: float = 0.5
    q: float = 0.9
    delta_costing: bool = True
    #: selection strategy over the shared candidate pool, resolved
    #: through :func:`repro.advisor.algorithms.get` — the default is
    #: the paper's greedy(+backtracking) search; alternatives are
    #: ``"ibm"`` (benefit/size knapsack), ``"relaxation"`` (drop from
    #: the full pool) and ``"anytime"`` (greedy streaming
    #: ``best_so_far`` events).  Orthogonal to ``variant``: a variant
    #: bundles candidate/costing flags, the algorithm picks the search.
    algorithm: str = "greedy-backtrack"

    def __post_init__(self) -> None:
        for name, check in OPTION_RULES.items():
            object.__setattr__(self, name, check(name, getattr(self, name)))


@dataclass
class AdvisorResult:
    """Outcome of a tuning run.

    ``improvement`` is the paper's metric: the relative drop in the
    optimizer-estimated weighted workload cost from the base configuration
    to the recommendation (0.75 = a 4x speedup).
    """

    configuration: Configuration
    base_configuration: Configuration
    base_cost: float
    final_cost: float
    consumed_bytes: float
    budget_bytes: float
    elapsed_seconds: float
    candidate_count: int
    pool_size: int
    sizes: dict[IndexDef, float] = field(default_factory=dict)
    steps: list[str] = field(default_factory=list)
    #: persistent estimation-cache counters for this run (empty when no
    #: cache is wired); see :meth:`EstimationCache.stats`.
    cache_stats: dict = field(default_factory=dict)
    #: persistent what-if cost-cache counters for this run (empty when
    #: no cache is wired); see :meth:`CostCache.stats`.
    cost_cache_stats: dict = field(default_factory=dict)
    #: always empty (a run never forks); benchmarks/ledger/inprocess.py
    #: reads it with ``.get`` and the ledger is frozen.
    engine_stats: dict = field(default_factory=dict)
    #: costing-kernel counters (lanes, batches, shape-memo entries);
    #: see :meth:`repro.optimizer.kernels.CostKernel.stats`.
    kernel_stats: dict = field(default_factory=dict)
    #: delta-costing counters for this run; see
    #: :meth:`DeltaWorkloadCoster.stats`.  Empty when delta costing is
    #: disabled.
    delta_stats: dict = field(default_factory=dict)
    #: what-if optimizer invocations of this run.
    optimizer_calls: int = 0

    @property
    def improvement(self) -> float:
        if self.base_cost <= 0:
            return 0.0
        return 1.0 - self.final_cost / self.base_cost

    @property
    def improvement_pct(self) -> float:
        return 100.0 * self.improvement


#: Progress hook: called with one small JSON-able
#: event dict per advisor milestone (phase transitions, every accepted
#: greedy step).  Purely observational — it must not change any result —
#: but it MAY raise (e.g. :class:`repro.errors.JobCancelled`) to abort
#: the run at the next event, which is how the tuning service cancels
#: running jobs with one-greedy-step latency.
ProgressHook = Callable[[dict], None]


#: Every :class:`AdvisorOptions` field, by what it can change.  The
#: pool-shaping ones decide which candidates exist, which are sized and
#: how their plans are costed — everything :meth:`TuningAdvisor.prepare`
#: builds — and are part of :func:`stage_key`.  The search-only ones are
#: read by :meth:`TuningAdvisor.search` alone, so runs that differ only
#: there (or only in statement weights) share one prepared stage.  A new
#: field must be added to exactly one of the two
#: (``tests/test_run_identity.py`` fails otherwise).
POOL_SHAPING_OPTIONS = frozenset({
    "enable_compression", "candidate_selection", "top_k",
    "enable_partial", "enable_mv", "enable_merging",
    "compression_aware_merging", "max_key_columns",
    "skyline_cluster_max", "e", "q", "delta_costing",
})
SEARCH_ONLY_OPTIONS = frozenset({
    "budget_bytes", "algorithm", "strategy", "backtracking",
    "min_improvement", "seed_fanout",
})
_KEYED_OPTIONS = tuple(sorted(POOL_SHAPING_OPTIONS))


def stage_key(workload: Workload, options: AdvisorOptions,
              seed: int) -> tuple:
    """What a prepared stage is a function of: the statement sequence
    (not the weights), the sampling seed, the pool-shaping options."""
    return (
        tuple(ws.statement for ws in workload),
        seed,
        tuple(getattr(options, name) for name in _KEYED_OPTIONS),
    )


@dataclass(frozen=True, eq=False, repr=False)
class PreparedStage:
    """What :meth:`TuningAdvisor.prepare` leaves behind, and every run
    with the same :func:`stage_key` can search again: the seeded
    estimator with every candidate sized, the what-if optimizer
    (statement cache, kernel shape memo) over its size lookup, the
    candidate pool, and the delta coster's weight-free tables.

    One lifetime for all of it — a plan table must never outlive the
    estimator whose sizes it was built from, and here neither outlives
    the stage.  Two of its parts outlive it on disk, each in a
    namespace that pins the sizes it was built from: the per-query
    selection (a :class:`~repro.parallel.cache.SelectionFile`), and
    the raw cost memo, in ``memo_file``.  The stage holds the cache
    objects it was prepared with and no progress hook.
    """

    key: tuple
    estimator: SizeEstimator
    #: over ``estimator``'s size lookup; carries the database, the
    #: statistics and the cost constants the stage was built with.
    whatif: WhatIfOptimizer
    base_config: Configuration
    pool: tuple
    candidate_count: int
    #: None when delta costing is off.
    tables: "PlanTables | None"
    #: where the raw layer of ``tables``' cost memo persists: None
    #: without delta costing or a cache directory.
    memo_file: CostMemoFile | None


def _cost_context(estimator: SizeEstimator, e: float, q: float) -> str:
    """Fingerprint of every run-level input a persisted what-if cost
    depends on beyond the (statement, sized structures) key: the
    sampled data behind the size estimates, the accuracy constraint
    that shaped them, and the cost constants.  Resolved lazily on
    the first persistent cost lookup: the sample fingerprint scans
    every value of a table the first time that table object is
    fingerprinted and is a few digest re-hashes on later runs over
    the same database (see ``Table.content_digest``)."""
    material = (
        f"fp={estimator.sample_fingerprint};"
        f"opts_e={e!r};opts_q={q!r};"
        f"est_e={estimator.e!r};est_q={estimator.q!r};"
        f"deduction={estimator.use_deduction};"
        f"default_fraction={estimator.default_fraction!r};"
        f"fractions={estimator.fractions!r};"
        f"constants={DEFAULT_COST_CONSTANTS!r}"
    )
    return hashlib.sha256(material.encode()).hexdigest()


class TuningAdvisor:
    """One tuning run over a database + weighted workload:
    :meth:`prepare` (candidates, sizes, per-query selection, merging —
    budget- and weight-free) then :meth:`search` (enumeration under
    this run's budget, algorithm and weights).  Pass the ``stage`` an
    earlier advisor prepared under the same :func:`stage_key` and
    :meth:`run` goes straight to the search."""

    def __init__(
        self,
        database: Database,
        workload: Workload,
        options: AdvisorOptions,
        estimator: SizeEstimator | None = None,
        stats: DatabaseStats | None = None,
        cost_cache: CostCache | None = None,
        progress: ProgressHook | None = None,
        algorithm_cls: "Callable[..., object] | None" = None,
        extra_candidates: "Iterable[IndexDef] | None" = None,
        stage: PreparedStage | None = None,
    ) -> None:
        self.database = database
        self.workload = workload
        self.options = options
        #: a caller-supplied ``algorithm_cls`` (e.g. the retune search,
        #: which carries a previous configuration no registry name can)
        #: overrides the registry lookup.
        self._algorithm_cls = (
            algorithm_cls or algorithms.get(options.algorithm)
        )
        #: structures injected into the enumeration pool beyond what
        #: candidate generation finds — retunes pass the previous
        #: configuration's members so drops can be re-added.
        self._extra_candidates = list(extra_candidates or ())
        self.progress = progress
        #: the prepared stage: the one handed in, else None until
        #: :meth:`prepare` completes (an aborted prepare leaves None).
        self.stage = stage
        if stage is not None:
            # Everything preparation built, and what it was built over
            # (``estimator``/``stats``/``cost_cache`` arguments are the
            # stage's).
            if stage.whatif.database is not database \
                    or stage.key != stage_key(
                        workload, options, stage.estimator.manager.seed
                    ):
                raise AdvisorError(
                    "prepared stage was built for another database, "
                    "other statements, another seed or other "
                    "pool-shaping options"
                )
            self.estimator = stage.estimator
            self.whatif = stage.whatif
            self.stats = stage.whatif.stats
            self.base_config = stage.base_config
        else:
            self.stats = stats or DatabaseStats(database)
            self.estimator = estimator or SizeEstimator(
                database, stats=self.stats, e=options.e, q=options.q,
            )
            self.whatif = WhatIfOptimizer(
                database, self.stats,
                sizes=partial(quantized_size_lookup, self.estimator),
                cost_cache=cost_cache,
                cost_context=partial(
                    _cost_context, self.estimator, options.e, options.q,
                ),
            )
            self.base_config = default_base_configuration(database)
        self.cost_cache = self.whatif.cost_cache
        self._original_base_sizes = {
            ix.table: self._index_size(ix) for ix in self.base_config
        }
        #: this run's delta-aware workload coster: its weights,
        #: reference and counters are per run; its plan tables
        #: are the stage's (fresh ones until there is a stage), whose
        #: keys do not embed sizes — they live and die with the
        #: estimator.
        self.delta = (
            self.whatif.delta_coster(
                workload, stage.tables if stage is not None else None
            )
            if options.delta_costing else None
        )

    # ------------------------------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        """Report one progress event (no-op without a hook).  The hook
        may raise to abort the run — cancellation rides this path."""
        if self.progress is not None:
            self.progress({"event": event, **fields})

    # ------------------------------------------------------------------
    def _index_size(self, index: IndexDef) -> float:
        # Bytes only: must not touch estimated_rows, which samples the
        # MV for MV indexes (extra estimation work this path never did).
        # Read once per structure for the life of the estimates.
        return self.estimator.quantized_bytes(index)

    def _candidate_universe(self, pool: list[IndexDef]) -> list[IndexDef]:
        """Every structure enumeration could ever place in a
        configuration: the pool, the base structures, and the method
        variants the polish/backtracking phases may introduce — the
        structures the cost memo file's namespace sizes."""
        methods = [CompressionMethod.NONE]
        if self.options.enable_compression or self.options.backtracking:
            methods += [CompressionMethod.ROW, CompressionMethod.PAGE]
        members = list(dict.fromkeys(
            [*pool, *self.base_config.ordered()]
        ))
        return list(dict.fromkeys(
            ix.with_method(method)
            for ix in members for method in methods
        ))

    def _workload_cost(self, config: Configuration) -> float:
        if self.delta is not None:
            return self.delta.workload_cost(config)
        return self.whatif.workload_cost(self.workload, config)

    def _query_cost(self, query: SelectQuery, config: Configuration) -> float:
        if self.delta is not None:
            return self.delta.statement_cost(query, config)
        return self.whatif.cost(query, config).total

    def _size_if_known(self, index: IndexDef) -> "tuple[float, float] | None":
        """(bytes, rows) exactly as the optimizer's size lookup would
        report — but only when answering requires no new estimation
        work, so naming the cost memo file's namespace can never
        reorder estimation between the delta-on and delta-off paths."""
        est = self.estimator.peek(index)
        if est is None:
            return None
        return (
            quantize_bytes(est.est_bytes),
            self.estimator.sizer.estimated_rows(index),
        )

    def _work_counters(self) -> dict:
        """The clock and the cumulative counters of the objects a stage
        shares between runs, read at the start of a run so its result
        can report the time and work of that run alone."""
        cache = self.estimator.cache
        return {
            "start": time.perf_counter(),
            "optimizer_calls": self.whatif.optimizer_calls,
            "kernel": self.whatif.kernel.stats(),
            "estimates": cache.stats() if cache is not None else {},
            "costs": (
                self.cost_cache.stats()
                if self.cost_cache is not None else {}
            ),
        }

    # ------------------------------------------------------------------
    def run(self) -> AdvisorResult:
        """One full tuning run: :meth:`prepare` — skipped, bar its two
        phase events, over a handed-in stage — then :meth:`search`."""
        before = self._work_counters()
        self.prepare()
        return self.search(before)

    def prepare(self) -> PreparedStage:
        """Candidate generation, batch size estimation, per-query
        selection and merging: the pool, with every member sized.
        Reads neither the budget, the search options nor a statement
        weight.  With a cost cache directory the per-query selection is
        read from the file an earlier process wrote over the same
        namespace, and only costed (and written) when there is none;
        candidate generation and sizing run either way, and the plan
        tables and probe rows the costing would have filled are filled
        by the search.  Sets :attr:`stage` only on completion, so a
        progress hook that aborts it leaves nothing half-built to
        reuse."""
        options = self.options
        self._emit("phase", phase="candidates",
                   queries=len(self.workload.queries))
        if self.stage is not None:
            self._emit("phase", phase="selection",
                       candidates=self.stage.candidate_count)
            return self.stage
        cand_options = CandidateOptions(
            enable_compression=options.enable_compression,
            enable_partial=options.enable_partial,
            enable_mv=options.enable_mv,
            max_key_columns=options.max_key_columns,
        )

        # 1. Per-query syntactic candidates, expanded per compression
        #    method, sizes estimated in one batch (Section 5's framework).
        per_query: list[list[IndexDef]] = []
        all_candidates: list[IndexDef] = []
        for ws in self.workload.queries:
            base = candidate_indexes(
                self.database, ws.statement, cand_options
            )
            expanded = expand_compression_variants(
                base, options.enable_compression
            )
            per_query.append(expanded)
            all_candidates.extend(expanded)
        unique_candidates = list(dict.fromkeys(all_candidates))
        compressed = [
            ix for ix in unique_candidates if ix.method.is_compressed
        ]
        if compressed:
            self.estimator.estimate_many(compressed, options.e, options.q)

        # 2. Candidate selection per query: top-k or skyline (Section
        #    6.1) — read from the cache directory when an earlier
        #    process selected over this very namespace.
        self._emit("phase", phase="selection",
                   candidates=len(unique_candidates))
        selection_file = self._selection_file(unique_candidates)
        picked = selection_file.load() if selection_file is not None \
            else None
        if picked is not None:
            pool = [unique_candidates[n] for n in picked]
        else:
            pool = self._select(per_query)
            if selection_file is not None and not (
                self.delta is not None and self.delta.tables.distrusted
            ):
                position = {ix: n for n, ix in enumerate(unique_candidates)}
                selection_file.save([position[ix] for ix in pool])

        # 3. Merging (Figure 1): merged variants join the pool.  With
        #    compression enabled, each merged object also spawns the
        #    column reshapes of Section 6.2's closing note (key
        #    permutations / included-column promotion that improve the
        #    compression fraction).
        if options.enable_merging:
            merged = generate_merged_candidates(pool)
            if options.enable_compression and options.compression_aware_merging:
                reshaped: list[IndexDef] = []
                for m in merged:
                    reshaped.extend(
                        compression_aware_variants(
                            m,
                            lambda t, c: (
                                self.stats.table(t).column(c).n_distinct
                            ),
                            lambda t: self.database.table(t).num_rows,
                        )
                    )
                merged = merged + reshaped
            merged = expand_compression_variants(
                merged, options.enable_compression
            )
            new_compressed = [m for m in merged if m.method.is_compressed]
            if new_compressed:
                self.estimator.estimate_many(
                    new_compressed, options.e, options.q
                )
            pool.extend(dict.fromkeys(merged))

        # 3.5 Compressed variants of the existing base structures: DTAc
        #     can reclaim space — even at a 0% budget — by compressing a
        #     table's heap/clustered index and spending the savings on
        #     secondary indexes (Appendix D.2). These moves must be
        #     first-class pool members, not only backtracking swaps,
        #     or the greedy search can never reach them when nothing
        #     is oversized.
        if options.enable_compression:
            # In member order: the variants' estimation batch and their
            # pool positions must not follow frozenset iteration, which
            # an IndexDef's hash (of None, by address) ties to the
            # process even under one PYTHONHASHSEED.
            base_variants = [
                ix.with_method(method)
                for ix in self.base_config.ordered()
                for method in (CompressionMethod.ROW, CompressionMethod.PAGE)
            ]
            self.estimator.estimate_many(base_variants, options.e, options.q)
            pool.extend(v for v in base_variants if v not in pool)

        # What runs in earlier processes costed over this very stage.
        memo_file = self._memo_file(pool)
        if memo_file is not None:
            memo_file.load(self.delta.tables)
        self.stage = PreparedStage(
            key=stage_key(
                self.workload, options, self.estimator.manager.seed
            ),
            estimator=self.estimator,
            whatif=self.whatif,
            base_config=self.base_config,
            pool=tuple(pool),
            candidate_count=len(unique_candidates),
            tables=self.delta.tables if self.delta is not None else None,
            memo_file=memo_file,
        )
        return self.stage

    def _select(self, per_query: list[list[IndexDef]]) -> list[IndexDef]:
        """Cost every query's candidates and keep its top-k or skyline
        configurations' members: the pool before merging."""
        options = self.options
        if self.delta is not None:
            # Base the delta coster before any candidate costing.
            self.delta.rebase(self.base_config)
        per_query_configs = evaluate_candidates_batch(
            [ws.statement for ws in self.workload.queries],
            per_query,
            self.base_config,
            self._query_cost,
            self._index_size,
        )
        pool: list[IndexDef] = []
        for configs in per_query_configs:
            if options.candidate_selection == "skyline":
                selected = select_skyline(configs)
                selected = cluster_skyline(
                    selected, options.skyline_cluster_max
                )
                # The skyline *adds* slow-but-small candidates; it must
                # not lose the fast ones top-k keeps (the second-best
                # may be dominated and off the skyline entirely).
                for keep in select_top_k(configs, options.top_k):
                    if keep not in selected:
                        selected.append(keep)
            else:
                selected = select_top_k(configs, options.top_k)
            for config in selected:
                # Stable order: pool order feeds greedy tie-breaking,
                # so it must not follow frozenset iteration.
                pool.extend(sorted(config.indexes, key=member_order_key))
        return list(dict.fromkeys(pool))

    def _selection_file(
        self, candidates: list[IndexDef]
    ) -> SelectionFile | None:
        """The per-query selection's file in the cost cache's directory,
        written through that cache's log (None without one).  Its
        namespace pins the cost context, the statements, the
        pool-shaping options and each candidate with its size — read
        here in candidate order, which sizes every candidate the
        selection's costing would have."""
        cache = self.cost_cache
        if cache is None or cache.log is None:
            return None
        return SelectionFile(
            cache.log,
            _cost_context(self.estimator, self.options.e, self.options.q),
            [statement_signature(ws.statement) for ws in self.workload],
            [getattr(self.options, name) for name in _KEYED_OPTIONS],
            [f"{index_signature(ix)}@bytes={self._index_size(ix)!r}"
             for ix in candidates],
        )

    def _memo_file(self, pool: list[IndexDef]) -> CostMemoFile | None:
        """The cost memo's file in the cost cache's directory, written
        through that cache's log, so a failed save reports into its
        health (None without one, or without delta costing).  Its
        namespace pins the cost context, the statements and the size of
        every structure the stage sized: each member of the candidate
        universe — the pool, the base configuration and their method
        variants — whose size needs no new estimation work.  MV indexes
        stay out, since their row counts draw an MV sample."""
        cache = self.cost_cache
        if self.delta is None or cache is None or cache.log is None:
            return None
        sized = {}
        for ix in self._candidate_universe(pool):
            size = None if ix.is_mv_index else self._size_if_known(ix)
            if size is not None:
                sized[sized_index_signature(ix, *size)] = ix
        return CostMemoFile(
            cache.log,
            _cost_context(self.estimator, self.options.e, self.options.q),
            [statement_signature(ws.statement) for ws in self.workload],
            sized,
        )

    def search(self, before: dict | None = None) -> AdvisorResult:
        """Enumeration (Section 6.2) over the prepared pool, under this
        run's budget, algorithm, weights and progress hook.  ``before``
        (:meth:`run` passes its own) marks where the time and work this
        result reports began; by default here."""
        before = before or self._work_counters()
        stage = self.stage
        if stage is None:
            raise AdvisorError("search() needs a prepared stage")
        options = self.options
        pool = list(stage.pool)

        # 3.6 Caller-seeded structures (retunes inject the previous
        #     configuration's members).  Candidate generation is
        #     weight-free, so over the same statements every previous
        #     pool member surfaces again — but not the method variants
        #     backtracking and polish introduced, nor anything chosen
        #     for an earlier, different statement set.  The search must
        #     still be able to keep or re-add those.  They join this
        #     run's copy of the pool only.
        if self._extra_candidates:
            seeded = [
                ix for ix in dict.fromkeys(self._extra_candidates)
                if ix not in pool and ix not in self.base_config
            ]
            seeded_compressed = [
                ix for ix in seeded if ix.method.is_compressed
            ]
            if seeded_compressed:
                self.estimator.estimate_many(
                    seeded_compressed, options.e, options.q
                )
            pool.extend(seeded)

        # 4. Enumeration (Section 6.2).
        self._emit("phase", phase="enumeration", pool=len(pool),
                   algorithm=options.algorithm)
        enum_options = EnumerationOptions(
            budget_bytes=options.budget_bytes,
            strategy=options.strategy,
            backtracking=options.backtracking,
            min_improvement=options.min_improvement,
            seed_fanout=options.seed_fanout,
            allow_compression=options.enable_compression,
        )
        if self.delta is not None:
            # Every search starts from the base reference (already in
            # place after this advisor's own prepare; weighted from the
            # tables' first reference over a handed-in stage).
            self.delta.rebase(self.base_config)
        search = self._algorithm_cls(
            self.workload,
            self._workload_cost,
            self._index_size,
            self._original_base_sizes,
            enum_options,
            delta=self.delta,
            progress=self.progress,
            query_cost=self._query_cost,
        )
        base_cost = self._workload_cost(self.base_config)
        result = search.run(pool, self.base_config)

        sizes = {
            ix: self._index_size(ix) for ix in result.configuration
        }
        self._emit("phase", phase="finished",
                   final_cost=result.cost, base_cost=base_cost,
                   steps=len(result.steps))
        if self.cost_cache is not None:
            self.cost_cache.save()
        if stage.memo_file is not None:
            stage.memo_file.save(stage.tables)
        return AdvisorResult(
            configuration=result.configuration,
            base_configuration=self.base_config,
            base_cost=base_cost,
            final_cost=result.cost,
            consumed_bytes=result.consumed_bytes,
            budget_bytes=options.budget_bytes,
            elapsed_seconds=time.perf_counter() - before["start"],
            candidate_count=stage.candidate_count,
            pool_size=len(pool),
            sizes=sizes,
            steps=result.steps,
            cache_stats=(
                self.estimator.cache.stats(before["estimates"])
                if self.estimator.cache is not None else {}
            ),
            cost_cache_stats=(
                self.cost_cache.stats(before["costs"])
                if self.cost_cache is not None else {}
            ),
            kernel_stats=self.whatif.kernel.stats(before["kernel"]),
            delta_stats=(
                self.delta.stats() if self.delta is not None else {}
            ),
            optimizer_calls=(
                self.whatif.optimizer_calls - before["optimizer_calls"]
            ),
        )


@dataclass(frozen=True)
class VariantSpec:
    """One named advisor variant: a reviewed bundle of
    :class:`AdvisorOptions` overrides with a docstring.

    Variants bundle *what the advisor considers* (compression,
    candidate selection, backtracking); they are orthogonal to
    ``AdvisorOptions.algorithm``, which picks *how the pool is
    searched*.
    """

    name: str
    options: Mapping[str, object]
    doc: str = ""

    def advisor_options(self, budget_bytes: float,
                        **extra) -> AdvisorOptions:
        """Materialize options for one run: the variant's overrides,
        with ``extra`` winning on conflict."""
        return AdvisorOptions(
            budget_bytes=budget_bytes, **{**dict(self.options), **extra}
        )


_VARIANT_REGISTRY: "dict[str, VariantSpec]" = {}


def register_variant(spec: VariantSpec) -> VariantSpec:
    """Register a named variant; re-registering a name is an error."""
    if spec.name in _VARIANT_REGISTRY:
        raise AdvisorError(f"variant {spec.name!r} is already registered")
    _VARIANT_REGISTRY[spec.name] = spec
    return spec


def variants() -> "tuple[VariantSpec, ...]":
    """Every registered variant, in registration order."""
    return tuple(_VARIANT_REGISTRY.values())


def variant_names() -> "list[str]":
    """Registered variant names, sorted."""
    return sorted(_VARIANT_REGISTRY)


def get_variant(name: str) -> VariantSpec:
    """Resolve a variant name; unknown names fail with the valid set
    spelled out (the service maps this to a 400)."""
    try:
        return _VARIANT_REGISTRY[name]
    except (KeyError, TypeError):  # TypeError: an unhashable wire value
        raise AdvisorError(
            f"unknown variant {name!r}; choose from {variant_names()}"
        ) from None


for _spec in (
    VariantSpec(
        "dta",
        dict(enable_compression=False, candidate_selection="topk",
             backtracking=False),
        "Compression-blind baseline (the paper's DTA): top-k candidate "
        "selection, pure greedy enumeration.",
    ),
    VariantSpec(
        "dtac-none",
        dict(enable_compression=True, candidate_selection="topk",
             backtracking=False),
        "Compression-aware, but with neither skyline selection nor "
        "backtracking — isolates the candidate-expansion machinery.",
    ),
    VariantSpec(
        "dtac-skyline",
        dict(enable_compression=True, candidate_selection="skyline",
             backtracking=False),
        "Adds skyline candidate selection (Section 6.1): keeps "
        "slow-but-small candidates top-k would discard.",
    ),
    VariantSpec(
        "dtac-backtrack",
        dict(enable_compression=True, candidate_selection="topk",
             backtracking=True),
        "Adds backtracking enumeration (Figure 8): recovers oversized "
        "greedy picks by compressing configuration members.",
    ),
    VariantSpec(
        "dtac-both",
        dict(enable_compression=True, candidate_selection="skyline",
             backtracking=True),
        "Skyline selection + backtracking (the paper's full DTAc; the "
        "default variant).",
    ),
):
    register_variant(_spec)
del _spec


def _tune(
    database: Database,
    workload: Workload,
    budget_bytes: float,
    variant: str = "dtac-both",
    estimator: SizeEstimator | None = None,
    stats: DatabaseStats | None = None,
    progress: ProgressHook | None = None,
    **extra,
) -> AdvisorResult:
    """One-call tuning with a named variant (see :func:`variants`)."""
    options = get_variant(variant).advisor_options(budget_bytes, **extra)
    advisor = TuningAdvisor(
        database, workload, options, estimator=estimator, stats=stats,
        progress=progress,
    )
    return advisor.run()


def _tune_decoupled(
    database: Database,
    workload: Workload,
    budget_bytes: float,
    estimator: SizeEstimator | None = None,
    stats: DatabaseStats | None = None,
    method: CompressionMethod = CompressionMethod.PAGE,
    **extra,
) -> AdvisorResult:
    """The staged strawman of Example 1/2: select indexes *without*
    considering compression, then blindly compress everything selected.
    Reproduces the paper's anecdote that decoupling can even slow a
    workload down as budgets grow (INSERT-intensive cases)."""
    options = get_variant("dta").advisor_options(budget_bytes, **extra)
    advisor = TuningAdvisor(
        database, workload, options, estimator=estimator, stats=stats
    )
    staged = advisor.run()
    compressed = Configuration(
        ix.with_method(method) for ix in staged.configuration
    )
    final_cost = advisor.whatif.workload_cost(workload, compressed)
    consumed = sum(
        advisor._index_size(ix) for ix in compressed
        if ix.kind is IndexKind.SECONDARY or ix.is_mv_index
    )
    consumed += sum(
        advisor._index_size(ix) - advisor._original_base_sizes[ix.table]
        for ix in compressed
        if ix.kind in (IndexKind.HEAP, IndexKind.CLUSTERED)
        and not ix.is_mv_index
    )
    return AdvisorResult(
        configuration=compressed,
        base_configuration=staged.base_configuration,
        base_cost=staged.base_cost,
        final_cost=final_cost,
        consumed_bytes=consumed,
        budget_bytes=budget_bytes,
        elapsed_seconds=staged.elapsed_seconds,
        candidate_count=staged.candidate_count,
        pool_size=staged.pool_size,
        sizes={ix: advisor._index_size(ix) for ix in compressed},
        steps=staged.steps + ["decoupled: compressed all selected indexes"],
    )
