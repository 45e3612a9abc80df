"""The sample manager: amortized sampling for size estimation.

Section 4.1's first optimization: taking a fresh uniform sample per
SampleCF invocation is infeasible, so the manager takes **one sample per
table** (per fraction) and reuses it for every index on that table.  It
also owns the filtered samples (partial indexes), join synopses and MV
samples of Appendix B, and records how much time was spent building each
category — the instrumentation behind the paper's Figure 11 breakdown.
"""

from __future__ import annotations

import random
import time
import zlib
from collections import defaultdict

from repro.catalog.schema import Database
from repro.catalog.table import Table
from repro.physical.mv_def import MVDefinition
from repro.sampling.join_synopsis import build_join_synopsis
from repro.sampling.mv_sample import MVSample, build_mv_sample
from repro.storage.rowcache import SerializedTable
from repro.workload.expr import Predicate

#: Sampling fractions the size-estimation planner may choose between.
DEFAULT_FRACTIONS = (0.01, 0.025, 0.05, 0.075, 0.10)

#: Default base RNG seed (the paper's submission date); sweep seed
#: ablations vary this, so it is named once here.
DEFAULT_SAMPLE_SEED = 20110829


class SampleManager:
    """Caches per-table samples, filtered samples, synopses, MV samples.

    Args:
        database: the database to sample.
        seed: base RNG seed (each (table, fraction) pair derives its own
            deterministic stream).
        min_sample_rows: lower bound on sample size; tiny tables are
            sampled at a higher effective fraction so SampleCF has enough
            rows to pack at least a few pages.
    """

    def __init__(
        self,
        database: Database,
        seed: int = DEFAULT_SAMPLE_SEED,
        min_sample_rows: int = 200,
    ) -> None:
        self.database = database
        self.seed = seed
        self.min_sample_rows = min_sample_rows
        self._samples: dict[tuple[str, float], SerializedTable] = {}
        self._filtered: dict[tuple, SerializedTable] = {}
        self._synopses: dict[tuple[str, float], Table] = {}
        self._mv_samples: dict[tuple, MVSample] = {}
        self._mv_serialized: dict[tuple, SerializedTable] = {}
        #: seconds spent building each artifact category
        self.timings: dict[str, float] = defaultdict(float)
        #: build counters per category
        self.counts: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def _rng(self, *key) -> random.Random:
        """Deterministic per-(purpose, table, fraction) RNG stream.

        Seeded from a *stable* digest of the key's repr — never from
        builtin ``hash()``, whose string hashing is randomized per
        process (PYTHONHASHSEED) and would make every run draw
        different samples.
        """
        material = repr((self.seed,) + tuple(key)).encode()
        return random.Random(zlib.crc32(material))

    def effective_fraction(self, table_name: str, fraction: float) -> float:
        """Raise tiny-table fractions so samples stay usable."""
        table = self.database.table(table_name)
        if table.num_rows == 0:
            return fraction
        needed = self.min_sample_rows / table.num_rows
        return min(1.0, max(fraction, needed))

    # ------------------------------------------------------------------
    def table_sample(self, table_name: str, fraction: float) -> SerializedTable:
        """The (cached) uniform sample of a table at ``fraction``."""
        fraction = self.effective_fraction(table_name, fraction)
        key = (table_name, round(fraction, 6))
        cached = self._samples.get(key)
        if cached is not None:
            return cached
        start = time.perf_counter()
        table = self.database.table(table_name)
        sample = table.sample(fraction, self._rng("table", key))
        serialized = SerializedTable(sample)
        self._samples[key] = serialized
        self.timings["table_sample"] += time.perf_counter() - start
        self.counts["table_sample"] += 1
        return serialized

    # ------------------------------------------------------------------
    def filtered_sample(
        self,
        table_name: str,
        predicates: tuple[Predicate, ...],
        fraction: float,
    ) -> SerializedTable:
        """Filtered sample for a partial index (Appendix B.1): the WHERE
        clause applied to the base table sample."""
        fraction = self.effective_fraction(table_name, fraction)
        key = (table_name, round(fraction, 6), predicates)
        cached = self._filtered.get(key)
        if cached is not None:
            return cached
        base = self.table_sample(table_name, fraction).table
        start = time.perf_counter()
        out = base.empty_clone(f"{table_name}_filtered")
        names = base.column_names
        for raw in base.iter_rows():
            row = dict(zip(names, raw))
            if all(p.evaluate(row) for p in predicates):
                out.append_row(raw)
        serialized = SerializedTable(out)
        self._filtered[key] = serialized
        self.timings["filtered_sample"] += time.perf_counter() - start
        self.counts["filtered_sample"] += 1
        return serialized

    # ------------------------------------------------------------------
    def join_synopsis(self, fact_table: str, fraction: float) -> Table:
        """The (cached) join synopsis rooted at ``fact_table``."""
        fraction = self.effective_fraction(fact_table, fraction)
        key = (fact_table, round(fraction, 6))
        cached = self._synopses.get(key)
        if cached is not None:
            return cached
        fact_sample = self.table_sample(fact_table, fraction).table
        start = time.perf_counter()
        synopsis = build_join_synopsis(self.database, fact_sample, fact_table)
        self._synopses[key] = synopsis
        self.timings["join_synopsis"] += time.perf_counter() - start
        self.counts["join_synopsis"] += 1
        return synopsis

    # ------------------------------------------------------------------
    def mv_sample(self, mv: MVDefinition, fraction: float) -> MVSample:
        """The (cached) MV sample + cardinality estimate (Appendix B.3)."""
        fraction = self.effective_fraction(mv.fact_table, fraction)
        key = (mv, round(fraction, 6))
        cached = self._mv_samples.get(key)
        if cached is not None:
            return cached
        synopsis = self.join_synopsis(mv.fact_table, fraction)
        start = time.perf_counter()
        sample = build_mv_sample(
            self.database, mv, synopsis, synopsis.num_rows, fraction
        )
        self._mv_samples[key] = sample
        self.timings["mv_sample"] += time.perf_counter() - start
        self.counts["mv_sample"] += 1
        return sample

    # ------------------------------------------------------------------
    def sample_for_index(self, index, fraction: float) -> SerializedTable:
        """Route an :class:`~repro.physical.index_def.IndexDef` to the
        (cached) sample SampleCF builds it on: MV sample, filtered
        sample, or plain table sample."""
        if index.is_mv_index:
            mv_sample = self.mv_sample(index.mv, fraction)
            key = (index.mv, round(mv_sample.fraction, 6))
            cached = self._mv_serialized.get(key)
            if cached is None:
                cached = SerializedTable(mv_sample.table)
                self._mv_serialized[key] = cached
            return cached
        if index.is_partial:
            preds = (index.filter,)
            return self.filtered_sample(index.table, preds, fraction)
        return self.table_sample(index.table, fraction)

    def reset_timings(self) -> None:
        self.timings.clear()
        self.counts.clear()
