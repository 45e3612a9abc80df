"""Regression tests for the what-if cost cache signature — in-memory
and persistent.

The cache key must distinguish hypothetical configurations that differ
*only* in compression method — aliasing them would let e.g. a PAGE
variant replay a NONE variant's cached cost, silently hiding the
decompression CPU and compressed-size I/O differences the whole paper
is about.  The persistent :class:`CostCache` layer must uphold the same
guarantee across processes, and additionally key on each structure's
estimated size so an entry can never be replayed against different
estimates.  Also covers the batched costing APIs.
"""

import pytest

from repro.compression import CompressionMethod
from repro.optimizer import WhatIfOptimizer
from repro.parallel import CostCache
from repro.physical import Configuration, IndexDef
from repro.storage import IndexKind
from repro.workload import parse_query


@pytest.fixture()
def query():
    q = parse_query(
        "SELECT f_qty FROM fact WHERE f_cat = 'CAT_3'"
    )
    return q


@pytest.fixture()
def whatif(small_db, small_stats):
    # Wire sizes that shrink with compression so method changes move
    # both I/O and CPU terms.
    fractions = {
        CompressionMethod.NONE: 1.0,
        CompressionMethod.ROW: 0.6,
        CompressionMethod.PAGE: 0.35,
    }

    def sizes(index):
        rows = small_db.table(index.table).num_rows
        width = 8 * max(1, len(index.column_sequence))
        return (rows * width * fractions[index.method], float(rows))

    return WhatIfOptimizer(small_db, small_stats, sizes=sizes)


def _base(db):
    return Configuration(
        IndexDef(t.name, (), kind=IndexKind.HEAP) for t in db.tables
    )


class TestMethodNeverAliases:
    def test_distinct_cache_entries_per_method(self, small_db, whatif, query):
        base = _base(small_db)
        configs = [
            base.add(
                IndexDef(
                    "fact", ("f_cat",), included_columns=("f_qty",),
                    method=method,
                )
            )
            for method in (CompressionMethod.NONE, CompressionMethod.ROW,
                           CompressionMethod.PAGE)
        ]
        signatures = {whatif._signature(query, c) for c in configs}
        assert len(signatures) == len(configs)

        costs = [whatif.cost(query, c).total for c in configs]
        # One fresh computation (and one fresh entry) per method.
        assert whatif.optimizer_calls == len(configs)
        assert whatif.cache_entries == len(configs)
        # Covering-index scan: smaller compressed footprint, extra
        # decompression CPU — the totals must genuinely differ.
        assert len(set(costs)) == len(costs)

    def test_base_structure_method_not_aliased(self, small_db, whatif, query):
        heap = IndexDef("fact", (), kind=IndexKind.HEAP)
        for method in (CompressionMethod.NONE, CompressionMethod.ROW,
                       CompressionMethod.PAGE):
            whatif.cost(query, _base(small_db).add(heap.with_method(method)))
        assert whatif.optimizer_calls == 3

    def test_repeat_lookup_hits(self, small_db, whatif, query):
        config = _base(small_db).add(
            IndexDef("fact", ("f_cat",), method=CompressionMethod.PAGE)
        )
        first = whatif.cost(query, config)
        again = whatif.cost(query, config)
        assert again is first
        assert whatif.optimizer_calls == 1


def _method_config(db, method):
    return _base(db).add(
        IndexDef(
            "fact", ("f_cat",), included_columns=("f_qty",), method=method,
        )
    )


def _sized_whatif(small_db, small_stats, cost_cache):
    """A WhatIfOptimizer with method-sensitive sizes and a persistent
    cost cache under a fixed context fingerprint."""
    fractions = {
        CompressionMethod.NONE: 1.0,
        CompressionMethod.ROW: 0.6,
        CompressionMethod.PAGE: 0.35,
    }

    def sizes(index):
        rows = small_db.table(index.table).num_rows
        width = 8 * max(1, len(index.column_sequence))
        return (rows * width * fractions[index.method], float(rows))

    return WhatIfOptimizer(
        small_db, small_stats, sizes=sizes,
        cost_cache=cost_cache, cost_context="test-ctx",
    )


class TestPersistentLayerNeverAliases:
    """The satellite guarantee: two runs with different compression
    methods but identical index sets never share a persisted entry."""

    def test_key_distinguishes_method_sizes_and_context(self, query):
        row = IndexDef("fact", ("f_cat",), method=CompressionMethod.ROW)
        page = row.with_method(CompressionMethod.PAGE)
        keys = {
            CostCache.key(query, [(row, 100.0, 10.0)], "ctx"),
            # same structure shape, different method
            CostCache.key(query, [(page, 100.0, 10.0)], "ctx"),
            # same index, different estimated size (e.g. another seed)
            CostCache.key(query, [(row, 200.0, 10.0)], "ctx"),
            CostCache.key(query, [(row, 100.0, 20.0)], "ctx"),
            # same everything, different run context
            CostCache.key(query, [(row, 100.0, 10.0)], "ctx2"),
        }
        assert len(keys) == 5

    def test_method_never_aliases_across_processes(
        self, small_db, small_stats, query, tmp_path
    ):
        first = _sized_whatif(
            small_db, small_stats, CostCache(tmp_path)
        )
        row_cost = first.cost(
            query, _method_config(small_db, CompressionMethod.ROW)
        ).total
        first.cost_cache.save()

        # A second sweep (fresh process simulated by fresh objects) with
        # the same index set but PAGE compression: must *miss* and
        # recompute, never replay the ROW entry.
        second = _sized_whatif(
            small_db, small_stats, CostCache(tmp_path)
        )
        page_cost = second.cost(
            query, _method_config(small_db, CompressionMethod.PAGE)
        ).total
        assert second.cost_cache.hits == 0
        assert second.cost_cache.misses == 1
        assert second.optimizer_calls == 1
        assert page_cost != row_cost

    def test_identical_request_replays_exactly(
        self, small_db, small_stats, query, tmp_path
    ):
        config = _method_config(small_db, CompressionMethod.PAGE)
        first = _sized_whatif(small_db, small_stats, CostCache(tmp_path))
        computed = first.cost(query, config)
        first.cost_cache.save()

        warm = _sized_whatif(small_db, small_stats, CostCache(tmp_path))
        replayed = warm.cost(query, config)
        assert warm.cost_cache.hits == 1
        assert warm.optimizer_calls == 0
        assert replayed.total == computed.total
        assert replayed.io == computed.io
        assert replayed.cpu == computed.cpu
        assert replayed.used_mv == computed.used_mv

    def test_size_change_invalidates_entry(
        self, small_db, small_stats, query, tmp_path
    ):
        config = _method_config(small_db, CompressionMethod.PAGE)
        first = _sized_whatif(small_db, small_stats, CostCache(tmp_path))
        first.cost(query, config)
        first.cost_cache.save()

        # Same structures, same context string, but the size lookup now
        # returns different estimates: the sized keys diverge, so the
        # stale cost can never be replayed.
        warm = _sized_whatif(small_db, small_stats, CostCache(tmp_path))
        original_sizes = warm._sizes
        warm._sizes = lambda ix: tuple(v * 2 for v in original_sizes(ix))
        warm.cost(query, config)
        assert warm.cost_cache.hits == 0
        assert warm.optimizer_calls == 1
