"""Tests for the bundled dataset generators."""

import bisect
import random

import pytest

from repro.datasets import (
    ZipfSampler,
    sales_database,
    sales_queries,
    tpcds_lite_database,
    tpch_database,
    tpch_workload,
)
from repro.datasets.zipf import randbelow
from repro.errors import ReproError


class PerCallZipfSampler:
    """The sampler before its drawer was bound once, verbatim (argument
    checks aside): the reference the bound drawer must reproduce."""

    def __init__(self, n, z, rng, shuffle=True):
        self.n = n
        self.z = z
        self._rng = rng
        self._perm = list(range(n))
        if shuffle and z > 0:
            self._rng.shuffle(self._perm)
        if z == 0:
            self._cdf = None
        else:
            weights = [1.0 / (i + 1) ** z for i in range(n)]
            total = sum(weights)
            acc = 0.0
            cdf = []
            for w in weights:
                acc += w / total
                cdf.append(acc)
            cdf[-1] = 1.0
            self._cdf = cdf

    def sample(self) -> int:
        if self._cdf is None:
            return self._rng.randrange(self.n)
        u = self._rng.random()
        rank = bisect.bisect_left(self._cdf, u)
        return self._perm[min(rank, self.n - 1)]


class TestZipf:
    def test_uniform_when_z_zero(self):
        rng = random.Random(0)
        s = ZipfSampler(10, 0.0, rng)
        counts = [0] * 10
        for _ in range(10000):
            counts[s.sample()] += 1
        assert max(counts) < 2.0 * min(counts)

    def test_skew_concentrates(self):
        rng = random.Random(0)
        s = ZipfSampler(100, 2.0, rng, shuffle=False)
        counts = {}
        for _ in range(10000):
            v = s.sample()
            counts[v] = counts.get(v, 0) + 1
        assert counts.get(0, 0) > 10 * counts.get(50, 1)

    def test_more_skew_fewer_distinct(self):
        rng = random.Random(1)
        mild = ZipfSampler(1000, 0.5, rng)
        heavy = ZipfSampler(1000, 3.0, rng)
        assert len(set(mild.sample_many(2000))) > len(
            set(heavy.sample_many(2000))
        )

    @pytest.mark.parametrize("z", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("shuffle", [True, False])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_bound_drawer_matches_per_call_sampler(self, z, shuffle, n):
        """Same ranks, and the shared RNG left in the same state: the
        generators thread one RNG through every table, so a sampler that
        consumed one draw more or less would shift every later value."""
        old_rng, new_rng = random.Random(17), random.Random(17)
        old = PerCallZipfSampler(n, z, old_rng, shuffle=shuffle)
        new = ZipfSampler(n, z, new_rng, shuffle=shuffle)
        assert new.sample_many(10_000) == [
            old.sample() for _ in range(10_000)
        ]
        assert new_rng.getstate() == old_rng.getstate()

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 4, 5, 7, 8, 9, 11, 120, 1000, 10000, 1099998]
    )
    def test_randbelow_matches_randrange_and_choice(self, n):
        old_rng, new_rng = random.Random(n), random.Random(n)
        below = randbelow(new_rng)
        seq = list(range(n)) if n <= 10000 else None
        for _ in range(2000):
            assert below(n) == old_rng.randrange(n)
            assert below(n + 5) - 99 == old_rng.randrange(-99, n - 94)
            if seq is not None:
                assert seq[below(len(seq))] == old_rng.choice(seq)
        assert new_rng.getstate() == old_rng.getstate()

    def test_invalid_params(self):
        with pytest.raises(ReproError):
            ZipfSampler(0, 1.0, random.Random(0))
        with pytest.raises(ReproError):
            ZipfSampler(10, -1.0, random.Random(0))


class TestTPCH:
    def test_deterministic(self):
        a = tpch_database(scale=0.02)
        b = tpch_database(scale=0.02)
        assert a.table("lineitem").rows()[:50] == \
            b.table("lineitem").rows()[:50]

    def test_scaling(self):
        small = tpch_database(scale=0.02)
        large = tpch_database(scale=0.1)
        assert (
            large.table("lineitem").num_rows
            > small.table("lineitem").num_rows
        )

    def test_fk_integrity(self, tiny_tpch):
        orders = set(tiny_tpch.table("orders").column_values("o_orderkey"))
        for v in tiny_tpch.table("lineitem").column_values("l_orderkey"):
            assert v in orders

    def test_fk_closure_from_lineitem(self, tiny_tpch):
        closure = tiny_tpch.foreign_key_closure("lineitem")
        dst = {fk.dst_table for fk in closure}
        assert {"orders", "customer", "nation", "region", "part",
                "supplier"} <= dst

    def test_dates_in_domain(self, tiny_tpch):
        from repro.workload import date_to_days

        lo = date_to_days("1992-01-01")
        hi = date_to_days("1998-12-31")
        for v in tiny_tpch.table("lineitem").column_values("l_shipdate"):
            assert lo <= v <= hi

    def test_skew_changes_distribution(self):
        flat = tpch_database(scale=0.02, z=0.0)
        skew = tpch_database(scale=0.02, z=3.0)
        flat_parts = flat.table("lineitem").column_values("l_partkey")
        skew_parts = skew.table("lineitem").column_values("l_partkey")
        assert len(set(skew_parts)) < len(set(flat_parts))

    def test_workload_weights(self, tiny_tpch):
        wl = tpch_workload(tiny_tpch, select_weight=7.0, insert_weight=3.0)
        assert all(ws.weight == 7.0 for ws in wl.queries)
        assert all(ws.weight == 3.0 for ws in wl.updates)

    def test_bulk_sizes(self, tiny_tpch):
        wl = tpch_workload(tiny_tpch, bulk_fraction=0.2)
        bulk = {ws.name: ws.statement.n_rows for ws in wl.updates}
        assert bulk["BULK_LINEITEM"] == int(
            tiny_tpch.table("lineitem").num_rows * 0.2
        )


class TestSales:
    def test_structure(self):
        db = sales_database(scale=0.05)
        assert set(db.table_names) == {
            "stores", "products", "customers", "sales"
        }
        assert len(db.foreign_keys) == 3

    def test_50_queries(self):
        names = [n for n, _ in sales_queries()]
        assert len(names) == 50
        assert len(set(names)) == 50

    def test_fk_integrity(self):
        db = sales_database(scale=0.05)
        stores = set(db.table("stores").column_values("st_storekey"))
        for v in db.table("sales").column_values("sa_storekey"):
            assert v in stores

    def test_total_consistency(self):
        db = sales_database(scale=0.05)
        sales = db.table("sales")
        for row in list(sales.iter_rows(
            ("sa_quantity", "sa_unitprice", "sa_discount", "sa_total")
        ))[:100]:
            qty, price, disc, total = row
            assert total == qty * price * (100 - disc) // 100


class TestTPCDSLite:
    def test_structure(self):
        db = tpcds_lite_database(scale=0.05)
        assert set(db.table_names) == {
            "item", "date_dim", "customer", "store_sales"
        }

    def test_fk_integrity(self):
        db = tpcds_lite_database(scale=0.05)
        items = set(db.table("item").column_values("i_item_sk"))
        for v in db.table("store_sales").column_values("ss_item_sk"):
            assert v in items
