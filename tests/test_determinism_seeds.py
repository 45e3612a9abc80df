"""CI-friendly determinism: samples, Zipf draws and derived advisor
state must be identical run-to-run, independent of PYTHONHASHSEED.

The sampling layer used to seed its per-(table, fraction) RNG streams
from builtin ``hash()``, whose string hashing is randomized per
process — every run drew different samples, so compression-fraction
estimates (and benchmark JSON) wobbled.  These tests pin the fix by
comparing digests across subprocesses with *different* hash seeds.
"""

import hashlib

import pytest

from repro.datasets.zipf import ZipfSampler
from repro.errors import ReproError


_SAMPLE_DIGEST_SCRIPT = """
import hashlib
from repro.datasets import sales_database
from repro.sampling import SampleManager

db = sales_database(scale=0.03)
manager = SampleManager(db, seed=77)
h = hashlib.sha256()
for table in ("sales", "products"):
    for fraction in (0.05, 0.1):
        sample = manager.table_sample(table, fraction).table
        for row in sample.iter_rows():
            h.update(repr(row).encode())
print(h.hexdigest())
"""

_ZIPF_DIGEST_SCRIPT = """
from repro.datasets.zipf import ZipfSampler
print(ZipfSampler(1000, 1.2, seed=5).sample_many(500))
"""

_TIED_PARTIAL_INDEXES_SCRIPT = """
from repro.datasets.sales import sales_database
from repro.optimizer.whatif import WhatIfOptimizer
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.storage.index_build import IndexKind
from repro.workload.parser import parse_statement

db = sales_database(scale=0.03)
query = parse_statement(
    "SELECT sa_total FROM sales WHERE sa_promo = 'HOLIDAY' "
    "AND sa_status = 'R' AND sa_quantity = 3 AND sa_discount = 5"
)
columns = ("sa_total", "sa_promo", "sa_status", "sa_quantity", "sa_discount")
twins = [
    IndexDef("sales", ("sa_channel",), included_columns=columns, filter=p)
    for p in query.predicates_of_table(db, "sales")
]
assert len({ix.display_name() for ix in twins}) == 1 < len(twins)
config = Configuration(
    [IndexDef("sales", (), kind=IndexKind.HEAP), *twins]
)
whatif = WhatIfOptimizer(
    db, sizes=lambda ix: (4e5 if ix.filter is not None else 4e6, 5000.0)
)
breakdown = whatif.cost(query, config)
print(repr((
    [repr(ix.filter) for ix in config.indexes_on("sales")],
    repr(breakdown.plans[0].index.filter), breakdown.total,
)))
"""


class TestHashseedIndependence:
    def test_samples_stable_across_hashseeds(self, run_with_hashseed):
        a = run_with_hashseed(_SAMPLE_DIGEST_SCRIPT, "1")
        b = run_with_hashseed(_SAMPLE_DIGEST_SCRIPT, "31337")
        assert a == b

    def test_zipf_stable_across_hashseeds(self, run_with_hashseed):
        a = run_with_hashseed(_ZIPF_DIGEST_SCRIPT, "2")
        b = run_with_hashseed(_ZIPF_DIGEST_SCRIPT, "777")
        assert a == b

    def test_same_named_structures_order_by_content(
        self, run_with_hashseed
    ):
        """Partial indexes on the same keys with different filters
        share a display name; sized equal, their covering plans tie to
        the bit, so the optimizer's first-minimum order decides which
        one (and which row estimate) a statement gets.  That order must
        come from their content, not from set iteration."""
        runs = {
            run_with_hashseed(_TIED_PARTIAL_INDEXES_SCRIPT, seed)
            for seed in ("3", "4", "4242")
        }
        assert len(runs) == 1


class TestSeedEntryPoints:
    def test_zipf_explicit_seed_reproduces(self):
        first = ZipfSampler(100, 0.9, seed=42).sample_many(200)
        second = ZipfSampler(100, 0.9, seed=42).sample_many(200)
        assert first == second
        other = ZipfSampler(100, 0.9, seed=43).sample_many(200)
        assert first != other

    def test_zipf_default_seed_is_stable(self):
        assert (
            ZipfSampler(50, 1.0).sample_many(50)
            == ZipfSampler(50, 1.0).sample_many(50)
        )

    def test_zipf_rejects_rng_and_seed_together(self):
        import random

        with pytest.raises(ReproError):
            ZipfSampler(10, 0.5, rng=random.Random(1), seed=2)

    def test_sample_manager_seed_streams_are_stable(self, small_db):
        from repro.sampling import SampleManager

        def digest(manager):
            h = hashlib.sha256()
            for row in manager.table_sample("fact", 0.05).table.iter_rows():
                h.update(repr(row).encode())
            return h.hexdigest()

        assert digest(SampleManager(small_db, seed=9)) == digest(
            SampleManager(small_db, seed=9)
        )
        assert digest(SampleManager(small_db, seed=9)) != digest(
            SampleManager(small_db, seed=10)
        )
