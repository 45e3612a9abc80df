"""Tests for the persistent EstimationCache: content-addressed keys
(compression method can never alias), persistence round-trips, and
invalidation when the sample fingerprint changes.  The append log's
rules (a save writes its new lines only, a torn last line loses only
itself, a corrupt or older file loads nothing and is started over, two
forked writers both land) are ``tests/test_append_log.py``'s."""

import pytest

from repro.compression import CompressionMethod
from repro.parallel import CostCache, EstimationCache, index_signature, sample_fingerprint
from repro.parallel.cache import CostMemoFile, SelectionFile
from repro.physical import IndexDef
from repro.sizeest import SizeEstimator
from repro.sizeest.samplecf import SizeEstimate
from repro.sizeest.error_model import ErrorRV


def _estimate_for(index):
    return SizeEstimate(
        index=index,
        est_bytes=12345.0,
        compression_fraction=0.4,
        source="samplecf",
        error=ErrorRV(mean=1.01, var=0.002),
        cost=17.0,
        fraction=0.05,
    )


class TestKeys:
    def test_method_never_aliases(self):
        row = IndexDef("fact", ("f_cat",), method=CompressionMethod.ROW)
        page = row.with_method(CompressionMethod.PAGE)
        assert index_signature(row) != index_signature(page)
        assert (
            EstimationCache.key(row, "fp", 0.5, 0.9)
            != EstimationCache.key(page, "fp", 0.5, 0.9)
        )
        cache = EstimationCache()
        cache.put(row, "fp", 0.5, 0.9, _estimate_for(row))
        assert cache.get(page, "fp", 0.5, 0.9) is None
        got = cache.get(row, "fp", 0.5, 0.9)
        assert got is not None and got.index is row

    def test_fingerprint_and_accuracy_partition_entries(self):
        ix = IndexDef("fact", ("f_cat",), method=CompressionMethod.PAGE)
        cache = EstimationCache()
        cache.put(ix, "fp-a", 0.5, 0.9, _estimate_for(ix))
        assert cache.get(ix, "fp-b", 0.5, 0.9) is None
        assert cache.get(ix, "fp-a", 0.25, 0.9) is None
        assert cache.get(ix, "fp-a", 0.5, 0.9) is not None


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ix = IndexDef("fact", ("f_qty",), method=CompressionMethod.ROW)
        est = _estimate_for(ix)
        first = EstimationCache(tmp_path)
        first.put(ix, "fp", 0.5, 0.9, est)
        first.save()

        second = EstimationCache(tmp_path)
        got = second.get(ix, "fp", 0.5, 0.9)
        assert got is not None
        assert got.est_bytes == est.est_bytes
        assert got.compression_fraction == est.compression_fraction
        assert got.source == est.source
        assert got.error == est.error
        assert got.cost == est.cost
        assert got.fraction == est.fraction
        assert second.stats()["entries"] == 1

    def test_save_merges_concurrent_writers(self, tmp_path):
        a = IndexDef("fact", ("f_qty",), method=CompressionMethod.ROW)
        b = IndexDef("fact", ("f_cat",), method=CompressionMethod.PAGE)
        writer_a = EstimationCache(tmp_path)
        writer_b = EstimationCache(tmp_path)
        writer_a.put(a, "fp", 0.5, 0.9, _estimate_for(a))
        writer_b.put(b, "fp", 0.5, 0.9, _estimate_for(b))
        writer_a.save()
        writer_b.save()
        merged = EstimationCache(tmp_path)
        assert merged.get(a, "fp", 0.5, 0.9) is not None
        assert merged.get(b, "fp", 0.5, 0.9) is not None

    def test_file_path_rejected_up_front(self, tmp_path):
        from repro.errors import ReproError

        not_a_dir = tmp_path / "plain-file"
        not_a_dir.write_text("")
        with pytest.raises(ReproError, match="not a directory"):
            EstimationCache(not_a_dir)

    @pytest.mark.parametrize("open_store", [
        EstimationCache, CostCache,
        lambda path: CostMemoFile(path, "ctx", [], {}),
        lambda path: SelectionFile(path, "ctx", [], (), []),
    ], ids=["estimates", "costs", "memo", "selection"])
    def test_an_empty_path_is_rejected_up_front(self, open_store,
                                                tmp_path, monkeypatch):
        # Path("") is the working directory, which nobody names by
        # leaving a path empty.
        from repro.errors import ReproError

        monkeypatch.chdir(tmp_path)
        with pytest.raises(ReproError, match="non-empty path"):
            open_store("")


class TestForkView:
    """Snapshot views: what sweep units see, regardless of which
    process they run in."""

    def test_view_sees_snapshot_not_sibling_stores(self, tmp_path):
        a = IndexDef("fact", ("f_qty",), method=CompressionMethod.ROW)
        b = IndexDef("fact", ("f_cat",), method=CompressionMethod.PAGE)
        base = EstimationCache(tmp_path)
        base.put(a, "fp", 0.5, 0.9, _estimate_for(a))

        view1 = base.fork_view()
        view2 = base.fork_view()
        assert view1.get(a, "fp", 0.5, 0.9) is not None

        # A sibling's fresh store stays invisible to this view (and to
        # the base), even after the sibling persists it.
        view1.put(b, "fp", 0.5, 0.9, _estimate_for(b))
        view1.save()
        assert view2.get(b, "fp", 0.5, 0.9) is None
        assert base.get(b, "fp", 0.5, 0.9) is None

        # ... but the persisted file has it for the *next* sweep (the
        # view's save also carries the snapshot it inherited — entries
        # are immutable, so persisting them early is harmless).
        fresh = EstimationCache(tmp_path)
        assert fresh.get(b, "fp", 0.5, 0.9) is not None
        assert fresh.get(a, "fp", 0.5, 0.9) is not None

    def test_view_saves_merge(self, tmp_path):
        a = IndexDef("fact", ("f_qty",), method=CompressionMethod.ROW)
        b = IndexDef("fact", ("f_cat",), method=CompressionMethod.PAGE)
        base = EstimationCache(tmp_path)
        view1, view2 = base.fork_view(), base.fork_view()
        view1.put(a, "fp", 0.5, 0.9, _estimate_for(a))
        view2.put(b, "fp", 0.5, 0.9, _estimate_for(b))
        view1.save()
        view2.save()
        merged = EstimationCache(tmp_path)
        assert merged.get(a, "fp", 0.5, 0.9) is not None
        assert merged.get(b, "fp", 0.5, 0.9) is not None

    def test_view_counters_start_fresh(self, tmp_path):
        a = IndexDef("fact", ("f_qty",), method=CompressionMethod.ROW)
        base = EstimationCache(tmp_path)
        base.put(a, "fp", 0.5, 0.9, _estimate_for(a))
        base.get(a, "fp", 0.5, 0.9)
        view = base.fork_view()
        assert (view.hits, view.misses, view.stores) == (0, 0, 0)
        assert len(view) == len(base)


class TestEstimatorIntegration:
    @pytest.fixture()
    def targets(self):
        return [
            IndexDef("fact", ("f_cat",), method=CompressionMethod.ROW),
            IndexDef("fact", ("f_cat",), method=CompressionMethod.PAGE),
            IndexDef("fact", ("f_qty", "f_cat"),
                     method=CompressionMethod.PAGE),
        ]

    def test_second_run_hits_and_reproduces(self, small_db, tmp_path, targets):
        cold = SizeEstimator(small_db, cache=EstimationCache(tmp_path))
        cold_est = cold.estimate_many(targets)
        assert cold.cache.hits == 0
        assert cold.cache.stores == len(targets)

        warm = SizeEstimator(small_db, cache=EstimationCache(tmp_path))
        warm_est = warm.estimate_many(targets)
        assert warm.cache.hits == len(targets)
        assert warm.cache.misses == 0
        assert warm.cache.hit_rate == 1.0
        for ix in targets:
            assert warm_est[ix].est_bytes == cold_est[ix].est_bytes
            assert warm_est[ix].error == cold_est[ix].error

    def test_data_change_invalidates(self, small_db, tmp_path, targets):
        cold = SizeEstimator(small_db, cache=EstimationCache(tmp_path))
        cold.estimate_many(targets)

        # Same schema, one appended row: the sample fingerprint moves,
        # so every persisted estimate misses.
        import copy

        changed = copy.deepcopy(small_db)
        fact = changed.table("fact")
        fact.append_row((99999, 0, "CAT_0", 1, 10, 1))
        fresh = SizeEstimator(changed, cache=EstimationCache(tmp_path))
        assert fresh.sample_fingerprint != cold.sample_fingerprint
        fresh.estimate_many(targets)
        assert fresh.cache.hits == 0
        assert fresh.cache.misses == len(targets)

    def test_seed_change_invalidates(self, small_db):
        from repro.sampling import SampleManager

        fp_a = sample_fingerprint(SampleManager(small_db, seed=1))
        fp_b = sample_fingerprint(SampleManager(small_db, seed=2))
        assert fp_a != fp_b

    def test_uncompressed_indexes_never_persisted(self, small_db, tmp_path):
        est = SizeEstimator(small_db, cache=EstimationCache(tmp_path))
        est.estimate_many([IndexDef("fact", ("f_cat",))])
        assert est.cache.stores == 0
        assert est.cache.lookups == 0
