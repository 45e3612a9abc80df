"""Benchmark: regenerate Figure 17 (TPC-H INSERT, all features)."""

from conftest import run_and_print

from repro.experiments import experiment


def test_fig17_tpch_insert_full(benchmark, bench_scale):
    result = run_and_print(benchmark, experiment("fig17_tpch_insert_full"),
                           scale=bench_scale)
    both = result.column("dtac-both")
    dta = result.column("dta")
    assert all(b >= d - 1e-6 for b, d in zip(both, dta))
    # Paper shape: the DTAc/DTA gap narrows as budgets grow (compressed
    # structures are expensive to maintain under heavy bulk loads).
    gaps = [b - d for b, d in zip(both, dta)]
    assert gaps[-1] <= max(gaps) + 1e-6
