"""Benchmark: regenerate Figure 16 (TPC-H SELECT, all features)."""

from conftest import run_and_print

from repro.experiments import experiment


def test_fig16_tpch_select_full(benchmark, bench_scale):
    result = run_and_print(benchmark, experiment("fig16_tpch_select_full"),
                           scale=bench_scale)
    both = result.column("dtac-both")
    dta = result.column("dta")
    assert all(b >= d - 1e-6 for b, d in zip(both, dta))
