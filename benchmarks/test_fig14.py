"""Benchmark: regenerate Figure 14 (Sales SELECT intensive)."""

from conftest import run_and_print

from repro.experiments import experiment


def test_fig14_sales_select(benchmark, bench_scale):
    result = run_and_print(benchmark, experiment("fig14_sales_select"),
                           scale=bench_scale)
    both = result.column("dtac-both")
    dta = result.column("dta")
    # Paper shape: DTAc >= DTA everywhere, and DTAc produces a useful
    # design even at the 0% budget (by compressing base tables).
    assert all(b >= d - 1e-6 for b, d in zip(both, dta))
    assert both[0] > 10.0
