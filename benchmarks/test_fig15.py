"""Benchmark: regenerate Figure 15 (Sales INSERT intensive)."""

from conftest import run_and_print

from repro.experiments import experiment


def test_fig15_sales_insert(benchmark, bench_scale):
    result = run_and_print(benchmark, experiment("fig15_sales_insert"),
                           scale=bench_scale)
    both = result.column("dtac-both")
    dta = result.column("dta")
    assert all(b >= d - 1e-6 for b, d in zip(both, dta))
    # Paper shape: INSERT-intensive improvements are smaller than the
    # SELECT-intensive ones.
    select = experiment("fig14_sales_select")(scale=bench_scale)
    assert max(both) <= max(select.column("dtac-both")) + 5.0
