"""Benchmark: regenerate Figure 13 (TPC-H INSERT ablation)."""

from conftest import run_and_print

from repro.experiments import experiment


def test_fig13_tpch_insert_ablation(benchmark, bench_scale):
    result = run_and_print(benchmark, experiment("fig13_tpch_insert_ablation"),
                           scale=bench_scale)
    both = result.column("dtac-both")
    dta = result.column("dta")
    assert all(b >= d - 1e-6 for b, d in zip(both, dta))
    # Paper shape: INSERT-intensive improvements < SELECT-intensive ones.
    select = experiment("fig12_tpch_select_ablation")(scale=bench_scale)
    assert max(both) <= max(select.column("dtac-both")) + 5.0
