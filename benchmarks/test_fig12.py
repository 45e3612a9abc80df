"""Benchmark: regenerate Figure 12 (TPC-H SELECT ablation)."""

from conftest import run_and_print

from repro.experiments import experiment


def test_fig12_tpch_select_ablation(benchmark, bench_scale):
    result = run_and_print(benchmark, experiment("fig12_tpch_select_ablation"),
                           scale=bench_scale)
    both = result.column("dtac-both")
    dta = result.column("dta")
    # Paper shape: DTAc(Both) dominates DTA at every budget; the gap is
    # largest at the tightest budgets.
    assert all(b >= d - 1e-6 for b, d in zip(both, dta))
    assert both[0] - dta[0] >= both[-1] - dta[-1] - 5.0
