"""Smoke tests: CLI subcommands and fast experiments at tiny scale."""

import re

import pytest

from repro.cli import main
from repro.experiments import ExperimentResult


class TestCLI:
    def test_tune(self, capsys):
        assert main([
            "tune", "--dataset", "tpch", "--scale", "0.03",
            "--budget", "0.2", "--variant", "dtac-both",
        ]) == 0
        out = capsys.readouterr().out
        assert "improvement" in out

    def test_sweep(self, capsys, tmp_path):
        argv = [
            "sweep", "--dataset", "sales", "--scale", "0.02",
            "--budgets", "0.1,0.2", "--variant", "dtac-none",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert "what-if cost cache" in out
        # Warm rerun through the same cache directory: its searches
        # read what the cold ones costed from the cost memo's file.
        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "100.0% hit rate" in warm_out

        def memo_reads(text):
            return int(re.search(
                r"^delta costing: .* (\d+) costings read from the memo",
                text, re.M,
            ).group(1))

        assert memo_reads(warm_out) > memo_reads(out)

    def test_tune_delta_and_full_recost_both_print_cleanly(self, capsys):
        """The stats summary must not assume delta counters exist: the
        delta run prints the delta line, --full-recost prints its own
        line, and both report the costing kernel and the same answer."""
        base = [
            "tune", "--dataset", "sales", "--scale", "0.03",
            "--budget", "0.2", "--variant", "dtac-both",
        ]
        assert main(base) == 0
        delta_out = capsys.readouterr().out
        assert "delta costing:" in delta_out
        assert "costings read from the memo" in delta_out
        assert "costing kernel:" in delta_out
        assert "memoized shapes" in delta_out

        assert main(base + ["--full-recost"]) == 0
        full_out = capsys.readouterr().out
        assert "full recost:" in full_out
        assert "delta costing off" in full_out
        assert "delta costing:" not in full_out

        def answer(out):
            lines = []
            for line in out.splitlines():
                if line.startswith("improvement"):
                    # Drop the trailing wall-clock field; everything
                    # else (costs, bytes) must match exactly.
                    lines.append(line.rsplit(", ", 1)[0])
                elif line.startswith("  "):
                    lines.append(line)
            return lines

        assert answer(delta_out) == answer(full_out)

    def test_tune_has_no_kernel_flag(self):
        with pytest.raises(SystemExit):
            main(["tune", "--kernel", "python"])

    def test_sweep_rejects_bad_budget_list(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--budgets", "abc"])

    @pytest.mark.parametrize("argv", [
        ["tune", "--budget", "nan"],
        ["retune", "--budget", "-0.1"],
        ["validate", "--budget", "inf"],
        ["columnstore", "--budget", "nan"],
        ["jobs", "submit", "--budget", "nan"],
        ["sweep", "--budgets", "0.1,nan"],
        ["jobs", "submit", "--budgets", "0.1,-1"],
        ["retune", "--update-weights", "1,nan"],
        ["retune", "--phases", "0"],
        ["retune", "--phases", "-1"],
        ["retune", "--phases", "1.5"],
        ["sweep", "--seeds", "1,x"],
        # An empty path is the working directory, never a cache.
        ["tune", "--cache-dir", ""],
        ["estimate", "--cache-dir", ""],
        ["serve", "--cache-dir", ""],
        ["serve", "--max-pending", "0"],
        ["serve", "--max-context-workers", "0"],
        ["serve", "--tenant-quota", "0"],
        ["serve", "--tenant-quota", "-3"],
        ["serve", "--poll-interval", "0"],
        ["serve", "--poll-interval", "-1"],
        ["serve", "--poll-interval", "nan"],
        ["serve", "--poll-interval", "inf"],
        ["serve", "--port", "65536"],
        ["serve", "--port", "-1"],
    ], ids=lambda argv: " ".join(argv))
    def test_a_bad_number_is_a_usage_error_naming_its_flag(
        self, capsys, argv
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_estimate(self, capsys):
        assert main([
            "estimate", "--dataset", "tpch", "--scale", "0.03",
        ]) == 0
        out = capsys.readouterr().out
        assert "samplecf" in out or "col" in out

    def test_experiments_single(self, capsys):
        assert main([
            "experiments", "--only", "table4_graph_quality",
            "--scale", "0.05",
        ]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_bad_variant_rejected(self):
        with pytest.raises(SystemExit):
            main(["tune", "--variant", "bogus"])

    def test_validate(self, capsys):
        assert main([
            "validate", "--dataset", "tpch", "--scale", "0.03",
            "--budget", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        assert "deployed improvement" in out
        assert "budget respected" in out

    def test_validate_prints_the_same_bytes_twice(self, capsys,
                                                   monkeypatch):
        """Size checks with equal errors print in name order, whatever
        order the configuration hands them over in: the second run gets
        its checks reversed and must print the same bytes."""
        import repro.engine

        validate = repro.engine.validate_recommendation
        runs = []

        def handed_over(*args, **kwargs):
            report = validate(*args, **kwargs)
            if runs:
                report.size_checks.reverse()
            runs.append(report)
            return report

        monkeypatch.setattr(repro.engine, "validate_recommendation",
                            handed_over)
        argv = ["validate", "--dataset", "sales", "--scale", "0.02",
                "--budget", "0.2"]
        outs = []
        for _ in range(2):
            main(argv)
            outs.append(capsys.readouterr().out)
        errors = [abs(c.ratio_error) for c in runs[0].size_checks]
        assert len(errors) > len(set(errors))  # the run has ties
        assert outs[0] == outs[1]

    def test_columnstore(self, capsys):
        assert main([
            "columnstore", "--dataset", "tpch", "--scale", "0.03",
            "--budget", "0.25",
        ]) == 0
        out = capsys.readouterr().out
        assert "column-store advisor (compression-aware)" in out
        assert "proj_" in out

    def test_columnstore_blind(self, capsys):
        assert main([
            "columnstore", "--dataset", "tpch", "--scale", "0.03",
            "--budget", "0.25", "--blind",
        ]) == 0
        assert "blind" in capsys.readouterr().out


class TestExperimentResult:
    def test_format_and_column(self):
        r = ExperimentResult("T", ("a", "b"), rows=[(1, 2.5), (3, 4.0)],
                             notes=["hello"])
        text = r.format()
        assert "T" in text and "hello" in text
        assert r.column("a") == [1, 3]

    def test_unknown_column(self):
        r = ExperimentResult("T", ("a",))
        with pytest.raises(ValueError):
            r.column("zz")


class TestFastExperiments:
    """Tiny-scale runs of the lighter experiments: the assertion is that
    they complete and keep their qualitative shape."""

    def test_table1(self):
        from repro.experiments import table1_mv_rowcount

        r = table1_mv_rowcount.run(scale=0.05)
        errs = dict(zip(r.column("Estimator"), r.column("AvgError%")))
        assert errs["AE"] < errs["Multiply"]

    def test_cs1(self):
        from repro.experiments import cs1_sort_order

        r = cs1_sort_order.run(scale=0.05)
        factors = r.column("x-smaller-lead")
        # Low-cardinality sort leader collapses far more than the
        # near-unique one.
        assert factors[0] > 10.0 * factors[-1]

    def test_vl1_single_budget(self):
        from repro.engine import validate_recommendation
        from repro.api import tune
        from repro.datasets import tpch_workload
        from repro.experiments.common import get_tpch

        db = get_tpch(0.05)
        wl = tpch_workload(db, select_weight=5.0, insert_weight=1.0)
        rec = tune(db, wl, db.total_data_bytes() * 0.2)
        report = validate_recommendation(rec, db, wl)
        assert report.recommendation_holds

    def test_table4(self):
        from repro.experiments import table4_graph_quality

        r = table4_graph_quality.run(scale=0.05)
        for row in r.rows:
            assert row[3] <= row[1] + 1e-9  # Optimal <= All

    def test_fig09(self):
        from repro.experiments import fig09_samplecf_error

        r = fig09_samplecf_error.run(scale=0.05)
        assert len(r.rows) == 4

    def test_budget_sweep_runs(self, tiny_tpch):
        from repro.datasets import tpch_workload
        from repro.experiments.budget_sweep import sweep

        wl = tpch_workload(tiny_tpch, 5.0, 1.0)
        r = sweep("mini", tiny_tpch, wl, (0.1,), ("dta", "dtac-both"))
        assert len(r.rows) == 1
        both = r.column("dtac-both")[0]
        dta = r.column("dta")[0]
        assert both >= dta - 1e-6

    def test_budget_sweep_rejects_unknown_variant(self, tiny_tpch):
        from repro.datasets import tpch_workload
        from repro.experiments.budget_sweep import sweep
        from repro.errors import AdvisorError

        wl = tpch_workload(tiny_tpch, 1.0, 1.0)
        with pytest.raises(AdvisorError):
            sweep("x", tiny_tpch, wl, (0.1,), ("bogus",))
