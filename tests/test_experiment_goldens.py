"""Golden tables of the paper's experiments.

Each file under ``tests/golden/experiments/`` is the printed table
(``ExperimentResult.format()``) of one experiment at a tiny scale.
Refactors of how the experiments reach the library — advisor runs
through a ``Session``, error analyses through one ``ErrorLab`` — must
leave every table byte-identical.  When a change is *deliberate*,
regenerate with::

    python -m pytest tests/test_experiment_goldens.py --update-golden

and commit the diff.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import experiment

GOLDEN_DIR = Path(__file__).parent / "golden" / "experiments"

#: Small enough to run in seconds, large enough that no table is all
#: zeros.
SCALE = 0.03

_slow = pytest.mark.slow

EXPERIMENTS = [
    "table2_error_fit",
    "table3_deduction_fit",
    "fig09_samplecf_error",
    "fig10_deduction_error",
    "fig12_tpch_select_ablation",
    "fig13_tpch_insert_ablation",
    "fig14_sales_select",
    "fig15_sales_insert",
    pytest.param("fig16_tpch_select_full", marks=_slow),
    "fig17_tpch_insert_full",
    "mg1_merging_ablation",
    "vl1_validation",
]


def _name(param) -> str:
    return param if isinstance(param, str) else param.values[0]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_table_is_golden(name, request):
    fresh = experiment(name)(scale=SCALE).format() + "\n"
    golden = GOLDEN_DIR / f"{name}.txt"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden.write_text(fresh)
        pytest.skip(f"updated {golden.name}")
    assert golden.exists(), (
        f"{golden} missing — generate it with "
        "pytest tests/test_experiment_goldens.py --update-golden"
    )
    assert fresh == golden.read_text(), (
        f"{name} printed another table than {golden.name}"
    )


def test_experiment_goldens_have_no_strays():
    known = {_name(param) for param in EXPERIMENTS}
    assert {p.stem for p in GOLDEN_DIR.glob("*.txt")} == known


def test_the_cli_prints_the_golden_table(capsys):
    """``repro experiments`` prints the table, its timing line and a
    blank line; bar the timing, the bytes are the golden file's."""
    assert main(["experiments", "--only", "fig14_sales_select",
                 "--scale", str(SCALE)]) == 0
    out = capsys.readouterr().out
    table, timing = out.removesuffix("\n\n").rsplit("\n", 1)
    assert re.fullmatch(r"\[fig14_sales_select: \d+\.\ds\]", timing)
    assert table + "\n" == (GOLDEN_DIR / "fig14_sales_select.txt").read_text()
