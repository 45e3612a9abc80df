"""Fences around the one way to run the advisor and the one way to
measure estimation errors.

* Only the advisor module itself (``advisor.py``: the class and the
  functional ``tune`` / ``tune_decoupled``), the session (``retune.py``)
  and Figure 11 (which needs an estimator without deduction, a switch
  ``Session`` does not have) construct a ``TuningAdvisor``; every other
  caller — the paper's experiments included — goes through a
  ``Session``.
* The library's error calibration does not reach into the paper's
  experiments: ``repro.sizeest`` runs ``calibrate_error_model`` with
  ``repro.experiments`` never imported.
* ``repro experiments`` is the one way to run a paper experiment: no
  module under ``repro/experiments/`` defines ``main`` or an
  ``if __name__ == "__main__"`` block, and the package has no
  ``__main__.py``.
* One append log writes every persisted store: under
  ``repro/parallel/`` exactly one function fires the ``cache.save``
  fault hook, and exactly one takes ``fcntl.flock``.
* Every registered fault site is live: each key of ``faults.SITES``
  has exactly one ``fire("<site>", ...)`` or ``FAULT_HOOK("<site>",
  ...)`` call under ``repro/``, and no call names a site not
  registered.
* The names only the benchmark ledger wraps or calls
  (:data:`LEDGER_ONLY`) are called by nothing under ``repro/``: the
  list the ledger's next revision deletes.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

from repro.service.faults import SITES

SRC = Path(__file__).resolve().parent.parent / "src"

#: names kept for the benchmark ledger alone (see above).
LEDGER_ONLY = {
    "improvement_cap", "improvement_possible", "register_universe",
    "resolve_backend",
}

#: the modules allowed to construct a ``TuningAdvisor`` (see above).
ADVISOR_BUILDERS = {
    "repro/advisor/advisor.py",
    "repro/advisor/retune.py",
    "repro/experiments/fig11_runtime_breakdown.py",
}


def _constructs(tree: ast.AST, name: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if called == name:
                return True
    return False


def test_only_the_session_and_fig11_build_an_advisor():
    builders = {
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.glob("repro/**/*.py"))
        if _constructs(ast.parse(path.read_text()), "TuningAdvisor")
    }
    assert builders <= ADVISOR_BUILDERS, builders - ADVISOR_BUILDERS


def test_experiments_build_no_estimation_components():
    """Error analyses measure through ``ErrorLab``'s estimator."""
    for path in sorted(SRC.glob("repro/experiments/*.py")):
        tree = ast.parse(path.read_text())
        for name in ("SampleCFRunner", "DeductionEngine"):
            assert not _constructs(tree, name), (path.name, name)


def test_calibration_does_not_import_the_experiments():
    script = (
        "import sys\n"
        "from repro.datasets import sales_database\n"
        "from repro.sizeest import calibrate_error_model\n"
        "db = sales_database(scale=0.02)\n"
        "keys = [('sa_storekey',), ('sa_storekey', 'sa_salekey')]\n"
        "report = calibrate_error_model(db, {'sales': keys},\n"
        "                               fractions=(0.1,))\n"
        "assert report.colext_errors\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('repro.experiments')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        check=True, timeout=300,
    ).stdout.strip()
    assert out == "[]"


def _is_main_guard(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and "__main__" in {
        n.value for n in ast.walk(node.test)
        if isinstance(n, ast.Constant)
    }


def test_experiments_have_one_runner():
    experiments = SRC / "repro" / "experiments"
    assert not (experiments / "__main__.py").exists()
    for path in sorted(experiments.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            assert not (isinstance(node, ast.FunctionDef)
                        and node.name == "main"), path.name
            assert not _is_main_guard(node), path.name


def _functions_calling(package: Path, matches) -> list[str]:
    """``file:function`` for every function under ``package`` whose own
    body holds a call ``matches`` accepts."""
    found = []
    for path in sorted(package.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(isinstance(call, ast.Call) and matches(call)
                            for call in ast.walk(node)):
                found.append(f"{path.name}:{node.name}")
    return found


def test_one_append_log_writes_every_store():
    parallel = SRC / "repro" / "parallel"

    def fires_cache_save(call: ast.Call) -> bool:
        return getattr(call.func, "id", None) == "FAULT_HOOK" \
            and bool(call.args) \
            and getattr(call.args[0], "value", None) == "cache.save"

    def takes_flock(call: ast.Call) -> bool:
        return getattr(call.func, "attr", None) == "flock" \
            and getattr(call.func.value, "id", None) == "fcntl"

    for matches in (fires_cache_save, takes_flock):
        assert _functions_calling(parallel, matches) == \
            ["cache.py:append"], matches.__name__


def test_every_fault_site_has_one_call():
    fired = Counter(
        node.args[0].value
        for path in sorted(SRC.glob("repro/**/*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("fire", "FAULT_HOOK")
        and node.args and isinstance(node.args[0], ast.Constant)
    )
    assert fired == dict.fromkeys(SITES, 1)


def test_ledger_only_names_are_called_by_nothing():
    callers = sorted(
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
        for path in sorted(SRC.glob("repro/**/*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in LEDGER_ONLY
    )
    assert callers == []
