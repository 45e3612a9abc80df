"""The ``repro.api`` facade: ``Session`` is the one public entry point
(tune / retune / tune_decoupled / sweep over owned context), beside the
functional one-shot ``repro.api.tune``.
"""

import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from repro.advisor import AdvisorOptions
from repro.advisor.advisor import OPTION_RULES
from repro.api import Session, run_sweep
from repro.cli import main
from repro.datasets.sales import sales_database, sales_workload
from repro.errors import AdvisorError
from repro.experiments import ALL_EXPERIMENTS
from repro.sampling.sample_manager import DEFAULT_SAMPLE_SEED, SampleManager
from repro.service.service import AdvisorService
from repro.sizeest import SizeEstimator
from repro.workload.drift import DriftSpec
from repro.workload.query import Workload


@pytest.fixture(scope="module")
def inputs():
    db = sales_database(scale=0.02)
    return db, sales_workload(db)


class TestSession:
    def test_session_owns_budget_and_advances_generation(self, inputs):
        db, wl = inputs
        session = Session(db, wl, budget_fraction=0.15,
                          variant="dtac-none")
        assert session.generation == 0
        result = session.tune()
        assert session.generation == 1
        assert session.configuration is result.configuration
        delta = session.retune()
        assert session.generation == 2
        assert delta.generation == 2
        assert delta.previous_configuration is result.configuration

    def test_budget_validation(self, inputs):
        db, wl = inputs
        with pytest.raises(AdvisorError, match="not both"):
            Session(db, wl, budget_bytes=1.0, budget_fraction=0.1)
        with pytest.raises(AdvisorError, match="no budget"):
            Session(db, wl, variant="dtac-none").tune()
        with pytest.raises(AdvisorError, match="no workload"):
            Session(db, budget_fraction=0.1).tune()
        # The service's rule: a real number (not a bool), finite and
        # non-negative — at construction and per call alike.
        for field, value in (("budget_fraction", math.nan),
                             ("budget_fraction", math.inf),
                             ("budget_bytes", -5.0),
                             ("budget_bytes", "10"),
                             ("budget_bytes", True),
                             ("budget_bytes", 10 ** 400)):
            with pytest.raises(AdvisorError, match=field):
                Session(db, wl, **{field: value})
            with pytest.raises(AdvisorError, match=field):
                Session(db, wl).tune(**{field: value})
        # ...and any other real number passes (as numpy scalars do).
        Session(db, wl, budget_bytes=Fraction(1, 4))
        Session(db, wl, budget_fraction=0)

    def test_option_validation(self, inputs, monkeypatch, capsys):
        """Option values of the wrong type, or that type-check but mean
        nothing, fail naming the field — at construction, per call and
        in a sweep — before any tuning work (no sample is drawn).  The
        accuracy constraint ``(e, q)`` gets the same rule wherever else
        it is taken: a ``SizeEstimator``, a service registration and
        ``repro estimate``."""
        db, wl = inputs

        def no_sampling(*args, **kwargs):
            raise AssertionError("a bad option reached estimation")

        monkeypatch.setattr(SampleManager, "__init__", no_sampling)
        for field, value in (("top_k", -1), ("top_k", 0), ("top_k", True),
                             ("max_key_columns", -1),
                             ("strategy", "Greedy"),
                             ("min_improvement", -1.0),
                             ("min_improvement", math.nan),
                             ("seed_fanout", 0), ("seed_fanout", -3),
                             ("skyline_cluster_max", 0),
                             ("skyline_cluster_max", -3),
                             ("candidate_selection", "bogus"),
                             ("q", 2.0), ("q", -0.1), ("q", math.nan),
                             ("e", -1.0), ("e", math.nan), ("e", math.inf),
                             ("backtracking", 1)):
            named = f"^{field} "
            with pytest.raises(AdvisorError, match=named):
                Session(db, wl, **{field: value})
            with pytest.raises(AdvisorError, match=named):
                Session(db, wl, budget_fraction=0.1).tune(**{field: value})
            with pytest.raises(AdvisorError, match=named):
                run_sweep(db, wl, [1.0], **{field: value})
            if field not in ("e", "q"):
                continue
            with pytest.raises(AdvisorError, match=named):
                SizeEstimator(db, **{field: value})
            with pytest.raises(AdvisorError, match=named):
                AdvisorService().register("sales", db, wl, **{field: value})
            flag = {"e": "--error", "q": "--confidence"}[field]
            with pytest.raises(SystemExit) as exited:
                main(["estimate", "--dataset", "sales", "--scale", "0.02",
                      flag, str(value)])
            assert exited.value.code == 2
            assert f"argument {flag}: {field} must" in capsys.readouterr().err
        # A seed is an integer, not a bool: at construction, when a
        # holder sets it before a run, and in a sweep's seed list.
        for value in ("7", True, 7.0):
            with pytest.raises(AdvisorError, match="^seed must"):
                Session(db, wl, seed=value)
            session = Session(db, wl, budget_fraction=0.1)
            with pytest.raises(AdvisorError, match="^seed must"):
                session.seed = value
            with pytest.raises(AdvisorError, match=r"^seeds\[0\] must"):
                run_sweep(db, wl, [1.0], seeds=[value])
        Session(db, wl, strategy="density", top_k=1, seed_fanout=1,
                min_improvement=0)

    def test_an_integral_seed_is_a_plain_int(self, inputs):
        """Every spelling of seed 7 draws seed 7's sample stream (the
        sample manager hashes the seed's repr)."""
        db, wl = inputs
        session = Session(db, wl, seed=np.int64(7))
        assert type(session.seed) is int and session.seed == 7
        session.seed = np.int32(8)
        assert type(session.seed) is int and session.seed == 8

    def test_weight_and_dataset_validation(self, inputs, capsys):
        """A statement weight and a drift spec's numbers get the budget
        rule where they are built, and the CLI's dataset, drift and
        experiment flags fail in argparse (exit 2) naming the flag —
        never a traceback from the generator or a NaN improvement."""
        _, wl = inputs
        statement = wl.statements[0].statement
        for value in (math.nan, math.inf, -1.0, True, "1"):
            with pytest.raises(AdvisorError, match="^weight must"):
                Workload().add(statement, weight=value)
        # A check only: an int weight stays an int, and 0 is a weight.
        checked = Workload()
        checked.add(statement, weight=3)
        checked.add(statement, weight=0)
        assert [type(s.weight) for s in checked] == [int, int]
        for field, value in (("hot_weight", math.nan),
                             ("hot_weight", 0.0),
                             ("cold_weight", -1.0),
                             ("hot_fraction", math.nan),
                             ("hot_fraction", 1.5),
                             ("arrival_jitter", math.inf),
                             ("update_weights", (1.0, math.nan)),
                             ("update_weights", (1.0, 0))):
            with pytest.raises(AdvisorError, match=f"^{field}"):
                DriftSpec(**{field: value})
            raw = list(value) if field == "update_weights" else value
            with pytest.raises(AdvisorError, match=f"^{field}"):
                DriftSpec.from_dict({field: raw})
        DriftSpec(hot_fraction=1, arrival_jitter=0)
        for argv, flag in (
            (["tune", "--scale", "nan"], "--scale"),
            (["tune", "--scale", "-1"], "--scale"),
            (["tune", "--zipf", "nan"], "--zipf"),
            (["tune", "--zipf", "-2"], "--zipf"),
            (["tune", "--select-weight", "nan"], "--select-weight"),
            (["sweep", "--insert-weight", "inf"], "--insert-weight"),
            (["serve", "--scale", "nan"], "--scale"),
            (["serve", "--select-weight", "-1"], "--select-weight"),
            (["retune", "--hot-weight", "nan"], "--hot-weight"),
            (["experiments", "--scale", "-1"], "--scale"),
            (["experiments", "--only", "nope"], "--only"),
        ):
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2
            assert f"argument {flag}: " in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["experiments", "--only", "bogus"])
        err = capsys.readouterr().err
        assert "unknown experiment 'bogus'" in err
        assert all(name in err for name in ALL_EXPERIMENTS)

    def test_boundary_option_values_tune(self, inputs):
        """The closed ends of each range are values, not errors."""
        db, wl = inputs
        for extra in (dict(q=0), dict(q=1), dict(e=0),
                      dict(skyline_cluster_max=1)):
            result = Session(db, wl, budget_fraction=0.1, **extra).tune()
            assert result.final_cost <= result.base_cost

    def test_every_option_has_a_rule(self):
        """A new :class:`AdvisorOptions` field must get an entry in
        ``OPTION_RULES``, the one place its values are checked."""
        assert set(OPTION_RULES) == {f.name for f in fields(AdvisorOptions)}

    def test_workers_is_not_a_tuning_option(self, inputs):
        """Parallelism belongs to ``sweep(workers=)`` alone: a session
        handed ``workers`` refuses it when it is built."""
        db, wl = inputs
        with pytest.raises(TypeError, match="workers"):
            AdvisorOptions(budget_bytes=1.0, workers=2)
        with pytest.raises(TypeError, match="workers"):
            Session(db, wl, budget_fraction=0.15, variant="dtac-none",
                    workers=2)

    def test_sweep_and_decoupled_do_not_advance_session(self, inputs):
        db, wl = inputs
        session = Session(db, wl, budget_fraction=0.15,
                          variant="dtac-none")
        budget = db.total_data_bytes() * 0.15
        sweep = session.sweep([budget])
        assert len(sweep.runs) == 1
        staged = session.tune_decoupled()
        assert staged.configuration is not None
        assert session.configuration is None
        assert session.generation == 0

    def test_every_mode_samples_with_the_session_seed(
        self, inputs, monkeypatch
    ):
        """tune, tune_decoupled and sweep on one seeded session all
        draw their samples with that seed; a retune over the same
        statements draws none — it searches the stage tune prepared,
        the seed-7 estimator included."""
        drawn = []
        init = SampleManager.__init__

        def spy(self, database, seed=DEFAULT_SAMPLE_SEED, **kwargs):
            drawn.append(seed)
            init(self, database, seed=seed, **kwargs)

        monkeypatch.setattr(SampleManager, "__init__", spy)
        db, wl = inputs
        session = Session(db, wl, budget_fraction=0.15,
                          variant="dtac-none", seed=7)
        by_mode = {}
        for mode, call in (
            ("tune", session.tune),
            ("retune", session.retune),
            ("decoupled", session.tune_decoupled),
            ("sweep", lambda: session.sweep(
                [db.total_data_bytes() * 0.15])),
        ):
            drawn.clear()
            call()
            by_mode[mode] = list(drawn)
        assert by_mode.pop("retune") == []
        assert session.stage.estimator.manager.seed == 7
        assert by_mode == {mode: [7] for mode in by_mode}
