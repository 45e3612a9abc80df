"""The ``repro.api`` facade: ``Session`` is the one public entry point
(tune / retune / tune_decoupled / sweep over owned context), beside the
functional one-shot ``repro.api.tune``.
"""

import math
from fractions import Fraction

import pytest

from repro.advisor import AdvisorOptions
from repro.api import Session, run_sweep
from repro.datasets.sales import sales_database, sales_workload
from repro.errors import AdvisorError
from repro.sampling.sample_manager import DEFAULT_SAMPLE_SEED, SampleManager


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

    def test_option_validation(self, inputs):
        """Option values that type-check but mean nothing fail naming
        the field — at construction, per call and in a sweep — before
        any tuning work."""
        db, wl = inputs
        for field, value in (("top_k", -1), ("top_k", 0), ("top_k", True),
                             ("max_key_columns", -1),
                             ("strategy", "Greedy"),
                             ("min_improvement", -1.0),
                             ("min_improvement", math.nan),
                             ("seed_fanout", 0), ("seed_fanout", -3)):
            with pytest.raises(AdvisorError, match=field):
                Session(db, wl, **{field: value})
            with pytest.raises(AdvisorError, match=field):
                Session(db, wl, budget_fraction=0.1).tune(**{field: value})
            with pytest.raises(AdvisorError, match=field):
                run_sweep(db, wl, [1.0], **{field: value})
        Session(db, wl, strategy="density", top_k=1, seed_fanout=1,
                min_improvement=0)

    def test_workers_is_not_a_tuning_option(self, inputs):
        """Parallelism belongs to ``sweep(workers=)`` alone: a tune
        handed ``workers`` refuses it instead of ignoring it."""
        db, wl = inputs
        with pytest.raises(TypeError, match="workers"):
            AdvisorOptions(budget_bytes=1.0, workers=2)
        session = Session(db, wl, budget_fraction=0.15,
                          variant="dtac-none", workers=2)
        with pytest.raises(TypeError, match="workers"):
            session.tune()

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
