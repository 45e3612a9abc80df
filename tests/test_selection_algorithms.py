"""The pluggable selection-algorithm framework: registry contract,
event units, sweep and service integration, and the anytime
algorithm's ``best_so_far`` cancel-early contract.

Every registered algorithm's determinism and budget compliance — run
to run, across PYTHONHASHSEED values, delta costing on and off, cold
and warm persistent caches — are cells of ``tests/test_run_identity.py``.
"""

import asyncio
from dataclasses import fields

import pytest

from repro.advisor import (
    algorithms,
    get_variant,
    variant_names,
    variants,
)
from repro.advisor.advisor import AdvisorOptions, TuningAdvisor
from repro.advisor.algorithms import (
    GreedyBacktrackAlgorithm,
    SelectionAlgorithm,
)
from repro.api import run_sweep, tune
from repro.datasets import tpch_database, tpch_workload
from repro.datasets.sales import sales_database, sales_workload
from repro.errors import AdvisorError, JobCancelled, ServiceError
from repro.service import AdvisorService, describe_algorithms, faults
from repro.service.context import _REQUEST_OPTION_FIELDS
from repro.service.faults import FaultPlan


ALL_ALGORITHMS = algorithms.names()


@pytest.fixture(scope="module")
def inputs():
    db = sales_database(scale=0.03)
    wl = sales_workload(db)
    return db, wl, db.total_data_bytes() * 0.15


def _digest(result):
    return (
        sorted(ix.display_name() for ix in result.configuration),
        result.base_cost,
        result.final_cost,
        result.consumed_bytes,
        result.steps,
    )


# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert ALL_ALGORITHMS == sorted(
            ["greedy-backtrack", "ibm", "relaxation", "anytime"]
        )
        assert algorithms.DEFAULT_ALGORITHM == "greedy-backtrack"
        assert (
            AdvisorOptions(budget_bytes=1.0).algorithm
            == algorithms.DEFAULT_ALGORITHM
        )

    def test_get_unknown_names_valid_set(self):
        with pytest.raises(AdvisorError) as err:
            algorithms.get("simulated-annealing")
        for name in ALL_ALGORITHMS:
            assert name in str(err.value)

    def test_tune_rejects_unknown_algorithm_before_any_work(self, inputs):
        db, wl, budget = inputs
        with pytest.raises(AdvisorError, match="choose from"):
            tune(db, wl, budget, algorithm="nope")

    def test_reregistering_name_is_an_error(self):
        class Impostor(SelectionAlgorithm):
            name = "greedy-backtrack"

        with pytest.raises(AdvisorError, match="already registered"):
            algorithms.register(Impostor)

    def test_register_requires_name(self):
        class Nameless(SelectionAlgorithm):
            pass

        with pytest.raises(AdvisorError, match="no registry name"):
            algorithms.register(Nameless)

    def test_greedy_backtrack_is_registered(self):
        assert (
            algorithms.get("greedy-backtrack") is GreedyBacktrackAlgorithm
        )

    def test_every_algorithm_has_metadata(self):
        option_fields = {f.name for f in fields(AdvisorOptions)}
        for name, cls in algorithms.registered().items():
            assert cls.name == name
            assert cls.summary
            schema = cls.options_schema()
            assert "budget_bytes" in schema
            # What GET /v1/algorithms advertises, a request can set.
            advertised = set(schema) - {"budget_bytes"}
            assert advertised <= option_fields
            assert advertised <= _REQUEST_OPTION_FIELDS


# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
class TestEventUnits:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_event_cost_is_a_workload_cost(
        self, inputs, algorithm, monkeypatch
    ):
        """``cost`` on a progress event is a value the workload coster
        returned during the run — never a byte count (those travel as
        ``consumed_bytes``) or an attributed benefit (``benefit``)."""
        db, wl, budget = inputs
        costed = set()

        def recording(advisor, config, _cost=TuningAdvisor._workload_cost):
            out = _cost(advisor, config)
            costed.add(out)
            return out
        monkeypatch.setattr(TuningAdvisor, "_workload_cost", recording)
        events = []
        tune(db, wl, budget, variant="dtac-both", algorithm=algorithm,
             progress=events.append)
        carrying = [e for e in events if "cost" in e]
        assert {e["event"] for e in carrying} >= {"sweep", "greedy_step"}
        strays = [e for e in carrying if e["cost"] not in costed]
        assert not strays, strays


# ----------------------------------------------------------------------
class TestVariantRegistry:
    def test_specs_in_registration_order(self):
        specs = variants()
        assert [spec.name for spec in specs] == [
            "dta", "dtac-none", "dtac-skyline", "dtac-backtrack",
            "dtac-both",
        ]
        for spec in specs:
            assert spec.doc
        assert variant_names() == sorted(spec.name for spec in specs)

    def test_get_variant_unknown_names_valid_set(self):
        with pytest.raises(AdvisorError) as err:
            get_variant("dtac-everything")
        assert "dtac-both" in str(err.value)

    def test_advisor_options_extra_wins_on_conflict(self):
        spec = get_variant("dtac-both")
        options = spec.advisor_options(123.0, backtracking=False,
                                       algorithm="ibm")
        assert options.budget_bytes == 123.0
        assert options.backtracking is False
        assert options.algorithm == "ibm"


# ----------------------------------------------------------------------
class TestSweepIntegration:
    def test_sweep_threads_algorithm_through_units(self, inputs):
        db, wl, budget = inputs
        sweep = run_sweep(db, wl, [budget], algorithm="ibm")
        direct = tune(db, wl, budget, algorithm="ibm")
        assert _digest(sweep.runs[0].result) == _digest(direct)

    def test_sweep_rejects_unknown_algorithm_eagerly(self, inputs):
        db, wl, budget = inputs
        with pytest.raises(AdvisorError, match="choose from"):
            run_sweep(db, wl, [budget], algorithm="nope")


# ----------------------------------------------------------------------
class TestAnytimeContract:
    def test_final_result_equals_last_best_so_far(self, inputs):
        db, wl, budget = inputs
        events = []
        result = tune(db, wl, budget, variant="dtac-none",
                      algorithm="anytime", progress=events.append)
        best = [e for e in events if e["event"] == "best_so_far"]
        assert best, "anytime must publish at least the base config"
        assert best[0]["step"] == "base"
        last = best[-1]
        assert last["configuration"] == sorted(
            ix.display_name() for ix in result.configuration
        )
        assert last["cost"] == result.final_cost
        assert last["consumed_bytes"] == result.consumed_bytes
        # Monotone: every published improvement strictly lowers cost.
        costs = [e["cost"] for e in best]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        seqs = [e["improvement_seq"] for e in best]
        assert seqs == list(range(1, len(best) + 1))

    @pytest.mark.parametrize("dataset,variant,budget_fraction", [
        ("sales", "dtac-both", 0.20),
        ("sales", "dtac-skyline", 0.05),
        ("tpch", "dta", 0.05),
    ])
    def test_publish_hook_is_observational(
        self, dataset, variant, budget_fraction
    ):
        """``anytime`` is the default search's single-start,
        no-backtrack ordering plus a publish hook, and a hook must never
        change a result: same configuration, cost and step log."""
        if dataset == "sales":
            db = sales_database(scale=0.1)
            wl = sales_workload(db)
        else:
            db = tpch_database(scale=0.2, z=1.0)
            wl = tpch_workload(db, select_weight=1, insert_weight=10)
        budget = db.total_data_bytes() * budget_fraction
        anytime = tune(db, wl, budget, variant=variant,
                       algorithm="anytime")
        plain = tune(db, wl, budget, variant=variant,
                     algorithm="greedy-backtrack", seed_fanout=1,
                     backtracking=False)
        assert _digest(anytime) == _digest(plain)
        assert anytime.steps

    def test_cancel_early_keeps_best_so_far_prefix(self, inputs):
        """Cancelling after the k-th best_so_far event: the run unwinds
        through JobCancelled and the events already emitted are exactly
        the full run's first k — the client's keepable result."""
        db, wl, budget = inputs
        full = []
        tune(db, wl, budget, variant="dtac-none",
             algorithm="anytime", progress=full.append)
        best_full = [e for e in full if e["event"] == "best_so_far"]
        assert len(best_full) >= 2, "need an improvement to cancel after"
        k = 2
        seen = []

        def hook(event):
            seen.append(event)
            if (
                event["event"] == "best_so_far"
                and len([e for e in seen
                         if e["event"] == "best_so_far"]) >= k
            ):
                raise JobCancelled("client hung up")

        with pytest.raises(JobCancelled):
            tune(db, wl, budget, variant="dtac-none",
                 algorithm="anytime", progress=hook)
        best_seen = [e for e in seen if e["event"] == "best_so_far"]
        assert best_seen == best_full[:k]


# ----------------------------------------------------------------------
class TestServiceIntegration:
    @pytest.fixture(scope="class")
    def service_inputs(self):
        db = sales_database(scale=0.02)
        wl = sales_workload(db)
        return db, wl

    def _run(self, coro):
        return asyncio.run(coro)

    def test_describe_algorithms_shape(self):
        body = describe_algorithms()
        assert body["default"] == algorithms.DEFAULT_ALGORITHM
        names = [a["name"] for a in body["algorithms"]]
        assert names == ALL_ALGORITHMS
        for entry in body["algorithms"]:
            assert entry["summary"]
            assert "budget_bytes" in entry["options"]

    def test_unknown_algorithm_is_a_service_error(self, service_inputs):
        """The request layer rejects unknown algorithms with a
        ServiceError naming the valid set (the HTTP layer maps it to
        400, not 500)."""
        db, wl = service_inputs

        async def scenario():
            service = AdvisorService()
            service.register("sales", db, wl)
            await service.start()
            try:
                with pytest.raises(ServiceError) as err:
                    await service.tune(
                        "sales", budget_fraction=0.1,
                        options={"algorithm": "definitely-not-real"},
                    )
                return str(err.value)
            finally:
                await service.stop()

        message = self._run(scenario())
        for name in ALL_ALGORITHMS:
            assert name in message

    def test_tune_with_algorithm_matches_direct(self, service_inputs):
        db, wl = service_inputs

        async def scenario():
            service = AdvisorService()
            service.register("sales", db, wl)
            await service.start()
            try:
                return await service.tune(
                    "sales", budget_fraction=0.12,
                    variant="dtac-none",
                    options={"algorithm": "relaxation"},
                )
            finally:
                await service.stop()

        answer = self._run(scenario())
        direct = tune(db, wl, db.total_data_bytes() * 0.12,
                      variant="dtac-none", algorithm="relaxation")
        from repro.service import serialize_result
        assert answer["result"] == serialize_result(direct)["result"]

    def test_anytime_job_streams_best_so_far_and_survives_cancel(
        self, service_inputs
    ):
        """An anytime tune job streams best_so_far events; cancelling
        mid-run leaves the job cancelled with the streamed prefix
        intact — the client keeps the last best_so_far as its result.

        Every costing step is held for a quarter second, so the cancel
        sent on the second best_so_far lands while the search still
        has steps to go, however fast the search is."""
        db, wl = service_inputs

        async def scenario():
            service = AdvisorService()
            service.register("sales", db, wl)
            await service.start()
            try:
                record = service.submit_job(
                    "tune", "sales",
                    dict(budget_fraction=0.12, variant="dtac-none",
                         options={"algorithm": "anytime"}),
                )
                events = []
                async for event in service.job_events(record.id):
                    events.append(event)
                    if (
                        event["event"] == "best_so_far"
                        and len([e for e in events
                                 if e["event"] == "best_so_far"]) >= 2
                    ):
                        service.cancel_job(record.id)
                return record.snapshot(), events
            finally:
                await service.stop()

        faults.install(FaultPlan.parse("coster.batch:delay=0.25"))
        try:
            snapshot, events = self._run(scenario())
        finally:
            faults.clear()
        best = [e for e in events if e["event"] == "best_so_far"]
        assert len(best) >= 2
        assert snapshot["state"] == "cancelled"
        # The stream ends with the terminal state, and the best_so_far
        # prefix carries a full configuration the client can keep.
        last = best[-1]
        assert last["configuration"]
        assert last["cost"] > 0
        assert last["consumed_bytes"] <= db.total_data_bytes() * 0.12 + 1e-6
