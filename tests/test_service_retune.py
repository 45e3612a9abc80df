"""The service's retune job kind and the versioned ``/v1`` envelope.

The contract: ``retune`` jobs carry the previous configuration forward
across submissions (resolved into the journaled payload at submission,
so re-runs are self-contained); per-retune ``dropped``/``added``/
``config_changed`` events stream; invalid drift/from_config payloads
fail at submission; and every ``/v1`` body is validated against the
closed wire schema while every ``/v1`` response is stamped with
``schema_version``.
"""

import asyncio

import pytest

from repro.datasets.sales import sales_database, sales_workload
from repro.errors import ReproError, ServiceError
from repro.service import AdvisorService
from repro.service import wire

#: a drift spec extreme enough that phase 0 -> 2 strands structure(s).
DRIFT = dict(hot_fraction=0.2, hot_weight=20.0, cold_weight=0.01)
RETUNE = dict(budget_fraction=0.15, variant="dtac-none")


@pytest.fixture(scope="module")
def service_inputs():
    db = sales_database(scale=0.02)
    return db, sales_workload(db)


def run(coro):
    return asyncio.run(coro)


async def _make_service(service_inputs, **kwargs):
    db, wl = service_inputs
    service = AdvisorService(**kwargs)
    service.register("sales", db, wl)
    await service.start()
    return service


async def _run_job(service, payload):
    record = service.submit_job("retune", "sales", dict(payload))
    events = [e async for e in service.job_events(record.id)]
    return service.jobs.get(record.id), events


class TestRetuneJobs:
    def test_carry_forward_and_drop_events(self, service_inputs):
        """Two recurring submissions: the first runs cold (generation
        1), the second seeds from the first's result (generation 2) and
        streams the drop/add/config_changed events of the phase
        shift."""

        async def scenario():
            service = await _make_service(service_inputs)
            try:
                first, ev1 = await _run_job(
                    service, dict(RETUNE, drift={"phase": 0, **DRIFT})
                )
                second, ev2 = await _run_job(
                    service, dict(RETUNE, drift={"phase": 2, **DRIFT})
                )
                return first, ev1, second, ev2
            finally:
                await service.stop()

        first, ev1, second, ev2 = run(scenario())
        assert first.state == second.state == "done"
        assert first.result["retune"]["generation"] == 1
        assert second.result["retune"]["generation"] == 2
        # The second submission's journaled payload is self-contained:
        # the carried configuration was resolved in at submission.
        assert second.payload["from_config"] == \
            first.result["result"]["indexes"]
        assert second.result["retune"]["dropped"], "no drop fired"
        kinds = {e["event"] for e in ev2}
        assert {"dropped", "config_changed"} <= kinds
        changed = next(e for e in ev2
                       if e["event"] == "config_changed")
        assert changed["changed"] is True
        assert changed["generation"] == 2

    def test_from_config_seeds_generation_one(self, service_inputs):
        """An explicit from_config bypasses the carry-forward scan."""
        specs = [{"table": "sales", "key_columns": ["sa_date"],
                  "method": "page"}]

        async def scenario():
            service = await _make_service(service_inputs)
            try:
                record, _events = await _run_job(
                    service, dict(RETUNE, from_config=specs)
                )
                return record
            finally:
                await service.stop()

        record = run(scenario())
        assert record.state == "done"
        assert record.result["retune"]["generation"] == 1
        assert record.payload["from_config"] == specs

    def test_invalid_payloads_fail_at_submission(self, service_inputs):
        async def scenario():
            service = await _make_service(service_inputs)
            failures = []
            try:
                for payload in (
                    dict(RETUNE, drift={"phase": -1}),
                    dict(RETUNE, drift={"phase": 0, "bogus": 1}),
                    dict(RETUNE, drift="not-a-dict"),
                    dict(RETUNE, from_config=[{"table": "nope",
                                               "key_columns": ["x"]}]),
                    dict(RETUNE, from_config="not-a-list"),
                ):
                    try:
                        service.submit_job("retune", "sales", payload)
                    except (ServiceError, ReproError) as exc:
                        failures.append(str(exc))
                # An unknown variant *and* no budget: every job kind
                # names the variant, at submission.
                named = {}
                for kind in ("tune", "retune", "sweep"):
                    try:
                        record = service.submit_job(
                            kind, "sales", {"variant": "nope"})
                    except ServiceError as exc:
                        named[kind] = ("submission", str(exc))
                        continue
                    async for _ in service.job_events(record.id):
                        pass
                    named[kind] = ("lane", record.snapshot()["error"])
                return failures, named
            finally:
                await service.stop()

        failures, named = run(scenario())
        assert len(failures) == 5
        assert [where for where, _ in named.values()] == \
            ["submission", "submission", "submission"]
        for _where, message in named.values():
            assert "unknown variant 'nope'" in message

    def test_retune_is_not_a_request_kind(self, service_inputs):
        """Retune is stateful and must never coalesce with identical
        concurrent requests — it is job-only."""

        async def scenario():
            service = await _make_service(service_inputs)
            try:
                with pytest.raises(ServiceError, match="unknown"):
                    await service.request("retune", "sales", dict(RETUNE))
            finally:
                await service.stop()

        run(scenario())


class TestWireSchema:
    def test_unknown_fields_rejected_by_name(self):
        with pytest.raises(ServiceError) as exc:
            wire.validate_request("tune", {
                "context": "sales", "budget_fraction": 0.1,
                "tenant": "smuggled", "priority": "high",
            })
        message = str(exc.value)
        assert "priority" in message and "tenant" in message
        assert "allowed" in message

    def test_routing_fields_allowed_on_jobs_only(self):
        body = {"context": "sales", "kind": "tune", "tenant": "t",
                "priority": "high", "budget_fraction": 0.1}
        wire.validate_job("tune", body)  # does not raise
        with pytest.raises(ServiceError):
            wire.validate_request("tune", body)

    def test_retune_job_fields(self):
        wire.validate_job("retune", {
            "context": "sales", "kind": "retune",
            "budget_fraction": 0.1,
            "drift": {"phase": 1}, "from_config": [], "generation": 3,
        })
        with pytest.raises(ServiceError, match="drift"):
            wire.validate_job("tune", {
                "context": "sales", "kind": "tune",
                "drift": {"phase": 1},
            })

    def test_schema_version_optional_but_checked(self):
        wire.check_version({})
        wire.check_version({"schema_version": wire.SCHEMA_VERSION})
        with pytest.raises(ServiceError, match="schema_version"):
            wire.check_version({"schema_version": 99})

    def test_stamp_is_idempotent_and_first(self):
        stamped = wire.stamp({"ok": True})
        assert list(stamped) == ["schema_version", "ok"]
        assert wire.stamp(stamped) is stamped

    def test_unknown_kind_passes_through(self):
        # The service layer owns the unknown-kind error message.
        wire.validate_request("mystery", {"whatever": 1})
        with pytest.raises(ServiceError, match="kind"):
            wire.validate_job(None, {})
