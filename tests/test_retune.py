"""Continuous tuning: drift generator determinism, the drop-then-refill
retune search, and the retune identity matrix.

The contract: a drift schedule is a pure function of (workload, spec,
phase); a retune sequence over a 2-phase drift is byte-identical across
PYTHONHASHSEED values and delta costing on/off, and is
pinned as a golden fixture; after a phase shift that kills a
structure's benefit, at least one drop fires; and the final retuned
configuration matches a cold tune at the final phase on quality.
"""

import json
from pathlib import Path

import pytest

from repro.api import Session
from repro.advisor.retune import (
    RetuneResult,
    configuration_diff,
    retune_sequence,
)
from repro.datasets.sales import sales_database, sales_workload
from repro.errors import AdvisorError
from repro.service.context import serialize_result
from repro.workload.drift import DriftSpec, DriftingWorkload, drift_phase

GOLDEN = (Path(__file__).parent / "golden" / "retune"
          / "retune_drift_sales.json")
GOLDEN_STREAM = GOLDEN.with_name("retune_drift_sales_stream.ndjson")

#: the pinned 2-phase drift scenario: phase 0 and phase 2 pick disjoint
#: hot sets, and the weights are extreme enough that the phase shift
#: strands part of the phase-0 recommendation.
SPEC = dict(seed=0, hot_fraction=0.2, hot_weight=20.0, cold_weight=0.01)
PHASES = (0, 2)
BUDGET = 0.15
VARIANT = "dtac-none"


@pytest.fixture(scope="module")
def drift_inputs():
    db = sales_database(scale=0.02)
    wl = sales_workload(db)
    return db, DriftingWorkload(wl, DriftSpec(**SPEC))


def _sequence(db, drifting, **session_extra):
    session = Session(db, budget_fraction=BUDGET, variant=VARIANT,
                      **session_extra)
    return retune_sequence(session, drifting.phases(PHASES))


def _fingerprint(results) -> list:
    """The deterministic shape of a retune sequence: per phase, the
    ``result`` section of the wire serialization plus the diff."""
    out = []
    for entry in results:
        if isinstance(entry, RetuneResult):
            out.append({
                "result": serialize_result(entry.result)["result"],
                "generation": entry.generation,
                "dropped": [ix.display_name() for ix in entry.dropped],
                "added": [ix.display_name() for ix in entry.added],
                "kept": [ix.display_name() for ix in entry.kept],
            })
        else:
            out.append({"result": serialize_result(entry)["result"]})
    return out


class TestDriftGenerator:
    def test_phase_is_pure_and_seeded(self, drift_inputs):
        _, drifting = drift_inputs
        base = drifting.base
        spec = drifting.spec
        a = drift_phase(base, spec, 3)
        b = drift_phase(base, spec, 3)
        assert [s.weight for s in a] == [s.weight for s in b]
        other = drift_phase(base, spec, 4)
        assert [s.weight for s in a] != [s.weight for s in other]
        # Reweighting never reorders or rewrites the statements.
        assert [s.name for s in a] == [s.name for s in base]
        assert [s.statement for s in a] == \
            [s.statement for s in base]

    def test_spec_roundtrip_and_validation(self):
        spec = DriftSpec(**SPEC)
        assert DriftSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(AdvisorError):
            DriftSpec(hot_fraction=1.5)
        with pytest.raises(AdvisorError):
            DriftSpec.from_dict({"hot_faction": 0.2})

    def test_memoized_phases(self, drift_inputs):
        _, drifting = drift_inputs
        assert drifting.phase(2) is drifting.phase(2)
        assert len(drifting.phases((0, 1, 2))) == 3


class TestRetuneSequence:
    def test_drop_fires_after_phase_shift(self, drift_inputs):
        """The tentpole's observable: the phase shift strands part of
        the phase-0 configuration, and the retune evicts it."""
        db, drifting = drift_inputs
        cold, retuned = _sequence(db, drifting)
        assert isinstance(retuned, RetuneResult)
        assert retuned.generation == 2
        assert len(retuned.dropped) >= 1
        assert retuned.config_changed

    def test_quality_matches_cold_tune_at_final_phase(self, drift_inputs):
        """Equal recommendation quality: the incremental retune lands
        within 5% of a cold tune run from scratch on the final phase."""
        db, drifting = drift_inputs
        _, retuned = _sequence(db, drifting)
        cold = Session(db, drifting.phase(PHASES[-1]),
                       budget_fraction=BUDGET, variant=VARIANT).tune()
        assert retuned.result.final_cost <= cold.final_cost * 1.05

    def test_diff_accounts_for_every_member(self, drift_inputs):
        db, drifting = drift_inputs
        cold, retuned = _sequence(db, drifting)
        dropped, added, kept = configuration_diff(
            cold.configuration, retuned.configuration
        )
        assert [ix.display_name() for ix in dropped] == \
            [ix.display_name() for ix in retuned.dropped]
        assert sorted(ix.display_name() for ix in added + kept) == \
            sorted(ix.display_name()
                   for ix in retuned.configuration.ordered())

    def test_retune_without_configuration_raises(self, drift_inputs):
        db, drifting = drift_inputs
        session = Session(db, drifting.phase(0), budget_fraction=BUDGET,
                          variant=VARIANT)
        with pytest.raises(AdvisorError, match="previous configuration"):
            session.retune()


class TestRetuneIdentity:
    """The identity matrix: one fingerprint, many execution shapes."""

    def test_delta_on_off_identical(self, drift_inputs):
        db, drifting = drift_inputs
        on = _fingerprint(_sequence(db, drifting, delta_costing=True))
        off = _fingerprint(_sequence(db, drifting, delta_costing=False))
        assert on == off

    def test_hashseed_independent(self, run_with_hashseed):
        script = f"""
import json
from repro.api import Session
from repro.advisor.retune import retune_sequence
from repro.datasets.sales import sales_database, sales_workload
from repro.workload.drift import DriftSpec, DriftingWorkload
from tests.test_retune import _fingerprint

db = sales_database(scale=0.02)
drifting = DriftingWorkload(sales_workload(db), DriftSpec(**{SPEC!r}))
session = Session(db, budget_fraction={BUDGET!r}, variant={VARIANT!r})
results = retune_sequence(session, drifting.phases({PHASES!r}))
print(json.dumps(_fingerprint(results), sort_keys=True))
"""
        assert run_with_hashseed(script, "1") == \
            run_with_hashseed(script, "31337")

    def test_golden_fixture(self, drift_inputs, request):
        """The pinned record of the 2-phase drift scenario: cold tune,
        then one retune with its drop/add/keep diff."""
        db, drifting = drift_inputs
        got = _fingerprint(_sequence(db, drifting))
        if request.config.getoption("--update-golden"):
            GOLDEN.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN.write_text(json.dumps(got, indent=2, sort_keys=True))
            pytest.skip("golden fixture regenerated")
        assert GOLDEN.exists(), "run pytest --update-golden to create"
        want = json.loads(GOLDEN.read_text())
        assert json.loads(json.dumps(got, sort_keys=True)) == want

    def test_golden_stream(self, drift_inputs, request):
        """The pinned progress stream — every event, in order — of the
        drift scenario (cold tune, retune) and of two retunes onto a
        shrunken budget, where the carried configuration starts over
        budget: budget relaxation then a backtracking re-fill
        (dtac-both), and cost-checked drop iterations (dta)."""
        db, drifting = drift_inputs
        events = []
        session = Session(db, budget_fraction=BUDGET, variant=VARIANT,
                          progress=events.append)
        retune_sequence(session, drifting.phases(PHASES))
        for variant, wide, narrow in (("dtac-both", 1.0, 0.1),
                                      ("dta", 0.6, 0.05)):
            session = Session(db, variant=variant, progress=events.append)
            session.tune(budget_fraction=wide, workload=drifting.phase(0))
            session.retune(budget_fraction=narrow,
                           workload=drifting.phase(2))
        got = "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in events
        )
        if request.config.getoption("--update-golden"):
            GOLDEN_STREAM.write_text(got)
            pytest.skip("golden stream regenerated")
        assert GOLDEN_STREAM.exists(), "run pytest --update-golden to create"
        assert got == GOLDEN_STREAM.read_text()
