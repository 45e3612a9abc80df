"""Anytime greedy: every monotone improvement is published as a
``best_so_far`` progress event, so a ``/v1/jobs`` client can cancel the
run at any point and keep the last event as its result.

The search itself is the shared moves in their plainest ordering —
one ``_fill`` from the base configuration (no seeding, no
backtracking), then ``_polish`` — with a publish hook: *every* accepted
step emits, in addition to the usual ``greedy_step`` event, a
``best_so_far`` event carrying the full configuration (sorted display
names), its cost and its consumed bytes.  The contract tested by the
determinism suite: at any cancellation point the last emitted
``best_so_far`` equals the configuration the run held at that moment,
and an uncancelled run's final result equals its last event.

Cancellation rides the ordinary progress-hook unwind: the job layer's
hook raises :class:`repro.errors.JobCancelled` from inside ``_emit``,
the search aborts at that event, and the client keeps the
``best_so_far`` prefix it already streamed.
"""

from __future__ import annotations

from repro.advisor.algorithms.base import (
    EnumerationResult,
    SelectionAlgorithm,
    register,
)
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef


@register
class AnytimeGreedyAlgorithm(SelectionAlgorithm):
    """Greedy that streams each monotone improvement as a
    ``best_so_far`` job event for cancel-early clients."""

    name = "anytime"
    summary = (
        "Single-start greedy streaming each improvement as a "
        "best_so_far event; cancel early and keep the last one"
    )

    @classmethod
    def options_schema(cls) -> dict:
        return {
            **super().options_schema(),
            "strategy": {
                "type": "string", "default": "greedy",
                "description": "'greedy' or 'density' step scoring",
            },
        }

    def run(self, pool: list[IndexDef],
            base_config: Configuration) -> EnumerationResult:
        self._rebase(base_config)
        cost = self.workload_cost(base_config)
        steps: list[str] = []
        self._improvement_seq = 0
        # Publish the base immediately: a client cancelling before the
        # first improvement still holds a well-defined best-so-far.
        self._publish(base_config, cost, "base")
        config, cost = self._fill(
            pool, base_config, cost, steps,
            kind="anytime", on_accept=self._publish,
        )
        config, cost = self._polish(
            config, cost, steps,
            kind="anytime", sweep_events=True, on_accept=self._publish,
        )
        return self._result(config, cost, steps)

    def _publish(self, config: Configuration, cost: float,
                 label: str) -> None:
        self._improvement_seq += 1
        self._emit(
            "best_so_far",
            improvement_seq=self._improvement_seq,
            cost=cost,
            consumed_bytes=self.consumed(config),
            configuration=sorted(
                ix.display_name() for ix in config
            ),
            step=label,
        )
