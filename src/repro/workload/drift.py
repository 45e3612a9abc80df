"""Deterministic workload drift: phase-shifting query mixes for the
continuous-tuning scenario the paper never ran.

A *drift schedule* turns one static workload into a sequence of phases.
Each phase keeps the same statements but reshapes the weights three
ways, mirroring how production query traffic actually moves:

* **Query mix** — a seeded sample of the SELECTs becomes *hot*
  (boosted weight) while everything else goes *cold* (damped hard, so
  structures chosen for a previous phase measurably lose their
  benefit — the trigger for retune drops).
* **Arrival weights** — hot statements get a per-(phase, query) jitter
  factor, so two hot queries in the same phase rarely share a weight.
* **Update share** — the maintenance weight cycles per phase
  (``update_weights``), alternating read-mostly and update-heavy
  phases; with real maintenance cost in the mix, an index that serves
  only cold queries is strictly worse than dropping it.

Everything is a pure function of ``(workload, spec, phase)``: the RNG
is an integer-seeded :class:`random.Random` derived from
``(spec.seed, phase)``, and statements are addressed by their position
in the workload — never by hash order — so a phase is byte-identical
across processes, PYTHONHASHSEED values, and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.checks import check_budget
from repro.errors import AdvisorError
from repro.workload.query import Workload

#: large odd multiplier decorrelating (seed, phase) streams.
_PHASE_STRIDE = 1_000_003


@dataclass(frozen=True)
class DriftSpec:
    """Knobs of one drift schedule (all deterministic given ``seed``).

    Args:
        seed: base seed; each phase draws from ``Random(seed * stride
            + phase)``.
        hot_fraction: share of the SELECT statements boosted per phase
            (at least one query is always hot).
        hot_weight: weight of a hot SELECT before jitter.
        cold_weight: weight of every non-hot SELECT — keep it well
            below the update weights so a cold phase actually strands
            previously-chosen structures.
        arrival_jitter: hot weights become ``hot_weight * (1 + jitter
            * u)`` with ``u`` uniform in [0, 1); 0 disables it.
        update_weights: per-phase update/bulk-load weights, cycled
            (``phase % len``) — the update-share axis of the drift.
    """

    seed: int = 0
    hot_fraction: float = 0.3
    hot_weight: float = 8.0
    cold_weight: float = 0.05
    arrival_jitter: float = 0.25
    update_weights: tuple[float, ...] = (1.0, 4.0)

    def __post_init__(self) -> None:
        """Every number passes :func:`check_budget` (a finite
        non-negative real, not a bool); ``hot_fraction`` is in (0, 1]
        and every weight is positive."""
        if not self.update_weights:
            raise AdvisorError("update_weights must be non-empty")
        check_budget("arrival_jitter", self.arrival_jitter)
        if not 0 < check_budget("hot_fraction", self.hot_fraction) <= 1:
            raise AdvisorError(
                f"hot_fraction must be in (0, 1], got {self.hot_fraction}"
            )
        weights = {"hot_weight": self.hot_weight,
                   "cold_weight": self.cold_weight}
        weights.update((f"update_weights[{i}]", w)
                       for i, w in enumerate(self.update_weights))
        for name, weight in weights.items():
            if check_budget(name, weight) == 0:
                raise AdvisorError(f"{name} must be positive, got {weight!r}")

    # ------------------------------------------------------------------
    # wire form (the service reconstructs a spec from a job payload)
    # ------------------------------------------------------------------
    _FIELDS = (
        "seed", "hot_fraction", "hot_weight", "cold_weight",
        "arrival_jitter", "update_weights",
    )

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self._FIELDS}
        out["update_weights"] = list(self.update_weights)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "DriftSpec":
        if not isinstance(raw, dict):
            raise AdvisorError(f"drift spec must be an object, got {raw!r}")
        unknown = sorted(set(raw) - set(cls._FIELDS))
        if unknown:
            raise AdvisorError(
                f"unknown drift spec field(s): {', '.join(unknown)}"
            )
        kwargs = dict(raw)
        if "seed" in kwargs:
            if not isinstance(kwargs["seed"], int) or \
                    isinstance(kwargs["seed"], bool):
                raise AdvisorError("drift seed must be an integer")
        for name in ("hot_fraction", "hot_weight", "cold_weight",
                     "arrival_jitter"):
            if name in kwargs:
                kwargs[name] = check_budget(name, kwargs[name])
        if "update_weights" in kwargs:
            weights = kwargs["update_weights"]
            if not isinstance(weights, (list, tuple)):
                raise AdvisorError("drift update_weights must be a list")
            kwargs["update_weights"] = tuple(
                check_budget(f"update_weights[{i}]", w)
                for i, w in enumerate(weights)
            )
        return cls(**kwargs)


def _phase_rng(spec: DriftSpec, phase: int) -> Random:
    """Integer-seeded stream for one phase — stable across processes
    (never seed :class:`random.Random` with a hashed object here)."""
    return Random(spec.seed * _PHASE_STRIDE + phase)


def hot_statement_indexes(
    workload: Workload, spec: DriftSpec, phase: int
) -> tuple[int, ...]:
    """Workload positions of the SELECTs that are hot in ``phase``
    (sorted; empty only for a workload with no SELECTs)."""
    select_positions = [
        i for i, ws in enumerate(workload) if ws.statement.is_select
    ]
    if not select_positions:
        return ()
    n_hot = max(1, round(spec.hot_fraction * len(select_positions)))
    rng = _phase_rng(spec, phase)
    return tuple(sorted(rng.sample(select_positions, n_hot)))


def drift_phase(
    workload: Workload, spec: DriftSpec, phase: int
) -> Workload:
    """The workload as phase ``phase`` of the drift schedule sees it.

    Statements and their order are preserved — only weights move — so
    every phase shares the costers' statement skeleton and the phase
    sequence stays comparable statement-by-statement.
    """
    if phase < 0:
        raise AdvisorError(f"drift phase must be >= 0, got {phase}")
    hot = set(hot_statement_indexes(workload, spec, phase))
    rng = _phase_rng(spec, phase)
    update_weight = spec.update_weights[phase % len(spec.update_weights)]
    out = Workload()
    for i, ws in enumerate(workload):
        if not ws.statement.is_select:
            weight = update_weight
        elif i in hot:
            # One uniform draw per hot query, in workload order: the
            # jitter stream is position-addressed, not hash-addressed.
            weight = spec.hot_weight * (1.0 + spec.arrival_jitter * rng.random())
        else:
            weight = spec.cold_weight
        out.add(ws.statement, weight=weight, name=ws.name)
    return out


@dataclass
class DriftingWorkload:
    """A base workload plus a drift spec: ``phase(k)`` materializes
    phase ``k``'s weighted workload (memoized — phases are pure)."""

    base: Workload
    spec: DriftSpec = field(default_factory=DriftSpec)

    def __post_init__(self) -> None:
        self._phases: dict[int, Workload] = {}

    def phase(self, phase: int) -> Workload:
        got = self._phases.get(phase)
        if got is None:
            got = drift_phase(self.base, self.spec, phase)
            self._phases[phase] = got
        return got

    def phases(self, n) -> list[Workload]:
        """The first ``n`` phases when ``n`` is a count, or exactly the
        listed phases when ``n`` is an iterable of phase numbers (a
        sparse schedule, e.g. ``(0, 2)`` to jump across a shift)."""
        if isinstance(n, int):
            return [self.phase(k) for k in range(n)]
        return [self.phase(int(k)) for k in n]
