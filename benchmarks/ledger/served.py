"""The ``serve-mixed`` workload: a stock ``python -m repro serve``
subprocess (both contexts, journal on) under two closed-loop clients.

Client 1 keeps one job outstanding on context ``sales`` and follows
its event stream to the terminal event; client 2 asks interactive
questions (half ``estimate_size``, half ``whatif_cost``) of context
``tpch`` with 20 ms think time while client 1's job runs.  Both wait
for their reply before sending again, so a slower server receives less
load; there are never more than two connections.

A unit is the life of one recommendation over HTTP:

* ``idle``   — a short burst of interactive questions with no job
  running and no think time (the bypass: advisor-side work predicts no
  change here);
* ``cold``   — a ``tune`` job with a sampling seed no earlier job used;
* ``rerun``  — the same job again (the context's cost cache has seen
  it);
* ``retune`` — ``retune`` jobs from the cold job's recommendation to
  two drifted workload phases.

The served data is the CLI's stock data; ``--seed`` drives the request
payloads: job sampling seeds and the questions.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

from harness import LEDGER_DIR, Harness, children_rss_mb
from inprocess import VARIANT, Asker
from probe import Sample

from repro.api import Session
from repro.datasets import (
    sales_database,
    sales_workload,
    tpch_database,
    tpch_workload,
)
from repro.errors import ReproError
from repro.service.client import AdvisorClient
from repro.service.context import index_to_spec, serialize_result

JOB_CONTEXT = "sales"
INTERACTIVE_CONTEXT = "tpch"
BUDGET = 0.2
THINK_SECONDS = 0.02
IDLE_SECONDS = 0.4
QUESTIONS = 24
RETUNE_PHASES = (1, 2)
#: Client 2's latencies are reported as measured, not at the reference
#: host speed: beside a job they are set by the interpreter's 5 ms GIL
#: switch interval, not by how fast anything computes (scaling them made
#: them six times less steady).
UNSCALED = 1.0
#: the CLI's ``serve`` defaults, which the reference databases mirror.
SELECT_WEIGHT, INSERT_WEIGHT = 5.0, 1.0


class Mirror:
    """Load-generator-side copy of one served context: draws the
    questions and computes the answers the server must give."""

    def __init__(self, name: str, database, workload, seed: int) -> None:
        self.name = name
        self.database = database
        self.workload = workload
        asker = Asker(database, workload)
        rng = Random(f"{name}-{seed}")
        self.questions = []
        for i in range(QUESTIONS):
            picks = rng.sample(asker.candidates, 3)
            if i % 2:
                self.questions.append((
                    "estimate_size", {"index": index_to_spec(picks[0])},
                    "est_bytes", asker.estimate(picks[0]).est_bytes,
                ))
            else:
                si = rng.randrange(len(workload))
                self.questions.append((
                    "whatif_cost",
                    {"statement_index": si,
                     "indexes": [index_to_spec(ix) for ix in picks]},
                    "total", asker.whatif(si, picks).total,
                ))
        self._next = 0

    def next_question(self):
        question = self.questions[self._next % QUESTIONS]
        self._next += 1
        return question


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_dir: Path, scale: float, traced: bool) -> None:
        self.cache_dir = cache_dir
        self.dump_path = cache_dir.with_suffix(".spans.json")
        serve = ["serve", "--dataset", "both", "--scale", str(scale),
                 "--port", "0", "--cache-dir", str(cache_dir)]
        if traced:
            command = [sys.executable, str(LEDGER_DIR / "traced_serve.py"),
                       str(self.dump_path), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        self.traced = traced
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True)
        self.port = self._read_port()

    def _read_port(self) -> int:
        line = self.proc.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise ReproError(f"server did not come up: {line!r}")
        return int(match.group(1))

    def stop(self) -> dict | None:
        """SIGTERM, wait, and return the traced server's totals."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.traced and self.dump_path.exists():
            return json.loads(self.dump_path.read_text())
        return None

    def journal_bytes(self) -> int:
        root = self.cache_dir / "jobs-journal"
        return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


class Load:
    """The two clients and what they recorded."""

    def __init__(self, h: Harness, seed: int, mirrors: dict) -> None:
        self.h = h
        self.seed = seed
        self.mirrors = mirrors
        self.client: AdvisorClient | None = None
        self.job_seeds = iter(range(seed * 1000, seed * 1000 + 1000))
        self.snapshots: list[tuple[dict, float]] = []
        self.improvements: list[float] = []
        self.pinned: dict | None = None

    # -- client 2 -------------------------------------------------------
    async def ask(self, mirror: Mirror) -> float | None:
        """One interactive question; its latency, or None on failure
        (non-200, or an answer other than the reference)."""
        kind, payload, field, expected = mirror.next_question()
        self.h.attempted += 1
        start = time.perf_counter()
        try:
            reply = await getattr(self.client, kind)(mirror.name, **payload)
        except (ReproError, OSError) as exc:
            self.h.fail(f"{kind} refused: {exc}")
            return None
        latency = time.perf_counter() - start
        if reply.get(field) != expected:
            self.h.fail(f"{kind} answered {reply.get(field)!r}, "
                        f"reference {expected!r}")
            return None
        return latency

    async def think_loop(self, mirror: Mirror, stop: asyncio.Event,
                         latencies: list) -> None:
        while not stop.is_set():
            latency = await self.ask(mirror)
            if latency is not None:
                latencies.append(latency)
            try:
                await asyncio.wait_for(stop.wait(), THINK_SECONDS)
            except asyncio.TimeoutError:
                pass

    async def idle_burst(self, unit: int) -> None:
        mirror = self.mirrors[INTERACTIVE_CONTEXT]
        latencies = []
        start = time.perf_counter()
        while time.perf_counter() - start < IDLE_SECONDS:
            latency = await self.ask(mirror)
            if latency is not None:
                latencies.append(latency)
        elapsed = time.perf_counter() - start
        self.h.samples.extend(
            Sample("idle", t, UNSCALED, unit) for t in latencies
        )
        self.h.samples.append(
            Sample("idle_rps", len(latencies) / elapsed, UNSCALED, unit)
        )

    # -- client 1 -------------------------------------------------------
    async def job(self, payload: dict) -> tuple[float, dict] | None:
        """Submit, follow the event stream to its end, fetch the
        snapshot.  The wall is POST sent -> terminal event received."""
        self.h.attempted += 1
        start = time.perf_counter()
        try:
            submitted = await self.client.submit_job(JOB_CONTEXT, **payload)
            seqs = [
                event["seq"]
                async for event in self.client.stream_events(submitted["id"])
            ]
            wall = time.perf_counter() - start
            received = time.time()
            snapshot = await self.client.job(submitted["id"])
        except (ReproError, OSError, asyncio.IncompleteReadError) as exc:
            self.h.fail(f"{payload['kind']} job refused or lost: {exc}")
            return None
        if snapshot["state"] != "done":
            self.h.fail(f"job {snapshot['id']} ended {snapshot['state']}: "
                        f"{snapshot.get('error')}")
            return None
        self.h.check(seqs == list(range(1, len(seqs) + 1)),
                     f"job {snapshot['id']} event seqs have gaps: {seqs}")
        result = snapshot["result"]["result"]
        self.h.check(result["consumed_bytes"] <= result["budget_bytes"],
                     f"job {snapshot['id']} is over budget")
        self.h.check(result["final_cost"] <= result["base_cost"],
                     f"job {snapshot['id']} is worse than untuned")
        self.snapshots.append((snapshot, received))
        return wall, snapshot

    async def timed_jobs(self, kind: str, unit: int, payloads: list,
                         beside: str, busy_kind: str) -> list | None:
        """``payloads`` as jobs one after the other (the sample is
        their mean wall), with client 2 asking context ``beside``
        meanwhile.  None when any of them failed."""
        start = time.perf_counter()
        stop, latencies = asyncio.Event(), []
        thinker = asyncio.create_task(
            self.think_loop(self.mirrors[beside], stop, latencies)
        )
        try:
            done = [await self.job(payload) for payload in payloads]
        finally:
            stop.set()
            await thinker
        if None in done:
            return None
        self.h.record(kind, unit, start, time.perf_counter(), len(done),
                      seconds=sum(wall for wall, _ in done))
        self.h.samples.extend(
            Sample(busy_kind, t, UNSCALED, unit) for t in latencies
        )
        return [snapshot for _, snapshot in done]

    def tune_payload(self, seed: int) -> dict:
        return {"kind": "tune", "budget_fraction": BUDGET,
                "variant": VARIANT, "seed": seed}

    async def unit(self, unit: int, traced: bool) -> None:
        await self.idle_burst(unit)
        payload = self.tune_payload(next(self.job_seeds))
        cold = await self.timed_jobs("cold", unit, [payload],
                                     INTERACTIVE_CONTEXT, "interactive")
        if cold is None:
            return
        result = cold[0]["result"]["result"]
        self.improvements.append(100.0 * result["improvement"])
        rerun = await self.timed_jobs("rerun", unit, [payload],
                                      INTERACTIVE_CONTEXT, "interactive")
        if rerun is not None:
            self.h.check(rerun[0]["result"]["result"] == result,
                         "rerun job recommends something else than cold")
        # Traced runs point client 2 at the job's own context during
        # retunes: how long a question waits behind a job on its lane.
        beside, busy_kind = (
            (JOB_CONTEXT, "same_context") if traced
            else (INTERACTIVE_CONTEXT, "interactive")
        )
        await self.timed_jobs("retune", unit, [
            {**payload, "kind": "retune",
             "drift": {"phase": k},
             "from_config": result["indexes"]}
            for k in RETUNE_PHASES
        ], beside, busy_kind)

    # -- set-up ---------------------------------------------------------
    async def warm_up(self) -> None:
        """What a client pays once per server: the first job and the
        first answer to every question (samples drawn, sizes estimated,
        statistics built)."""
        await self.client.healthz()
        done = await self.job(self.tune_payload(self.seed))
        self.pinned = done[1] if done else None
        for mirror in self.mirrors.values():
            for _ in range(QUESTIONS):
                await self.ask(mirror)

    def check_pinned(self) -> None:
        """The warm-up job, byte for byte, against the library."""
        if self.pinned is None:
            return
        mirror = self.mirrors[JOB_CONTEXT]
        reference = serialize_result(Session(
            mirror.database, mirror.workload, variant=VARIANT,
            budget_fraction=BUDGET, seed=self.seed,
        ).tune())["result"]
        served = self.pinned["result"]["result"]
        self.h.check(
            json.dumps(served, sort_keys=True)
            == json.dumps(reference, sort_keys=True),
            "pinned served job differs from serialize_result(Session.tune())",
        )


def service_facts(h: Harness, load: Load, server: Server, stats: dict,
                  dump: dict | None) -> None:
    """Per-layer facts of the served path, from job snapshots,
    ``/v1/stats``, the journal directory and the traced server."""
    jobs = [snap for snap, _ in load.snapshots]
    facts = h.facts
    facts["service.queue_wait_ms"] = 1000 * statistics.median(
        j["started"] - j["created"] for j in jobs)
    facts["service.execute_s"] = statistics.median(
        j["finished"] - j["started"] for j in jobs)
    facts["service.stream_tail_ms"] = 1000 * statistics.median(
        received - j["finished"] for j, received in load.snapshots)
    journal = stats["jobs"].get("journal", {})
    # This server's life, warm-up job included.
    served = max(1, stats["jobs"]["finished"]["done"])
    facts["service.journal_appends"] = journal.get("appended", 0) / served
    facts["service.journal_bytes"] = server.journal_bytes() / served
    facts["service.coalesced"] = sum(stats["coalesced"].values())
    facts["service.rejected"] = stats["rejected"]
    facts["service.jobs_done"] = stats["jobs"]["finished"]["done"]
    facts["service.jobs_failed"] = stats["jobs"]["finished"]["failed"]
    meta = jobs[-1]["result"]["meta"]
    delta = meta.get("delta_stats", {})
    facts["optimizer.full_recosts"] = delta.get("full_recosts", 0)
    facts["optimizer.pruned_bound"] = delta.get("pruned_bound", 0)
    facts["parallel.cost_cache_hit_share"] = \
        meta.get("cost_cache_stats", {}).get("hit_rate", 0.0)
    facts["parallel.est_cache_hit_share"] = \
        meta.get("cache_stats", {}).get("hit_rate", 0.0)
    facts["parallel.cache_bytes"] = sum(
        f.stat().st_size for f in server.cache_dir.glob("*.json"))
    if dump is None:
        return
    totals, counts = dump["totals"], dump["counts"]
    h.server_totals = totals
    h.server_counts = counts
    h.server_jobs = counts.get("service.jobs_executed", 0)
    execute = sum(j["finished"] - j["started"] for j in jobs)
    if execute:
        facts["trace.coverage"] = \
            totals.get("service.run_tune", [0, 0, 0.0])[2] / execute
    exec_ms = []
    for span, metric in (("service.whatif_exec", "service.whatif_exec_ms"),
                         ("service.estimate_exec",
                          "service.estimate_exec_ms")):
        _self, calls, total = totals.get(span, [0.0, 0, 0.0])
        facts[metric] = 1000 * total / calls if calls else 0.0
        exec_ms.append(facts[metric])
    idle = h.stat("idle", traced=True)
    if idle:
        facts["service.http_overhead_ms"] = \
            1000 * idle["p50"] - statistics.mean(exec_ms)


async def drive(h: Harness, args, scratch: Path) -> None:
    scale = 0.05 if args.quick else 0.1
    sales = sales_database(scale=scale)
    tpch = tpch_database(scale=scale)
    mirrors = {
        JOB_CONTEXT: Mirror(JOB_CONTEXT, sales, sales_workload(
            sales, select_weight=SELECT_WEIGHT,
            insert_weight=INSERT_WEIGHT), args.seed),
        INTERACTIVE_CONTEXT: Mirror(INTERACTIVE_CONTEXT, tpch, tpch_workload(
            tpch, select_weight=SELECT_WEIGHT,
            insert_weight=INSERT_WEIGHT), args.seed),
    }
    load = Load(h, args.seed, mirrors)

    # Set-up is a server boot plus warm-up, repeated so that its median
    # can be reported.  A trace run measures its untraced reference on
    # the last stock boot, then boots the traced server.
    boots = (2 if args.trace else 1) if args.quick else 3
    unit = 0
    for boot in range(boots):
        last = boot == boots - 1
        traced = bool(args.trace) and last
        start = time.perf_counter()
        server = Server(scratch / f"server-{boot}", scale, traced)
        load.snapshots.clear()
        try:
            load.client = AdvisorClient(port=server.port, retries=0)
            await load.warm_up()
            h.record("setup", -1, start, time.perf_counter())
            seconds = 0.0
            if last:
                seconds = args.seconds * (2 / 3 if args.trace else 1)
                h.traced_from = unit if args.trace else 0
            elif args.trace and boot == boots - 2:
                seconds = args.seconds / 3
            if seconds:
                h.start_clock(seconds)
                while True:
                    started = time.perf_counter()
                    await load.unit(unit, traced)
                    h.unit_walls.append(time.perf_counter() - started)
                    unit += 1
                    if not h.time_for_another():
                        break
            stats = await load.client.stats() if last else None
        finally:
            dump = server.stop()
        if last and load.snapshots:
            service_facts(h, load, server, stats, dump)
    load.check_pinned()
    if load.improvements:
        h.end_facts["improvement_pct"] = statistics.mean(load.improvements)
    h.end_facts["peak_rss_mb"] = children_rss_mb()


def run(args, scratch: Path) -> int:
    h = Harness(args)
    try:
        asyncio.run(drive(h, args, scratch))
    except (ReproError, OSError) as exc:
        h.fail(f"serve-mixed could not run: {exc}")
    # Served-only statistics of client 2.
    for metric, kind, scale, pick in (
        ("service.interactive_idle_rps", "idle_rps", 1.0, "p50"),
        ("service.interactive_idle_p50_ms", "idle", 1000.0, "p50"),
        ("service.same_context_wait_ms", "same_context", 1000.0, "p50"),
    ):
        stat = h.stat(kind, traced=True if args.trace else None)
        if stat:
            h.facts[metric] = stat[pick] * scale
    busy = h.of_kind("interactive", traced=True if args.trace else None)
    if len(busy) >= 20:
        h.facts["service.interactive_busy_p95_ms"] = 1000 * \
            statistics.quantiles([s.value for s in busy], n=20)[-1]
    return h.finish()
