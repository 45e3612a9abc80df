"""The job state machine against a stateful model.

One hypothesis ``RuleBasedStateMachine`` drives the journal's one
writer — the serving process — through the transitions the tier can
make (``repro.service.jobs``: ``announce`` / ``start`` / ``emit`` /
``finish`` / ``requeue``, the same functions the manager calls), across
restarts (``replay()``, boot compaction, and the ``recovered`` failure
of every job that was running).  At each boot part of the log is first
sealed into a hand-written ``segment-coordinator.r0001.jsonl``, as an
older version's segment rotation left it, so replay reads the live
segment before the sealed one — out of write order.  Its records also
reach a second view *late, out of order and twice*: what any reader of
a directory whose segments arrive in arbitrary order must tolerate.
Every view is kept by the one fold, :meth:`JobJournal.apply`; the oracle
is :func:`reference` below, which recomputes a job from the *set* of its
records with no incremental state, so order and repetition cannot
matter to it.

Invariants, checked after every rule:

* every view equals the reference fold of the records delivered to it
  (so folding is commutative and idempotent under re-delivery), and a
  view shown every record equals the writer's own on every durable
  field;
* a restart — ``replay()`` of the directory into a fresh map — equals
  the reference fold of everything written;
* attempt precedence and the rank/ts tie-break (records a journal of
  the multi-writer version may hold included): ``(attempt,
  state-rank)`` never decreases in any view, whatever the delivery
  order;
* the visible event log is ``seq`` 1..N, gapless, each event exactly
  the one written under its seq, and a caught-up view holds nothing
  back.

Pure in-memory plus ``tmp_path`` segments: no sockets, threads, event
loops or sleeps; the clock the transitions read is the model's.
"""

import itertools
import types

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.service import jobs
from repro.service.journal import SEGMENT, STATE_RANK, JobJournal

STATE_FIELDS = ("state", "attempt", "started", "finished", "error",
                "timeout", "recovered", "not_before", "result")
SUBMIT_FIELDS = ("kind", "context", "payload", "tenant", "priority",
                 "created", "deadline_s", "retries", "retry_backoff")


def reference(records):
    """What a job's records say, by definition."""
    states = [r for r in records if r["rec"] == "state"]
    attempt = max((r.get("attempt", 0) for r in states), default=0)
    current = [r for r in states if r.get("attempt", 0) == attempt]
    won = max(current, default={"state": "queued", "ts": None},
              key=lambda r: (STATE_RANK[r["state"]], -r["ts"], r["state"]))
    running = [r["ts"] for r in current if r["state"] == "running"]
    seqs = {r["event"]["seq"] for r in records if r["rec"] == "event"}
    results = [r["result"] for r in records if r["rec"] == "result"]
    return {
        "state": won["state"], "attempt": attempt,
        "started": min(running, default=None),
        "finished": won["ts"] if STATE_RANK[won["state"]] == 2 else None,
        "error": won.get("error"), "timeout": won.get("timeout", False),
        "recovered": won.get("recovered", False),
        "not_before": won.get("not_before"),
        "result": results[-1] if results else None,
        "events": next(n for n in itertools.count() if n + 1 not in seqs),
    }


def durable(image):
    return {field: getattr(image, field)
            for field in STATE_FIELDS + SUBMIT_FIELDS} | {
        "events": [dict(event) for event in image.events],
        "held": sorted(image._early),
    }


class FoldModel(RuleBasedStateMachine):
    base = None  # a tmp_path, set by the test below
    runs = itertools.count()
    ticks = None  # the clock the transitions read, reset per run

    def __init__(self):
        super().__init__()
        self.root = self.base / f"run-{next(self.runs)}"
        self.log = []  # every record the writer appended
        self.boot()
        #: the second view: records delivered late, shuffled, repeated.
        self.reader = {}
        self.delivered = []
        self.high = {}  # (view, job) -> highest (attempt, rank) seen
        FoldModel.ticks = itertools.count(1)

    def boot(self, sealed=0):
        """Open the journal as a booting process does, after moving the
        live segment's first ``sealed`` lines into a sealed segment:
        replay then reads the live segment before the sealed one."""
        live = self.root / SEGMENT
        if sealed and live.exists():
            lines = live.read_bytes().splitlines(keepends=True)
            (self.root / SEGMENT.replace(".jsonl", ".r0001.jsonl")) \
                .write_bytes(b"".join(lines[:sealed]))
            live.write_bytes(b"".join(lines[sealed:]))
        self.journal = JobJournal(str(self.root))
        self.view = self.journal.replay()

    def teardown(self):
        self.journal.close()

    def write(self, kind, *fields, **marks):
        """The writer's sink, as the manager's: append, then fold."""
        raw = getattr(self.journal, "append_" + kind)(*fields, **marks)
        self.log.append(raw)
        JobJournal.apply(self.view, raw)
        return raw

    def pick(self, data, *states):
        """A job the writer's view has in one of ``states``, or None."""
        jobs_in = [image for _, image in sorted(self.view.items())
                   if image.kind is not None and image.state in states]
        return data.draw(st.sampled_from(jobs_in)) if jobs_in else None

    def jobs_exist(self):
        return bool(self.view)

    # -- the writer's transitions ---------------------------------------
    @rule(retries=st.integers(0, 2))
    def submit(self, retries):
        job_id = "job-%06d" % (len(self.view) + 1)
        self.write("submit", job_id, "tune", "alpha", {"n": job_id},
                   "t", "normal", jobs.time.time(), retries=retries,
                   retry_backoff=0.5)
        jobs.announce(self.write, self.view[job_id], "queued")

    @precondition(jobs_exist)
    @rule(data=st.data())
    def cancel(self, data):
        image = self.pick(data, "queued", "running")
        if image:
            jobs.finish(self.write, image, "cancelled",
                        error=jobs.CANCELLED_QUEUED)

    @precondition(jobs_exist)
    @rule(data=st.data())
    def start(self, data):
        image = self.pick(data, "queued")
        if image:
            jobs.start(self.write, image)

    @precondition(jobs_exist)
    @rule(data=st.data())
    def progress(self, data):
        image = self.pick(data, "running")
        if image:
            jobs.emit(self.write, image, {"event": "phase"})

    @precondition(jobs_exist)
    @rule(data=st.data())
    def retry_requeue(self, data):
        image = self.pick(data, "running")
        if image and image.attempt < image.retries:
            jobs.requeue(self.write, image, "transient boom")

    @precondition(jobs_exist)
    @rule(data=st.data())
    def deadline_fail(self, data):
        image = self.pick(data, "queued", "running")
        if image:
            jobs.finish(self.write, image, "failed",
                        error="deadline", timeout=True)

    @precondition(jobs_exist)
    @rule(data=st.data(), ok=st.booleans())
    def finish(self, data, ok):
        image = self.pick(data, "running")
        if not image:
            return
        if ok:
            # Deterministic per job: any attempt that completes writes
            # the same bytes (the determinism contract).
            jobs.finish(self.write, image, "done",
                        result={"answer": image.id})
        else:
            jobs.finish(self.write, image, "failed", error="boom")

    @precondition(jobs_exist)
    @rule(data=st.data(), back=st.integers(0, 4), revive=st.booleans())
    def older_version_record(self, data, back, revive):
        """A record only the multi-writer version wrote, which a journal
        directory it left behind may hold: a second terminal decision
        of the same attempt (a worker's and its coordinator's), stamped
        earlier or later than the first, or a requeue of an attempt
        that already failed.  Appended as-is, past the transitions'
        guards: the fold must still decide by attempt, then rank, then
        earliest ``ts``."""
        image = self.pick(data, "done", "failed", "cancelled")
        if not image:
            return
        ts = jobs.time.time() - back - 0.5
        if revive:
            self.write("state", image.id, "queued", ts,
                       attempt=image.attempt + 1, not_before=ts + 1)
        else:
            state = data.draw(st.sampled_from(("done", "failed",
                                               "cancelled")))
            self.write("state", image.id, state, ts,
                       attempt=image.attempt, error="older version")

    @rule(sealed=st.integers(1, 40))
    def restart(self, sealed):
        """The process dies and boots again, as ``JobManager.recover``
        does: replay (the first ``sealed`` lines sealed aside), compact
        every job into one segment, fail what was running."""
        self.journal.close()
        self.boot(sealed)
        self.journal.compact(frozenset(self.view))
        for _, image in sorted(self.view.items()):
            if image.state == "running":
                jobs.finish(self.write, image, "failed", recovered=True,
                            error="interrupted by service restart")

    # -- the second view: late, shuffled, repeated ----------------------
    @rule(data=st.data())
    def deliver(self, data):
        """Some of what was written since the last delivery, in any
        order, each possibly twice (events arrive ``2,1,3``)."""
        fresh = self.log[len(self.delivered):]
        batch = fresh[:data.draw(st.integers(0, len(fresh)))]
        self.delivered.extend(batch)
        repeats = data.draw(st.lists(st.sampled_from(batch), max_size=3)) \
            if batch else []
        for raw in data.draw(st.permutations(batch + repeats)):
            JobJournal.apply(self.reader, raw)

    @rule(data=st.data())
    def redeliver(self, data):
        """Any earlier record again: nothing may change."""
        if not self.delivered:
            return
        raw = data.draw(st.sampled_from(self.delivered))
        before = {job: durable(image)
                  for job, image in self.reader.items()}
        JobJournal.apply(self.reader, raw)
        assert before == {job: durable(image)
                          for job, image in self.reader.items()}

    # -- invariants -----------------------------------------------------
    def check(self, view, records):
        """``view`` is the reference fold of ``records``."""
        by_job = {}
        for raw in records:
            by_job.setdefault(raw["job"], []).append(raw)
        assert sorted(view) == sorted(by_job)
        for job_id, image in view.items():
            want = reference(by_job[job_id])
            visible = want.pop("events")
            got = {field: getattr(image, field) for field in want}
            assert got == want, (job_id, got, want)
            # The visible log is 1..N, each event the one written
            # under its seq.
            assert [e["seq"] for e in image.events] == \
                list(range(1, visible + 1))
            for event in image.events:
                assert [event] == [
                    r["event"] for r in by_job[job_id]
                    if r["rec"] == "event"
                    and r["event"]["seq"] == event["seq"]
                ]

    @invariant()
    def every_view_is_the_reference_fold_of_what_it_was_shown(self):
        self.check(self.view, self.log)
        self.check(self.reader, self.delivered)

    @invariant()
    def a_caught_up_reader_equals_the_writer(self):
        if len(self.delivered) == len(self.log):
            assert {job: durable(image)
                    for job, image in self.reader.items()} == \
                {job: durable(image) for job, image in self.view.items()}

    @invariant()
    def restart_equals_reference(self):
        restarted = JobJournal(str(self.root)).replay()
        self.check(restarted, self.log)
        for image in restarted.values():
            assert image.seq_gapless()

    @invariant()
    def attempt_and_rank_never_decrease(self):
        for name, view in (("writer", self.view), ("reader", self.reader)):
            for job_id, image in view.items():
                now = (image.attempt, STATE_RANK[image.state])
                assert now >= self.high.get((name, job_id), now), \
                    (name, job_id)
                self.high[name, job_id] = now


def test_job_fold_model(tmp_path, monkeypatch):
    FoldModel.base = tmp_path
    monkeypatch.setattr(jobs, "time", types.SimpleNamespace(
        time=lambda: float(next(FoldModel.ticks))
    ))
    run_state_machine_as_test(FoldModel, settings=settings(deadline=None))
