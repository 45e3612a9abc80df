"""The job state machine against a stateful model.

One hypothesis ``RuleBasedStateMachine`` drives three journal writers —
a coordinator and two workers sharing one journal directory — through
the transitions the tier can make (``repro.service.jobs``: ``announce``
/ ``start`` / ``emit`` / ``finish`` / ``requeue``, the same functions
the manager and the worker call), each writer acting on *its own,
possibly stale* view, and delivers the records to the views late, out
of order, twice, and across restarts.  Every view is kept by the one
fold, :meth:`JobJournal.apply`; the oracle is :func:`reference` below,
which recomputes a job from the *set* of its records with no
incremental state, so order and repetition cannot matter to it.

Invariants, checked after every rule:

* every view equals the reference fold of the records delivered to it
  (so folding is commutative and idempotent under re-delivery);
* a restart — ``replay()`` of the directory into a fresh map — equals
  the reference fold of everything written, and equals the live
  coordinator view on every durable field once that view has caught up;
* terminal is absorbing within an attempt, and ``(attempt,
  state-rank)`` never decreases in any view;
* the visible event log is ``seq`` 1..N, gapless, and a caught-up view
  holds nothing back.

The bound that holds for events (pinned here, recorded under ROADMAP
direction 5): two writers that stamp the *same* seq with different
content — a coordinator taking over a job whose worker is stalled, not
dead — resolve first-delivered-wins, because a streamer may already
have been sent that seq.  The model therefore requires each visible
event to be *one of* the events written under its seq, and exactly it
when only one was.

Pure in-memory plus ``tmp_path`` segments: no sockets, threads, event
loops or sleeps; the clock the transitions read is the model's.
"""

import itertools
import json
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
from repro.service.journal import STATE_RANK, JobJournal

WRITERS = ("coordinator", "worker-a", "worker-b")
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


def key(raw):
    return json.dumps(raw, sort_keys=True)


class Writer:
    """One process's handle on the tier: its journal segment, its
    folded view, and every record that view has been shown."""

    def __init__(self, root, name, log):
        self.name = name
        # Small segments: rotation renames them under the readers,
        # whose next tail re-reads the sealed file from the top.
        self.journal = JobJournal(str(root), name, max_segment_bytes=600)
        self.view = {}
        self.shown = []
        self.log = log  # every record any writer appended

    def write(self, kind, *fields, **marks):
        raw = getattr(self.journal, "append_" + kind)(*fields, **marks)
        self.log.append(raw)
        self.show(raw)
        return raw

    def show(self, raw):
        JobJournal.apply(self.view, raw)
        self.shown.append(raw)


class FoldModel(RuleBasedStateMachine):
    base = None  # a tmp_path, set by the test below
    runs = itertools.count()
    ticks = None  # the clock the transitions read, reset per run

    def __init__(self):
        super().__init__()
        self.root = self.base / f"run-{next(self.runs)}"
        self.log = []
        self.writers = {
            name: Writer(self.root, name, self.log) for name in WRITERS
        }
        self.high = {}  # (writer, job) -> highest (attempt, rank) seen
        FoldModel.ticks = itertools.count(1)

    def teardown(self):
        for writer in self.writers.values():
            writer.journal.close()

    # -- choosing who acts on what --------------------------------------
    def pick(self, data, who, *states):
        """``(writer, image)`` for one of the writers ``who`` and a job
        that writer believes is in one of ``states`` — its view may be
        stale — or None when nobody believes so."""
        believed = [
            (self.writers[name], image)
            for name in who
            for _, image in sorted(self.writers[name].view.items())
            if image.kind is not None and image.state in states
        ]
        return data.draw(st.sampled_from(believed)) if believed else None

    def jobs_exist(self):
        return bool(self.writers["coordinator"].view)

    # -- the coordinator's own transitions ------------------------------
    @rule(retries=st.integers(0, 2))
    def submit(self, retries):
        writer = self.writers["coordinator"]
        job_id = "job-%06d" % (len(writer.view) + 1)
        writer.write("submit", job_id, "tune", "alpha", {"n": job_id},
                     "t", "normal", jobs.time.time(), retries=retries,
                     retry_backoff=0.5)
        jobs.announce(writer.write, writer.view[job_id], "queued")

    @precondition(jobs_exist)
    @rule(data=st.data())
    def cancel(self, data):
        picked = self.pick(data, WRITERS[:1], "queued", "running")
        if picked:
            jobs.finish(picked[0].write, picked[1], "cancelled",
                        error=jobs.CANCELLED_QUEUED)

    @precondition(jobs_exist)
    @rule(data=st.data())
    def orphan_requeue(self, data):
        """The watchdog's takeover of a job it believes orphaned —
        whether or not its worker is really gone."""
        picked = self.pick(data, WRITERS[:1], "running")
        if picked and picked[1].attempt < picked[1].retries:
            jobs.requeue(picked[0].write, picked[1],
                         "worker died mid-run")

    # -- a worker's transitions (any writer may play worker) ------------
    @precondition(jobs_exist)
    @rule(data=st.data(), name=st.sampled_from(WRITERS),
          fresh=st.booleans())
    def claim_running(self, data, name, fresh):
        """As ``JobWorker.run_once`` does: tail, then claim something
        the fresh view says is queued — or, stalled between its tail
        and its claim, something a stale view still says is."""
        if fresh:
            self.deliver(data, self.writers[name])
        picked = self.pick(data, [name], "queued")
        if picked:
            jobs.start(picked[0].write, picked[1])

    @precondition(jobs_exist)
    @rule(data=st.data())
    def progress(self, data):
        picked = self.pick(data, WRITERS, "running")
        if picked:
            jobs.emit(picked[0].write, picked[1], {"event": "phase"})

    @precondition(jobs_exist)
    @rule(data=st.data())
    def retry_requeue(self, data):
        picked = self.pick(data, WRITERS, "running")
        if picked and picked[1].attempt < picked[1].retries:
            jobs.requeue(picked[0].write, picked[1], "transient boom")

    @precondition(jobs_exist)
    @rule(data=st.data())
    def deadline_fail(self, data):
        picked = self.pick(data, WRITERS, "queued", "running")
        if picked:
            jobs.finish(picked[0].write, picked[1], "failed",
                        error="deadline", timeout=True)

    @precondition(jobs_exist)
    @rule(data=st.data(), ok=st.booleans())
    def finish(self, data, ok):
        picked = self.pick(data, WRITERS, "running")
        if not picked:
            return
        writer, image = picked
        if ok:
            # Deterministic per job: any attempt that completes writes
            # the same bytes (the determinism contract).
            jobs.finish(writer.write, image, "done",
                        result={"answer": image.id})
        else:
            jobs.finish(writer.write, image, "failed",
                        error=f"boom from {writer.name}")

    # -- delivery: late, shuffled, repeated, across a restart -----------
    def deliver(self, data, writer):
        """``writer`` reads what the others appended since it last
        looked — and folds it in whatever order it arrives (two
        writers' records in either order; events ``2,1,3``)."""
        for raw in data.draw(st.permutations(writer.journal.refresh())):
            writer.show(raw)

    @rule(data=st.data(), name=st.sampled_from(WRITERS))
    def tail(self, data, name):
        self.deliver(data, self.writers[name])

    @rule(data=st.data())
    def redeliver(self, data):
        """Any earlier record again (what a segment rotation or a
        healed read offset does): nothing may change."""
        writer = self.writers[data.draw(st.sampled_from(WRITERS))]
        if not writer.shown:
            return
        raw = data.draw(st.sampled_from(writer.shown))
        before = {job: self.durable(image)
                  for job, image in writer.view.items()}
        JobJournal.apply(writer.view, raw)
        assert before == {job: self.durable(image)
                          for job, image in writer.view.items()}

    @rule(name=st.sampled_from(WRITERS))
    def restart(self, name):
        """The process dies and boots again: its view is ``replay()``
        into a fresh map, its offsets primed past what replay read."""
        old = self.writers[name]
        old.journal.close()
        new = self.writers[name] = Writer(self.root, name, self.log)
        new.view = new.journal.replay()
        new.journal.refresh()
        new.shown = list(self.log)

    # -- invariants -----------------------------------------------------
    @staticmethod
    def durable(image):
        return {field: getattr(image, field)
                for field in STATE_FIELDS + SUBMIT_FIELDS} | {
            "events": [dict(event) for event in image.events],
            "held": sorted(image._early),
        }

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
            # The visible log is 1..N, and each event is one that was
            # written under its seq (the one, when only one was).
            assert [e["seq"] for e in image.events] == \
                list(range(1, visible + 1))
            for event in image.events:
                assert event in [
                    r["event"] for r in by_job[job_id]
                    if r["rec"] == "event"
                    and r["event"]["seq"] == event["seq"]
                ]

    @invariant()
    def every_view_is_the_reference_fold_of_what_it_was_shown(self):
        for writer in self.writers.values():
            self.check(writer.view, writer.shown)

    @invariant()
    def restart_equals_reference_and_a_caught_up_live_view(self):
        restarted = JobJournal(str(self.root), "reader").replay()
        self.check(restarted, self.log)
        for image in restarted.values():
            assert image.seq_gapless()
        live = self.writers["coordinator"]
        if {key(raw) for raw in live.shown} == {key(raw) for raw in self.log}:
            for job_id, image in restarted.items():
                got, want = self.durable(live.view[job_id]), \
                    self.durable(image)
                # Same-seq events from two writers are first-delivered-
                # wins (see the module docstring): compare their seqs.
                for side in (got, want):
                    side["events"] = [e["seq"] for e in side["events"]]
                assert got == want, job_id

    @invariant()
    def attempt_and_rank_never_decrease(self):
        for name, writer in self.writers.items():
            for job_id, image in writer.view.items():
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
