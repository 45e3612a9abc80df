"""Durable job tier, persistence half: append/replay round-trips,
torn-line tolerance, crash recovery semantics, replay idempotency under
random interleavings, compaction's consistency with the bounded-history
eviction rule, and a journal directory written by the parent version.

The contract under test (see ``repro.service.journal``): every record
the :class:`JobManager` exposes to clients is re-derivable from the
journal alone — a manager rebuilt over the same directory restores
byte-identical snapshots and event logs, re-enqueues ``queued`` work,
marks interrupted ``running`` work ``failed``/``recovered``, and keeps
event ``seq`` numbers gapless across the restart boundary.

These tests run against a stub service (instant executions), so they
exercise the durability machinery, not the advisor; the real-tuning
byte-identity of recovered jobs is covered by
``tests/test_crash_recovery.py``.
"""

import asyncio
import json
import os
import random
import shutil
from pathlib import Path

import pytest

from repro.service.jobs import JobManager, JobRecord
from repro.service.journal import SEGMENT, JobJournal
from repro.service.scheduler import ContextScheduler

#: a journal directory the parent version wrote (see TestFormatHolds).
GOLDEN = Path(__file__).parent / "golden" / "journal"


class StubService:
    """Quacks like AdvisorService as far as JobManager cares: contexts,
    lifecycle flags, a scheduler, and an instant ``_execute``."""

    def __init__(self, journal=None, **manager_kwargs):
        self.contexts = {"alpha": object(), "beta": object()}
        self.started = True
        self._closing = False
        self.max_pending = 64
        self.scheduler = ContextScheduler(max_lanes=2)
        self.executed = []
        self.jobs = JobManager(self, journal=journal, **manager_kwargs)

    def _execute(self, kind, context, payload, lane=None, progress=None):
        if progress is not None:
            progress({"event": "phase", "phase": "work"})
        self.executed.append((kind, context))
        return {"ok": True, "kind": kind, "context": context,
                "payload": payload}

    def shutdown(self):
        self.scheduler.shutdown()
        if self.jobs.journal is not None:
            self.jobs.journal.close()


def run(coro):
    return asyncio.run(coro)


def snapshots(manager):
    return [manager.jobs[i].snapshot() for i in manager._order]


def event_logs(manager):
    return {i: list(manager.jobs[i].events) for i in manager._order}


#: every field :meth:`JobJournal.apply` decides.
DURABLE = ("kind", "context", "payload", "tenant", "priority", "created",
           "deadline_s", "retries", "retry_backoff", "state", "attempt",
           "started", "finished", "error", "timeout", "recovered",
           "not_before", "result", "events")


def durable(image):
    return {field: getattr(image, field) for field in DURABLE}


class TestSegments:
    def test_append_replay_round_trip(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append_submit("job-000001", "tune", "alpha", {"b": 0.1},
                              "t1", "high", 100.0)
        journal.append_event("job-000001", {"event": "state",
                                            "state": "queued", "seq": 1})
        journal.append_state("job-000001", "running", 101.0)
        journal.append_event("job-000001", {"event": "phase",
                                            "phase": "work", "seq": 2})
        journal.append_result("job-000001", {"ok": True})
        journal.append_state("job-000001", "done", 102.0)
        journal.close()

        images = JobJournal(str(tmp_path)).replay()
        image = images["job-000001"]
        assert image.kind == "tune"
        assert image.context == "alpha"
        assert image.payload == {"b": 0.1}
        assert (image.tenant, image.priority) == ("t1", "high")
        assert image.state == "done"
        assert (image.created, image.started, image.finished) == \
            (100.0, 101.0, 102.0)
        assert image.result == {"ok": True}
        assert image.max_seq == 2 and image.seq_gapless()

    def test_terminal_state_outranks_transient(self, tmp_path):
        """Cross-segment merge order must not matter: a terminal state
        read before a stale ``running`` line still wins."""
        journal = JobJournal(str(tmp_path))
        images = {}
        journal.apply(images, {"rec": "submit", "job": "j", "kind": "tune",
                               "context": "alpha", "payload": {}})
        journal.apply(images, {"rec": "state", "job": "j",
                               "state": "done", "ts": 5.0})
        journal.apply(images, {"rec": "state", "job": "j",
                               "state": "running", "ts": 4.0})
        assert images["j"].state == "done"
        assert images["j"].finished == 5.0

    def test_torn_trailing_line_is_ignored_then_reread(self, tmp_path):
        """A partial append (writer killed mid-line) must not poison the
        replay, and the completed line must surface on the next read."""
        journal = JobJournal(str(tmp_path))
        journal.append_submit("job-000001", "tune", "alpha", {}, "t", "normal",
                              1.0)
        journal.close()
        path = os.path.join(str(tmp_path), "segment-coordinator.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"rec":"state","job":"job-000001","sta')  # torn
        image = journal.replay()["job-000001"]
        assert (image.kind, image.state, image.started) == \
            ("tune", "queued", None)
        # The line completes: the next replay reads it.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('te":"running","ts":2.0,"v":1}\n')
        image = journal.replay()["job-000001"]
        assert (image.state, image.started) == ("running", 2.0)

    def test_boot_compaction_drops_a_torn_tail(self, tmp_path):
        """A line torn mid-append ends its segment's replay; the boot
        compaction rewrites the segment without it, so what the next
        life appends is read, not hidden behind the torn bytes."""
        journal = JobJournal(str(tmp_path))
        journal.append_submit("job-000001", "tune", "alpha", {}, "t",
                              "normal", 1.0)
        journal.close()
        path = os.path.join(str(tmp_path), "segment-coordinator.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"rec":"state","job":"job-000001","sta')  # torn
        journal = JobJournal(str(tmp_path))
        journal.compact(frozenset({"job-000001"}))
        journal.append_state("job-000001", "running", 2.0)
        journal.close()
        assert journal.replay()["job-000001"].state == "running"


class TestRecovery:
    def test_restart_restores_identical_state(self, tmp_path):
        """Completed jobs come back with byte-identical snapshots and
        full event logs — ``GET /v1/jobs/<id>/events`` survives the
        restart."""

        async def first_life():
            service = StubService(journal=JobJournal(str(tmp_path)))
            try:
                service.jobs.submit("tune", "alpha", {"x": 1}, tenant="t1")
                service.jobs.submit("sweep", "beta", {"y": 2},
                                    priority="high")
                await service.jobs.drain()
                return snapshots(service.jobs), event_logs(service.jobs)
            finally:
                service.shutdown()

        async def second_life():
            service = StubService(journal=JobJournal(str(tmp_path)))
            try:
                report = service.jobs.recover()
                return report, snapshots(service.jobs), \
                    event_logs(service.jobs)
            finally:
                service.shutdown()

        before, before_events = run(first_life())
        report, after, after_events = run(second_life())
        assert report == {"restored": 2, "requeued": 0, "recovered": 0}
        assert after == before
        assert after_events == before_events
        for events in after_events.values():
            assert [e["seq"] for e in events] == \
                list(range(1, len(events) + 1))

    def test_recover_is_idempotent(self, tmp_path):
        """Recovering twice over the same directory (the journal was
        compacted and re-appended in between) reconstructs the same
        state — replay + compaction is a fixed point."""

        async def life(expect=None):
            service = StubService(journal=JobJournal(str(tmp_path)))
            try:
                if expect is None:
                    service.jobs.submit("tune", "alpha", {"x": 1})
                    await service.jobs.drain()
                else:
                    service.jobs.recover()
                return snapshots(service.jobs)
            finally:
                service.shutdown()

        first = run(life())
        once = run(life(expect=first))
        twice = run(life(expect=once))
        assert once == first
        assert twice == once

    def test_interrupted_running_job_marked_recovered(self, tmp_path):
        """A ``running`` job whose process died fails
        with the ``recovered`` marker, and the failure event continues
        the seq series gap-free."""
        dead = JobJournal(str(tmp_path))
        dead.append_submit("job-000007", "tune", "alpha", {"b": 0.1},
                           "t1", "normal", 50.0)
        dead.append_event("job-000007", {"event": "state",
                                         "state": "queued",
                                         "job": "job-000007", "seq": 1})
        dead.append_state("job-000007", "running", 51.0)
        dead.append_event("job-000007", {"event": "state",
                                         "state": "running",
                                         "job": "job-000007", "seq": 2})
        dead.append_event("job-000007", {"event": "phase",
                                         "phase": "work", "seq": 3})
        dead.close()

        async def scenario():
            service = StubService(journal=JobJournal(str(tmp_path)))
            try:
                report = service.jobs.recover()
                record = service.jobs.get("job-000007")
                return report, record.snapshot(), list(record.events), \
                    service.jobs.stats()
            finally:
                service.shutdown()

        report, snapshot, events, stats = run(scenario())
        assert report["recovered"] == 1
        assert snapshot["state"] == "failed"
        assert snapshot["recovered"] is True
        assert "restart" in snapshot["error"]
        assert [e["seq"] for e in events] == [1, 2, 3, 4]
        assert events[-1]["state"] == "failed"
        assert events[-1]["recovered"] is True
        assert stats["recovered"] == 1

    def test_queued_job_requeues_and_completes(self, tmp_path):
        """A ``queued`` job from the previous life re-runs to ``done``,
        its events continuing seq-gapless past the restored queued
        event."""
        dead = JobJournal(str(tmp_path))
        dead.append_submit("job-000003", "tune", "alpha", {"b": 0.2},
                           "t1", "normal", 60.0)
        dead.append_event("job-000003", {"event": "state",
                                         "state": "queued",
                                         "job": "job-000003", "seq": 1})
        dead.close()

        async def scenario():
            service = StubService(journal=JobJournal(str(tmp_path)))
            try:
                report = service.jobs.recover()
                await service.jobs.drain()
                record = service.jobs.get("job-000003")
                nxt = service.jobs.submit("tune", "alpha", {})
                return report, record.snapshot(), list(record.events), \
                    nxt.id
            finally:
                service.shutdown()

        report, snapshot, events, next_id = run(scenario())
        assert report["requeued"] == 1
        assert snapshot["state"] == "done"
        assert snapshot["result"]["ok"] is True
        assert [e["seq"] for e in events] == \
            list(range(1, len(events) + 1))
        states = [e["state"] for e in events if e["event"] == "state"]
        assert states == ["queued", "running", "done"]
        # The id counter resumes past the restored ids: no reuse.
        assert next_id == "job-000004"

class TestReplayIdempotencyProperty:
    """Randomized submit/cancel/crash interleavings: whatever the
    journal ends up holding, a fresh manager reconstructs exactly the
    state the dying one would have shown — and every restored log is
    seq-gapless."""

    @pytest.mark.parametrize("seed", [101, 202, 303, 404])
    def test_random_interleavings_reconstruct_identical_state(
            self, tmp_path, seed):
        rng = random.Random(seed)

        async def first_life():
            service = StubService(
                journal=JobJournal(str(tmp_path)))
            try:
                records = []
                for step in range(rng.randrange(4, 10)):
                    op = rng.random()
                    if op < 0.6 or not records:
                        records.append(service.jobs.submit(
                            rng.choice(("tune", "sweep")),
                            rng.choice(("alpha", "beta")),
                            {"step": step},
                            tenant=rng.choice(("t1", "t2", "t3")),
                            priority=rng.choice(
                                ("high", "normal", "low")),
                        ))
                    elif op < 0.8:
                        service.jobs.cancel(rng.choice(records).id)
                    else:
                        await asyncio.sleep(0)  # let tasks interleave
                await service.jobs.drain()
                return snapshots(service.jobs), event_logs(service.jobs)
            finally:
                # "Crash": no compaction, no graceful stop — the next
                # life sees the raw append history.
                service.shutdown()

        async def second_life():
            service = StubService(
                journal=JobJournal(str(tmp_path)))
            try:
                service.jobs.recover()
                await service.jobs.drain()
                return snapshots(service.jobs), event_logs(service.jobs)
            finally:
                service.shutdown()

        before, before_events = run(first_life())
        after, after_events = run(second_life())
        # Everything terminal before the crash is reconstructed
        # byte-identically (nothing was left queued/running: drain()
        # ran, so recovery restores rather than re-executes).
        assert after == before
        assert after_events == before_events
        for events in after_events.values():
            assert [e["seq"] for e in events] == \
                list(range(1, len(events) + 1))


class TestCompaction:
    def test_boot_compaction_matches_eviction_bound(self, tmp_path):
        """After recovery with a small ``max_history``, the on-disk
        journal holds exactly the retained ids — disk history and
        in-memory history evict by the same rule."""

        async def first_life():
            service = StubService(
                journal=JobJournal(str(tmp_path)))
            try:
                for i in range(6):
                    service.jobs.submit("tune", "alpha", {"i": i})
                await service.jobs.drain()
            finally:
                service.shutdown()

        async def second_life():
            service = StubService(
                journal=JobJournal(str(tmp_path)),
                max_history=3)
            try:
                service.jobs.recover()
                return list(service.jobs._order)
            finally:
                service.shutdown()

        run(first_life())
        retained = run(second_life())
        assert retained == ["job-%06d" % i for i in (4, 5, 6)]
        images = JobJournal(str(tmp_path)).replay()
        assert sorted(images) == retained
        # One merged segment remains after compaction.
        segments = [n for n in os.listdir(str(tmp_path))
                    if n.startswith("segment-")]
        assert segments == ["segment-coordinator.jsonl"]


class TestStreamTermination:
    def test_terminal_record_with_no_events_ends_stream(self, tmp_path):
        """A terminal record restored with zero events (its submit line
        survived a torn write, its event lines did not) must end the
        stream immediately, not park on ``changed`` forever."""

        async def scenario():
            service = StubService()
            try:
                record = JobRecord("job-000001")
                record.state = "done"
                service.jobs.jobs[record.id] = record
                service.jobs._order.append(record.id)
                events = []
                async for event in service.jobs.stream(record.id):
                    events.append(event)
                return events
            finally:
                service.shutdown()

        assert run(asyncio.wait_for(scenario(), timeout=5)) == []




def fold_live(service, records):
    """The serving process's live view: ``records`` folded through the
    manager's own sink, in the order given, into a tracked record."""
    job_id = records[0]["job"]
    record = service.jobs.jobs.setdefault(job_id, JobRecord(job_id))
    for raw in records:
        service.jobs._fold(raw)
    return record


def seal(journal, n):
    """Seal the live segment under the rotated name an older version
    gave it, ``segment-coordinator.rNNNN.jsonl``; the next append
    starts a fresh live segment."""
    journal.close()
    os.replace(os.path.join(journal.root, SEGMENT),
               os.path.join(journal.root,
                            SEGMENT.replace(".jsonl", f".r{n:04d}.jsonl")))


class TestSegmentRotation:
    """A journal an older version wrote holds rotated (sealed)
    segments beside the live one.  Replay keeps merging them (reading
    the live segment *before* the sealed ones, out of write order), and
    compaction merges them back into one segment.  Each case seals its
    segments by hand."""

    def fill(self, journal, jobs=8):
        """Two jobs per segment: three sealed, the last one live."""
        for i in range(1, jobs + 1):
            job_id = "job-%06d" % i
            journal.append_submit(job_id, "tune", "alpha", {"i": i},
                                  "t", "normal", float(i))
            journal.append_event(job_id, {"event": "state",
                                          "state": "queued", "seq": 1})
            journal.append_state(job_id, "done", float(i) + 0.5)
            if i % 2 == 0 and i < jobs:
                seal(journal, i // 2)
        return ["job-%06d" % i for i in range(1, jobs + 1)]

    def test_rotation_seals_segments_and_replay_merges(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        ids = self.fill(journal)
        assert journal.stats()["segments"] == 4
        # Replay merges sealed + live segments: every job, terminal.
        images = journal.replay()
        assert sorted(images) == ids
        assert all(images[i].state == "done" for i in ids)
        journal.close()

    def test_stale_running_redelivered_after_requeue_is_ignored(
            self, tmp_path):
        """The three-record case: ``running`` @0, a retry requeue @1,
        then the @0 ``running`` again.  Replay meets it when the
        ``running`` line sits in a sealed segment (which sorts after
        the live one); the live view meets it on re-delivery.  Neither
        may move the parked job back to ``running``."""
        journal = JobJournal(str(tmp_path))
        service = StubService(journal=journal)
        try:
            running = journal.append_state("job-000001", "running", 10.0)
            seal(journal, 1)
            requeue = journal.append_state("job-000001", "queued", 11.0,
                                           attempt=1, not_before=11.5)
            assert journal.stats()["segments"] == 2
            record = fold_live(service, [running, requeue, running])
            assert (record.state, record.attempt) == ("queued", 1)
            assert record.not_before == 11.5
            assert service.jobs.stats()["retried"] == 1
            assert durable(record) == durable(
                journal.replay()["job-000001"])
        finally:
            service.shutdown()

    def test_compaction_merges_rotated_segments(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        ids = self.fill(journal)
        journal.compact(frozenset(ids[-2:]))
        segments = [n for n in os.listdir(str(tmp_path))
                    if n.startswith("segment-")]
        assert segments == ["segment-coordinator.jsonl"]
        assert sorted(journal.replay()) == ids[-2:]
        journal.close()

    def test_guardrail_fields_round_trip(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append_submit("job-000001", "tune", "alpha", {},
                              "t", "normal", 1.0, deadline_s=30.0,
                              retries=2, retry_backoff=0.1)
        journal.append_state("job-000001", "failed", 2.0,
                             error="boom")
        journal.append_state("job-000001", "queued", 2.1, attempt=1,
                             not_before=2.6)
        image = journal.replay()["job-000001"]
        assert image.deadline_s == 30.0
        assert image.retries == 2
        assert image.retry_backoff == 0.1
        # The attempt-1 requeue out-ranks the attempt-0 failure.
        assert image.state == "queued"
        assert image.attempt == 1
        assert image.not_before == 2.6
        # ...and revives the job: a queued job has not finished.
        assert image.finished is None
        # A terminal timeout stamp folds with the attempt it ended on.
        journal.append_state("job-000001", "failed", 40.0,
                             error="deadline", attempt=1, timeout=True)
        image = journal.replay()["job-000001"]
        assert image.state == "failed"
        assert image.timeout is True
        journal.close()


class TestLiveViewEqualsReplay:
    """One fold: the live view (the manager folding records as they are
    written) and a restart's ``replay()`` of the same directory agree
    on every durable field, whatever order the records arrive in —
    including the three places two earlier folds disagreed (decisions
    pinned in ``JobJournal.apply``'s docstring)."""

    def live_and_replayed(self, tmp_path, write, reverse=False):
        """``write(append, job_id)`` appends the scenario through
        ``append(kind, *fields, **marks)``; the live view folds the
        records in write order, or back to front."""
        journal = JobJournal(str(tmp_path))
        service = StubService(journal=journal)
        written = [journal.append_submit("job-000001", "tune", "alpha",
                                         {}, "t", "normal", 1.0,
                                         retries=2)]

        def append(kind, *fields, **marks):
            written.append(
                getattr(journal, "append_" + kind)(*fields, **marks))

        try:
            write(append, "job-000001")
            live = fold_live(service,
                             written[::-1] if reverse else written)
            return live, journal.replay()["job-000001"]
        finally:
            service.shutdown()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_two_terminals_of_one_attempt_earliest_wins(
            self, tmp_path, reverse):
        """(a) Not first-delivered, not last-written: the earlier
        decision, wherever it sits.  (A journal from the multi-writer
        version can hold two: a worker's and its coordinator's.)"""

        def write(append, job_id):
            append("state", job_id, "running", 3.0)
            append("state", job_id, "done", 5.0)
            append("state", job_id, "failed", 4.0,
                   error="worker worker-a died mid-run")

        live, replayed = self.live_and_replayed(tmp_path, write, reverse)
        assert (live.state, live.finished) == ("failed", 4.0)
        assert live.error == "worker worker-a died mid-run"
        assert durable(live) == durable(replayed)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_started_is_the_current_attempts(self, tmp_path, reverse):
        """(b) ``started`` of a retried job is when the attempt that
        decides its state started running, live and after a restart."""

        def write(append, job_id):
            append("state", job_id, "running", 10.0)
            append("state", job_id, "queued", 11.0, attempt=1,
                   not_before=11.5)
            append("state", job_id, "running", 20.0, attempt=1)
            append("state", job_id, "done", 21.0, attempt=1)

        live, replayed = self.live_and_replayed(tmp_path, write, reverse)
        assert (live.state, live.attempt) == ("done", 1)
        assert (live.started, live.finished) == (20.0, 21.0)
        assert durable(live) == durable(replayed)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_a_revived_job_has_not_finished(self, tmp_path, reverse):
        """(c) A higher-attempt ``queued`` revives a failed job — live
        too — and clears ``finished``/``error`` with it."""

        def write(append, job_id):
            append("state", job_id, "failed", 2.0, error="boom")
            append("state", job_id, "queued", 2.1, attempt=1,
                   not_before=2.6)

        live, replayed = self.live_and_replayed(tmp_path, write, reverse)
        assert (live.state, live.attempt) == ("queued", 1)
        assert (live.finished, live.error) == (None, None)
        assert live.snapshot()["finished"] is None
        assert durable(live) == durable(replayed)

    def test_events_arriving_2_1_3_are_held_not_dropped(self, tmp_path):
        """An event ahead of a gap is held until the gap fills;
        streamers only ever see the gapless prefix; a duplicate seq
        keeps the first write; a writer continues from the highest seq
        seen, held or not."""
        journal = JobJournal(str(tmp_path))
        service = StubService(journal=journal)
        try:
            first, second, third, fourth = (
                journal.append_event("job-000001", {
                    "event": "phase", "n": seq, "seq": seq})
                for seq in (1, 2, 3, 4)
            )
            record = fold_live(service, [first, third])
            assert [e["seq"] for e in record.events] == [1]
            assert record.max_seq == 3 and not record.seq_gapless()
            fold_live(service, [second])
            assert [e["seq"] for e in record.events] == [1, 2, 3]
            late = journal.append_event("job-000001",
                                        {"event": "late", "seq": 3})
            fold_live(service, [fourth, late])
            assert [e["seq"] for e in record.events] == [1, 2, 3, 4]
            assert record.events[2]["n"] == 3  # first write kept
            assert record.seq_gapless()
            assert service.jobs.events_after(record.id, 2) == \
                record.events[2:]
            assert durable(record) == durable(
                journal.replay()[record.id])
        finally:
            service.shutdown()


class TestFormatHolds:
    #: one job's life as the parent commit wrote it, byte for byte
    #: (sorted keys, compact separators, ``v`` 1; ``append_state``
    #: omits falsy ``attempt``/``timeout``/``recovered``).
    PARENT_LINES = [
        '{"context":"alpha","created":100.0,"deadline_s":30.0,'
        '"job":"job-000001","kind":"tune","payload":{"b":0.1},'
        '"priority":"high","rec":"submit","retries":2,'
        '"retry_backoff":0.25,"tenant":"t1","v":1}',
        '{"event":{"event":"state","job":"job-000001","seq":1,'
        '"state":"queued"},"job":"job-000001","rec":"event","v":1}',
        '{"job":"job-000001","rec":"state","state":"running",'
        '"ts":101.0,"v":1}',
        '{"attempt":1,"job":"job-000001","not_before":102.5,'
        '"rec":"state","state":"queued","ts":102.0,"v":1}',
        '{"attempt":1,"job":"job-000001","rec":"state",'
        '"state":"running","ts":103.0,"v":1}',
        '{"job":"job-000001","rec":"result","result":{"ok":true},"v":1}',
        '{"attempt":1,"job":"job-000001","rec":"state","state":"done",'
        '"ts":104.0,"v":1}',
        '{"error":"deadline","job":"job-000002","rec":"state",'
        '"recovered":true,"state":"failed","timeout":true,"ts":9.0,'
        '"v":1}',
    ]

    def test_parent_written_journal_replays_and_bytes_are_unchanged(
            self, tmp_path):
        """A journal directory written by the parent replays on this
        code, and this code writes the same bytes for the same calls —
        no record gained or lost a key."""
        old = tmp_path / "old"
        old.mkdir()
        (old / "segment-coordinator.jsonl").write_text(
            "\n".join(self.PARENT_LINES) + "\n", encoding="utf-8")
        image = JobJournal(str(old)).replay()["job-000001"]
        assert (image.kind, image.context, image.payload) == \
            ("tune", "alpha", {"b": 0.1})
        assert (image.tenant, image.priority) == ("t1", "high")
        assert (image.deadline_s, image.retries, image.retry_backoff) \
            == (30.0, 2, 0.25)
        assert (image.state, image.attempt) == ("done", 1)
        assert (image.created, image.started, image.finished) == \
            (100.0, 103.0, 104.0)
        assert image.result == {"ok": True}
        assert [e["seq"] for e in image.events] == [1]

        journal = JobJournal(str(tmp_path / "new"))
        journal.append_submit("job-000001", "tune", "alpha", {"b": 0.1},
                              "t1", "high", 100.0, deadline_s=30.0,
                              retries=2, retry_backoff=0.25)
        journal.append_event("job-000001", {
            "event": "state", "state": "queued", "job": "job-000001",
            "seq": 1})
        journal.append_state("job-000001", "running", 101.0)
        journal.append_state("job-000001", "queued", 102.0, attempt=1,
                             not_before=102.5)
        journal.append_state("job-000001", "running", 103.0, attempt=1)
        journal.append_result("job-000001", {"ok": True})
        journal.append_state("job-000001", "done", 104.0, attempt=1)
        journal.append_state("job-000002", "failed", 9.0,
                             error="deadline", recovered=True,
                             timeout=True)
        journal.close()
        written = (tmp_path / "new" / "segment-coordinator.jsonl") \
            .read_text(encoding="utf-8").splitlines()
        assert written == self.PARENT_LINES

    def test_parent_journal_directory_recovers(self, tmp_path):
        """``tests/golden/journal/jobs-journal`` was written by the
        parent version's ``JobJournal``: a coordinator segment, two
        rotated ones and a worker's segment, plus the ``leases/``,
        ``cancel/``, ``writers/`` and ``quarantine/`` files that
        version kept; ``parent_replay.json`` is what the parent's replay
        restored from it.  Here it boots: the finished and the retried
        job come back with the parent's snapshots and event logs, the
        queued job runs, the running job — its old claim file still on
        disk — fails ``recovered`` with its log gapless, and boot
        compaction leaves one segment.  The leftover directories are
        never read and are left as they were."""
        root = tmp_path / "jobs-journal"
        shutil.copytree(GOLDEN / "jobs-journal", root)
        parent = json.loads((GOLDEN / "parent_replay.json").read_text(
            encoding="utf-8"))
        leftovers = {
            path.relative_to(root): path.read_bytes()
            for path in root.rglob("*")
            if path.is_file() and not path.name.startswith("segment-")
        }
        assert {path.parts[0] for path in leftovers} == \
            {"leases", "cancel", "writers", "quarantine"}

        async def scenario():
            service = StubService(journal=JobJournal(str(root)))
            try:
                report = service.jobs.recover()
                segments = sorted(n for n in os.listdir(root)
                                  if n.startswith("segment-"))
                await service.jobs.drain()
                return report, segments, {
                    job_id: (record.snapshot(), list(record.events))
                    for job_id, record in service.jobs.jobs.items()
                }
            finally:
                service.shutdown()

        report, segments, jobs = run(scenario())
        assert report == {"restored": 4, "requeued": 1, "recovered": 1}
        assert segments == ["segment-coordinator.jsonl"]
        for job_id in ("job-000001", "job-000002"):  # finished, retried
            assert jobs[job_id] == (parent[job_id]["snapshot"],
                                    parent[job_id]["events"])
        assert jobs["job-000002"][0]["attempt"] == 1
        for job_id, state in (("job-000003", "done"),
                              ("job-000004", "failed")):
            snapshot, events = jobs[job_id]
            assert snapshot["state"] == state
            assert events[:len(parent[job_id]["events"])] == \
                parent[job_id]["events"]
            assert [e["seq"] for e in events] == \
                list(range(1, len(events) + 1))
        snapshot, events = jobs["job-000004"]
        assert snapshot["recovered"] is True
        assert events[-1]["recovered"] is True
        assert {
            path.relative_to(root): path.read_bytes()
            for path in root.rglob("*")
            if path.is_file() and not path.name.startswith("segment-")
        } == leftovers
