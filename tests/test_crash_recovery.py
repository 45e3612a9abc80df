"""Crash/recovery over the real server binary: ``kill -9`` a serving
process mid-tune, restart it on the same ``--cache-dir``, and assert
the journal contract end to end.

The acceptance criteria (see ``repro.service.journal``): after the
restart, jobs that were ``queued`` at the kill re-enqueue and complete;
the job that was ``running`` comes back ``failed`` with the
``recovered`` marker; every event log is seq-gapless across the
restart boundary; and resubmitting the interrupted payload yields a
result byte-identical to an in-process ``tune()`` — a recovered re-run
is indistinguishable from a cold submission.

This drives ``python -m repro serve`` as a subprocess (the same entry
point the crash-recovery CI job exercises), so it is tier-marked slow.
"""

import json
import os
import re
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.api import tune
from repro.datasets.sales import sales_database, sales_workload
from repro.service import serialize_result

SCALE = 0.02
BOOT_PATTERN = re.compile(r"advisor service: contexts \[.*\] on "
                          r"http://[^:]+:(\d+)")


def _spawn_server(cache_dir, extra=()):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dataset", "sales",
         "--scale", str(SCALE), "--port", "0", "--cache-dir",
         str(cache_dir), "--poll-interval", "0.1", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        text=True,
    )
    deadline = time.time() + 120
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited during boot (rc={proc.poll()})")
        match = BOOT_PATTERN.search(line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    raise AssertionError("server never announced its port")


def _request(port, path, body=None, timeout=30):
    url = f"http://127.0.0.1:{port}{path}"
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method="POST"
                                 if data else "GET")
    if data:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def _events(port, job_id, after=0, limit=None, timeout=120):
    """Drain the chunked NDJSON event stream; for a terminal job the
    server closes it after the backlog, for a live one ``limit`` bounds
    how much of the prefix we read before hanging up."""
    url = (f"http://127.0.0.1:{port}/v1/jobs/{job_id}/events"
           f"?after={after}")
    events = []
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        for line in resp:
            if line.strip():
                events.append(json.loads(line))
            if limit is not None and len(events) >= limit:
                break
    return events


def _wait_until(predicate, timeout=120, interval=0.2):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


def _job_state(port, job_id):
    return _request(port, f"/v1/jobs/{job_id}")["state"]


TUNE_PAYLOAD = dict(kind="tune", context="sales", variant="dtac-none")
BUDGETS = (0.1, 0.12, 0.15)


@pytest.mark.slow
class TestCrashRecovery:
    def test_kill_dash_nine_restart_recovers_the_job_tier(self, tmp_path):
        cache_dir = tmp_path / "cache"

        # First life: submit three jobs, let the first start running,
        # then kill -9 the server mid-tune.
        proc, port = _spawn_server(cache_dir)
        try:
            jobs = [
                _request(port, "/v1/jobs",
                         dict(TUNE_PAYLOAD, budget_fraction=budget))
                for budget in BUDGETS
            ]
            ids = [job["id"] for job in jobs]
            assert all(job["state"] == "queued" for job in jobs)
            _wait_until(lambda: _job_state(port, ids[0]) == "running")
            # Prefix of the live stream: the queued + running
            # transitions, read before the kill.
            events_before = _events(port, ids[0], limit=2)
            assert [e["state"] for e in events_before] == \
                ["queued", "running"]
        finally:
            proc.kill()  # SIGKILL: no shutdown hooks, no journal close
            proc.wait(timeout=30)

        # Second life, same cache dir.
        proc, port = _spawn_server(cache_dir)
        try:
            # The interrupted job is failed + recovered; the queued
            # ones re-enqueue and complete.
            interrupted = _request(port, f"/v1/jobs/{ids[0]}")
            assert interrupted["state"] == "failed"
            assert interrupted["recovered"] is True
            assert "restart" in interrupted["error"]
            for job_id in ids[1:]:
                _wait_until(
                    lambda jid=job_id: _job_state(port, jid) == "done")

            # Event logs are seq-gapless across the restart: the
            # pre-kill prefix is preserved verbatim and the recovery /
            # re-run events continue the series.
            for job_id in ids:
                events = _events(port, job_id)
                seqs = [e["seq"] for e in events]
                assert seqs == list(range(1, len(seqs) + 1))
            recovered_events = _events(port, ids[0])
            assert recovered_events[:len(events_before)] == events_before
            assert recovered_events[-1]["state"] == "failed"
            assert recovered_events[-1]["recovered"] is True

            # The events?after=N tail picks up exactly where a pre-kill
            # streamer left off.
            after = events_before[-1]["seq"]
            tail = _events(port, ids[0], after=after)
            assert tail == recovered_events[after:]

            # Resubmitting the interrupted payload re-runs it cold —
            # and byte-identical to an in-process tune().
            redo = _request(port, "/v1/jobs",
                            dict(TUNE_PAYLOAD, budget_fraction=BUDGETS[0]))
            _wait_until(
                lambda: _job_state(port, redo["id"]) == "done")
            result = _request(port, f"/v1/jobs/{redo['id']}")["result"]

            stats = _request(port, "/v1/stats")["jobs"]
            assert stats["recovered"] == 1
        finally:
            proc.kill()
            proc.wait(timeout=30)

        db = sales_database(scale=SCALE)
        # The serve CLI defaults to select_weight 5.0 — mirror it.
        wl = sales_workload(db, select_weight=5.0)
        direct = tune(db, wl, db.total_data_bytes() * BUDGETS[0],
                      variant="dtac-none")
        assert result["result"] == serialize_result(direct)["result"]

    def test_restart_preserves_terminal_history(self, tmp_path):
        """A clean restart (no crash) restores completed jobs with
        results and full event logs — poll and event endpoints keep
        answering for work done in an earlier life."""
        cache_dir = tmp_path / "cache"
        proc, port = _spawn_server(cache_dir)
        try:
            job = _request(port, "/v1/jobs",
                           dict(TUNE_PAYLOAD, budget_fraction=0.1))
            _wait_until(lambda: _job_state(port, job["id"]) == "done")
            before = _request(port, f"/v1/jobs/{job['id']}")
            events_before = _events(port, job["id"])
        finally:
            proc.kill()
            proc.wait(timeout=30)

        proc, port = _spawn_server(cache_dir)
        try:
            after = _request(port, f"/v1/jobs/{job['id']}")
            events_after = _events(port, job["id"])
        finally:
            proc.kill()
            proc.wait(timeout=30)

        assert after["state"] == "done"
        assert after["result"] == before["result"]
        assert events_after == events_before
