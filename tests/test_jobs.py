"""The background job queue: lifecycle, pinning, expiry, HTTP API.

The first half drives :class:`~repro.jobs.JobQueue` directly — with
the worker threads deliberately poisoned where a test needs a job to
*stay* queued (epoch pinning, queued-cancel, drain) — and the second
half goes over a real socket against :class:`~repro.server.QueryServer`
so submission, polling, result streaming and cancellation are observed
exactly as a disconnecting-and-reconnecting client would.
"""

import time

import pytest

from repro.jobs import Job, JobQueue, JobQueueFull, JobStates, UnknownJob
from repro.metrics import MetricsRegistry
from repro.service import EpochManager, QueryService, ServiceDraining
from repro.session import DeductiveDatabase

from .wire import CLOSURE, PROGRAM, request, served


def make_service(program=PROGRAM, metrics=False):
    session = DeductiveDatabase(
        metrics=MetricsRegistry() if metrics else None)
    session.load(program)
    return QueryService(EpochManager(session))


def make_queue(service=None, **kwargs):
    return JobQueue(service or make_service(), **kwargs)


def poison_workers(queue: JobQueue) -> None:
    """Kill the worker threads so queued jobs stay queued."""
    for _ in queue._threads:
        queue._backlog.put(None)
    for thread in queue._threads:
        thread.join(timeout=5)


def run_one(queue: JobQueue) -> Job:
    """Mimic one worker iteration (requires poisoned workers)."""
    job = queue._backlog.get_nowait()
    with queue._lock:
        assert job.state == JobStates.QUEUED
        job.state = JobStates.RUNNING
        job.started_at = time.time()
        job._queue_wait_s = job.started_at - job.submitted_at
        queue._queued -= 1
        queue._running += 1
    queue._run_job(job)
    return job


def wait_finished(queue: JobQueue, job_id: str, timeout=10.0) -> Job:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = queue.get(job_id)
        if job.finished:
            return job
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} never finished")


class TestLifecycle:
    def test_submit_runs_to_done(self):
        queue = make_queue()
        job = queue.submit("P(X, Y)")
        assert job.state == JobStates.QUEUED
        job = wait_finished(queue, job.id)
        assert job.state == JobStates.DONE
        assert set(job.result.answers) == CLOSURE
        assert job.started_at >= job.submitted_at
        assert job.finished_at >= job.started_at
        assert queue.submitted_total == 1
        assert queue.finished_total == 1
        assert queue.outcomes[JobStates.DONE] == 1

    def test_timeout_job_finishes_as_timeout(self):
        queue = make_queue()
        job = wait_finished(
            queue, queue.submit("P(X, Y)", timeout_s=0.0).id)
        assert job.state == JobStates.TIMEOUT
        assert job.error_status == 408
        assert job.result is None

    def test_row_budget_job_finishes_as_truncated(self):
        queue = make_queue()
        job = wait_finished(
            queue, queue.submit("P(X, Y)", max_rows=1).id)
        assert job.state == JobStates.TRUNCATED
        assert job.result is not None
        assert set(job.result.answers) < CLOSURE

    def test_bad_query_finishes_as_error_400(self):
        queue = make_queue()
        job = wait_finished(
            queue, queue.submit("NoSuchPredicate(X)").id)
        assert job.state == JobStates.ERROR
        assert job.error_status == 400
        assert job.error

    def test_progress_document_shape(self):
        queue = make_queue()
        job = wait_finished(queue, queue.submit("P(X, Y)").id)
        progress = job.progress()
        assert progress["rounds"] >= 1
        assert progress["rows"] >= 1
        document = job.to_dict()
        assert document["state"] == "done"
        assert document["answers"] == len(CLOSURE)
        assert document["epoch"] == 0


class TestEpochPinning:
    def test_job_sees_submit_time_snapshot(self):
        service = make_service()
        queue = make_queue(service, workers=1)
        poison_workers(queue)
        queue.submit("P(X, Y)")
        # a write batch lands *after* submission but *before* the run
        service.apply_batch(add={"A": [["d", "e"]]})
        finished = run_one(queue)
        assert finished.state == JobStates.DONE
        # the job read the pinned epoch: no tuple involves "e"
        assert set(finished.result.answers) == CLOSURE
        assert finished.result.epoch == 0
        # a fresh submission pins the post-batch epoch and sees it
        later = queue.submit("P(X, Y)")
        assert later.epoch.number == 1
        assert ("a", "e") in set(run_one(queue).result.answers)


class TestCancellation:
    def test_cancel_queued_job_is_immediate(self):
        queue = make_queue(workers=1)
        poison_workers(queue)
        job = queue.submit("P(X, Y)")
        cancelled = queue.request_cancel(job.id)
        assert cancelled.state == JobStates.CANCELLED
        assert cancelled.finished_at is not None
        assert queue.queued == 0
        assert queue.outcomes[JobStates.CANCELLED] == 1

    def test_cancel_running_job_aborts_at_round_boundary(self):
        # a deep chain gives the fixpoint hundreds of rounds to be
        # interrupted in; the cancel lands at the next boundary
        chain = "\n".join(f"A(n{i}, n{i + 1})." for i in range(800))
        program = ("P(x, y) :- A(x, z), P(z, y).\n"
                   "P(x, y) :- A(x, y).\n" + chain)
        queue = make_queue(make_service(program))
        job = queue.submit("P(X, Y)", engine="semi-naive")
        deadline = time.monotonic() + 10
        while (queue.get(job.id).state == JobStates.QUEUED
               and time.monotonic() < deadline):
            time.sleep(0.001)
        queue.request_cancel(job.id)
        job = wait_finished(queue, job.id, timeout=30)
        assert job.state == JobStates.CANCELLED
        assert job.result is None

    def test_cancel_finished_job_is_noop(self):
        queue = make_queue()
        job = wait_finished(queue, queue.submit("P(a, Y)").id)
        again = queue.request_cancel(job.id)
        assert again.state == JobStates.DONE
        assert queue.outcomes[JobStates.CANCELLED] == 0

    def test_cancel_unknown_job_raises(self):
        with pytest.raises(UnknownJob):
            make_queue().request_cancel("job-nope")


class TestRetention:
    def test_ttl_expires_finished_jobs(self):
        queue = make_queue(ttl_s=0.2)
        job = wait_finished(queue, queue.submit("P(a, Y)").id)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                queue.get(job.id)
            except UnknownJob:
                return  # expired, as promised
            time.sleep(0.05)
        raise AssertionError("finished job never expired")

    def test_max_retained_evicts_oldest_finished(self):
        queue = make_queue(max_retained=1)
        first = wait_finished(queue, queue.submit("P(a, Y)").id)
        second = wait_finished(queue, queue.submit("P(b, Y)").id)
        retained = queue.jobs()
        assert [job.id for job in retained] == [second.id]
        with pytest.raises(UnknownJob):
            queue.get(first.id)

    def test_backlog_bound_rejects_submissions(self):
        queue = make_queue(max_queued=0)
        with pytest.raises(JobQueueFull):
            queue.submit("P(X, Y)")


class TestDrain:
    def test_drain_cancels_queued_and_blocks_intake(self):
        queue = make_queue(workers=1)
        poison_workers(queue)
        job = queue.submit("P(X, Y)")
        assert queue.drain(grace_s=1.0)
        assert queue.get(job.id).state == JobStates.CANCELLED
        with pytest.raises(ServiceDraining):
            queue.submit("P(X, Y)")


# -- over the wire ---------------------------------------------------------

@pytest.fixture()
def server():
    with served(job_workers=1, drain_grace_s=3.0) as instance:
        yield instance


def _poll(server, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body, _ = request(server, "GET", f"/jobs/{job_id}")
        assert status == 200
        if body["state"] not in ("queued", "running"):
            return body
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never finished")


class TestHTTP:
    def test_async_mode_roundtrip_matches_sync(self, server):
        sync_status, sync_body, _ = request(server, "POST", "/query",
                                            {"query": "P(X, Y)"})
        assert sync_status == 200
        status, submitted, _ = request(server, "POST", "/query",
                                       {"query": "P(X, Y)", "mode": "async"})
        assert status == 202
        assert submitted["state"] == "queued"
        assert submitted["status_url"].startswith("/jobs/")
        final = _poll(server, submitted["id"])
        assert final["state"] == "done"
        status, result, _ = request(server, "GET",
                                    f"/jobs/{submitted['id']}/result")
        assert status == 200
        assert result["answers"] == sync_body["answers"]
        assert result["outcome"] == "ok"
        assert result["epoch"] == submitted["epoch"]

    def test_post_jobs_endpoint(self, server):
        status, body, _ = request(server, "POST", "/jobs",
                                  {"query": "P(a, Y)"})
        assert status == 202
        final = _poll(server, body["id"])
        assert final["state"] == "done"
        assert final["answers"] == 3

    def test_jobs_listing(self, server):
        _, submitted, _ = request(server, "POST", "/jobs",
                                  {"query": "P(a, Y)"})
        _poll(server, submitted["id"])
        status, body, _ = request(server, "GET", "/jobs")
        assert status == 200
        assert submitted["id"] in {job["id"] for job in body["jobs"]}

    def test_timeout_job_result_is_408(self, server):
        _, submitted, _ = request(server, "POST", "/jobs",
                                  {"query": "P(X, Y)", "timeout_s": 0.0})
        final = _poll(server, submitted["id"])
        assert final["state"] == "timeout"
        status, body, _ = request(server, "GET",
                                  f"/jobs/{submitted['id']}/result")
        assert status == 408
        assert body["state"] == "timeout"

    def test_truncated_job_result_streams_partial(self, server):
        _, submitted, _ = request(server, "POST", "/jobs",
                                  {"query": "P(X, Y)", "max_rows": 1})
        final = _poll(server, submitted["id"])
        assert final["state"] == "truncated"
        status, body, _ = request(server, "GET",
                                  f"/jobs/{submitted['id']}/result")
        assert status == 200
        assert body["truncated"] is True
        assert {tuple(row) for row in body["answers"]} < CLOSURE

    def test_running_job_result_is_409_then_cancel(self, server):
        # grow a deep chain so the async fixpoint is observably slow
        edges = [[f"n{i}", f"n{i + 1}"] for i in range(700)]
        status, _, _ = request(server, "POST", "/facts", {"add": {"A": edges}})
        assert status == 200
        _, submitted, _ = request(server, "POST", "/jobs",
                                  {"query": "P(X, Y)", "engine": "semi-naive"})
        job_id = submitted["id"]
        deadline = time.monotonic() + 10
        state = "queued"
        while state == "queued" and time.monotonic() < deadline:
            _, body, _ = request(server, "GET", f"/jobs/{job_id}")
            state = body["state"]
            time.sleep(0.001)
        if state == "running":
            status, body, _ = request(server, "GET", f"/jobs/{job_id}/result")
            assert status == 409
            assert "progress" in body
        status, body, _ = request(server, "DELETE", f"/jobs/{job_id}")
        assert status == 200
        assert body["cancel_requested"] is True
        final = _poll(server, job_id, timeout=30)
        # the cancel raced the fixpoint: either it landed at a round
        # boundary, or the job finished first — never anything else
        assert final["state"] in ("cancelled", "done")
        if final["state"] == "cancelled":
            status, _, _ = request(server, "GET", f"/jobs/{job_id}/result")
            assert status == 409

    def test_unknown_job_routes_are_404(self, server):
        for method, path in (("GET", "/jobs/job-nope"),
                             ("GET", "/jobs/job-nope/result"),
                             ("DELETE", "/jobs/job-nope"),
                             ("GET", "/jobs/x/y/z")):
            status, _, _ = request(server, method, path)
            assert status == 404

    def test_validation_rejects_malformed_fields(self, server):
        for document in ({"query": "P(X, Y)", "timeout_s": "5"},
                         {"query": "P(X, Y)", "max_rows": True},
                         {"query": "P(X, Y)", "max_rows": -1},
                         {"query": "P(X, Y)", "mode": "later"},
                         {"query": 42},
                         {}):
            for path in ("/query", "/jobs"):
                status, body, _ = request(server, "POST", path, document)
                assert status == 400, (path, document)
                assert "error" in body

    def test_healthz_and_stats_carry_job_counters(self, server):
        _, submitted, _ = request(server, "POST", "/jobs",
                                  {"query": "P(a, Y)"})
        _poll(server, submitted["id"])
        _, health, _ = request(server, "GET", "/healthz")
        assert health["jobs"]["submitted_total"] >= 1
        assert health["jobs"]["outcomes"]["done"] >= 1
        _, stats, _ = request(server, "GET", "/stats")
        assert (stats["server"]["jobs"]["finished_total"]
                == stats["server"]["jobs"]["submitted_total"])

    def test_async_jobs_do_not_inflate_queries_served(self, server):
        _, before, _ = request(server, "GET", "/healthz")
        _, submitted, _ = request(server, "POST", "/jobs",
                                  {"query": "P(X, Y)"})
        _poll(server, submitted["id"])
        request(server, "GET", f"/jobs/{submitted['id']}/result")
        _, after, _ = request(server, "GET", "/healthz")
        # the sync counter reconciles per-response; jobs are counted
        # in their own ledger
        assert after["queries_served"] == before["queries_served"]
        assert after["jobs"]["submitted_total"] == (
            before["jobs"]["submitted_total"] + 1)
