"""The concurrent service layer: admission, deadlines, epochs, drain.

Half the tests exercise :mod:`repro.service` directly (deterministic
slot accounting, no sockets); the other half go over the wire against
a real :class:`~repro.server.QueryServer` so the HTTP mappings — 429 +
``Retry-After``, 408 on timeout, ``"truncated"`` in a 200, 503 while
draining — are observed exactly as a client would.
"""

import json
import threading

import pytest

from repro.engine.deadline import Deadline, QueryTimeout
from repro.engine.stats import EvaluationStats
from repro.metrics import MetricsRegistry, parse_prometheus_text
from repro.service import (AdmissionRejected, EpochManager,
                           QueryService, ServiceDraining)
from repro.session import DeductiveDatabase

from .wire import CLOSURE, PROGRAM, request, served


def make_session(**kwargs):
    session = DeductiveDatabase(metrics=MetricsRegistry(), **kwargs)
    session.load(PROGRAM)
    return session


def make_service(**kwargs):
    return QueryService(EpochManager(make_session()), **kwargs)


def metric_value(registry, name, **labels):
    samples = parse_prometheus_text(registry.render_prometheus())
    return sum(value for (sample, key), value in samples.items()
               if sample == name
               and set(labels.items()) <= set(key))


# -- deadline unit behaviour ----------------------------------------------

class TestDeadline:
    def test_no_budget_never_fires(self):
        deadline = Deadline()
        deadline.check_time()
        assert not deadline.out_of_rows(10 ** 9)

    def test_expired_time_raises(self):
        deadline = Deadline(timeout_s=0.0)
        with pytest.raises(QueryTimeout):
            deadline.check_time()

    def test_row_budget(self):
        deadline = Deadline(max_rows=5)
        assert not deadline.out_of_rows(5)
        assert deadline.out_of_rows(6)


class TestEngineDeadlines:
    """Engines honour the deadline riding on the stats object."""

    @pytest.mark.parametrize("engine", ["compiled", "semi-naive",
                                        "naive", "top-down"])
    def test_timeout_aborts_each_engine(self, engine):
        session = make_session()
        stats = EvaluationStats()
        stats.deadline = Deadline(timeout_s=0.0)
        with pytest.raises(QueryTimeout):
            session.query("P(X, Y)", stats=stats, engine=engine)

    @pytest.mark.parametrize("engine", ["compiled", "semi-naive",
                                        "naive", "top-down"])
    def test_row_limit_truncates_each_engine(self, engine):
        session = make_session()
        stats = EvaluationStats()
        stats.deadline = Deadline(max_rows=1)
        answers = session.query("P(X, Y)", stats=stats, engine=engine)
        assert stats.truncated
        # a round boundary may overshoot the cap by one delta, but the
        # partial set is sound: a subset of the true closure
        assert set(answers) < CLOSURE
        assert len(answers) >= 1

    def test_truncated_answers_never_cached(self):
        session = make_session()
        stats = EvaluationStats()
        stats.deadline = Deadline(max_rows=1)
        partial = session.query("P(X, Y)", stats=stats)
        assert set(partial) < CLOSURE
        # same key, no budget: must re-evaluate, not serve the partial
        full = session.query("P(X, Y)")
        assert set(full) == CLOSURE


# -- the service object ---------------------------------------------------

class TestQueryService:
    def test_run_returns_answers_with_epoch(self):
        service = make_service()
        result = service.run("P(a, Y)")
        assert set(result.answers) == {("a", "b"), ("a", "c"),
                                       ("a", "d")}
        assert result.outcome == "ok"
        assert result.epoch == 0
        assert service.completed_total == 1

    def test_rejects_when_slots_are_full(self):
        service = make_service(max_inflight=1)
        service._admit()  # occupy the only slot
        try:
            with pytest.raises(AdmissionRejected) as caught:
                service.run("P(a, Y)")
            assert caught.value.retry_after_s >= 1
            assert service.rejected_total == 1
        finally:
            service._release(0.01)
        # slot free again: admitted normally
        assert service.run("P(a, Y)").outcome == "ok"
        registry = service.manager.session.metrics
        assert metric_value(registry,
                            "repro_queries_rejected_total") == 1

    def test_timeout_is_metered_as_timeout_not_error(self):
        service = make_service()
        with pytest.raises(QueryTimeout):
            service.run("P(X, Y)", timeout_s=0.0)
        registry = service.manager.session.metrics
        assert metric_value(registry,
                            "repro_queries_timed_out_total") == 1
        assert metric_value(registry, "repro_queries_total",
                            outcome="timeout") == 1
        assert metric_value(registry, "repro_query_errors_total") == 0
        assert service.inflight == 0  # slot released on the error path

    def test_row_limit_reports_truncated(self):
        service = make_service(max_rows=1)
        result = service.run("P(X, Y)")
        assert result.outcome == "truncated"
        assert result.stats.truncated
        assert set(result.answers) < CLOSURE
        registry = service.manager.session.metrics
        assert metric_value(registry, "repro_queries_total",
                            outcome="truncated") == 1

    def test_request_can_only_tighten_service_row_cap(self):
        service = make_service(max_rows=3)
        deadline = service._deadline(None, 100)
        assert deadline.max_rows == 3
        deadline = service._deadline(None, 2)
        assert deadline.max_rows == 2

    def test_drain_blocks_new_queries(self):
        service = make_service()
        assert service.drain(grace_s=1.0)
        with pytest.raises(ServiceDraining):
            service.run("P(a, Y)")

    def test_drain_waits_for_inflight(self):
        service = make_service()
        service._admit()
        drained = []
        waiter = threading.Thread(
            target=lambda: drained.append(service.drain(grace_s=5.0)))
        waiter.start()
        service._release(0.01)
        waiter.join(timeout=5)
        assert drained == [True]

    def test_drain_grace_expires_with_stuck_query(self):
        service = make_service()
        service._admit()  # never released: a stuck query
        assert service.drain(grace_s=0.05) is False


class TestEpochManager:
    def test_write_batch_publishes_new_epoch(self):
        manager = EpochManager(make_session())
        service = QueryService(manager)
        before = service.run("P(X, Y)")
        assert set(before.answers) == CLOSURE
        epoch = service.apply_batch(add={"A": [("d", "e")]})
        assert epoch.number == 1
        after = service.run("P(X, Y)")
        assert after.epoch == 1
        assert ("a", "e") in set(after.answers)

    def test_old_epoch_is_immutable(self):
        manager = EpochManager(make_session())
        pinned = manager.current
        manager.apply(lambda s: s.add_fact("A", "d", "e"))
        # the pinned snapshot still answers the pre-batch closure
        assert set(pinned.session.query("P(X, Y)")) == CLOSURE
        assert set(manager.current.session.query("P(X, Y)")) > CLOSURE

    def test_reader_fork_refuses_writes(self):
        from repro.datalog.errors import EvaluationError
        fork = make_session().fork_reader()
        with pytest.raises(EvaluationError):
            fork.add_fact("A", "x", "y")

    def test_fact_batches_share_the_rule_caches(self, monkeypatch):
        """A classification and a plan depend on the rules alone, so
        the epochs of a fact-only write stream share them.  Regression:
        each epoch forked the empty caches of the session behind it,
        which never answers, and classified and compiled again."""
        import repro.session as session_module
        calls = []
        classify = session_module.classify
        monkeypatch.setattr(session_module, "classify", lambda system: (
            calls.append(system.predicate), classify(system))[1])
        manager = EpochManager(make_session())
        for step in range(4):
            if step:
                manager.apply(lambda s, step=step: s.add_fact(
                    "A", "d", f"e{step}"))
            assert ("a", "d") in manager.current.session.query("P(a, Y)")
        assert calls == ["P"]
        held = manager.current
        manager.apply(lambda s: s.write_batch(
            add={"B": [("a", "z")]}, rules=["P(x, y) :- B(x, y)."]))
        assert ("a", "z") in manager.current.session.query("P(a, Y)")
        assert calls == ["P", "P"]
        # the held epoch answers under its own rules, from its own caches
        assert ("a", "z") not in held.session.query("P(X, Y)")
        assert calls == ["P", "P"]

    def test_removals_and_rules_in_one_epoch(self):
        manager = EpochManager(make_session())
        service = QueryService(manager)
        epoch = service.apply_batch(
            remove={"A": [("c", "d")]},
            rules=["Q(x, y) :- A(x, y)."])
        assert epoch.number == 1
        result = service.run("Q(X, Y)")
        assert set(result.answers) == {("a", "b"), ("b", "c")}
        assert metric_value(manager.session.metrics,
                            "repro_epoch") == 1


# -- over the wire (the ``server`` fixture lives in conftest.py) --------

class TestHTTPStatusMapping:
    @pytest.mark.parametrize("server", [{"max_inflight": 1}],
                             indirect=True)
    def test_429_with_retry_after_when_full(self, server):
        gate, release = threading.Event(), threading.Event()
        epoch_session = server.epochs.current.session
        original = epoch_session.query

        def blocking(query, **kwargs):
            gate.set()
            release.wait(10)
            return original(query, **kwargs)

        epoch_session.query = blocking
        slow = threading.Thread(
            target=request,
            args=(server, "POST", "/query", {"query": "P(a, Y)"}))
        slow.start()
        try:
            assert gate.wait(10)
            status, body, headers = request(server, "POST", "/query",
                                            {"query": "P(X, Y)"})
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after_s"] >= 1
        finally:
            release.set()
            slow.join(timeout=10)
        del epoch_session.query
        assert server.service.rejected_total == 1
        # the blocked query completed once released
        assert server.queries_served == 1

    def test_timeout_maps_to_408(self, server):
        status, body, _ = request(server, "POST", "/query",
                                  {"query": "P(X, Y)", "timeout_s": 0})
        assert status == 408
        assert body["outcome"] == "timeout"
        samples = parse_prometheus_text(
            request(server, "GET", "/metrics")[1])
        assert sum(v for (n, k), v in samples.items()
                   if n == "repro_queries_timed_out_total") == 1

    @pytest.mark.parametrize("server", [{"query_timeout_s": 0.0}],
                             indirect=True)
    def test_server_default_timeout_applies(self, server):
        status, body, _ = request(server, "POST", "/query",
                                  {"query": "P(X, Y)"})
        assert status == 408
        # a request may loosen the default budget
        status, body, _ = request(server, "POST", "/query",
                                  {"query": "P(X, Y)", "timeout_s": 30})
        assert status == 200

    def test_row_limit_truncation_in_200(self, server):
        status, body, _ = request(server, "POST", "/query",
                                  {"query": "P(X, Y)", "max_rows": 1})
        assert status == 200
        assert body["outcome"] == "truncated"
        assert body["truncated"] is True
        assert body["stats"]["truncated"] is True
        assert 1 <= body["count"] < len(CLOSURE)
        # without the limit the same query is complete — the partial
        # answer set was not cached
        status, body, _ = request(server, "POST", "/query",
                                  {"query": "P(X, Y)"})
        assert body["truncated"] is False
        assert body["count"] == len(CLOSURE)

    def test_facts_route_publishes_epochs(self, server):
        status, body, _ = request(server, "POST", "/facts",
                                  {"add": {"A": [["d", "e"]]}})
        assert status == 200
        assert body["epoch"] == 1
        status, body, _ = request(server, "POST", "/query",
                                  {"query": "P(a, Y)"})
        assert body["epoch"] == 1
        assert ["a", "e"] in body["answers"]
        status, body, _ = request(server, "POST", "/facts",
                                  {"remove": {"A": [["d", "e"]]}})
        assert body["epoch"] == 2
        status, body, _ = request(server, "POST", "/query",
                                  {"query": "P(a, Y)"})
        assert {tuple(r) for r in body["answers"]} == {
            ("a", "b"), ("a", "c"), ("a", "d")}

    def test_draining_maps_to_503(self, server):
        server.service.drain(grace_s=1.0)
        status, body, _ = request(server, "POST", "/query",
                                  {"query": "P(a, Y)"})
        assert status == 503
        status, body, _ = request(server, "POST", "/facts",
                                  {"add": {"A": [["x", "y"]]}})
        assert status == 503

    def test_healthz_reports_admission_state(self, server):
        request(server, "POST", "/query", {"query": "P(a, Y)"})
        health = request(server, "GET", "/healthz")[1]
        assert health["epoch"] == 0
        assert health["inflight"] == 0
        assert health["admitted_total"] == 1
        assert health["rejected_total"] == 0


class TestShutdown:
    def test_graceful_shutdown_logs_and_is_idempotent(self):
        with served() as server:
            assert server.graceful_shutdown() is True
            assert server.graceful_shutdown() is True  # idempotent
        lines = [json.loads(line) for line in
                 server.session.query_log.stream.getvalue().splitlines()]
        shutdown_lines = [line for line in lines
                          if line["event"] == "server_shutdown"]
        assert len(shutdown_lines) == 1
        assert shutdown_lines[0]["drained"] is True
