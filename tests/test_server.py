"""The monitored HTTP query server, exercised in-process.

One server on an ephemeral port per test (the ``server`` fixture, or
:func:`tests.wire.served` for explicit settings), ``serve_forever`` on
a daemon thread; requests go over a real socket — routing, content
types, status codes and the metrics reconciliation are all observed
exactly as a client would.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro import __version__
from repro import server as server_module
from repro.logutil import valid_query_id
from repro.metrics import parse_prometheus_text
from repro.server import MAX_BODY_BYTES

from .wire import CLOSURE, request, served


class TestQueryRoute:
    def test_bound_query_answers(self, server):
        status, body, _ = request(server, "POST", "/query",
                                  {"query": "P(a, Y)"})
        assert status == 200
        assert {tuple(row) for row in body["answers"]} == {
            ("a", "b"), ("a", "c"), ("a", "d")}
        assert body["count"] == 3
        assert body["engine"] == "compiled"
        assert body["stats"]["answers"] == 3
        assert body["duration_s"] >= 0

    def test_constant_exit_head_at_a_bound_position(self):
        """Regression: a bounded system whose exit head holds a
        constant at the query's bound position answered 500."""
        program = """
            P(x, y) :- B(y), C(x, y1), P(x1, y1).
            P(x, 'c') :- E(x).
            E(a). B(c). C(a, c). C(b, c).
        """
        with served(program=program) as server:
            status, body, _ = request(server, "POST", "/query",
                                      {"query": "P(X, c)"})
        assert status == 200
        assert body["answers"] == [["a", "c"], ["b", "c"]]

    def test_engine_selection(self, server):
        for extra in ({"engine": "semi-naive"}, {"engine": "naive"},
                      {"engine": "top-down"}, {"backend": "python"}):
            status, body, _ = request(server, "POST", "/query",
                                      {"query": "P(X, Y)", **extra})
            assert status == 200
            assert {tuple(r) for r in body["answers"]} == CLOSURE

    def test_answers_are_sorted(self, server):
        _, body, _ = request(server, "POST", "/query", {"query": "P(X, Y)"})
        assert body["answers"] == sorted(body["answers"], key=repr)

    def test_bad_requests_get_400(self, server):
        assert request(server, "POST", "/query", {"nope": 1})[0] == 400
        assert request(server, "POST", "/query",
                       {"query": "P(X, Y, Z)"})[0] == 400
        assert request(server, "POST", "/query",
                       {"query": "missing(X)"})[0] == 400
        assert request(server, "POST", "/query",
                       {"query": "P(X, Y)", "engine": "imaginary"})[0] == 400
        body = b"not json {{"
        assert _post_declaring(server, str(len(body)), body)[0] == 400

    def test_unknown_paths_get_404(self, server):
        assert request(server, "GET", "/nope")[0] == 404
        assert request(server, "POST", "/nope", {"query": "P(a, Y)"})[0] == 404


def _post_declaring(server, content_length: str, body: bytes = b""):
    """POST /query declaring *content_length* whatever *body* is;
    (status, parsed body, Connection header)."""
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=5)
    try:
        connection.putrequest("POST", "/query")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", content_length)
        connection.endheaders(body)
        response = connection.getresponse()
        return (response.status, json.loads(response.read()),
                response.getheader("Connection"))
    finally:
        connection.close()


class TestBodyBounds:
    """``Content-Length`` is validated before the body is read."""

    @pytest.mark.parametrize("declared", ["-1", "-20", "twelve", ""])
    def test_bad_content_length_is_400(self, server, declared):
        # a negative length used to read to EOF, which a keep-alive
        # client never sends: the handler hung instead of answering
        status, body, connection = _post_declaring(
            server, declared, b'{"query": "P(X, Y)"}')
        assert status == 400
        assert "Content-Length" in body["error"]
        assert connection == "close"

    def test_oversized_body_is_413_unread(self, server):
        # nothing beyond the headers is sent: the refusal must come
        # from the declared length alone
        status, body, connection = _post_declaring(
            server, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]
        assert connection == "close"
        assert request(server, "POST", "/query",
                       {"query": "P(a, Y)"})[0] == 200

    def test_stalled_connection_is_closed(self, monkeypatch):
        monkeypatch.setattr(server_module, "REQUEST_TIMEOUT_S", 0.5)
        with served() as instance:
            with socket.create_connection(
                    (instance.host, instance.port), timeout=10) as raw:
                raw.sendall(b"POST /query HTTP/1.1\r\n"
                            b"Content-Length: 40\r\n\r\n{")
                assert raw.recv(1024) == b""  # closed, not hung
            assert request(instance, "POST", "/query",
                           {"query": "P(a, Y)"})[0] == 200


class TestMonitoringRoutes:
    def test_healthz(self, server):
        request(server, "POST", "/query", {"query": "P(a, Y)"})
        status, health, _ = request(server, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["queries_served"] == 1
        assert health["uptime_s"] >= 0
        assert set(health["predicates"]) == {"A", "P"}

    def test_metrics_reconcile_with_query_stats(self, server):
        """Registry totals equal the per-response stats sums exactly —
        the snapshot-delta guarantee observed through the wire."""
        rounds = 0
        for document in ({"query": "P(a, Y)"}, {"query": "P(X, Y)"},
                         {"query": "P(X, Y)",
                          "engine": "semi-naive"}):
            _, body, _ = request(server, "POST", "/query", document)
            rounds += body["stats"]["rounds"]
        status, text, _ = request(server, "GET", "/metrics")
        assert status == 200
        samples = parse_prometheus_text(text)
        ok_queries = sum(
            value for (name, labels), value in samples.items()
            if name == "repro_queries_total"
            and ("outcome", "ok") in labels)
        assert ok_queries == 3
        traced_rounds = sum(
            value for (name, labels), value in samples.items()
            if name == "repro_rounds_total")
        assert traced_rounds == rounds
        assert samples[("repro_relation_rows",
                        (("relation", "A"),))] == 3

    def test_stats_route(self, server):
        request(server, "POST", "/query", {"query": "P(a, Y)"})
        status, document, _ = request(server, "GET", "/stats")
        assert status == 200
        names = {metric["name"] for metric in document["metrics"]}
        assert {"repro_queries_total", "repro_rounds_total",
                "repro_relation_rows"} <= names
        assert document["server"]["queries_served"] == 1

    def test_unpublished_write_batch_is_invisible(self, server):
        """``/healthz`` and ``/metrics`` describe the published epoch,
        never the authoritative session a batch is still mutating."""
        mutating, release = threading.Event(), threading.Event()

        def mutate(session):
            session.add_fact("Z", "x", "y")
            mutating.set()
            release.wait(10)

        writer = threading.Thread(target=server.epochs.apply,
                                  args=(mutate,))
        writer.start()
        try:
            assert mutating.wait(10)
            health = request(server, "GET", "/healthz")[1]
            text = request(server, "GET", "/metrics")[1]
            assert (health["epoch"], health["predicates"]) == (0, ["A", "P"])
            assert 'relation="Z"' not in text
        finally:
            release.set()
            writer.join(timeout=10)
        health = request(server, "GET", "/healthz")[1]
        text = request(server, "GET", "/metrics")[1]
        assert (health["epoch"], health["predicates"]) == (
            1, ["A", "P", "Z"])
        rows = parse_prometheus_text(text)[("repro_relation_rows",
                                            (("relation", "Z"),))]
        assert rows == 1

    def test_one_log_line_per_query(self, server):
        for _ in range(3):
            request(server, "POST", "/query", {"query": "P(a, Y)"})
        lines = [json.loads(line) for line in
                 server.session.query_log.stream.getvalue()
                 .splitlines()]
        assert len(lines) == 3
        assert len({line["query_id"] for line in lines}) == 3
        assert all(line["outcome"] == "ok" for line in lines)


class TestConcurrency:
    def test_parallel_posts_all_answered(self, server):
        results = []

        def ask():
            results.append(request(server, "POST", "/query",
                                   {"query": "P(X, Y)"}))

        pool = [threading.Thread(target=ask) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(results) == 8
        for status, body, _ in results:
            assert status == 200
            assert {tuple(r) for r in body["answers"]} == CLOSURE
        assert server.queries_served == 8


class TestQueryIds:
    def test_fresh_id_in_envelope_header_and_log(self, server):
        status, body, headers = request(server, "POST", "/query",
                                        {"query": "P(a, Y)"})
        assert status == 200
        query_id = body["query_id"]
        assert valid_query_id(query_id)
        assert headers.get("X-Repro-Query-Id") == query_id
        [line] = [json.loads(line) for line in
                  server.session.query_log.stream.getvalue()
                  .splitlines() if '"query"' in line]
        assert line["query_id"] == query_id

    def test_client_supplied_id_propagates(self, server):
        status, body, headers = request(
            server, "POST", "/query", {"query": "P(a, Y)"},
            headers={"X-Repro-Query-Id": "client-7.x"})
        assert status == 200
        assert body["query_id"] == "client-7.x"
        assert headers.get("X-Repro-Query-Id") == "client-7.x"

    def test_invalid_client_id_replaced(self, server):
        status, body, _ = request(server, "POST", "/query",
                                  {"query": "P(a, Y)"},
                                  headers={"X-Repro-Query-Id": "not valid!"})
        assert status == 200
        assert body["query_id"] != "not valid!"
        assert valid_query_id(body["query_id"])

    def test_error_responses_carry_the_id_too(self, server):
        status, body, _ = request(server, "POST", "/query",
                                  {"query": "missing(X)"},
                                  headers={"X-Repro-Query-Id": "err-1"})
        assert status == 400
        assert body["query_id"] == "err-1"

    def test_facts_response_carries_id(self, server):
        status, body, _ = request(server, "POST", "/facts",
                                  {"add": {"A": [["d", "e"]]}},
                                  headers={"X-Repro-Query-Id": "w-1"})
        assert status == 200
        assert body["query_id"] == "w-1"


class TestFactsValidation:
    """``POST /facts`` rows are arrays of strings and finite numbers
    and rules are strings; anything else is a 400 (naming the
    predicate and row index for a row), and no epoch is published."""

    @pytest.mark.parametrize("body, expect", [
        ({"add": {"B": "abc"}}, '"add"["B"] must be an array of rows'),
        ({"add": {"A": [["d", "e"], "n4"]}}, '"add"["A"] row 1'),
        ({"add": {"A": [[True, "x"]]}}, '"add"["A"] row 0'),
        ({"remove": {"A": [["a", None]]}}, '"remove"["A"] row 0'),
        ({"add": {"A": [["a", float("nan")]]}}, '"add"["A"] row 0'),
        ({"add": {"A": [[float("inf"), "b"]]}}, '"add"["A"] row 0'),
        ({"add": {"A": [["a", ["b"]]]}}, '"add"["A"] row 0'),
        ({"add": {"A": [["a", {"k": 1}]]}}, '"add"["A"] row 0'),
        ({"rules": [1]}, '"rules" an array of rule strings'),
    ], ids=["string-rows", "string-row", "bool", "null", "nan",
            "infinity", "array", "object", "rule-not-string"])
    def test_malformed_rows_rejected(self, server, body, expect):
        status, reply, _ = request(server, "POST", "/facts", body)
        assert status == 400
        assert expect in reply["error"]
        assert server.epochs.current.number == 0
        _, answers, _ = request(server, "POST", "/query", {"query": "A(X, Y)"})
        assert answers["count"] == 3

    def test_strings_and_finite_numbers_publish(self, server):
        status, body, _ = request(
            server, "POST", "/facts",
            {"add": {"A": [["d", "e"]], "N": [[1, 2.5, "x"]]}})
        assert status == 200 and body["epoch"] == 1

    @pytest.mark.parametrize("batches", [
        [{"rules": ["Q(x) :- A(x)."]}],
        [{"add": {"B": [["q"]]}, "rules": ["R(x, y) :- B(x, y)."]}],
        [{"rules": ["R(x, y) :- B(x, y)."]}, {"add": {"B": [["q"]]}}],
    ], ids=["rule-vs-store", "rule-vs-batch-facts", "facts-vs-rule"])
    def test_arity_conflict_is_400_without_an_epoch(self, server,
                                                    batches):
        """Regression: a rule or fact using a predicate with another
        arity was a 200 that published an epoch, and from then on
        every query over a rule — ``P(a, Y)`` too — failed."""
        *accepted, conflicting = batches
        for body in accepted:
            assert request(server, "POST", "/facts", body)[0] == 200
        status, reply, _ = request(server, "POST", "/facts", conflicting)
        assert status == 400
        assert "has arity" in reply["error"]
        assert server.epochs.current.number == len(accepted)
        status, answers, _ = request(server, "POST", "/query",
                                     {"query": "P(a, Y)"})
        assert status == 200 and answers["count"] == 3


class TestLabelsAgree:
    """A query's ``engine`` and ``formula_class`` read the same in its
    log line, its captured trace, its envelope and the
    ``repro_queries_total`` series it moved, for a synchronous query
    and a job alike: every signal reads them off the query's stats.
    The server runs with a query log, as ``--log-json`` installs."""

    @staticmethod
    def _queries_total(server) -> dict:
        samples = parse_prometheus_text(
            request(server, "GET", "/metrics")[1])
        return {labels: value for (name, labels), value in samples.items()
                if name == "repro_queries_total"}

    def _check(self, server, query_id, envelope, before) -> None:
        after = self._queries_total(server)
        moved = [dict(labels) for labels, value in after.items()
                 if value != before.get(labels, 0)]
        [line] = [json.loads(text) for text in
                  server.session.query_log.stream.getvalue().splitlines()
                  if f'"query_id": "{query_id}"' in text
                  and '"event": "query"' in text]
        document = request(server, "GET", f"/debug/traces/{query_id}")[1]
        stats = envelope["stats"]
        expected = (envelope["engine"], stats["formula_class"])
        assert [(series["engine"], series["formula_class"])
                for series in moved] == [expected]
        assert (line["engine"], line["formula_class"]) == expected
        assert (document["engine"], document["formula_class"]) == expected
        assert (line["strategy"], line["backend"]) == (
            stats["strategy"], stats["backend"])

    def test_sync_query_and_job(self):
        with served(trace_sample=0.0) as server:
            before = self._queries_total(server)
            _, envelope, _ = request(server, "POST", "/query",
                                     {"query": "P(a, Y)", "trace": True})
            assert (envelope["engine"], envelope["stats"]["formula_class"],
                    envelope["stats"]["strategy"]) == (
                "compiled", "A5", "stable")
            self._check(server, envelope["query_id"], envelope, before)

            before = self._queries_total(server)
            _, job, _ = request(server, "POST", "/jobs",
                                {"query": "P(X, Y)", "engine": "semi-naive",
                                 "trace": True})
            deadline = time.monotonic() + 10
            status = 409
            while status == 409 and time.monotonic() < deadline:
                status, envelope, _ = request(server, "GET",
                                              job["result_url"])
                time.sleep(0.02)
            assert status == 200
            assert (envelope["engine"],
                    envelope["stats"]["formula_class"]) == (
                "semi-naive", "A5")
            self._check(server, job["query_id"], envelope, before)


class TestFlightRecorder:
    def test_forced_trace_retrievable_with_service_phases(self):
        with served(trace_sample=0.0) as server:
            _, body, _ = request(server, "POST", "/query",
                                 {"query": "P(a, Y)", "trace": True})
            query_id = body["query_id"]
            status, document, _ = request(server, "GET",
                                          f"/debug/traces/{query_id}")
            assert status == 200
            assert document["query_id"] == query_id
            assert document["captured_reason"] == "forced"
            assert document["outcome"] == "ok"
            assert document["answers"] == 3
            names = [span["name"] for span in document["phases"]]
            assert names == ["admission", "snapshot", "engine",
                             "decode", "render"]
            assert document["trace"]["engine"] == "compiled"

    def test_summaries_and_counters_reconcile(self):
        with served(trace_sample=0.0) as server:
            request(server, "POST", "/query",
                    {"query": "P(a, Y)", "trace": True})
            request(server, "POST", "/query",
                    {"query": "P(X, Y)"})  # not captured
            status, report, _ = request(server, "GET", "/debug/traces")
            assert status == 200
            assert report["captured_total"] == 1
            assert report["forced_total"] == 1
            assert report["sampled_total"] == 0
            assert report["slow_total"] == 0
            assert len(report["traces"]) == 1

    def test_sampling_at_rate_one_captures_everything(self):
        with served(trace_sample=1.0) as server:
            for _ in range(3):
                request(server, "POST", "/query", {"query": "P(a, Y)"})
            report = request(server, "GET", "/debug/traces")[1]
            assert report["captured_total"] == 3
            assert report["sampled_total"] == 3
            assert report["captured_total"] == (
                report["sampled_total"] + report["forced_total"]
                + report["slow_total"])

    def test_unknown_trace_id_is_404(self, server):
        assert request(server, "GET", "/debug/traces/nope")[0] == 404

    def test_trace_field_must_be_bool(self, server):
        status, body, _ = request(server, "POST", "/query",
                                  {"query": "P(a, Y)", "trace": "yes"})
        assert status == 400
        assert "trace" in body["error"]

    def test_cache_hit_records_single_span_trace(self):
        with served(trace_sample=0.0) as server:
            request(server, "POST", "/query",
                    {"query": "P(a, Y)"})  # populate cache
            _, body, _ = request(server, "POST", "/query",
                                 {"query": "P(a, Y)", "trace": True})
            document = request(server, "GET",
                               f"/debug/traces/{body['query_id']}")[1]
            trace = document["trace"]
            assert trace["meta"] == {"cache_hit": True}
            assert [r["kind"] for r in trace["rounds"]] == ["cache"]

    def test_disabled_recorder_is_inert_and_bit_identical(self):
        """``--trace-sample 0`` with no slow threshold captures
        nothing and leaves answers and stats exactly as a fully
        sampled server produces them."""
        documents = ({"query": "P(a, Y)"}, {"query": "P(X, Y)"},
                     {"query": "P(X, Y)", "engine": "semi-naive"})
        bodies = []
        for rate in (0.0, 1.0):
            with served(trace_sample=rate) as server:
                bodies.append([])
                for document in documents:
                    _, body, _ = request(server, "POST", "/query", document)
                    body.pop("query_id")
                    body.pop("duration_s")
                    bodies[-1].append(body)
                report = request(server, "GET", "/debug/traces")[1]
                expected = 0 if rate == 0.0 else len(documents)
                assert report["captured_total"] == expected
                if rate == 0.0:
                    assert report["traces"] == []
        assert bodies[0] == bodies[1]

    def test_async_job_shares_the_recorder(self):
        with served(trace_sample=0.0) as server:
            status, body, headers = request(
                server, "POST", "/query",
                {"query": "P(X, Y)", "mode": "async", "trace": True})
            assert status == 202
            query_id = body["query_id"]
            assert headers.get("X-Repro-Query-Id") == query_id
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                job = request(server, "GET", body["status_url"])[1]
                if job["state"] in ("done", "error", "cancelled"):
                    break
                time.sleep(0.02)
            assert job["state"] == "done"
            assert job["query_id"] == query_id
            document = request(server, "GET", f"/debug/traces/{query_id}")[1]
            assert document["captured_reason"] == "forced"
            assert [s["name"] for s in document["phases"]] == [
                "admission", "snapshot", "engine"]
            assert document["answers"] == len(CLOSURE)


class TestBuildInfo:
    def test_version_in_health_stats_and_metrics(self, server):
        health = request(server, "GET", "/healthz")[1]
        assert health["version"] == __version__
        stats = request(server, "GET", "/stats")[1]
        assert stats["server"]["version"] == __version__
        assert "recorder" in stats["server"]
        samples = parse_prometheus_text(request(server, "GET", "/metrics")[1])
        [(labels, value)] = [
            (labels, value) for (name, labels), value
            in samples.items() if name == "repro_build_info"]
        assert value == 1
        assert ("version", __version__) in labels
        assert any(key == "python" for key, _ in labels)

    def test_exemplars_attach_query_ids_when_enabled(self):
        with served(trace_sample=0.0, exemplars=True) as server:
            request(server, "POST", "/query", {"query": "P(a, Y)"},
                    headers={"X-Repro-Query-Id": "exem-1"})
            exemplars = {}
            parse_prometheus_text(request(server, "GET", "/metrics")[1],
                                  exemplars=exemplars)
            ids = {labels["query_id"]
                   for (name, _), (labels, _) in exemplars.items()
                   if name == "repro_query_duration_seconds_bucket"}
            assert ids == {"exem-1"}

    def test_exemplars_absent_by_default(self, server):
        request(server, "POST", "/query", {"query": "P(a, Y)"})
        exemplars = {}
        parse_prometheus_text(request(server, "GET", "/metrics")[1],
                              exemplars=exemplars)
        assert exemplars == {}
