"""The flight recorder: capture policy, bounded memory, concurrency,
and the torn-log-line guarantee of the JSON query logger."""

import io
import json
import threading

import pytest

from time import perf_counter

from repro.engine.stats import EvaluationStats
from repro.flight import FlightRecorder, RequestContext
from repro.logutil import QueryLogger, valid_query_id
from repro.metrics import MetricsRegistry


def _finalize(recorder, ctx, *, duration_s=0.001, outcome="ok",
              **kwargs):
    stats = EvaluationStats(engine="compiled", formula_class="A2")
    return recorder.finalize(ctx, stats, duration_s=duration_s,
                             outcome=outcome, epoch=0, answers=3,
                             **kwargs)


class TestCapturePolicy:
    def test_disabled_recorder_captures_nothing(self):
        recorder = FlightRecorder(8)
        ctx = recorder.context("q-1", query="P(a, Y)")
        assert ctx.tracer is None
        assert _finalize(recorder, ctx) is None
        assert recorder.captured_total == 0
        assert recorder.summaries() == []
        assert recorder.get("q-1") is None

    def test_forced_capture_wins_over_sampling(self):
        recorder = FlightRecorder(8, sample_rate=1.0)
        ctx = recorder.context("q-1", query="P(a, Y)", force=True)
        assert ctx.sampled  # the sampler said yes too
        assert _finalize(recorder, ctx) == "forced"
        assert recorder.forced_total == 1
        assert recorder.sampled_total == 0

    def test_slow_capture_without_sampling(self):
        recorder = FlightRecorder(8, slow_query_ms=10.0)
        fast = recorder.context("q-fast")
        slow = recorder.context("q-slow")
        assert _finalize(recorder, fast, duration_s=0.001) is None
        assert _finalize(recorder, slow, duration_s=0.5) == "slow"
        assert recorder.slow_total == 1
        assert recorder.get("q-slow")["captured_reason"] == "slow"

    def test_slow_query_log_event_emitted_even_when_sampled(self):
        stream = io.StringIO()
        log = QueryLogger(stream)
        recorder = FlightRecorder(8, sample_rate=1.0,
                                  slow_query_ms=1.0)
        ctx = recorder.context("q-1", query="P(X, Y)")
        reason = _finalize(recorder, ctx, duration_s=0.2,
                           query_log=log)
        assert reason == "sampled"  # sampling wins the attribution
        event = json.loads(stream.getvalue())
        assert event["event"] == "slow_query"
        assert event["query_id"] == "q-1"
        assert event["threshold_ms"] == 1.0
        # the labels come off the stats the query close wrote
        assert (event["engine"], event["formula_class"]) == (
            "compiled", "A2")
        document = recorder.get("q-1")
        assert (document["engine"], document["formula_class"]) == (
            "compiled", "A2")

    def test_reconciliation_identity_holds(self):
        recorder = FlightRecorder(64, sample_rate=0.5,
                                  slow_query_ms=50.0, seed=7)
        for index in range(40):
            ctx = recorder.context(f"q-{index}",
                                   force=(index % 10 == 0))
            _finalize(recorder, ctx,
                      duration_s=(0.2 if index % 7 == 0 else 0.001))
        assert recorder.captured_total == (recorder.sampled_total
                                           + recorder.forced_total
                                           + recorder.slow_total)
        assert recorder.forced_total == 4

    def test_capture_counter_exported_to_registry(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(8, metrics=registry)
        _finalize(recorder, recorder.context("q-1", force=True))
        counter = registry.get("repro_traces_captured_total")
        assert counter.value(reason="forced") == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)
        with pytest.raises(ValueError):
            FlightRecorder(8, sample_rate=1.5)


class TestBoundedMemory:
    def test_eviction_is_oldest_first(self):
        recorder = FlightRecorder(3, sample_rate=1.0)
        for index in range(5):
            _finalize(recorder, recorder.context(f"q-{index}"))
        retained = [s["query_id"] for s in recorder.summaries()]
        assert retained == ["q-4", "q-3", "q-2"]  # newest first
        assert recorder.get("q-0") is None
        assert recorder.get("q-1") is None
        assert recorder.evicted_total == 2
        assert recorder.captured_total == 5

    def test_reused_id_replaces_without_eviction(self):
        recorder = FlightRecorder(2, sample_rate=1.0)
        _finalize(recorder, recorder.context("q-a"))
        _finalize(recorder, recorder.context("q-a", force=True))
        assert recorder.get("q-a")["captured_reason"] == "forced"
        assert recorder.evicted_total == 0
        assert recorder.captured_total == 2
        assert recorder.stats()["retained"] == 1


class TestSamplingDeterminism:
    def test_seeded_samplers_agree(self):
        decisions = []
        for _ in range(2):
            recorder = FlightRecorder(8, sample_rate=0.5, seed=42)
            decisions.append([
                recorder.context(f"q-{i}").sampled for i in range(64)])
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_rate_zero_and_one_are_exact(self):
        never = FlightRecorder(8, sample_rate=0.0)
        always = FlightRecorder(8, sample_rate=1.0)
        assert not any(never.context(f"q-{i}").sampled
                       for i in range(32))
        assert all(always.context(f"q-{i}").sampled
                   for i in range(32))


class TestConcurrency:
    def test_counters_and_capacity_exact_under_threads(self):
        recorder = FlightRecorder(16, sample_rate=1.0)
        per_thread = 50

        def worker(tag: int) -> None:
            for index in range(per_thread):
                ctx = recorder.context(f"q-{tag}-{index}")
                _finalize(recorder, ctx)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = recorder.stats()
        assert stats["captured_total"] == 8 * per_thread
        assert stats["captured_total"] == (stats["sampled_total"]
                                           + stats["forced_total"]
                                           + stats["slow_total"])
        assert stats["retained"] == 16
        assert stats["evicted_total"] == 8 * per_thread - 16
        assert len(recorder.summaries()) == 16

    def test_query_logger_lines_never_tear(self):
        """8 writer threads × 200 events on one stream: every line is
        one complete JSON object — the per-line lock holds."""
        stream = io.StringIO()
        log = QueryLogger(stream)
        per_thread = 200

        def worker(tag: int) -> None:
            for index in range(per_thread):
                log.log(event="query", query_id=f"q-{tag}-{index}",
                        payload="x" * 50)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 8 * per_thread
        seen = {json.loads(line)["query_id"] for line in lines}
        assert len(seen) == 8 * per_thread


class TestRequestContext:
    def test_phases_record_in_order_with_detail(self):
        ctx = RequestContext("q-1", query="P(a, Y)")
        ctx.add_phase("admission", perf_counter())
        ctx.add_phase("engine", perf_counter(), epoch=3)
        names = [span["name"] for span in ctx.phases]
        assert names == ["admission", "engine"]
        offsets = [span["offset_s"] for span in ctx.phases]
        assert offsets == sorted(offsets)
        assert all(span["duration_s"] >= 0 for span in ctx.phases)
        assert ctx.phases[1]["detail"] == {"epoch": 3}

    def test_tracer_allocated_only_when_capturing(self):
        assert RequestContext("q-1").tracer is None
        assert RequestContext("q-1", sampled=True).tracer.passive
        assert RequestContext("q-1", force=True).tracer.passive


class TestHelpers:
    def test_valid_query_id(self):
        assert valid_query_id("q-123")
        assert valid_query_id("client:abc_1.x")
        assert not valid_query_id("")
        assert not valid_query_id("has space")
        assert not valid_query_id("x" * 129)
        assert not valid_query_id(42)
        assert not valid_query_id("path/../traversal")
