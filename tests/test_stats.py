"""Unit tests for evaluation statistics."""

import pytest

from repro.engine.stats import (ACCUMULATING_FIELDS,
                                ACCUMULATING_LIST_FIELDS,
                                EvaluationStats, delta_between)


class TestMeasuredRank:
    def test_exit_only(self):
        stats = EvaluationStats()
        stats.record_round(5)   # round 0: exits
        stats.record_round(0)   # fixpoint
        assert stats.measured_rank == 0

    def test_last_productive_round(self):
        stats = EvaluationStats()
        for size in (4, 3, 2, 0):
            stats.record_round(size)
        assert stats.measured_rank == 2

    def test_gap_rounds_ignored(self):
        stats = EvaluationStats()
        for size in (4, 0, 2, 0):
            stats.record_round(size)
        assert stats.measured_rank == 2

    def test_empty_database(self):
        stats = EvaluationStats()
        stats.record_round(0)
        assert stats.measured_rank == 0


class TestCounters:
    def test_record_round_increments_rounds(self):
        stats = EvaluationStats()
        stats.record_round(1)
        stats.record_round(2)
        assert stats.rounds == 2
        assert stats.delta_sizes == [1, 2]

    def test_summary_mentions_engine(self):
        stats = EvaluationStats(engine="compiled", probes=7)
        assert "compiled" in stats.summary()
        assert "probes=7" in stats.summary()

    def test_summary_includes_hash_counters(self):
        stats = EvaluationStats(engine="semi-naive", hash_builds=3,
                                hash_lookups=9)
        assert "hash=3b/9l" in stats.summary()


class TestToDict:
    def test_round_trips_every_counter(self):
        stats = EvaluationStats(engine="compiled", probes=3,
                                derived=2, answers=2,
                                hash_builds=1, hash_lookups=4)
        stats.record_round(2)
        document = stats.to_dict()
        assert document["engine"] == "compiled"
        assert document["delta_sizes"] == [2]
        assert document["measured_rank"] == 0
        assert document["hash_lookups"] == 4
        # every accumulating field is present — delta_between relies
        # on the schema being complete
        for name in ACCUMULATING_FIELDS + ACCUMULATING_LIST_FIELDS:
            assert name in document
        # schema 5 dropped the worker-pool fields
        for name in ("workers", "shard_counts", "shard_skew",
                     "pool_round_trip_s", "pool_fallbacks",
                     "sequential_rounds"):
            assert name not in document

    def test_lists_are_copies(self):
        stats = EvaluationStats()
        stats.record_round(1)
        document = stats.to_dict()
        stats.record_round(2)
        assert document["delta_sizes"] == [1]


class TestDeltaBetween:
    def test_scalars_subtract_lists_return_tail(self):
        stats = EvaluationStats(engine="semi-naive")
        stats.record_round(3)
        stats.probes = 10
        before = stats.to_dict()
        stats.record_round(5)
        stats.probes = 17
        stats.answers = 8
        delta = delta_between(before, stats.to_dict())
        assert delta["rounds"] == 1
        assert delta["probes"] == 7
        assert delta["delta_sizes"] == [5]
        # non-accumulating fields carry the after-value
        assert delta["answers"] == 8
        assert delta["engine"] == "semi-naive"

    def test_identical_snapshots_give_zero_delta(self):
        stats = EvaluationStats()
        stats.record_round(4)
        snapshot = stats.to_dict()
        delta = delta_between(snapshot, snapshot)
        assert all(delta[name] == 0 for name in ACCUMULATING_FIELDS)
        assert all(delta[name] == []
                   for name in ACCUMULATING_LIST_FIELDS)

    def test_missing_field_is_an_error(self):
        stats = EvaluationStats()
        broken = stats.to_dict()
        del broken["probes"]
        with pytest.raises(KeyError):
            delta_between(broken, stats.to_dict())
