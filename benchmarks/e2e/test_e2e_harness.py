"""Tests of the end-to-end benchmark's own machinery (not tier-1).

Run with ``python -m pytest benchmarks/e2e/test_e2e_harness.py``; the
whole file takes well under a minute, most of it the one-second smoke
of each workload.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import compare
import gen
import measure
import spans

E2E = Path(__file__).resolve().parent
ROOT = E2E.parent.parent


# -- inputs ---------------------------------------------------------------------

def _keys(seed: int) -> list[list[str]]:
    return list(gen.bound_turns(seed))


def _lib(seed: int) -> list[list[tuple]]:
    return list(itertools.islice(gen.lib_turns(seed), 5))


def _writes(seed: int) -> list[dict]:
    return list(itertools.islice(gen.write_batches(seed), 20))


def test_same_seed_same_inputs_other_seed_other_stream():
    assert gen.tc_program(*gen.TC5K) == gen.tc_program(*gen.TC5K)
    assert gen.lib_datasets() == gen.lib_datasets()
    assert _keys(1) == _keys(1) and _lib(1) == _lib(1)
    assert _writes(1) == _writes(1)

    assert _keys(2) != _keys(1) and len(_keys(2)) == len(_keys(1))
    assert _lib(2) != _lib(1)
    assert _writes(2) != _writes(1)
    assert ([{rel: len(rows) for rel, rows in batch["add"].items()}
             for batch in _writes(2)]
            == [{rel: len(rows) for rel, rows in batch["add"].items()}
                for batch in _writes(1)])


def test_every_turn_holds_the_whole_mix_and_writer_keeps_size():
    for seed in (1, 7):
        first, *rest = _lib(seed)
        assert all(sorted(turn) == sorted(first) for turn in rest)
        assert {kind: sum(k == kind for k, _ in first)
                for kind in gen.LIB_KINDS} == dict.fromkeys(
                    gen.LIB_KINDS, gen.LIB_CONSTANTS)
        assert len(set(first)) == (len(gen.FULL_KINDS)
                                   + len(gen.BOUND_KINDS)
                                   * gen.LIB_CONSTANTS)
    turns = _keys(1)
    keys = [key for turn in turns for key in turn]
    assert len(set(keys)) == len(keys) == gen.TC5K[0] * (gen.TC5K[1] + 1)
    assert all(sorted(key[-1] for key in turn) == list("012345678")
               for turn in turns)
    batches = list(itertools.islice(gen.write_batches(3), 12))
    live: set = set()
    for batch in batches:
        for row in batch.get("remove", {}).get("A", []):
            live.remove(tuple(row))
        live.update(tuple(row) for row in batch["add"]["A"])
    assert len(live) == gen.WRITE_LIFETIME * 8


def test_expected_answers():
    assert len(gen.tc_answers(*gen.TC20K)) == 112_500
    assert gen.bound_answers("c3_n7") == {("c3_n7", "c3_n7"),
                                          ("c3_n7", "c3_n8")}
    assert len(gen.hop3_answers(4, 6, 2)) > 0


# -- statistics -------------------------------------------------------------------

def test_nearest_rank_and_sample_guard():
    values = list(range(1, 101))
    assert measure.nearest_rank(values, 0.5) == 50
    assert measure.nearest_rank(values, 0.9) == 90
    assert measure.nearest_rank([3.0], 0.9) == 3.0
    assert measure.p90(values) == 90
    with pytest.raises(measure.TooFewSamples):
        measure.p90(values[:-1])


def test_closed_loop_runs_whole_turns_until_the_stream_ends():
    done: list[int] = []
    # a deadline already past still finishes the turn it is in
    assert measure.closed_loop(iter([[1, 2, 3], [4]]), done.append, 0.0)
    assert done == [1, 2, 3]
    done.clear()
    # too few samples: runs past the deadline, until the turns run out
    assert not measure.closed_loop(iter([[1], [2], [3]]), done.append,
                                   perf_counter(), grace=60.0,
                                   short=lambda: True)
    assert done == [1, 2, 3]


def test_served_window_ends_when_the_bound_keys_run_out(tmp_path,
                                                        monkeypatch):
    import run
    import served
    every_turn = gen.bound_turns
    monkeypatch.setattr(gen, "bound_turns",
                        lambda seed: itertools.islice(every_turn(seed), 4))
    result = served.run_pass("served-bound", 1, 60.0, 1, ROOT,
                             run.child_env(), tmp_path)
    assert result["stream_ended"]
    reads = [op for op in result["ops"] if op["kind"] == "read"]
    # the set-up's key, then the three turns after the first
    assert len(reads) == 1 + 3 * 9 and all(op["ok"] for op in reads)


def test_self_time_of_nested_spans():
    def span(id_, name, start, end, parent, root=1):
        return {"id": id_, "name": name, "start": start, "end": end,
                "parent": parent, "root": root, "qid": None}

    records = [span(3, "engine", 2.0, 5.0, 2),
               span(4, "decode", 5.5, 6.0, 2),
               span(2, "session", 1.0, 7.0, 1),
               span(1, "server", 0.0, 10.0, None)]
    own = spans.self_times(records)
    assert own == {1: 4.0, 2: 2.5, 3: 3.0, 4: 0.5}
    assert sum(own.values()) == 10.0
    assert spans.self_by_name(records, lambda s: s["name"] != "server") \
        == {"engine": 3.0, "decode": 0.5, "session": 2.5}


def test_recorder_nests_per_thread():
    recorder = spans.Recorder()
    inner = recorder.wrap(lambda: None, "inner")
    outer = recorder.wrap(lambda: inner(), "outer")
    outer()
    inner_span, outer_span = recorder.spans
    assert inner_span[1] == "inner" and inner_span[4] == outer_span[0]
    assert outer_span[4] is None and inner_span[5] == outer_span[0]


# -- compare ---------------------------------------------------------------------------

def _runs(values: list[float], metric: str = "latency_p50_ms",
          cpus: int = 2) -> list[dict]:
    meta = {"cpus": cpus, "python": "3", "numpy": "2", "window_s": 20.0,
            "warmup_s": 2.0, "cold_starts": 3}
    return [{"meta": {**meta, "seed": seed},
             "workloads": {"served-bound": {"metrics": {metric: value}}}}
            for seed, value in enumerate(values, 1)]


LATENCY = {"latency_p50_ms": ("lower", 0.10)}


def _verdict(parent, change) -> str:
    (row,) = compare.compare(_runs(parent), _runs(change), LATENCY)
    return row["verdict"]


def test_compare_verdicts():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert _verdict(parent, [v * 0.8 for v in parent]) == "improved"
    assert _verdict(parent, [v * 1.2 for v in parent]) == "regressed"
    assert _verdict(parent, [v + 0.5 for v in parent]) == "within bound"
    noisy = [60.0, 140, 70, 130, 65, 135, 100, 100, 80, 120]
    assert _verdict(parent, noisy) == "unresolved"
    # a gain inside the parent's own spread is not an improvement
    spread_parent = [94.0, 106, 96, 104, 95, 105, 100, 100, 97, 103]
    assert _verdict(spread_parent, [v - 2 for v in spread_parent]) \
        == "within bound"


def test_compare_refuses_mismatched_runs():
    with pytest.raises(compare.Refused, match="cpus"):
        compare.compare(_runs([1.0] * 10), _runs([1.0] * 10, cpus=4),
                        LATENCY)
    with pytest.raises(compare.Refused, match="pairs"):
        compare.compare(_runs([1.0] * 9), _runs([1.0] * 9), LATENCY)
    with pytest.raises(compare.Refused, match="seed"):
        compare.compare(_runs([1.0] * 10), _runs([1.0] * 11), LATENCY)


def test_compare_reads_benchmark_bounds():
    table = compare.metric_table()
    assert table["setup_s"][0] == "lower"
    assert all(0 <= bound <= 0.25 for _, bound in table.values())


# -- smoke -------------------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["served-enum", "served-bound",
                                      "served-rw", "lib-engines"])
def test_one_second_smoke(workload):
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", workload,
         "--seed", "3", "--window", "1", "--cold-starts", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1 and result["failed"] == 0
    # a one-second window cannot hold the p90's hundred samples; that
    # must be the only reason the run is invalid
    problems = [line for line in proc.stderr.splitlines()
                if " INVALID " in line]
    assert all("p90 of" in line for line in problems), proc.stderr
    assert proc.returncode == (1 if problems else 0)
    assert result["metrics"]["setup_s"]["value"] > 0
