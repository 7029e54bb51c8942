"""Vectorised-backend laws: numpy kernel ≡ tuple-set loop.

The vectorised delta-loop kernel (:mod:`repro.engine.vector`) is pure
representation: whether the numpy kernel runs or the original
tuple-set loop pinned by ``backend="python"`` — the answers, the
per-round stats deltas and the trace shapes must be bit-identical.
Three layers pin this down:

* **backend parity** — classes A1–C × the delta-loop engines
  (semi-naive, compiled): ``auto`` vs pinned-python agree on
  everything except the fields that name which backend ran; with
  numpy absent, ``auto`` *is* the python loop, down to the backend
  name and the traces;
* **fallback paths** — uncertified plan shapes and ``max_rounds``
  caps take the python loop with identical results, and
  ``backend="python"`` pins it explicitly;
* **session laws** — ``session.query(backend=...)`` validates the
  name, keys the answer cache per backend, and returns identical
  answers either way.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.errors import EvaluationError
from repro.engine import CompiledEngine, Query, SemiNaiveEngine
from repro.engine import vector as vector_module
from repro.engine.stats import EvaluationStats
from repro.engine.trace import Tracer
from repro.engine.vector import validate_backend
from repro.session import DeductiveDatabase
from repro.workloads import CATALOGUE, random_edb

#: one catalogue representative per paper class A1 … C
CLASS_ENTRIES = {
    "A1": "s2a", "A3": "s4", "A4": "s5", "A5": "s1a",
    "B": "s8", "C": "s9",
}

#: the engines that own a delta loop (and may hand it to the kernel)
ENGINES = {
    "semi-naive": SemiNaiveEngine,
    "compiled": CompiledEngine,
}


@contextmanager
def numpy_absent():
    """Run the block as if numpy were not installed."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(vector_module, "_np", None)
        monkeypatch.setattr(vector_module, "HAVE_NUMPY", False)
        yield


def _workload(paper_class, seed, tuples):
    system = CATALOGUE[CLASS_ENTRIES[paper_class]].system()
    db = random_edb(system, nodes=5, tuples_per_relation=tuples,
                    seed=seed)
    query = Query.all_free(system.predicate, system.dimension)
    return system, db, query


def _run(engine, system, db, query, backend):
    stats = EvaluationStats()
    tracer = Tracer()
    answers = ENGINES[engine](backend=backend).evaluate(
        system, db.copy(), query, stats, trace=tracer)
    return answers, stats, tracer


def _trace_shape(tracer):
    trace = tracer.trace
    return ([(s.kind, s.delta_in, s.delta_out, s.probes, s.derived,
              s.hash_builds) for s in trace.rounds],
            {k: v for k, v in trace.meta.items() if k != "backend"})


def _trace_doc(tracer):
    """The whole trace document minus its wall-clock fields."""
    document = tracer.trace.to_dict()
    document.pop("total_s")
    for span in document["rounds"]:
        span.pop("duration_s")
        for rule in span["rules"]:
            rule.pop("duration_s")
    return document


def _stats_shape(stats):
    """Every stats field except the ones naming the backend that ran."""
    shape = dict(vars(stats))
    for field in ("backend", "vector_batches", "vector_rows"):
        shape.pop(field)
    return shape


class TestBackendParity:
    @pytest.mark.parametrize("paper_class", sorted(CLASS_ENTRIES))
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 7), tuples=st.integers(4, 10))
    def test_vector_matches_pinned_python(self, paper_class, engine,
                                          seed, tuples):
        system, db, query = _workload(paper_class, seed, tuples)
        # warm the process-wide plan cache so both runs hit it alike
        _run(engine, system, db, query, "python")
        answers_v, stats_v, trace_v = _run(engine, system, db, query,
                                           "auto")
        answers_p, stats_p, trace_p = _run(engine, system, db, query,
                                           "python")
        assert answers_v == answers_p
        assert answers_v.encoded == answers_p.encoded
        assert stats_p.backend == "python"
        assert stats_p.vector_batches == stats_p.vector_rows == 0
        assert _stats_shape(stats_v) == _stats_shape(stats_p)
        assert _trace_shape(trace_v) == _trace_shape(trace_p)

    @pytest.mark.parametrize("paper_class", sorted(CLASS_ENTRIES))
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 7), tuples=st.integers(4, 10))
    def test_numpy_absent_is_python_loop(self, paper_class, engine,
                                         seed, tuples):
        system, db, query = _workload(paper_class, seed, tuples)
        _run(engine, system, db, query, "python")  # warm plan cache
        with numpy_absent():
            answers, stats, trace = _run(engine, system, db, query,
                                         "auto")
            answers_p, stats_p, trace_p = _run(engine, system, db,
                                               query, "python")
        assert stats_p.backend == "python"
        assert answers == answers_p
        assert answers.encoded == answers_p.encoded
        # everything, backend name and vector counters included
        assert vars(stats) == vars(stats_p)
        assert _trace_doc(trace) == _trace_doc(trace_p)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 7), cap=st.integers(0, 3))
    def test_max_rounds_parity(self, seed, cap):
        system, db, query = _workload("A1", seed, 8)
        results = {}
        for backend in ("auto", "python"):
            stats = EvaluationStats()
            answers = SemiNaiveEngine(backend=backend).evaluate(
                system, db.copy(), query, stats, max_rounds=cap)
            results[backend] = (frozenset(answers), stats.rounds,
                                tuple(stats.delta_sizes))
        assert results["auto"] == results["python"]


class TestFallbackPaths:
    def test_unknown_backend_rejected(self):
        with pytest.raises(EvaluationError):
            SemiNaiveEngine(backend="gpu")
        with pytest.raises(EvaluationError):
            validate_backend("cuda")
        with pytest.raises(EvaluationError):
            validate_backend("vector")
        assert validate_backend("auto") == "auto"


class TestSessionLaws:
    def _session(self):
        session = DeductiveDatabase()
        session.load("""
            anc(x, y) :- par(x, z), anc(z, y).
            anc(x, y) :- par(x, y).
            par(a, b). par(b, c). par(c, d).
        """)
        return session

    @pytest.mark.parametrize("engine", ["semi-naive", "compiled"])
    def test_query_backends_agree(self, engine):
        session = self._session()
        vector = session.query("anc(X, Y)", engine=engine,
                               backend="auto")
        python = session.query("anc(X, Y)", engine=engine,
                               backend="python")
        assert vector == python
        assert len(vector) == 6

    def test_bound_query_backends_agree(self):
        session = self._session()
        assert (session.query("anc(a, Y)", engine="semi-naive",
                              backend="auto")
                == session.query("anc(a, Y)", engine="semi-naive",
                                 backend="python"))

    def test_answer_cache_keyed_by_backend(self):
        session = self._session()
        for backend in ("auto", "python"):
            session.query("anc(X, Y)", engine="semi-naive",
                          backend=backend)
        stats = EvaluationStats()
        session.query("anc(X, Y)", engine="semi-naive",
                      backend="auto", stats=stats)
        assert stats.answer_cache_hits == 1
        stats = EvaluationStats()
        session.query("anc(X, Y)", engine="semi-naive",
                      backend="python", stats=stats)
        assert stats.answer_cache_hits == 1

    def test_invalid_backend_raises(self):
        session = self._session()
        with pytest.raises(EvaluationError):
            session.query("anc(X, Y)", backend="gpu")
