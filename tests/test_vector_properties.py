"""Vectorised-backend laws: numpy kernel ≡ tuple-set loop.

The vectorised delta-loop kernel (:mod:`repro.engine.vector`) is pure
representation: whether the numpy kernel runs or the tuple-set loop
— pinned by ``SemiNaiveEngine(backend="python")``, or reached by
hiding numpy — the answers, the per-round stats deltas and the trace
shapes must be bit-identical.  Four layers pin this down:

* **backend parity** — classes A1–F × the delta-loop engines
  (semi-naive, compiled): the kernel vs the python loop agree on
  everything except the fields that name which backend ran; with
  numpy absent, ``auto`` *is* the python loop, down to the backend
  name and the traces;
* **deep chains** — recursions deep enough that the kernel's seen
  set holds several sorted runs, to fixpoint and under a row budget;
* **fallback paths** — an unknown backend name is refused;
* **session laws** — a session answers the same with numpy hidden.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.errors import EvaluationError
from repro.datalog.parser import parse_system
from repro.engine import CompiledEngine, Deadline, Query, SemiNaiveEngine
from repro.engine import vector as vector_module
from repro.engine.stats import EvaluationStats
from repro.engine.trace import Tracer
from repro.engine.vector import validate_backend
from repro.ra import Database
from repro.session import DeductiveDatabase
from repro.workloads import CATALOGUE, chain, random_edb

#: one catalogue representative per paper class A1 … F
CLASS_ENTRIES = {
    "A1": "s2a", "A3": "s4", "A4": "s5", "A5": "s1a",
    "B": "s8", "C": "s9", "D": "s10", "E": "s11", "F": "s12",
}

#: the engines that own a delta loop (and may hand it to the kernel)
ENGINES = ("compiled", "semi-naive")

#: transitive closure, the paper's (s1a): one fused step per round
TC_SYSTEM = "P(x, y) :- A(x, z), P(z, y)."


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


def _chain_database(edges, skip=False):
    """One *edges*-long chain with a reflexive exit on every node.
    With *skip*, an edge also jumps over each node, so a pair is
    derived again in the rounds after the one that found it, and the
    kernel's seen-set lookups hit runs of every age."""
    rows = chain(edges)
    if skip:
        rows += [(a, c) for (a, _), (_, c) in zip(rows, rows[1:])]
    nodes = sorted({node for row in rows for node in row})
    return Database.from_dict({"A": rows,
                               "P__exit": [(n, n) for n in nodes]})


def _run(engine, system, db, query, backend):
    stats = EvaluationStats()
    tracer = Tracer()
    if engine == "compiled":
        # the compiled engine takes no backend: its python loop is
        # the one that runs without numpy
        with numpy_absent() if backend == "python" else nullcontext():
            answers = CompiledEngine().evaluate(
                system, db.copy(), query, stats, trace=tracer)
    else:
        answers = SemiNaiveEngine(backend=backend).evaluate(
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


class TestDeepChains:
    """Closures deep enough that the kernel's seen set holds several
    sorted runs at once."""

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("edges", [17, 64, 200])
    def test_vector_matches_pinned_python(self, edges, skip):
        system = parse_system(TC_SYSTEM)
        db = _chain_database(edges, skip)
        query = Query.all_free("P", 2)
        _run("semi-naive", system, db, query, "python")  # warm plans
        answers_v, stats_v, _ = _run("semi-naive", system, db, query,
                                     "auto")
        answers_p, stats_p, _ = _run("semi-naive", system, db, query,
                                     "python")
        assert len(answers_v) == (edges + 1) * (edges + 2) // 2
        assert stats_v.rounds == ((edges + 1) // 2 if skip else edges) + 2
        assert (stats_v.backend == "numpy") == vector_module.HAVE_NUMPY
        assert answers_v == answers_p
        assert answers_v.encoded == answers_p.encoded
        assert stats_v.delta_sizes == stats_p.delta_sizes
        assert _stats_shape(stats_v) == _stats_shape(stats_p)

    @pytest.mark.parametrize("max_rows", [401, 5_000, 20_000])
    def test_row_budget_truncates_alike(self, max_rows):
        # 201 exit rows, then 200, 199, … per round: 401 stops one
        # round past the boundary it equals, the others mid-closure
        system = parse_system(TC_SYSTEM)
        db = _chain_database(200)
        results = {}
        for backend in ("auto", "python"):
            stats = EvaluationStats()
            stats.deadline = Deadline(max_rows=max_rows)
            answers = SemiNaiveEngine(backend=backend).evaluate(
                system, db, None, stats)
            assert stats.truncated
            results[backend] = (answers.encoded, stats.rounds,
                                stats.delta_sizes)
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
    @staticmethod
    def _query(text, engine):
        session = DeductiveDatabase()
        session.load("""
            anc(x, y) :- par(x, z), anc(z, y).
            anc(x, y) :- par(x, y).
            par(a, b). par(b, c). par(c, d).
        """)
        return session.query(text, engine=engine)

    def _both_ways(self, text, engine):
        """Answer *text* in two fresh sessions, numpy present, then
        hidden, so neither reads the other's answer cache."""
        vector = self._query(text, engine)
        with numpy_absent():
            python = self._query(text, engine)
        return vector, python

    @pytest.mark.parametrize("engine", ["semi-naive", "compiled"])
    def test_query_backends_agree(self, engine):
        vector, python = self._both_ways("anc(X, Y)", engine)
        assert vector == python
        assert vector.encoded == python.encoded
        assert len(vector) == 6

    def test_bound_query_backends_agree(self):
        for engine in ENGINES:
            vector, python = self._both_ways("anc(a, Y)", engine)
            assert vector == python
            assert vector.encoded == python.encoded
            assert len(vector) == 3
