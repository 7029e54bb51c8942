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
* **session laws** — a session answers the same with numpy hidden;
* **compressed chains** — the composed step a delta loop probes is
  cached per version of the relations it reads, shared by copies,
  dropped by pickling, and declined past its fan-out bound.
"""

from __future__ import annotations

import pickle
import tracemalloc
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.errors import EvaluationError
from repro.datalog.parser import parse_system
from repro.engine import (CompiledEngine, Deadline, NaiveEngine, Query,
                          SemiNaiveEngine)
from repro.engine import vector as vector_module
from repro.engine.plan import compile_plan
from repro.engine.stats import EvaluationStats
from repro.engine.trace import Tracer
from repro.engine.vector import validate_backend
from repro.ra import Database
from repro.session import DeductiveDatabase
from repro.workloads import CATALOGUE, EXTRA_CATALOGUE, chain, random_edb

#: one catalogue representative per paper class A1 … F, and the
#: compressed chain the delta loops probe as one composed step
CLASS_ENTRIES = {
    "A1": "s2a", "A3": "s4", "A4": "s5", "A5": "s1a",
    "B": "s8", "C": "s9", "D": "s10", "E": "s11", "F": "s12",
    "A5-chain": "compressed_chain",
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
    name = CLASS_ENTRIES[paper_class]
    system = (CATALOGUE.get(name) or EXTRA_CATALOGUE[name]).system()
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
    """The whole trace document minus its wall-clock fields and the
    reason a loop ran in python (:func:`_declines`)."""
    document = tracer.trace.to_dict()
    document.pop("total_s")
    for span in document["rounds"]:
        span.pop("duration_s")
        span["detail"].pop("vector", None)
        for rule in span["rules"]:
            rule.pop("duration_s")
    return document


def _declines(tracer) -> list[str]:
    """Why each delta loop of the trace ran in python, in order."""
    return [span.detail["vector"] for span in tracer.trace.rounds
            if "vector" in span.detail]


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
        # but why each loop ran in python: pinned by semi-naive's
        # backend="python", or the first reason the kernel declines
        reasons, reasons_p = _declines(trace), _declines(trace_p)
        if engine == "semi-naive":
            assert len(reasons) == len(reasons_p)
            assert "python" not in reasons
            assert set(reasons_p) <= {"python"}
        else:
            assert reasons == reasons_p
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


#: a call that carries a third column past the kernel's entry layout
THREE_COLUMNS = "P(x, y, w) :- A(x, z), P(z, y, w)."

#: s11: a delta round of several steps
S11_SYSTEM = "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1)."


class TestDeclineReasons:
    """Why a delta loop runs in python: the first condition that fails,
    in the order ``run_delta_loop`` checks them."""

    @staticmethod
    def _loop(rule):
        system = parse_system(rule)
        db = random_edb(system, nodes=5, tuples_per_relation=6, seed=0)
        recursive = system.recursive
        entry = tuple(recursive.recursive_atom.args)
        plan = compile_plan(recursive.nonrecursive_atoms, entry,
                            recursive.head.args, db)
        return entry, plan

    @pytest.mark.parametrize("rule, backend, filtered, symbols, reason", [
        pytest.param(TC_SYSTEM, "python", True, 10, "python",
                     id="pinned-before-filtered"),
        pytest.param(THREE_COLUMNS, "auto", True, 10, "filtered",
                     id="filtered-before-layout"),
        pytest.param(S11_SYSTEM, "auto", False, 10, "steps", id="steps"),
        pytest.param(TC_SYSTEM, "auto", False, 2 ** 32, "domain",
                     id="domain"),
        pytest.param(TC_SYSTEM, "auto", False, 10, None, id="certified"),
    ])
    def test_first_failing_condition(self, rule, backend, filtered,
                                     symbols, reason):
        entry, plan = self._loop(rule)
        relevant = (lambda row: True) if filtered else None
        if reason is None and not vector_module.HAVE_NUMPY:
            reason = "no numpy"
        assert vector_module._declined(backend, relevant, entry, plan,
                                       symbols) == reason

    def test_no_numpy_is_checked_last(self):
        entry, plan = self._loop(TC_SYSTEM)
        three, three_plan = self._loop(THREE_COLUMNS)
        with numpy_absent():
            assert vector_module._declined("auto", None, entry, plan,
                                           10) == "no numpy"
            assert vector_module._declined("auto", None, three,
                                           three_plan, 10) == "layout"


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


#: the catalogue's ``compressed_chain``: A∘B∘C composes into one step
CHAIN_SYSTEM = "P(x, y) :- A(x, m), B(m, n), C(n, z), P(z, y)."

#: one A∘B∘C path, a → z, beside dead ends that one more row of A, B
#: or C completes; exits on z and q
CHAIN_DB = {"A": [("a", "m"), ("a2", "m2")], "B": [("m", "n")],
            "C": [("n", "z"), ("n2", "q")],
            "P__exit": [("z", "z"), ("q", "q")]}


def _chain_run(db, backend="auto"):
    """Semi-naive over :data:`CHAIN_SYSTEM` on *db*: the answers, the
    stats and the first delta round's detail."""
    tracer, stats = Tracer(), EvaluationStats()
    answers = SemiNaiveEngine(backend=backend).evaluate(
        parse_system(CHAIN_SYSTEM), db, stats=stats, trace=tracer)
    return answers, stats, tracer.trace.rounds[1].detail


def _count_builds(monkeypatch) -> list[str]:
    """The names of the compositions built from here on."""
    builds: list[str] = []
    original = Database.composition

    def spy(self, name, inputs, build):
        def counted():
            builds.append(name)
            return build()
        return original(self, name, inputs, counted)

    monkeypatch.setattr(Database, "composition", spy)
    return builds


class TestCompressedChains:
    @pytest.mark.parametrize("change,relation,row", [
        ("add", "A", ("b", "m")), ("add", "B", ("m2", "n")),
        ("add", "C", ("n", "q")), ("remove", "A", ("a", "m")),
        ("remove", "B", ("m", "n")), ("remove", "C", ("n", "z")),
    ])
    def test_a_changed_input_rebuilds_the_composition(self, change,
                                                      relation, row):
        """Every change to a relation the composition reads changes
        the answers here, so a stale composition, dense view or CSR
        view would answer wrongly on one of the two backends."""
        db = Database.from_dict(CHAIN_DB)
        before, _, detail = _chain_run(db)
        assert detail == {"chain": "ABC", "chain_anchors": ["x", "z"],
                          "chain_rows": 1, "chain_inputs": 5,
                          "chain_status": "built",
                          **({} if vector_module.HAVE_NUMPY
                             else {"vector": "no numpy"})}
        assert _chain_run(db, "python")[2]["chain_status"] == "reused"
        getattr(db, change)(relation, row)
        expected = NaiveEngine().evaluate(parse_system(CHAIN_SYSTEM), db)
        assert expected != before
        for backend, status in (("auto", "built"), ("python", "reused")):
            answers, _, detail = _chain_run(db, backend)
            assert detail["chain_status"] == status
            assert answers == expected, backend

    def test_copies_share_and_snapshots_drop_it(self):
        db = Database.from_dict(CHAIN_DB)
        answers, built, _ = _chain_run(db)
        assert built.hash_builds > 0
        copy, _, detail = _chain_run(db.copy())
        assert detail["chain_status"] == "reused"
        snapshot = pickle.loads(pickle.dumps(db))
        again, stats, detail = _chain_run(snapshot)
        assert detail["chain_status"] == "built"
        assert answers == copy == again
        assert stats.hash_builds == built.hash_builds

    def test_a_composition_is_no_relation(self):
        db = Database.from_dict(CHAIN_DB)
        shown = (db.relation_names, db.total_facts(),
                 db.metrics_snapshot(), db.global_version())
        _chain_run(db)
        assert (db.relation_names, db.total_facts(),
                db.metrics_snapshot(), db.global_version()) == shown

    def test_counters_do_not_depend_on_an_earlier_build(self):
        db = Database.from_dict(CHAIN_DB)
        _, cold, _ = _chain_run(db)
        _, warm, _ = _chain_run(db)
        for name in ("rounds", "probes", "derived", "delta_sizes",
                     "batch_sizes"):
            assert getattr(cold, name) == getattr(warm, name), name
        assert warm.hash_builds == 0 < cold.hash_builds

    @pytest.mark.parametrize("rule", [
        CHAIN_SYSTEM, "P(x, y) :- A(x, m), B(m, z), P(z, y).",
    ], ids=["three-atom", "two-atom"])
    def test_a_hub_declines_and_is_not_retried(self, monkeypatch, rule):
        """400 A rows into one m and 400 B rows out of it: the B step
        would surface 160,000 rows, past the bound for 1,200 (or 800)
        input rows, whether a C step follows it or B is the last, fused
        probe.  The composition is declined before any is held, once,
        and the plain plan runs.  Twenty exits on each rule's call side
        (the ``a`` nodes for C, the ``n`` nodes for B) let it try."""
        system = parse_system(rule)
        hub = {"A": [(f"a{i}", "m") for i in range(400)],
               "B": [("m", f"n{i}") for i in range(400)],
               "C": [(f"n{i}", f"a{i}") for i in range(400)],
               "P__exit": [(f"{node}{i}",) * 2 for node in "an"
                           for i in range(20)]}
        db = Database.from_dict(hub)
        expected = NaiveEngine().evaluate(system, db)
        builds = _count_builds(monkeypatch)
        for backend in ("auto", "python"):
            tracer, stats = Tracer(), EvaluationStats()
            tracemalloc.start()
            try:
                answers = SemiNaiveEngine(backend=backend).evaluate(
                    system, db, stats=stats, trace=tracer)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            detail = tracer.trace.rounds[1].detail
            assert detail["chain_status"] == "declined"
            assert detail["chain_rows"] is None
            assert answers == expected
            assert stats.backend == "python"
            assert peak < 4_000_000  # 160,000 pairs would hold ~15 MB
        assert len(builds) == 1
        assert len(expected) > 400  # the recursion derives through the hub

    def test_sparse_exits_skip_the_composition(self, monkeypatch):
        """Exit rows fewer than one per ``CHAIN_EXIT_SHARE`` rows the
        chain reads run the plain plan, unbuilt; one more exit row that
        the chain extends composes."""
        share = vector_module.CHAIN_EXIT_SHARE
        db = Database.from_dict({
            "A": [(f"a{i}", f"m{i}") for i in range(share)],
            "B": [(f"m{i}", f"n{i}") for i in range(share - 1)],
            "C": [("n0", "z")], "P__exit": [("z", "y")]})
        builds = _count_builds(monkeypatch)
        answers, stats, detail = _chain_run(db)
        assert detail == {"chain": "ABC", "chain_anchors": ["x", "z"],
                          "chain_rows": None, "chain_inputs": 2 * share,
                          "chain_status": "skipped", "vector": "steps"}
        assert builds == [] and stats.backend == "python"
        assert answers == NaiveEngine().evaluate(
            parse_system(CHAIN_SYSTEM), db)
        db.add("P__exit", ("z", "q"))
        answers, stats, detail = _chain_run(db)
        assert (detail["chain_status"], detail["chain_rows"]) == ("built", 1)
        assert len(builds) == 1
        assert stats.backend == ("numpy" if vector_module.HAVE_NUMPY
                                 else "python")
        assert answers == NaiveEngine().evaluate(
            parse_system(CHAIN_SYSTEM), db)

    def test_exits_no_chain_extends_skip_the_composition(self,
                                                         monkeypatch):
        """320 exits on the top level of a layered A/B/C graph, which
        no C row reaches, and one exit that one does: counted all, the
        exits would compose the chain, but only the one it extends
        counts.  The plain plan runs, no composition is built, and the
        answers stay right."""
        share = vector_module.CHAIN_EXIT_SHARE
        width = 320
        relations = {name: [(f"l{level}_{i}", f"l{level + 1}_{i}")
                            for i in range(width)]
                     for level, name in enumerate("ABC")}
        relations["P__exit"] = [(f"l0_{i}",) * 2 for i in range(width)]
        relations["P__exit"].append(("l3_0", "l3_0"))
        db = Database.from_dict(relations)
        assert len(relations["P__exit"]) * share >= 3 * width
        builds = _count_builds(monkeypatch)
        answers, stats, detail = _chain_run(db)
        assert detail["chain_status"] == "skipped"
        assert builds == []
        assert answers == NaiveEngine().evaluate(
            parse_system(CHAIN_SYSTEM), db)
        assert ("l0_0", "l3_0") in answers

    def test_the_benchmark_chains_still_compose(self, e2e_gen):
        """hop3 (2,220 of its 2,775 exits extend its ``ABC`` chain,
        against 19,980 input rows) and s9's R (10 of 10 exits extend
        its ``BA`` chain, against 594) compose on the end-to-end
        benchmark's own data."""
        datasets = e2e_gen.lib_datasets()
        rule, relations = datasets["hop3"]
        tracer = Tracer()
        SemiNaiveEngine().evaluate(parse_system(rule),
                                   Database.from_dict(relations),
                                   trace=tracer)
        detail = tracer.trace.rounds[1].detail
        assert (detail["chain"], detail["chain_status"]) == ("ABC", "built")
        rule, relations = datasets["s9"]
        tracer = Tracer()
        CompiledEngine().evaluate(parse_system(rule),
                                  Database.from_dict(relations),
                                  Query.parse("P(c71, V1, V2)"),
                                  trace=tracer)
        (detail,) = [span.detail for span in tracer.trace.rounds
                     if "chain" in span.detail]
        assert (detail["chain"], detail["chain_status"]) == ("BA", "built")

    @pytest.mark.parametrize("name", ["s1a", "s11"])
    def test_tc_and_s11_do_not_compose(self, name):
        """TC's cluster is one atom and s11's has four anchors."""
        system = CATALOGUE[name].system()
        db = random_edb(system, nodes=5, tuples_per_relation=8, seed=4)
        tracer = Tracer()
        SemiNaiveEngine().evaluate(system, db, trace=tracer)
        assert not any("chain" in span.detail
                       for span in tracer.trace.rounds)
