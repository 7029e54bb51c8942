"""Tests for the top-down engine (magic sets over the join kernel)."""

import pytest

from repro.datalog.parser import parse_system
from repro.datalog.terms import Variable as V
from repro.engine import (CompiledEngine, Deadline, EvaluationStats, Query,
                          SemiNaiveEngine, TopDownEngine, vector)
from repro.engine.topdown import sideways_steps
from repro.engine.trace import Tracer
from repro.ra import Database
from repro.workloads import CATALOGUE, chain, random_edb, reflexive_exit


class TestBasics:
    def test_bound_query_on_chain(self, tc_system, tc_chain_db):
        answers = TopDownEngine().evaluate(tc_system, tc_chain_db,
                                           Query.parse("P(n0, Y)"))
        assert len(answers) == 7

    def test_free_query(self, tc_system, tc_chain_db):
        answers = TopDownEngine().evaluate(tc_system, tc_chain_db,
                                           Query.parse("P(X, Y)"))
        assert answers == SemiNaiveEngine().evaluate(tc_system,
                                                     tc_chain_db)

    def test_boolean_query(self, tc_system, tc_chain_db):
        yes = TopDownEngine().evaluate(tc_system, tc_chain_db,
                                       Query.parse("P(n0, n6)"))
        no = TopDownEngine().evaluate(tc_system, tc_chain_db,
                                      Query.parse("P(n6, n0)"))
        assert yes == {("n0", "n6")}
        assert no == frozenset()

    def test_cyclic_data_terminates(self, tc_system):
        db = Database.from_dict({
            "A": [("a", "b"), ("b", "a")],
            "P__exit": [("a", "a"), ("b", "b")],
        })
        answers = TopDownEngine().evaluate(tc_system, db,
                                           Query.parse("P(a, Y)"))
        assert answers == {("a", "a"), ("a", "b")}

    def test_empty_exit(self, tc_system):
        db = Database.from_dict({"A": chain(3)})
        db.declare("P__exit", 2)
        assert TopDownEngine().evaluate(
            tc_system, db, Query.parse("P(n0, Y)")) == frozenset()


class TestGoalDirection:
    def test_only_reachable_subgoals_tabled(self, tc_system):
        """A bound query touches the queried chain suffix only."""
        db = Database.from_dict({
            "A": chain(20) + [("m0", "m1"), ("m1", "m2")],
            "P__exit": reflexive_exit(20) + [("m2", "m2")],
        })
        bound, free = EvaluationStats(), EvaluationStats()
        TopDownEngine().evaluate(tc_system, db, Query.parse("P(m0, Y)"),
                                 bound)
        TopDownEngine().evaluate(tc_system, db, Query.parse("P(X, Y)"),
                                 free)
        assert bound.probes < free.probes / 5

    def test_compiled_beats_interpreted_topdown(self, tc_system):
        """The paper's point (PERF5): compile the top-down strategy
        instead of interpreting it.  Compiled takes fewer probes at
        every chain length, by a factor that grows with the length."""
        query = Query.parse("P(n0, Y)")
        factors = []
        for length in (8, 16, 32):
            db = Database.from_dict({"A": chain(length),
                                     "P__exit": reflexive_exit(length)})
            interpreted, compiled = EvaluationStats(), EvaluationStats()
            a1 = TopDownEngine().evaluate(tc_system, db, query,
                                          interpreted)
            a2 = CompiledEngine().evaluate(tc_system, db, query, compiled)
            assert a1 == a2
            assert compiled.probes < interpreted.probes
            factors.append(interpreted.probes / compiled.probes)
        assert factors == sorted(set(factors))


class TestSidewaysSteps:
    def test_steps_read_the_rule_left_to_right(self):
        """s10 from its first position: C(x, y1) binds the call's y1,
        B(y) shares nothing with x; from the second, B(y) joins but
        nothing reaches the call, so the recursion below is
        unrestricted."""
        system = CATALOGUE["s10"].system()
        first, second = sideways_steps(system, frozenset({0}))
        assert [str(a) for a in first.atoms] == ["C(x, y1)"]
        assert (first.next_adornment, first.successor) == (
            frozenset({1}), 1)
        assert second is None

    def test_an_atom_right_of_the_call_passes_nothing(self):
        """A(x, z, y) shares the bound x, but it stands right of the
        call, so z stays free in the call's adornment."""
        system = parse_system("P(x, y) :- P(x, z), A(x, z, y).")
        (step,) = sideways_steps(system, frozenset({0}))
        assert step.atoms == ()
        assert (step.next_adornment, step.successor) == (frozenset({0}), 0)

    def test_tc_bound_first_closes_on_itself(self, tc_system):
        """P(x, Y): A(x, z) binds the call's z, its first position, so
        the one step leads back to itself."""
        (step,) = sideways_steps(tc_system, frozenset({0}))
        assert [str(a) for a in step.atoms] == ["A(x, z)"]
        assert (step.entry, step.out) == ((V("x"),), (V("z"),))
        assert (step.next_adornment, step.successor) == (frozenset({0}), 0)

    def test_a_position_the_call_keeps_needs_no_atom(self, tc_system):
        """P(X, y): the call passes y through unchanged, so its binding
        is the query's and no atom is joined to reach it."""
        (step,) = sideways_steps(tc_system, frozenset({1}))
        assert step.atoms == ()
        assert (step.entry, step.out) == ((V("y"),), (V("y"),))
        assert (step.next_adornment, step.successor) == (frozenset({1}), 0)

    def test_a_free_query_is_unrestricted(self, tc_system):
        assert sideways_steps(tc_system, frozenset()) == (None,)

    def test_an_atom_joins_through_an_earlier_one(self):
        """B(u, v) shares nothing with the bound x, but A(x, u) binds u
        before it, so both join and the call's v is bound."""
        system = parse_system("P(x, y) :- A(x, u), B(u, v), P(v, y).")
        (step,) = sideways_steps(system, frozenset({0}))
        assert [str(a) for a in step.atoms] == ["A(x, u)", "B(u, v)"]
        assert step.out == (V("v"),)
        assert (step.next_adornment, step.successor) == (frozenset({0}), 0)

    def test_the_walk_is_one_pass_in_body_order(self):
        """B(u, v) stands before the atom that binds u, so it does not
        join: the call's v stays free and the recursion below the query
        runs unrestricted, with the same answers."""
        system = parse_system("P(x, y) :- B(u, v), A(x, u), P(v, y).")
        assert sideways_steps(system, frozenset({0})) == (None,)
        db = random_edb(system, nodes=5, tuples_per_relation=7, seed=2)
        query = Query(system.predicate, (sorted(db.active_domain())[0],
                                         None))
        assert TopDownEngine().evaluate(system, db, query) == \
            SemiNaiveEngine().evaluate(system, db, query)


class TestMagicFrame:
    def test_both_engines_derive_bindings_in_one_frame(self,
                                                       monkeypatch):
        """An s12 bound query runs the compiled ITERATIVE strategy and
        top-down through the same binding pass, once each."""
        calls = []
        bindings = vector._magic_bindings

        def spy(database, steps, query, stats):
            calls.append(steps)
            return bindings(database, steps, query, stats)

        monkeypatch.setattr(vector, "_magic_bindings", spy)
        system = CATALOGUE["s12"].system()
        db = random_edb(system, nodes=5, tuples_per_relation=7, seed=1)
        query = Query(system.predicate,
                      (sorted(db.active_domain())[0], None, None))
        compiled = CompiledEngine().evaluate(system, db, query)
        top_down = TopDownEngine().evaluate(system, db, query)
        assert compiled == top_down
        assert len(calls) == 2
        assert calls[1] == sideways_steps(system, frozenset({0}))

    def test_an_unrestricted_step_runs_the_whole_fixpoint(self):
        """s10 bound first reaches a step to no bound position: the
        magic round says so and the delta loop runs unfiltered."""
        system = CATALOGUE["s10"].system()
        db = random_edb(system, nodes=5, tuples_per_relation=8, seed=4)
        query = Query(system.predicate,
                      (sorted(db.active_domain())[0], None))
        tracer = Tracer()
        answers = TopDownEngine().evaluate(system, db, query,
                                           trace=tracer)
        assert answers == SemiNaiveEngine().evaluate(system, db, query)
        magic, _, delta = tracer.trace.rounds[:3]
        assert magic.detail["unrestricted"] is True
        assert delta.kind == "delta"
        assert delta.detail["vector"] != "filtered"

    def test_backend_names_the_loop_that_ran(self, tc_system,
                                             tc_chain_db):
        """A bound query's filtered loop runs in python; a free one's
        unrestricted loop runs on the numpy kernel when numpy imports."""
        bound, free = EvaluationStats(), EvaluationStats()
        TopDownEngine().evaluate(tc_system, tc_chain_db,
                                 Query.parse("P(n0, Y)"), bound)
        TopDownEngine().evaluate(tc_system, tc_chain_db,
                                 Query.parse("P(X, Y)"), free)
        assert bound.backend == "python"
        assert free.backend == ("numpy" if vector.HAVE_NUMPY
                                else "python")


class TestBoundedCost:
    @pytest.mark.parametrize("kind", ["s9", "s10", "s11"])
    def test_probes_at_most_twice_seminaive(self, kind, e2e_gen):
        """On the end-to-end benchmark's own data and constants, each
        bound query costs top-down at most twice semi-naive's probes:
        the bindings are derived once, set at a time, where tabled
        resolution re-solved a subgoal whenever a table it probed grew
        (s9 took minutes).  The deadline stops such a run in seconds."""
        rule = e2e_gen.PAPER_RULES[kind]
        system = parse_system(rule)
        db = Database.from_dict(
            e2e_gen.random_edb(rule, *e2e_gen.RANDOM_EDB[kind]))
        for constant in e2e_gen.lib_constants(kind):
            query = Query.parse(e2e_gen.lib_query(kind, constant))
            top = EvaluationStats(deadline=Deadline(timeout_s=2.0))
            semi = EvaluationStats()
            answers = TopDownEngine().evaluate(system, db, query, top)
            assert answers == SemiNaiveEngine().evaluate(system, db, query,
                                                         semi)
            assert top.probes <= 2 * semi.probes, (kind, constant)


class TestNoClassification:
    def test_every_catalogue_form_answers_without_the_classifier(
            self, monkeypatch):
        """Top-down reads its steps off the rule text: with the
        classifier, the compiler and the I-graph refusing, it still
        answers every catalogue entry's query forms."""
        import repro.core.bindings as bindings
        import repro.core.classifier as classifier
        import repro.core.compile as compile_module
        import repro.graphs.igraph as igraph

        systems = [entry.system() for entry in CATALOGUE.values()]
        forms = [entry.query_forms for entry in CATALOGUE.values()]

        def refuse(*args, **kwargs):
            raise AssertionError("top-down analysed the rule")

        for module, name in [(classifier, "classify"),
                             (compile_module, "classify"),
                             (compile_module, "compile_query"),
                             (compile_module, "compile_system"),
                             (igraph, "build_igraph"),
                             (bindings, "build_igraph")]:
            monkeypatch.setattr(module, name, refuse)
        for system, query_forms in zip(systems, forms):
            db = random_edb(system, nodes=5, tuples_per_relation=7, seed=1)
            domain = sorted(db.active_domain()) or ["c0"]
            for form in query_forms or ("v" * system.dimension,):
                query = Query(system.predicate, tuple(
                    domain[i % len(domain)] if ch == "d" else None
                    for i, ch in enumerate(form)))
                assert TopDownEngine().evaluate(system, db, query) == \
                    SemiNaiveEngine().evaluate(system, db, query), query


class TestAgreement:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_against_seminaive_on_catalogue(self, catalogue_entry, seed):
        system = catalogue_entry.system()
        db = random_edb(system, nodes=5, tuples_per_relation=7,
                        seed=seed)
        domain = sorted(db.active_domain()) or ["c0"]
        forms = catalogue_entry.query_forms or (
            "v" * system.dimension,)
        for form in forms:
            pattern = tuple(
                domain[i % len(domain)] if ch == "d" else None
                for i, ch in enumerate(form))
            query = Query(system.predicate, pattern)
            top_down = TopDownEngine().evaluate(system, db, query)
            semi = SemiNaiveEngine().evaluate(system, db, query)
            assert top_down == semi, (catalogue_entry.name, query)
