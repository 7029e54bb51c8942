"""White-box tests of the compiled engine's strategy internals."""

import pytest

from repro.core.compile import Strategy, compile_query
from repro.datalog.parser import parse_system
from repro.engine import (CompiledEngine, EvaluationStats, Query,
                          SemiNaiveEngine, Tracer, setjoin)
from repro.engine.vector import _magic_bindings
from repro.ra import Database
from repro.workloads import (CATALOGUE, chain, cycle, random_edb,
                             reflexive_exit)


class TestStableStrategy:
    def test_cyclic_chain_state_detection(self):
        """The frontier on a 3-cycle revisits its state; the loop must
        stop by state repetition, not by emptiness."""
        system = CATALOGUE["s1a"].system()
        db = Database.from_dict({
            "A": cycle(3),
            "P__exit": [("n0", "n0")],
        })
        stats = EvaluationStats()
        answers = CompiledEngine().evaluate(system, db,
                                            Query.parse("P(n0, Y)"),
                                            stats)
        assert answers == {("n0", "n0")}
        # the frontier cycles with period 3; a couple of extra rounds
        # at most before the state repeats
        assert stats.rounds <= 5

    def test_branching_chain_frontier(self):
        system = CATALOGUE["s1a"].system()
        db = Database.from_dict({
            "A": [("r", "l1"), ("r", "l2"), ("l1", "x1"),
                  ("l2", "x2")],
            "P__exit": [("x1", "x1"), ("x2", "x2"), ("r", "r")],
        })
        answers = CompiledEngine().evaluate(system, db,
                                            Query.parse("P(r, Y)"))
        assert answers == {("r", "r"), ("r", "x1"), ("r", "x2")}

    def test_gate_blocks_deep_answers_only(self):
        """An empty free atom kills depths ≥ 1, not depth 0."""
        system = parse_system(
            "P(x, y) :- A(x, z), D(a, b), P(z, y).")
        db = Database.from_dict({
            "A": chain(3),
            "P__exit": reflexive_exit(3),
        })
        db.declare("D", 2)
        tracer = Tracer()
        answers = CompiledEngine().evaluate(system, db,
                                            Query.parse("P(n0, Y)"),
                                            trace=tracer)
        assert answers == {("n0", "n0")}  # only the exit survives
        (depth,) = tracer.trace.rounds
        assert depth.detail == {"depth": 0, "gate": "failed"}

    def test_gate_open_allows_recursion(self):
        system = parse_system(
            "P(x, y) :- A(x, z), D(a, b), P(z, y).")
        db = Database.from_dict({
            "A": chain(3),
            "D": [("k1", "k2")],
            "P__exit": reflexive_exit(3),
        })
        tracer = Tracer()
        answers = CompiledEngine().evaluate(system, db,
                                            Query.parse("P(n0, Y)"),
                                            trace=tracer)
        assert len(answers) == 4
        first, *deeper = tracer.trace.rounds
        assert first.detail == {"depth": 0, "gate": "held"}
        assert deeper and all("gate" not in span.detail
                              for span in deeper)

    def test_decorated_self_loop_filters_each_step(self):
        """B(y, w) on the self-loop position must hold at every depth
        — a value without a B-successor survives only at depth 0."""
        system = parse_system("P(x, y) :- A(x, z), B(y, w), P(z, y).")
        db = Database.from_dict({
            "A": chain(3),
            "B": [("ok", "w1")],
            "P__exit": [("n3", "ok"), ("n3", "bare")],
        })
        answers = CompiledEngine().evaluate(system, db,
                                            Query.parse("P(n0, Y)"))
        semi = SemiNaiveEngine().evaluate(system, db,
                                          Query.parse("P(n0, Y)"))
        assert answers == semi == {("n0", "ok")}


class TestTransformStrategy:
    def test_multiple_original_exits_multiply(self):
        system = parse_system("""
            P(x, y) :- A(x, z), P(y, z).
            P(x, y) :- E(x, y).
            P(x, x) :- V(x).
        """)
        compiled = compile_query(system, "dv")
        assert compiled.strategy is Strategy.TRANSFORM
        assert len(compiled.transformation.system.exits) == 4

        db = Database.from_dict({
            "A": chain(4),
            "E": [("n4", "n4")],
            "V": [("n2",)],
        })
        query = Query.parse("P(n0, Y)")
        assert CompiledEngine().evaluate(system, db, query) == \
            SemiNaiveEngine().evaluate(system, db, query)


class TestIterativeStrategy:
    def test_magic_bindings_recorded_per_adornment(self):
        system = CATALOGUE["s12"].system()
        from repro.workloads import random_edb
        db = random_edb(system, nodes=6, tuples_per_relation=12, seed=1)
        constant = sorted(db.active_domain())[0]
        # _magic_bindings works in storage space: encode the query
        query = Query("P", (constant, None, None)).encoded(db)
        stats = EvaluationStats()
        magic, unrestricted = _magic_bindings(
            db, compile_query(system, query.adornment).magic, query, stats)
        assert not unrestricted
        assert magic[frozenset({0})] == {(query.pattern[0],)}
        # after one expansion the steady adornment {0, 1} is reached,
        # with real bindings in it
        assert magic[frozenset({0, 1})]
        # set-at-a-time: every binding enters exactly one batch, and a
        # round advances all of its new bindings in one application
        bindings = sum(len(values) for values in magic.values())
        assert sum(stats.batch_sizes) == bindings
        assert len(stats.batch_sizes) < bindings

    def test_dying_bindings_mean_unrestricted(self):
        system = CATALOGUE["s9"].system()
        db = Database.from_dict({
            "A": chain(3), "B": chain(3),
            "P__exit": [("n0", "n0", "n0")],
        })
        query = Query("P", ("n0", None, None)).encoded(db)
        magic, unrestricted = _magic_bindings(
            db, compile_query(system, query.adornment).magic, query,
            EvaluationStats())
        assert unrestricted

    def test_free_query_skips_magic(self):
        system = CATALOGUE["s11"].system()
        db = Database.from_dict({
            "A": chain(2), "B": chain(2), "C": chain(2),
            "P__exit": [("n0", "n0")],
        })
        query = Query.all_free("P", 2)
        magic, unrestricted = _magic_bindings(
            db, compile_query(system, query.adornment).magic, query,
            EvaluationStats())
        assert unrestricted and not magic


class TestAuxiliaryStrategy:
    """Example 9's plan on s9: the detached atom ``A`` is probed with
    the query's constant, and R's side checks R for a bound value."""

    DB = {"A": [("a", "b"), ("a", "c"), ("b", "z"), ("d", "e"),
                ("f", "g")],
          "B": [("a", "y"), ("b", "c"), ("c", "d")],
          "P__exit": [("b", "y", "c"), ("c", "x", "d")]}

    def run(self, text: str):
        system = CATALOGUE["s9"].system()
        db = Database.from_dict(self.DB)
        query = Query.parse(text)
        tracer, stats = Tracer(), EvaluationStats()
        answers = CompiledEngine().evaluate(system, db, query, stats,
                                            trace=tracer)
        assert answers == SemiNaiveEngine().evaluate(system, db, query)
        assert stats.strategy == "iterative"
        return answers, tracer.trace.rounds

    def test_detached_atoms_probed_with_the_constant(self):
        answers, rounds = self.run("P(a, Y, Z)")
        assert [span.kind for span in rounds] == \
            ["exit", "exit", "delta", "delta", "delta", "product"]
        # R = {x, y, b, c, z}; σA(a, y) has the two rows of ``a``
        assert len(answers) == 2 * 5
        assert rounds[-1].probes == 2
        assert rounds[-1].detail == {"detached": 2, "auxiliary": 5}

    def test_existence_check_on_r(self):
        hit, rounds = self.run("P(X, Y, z)")
        assert len(hit) == len(self.DB["A"])
        assert rounds[-1].detail == {"detached": 5, "auxiliary": 1}
        miss, rounds = self.run("P(X, Y, q)")
        assert miss == frozenset()
        # R lacks q: the detached atoms are never probed
        assert rounds[-1].probes == 0


class TestBoundedStrategy:
    def test_repeated_head_variable_conflicting_query(self):
        """Exit P(x, x) with query P(a, b) is a consistent-binding
        check: conflicting constants yield nothing."""
        system = parse_system("""
            P(x, y) :- P(y, x).
            P(x, x) :- V(x).
        """)
        db = Database.from_dict({"V": [("a",), ("b",)]})
        hit = CompiledEngine().evaluate(system, db,
                                        Query.parse("P(a, a)"))
        miss = CompiledEngine().evaluate(system, db,
                                         Query.parse("P(a, b)"))
        assert hit == {("a", "a")}
        assert miss == frozenset()


    @staticmethod
    def s8_edb(k: int, m: int) -> Database:
        """s8's data with m rows of σA(a, ·), one product row
        A(c, d) ⋈ B(d, f), and k solutions of the depth-3 existence
        check ``C-{B, C}-E``, which all project onto one (z, u) pair
        at depth 2."""
        return Database.from_dict({
            "A": [("a", f"b{i}") for i in range(m)] + [("c", "d")],
            "B": [("d", "f")],
            "C": [("g", "f")] + [(f"w{j}", f"v{j}") for j in range(k)],
            "P__exit": [("g", "d", f"w{j}", f"v{j}") for j in range(k)]})

    def test_products_and_checks_take_linear_probes(self):
        """The kernel runs σA once, each other component once and the
        existence check level by level, its last step to its first
        row: O(k + m) probes where one left-deep pipeline per expansion
        took 4,140 (m × k)."""
        k, m = 50, 20
        db = self.s8_edb(k, m)
        system = CATALOGUE["s8"].system()
        query = Query.parse("P(a, Y, Z, U)")
        stats = EvaluationStats()
        answers = CompiledEngine().evaluate(system, db, query, stats)
        assert answers == SemiNaiveEngine().evaluate(system, db, query)
        assert len(answers) == 2 * m
        assert stats.probes <= 3 * (k + m)

    def test_the_existence_check_stops_at_its_first_row(self,
                                                         monkeypatch):
        """The check's levels before the last hold B's row, C's row and
        the k rows of P__exit.  Each of those k partial rows completes
        at the last step, which reads whether a row is there, extends
        none, and counts one: the check's first complete row."""
        k = 50
        checks, last_steps = [], []
        holding, with_rows = setjoin._holding, setjoin._with_rows

        def spy_holding(database, part, batch, stats):
            before = stats.probes
            kept = holding(database, part, batch, stats)
            checks.append((len(part.steps), stats.probes - before,
                           bool(kept)))
            return kept

        def spy_last_step(database, step, batch, stats):
            found = with_rows(database, step, batch, stats)
            last_steps.append((len(batch), len(found)))
            return found

        monkeypatch.setattr(setjoin, "_holding", spy_holding)
        monkeypatch.setattr(setjoin, "_with_rows", spy_last_step)
        CompiledEngine().evaluate(CATALOGUE["s8"].system(),
                                  self.s8_edb(k, 20),
                                  Query.parse("P(a, Y, Z, U)"))
        assert last_steps == [(k, k)]
        assert checks == [(4, 1 + 1 + k + 1, True)]


class TestAnswerFilter:
    """BOUNDED, STABLE and the auxiliary path bind the query's
    constants at their head positions, so their rows reach the answer
    boundary unfiltered; the binding-filtered fixpoint keeps a filter
    pass over its rows."""

    @pytest.mark.parametrize("name,text,strategy,filtered", [
        ("s8", "P(c0, V1, V2, V3)", "bounded", False),
        ("s1a", "P(c0, Y)", "stable", False),
        ("s9", "P(c0, Y, Z)", "iterative", False),
        ("s9", "P(X, Y, c2)", "iterative", False),
        ("s12", "P(c0, Y, Z)", "iterative", True),
    ])
    def test_query_filter_runs_on_the_fixpoint_only(
            self, monkeypatch, name, text, strategy, filtered):
        system = CATALOGUE[name].system()
        db = random_edb(system, nodes=5, tuples_per_relation=8, seed=4)
        query = Query.parse(text)
        expected = SemiNaiveEngine().evaluate(system, db, query)
        calls = []
        original = Query.filter

        def spy(self, rows):
            calls.append(self.predicate)
            return original(self, rows)

        monkeypatch.setattr(Query, "filter", spy)
        stats = EvaluationStats()
        answers = CompiledEngine().evaluate(system, db, query, stats)
        assert answers == expected and answers
        assert stats.strategy == strategy
        assert bool(calls) is filtered, calls
