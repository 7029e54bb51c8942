"""Unit tests for the set-at-a-time join kernel and its plan layer."""

import pytest

from repro.datalog.parser import parse_atom
from repro.datalog.terms import Variable
from repro.engine import (EvaluationStats, SemiNaiveEngine, apply_rule,
                          compile_plan, execute_plan, solve_project)
from repro.engine.plan import entry_layout
from repro.ra import Database

V = Variable


def atoms(*texts):
    return tuple(parse_atom(t) for t in texts)


class TestPlanCompilation:
    def test_tc_rule_plan_shape(self):
        """P(x,y) :- A(x,z), P(z,y): one step keyed on A's z column."""
        db = Database.from_dict({"A": [("a", "b")]})
        plan = compile_plan(atoms("A(x, z)"),
                            atoms("P(z, y)")[0].args,
                            atoms("P(x, y)")[0].args, db)
        assert plan.entry_vars == (V("z"), V("y"))
        (step,) = plan.steps
        assert step.predicate == "A"
        assert step.key_positions == (1,)
        assert step.key_sources == ((False, 0),)
        assert step.new_positions == (0,)
        # head (x, y) projects the new slot 2 and entry slot 1
        assert plan.out_sources == ((False, 2), (False, 1))

    def test_most_bound_atom_ordered_first(self):
        """With z bound at entry, A(x,z) precedes B(x,w)."""
        db = Database.from_dict({"A": [("a", "b")], "B": [("a", "w")]})
        plan = compile_plan(atoms("B(x, w)", "A(x, z)"),
                            (V("z"),), (V("w"),), db)
        assert [s.predicate for s in plan.steps] == ["A", "B"]

    def test_constants_join_the_key(self):
        db = Database.from_dict({"A": [("a", "b"), ("c", "d")]})
        plan = compile_plan(atoms("A('a', y)"), (), (V("y"),), db)
        (step,) = plan.steps
        assert step.key_positions == (0,)
        # constants are compiled in storage space: the plan carries
        # the interned code, not the raw value
        assert step.key_sources == ((True, db.symbols.lookup("a")),)

    def test_constants_stay_raw_without_interning(self):
        # no database, no symbol table: nothing encodes the constant
        plan = compile_plan(atoms("A('a', y)"), (), (V("y"),))
        (step,) = plan.steps
        assert step.key_sources == ((True, "a"),)

    def test_repeated_free_variable_becomes_check(self):
        db = Database.from_dict({"A": [("a", "a"), ("a", "b")]})
        plan = compile_plan(atoms("A(x, x)"), (), (V("x"),), db)
        (step,) = plan.steps
        assert step.same_free == ((0, 1),)
        assert step.new_positions == (0,)

    def test_plan_cache_hits_recorded(self):
        db = Database.from_dict({"A": [("a", "b")]})
        body, entry, out = atoms("A(x, z)"), (V("z"),), (V("x"),)
        first = EvaluationStats()
        compile_plan(body, entry, out, db, first)
        again = EvaluationStats()
        compile_plan(body, entry, out, db, again)
        assert again.plan_cache_hits == 1
        assert again.plan_cache_misses == 0


class TestEntryLayout:
    def test_identity_for_distinct_variables(self):
        layout = entry_layout((V("x"), V("y")))
        assert layout.is_identity
        assert layout.batch([("a", "b")]) == [("a", "b")]

    def test_repeated_variable_filters_rows(self):
        layout = entry_layout((V("x"), V("x")))
        assert layout.batch([("a", "a"), ("a", "b")]) == [("a",)]

    def test_constant_filters_rows(self):
        from repro.datalog.terms import Constant
        layout = entry_layout((Constant("a"), V("y")))
        assert layout.batch([("a", "b"), ("z", "q")]) == [("b",)]


class TestExecuteAgainstSolveProject:
    """execute_plan and solve_project agree binding-for-binding."""

    DB = {
        "A": [("a", "b"), ("b", "c"), ("c", "d"), ("a", "a")],
        "B": [("b", "x1"), ("c", "x2")],
        "N": [("a",)],
    }

    @pytest.mark.parametrize("body,out", [
        (("A(x, y)", "A(y, z)"), ("x", "z")),
        (("A(x, y)", "B(y, w)"), ("x", "w")),
        (("A(x, x)",), ("x",)),
        (("A(x, y)", "A(y, z)", "N(x)"), ("z",)),
    ])
    def test_unbound_agreement(self, body, out):
        db = Database.from_dict(self.DB)
        body_atoms = atoms(*body)
        out_terms = tuple(V(name) for name in out)
        expected = solve_project(db, body_atoms, out_terms)
        plan = compile_plan(body_atoms, (), out_terms, db)
        assert execute_plan(db, plan, [()]) == expected

    def test_batched_entry_agreement(self):
        # apply_rule takes rows in storage space: encode them
        db = Database.from_dict(self.DB)
        body_atoms = atoms("A(z, w)")
        out_terms = (V("y"), V("w"))
        entry = (V("z"), V("y"))
        rows = [db.encode_row(row)
                for row in [("a", "p"), ("b", "q"), ("zz", "r")]]
        expected = set()
        for row in rows:
            expected |= solve_project(
                db, body_atoms, out_terms,
                {V("z"): row[0], V("y"): row[1]})
        assert apply_rule(db, body_atoms, entry, out_terms,
                          rows) == expected

    def test_probe_counts_match_solve_project_loop(self, tc_system,
                                                   tc_chain_db):
        """Round by round over the TC fixpoint, ``apply_rule`` counts
        the same probes as a per-delta-row ``solve_project`` loop — so
        the compiled engine's solver probes (PERF1) stay comparable
        with semi-naive's batch-kernel probes."""
        db = tc_chain_db
        rule = tc_system.recursive
        body, head = rule.nonrecursive_atoms, rule.head.args
        entry = rule.recursive_atom.args
        total = delta = set(db.rows_encoded("P__exit"))
        rounds = 0
        while delta:
            batch_stats, loop_stats = EvaluationStats(), EvaluationStats()
            new = apply_rule(db, body, entry, head, delta, batch_stats)
            expected: set[tuple] = set()
            for row in delta:
                expected |= solve_project(db, body, head,
                                          dict(zip(entry, row)),
                                          stats=loop_stats)
            assert new == expected
            assert batch_stats.probes == loop_stats.probes
            delta = new - total
            total = total | delta
            rounds += 1
        assert rounds == 7  # the 6-edge chain's depths 1..6, then empty


class TestHashTableCache:
    def test_reused_until_relation_changes(self):
        db = Database.from_dict({"A": [("a", "b")]})
        first = db.hash_table("A", (0,))
        assert db.hash_table("A", (0,)) is first
        assert db.hash_builds == 1
        db.add("A", ("c", "d"))
        rebuilt = db.hash_table("A", (0,))
        assert rebuilt is not first
        assert rebuilt[db.encode_const("c")] == [db.encode_row(("c", "d"))]
        assert db.hash_builds == 2

    def test_other_relations_unaffected(self):
        db = Database.from_dict({"A": [("a", "b")], "B": [("x",)]})
        table = db.hash_table("A", (1,))
        db.add("B", ("y",))
        assert db.hash_table("A", (1,)) is table

    def test_key_layouts(self):
        db = Database.from_dict({"T": [("a", "b", "c")]})
        row = db.encode_row(("a", "b", "c"))
        a, b, c = row
        assert db.hash_table("T", ())[()] == [row]
        assert db.hash_table("T", (1,))[b] == [row]
        assert db.hash_table("T", (0, 2))[(a, c)] == [row]

    def test_missing_relation_is_empty(self):
        assert Database().hash_table("nope", (0,)) == {}

    @pytest.mark.parametrize("backend", ["auto", "python"])
    def test_hash_tables_built_once_per_fixpoint(self, tc_system,
                                                 backend):
        """The delta rounds reuse one cached hash table per (relation,
        key) — the whole point of versioned caching."""
        edges = [(f"c{c}_n{i}", f"c{c}_n{i + 1}")
                 for c in range(100) for i in range(8)]
        nodes = sorted({node for edge in edges for node in edge})
        db = Database.from_dict({"A": edges,
                                 "P__exit": [(n, n) for n in nodes]})
        stats = EvaluationStats()
        SemiNaiveEngine(backend=backend).evaluate(tc_system, db,
                                                  stats=stats)
        assert stats.rounds > 2
        # one table for A keyed on its join column, one for the exits
        assert stats.hash_builds == 2


class TestBulkInvalidation:
    def test_single_version_bump_per_bulk(self):
        db = Database()
        db.bulk("A", [("a", "b"), ("b", "c"), ("c", "d")])
        assert db.version("A") == 1
        db.add("A", ("d", "e"))
        assert db.version("A") == 2

    def test_bulk_invalidates_index_once(self):
        db = Database.from_dict({"A": [("a", "b")]})
        list(db.match("A", ("a", None)))  # build the index
        built = db.index_rebuilds
        db.bulk("A", [(f"n{i}", f"n{i+1}") for i in range(100)])
        # the bulk load dropped the index; one rebuild on next probe
        assert db.index_rebuilds == built
        assert set(db.match("A", ("n5", None))) == {("n5", "n6")}
        assert db.index_rebuilds == built + 1

    def test_bulk_results_visible_to_match(self):
        db = Database.from_dict({"A": [("a", "b")]})
        list(db.match("A", (None, "b")))
        db.bulk("A", [("q", "b")])
        assert set(db.match("A", (None, "b"))) == {("a", "b"), ("q", "b")}


class TestBindUnbindEquivalence:
    """The in-place bind/unbind backtracker matches a copy-based
    reference solver on answer sets (satellite regression guard)."""

    @staticmethod
    def _reference_solve(db, body_atoms, binding=None):
        """The old copy-per-row implementation, kept as the oracle."""
        from repro.datalog.terms import Constant
        from repro.engine.conjunctive import pattern_of

        def extend(atom, row, current):
            new = dict(current)
            for term, value in zip(atom.args, row):
                if isinstance(term, Constant):
                    continue
                seen = new.get(term)
                if seen is None:
                    new[term] = value
                elif seen != value:
                    return None
            return new

        def backtrack(remaining, current):
            if not remaining:
                yield dict(current)
                return
            chosen, *rest = remaining
            for row in db.match(chosen.predicate,
                                pattern_of(chosen, current)):
                extended = extend(chosen, row, current)
                if extended is not None:
                    yield from backtrack(rest, extended)

        yield from backtrack(list(body_atoms), dict(binding or {}))

    @pytest.mark.parametrize("body", [
        ("A(x, y)", "A(y, z)"),
        ("A(x, y)", "B(y, w)", "A(x, x)"),
        ("A(x, x)",),
        ("A(x, y)", "A(y, x)"),
    ])
    def test_same_answer_sets(self, body):
        from repro.engine import solve
        # the reference oracle binds values (Database.match) while
        # solve binds storage-space codes: decode_row bridges them
        db = Database.from_dict({
            "A": [("a", "b"), ("b", "a"), ("a", "a"), ("b", "c")],
            "B": [("b", "x1"), ("a", "x2")],
        })
        body_atoms = atoms(*body)
        got = {tuple(sorted(zip((v.name for v in s),
                                db.decode_row(tuple(s.values())))))
               for s in solve(db, body_atoms)}
        want = {tuple(sorted((v.name, val) for v, val in s.items()))
                for s in self._reference_solve(db, body_atoms)}
        assert got == want
