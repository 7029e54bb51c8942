"""Unit tests for the set-at-a-time join kernel and its plan layer."""

import pytest

from repro.datalog.parser import parse_atom
from repro.datalog.terms import Variable
from repro.engine import (EvaluationStats, SemiNaiveEngine, apply_rule,
                          compile_plan, execute_plan)
from repro.engine.plan import entry_layout
from repro.engine.setjoin import _run_steps
from repro.ra import Database

from .oracle import nested_loop_join
from .threads import race

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
        assert plan.layout.variables == (V("z"), V("y"))
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

    @pytest.mark.parametrize("body,entry,head,label,anchors,rest", [
        (("A(x, m)", "B(m, n)", "C(n, z)"), "zy", "xy", "ABC", "xz", ()),
        (("A(x, u)", "B(x, z)", "C(z, u)"), "uy", "xy", "ABC", "xu", ()),
        (("A(x, u)", "B(y, w)", "C(u, m)"), "uy", "xy", "AC", "xu",
         ("B",)),
        (("B(u, v)", "A(u, z)"), "v", "z", "BA", "zv", ()),
        (("A(x, z)",), "zy", "xy", None, None, None),
        (("A(x, x1)", "B(y, y1)", "C(x1, y1)"), ("x1", "y1"), "xy",
         None, None, None),
        (("A(x, m)", "B(m, y)"), "zy", "xy", None, None, None),
        (("A(x, m)", "B(m, z)"), "", "xz", None, None, None),
    ], ids=["hop3", "triangle", "decorated", "s9-aux", "tc", "s11",
            "persistent-y", "exit"])
    def test_compressed_chain_decision(self, body, entry, head, label,
                                       anchors, rest):
        """A cluster of two or more atoms meeting the head in one
        variable the call lacks, and the call in one the head lacks,
        is the paper's compressed edge; its composed atom takes the
        cluster's place."""
        plan = compile_plan(atoms(*body), tuple(map(V, entry)),
                            tuple(map(V, head)))
        chain = plan.chain
        if label is None:
            assert chain is None
            return
        assert chain.label == label
        assert chain.anchors == tuple(map(V, anchors))
        assert chain.inputs == tuple(sorted(label))
        composed = chain.body[0]
        assert (composed.predicate, composed.args) == \
            (chain.name, chain.anchors)
        assert "$" in chain.name  # in no parsed predicate
        assert tuple(a.predicate for a in chain.body[1:]) == rest

    def test_plan_cache_hits_recorded(self):
        db = Database.from_dict({"A": [("a", "b")]})
        body, entry, out = atoms("A(x, z)"), (V("z"),), (V("x"),)
        first = EvaluationStats()
        compile_plan(body, entry, out, db, first)
        again = EvaluationStats()
        compile_plan(body, entry, out, db, again)
        assert again.plan_cache_hits == 1
        assert again.plan_cache_misses == 0

    def test_concurrent_misses_evict_one_plan_each(self, monkeypatch):
        """Regression: two threads missing on a full plan cache popped
        the same oldest plan, and the second raised KeyError (seen with
        eight readers of one fork)."""
        import repro.engine.plan as plan_module
        monkeypatch.setattr(plan_module, "_CACHE_LIMIT", 4)
        plan_module.clear_plan_cache()
        bodies = [[atoms(f"A{n}x{i}(x, z)") for i in range(200)]
                  for n in range(8)]
        entry, out = (V("z"),), (V("x"),)

        def compile_all(n: int) -> None:
            for body in bodies[n]:
                compile_plan(body, entry, out)

        try:
            assert race(compile_all) == []
        finally:
            plan_module.clear_plan_cache()


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


class TestComponents:
    """A body split into variable-connected components: existence
    checks, a pipeline and a product."""

    DB = {"A": [("a", "b"), ("b", "c"), ("c", "d")],
          "B": [("b", "x1"), ("c", "x2")]}

    def test_existence_check(self):
        db = Database.from_dict(self.DB)
        assert apply_rule(db, atoms("A(x, y)", "B(y, w)"), (), (),
                          [()]) == {()}
        assert apply_rule(db, atoms("A(x, x)"), (), (), [()]) == set()
        # bound from the entry, checked per value, projected on nothing
        rows = [db.encode_row(("a",)), db.encode_row(("d",))]
        assert apply_rule(db, atoms("A(x, y)", "B(y, w)"), (V("x"),), (),
                          rows) == {()}
        assert apply_rule(db, atoms("A(x, y)", "B(y, w)"), (V("x"),), (),
                          rows[1:]) == set()

    def test_short_circuits(self):
        """The check stops at its first complete row."""
        stats = EvaluationStats()
        apply_rule(Database.from_dict(self.DB), atoms("A(x, y)"), (), (),
                   [()], stats)
        assert stats.probes == 1

    def test_plan_records_the_components(self):
        """s8's depth-2 expansion with x bound: σA is the pipeline, the
        group that binds z and u runs once, and a check that reads the
        entry value stands beside them."""
        db = Database.from_dict(self.DB)
        body = atoms("A(x, y)", "B(y1, u)", "C(z1, u1)", "E(z, y1, z1, u1)",
                     "D(x, q)")
        head = atoms("P(x, y, z, u)")[0].args
        plan = compile_plan(body, (V("x"),), head, db)
        assert plan.parts == 3 and plan.fused is None
        assert [step.predicate for step in plan.steps] == ["A"]
        free, check = plan.components
        assert sorted(s.predicate for s in free.steps) == ["B", "C", "E"]
        assert free.out_slots is not None and free.entry_slots == ()
        assert [s.predicate for s in check.steps] == ["D"]
        assert check.out_slots is None and check.entry_slots == (0,)
        # one component: the plan of before, fused tail included
        single = compile_plan(atoms("A(x, y)"), (V("x"),),
                              atoms("P(x, y)")[0].args, db)
        assert single.parts == 1 and single.components == ()
        assert single.fused is not None and len(single.steps) == 1


class TestExecuteAgainstNestedLoops:
    """execute_plan and a nested-loop join agree binding-for-binding."""

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
        expected = nested_loop_join(db, body_atoms, (), out_terms, [()])
        plan = compile_plan(body_atoms, (), out_terms, db)
        assert {db.decode_row(row) for row in
                execute_plan(db, plan, [()])} == expected

    def test_batched_entry_agreement(self):
        # apply_rule takes rows in storage space: encode them
        db = Database.from_dict(self.DB)
        body_atoms = atoms("A(z, w)")
        out_terms = (V("y"), V("w"))
        entry = (V("z"), V("y"))
        rows = [("a", "p"), ("b", "q"), ("zz", "r")]
        expected = nested_loop_join(db, body_atoms, entry, out_terms, rows)
        assert {db.decode_row(row) for row in apply_rule(
            db, body_atoms, entry, out_terms,
            [db.encode_row(row) for row in rows])} == expected

    def test_multi_hop_fused_tail_equals_expanding_every_binding(self):
        """Behind earlier steps the fused last probe expands each
        distinct (carried value, probe code) pair once.  Its set, the
        order that set iterates in, and the probe and derived counts
        equal those of expanding every binding of the unfused join."""
        # three layers of 3-way fan-out: each (y, m) pair that reaches
        # the last probe does so by up to nine paths
        width = 30
        db = Database.from_dict({
            name: [(f"{src}{i}", f"{dst}{(i + b) % width}")
                   for i in range(width) for b in range(3)]
            for name, src, dst in [("A", "x", "m"), ("B", "m", "n"),
                                   ("C", "n", "z")]})
        body = atoms("A(x, m)", "B(m, n)", "C(n, z)")
        entry, out = (V("z"), V("y")), (V("x"), V("y"))
        plan = compile_plan(body, entry, out, db)
        assert plan.fused is not None and len(plan.steps) == 3
        batch = entry_layout(entry, db.encode_const).batch(
            db.encode_row((f"z{i}", f"y{i % 3}")) for i in range(width))
        fused_stats, unfused_stats = EvaluationStats(), EvaluationStats()
        got = execute_plan(db, plan, batch, fused_stats)
        bindings = _run_steps(db, plan.steps, batch, unfused_stats, None)
        slots = [slot for _, slot in plan.out_sources]
        expected = {tuple(binding[slot] for slot in slots)
                    for binding in bindings}
        assert len(bindings) > len(expected)
        assert list(got) == list(expected)
        assert fused_stats.probes == unfused_stats.probes
        assert fused_stats.derived == len(bindings)

    def test_fused_tail_skips_codes_interned_after_the_build(self,
                                                             tc_system):
        db = Database.from_dict({"A": [("a", "b"), ("b", "c")]})
        rule = tc_system.recursive
        body, head = rule.nonrecursive_atoms, rule.head.args
        entry = rule.recursive_atom.args
        assert apply_rule(db, body, entry, head,
                          [db.encode_row(("b", "c"))])
        late = db.encode_row(("late", "c"))  # interned after the build
        stats = EvaluationStats()
        assert apply_rule(db, body, entry, head,
                          [late, db.encode_row(("b", "c"))],
                          stats) == {db.encode_row(("a", "c"))}
        assert stats.probes == stats.derived == 1


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
        db.hash_table("A", (0,))  # build the hash table
        built = db.hash_builds
        db.bulk("A", [(f"n{i}", f"n{i+1}") for i in range(100)])
        # the bulk load staled the table; one rebuild serves every
        # later probe
        assert db.hash_builds == built
        n5, n7 = db.encode_const("n5"), db.encode_const("n7")
        assert db.hash_table("A", (0,))[n5] == [db.encode_row(("n5", "n6"))]
        assert db.hash_table("A", (0,))[n7] == [db.encode_row(("n7", "n8"))]
        assert db.hash_builds == built + 1

    def test_bulk_results_visible_to_hash_table(self):
        db = Database.from_dict({"A": [("a", "b")]})
        db.hash_table("A", (1,))
        db.bulk("A", [("q", "b")])
        bucket = db.hash_table("A", (1,))[db.encode_const("b")]
        assert {db.decode_row(row) for row in bucket} == {("a", "b"),
                                                          ("q", "b")}
