"""Ablations of the design choices DESIGN.md calls out.

* **ABL1 — binding filter (magic) in the iterative strategy**: the
  compiled engine's only edge for classes E/F is filtering the
  bottom-up fixpoint by the adornment-sequence bindings; switching it
  off (plain semi-naive + final selection) shows how many tuples the
  filter saves on (s12).
"""

from repro.core import text_table
from repro.engine import (CompiledEngine, EvaluationStats, Query,
                          SemiNaiveEngine)
from repro.ra import Database
from repro.workloads import CATALOGUE, random_edb


def test_abl1_binding_filter(benchmark, save_artifact):
    system = CATALOGUE["s12"].system()
    db = random_edb(system, nodes=10, tuples_per_relation=40, seed=3)
    constant = sorted(db.active_domain())[0]
    query = Query("P", (constant, None, None))

    def run_both():
        with_filter, without = EvaluationStats(), EvaluationStats()
        filtered = CompiledEngine().evaluate(system, db, query,
                                             with_filter)
        plain = SemiNaiveEngine().evaluate(system, db, query, without)
        assert filtered == plain
        return with_filter, without

    with_filter, without = benchmark(run_both)
    admitted_filtered = sum(with_filter.delta_sizes)
    admitted_plain = sum(without.delta_sizes)
    assert admitted_filtered < admitted_plain
    save_artifact("ablation1_binding_filter", text_table(
        ["variant", "tuples admitted into P", "probes"],
        [["binding-filtered (compiled)", admitted_filtered,
          with_filter.probes],
         ["unfiltered (semi-naive + final σ)", admitted_plain,
          without.probes]]))


def test_abl3_minimisation(benchmark, save_artifact):
    """ABL3 — redundant-atom elimination ([Han 87]'s motivation):
    a rule padded with redundant subgoals evaluates identically but
    slower; minimisation removes the padding.

    Semi-naive's delta rounds probe the rule's compressed ``AB`` edge,
    the same composed step for both rules, so there the padding costs
    the composition's build: it joins five atoms instead of two.  The
    compiled engine's stable strategy probes the cycle's atoms at every
    depth, so the padding costs it probes."""
    from repro.core import classify, minimize_system
    from repro.datalog import parse_system
    from repro.engine.plan import compile_plan
    from repro.engine.setjoin import apply_rule
    from repro.workloads import chain, reflexive_exit

    # the w-chain A(x,w)∧B(w,m) folds onto the z-chain A(x,z)∧B(z,m2)
    padded = parse_system(
        "P(x, y) :- A(x, z), B(z, m2), A(x, w), A(x, q), B(w, m), "
        "P(z, y).")
    minimal = minimize_system(padded)
    assert len(minimal.recursive.rule.body) == 3  # A, B, P
    assert classify(minimal).is_strongly_stable

    db = Database.from_dict({
        "A": chain(40),
        "B": chain(40),
        "P__exit": reflexive_exit(40),
    })
    query = Query.parse("P(n0, Y)")

    def run_both(engine):
        before, after = EvaluationStats(), EvaluationStats()
        slow = engine.evaluate(padded, db, query, before)
        fast = engine.evaluate(minimal, db, query, after)
        assert slow == fast
        return before, after

    def build_probes(system):
        """The probes of the delta rule's composition, which the
        engine builds outside the counted rounds."""
        rule = system.recursive
        chain_ = compile_plan(rule.nonrecursive_atoms,
                              rule.recursive_atom.args, rule.head.args,
                              db).chain
        stats = EvaluationStats()
        apply_rule(db, chain_.atoms, (), chain_.anchors, [()], stats)
        return stats.probes

    before, after = benchmark(run_both, SemiNaiveEngine())
    assert after.probes == before.probes  # one composed step
    padded_build, minimal_build = build_probes(padded), build_probes(minimal)
    assert after.probes + minimal_build < before.probes + padded_build
    compiled_before, compiled_after = run_both(CompiledEngine())
    assert compiled_after.strategy == compiled_before.strategy == "stable"
    assert compiled_after.probes < compiled_before.probes
    save_artifact("ablation3_minimisation", text_table(
        ["variant", "body atoms", "semi-naive probes",
         "composition probes", "compiled probes"],
        [["padded rule", len(padded.recursive.rule.body),
          before.probes, padded_build, compiled_before.probes],
         ["minimised rule", len(minimal.recursive.rule.body),
          after.probes, minimal_build, compiled_after.probes]]))
