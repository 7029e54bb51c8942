"""Property-based tests (hypothesis) over random rules and databases.

These machine-check the paper's theorems on *arbitrary* linear rules,
not just the worked examples: Theorem 1's equivalence, Corollary 3,
Theorem 2/4 equivalence of the unfolding, the rank bounds, Theorem 12
completeness, and cross-engine agreement.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.classes import Boundedness, FormulaClass
from repro.core.classifier import classify
from repro.core.stability import (is_semantically_stable,
                                  is_syntactically_stable)
from repro.core.transform import to_stable
from repro.datalog.program import RecursionSystem
from repro.engine import (CompiledEngine, NaiveEngine, Query,
                          SemiNaiveEngine, TopDownEngine)
from repro.workloads import random_edb

from .strategies import linear_rules, linear_systems

RELAXED = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


class TestClassifierTotality:
    @RELAXED
    @given(linear_rules())
    def test_every_rule_gets_exactly_one_class(self, rule):
        """Theorem 12: the classification is complete."""
        result = classify(rule)
        assert isinstance(result.formula_class, FormulaClass)
        assert result.components  # a recursive rule has >= 1 component

    @RELAXED
    @given(linear_rules())
    def test_components_partition_the_anchors(self, rule):
        result = classify(rule)
        seen = set()
        for component in result.components:
            assert not (seen & component.anchors)
            seen |= component.anchors
        assert seen == result.graph.anchors

    @RELAXED
    @given(linear_rules())
    def test_a_family_iff_transformable(self, rule):
        """Corollary 3 (syntactic side)."""
        result = classify(rule)
        assert result.is_transformable == \
            result.formula_class.is_one_directional


class TestTheorem1Property:
    @RELAXED
    @given(linear_rules())
    def test_syntactic_equals_semantic(self, rule):
        assert is_syntactically_stable(rule) == \
            is_semantically_stable(rule)


class TestTransformationProperty:
    @RELAXED
    @given(linear_rules(max_arity=3, max_edb_atoms=3),
           st.integers(0, 3))
    def test_unfolded_system_is_equivalent(self, rule, seed):
        """Theorem 2/4: the unfolding computes the same fixpoint."""
        result = classify(rule)
        if not result.is_transformable:
            return
        if result.unfold_times > 6:
            return  # keep the expansion size sane
        system = RecursionSystem(rule)
        transformed = to_stable(system, result)
        assert transformed.classification.is_strongly_stable
        db = random_edb(system, nodes=5, tuples_per_relation=7,
                        seed=seed)
        engine = SemiNaiveEngine()
        assert engine.evaluate(system, db) == \
            engine.evaluate(transformed.system, db)


class TestRankBoundProperty:
    @RELAXED
    @given(linear_rules(max_arity=3, max_edb_atoms=3),
           st.integers(0, 2))
    def test_measured_rank_respects_bound(self, rule, seed):
        """Ioannidis / Theorems 10, 11: bounded formulas never derive
        new tuples past the predicted rank on any database."""
        result = classify(rule)
        if result.boundedness is not Boundedness.BOUNDED:
            return
        system = RecursionSystem(rule)
        db = random_edb(system, nodes=5, tuples_per_relation=8,
                        seed=seed)
        measured = SemiNaiveEngine().measured_rank(system, db)
        assert measured <= result.rank_bound


class TestEngineAgreementProperty:
    @RELAXED
    @given(linear_systems(max_arity=3, max_edb_atoms=3),
           st.integers(0, 3), st.integers(0, 7))
    def test_three_engines_agree(self, system, seed, query_mask):
        db = random_edb(system, nodes=5, tuples_per_relation=7,
                        seed=seed)
        domain = sorted(db.active_domain()) or ["c0"]
        pattern = tuple(
            domain[i % len(domain)]
            if (query_mask >> i) & 1 and i < system.dimension else None
            for i in range(system.dimension))
        query = Query(system.predicate, pattern)
        naive = NaiveEngine().evaluate(system, db, query)
        semi = SemiNaiveEngine().evaluate(system, db, query)
        comp = CompiledEngine().evaluate(system, db, query)
        top = TopDownEngine().evaluate(system, db, query)
        assert naive == semi == comp == top


class TestExpansionProperty:
    @RELAXED
    @given(linear_systems(max_arity=2, max_edb_atoms=2),
           st.integers(1, 4))
    def test_expansion_k_has_k_body_copies(self, system, k):
        base = len(system.recursive.nonrecursive_atoms)
        expanded = system.expansion(k)
        edb_atoms = [a for a in expanded.body
                     if a.predicate != system.predicate]
        assert len(edb_atoms) == base * k
        recursive_atoms = [a for a in expanded.body
                           if a.predicate == system.predicate]
        assert len(recursive_atoms) == 1


class TestWitnessProperty:
    @RELAXED
    @given(linear_rules(max_arity=3, max_edb_atoms=3))
    def test_witness_rank_within_bound(self, rule):
        """The constructive witness never exceeds the predicted bound,
        for any bounded random formula."""
        from repro.core.witness import witness_rank
        result = classify(rule)
        if result.boundedness is not Boundedness.BOUNDED:
            return
        if result.rank_bound > 8:
            return
        system = RecursionSystem(rule)
        measured = witness_rank(system, result.rank_bound + 1)
        assert measured <= result.rank_bound


class TestAdvisorTotality:
    @RELAXED
    @given(linear_rules(max_arity=3, max_edb_atoms=3))
    def test_advise_covers_every_adornment(self, rule):
        from repro.core.advisor import advise
        system = RecursionSystem(rule)
        capabilities = advise(system)
        assert len(capabilities) == 2 ** system.dimension
        assert all(cap.pushdown in ("full", "partial", "none",
                                    "finite")
                   for cap in capabilities)


class TestParserRoundTrip:
    @RELAXED
    @given(linear_rules(max_arity=3, max_edb_atoms=4))
    def test_printed_rule_reparses_identically(self, rule):
        from repro.datalog.parser import parse_rule
        assert parse_rule(str(rule.rule)) == rule.rule


class TestBindingSequenceProperty:
    @RELAXED
    @given(linear_rules(max_arity=3, max_edb_atoms=3),
           st.integers(0, 7), st.integers(0, 30))
    def test_state_at_is_eventually_periodic(self, rule, mask, probe):
        from repro.core.bindings import binding_sequence
        adornment = frozenset(i for i in range(rule.dimension)
                              if (mask >> i) & 1)
        sequence = binding_sequence(rule, adornment)
        assert sequence.state_at(probe) == sequence.state_at(
            probe + sequence.period if probe >= sequence.prefix_length
            else probe)


class TestPotentialCycleConsistency:
    """Two independent implementations must agree: the potential
    assignment is consistent iff every fundamental-basis cycle of the
    hybrid graph has weight 0."""

    @RELAXED
    @given(linear_rules(max_arity=3, max_edb_atoms=4))
    def test_potentials_agree_with_cycle_basis(self, rule):
        from repro.graphs import (assign_potentials, build_igraph,
                                  fundamental_cycles)
        graph = build_igraph(rule)
        consistent = assign_potentials(graph).consistent
        basis_all_zero = all(c.weight == 0
                             for c in fundamental_cycles(graph))
        assert consistent == basis_all_zero

    @RELAXED
    @given(linear_rules(max_arity=3, max_edb_atoms=3))
    def test_path_weight_equals_potential_difference(self, rule):
        """When consistent, any directed path's weight equals the
        endpoint potential difference."""
        from repro.graphs import assign_potentials, build_igraph
        graph = build_igraph(rule)
        result = assign_potentials(graph)
        if not result.consistent:
            return
        for edge in graph.directed:
            assert (result.potentials[edge.head]
                    - result.potentials[edge.tail]) == 1


class TestMinimizationClassInvariant:
    @RELAXED
    @given(linear_rules(max_arity=3, max_edb_atoms=4))
    def test_minimisation_preserves_stability(self, rule):
        """Folding redundant atoms never destroys strong stability
        (it can only simplify the graph)."""
        from repro.core.minimize import minimize_rule
        from repro.datalog.rules import RecursiveRule
        before = classify(rule)
        minimised = RecursiveRule(minimize_rule(rule.rule),
                                  strict=False)
        after = classify(minimised)
        if before.is_strongly_stable:
            assert after.is_strongly_stable
