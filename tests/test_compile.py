"""The compiler: strategies, cycle specs, and the paper's plans.

The plan-string assertions check *structure* (strategy, relation
content, products, existence checks, iteration blocks) rather than
byte-identical text, plus exact matches where the generated plan
reproduces the paper's notation verbatim (s11, s12 and the stable
plans).
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.compile import (Strategy, compile_query, compile_stable)
from repro.datalog.errors import EvaluationError
from repro.datalog.parser import parse_system
from repro.workloads import CATALOGUE, EXTRA_CATALOGUE


def compiled(name: str, form: str):
    return compile_query(CATALOGUE[name].system(), form)


class TestStrategySelection:
    @pytest.mark.parametrize("name,form,strategy", [
        ("s1a", "dv", Strategy.STABLE),
        ("s2a", "dv", Strategy.STABLE),
        ("s3", "ddv", Strategy.STABLE),
        ("s4", "ddv", Strategy.TRANSFORM),
        ("thm1", "dv", Strategy.TRANSFORM),
        ("s5", "dvv", Strategy.BOUNDED),     # permutational -> bounded
        ("s6", "dvvvvv", Strategy.BOUNDED),
        ("s8", "dvvv", Strategy.BOUNDED),
        ("s10", "vv", Strategy.BOUNDED),
        ("s9", "dvv", Strategy.ITERATIVE),
        ("s11", "dv", Strategy.ITERATIVE),
        ("s12", "dvv", Strategy.ITERATIVE),
        ("s7", "dvvvvvv", Strategy.TRANSFORM),
    ])
    def test_strategy(self, name, form, strategy):
        assert compiled(name, form).strategy is strategy

    def test_adornment_string_accepted(self):
        system = CATALOGUE["s1a"].system()
        assert compile_query(system, "dv").adornment == frozenset({0})

    def test_subscripted_variables_unfold_apart(self):
        """Regression: Theorem 2/4's unfolding renamed ``x`` to the
        rule's own ``x_1``, and the unfolded system was no longer
        stable (``ValueError``)."""
        system = parse_system("P(x, y, z) :- P(y, z, x_1), A(x, x_1).")
        assert compile_query(system, "dvv").strategy is Strategy.TRANSFORM

    def test_arity_checked(self):
        with pytest.raises(EvaluationError, match="arity"):
            compile_query(CATALOGUE["s1a"].system(), frozenset({5}))


class TestCycleSpecs:
    def test_s3_specs(self):
        comp = compile_stable(CATALOGUE["s3"].system())
        labels = [(s.position, s.label, s.is_permutational)
                  for s in comp.specs]
        assert labels == [(0, "A", False), (1, "B", False),
                          (2, "C", False)]

    def test_tc_self_loop_spec(self):
        comp = compile_stable(CATALOGUE["s1a"].system())
        assert not comp.specs[0].is_permutational
        assert comp.specs[1].is_permutational
        assert comp.specs[1].atoms == ()

    def test_decorated_self_loop_carries_atoms(self):
        system = parse_system("P(x, y) :- A(x, z), B(y, w), P(z, y).")
        comp = compile_stable(system)
        loop = comp.specs[1]
        assert loop.is_permutational
        assert [a.predicate for a in loop.atoms] == ["B"]

    def test_compressed_cycle_label(self):
        system = parse_system(
            "P(x, y) :- A(x, u), B(x, z), C(z, u), P(u, y).")
        comp = compile_stable(system)
        assert comp.specs[0].label in ("ABC", "AB", "AC")
        assert len(comp.specs[0].atoms) == 3

    def test_free_atoms_collected(self):
        system = parse_system("P(x, y) :- A(x, z), D(a, b), P(z, y).")
        comp = compile_stable(system)
        assert [a.predicate for a in comp.free_atoms] == ["D"]

    def test_nonstable_rejected(self):
        with pytest.raises(ValueError, match="not strongly stable"):
            compile_stable(CATALOGUE["s4"].system())


class TestStablePlans:
    def test_tc_plan(self):
        assert compiled("s1a", "dv").plan_text == "σE,  ∪k≥0 [σA^k-E]"

    def test_s3_plan_matches_paper(self):
        """Example 3: σA^k, σB^k branches joined with E, then C^k."""
        assert compiled("s3", "ddv").plan_text == \
            "σE,  ∪k≥0 [{σA^k, σB^k}-E-C^k]"

    def test_s3_symmetric_query(self):
        text = compiled("s3", "vdd").plan_text
        assert "σB^k" in text and "σC^k" in text and "A^k" in text

    def test_s4_transform_plan_uses_compressed_labels(self):
        formula = compiled("s4", "ddv")
        assert formula.strategy is Strategy.TRANSFORM
        assert formula.transformation.unfold_times == 3
        # each cycle of the unfolded system joins two relations
        for spec in formula.stable.specs:
            assert len(spec.label) == 2
        assert "exit expansions" in " ".join(formula.notes)


class TestIterativePlans:
    def test_s11_plan_matches_paper_exactly(self):
        """Example 11: σE, σA-C-B-E, ∪ σA-C-B-[{A,B}-C]^k-E."""
        assert compiled("s11", "dv").plan_text == \
            "σE,  σA-C-B-E,  ∪k≥1 [σA-C-B-[{A, B}-C]^k-E]"

    def test_s12_plan_matches_paper_shape(self):
        """Example 14: σE, ∪ σA-C-B-[{A,B}-C]^k-E-D^{k+1}."""
        text = compiled("s12", "dvv").plan_text
        assert "σA-C-B" in text
        assert "[{A, B}-C]^k" in text
        assert text.endswith("E-D^k-D]")

    def test_s9_dvv_product_shape(self):
        """Example 9, P(d,v,v): (σA) X ((E⋈B)(BA)^k)."""
        text = compiled("s9", "dvv").plan_text
        assert "(σA) X" in text
        assert "E-" in text
        assert "^k" in text

    def test_s9_vvd_existence_shape(self):
        """Example 9, P(v,v,d): (∃ …) A."""
        text = compiled("s9", "vvd").plan_text
        assert "∃(" in text
        assert text.endswith("-A]")

    def test_s12_note_records_query_dependent_stability(self):
        notes = " ".join(compiled("s12", "dvv").notes)
        assert "query-dependently stable" in notes
        assert "dvv → (ddv)*" in notes


class TestBoundedPlans:
    def test_s8_plan_is_finite_steps(self):
        formula = compiled("s8", "dvvv")
        assert formula.strategy is Strategy.BOUNDED
        # three comma-separated steps: depths 1, 2, 3
        assert formula.plan_text.count(",  ") == 2

    def test_bounded_note_names_rank(self):
        notes = " ".join(compiled("s8", "dvvv").notes)
        assert "rank ≤ 2" in notes


class TestDescribe:
    def test_describe_contains_all_sections(self):
        text = compiled("s9", "dvv").describe()
        for fragment in ("query form: P(dvv)", "class:", "strategy:",
                         "bindings:", "plan:"):
            assert fragment in text

    def test_plan_text_is_the_same_in_every_process(self):
        """The plan of every catalogue entry's recorded query forms and
        its all-bound form, compiled under four hash seeds: groups come
        in order of their first atom, never in the order set iteration
        happens to unite them (``dependent_bounded``'s ``dddd`` plan
        used to swap its last two existence checks)."""
        script = (
            "from repro.core.compile import compile_query\n"
            "from repro.workloads import CATALOGUE, EXTRA_CATALOGUE\n"
            "for catalogue in (CATALOGUE, EXTRA_CATALOGUE):\n"
            "    for name, entry in catalogue.items():\n"
            "        system = entry.system()\n"
            "        for form in (*entry.query_forms,\n"
            "                     'd' * system.dimension):\n"
            "            print(name, compile_query(system, form)"
            ".describe())\n")
        src = pathlib.Path(__file__).parent.parent / "src"
        runs = [subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONHASHSEED": str(seed),
                            "PYTHONPATH": str(src)})
            for seed in range(4)]
        outputs = [run.communicate(timeout=120)[0] for run in runs]
        assert all(run.returncode == 0 for run in runs)
        assert outputs[0].count("query form:") == 59
        assert outputs[1:] == outputs[:1] * 3


class TestAuxiliaryRecursion:
    """Example 9's split P = E ∪ D × R, derived once by unfolding."""

    def test_which_formulas_carry_it(self):
        """Among the ITERATIVE formulas, the class C ones with a
        detached atom (s1b, s9) carry R; s11 and s12 have none."""
        iterative = {}
        for name, entry in {**CATALOGUE, **EXTRA_CATALOGUE}.items():
            system = entry.system()
            formula = compile_query(system, "v" * system.dimension)
            if formula.strategy is Strategy.ITERATIVE:
                iterative[name] = formula.auxiliary is not None
            else:
                assert formula.auxiliary is None, name
        assert {"s1b", "s9", "s11", "s12"} <= set(iterative)
        assert {name for name, has in iterative.items() if has} == \
            {"s1b", "s9"}

    def test_s9_rules_and_note(self):
        formula = compiled("s9", "dvv")
        auxiliary = formula.auxiliary
        assert [str(a) for a in auxiliary.detached] == ["A(x, y)"]
        assert auxiliary.positions == (0, 1)
        assert str(auxiliary.system) == (
            "P__aux(z) :- B(u, v) ∧ A(u, z) ∧ P__aux(v).\n"
            "P__aux(z) :- B(u, v) ∧ P__exit(u, z, v).")
        assert formula.notes[-1] == (
            "answers σE ∪ σ(A(x, y)) × P__aux(z), where "
            "P__aux(z) :- B(u, v) ∧ P__exit(u, z, v). "
            "P__aux(z) :- B(u, v) ∧ A(u, z) ∧ P__aux(v).")
        assert "note:       answers σE ∪ σ(A(x, y)) × P__aux(z)" in \
            formula.describe()

    def test_unfolding_renames_apart(self):
        """The unfolded copy's own variables never meet the rule's,
        even when the rule already uses the subscripted names."""
        system = parse_system(
            "P(x, y, z) :- A(x, w), C(w, y), B(u, w_1), P(u, z, w_1).")
        rule = compile_query(system, "dvv").auxiliary.system.recursive
        assert str(rule) == ("P__aux(z) :- B(u, w_1) ∧ A(u, w_2) ∧ "
                             "C(w_2, z) ∧ P__aux(w_1).")

    def test_loose_rule_keeps_the_fixpoint(self):
        """``--loose`` accepts a head variable in no body atom; its R
        would not be range restricted, so the compiled engine runs the
        plain fixpoint and fails as the semi-naive engine does."""
        from repro.engine import (CompiledEngine, EvaluationStats, Query,
                                  SemiNaiveEngine)
        from repro.workloads import random_edb
        system = parse_system(
            "P(x, y, z, w) :- A(x, y), B(u, v), P(u, z, v, t).",
            strict=False)
        formula = compile_query(system, "dvvv")
        assert formula.strategy is Strategy.ITERATIVE
        assert formula.auxiliary is None
        db = random_edb(system, nodes=3, tuples_per_relation=4, seed=0)
        query = Query.all_free("P", 4)
        with pytest.raises(EvaluationError) as semi:
            SemiNaiveEngine().evaluate(system, db, query)
        with pytest.raises(EvaluationError) as ours:
            CompiledEngine().evaluate(system, db, query, EvaluationStats(),
                                      compiled=compile_query(system, "vvvv"))
        assert str(ours.value) == str(semi.value)
