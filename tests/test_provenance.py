"""Why-provenance: derivation trees for answers."""

import pytest

from repro.datalog.errors import EvaluationError
from repro.datalog.parser import parse_system
from repro.engine import SemiNaiveEngine
from repro.engine.provenance import (Derivation, _tuple_depths,
                                     explain_answer)
from repro.ra import Database
from repro.workloads import CATALOGUE, chain, random_edb


@pytest.fixture
def tc():
    system = parse_system(
        "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
    db = Database.from_dict({"A": chain(3), "E": [("n3", "n3")]})
    return system, db


class TestDepths:
    def test_chain_depths(self, tc):
        system, db = tc
        depths = _tuple_depths(system, db)  # keyed by encoded rows
        assert depths[db.encode_row(("n3", "n3"))] == 0
        assert depths[db.encode_row(("n2", "n3"))] == 1
        assert depths[db.encode_row(("n0", "n3"))] == 3

    def test_depths_cover_exactly_the_fixpoint(self, tc):
        system, db = tc
        depths = _tuple_depths(system, db)
        assert set(depths) == SemiNaiveEngine().evaluate(
            system, db).encoded


class TestExplain:
    def test_chain_derivation_structure(self, tc):
        system, db = tc
        derivation = explain_answer(system, db, ("n0", "n3"))
        assert derivation.depth == 3
        assert derivation.edb_facts == (("A", ("n0", "n1")),)
        bottom = derivation
        while bottom.premise is not None:
            bottom = bottom.premise
        assert bottom.tuple_ == ("n3", "n3")
        assert bottom.edb_facts == (("E", ("n3", "n3")),)

    def test_render_reads_like_a_proof(self, tc):
        system, db = tc
        text = explain_answer(system, db, ("n0", "n3")).render()
        assert text.splitlines()[0] == "P(n0, n3)"
        assert "rule: P(x, y) :- A(x, z) ∧ P(z, y)." in text
        assert "E(n3, n3)" in text
        assert text.count("premise:") == 3

    def test_exit_only_answer(self, tc):
        system, db = tc
        derivation = explain_answer(system, db, ("n3", "n3"))
        assert derivation.depth == 0
        assert derivation.premise is None

    def test_underivable_tuple_rejected(self, tc):
        system, db = tc
        with pytest.raises(EvaluationError, match="not derivable"):
            explain_answer(system, db, ("n3", "n0"))

    def test_never_seen_constant_is_not_derivable(self, tc):
        system, db = tc
        size = len(db.symbols)
        with pytest.raises(EvaluationError, match="not derivable"):
            explain_answer(system, db, ("n0", "never_seen"))
        assert len(db.symbols) == size  # looked up, never interned

    def test_shared_depths_map(self, tc):
        system, db = tc
        depths = _tuple_depths(system, db)
        for encoded in depths:
            answer = db.decode_row(encoded)
            derivation = explain_answer(system, db, answer, depths)
            assert derivation.tuple_ == answer


class TestEveryClassExplainable:
    @pytest.mark.parametrize("name", ["s1a", "s5", "s8", "s9", "s10",
                                      "s11", "s12"])
    def test_all_answers_have_derivations(self, name):
        system = CATALOGUE[name].system()
        db = random_edb(system, nodes=4, tuples_per_relation=8, seed=2)
        answers = SemiNaiveEngine().evaluate(system, db)
        depths = _tuple_depths(system, db)
        for answer in answers:
            derivation = explain_answer(system, db, answer, depths)
            assert isinstance(derivation, Derivation)
            # the claimed chain length matches the recorded depth...
            assert derivation.depth >= 0

    def test_derivation_depth_matches_recorded_depth(self):
        system = CATALOGUE["s1a"].system()
        db = Database.from_dict({
            "A": chain(5),
            "P__exit": [("n5", "n5")],
        })
        depths = _tuple_depths(system, db)
        for encoded, expected in depths.items():
            derivation = explain_answer(system, db,
                                        db.decode_row(encoded), depths)
            assert derivation.depth == expected


class TestPremiseLookup:
    def test_a_tc_derivation_reads_no_depth_listing(self, tc):
        """Every call variable of TC is bound by the head or a body
        atom, so each premise is one ``depths`` lookup: a depth map
        that refuses to be listed still explains the deepest answer."""
        system, db = tc

        class Depths(dict):
            def items(self):
                raise AssertionError("explain_answer scanned the depths")

        depths = Depths(_tuple_depths(system, db))
        derivation = explain_answer(system, db, ("n0", "n3"), depths)
        assert derivation.depth == 3

    def test_the_least_witness_wins(self):
        """Two body rows derive P(a, c) at depth 1; the least one in
        storage order is the witness, every time."""
        system = parse_system(
            "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
        db = Database.from_dict({"A": [("a", "m"), ("a", "b")],
                                 "E": [("b", "c"), ("m", "c")]})
        witness = min(db.encode_row(row) for row in db.rows("A"))
        derivation = explain_answer(system, db, ("a", "c"))
        assert derivation.edb_facts == (("A", db.decode_row(witness)),)


class TestFreshVariableSubgoals:
    def test_s10_unconstrained_position(self):
        """s10's recursive subgoal has a variable (x1) bound by no
        body atom — provenance must still find a witness subtuple."""
        system = CATALOGUE["s10"].system()
        db = Database.from_dict({
            "B": [("b1",), ("b2",)],
            "C": [("c1", "b1"), ("c2", "b2")],
            "P__exit": [("e1", "b2")],
        })
        answers = SemiNaiveEngine().evaluate(system, db)
        assert answers  # sanity
        depths = _tuple_depths(system, db)
        for answer in answers:
            explain_answer(system, db, answer, depths)
