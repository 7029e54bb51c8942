"""Tests for TSV persistence of fact stores."""

import pytest

from repro.datalog.errors import EvaluationError
from repro.ra import Database
from repro.ra.io import (load_database, load_relation, save_database,
                         save_relation)


@pytest.fixture
def db():
    return Database.from_dict({
        "A": [("a", "b"), ("b", "c")],
        "N": [(1,), (2,)],
        "M": [("x", 2.5)],
    })


class TestRoundTrip:
    def test_database_round_trip(self, db, tmp_path):
        save_database(db, tmp_path)
        again = load_database(tmp_path)
        for name in db.relation_names:
            assert again.rows(name) == db.rows(name)

    def test_types_recovered(self, db, tmp_path):
        save_database(db, tmp_path)
        again = load_database(tmp_path)
        assert again.rows("N") == {(1,), (2,)}
        assert again.rows("M") == {("x", 2.5)}

    def test_deterministic_files(self, db, tmp_path):
        save_database(db, tmp_path / "one")
        save_database(db, tmp_path / "two")
        first = (tmp_path / "one" / "A.tsv").read_text()
        second = (tmp_path / "two" / "A.tsv").read_text()
        assert first == second

    def test_empty_relation_round_trips(self, tmp_path):
        db = Database()
        db.declare("Empty", 2)
        save_database(db, tmp_path)
        again = load_database(tmp_path)
        assert again.rows("Empty") == frozenset()


class TestCellFormat:
    """A save writes exactly what a load reads back."""

    def test_numeric_looking_strings_stay_text(self, tmp_path):
        db = Database.from_dict({"A": [("007",), (" 7",), ("1_000",),
                                       (7,), (1000,)]})
        save_database(db, tmp_path)
        assert load_database(tmp_path).rows("A") == db.rows("A")

    def test_only_canonical_finite_numbers_load_as_numbers(self, tmp_path):
        (tmp_path / "A.tsv").write_text(
            "7\n-3\n2.5\n1e+20\n1.50\n1e5\n007\nnan\nnan\ninf\n",
            encoding="utf-8")
        assert load_database(tmp_path).rows("A") == {
            (7,), (-3,), (2.5,), (1e20,), ("1.50",), ("1e5",), ("007",),
            ("nan",), ("inf",)}

    @pytest.mark.parametrize("value", ["a\rb", "a\x0cb", "a\x85b",
                                       "a\u2028b", "a\n"])
    def test_line_break_in_value_rejected(self, value, tmp_path):
        db = Database.from_dict({"A": [(value, "x")]})
        with pytest.raises(EvaluationError, match="line breaks"):
            save_database(db, tmp_path)

    @pytest.mark.parametrize("value", ["7", "2.5", float("nan"), True])
    def test_value_that_loads_as_another_rejected(self, value, tmp_path):
        db = Database.from_dict({"A": [(value, "x")]})
        with pytest.raises(EvaluationError, match="would load back as"):
            save_database(db, tmp_path)

    def test_empty_line_row_rejected(self, tmp_path):
        db = Database.from_dict({"A": [("",)]})
        with pytest.raises(EvaluationError, match="empty line"):
            save_database(db, tmp_path)

    def test_empty_cells_in_wider_rows_round_trip(self, tmp_path):
        db = Database.from_dict({"A": [("", "a"), ("a", "")]})
        save_database(db, tmp_path)
        assert load_database(tmp_path).rows("A") == db.rows("A")


class TestSingleRelation:
    def test_relation_round_trip(self, tmp_path):
        rows = [("a", 1), ("b", 2)]
        save_relation(rows, tmp_path / "r.tsv")
        assert sorted(load_relation(tmp_path / "r.tsv")) == sorted(rows)


class TestErrors:
    def test_tab_in_value_rejected(self, tmp_path):
        db = Database.from_dict({"A": [("a\tb",)]})
        with pytest.raises(EvaluationError, match="tabs"):
            save_database(db, tmp_path)

    def test_missing_directory(self):
        with pytest.raises(EvaluationError, match="not a directory"):
            load_database("/nonexistent/dir/for/sure")


class TestAllOrNothing:
    """A save writes every relation or none: regression, a value
    rejected in a later relation left the earlier files behind, and a
    stray ``*.tsv`` in the directory loaded back as a relation."""

    def test_value_rejected_in_a_later_relation_writes_nothing(
            self, tmp_path):
        db = Database.from_dict({"A": [("a", "b")], "B": [("x\ny",)]})
        target = tmp_path / "out"
        with pytest.raises(EvaluationError, match="line breaks"):
            save_database(db, target)
        assert not target.exists()
        target.mkdir()
        with pytest.raises(EvaluationError, match="line breaks"):
            save_database(db, target)
        assert list(target.iterdir()) == []

    def test_directory_with_a_foreign_relation_refused(self, tmp_path):
        (tmp_path / "Old.tsv").write_text("z\n", encoding="utf-8")
        db = Database.from_dict({"A": [("a", "b")]})
        with pytest.raises(EvaluationError, match="Old.tsv"):
            save_database(db, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["Old.tsv"]
        assert load_database(tmp_path).relation_names == ("Old",)

    def test_resave_over_its_own_files(self, db, tmp_path):
        (tmp_path / "notes.txt").write_text("kept", encoding="utf-8")
        save_database(db, tmp_path)
        save_database(db, tmp_path)
        assert load_database(tmp_path).relation_names == ("A", "M", "N")


class TestIntegrationWithEngines:
    def test_saved_edb_answers_identically(self, tmp_path):
        from repro.engine import SemiNaiveEngine
        from repro.workloads import CATALOGUE, chain_edb
        system = CATALOGUE["s1a"].system()
        db = chain_edb(system, 6)
        save_database(db, tmp_path)
        loaded = load_database(tmp_path)
        engine = SemiNaiveEngine()
        assert engine.evaluate(system, db) == engine.evaluate(
            system, loaded)
