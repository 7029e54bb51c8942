"""Unit tests for the indexed fact store."""

import pytest

from repro.datalog.atoms import fact
from repro.datalog.errors import EvaluationError
from repro.ra.database import Database


@pytest.fixture
def db():
    return Database.from_dict({
        "A": [("a", "b"), ("b", "c"), ("a", "c")],
        "N": [("a",), ("b",)],
    })


class TestConstruction:
    def test_from_atoms(self):
        db = Database.from_atoms([fact("A", "a", "b"), fact("A", "a", "b")])
        assert db.count("A") == 1

    def test_from_atoms_rejects_non_ground(self):
        """Regression: an atom with a variable argument used to be
        silently truncated to its constant prefix."""
        from repro.datalog.atoms import Atom
        from repro.datalog.errors import RuleValidationError
        from repro.datalog.terms import Constant, Variable
        atom = Atom("A", (Constant("a"), Variable("X")))
        with pytest.raises(RuleValidationError, match="not ground"):
            Database.from_atoms([atom])

    def test_copy_is_independent(self, db):
        clone = db.copy()
        clone.add("A", ("z", "z"))
        assert db.count("A") == 3
        assert clone.count("A") == 4


class TestMutation:
    def test_add_reports_novelty(self, db):
        assert db.add("A", ("x", "y"))
        assert not db.add("A", ("x", "y"))

    def test_bulk_counts_new_rows(self, db):
        assert db.bulk("A", [("a", "b"), ("q", "q")]) == 1

    def test_arity_enforced(self, db):
        with pytest.raises(EvaluationError, match="arity"):
            db.add("A", ("only-one",))

    def test_arity_error_names_the_values_and_interns_nothing(self, db):
        """Regression: the error showed the row's storage codes, and
        the rejected row's constants were interned."""
        symbols = len(db.symbols)
        with pytest.raises(EvaluationError) as caught:
            db.add("A", ("zzz",))
        assert str(caught.value) == ("arity mismatch for 'A': expected 2, "
                                     "got 1 in ('zzz',)")
        assert len(db.symbols) == symbols
        assert db.symbols.lookup("zzz") is None

    def test_check_arity_writes_nothing(self, db):
        db.check_arity("A", [("x", "y"), ("y", "z")])
        db.check_arity("new", [("x",), ("y",)])
        with pytest.raises(EvaluationError, match="expected 2, got 3"):
            db.check_arity("A", [("x", "y"), ("x", "y", "z")])
        with pytest.raises(EvaluationError, match="expected 1, got 2"):
            db.check_arity("new", [("x",), ("y", "z")])
        assert db.arity("new") is None
        assert db.rows("A") == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_declare_registers_empty_relation(self):
        db = Database()
        db.declare("P", 2)
        assert db.rows("P") == frozenset()
        assert db.arity("P") == 2


class TestRemoval:
    def test_remove_reports_presence(self, db):
        assert db.remove("A", ("a", "b"))
        assert not db.remove("A", ("a", "b"))
        assert not db.remove("missing", ("a", "b"))

    def test_remove_updates_hash_table(self, db):
        a = db.encode_const("a")
        db.hash_table("A", (0,))  # force the table build
        db.remove("A", ("a", "b"))
        assert db.hash_table("A", (0,))[a] == [db.encode_row(("a", "c"))]

    def test_bulk_remove_counts_removed_rows(self, db):
        assert db.bulk_remove("A", [("a", "b"), ("zz", "zz")]) == 1
        assert db.count("A") == 2

    def test_bulk_remove_invalidates_hash_tables(self, db):
        """Cached hash tables must never serve deleted rows — the
        version counter has to move on removal exactly as on
        insertion."""
        a, ab = db.encode_const("a"), db.encode_row(("a", "b"))
        before = db.hash_table("A", (0,))
        assert ab in before[a]
        db.bulk_remove("A", [("a", "b")])
        after = db.hash_table("A", (0,))
        assert ab not in after.get(a, [])
        assert db.encode_row(("a", "c")) in after[a]

    def test_remove_only_bulk_bumps_version_once(self, db):
        version = db.version("A")
        db.bulk_remove("A", [("a", "b"), ("b", "c")])
        assert db.version("A") == version + 1

    def test_bulk_with_removals_but_no_new_rows_invalidates(self, db):
        """Regression: the old per-call "did I add anything" check
        skipped the version bump when a bulk batch only removed rows
        (the adds were all duplicates), leaving hash tables stale."""
        b, bc = db.encode_const("b"), db.encode_row(("b", "c"))
        stale = db.hash_table("A", (0,))
        assert bc in stale[b]

        def batch():
            db.remove("A", ("b", "c"))  # removal nested in the bulk
            yield ("a", "b")            # duplicate: adds nothing

        assert db.bulk("A", batch()) == 0
        fresh = db.hash_table("A", (0,))
        assert bc not in fresh.get(b, [])

    def test_nested_bulk_invalidates_every_dirty_relation(self, db):
        """A bulk load that triggers a nested bulk on another relation
        must bump both relations' versions when the outermost call
        ends."""
        q, x = db.encode_const("q"), db.encode_const("x")
        table_a = db.hash_table("A", (0,))
        table_n = db.hash_table("N", (0,))
        assert q not in table_n

        def batch():
            yield ("x", "y")
            db.bulk("N", [("q",)])  # nested bulk, different relation
            yield ("y", "z")

        assert db.bulk("A", batch()) == 2
        assert q in db.hash_table("N", (0,))
        assert x in db.hash_table("A", (0,))
        assert x not in table_a  # the stale table really was stale


class TestSnapshotPickling:
    def test_roundtrip_preserves_rows_arities_versions(self, db):
        import pickle
        clone = pickle.loads(pickle.dumps(db))
        assert clone.rows("A") == db.rows("A")
        assert clone.rows("N") == db.rows("N")
        assert clone.arity("A") == 2
        assert clone.version("A") == db.version("A")

    def test_roundtrip_drops_caches_and_rebuilds_lazily(self, db):
        import pickle
        db.hash_table("A", (0,))
        db.hash_table("A", (1,))
        clone = pickle.loads(pickle.dumps(db))
        assert clone.hash_builds == 0
        # the symbol table travels with the pickle, so storage-space
        # keys survive the round trip
        key = clone.symbols.lookup("a")
        assert key is not None
        assert {clone.decode_row(row) for row in
                clone.hash_table("A", (0,))[key]} == {("a", "b"),
                                                      ("a", "c")}
        assert clone.hash_builds == 1


class TestAccess:
    def test_rows_of_unknown_relation_is_empty(self, db):
        assert db.rows("missing") == frozenset()

    def test_empty_key_groups_every_row(self, db):
        (rows,) = db.hash_table("A", ()).values()
        assert {db.decode_row(row) for row in rows} == db.rows("A")

    def test_hash_table_keys_on_its_columns(self, db):
        def bucket(positions, *values):
            key = tuple(db.encode_const(value) for value in values)
            table = db.hash_table("A", positions)
            return {db.decode_row(row) for row in
                    table.get(key[0] if len(key) == 1 else key, ())}

        assert bucket((0,), "a") == {("a", "b"), ("a", "c")}
        assert bucket((1,), "c") == {("b", "c"), ("a", "c")}
        assert bucket((0, 1), "a", "c") == {("a", "c")}
        assert bucket((0,), "c") == set()

    def test_hash_table_after_insert_sees_new_rows(self, db):
        db.hash_table("A", (0,))  # force the table build
        db.add("A", ("a", "z"))
        assert db.encode_row(("a", "z")) in db.hash_table(
            "A", (0,))[db.encode_const("a")]

    def test_contains_protocol(self, db):
        assert ("A", ("a", "b")) in db
        assert ("A", ("b", "a")) not in db

    def test_active_domain(self, db):
        assert db.active_domain() == {"a", "b", "c"}

    def test_total_facts(self, db):
        assert db.total_facts() == 5

    def test_relation_names_sorted(self, db):
        assert db.relation_names == ("A", "N")
