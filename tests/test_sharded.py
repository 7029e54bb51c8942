"""Snapshot tests: a pickled Database carries its rows, arities and
versions, and drops its derived structures at the boundary."""

import pickle

from repro.ra.database import Database
from repro.workloads import chain


class TestSnapshot:
    def test_pickle_roundtrip_preserves_rows_and_versions(self):
        db = Database.from_dict({"A": chain(5)})
        db.add("A", ("extra", "row"))
        clone = pickle.loads(pickle.dumps(db))
        assert clone.rows("A") == db.rows("A")
        assert clone.arity("A") == 2
        assert clone.version("A") == db.version("A")

    def test_pickle_drops_derived_structures(self):
        db = Database.from_dict({"A": chain(5)})
        db.hash_table("A", (0,))
        list(db.match("A", ("n0", None)))
        clone = pickle.loads(pickle.dumps(db))
        assert clone._hash_tables == {}
        assert clone._indexes == {}
        # and they rebuild on demand
        assert set(clone.match("A", ("n0", None))) == {("n0", "n1")}
