"""Property tests: set-at-a-time plans ≡ per-binding solving.

:func:`apply_rule` equals a per-binding ``solve_project`` loop on
random linear rules and EDBs — the exact contract the fixpoint engines
rely on.  The engine-level reference for fixpoints and per-round delta
sizes is the ground-instantiation oracle (``tests/test_oracle.py``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.terms import Variable
from repro.engine import apply_rule, solve_project
from repro.workloads import CATALOGUE, random_edb

from .strategies import linear_systems


@settings(max_examples=60, deadline=None)
@given(system=linear_systems(), seed=st.integers(0, 5),
       tuples=st.integers(2, 16))
def test_apply_rule_equals_solve_project_loop(system, seed, tuples):
    """Batch execution of the recursive body over random delta rows
    agrees with binding-at-a-time solve_project."""
    db = random_edb(system, nodes=5, tuples_per_relation=tuples,
                    seed=seed)
    rule = system.recursive
    body = rule.nonrecursive_atoms
    entry = rule.recursive_atom.args
    head = rule.head.args
    # delta rows: whatever the exits derive, plus junk rows (encoded
    # into storage space — the kernel contract for delta rows)
    delta = set(solve_project(db, system.exits[0].body,
                              system.exits[0].head.args))
    delta |= {db.encode_row(("zz",) * system.dimension)}

    expected: set[tuple] = set()
    for row in delta:
        binding: dict[Variable, object] = {}
        consistent = True
        for term, value in zip(entry, row):
            if binding.get(term, value) != value:
                consistent = False
                break
            binding[term] = value
        if consistent:
            expected |= solve_project(db, body, head, binding)

    assert apply_rule(db, body, entry, head, delta) == expected


def test_catalogue_spans_the_paper_classes():
    """The catalogue sweeps (``tests/test_oracle.py`` and the
    per-class parity suites) really cover A1..A5, B and C (A2 occurs
    only as a cycle component in the paper's examples)."""
    classes = {entry.paper_class for entry in CATALOGUE.values()}
    assert {"A1", "A3", "A4", "A5", "B", "C"} <= classes
    components = {c for entry in CATALOGUE.values()
                  for c in entry.paper_components.split("+")}
    assert "A2" in components
