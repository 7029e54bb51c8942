"""The compiled engine resolves nothing at run time.

The paper compiles each query form of a classified formula once; the
compiled formula's relational steps then run with no resolution left
to do.  Here every catalogue formula is compiled for every adornment,
then evaluated with the resolution machinery (expansion, unification,
the I-graph and the determined closures) patched to raise in every
``repro`` module that holds it: the answers must still equal the
ground-instantiation oracle's.  A second pass over the same databases,
with every join plan cached, must build no entry layout either — a
cached :class:`~repro.engine.plan.JoinPlan` carries its own.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.bindings import (all_adornments, body_adornment,
                                 determined_closure)
from repro.core.compile import compile_query
from repro.datalog.errors import EvaluationError
from repro.datalog.program import RecursionSystem
from repro.datalog.unify import unify_atoms
from repro.engine import CompiledEngine, Query
from repro.engine.plan import entry_layout
from repro.graphs.igraph import build_igraph
from repro.workloads import CATALOGUE

from .oracle import oracle_evaluate
from .test_oracle import answer_patterns, tiny_edb


def _patch_everywhere(monkeypatch, function, replacement) -> None:
    """Replace *function* in every loaded ``repro`` module holding it."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, attr, replacement)


def _forbid_resolution(monkeypatch) -> None:
    def resolved(*args, **kwargs):
        raise AssertionError("resolution at run time")
    for method in ("expansion", "exit_expansion"):
        monkeypatch.setattr(RecursionSystem, method, resolved)
    for function in (unify_atoms, build_igraph, body_adornment,
                     determined_closure):
        _patch_everywhere(monkeypatch, function, resolved)


def test_compiled_queries_run_without_resolution(catalogue_entry,
                                                 monkeypatch):
    system = catalogue_entry.system()
    db = tiny_edb(system, seed=0)
    expected = oracle_evaluate(system, db)
    domain = sorted(db.active_domain())
    arity = system.dimension
    cases = [(compile_query(system, adornment), Query(system.predicate,
                                                      pattern))
             for adornment in all_adornments(arity)
             for pattern in answer_patterns(expected, adornment, arity,
                                            domain)]
    _forbid_resolution(monkeypatch)

    layouts = []

    def counted(*args, **kwargs):
        layouts.append(args)
        return entry_layout(*args, **kwargs)

    _patch_everywhere(monkeypatch, entry_layout, counted)
    for warm in (False, True):
        layouts.clear()
        for compiled, query in cases:
            answers = CompiledEngine().evaluate(system, db, query,
                                                compiled=compiled)
            assert answers == frozenset(row for row in expected
                                        if query.matches(row)), str(query)
        if warm:
            assert layouts == []


def test_formula_of_another_query_form_is_refused():
    system = CATALOGUE["s12"].system()
    db = tiny_edb(system, seed=0)
    with pytest.raises(EvaluationError, match=r"P\(dvv\)"):
        CompiledEngine().evaluate(system, db, Query.parse("P(a, b, Z)"),
                                  compiled=compile_query(system, "dvv"))
