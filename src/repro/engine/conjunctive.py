"""Selection-first conjunctive-query evaluation over the fact store.

This is the shared workhorse of every engine: given a conjunction of
atoms and an initial variable binding, enumerate all satisfying
bindings by backtracking search with a greedy, dynamically re-ranked
atom order — the most-bound atom (most selective access path) is
always evaluated next, which is precisely the paper's principle that
"join operations will be performed only after selection operations".

The solver runs in *storage space*: bindings, probe patterns and
result rows hold the dense int codes the database stores.  Constants
from the rule text are pushed through
``database.encode_const`` at the point they enter a pattern or an
output row; callers that seed a binding must seed storage-space
values, and callers that surface rows to users decode them once at
the answer boundary.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from ..datalog.atoms import Atom
from ..datalog.terms import Constant, Term, Variable
from ..ra.database import Database
from .stats import EvaluationStats

#: A binding maps variables to storage-space database values.
Binding = dict[Variable, object]


def pattern_of(body_atom: Atom, binding: Mapping[Variable, object],
               encode=None) -> tuple:
    """The match pattern of *body_atom* under *binding* (None = free).

    *encode* maps rule-text constants into storage space
    (``Database.encode_const``); binding values are storage-space
    already.
    """
    out: list[object | None] = []
    for term in body_atom.args:
        if isinstance(term, Constant):
            out.append(term.value if encode is None
                       else encode(term.value))
        else:
            out.append(binding.get(term))
    return tuple(out)


def _boundness(body_atom: Atom, binding: Mapping[Variable, object]) -> int:
    count = 0
    for term in body_atom.args:
        if isinstance(term, Constant) or (
                isinstance(term, Variable) and term in binding):
            count += 1
    return count


def _bind(body_atom: Atom, row: tuple,
          binding: Binding) -> list[Variable] | None:
    """Bind *body_atom*'s free variables to *row* in place.

    Returns the variables newly bound (for the caller to unbind on
    backtrack), or None on conflict (repeated variables inside the
    atom must agree) — partial bindings are rolled back before
    returning.  Mutating one shared dict avoids the full-dict copy the
    old ``_extend`` paid per examined row.
    """
    added: list[Variable] = []
    for term, value in zip(body_atom.args, row):
        if isinstance(term, Constant):
            continue
        seen = binding.get(term)
        if seen is None:
            binding[term] = value
            added.append(term)
        elif seen != value:
            for variable in added:
                del binding[variable]
            return None
    return added


def solve(database: Database, atoms: Sequence[Atom],
          binding: Mapping[Variable, object] | None = None,
          stats: EvaluationStats | None = None) -> Iterator[Binding]:
    """All bindings satisfying the conjunction of *atoms*.

    >>> db = Database.from_dict({"A": [("a", "b"), ("b", "c")]})
    >>> from ..datalog.parser import parse_atom
    >>> pair = [parse_atom("A(x, y)"), parse_atom("A(y, z)")]
    >>> answers = list(solve(db, pair))
    >>> len(answers)
    1
    """
    start: Binding = dict(binding or {})
    encode = database.encode_const

    def backtrack(remaining: list[Atom],
                  current: Binding) -> Iterator[Binding]:
        if not remaining:
            yield dict(current)
            return
        # Greedy: most-bound atom first, smaller relation on ties.
        best_index = max(
            range(len(remaining)),
            key=lambda i: (_boundness(remaining[i], current),
                           -database.count(remaining[i].predicate)))
        chosen = remaining[best_index]
        rest = remaining[:best_index] + remaining[best_index + 1:]
        probe_pattern = pattern_of(chosen, current, encode)
        for row in database.match_encoded(chosen.predicate,
                                          probe_pattern):
            if stats is not None:
                stats.probes += 1
            added = _bind(chosen, row, current)
            if added is not None:
                yield from backtrack(rest, current)
                for variable in added:
                    del current[variable]

    yield from backtrack(list(atoms), start)


def solve_project(database: Database, atoms: Sequence[Atom],
                  out_terms: Sequence[Term],
                  binding: Mapping[Variable, object] | None = None,
                  stats: EvaluationStats | None = None
                  ) -> set[tuple]:
    """The projections of all solutions onto *out_terms*.

    This is rule application: *out_terms* is typically the head's
    argument list.  Rows come back in storage space — decode at the
    answer boundary, or feed them to ``add_encoded``/``bulk_encoded``.
    """
    encode = database.encode_const
    results: set[tuple] = set()
    for solution in solve(database, atoms, binding, stats):
        row = tuple(
            encode(term.value) if isinstance(term, Constant)
            else solution[term]
            for term in out_terms)
        results.add(row)
        if stats is not None:
            stats.derived += 1
    return results


def satisfiable(database: Database, atoms: Sequence[Atom],
                binding: Mapping[Variable, object] | None = None,
                stats: EvaluationStats | None = None) -> bool:
    """The paper's existence check ∃: is there at least one solution?"""
    return next(solve(database, atoms, binding, stats), None) is not None
