"""Why-provenance: derivation trees for answers.

A deductive database should be able to say *why* a tuple is an answer.
For linear single recursion the derivation of ``P(t̄)`` is a chain:
an exit rule application at the bottom and one recursive rule
application per level above it.  :func:`explain_answer` reconstructs
that chain:

1. run semi-naive evaluation once, recording the *depth* at which each
   tuple is first derived (depth 0 = exit round);
2. walk downward from the requested tuple: at depth d > 0 find a body
   binding of the recursive rule whose recursive subgoal was derived
   at a smaller depth; at depth 0 find the exit rule that produced it.

Both steps run in storage space, like every engine; only the rows that
end up in a :class:`Derivation` are decoded.

The result is a :class:`Derivation` tree whose rendering reads like a
proof::

    P(n0, n2)
    ├─ rule: P(x, y) :- A(x, z) ∧ P(z, y).
    ├─ A(n0, n1)
    └─ P(n1, n2)
       ├─ rule: P(x, y) :- A(x, z) ∧ P(z, y).
       ├─ A(n1, n2)
       └─ P(n2, n2)
          └─ exit: P(x, y) :- E(x, y).  with E(n2, n2)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.errors import EvaluationError
from ..datalog.program import RecursionSystem
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Variable
from ..ra.database import Database
from .conjunctive import solve


@dataclass(frozen=True)
class Derivation:
    """One node of a derivation tree."""

    tuple_: tuple
    predicate: str
    rule: Rule
    edb_facts: tuple[tuple[str, tuple], ...]
    premise: "Derivation | None"

    @property
    def depth(self) -> int:
        """Number of recursive rule applications below this node."""
        count = 0
        node = self.premise
        while node is not None:
            count += 1
            node = node.premise
        return count

    def render(self, indent: str = "") -> str:
        """A proof-tree rendering, one fact per line."""
        head = (f"{self.predicate}"
                f"({', '.join(str(v) for v in self.tuple_)})")
        children = [f"rule: {self.rule}"]
        children.extend(
            f"{name}({', '.join(str(v) for v in row)})"
            for name, row in self.edb_facts)
        lines = [f"{indent}{head}"]
        last = len(children) - (0 if self.premise is not None else 1)
        for index, child in enumerate(children):
            connector = "├─" if (index < last) else "└─"
            lines.append(f"{indent}{connector} {child}")
        if self.premise is not None:
            lines.append(f"{indent}└─ premise:")
            lines.append(self.premise.render(indent + "   "))
        return "\n".join(lines)


def _tuple_depths(system: RecursionSystem,
                  database: Database) -> dict[tuple, int]:
    """First-derivation depth of every tuple (semi-naive replay),
    keyed by the tuple's storage-space (encoded) row."""
    encode = database.encode_const
    depths: dict[tuple, int] = {}
    rule = system.recursive
    total: set[tuple] = set()
    for exit_rule in system.exits:
        for binding in solve(database, exit_rule.body):
            row = tuple(
                binding[t] if isinstance(t, Variable) else encode(t.value)
                for t in exit_rule.head.args)
            if row not in depths:
                depths[row] = 0
            total.add(row)
    delta = set(total)
    depth = 0
    body_rest = list(rule.nonrecursive_atoms)
    recursive_vars = rule.recursive_atom.args
    head_args = rule.head.args
    while delta:
        depth += 1
        new: set[tuple] = set()
        for row in delta:
            binding = {term: value
                       for term, value in zip(recursive_vars, row)}
            for solution in solve(database, body_rest, binding):
                derived = tuple(
                    solution[t] if isinstance(t, Variable)
                    else encode(t.value)
                    for t in head_args)
                if derived not in total:
                    new.add(derived)
                    depths.setdefault(derived, depth)
        delta = new - total
        total |= delta
    return depths


def _bind_head(rule: Rule, row: tuple,
               encode) -> dict[Variable, object] | None:
    binding: dict[Variable, object] = {}
    for term, value in zip(rule.head.args, row):
        if isinstance(term, Constant):
            if encode(term.value) != value:
                return None
        elif binding.setdefault(term, value) != value:
            return None
    return binding


def _edb_facts_of(rule: Rule, system_predicate: str, solution: dict,
                  decode) -> tuple[tuple[str, tuple], ...]:
    """The value-space EDB facts a storage-space *solution* used."""
    facts = []
    for body_atom in rule.body:
        if body_atom.predicate == system_predicate:
            continue
        row = tuple(
            decode(solution[t]) if isinstance(t, Variable) else t.value
            for t in body_atom.args)
        facts.append((body_atom.predicate, row))
    return tuple(facts)


def explain_answer(system: RecursionSystem, database: Database,
                   answer: tuple,
                   depths: dict[tuple, int] | None = None
                   ) -> Derivation:
    """The derivation tree of the value-space *answer*
    (EvaluationError if underivable).

    Pass a precomputed *depths* map (from :func:`_tuple_depths` on the
    same database) to explain many answers against one database
    cheaply.
    """
    if depths is None:
        depths = _tuple_depths(system, database)
    # looked up, not interned: a constant the table never saw occurs
    # in no derived tuple
    lookup = database.symbols.lookup
    encoded = tuple(lookup(value) for value in answer)
    if None in encoded or encoded not in depths:
        raise EvaluationError(
            f"{system.predicate}{answer} is not derivable")
    encode = database.encode_const
    decode = database.symbols.decode

    def build(row: tuple) -> Derivation:
        depth = depths[row]
        if depth == 0:
            for exit_rule in system.exits:
                binding = _bind_head(exit_rule, row, encode)
                if binding is None:
                    continue
                solution = next(solve(database, exit_rule.body,
                                      binding), None)
                if solution is not None:
                    merged = {**binding, **solution}
                    return Derivation(
                        tuple_=database.decode_row(row),
                        predicate=system.predicate, rule=exit_rule,
                        edb_facts=_edb_facts_of(
                            exit_rule, system.predicate, merged, decode),
                        premise=None)
            raise EvaluationError(      # pragma: no cover - invariant
                f"no exit derivation found for {row}")
        rule = system.recursive.rule
        binding = _bind_head(rule, row, encode)
        assert binding is not None
        recursive_atom = system.recursive.recursive_atom
        for solution in solve(
                database, list(system.recursive.nonrecursive_atoms),
                binding):
            merged = {**binding, **solution}
            # the recursive subgoal: bound positions from the body
            # solution, None where the variable is unconstrained
            pattern = tuple(
                merged.get(t) if isinstance(t, Variable)
                else encode(t.value)
                for t in recursive_atom.args)
            for sub, sub_depth in depths.items():
                if sub_depth >= depth:
                    continue
                if all(p is None or p == v
                       for p, v in zip(pattern, sub)):
                    return Derivation(
                        tuple_=database.decode_row(row),
                        predicate=system.predicate, rule=rule,
                        edb_facts=_edb_facts_of(
                            rule, system.predicate, merged, decode),
                        premise=build(sub))
        raise EvaluationError(          # pragma: no cover - invariant
            f"no recursive derivation found for {row} at depth {depth}")

    return build(encoded)
