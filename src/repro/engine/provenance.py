"""Why-provenance: derivation trees for answers.

A deductive database should be able to say *why* a tuple is an answer.
For linear single recursion the derivation of ``P(t̄)`` is a chain:
an exit rule application at the bottom and one recursive rule
application per level above it.  :func:`explain_answer` reconstructs
that chain:

1. run semi-naive evaluation once, recording the *depth* at which each
   tuple is first derived (depth 0 = exit round);
2. walk downward from the requested tuple: at depth d > 0 find the
   least body binding of the recursive rule whose recursive call was
   derived at a smaller depth; at depth 0 find the first exit rule
   that produced it, with its least body binding.  Each level's
   bindings come from one rule application on the join kernel, with
   the head bound to the tuple.

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
from typing import Iterator

from ..datalog.errors import EvaluationError
from ..datalog.program import RecursionSystem
from ..datalog.rules import Rule
from ..datalog.terms import Variable
from ..ra.database import Database
from .setjoin import apply_rule


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
    depths: dict[tuple, int] = {}
    delta: set[tuple] = set()
    for exit_rule in system.exits:
        delta |= apply_rule(database, exit_rule.body, (),
                            exit_rule.head.args, [()])
    rule = system.recursive
    depth = 0
    while delta:
        depths.update(dict.fromkeys(delta, depth))
        depth += 1
        delta = {row for row in apply_rule(
            database, rule.nonrecursive_atoms, rule.recursive_atom.args,
            rule.head.args, delta) if row not in depths}
    return depths


def _variables(*atoms) -> tuple[Variable, ...]:
    """The variables of *atoms*, by name: a witness row's columns."""
    return tuple(sorted({variable for body_atom in atoms
                         for variable in body_atom.variable_set()},
                        key=lambda variable: variable.name))


def _witnesses(database: Database, atoms, head, variables, row: tuple
               ) -> Iterator[dict[Variable, object]]:
    """The bindings of *variables* that satisfy *atoms* with the *head*
    terms bound to the storage-space *row*, least row first: one
    :func:`~repro.engine.setjoin.apply_rule`, so the witness a
    derivation shows is deterministic."""
    for values in sorted(apply_rule(database, atoms, head, variables,
                                    [row])):
        yield dict(zip(variables, values))


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
    cheaply.  Each level's premise is the recursive call's tuple read
    off the witness and looked up in *depths*; only a call variable
    that no body atom binds (s10's ``x1``) makes the level scan
    *depths* for a sub-tuple derived earlier.
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
    decode = database.symbols.decode
    rule = system.recursive.rule
    call = system.recursive.recursive_atom
    atoms = system.recursive.nonrecursive_atoms
    variables = _variables(rule.head, *atoms)
    scans = not call.variable_set() <= set(variables)

    def premise(pattern: tuple, depth: int) -> tuple | None:
        """The call's tuple derived before *depth*, None if none is."""
        if not scans:
            return pattern if depths.get(pattern, depth) < depth else None
        return next((sub for sub, sub_depth in depths.items()
                     if sub_depth < depth and all(
                         p is None or p == v
                         for p, v in zip(pattern, sub))), None)

    def build(row: tuple) -> Derivation:
        depth = depths[row]
        if depth == 0:
            for exit_rule in system.exits:
                solution = next(_witnesses(
                    database, exit_rule.body, exit_rule.head.args,
                    _variables(*exit_rule.body), row), None)
                if solution is not None:
                    return Derivation(
                        tuple_=database.decode_row(row),
                        predicate=system.predicate, rule=exit_rule,
                        edb_facts=_edb_facts_of(
                            exit_rule, system.predicate, solution,
                            decode),
                        premise=None)
            raise EvaluationError(      # pragma: no cover - invariant
                f"no exit derivation found for {row}")
        for solution in _witnesses(database, atoms, rule.head.args,
                                   variables, row):
            sub = premise(tuple(solution.get(t) for t in call.args),
                          depth)
            if sub is not None:
                return Derivation(
                    tuple_=database.decode_row(row),
                    predicate=system.predicate, rule=rule,
                    edb_facts=_edb_facts_of(
                        rule, system.predicate, solution, decode),
                    premise=build(sub))
        raise EvaluationError(          # pragma: no cover - invariant
            f"no recursive derivation found for {row} at depth {depth}")

    return build(encoded)
