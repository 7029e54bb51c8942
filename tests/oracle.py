"""Independent reference evaluators for differential testing.

The engines share the join kernel, so a bug there could hide in
engine-agreement tests.  This oracle takes a *completely different*
route: ground instantiation.  Every rule is instantiated with every
combination of the constants of the active domain and of the rules
themselves (no unification, no indexes, no join ordering), and the
ground program is iterated to its fixpoint.  Exponentially slower —
and that's the point: it shares no code path with the engines beyond
the AST.

The kernel itself, one rule application at a time, is checked against
:func:`nested_loop_join`: value-space rows, one atom after the other
in body order, no plans, indexes or ranking.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from repro.datalog.program import RecursionSystem
from repro.datalog.rules import Rule
from repro.datalog.terms import Term, Variable
from repro.ra.database import Database


def _ground_rule(rule: Rule, domain: tuple) -> list[tuple]:
    """All ground instantiations: (head_row, [(pred, row), ...])."""
    variables = sorted(rule.variables, key=lambda v: v.name)
    instantiations = []
    for values in product(domain, repeat=len(variables)):
        binding = dict(zip(variables, values))

        def ground(atom):
            return tuple(
                binding[t] if isinstance(t, Variable) else t.value
                for t in atom.args)

        head_row = ground(rule.head)
        body = [(a.predicate, ground(a)) for a in rule.body]
        instantiations.append((head_row, body))
    return instantiations


def oracle_rounds(system: RecursionSystem, database: Database
                  ) -> tuple[frozenset[tuple], list[frozenset[tuple]]]:
    """The full fixpoint of the recursion and its new tuples per round.

    Round-synchronous ground iteration: round r fires every ground rule
    instance against the tuples derived in rounds before r, so round 0
    yields the exit tuples and round r the depth-r tuples.  The rounds
    follow :attr:`EvaluationStats.delta_sizes`: they end with the first
    round that adds nothing, and that empty round is included.

    Only usable for tiny domains (|domain|^|vars| instantiations per
    rule) — which is exactly what property tests use.
    """
    rules = (system.recursive.rule, *system.exits)
    # the Herbrand universe: a constant in an exit head
    # (``P(x, 'k', x) :- F(x).``) reaches the recursive rule's
    # variables too
    domain = tuple(sorted(
        set(database.active_domain()).union(*(
            (term.value for term in body_atom.constants)
            for rule in rules for body_atom in (rule.head, *rule.body))),
        key=repr))
    if not domain:
        domain = ("_",)

    facts: dict[str, frozenset[tuple]] = {
        name: frozenset(database.rows(name))
        for name in database.relation_names}
    target = system.predicate

    grounded: list[tuple] = []
    for rule in rules:
        grounded.extend(_ground_rule(rule, domain))

    total: frozenset[tuple] = frozenset()
    rounds: list[frozenset[tuple]] = []
    while not rounds or rounds[-1]:
        facts[target] = total
        new = frozenset(
            head_row for head_row, body in grounded
            if head_row not in total
            and all(row in facts.get(pred, ()) for pred, row in body))
        rounds.append(new)
        total |= new
    return total, rounds


def oracle_evaluate(system: RecursionSystem,
                    database: Database) -> frozenset[tuple]:
    """The full fixpoint of the recursion, by ground instantiation."""
    return oracle_rounds(system, database)[0]


def _unify(terms: Sequence[Term], row: tuple,
           binding: dict) -> dict | None:
    """*binding* extended so that *terms* read *row*, None on a clash."""
    binding = dict(binding)
    for term, value in zip(terms, row):
        if isinstance(term, Variable):
            if binding.setdefault(term, value) != value:
                return None
        elif term.value != value:
            return None
    return binding


def _solutions(database: Database, atoms: Sequence,
               binding: dict) -> Iterator[dict]:
    if not atoms:
        yield binding
        return
    for row in database.rows(atoms[0].predicate):
        extended = _unify(atoms[0].args, row, binding)
        if extended is not None:
            yield from _solutions(database, atoms[1:], extended)


def nested_loop_join(database: Database, atoms: Sequence,
                     entry_terms: Sequence[Term],
                     out_terms: Sequence[Term],
                     rows: Iterable[tuple]) -> set[tuple]:
    """What :func:`~repro.engine.setjoin.apply_rule` computes, in value
    space: bind *entry_terms* to each of *rows*, satisfy *atoms* one
    after the other by scanning each relation's decoded rows, and
    project every solution onto *out_terms*."""
    out: set[tuple] = set()
    for row in rows:
        binding = _unify(entry_terms, row, {})
        if binding is None:
            continue
        for solution in _solutions(database, tuple(atoms), binding):
            out.add(tuple(solution[term] if isinstance(term, Variable)
                          else term.value for term in out_terms))
    return out
