"""An independent reference evaluator for differential testing.

The engines share the join kernel and the conjunctive solver, so a
bug there could hide in engine-agreement tests.  This oracle takes a
*completely different* route: ground instantiation.  Every rule is
instantiated with every combination of active-domain constants (no
unification, no indexes, no join ordering), and the ground program is
iterated to its fixpoint.  Exponentially slower — and that's the
point: it shares no code path with the engines beyond the AST.
"""

from __future__ import annotations

from itertools import product

from repro.datalog.program import RecursionSystem
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
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
    domain = tuple(sorted(database.active_domain(), key=repr))
    if not domain:
        domain = ("_",)

    facts: dict[str, frozenset[tuple]] = {
        name: frozenset(database.rows(name))
        for name in database.relation_names}
    target = system.predicate

    grounded: list[tuple] = []
    for rule in (system.recursive.rule, *system.exits):
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
