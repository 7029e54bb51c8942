"""Programs and the paper's single-linear-recursion systems.

A :class:`Program` is a bag of rules plus ground facts.  The paper's
setting (section 2) is one recursive rule with one or more exit rules;
:class:`RecursionSystem` packages exactly that and implements the
*expansion* (unfolding) operation used to build resolution graphs and
the stable-transformation of Theorem 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .atoms import Atom
from .errors import DatalogSyntaxError, RuleValidationError
from .rules import RecursiveRule, Rule
from .unify import apply_to_rule, rename_apart, unify_atoms


@dataclass(frozen=True)
class Program:
    """A set of rules and ground facts.

    Facts are ground atoms; rules are Horn clauses.  The class offers
    the bookkeeping queries (IDB/EDB split, recursive-rule discovery)
    that the front end and the engines share.
    """

    rules: tuple[Rule, ...] = ()
    facts: tuple[Atom, ...] = ()
    #: goal atoms from ``?-`` statements (variables mark free slots)
    queries: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        for ground_fact in self.facts:
            if not ground_fact.is_ground:
                raise RuleValidationError(
                    f"facts must be ground atoms: {ground_fact}")

    @property
    def idb_predicates(self) -> frozenset[str]:
        """Predicates defined by at least one rule head."""
        return frozenset(r.head.predicate for r in self.rules)

    @property
    def edb_predicates(self) -> frozenset[str]:
        """Predicates that occur only in rule bodies or facts."""
        used: set[str] = {f.predicate for f in self.facts}
        for rule in self.rules:
            used.update(a.predicate for a in rule.body)
        return frozenset(used - self.idb_predicates)

    def rules_for(self, predicate: str) -> tuple[Rule, ...]:
        """All rules whose head predicate is *predicate*."""
        return tuple(r for r in self.rules if r.head.predicate == predicate)

    def recursive_rules(self) -> tuple[Rule, ...]:
        """All rules whose head predicate recurs in their body."""
        return tuple(r for r in self.rules if r.is_recursive())

    def system(self, strict: bool = True) -> "RecursionSystem":
        """The program's one linear recursive rule with its exit rules:
        every other rule for the same predicate.  When there is none,
        the generic exit ``P__exit`` is synthesised; with no recursive
        rule, or more than one, :class:`DatalogSyntaxError`."""
        recursive = self.recursive_rules()
        if len(recursive) != 1:
            raise DatalogSyntaxError(
                f"expected exactly one recursive rule, found "
                f"{len(recursive)}")
        rule = RecursiveRule(recursive[0], strict=strict)
        return RecursionSystem(rule, tuple(
            r for r in self.rules_for(rule.predicate)
            if not r.is_recursive()))

    def with_facts(self, facts: Iterable[Atom]) -> "Program":
        """A copy of the program with *facts* appended."""
        return Program(self.rules, self.facts + tuple(facts),
                       self.queries)

    def dependency_graph(self) -> dict[str, frozenset[str]]:
        """IDB predicate → the IDB predicates its rules depend on."""
        idb = self.idb_predicates
        out: dict[str, set[str]] = {p: set() for p in idb}
        for rule in self.rules:
            for body_atom in rule.body:
                if body_atom.predicate in idb:
                    out[rule.head.predicate].add(body_atom.predicate)
        return {p: frozenset(deps) for p, deps in out.items()}

    def evaluation_order(self) -> tuple[str, ...]:
        """A bottom-up order of the IDB predicates.

        Self-recursion is fine (it stays within one stratum); *mutual*
        recursion across distinct predicates is outside the paper's
        single-recursion setting and is rejected.
        """
        graph = {p: deps - {p} for p, deps in
                 self.dependency_graph().items()}
        order: list[str] = []
        ready = sorted(p for p, deps in graph.items() if not deps)
        pending = {p: set(deps) for p, deps in graph.items() if deps}
        while ready:
            predicate = ready.pop(0)
            order.append(predicate)
            released = []
            for other, deps in pending.items():
                deps.discard(predicate)
                if not deps:
                    released.append(other)
            for other in sorted(released):
                del pending[other]
                ready.append(other)
        if pending:
            cycle = ", ".join(sorted(pending))
            raise RuleValidationError(
                f"mutually recursive predicates are not supported "
                f"(the paper assumes single recursion): {cycle}")
        return tuple(order)

    def __str__(self) -> str:
        lines = [str(r) for r in self.rules]
        lines += [f"{f}." for f in self.facts]
        return "\n".join(lines)


class RecursionSystem:
    """One linear recursive rule together with its exit rules.

    This is the unit of analysis of the whole paper: the I-graph, the
    classification, the stability transformation and the compiled
    formulas are all derived from a ``RecursionSystem``.

    Parameters
    ----------
    recursive:
        The (validated) recursive rule.
    exits:
        One or more non-recursive rules for the same predicate.  When
        omitted, the generic exit ``P(x̄) :- P__exit(x̄)`` is synthesised
        — the paper likewise writes a generic exit expression ``E`` and
        "does not bother to write the exit rule in the examples".
    """

    #: suffix used for synthesised generic exit predicates
    EXIT_SUFFIX = "__exit"

    def __init__(self, recursive: RecursiveRule | Rule,
                 exits: Sequence[Rule] = ()) -> None:
        if isinstance(recursive, Rule):
            recursive = RecursiveRule(recursive)
        self._recursive = recursive
        if not exits:
            exits = (self._generic_exit(),)
        self._exits = tuple(exits)
        self._validate_exits()

    def _generic_exit(self) -> Rule:
        head = self._recursive.head
        return Rule(head, (Atom(self.predicate + self.EXIT_SUFFIX,
                                head.args),))

    def _validate_exits(self) -> None:
        for rule in self._exits:
            if rule.head.predicate != self.predicate:
                raise RuleValidationError(
                    f"exit rule head must be {self.predicate!r}: {rule}")
            if rule.head.arity != self._recursive.dimension:
                raise RuleValidationError(
                    f"exit rule arity mismatch "
                    f"({rule.head.arity} != {self._recursive.dimension}): "
                    f"{rule}")
            if rule.is_recursive():
                raise RuleValidationError(
                    f"exit rules must be non-recursive: {rule}")
            if not rule.is_range_restricted():
                raise RuleValidationError(
                    f"exit rule is not range restricted: {rule}")

    # -- accessors ---------------------------------------------------

    @property
    def recursive(self) -> RecursiveRule:
        """The recursive rule."""
        return self._recursive

    @property
    def exits(self) -> tuple[Rule, ...]:
        """The exit rules (at least one)."""
        return self._exits

    @property
    def predicate(self) -> str:
        """The recursive predicate symbol."""
        return self._recursive.predicate

    @property
    def dimension(self) -> int:
        """Arity of the recursive predicate (the paper's D)."""
        return self._recursive.dimension

    @property
    def exit_predicates(self) -> frozenset[str]:
        """EDB predicates used by the exit rules."""
        preds: set[str] = set()
        for rule in self._exits:
            preds.update(a.predicate for a in rule.body)
        return frozenset(preds)

    @property
    def edb_predicates(self) -> frozenset[str]:
        """All EDB predicates used anywhere in the system."""
        preds = set(self.exit_predicates)
        preds.update(a.predicate
                     for a in self._recursive.nonrecursive_atoms)
        return frozenset(preds)

    def program(self) -> Program:
        """The system as a plain :class:`Program` (for the engines)."""
        return Program((self._recursive.rule,) + self._exits)

    # -- expansion (unfolding) ----------------------------------------

    def expansion(self, k: int) -> Rule:
        """The k-th expansion of the recursive rule (k ≥ 1).

        The 1st expansion is the rule itself.  The k-th expansion is
        obtained from the (k-1)-st by renaming the rule's variables with
        subscript ``k-1``, unifying the renamed head with the recursive
        body atom, and splicing in the renamed body — exactly the
        construction of the paper's Example 2.

        >>> from .parser import parse_rule
        >>> system = RecursionSystem(RecursiveRule(parse_rule(
        ...     "P(x, y) :- A(x, z), P(z, u), B(u, y).")))
        >>> print(system.expansion(2))
        P(x, y) :- A(x, z) ∧ A(z, z_1) ∧ P(z_1, u_1) ∧ B(u_1, u) ∧ B(u, y).
        """
        if k < 1:
            raise ValueError(f"expansion level must be >= 1, got {k}")
        expanded = self._recursive.rule
        for level in range(1, k):
            expanded = self._resolve_once(expanded, level)
        return expanded

    def _resolve_once(self, expanded: Rule, level: int) -> Rule:
        """Resolve *expanded*'s recursive atom with a renamed rule copy."""
        renamed = rename_apart(self._recursive.rule, expanded.variables,
                               level)
        recursive_atom = next(
            a for a in expanded.body if a.predicate == self.predicate)
        mgu = unify_atoms(renamed.head, recursive_atom)
        assert mgu is not None, "renamed head must unify with the call"
        new_body: list[Atom] = []
        for body_atom in expanded.body:
            if body_atom is recursive_atom:
                new_body.extend(
                    apply_to_rule(mgu, renamed).body)
            else:
                new_body.append(body_atom)
        return apply_to_rule(mgu, Rule(expanded.head, tuple(new_body)))

    def exit_expansion(self, k: int, exit_index: int = 0) -> Rule:
        """The k-th expansion with the recursive atom replaced by an exit.

        ``exit_expansion(1)`` is the exit rule itself (zero applications
        of the recursive rule); ``exit_expansion(k)`` for k ≥ 2 applies
        the recursive rule ``k-1`` times and closes with the chosen exit
        — the non-recursive formulas the paper writes as (s8a'), (s8b').
        """
        if k < 1:
            raise ValueError(f"exit expansion level must be >= 1, got {k}")
        exit_clause = self._exits[exit_index]
        if k == 1:
            return exit_clause
        expanded = self.expansion(k - 1)
        renamed_exit = rename_apart(exit_clause, expanded.variables, k - 1)
        recursive_atom = next(
            a for a in expanded.body if a.predicate == self.predicate)
        mgu = unify_atoms(renamed_exit.head, recursive_atom)
        assert mgu is not None
        new_body: list[Atom] = []
        for body_atom in expanded.body:
            if body_atom is recursive_atom:
                new_body.extend(apply_to_rule(mgu, renamed_exit).body)
            else:
                new_body.append(body_atom)
        return apply_to_rule(mgu, Rule(expanded.head, tuple(new_body)))

    def unfolded(self, times: int) -> "RecursionSystem":
        """The system unfolded *times* times (Theorem 2's transformation).

        Following the paper's statement for a cycle of weight n
        ("unfolding exactly n times"): the new recursive rule is the
        n-th expansion and the exit set contains, for every original
        exit, the exit expansions of depths ``1 .. n`` — the original
        exit plus the first ``n-1`` expansions with the recursive atom
        replaced by that exit.  The result is logically equivalent to
        the original system: the new rule advances the recursion in
        strides of n while the n exits cover the depth residues
        ``0 .. n-1``.

        ``unfolded(1)`` is the system itself (stride 1, original exit).
        """
        if times < 1:
            raise ValueError(f"unfold count must be >= 1, got {times}")
        if times == 1:
            return self
        new_recursive = RecursiveRule(self.expansion(times))
        new_exits: list[Rule] = []
        for exit_index in range(len(self._exits)):
            for depth in range(1, times + 1):
                new_exits.append(self.exit_expansion(depth, exit_index))
        return RecursionSystem(new_recursive, tuple(new_exits))

    def __str__(self) -> str:
        lines = [str(self._recursive.rule)]
        lines += [str(r) for r in self._exits]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"RecursionSystem({self._recursive.rule!s})"
