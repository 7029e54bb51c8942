"""Determined variables, adornments, and binding propagation.

The paper (after [Hens 84]) calls a variable *determined* when its
value is given in the query or derivable from a query constant through
selections and joins over non-recursive predicates only: "If x is a
determined variable and L(..x..y..) is a non-recursive predicate, then
y is also a determined variable."  On the I-graph this is a closure
over undirected edges.

An *adornment* records which recursive-predicate argument positions
are bound (the `d`/`v` patterns the paper writes as ``P(d, v, v)``).
Iterating the head→body adornment map produces the eventually-periodic
binding sequence behind the paper's (s12) discussion: the query
``P(d, v, v)`` becomes ``P(d, d, v)`` after one expansion and stays
there — query-dependent stabilisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..datalog.errors import DatalogSyntaxError
from ..datalog.rules import RecursiveRule
from ..datalog.terms import Variable
from ..graphs.igraph import IGraph, build_igraph

#: Bound argument positions of the recursive predicate, 0-based.
Adornment = frozenset[int]


def adornment_from_string(pattern: str) -> Adornment:
    """Parse the paper's ``d``/``v`` notation.

    >>> sorted(adornment_from_string("dvv"))
    [0]
    """
    allowed = set("dvbf")
    if not pattern or set(pattern) - allowed:
        raise DatalogSyntaxError(
            f"adornment must be over 'd'/'v' (or 'b'/'f'): {pattern!r}")
    return frozenset(i for i, ch in enumerate(pattern) if ch in "db")


def adornment_to_string(adornment: Adornment, arity: int) -> str:
    """Render an adornment in ``d``/``v`` notation.

    >>> adornment_to_string(frozenset({0}), 3)
    'dvv'
    """
    return "".join("d" if i in adornment else "v" for i in range(arity))


def all_adornments(arity: int) -> tuple[Adornment, ...]:
    """Every adornment over *arity* positions (2**arity of them)."""
    out = []
    for mask in range(1 << arity):
        out.append(frozenset(i for i in range(arity) if mask >> i & 1))
    return tuple(out)


def determined_closure(graph: IGraph,
                       start: Iterable[Variable]) -> frozenset[Variable]:
    """All variables determined once those in *start* are.

    Closure over the undirected edges of *graph*: selections and joins
    over non-recursive predicates propagate constants along them.
    Directed edges do *not* propagate — they stand for the recursive
    call, whose bindings the next expansion receives.
    """
    determined: set[Variable] = set(start)
    frontier = list(determined)
    while frontier:
        vertex = frontier.pop()
        for edge in graph.undirected_at(vertex):
            other = edge.other(vertex)
            if other not in determined:
                determined.add(other)
                frontier.append(other)
    return frozenset(determined)


def body_adornment(rule: RecursiveRule, adornment: Adornment,
                   graph: IGraph | None = None) -> Adornment:
    """The adornment the recursive body atom receives from the head.

    Head variables at the bound positions seed the determined closure;
    the result is the set of body recursive-atom positions whose
    variable lands in the closure.

    >>> from ..datalog.parser import parse_rule
    >>> rule = RecursiveRule(parse_rule(
    ...     "P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), "
    ...     "P(u, v, w)."), strict=False)
    >>> sorted(body_adornment(rule, frozenset({0})))
    [0, 1]
    """
    if graph is None:
        graph = build_igraph(rule)
    head_vars = rule.head_variables
    seeds = [head_vars[i] for i in adornment]
    closure = determined_closure(graph, seeds)
    body_vars = rule.body_recursive_variables
    return frozenset(i for i, var in enumerate(body_vars)
                     if var in closure)


@dataclass(frozen=True)
class BindingSequence:
    """The eventually periodic adornment sequence of a query form.

    ``states[0]`` is the query adornment; ``states[k]`` the adornment
    of the recursive call after k expansions.  ``prefix_length`` is the
    number of states before the cycle starts and ``period`` the cycle
    length, so ``states`` has ``prefix_length + period`` entries.
    """

    states: tuple[Adornment, ...]
    prefix_length: int
    period: int

    @property
    def steady_states(self) -> tuple[Adornment, ...]:
        """The adornments inside the cycle."""
        return self.states[self.prefix_length:]

    def state_at(self, k: int) -> Adornment:
        """The adornment after k expansions, for any k ≥ 0."""
        if k < len(self.states):
            return self.states[k]
        offset = (k - self.prefix_length) % self.period
        return self.states[self.prefix_length + offset]

    @property
    def stabilises(self) -> bool:
        """True when the sequence reaches a fixed adornment (period 1)."""
        return self.period == 1

    @property
    def persistent_positions(self) -> Adornment:
        """Positions bound in *every* steady state — the selections the
        compiled evaluation can push through all expansions."""
        steady = self.steady_states
        out = set(steady[0])
        for state in steady[1:]:
            out &= state
        return frozenset(out)

    def describe(self, arity: int) -> str:
        """Render as ``dvv → ddv → (ddv)*`` style text."""
        rendered = [adornment_to_string(s, arity) for s in self.states]
        prefix = rendered[:self.prefix_length]
        cycle = rendered[self.prefix_length:]
        parts = prefix + [f"({' → '.join(cycle)})*"]
        return " → ".join(parts)


def binding_sequence(rule: RecursiveRule,
                     adornment: Adornment) -> BindingSequence:
    """Iterate the head→body adornment map until it cycles.

    There are at most 2**arity adornments, so the sequence always
    becomes periodic; the map is deterministic, so the structure is a
    rho: a prefix followed by a cycle.

    >>> from ..datalog.parser import parse_rule
    >>> rule = RecursiveRule(parse_rule(
    ...     "P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), "
    ...     "P(u, v, w)."), strict=False)
    >>> binding_sequence(rule, frozenset({0})).describe(3)
    'dvv → (ddv)*'
    """
    graph = build_igraph(rule)
    states: list[Adornment] = [adornment]
    seen: dict[Adornment, int] = {adornment: 0}
    while True:
        nxt = body_adornment(rule, states[-1], graph)
        if nxt in seen:
            start = seen[nxt]
            return BindingSequence(states=tuple(states),
                                   prefix_length=start,
                                   period=len(states) - start)
        seen[nxt] = len(states)
        states.append(nxt)
