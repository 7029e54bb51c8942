"""Construction of the I-graph of a linear recursive rule.

The I-graph (named for Ioannidis, who introduced the construction the
paper builds on) is the labelled, weighted, hybrid graph
``G = (V, E_u, E_d, W, L)`` of section 2:

* one vertex per variable of the rule;
* a directed edge of weight +1 from each consequent variable to the
  antecedent variable in the same recursive-predicate position;
* undirected edges of weight 0 between the variables of each
  non-recursive body atom, labelled with the predicate.

Because the paper forbids a variable from occurring twice under the
recursive predicate, every vertex is the tail of at most one directed
edge and the head of at most one — the directed sub-graph is a disjoint
union of simple paths and simple cycles, a fact the classifier exploits
throughout.

For non-binary EDB atoms the variables are pairwise connected (a
clique); for the paper's examples, which are all unary or binary, this
coincides with the paper's single-edge picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..datalog.atoms import Atom
from ..datalog.errors import RuleValidationError
from ..datalog.rules import RecursiveRule, Rule
from ..datalog.terms import Variable
from .edges import DirectedEdge, Edge, UndirectedEdge


@dataclass(frozen=True)
class IGraph:
    """The I-graph of a linear recursive rule.

    Instances are immutable; adjacency maps are computed on demand and
    cached by :func:`build_igraph`-produced helper methods.
    """

    vertices: frozenset[Variable]
    directed: tuple[DirectedEdge, ...]
    undirected: tuple[UndirectedEdge, ...]
    predicate: str

    # -- adjacency ----------------------------------------------------

    def out_edge(self, vertex: Variable) -> DirectedEdge | None:
        """The unique directed edge leaving *vertex*, if any."""
        for edge in self.directed:
            if edge.tail == vertex:
                return edge
        return None

    def in_edge(self, vertex: Variable) -> DirectedEdge | None:
        """The unique directed edge entering *vertex*, if any."""
        for edge in self.directed:
            if edge.head == vertex:
                return edge
        return None

    def undirected_at(self, vertex: Variable) -> tuple[UndirectedEdge, ...]:
        """All undirected edges incident to *vertex*."""
        return tuple(e for e in self.undirected
                     if vertex in (e.left, e.right))

    def edges_at(self, vertex: Variable) -> tuple[Edge, ...]:
        """All edges (directed in either role, undirected) at *vertex*."""
        out: list[Edge] = [e for e in self.directed
                           if vertex in (e.tail, e.head)]
        out.extend(self.undirected_at(vertex))
        return tuple(out)

    def degree(self, vertex: Variable) -> int:
        """Total incidence count (self-loops count twice)."""
        count = 0
        for edge in self.directed:
            if edge.is_self_loop and edge.tail == vertex:
                count += 2
            else:
                count += int(vertex in (edge.tail, edge.head))
        for edge in self.undirected:
            count += int(vertex in (edge.left, edge.right))
        return count

    # -- anchors and decorations ---------------------------------------

    @property
    def anchors(self) -> frozenset[Variable]:
        """Vertices incident to at least one directed edge.

        These are the variables that participate in the recursion; the
        paper's cycle analysis happens between them, with undirected
        connectivity compressed (see :mod:`repro.graphs.compress`).
        """
        out: set[Variable] = set()
        for edge in self.directed:
            out.add(edge.tail)
            out.add(edge.head)
        return frozenset(out)

    @property
    def is_nontrivial(self) -> bool:
        """True iff the graph has at least one directed edge."""
        return bool(self.directed)

    # -- misc -----------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Number of recursive argument positions (directed edges)."""
        return len(self.directed)

    def edge_summary(self) -> str:
        """A deterministic one-line-per-edge listing (used by figures)."""
        lines = [f"directed:   {e}" for e in sorted(
            self.directed, key=lambda e: e.position)]
        lines += [f"undirected: {e}" for e in sorted(
            self.undirected, key=lambda e: (e.atom_index, e.label))]
        return "\n".join(lines)

    def __str__(self) -> str:
        vertex_names = ", ".join(sorted(v.name for v in self.vertices))
        return (f"IGraph({self.predicate}; vertices: {vertex_names}; "
                f"{len(self.directed)} directed, "
                f"{len(self.undirected)} undirected)")


def undirected_edges_of_atom(body_atom: Atom,
                             atom_index: int) -> list[UndirectedEdge]:
    """The undirected clique contributed by one non-recursive atom."""
    distinct: list[Variable] = []
    for variable in body_atom.variables:
        if variable not in distinct:
            distinct.append(variable)
    return [UndirectedEdge(left, right, body_atom.predicate, atom_index)
            for left, right in combinations(distinct, 2)]


def build_igraph(rule: RecursiveRule | Rule,
                 strict: bool = False) -> IGraph:
    """Build the I-graph of a linear recursive rule.

    Accepts either a validated :class:`RecursiveRule` or a plain
    :class:`Rule` (validated on the fly with ``strict=False`` so that
    expansions — whose fresh variables are always distinct — and the
    paper's deliberately non-range-restricted illustrations can still
    be drawn).

    >>> from ..datalog.parser import parse_rule
    >>> graph = build_igraph(parse_rule("P(x, y) :- A(x, z), P(z, y)."))
    >>> sorted(str(e) for e in graph.directed)
    ['x →(1) z', 'y →(2) y']
    >>> [str(e) for e in graph.undirected]
    ['x —[A]— z']
    """
    if isinstance(rule, Rule):
        rule = RecursiveRule(rule, strict=strict)
    head_args = rule.head.args
    body_args = rule.recursive_atom.args
    directed: list[DirectedEdge] = []
    for position, (head_term, body_term) in enumerate(
            zip(head_args, body_args)):
        if not isinstance(head_term, Variable) or not isinstance(
                body_term, Variable):
            raise RuleValidationError(
                "recursive-predicate arguments must be variables "
                f"(position {position + 1})")
        directed.append(DirectedEdge(head_term, body_term, position))

    undirected: list[UndirectedEdge] = []
    for atom_index, body_atom in enumerate(rule.nonrecursive_atoms):
        undirected.extend(undirected_edges_of_atom(body_atom, atom_index))

    return IGraph(vertices=rule.rule.variables,
                  directed=tuple(directed),
                  undirected=tuple(undirected),
                  predicate=rule.predicate)
