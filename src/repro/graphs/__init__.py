"""The paper's graph model: I-graphs, resolution graphs, cycles.

This package implements section 2 of the paper (the labelled, weighted,
hybrid graph associated with a linear recursive rule and its k-th
resolution graphs) plus the structural analyses the classification in
sections 3–10 is built on: connected components, compression of
undirected clusters, cycle extraction, and the potential/level argument
behind Ioannidis's boundedness theorem.
"""

from .compress import (CompressedEdge, Decoration, HyperCluster,
                       ReducedGraph, reduce_graph)
from .components import (component_subgraph, components,
                         nontrivial_components, trivial_components)
from .cycles import (Cycle, fundamental_cycles,
                     independent_cycle_of_component, permutational_cycles,
                     self_loop_cycle)
from .edges import (DirectedEdge, Edge, TraversedEdge, UndirectedEdge,
                    path_weight)
from .igraph import IGraph, build_igraph
from .potential import (PotentialResult, assign_potentials,
                        directed_path_weight, has_nonzero_weight_cycle,
                        max_path_weight)
from .render import (ascii_figure, ascii_reduced, ascii_resolution,
                     to_dot)
from .resolution import (ResolutionGraph, resolution_graph,
                         resolution_trace)

__all__ = [
    "CompressedEdge", "Cycle", "Decoration", "DirectedEdge", "Edge",
    "HyperCluster", "IGraph", "PotentialResult", "ReducedGraph",
    "ResolutionGraph", "TraversedEdge", "UndirectedEdge", "ascii_figure",
    "ascii_reduced",
    "ascii_resolution", "assign_potentials", "build_igraph",
    "component_subgraph", "components", "directed_path_weight",
    "fundamental_cycles", "has_nonzero_weight_cycle",
    "independent_cycle_of_component",
    "max_path_weight", "nontrivial_components", "path_weight",
    "permutational_cycles", "reduce_graph", "resolution_graph",
    "resolution_trace", "self_loop_cycle", "to_dot",
    "trivial_components",
]
