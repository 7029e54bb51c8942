"""Workloads: the paper's formula catalogue and synthetic EDB generators."""

from .edb import chain_edb, random_edb
from .formulas import (CATALOGUE, EXTRA_CATALOGUE, EXTRAS, PAPER_ORDER,
                       CatalogueEntry, all_systems, extra_systems,
                       paper_systems)
from .generators import (GENERATORS, binary_tree, chain, cycle,
                         database_for, grid, random_digraph, random_tuples,
                         reflexive_exit)

__all__ = [
    "CATALOGUE", "CatalogueEntry", "EXTRA_CATALOGUE", "EXTRAS",
    "GENERATORS", "PAPER_ORDER", "extra_systems",
    "all_systems", "binary_tree", "chain", "chain_edb", "cycle",
    "database_for", "grid", "paper_systems", "random_digraph",
    "random_edb", "random_tuples", "reflexive_exit",
]
