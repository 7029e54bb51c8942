"""Synthetic EDB generators for tests and benchmarks.

All generators are deterministic given a seed and produce plain
``list[tuple]`` rows, ready for :meth:`Database.from_dict`.  The shapes
are the classic deductive-database workloads: chains (worst-case depth
for transitive closure), complete binary trees (ancestor queries),
random digraphs (dense joins), grids, and cycles (fixpoint
termination on cyclic data).
"""

from __future__ import annotations

import random
from typing import Callable

from ..ra.database import Database


def chain(length: int, prefix: str = "n") -> list[tuple]:
    """A path ``n0 → n1 → … → n<length>`` (length edges).

    >>> chain(2)
    [('n0', 'n1'), ('n1', 'n2')]
    """
    return [(f"{prefix}{i}", f"{prefix}{i + 1}") for i in range(length)]


def cycle(length: int, prefix: str = "n") -> list[tuple]:
    """A directed cycle of *length* nodes."""
    return [(f"{prefix}{i}", f"{prefix}{(i + 1) % length}")
            for i in range(length)]


def binary_tree(depth: int, prefix: str = "t") -> list[tuple]:
    """Parent→child edges of a complete binary tree of *depth* levels.

    Node ``t1`` is the root; node ``tK`` has children ``t2K`` and
    ``t2K+1`` (heap numbering).
    """
    edges = []
    total = 2 ** (depth + 1)  # nodes are 1 .. total-1
    for node in range(1, 2 ** depth):
        left, right = 2 * node, 2 * node + 1
        if left < total:
            edges.append((f"{prefix}{node}", f"{prefix}{left}"))
        if right < total:
            edges.append((f"{prefix}{node}", f"{prefix}{right}"))
    return edges


def random_digraph(nodes: int, edges: int, seed: int = 0,
                   prefix: str = "v") -> list[tuple]:
    """*edges* uniform random edges over *nodes* labelled vertices."""
    rng = random.Random(seed)
    names = [f"{prefix}{i}" for i in range(nodes)]
    out = set()
    while len(out) < min(edges, nodes * nodes):
        out.add((rng.choice(names), rng.choice(names)))
    return sorted(out)


def grid(width: int, height: int, prefix: str = "g") -> list[tuple]:
    """Right/down edges of a width×height grid."""
    edges = []
    for row in range(height):
        for col in range(width):
            here = f"{prefix}{row}_{col}"
            if col + 1 < width:
                edges.append((here, f"{prefix}{row}_{col + 1}"))
            if row + 1 < height:
                edges.append((here, f"{prefix}{row + 1}_{col}"))
    return edges


def random_tuples(nodes: int, count: int, arity: int, seed: int = 0,
                  prefix: str = "v") -> list[tuple]:
    """*count* random *arity*-tuples over the vertex names."""
    rng = random.Random(seed)
    names = [f"{prefix}{i}" for i in range(nodes)]
    out = set()
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        out.add(tuple(rng.choice(names) for _ in range(arity)))
        attempts += 1
    return sorted(out)


def database_for(system_edb: dict[str, list[tuple]]) -> Database:
    """Wrap generator output in a :class:`Database`."""
    return Database.from_dict(system_edb)


def reflexive_exit(nodes: int, arity: int = 2, prefix: str = "n"
                   ) -> list[tuple]:
    """The identity exit relation ``E = {(n, …, n)}`` over the nodes —
    the conventional exit for transitive-closure-style recursions."""
    return [((f"{prefix}{i}",) * arity) for i in range(nodes + 1)]


#: Named generators for parameterised benches.
GENERATORS: dict[str, Callable[..., list[tuple]]] = {
    "chain": chain,
    "cycle": cycle,
    "tree": binary_tree,
    "random": random_digraph,
    "grid": grid,
}
