"""Inputs of the end-to-end benchmark: datasets, rule text, op streams.

Everything the benchmark feeds the program is generated here, from the
benchmark's own code, so a change to ``repro.workloads`` cannot change
what is measured.  Dataset shapes and their data seeds are fixed
constants (recorded in ``baseline.json``); the run's ``--seed`` only
drives the bound keys, the op order and the writer's chain names.
"""

from __future__ import annotations

import random
import re

#: the paper's (s1a), class A5: transitive closure
TC_RULE = "P(x, y) :- A(x, z), P(z, y)."
#: the catalogue's ``compressed_chain`` shape: a three-step plan the
#: vector kernel does not certify, so it runs the python delta loop
HOP_RULE = "P(x, y) :- A(x, m), B(m, n), C(n, z), P(z, y)."
#: the paper's bounded-query examples s8-s12, one per class B-F
PAPER_RULES = {
    "s8": "P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), "
          "P(z, y1, z1, u1).",
    "s9": "P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).",
    "s10": "P(x, y) :- B(y), C(x, y1), P(x1, y1).",
    "s11": "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).",
    "s12": "P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), "
           "P(u, v, w).",
}

#: chains x edges per chain of the served TC datasets
TC20K = (2500, 8)
TC5K = (625, 8)
GRID = (30, 30)
#: nodes, edges, data seed
RANDOM_DIGRAPH = (1000, 2000, 3)
#: width, edge levels, branching
HOP3 = (555, 12, 3)
#: nodes, tuples per relation, data seed — sized so each compiled op
#: stays well under a second
RANDOM_EDB = {"s8": (20, 40, 5), "s9": (100, 300, 5), "s10": (20, 40, 5),
              "s11": (3000, 12000, 5), "s12": (3000, 12000, 5)}

#: lib-engines op kinds: four full fixpoints, five bound queries
FULL_KINDS = ("tc20k", "grid", "random", "hop3")
BOUND_KINDS = tuple(PAPER_RULES)
LIB_KINDS = FULL_KINDS + BOUND_KINDS
#: constants each bound kind binds, drawn once from its EDB's domain.
#: Per-constant costs differ up to a hundredfold (s10: 0.2-53 ms), so
#: every seed binds the same ones, each once per turn
LIB_CONSTANTS = 4

#: served-enum's one query: the full enumeration of P (112,500 rows)
ENUM_QUERY = "P(X, Y)"

#: served-rw writer: batches per second, and how many batches a chain
#: lives before the writer removes it again (constant database size)
WRITE_RATE = 4.0
WRITE_LIFETIME = 8


# -- transitive closure over disjoint chains ------------------------------

def node(chain: int, position: int) -> str:
    return f"c{chain}_n{position}"


def tc_relations(chains: int, length: int) -> tuple[list, list]:
    """Chain edges ``A`` and the reflexive exits ``E`` over every node."""
    edges = [(node(c, i), node(c, i + 1))
             for c in range(chains) for i in range(length)]
    exits = [(node(c, i), node(c, i))
             for c in range(chains) for i in range(length + 1)]
    return edges, exits


def tc_program(chains: int, length: int) -> str:
    """The served program: TC rules with a named exit, plus facts."""
    edges, exits = tc_relations(chains, length)
    lines = [TC_RULE, "P(x, y) :- E(x, y)."]
    lines += [f"A({a}, {b})." for a, b in edges]
    lines += [f"E({a}, {b})." for a, b in exits]
    return "\n".join(lines) + "\n"


def tc_answers(chains: int, length: int) -> set[tuple]:
    """Every answer of ``P(X, Y)``: each node reaches itself and every
    later node of its chain."""
    return {(node(c, j), node(c, k)) for c in range(chains)
            for j in range(length + 1) for k in range(j, length + 1)}


def bound_answers(key: str, length: int = 8) -> set[tuple]:
    """Answers of ``P(<key>, Y)`` for a chain node *key*."""
    chain, position = key[1:].split("_n")
    return {(key, node(int(chain), k))
            for k in range(int(position), length + 1)}


# -- lib-engines datasets ---------------------------------------------------

def grid_edges(width: int, height: int) -> list[tuple]:
    edges = []
    for row in range(height):
        for col in range(width):
            here = f"g{row}_{col}"
            if col + 1 < width:
                edges.append((here, f"g{row}_{col + 1}"))
            if row + 1 < height:
                edges.append((here, f"g{row + 1}_{col}"))
    return edges


def random_digraph(nodes: int, edges: int, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(nodes)]
    out: set[tuple] = set()
    while len(out) < edges:
        out.add((rng.choice(names), rng.choice(names)))
    return sorted(out)


def reflexive(edges: list[tuple]) -> list[tuple]:
    return [(n, n) for n in sorted({n for edge in edges for n in edge})]


def hop3_relations(width: int, levels: int, branching: int) -> dict:
    """A layered DAG: level ``l``'s edges live in A/B/C by ``l % 3``,
    exits only on the A-aligned levels."""
    relations: dict[str, list] = {"A": [], "B": [], "C": []}
    for level in range(levels):
        rows = relations["ABC"[level % 3]]
        for col in range(width):
            rows.extend((f"l{level}_c{col}",
                         f"l{level + 1}_c{(col + b) % width}")
                        for b in range(branching))
    relations["P__exit"] = [(f"l{level}_c{col}",) * 2
                            for level in range(0, levels + 1, 3)
                            for col in range(width)]
    return relations


def hop3_answers(width: int, levels: int, branching: int) -> set[tuple]:
    """Every answer of the 3-hop rule on :func:`hop3_relations`, by
    walking the A∘B∘C step relation from each A-aligned node."""
    relations = hop3_relations(width, levels, branching)
    step: dict[str, set] = {}
    successors: dict[str, dict] = {name: {} for name in "ABC"}
    for name in "ABC":
        for src, dst in relations[name]:
            successors[name].setdefault(src, set()).add(dst)
    for src in successors["A"]:
        frontier = {src}
        for name in "ABC":
            frontier = {dst for here in frontier
                        for dst in successors[name].get(here, ())}
        step[src] = frontier
    exits = {x for x, _ in relations["P__exit"]}
    answers = set()
    for src in exits:
        reached, frontier = {src}, {src}
        while frontier:
            frontier = {dst for here in frontier
                        for dst in step.get(here, ())} - reached
            reached |= frontier
        answers.update((src, y) for y in reached if y in exits)
    return answers


_ATOM = re.compile(r"(\w+)\(([^)]*)\)")


def rule_arities(rule: str) -> dict[str, int]:
    """EDB predicate arities of a recursive rule over ``P``, with the
    generic exit ``P__exit`` at the head's arity."""
    arities = {}
    for name, args in _ATOM.findall(rule):
        arity = len(args.split(","))
        arities["P__exit" if name == "P" else name] = arity
    return arities


def random_edb(rule: str, nodes: int, tuples: int, seed: int) -> dict:
    rng = random.Random(seed)
    names = [f"c{i}" for i in range(nodes)]
    return {name: sorted({tuple(rng.choice(names) for _ in range(arity))
                          for _ in range(tuples)})
            for name, arity in sorted(rule_arities(rule).items())}


def lib_datasets() -> dict[str, tuple[str, dict]]:
    """Rule text and relations of every lib-engines op kind."""
    edges, exits = tc_relations(*TC20K)
    grid = grid_edges(*GRID)
    digraph = random_digraph(*RANDOM_DIGRAPH)
    data = {
        "tc20k": (TC_RULE, {"A": edges, "P__exit": exits}),
        "grid": (TC_RULE, {"A": grid, "P__exit": reflexive(grid)}),
        "random": (TC_RULE, {"A": digraph,
                             "P__exit": reflexive(digraph)}),
        "hop3": (HOP_RULE, hop3_relations(*HOP3)),
    }
    for kind, (nodes, tuples, seed) in RANDOM_EDB.items():
        data[kind] = (PAPER_RULES[kind],
                      random_edb(PAPER_RULES[kind], nodes, tuples, seed))
    return data


# -- op streams ---------------------------------------------------------------
#
# Each stream is a sequence of turns: the smallest run of ops that holds
# the stream's whole mix.  Windows end on a turn boundary, so every seed
# measures the same mix and the seed changes only the order.

def bound_turns(seed: int, chains: int = TC5K[0]):
    """Every node of tc-5k once as a bound-query key: ``chains`` turns
    of nine keys, one per chain position, in seeded order.

    A key at chain position j has 9 - j answers and costs the stable
    strategy 10 - j depths; no key repeats, so every request misses the
    answer cache.  The stream is finite (5,625 keys)."""
    rng = random.Random(f"keys-{seed}")
    positions = range(TC5K[1] + 1)
    chain_orders = [rng.sample(range(chains), chains) for _ in positions]
    for turn in range(chains):
        keys = [node(chain_orders[p][turn], p) for p in positions]
        rng.shuffle(keys)
        yield keys


def bound_query(key: str) -> str:
    return f"P({key}, Y)"


def lib_query(kind: str, constant: str | None) -> str:
    """Query text of one lib-engines op: the bound kinds bind the first
    argument, the full kinds enumerate."""
    if kind in FULL_KINDS:
        return "P(X, Y)"
    arity = rule_arities(PAPER_RULES[kind])["P__exit"]
    free = ", ".join(f"V{i}" for i in range(1, arity))
    return f"P({constant}, {free})"


def lib_constants(kind: str) -> list[str]:
    """The constants a bound kind's queries bind: a fixed sample of its
    EDB's domain, the same for every seed."""
    rng = random.Random(f"constants-{kind}")
    return [f"c{i}" for i in rng.sample(range(RANDOM_EDB[kind][0]),
                                        LIB_CONSTANTS)]


def lib_turns(seed: int):
    """Endless turns of ``(kind, query)`` ops.  A turn is LIB_CONSTANTS
    rounds of every kind once, in seeded order; each bound kind binds
    every one of its constants once per turn, in seeded order."""
    rng = random.Random(f"ops-{seed}")
    while True:
        orders = {kind: rng.sample(lib_constants(kind), LIB_CONSTANTS)
                  for kind in BOUND_KINDS}
        turn = []
        for round_ in range(LIB_CONSTANTS):
            for kind in rng.sample(LIB_KINDS, len(LIB_KINDS)):
                constant = (orders[kind][round_] if kind in BOUND_KINDS
                            else None)
                turn.append((kind, lib_query(kind, constant)))
        yield turn


def write_batches(seed: int):
    """The served-rw writer's batches: each adds one fresh 8-edge chain
    with its exits and removes the chain added WRITE_LIFETIME batches
    earlier, so the database size stays constant."""
    def chain(k: int) -> tuple[list, list]:
        names = [f"w{seed}x{k}_n{i}" for i in range(9)]
        return ([list(pair) for pair in zip(names, names[1:])],
                [[n, n] for n in names])

    k = 0
    while True:
        edges, exits = chain(k)
        batch = {"add": {"A": edges, "E": exits}}
        if k >= WRITE_LIFETIME:
            old_edges, old_exits = chain(k - WRITE_LIFETIME)
            batch["remove"] = {"A": old_edges, "E": old_exits}
        yield batch
        k += 1
