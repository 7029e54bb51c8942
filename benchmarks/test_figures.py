"""FIG1–FIG6: regenerate every figure of the paper.

The paper's figures are I-graphs and resolution graphs; each bench
rebuilds the graph, renders it, asserts the structural facts the
figure illustrates, and saves the text rendering.
"""

from repro.core.bindings import binding_sequence
from repro.core.compile import compile_query
from repro.datalog import Variable
from repro.graphs import (ascii_figure, ascii_resolution, build_igraph,
                          directed_path_weight, resolution_graph)
from repro.workloads import CATALOGUE

V = Variable


def test_figure1_igraphs_of_example1(benchmark, save_artifact):
    """Figure 1: the I-graphs of (s1a) and (s1b)."""
    s1a = CATALOGUE["s1a"].system()
    s1b = CATALOGUE["s1b"].system()

    def build():
        return (build_igraph(s1a.recursive), build_igraph(s1b.recursive))

    graph_a, graph_b = benchmark(build)
    assert len(graph_a.directed) == 2
    assert any(e.is_self_loop for e in graph_a.directed)
    assert len(graph_b.directed) == 3
    assert {e.label for e in graph_b.undirected} == {"A", "B"}
    text = "\n\n".join([ascii_figure(graph_a, "Figure 1(a): s1a"),
                        ascii_figure(graph_b, "Figure 1(b): s1b")])
    save_artifact("figure1", text)


def test_figure2_resolution_graphs_of_s2a(benchmark, save_artifact):
    """Figure 2: I-graph, 2nd I-graph, 2nd resolution graph, collapsed
    view of (s2a); the weight from x to z₁ is two."""
    system = CATALOGUE["s2a"].system()

    def build():
        return (resolution_graph(system, 1), resolution_graph(system, 2))

    first, second = benchmark(build)
    assert directed_path_weight(second.graph, V("x"), V("z_1")) == 2
    assert directed_path_weight(second.graph, V("y"), V("u_1")) == 2
    collapsed = second.collapsed_igraph()
    tails = {(e.tail.name, e.head.name) for e in collapsed.directed}
    assert tails == {("x", "z_1"), ("y", "u_1")}
    text = "\n\n".join([
        ascii_resolution(first, "Figure 2(a): first resolution graph"),
        ascii_resolution(second, "Figure 2(c): second resolution graph"),
        ascii_figure(collapsed, "Figure 2(d): 2nd expansion as formula"),
        "paper claim: weight(x → z₁) = 2  ✓ measured 2",
    ])
    save_artifact("figure2", text)


def test_figure3_igraph_of_s8_with_bound(benchmark, save_artifact):
    """Figure 3: the I-graph of (s8); upper bound 2."""
    from repro.core import classify
    system = CATALOGUE["s8"].system()
    classification = benchmark(classify, system)
    assert str(classification.formula_class) == "B"
    assert classification.rank_bound == 2
    text = "\n".join([
        ascii_figure(classification.graph, "Figure 3: I-graph of (s8)"),
        "",
        f"paper claim: bounded with upper bound 2  ✓ computed "
        f"{classification.rank_bound}",
    ])
    save_artifact("figure3", text)


def test_figure4_s9_resolution_graphs_and_plans(benchmark, save_artifact):
    """Figure 4: 1st/2nd resolution graphs of (s9) and the two
    evaluation plans of Example 9."""
    system = CATALOGUE["s9"].system()

    def build():
        return (resolution_graph(system, 1), resolution_graph(system, 2),
                compile_query(system, "dvv"), compile_query(system, "vvd"))

    first, second, plan_dvv, plan_vvd = benchmark(build)
    assert len(second.graph.directed) == 6
    # P(d,v,v): paper plan σE, (σA) X (∪k [(E⋈B)(BA)^k])
    assert "(σA) X" in plan_dvv.plan_text
    assert "^k" in plan_dvv.plan_text
    # P(v,v,d): paper plan σE, (∃ ∪k [(AB)^k (E⋈B)]) A
    assert "∃(" in plan_vvd.plan_text
    assert plan_vvd.plan_text.endswith("-A]")
    # what the engine runs for either form: the auxiliary recursion
    assert plan_dvv.auxiliary.describe() == plan_vvd.auxiliary.describe()
    text = "\n\n".join([
        ascii_resolution(first, "Figure 4(a): first resolution graph"),
        ascii_resolution(second, "Figure 4(b): second resolution graph"),
        "paper plan P(d,v,v): σE, (σA) X (∪k [(E⋈B)(BA)^k])",
        f"ours:                {plan_dvv.plan_text}",
        "paper plan P(v,v,d): σE, (∃ ∪k [(AB)^k (E⋈B)]) A",
        f"ours:                {plan_vvd.plan_text}",
        f"engine runs:         {plan_dvv.auxiliary.describe()}",
    ])
    save_artifact("figure4", text)


def test_figure5_s11_resolution_graphs_and_plan(benchmark, save_artifact):
    """Figure 5: resolution graphs of (s11); P(d,v) plan with {A,B}
    branches."""
    system = CATALOGUE["s11"].system()

    def build():
        return (resolution_graph(system, 1), resolution_graph(system, 2),
                compile_query(system, "dv"))

    first, second, compiled = benchmark(build)
    # paper: σE, σA-C-B-E, ∪k σA-C-B-[{A,B}-C]^k-E
    assert compiled.plan_text == \
        "σE,  σA-C-B-E,  ∪k≥1 [σA-C-B-[{A, B}-C]^k-E]"
    text = "\n\n".join([
        ascii_resolution(first, "Figure 5(a): first resolution graph"),
        ascii_resolution(second, "Figure 5(b): second resolution graph"),
        "paper plan P(d,v): σE, σA-C-B-E, ∪k=1 σA-C-B-[{A,B}-C]^k-E",
        f"ours:              {compiled.plan_text}",
    ])
    save_artifact("figure5", text)


def test_figure6_s12_adornments_and_plan(benchmark, save_artifact):
    """Figure 6 / Example 14: the P(d,v,v) adornment sequence
    dvv → ddv → ddv and the evaluation plan with D^{k+1}."""
    system = CATALOGUE["s12"].system()

    def build():
        return (resolution_graph(system, 2),
                binding_sequence(system.recursive, frozenset({0})),
                compile_query(system, "dvv"))

    second, sequence, compiled = benchmark(build)
    assert sequence.describe(3) == "dvv → (ddv)*"
    assert sequence.state_at(1) == {0, 1}
    assert sequence.state_at(2) == {0, 1}
    assert "[{A, B}-C]^k" in compiled.plan_text
    assert compiled.plan_text.endswith("E-D^k-D]")
    text = "\n\n".join([
        ascii_resolution(second, "Figure 6: second resolution graph"),
        "paper: incoming P(d,v,v); 1st expansion P(d,d,v); "
        "2nd expansion P(d,d,v)",
        f"ours: binding sequence {sequence.describe(3)}",
        "paper plan: σE, ∪k σA-C-B-[{A,B}-C]^k-E-D^{k+1}",
        f"ours:       {compiled.plan_text}",
    ])
    save_artifact("figure6", text)
