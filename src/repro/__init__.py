"""repro — Classification of Recursive Formulas in Deductive Databases.

A complete reproduction of Youn, Henschen & Han (SIGMOD 1988): the
I-graph model for linear recursive Datalog rules, the classification
of recursive formulas (one-directional / bounded / unbounded cycles,
acyclic, dependent, mixed), the stability and boundedness theorems,
and compiled query-evaluation plans — together with the substrates a
deductive database needs to run them: a Datalog front end, a
dictionary-encoded fact store with a set-at-a-time join kernel, and
four evaluation engines (naive, semi-naive, top-down, compiled).

Quickstart
----------
>>> from repro import parse_system, classify, compile_query
>>> system = parse_system("P(x, y) :- A(x, z), P(z, y).")
>>> classification = classify(system)
>>> classification.is_strongly_stable
True
>>> compile_query(system, "dv").plan_text
'σE,  ∪k≥0 [σA^k-E]'

>>> from repro import Database, Query, CompiledEngine
>>> db = Database.from_dict({"A": [("a", "b"), ("b", "c")],
...                          "P__exit": [("c", "c")]})
>>> sorted(CompiledEngine().evaluate(system, db, Query.parse("P(a, Y)")))
[('a', 'c')]
"""

from .core import (Boundedness, Classification, CompiledFormula,
                   ComponentClass, FormulaClass, StabilityReport, Strategy,
                   adornment_from_string, adornment_to_string,
                   binding_sequence, classification_table, classify,
                   compile_query, formula_dossier, is_semantically_stable,
                   is_syntactically_stable, stability_report,
                   to_nonrecursive, to_stable)
from .datalog import (Atom, Constant, DatalogSyntaxError, Program,
                      RecursionSystem, RecursiveRule, ReproError, Rule,
                      RuleValidationError, Variable, atom, fact,
                      parse_program, parse_rule, parse_system)
from .engine import (CompiledEngine, EvaluationStats, NaiveEngine, Query,
                     SemiNaiveEngine, TopDownEngine)
from .graphs import (IGraph, ReducedGraph, ResolutionGraph, ascii_figure,
                     build_igraph, reduce_graph, resolution_graph)
from .logutil import QueryLogger
from .metrics import MetricsRegistry
from .ra import AnswerSet, Database
from .session import DeductiveDatabase

__version__ = "1.0.0"

__all__ = [
    "AnswerSet",
    "Atom", "Boundedness", "Classification", "CompiledEngine",
    "CompiledFormula", "ComponentClass", "Constant", "Database", "DeductiveDatabase",
    "DatalogSyntaxError", "EvaluationStats", "FormulaClass", "IGraph",
    "MetricsRegistry", "NaiveEngine", "Program", "Query",
    "QueryLogger", "RecursionSystem",
    "RecursiveRule", "ReducedGraph", "ReproError",
    "ResolutionGraph", "Rule", "RuleValidationError",
    "SemiNaiveEngine", "StabilityReport", "Strategy", "TopDownEngine",
    "Variable",
    "adornment_from_string", "adornment_to_string", "ascii_figure",
    "atom", "binding_sequence", "build_igraph", "classification_table",
    "classify", "compile_query", "fact", "formula_dossier",
    "is_semantically_stable", "is_syntactically_stable", "parse_program",
    "parse_rule", "parse_system", "reduce_graph", "resolution_graph",
    "stability_report", "to_nonrecursive", "to_stable",
]
