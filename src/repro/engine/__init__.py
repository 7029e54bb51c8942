"""Evaluation engines: naive, semi-naive, compiled and top-down, plus
incremental maintenance.

All of them agree on answers (property-tested); they differ in work
done, which is exactly the paper's point: the compiled engine pushes
query selections through the recursion wherever the classification
proves they persist.  They share one evaluation frame: each opens its
stats with :func:`~repro.engine.stats.open_stats`, closes every round
through :meth:`EvaluationStats.close_round`, and the four ``evaluate``
engines hand their fixpoint to
:func:`~repro.engine.vector.answer_boundary`.
"""

from .compiled import CompiledEngine
from .deadline import Deadline, QueryCancelled, QueryTimeout
from .naive import NaiveEngine
from .incremental import MaterializedRecursion
from .plan import JoinPlan, JoinStep, compile_plan
from .provenance import Derivation, explain_answer
from .query import Query
from .seminaive import SemiNaiveEngine
from .setjoin import apply_rule, execute_plan
from .topdown import TopDownEngine
from .stats import EvaluationStats
from .trace import (TRACE_SCHEMA_VERSION, RoundSpan, RuleSpan, Trace,
                    Tracer, validate_trace_dict)

#: Each evaluation engine's ``name`` mapped to its class.
ENGINES = {engine.name: engine for engine in (
    NaiveEngine, SemiNaiveEngine, CompiledEngine, TopDownEngine)}

__all__ = [
    "CompiledEngine", "Deadline", "ENGINES",
    "EvaluationStats", "QueryCancelled", "QueryTimeout",
    "JoinPlan", "JoinStep", "NaiveEngine", "Query", "SemiNaiveEngine",
    "TRACE_SCHEMA_VERSION", "RoundSpan", "RuleSpan", "Trace", "Tracer",
    "validate_trace_dict",
    "TopDownEngine", "Derivation", "MaterializedRecursion",
    "apply_rule", "compile_plan", "execute_plan", "explain_answer",
]
