"""The paper's contribution: classification, stability, transformation,
boundedness, and query compilation for linear recursive formulas.
"""

from .advisor import QueryCapability, advise, capability_table
from .bindings import (Adornment, BindingSequence, adornment_from_string,
                       adornment_to_string, all_adornments, binding_sequence,
                       body_adornment, determined_closure)
from .classes import (Boundedness, ComponentClass, FormulaClass,
                      combine_component_classes)
from .classifier import Classification, ComponentAnalysis, classify
from .compile import (CompiledFormula, CycleSpec, StableCompilation,
                      Strategy, compile_query, compile_stable)
from .lint import Diagnostic, lint_report, lint_text
from .minimize import find_homomorphism, minimize_rule, minimize_system
from .plans import (Branches, Exists, JoinChain, PlanNode, Power, Product,
                    Rel, Select, Steps, UnionOverK, relation_names, render)
from .report import classification_table, formula_dossier, text_table
from .stability import (StabilityReport, is_semantically_stable,
                        is_syntactically_stable, stability_report)
from .transform import StableTransformation, to_nonrecursive, to_stable
from .witness import freeze_body, witness_database, witness_rank

__all__ = [
    "Adornment", "BindingSequence", "Boundedness", "Branches",
    "Classification", "CompiledFormula", "ComponentAnalysis",
    "ComponentClass", "CycleSpec", "Exists", "FormulaClass", "JoinChain",
    "PlanNode", "Power", "Product", "Rel", "Select", "StabilityReport",
    "StableCompilation", "StableTransformation", "Steps", "Strategy",
    "UnionOverK", "adornment_from_string", "adornment_to_string",
    "all_adornments", "binding_sequence", "body_adornment",
    "classification_table", "classify", "combine_component_classes",
    "compile_query", "compile_stable", "determined_closure",
    "formula_dossier", "is_semantically_stable",
    "is_syntactically_stable", "relation_names", "render",
    "stability_report", "text_table", "to_nonrecursive", "to_stable",
    "freeze_body", "witness_database", "witness_rank",
    "QueryCapability", "advise", "capability_table",
    "find_homomorphism", "minimize_rule", "minimize_system",
    "Diagnostic", "lint_report", "lint_text",
]
