"""Datalog substrate: terms, atoms, rules, programs, parsing, unification.

This package implements the function-free Horn-clause language the
paper analyses, including the linear single-recursion systems
(:class:`RecursionSystem`) that the graph model and the classifier
operate on.
"""

from .atoms import Atom, atom, fact
from .errors import (DatalogSyntaxError, EvaluationError, ReproError,
                     RuleValidationError)
from .program import Program, RecursionSystem
from .pretty import expansion_trace, format_rule, subscript
from .rules import RecursiveRule, Rule, exit_rule, make_rule
from .terms import Constant, Term, Variable, fresh_variables
from .unify import (Substitution, apply_to_atom, apply_to_rule,
                    apply_to_term, compose, match_atom, rename_rule,
                    unify_atoms, unify_terms)
from .parser import parse_atom, parse_program, parse_rule, parse_system

__all__ = [
    "Atom", "Constant", "DatalogSyntaxError", "EvaluationError",
    "Program", "RecursionSystem", "RecursiveRule", "ReproError", "Rule",
    "RuleValidationError", "Substitution", "Term",
    "Variable", "apply_to_atom", "apply_to_rule", "apply_to_term",
    "atom", "compose", "exit_rule", "expansion_trace", "fact",
    "format_rule", "fresh_variables", "make_rule", "match_atom",
    "parse_atom", "parse_program", "parse_rule", "parse_system",
    "rename_rule", "subscript", "unify_atoms", "unify_terms",
]
