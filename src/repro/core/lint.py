"""Rule diagnostics: explain what is wrong (or improvable) and why.

Validation errors tell you a rule is outside the paper's setting;
:func:`lint_text` goes further, reporting *all* problems at once plus
advisory findings: redundant subgoals (CQ minimisation would drop
them), hopeless query forms (class C), available transformations, and
boundedness ("this is pseudo recursion — flatten it").

Diagnostics carry stable codes so tooling can filter them:

=====  ======================================================
code   meaning
=====  ======================================================
E001   no recursive rule found
E002   more than one recursive rule (mutual/multiple recursion)
E003   recursive predicate occurs more than once in a body
E004   constants inside a recursive rule
E005   repeated variable under the recursive predicate
E006   rule is not range restricted
W001   recursive rule without an explicit exit rule
W101   redundant body atoms (minimisation would drop them)
I201   formula is bounded — flatten instead of iterating
I202   formula is transformable — unfolding available
I203   class C/E/F — bindings die for every query form
=====  ======================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.errors import ReproError
from ..datalog.parser import parse_program
from ..datalog.program import RecursionSystem
from ..datalog.terms import Constant
from .advisor import advise
from .classes import Boundedness
from .classifier import classify
from .minimize import minimize_rule


@dataclass(frozen=True)
class Diagnostic:
    """One finding: ``level`` is 'error', 'warning' or 'info'."""

    level: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.level}] {self.message}"


def _structural_errors(program) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    recursive_rules = program.recursive_rules()
    if not recursive_rules:
        out.append(Diagnostic(
            "error", "E001", "no recursive rule found"))
        return out
    if len(recursive_rules) > 1:
        out.append(Diagnostic(
            "error", "E002",
            f"{len(recursive_rules)} recursive rules; the paper's "
            f"setting is single recursion"))
        return out
    rule = recursive_rules[0]
    if not rule.is_linear_recursive():
        out.append(Diagnostic(
            "error", "E003",
            f"the recursive predicate {rule.head.predicate!r} occurs "
            f"more than once in the body (non-linear recursion)"))
    for term in rule.head.args + tuple(
            t for a in rule.body for t in a.args):
        if isinstance(term, Constant):
            out.append(Diagnostic(
                "error", "E004",
                f"constant {term} inside a recursive rule"))
            break
    recursive_atoms = rule.body_atoms_of(rule.head.predicate)
    if rule.head.has_repeated_variables() or (
            recursive_atoms and
            recursive_atoms[0].has_repeated_variables()):
        out.append(Diagnostic(
            "error", "E005",
            "a variable appears more than once under the recursive "
            "predicate"))
    if not rule.is_range_restricted():
        missing = sorted(
            v.name for v in rule.head.variables
            if all(v not in a.variables for a in rule.body))
        out.append(Diagnostic(
            "error", "E006",
            f"not range restricted: head variable(s) "
            f"{', '.join(missing)} never occur in the body"))
    exits = [r for r in program.rules_for(rule.head.predicate)
             if not r.is_recursive()]
    if not exits:
        out.append(Diagnostic(
            "warning", "W001",
            f"recursive predicate {rule.head.predicate!r} has no "
            f"explicit exit rule (the generic exit "
            f"{rule.head.predicate}__exit will be synthesised)"))
    return out


def _advisories(system: RecursionSystem) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    rule = system.recursive.rule
    minimised = minimize_rule(rule)
    if len(minimised.body) < len(rule.body):
        dropped = len(rule.body) - len(minimised.body)
        out.append(Diagnostic(
            "warning", "W101",
            f"{dropped} redundant body atom(s); minimised form: "
            f"{minimised}"))
    classification = classify(system)
    if classification.boundedness is Boundedness.BOUNDED:
        out.append(Diagnostic(
            "info", "I201",
            f"bounded (rank ≤ {classification.rank_bound}): pseudo "
            f"recursion — equivalent to "
            f"{classification.rank_bound + 1} non-recursive rules"))
    elif classification.is_transformable \
            and not classification.is_strongly_stable:
        out.append(Diagnostic(
            "info", "I202",
            f"class {classification.formula_class}: unfolding "
            f"{classification.unfold_times}× yields an equivalent "
            f"stable formula (Theorem 2/4)"))
    elif not classification.is_strongly_stable:
        capabilities = advise(system, classification)
        if all(cap.pushdown == "none" for cap in capabilities):
            out.append(Diagnostic(
                "info", "I203",
                f"class {classification.formula_class}: query "
                f"bindings die for every query form — selections "
                f"cannot be pushed into the recursion"))
    return out


def lint_text(text: str) -> tuple[Diagnostic, ...]:
    """All diagnostics for a program fragment.

    >>> findings = lint_text("P(x, y) :- A(x, z), A(x, w), P(z, y).")
    >>> [d.code for d in findings]
    ['W001', 'W101']
    """
    program = parse_program(text)
    findings = _structural_errors(program)
    if any(d.level == "error" for d in findings):
        return tuple(findings)
    try:
        system = program.system(strict=False)
    except ReproError as error:  # pragma: no cover - guarded above
        return tuple(findings) + (
            Diagnostic("error", "E000", str(error)),)
    findings.extend(_advisories(system))
    return tuple(findings)


def lint_report(text: str) -> str:
    """Human-readable rendering of :func:`lint_text`'s findings."""
    findings = lint_text(text)
    if not findings:
        return "clean: no findings"
    return "\n".join(str(d) for d in findings)
