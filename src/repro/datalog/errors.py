"""Exception hierarchy for the Datalog substrate.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
applications can catch one base class.  The sub-classes distinguish the
three failure families a deductive-database front end actually has:
malformed syntax, semantically invalid rules (violations of the paper's
restrictions on linear recursive formulas), and evaluation-time problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class DatalogSyntaxError(ReproError):
    """A textual program could not be parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token, when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class RuleValidationError(ReproError):
    """A rule violates the paper's restrictions on recursive formulas.

    The paper (section 2) considers function-free Horn clauses with

    * exactly one occurrence of the recursive predicate in the body
      (linear recursion),
    * no constants and no equality in the recursive rule,
    * no repeated variables under the recursive predicate,
    * range restriction (every head variable appears in the body).

    Violations of any of these raise this error with a message naming
    the restriction.
    """


class EvaluationError(ReproError):
    """Raised when a query cannot be evaluated against an EDB."""
