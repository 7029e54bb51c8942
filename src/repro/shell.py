"""An interactive deductive-database shell.

``python -m repro shell`` drops into a small REPL over a
:class:`~repro.session.DeductiveDatabase`:

* ``P(x, y) :- A(x, z), P(z, y).`` — add a rule;
* ``A(a, b).``                     — add a fact;
* ``?- P(a, Y).``                  — run a query;
* dot-commands: ``.help``, ``.rules``, ``.facts``, ``.classify P``,
  ``.explain P(a, Y)``, ``.prove P(a, Y)``, ``.advise P``,
  ``.load file``, ``.save dir``, ``.quit``.

The shell is line-oriented and side-effect free until a statement
parses, so typos never corrupt the session.
"""

from __future__ import annotations

import sys
from typing import Callable, TextIO

from .core.advisor import capability_table
from .core.report import text_table
from .datalog.errors import ReproError
from .datalog.parser import parse_program
from .engine.query import Query
from .engine.stats import EvaluationStats
from .ra.io import save_database
from .session import DeductiveDatabase

PROMPT = "repro> "
BANNER = ("repro shell — rules end with '.', queries start with '?-', "
          "'.help' lists commands")


class Shell:
    """The REPL state machine (I/O injected for testability)."""

    def __init__(self, stdin: TextIO | None = None,
                 stdout: TextIO | None = None) -> None:
        self._in = stdin or sys.stdin
        self._out = stdout or sys.stdout
        self._session = DeductiveDatabase()
        self._commands: dict[str, Callable[[str], None]] = {
            "help": self._cmd_help,
            "rules": self._cmd_rules,
            "facts": self._cmd_facts,
            "classify": self._cmd_classify,
            "explain": self._cmd_explain,
            "prove": self._cmd_prove,
            "advise": self._cmd_advise,
            "load": self._cmd_load,
            "save": self._cmd_save,
        }

    # -- plumbing -----------------------------------------------------

    def _print(self, text: str = "") -> None:
        print(text, file=self._out)

    def run(self) -> int:
        """Read-eval-print until EOF or ``.quit``; returns exit code."""
        self._print(BANNER)
        while True:
            self._out.write(PROMPT)
            self._out.flush()
            line = self._in.readline()
            if not line:
                self._print()
                return 0
            if not self.handle(line.strip()):
                return 0

    def handle(self, line: str) -> bool:
        """Process one input line; False means quit."""
        if not line or line.startswith(("%", "#")):
            return True
        if line in (".quit", ".exit", ".q"):
            return False
        try:
            if line.startswith("."):
                name, _, argument = line[1:].partition(" ")
                command = self._commands.get(name)
                if command is None:
                    self._print(f"unknown command .{name} "
                                f"(try .help)")
                else:
                    command(argument.strip())
            elif line.startswith("?-"):
                self._query(line)
            else:
                self._statement(line)
        except ReproError as error:
            self._print(f"error: {error}")
        except OSError as error:
            self._print(f"error: {error}")
        return True

    # -- statements ------------------------------------------------------

    def _statement(self, line: str) -> None:
        if not line.endswith("."):
            line += "."
        program = parse_program(line)
        for rule in program.rules:
            self._session.add_rule(rule)
            self._print(f"ok: rule {rule}")
        for fact in program.facts:
            self._session.add_fact(
                fact.predicate,
                *(t.value for t in fact.constants))
            self._print(f"ok: fact {fact}")

    def _query(self, line: str) -> None:
        program = parse_program(line if line.endswith(".")
                                else line + ".")
        for goal in program.queries:
            query = Query.from_atom(goal)
            stats = EvaluationStats()
            answers = self._session.query(query, stats=stats)
            for row in answers.sorted_rows():
                values = ", ".join(str(v) for v in row)
                self._print(f"{query.predicate}({values})")
            self._print(f"-- {len(answers)} answers "
                        f"({stats.probes} probes)")

    # -- dot commands ------------------------------------------------------

    def _cmd_help(self, _: str) -> None:
        self._print(
            "statements:  P(x, y) :- A(x, z), P(z, y).   add a rule\n"
            "             A(a, b).                        add a fact\n"
            "             ?- P(a, Y).                     query\n"
            "commands:    .rules .facts .classify P "
            ".explain P(a, Y)\n"
            "             .prove P(a, Y) .advise P .load FILE "
            ".save DIR .quit")

    def _cmd_rules(self, _: str) -> None:
        rules = self._session.program.rules
        if not rules:
            self._print("(no rules)")
        for rule in rules:
            self._print(str(rule))

    def _cmd_facts(self, _: str) -> None:
        db = self._session._edb
        rows = [[name, db.count(name)] for name in db.relation_names]
        if not rows:
            self._print("(no facts)")
        else:
            self._print(text_table(["relation", "facts"], rows))

    def _cmd_classify(self, argument: str) -> None:
        if not argument:
            self._print("usage: .classify <predicate>")
            return
        result = self._session.classification(argument)
        self._print(result.describe())
        row = result.summary_row()
        self._print(f"stable={row['stable']} "
                    f"transformable={row['transformable']} "
                    f"bounded={row['bounded']}")

    def _cmd_explain(self, argument: str) -> None:
        if not argument:
            self._print("usage: .explain P(a, Y)")
            return
        self._print(self._session.explain(argument))

    def _cmd_prove(self, argument: str) -> None:
        if not argument:
            self._print("usage: .prove P(a, Y)")
            return
        derivations = self._session.prove(argument, limit=1)
        if not derivations:
            self._print("no matching answers")
            return
        self._print(derivations[0].render())

    def _cmd_advise(self, argument: str) -> None:
        if not argument:
            self._print("usage: .advise <predicate>")
            return
        system = self._session.system_for(argument)
        if system is None:
            self._print(f"{argument} is not recursive")
            return
        self._print(capability_table(system))

    def _cmd_load(self, argument: str) -> None:
        with open(argument, encoding="utf-8") as handle:
            text = handle.read()
        self._session.load(text)
        program = parse_program(text)
        self._print(f"loaded {len(program.rules)} rules, "
                    f"{len(program.facts)} facts")
        for goal in program.queries:
            self._query(f"?- {goal}.")

    def _cmd_save(self, argument: str) -> None:
        save_database(self._session.materialise(), argument)
        self._print(f"saved materialised database to {argument}/")


def run_shell() -> int:
    """Entry point used by the CLI."""
    return Shell().run()
