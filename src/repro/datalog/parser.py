"""A small textual front end for the paper's rule language.

Grammar (comments start with ``%`` or ``#`` and run to end of line)::

    program   := statement*
    statement := rule | fact
    rule      := atom ":-" atom (("," | "∧" | "&") atom)* "."
    fact      := atom "."            -- must be ground
    atom      := IDENT "(" term ("," term)* ")" | IDENT
    term      := IDENT | NUMBER | STRING

Following the paper (which forbids constants inside recursive rules and
writes variables in lower case), bare identifiers inside a *rule* are
variables, while bare identifiers inside a *fact* are constants.
Numbers and single-quoted strings are always constants.

>>> rule = parse_rule("P(x, y) :- A(x, z), P(z, y).")
>>> str(rule)
'P(x, y) :- A(x, z) ∧ P(z, y).'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .atoms import Atom
from .errors import DatalogSyntaxError
from .program import Program, RecursionSystem
from .rules import RecursiveRule, Rule
from .terms import Constant, Term, Variable

_PUNCT = {":-": "IMPLIES", "?-": "QUERY", ",": "COMMA",
          "(": "LPAREN", ")": "RPAREN", ".": "DOT", "∧": "COMMA",
          "&": "COMMA"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[_Token]:
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch in "%#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if text.startswith(":-", i):
            yield _Token("IMPLIES", ":-", line, column)
            i += 2
            column += 2
            continue
        if text.startswith("?-", i):
            yield _Token("QUERY", "?-", line, column)
            i += 2
            column += 2
            continue
        if ch in _PUNCT:
            yield _Token(_PUNCT[ch], ch, line, column)
            i += 1
            column += 1
            continue
        if ch == "'":
            end = text.find("'", i + 1)
            if end < 0:
                raise DatalogSyntaxError("unterminated string", line, column)
            yield _Token("STRING", text[i + 1:end], line, column)
            column += end - i + 1
            i = end + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < len(text)
                            and text[i + 1].isdigit()):
            start = i
            i += 1
            while i < len(text) and (text[i].isdigit() or text[i] == "."):
                i += 1
            word = text[start:i]
            kind = "NUMBER"
            yield _Token(kind, word, line, column)
            column += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum()
                                     or text[i] in "_'"):
                i += 1
            yield _Token("IDENT", text[start:i], line, column)
            column += i - start
            continue
        raise DatalogSyntaxError(f"unexpected character {ch!r}", line, column)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self._tokens = list(_tokenize(text))
        self._pos = 0

    # -- token plumbing ----------------------------------------------

    def _peek(self) -> _Token | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self, kind: str | None = None) -> _Token:
        token = self._peek()
        if token is None:
            raise DatalogSyntaxError("unexpected end of input")
        if kind is not None and token.kind != kind:
            raise DatalogSyntaxError(
                f"expected {kind}, found {token.text!r}",
                token.line, token.column)
        self._pos += 1
        return token

    @property
    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    # -- grammar -----------------------------------------------------

    def term(self, mode: str) -> Term:
        """One term; *mode* decides how bare identifiers read.

        ``rule``: identifiers are variables (the paper forbids
        constants in rules); ``fact``: identifiers are constants;
        ``query``: capitalised identifiers and ``_`` are variables
        (free slots), everything else a constant.
        """
        token = self._next()
        if token.kind == "IDENT":
            if mode == "rule" or (mode == "query" and (
                    token.text[0].isupper() or token.text.startswith("_"))):
                try:
                    return Variable(token.text)
                except ValueError as error:
                    # the lexer takes any letter, a variable name
                    # only ASCII ones
                    raise DatalogSyntaxError(
                        str(error), token.line, token.column) from None
            return Constant(token.text)
        if token.kind == "NUMBER":
            try:
                value = (float(token.text) if "." in token.text
                         else int(token.text))
            except ValueError:
                # ``1.2.3``, or a digit ``int`` rejects (``¹``)
                raise DatalogSyntaxError(
                    f"malformed number {token.text!r}",
                    token.line, token.column) from None
            return Constant(value)
        if token.kind == "STRING":
            return Constant(token.text)
        raise DatalogSyntaxError(
            f"expected a term, found {token.text!r}",
            token.line, token.column)

    def atom(self, mode: str) -> Atom:
        name = self._next("IDENT")
        token = self._peek()
        if token is None or token.kind != "LPAREN":
            return Atom(name.text, ())
        self._next("LPAREN")
        args = [self.term(mode)]
        while self._peek() is not None and self._peek().kind == "COMMA":
            self._next("COMMA")
            args.append(self.term(mode))
        self._next("RPAREN")
        return Atom(name.text, tuple(args))

    def statement(self) -> "Rule | Atom | tuple[str, Atom]":
        token = self._peek()
        if token is not None and token.kind == "QUERY":
            # ?- P(a, Y).  — capitalised names are free slots
            self._next("QUERY")
            goal = self.atom(mode="query")
            self._next("DOT")
            return ("query", goal)
        start = self._pos
        head = self.atom(mode="rule")
        token = self._peek()
        if token is not None and token.kind == "IMPLIES":
            self._next("IMPLIES")
            body = [self.atom(mode="rule")]
            while self._peek() is not None and self._peek().kind == "COMMA":
                self._next("COMMA")
                body.append(self.atom(mode="rule"))
            self._next("DOT")
            return Rule(head, tuple(body))
        # A bare atom is a fact: re-parse its terms as constants.
        self._pos = start
        ground = self.atom(mode="fact")
        self._next("DOT")
        return ground

    def program(self) -> Program:
        rules: list[Rule] = []
        facts: list[Atom] = []
        queries: list[Atom] = []
        while not self.at_end:
            parsed = self.statement()
            if isinstance(parsed, Rule):
                rules.append(parsed)
            elif isinstance(parsed, tuple):
                queries.append(parsed[1])
            else:
                facts.append(parsed)
        return Program(tuple(rules), tuple(facts), tuple(queries))


def parse_atom(text: str, in_rule: bool = True) -> Atom:
    """Parse a single atom; *in_rule* selects variable vs constant idents."""
    parser = _Parser(text)
    parsed = parser.atom("rule" if in_rule else "fact")
    if not parser.at_end:
        raise DatalogSyntaxError(f"trailing input after atom: {text!r}")
    return parsed


def parse_rule(text: str) -> Rule:
    """Parse a single rule (with terminating dot optional).

    >>> str(parse_rule("P(x, y) :- A(x, z), P(z, y)"))
    'P(x, y) :- A(x, z) ∧ P(z, y).'
    """
    if not text.rstrip().endswith("."):
        text = text.rstrip() + "."
    parser = _Parser(text)
    parsed = parser.statement()
    if not parser.at_end:
        raise DatalogSyntaxError(f"trailing input after rule: {text!r}")
    if not isinstance(parsed, Rule):
        raise DatalogSyntaxError(f"expected a rule, found a fact: {text!r}")
    return parsed


def parse_program(text: str) -> Program:
    """Parse a full program of rules and ground facts."""
    return _Parser(text).program()


def parse_system(text: str, strict: bool = True) -> RecursionSystem:
    """Parse a program and package it as a :class:`RecursionSystem`.

    The program must contain exactly one linear recursive rule; every
    other rule for the same predicate becomes an exit rule.  When no
    exit rule is given, the generic exit ``P__exit`` is synthesised.

    >>> system = parse_system("P(x, y) :- A(x, z), P(z, y).")
    >>> system.predicate
    'P'
    """
    program = parse_program(text)
    recursive_rules = program.recursive_rules()
    if len(recursive_rules) != 1:
        raise DatalogSyntaxError(
            f"expected exactly one recursive rule, found "
            f"{len(recursive_rules)}")
    recursive = RecursiveRule(recursive_rules[0], strict=strict)
    exits = tuple(r for r in program.rules_for(recursive.predicate)
                  if not r.is_recursive())
    return RecursionSystem(recursive, exits)
