"""A small textual front end for the paper's rule language.

Grammar (comments start with ``%`` or ``#`` and run to end of line)::

    program   := statement*
    statement := rule | fact | goal
    rule      := atom ":-" atom (("," | "∧" | "&") atom)* "."
    fact      := atom "."            -- must be ground
    goal      := "?-" atom "."
    atom      := IDENT "(" term ("," term)* ")" | IDENT
    term      := IDENT | NUMBER | STRING

Following the paper (which forbids constants inside recursive rules and
writes variables in lower case), bare identifiers inside a *rule* are
variables, while bare identifiers inside a *fact* are constants.
Numbers and single-quoted strings are always constants.  A goal — and
query text, :func:`parse_goal` — marks its free slots: capitalised and
``_``-prefixed names, ``_`` and ``?``; its argument list may be empty.

>>> rule = parse_rule("P(x, y) :- A(x, z), P(z, y).")
>>> str(rule)
'P(x, y) :- A(x, z) ∧ P(z, y).'
"""

from __future__ import annotations

import re
from array import array

from .atoms import Atom
from .errors import DatalogSyntaxError
from .program import Program, RecursionSystem
from .rules import Rule
from .terms import Constant, Term, Variable

#: one named group per token kind, the most frequent first.  ``SKIP``
#: (white space, comments) makes no token; ``WORD`` is a name starting
#: outside ASCII, sorted out by :func:`_tokenize`; ``OTHER`` is a
#: character no token takes.
_TOKEN_RE = re.compile(r"""
      (?P<IDENT>[A-Za-z_][\w']*)
    | (?P<SKIP>\s+|[%#][^\n]*)
    | (?P<COMMA>[,∧&]) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<DOT>\.)
    | (?P<IMPLIES>:-) | (?P<QUERY>\?-) | (?P<FREE>\?)
    | '(?P<STRING>[^']*)'
    | (?P<NUMBER>-?\d[\d.]*)
    | (?P<WORD>[^\W\d][\w']*)
    | (?P<OTHER>.)
""", re.VERBOSE | re.DOTALL)

#: how a term's name reads, by where it stands (:meth:`_Parser.term`)
_RULE, _FACT, _GOAL, _HEAD = "rule", "fact", "goal", "head"


def _error(text: str, offset: int | None,
           message: str) -> DatalogSyntaxError:
    """*message* at *offset* of *text*, as its 1-based line and column
    (at the end of input: no position)."""
    if offset is None:
        return DatalogSyntaxError(message)
    return DatalogSyntaxError(message, text.count("\n", 0, offset) + 1,
                              offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> tuple[list[str], list[str], array]:
    """The tokens of *text* as three parallel sequences: kinds, texts
    (a string's without its quotes) and start offsets, closed by an
    ``END`` token.  Raises at the first character no token takes."""
    kinds: list[str] = []
    texts: list[str] = []
    offsets = array("q")
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "SKIP":
            continue
        word = match[kind]
        if kind == "WORD":
            # \w takes every numeric character, a name only letters:
            # ``¹`` is a (malformed) number, as ``isdigit`` has it
            if word[0].isalpha():
                kind = "IDENT"
            elif word[0].isdigit():
                kind = "NUMBER"
            else:
                raise _error(text, match.start(),
                             f"unexpected character {word[0]!r}")
        elif kind == "OTHER":
            raise _error(text, match.start(),
                         "unterminated string" if word == "'"
                         else f"unexpected character {word!r}")
        kinds.append(kind)
        texts.append(word)
        offsets.append(match.start())
    kinds.append("END")
    texts.append("")
    offsets.append(len(text))
    return kinds, texts, offsets


class _Parser:
    """Recursive descent over the token stream, in one forward pass."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._kinds, self._texts, self._offsets = _tokenize(text)
        self._pos = 0

    # -- token plumbing ----------------------------------------------

    def _error(self, message: str,
               pos: int | None = None) -> DatalogSyntaxError:
        """*message* at the token at *pos* (default: the next one)."""
        pos = self._pos if pos is None else pos
        return _error(self._text, None if self._kinds[pos] == "END"
                      else self._offsets[pos], message)

    def accept(self, *kinds: str) -> bool:
        """Consume the next token if it is one of *kinds*."""
        if self._kinds[self._pos] in kinds:
            self._pos += 1
            return True
        return False

    def _next(self, kind: str) -> str:
        """Consume the next token, which must be a *kind*: its text."""
        pos = self._pos
        if self._kinds[pos] != kind:
            raise self._error(
                "unexpected end of input" if self._kinds[pos] == "END"
                else f"expected {kind}, found {self._texts[pos]!r}")
        self._pos = pos + 1
        return self._texts[pos]

    @property
    def at_end(self) -> bool:
        return self._kinds[self._pos] == "END"

    def done(self, what: str) -> None:
        """Raise unless every token was read."""
        if not self.at_end:
            raise self._error(
                f"trailing input after {what}: {self._text!r}")

    # -- grammar -----------------------------------------------------

    def term(self, mode: str) -> Term | str:
        """The next term (there is one); *mode* decides how a name
        reads.

        ``rule``: a variable (the paper forbids constants in rules);
        ``fact``: a constant; ``goal``: a free slot — a variable —
        when capitalised or ``_``-prefixed, else a constant, and
        ``?`` is a free slot too; ``head``: the name itself, checked
        as a variable name, for :meth:`statement` to type once it
        knows whether the head starts a rule or a fact.
        """
        pos = self._pos
        kind, text = self._kinds[pos], self._texts[pos]
        self._pos = pos + 1
        if kind == "IDENT":
            if mode == _FACT or (mode == _GOAL and not (
                    text[0].isupper() or text[0] == "_")):
                return Constant(text)
            if not text.isascii():
                # the lexer takes any letter, a variable name only
                # ASCII ones
                raise self._error(f"invalid variable name: {text!r}", pos)
            return text if mode == _HEAD else Variable(text)
        if kind == "NUMBER":
            try:
                return Constant(float(text) if "." in text else int(text))
            except ValueError:
                # ``1.2.3``, or a digit ``int`` rejects (``¹``)
                raise self._error(f"malformed number {text!r}",
                                  pos) from None
        if kind == "STRING":
            return Constant(text)
        if kind == "FREE" and mode == _GOAL:
            return Variable("_")
        empty = "empty argument: " if kind in ("COMMA", "RPAREN") else ""
        raise self._error(f"{empty}expected a term, found {text!r}", pos)

    def args(self, mode: str) -> list:
        """The terms of the argument list after a predicate name (none
        without a ``(``); a goal's may be empty, ``P()``."""
        opened = self._pos
        if not self.accept("LPAREN") or (
                mode == _GOAL and self.accept("RPAREN")):
            return []
        args = []
        while not self.at_end:
            args.append(self.term(mode))
            if not self.accept("COMMA") and not self.at_end:
                self._next("RPAREN")
                return args
        raise self._error("unterminated argument list", opened)

    def atom(self, mode: str) -> Atom:
        name = self._next("IDENT")
        return Atom(name, tuple(self.args(mode)))

    def statement(self) -> tuple[str, Rule | Atom]:
        """The next statement: ``("rule", rule)``, ``("fact", atom)``
        or ``("goal", atom)``.  A head's names become variables at the
        ``:-`` of a rule, constants at the ``.`` of a fact."""
        if self.accept("QUERY"):
            goal = self.atom(_GOAL)
            self._next("DOT")
            return "goal", goal
        name = self._next("IDENT")
        args = self.args(_HEAD)
        if self.accept("IMPLIES"):
            head = Atom(name, tuple(Variable(arg) if isinstance(arg, str)
                                    else arg for arg in args))
            body = [self.atom(_RULE)]
            while self.accept("COMMA"):
                body.append(self.atom(_RULE))
            self._next("DOT")
            return "rule", Rule(head, tuple(body))
        self._next("DOT")
        return "fact", Atom(name, tuple(Constant(arg) if isinstance(arg, str)
                                        else arg for arg in args))

    def program(self) -> Program:
        statements: dict[str, list] = {"rule": [], "fact": [], "goal": []}
        while not self.at_end:
            kind, parsed = self.statement()
            statements[kind].append(parsed)
        return Program(tuple(statements["rule"]), tuple(statements["fact"]),
                       tuple(statements["goal"]))


def parse_atom(text: str, in_rule: bool = True) -> Atom:
    """Parse a single atom; *in_rule* selects variable vs constant idents."""
    parser = _Parser(text)
    parsed = parser.atom(_RULE if in_rule else _FACT)
    parser.done("atom")
    return parsed


def parse_goal(text: str) -> Atom:
    """Parse query text: one goal atom, read as a ``?-`` statement
    reads it, with an optional trailing ``?`` or ``.``.

    >>> str(parse_goal("P(a, Y, ?)?"))
    'P(a, Y, _)'
    """
    parser = _Parser(text)
    goal = parser.atom(_GOAL)
    parser.accept("FREE", "DOT")
    parser.done("query")
    return goal


def parse_rule(text: str) -> Rule:
    """Parse a single rule (with terminating dot optional).

    >>> str(parse_rule("P(x, y) :- A(x, z), P(z, y)"))
    'P(x, y) :- A(x, z) ∧ P(z, y).'
    """
    if not text.rstrip().endswith("."):
        text = text.rstrip() + "."
    parser = _Parser(text)
    kind, parsed = parser.statement()
    parser.done("rule")
    if kind != "rule":
        raise DatalogSyntaxError(f"expected a rule, found a {kind}: {text!r}")
    return parsed


def parse_program(text: str) -> Program:
    """Parse a full program of rules, ground facts and goals."""
    return _Parser(text).program()


def parse_system(text: str, strict: bool = True) -> RecursionSystem:
    """Parse a program and package it as a :class:`RecursionSystem`
    (:meth:`Program.system`).

    >>> system = parse_system("P(x, y) :- A(x, z), P(z, y).")
    >>> system.predicate
    'P'
    """
    return parse_program(text).system(strict)
