"""Every input surface answers or fails with a 4xx, never a 5xx.

Hypothesis feeds arbitrary text to the three parsers, arbitrary JSON
documents to ``POST /query`` and ``POST /facts`` of a real
:class:`~repro.server.QueryServer` (``tests/wire.py``), and statements
and dot-command arguments to the interactive
:class:`~repro.shell.Shell`.  A parser must return or raise a
:class:`~repro.datalog.errors.ReproError`; a request must answer 200,
202 or a 4xx within :data:`REQUEST_BOUND_S`; a shell line must print
its output or ``error: …`` and return.  After every write batch, a
query of each predicate the server then knows must also never answer
a 5xx: a rule the session accepts must be one it can evaluate.

The regression tests at the top pin the two ``/facts`` bugs the fuzz
is built to find: a failed batch leaking its first writes into the
next epoch, and a rule that is not range restricted being accepted.
"""

from __future__ import annotations

import io
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.datalog.errors import DatalogSyntaxError, ReproError
from repro.datalog.parser import parse_program, parse_rule
from repro.engine.query import Query
from repro.shell import Shell

from .wire import CLOSURE, request, served

#: Wall-clock bound on one fuzzed request, in seconds.
REQUEST_BOUND_S = 5.0


def timed(server, method: str, path: str, document=None):
    started = time.perf_counter()
    status, body, _ = request(server, method, path, document)
    elapsed = time.perf_counter() - started
    assert elapsed < REQUEST_BOUND_S, (path, document, elapsed)
    return status, body


def answer_or_4xx(server, path: str, document) -> int:
    status, body = timed(server, "POST", path, document)
    assert status in (200, 202) or 400 <= status < 500, (
        path, document, status, body)
    return status


@pytest.fixture(scope="module")
def shared_server():
    """One server for the read-only fuzz: queries change no data."""
    with served(job_workers=1) as server:
        yield server


# -- regressions --------------------------------------------------------------

class TestFailedBatchLeavesNothing:
    """A failed ``POST /facts`` batch publishes no epoch, and the next
    successful batch publishes none of its writes."""

    def _assert_closure_unchanged(self, server):
        status, body = timed(server, "POST", "/query",
                             {"query": "P(X, Y)"})
        assert status == 200
        assert {tuple(row) for row in body["answers"]} == CLOSURE

    def test_bad_rule_after_good_rows(self, server):
        status, _ = timed(server, "POST", "/facts", {
            "add": {"A": [["d", "e"]]},
            "rules": ["this is not a rule"]})
        assert status == 400
        assert timed(server, "GET", "/healthz")[1]["epoch"] == 0
        status, body = timed(server, "POST", "/facts",
                             {"add": {"B": [["x"]]}})
        assert (status, body["epoch"]) == (200, 1)
        self._assert_closure_unchanged(server)

    def test_arity_mismatch_partway_through_add(self, server):
        status, body = timed(server, "POST", "/facts", {
            "remove": {"A": [["a", "b"]]},
            "add": {"A": [["d", "e"]], "B": [["x"], ["y", "z"]]}})
        assert status == 400
        assert "arity mismatch for 'B'" in body["error"]
        status, _ = timed(server, "POST", "/facts",
                          {"add": {"C": [["x"]]}})
        assert status == 200
        self._assert_closure_unchanged(server)


class TestRangeRestriction:
    def test_rule_with_unbound_head_variable_is_a_400(self, server):
        status, body = timed(server, "POST", "/facts",
                             {"rules": ["Q(x) :- A(y, y)."]})
        assert status == 400
        assert "not range restricted" in body["error"]
        status, body = timed(server, "POST", "/query",
                             {"query": "Q(X)"})
        assert status == 400
        assert "unknown predicate" in body["error"]
        assert timed(server, "GET", "/healthz")[1]["epoch"] == 0


# -- parsers ------------------------------------------------------------------

#: Characters the Datalog grammar gives a meaning to, so that drawn
#: text reaches past the first token often.
_DATALOG = "PAQabxyzXY_(),.:-?%'\" \n0123456789"


class TestParsers:
    @pytest.mark.parametrize("text", ["A(1.2.3).", "A(1..2).", "A(\u00b9)."])
    def test_malformed_number_is_a_syntax_error(self, text):
        """Regression: a number token ``float``/``int`` rejects raised
        a bare ``ValueError``."""
        with pytest.raises(DatalogSyntaxError, match="malformed number"):
            parse_program(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=60),
                     st.text(alphabet=_DATALOG, max_size=60)))
    def test_return_or_raise_a_repro_error(self, text):
        for parse in (Query.parse, parse_rule, parse_program):
            try:
                parse(text)
            except ReproError:
                pass


# -- request documents --------------------------------------------------------

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12))

#: any JSON value, NaN and the infinities included (``json`` writes and
#: reads them)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=4)),
    max_leaves=10)

_QUERY_TEXT = st.one_of(
    st.sampled_from(["P(X, Y)", "P(a, Y)", "P(X, d)", "P(a, d)", "P(X, X)",
                     "A(X, Y)", "P(X)", "Q(X)", "P(", "P(a, 'b c')",
                     "P(1, Y)", ""]),
    st.text(alphabet=_DATALOG, max_size=20))
_ENGINES = ["compiled", "semi-naive", "naive", "top-down"]

#: well-typed query documents, documents with ill-typed fields, any JSON
_QUERY_DOCUMENTS = st.one_of(
    st.fixed_dictionaries({"query": _QUERY_TEXT}, optional={
        "engine": st.sampled_from(_ENGINES),
        "backend": st.sampled_from(["auto", "python"]),
        "timeout_s": st.floats(0, 10),
        "max_rows": st.integers(0, 8),
        "mode": st.sampled_from(["sync", "async"]),
        "trace": st.booleans()}),
    st.fixed_dictionaries({}, optional={
        "query": st.one_of(_QUERY_TEXT, _JSON),
        "engine": st.one_of(st.sampled_from(_ENGINES + ["bogus"]), _JSON),
        "backend": st.one_of(st.sampled_from(["vector", "numpy"]), _JSON),
        "timeout_s": st.one_of(st.floats(), st.integers(), _JSON),
        "max_rows": st.one_of(st.integers(), _JSON),
        "mode": _JSON,
        "trace": _JSON}),
    _JSON)

_PREDICATES = st.one_of(st.sampled_from(["A", "B", "P", "Q", "R"]),
                        st.text(max_size=4))
#: what ``/facts`` accepts as a constant: a string or a finite number
_CONSTANTS = st.one_of(st.sampled_from(["a", "b", "c", "d", "e"]),
                       st.integers(-2, 2), st.floats(allow_nan=False,
                                                     allow_infinity=False))
#: well-typed rows of every length
_ROWS = st.dictionaries(_PREDICATES,
                        st.lists(st.lists(_CONSTANTS, max_size=3),
                                 max_size=4),
                        max_size=3)

_VARIABLES = ["x", "y", "z"]


@st.composite
def _rule_text(draw) -> str:
    """Rule-shaped text over the server's predicates: any arity, any
    mix of variables and constants, recursion linear or not, head
    variables bound or not."""
    def atom(predicates, terms) -> tuple[str, list[str]]:
        name = draw(st.sampled_from(predicates))
        args = draw(st.lists(st.sampled_from(terms), min_size=1,
                             max_size=3))
        return f"{name}({', '.join(args)})", args
    terms = _VARIABLES + ["a", "b"]
    body, used = [], set()
    for _ in range(draw(st.integers(1, 3))):
        text, args = atom(["A", "B", "P", "Q", "R"], terms)
        body.append(text)
        used.update(arg for arg in args if arg in _VARIABLES)
    if draw(st.integers(0, 3)):
        # mostly range restricted, so that the session accepts it
        terms = sorted(used) + ["a"]
    head, _ = atom(["P", "Q", "R", "A"], terms)
    return f"{head} :- {', '.join(body)}."


#: well-formed batches, batches with ill-typed fields, any JSON
_FACTS_DOCUMENTS = st.one_of(
    st.fixed_dictionaries({}, optional={
        "add": _ROWS, "remove": _ROWS,
        "rules": st.lists(_rule_text(), max_size=2)}),
    st.fixed_dictionaries({}, optional={
        "add": st.one_of(
            _ROWS, _JSON,
            st.dictionaries(_PREDICATES, st.lists(_JSON, max_size=2),
                            max_size=2)),
        "remove": st.one_of(_ROWS, _JSON),
        "rules": st.one_of(
            st.lists(st.one_of(_rule_text(), st.text(max_size=30),
                               _JSON), max_size=2),
            _JSON)}),
    _JSON)


def _arity(session, predicate: str) -> int | None:
    rules = session.rules_for(predicate)
    return rules[0].head.arity if rules else session._edb.arity(predicate)


class TestRequests:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_QUERY_DOCUMENTS)
    def test_query_answers_or_4xx(self, shared_server, document):
        answer_or_4xx(shared_server, "/query", document)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_FACTS_DOCUMENTS, min_size=1, max_size=3),
           st.sampled_from(_ENGINES))
    def test_facts_then_every_predicate_answers_or_4xx(self, batches,
                                                       engine):
        with served(job_workers=1) as server:
            for document in batches:
                answer_or_4xx(server, "/facts", document)
                session = server.epochs.current.session
                for predicate in timed(server, "GET", "/healthz")[1][
                        "predicates"]:
                    arity = _arity(session, predicate) or 0
                    variables = ", ".join(f"X{i}" for i in range(arity))
                    answer_or_4xx(server, "/query", {
                        "query": f"{predicate}({variables})",
                        "engine": engine})


# -- the shell ----------------------------------------------------------------

#: A binary recursion, a ternary recursion and a view, one shell line
#: each statement group.
_SHELL_PROGRAM = (
    "P(x, y) :- A(x, z), P(z, y).",
    "P(x, y) :- E(x, y).",
    "S(x, y, z) :- A(x, u), B(y, v), S(u, v, z).",
    "S(x, y, z) :- F(x, y, z).",
    "V(x) :- A(x, y).",
    "A(a, b). A(b, c). B(a, b). B(b, c). E(c, c). F(c, c, a).",
)
_SHELL_PREDICATES = ["P", "S", "V", "A", "B", "E", "F", "Q"]


def _shell_atom(terms: list[str]):
    """Atom text over the program's predicates, of any arity to 4."""
    return st.builds(
        lambda name, args: f"{name}({', '.join(args)})",
        st.sampled_from(_SHELL_PREDICATES),
        st.lists(st.sampled_from(terms), max_size=4))


_LINE_TEXT = _DATALOG.replace("\n", "")
_GOAL = _shell_atom(["a", "b", "c", "d", "X", "Y", "_", "1"])
_RULE_ATOM = _shell_atom(["x", "y", "z", "'a'"])
#: one shell line: a dot command with an argument, a goal, a fact, a
#: rule, or any text (never ``.load`` or ``.save``, which touch files)
_SHELL_LINES = st.one_of(
    st.builds("{} {}".format,
              st.sampled_from([".explain", ".prove", ".classify",
                               ".advise", ".rules", ".facts"]),
              st.one_of(_GOAL, st.sampled_from(_SHELL_PREDICATES + [""]),
                        st.text(alphabet=_LINE_TEXT, max_size=20))),
    st.builds("?- {}.".format, _GOAL),
    st.builds("{}.".format, _GOAL),
    st.builds("{} :- {}, {}.".format, _RULE_ATOM, _RULE_ATOM,
              _RULE_ATOM),
    st.text(alphabet=_LINE_TEXT, max_size=30),
).map(str.strip).filter(
    lambda line: line and not line.startswith(("%", "#"))
    and line.partition(" ")[0] not in (".load", ".save", ".quit",
                                       ".exit", ".q"))


class TestShell:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_SHELL_LINES, min_size=1, max_size=4))
    @example([".explain P(a, b, c)"])
    @example([".explain S(a, b, c, d)"])
    def test_every_line_prints_and_returns(self, lines):
        stdout = io.StringIO()
        shell = Shell(stdin=io.StringIO(), stdout=stdout)
        for line in _SHELL_PROGRAM + tuple(lines):
            printed = len(stdout.getvalue())
            assert shell.handle(line) is True, line
            assert len(stdout.getvalue()) > printed, line
