"""Unit tests for query parsing and patterns."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.datalog.errors import DatalogSyntaxError
from repro.datalog.parser import parse_program
from repro.engine.query import Query
from repro.session import DeductiveDatabase

from .wire import request, served


class TestParse:
    def test_constants_and_free_slots(self):
        query = Query.parse("P(a, Y, _)")
        assert query.predicate == "P"
        assert query.pattern == ("a", None, None)

    def test_numbers(self):
        assert Query.parse("P(3, X)").pattern == (3, None)
        assert Query.parse("P(2.5, X)").pattern == (2.5, None)

    def test_quoted_strings(self):
        assert Query.parse("P('Upper', X)").pattern == ("Upper", None)

    def test_quoted_constant_with_comma(self):
        """Regression: a comma inside a quoted constant used to split
        the argument in two."""
        query = Query.parse("P('Doe, Jane', Y)")
        assert query.pattern == ("Doe, Jane", None)

    def test_quoted_constant_with_paren(self):
        """Regression: a ``)`` inside a quoted constant used to
        terminate the argument list early."""
        query = Query.parse("P('f(x))', Y)")
        assert query.pattern == ("f(x))", None)

    def test_empty_argument_list(self):
        assert Query.parse("P()").pattern == ()

    def test_unterminated_quote_rejected(self):
        with pytest.raises(DatalogSyntaxError, match="unterminated"):
            Query.parse("P('oops, Y)")

    def test_unterminated_args_rejected(self):
        with pytest.raises(DatalogSyntaxError, match="unterminated"):
            Query.parse("P(a, b")

    def test_empty_argument_rejected(self):
        with pytest.raises(DatalogSyntaxError, match="empty argument"):
            Query.parse("P(a,,b)")

    def test_trailing_text_rejected(self):
        with pytest.raises(DatalogSyntaxError, match="trailing"):
            Query.parse("P(a) :- junk")

    def test_trailing_question_mark_allowed(self):
        assert Query.parse("P(a, Y)?").pattern == ("a", None)

    def test_question_mark_slot(self):
        assert Query.parse("P(?, a)").pattern == (None, "a")

    def test_garbage_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            Query.parse("not a query")

    def test_all_free_constructor(self):
        query = Query.all_free("P", 3)
        assert query.pattern == (None, None, None)


class TestAdornment:
    def test_positions_and_string(self):
        query = Query.parse("P(a, Y, c)")
        assert query.adornment == {0, 2}
        assert query.adornment_string == "dvd"

    def test_constants_mapping(self):
        assert Query.parse("P(a, Y, c)").constants == {0: "a", 2: "c"}


class TestMatching:
    def test_matches_and_filter(self):
        query = Query.parse("P(a, Y)")
        assert query.matches(("a", "b"))
        assert not query.matches(("b", "b"))
        rows = {("a", "b"), ("b", "b"), ("a", "c")}
        assert query.filter(rows) == {("a", "b"), ("a", "c")}

    def test_str(self):
        assert str(Query.parse("P(a, Y)")) == "P(a, _)"


class TestFromAtom:
    def test_goal_atom_to_query(self):
        from repro.datalog.parser import parse_program
        program = parse_program("?- P(a, Y).")
        query = Query.from_atom(program.queries[0])
        assert query.predicate == "P"
        assert query.pattern == ("a", None)


# -- one grammar: query text reads as a ``?-`` goal ---------------------------

#: characters and words of the Datalog grammar, so that drawn text
#: often reaches past its first token
_ALPHABET = "PAab XY_x?(),.'-1e5"
_WORDS = ["P", "A", "(", ")", ", ", "a", "b", "X", "_", "_x", "?", ".",
          "'a b'", "3", "2.5", "-1", "1e5", "1_000", ".5", "nan", "inf",
          " ", "Y", "P()", "é", "¹"]


class TestOneGrammar:
    """``Query.parse(t)`` reads *t* as ``?- t.`` does: the same query,
    or a syntax error from both.  Regression: query text had its own
    splitter and constant rules, so ``P(nan, Y)`` bound a float, ``_x``
    a constant, and ``P(1e5, Y)`` parsed."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(alphabet=_ALPHABET, max_size=16),
                     st.lists(st.sampled_from(_WORDS), max_size=8)
                     .map("".join)))
    def test_query_text_reads_as_a_goal(self, text):
        # query text may end in ``?`` or ``.``; a statement may not
        assume(not text.rstrip().endswith(("?", ".")))
        try:
            program = parse_program(f"?- {text}.")
        except DatalogSyntaxError:
            program = None
        try:
            query = Query.parse(text)
        except DatalogSyntaxError:
            query = None
        if program is None or len(program.queries) != 1 or (
                program.rules or program.facts):
            assert query is None
        else:
            assert query == Query.from_atom(program.queries[0])

    def test_trailing_dot_allowed(self):
        assert Query.parse("P(a, Y).") == Query.parse("P(a, Y)")


#: ``P`` is the closure of ``A``; ``nan`` and ``inf`` are names here
NAMED = """
    P(x, y) :- A(x, z), P(z, y).
    P(x, y) :- A(x, y).
    A(nan, b). A(inf, b). A(b, c).
"""

#: query text → the answers of the same ``?-`` goal (None: the goal is
#: a syntax error)
GOAL_READINGS = [
    ("P(nan, Y)", {("nan", "b"), ("nan", "c")}),
    ("P(inf, Y)", {("inf", "b"), ("inf", "c")}),
    ("P(_x, Y)", {("nan", "b"), ("nan", "c"), ("inf", "b"), ("inf", "c"),
                  ("b", "c")}),
    ("P(1e5, Y)", None),
    ("P(1_000, Y)", None),
    ("P(.5, Y)", None),
    ("P(a b, Y)", None),
]


class TestEverySurfaceReadsTheGoal:
    """The session, ``repro run --query`` and ``POST /query`` answer
    query text as the ``?-`` goal of the same text, or refuse it where
    the goal is a syntax error."""

    @pytest.mark.parametrize("text, answers", GOAL_READINGS)
    def test_session(self, text, answers):
        session = DeductiveDatabase()
        session.load(NAMED)
        if answers is None:
            with pytest.raises(DatalogSyntaxError):
                parse_program(f"?- {text}.")
            with pytest.raises(DatalogSyntaxError):
                session.query(text)
            return
        (goal,) = parse_program(f"?- {text}.").queries
        assert session.query(Query.from_atom(goal)) == answers
        assert session.query(text) == answers

    @pytest.mark.parametrize("text, answers", GOAL_READINGS)
    def test_run(self, text, answers, tmp_path, capsys):
        path = tmp_path / "named.dl"
        path.write_text(NAMED + f"?- {text}.\n", encoding="utf-8")
        by_goal = main(["run", str(path)]), capsys.readouterr().out
        if answers is None:
            path.write_text(NAMED, encoding="utf-8")
        by_query = (main(["run", "--query", text, str(path)]),
                    capsys.readouterr().out)
        assert by_query == by_goal
        assert by_goal[0] == (1 if answers is None else 0)
        assert len(by_goal[1].splitlines()) == len(answers or ())

    @pytest.fixture(scope="class")
    def named_server(self):
        with served(program=NAMED) as server:
            yield server

    @pytest.mark.parametrize("text, answers", GOAL_READINGS)
    def test_post_query(self, named_server, text, answers):
        status, body, _ = request(named_server, "POST", "/query",
                                  {"query": text})
        if answers is None:
            assert status == 400
            assert "line 1" in body["error"]
        else:
            assert status == 200
            assert {tuple(row) for row in body["answers"]} == answers
