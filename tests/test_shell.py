"""Tests for the interactive shell (I/O injected)."""

import io

from repro.shell import Shell


def run_lines(*lines: str) -> str:
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    Shell(stdin=stdin, stdout=stdout).run()
    return stdout.getvalue()


PROGRAM_LINES = (
    "P(x, y) :- A(x, z), P(z, y).",
    "P(x, y) :- E(x, y).",
    "A(a, b).",
    "A(b, c).",
    "E(c, c).",
)


class TestStatements:
    def test_rules_and_facts_acknowledged(self):
        out = run_lines(*PROGRAM_LINES, ".quit")
        assert out.count("ok: rule") == 2
        assert out.count("ok: fact") == 3

    def test_trailing_dot_optional(self):
        out = run_lines("A(a, b)", ".quit")
        assert "ok: fact A(a, b)" in out

    def test_query_prints_answers_and_count(self):
        out = run_lines(*PROGRAM_LINES, "?- P(a, Y).", ".quit")
        assert "P(a, c)" in out
        assert "1 answers" in out

    def test_blank_and_comment_lines_ignored(self):
        out = run_lines("", "% a comment", ".quit")
        assert "error" not in out

    def test_parse_error_does_not_kill_session(self):
        out = run_lines("P(x, :-", "A(a, b).", ".quit")
        assert "error:" in out
        assert "ok: fact A(a, b)" in out


class TestCommands:
    def test_help(self):
        out = run_lines(".help", ".quit")
        assert ".classify" in out and ".prove" in out

    def test_unknown_command(self):
        out = run_lines(".nope", ".quit")
        assert "unknown command" in out

    def test_rules_listing(self):
        out = run_lines(*PROGRAM_LINES, ".rules", ".quit")
        assert "P(x, y) :- A(x, z) ∧ P(z, y)." in out

    def test_facts_listing(self):
        out = run_lines(*PROGRAM_LINES, ".facts", ".quit")
        assert "relation" in out and "A" in out

    def test_empty_session_listings(self):
        out = run_lines(".rules", ".facts", ".quit")
        assert "(no rules)" in out and "(no facts)" in out

    def test_classify(self):
        out = run_lines(*PROGRAM_LINES, ".classify P", ".quit")
        assert "A5" in out and "stable=True" in out

    def test_explain(self):
        out = run_lines(*PROGRAM_LINES, ".explain P(a, Y)", ".quit")
        assert "strategy:   stable" in out

    def test_prove(self):
        out = run_lines(*PROGRAM_LINES, ".prove P(a, Y)", ".quit")
        assert "premise:" in out
        assert "E(c, c)" in out

    def test_prove_resolves_as_explain_does(self):
        """``.prove`` of an unknown predicate prints ``query``'s error,
        as ``.explain`` does; a stored relation is not recursive."""
        out = run_lines(*PROGRAM_LINES, ".prove Q(a, Y)", ".explain Q(a, Y)",
                        ".prove A(a, Y)", ".quit")
        assert out.count("error: unknown predicate 'Q'") == 2
        assert "error: 'A' is not a recursive predicate" in out

    def test_advise(self):
        """``.advise`` resolves its predicate as ``?-`` and ``.explain``
        do: an unknown one is ``query``'s error, a stored relation and
        a view say what they are."""
        out = run_lines(*PROGRAM_LINES, "V(x) :- A(x, y).", ".advise P",
                        ".advise Q", "?- Q(a).", ".advise A", ".advise V",
                        ".quit")
        assert "pushdown" in out
        assert out.count("error: unknown predicate 'Q'") == 2
        assert "A is a stored relation" in out
        assert "V is not recursive" in out

    def test_usage_messages(self):
        out = run_lines(".classify", ".explain", ".prove", ".advise",
                        ".quit")
        assert out.count("usage:") == 4


class TestFiles:
    def test_load_runs_embedded_queries(self, tmp_path):
        path = tmp_path / "p.dl"
        path.write_text(
            "P(x, y) :- A(x, z), P(z, y).\n"
            "P(x, y) :- E(x, y).\n"
            "A(a, b).\nE(b, b).\n?- P(a, Y).\n", encoding="utf-8")
        out = run_lines(f".load {path}", ".quit")
        assert "loaded 2 rules, 2 facts" in out
        assert "P(a, b)" in out

    def test_load_parses_the_file_once(self, tmp_path, monkeypatch):
        """Regression: ``.load`` parsed the file twice and each goal
        once more."""
        from repro.datalog import parser
        calls = []
        program = parser._Parser.program
        monkeypatch.setattr(parser._Parser, "program", lambda self: (
            calls.append(self), program(self))[1])
        path = tmp_path / "p.dl"
        path.write_text("\n".join(PROGRAM_LINES)
                        + "\n?- P(a, Y).\n?- P(b, Y).\n", encoding="utf-8")
        out = run_lines(f".load {path}", ".quit")
        assert out.count("1 answers") == 2
        assert len(calls) == 1

    def test_save_materialised(self, tmp_path):
        target = tmp_path / "out"
        out = run_lines(*PROGRAM_LINES, f".save {target}", ".quit")
        assert "saved materialised database" in out
        assert (target / "P.tsv").exists()

    def test_load_missing_file(self):
        out = run_lines(".load /no/such/file.dl", ".quit")
        assert "error:" in out


class TestExit:
    def test_eof_exits_cleanly(self):
        assert run_lines()  # no .quit: EOF path
        out = run_lines("A(a, b).")
        assert "ok: fact" in out
