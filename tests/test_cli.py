"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestClassify:
    def test_stable_rule(self, capsys):
        code = main(["classify", "P(x, y) :- A(x, z), P(z, y)."])
        out = capsys.readouterr().out
        assert code == 0
        assert "A1" in out and "A5" in out
        assert "stable: True" in out

    def test_bounded_rule(self, capsys):
        code = main(["classify",
                     "P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), "
                     "P(z, y1, z1, u1)."])
        out = capsys.readouterr().out
        assert code == 0
        assert "bounded: bounded (rank ≤ 2)" in out

    def test_invalid_rule_errors(self, capsys):
        code = main(["classify", "P(x, y) :- A(x, y)."])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_loose_mode(self, capsys):
        strict = main(["classify", "P(x, y) :- A(x, z), P(z, x)."])
        assert strict == 1
        loose = main(["classify", "--loose",
                      "P(x, y) :- A(x, z), P(z, x)."])
        assert loose == 0


class TestPlan:
    def test_plan_output(self, capsys):
        code = main(["plan", "--form", "dv",
                     "P(x, y) :- A(x, z), P(z, y)."])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy:   stable" in out
        assert "σA^k" in out

    def test_iterative_plan(self, capsys):
        code = main(["plan", "--form", "dv",
                     "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), "
                     "P(x1, y1)."])
        out = capsys.readouterr().out
        assert code == 0
        assert "σA-C-B-[{A, B}-C]^k-E" in out

    @pytest.mark.parametrize("form", ["dx", "dvv", "d", ""])
    def test_refused_form_is_an_error(self, capsys, form):
        """A malformed or mis-sized query form is refused with a
        message, not a traceback, and never planned as another form."""
        code = main(["plan", "--form", form,
                     "P(x, y) :- A(x, z), P(z, y)."])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert captured.out == ""


class TestFigure:
    def test_igraph_text(self, capsys):
        code = main(["figure", "P(x, y) :- A(x, z), P(z, y)."])
        out = capsys.readouterr().out
        assert code == 0
        assert "I-graph:" in out and "x →(1) z" in out

    def test_resolution_depth(self, capsys):
        code = main(["figure", "--depth", "2",
                     "P(x, y) :- A(x, z), P(z, u), B(u, y)."])
        out = capsys.readouterr().out
        assert code == 0
        assert "frontier" in out and "z₁" in out

    def test_dot_output(self, capsys):
        code = main(["figure", "--dot",
                     "P(x, y) :- A(x, z), P(z, y)."])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("graph")


class TestExpand:
    def test_trace(self, capsys):
        code = main(["expand", "--depth", "2",
                     "P(x, y) :- A(x, z), P(z, y)."])
        out = capsys.readouterr().out
        assert code == 0
        assert "expansion 1:" in out and "expansion 2:" in out


class TestTableAndDossier:
    def test_table_lists_all_examples(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        for name in ("s1a", "s8", "s12"):
            assert name in out

    def test_dossier_known(self, capsys):
        assert main(["dossier", "s9"]) == 0
        out = capsys.readouterr().out
        assert "=== s9 ===" in out and "iterative" in out

    def test_dossier_unknown(self, capsys):
        assert main(["dossier", "nope"]) == 2
        assert "unknown formula" in capsys.readouterr().err


class TestRun:
    PROGRAM = """
        P(x, y) :- A(x, z), P(z, y).
        P(x, y) :- E(x, y).
        A(a, b).
        A(b, c).
        E(c, c).
    """

    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "tc.dl"
        path.write_text(self.PROGRAM, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("engine", ["naive", "semi-naive",
                                        "compiled"])
    def test_run_each_engine(self, capsys, program_file, engine):
        code = main(["run", "--engine", engine, "--query", "P(a, Y)",
                     program_file])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "P(a, c)"
        assert "1 answers" in captured.err

    def test_run_default_query_is_all_free(self, capsys, program_file):
        code = main(["run", program_file])
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.strip().splitlines()) == 3

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/file.dl"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["naive", "semi-naive",
                                        "compiled", "top-down"])
    def test_run_trace_flag(self, capsys, program_file, engine):
        code = main(["run", "--engine", engine, "--query", "P(a, Y)",
                     "--trace", program_file])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "P(a, c)"
        assert f"engine={engine}" in captured.err
        assert "answers=1" in captured.err

    def test_run_trace_json(self, capsys, program_file, tmp_path):
        import json
        from repro.engine.trace import (TRACE_SCHEMA_VERSION,
                                        validate_trace_dict)
        out_file = tmp_path / "trace.json"
        code = main(["run", "--query", "P(a, Y)",
                     "--trace-json", str(out_file), program_file])
        assert code == 0
        document = json.loads(out_file.read_text(encoding="utf-8"))
        assert document["version"] == TRACE_SCHEMA_VERSION
        assert len(document["traces"]) == 1
        validate_trace_dict(document["traces"][0])
        assert document["traces"][0]["answers"] == 1

    def test_run_trace_json_stdout(self, capsys, program_file):
        import json
        code = main(["run", "--query", "P(a, Y)", "--trace-json", "-",
                     program_file])
        captured = capsys.readouterr()
        assert code == 0
        # answer lines first, then the JSON document
        body = captured.out.split("\n", 1)[1]
        document = json.loads(body)
        assert document["traces"][0]["engine"] == "compiled"

    def test_run_stats_json(self, capsys, program_file, tmp_path):
        import json
        from repro.engine.stats import STATS_SCHEMA_VERSION
        out_file = tmp_path / "stats.json"
        code = main(["run", "--query", "P(a, Y)",
                     "--stats-json", str(out_file), program_file])
        assert code == 0
        document = json.loads(out_file.read_text(encoding="utf-8"))
        assert document["version"] == STATS_SCHEMA_VERSION
        [stats] = document["stats"]
        assert stats["engine"] == "compiled"
        assert stats["answers"] == 1
        assert sum(stats["delta_sizes"]) >= 1
        assert "hash_lookups" in stats

    def test_run_stats_json_matches_trace_totals(self, capsys,
                                                 program_file,
                                                 tmp_path):
        """The two observability dumps of one run must agree."""
        import json
        stats_file = tmp_path / "stats.json"
        trace_file = tmp_path / "trace.json"
        code = main(["run", "--query", "P(X, Y)",
                     "--engine", "semi-naive",
                     "--stats-json", str(stats_file),
                     "--trace-json", str(trace_file), program_file])
        assert code == 0
        stats = json.loads(stats_file.read_text())["stats"][0]
        trace = json.loads(trace_file.read_text())["traces"][0]
        assert (sum(stats["delta_sizes"])
                == sum(r["delta_out"] for r in trace["rounds"]))

    def test_run_log_json(self, capsys, program_file, tmp_path):
        import json
        log_file = tmp_path / "queries.jsonl"
        code = main(["run", "--query", "P(a, Y)",
                     "--log-json", str(log_file), program_file])
        assert code == 0
        [line] = log_file.read_text().splitlines()
        event = json.loads(line)
        assert event["event"] == "query"
        assert event["outcome"] == "ok"
        assert event["formula_class"] == "A5"
        assert event["answers"] == 1
        assert (event["strategy"], event["backend"]) == (
            "stable", "python")

    def test_run_log_json_logs_a_query_that_does_not_parse(
            self, capsys, program_file, tmp_path):
        """Regression: a ``--query`` that did not parse printed its
        error and exited 1, but wrote no ``query`` log line."""
        import json
        log_file = tmp_path / "queries.jsonl"
        code = main(["run", "--query", "P(a, ",
                     "--log-json", str(log_file), program_file])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: line 1, column 2: unterminated argument list\n")
        [line] = log_file.read_text().splitlines()
        event = json.loads(line)
        assert (event["event"], event["outcome"], event["query"],
                event["predicate"], event["formula_class"]) == (
            "query", "error", "P(a, ", None, "unknown")
        assert event["error"].startswith("DatalogSyntaxError: ")


class TestRunAnswersLikeTheShell:
    """``repro run`` answers through a session, as the shell does.
    Regression: it evaluated the program's one recursion directly, so
    a recursion over a view had no view rows, an EDB query printed the
    recursion's answers, and an undefined predicate exited 0."""

    PROGRAM = """
        P(x, y) :- V(x, z), P(z, y).
        P(x, y) :- V(x, y).
        V(x, y) :- A(x, y).
        A(a, b).
        A(b, c).
    """

    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "view.dl"
        path.write_text(self.PROGRAM, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("engine", ["naive", "semi-naive",
                                        "compiled", "top-down"])
    def test_recursion_over_a_view(self, capsys, program_file, engine):
        code = main(["run", "--engine", engine, "--query", "P(a, Y)",
                     program_file])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "P(a, b)", "P(a, c)"]

    def test_edb_query_prints_its_own_rows(self, capsys, program_file):
        assert main(["run", "--query", "A(a, Y)", program_file]) == 0
        assert capsys.readouterr().out.splitlines() == ["A(a, b)"]

    def test_undefined_predicate_is_an_error(self, capsys, program_file):
        assert main(["run", "--query", "Q(a, Y)", program_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown predicate" in captured.err


class TestRunParsesOnce:
    """``repro run`` answers the goals of the ``Program`` that ``load``
    returns.  Regression: it parsed its file three times, in ``load``,
    ``parse_program`` and ``parse_system``."""

    def test_one_parse(self, capsys, tmp_path, monkeypatch):
        from repro.datalog import parser
        calls = []
        program = parser._Parser.program
        monkeypatch.setattr(parser._Parser, "program", lambda self: (
            calls.append(self), program(self))[1])
        path = tmp_path / "tc.dl"
        path.write_text(TestRun.PROGRAM, encoding="utf-8")
        assert main(["run", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert len(calls) == 1


class TestServeParser:
    def test_defaults(self):
        from repro.cli import build_parser
        arguments = build_parser().parse_args(["serve", "prog.dl"])
        assert arguments.host == "127.0.0.1"
        assert arguments.port == 8080
        assert arguments.engine == "compiled"
        assert arguments.log_json is None

    def test_overrides(self):
        from repro.cli import build_parser
        arguments = build_parser().parse_args(
            ["serve", "prog.dl", "--host", "0.0.0.0", "--port", "0",
             "--engine", "semi-naive", "--log-json", "-"])
        assert arguments.port == 0
        assert arguments.engine == "semi-naive"
        assert arguments.log_json == "-"

    def test_missing_program_errors(self, capsys):
        assert main(["serve", "/nonexistent/file.dl"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRunWithQueryStatements:
    def test_file_queries_executed(self, capsys, tmp_path):
        path = tmp_path / "q.dl"
        path.write_text("""
            P(x, y) :- A(x, z), P(z, y).
            P(x, y) :- E(x, y).
            A(a, b).
            E(b, b).
            ?- P(a, Y).
            ?- P(b, Y).
        """, encoding="utf-8")
        assert main(["run", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("P(") == 2
        assert captured.err.count("-- P(") == 2


class TestAdvise:
    def test_capability_matrix_printed(self, capsys):
        code = main(["advise",
                     "P(x, y, z) :- A(x, u), B(y, v), C(u, v), "
                     "D(w, z), P(u, v, w)."])
        out = capsys.readouterr().out
        assert code == 0
        assert "dvv → (ddv)*" in out
        assert "pushdown" in out


class TestProve:
    def test_derivation_tree_printed(self, capsys, tmp_path):
        path = tmp_path / "tc.dl"
        path.write_text("""
            P(x, y) :- A(x, z), P(z, y).
            P(x, y) :- E(x, y).
            A(a, b).
            E(b, b).
        """, encoding="utf-8")
        assert main(["prove", "--answer", "P(a, Y)", str(path)]) == 0
        out = capsys.readouterr().out
        assert "P(a, b)" in out
        assert "premise:" in out
        assert "E(b, b)" in out

    def test_depths_computed_once_for_all_answers(self, capsys,
                                                  tmp_path, monkeypatch):
        from repro.engine import provenance
        calls = []
        original = provenance._tuple_depths

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(provenance, "_tuple_depths", counting)
        path = tmp_path / "tc.dl"
        path.write_text("""
            P(x, y) :- A(x, z), P(z, y).
            P(x, y) :- E(x, y).
            A(a, b). A(b, c). A(c, d).
            E(b, b). E(c, c). E(d, d).
        """, encoding="utf-8")
        assert main(["prove", "--limit", "3", "--answer", "P(a, Y)",
                     str(path)]) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines()
                if line.startswith("P(a, ")] == [
            "P(a, b)", "P(a, c)", "P(a, d)"]
        assert len(calls) == 1

    def test_no_matching_answer(self, capsys, tmp_path):
        path = tmp_path / "tc.dl"
        path.write_text("""
            P(x, y) :- A(x, z), P(z, y).
            P(x, y) :- E(x, y).
            A(a, b).
            E(b, b).
        """, encoding="utf-8")
        assert main(["prove", "--answer", "P(zz, Y)", str(path)]) == 1

    def test_unknown_predicate_is_the_query_error(self, capsys, tmp_path):
        path = tmp_path / "tc.dl"
        path.write_text("""
            P(x, y) :- A(x, z), P(z, y).
            P(x, y) :- E(x, y).
            A(a, b).
            E(b, b).
        """, encoding="utf-8")
        assert main(["prove", "--answer", "Q(a, Y)", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: unknown predicate 'Q'")


class TestLint:
    def test_warnings_exit_zero(self, capsys):
        code = main(["lint", "P(x, y) :- A(x, z), A(x, w), P(z, y)."])
        out = capsys.readouterr().out
        assert code == 0
        assert "W101" in out

    def test_errors_exit_one(self, capsys):
        code = main(["lint", "P(x, y) :- P(x, z), P(z, y)."])
        assert code == 1
        assert "E003" in capsys.readouterr().out

    def test_lint_file(self, capsys, tmp_path):
        path = tmp_path / "p.dl"
        path.write_text("P(x, y) :- A(x, z), P(z, y).\n"
                        "P(x, y) :- E(x, y).\n", encoding="utf-8")
        code = main(["lint", "--file", str(path)])
        assert code == 0
        assert "clean" in capsys.readouterr().out


class TestJsonOutput:
    def test_classify_json(self, capsys):
        import json
        code = main(["classify", "--json",
                     "P(x, y) :- A(x, z), P(z, y)."])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["formula_class"] == "A5"
        assert payload["strongly_stable"] is True
        assert payload["components"][0]["class"] == "A1"

    def test_plan_json(self, capsys):
        import json
        code = main(["plan", "--json", "--form", "dv",
                     "P(x, y) :- A(x, z), P(z, y)."])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["strategy"] == "stable"
        assert "σA^k" in payload["plan"]
        assert payload["persistent_positions"] == [1]
