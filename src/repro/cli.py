"""Command-line interface: classify, plan, figure, run, table.

Usage examples::

    python -m repro classify "P(x, y) :- A(x, z), P(z, y)."
    python -m repro plan --form dv "P(x, y) :- A(x, z), P(z, y)."
    python -m repro figure --depth 2 "P(x, y) :- A(x, z), P(z, u), B(u, y)."
    python -m repro table
    python -m repro dossier s9
    python -m repro run --engine compiled --query "P(a, Y)" program.dl

The ``run`` command reads a program file containing the rules *and*
ground facts; the other commands accept the rule text directly.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Sequence

from . import __version__

from .core.classifier import classify
from .core.compile import compile_query
from .core.advisor import capability_table
from .core.lint import lint_text
from .core.report import classification_table, formula_dossier
from .datalog.errors import ReproError
from .datalog.parser import parse_system
from .datalog.pretty import expansion_trace
from .engine import ENGINES
from .engine.query import Query
from .engine.stats import EvaluationStats
from .engine.trace import TRACE_SCHEMA_VERSION, Tracer
from .engine.vector import numpy_version
from .graphs.render import ascii_figure, ascii_resolution, to_dot
from .graphs.resolution import resolution_graph


def _cmd_classify(args: argparse.Namespace) -> int:
    system = parse_system(args.rule, strict=not args.loose)
    result = classify(system)
    if args.json:
        print(json.dumps(result.to_dict(), ensure_ascii=False,
                         indent=2))
        return 0
    print(result.describe())
    row = result.summary_row()
    print(f"stable: {row['stable']}   transformable: "
          f"{row['transformable']}"
          + (f" (unfold {row['unfold']}×)"
             if row["unfold"] is not None else ""))
    print(f"bounded: {row['bounded']}"
          + (f" (rank ≤ {row['rank_bound']})"
             if row["rank_bound"] is not None else ""))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    system = parse_system(args.rule, strict=not args.loose)
    compiled = compile_query(system, args.form)
    if args.json:
        print(json.dumps(compiled.to_dict(), ensure_ascii=False,
                         indent=2))
        return 0
    print(compiled.describe())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    system = parse_system(args.rule, strict=not args.loose)
    if args.depth <= 1:
        graph = classify(system).graph
        print(to_dot(graph) if args.dot
              else ascii_figure(graph, "I-graph:"))
    else:
        resolved = resolution_graph(system, args.depth)
        print(to_dot(resolved.graph) if args.dot else ascii_resolution(
            resolved, f"resolution graph, level {args.depth}:"))
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    system = parse_system(args.rule, strict=not args.loose)
    print(expansion_trace(system, args.depth))
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    system = parse_system(args.rule, strict=not args.loose)
    print(capability_table(system))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.rule is not None:
        text = args.rule
    else:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    findings = lint_text(text)
    if not findings:
        print("clean: no findings")
        return 0
    for finding in findings:
        print(finding)
    return 1 if any(f.level == "error" for f in findings) else 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .workloads.formulas import paper_systems
    print(classification_table(paper_systems()))
    return 0


def _cmd_dossier(args: argparse.Namespace) -> int:
    from .workloads.formulas import CATALOGUE
    entry = CATALOGUE.get(args.name)
    if entry is None:
        print(f"unknown formula {args.name!r}; known: "
              f"{', '.join(sorted(CATALOGUE))}", file=sys.stderr)
        return 2
    print(formula_dossier(entry.name, entry.system(),
                          query_forms=entry.query_forms))
    return 0


def _cmd_shell(args: argparse.Namespace) -> int:
    from .shell import run_shell
    return run_shell()


def _cmd_prove(args: argparse.Namespace) -> int:
    from .session import DeductiveDatabase
    with open(args.program, encoding="utf-8") as handle:
        text = handle.read()
    session = DeductiveDatabase()
    session.load(text)
    query = Query.parse(args.answer)
    # one fixpoint replay (the depth map) shared by every derivation
    derivations = session.prove(query, limit=args.limit)
    if not derivations:
        print(f"no answers match {query}", file=sys.stderr)
        return 1
    for derivation in derivations:
        print(derivation.render())
        print()
    return 0


def _dump_json(document: dict, destination: str) -> None:
    """Write *document* to a file, or stdout when it is ``-``."""
    if destination == "-":
        json.dump(document, sys.stdout, ensure_ascii=False, indent=2)
        print()
    else:
        with open(destination, "w", encoding="utf-8") as out:
            json.dump(document, out, ensure_ascii=False, indent=2)


def _cmd_run(args: argparse.Namespace) -> int:
    """Answer the queries through a session, as the shell does; the
    session's query close writes the ``--log-json`` lines."""
    from .engine.stats import STATS_SCHEMA_VERSION
    from .session import DeductiveDatabase
    with open(args.program, encoding="utf-8") as handle:
        text = handle.read()
    query_log = None
    if args.log_json is not None:
        from .logutil import open_query_log
        query_log = open_query_log(args.log_json)
    session = DeductiveDatabase(query_log=query_log)
    try:
        program = session.load(text)
        if args.query:
            # text: the session's query close parses it, so a query
            # that does not parse is logged like any failed query
            queries = [args.query]
        elif program.queries:
            queries = [Query.from_atom(goal) for goal in program.queries]
        else:
            system = program.system()
            queries = [Query.all_free(system.predicate, system.dimension)]
        tracing = args.trace or args.trace_json is not None
        traces: list[dict] = []
        stats_dumps: list[dict] = []
        for query in queries:
            stats = EvaluationStats()
            tracer = Tracer() if tracing else None
            answers = session.query(query, stats, engine=args.engine,
                                    trace=tracer)
            if isinstance(query, str):  # answered, so it parses
                query = Query.parse(query)
            for row in answers.sorted_rows():
                print(f"{query.predicate}"
                      f"({', '.join(str(v) for v in row)})")
            print(f"-- {query}: {len(answers)} answers   "
                  f"[{stats.summary()}]", file=sys.stderr)
            stats_dumps.append(stats.to_dict())
            if tracer is not None:
                if args.trace:
                    print(tracer.trace.render(), file=sys.stderr)
                traces.append(tracer.trace.to_dict())
    finally:
        if query_log is not None:
            query_log.close()
    if args.trace_json is not None:
        _dump_json({"version": TRACE_SCHEMA_VERSION,
                    "traces": traces}, args.trace_json)
    if args.stats_json is not None:
        _dump_json({"version": STATS_SCHEMA_VERSION,
                    "stats": stats_dumps}, args.stats_json)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    from .logutil import open_query_log
    from .metrics import MetricsRegistry
    from .server import QueryServer
    from .session import DeductiveDatabase
    with open(args.program, encoding="utf-8") as handle:
        text = handle.read()
    query_log = (open_query_log(args.log_json)
                 if args.log_json is not None else None)
    session = DeductiveDatabase(metrics=MetricsRegistry(),
                                query_log=query_log)
    session.load(text)
    server = QueryServer(session, host=args.host, port=args.port,
                         default_engine=args.engine,
                         max_inflight=args.max_inflight,
                         query_timeout_s=args.query_timeout,
                         max_rows=args.max_rows,
                         drain_grace_s=args.drain_grace,
                         job_workers=args.job_workers,
                         job_ttl_s=args.job_ttl,
                         trace_buffer=args.trace_buffer,
                         trace_sample=args.trace_sample,
                         slow_query_ms=args.slow_query_ms,
                         exemplars=args.exemplars)

    def _graceful(signum, frame) -> None:
        # serve_forever() runs on this (main) thread and
        # httpd.shutdown() deadlocks when called from it, so the
        # drain runs on a helper thread; serve_forever returns once
        # it completes.
        threading.Thread(target=server.graceful_shutdown,
                         daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    # scripts/wire_smoke.py reads this line to find an ephemeral port.
    print(f"serving on http://{server.host}:{server.port}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.graceful_shutdown()
    finally:
        server.close()
        if query_log is not None:
            query_log.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Classification of recursive formulas "
                    "(SIGMOD 1988) — analysis and evaluation tools")
    numpy_v = numpy_version()
    vector_info = (f"numpy {numpy_v}" if numpy_v
                   else "none (numpy unavailable)")
    parser.add_argument(
        "--version", action="version",
        version=f"repro {__version__} "
                f"(python {platform.python_version()}, "
                f"vector backend: {vector_info})")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--loose", action="store_true",
                       help="skip the range-restriction check")
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output")

    p_classify = sub.add_parser(
        "classify", help="classify a recursive rule")
    p_classify.add_argument("rule")
    common(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_plan = sub.add_parser(
        "plan", help="compile a query form against a rule")
    p_plan.add_argument("rule")
    p_plan.add_argument("--form", required=True,
                        help="adornment, e.g. dvv")
    common(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    p_figure = sub.add_parser(
        "figure", help="print the I-graph or a resolution graph")
    p_figure.add_argument("rule")
    p_figure.add_argument("--depth", type=int, default=1)
    p_figure.add_argument("--dot", action="store_true",
                          help="emit Graphviz DOT instead of text")
    common(p_figure)
    p_figure.set_defaults(func=_cmd_figure)

    p_expand = sub.add_parser(
        "expand", help="print the first k expansions of a rule")
    p_expand.add_argument("rule")
    p_expand.add_argument("--depth", type=int, default=3)
    common(p_expand)
    p_expand.set_defaults(func=_cmd_expand)

    p_lint = sub.add_parser(
        "lint", help="diagnostics for a rule or program file")
    group = p_lint.add_mutually_exclusive_group(required=True)
    group.add_argument("rule", nargs="?", default=None)
    group.add_argument("--file")
    p_lint.set_defaults(func=_cmd_lint)

    p_advise = sub.add_parser(
        "advise", help="pushdown capability matrix over all query forms")
    p_advise.add_argument("rule")
    common(p_advise)
    p_advise.set_defaults(func=_cmd_advise)

    p_table = sub.add_parser(
        "table", help="the classification table of all paper examples")
    p_table.set_defaults(func=_cmd_table)

    p_dossier = sub.add_parser(
        "dossier", help="full dossier for a named paper example")
    p_dossier.add_argument("name")
    p_dossier.set_defaults(func=_cmd_dossier)

    p_shell = sub.add_parser(
        "shell", help="interactive deductive-database shell")
    p_shell.set_defaults(func=_cmd_shell)

    p_prove = sub.add_parser(
        "prove", help="derivation trees for the answers of a query")
    p_prove.add_argument("program", help="file with rules and facts")
    p_prove.add_argument("--answer", required=True,
                         help="query pattern, e.g. 'P(a, Y)'")
    p_prove.add_argument("--limit", type=int, default=3,
                         help="max derivations to print")
    p_prove.set_defaults(func=_cmd_prove)

    p_run = sub.add_parser(
        "run", help="evaluate a query over a program file with facts")
    p_run.add_argument("program", help="file with rules and facts")
    p_run.add_argument("--query", help="e.g. 'P(a, Y)'")
    p_run.add_argument("--engine", choices=sorted(ENGINES),
                       default="compiled")
    p_run.add_argument("--trace", action="store_true",
                       help="print an EXPLAIN ANALYZE trace of each "
                            "query to stderr")
    p_run.add_argument("--trace-json", metavar="FILE", default=None,
                       help="write the traces as JSON to FILE "
                            "('-' for stdout)")
    p_run.add_argument("--stats-json", metavar="FILE", default=None,
                       help="write each query's EvaluationStats as "
                            "JSON to FILE ('-' for stdout)")
    p_run.add_argument("--log-json", metavar="FILE", default=None,
                       help="append one structured JSON log line per "
                            "query to FILE ('-' for stderr)")
    p_run.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser(
        "serve", help="serve a program over HTTP with metrics "
                      "(POST /query, POST /facts, POST /jobs + "
                      "async polling, GET /metrics, /healthz, "
                      "/stats, /debug/traces)")
    p_serve.add_argument("program", help="file with rules and facts")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="listen port (0 = ephemeral; the bound "
                              "port is printed on startup)")
    p_serve.add_argument("--engine", choices=sorted(ENGINES),
                         default="compiled",
                         help="default engine for /query requests")
    p_serve.add_argument("--max-inflight", type=int, default=8,
                         help="concurrent evaluations admitted; "
                              "excess requests get 429 + Retry-After")
    p_serve.add_argument("--query-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="default per-query wall-clock budget; "
                              "expiry aborts the fixpoint at a round "
                              "boundary (408)")
    p_serve.add_argument("--max-rows", type=int, default=None,
                         help="per-query answer-row cap; the fixpoint "
                              "stops at the next round boundary and "
                              "the partial answers are flagged "
                              "truncated")
    p_serve.add_argument("--job-workers", type=int, default=2,
                         help="worker threads draining async jobs "
                              "(POST /jobs); keep below "
                              "--max-inflight so synchronous queries "
                              "retain admission headroom")
    p_serve.add_argument("--job-ttl", type=float, default=600.0,
                         metavar="SECONDS",
                         help="how long a finished job's result is "
                              "retained for GET /jobs/<id>/result")
    p_serve.add_argument("--drain-grace", type=float, default=10.0,
                         metavar="SECONDS",
                         help="how long shutdown waits for in-flight "
                              "queries before closing anyway")
    p_serve.add_argument("--log-json", metavar="FILE", default=None,
                         help="append one structured JSON log line "
                              "per query to FILE ('-' for stderr)")
    p_serve.add_argument("--trace-buffer", type=int, default=256,
                         metavar="N",
                         help="flight-recorder capacity: completed "
                              "request traces retained for GET "
                              "/debug/traces (oldest evicted first)")
    p_serve.add_argument("--trace-sample", type=float, default=0.01,
                         metavar="RATE",
                         help="always-on trace sampling rate in "
                              "[0, 1]; 0 disables sampling entirely")
    p_serve.add_argument("--slow-query-ms", type=float, default=None,
                         metavar="MS",
                         help="capture any request at least this "
                              "slow regardless of sampling, and emit "
                              "a slow_query log event for it")
    p_serve.add_argument("--exemplars", action="store_true",
                         help="expose query-id exemplars on "
                              "repro_query_duration_seconds buckets "
                              "in /metrics")
    p_serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
