"""Keep the documentation honest: run its Python code blocks.

Extracts every ```python fenced block from docs/tutorial.md and the
README quickstart and executes them in one shared namespace per file.
Comment lines showing expected output (`# ...`) are not asserted —
the point is that the code paths exist and run without error.

The references are checked too: every name docs/api.md tabulates
resolves, and every test id docs/theory.md pins a claim to exists.
"""

import argparse
import ast
import pathlib
import pkgutil
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
MODULE_NOTE = re.compile(r"\(`(repro[\w.]*)`\)")
TEST_ID = re.compile(r"`((?:tests|benchmarks)/[\w/]+\.py)((?:::\w+)*)`")

DOCUMENTS = ["README.md", "docs/tutorial.md"]


def blocks_of(path: pathlib.Path) -> list[str]:
    return FENCE.findall(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("document", DOCUMENTS)
def test_python_blocks_execute(document):
    path = ROOT / document
    blocks = blocks_of(path)
    assert blocks, f"{document} has no python blocks?"
    namespace: dict = {}
    for index, block in enumerate(blocks):
        try:
            exec(compile(block, f"{document}[block {index}]", "exec"),
                 namespace)
        except Exception as error:  # pragma: no cover - doc bug
            pytest.fail(f"{document} block {index} failed: {error}\n"
                        f"---\n{block}")


def test_docs_mention_current_cli_commands():
    """The API reference lists every CLI subcommand that exists, and
    mentions a long option exactly when some subcommand has it."""
    from repro.cli import build_parser
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    api = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    missing = {cmd for cmd in subparsers.choices if cmd not in api}
    assert not missing, f"docs/api.md misses CLI commands: {missing}"
    options = {option for sub in subparsers.choices.values()
               for action in sub._actions
               for option in action.option_strings
               if option.startswith("--") and option != "--help"}
    mentioned = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", api))
    assert not options - mentioned, (
        f"docs/api.md misses CLI options: {options - mentioned}")
    assert not mentioned - options, (
        f"docs/api.md mentions options no subcommand has: "
        f"{mentioned - options}")


def test_experiments_reference_existing_artifacts():
    """Every `*.txt` artefact EXPERIMENTS.md cites is produced by some
    bench (checked against the save_artifact names in benchmarks/)."""
    experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    cited = set(re.findall(r"`([a-z0-9_]+)\.txt`", experiments))
    bench_sources = "".join(
        p.read_text(encoding="utf-8")
        for p in (ROOT / "benchmarks").glob("test_*.py"))
    produced = set(re.findall(r'save_artifact\(\s*[f]?"([a-z0-9_{}]+)"',
                              bench_sources))
    # f-string names like perf1_{shape}_{size} cover the perf1_* family
    unmatched = set()
    for name in cited:
        if name in produced:
            continue
        if any(template.split("{")[0] and
               name.startswith(template.split("{")[0])
               for template in produced if "{" in template):
            continue
        if any(name.startswith(template.rstrip("_"))
               for template in produced):
            continue
        unmatched.add(name)
    assert not unmatched, f"EXPERIMENTS.md cites unknown: {unmatched}"


def _resolves(name: str, packages: list[str]) -> bool:
    """True when *name* is an attribute path in one of *packages*, or
    is itself an absolute ``repro.…`` path."""
    candidates = [f"{package}.{name}" for package in packages]
    if name.startswith("repro."):
        candidates.append(name)
    for dotted in candidates:
        try:
            pkgutil.resolve_name(dotted)
        except (AttributeError, ImportError, ValueError):
            continue
        return True
    return False


def api_table_names() -> list[tuple[str, list[str]]]:
    """(name, candidate packages) for every backticked name in the
    first column of a docs/api.md table."""
    packages: list[str] = []
    found = []
    for line in (ROOT / "docs" / "api.md").read_text(
            encoding="utf-8").splitlines():
        if line.startswith("## "):
            packages = re.findall(r"`(repro[\w.]*)`", line)
        elif line.startswith("|") and not line.startswith("|---"):
            cell = re.split(r"(?<!\\)\|", line)[1]
            notes = MODULE_NOTE.findall(cell)
            for span in re.findall(r"`([^`]+)`", MODULE_NOTE.sub("", cell)):
                name = re.match(r"[A-Za-z_][\w.]*", span).group()
                found.append((name, packages + notes))
    return found


def test_api_table_names_resolve():
    names = api_table_names()
    assert len(names) > 50, "docs/api.md tables not found?"
    unresolved = [f"{name} (in {', '.join(packages) or 'no package'})"
                  for name, packages in names
                  if not _resolves(name, packages)]
    assert not unresolved, (
        f"docs/api.md names that do not resolve: {unresolved}")


def _defines(body: list[ast.stmt], name: str) -> list[ast.stmt] | None:
    """The body of the class or function *name* defined in *body*."""
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.name == name:
            return node.body
    return None


def test_theory_test_ids_exist():
    """Every `tests/…::…` pin in docs/theory.md names an existing file,
    class and function (checked on the syntax tree, not by collecting)."""
    theory = (ROOT / "docs" / "theory.md").read_text(encoding="utf-8")
    pins = TEST_ID.findall(theory)
    assert pins, "docs/theory.md pins no tests?"
    stale = []
    for path, chain in pins:
        source = ROOT / path
        if not source.is_file():
            stale.append(path)
            continue
        body = ast.parse(source.read_text(encoding="utf-8")).body
        for part in chain.split("::")[1:]:
            body = _defines(body, part)
            if body is None:
                stale.append(f"{path}{chain}")
                break
    assert not stale, f"docs/theory.md pins missing tests: {stale}"
