"""Keep the documentation honest: run its Python code blocks.

Extracts every ```python fenced block from docs/tutorial.md and the
README quickstart and executes them in one shared namespace per file.
Comment lines showing expected output (`# ...`) are not asserted —
the point is that the code paths exist and run without error.
"""

import argparse
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)

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
