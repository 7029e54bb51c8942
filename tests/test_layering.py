"""Layering: which modules the engines may import.

A compiled query is resolved once, in :func:`repro.core.compile
.compile_query`; the engines run what it produced.  So no engine module
reads the graph layer, and the compiled engine reads nothing of the
analysis side but the compiler, nor the unifier that derives rules — a
new decision goes into the :class:`~repro.core.compile.CompiledFormula`,
not into the engine.
Checked on the syntax tree, lazy imports inside functions included.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src"
ENGINE = SRC / "repro" / "engine"


def imported_modules(path: pathlib.Path) -> set[str]:
    """Absolute names of what *path* imports: each module, and each
    name imported from one (it may be a submodule)."""
    package = list(path.relative_to(SRC).parent.parts)
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) + 1 - node.level] if node.level \
                else []
            module = ".".join(base + [node.module] if node.module else base)
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


@pytest.mark.parametrize("path", sorted(ENGINE.glob("*.py")),
                         ids=lambda path: path.name)
def test_engines_do_not_import_the_graph_layer(path):
    assert not [name for name in imported_modules(path)
                if _within(name, "repro.graphs")]


def test_compiled_engine_reads_only_the_compiler_of_the_core():
    core = [name for name in imported_modules(ENGINE / "compiled.py")
            if _within(name, "repro.core")]
    assert core, "compiled.py no longer imports the compiler?"
    assert all(_within(name, "repro.core.compile") for name in core), core


def test_compiled_engine_derives_no_rules():
    """The auxiliary recursion of a class C query is derived once, by
    unfolding in the compiler; the engine only runs its rules."""
    assert not [name for name in imported_modules(ENGINE / "compiled.py")
                if _within(name, "repro.datalog.unify")]
