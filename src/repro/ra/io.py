"""Loading and saving fact stores (TSV per relation, directory per DB).

A database maps to a directory with one tab-separated file per
relation (``A.tsv`` holding one row per line).  Values are stored as
text; integers and floats are recovered on load.  This keeps EDBs
diffable and editable by hand — the right trade-off for a research
library.
"""

from __future__ import annotations

import pathlib
from typing import Iterable

from ..datalog.errors import EvaluationError
from .database import Database

_SUFFIX = ".tsv"


def _render_value(value: object) -> str:
    text = str(value)
    if "\t" in text or "\n" in text:
        raise EvaluationError(
            f"values may not contain tabs or newlines: {text!r}")
    return text


def _parse_value(text: str) -> object:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def save_database(database: Database, directory: str | pathlib.Path
                  ) -> None:
    """Write every relation of *database* to ``directory/<name>.tsv``.

    Rows are written in sorted order, so repeated saves of equal
    databases produce identical files.
    """
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    for name in database.relation_names:
        lines = ["\t".join(_render_value(v) for v in row)
                 for row in sorted(database.rows(name), key=repr)]
        (path / f"{name}{_SUFFIX}").write_text(
            "\n".join(lines) + ("\n" if lines else ""),
            encoding="utf-8")


def load_database(directory: str | pathlib.Path,
                  indexed: bool = True) -> Database:
    """Read every ``*.tsv`` file of *directory* into a database.

    >>> import tempfile
    >>> db = Database.from_dict({"A": [("a", 1)]})
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     save_database(db, tmp)
    ...     again = load_database(tmp)
    >>> again.rows("A")
    frozenset({('a', 1)})
    """
    path = pathlib.Path(directory)
    if not path.is_dir():
        raise EvaluationError(f"not a directory: {path}")
    database = Database(indexed=indexed)
    for file_path in sorted(path.glob(f"*{_SUFFIX}")):
        name = file_path.stem
        for line in file_path.read_text(encoding="utf-8").splitlines():
            if not line:
                continue
            database.add(name, tuple(_parse_value(v)
                                     for v in line.split("\t")))
    return database


def load_relation(path: str | pathlib.Path) -> list[tuple]:
    """Read a single TSV file into a row list (without a database)."""
    file_path = pathlib.Path(path)
    rows: list[tuple] = []
    for line in file_path.read_text(encoding="utf-8").splitlines():
        if line:
            rows.append(tuple(_parse_value(v) for v in line.split("\t")))
    return rows


def save_relation(rows: Iterable[tuple], path: str | pathlib.Path
                  ) -> None:
    """Write a row collection as one TSV file."""
    lines = ["\t".join(_render_value(v) for v in row)
             for row in sorted(rows, key=repr)]
    pathlib.Path(path).write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
