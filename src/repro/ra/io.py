"""Loading and saving fact stores (TSV per relation, directory per DB).

A database maps to a directory with one tab-separated file per
relation (``A.tsv`` holding one row per line).  Values are stored as
text.  On load a cell becomes a number only when it is exactly the
``str()`` of a finite int or float (``7``, ``-3``, ``2.5``,
``1e+20``); every other cell stays text, so ``007``, ``1_000``,
``1.50``, ``1e5``, ``nan`` and a number padded with spaces load as
strings.  A save refuses, with
:class:`~repro.datalog.errors.EvaluationError`, any value that would
not load back as itself — one holding a tab or a line break, a string
that reads as a number, a non-finite float — and any row that would
be an empty line, so what a save writes a load reads back as the same
facts.  A save writes everything or nothing: every relation is
rendered and checked before the first file is written, and a
directory holding a ``*.tsv`` that is not one of the database's
relations is refused (it would load back as an extra relation).  This
keeps EDBs diffable and editable by hand — the right trade-off for a
research library.
"""

from __future__ import annotations

import math
import pathlib
from typing import Iterable

from ..datalog.errors import EvaluationError
from .database import Database

_SUFFIX = ".tsv"


def _render_value(value: object) -> str:
    text = str(value)
    # the reader splits rows with str.splitlines and cells on tabs
    if "\t" in text or text.splitlines() not in ([], [text]):
        raise EvaluationError(
            f"values may not contain tabs or line breaks: {text!r}")
    loaded = _parse_value(text)
    if type(loaded) is not type(value) or loaded != value:
        raise EvaluationError(
            f"value {value!r} would load back as {loaded!r}")
    return text


def _render_rows(rows: Iterable[tuple]) -> str:
    """The TSV text of *rows*, sorted, so repeated saves of equal
    relations produce identical files."""
    lines = []
    for row in sorted(rows, key=repr):
        lines.append("\t".join(_render_value(v) for v in row))
        if not lines[-1]:
            raise EvaluationError(f"row {row!r} would save as an empty "
                                  f"line, which a load skips")
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_value(text: str) -> object:
    try:
        number = int(text)
    except ValueError:
        try:
            number = float(text)
        except ValueError:
            return text
        if not math.isfinite(number):
            return text
    return number if str(number) == text else text


def save_database(database: Database, directory: str | pathlib.Path
                  ) -> None:
    """Write every relation of *database* to ``directory/<name>.tsv``,
    or nothing.

    Rows are written in sorted order, so repeated saves of equal
    databases produce identical files.  Raises
    :class:`~repro.datalog.errors.EvaluationError` before the first
    write when a value would not load back, or when *directory* holds
    a ``*.tsv`` file that names no relation of *database*.
    """
    path = pathlib.Path(directory)
    texts = {name: _render_rows(database.rows(name))
             for name in database.relation_names}
    strays = sorted(file.name for file in path.glob(f"*{_SUFFIX}")
                    if file.stem not in texts)
    if strays:
        raise EvaluationError(f"{path} holds {', '.join(strays)}, which "
                              f"would load back as extra relations")
    path.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (path / f"{name}{_SUFFIX}").write_text(text, encoding="utf-8")


def load_database(directory: str | pathlib.Path) -> Database:
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
    database = Database()
    for file_path in sorted(path.glob(f"*{_SUFFIX}")):
        database.bulk(file_path.stem, load_relation(file_path))
    return database


def load_relation(path: str | pathlib.Path) -> list[tuple]:
    """Read a single TSV file into a row list (without a database)."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    return [tuple(_parse_value(v) for v in line.split("\t"))
            for line in text.splitlines() if line]


def save_relation(rows: Iterable[tuple], path: str | pathlib.Path
                  ) -> None:
    """Write a row collection as one TSV file, rows in sorted order."""
    pathlib.Path(path).write_text(_render_rows(rows), encoding="utf-8")
