"""Storage substrate: the fact store every engine runs on.

* :class:`Database` (``database.py``) — named relations of dictionary
  encoded rows with lazily built, version-tagged hash tables, the one
  access path of the join kernel;
* :class:`SymbolTable` (``symbols.py``) — the constant dictionary the
  rows are encoded in;
* :class:`AnswerSet` (``answers.py``) — the lazily decoded answer
  relation every engine returns;
* TSV persistence (``io.py``) — one file per relation.
"""

from .answers import AnswerSet
from .database import Database, Pattern
from .io import (load_database, load_relation, save_database,
                 save_relation)
from .symbols import SymbolTable

__all__ = [
    "AnswerSet", "Database", "Pattern", "SymbolTable",
    "load_database", "load_relation", "save_database", "save_relation",
]
