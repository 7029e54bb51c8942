"""Shared fixtures: paper systems, small databases, engine instances,
a running query server."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.datalog import parse_system
from repro.engine import CompiledEngine, NaiveEngine, SemiNaiveEngine
from repro.ra import Database
from repro.workloads import CATALOGUE, chain

from .wire import served


@pytest.fixture
def tc_system():
    """Transitive closure, the paper's (s1a)."""
    return parse_system("P(x, y) :- A(x, z), P(z, y).")


@pytest.fixture
def tc_chain_db():
    """A 6-edge chain with reflexive exit for transitive closure."""
    return Database.from_dict({
        "A": chain(6),
        "P__exit": [(f"n{i}", f"n{i}") for i in range(7)],
    })


@pytest.fixture(params=sorted(CATALOGUE))
def catalogue_entry(request):
    """Every formula of the paper catalogue, one at a time."""
    return CATALOGUE[request.param]


@pytest.fixture
def engines():
    """One instance of each engine."""
    return (NaiveEngine(), SemiNaiveEngine(), CompiledEngine())


@pytest.fixture(scope="session")
def e2e_gen():
    """The end-to-end benchmark's data generator, loaded by path, so a
    test reads the data and constants the benchmark measures."""
    spec = importlib.util.spec_from_file_location(
        "e2e_gen", pathlib.Path(__file__).parent.parent / "benchmarks"
        / "e2e" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def paper_system(name: str):
    """A fresh recursion system for a named catalogue entry."""
    return CATALOGUE[name].system()


@pytest.fixture()
def server(request):
    """A running query server over ``tests/wire.py``'s TC program;
    indirect parameters are :class:`~repro.server.QueryServer`
    keyword arguments."""
    with served(**getattr(request, "param", {})) as instance:
        yield instance
