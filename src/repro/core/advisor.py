"""Query-form advice: what each adornment buys you.

The paper stresses that for stable formulas "query evaluation plans
for all possible queries are easily found", while other classes help
only some query forms (s12 stabilises for ``P(d,v,v)`` but is stable
from the start for ``P(v,v,d)``).  This module makes that concrete:
for every adornment of a formula it reports the compiled strategy,
the binding sequence, which bound positions actually persist through
the recursion, and a one-word pushdown verdict:

* ``full``    — every bound position stays determined at every depth
  (stable behaviour for this query form);
* ``partial`` — some bound positions persist (selections push part
  way);
* ``none``    — the bindings die out; the fixpoint cannot be
  restricted (only the final selection applies);
* ``finite``  — the formula is bounded: no fixpoint at all, any
  adornment evaluates in constant depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.program import RecursionSystem
from .bindings import (Adornment, BindingSequence, adornment_to_string,
                       all_adornments)
from .classes import Boundedness
from .classifier import Classification
from .compile import (Strategy, SystemCompilation, compile_query,
                      compile_system)
from .report import text_table


@dataclass(frozen=True)
class QueryCapability:
    """What the compiler can do for one query form."""

    adornment: Adornment
    strategy: Strategy
    binding: BindingSequence
    persistent: Adornment
    pushdown: str

    def row(self, arity: int) -> list[str]:
        """A table row for :func:`capability_table`."""
        return [adornment_to_string(self.adornment, arity),
                str(self.strategy),
                self.binding.describe(arity),
                adornment_to_string(self.persistent, arity)
                if self.persistent else "-",
                self.pushdown]


def _verdict(classification: Classification, adornment: Adornment,
             sequence: BindingSequence) -> str:
    if classification.boundedness is Boundedness.BOUNDED:
        return "finite"
    if not adornment:
        return "none"
    persistent = sequence.persistent_positions
    if persistent >= adornment and sequence.stabilises:
        return "full"
    if persistent:
        return "partial"
    return "none"


def advise(system: RecursionSystem,
           classification: (Classification | SystemCompilation
                            | None) = None
           ) -> tuple[QueryCapability, ...]:
    """Capabilities for every adornment of *system*, 2**arity rows,
    which share one :func:`compile_system` (or *classification*, when
    it is that already).

    >>> from ..datalog.parser import parse_system
    >>> caps = advise(parse_system("P(x, y) :- A(x, z), P(z, y)."))
    >>> sorted({c.pushdown for c in caps})
    ['full', 'none']
    """
    shared = classification
    if not isinstance(shared, SystemCompilation):
        shared = compile_system(system, classification)
    out: list[QueryCapability] = []
    for adornment in sorted(all_adornments(system.dimension),
                            key=lambda a: (len(a), sorted(a))):
        compiled = compile_query(system, adornment, shared)
        sequence = compiled.binding
        out.append(QueryCapability(
            adornment=adornment,
            strategy=compiled.strategy,
            binding=sequence,
            persistent=sequence.persistent_positions & adornment
            if adornment else frozenset(),
            pushdown=_verdict(shared.classification, adornment,
                              sequence)))
    return tuple(out)


def capability_table(system: RecursionSystem,
                     classification: (Classification | SystemCompilation
                                      | None) = None) -> str:
    """The capability matrix as a plain-text table."""
    arity = system.dimension
    capabilities = advise(system, classification)
    return text_table(
        ["query form", "strategy", "binding sequence",
         "persistent", "pushdown"],
        [cap.row(arity) for cap in capabilities])
