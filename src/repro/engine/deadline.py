"""Cooperative per-query deadlines: wall clock, row limit, cancel.

A fixpoint cannot be preempted safely — a round half-applied would
leave caches and stats inconsistent — so budgets are enforced
*cooperatively* at round boundaries, the natural commit points of
every engine.  Every round closes through
:meth:`~repro.engine.stats.EvaluationStats.close_round`, which checks
the clock, then the row budget: after each naive sweep, each exit and
delta round of semi-naive, top-down and the compiled ITERATIVE
strategy, each STABLE depth (once its chain step is taken) and each
incremental-maintenance seed and propagation round.  Two checks run
before the work instead: BOUNDED checks before each exit expansion,
being the one strategy that knows which round is its last, and the
magic-binding pass of top-down and ITERATIVE checks the clock before
each of its rounds.  A derived relation built below a query (a view or
recursion the session derives, class C's auxiliary recursion) runs
under :meth:`Deadline.clock`: the query's clock and cancel flag, once
per round of the build, but not its row budget, which bounds answers.
The three aborts behave differently, on purpose:

* the **wall-clock budget** raises :class:`QueryTimeout` — time ran
  out, and a partial fixpoint at an arbitrary cut is not worth
  returning against an unbounded wait;
* the **row budget** stops the loop and marks the stats
  ``truncated`` — every tuple derived so far is a *true* answer
  (bottom-up derivations are sound at every prefix), so the partial
  set is returned along with the truncation flag.  The limit bounds
  the work per round boundary; the final round may overshoot it by
  its own delta;
* the **cancel flag** raises :class:`QueryCancelled` — somebody
  (``DELETE /jobs/<id>``, a draining server) asked for the evaluation
  to stop, so there is no caller left who wants the partial answers.
  The flag is any object with an ``is_set()`` method (a
  :class:`threading.Event` in practice) and is checked by
  :meth:`Deadline.check_time`, so it rides the exact same
  round-boundary checks the budgets already use — no engine changes.

The deadline rides on :class:`~repro.engine.stats.EvaluationStats`
(the ``deadline`` field), so no engine signature changes: callers that
want budgets set ``stats.deadline`` before evaluating, everyone else
pays one ``None`` check per round.
"""

from __future__ import annotations

from time import perf_counter

from ..datalog.errors import EvaluationError

__all__ = ["Deadline", "QueryCancelled", "QueryTimeout"]


class QueryTimeout(EvaluationError):
    """The query's wall-clock budget expired at a round boundary."""


class QueryCancelled(EvaluationError):
    """The query's cancel flag was set; the fixpoint stopped at a
    round boundary.  Raised instead of returning partial answers —
    cancellation means nobody wants them."""


class Deadline:
    """One query's evaluation budget (every part optional).

    >>> d = Deadline(max_rows=10)
    >>> d.out_of_rows(10), d.out_of_rows(11)
    (False, True)
    >>> Deadline(timeout_s=0.0).check_time()
    Traceback (most recent call last):
        ...
    repro.engine.deadline.QueryTimeout: query exceeded its 0.0s budget
    >>> import threading
    >>> flag = threading.Event()
    >>> d = Deadline(cancel=flag)
    >>> d.check_time()  # not cancelled: no-op
    >>> flag.set(); d.check_time()
    Traceback (most recent call last):
        ...
    repro.engine.deadline.QueryCancelled: query was cancelled
    """

    __slots__ = ("timeout_s", "max_rows", "cancel", "_expires_at")

    def __init__(self, timeout_s: float | None = None,
                 max_rows: int | None = None,
                 cancel=None) -> None:
        self.timeout_s = timeout_s
        self.max_rows = max_rows
        #: optional cancel flag (``is_set() -> bool``); checked first
        #: by :meth:`check_time` so a cancelled query aborts at the
        #: next round boundary even with no time budget
        self.cancel = cancel
        self._expires_at = (perf_counter() + timeout_s
                            if timeout_s is not None else None)

    def check_time(self) -> None:
        """Raise when the budget is spent or the query was cancelled.

        :class:`QueryCancelled` wins over :class:`QueryTimeout` when
        both hold — a cancel is an explicit request, the timeout a
        default policy.
        """
        if self.cancel is not None and self.cancel.is_set():
            raise QueryCancelled("query was cancelled")
        if (self._expires_at is not None
                and perf_counter() >= self._expires_at):
            raise QueryTimeout(
                f"query exceeded its {self.timeout_s}s budget")

    def clock(self) -> "Deadline":
        """This deadline's clock and cancel flag, with no row budget:
        what bounds a derived relation built below a query, whose rows
        are no answers."""
        clock = Deadline(cancel=self.cancel)
        clock.timeout_s, clock._expires_at = self.timeout_s, self._expires_at
        return clock

    def out_of_rows(self, produced: int) -> bool:
        """True when *produced* rows exceed the row budget."""
        return self.max_rows is not None and produced > self.max_rows

    def __repr__(self) -> str:
        return (f"Deadline(timeout_s={self.timeout_s}, "
                f"max_rows={self.max_rows}, "
                f"cancellable={self.cancel is not None})")
