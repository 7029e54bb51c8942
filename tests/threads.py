"""One thread-race harness for tests of state that readers share."""

from __future__ import annotations

import sys
import threading
from typing import Callable


def race(work: Callable[[int], None], threads: int = 8) -> list[str]:
    """Run ``work(n)`` for n in ``range(threads)`` on as many threads,
    released together by a barrier under a 1 µs switch interval; the
    ``repr`` of each exception raised, an ``AssertionError`` included.
    Every thread must finish within a minute."""
    barrier = threading.Barrier(threads, timeout=30)
    failures: list[str] = []

    def run(n: int) -> None:
        barrier.wait()
        try:
            work(n)
        except Exception as error:  # returned to the caller's assert
            failures.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = [threading.Thread(target=run, args=(n,))
                   for n in range(threads)]
        for thread in started:
            thread.start()
        for thread in started:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in started)
    return failures
