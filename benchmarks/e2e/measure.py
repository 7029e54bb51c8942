"""Statistics and probes shared by the runner, the worker and compare."""

from __future__ import annotations

import math
from time import perf_counter

#: nearest-rank p90 needs ten samples beyond it to be a percentile at all
MIN_P90_SAMPLES = 100
#: a window short of MIN_P90_SAMPLES runs on, up to this many times its
#: length: served-enum's ~100 ops fill 20 s on a fast machine state and
#: over 30 s on a slow one
MAX_STRETCH = 4
#: untimed warm-up between the last set-up and the measured window
#: (the set-up's first op has already filled the caches a workload
#: reuses)
WARMUP_S = 1.0


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def nearest_rank(values: list[float], q: float) -> float:
    """The nearest-rank *q*-quantile: the smallest value with at least
    ``q * n`` of the sample at or below it."""
    if not values:
        raise TooFewSamples("no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def p90(values: list[float]) -> float:
    if len(values) < MIN_P90_SAMPLES:
        raise TooFewSamples(f"p90 of {len(values)} samples "
                            f"(needs {MIN_P90_SAMPLES})")
    return nearest_rank(values, 0.9)


def stretch(seconds: float) -> float:
    """How far past its end a *seconds* window may run on for samples."""
    return seconds * (MAX_STRETCH - 1)


def closed_loop(turns, run_op, until: float, grace: float = 0.0,
                short=lambda: False) -> bool:
    """Run the ops of whole *turns*, one after another, until *until*.

    A turn is the smallest run of ops that holds a stream's whole mix,
    so a window of whole turns holds the same mix whatever the seed.
    While *short()* (too few samples for a p90) the loop runs on, up to
    *grace* seconds past *until*.  Returns False when *turns* ran out
    first."""
    for turn in turns:
        for op in turn:
            run_op(op)
        now = perf_counter()
        if now >= until and (now >= until + grace or not short()):
            return True
    return False


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process: the peak resident set, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError(f"no VmHWM for process {pid}")


def calibration_ms(repeats: int = 3) -> float:
    """Best-of-*repeats* time of a fixed pure-python loop: a machine
    speed reference recorded beside every workload."""
    best = math.inf
    for _ in range(repeats):
        started = perf_counter()
        table: dict[int, int] = {}
        total = 0
        for i in range(750_000):
            table[i & 1023] = total
            total += (i * i) % 7
        best = min(best, perf_counter() - started)
    return best * 1000


#: fingerprints sum 64-bit row hashes: order-free, and any wrong,
#: missing or extra row changes them
_MASK = (1 << 64) - 1


def fingerprint(rows) -> list[int]:
    """``[count, sum of row hashes]`` of a sized collection of value
    rows (a list, so it survives a JSON round trip).  Comparable
    between processes only under the same ``PYTHONHASHSEED``."""
    return [len(rows), sum(map(hash, rows)) & _MASK]
