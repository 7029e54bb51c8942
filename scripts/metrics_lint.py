"""CI lint: the metric reference in ``docs/observability.md`` and the
families ``/metrics`` actually exposes must agree.

Metric families are declared lazily (first write), so a plain boot
exposes almost nothing.  The lint therefore boots ``repro serve`` and
drives one request of every shape that owns a family — several
engines, a cache-hit repeat, a deliberate timeout, a
deliberate truncation, a ``/facts`` batch, and one background job run
to completion — with ``--trace-sample 1.0 --exemplars`` so the flight
recorder and exemplar paths are live too.  Then:

* every family named in an ``observability.md`` table row must be
  exposed by ``GET /metrics`` (``# TYPE`` line), unless it is in
  ``ALLOWED_TIMING`` — families only a race can trigger (admission
  rejections, cooperative cancellations, genuine evaluation errors) —
  or, without numpy, in ``NUMPY_ONLY`` (the vector-kernel counters);
* every exposed family must be documented — an undocumented family
  always fails, there is no allowlist in that direction.

Exits non-zero listing every stale or undocumented name.

Usage::

    PYTHONPATH=src python scripts/metrics_lint.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from repro.engine.vector import HAVE_NUMPY  # noqa: E402

DOC = os.path.join(os.path.dirname(SRC), "docs", "observability.md")

#: documented families that only a race or a failure can write —
#: tolerated as absent from the driven exposure, never as stale docs
ALLOWED_TIMING = {
    "repro_queries_rejected_total",   # needs a 429 under contention
    "repro_queries_cancelled_total",  # needs a mid-evaluation cancel
    "repro_query_errors_total",       # needs a genuine engine failure
}

#: documented families only the numpy kernel writes — tolerated as
#: absent when numpy is not installed (every round then runs the
#: python loop), required when it is
NUMPY_ONLY = {"repro_vector_batches_total", "repro_vector_rows_total"}

_DOC_NAME = re.compile(r"`(repro_[a-z0-9_]+)`")
_TYPE_LINE = re.compile(r"^# TYPE (repro_[a-z0-9_]+) "
                        r"(?:counter|gauge|histogram)$", re.MULTILINE)

PROGRAM = "\n".join(
    ["P(x, y) :- A(x, z), P(z, y).", "P(x, y) :- A(x, y)."]
    + [f"A(n{i}, n{i + 1})." for i in range(8)]) + "\n"


def documented_families() -> set[str]:
    """Family names from the markdown tables (rows starting '|')."""
    names: set[str] = set()
    with open(DOC, encoding="utf-8") as handle:
        for line in handle:
            if line.lstrip().startswith("|"):
                names.update(_DOC_NAME.findall(line))
    return names


def _request(base: str, path: str, document: dict | None = None,
             method: str | None = None) -> tuple[int, dict]:
    data = (json.dumps(document).encode("utf-8")
            if document is not None else None)
    request = urllib.request.Request(
        base + path, data, {"Content-Type": "application/json"},
        method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def drive(base: str) -> None:
    """One request per family-owning shape; outcomes are asserted so
    a silently changed route cannot hollow the lint out."""
    for document, status in [
        ({"query": "P(n0, Y)"}, 200),                      # compiled
        ({"query": "P(X, Y)", "engine": "semi-naive"}, 200),
        ({"query": "P(n0, Y)", "engine": "top-down"}, 200),
        ({"query": "P(n0, Y)"}, 200),                      # cache hit
        ({"query": "P(n2, Y)", "max_rows": 1}, 200),       # truncated
        ({"query": "P(n3, Y)", "timeout_s": 0}, 408),      # timeout
    ]:
        got, _ = _request(base, "/query", document)
        assert got == status, (document, got)
    got, _ = _request(base, "/facts",
                      {"add": {"A": [["n8", "n9"]]}})
    assert got == 200, got
    got, job = _request(base, "/query",
                        {"query": "P(n0, Y)", "mode": "async"})
    assert got == 202, got
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        got, state = _request(base, job["status_url"])
        if state["state"] not in ("queued", "running"):
            break
        time.sleep(0.02)
    assert state["state"] == "done", state


def exposed_families(base: str) -> set[str]:
    with urllib.request.urlopen(base + "/metrics",
                                timeout=30) as response:
        return set(_TYPE_LINE.findall(response.read().decode("utf-8")))


def main() -> int:
    documented = documented_families()
    assert len(documented) > 30, "observability.md tables not found?"

    with tempfile.TemporaryDirectory() as workdir:
        program = os.path.join(workdir, "tc.dl")
        with open(program, "w", encoding="utf-8") as handle:
            handle.write(PROGRAM)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", program,
             "--port", "0", "--trace-sample", "1.0", "--exemplars"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("serving on http://"), banner
            base = banner.split("serving on ", 1)[1]
            drive(base)
            exposed = exposed_families(base)
        finally:
            process.terminate()
            process.wait(timeout=30)

    failures = 0
    for name in sorted(exposed - documented):
        print(f"undocumented: {name} is exposed by /metrics but "
              f"missing from docs/observability.md", file=sys.stderr)
        failures += 1
    tolerated = ALLOWED_TIMING | (set() if HAVE_NUMPY else NUMPY_ONLY)
    for name in sorted(documented - exposed - tolerated):
        print(f"stale: {name} is documented in docs/observability.md "
              f"but never exposed by the driven server",
              file=sys.stderr)
        failures += 1
    for name in sorted(ALLOWED_TIMING - documented):
        print(f"allowlist rot: {name} is in ALLOWED_TIMING but not "
              f"documented", file=sys.stderr)
        failures += 1

    if failures:
        print(f"metrics lint: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"metrics lint: {len(exposed)} exposed families all "
          f"documented; {len(documented)} documented names accounted "
          f"for ({len(ALLOWED_TIMING)} timing-dependent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
