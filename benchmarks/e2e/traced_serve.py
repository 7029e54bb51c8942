"""``repro serve`` with the benchmark's tracing shim installed.

Usage: ``python benchmarks/e2e/traced_serve.py SPANS.jsonl serve ...``
(the arguments after the spans path are ``repro``'s own).  Installs
:mod:`spans` before the CLI runs, and writes the recorded spans when the
server exits (SIGTERM drains it and returns from ``main``).
"""

import sys

import spans


def main(argv: list[str]) -> int:
    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.cli import main as repro_main
    try:
        return repro_main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
