# Convenience targets for the reproduction.

# Run from the source tree, with or without `make install`.
export PYTHONPATH := src

.PHONY: install test smoke bench artifacts examples doctest all

install:
	pip install -e .

test:
	pytest tests/

# Boot `repro serve` per scenario and check every identity over HTTP
# (the same command as the CI step).
smoke:
	python scripts/wire_smoke.py

# Every bench once: --benchmark-only would skip the one that times
# itself (vector), which writes BENCH_vector.json.
# The end-to-end benchmark is benchmarks/e2e/run.py; its self-test
# (a CI step) is
#   PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_harness.py
bench:
	pytest benchmarks/ --ignore=benchmarks/e2e --benchmark-disable

artifacts: bench
	@ls benchmarks/output/

# Exits non-zero when any example fails, after running them all.
examples:
	@status=0; for f in examples/*.py; do echo "== $$f"; \
	    if python $$f > /dev/null; then echo ok; \
	    else echo FAILED; status=1; fi; done; exit $$status

doctest:
	pytest --doctest-modules src/repro -q

all: install test bench doctest
