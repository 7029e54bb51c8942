# Convenience targets for the reproduction.

.PHONY: install test bench artifacts examples doctest lint-self all

install:
	pip install -e .

test:
	pytest tests/

# Every bench once: --benchmark-only would skip the ones that time
# themselves (setjoin, vector), which write the BENCH_*.json files.
# The end-to-end benchmark is benchmarks/e2e/run.py.
bench:
	pytest benchmarks/ --ignore=benchmarks/e2e --benchmark-disable

artifacts: bench
	@ls benchmarks/output/

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null \
	    && echo ok || echo FAILED; done

doctest:
	pytest --doctest-modules src/repro -q

all: install test bench doctest
