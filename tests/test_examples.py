"""Smoke-run every example script and check its key output."""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

#: script name → fragments its stdout must contain
EXPECTED = {
    "quickstart.py": ["compiled", "nodes reachable from n0"],
    "classification_tour.py": ["s12", "class F (mixed)"],
    "genealogy.py": ["descendants of alice", "same generation as heidi"],
    "bill_of_materials.py": ["wheel transitively contains",
                             "pseudo recursion"],
    "org_chart.py": ["everyone under maria", "after hiring uma"],
    "paper_walkthrough.py": ["Figure 1", "measured: 2",
                             "classification of every example"],
}


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    for fragment in EXPECTED[script]:
        assert fragment.lower() in out.lower(), (script, fragment)


def test_every_example_is_covered():
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    assert scripts == set(EXPECTED)
