"""Smoke test of the demos that exercise the public API: each runs to the
end in-process.  Demo 03 (about 4 s) stays out of the fast suite."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_operator_evaluation.py",
                                  "02_constants_chain.py",
                                  "04_growth_lemma_and_dyadic.py",
                                  "05_inequality_fuzzing.py"])
def test_demo_completes(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
