from pathlib import Path

import pytest

from oracles import run_python

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    done = run_python([str(DEMOS / demo)], timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
