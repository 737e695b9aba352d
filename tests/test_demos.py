import json
from pathlib import Path

import pytest

from capture_outputs import GOLDEN, digest
from oracles import run_python

DEMOS = Path(__file__).resolve().parents[1] / "demos"
PERFBENCH = DEMOS.parent / "perfbench"
DEMO_STDOUT = {e["demo"]: e["stdout"] for e in json.loads(GOLDEN.read_text()) if "demo" in e}


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    done = run_python([str(DEMOS / demo)], timeout=300)
    assert done.returncode == 0, done.stderr
    assert digest(done.stdout) == DEMO_STDOUT[demo], (
        f"{demo}'s stdout differs from {GOLDEN.name} (regenerate it with "
        "`python3 tests/capture_outputs.py --golden` only for an intended change)"
    )


def test_benchmark_targets_and_public_names_resolve():
    # the traced benchmark wraps these names, and `import *` binds every
    # public name the package's __init__ imports: deleting a name either
    # uses must fail here, not in a benchmark run
    code = (
        "import run\n"
        "targets = run.trace_targets()\n"
        "assert targets\n"
        "for module, attr, *_ in targets:\n"
        "    getattr(module, attr)\n"
        "print('trace targets resolve')\n"
        "from degen_atlas import *\n"
        "print('import * resolves')\n"
    )
    done = run_python(["-c", code], timeout=120, cwd=PERFBENCH)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["trace targets resolve", "import * resolves"]
