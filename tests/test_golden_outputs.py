"""The CLI's outputs, pinned: every command of `capture_outputs.cli_commands`
must give the exit code and the stdout and stderr digests recorded in
`golden_outputs.json`.  The file's demo entries are checked by
`test_demos.test_demo_runs`."""

import json

from capture_outputs import GOLDEN, cli_commands, golden_entry


def test_cli_outputs_match_the_golden_file():
    golden = [entry for entry in json.loads(GOLDEN.read_text()) if "argv" in entry]
    assert [entry["argv"] for entry in golden] == cli_commands()
    differing = [" ".join(entry["argv"]) for entry in golden if golden_entry(entry["argv"]) != entry]
    assert not differing, (
        f"{len(differing)} outputs differ from {GOLDEN.name} (regenerate it with "
        "`python3 tests/capture_outputs.py --golden` only for an intended change):\n"
        + "\n".join(differing)
    )
