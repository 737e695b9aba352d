"""Print the outputs of the CLI and the demos, to compare two checkouts.

Runs 81 `degen-atlas` commands and the five demos of the checkout this
file belongs to, each in a fresh interpreter, and prints every command
with its exit code, stdout and stderr.  Two checkouts give the same
outputs when the captures are byte-identical:

    python3 tests/capture_outputs.py > after.txt
    python3 /path/to/other/checkout/tests/capture_outputs.py > before.txt
    diff before.txt after.txt

A full capture takes about 16 s on a 2-vCPU machine.

`tests/golden_outputs.json` pins these outputs in tier-1: for each CLI
command its argv, exit code, and the SHA-256 and byte length of its stdout
and stderr, run in one process through `cli.run`; for each demo the digest
of its stdout.  A change that means to change an output rewrites it with

    python3 tests/capture_outputs.py --golden
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from degen_atlas import cli  # noqa: E402
from degen_atlas.surface_pair import catalogue_ids  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def cli_commands() -> list[list[str]]:
    """The compared argument lists: the suites, the catalogue listing, one
    valid and three rejected `build`s, an `oracle` with too many trials, and
    every per-model report in text and JSON."""
    commands = [
        ["verify", "--all"],
        ["verify", "--all", "--json"],
        ["list"],
        ["list", "--full", "--json"],
        ["build", "--v0", "P2", "--v1", "P2", "--n", "9", "--json", "--h",
         "l-e1+4l'-2e'1-e'2-e'3-e'4-e'5-e'6-e'7-e'8-e'9"],
        ["build", "--v0", "P2", "--v1", "P2", "--n", "9", "--h", "l"],
        ["build", "--v0", "P1xP1", "--v1", "P2", "--n", "2", "--h", "3l-e1"],
        ["build", "--v0", "P2", "--v1", "P2", "--n", "99"],
        ["oracle", "D17", "--trials", "99999999999999999999999"],
    ]
    for mid in catalogue_ids():
        commands += [
            ["roots", mid],
            ["roots", mid, "--json"],
            ["roots", mid, "--bound", "2", "--json"],
            ["roots", mid, "--bound", "3", "--json"],
            ["relation", mid, "--json"],
            ["oracle", mid, "--seed", "0", "--json"],
            ["chambers", mid],
            ["chambers", mid, "--json"],
        ]
    return commands


def demos() -> list[Path]:
    return sorted((ROOT / "demos").glob("*.py"))


def run_script(args: list[str]) -> subprocess.CompletedProcess:
    """`python *args` with this checkout's package importable."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT
    )


def capture(title: str, args: list[str]) -> str:
    """`python *args`, its exit code and both streams, as text."""
    done = run_script(args)
    return (
        f"$ {title}\nexit {done.returncode}\n"
        f"--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
    )


def run_in_process(args: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `degen-atlas *args`, run through
    `cli.run` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> dict:
    data = text.encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "length": len(data)}


def golden_entry(args: list[str]) -> dict:
    """The golden file's entry for one command, from an in-process run."""
    code, out, err = run_in_process(args)
    return {"argv": args, "exit": code, "stdout": digest(out), "stderr": digest(err)}


def demo_entry(demo: Path) -> dict:
    """The golden file's entry for one demo: the digest of its stdout."""
    done = run_script([str(demo)])
    if done.returncode:
        sys.exit(f"{demo.name} exited {done.returncode}:\n{done.stderr}")
    return {"demo": demo.name, "stdout": digest(done.stdout)}


if __name__ == "__main__":
    if sys.argv[1:] == ["--golden"]:
        entries = [json.dumps(golden_entry(args)) for args in cli_commands()]
        entries += [json.dumps(demo_entry(demo)) for demo in demos()]
        GOLDEN.write_text("[\n" + ",\n".join(entries) + "\n]\n")
        sys.exit()
    for args in cli_commands():
        print(capture(" ".join(["degen-atlas", *args]), ["-m", "degen_atlas.cli", *args]))
    for demo in demos():
        name = demo.relative_to(ROOT).as_posix()
        print(capture(f"python {name}", [str(demo)]))
