"""Steadiness check of the benchmark, run from the root of a checkout.

    python3 perfbench/steady.py --workloads atlas,lattices,oracle --seeds 1-10

For each workload it runs `run.py --trace 0` once per seed, one run at a
time, and reports each end-to-end metric's median and its spread: the
distance between the first and third quartile of the per-seed values, as a
share of their median.  A spread must stay below a third of the metric's
bound in BENCHMARK.json (setup_s is reported but exempt).  With
--trace-seed N it also runs `--trace 1` twice on seed N and requires every
work counter to repeat exactly.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace-seed", type=int)
    args = parser.parse_args()
    ok = True
    report = {}
    for workload in args.workloads.split(","):
        results = [run(workload, seed, 0) for seed in args.seeds]
        bad = [r for r in results if not r["correct"]]
        if bad:
            ok = False
            print(f"{workload}: {len(bad)} runs with wrong outputs")
        report[workload] = {"failed": [r["failed"] for r in results],
                            "attempted": [r["attempted"] for r in results]}
        print(f"{workload:9s} failed {sum(report[workload]['failed'])} of "
              f"{sum(report[workload]['attempted'])} ops (the same seeds must repeat these)")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            spread = 0.0
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            steady = name == "setup_s" or spread < metric["bound"] / 3
            ok &= steady
            report[workload][name] = {"median": median, "spread": spread, "values": values}
            print(f"{workload:9s} {name:12s} median {median:12.6g} {metric['unit']:6s}"
                  f" spread {spread:7.2%}  bound {metric['bound']:.0%}"
                  f"{'' if steady else '  NOT STEADY'}")
        if args.trace_seed is not None:
            first, second = (run(workload, args.trace_seed, 1) for _ in range(2))
            counters = [n for n, v in first["metrics"].items() if v["unit"] in ("count", "ratio")]
            moved = [n for n in counters
                     if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
            ok &= not moved
            print(f"{workload:9s} {len(counters)} counters, "
                  f"{'all repeat exactly' if not moved else 'MOVED: ' + ', '.join(moved)}")
    out = ROOT / ".perfbench" / f"steady-{args.workloads.replace(',', '+')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
