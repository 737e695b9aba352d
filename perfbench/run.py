"""Benchmark of the degen_atlas package, run from the root of a checkout.

    python3 perfbench/run.py --workload atlas|lattices|oracle --seed N \
        --seconds S --trace 0|1

With --trace 0 it sets the package up several times in child processes,
then runs as many passes of the workload as take about S seconds on the
reference host (at least one; the count follows from S alone, so a seed
always gives the same ops), and prints the end-to-end metrics, with times
scaled by the machine speed measured while or right after they ran (see
clock.py).  With --trace 1 it sets up and runs pass 0 under the tracer,
prints the per-layer metrics and writes the spans to
.perfbench/trace-<workload>-<seed>.json.  Every run checks the outputs,
prints a metadata line, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11

sys.path.insert(0, str(BENCH))

from clock import REFERENCE_NOMINAL_S, Clock  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import EXPECTED, WORKLOADS, passes  # noqa: E402

SETUP_CHILD = """
import statistics, sys
from time import perf_counter
from workloads import WORKLOADS
t0 = perf_counter()
WORKLOADS[sys.argv[1]].setup()
setup_s = perf_counter() - t0
from clock import reference_kernel
reference_s = []
for _ in range(12):
    t0 = perf_counter()
    reference_kernel()
    reference_s.append(perf_counter() - t0)
print(setup_s, statistics.median(reference_s[4:]))
"""


def setup_seconds(workload: str) -> list[tuple[float, float]]:
    """(set-up time, slowdown) of fresh interpreters.  Set-up is the import
    plus the tables the workload needs; the slowdown comes from reference
    calls made right after it, once the first four have warmed up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, workload],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        setup_s, reference_s = map(float, done.stdout.split()[-2:])
        times.append((setup_s, reference_s / REFERENCE_NOMINAL_S))
    return times


def run_pass(wl, state, seed: int, pass_index: int, clock: Clock):
    """The pass's ops and time, less the reference calls."""
    inputs = wl.inputs(seed, pass_index)
    with clock:
        t0 = perf_counter()
        ops = wl.run_pass(state, inputs, clock)
        dt = perf_counter() - t0
    return ops, dt - clock.reference_s


def trace_targets():
    """What the traced run wraps, with the counters each call adds to."""
    from degen_atlas import (chamber_walk, ec_oracle, exact_lattice,
                             period_relations, root_classifier, surface_pair)

    span = "span"
    return [
        (exact_lattice, "enumerate_short", span,
         lambda r: [("exact_lattice.enumerate_short.vectors", len(r))], None),
        (exact_lattice, "hnf", span, None, None),
        (exact_lattice, "snf", span, None, None),
        (exact_lattice, "in_span", span, None, None),
        (root_classifier, "script_L", span, None, None),
        (root_classifier, "generalized_roots", span,
         lambda r: [("root_classifier.generalized_roots.roots", len(r.all_roots()))], None),
        (root_classifier, "classify", span, None, None),
        (period_relations, "imposed_relations", span, None, None),
        (period_relations, "derive", span, None, None),
        (surface_pair, "flop", span, None, None),
        (surface_pair, "curve_catalogue", span, None, None),
        (chamber_walk, "lift_fan", span, None, lambda model: model.id),
        (ec_oracle, "randomized_membership_test", span,
         lambda r: [("ec_oracle.trials", r.trials)], None),
        (ec_oracle, "pinned_curves", span, None, None),
        (ec_oracle, "scalar_mul", "count", None, None),
    ]


def layer_metrics(tracer: Tracer, row_keys, overhead_s: float) -> dict:
    roots = "root_classifier.generalized_roots"
    total, own, per_op = Counter(), Counter(), Counter()
    derive_s = []
    for (name, start, end, _, op, label), self_s in zip(tracer.spans, tracer.self_times()):
        total[name] += end - start
        own[name] += self_s
        per_op[name, label or op] += self_s if name == roots else end - start
        if name == "period_relations.derive" and op == "relations":
            derive_s.append(end - start)
    counts = tracer.counts
    m = {}

    def put(name, value, unit="s"):
        m[name] = {"value": value, "unit": unit}

    for name in ("exact_lattice.enumerate_short", "exact_lattice.hnf", "exact_lattice.snf",
                 "exact_lattice.in_span", "surface_pair.flop", "surface_pair.curve_catalogue",
                 "ec_oracle.randomized_membership_test"):
        put(f"{name}.s", total[name])
        put(f"{name}.calls", counts[f"{name}.calls"], "count")
    for name in ("root_classifier.script_L", "root_classifier.classify",
                 "period_relations.imposed_relations", "period_relations.derive",
                 "chamber_walk.lift_fan", "ec_oracle.pinned_curves"):
        put(f"{name}.s", total[name])
    vectors = counts["exact_lattice.enumerate_short.vectors"]
    put("exact_lattice.enumerate_short.vectors", vectors, "count")
    put(f"{roots}.self_s", own[roots])
    put(f"{roots}.kept_ratio", counts[f"{roots}.roots"] / vectors if vectors else 0.0, "ratio")
    put("ec_oracle.trials", counts["ec_oracle.trials"], "count")
    put("ec_oracle.scalar_mul.calls", counts["ec_oracle.scalar_mul.calls"], "count")
    for mid in EXPECTED["types"]:
        op = f"classification:{mid}"
        put(f"atlas.{mid}.script_L.s", per_op["root_classifier.script_L", op])
        put(f"atlas.{mid}.enumerate_short.s", per_op["exact_lattice.enumerate_short", op])
        put(f"atlas.{mid}.generalized_roots_self.s", per_op[roots, op])
        put(f"atlas.{mid}.classify.s", per_op["root_classifier.classify", op])
        put(f"atlas.{mid}.lift_fan.s", per_op["chamber_walk.lift_fan", mid])
    # verify_relations derives the rows once each, in relation_rows() order
    by_row = dict(zip(row_keys, derive_s)) if len(derive_s) == len(row_keys) else {}
    for key in EXPECTED["certificates"]:
        put(f"atlas.{key}.derive.s", by_row.get(key, 0.0))
    put("trace.overhead_s", overhead_s)
    return m


def quantile(values, q: int) -> float:
    """The q-th decile (q = 5 is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def metadata(args) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "degen_atlas" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'degen_atlas'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    meta = metadata(args)
    ops, latencies, pass_times = [], [], []
    if args.trace == 0:
        setups = setup_seconds(args.workload)
        state = wl.setup()
        slowdowns, measured = [], []
        for pass_index in range(passes(wl, args.seconds)):
            clock = Clock(calibrate=True)
            pass_ops, dt = run_pass(wl, state, args.seed, pass_index, clock)
            ops += pass_ops
            latencies += clock.latencies()
            pass_times.append(clock.scaled(dt))
            measured.append(dt)
            slowdowns.append(clock.slowdown())
        metrics = {
            "setup_s": {"value": statistics.median(s / slow for s, slow in setups), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "ok_ratio": {"value": sum(op.error is None for op in ops) / len(ops), "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "latency_p50_s": {"value": quantile(latencies, 5), "unit": "s"},
            "latency_p90_s": {"value": quantile(latencies, 9), "unit": "s"},
            "work_per_s": {"value": sum(op.units for op in ops) / sum(pass_times), "unit": "1/s"},
        }
        meta.update(setup_s_measured=[s for s, _ in setups],
                    setup_slowdown=[slow for _, slow in setups],
                    pass_s_measured=measured, pass_slowdown=slowdowns)
    else:
        tracer = Tracer()
        tracer.install("degen_atlas", trace_targets())
        try:
            tracer.op = "setup"
            state = wl.setup()
            clock = Clock(tracer)
            ops, dt = run_pass(wl, state, args.seed, 0, clock)
            latencies = clock.latencies()
        finally:
            tracer.uninstall()
        pass_times = [dt]
        metrics = layer_metrics(tracer, getattr(state, "row_keys", ()), tracer.overhead_s())

    failed = [op for op in ops if op.error is not None]
    unexpected = [op for op in failed if not op.known_defect]
    meta.update(
        passes=len(pass_times),
        pass_s=pass_times,
        latency_samples=len(latencies),
        known_defect_failures=len(failed) - len(unexpected),
        unexpected_failures=[f"{op.id}: {op.error}" for op in unexpected[:20]],
    )
    if args.workload == "lattices":
        lattices = wl.inputs(args.seed, 0)
        skews = sorted(lat.skew for lat in lattices)
        meta["pass0_lattices"] = {
            "count": len(lattices),
            "ranks": [min(l.rank for l in lattices), max(l.rank for l in lattices)],
            "moves_per_lattice": "rank - 1",
            "skew_max_gram_entry": {"median": statistics.median(skews), "max": skews[-1]},
            "two_minus4_share": sum(l.minus4 == 2 for l in lattices) / len(lattices),
        }
    print(json.dumps({"meta": meta}))
    if args.trace == 1:
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json", meta=meta, metrics=metrics)
    print(json.dumps({"correct": not unexpected, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
