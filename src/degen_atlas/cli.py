"""Command-line front end.

Every subcommand builds one report dict; `--json` prints it as JSON and the
default text rendering is derived from the same dict, so the two formats
always agree field for field.  Exit codes: 0 success, 1 verification
failure or broken invariant, 2 usage error, 141 when the reader of stdout
closes it early.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chamber_walk import fan_diagram, lift_fan, verify_fans
from .ec_oracle import pinned_curves, randomized_membership_test
from .exact_lattice import InvariantError
from .period_relations import (
    derive,
    relation_rows,
    verify_relations,
)
from .root_classifier import (
    classify,
    generalized_roots,
    root_report,
    script_L,
    verify_classification,
)
from .surface_pair import (
    build_model,
    catalogue_ids,
    catalogue_model,
    export_model,
    intersect,
    parse_class,
    surface_name,
)

SCHEMA = "degen-atlas/1"


def _model_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", choices=list(catalogue_ids()), help="catalogue model id")


def _json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degen-atlas",
        description="Exact computations for two-component degenerations of "
        "quartic K3 surfaces: root lattices, point relations, chamber fans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="summarize the nine catalogue models")
    p.add_argument(
        "--full",
        action="store_true",
        help="include each model's full lattice data (basis, tags, gram, h, xi)",
    )
    _json_flag(p)

    p = sub.add_parser("roots", help="generalized root lattice of a model")
    _model_arg(p)
    p.add_argument(
        "--bound", type=int, choices=(2, 3, 4), default=4,
        help="norm bound, at most 4 since generalized roots have norm -2 or -4 (default 4)",
    )
    _json_flag(p)

    p = sub.add_parser("relation", help="imposed point relations and the certificate")
    _model_arg(p)
    _json_flag(p)

    p = sub.add_parser("chambers", help="wall-and-chamber decomposition of the cone")
    _model_arg(p)
    _json_flag(p)

    p = sub.add_parser("build", help="construct a custom two-component model")
    p.add_argument("--v0", required=True, choices=["P2", "P1xP1"])
    p.add_argument("--v1", required=True, choices=["P2", "P1xP1"])
    p.add_argument("--n", required=True, type=int, help="points blown up on V0")
    p.add_argument("--h", help="polarization in basis-name syntax, e.g. '3l-e1-e2'")
    _json_flag(p)

    p = sub.add_parser("oracle", help="numerically corroborate a model's relation")
    _model_arg(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    _json_flag(p)

    p = sub.add_parser("verify", help="run the full verification suites")
    p.add_argument("--all", action="store_true", required=True)
    _json_flag(p)
    return parser


def _render(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.append(_render(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_flat(v)}")
        return "\n".join(lines)
    if isinstance(value, list):
        out = []
        for v in value:
            if isinstance(v, dict):
                body = _render(v, indent + 1)
                out.append(f"{pad}-\n{body}" if body else f"{pad}-")
            elif isinstance(v, list) and not _is_flat(v):
                out.append(_render(v, indent))
            else:
                out.append(f"{pad}- {_flat(v)}")
        return "\n".join(out)
    return f"{pad}{value}"


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v) and len(v) <= 24
    return False


def _flat(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


def _emit(report: dict, as_json: bool, text: str | None = None) -> None:
    if as_json:
        print(json.dumps(report, indent=1))
    else:
        print(_render(report))
        if text:
            print()
            print(text)


def _row_for(model_id: str):
    """The model's relation row in its catalogue state, with no flops."""
    for row in relation_rows():
        if row.model_id == model_id and not row.flops:
            return row
    raise KeyError(model_id)


def cmd_list(args) -> int:
    rows = []
    for mid in catalogue_ids():
        m = catalogue_model(mid)
        row = {
            "id": mid,
            "V0": surface_name(m, 0),
            "V1": surface_name(m, 1),
            "d": m.d,
            "relation": _row_for(mid).display,
        }
        if args.full:
            row.update(export_model(m))
        rows.append(row)
    report = {"schema": SCHEMA, "command": "list", "models": rows}
    _emit(report, getattr(args, "json", False))
    return 0


def cmd_roots(args) -> int:
    m = catalogue_model(args.model)
    L = script_L(m)
    roots = generalized_roots(L, args.bound)
    t = classify(roots)
    report = {
        "schema": SCHEMA,
        "command": f"roots {args.model}",
        "model": args.model,
        **root_report(t, roots),
        "simple_roots": [
            [list(L.lift(v)) for v in comp] for comp in t.simple_roots
        ],
    }
    _emit(report, args.json)
    return 0


def cmd_relation(args) -> int:
    row = _row_for(args.model)
    _, _, system, target = row.oriented()
    res = derive(system, target)
    report = {
        "schema": SCHEMA,
        "command": f"relation {args.model}",
        "model": args.model,
        "imposed": {
            "R_h": str(system.r_h),
            "R_xi": str(system.r_xi),
            "aux": [str(a) for a in system.aux],
        },
        "relation": row.display,
        "target": {s: c for s, c in target.coeffs},
        "status": res.status,
        "certificate": list(res.coefficients) if res.coefficients else None,
    }
    _emit(report, args.json)
    return 0 if res.certified else 1


def cmd_chambers(args) -> int:
    fan = lift_fan(catalogue_model(args.model))
    report = {"schema": SCHEMA, "command": f"chambers {args.model}", **fan.as_json()}
    _emit(report, args.json, text=None if args.json else fan_diagram(fan))
    return 0


def cmd_build(args) -> int:
    m = build_model(args.v0, args.v1, args.n)
    if args.h is not None:
        m = build_model(args.v0, args.v1, args.n, h=parse_class(m.lattice, args.h))
    report = {"schema": SCHEMA, "command": "build", **export_model(m)}
    if args.h is not None:
        report["h_square"] = intersect(m, m.h, m.h)
    else:
        del report["h"]  # no polarization was requested
    _emit(report, args.json)
    return 0


def cmd_oracle(args) -> int:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("DEGEN_ATLAS_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"DEGEN_ATLAS_SEED must be an integer, got {raw!r}") from None
    row = _row_for(args.model)
    _, _, system, target = row.oriented()
    verdicts = []
    ok = True
    for curve in pinned_curves():
        v = randomized_membership_test(
            system, target, trials=args.trials, curve=curve, seed=seed
        )
        verdicts.append(
            {"p": curve.p, "a": curve.a, "b": curve.b,
             "subgroup_order": curve.exponent, **v.as_json()}
        )
        ok &= v.verdict == "SUPPORTED"
    report = {
        "schema": SCHEMA,
        "command": f"oracle {args.model}",
        "model": args.model,
        "relation": row.display,
        "trials": args.trials,
        "seed": seed,
        "curves": verdicts,
    }
    _emit(report, args.json)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    reports = [verify_classification(), verify_relations(), verify_fans()]
    checks = []
    for rep in reports:
        section = rep.get("models") or rep.get("rows")
        for name, entry in section.items():
            checks.append(
                {"suite": rep["suite"], "check": name, "ok": bool(entry["ok"])}
            )
    n_pass = sum(1 for c in checks if c["ok"])
    report = {
        "schema": SCHEMA,
        "command": "verify --all",
        "checks": checks,
        "passed": n_pass,
        "failed": len(checks) - n_pass,
        "pass": n_pass == len(checks),
    }
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        for c in checks:
            print(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['suite']}: {c['check']}")
        print(f"{n_pass}/{len(checks)} checks passed")
    if report["pass"]:
        return 0
    print("verification failed", file=sys.stderr)
    return 1


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list": cmd_list,
        "roots": cmd_roots,
        "relation": cmd_relation,
        "chambers": cmd_chambers,
        "build": cmd_build,
        "oracle": cmd_oracle,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except InvariantError as exc:  # a broken invariant, UnclassifiableError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:  # a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # The reader closed stdout (`... | head -1`).  The recipe of the
        # Python `signal` docs: point stdout at devnull so that the flush at
        # exit cannot fail again, and exit as a shell reports SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
