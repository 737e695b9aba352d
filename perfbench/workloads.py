"""The benchmark's three workloads.

Each workload has a `setup` (import plus the package tables it needs, the
part that `setup_s` measures), a `pass_s` (the seconds one pass took on a
2-vCPU host with Python 3.11, which sets how many passes a run makes), an
`inputs(seed, pass_index)` that makes one pass's inputs from the seed on
the benchmark side, and a `run_pass` that calls the package through a
`Clock` and returns one `Op` per operation; the clock groups the timed
calls into latency samples.  Outputs are checked against `expected.json`,
which is kept apart from the package's own tables.

Nothing here imports the package at module level, so a set-up child
process can time the import itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from planted import planted_pass

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


@dataclass
class Op:
    id: str
    units: int  # work units: oracle trials on `oracle`, otherwise 1
    error: str | None = None  # None when the output is the expected one
    known_defect: bool = False


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Atlas:
    """The 29 checks of `degen-atlas verify --all`."""

    name = "atlas"
    pass_s = 30.0

    def setup(self):
        from degen_atlas import catalogue, relation_rows

        return SimpleNamespace(models=catalogue(),
                               row_keys=[r.key for r in relation_rows()])

    def inputs(self, seed: int, pass_index: int):
        rng = random.Random(f"atlas/{seed}/{pass_index}")
        order = sorted(EXPECTED["types"])
        rng.shuffle(order)
        return SimpleNamespace(order=order, classify_seed=rng.randrange(2 ** 31))

    def run_pass(self, state, inp, clock):
        """One latency sample per call: each classification, and each of
        the two suites, which check 11 rows and 9 fans in one call."""
        from degen_atlas import chamber_walk, period_relations, root_classifier

        ops = []
        for mid in inp.order:
            op_id = f"classification:{mid}"
            with clock.sample():
                report, exc = clock.timed(op_id, root_classifier.verify_classification,
                                          {mid: state.models[mid]}, inp.classify_seed)
            if exc is not None:
                error = _describe(exc)
            else:
                got, want = report["models"][mid]["type"], EXPECTED["types"][mid]
                error = None if got == want else f"type {got}, expected {want}"
            ops.append(Op(op_id, 1, error))
        for suite, fn, section, check in (
            ("relations", period_relations.verify_relations, "rows", self._check_row),
            ("fans", chamber_walk.verify_fans, "models", self._check_fan),
        ):
            with clock.sample():
                report, exc = clock.timed(suite, fn)
            want = EXPECTED["certificates" if suite == "relations" else "fans"]
            for key in want:
                if exc is not None:
                    error = _describe(exc)
                elif key not in report[section]:
                    error = "missing from the report"
                else:
                    error = check(report[section][key], want[key])
                ops.append(Op(f"{suite}:{key}", 1, error))
        return ops

    @staticmethod
    def _check_row(entry, certificate):
        if entry["status"] != "certified" or entry["certificate"] != certificate:
            return f"{entry['status']} {entry['certificate']}, expected {certificate}"
        return None

    @staticmethod
    def _check_fan(entry, fan):
        got = {"boundary": entry["boundary"], "walls": entry["walls"],
               "chambers": entry["chambers"]}
        return None if got == fan else f"fan {got}, expected {fan}"


class Lattices:
    """Planted ADE + <-4> lattices in skewed bases, classified one by one."""

    name = "lattices"
    pass_s = 8.5
    per_pass = 100

    def setup(self):
        import degen_atlas  # noqa: F401  (the import is what is set up)

        return SimpleNamespace()

    def inputs(self, seed: int, pass_index: int):
        return planted_pass(seed, pass_index, self.per_pass)

    def run_pass(self, state, lattices, clock):
        """One latency sample per lattice."""
        from degen_atlas import exact_lattice, root_classifier

        def classify(gram):
            L = root_classifier.ScriptL(gram=exact_lattice.GramForm(gram),
                                        reps=exact_lattice.identity(len(gram)))
            roots = root_classifier.generalized_roots(L)
            return root_classifier.type_string(root_classifier.classify(roots))

        ops = []
        for i, lat in enumerate(lattices):
            op_id = f"lattice:{i}"
            with clock.sample():
                got, exc = clock.timed(op_id, classify, lat.gram)
            op = Op(op_id, 1)
            if exc is not None:
                op.error = _describe(exc)
                op.known_defect = self.is_known_defect(lat, exc)
            elif got != lat.type_string:
                op.error = f"type {got}, planted {lat.type_string}"
            ops.append(op)
        return ops

    @staticmethod
    def is_known_defect(lat, exc) -> bool:
        """`classify` takes the <-4> generators from the HNF basis of the
        norm -4 roots orthogonal to the simple roots.  With two <-4>
        summands in a non-diagonal basis that basis can mix the generators,
        and `classify` raises UnclassifiableError on a valid lattice."""
        return lat.minus4 == 2 and type(exc).__name__ == "UnclassifiableError"


class Oracle:
    """Membership tests: each certified row SUPPORTED, its perturbation
    REFUTED, on each pinned curve."""

    name = "oracle"
    pass_s = 2.8
    trials = 100

    def setup(self):
        from degen_atlas import pinned_curves, relation_rows

        return SimpleNamespace(rows=relation_rows(), curves=pinned_curves())

    def inputs(self, seed: int, pass_index: int):
        rng = random.Random(f"oracle/{seed}/{pass_index}")
        calls = 2 * 3 * len(EXPECTED["perturbations"])  # two per row and pinned curve
        return [rng.randrange(2 ** 31) for _ in range(calls)]

    def run_pass(self, state, seeds, clock):
        """One latency sample per row and curve: its supported call plus its
        perturbed call.  The perturbed call stops at its first counterexample,
        so a median over single calls would fall between the two kinds."""
        from degen_atlas import ec_oracle, period_relations

        def prepare(row):
            a, b = EXPECTED["perturbations"][row.key]
            perturbed = row.target() + period_relations.Divisor.of({a: 1, b: -1})
            return (period_relations.imposed_relations(row.prepare()),
                    {"supported": row.target(), "refuted": perturbed})

        seeds = iter(seeds)
        ops = []
        for row in state.rows:
            prepared, prepare_exc = clock.timed(f"prepare:{row.key}", prepare, row)
            for curve in state.curves:
                with clock.sample():
                    for kind, want in (("supported", "SUPPORTED"), ("refuted", "REFUTED")):
                        op_id = f"oracle:{row.key}:{curve.p}:{kind}"
                        seed = next(seeds)
                        if prepare_exc is not None:
                            ops.append(Op(op_id, 0, f"prepare: {_describe(prepare_exc)}"))
                            continue
                        system, divisors = prepared
                        verdict, exc = clock.timed(
                            op_id, ec_oracle.randomized_membership_test, system,
                            divisors[kind], trials=self.trials, curve=curve, seed=seed)
                        if exc is not None:
                            ops.append(Op(op_id, 0, _describe(exc)))
                        elif verdict.verdict != want:
                            ops.append(Op(op_id, verdict.trials, f"{verdict.verdict}, expected {want}"))
                        else:
                            ops.append(Op(op_id, verdict.trials))
        return ops


def passes(workload, seconds: int) -> int:
    """Passes in a run of about `seconds`.  The count depends on nothing
    measured, so a seed always gives the same ops and the same failures."""
    return max(1, round(seconds / workload.pass_s))


WORKLOADS = {w.name: w for w in (Atlas(), Lattices(), Oracle())}
