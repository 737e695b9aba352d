"""Self-checks of the benchmark: the lattice generator, the tracer and the
metric names, so that a failure of a workload blames the program, not the
benchmark.

    python3 -m pytest perfbench
"""

import json
import sys
import types
from fractions import Fraction

from planted import RANKS, planted_pass
from clock import Clock
from spans import Tracer


def determinant(rows) -> Fraction:
    """Gaussian elimination over the rationals, independent of the package."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def test_same_seed_gives_byte_identical_inputs():
    def dump(seed, pass_index):
        return json.dumps([lat.gram for lat in planted_pass(seed, pass_index, 100)])

    assert dump(7, 0) == dump(7, 0)
    assert dump(7, 0) != dump(8, 0)
    assert dump(7, 0) != dump(7, 1)


def test_planted_rank_and_determinant():
    for seed in (1, 2):
        for lat in planted_pass(seed, 0, 100):
            assert lat.rank in RANKS
            assert lat.rank == sum(n for _, n in lat.blocks) + lat.minus4
            assert all(len(row) == lat.rank for row in lat.gram)
            assert lat.gram == tuple(zip(*lat.gram)), "Gram matrix must be symmetric"
            # negative definite of rank r: det = (-1)^r * product of discriminants
            assert determinant(lat.gram) == (-1) ** lat.rank * lat.discriminant(), lat.type_string
            assert lat.moves == lat.rank - 1


def test_pass_count_follows_from_the_seconds_alone():
    from workloads import WORKLOADS, passes

    assert [passes(WORKLOADS[w], 25) for w in ("atlas", "lattices", "oracle")] == [1, 3, 9]
    assert all(passes(wl, 1) == 1 for wl in WORKLOADS.values())


def test_a_pass_has_a_quarter_with_two_minus4_summands():
    lattices = planted_pass(3, 0, 100)
    assert sum(lat.minus4 == 2 for lat in lattices) == 25
    assert max(lat.skew for lat in lattices) > 4  # the bases are skewed


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, None, "op", None],
                    ["child", 1.0, 4.0, 0, "op", None],
                    ["child", 5.0, 6.0, 0, "op", None],
                    ["grandchild", 2.0, 3.0, 1, "op", None]]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_clock_groups_ops_into_latency_samples():
    clock = Clock()
    with clock.sample():
        assert clock.timed("a", lambda: 1) == (1, None)
        result, exc = clock.timed("b", lambda: 1 / 0)
    clock.timed("outside", lambda: None)
    with clock.sample():
        pass
    assert result is None and isinstance(exc, ZeroDivisionError)
    assert len(clock.ops) == 3
    assert clock.latencies() == [clock.ops[0][2] + clock.ops[1][2]]


def test_install_wraps_every_holder_and_uninstall_restores():
    def work(x):
        return x + 1

    home = types.ModuleType("pkg")
    user = types.ModuleType("pkg.user")
    home.work = user.work = work
    tracer = Tracer()
    sys.modules["pkg"], sys.modules["pkg.user"] = home, user
    try:
        tracer.install("pkg", [(home, "work", "span", lambda r: [("pkg.out", r)], None)])
        assert home.work is not work and user.work is home.work
        assert user.work(1) == 2
        assert tracer.counts == {"pkg.work.calls": 1, "pkg.out": 2}
        assert [s[0] for s in tracer.spans] == ["pkg.work"]
        tracer.uninstall()
        assert home.work is work and user.work is work
    finally:
        del sys.modules["pkg"], sys.modules["pkg.user"]


def test_traced_run_reports_exactly_the_declared_per_layer_metrics():
    from run import ROOT, layer_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    got = {name: v["unit"] for name, v in layer_metrics(Tracer(), (), 0.0).items()}
    assert got == {m["name"]: m["unit"] for m in spec["per_layer"]}
