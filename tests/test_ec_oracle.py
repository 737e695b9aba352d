import json
import random
import sys
from collections import Counter
from importlib import resources
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degen_atlas import ec_oracle
from degen_atlas.ec_oracle import (
    evaluate_divisor,
    pinned_curves,
    randomized_membership_test,
    sample_config,
    scalar_mul,
)
from degen_atlas.exact_lattice import snf
from degen_atlas.period_relations import (
    Divisor,
    RelationSystem,
    imposed_relations,
    relation_rows,
)
from degen_atlas.surface_pair import catalogue

import curve_setup as setup
import oracles
from curve_setup import curve_setup
from oracles import (
    affine_group_law,
    dense_solution_sampler,
    double_and_add,
    group_law,
    negate,
    run_python_O,
    termwise_divisor_sum,
)

SMALL_CURVES = ((5, 0, 1), (5, 1, 0))  # Z/6 and Z/2 x Z/2: tables of 5 and 1 multiples


@pytest.fixture(scope="module")
def curves():
    return pinned_curves()


@pytest.fixture(scope="module")
def models():
    return catalogue()


def test_curve_setup_small_orders():
    assert curve_setup(5, 0, 1).order == 6
    assert curve_setup(5, 1, 0).order == 4


def test_curve_setup_rejects_bad_input():
    with pytest.raises(ValueError, match="singular"):
        curve_setup(5, 0, 0)  # y^2 = x^3
    with pytest.raises(ValueError, match="prime"):
        curve_setup(15, 1, 1)


def _fixture() -> dict:
    return json.loads(resources.files("degen_atlas").joinpath("curves.json").read_text())


def _corrupt(field, value, index=0):
    data = _fixture()
    data["curves"][index][field] = value
    return data


def _duplicated():
    data = _fixture()
    data["curves"][2] = data["curves"][0]
    return data


def _corrupted_fixtures():
    """(fixture, message) pairs, one per check on the pinned curves.  A wrong
    exponent passes the fixture check and is caught by the curve's table of
    multiples, which its first oracle call builds: case 1 raises the
    exponent of the second curve, since the first curve's n + 1 is the third
    curve's exponent, and case 4 is the table's check that exponent*G is the
    identity."""
    curves = _fixture()["curves"]
    x, y = curves[0]["generator"]
    n, n1 = curves[0]["exponent"], curves[1]["exponent"]
    where = "pinned curve p=10007, a=1, b=1"
    return [
        (_corrupt("generator", [x, y + 1]),
         f"{where}: generator ({x}, {y + 1}) is not on the curve"),
        (_corrupt("exponent", n1 + 1, index=1),
         f"curve p=10009, a=1, b=1: {n1}*G is the identity, so G has order below the "
         f"exponent {n1 + 1}"),
        (_corrupt("exponent", 2 * n),
         f"curve p=10007, a=1, b=1: {n}*G is the identity, so G has order below the "
         f"exponent {2 * n}"),
        (_duplicated(), "pinned curves must have distinct exponents, got [10065, 10138, 10065]"),
        (_corrupt("exponent", n - 1),
         f"curve p=10007, a=1, b=1: exponent*G is not the identity (exponent {n - 1})"),
    ]


def _first_verdicts(data):
    """The fixture's curves, each asked for one verdict on q - q' with
    nothing imposed."""
    empty = RelationSystem(r_h=Divisor.of({}), r_xi=Divisor.of({}), aux=())
    target = Divisor.of({"q": 1, "q'": -1})
    return [randomized_membership_test(empty, target, trials=1, curve=c).verdict
            for c in ec_oracle._checked_curves(data)]


@pytest.mark.parametrize("case", range(5))
def test_corrupted_fixture_is_rejected(case):
    data, message = _corrupted_fixtures()[case]
    with pytest.raises(ValueError) as exc:
        _first_verdicts(data)
    assert str(exc.value) == message


def test_pinned_curves_build_no_arithmetic():
    # the order of each generator is proven by its table of multiples, built
    # at the first draw, so loading the fixture runs no group law
    for c in pinned_curves():
        assert not {"_arithmetic", "_inverses", "_multiples"} & set(c.__dict__)


def _short_point_order(c, P, group_order):
    return group_order // 2  # a scan that misses every point of full order


def test_curve_setup_checks_the_group_structure(monkeypatch):
    monkeypatch.setattr(setup, "_point_order", _short_point_order)
    with pytest.raises(ValueError, match="largest point order 3 found does not fit the group order 6"):
        curve_setup(5, 0, 1)


def test_sqrt_mod():
    for p in (7, 13, 17, 10007, 10009, 10037):
        for n in range(1, min(p, 400)):
            if pow(n, (p - 1) // 2, p) == 1:
                r = setup._sqrt_mod(n, p)
                assert r * r % p == n
            else:
                with pytest.raises(ValueError, match=f"^{n} has no square root mod {p}$"):
                    setup._sqrt_mod(n, p)
    assert setup._sqrt_mod(0, 7) == 0
    with pytest.raises(ValueError, match="^0 has no square root mod 13$"):
        setup._sqrt_mod(0, 13)  # Tonelli-Shanks would never end


def test_oracle_checks_hold_under_python_O():
    # the fixture, group-structure and square-root checks are not asserts
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import curve_setup as setup\n"
        "from test_ec_oracle import _first_verdicts\n"
        "calls = [lambda text=text: _first_verdicts(json.loads(text)) for text in sys.argv[1:]]\n"
        "calls += [lambda: setup._sqrt_mod(3, 7), lambda: setup._sqrt_mod(2, 13)]\n"
        "setup._point_order = lambda c, P, group_order: group_order // 2\n"
        "calls.append(lambda: setup.curve_setup(5, 0, 1))\n"
        "for call in calls:\n"
        "    try:\n"
        "        print('accepted:', call())\n"
        "    except ValueError as exc:\n"
        "        print('rejected:', exc)\n"
    )
    cases = _corrupted_fixtures()
    done = run_python_O(["-c", code, *(json.dumps(data) for data, _ in cases)], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"rejected: {message}" for _, message in cases] + [
        "rejected: 3 has no square root mod 7",
        "rejected: 2 has no square root mod 13",
        "rejected: largest point order 3 found does not fit the group order 6 "
        "(it must divide it, and its square must be a multiple)",
    ]


def test_pinned_fixture_is_consistent(curves):
    assert len(curves) == 3
    assert len({c.exponent for c in curves}) == 3
    # recount one curve from scratch
    fresh = curve_setup(curves[0].p, curves[0].a, curves[0].b)
    assert fresh.order == curves[0].order
    assert fresh.exponent == curves[0].exponent


def test_group_law_identities(curves):
    c = curves[0]
    g = c.generator
    assert group_law(c, g, None) == g
    assert group_law(c, None, None) is None
    assert scalar_mul(c, c.exponent, g) is None
    assert group_law(c, g, negate(c, g)) is None


def test_group_law_compares_coordinates_mod_p(curves):
    for c in curves:
        g = c.generator
        x, y = g
        assert c.contains((x + c.p, y))
        assert group_law(c, g, (x + c.p, y)) == scalar_mul(c, 2, g) == double_and_add(c, 2, g)
        assert group_law(c, g, (x + c.p, -y)) is None


def test_scalar_mul_matches_double_and_add(curves):
    rng = random.Random(8)
    for c in (*curves, *(curve_setup(*abc) for abc in SMALL_CURVES)):
        g, n = c.generator, c.exponent
        ks = [0, 1, -1, n - 1, n, -n] + [rng.randrange(-3 * n, 3 * n) for _ in range(40)]
        for k in ks:
            point = double_and_add(c, rng.randrange(n), g)
            assert scalar_mul(c, k, g) == double_and_add(c, k, g), (c.p, k)
            assert scalar_mul(c, k, point) == double_and_add(c, k, point), (c.p, k, point)


def _counted_scalar_mul(c, k, P):
    """scalar_mul(c, k, P) and the number of calls of the curve's
    chord-tangent adder it made, counted with a profile hook on the adder's
    code, which leaves the shared curve untouched."""
    add = c._arithmetic.__code__
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is add:
            count += 1

    sys.setprofile(hook)
    try:
        result = scalar_mul(c, k, P)
    finally:
        sys.setprofile(None)
    return result, count


def test_scalar_mul_adds_nothing_to_the_identity(curves):
    # k = +-2^j is j doublings and no addition; in general bit_length - 1
    # doublings plus one addition per set bit after the lowest, as long as
    # no partial sum is the identity (none is on the pinned curves, whose
    # exponents divide no 2^j, 3*2^j or 5*2^j)
    small = [curve_setup(*abc) for abc in SMALL_CURVES]
    for c in (*curves, *small):
        g = c.generator
        for j in range(c.exponent.bit_length() + 2):
            for k in (2 ** j, -(2 ** j), 3 * 2 ** j, -(5 * 2 ** j)):
                got, adds = _counted_scalar_mul(c, k, g)
                assert got == double_and_add(c, k, g), (c.p, k)
                if c in curves:
                    assert adds == abs(k).bit_length() - 1 + bin(k).count("1") - 1, (c.p, k)
    # a 2-torsion point T: k*T is T for odd k and the identity for even k
    for c in (c for c in (*curves, *small) if c.exponent % 2 == 0):
        t = double_and_add(c, c.exponent // 2, c.generator)
        assert t is not None and double_and_add(c, 2, t) is None
        for k in range(-9, 10):
            assert scalar_mul(c, k, t) == double_and_add(c, k, t) == (t if k % 2 else None)


def test_generator_table_draws_match_double_and_add(curves):
    rng = random.Random(9)
    for c in curves:
        xs, ys = c._multiples
        assert len(xs) == len(ys) == c.exponent - 1
        for k in [0, 1, 127, 128, c.exponent - 1] + [rng.randrange(c.exponent) for _ in range(300)]:
            assert c.multiple_of_generator(k) == double_and_add(c, k, c.generator), (c.p, k)
    for abc in SMALL_CURVES:
        c = curve_setup(*abc)
        xs, ys = c._multiples
        assert len(xs) == len(ys) == c.exponent - 1
        for k in range(c.exponent):
            assert c.multiple_of_generator(k) == double_and_add(c, k, c.generator), (abc, k)


@pytest.mark.parametrize("exponent, message", [
    (12, "curve p=5, a=0, b=1: 6*G is the identity, so G has order below the exponent 12"),
    (3, "curve p=5, a=0, b=1: exponent*G is not the identity (exponent 3)"),
])
def test_generator_table_checks_the_exponent(exponent, message):
    c = curve_setup(5, 0, 1)
    assert c.exponent == 6
    wrong = c._replace(exponent=exponent)
    with pytest.raises(ValueError) as exc:
        wrong.multiple_of_generator(1)
    assert str(exc.value) == message


def test_generator_table_rejects_k_out_of_range(curves):
    for c in (*curves, curve_setup(*SMALL_CURVES[0])):
        for k in (-1, c.exponent):
            with pytest.raises(ValueError, match=rf"k = {k} is not in \[0, {c.exponent}\)"):
                c.multiple_of_generator(k)


_PAIR_KINDS = ("free", "equal", "opposite", "P is None", "Q is None")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(SMALL_CURVES) + 2), st.sampled_from(_PAIR_KINDS),
       st.integers(0, 2**20), st.integers(0, 2**20))
def test_group_law_matches_the_reference(curves, which, kind, k1, k2):
    c = (*curves, *(curve_setup(*abc) for abc in SMALL_CURVES))[which]
    n, g = c.exponent, c.generator
    k2 = {"equal": k1, "opposite": -k1}.get(kind, k2)
    P, Q = double_and_add(c, k1 % n, g), double_and_add(c, k2 % n, g)
    if kind == "P is None":
        P = None
    elif kind == "Q is None":
        Q = None
    assert group_law(c, P, Q) == affine_group_law(c, P, Q)
    inv = c._inverses
    assert len(inv) == c.p and inv[0] == 0
    assert all(x * e % c.p == 1 for x, e in enumerate(inv) if e)


def test_group_law_homomorphism(curves):
    c = curves[0]
    rng = random.Random(3)
    for _ in range(30):
        k1 = rng.randrange(c.exponent)
        k2 = rng.randrange(c.exponent)
        lhs = scalar_mul(c, k1 + k2, c.generator)
        rhs = group_law(
            c, scalar_mul(c, k1, c.generator), scalar_mul(c, k2, c.generator)
        )
        assert lhs == rhs


def test_group_law_associative_commutative(curves):
    c = curves[0]
    rng = random.Random(5)
    pts = [scalar_mul(c, rng.randrange(c.exponent), c.generator) for _ in range(60)]
    for _ in range(1000):
        p, q, r = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert group_law(c, p, q) == group_law(c, q, p)
        assert group_law(c, group_law(c, p, q), r) == group_law(
            c, p, group_law(c, q, r)
        )


def test_sample_config_a15(models, curves):
    system = imposed_relations(models["A15"])
    c = curves[0]
    assignment = sample_config(system, c, seed=11)
    pts = assignment.points()
    target = Divisor.of({"q": 16, **{f"p{i}": -1 for i in range(1, 17)}})
    assert evaluate_divisor(c, target, pts) is None


def test_sample_config_empty_system(curves):
    system = RelationSystem(r_h=Divisor.of({}), r_xi=Divisor.of({}), aux=())
    assignment = sample_config(system, curves[0], seed=0)
    assert assignment.dlogs == ()


def test_sample_config_two_torsion(curves):
    even = next(c for c in curves if c.exponent % 2 == 0)
    system = RelationSystem(
        r_h=Divisor.of({"q": 2, "q'": -2}), r_xi=Divisor.of({}), aux=()
    )
    seen_nontrivial = False
    for seed in range(20):
        dlogs = dict(sample_config(system, even, seed=seed).dlogs)
        k = (dlogs["q"] - dlogs["q'"]) % even.exponent
        assert 2 * k % even.exponent == 0
        seen_nontrivial |= k != 0
    assert seen_nontrivial  # the 2-torsion coset really is explored


def _sampler_cases():
    """(generators, symbols) of the 11 row systems, the 2-torsion system of
    test_sample_config_two_torsion, and two empty systems, one of them with
    free symbols."""
    cases = []
    for row in relation_rows():
        generators = imposed_relations(row.prepare()).generators()
        cases.append((generators, sorted({s for g in generators for s in g.symbols()})))
    two_torsion = RelationSystem(r_h=Divisor.of({"q": 2, "q'": -2}), r_xi=Divisor.of({}), aux=())
    cases.append((two_torsion.generators(), ["q", "q'"]))
    cases += [((), []), ((), ["p1", "q"])]
    return cases


def test_sparse_sampler_draws_what_the_dense_one_did(curves):
    # gcd(2, N) is 1 on one pinned curve and 2 on the others, so the
    # 2-torsion system has a coordinate with a single choice on the first
    assert sorted(gcd(2, c.exponent) for c in curves) == [1, 2, 2]
    cases = _sampler_cases()
    assert len(cases) == 14
    for c in curves:
        n = c.exponent
        pairs = [(ec_oracle._solution_sampler(gens, syms, n), dense_solution_sampler(gens, syms, n),
                  gens, syms) for gens, syms in cases]
        for seed in range(5):
            fast_rng, dense_rng = random.Random(seed), random.Random(seed)
            for fast, dense, gens, syms in pairs:
                for _ in range(20):
                    x = fast(fast_rng)
                    assert x == dense(dense_rng), (c.p, seed, syms)
                    point = dict(zip(syms, x))
                    assert all(sum(cf * point[s] for s, cf in g.coeffs) % n == 0 for g in gens)
            assert fast_rng.getstate() == dense_rng.getstate()


_TERM_KINDS = ("free", "negated", "torsion", "infinity")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2),
    st.lists(st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 3)), st.sampled_from(_TERM_KINDS),
                       st.integers(0, 2**20)), min_size=1, max_size=12),
    st.integers(0, 2**20),
)
# a bucket P + (-P) of coefficient 2, a -2 bucket holding the 2-torsion
# point, and the +-3 pair of buckets summing to infinity
@example(1, [(2, "free", 5), (2, "negated", 0), (-2, "torsion", 0), (-2, "free", 9)], 1)
@example(2, [(3, "free", 77), (-3, "free", 77), (1, "infinity", 0), (1, "torsion", 0)], 3)
def test_bucketed_divisor_sum_matches_the_termwise_sum(curves, which, terms, k_last):
    c = curves[which]
    n = c.exponent
    coeffs, dlogs = {}, {}
    for i, (coeff, kind, k) in enumerate(terms):
        sym = f"p{i + 1}"
        coeffs[sym] = coeff
        if kind == "free":
            dlogs[sym] = k % n
        elif kind == "negated":  # the inverse of an earlier point
            dlogs[sym] = -dlogs[f"p{k % i + 1}"] % n if i else 0
        elif kind == "torsion":
            dlogs[sym] = n // 2 if n % 2 == 0 else 0
        else:
            dlogs[sym] = 0
    coeffs["q"], dlogs["q"] = -sum(coeffs.values()), k_last % n
    d = Divisor.of(coeffs)
    assert d.degree() == 0
    points = {s: double_and_add(c, k, c.generator) for s, k in dlogs.items()}
    expected = termwise_divisor_sum(c, d, points)
    assert evaluate_divisor(c, d, points) == expected
    assert expected == double_and_add(c, sum(cf * dlogs[s] for s, cf in d.coeffs) % n, c.generator)


_SUM_SYMBOLS = ("q", "q'", *(f"p{i}" for i in range(1, 9)))
_DLOG_KINDS = ("free", "zero", "torsion", "negated")
_SEGMENTS = st.lists(st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 9)), st.integers(0, 10),
                               st.integers(0, 10)), max_size=3)


def _segment_divisor(segments):
    """The divisor giving each symbol of _SUM_SYMBOLS[start:stop] the
    coefficient of the last segment that covers it: intervals of one symbol
    order make nested, overlapping and equal buckets."""
    coeffs = {}
    for coeff, start, stop in segments:
        coeffs.update(dict.fromkeys(_SUM_SYMBOLS[start:stop], coeff))
    return Divisor.of(coeffs)


# A: 9(q+q') - (p1+...+p8), -2(p1+p2+p3) + 6q', -(p1+...+p4) + 4q and the
# empty divisor, so {p1,p2,p3} < {p1..p4} < {p1..p8}, with p2 = -p1 inside all
# three, p3 the 2-torsion point and p4 at infinity.  B: 2(p1+p2+p3) - 3q,
# -(p3+p4+p5) + 3q', -2(p1+p2+p3) + 9q' and -(p3+p4+p5) + (p6+p7+p8) + 2q, so
# {p1,p2,p3} and {p3,p4,p5} overlap, each is in two plans, and p4 = -p3.
_NESTED = [[(9, 0, 2), (-1, 2, 10)], [(-2, 2, 5), (6, 1, 2)], [(-1, 2, 6), (4, 0, 1)], []]
_NESTED_DLOGS = [("free", 11), ("free", 4000), ("free", 12345), ("negated", 2), ("torsion", 0),
                 ("zero", 0), ("free", 5), ("free", 77), ("free", 901), ("free", 3)]
_OVERLAPPING = [[(2, 2, 5), (-3, 0, 1)], [(-1, 4, 7), (3, 1, 2)], [(-2, 2, 5), (9, 1, 2)],
                [(-1, 4, 7), (1, 7, 10), (2, 0, 1)]]
_OVERLAPPING_DLOGS = [("free", 8), ("free", 600), ("free", 9001), ("free", 31), ("free", 2024),
                      ("negated", 4), ("free", 17), ("free", 256), ("free", 5555), ("free", 42)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, len(SMALL_CURVES) + 2),
    st.lists(_SEGMENTS, min_size=1, max_size=4),
    st.lists(st.tuples(st.sampled_from(_DLOG_KINDS), st.integers(0, 2**20)),
             min_size=len(_SUM_SYMBOLS), max_size=len(_SUM_SYMBOLS)),
)
@example(1, _NESTED, _NESTED_DLOGS)
@example(3, _NESTED, _NESTED_DLOGS)
@example(0, _OVERLAPPING, _OVERLAPPING_DLOGS)
@example(2, _OVERLAPPING, _OVERLAPPING_DLOGS)
def test_shared_program_matches_the_textbook_sums(curves, which, families, kinds):
    c = (*curves, *(curve_setup(*abc) for abc in SMALL_CURVES))[which]
    n = c.exponent
    values = []
    for kind, k in kinds:
        if kind == "free":
            values.append(k % n)
        elif kind == "zero":
            values.append(0)
        elif kind == "torsion":
            values.append(n // 2 if n % 2 == 0 else 0)
        else:  # the inverse of an earlier point
            values.append(-values[k % len(values)] % n if values else 0)
    divisors = [_segment_divisor(segments) for segments in families]
    want = oracles.textbook_divisor_sums(c, divisors, _SUM_SYMBOLS)(values)
    assert ec_oracle._compiled(c, divisors, _SUM_SYMBOLS)(values) == want


def test_membership_supported_and_refuted(models, curves):
    system = imposed_relations(models["E8D9"])
    target = Divisor.of(
        {"q'": 21, "p'1": -3, **{f"p'{i}": -2 for i in range(2, 11)}}
    )
    for c in curves:
        verdict = randomized_membership_test(system, target, trials=100, curve=c)
        assert verdict.verdict == "SUPPORTED"
    perturbed = target + Divisor.of({"p'2": 1, "p'3": -1})
    verdict = randomized_membership_test(
        system, perturbed, trials=100, curve=curves[0]
    )
    assert verdict.verdict == "REFUTED"
    assert verdict.witness is not None
    # the witness genuinely violates the perturbed relation on the curve
    pts = verdict.witness.points()
    assert evaluate_divisor(curves[0], perturbed, pts) is not None
    for g in system.generators():
        assert evaluate_divisor(curves[0], g, pts) is None


def test_membership_multiplies_through_scalar_mul(curves, monkeypatch):
    # a program makes each multiplication, here by 21, -3 and -2 among
    # others, through the module's scalar_mul, so patching it sees them all
    row = next(r for r in relation_rows() if r.key == "E8D9")
    system, target = imposed_relations(row.prepare()), row.target()
    plain = randomized_membership_test(system, target, trials=20, curve=curves[0])
    calls = Counter()
    monkeypatch.setattr(ec_oracle, "scalar_mul", _counted(calls, ec_oracle.scalar_mul))
    counted = randomized_membership_test(system, target, trials=20, curve=curves[0])
    assert calls["scalar_mul"] > 0
    assert counted == plain == ec_oracle.MembershipVerdict("SUPPORTED", 20)


def test_membership_sums_the_target_as_given(curves):
    # 2q - 2q' = 0 leaves q - q' free to be the 2-torsion point, so q - q'
    # is refuted while its double, a generator, is supported
    even = next(c for c in curves if c.exponent % 2 == 0)
    system = RelationSystem(r_h=Divisor.of({"q": 2, "q'": -2}), r_xi=Divisor.of({}), aux=())
    half = Divisor.of({"q": 1, "q'": -1})
    verdict = randomized_membership_test(system, half, trials=20, curve=even)
    assert verdict.verdict == "REFUTED"
    dlogs = dict(verdict.witness.dlogs)
    assert (dlogs["q"] - dlogs["q'"]) % even.exponent == even.exponent // 2
    supported = randomized_membership_test(system, 2 * half, trials=20, curve=even)
    assert supported == ec_oracle.MembershipVerdict("SUPPORTED", 20)


def test_imposed_generator_always_supported(models, curves):
    system = imposed_relations(models["D12D5"])
    verdict = randomized_membership_test(
        system, system.r_h, trials=25, curve=curves[1]
    )
    assert verdict.verdict == "SUPPORTED"


def test_certificate_implies_supported(models, curves):
    # spot-check the implication formal certificate => numerical support
    from degen_atlas.period_relations import derive

    for row in relation_rows()[:4]:
        m = row.prepare()
        system = imposed_relations(m)
        res = derive(system, row.target())
        assert res.certified
        for c in curves:
            verdict = randomized_membership_test(
                system, row.target(), trials=40, curve=c, seed=1
            )
            assert verdict.verdict == "SUPPORTED"


def _stream_cases(curves):
    """(key, system, target, trials, curve, seed) of the verdicts pinned in
    membership_stream.json: the perturbed targets of three rows on every
    pinned curve, A15's target plus p17 - q, where p17 is a symbol the
    system leaves free, and the 2-torsion half target, refuted after several
    trials."""
    rows = {row.key: row for row in relation_rows()}
    cases = []
    for key in ("E8E8-d0", "A11E6-d3", "D16"):
        row = rows[key]
        system, target = imposed_relations(row.prepare()), row.target()
        point_syms = [s for s in target.symbols() if s.startswith("p")]
        perturbed = target + Divisor.of({point_syms[1]: 1, point_syms[2]: -1})
        cases += [(f"{key}/{c.p}", system, perturbed, 100, c, 7) for c in curves]
    a15 = rows["A15"]
    free = a15.target() + Divisor.of({"p17": 1, "q": -1})
    cases += [(f"A15+p17/{c.p}", imposed_relations(a15.prepare()), free, 100, c, 7)
              for c in curves]
    two_torsion = RelationSystem(r_h=Divisor.of({"q": 2, "q'": -2}), r_xi=Divisor.of({}), aux=())
    half = Divisor.of({"q": 1, "q'": -1})
    cases += [(f"half/{c.p}/{seed}", two_torsion, half, 20, c, seed)
              for c in curves if c.exponent % 2 == 0 for seed in (1, 3)]
    return cases


def test_membership_verdicts_pin_the_random_stream(curves):
    # the expected verdicts were recorded when every draw was a
    # rng.randrange call: trials and witness dlogs, the free symbol's
    # included, depend on every value drawn and on how many words each draw
    # consumed
    want = json.loads(Path(__file__).with_name("membership_stream.json").read_text())
    got = {key: randomized_membership_test(system, target, trials=trials, curve=c, seed=seed).as_json()
           for key, system, target, trials, c, seed in _stream_cases(curves)}
    assert got == want
    assert all(len(want[f"A15+p17/{c.p}"]["witness"]) == 19 for c in curves)
    assert sorted(want[f"half/{c.p}/{seed}"]["trials"] for c in curves[1:] for seed in (1, 3)) == [3, 3, 4, 4]


@pytest.mark.parametrize("trials", [0, -5])
def test_membership_needs_a_trial(models, curves, trials):
    system = imposed_relations(models["D17"])
    with pytest.raises(ValueError, match="trials"):
        randomized_membership_test(system, system.r_h, trials=trials, curve=curves[0])


def test_membership_needs_a_curve(models):
    system = imposed_relations(models["D17"])
    with pytest.raises(TypeError, match="curve"):
        randomized_membership_test(system, system.r_h, trials=1)


def test_membership_rejects_a_target_of_nonzero_degree(models, curves):
    system = imposed_relations(models["D17"])
    with pytest.raises(ValueError, match="degree 0"):
        randomized_membership_test(system, Divisor.of({"q": 1}), trials=10, curve=curves[0])


def test_sampling_rejects_generators_of_nonzero_degree(models, curves):
    # both entry points share one set-up and its degree check
    system = imposed_relations(models["D17"])
    bad = RelationSystem(system.r_h, system.r_xi, system.aux + (Divisor.of({"q": 1}),))
    with pytest.raises(ValueError, match="degree 0"):
        sample_config(bad, curves[0])
    p2_p3 = Divisor.of({"p2": 1, "p3": -1})
    with pytest.raises(ValueError, match="relation generators must have degree 0"):
        randomized_membership_test(RelationSystem(Divisor.of({"p1": 1}), p2_p3, ()), p2_p3,
                                   trials=10, curve=curves[0])


def test_degree_checks_hold_under_python_O():
    # the degree-0 contract is checked on input, not by an assert -O strips
    code = (
        "from degen_atlas.ec_oracle import randomized_membership_test, sample_config\n"
        "from degen_atlas.ec_oracle import pinned_curves\n"
        "from degen_atlas.period_relations import Divisor, RelationSystem, imposed_relations\n"
        "from degen_atlas.surface_pair import catalogue_model\n"
        "system = imposed_relations(catalogue_model('D17'))\n"
        "q = Divisor.of({'q': 1})\n"
        "bad = RelationSystem(system.r_h, system.r_xi, system.aux + (q,))\n"
        "p2_p3 = Divisor.of({'p2': 1, 'p3': -1})\n"
        "degree_1 = RelationSystem(Divisor.of({'p1': 1}), p2_p3, ())\n"
        "curve = pinned_curves()[0]\n"
        "for call in (lambda: randomized_membership_test(system, q, trials=10, curve=curve),\n"
        "             lambda: sample_config(bad, curve),\n"
        "             lambda: randomized_membership_test(degree_1, p2_p3, trials=10, curve=curve)):\n"
        "    try:\n"
        "        print('accepted:', type(call()).__name__)\n"
        "    except ValueError as exc:\n"
        "        print('rejected:', exc)\n"
    )
    done = run_python_O(["-c", code], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "rejected: targets must have degree 0",
        "rejected: relation generators must have degree 0",
        "rejected: relation generators must have degree 0",
    ]


def _relation_blind_sampler(generators, symbols, n_mod):
    return lambda rng: [rng.randrange(n_mod) for _ in symbols]


def test_membership_rejects_a_draw_off_the_relations(models, curves, monkeypatch):
    monkeypatch.setattr(ec_oracle, "_solution_sampler", _relation_blind_sampler)
    system = imposed_relations(models["D17"])
    with pytest.raises(AssertionError, match="sampled configuration violates"):
        randomized_membership_test(system, system.r_h, trials=10, curve=curves[0])


def test_membership_rejects_a_draw_off_the_relations_under_python_O():
    # the on-curve check of each draw must not be an assert that -O strips
    code = (
        "from degen_atlas import ec_oracle\n"
        "from degen_atlas.period_relations import imposed_relations\n"
        "from degen_atlas.surface_pair import catalogue_model\n"
        "ec_oracle._solution_sampler = (\n"
        "    lambda gens, symbols, n: lambda rng: [rng.randrange(n) for _ in symbols])\n"
        "system = imposed_relations(catalogue_model('D17'))\n"
        "curve = ec_oracle.pinned_curves()[0]\n"
        "try:\n"
        "    v = ec_oracle.randomized_membership_test(system, system.r_h, trials=10, curve=curve)\n"
        "    print('accepted:', v.verdict)\n"
        "except AssertionError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    done = run_python_O(["-c", code], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("rejected: sampled configuration violates")


def _criterion_6_verdicts(curves):
    """Each row's target and its perturbation (as in criterion 6) on every
    pinned curve, seed 0, 50 trials: half of criterion 6's, to keep the
    reference run short."""
    verdicts = []
    for row in relation_rows():
        system = imposed_relations(row.prepare())
        target = row.target()
        point_syms = [s for s in target.symbols() if s.startswith("p")]
        perturbed = target + Divisor.of({point_syms[1]: 1, point_syms[2]: -1})
        for c in curves:
            for t in (target, perturbed):
                verdicts.append(randomized_membership_test(system, t, trials=50, curve=c, seed=0))
    return verdicts


def _counted(calls, fn):
    def wrapper(*args):
        calls[fn.__name__] += 1
        return fn(*args)

    return wrapper


def test_verdicts_match_the_reference_arithmetic(curves, monkeypatch):
    fast = _criterion_6_verdicts(curves)
    # the reference run draws through the dense sampler and sums every
    # divisor term by term from points found by double-and-add, all over the
    # Fermat-inverse affine law; the names are patched in oracles so that the
    # calls between them are counted too
    calls = Counter()
    for name in ("affine_group_law", "double_and_add", "termwise_divisor_sum",
                 "dense_solution_sampler"):
        monkeypatch.setattr(oracles, name, _counted(calls, getattr(oracles, name)))
    monkeypatch.setattr(ec_oracle, "_compiled", oracles.textbook_divisor_sums)
    monkeypatch.setattr(ec_oracle, "_solution_sampler", oracles.dense_solution_sampler)
    reference = _criterion_6_verdicts(curves)
    assert fast == reference
    assert sum(v.verdict == "REFUTED" for v in fast) == 33
    assert set(calls) == {"affine_group_law", "double_and_add", "termwise_divisor_sum",
                          "dense_solution_sampler"}
    assert calls["dense_solution_sampler"] == 66


def test_one_smith_form_per_relation_system(curves, monkeypatch):
    # the 66 calls of an oracle pass (11 rows x 3 curves x target and
    # perturbation) take one Smith form per relation system: 9, since
    # E8E8-d0 and E8E8-d1 are two targets of one system, and so are
    # A11E6-d3 and A11E6-d9 (flops do not change the relations psi imposes)
    systems = {imposed_relations(row.prepare()).generators() for row in relation_rows()}
    ec_oracle._smith_form.cache_clear()
    calls = Counter()
    monkeypatch.setattr(ec_oracle, "snf", _counted(calls, snf))
    verdicts = _criterion_6_verdicts(curves)
    ec_oracle._smith_form.cache_clear()
    assert len(verdicts) == 66
    assert calls["snf"] == len(systems) == 9
