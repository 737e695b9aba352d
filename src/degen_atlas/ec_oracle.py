"""Numerical corroboration of the point relations on a real elliptic curve.

The formal calculus proves relations; this module spot-checks them in the
group of an actual short Weierstrass curve over a small prime field.  Point
configurations are sampled in discrete-log coordinates with respect to a
generator G of the group's largest cyclic subgroup: the imposed relations
become linear congruences mod N, solved exactly by Smith normal form, so
sampling never needs point division.  The Smith form of a generator matrix
is taken once and reused by every call and curve; only its transform's
columns, kept sparse mod N, depend on the curve.

A call compiles its generators and target once into one straight-line
program over one symbol order.  The distinct coefficient buckets of all the
divisors are summed once per trial, smallest first, each from the largest
buckets already summed that it contains plus the points left; coefficients
1 and -1 cost no multiplication, and equal divisors are summed once.  A
trial draws its discrete logs with getrandbits, exactly as randrange draws
them, reads each point k*G from a per-curve table of every multiple of G
(building it proves, once, that G has order exactly N) and runs the
program with honest chord-tangent group-law code.  Each curve
has one adder, with p, a and a table of inverses mod p bound in; the table
of multiples and every program add through it, and `scalar_mul`, the one
double-and-add over it, makes every multiplication of the programs,
`evaluate_divisor`'s included.

SUPPORTED verdicts are evidence modulo N-torsion artifacts; the formal
certificate from the relation module is the authoritative proof.
"""

from __future__ import annotations

import json
import random
from array import array
from functools import cached_property, lru_cache
from importlib import resources
from math import gcd
from typing import Callable, NamedTuple, Optional, Sequence

from .exact_lattice import FrozenValue, InvariantError, Matrix, SmithForm, mat, snf
from .period_relations import Divisor, RelationSystem

Point = Optional[tuple[int, int]]  # None is the point at infinity


class Curve(FrozenValue):
    """y^2 = x^3 + a x + b over F_p with its exactly counted group."""

    _fields = ("p", "a", "b", "order", "exponent", "generator")

    def __init__(self, p: int, a: int, b: int, order: int,
                 exponent: int,  # order of the largest cyclic subgroup
                 generator: tuple[int, int]) -> None:
        self._init(p, a, b, order, exponent, generator)

    def contains(self, pt: Point) -> bool:
        if pt is None:
            return True
        x, y = pt
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    @cached_property
    def _inverses(self) -> array:
        """inv[d] = d^-1 mod p, filled by the adder as each d first occurs;
        0 marks an entry not filled yet (0 itself has no inverse)."""
        return array("I", bytes(4 * self.p))

    @cached_property
    def _arithmetic(self) -> Callable[[Point, Point], Point]:
        """The curve's one chord-tangent adder, with p, a and the inverse
        table bound in."""
        p, a, inv = self.p, self.a, self._inverses

        def add(P: Point, Q: Point) -> Point:
            """P + Q with the identity at infinity; coordinates are compared
            mod p."""
            if P is None:
                return Q
            if Q is None:
                return P
            x1, y1 = P
            x2, y2 = Q
            if (x1 - x2) % p:
                num, den = y2 - y1, (x2 - x1) % p
            elif (y1 + y2) % p == 0:
                return None
            else:  # on the curve, the same x and not opposite: P = Q
                num, den = 3 * x1 * x1 + a, 2 * y1 % p
            # den is never 0 for points on the curve: the chord branch has
            # distinct x, and a point with 2*y1 = 0 mod p is its own opposite,
            # so the test above returned None
            inverse = inv[den]
            if not inverse:
                inverse = inv[den] = pow(den, -1, p)
            slope = num * inverse % p
            x3 = (slope * slope - x1 - x2) % p
            return (x3, (slope * (x1 - x3) - y1) % p)

        return add

    @cached_property
    def _multiples(self) -> tuple[array, array]:
        """The x and y of k*G for k = 1..exponent-1, at index k - 1, built by
        adding G with the curve's adder.  Raises ValueError unless G has order
        exactly the exponent."""
        add = self._arithmetic
        xs, ys = array("I"), array("I")
        point: Point = self.generator
        g = point
        for k in range(1, self.exponent):
            if point is None:
                raise ValueError(
                    f"curve p={self.p}, a={self.a}, b={self.b}: {k}*G is the identity, "
                    f"so G has order below the exponent {self.exponent}"
                )
            xs.append(point[0])
            ys.append(point[1])
            point = add(point, g)
        if point is not None:
            raise ValueError(
                f"curve p={self.p}, a={self.a}, b={self.b}: exponent*G is not the "
                f"identity (exponent {self.exponent})"
            )
        return xs, ys

    def multiple_of_generator(self, k: int) -> Point:
        """k*G for 0 <= k < exponent, read from the table of multiples.  k is
        not reduced mod the exponent, which would trust that G has that order."""
        if not 0 <= k < self.exponent:
            raise ValueError(f"k = {k} is not in [0, {self.exponent})")
        if not k:
            return None
        xs, ys = self._multiples
        return (xs[k - 1], ys[k - 1])


def scalar_mul(c: Curve, k: int, P: Point) -> Point:
    """k*P by double-and-add over the curve's adder, with no doubling after
    the top bit and no addition to the identity: the lowest set bit takes P
    itself.  Negative k multiplies -P."""
    add = c._arithmetic
    if k < 0:
        k, P = -k, None if P is None else (P[0], -P[1] % c.p)
    acc: Point = None
    while k:
        if k & 1:
            acc = P if acc is None else add(acc, P)
        k >>= 1
        if k:
            P = add(P, P)
    return acc


def _program(
    curve: Curve, divisors: Sequence[Divisor], symbols: Sequence[str]
) -> Callable[[Sequence[Point]], list[Point]]:
    """The divisors compiled into one program over the symbol order: the
    returned function takes the points of the symbols, in that order, and
    returns each divisor's sum by the group law.  No discrete log stands in
    for an addition.

    Slots hold the points, the identity, then the result of each step; a
    step (coeff, first, rest) adds the slots of rest to slot first and
    multiplies by coeff, and equal steps are made once.  A bucket is the set
    of a divisor's symbols of one coefficient.  The distinct buckets of all
    the divisors are summed smallest first, each from the largest buckets
    already summed that it contains, disjoint from one another, plus the
    points left.  A term of coefficient 1 is its bucket's slot, -1 negates
    it and any other coefficient is one `scalar_mul`; a divisor's sum
    starts from its first term."""
    p, add = curve.p, curve._arithmetic
    index = {s: i for i, s in enumerate(symbols)}
    plans = []  # per divisor: (coefficient, bucket) in the order each first occurs
    for d in divisors:
        buckets: dict[int, set[int]] = {}
        for sym, coeff in d.coeffs:
            buckets.setdefault(coeff, set()).add(index[sym])
        plans.append([(coeff, frozenset(bucket)) for coeff, bucket in buckets.items()])
    identity = len(symbols)
    steps: list[tuple[int, int, tuple[int, ...]]] = []
    made: dict[tuple[int, int, tuple[int, ...]], int] = {}  # step -> its slot

    def step(coeff: int, parts: list[int]) -> int:
        if coeff == 1 and len(parts) == 1:
            return parts[0]
        key = (coeff, parts[0], tuple(parts[1:]))
        if key not in made:
            made[key] = identity + 1 + len(steps)
            steps.append(key)
        return made[key]

    summed: dict[frozenset, int] = {}  # bucket -> its slot, smallest first
    distinct = {bucket for plan in plans for _, bucket in plan}
    for bucket in sorted(distinct, key=lambda b: (len(b), sorted(b))):
        parts, left = [], bucket
        for done, slot in reversed(summed.items()):
            if done <= left:
                parts.append(slot)
                left = left - done
        summed[bucket] = step(1, parts + sorted(left))
    outputs = [step(1, [step(c, [summed[b]]) for c, b in plan]) if plan else identity
               for plan in plans]

    def run(points: Sequence[Point]) -> list[Point]:
        vals = [*points, None]
        for coeff, first, rest in steps:
            acc = vals[first]
            for i in rest:
                acc = add(acc, vals[i])
            if coeff == -1:
                acc = None if acc is None else (acc[0], -acc[1] % p)
            elif coeff != 1:
                acc = scalar_mul(curve, coeff, acc)
            vals.append(acc)
        return [vals[i] for i in outputs]

    return run


def evaluate_divisor(c: Curve, d: Divisor, points: dict[str, Point]) -> Point:
    """sum c_i P_i by the group law, through the program of `_program`."""
    symbols = d.symbols()
    return _program(c, [d], symbols)([points[s] for s in symbols])[0]


def pinned_curves() -> tuple[Curve, ...]:
    """The three fixture curves with distinct subgroup orders."""
    return _checked_curves(json.loads(
        resources.files("degen_atlas").joinpath("curves.json").read_text()
    ))


def _checked_curves(data: dict) -> tuple[Curve, ...]:
    """The curves of a fixture, once each generator is on its curve and the
    exponents are distinct.  That G has order exactly its exponent is proven
    once, by the table of multiples, which every draw and
    `multiple_of_generator` build before reading it."""
    curves = []
    for entry in data["curves"]:
        c = Curve(
            p=entry["p"],
            a=entry["a"],
            b=entry["b"],
            order=entry["order"],
            exponent=entry["exponent"],
            generator=tuple(entry["generator"]),
        )
        if not c.contains(c.generator):
            raise ValueError(
                f"pinned curve p={c.p}, a={c.a}, b={c.b}: generator {c.generator} "
                "is not on the curve"
            )
        curves.append(c)
    if len({c.exponent for c in curves}) != len(curves):
        raise ValueError(
            f"pinned curves must have distinct exponents, got {[c.exponent for c in curves]}"
        )
    return tuple(curves)


class PointAssignment(NamedTuple):
    """Discrete logs per symbol plus the induced curve points."""

    curve: Curve
    dlogs: tuple[tuple[str, int], ...]

    def points(self) -> dict[str, Point]:
        return {s: self.curve.multiple_of_generator(k) for s, k in self.dlogs}


@lru_cache(maxsize=64)
def _smith_form(rows: Matrix) -> SmithForm:
    """snf(rows), kept for the next call: a relation system's generator
    matrix is the same on every curve, and only the reduction mod N is not."""
    return snf(rows)


def _draws(rng: random.Random, bounds: Sequence[tuple[int, int]]) -> list[int]:
    """A draw in range(count) for each (count, count.bit_length()), made as
    CPython 3.11's rng.randrange(count) makes it, so the values and the
    generator's state are the same: getrandbits of that many bits until the
    value is below count.  A count of 1 still consumes state."""
    getrandbits = rng.getrandbits
    out = []
    for count, bits in bounds:
        r = getrandbits(bits)
        while r >= count:
            r = getrandbits(bits)
        out.append(r)
    return out


def _solution_sampler(generators: Sequence[Divisor], symbols: Sequence[str], n_mod: int):
    """Uniform sampler for {x : A x = 0 mod N}: with D = U A V in Smith form,
    x = V y, y_j = (N/g_j) r_j, g_j = gcd(D_jj, N), r_j uniform in range(g_j),
    and V's columns kept sparse mod N.  Every r_j is drawn by `_draws`, in
    order, even when g_j == 1: that draw still consumes the generator's
    state, so skipping it would shift every later draw and witness."""
    rows = [g.vector(symbols) for g in generators]
    smith = _smith_form(mat(rows or [[0] * len(symbols)]))
    diag, v = smith.diagonal, smith.v
    k = len(symbols)
    bounds, columns = [], []
    for j in range(k):
        count = gcd(diag[j] if j < len(diag) else 0, n_mod)  # y_j is a multiple of N/count
        column = [(i, n_mod // count * v[i][j] % n_mod) for i in range(k)]
        bounds.append((count, count.bit_length()))
        columns.append([(i, e) for i, e in column if e])

    def sample(rng: random.Random) -> list[int]:
        x = [0] * k
        for rj, column in zip(_draws(rng, bounds), columns):
            if rj:
                for i, e in column:
                    x[i] += e * rj
        return [xi % n_mod for xi in x]

    return sample


def _sampling_setup(system: RelationSystem, n_mod: int):
    """(generators, symbols, sampler): the system's generators, the symbols
    they constrain in sorted order, and `_solution_sampler` over those mod
    n_mod.  A generator of nonzero degree is a ValueError."""
    generators = system.generators()
    if any(g.degree() != 0 for g in generators):
        raise ValueError("relation generators must have degree 0")
    symbols = sorted({s for g in generators for s in g.symbols()})
    return generators, symbols, _solution_sampler(generators, symbols, n_mod)


def _compiled(curve: Curve, divisors: Sequence[Divisor], symbols: Sequence[str]):
    """The divisors compiled once by `_program`: the returned function takes
    the discrete logs of the symbols, in that order, and returns each
    divisor's sum at the points k*G."""
    run = _program(curve, divisors, symbols)
    xs, ys = curve._multiples

    def sums(values: Sequence[int]) -> list[Point]:
        # every k is the sampler's value reduced mod N or a draw below N, so
        # 0 <= k < N: the range check of multiple_of_generator holds by
        # construction and k - 1 indexes the table
        return run([(xs[k - 1], ys[k - 1]) if k else None for k in values])

    return sums


def _checked_draw(
    sums: Callable[[Sequence[int]], list[Point]],
    generators: Sequence[Divisor],
    values: Sequence[int],
) -> list[Point]:
    """The sums at a draw, once every generator (the first sums) vanishes."""
    out = sums(values)
    for g, point in zip(generators, out):
        if point is not None:
            raise InvariantError(
                f"sampled configuration violates {g} on the curve; "
                "the congruence solver is inconsistent"
            )
    return out


def sample_config(
    system: RelationSystem, curve: Curve, seed: int = 0
) -> PointAssignment:
    """Sample symbol positions satisfying every imposed and aux relation.

    The congruence system is solved exactly mod N = curve.exponent; the free
    part is drawn uniformly from the seeded generator.  Every generator is
    then re-verified on the curve (real group law, not just dlogs).
    """
    generators, symbols, sampler = _sampling_setup(system, curve.exponent)
    if not symbols:
        return PointAssignment(curve, ())
    values = sampler(random.Random(seed))
    _checked_draw(_compiled(curve, generators, symbols), generators, values)
    return PointAssignment(curve, tuple(zip(symbols, values)))


class MembershipVerdict(NamedTuple):
    verdict: str  # "SUPPORTED" | "REFUTED"
    trials: int
    witness: Optional[PointAssignment] = None

    def as_json(self) -> dict:
        out = {"verdict": self.verdict, "trials": self.trials}
        if self.witness is not None:
            out["witness"] = {s: k for s, k in self.witness.dlogs}
            out["witness_curve"] = {
                "p": self.witness.curve.p,
                "a": self.witness.curve.a,
                "b": self.witness.curve.b,
            }
        return out


MAX_TRIALS = 10_000  # 1.5-2.5 s per catalogue model on the three curves, on 2 vCPUs


def randomized_membership_test(
    system: RelationSystem,
    target: Divisor,
    trials: int = 100,
    *,
    curve: Curve,
    seed: int = 0,
) -> MembershipVerdict:
    """SUPPORTED when the target vanishes on every sampled configuration.

    A REFUTED verdict carries a witness assignment.  Symbols of the target
    that the system does not constrain are sampled freely.  At least one
    trial is required: a test that samples nothing supports nothing.  At
    most MAX_TRIALS are allowed, so that every accepted call ends in seconds.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
    if target.degree() != 0:
        raise ValueError("targets must have degree 0")
    n = curve.exponent
    generators, sys_symbols, sampler = _sampling_setup(system, n)
    extra = [s for s in target.symbols() if s not in sys_symbols]
    symbols = sys_symbols + extra
    free = [(n, n.bit_length())] * len(extra)
    # the last sum is the target's; the program sums a target equal to a
    # generator only once
    sums = _compiled(curve, (*generators, target), symbols)
    rng = random.Random(seed)
    for trial in range(trials):
        values = sampler(rng) + _draws(rng, free)
        if _checked_draw(sums, generators, values)[-1] is not None:
            witness = PointAssignment(curve, tuple(sorted(zip(symbols, values))))
            return MembershipVerdict("REFUTED", trial + 1, witness)
    return MembershipVerdict("SUPPORTED", trials)
