"""Numerical corroboration of the point relations on a real elliptic curve.

The formal calculus proves relations; this module spot-checks them in the
group of an actual short Weierstrass curve over a small prime field.  Point
configurations are sampled in discrete-log coordinates with respect to a
generator G of the group's largest cyclic subgroup: the imposed relations
become linear congruences mod N, solved exactly by Smith normal form, so
sampling never needs point division; the Smith transform is kept sparse
mod N.  The curve is re-entered at the end: each drawn point k*G is read
from a per-curve table of every multiple of G, built once by adding G with
the group law, and every generator and target is re-evaluated with honest
chord-tangent group-law code, adding points of equal coefficient before one
multiplication.  The group law reads its inverses mod p from a per-curve
table that it fills as denominators first occur.

SUPPORTED verdicts are evidence modulo N-torsion artifacts; the formal
certificate from the relation module is the authoritative proof.
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from math import gcd, isqrt
from typing import Optional, Sequence

from .exact_lattice import InvariantError, mat, snf
from .period_relations import Divisor, RelationSystem

Point = Optional[tuple[int, int]]  # None is the point at infinity


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def _trial_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a x + b over F_p with its exactly counted group."""

    p: int
    a: int
    b: int
    order: int
    exponent: int  # order of the largest cyclic subgroup
    generator: tuple[int, int]

    def contains(self, pt: Point) -> bool:
        if pt is None:
            return True
        x, y = pt
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    @cached_property
    def _inverses(self) -> array:
        """inv[d] = d^-1 mod p, filled by group_law as each d first occurs;
        0 marks an entry not filled yet (0 itself has no inverse)."""
        return array("I", bytes(4 * self.p))

    @cached_property
    def _multiples(self) -> tuple[array, array]:
        """The x and y of k*G for k = 1..exponent-1, at index k - 1, built by
        adding G with the group law.  Raises ValueError unless G has order
        exactly the exponent."""
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
            point = group_law(self, point, g)
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


def group_law(c: Curve, P: Point, Q: Point) -> Point:
    """Chord-tangent addition with the identity at infinity; coordinates
    are compared mod p.  Inverses come from the curve's inverse table."""
    if P is None:
        return Q
    if Q is None:
        return P
    p = c.p
    x1, y1 = P
    x2, y2 = Q
    if (x1 - x2) % p:
        num, den = y2 - y1, (x2 - x1) % p
    elif (y1 + y2) % p == 0:
        return None
    else:  # on the curve, the same x and not opposite: P = Q
        num, den = 3 * x1 * x1 + c.a, 2 * y1 % p
    # den is never 0 for points on the curve: the chord branch has distinct
    # x, and a point with 2*y1 = 0 mod p is its own opposite, so the test
    # above returned None
    inv = c._inverses
    inverse = inv[den]
    if not inverse:
        inverse = inv[den] = pow(den, -1, p)
    slope = num * inverse % p
    x3 = (slope * slope - x1 - x2) % p
    y3 = (slope * (x1 - x3) - y1) % p
    return (x3, y3)


def negate(c: Curve, P: Point) -> Point:
    if P is None:
        return None
    return (P[0], (-P[1]) % c.p)


def scalar_mul(c: Curve, k: int, P: Point) -> Point:
    """Double-and-add, with no doubling after the top bit; negative k uses
    the inverse point."""
    if k < 0:
        k, P = -k, negate(c, P)
    acc: Point = None
    while k:
        if k & 1:
            acc = group_law(c, acc, P)
        k >>= 1
        if k:
            P = group_law(c, P, P)
    return acc


def _point_order(c: Curve, P: Point, group_order: int) -> int:
    order = group_order
    for q in _trial_factor(group_order):
        while order % q == 0 and scalar_mul(c, order // q, P) is None:
            order //= q
    return order


def curve_setup(p: int, a: int, b: int) -> Curve:
    """Count the group exactly and pick a generator of maximal order.

    Intended for small p (the count is a full x-scan with Euler's
    criterion).  Raises on composite p or a singular curve.
    """
    if not _is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    b %= p
    if (4 * a * a * a + 27 * b * b) % p == 0:
        raise ValueError("singular curve: discriminant is zero")
    order = 1  # infinity
    first_points: list[tuple[int, int]] = []
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        if rhs == 0:
            order += 1
            if len(first_points) < 60:
                first_points.append((x, 0))
            continue
        chi = pow(rhs, (p - 1) // 2, p)
        if chi == 1:
            order += 2
            if len(first_points) < 60:
                y = _sqrt_mod(rhs, p)
                first_points.append((x, y))
    stub = Curve(p, a, b, order, order, first_points[0])
    exponent = 1
    orders = []
    for pt in first_points:
        o = _point_order(stub, pt, order)
        orders.append((pt, o))
        exponent = exponent * o // gcd(exponent, o)
    generator = next(pt for pt, o in orders if o == exponent)
    # For an elliptic curve group Z_m x Z_n (m | n) the scan above finds a
    # point of maximal order n as long as enough points are sampled; verify
    # the structural constraint n | order and order | n^2.
    if order % exponent or (exponent * exponent) % order:
        raise ValueError(
            f"largest point order {exponent} found does not fit the group order "
            f"{order} (it must divide it, and its square must be a multiple)"
        )
    return Curve(p, a, b, order, exponent, generator)


def _sqrt_mod(n: int, p: int) -> int:
    """Square root mod an odd prime (Tonelli-Shanks; p is small here).
    Raises ValueError when n has none."""
    n %= p
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
    elif pow(n, (p - 1) // 2, p) != 1:  # Tonelli-Shanks needs a nonzero square
        raise ValueError(f"{n} has no square root mod {p}")
    else:
        r = _tonelli_shanks(n, p)
    if r * r % p != n:
        raise ValueError(f"{n} has no square root mod {p}")
    return r


def _tonelli_shanks(n: int, p: int) -> int:
    """A root of a nonzero square n mod an odd prime p = 1 mod 4."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, cc, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, temp = 0, t
        while temp != 1:
            temp = temp * temp % p
            i += 1
        bexp = pow(cc, 1 << (m - i - 1), p)
        m, cc, t, r = i, bexp * bexp % p, t * bexp * bexp % p, r * bexp % p
    return r


def pinned_curves() -> tuple[Curve, ...]:
    """The three fixture curves with distinct subgroup orders."""
    return _checked_curves(json.loads(
        resources.files("degen_atlas").joinpath("curves.json").read_text()
    ))


def _checked_curves(data: dict) -> tuple[Curve, ...]:
    """The curves of a fixture, once each generator is on its curve and has
    order exactly its exponent, and the exponents are distinct."""
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
        where = f"pinned curve p={c.p}, a={c.a}, b={c.b}"
        if not c.contains(c.generator):
            raise ValueError(f"{where}: generator {c.generator} is not on the curve")
        if scalar_mul(c, c.exponent, c.generator) is not None:
            raise ValueError(f"{where}: exponent*G is not the identity (exponent {c.exponent})")
        for q in _trial_factor(c.exponent):
            if scalar_mul(c, c.exponent // q, c.generator) is None:
                raise ValueError(
                    f"{where}: (exponent/{q})*G is the identity, so G has order "
                    f"below the exponent {c.exponent}"
                )
        curves.append(c)
    if len({c.exponent for c in curves}) != len(curves):
        raise ValueError(
            f"pinned curves must have distinct exponents, got {[c.exponent for c in curves]}"
        )
    return tuple(curves)


@dataclass(frozen=True)
class PointAssignment:
    """Discrete logs per symbol plus the induced curve points."""

    curve: Curve
    dlogs: tuple[tuple[str, int], ...]

    def points(self) -> dict[str, Point]:
        return {s: self.curve.multiple_of_generator(k) for s, k in self.dlogs}


def evaluate_divisor(c: Curve, d: Divisor, points: dict[str, Point]) -> Point:
    """sum c_i P_i by the group law: the points of each distinct coefficient
    are added into one bucket, which starts from its first point, and each
    bucket is multiplied once.  No discrete log stands in for an addition."""
    buckets: dict[int, Point] = {}
    for sym, coeff in d.coeffs:
        pt = points[sym]
        buckets[coeff] = group_law(c, buckets[coeff], pt) if coeff in buckets else pt
    total: Point = None
    for coeff, bucket in buckets.items():
        total = group_law(c, total, scalar_mul(c, coeff, bucket))
    return total


def _solution_sampler(generators: Sequence[Divisor], symbols: Sequence[str], n_mod: int):
    """Uniform sampler for {x : A x = 0 mod N}: with D = U A V in Smith form,
    x = V y, y_j = (N/g_j) r_j, g_j = gcd(D_jj, N), r_j uniform in range(g_j),
    and V's columns kept sparse mod N.  Every r_j is drawn, in order, even
    when g_j == 1: randrange(1) still consumes the generator's state, so
    skipping it would shift every later draw and witness."""
    rows = [[coeffs.get(s, 0) for s in symbols] for coeffs in map(Divisor.as_dict, generators)]
    d, _, v = snf(mat(rows or [[0] * len(symbols)]))
    k = len(symbols)
    columns = []
    for j in range(k):
        count = gcd(d[j][j] if j < len(d) else 0, n_mod)  # y_j is a multiple of N/count
        column = [(i, n_mod // count * v[i][j] % n_mod) for i in range(k)]
        columns.append((count, [(i, e) for i, e in column if e]))

    def sample(rng: random.Random) -> list[int]:
        x = [0] * k
        for count, column in columns:
            rj = rng.randrange(count)
            if rj:
                for i, e in column:
                    x[i] += e * rj
        return [xi % n_mod for xi in x]

    return sample


def _checked_draw(
    curve: Curve, generators: Sequence[Divisor], dlogs: tuple[tuple[str, int], ...]
) -> tuple[PointAssignment, dict[str, Point]]:
    """The assignment and its points, once every generator vanishes on them."""
    assignment = PointAssignment(curve, dlogs)
    pts = assignment.points()
    for g in generators:
        if evaluate_divisor(curve, g, pts) is not None:
            raise InvariantError(
                f"sampled configuration violates {g} on the curve; "
                "the congruence solver is inconsistent"
            )
    return assignment, pts


def sample_config(
    system: RelationSystem, curve: Curve, seed: int = 0
) -> PointAssignment:
    """Sample symbol positions satisfying every imposed and aux relation.

    The congruence system is solved exactly mod N = curve.exponent; the free
    part is drawn uniformly from the seeded generator.  Every generator is
    then re-verified on the curve (real group law, not just dlogs).
    """
    generators = system.generators()
    if any(g.degree() != 0 for g in generators):
        raise ValueError("relation generators must have degree 0")
    symbols = sorted({s for g in generators for s in g.symbols()})
    if not symbols:
        return PointAssignment(curve, ())
    rng = random.Random(seed)
    sampler = _solution_sampler(generators, symbols, curve.exponent)
    assignment, _ = _checked_draw(curve, generators, tuple(zip(symbols, sampler(rng))))
    return assignment


@dataclass(frozen=True)
class MembershipVerdict:
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
    trial is required: a test that samples nothing supports nothing.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if target.degree() != 0:
        raise ValueError("targets must have degree 0")
    generators = system.generators()
    extra = [s for s in target.symbols()
             if not any(s in g.symbols() for g in generators)]
    rng = random.Random(seed)
    sys_symbols = sorted({s for g in generators for s in g.symbols()})
    sampler = _solution_sampler(generators, sys_symbols, curve.exponent)
    for trial in range(trials):
        dlogs = dict(zip(sys_symbols, sampler(rng)))
        for s in extra:
            dlogs[s] = rng.randrange(curve.exponent)
        assignment, pts = _checked_draw(curve, generators, tuple(sorted(dlogs.items())))
        if evaluate_divisor(curve, target, pts) is not None:
            return MembershipVerdict("REFUTED", trial + 1, assignment)
    return MembershipVerdict("SUPPORTED", trials)

