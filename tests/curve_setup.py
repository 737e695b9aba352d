"""Build a Curve from (p, a, b) by counting its group and factoring its
exponent: the tests' small curves and `regenerate_curves.py`, which
rewrites the pinned fixture.

The package itself only reads `curves.json` and re-checks it; nothing it
runs counts a group, so this code lives with the tests.
"""

from math import gcd, isqrt

from degen_atlas.ec_oracle import Curve, Point, scalar_mul


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


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
