"""Regenerate the pinned oracle curves, src/degen_atlas/curves.json.

The fixture holds three curves y^2 = x^3 + x + b over the first primes
from 10007 on, with pairwise distinct largest-cyclic-subgroup orders.  Run
from the repository root:

    PYTHONPATH=src python3 tests/regenerate_curves.py > src/degen_atlas/curves.json
"""

import json
import sys
from typing import Iterable

from degen_atlas.ec_oracle import Curve

from curve_setup import _is_prime, curve_setup


def scan_distinct_curves(
    start: int = 10007, count: int = 3, b_range: Iterable[int] = range(1, 40)
) -> list[Curve]:
    """Find `count` curves over primes >= start with pairwise distinct
    subgroup orders."""
    found: list[Curve] = []
    p = start
    while len(found) < count:
        while not _is_prime(p):
            p += 1
        for b in b_range:
            try:
                c = curve_setup(p, 1, b)
            except ValueError:
                continue
            if all(c.exponent != other.exponent for other in found):
                found.append(c)
                break
        p += 1
    return found


if __name__ == "__main__":
    curves = [
        {"p": c.p, "a": c.a, "b": c.b, "order": c.order,
         "exponent": c.exponent, "generator": list(c.generator)}
        for c in scan_distinct_curves()
    ]
    sys.stdout.write(json.dumps({"curves": curves}, indent=1))
