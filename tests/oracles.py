"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the code paths they check: short vectors come from
an exhaustive coefficient box, a floating-point Fincke-Pohst walk or one
over an exact rational LDL^T, determinants from permutation expansion or a
pivoting Bareiss elimination, matrix products from the textbook loops,
elementary divisors from gcds of minors, and elliptic-curve points from the
affine group law with the Fermat inverse and plain double-and-add, summed
term by term.  The oracle's congruence sampler keeps its dense form here,
and the d-semistability relation and xi are read straight off the basis
names and tags; psi adds its images one class at a time.  The span
solvers that the Smith form's own readers replaced, the plain matrix
product and the curve's group law as a function are kept here too, and so
is the component swap, the reference for reading a state in the other
orientation.  The fan's walls are checked against the least threshold
h.C / |xi.C| as a Fraction, the rule the walk's integer rays replaced.
"""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, isqrt, lcm
from operator import mul
from pathlib import Path


def box_short_vectors(gram, bound):
    """All v (one per +-pair) with -bound <= v^T gram v < 0, by brute force.

    Coordinate boxes come from the diagonal of the inverse of -gram: any v
    with Q(v) <= bound has |v_i| <= sqrt(bound * (Q^-1)_ii).
    """
    n = len(gram)
    q = [[Fraction(-gram[i][j]) for j in range(n)] for i in range(n)]
    qinv = _invert(q)
    limits = []
    for i in range(n):
        r2 = Fraction(bound) * qinv[i][i]
        limits.append(isqrt((r2.numerator + r2.denominator - 1) // r2.denominator) + 1)
    out = []
    for v in product(*[range(-l, l + 1) for l in limits]):
        norm = -sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        if 1 <= norm <= bound:
            for x in v:
                if x != 0:
                    if x > 0:
                        out.append(v)
                    break
    return sorted(out)


def brute_generalized_roots(gram, bound):
    """Generalized roots with -bound <= v^2 < 0 by brute force.

    Candidates are the box oracle's short vectors.  A primitive candidate v
    is kept when its reflection w -> w - 2 (v, w) / (v, v) v sends every
    basis vector e_i to an integer vector.  Returns the roots of norm -2,
    of norm -4 and of any other norm, each sorted, one per +-pair.
    """
    n = len(gram)
    by_norm = {-2: [], -4: [], None: []}
    for v in box_short_vectors(gram, bound):
        g = 0
        for x in v:
            g = gcd(g, x)
        if g != 1:
            continue
        norm = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        shifts = [Fraction(2 * sum(v[j] * gram[j][i] for j in range(n)), norm)
                  for i in range(n)]
        images = [[int(k == i) - shifts[i] * v[k] for k in range(n)] for i in range(n)]
        if all(x.denominator == 1 for image in images for x in image):
            by_norm[norm if norm in by_norm else None].append(tuple(v))
    return tuple(by_norm[k] for k in (-2, -4, None))


def fincke_pohst_short_vectors(gram, bound):
    """{v: v^T gram v} for all v (one per +-pair) with -bound <= v^2 < 0.

    A Fincke-Pohst walk in floating point over the Cholesky factors of
    -gram, with a margin on every interval.  Norms are integers, so the
    margin admits no vector beyond the bound, and rounding the float norm
    recovers the exact one.
    """
    n = len(gram)
    q = [[float(-x) for x in row] for row in gram]
    a = [0.0] * n  # -v^2 = sum_i a[i] * (v_i + sum_{j>i} mu[i][j] v_j)^2
    mu = [[0.0] * n for _ in range(n)]
    for i in range(n):
        a[i] = q[i][i] - sum(mu[k][i] ** 2 * a[k] for k in range(i))
        for j in range(i + 1, n):
            mu[i][j] = (q[i][j] - sum(mu[k][i] * mu[k][j] * a[k] for k in range(i))) / a[i]
    eps = 1e-6
    out = {}
    v = [0] * n

    def walk(i, left, above_zero):
        if i < 0:
            if not above_zero:
                w = tuple(v) if next(x for x in v if x) > 0 else tuple(-x for x in v)
                out[w] = -round(bound - left)
            return
        center = -sum(mu[i][j] * v[j] for j in range(i + 1, n))
        r = (max(left, 0.0) / a[i]) ** 0.5
        lo = ceil(center - r - eps)
        if above_zero:
            lo = max(lo, 0)
        for x in range(lo, floor(center + r + eps) + 1):
            v[i] = x
            walk(i - 1, left - a[i] * (x - center) ** 2, above_zero and x == 0)
        v[i] = 0

    walk(n - 1, bound + eps, True)
    return dict(sorted(out.items()))


def rational_short_vectors(gram, bound):
    """{v: v^T gram v} for all v (one per +-pair) with -bound <= v^2 < 0.

    A Fincke-Pohst walk over the exact rational LDL^T of -gram,
    -v^2 = sum_i a[i] (v_i + sum_{j>i} c[i][j] v_j)^2, with the fractions
    cleared to integers once: level i scales by l_i = lcm of the
    denominators of c[i][*], and the budget by m = lcm of den(a[i]) l_i^2.
    Raises ValueError when -gram is not positive definite.
    """
    n = len(gram)
    q = [[Fraction(-gram[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("form is not negative definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
    lden = [1] * n
    for i in range(n):
        for j in range(i + 1, n):
            lden[i] = lcm(lden[i], q[i][j].denominator)
    cint = [[int(q[i][j] * lden[i]) if j > i else 0 for j in range(n)] for i in range(n)]
    m = 1
    for i in range(n):
        m = lcm(m, q[i][i].denominator * lden[i] ** 2)
    kcoef = [int(m * q[i][i] / lden[i] ** 2) for i in range(n)]
    out = {}
    v = [0] * n

    def walk(i, left, above_zero):
        if i < 0:
            if not above_zero:
                w = tuple(v) if next(x for x in v if x) > 0 else tuple(-x for x in v)
                out[w] = left // m - bound
            return
        center = sum(cint[i][j] * v[j] for j in range(i + 1, n))
        r = isqrt(left // kcoef[i])  # |l_i v_i + center| <= r
        lo = -((r + center) // lden[i])
        if above_zero:
            lo = max(lo, 0)
        for x in range(lo, (r - center) // lden[i] + 1):
            used = kcoef[i] * (lden[i] * x + center) ** 2
            if used <= left:
                v[i] = x
                walk(i - 1, left - used, above_zero and x == 0)
        v[i] = 0

    walk(n - 1, m * bound, True)
    return dict(sorted(out.items()))


def congruent_short_vectors(gram, bound, p):
    """The vectors of `rational_short_vectors` with G.v = 0 mod p, each
    entry of G.v a dot product of a row of G with v."""
    return {v: norm for v, norm in rational_short_vectors(gram, bound).items()
            if all(sum(map(mul, row, v)) % p == 0 for row in gram)}


def filtered_generalized_roots(gram, bound):
    """Generalized roots with -bound <= v^2 < 0 by search and filter.

    Every short vector of `fincke_pohst_short_vectors` is tested: a
    primitive v of norm -k is kept when k divides 2 (G.v)_i for every i.
    Returns the roots of norm -2, of norm -4 and of any other norm, each
    sorted, one per +-pair.
    """
    by_norm = {-2: [], -4: [], None: []}
    for v, norm in fincke_pohst_short_vectors(gram, bound).items():
        if gcd(*v) != 1:
            continue
        if all(2 * sum(g * x for g, x in zip(row, v)) % norm == 0 for row in gram):
            by_norm[norm if norm in by_norm else None].append(v)
    return tuple(by_norm[k] for k in (-2, -4, None))


def dynkin_edges(letter, rank):
    """Edges of the A, D or E Dynkin diagram on nodes 0..rank-1."""
    path = [(i, i + 1) for i in range(rank - 2)]
    if letter == "A":
        return [(i, i + 1) for i in range(rank - 1)]
    if letter == "D":
        return path + [(rank - 3, rank - 1)]
    return path + [(2, rank - 1)]  # E: the branch node is the third one


def planted_gram(rng, blocks, minus4, moves):
    """Gram matrix of the ADE blocks plus `minus4` <-4> summands in a random
    basis: the block-diagonal form conjugated by a product of `moves`
    elementary unimodular matrices (a row plus or minus another row)."""
    n = sum(r for _, r in blocks) + minus4
    g = [[0] * n for _ in range(n)]
    at = 0
    for letter, rank in blocks:
        for i in range(rank):
            g[at + i][at + i] = -2
        for i, j in dynkin_edges(letter, rank):
            g[at + i][at + j] = g[at + j][at + i] = 1
        at += rank
    for i in range(at, n):
        g[i][i] = -4
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(moves if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return [
        tuple(sum(u[a][k] * g[k][l] * u[b][l] for k in range(n) for l in range(n))
              for b in range(n))
        for a in range(n)
    ]


def _invert(a):
    n = len(a)
    m = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def det(m):
    """Exact determinant by fraction-free Bareiss elimination with row
    pivoting, for any square matrix; ValueError for a non-square one."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def perm_det(m):
    """Determinant by permutation expansion: the signed sum, over every
    permutation p, of the products m[0][p(0)] ... m[n-1][p(n-1)].

    The partial products over rows 0..k-1 are summed by the set of columns
    they use, so each set is expanded once, and zero entries are skipped:
    a sparse 17 x 17 matrix takes milliseconds.  Giving row k the column c
    adds one inversion per earlier row in a column after c.
    """
    n = len(m[0]) if m else 0
    partial = {0: 1}  # bit set of the columns used -> signed sum of products
    for row in m:
        # each nonzero entry with its column's bit and the bits of the columns after it
        entries = [(1 << c, (1 << n) - (2 << c), x) for c, x in enumerate(row) if x]
        grown = {}
        for used, total in partial.items():
            for bit, after, x in entries:
                if not used & bit:
                    term = -total * x if (used & after).bit_count() % 2 else total * x
                    grown[used | bit] = grown.get(used | bit, 0) + term
        partial = grown
    return sum(partial.values())


def loop_matmul(a, b):
    """a @ b by the textbook triple loop (a is n x k, b is k x p)."""
    out = [[0] * len(b[0]) for _ in a]
    for i in range(len(a)):
        for j in range(len(b[0])):
            for k in range(len(b)):
                out[i][j] += a[i][k] * b[k][j]
    return tuple(map(tuple, out))


def loop_matvec(m, v):
    """m @ v, the column vector v, by the textbook double loop."""
    out = [0] * len(m)
    for i in range(len(m)):
        for k in range(len(v)):
            out[i] += m[i][k] * v[k]
    return tuple(out)


def loop_vecmat(v, m):
    """v @ m, the row vector v, by the textbook double loop."""
    out = [0] * len(m[0])
    for j in range(len(m[0])):
        for k in range(len(v)):
            out[j] += v[k] * m[k][j]
    return tuple(out)


def loop_pairing(gram, v, w):
    """sum_ij v_i gram_ij w_j by the textbook double loop."""
    total = 0
    for i in range(len(v)):
        for j in range(len(w)):
            total += v[i] * gram[i][j] * w[j]
    return total


def matmul(a, b):
    """a @ b, each entry the dot product of a row of a and a column of b."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a)


def minor_gcd_divisors(m):
    """Elementary divisors d1 | d2 | ... via gcds of k x k minors."""
    rows, cols = len(m), len(m[0])
    divisors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                sub = [[m[r][c] for c in cs] for r in rs]
                g = gcd(g, perm_det(sub))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def classical_root_count(letter, rank):
    """Number of roots (both signs) of an ADE root system."""
    if letter == "A":
        return rank * (rank + 1)
    if letter == "D":
        return 2 * rank * (rank - 1)
    return {6: 72, 7: 126, 8: 240}[rank]


def box_volume(gram, bound):
    """Number of candidate vectors the box oracle would scan."""
    n = len(gram)
    q = [[Fraction(-gram[i][j]) for j in range(n)] for i in range(n)]
    qinv = _invert(q)
    vol = 1
    for i in range(n):
        r2 = Fraction(bound) * qinv[i][i]
        vol *= 2 * (isqrt((r2.numerator + r2.denominator - 1) // r2.denominator) + 1) + 1
    return vol


def random_symmetric(rng, n, depth=(1, 4)):
    """Random symmetric integer matrix: each diagonal entry is -d with d
    drawn from depth[0]..depth[1], each off-diagonal entry from -2..2."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -rng.randint(*depth)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.randint(-2, 2)
    return g


def random_negative_definite(rng, n, entry_bound=4, max_box=200_000):
    """Random negative definite symmetric integer matrix, rejection sampled.

    Forms whose brute-force box at bound 4 would be too large to scan are
    rejected so the oracle stays exhaustive yet affordable.
    """
    while True:
        g = random_symmetric(rng, n, (1, entry_bound))
        if _is_neg_def(g) and box_volume(g, 4) <= max_box:
            return [tuple(r) for r in g]


def _is_neg_def(g):
    """Sylvester's criterion by exact Fraction elimination of -g.

    Every principal 2x2 minor of a positive definite form is positive, a
    test without divisions that rejects many random forms.  Then the pivots of
    Gaussian elimination without row exchanges, the ratios of consecutive
    leading minors, must all be positive.  Row k is reduced against the
    rows above it only when its pivot is needed, so the work stops at the
    first pivot that is not positive.
    """
    n = len(g)
    if any(g[i][i] * g[j][j] <= g[i][j] ** 2 for i in range(n) for j in range(i + 1, n)):
        return False
    done = []
    for k, row in enumerate(g):
        r = [Fraction(-x) for x in row]
        for j, top in enumerate(done):
            if r[j]:
                f = r[j] / top[j]
                r[j:] = [x - f * y for x, y in zip(r[j:], top[j:])]
        if r[k] <= 0:
            return False
        done.append(r)
    return True


def d_semistability_relation(m):
    """k0 q + k1 q' minus every blown-up point, read off the basis names.

    The reference for `imposed_relations(m).r_xi` on a model whose
    exceptional classes still sit on their home components: k_i is 9 for a
    P2 base and 8 for P1xP1, and e3 (e'3) lies over the point p3 (p'3).
    """
    from degen_atlas.period_relations import Divisor

    terms = {"q": 9 if m.lattice.base0 == "P2" else 8,
             "q'": 9 if m.lattice.base1 == "P2" else 8}
    for name in m.lattice.names:
        if name.startswith("e"):
            terms["p" + name[1:]] = -1
    return Divisor.of(terms)


def toggle_tick(name):
    """The same class or point named from the other component: e1 <-> e'1,
    l <-> l', q <-> q', p3 <-> p'3.  pf, the distinguished point of D16,
    lies on no single component and keeps its name."""
    if name == "pf":
        return name
    return name.replace("'", "") if "'" in name else name[0] + "'" + name[1:]


def swap_components(m):
    """The pair with V0 and V1 exchanged.

    The lattice is rebuilt with primed and unprimed names exchanged, so
    unprimed classes again live on V0, and every tag is flipped.  The
    restriction images and auxiliary relations are renamed by the same tick
    toggle, in their keys and in their point symbols.  xi and psi change
    sign; the type, the relation spans and the mirrored fan do not change.
    """
    from degen_atlas.surface_pair import SurfaceModel, check_model_invariants, make_pair_lattice

    names = [toggle_tick(n) for n in m.lattice.names]
    exceptional = [n for n in names if n.startswith("e")]
    n1 = sum("'" in n for n in exceptional)
    lat = make_pair_lattice(m.lattice.base1, len(exceptional) - n1, m.lattice.base0, n1)
    perm = [names.index(n) for n in lat.names]

    def reorder(v):
        return tuple(v[i] for i in perm)

    def rename(terms):
        return {toggle_tick(s): c for s, c in terms.items()}

    out = SurfaceModel(
        id=m.id, lattice=lat, tags=tuple(1 - m.tags[i] for i in perm), h=reorder(m.h),
        fiber_classes=tuple(map(reorder, m.fiber_classes)), flop_history=m.flop_history,
        annotation=m.annotation,
        restrictions=None if m.restrictions is None else {
            toggle_tick(n): rename(t) for n, t in m.restrictions.items()},
        aux_relations=tuple(map(rename, m.aux_relations)),
    )
    check_model_invariants(out)
    return out


def tag_xi(m):
    """xi = E1 - E0 read off the basis names and the tags, with no cache.

    The reference for `SurfaceModel.xi`: Ei is 3l on a P2 component or
    2s + 2f on a quadric, minus every exceptional class tagged i.
    """
    xi = []
    for name, tag in zip(m.lattice.names, m.tags):
        sign = 1 if tag else -1
        xi.append(-sign if name.startswith("e") else sign * (3 if name.startswith("l") else 2))
    return tuple(xi)


def textbook_psi(m, c):
    """psi(c) = c0|E - c1|E, the reference for `period_relations.psi`: each
    basis class's image from `m.restrictions`, signed by its tag, added one
    class at a time with `Divisor.__add__`, which sorts at every step."""
    from degen_atlas.period_relations import Divisor

    total = Divisor.of({})
    for name, coeff, tag in zip(m.lattice.names, c, m.tags):
        if coeff:
            total = total + (-coeff if tag else coeff) * Divisor.of(m.restrictions[name])
    return total


def curve_class(m, entry):
    """The dense class vector of a whitelist curve, from its nonzero terms."""
    cls = [0] * m.lattice.rank
    for i, c in entry.terms:
        cls[i] = c
    return tuple(cls)


def threshold_next_wall(curves, direction):
    """The first wall along h + direction*eps*xi by the threshold rule, the
    reference for `chamber_walk.next_wall`: a curve C whose xi-degree falls
    along the direction turns negative past eps = h.C / |xi.C|, taken as a
    Fraction.  Returns the ray (denominator, direction * numerator) of the
    least eps with the set of names of the curves attaining it, or None
    when no curve's xi-degree falls along the direction."""
    eps = [(Fraction(e.h_degree, abs(e.xi_degree)), e.name)
           for e in curves if direction * e.xi_degree < 0]
    if not eps:
        return None
    least = min(t for t, _ in eps)
    return ((least.denominator, direction * least.numerator),
            {name for t, name in eps if t == least})


def minus_gram_of_nonsingular(rng, n):
    """-(A^T A) for a random nonsingular integer A with entries in -2..2.

    Every such form is negative definite, so no rank needs rejection
    sampling on definiteness: A is redrawn only when it is singular, which
    `_is_neg_def` detects as a pivot that is not positive.
    """
    while True:
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        g = [[-sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        if _is_neg_def(g):
            return [tuple(r) for r in g]


def snf_reflective_basis(gram, d):
    """Hermite basis rows of M_d = {v : G.v = 0 mod d}, from a Smith form.

    Most rows are d.e_c, so these bases test the sparse products
    `GramForm.sublattice_gram` and `sparse_vecmat` on the lattices the root
    search walks.  With D = U.G.V and U unimodular, G.v = 0 mod d exactly
    when D_ii (V^-1 v)_i = 0 mod d for every i, so the columns of V scaled
    by d / gcd(d, D_ii) are a basis of M_d.  Stacked on d.I, whose rows lie
    in M_d, their Hermite normal form is a basis with entries between 0 and
    d.  Any d >= 1 works here, prime or not.
    """
    from degen_atlas.exact_lattice import hnf, snf

    smith = snf(tuple(tuple(r) for r in gram))
    diag, v = smith.diagonal, smith.v
    n = len(v)
    rows = [tuple(d // gcd(d, diag[i]) * x for x in col) for i, col in enumerate(zip(*v))]
    rows += [tuple(d * int(i == j) for j in range(n)) for i in range(n)]
    h, _ = hnf(tuple(rows))
    return tuple(row for row in h if any(row))


def orthogonal_complement(gram, vectors):
    """Saturated basis of {w : (w, v) = 0 for every given v}: the kernel of
    the pairing rows gram @ v, each formed by the textbook loop."""
    from degen_atlas.exact_lattice import snf

    return snf(tuple(loop_matvec(gram, v) for v in vectors)).kernel()


def solve_integer(columns, targets):
    """For each target, integer coefficients c with sum c_i * columns_i =
    target, or None: the solver that `SmithForm.solve` replaced, kept as its
    reference.  It reads the Smith form's diagonal, U and V with no
    re-expansion guard."""
    from degen_atlas.exact_lattice import mat, matvec, snf

    if not columns:
        return [() if all(x == 0 for x in t) else None for t in targets]
    n = len(columns[0])
    if any(len(c) != n for c in list(columns) + list(targets)):
        raise ValueError("dimension mismatch")
    if not targets:
        return []
    smith = snf(tuple(zip(*mat(columns))))  # n x k, generators as columns
    u, v = smith.u, smith.v
    k = len(columns)
    r = min(n, k)
    diag = smith.diagonal

    def solve(target):
        ut = matvec(u, target)
        if any(ut[i] % diag[i] if diag[i] else ut[i] for i in range(r)) or any(ut[r:]):
            return None
        y = [ut[i] // diag[i] if diag[i] else 0 for i in range(r)] + [0] * (k - r)
        return matvec(v, tuple(y))

    return [solve(t) for t in targets]


def solve_rational(columns, target):
    """True when target lies in the rational span of the columns, that is
    when it is orthogonal to every vector orthogonal to all the columns: the
    reference for `SmithForm.in_rational_span`, which reads the Smith form
    of the columns themselves rather than the kernel of their transpose."""
    from degen_atlas.exact_lattice import mat, snf

    if not columns:
        return all(x == 0 for x in target)
    kernel = snf(mat(columns)).kernel()
    return not any(sum(x * y for x, y in zip(k, target)) for k in kernel)


def run_python(args, timeout, cwd=None, stdout=subprocess.PIPE, env=None):
    """`python *args` in a subprocess, with the package under test
    importable; stdout goes to `stdout`, and `env` adds variables."""
    import degen_atlas

    src = str(Path(degen_atlas.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path, **(env or {})), timeout=timeout, cwd=cwd,
    )


def run_python_O(args, timeout):
    """`python -O *args` in a subprocess, with the package under test
    importable; asserts are stripped there, so only real checks remain."""
    return run_python(["-O", *args], timeout)


def signature(gram):
    """(positives, negatives) of a nondegenerate symmetric integer form.

    Symmetric Gaussian congruence diagonalization over the rationals; when
    every remaining diagonal entry is zero, a hyperbolic pair is split by a
    basis shear first.
    """
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = 0
    live = list(range(n))
    while live:
        piv = next((i for i in live if a[i][i] != 0), None)
        if piv is None:
            i = live[0]
            j = next(k for k in live if a[i][k] != 0)
            # e_i <- e_i + e_j makes the diagonal entry 2 a_ij != 0
            for k in range(n):
                a[i][k] = a[i][k] + a[j][k]
            for k in range(n):
                a[k][i] = a[k][i] + a[k][j]
            piv = i
        d = a[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        live.remove(piv)
        for i in live:
            f = a[i][piv] / d
            if f:
                for k in range(n):
                    a[i][k] -= f * a[piv][k]
                for k in range(n):
                    a[k][i] -= f * a[k][piv]
    return pos, neg


def affine_group_law(c, P, Q):
    """P + Q on y^2 = x^3 + c.a x + c.b over F_c.p, None the identity.

    The chord-tangent law with every inverse taken as x^(p-2) (Fermat);
    coordinates are compared mod p.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    p = c.p
    x1, y1 = P
    x2, y2 = Q
    if (x1 - x2) % p == 0 and (y1 + y2) % p == 0:
        return None
    if (x1 - x2) % p == 0 and (y1 - y2) % p == 0:
        slope = (3 * x1 * x1 + c.a) * pow(2 * y1, p - 2, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def group_law(c, P, Q):
    """P + Q by the curve's own chord-tangent adder."""
    return c._arithmetic(P, Q)


def negate(c, P):
    """-P on the curve, None the identity."""
    if P is None:
        return None
    return (P[0], (-P[1]) % c.p)


def double_and_add(c, k, P):
    """k*P by right-to-left double-and-add over `affine_group_law`, doubling
    after every bit; negative k multiplies -P."""
    if k < 0:
        k, P = -k, (None if P is None else (P[0], -P[1] % c.p))
    acc = None
    while k:
        if k & 1:
            acc = affine_group_law(c, acc, P)
        P = affine_group_law(c, P, P)
        k >>= 1
    return acc


def termwise_divisor_sum(c, d, points):
    """sum c_i P_i for a Divisor d, one `double_and_add` per term, added up
    by `affine_group_law`."""
    total = None
    for sym, coeff in d.coeffs:
        total = affine_group_law(c, total, double_and_add(c, coeff, points[sym]))
    return total


def textbook_divisor_sums(c, divisors, symbols):
    """The reference for `ec_oracle._compiled`: for discrete logs of the
    symbols, in order, each divisor's sum by `termwise_divisor_sum` at the
    points k*G, each found by `double_and_add`."""
    def sums(values):
        points = {s: double_and_add(c, k, c.generator) for s, k in zip(symbols, values)}
        return [termwise_divisor_sum(c, d, points) for d in divisors]

    return sums


def dense_solution_sampler(generators, symbols, n_mod):
    """Uniform sampler for {x : A x = 0 mod N}, via Smith normal form.

    The reference for `ec_oracle._solution_sampler`: it draws y with one
    `rng.randrange` per coordinate and returns the dense product V y mod N.
    """
    from degen_atlas.exact_lattice import mat, matvec, snf

    index = {s: i for i, s in enumerate(symbols)}
    rows = []
    for g in generators:
        row = [0] * len(symbols)
        for s, cf in g.coeffs:
            row[index[s]] = cf
        rows.append(row)
    if not rows:
        rows = [[0] * len(symbols)]
    smith = snf(mat(rows))
    d, v = smith.diagonal, smith.v
    k = len(symbols)
    moduli = []
    for i in range(k):
        di = d[i] if i < len(d) else 0
        g = gcd(di, n_mod)
        # y_i must be a multiple of N/g; there are g choices mod N
        moduli.append((n_mod // g if g else 1, g if g else n_mod))

    def sample(rng):
        y = [step * rng.randrange(count) % n_mod for step, count in moduli]
        return [x % n_mod for x in matvec(v, tuple(y))]

    return sample


# The fan of each catalogue model, written out independently of the
# package's own table: boundary rays, interior walls (top, +xi side, to
# bottom) and chamber count.  A ray (m, n) is the class m*h + n*xi.
EXPECTED_FANS = {
    "A15": {"boundary": [(2, 1), (2, -1)], "walls": [(1, 0)], "chambers": 2},
    "A11E6": {"boundary": [(3, 1), (1, -1)], "walls": [(1, 0)], "chambers": 2},
    "D12D5": {"boundary": [(1, 0), (1, -1)], "walls": [], "chambers": 1},
    "D8D8": {"boundary": [(1, 0), (1, -1)], "walls": [], "chambers": 1},
    "D16": {"boundary": [(1, 0), (2, -1)], "walls": [], "chambers": 1},
    "D17": {"boundary": [(1, 0), (3, -2)], "walls": [], "chambers": 1},
    "E8D9": {"boundary": [(1, 0), (1, -2)], "walls": [], "chambers": 1},
    "E7E7A3": {"boundary": [(1, 0), (1, -2)], "walls": [(1, -1)], "chambers": 2},
    "E8E8": {"boundary": [(1, 0), (1, -3)], "walls": [(1, -1), (1, -2)], "chambers": 3},
}
