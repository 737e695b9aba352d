"""Exact integer linear algebra for lattice computations.

Everything here works over plain Python integers (arbitrary precision), so
there is no floating point state anywhere.  Matrices are tuples of tuples of
ints, vectors are tuples of ints.  The three workhorses are

* row Hermite / Smith normal forms with unimodular transforms,
* saturated kernels and integer span membership, and
* complete short-vector enumeration in a negative definite Gram form: a
  Fincke-Pohst walk over an integer Bareiss elimination with symmetric
  pivoting, whose pivots also decide definiteness.  It returns each vector
  with its norm, and can keep only the v with G.v = 0 mod a prime p, a
  congruence it imposes level by level instead of testing at the leaves.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class InvariantError(AssertionError):
    """A check the program makes on its own results failed."""


class FrozenValue:
    """An immutable value with the fields named, in order, by `_fields`.

    Like a NamedTuple it is equal only to a value of its own class with
    equal fields, hashed by its fields and printed as Name(field=value, ...);
    unlike one it keeps an instance __dict__, where a cached_property stores
    what it computes.  A constructor checks its arguments and stores them
    with `_init`; after that, setting or deleting any attribute raises
    AttributeError.  `_replace` copies through the constructor, so the copy
    is checked again and carries over no cached value.
    """

    _fields: tuple[str, ...] = ()

    def _init(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes: object):
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def mat(rows: Iterable[Iterable[int]]) -> Matrix:
    """Freeze an iterable of iterables of ints into a Matrix."""
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def _frozen(rows: list[list[int]]) -> Matrix:
    """A Matrix of rows already checked to hold ints."""
    return tuple(map(tuple, rows))


def identity(n: int) -> Matrix:
    zero = (0,) * n
    return tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def matvec(m: Matrix, v: Vector) -> Vector:
    return tuple([sum(map(mul, row, v)) for row in m])


def vecmat(v: Vector, m: Matrix) -> Vector:
    """The row vector v times m; v needs one entry per row of m."""
    if len(v) != len(m):
        raise ValueError(f"vecmat: a vector of length {len(v)} against {len(m)} rows")
    return tuple([sum(map(mul, v, col)) for col in zip(*m)])


def add_vec(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def scale_vec(k: int, v: Vector) -> Vector:
    return tuple(k * x for x in v)


def canonical_sign(v: Vector) -> Vector:
    """The one of +-v whose first nonzero coordinate is positive."""
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _gcd_transform(a: int, b: int) -> tuple[int, int, int, int, int]:
    """Unimodular 2x2 transform sending (a, b) to (g, 0) with g = gcd >= 0.

    Returns (g, x, y, u, v) for the matrix [[x, y], [u, v]].  When a already
    divides b the transform is elementary (y = 0), which is what makes the
    normal-form eliminations terminate.
    """
    if a != 0 and b % a == 0:
        s = 1 if a > 0 else -1
        return abs(a), s, 0, -(b // a) * s, s
    if a == 0:
        s = 1 if b > 0 else -1
        return abs(b), 0, s, 1, 0
    g, x, y = _exgcd(a, b)
    return g, x, y, -(b // g), a // g


def _row_step(mats: Sequence[list], i: int, j: int, a: int, b: int, c: int, e: int) -> None:
    """(row i, row j) <- (a row i + b row j, c row i + e row j) in each matrix
    of mats, the one row step of hnf and snf; a e - b c = +-1."""
    for m in mats:
        m[i], m[j] = ([a * x + b * y for x, y in zip(m[i], m[j])],
                      [c * x + e * y for x, y in zip(m[i], m[j])])


def hnf(m: Matrix) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form.

    Returns (H, U) with H = U @ m, U unimodular.  Pivots are positive, sit on
    a staircase of strictly increasing column indices, and the entries above
    each pivot are reduced into [0, pivot).
    """
    m = mat(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [list(r) for r in m]
    u = [list(r) for r in identity(rows)]
    pivot_row = 0
    for col in range(cols):
        pr = next((r for r in range(pivot_row, rows) if h[r][col] != 0), None)
        if pr is None:
            continue
        if pr != pivot_row:
            _row_step((h, u), pivot_row, pr, 0, 1, 1, 0)
        for r in range(pivot_row + 1, rows):
            if h[r][col] == 0:
                continue
            _, x, y, p, q = _gcd_transform(h[pivot_row][col], h[r][col])
            _row_step((h, u), pivot_row, r, x, y, p, q)
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        p = h[pivot_row][col]
        for r in range(pivot_row):
            q = h[r][col] // p
            if q:
                _row_step((h, u), r, pivot_row, 1, -q, 0, 1)
        pivot_row += 1
        if pivot_row == rows:
            break
    return _frozen(h), _frozen(u)


class SmithForm(NamedTuple):
    """D = U @ matrix @ V in Smith normal form, U and V unimodular.

    D is kept as its diagonal, min(rows, cols) entries d1 | d2 | ... >= 0,
    so its nonzero entries come first.
    """

    matrix: Matrix
    diagonal: Vector
    u: Matrix
    v: Matrix

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x)

    def kernel(self) -> tuple[Vector, ...]:
        """The columns of V past the rank: a saturated basis of
        {x : matrix @ x = 0} (Cohen, GTM 138, 2.4.3)."""
        return transpose(self.v)[self.rank:]

    def _transformed(self, target: Vector) -> Vector:
        if len(target) != len(self.u):
            raise ValueError("dimension mismatch")
        return matvec(self.u, target)

    def _coefficients(self, target: Vector) -> Optional[Vector]:
        # D y = U target with c = V y: below the rank dk must divide
        # (U target)k, and from the rank on (U target)k must vanish
        ut, r = self._transformed(target), self.rank
        pivots = self.diagonal[:r]
        if any(ut[r:]) or any(x % d for x, d in zip(ut, pivots)):
            return None
        return matvec(self.v, tuple(x // d for x, d in zip(ut, pivots)) + (0,) * (len(self.v) - r))

    def solve(self, target: Vector) -> Optional[Vector]:
        """Integer c with matrix @ c = target, or None.  The guard that c
        re-expands to the target raises, so -O keeps it."""
        coeffs = self._coefficients(target)
        if coeffs is not None and matvec(self.matrix, coeffs) != tuple(target):
            raise InvariantError(f"span coefficients {coeffs} do not re-expand to {tuple(target)}")
        return coeffs

    def in_rational_span(self, target: Vector) -> bool:
        """Whether matrix @ c = target has a rational solution c."""
        return not any(self._transformed(target)[self.rank:])


def snf(m: Matrix) -> SmithForm:
    """The Smith normal form of m, found by alternating row and column
    gcd steps until each pivot divides everything below and right of it."""
    m = mat(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(r) for r in m]
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def colop(i, j, a, b, c, e):
        for row in d:
            row[i], row[j] = a * row[i] + b * row[j], c * row[i] + e * row[j]
        for row in v:
            row[i], row[j] = a * row[i] + b * row[j], c * row[i] + e * row[j]

    def clear_position(k: int) -> None:
        # Make d[k][k] the gcd of row k / column k and zero out the rest.
        while True:
            pr = pc = None
            for i in range(k, rows):
                for j in range(k, cols):
                    if d[i][j] != 0:
                        pr, pc = i, j
                        break
                if pr is not None:
                    break
            if pr is None:
                return
            if pr != k:
                _row_step((d, u), k, pr, 0, 1, 1, 0)
            if pc != k:
                colop(k, pc, 0, 1, 1, 0)
            dirty = True
            while dirty:
                dirty = False
                for i in range(k + 1, rows):
                    if d[i][k]:
                        _, x, y, p, q = _gcd_transform(d[k][k], d[i][k])
                        _row_step((d, u), k, i, x, y, p, q)
                        dirty = True
                for j in range(k + 1, cols):
                    if d[k][j]:
                        _, x, y, p, q = _gcd_transform(d[k][k], d[k][j])
                        colop(k, j, x, y, p, q)
                        dirty = True
            # Divisibility: d[k][k] must divide everything below-right.
            pivot = d[k][k]
            bad = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if d[i][j] % pivot:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                return
            _row_step((d, u), k, bad, 1, 1, 0, 1)  # fold the offending row in and retry

    for k in range(min(rows, cols)):
        clear_position(k)
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            u[k] = [-x for x in u[k]]
    diagonal = tuple(d[k][k] for k in range(min(rows, cols)))
    return SmithForm(m, diagonal, _frozen(u), _frozen(v))


def span_matrix(generators: Sequence[Vector], n: int) -> Matrix:
    """The n x k matrix whose columns are the k generators, of length n;
    n rows of no entries when there are none."""
    return transpose(mat(generators)) if generators else ((),) * n


def in_span(target: Vector, generators: Sequence[Vector]) -> Optional[Vector]:
    """Integer span membership; returns the coefficient vector or None."""
    return snf(span_matrix(generators, len(target))).solve(target)


SparseRows = tuple[tuple[tuple[int, int], ...], ...]


def sparse_rows(m: Matrix) -> SparseRows:
    """Each row of m as its (column, entry) pairs with a nonzero entry."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in m)


def sparse_vecmat(v: Vector, rows: SparseRows, n: int) -> Vector:
    """v @ m for the n-column matrix m given by its sparse rows: only v's
    nonzero entries meet only m's nonzero entries."""
    out = [0] * n
    for x, row in zip(v, rows):
        if x:
            for j, y in row:
                out[j] += x * y
    return tuple(out)


class GramForm(FrozenValue):
    """A symmetric integer bilinear form.

    Products read the matrix through `rows`, its sparse-row view, built once
    per form: each row of a pair lattice's Gram matrix has one nonzero entry.
    """

    _fields = ("gram",)

    def __init__(self, gram: Matrix) -> None:
        if any(len(row) != len(gram) for row in gram):
            raise ValueError("gram must be square")
        if gram != transpose(gram):
            raise ValueError("gram must be symmetric")
        self._init(gram)

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def rows(self) -> SparseRows:
        return sparse_rows(self.gram)

    @cached_property
    def bareiss(self) -> tuple[list[int], list[list[int]], list[int]]:
        """`_bareiss(gram)`, (d, b, order), computed once per form and only
        read: its rows and order drive `enumerate_short`, and on a negative
        definite form its last minor is |det|, which no permutation changes."""
        return _bareiss(self.gram)

    def times(self, v: Vector) -> Vector:
        """G @ v, which is v @ G since G is symmetric."""
        return sparse_vecmat(v, self.rows, len(self.gram))

    def sublattice_gram(self, basis: Matrix) -> Matrix:
        """basis @ G @ basis^T, the Gram matrix of basis' rows, from the
        nonzero entries of G and of the basis."""
        columns = sparse_rows(transpose(basis))
        return tuple(sparse_vecmat(self.times(b), columns, len(basis)) for b in basis)

    def pairing(self, v: Vector, w: Vector) -> int:
        total = 0
        for x, row in zip(v, self.rows):
            if x:
                for j, y in row:
                    total += x * y * w[j]
        return total

    def norm(self, v: Vector) -> int:
        return self.pairing(v, v)


class QuotientLattice(NamedTuple):
    """S / Z*xi for an isotropic xi orthogonal to all of S.

    reps are coset representatives in ambient coordinates; the induced gram
    does not depend on the representative choice because xi pairs to zero
    with everything in S.
    """

    reps: Matrix
    gram: GramForm

    def lift(self, coords: Vector) -> Vector:
        """A coset representative in ambient coordinates."""
        return vecmat(coords, self.reps)


def _bareiss(gram: Matrix) -> tuple[list[int], list[list[int]], list[int]]:
    """Fraction-free (Bareiss) elimination of -gram with symmetric pivoting.

    Step k takes the remaining coordinate whose current diagonal is least
    (the lowest position on a tie) and swaps it to position k in rows and
    columns.  Returns (d, b, order): order[k] is the coordinate of -gram at
    position k, so the elimination runs on P = -gram[order][order]; d[k] is
    the leading principal minor of order k of P (d[0] = 1), and row k of b
    holds the integers b[k][j] for j >= k, with b[k][k] = d[k+1], such that

        -gram(x) = sum_k (d[k+1] y_k + sum_{j>k} b[k][j] y_j)^2 / (d[k] d[k+1])

    where y_k = x[order[k]].  A current diagonal is d[k] times the Schur
    complement's, so small pivots go first and the large complements last,
    where `enumerate_short` starts its walk.  The elimination stops at the
    first pivot that is not positive, which is then the last entry of d, so
    -gram is positive definite exactly when d[-1] > 0 (Sylvester's criterion
    on P).  Every division is exact.  The eliminated matrices stay
    symmetric, so only entries j >= i are updated, those below the diagonal
    are left stale, and a swap touches O(n) entries.
    """
    n = len(gram)
    b = [[-x for x in row] for row in gram]
    d = [1]
    order = list(range(n))
    for k in range(n):
        m = min(range(k, n), key=lambda i: b[i][i])
        if m != k:
            order[k], order[m] = order[m], order[k]
            for row in b[:k]:
                row[k], row[m] = row[m], row[k]
            for j in range(k + 1, m):
                b[k][j], b[j][m] = b[j][m], b[k][j]
            b[k][k], b[m][m] = b[m][m], b[k][k]
            b[k][m + 1:], b[m][m + 1:] = b[m][m + 1:], b[k][m + 1:]
        pivot = b[k][k]
        d.append(pivot)
        if pivot <= 0:
            break
        prev, row = d[k], b[k]
        for i in range(k + 1, n):
            f = row[i]  # b[i][k], by symmetry
            b[i][i:] = [(pivot * x - f * y) // prev for x, y in zip(b[i][i:], row[i:])]
    return d, b, order


def enumerate_short(g: GramForm, bound: int, p: int = 1) -> dict[Vector, int]:
    """All v (one per antipodal pair) with -bound <= (v, v) < 0 and
    G.v = 0 mod p, as {v: (v, v)}; p is 1 or a prime (ValueError otherwise).

    g must be negative definite: every pivot of the pivoted Bareiss
    elimination of -gram is positive (ValueError otherwise).  The search is
    a depth-first Fincke-Pohst walk over its integer rows, brought once to
    common integer coefficients, so the enumeration is exact and complete
    and the budget left at a leaf is the norm.  Level k fixes coordinate
    order[k], so the walk starts where the last Schur complement keeps the
    range narrow.  The congruence is an echelon form of G over F_p with its
    columns in walk order and its pivots taken from level 0, the level
    reached last, upward: the pivot row of level k fixes that coordinate
    mod p from the levels above it, already set, and there the walk steps
    by p.  With p = 1 every entry is 0 mod 1, so no level has a rule.
    Vectors are canonicalized so their first nonzero coordinate is
    positive; the keys come sorted.
    """
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    if p != 1 and (p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1))):
        raise ValueError(f"p = {p} is neither 1 nor a prime")
    d, b, order = g.bareiss
    if d[-1] <= 0:
        raise ValueError("form is not negative definite")
    n = g.dim

    # Row k divided by its gcd g_k writes the k-th term as
    # kcoef_k * (lden_k x_k + u_k)^2 / m_scale, with u_k = sum_{j>k} cint_kj x_j
    # an integer, lden_k = d_{k+1} / g_k and kcoef_k = m_scale g_k^2 / (d_k d_{k+1}).
    # m_scale, the lcm of lden_k^2 d_k / gcd(d_k, d_{k+1}), makes each kcoef_k
    # an integer; the walk spends m_scale * bound.
    lden: list[int] = []
    cint: list[list[int]] = []
    gk: list[int] = []
    m_scale = 1
    for k in range(n):
        gk.append(gcd(*b[k][k:]))
        lden.append(d[k + 1] // gk[k])
        cint.append([0] * (k + 1) + [x // gk[k] for x in b[k][k + 1:]])
        m_scale = lcm(m_scale, d[k] // gcd(d[k], d[k + 1]) * lden[k] * lden[k])
    kcoef = [m_scale * gk[k] * gk[k] // (d[k] * d[k + 1]) for k in range(n)]

    # Level k with a pivot steps by p; rule[k] holds the pairs (coordinate
    # order[j], -a_kj mod p) for j > k, so x[order[k]] = sum c x[i] mod p.
    step = [1] * n
    rule: list[tuple[tuple[int, int], ...]] = [()] * n
    rest = [[row[i] % p for i in order] for row in g.gram]
    for k in range(n):
        top = next((row for row in rest if row[k]), None)
        if top is not None:
            rest.remove(top)
            inv = pow(top[k], -1, p)
            top = [x * inv % p for x in top]
            rest = [[(x - row[k] * y) % p for x, y in zip(row, top)] if row[k] else row
                    for row in rest]
            step[k] = p
            rule[k] = tuple((order[j], -top[j] % p) for j in range(k + 1, n) if top[j])

    found: list[tuple[Vector, int]] = []
    x = [0] * n  # in the original coordinates
    u = [[0] * n for _ in range(n + 1)]  # u[level][i]: center accumulators

    def dfs(level: int, budget: int, all_zero_above: bool) -> None:
        if level < 0:
            if not all_zero_above:
                # the walk spent m_scale * -(v, v) of the m_scale * bound budget
                found.append((tuple(x), budget // m_scale - bound))
            return
        li = lden[level]
        ui = u[level + 1][level]
        r = isqrt(budget // kcoef[level])  # |li*xi + ui| <= r, exact
        lo = -((r + ui) // li)  # ceil((-r - ui)/li)
        hi = (r - ui) // li  # floor((r - ui)/li)
        if all_zero_above and lo < 0:
            lo = 0  # one vector per antipodal pair; every rule then gives 0
        s = step[level]
        if s > 1:  # the least xi >= lo in the class the rule gives
            lo += (sum(c * x[i] for i, c in rule[level]) - lo) % s
        row = u[level + 1]
        dst = u[level]
        at = order[level]
        for xi in range(lo, hi + 1, s):
            t = li * xi + ui
            used = kcoef[level] * t * t
            if used > budget:
                continue
            x[at] = xi
            for i in range(level):
                dst[i] = row[i] + cint[i][level] * xi
            dfs(level - 1, budget - used, all_zero_above and xi == 0)
        x[at] = 0

    dfs(n - 1, m_scale * bound, True)
    return dict(sorted((canonical_sign(v), norm) for v, norm in found))
