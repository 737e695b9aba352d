import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degen_atlas import exact_lattice
from degen_atlas.exact_lattice import (
    GramForm,
    SmithForm,
    _bareiss,
    add_vec,
    canonical_sign,
    enumerate_short,
    hnf,
    identity,
    in_span,
    mat,
    matvec,
    scale_vec,
    snf,
    span_matrix,
    sparse_rows,
    sparse_vecmat,
    transpose,
    vecmat,
)
from oracles import (
    _is_neg_def,
    box_short_vectors,
    congruent_short_vectors,
    det,
    loop_matmul,
    loop_matvec,
    loop_pairing,
    loop_vecmat,
    matmul,
    minor_gcd_divisors,
    minus_gram_of_nonsingular,
    perm_det,
    planted_gram,
    random_negative_definite,
    random_symmetric,
    rational_short_vectors,
    run_python_O,
    solve_integer,
    solve_rational,
)

D4_GRAM = mat(
    [
        [2, -1, 0, 0],
        [-1, 2, -1, -1],
        [0, -1, 2, 0],
        [0, -1, 0, 2],
    ]
)

E8_GRAM = mat(
    [
        [2, -1, 0, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, 0, 0, 0, -1],
        [0, 0, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, 0],
        [0, 0, -1, 0, 0, 0, 0, 2],
    ]
)


def neg(m):
    return mat([[-x for x in row] for row in m])


def hnf_shape_ok(h):
    """Staircase with positive pivots and reduced entries above them."""
    last = -1
    for row in h:
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is None:
            continue
        if piv <= last:
            return False
        last = piv
        if row[piv] <= 0:
            return False
    # entries above each pivot lie in [0, pivot)
    for i, row in enumerate(h):
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is None:
            continue
        for k in range(i):
            if not 0 <= h[k][piv] < row[piv]:
                return False
    return True


def test_hnf_example():
    h, u = hnf(mat([[2, 4], [1, 1]]))
    assert h == mat([[1, 1], [0, 2]])
    assert matmul(u, mat([[2, 4], [1, 1]])) == h
    assert abs(det(u)) == 1


def test_hnf_trivial_cases():
    h, u = hnf(identity(3))
    assert h == identity(3) and u == identity(3)
    h, u = hnf(mat([[0, 0], [0, 0]]))
    assert h == mat([[0, 0], [0, 0]])


def test_hnf_random_properties():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = mat([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        h, u = hnf(m)
        assert matmul(u, m) == h
        assert abs(det(u)) == 1
        assert hnf_shape_ok(h)


def diagonal_matrix(diagonal, rows, cols):
    """The rows x cols matrix with the given diagonal and zeros elsewhere."""
    return tuple(tuple(diagonal[i] if i == j else 0 for j in range(cols)) for i in range(rows))


def test_snf_examples():
    assert snf(mat([[2, 0], [0, 3]])).diagonal == (1, 6)
    assert snf(identity(4)).diagonal == (1, 1, 1, 1)
    assert snf(mat([[0]])).diagonal == (0,)
    assert snf(mat([[2, 4, 6]])).diagonal == (2,)


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = mat([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        smith = snf(m)
        u, v, diag = smith.u, smith.v, smith.diagonal
        assert matmul(matmul(u, m), v) == diagonal_matrix(diag, rows, cols)
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        nonzero = [x for x in diag if x]
        assert nonzero == minor_gcd_divisors([list(r) for r in m])
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        if rows == cols and det(m) != 0:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(det(m)) == abs(perm_det([list(r) for r in m]))


@st.composite
def small_matrices(draw):
    """An integer matrix of 1 to 4 rows and 1 to 5 columns, entries in
    [-6, 6], often of low rank: some rows are combinations of the others."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entries = st.integers(-6, 6)
    m = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            m[i] = [a * x + b * y for x, y in zip(m[0], m[i - 1])]
    return mat(m)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_matrices(), st.data())
@example(mat([[0, 0, 0]]), None)
@example(mat([[2, 4], [4, 8], [6, 12]]), None)
def test_smith_value_properties(m, data):
    rows, cols = len(m), len(m[0])
    smith = snf(m)
    u, v, diag = smith.u, smith.v, smith.diagonal
    # U.m.V = D: diagonal, a divisibility chain of nonnegative entries
    assert len(diag) == min(rows, cols)
    assert loop_matmul(loop_matmul(u, m), v) == diagonal_matrix(diag, rows, cols)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a else b == 0
    assert abs(perm_det(u)) == abs(perm_det(v)) == 1
    assert smith.rank == len(minor_gcd_divisors([list(r) for r in m]))
    basis = smith.kernel()
    assert len(basis) == cols - smith.rank
    for b in basis:
        assert loop_matvec(m, b) == (0,) * rows
    # targets: the columns' combinations, then each moved off by a unit vector
    gens = transpose(m)
    targets = []
    if data is not None:
        for _ in range(3):
            c = data.draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols))
            t = loop_matvec(m, c)
            targets += [t, tuple(x + (i == 0) for i, x in enumerate(t))]
    targets += [(0,) * rows, identity(rows)[-1]]
    assert [smith.solve(t) for t in targets] == solve_integer(list(gens), targets)
    for t in targets:
        assert smith.in_rational_span(t) == solve_rational(list(gens), t)


def test_kernel_basis_examples():
    assert snf(mat([[1, 1]])).kernel() in (((1, -1),), ((-1, 1),))
    assert snf(identity(2)).kernel() == ()
    # saturation: the kernel of [2, -4] is generated by (2, 1), not (4, 2)
    (k,) = snf(mat([[2, -4]])).kernel()
    assert k in ((2, 1), (-2, -1))


def test_kernel_is_saturated_randomly():
    rng = random.Random(3)
    for _ in range(30):
        rows = rng.randint(1, 3)
        cols = rng.randint(2, 5)
        m = mat([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        basis = snf(m).kernel()
        for v in basis:
            assert all(sum(r[i] * v[i] for i in range(cols)) == 0 for r in m)
        # any kernel vector found by scanning a small box must be an integer
        # combination of the basis
        from itertools import product as iproduct

        for v in iproduct(range(-2, 3), repeat=cols):
            if any(sum(r[i] * v[i] for i in range(cols)) != 0 for r in m):
                continue
            assert in_span(tuple(v), basis) is not None


def test_in_span():
    g1, g2 = (1, 0, 2), (0, 1, 1)
    assert in_span(g1, [g1, g2]) == (1, 0)
    assert in_span((1, 0), [(2, 0)]) is None  # Z-span, not Q-span
    assert in_span((3, 2, 8), [g1, g2]) == (3, 2)


def test_smith_solve_answers_each_target():
    gens = [(2, 0, 0), (0, 3, 0)]
    targets = [(4, 3, 0), (1, 0, 0), (0, 0, 1), (2, 6, 0), (0, 0, 0)]
    smith = snf(span_matrix(gens, 3))
    assert [smith.solve(t) for t in targets] == [(2, 1), None, None, (1, 2), (0, 0)]
    no_gens = snf(span_matrix([], 2))
    assert [no_gens.solve(t) for t in [(0, 0), (1, 0)]] == [(), None]
    rng = random.Random(13)
    for _ in range(30):
        gens = [tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(rng.randint(1, 4))]
        targets = []
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            t = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(4))
            targets += [t, add_vec(t, (1, 0, 0, 0))]
        smith = snf(span_matrix(gens, 4))
        found = [smith.solve(t) for t in targets]
        assert found == [in_span(t, gens) for t in targets] == solve_integer(gens, targets)
        assert all(c is not None for c in found[::2])  # integer combinations


def test_solve_rational():
    def in_rational_span(gens, target):
        return snf(span_matrix(gens, len(target))).in_rational_span(target)

    for check in (solve_rational, in_rational_span):
        assert check([(2, 0)], (1, 0))  # Q-span, not Z-span
        assert not check([(2, 0)], (0, 1))
        assert check([], (0, 0))
        assert not check([], (1, 0))
    # against the rank of the stacked matrix, read off gcds of minors
    rng = random.Random(17)
    for _ in range(40):
        gens = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(rng.randint(1, 3))]
        coeffs = [rng.randint(-3, 3) for _ in gens]
        t = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(4))
        for target in (t, add_vec(t, (0, 1, 0, 0))):
            want = len(minor_gcd_divisors(gens)) == len(minor_gcd_divisors(gens + [target]))
            assert solve_rational(gens, target) == in_rational_span(gens, target) == want


CORRUPT_SOLVE = """
from degen_atlas import exact_lattice

coefficients = exact_lattice.SmithForm._coefficients


def corrupted(smith, target):
    # shift the first coefficient of every solution by one
    c = coefficients(smith, target)
    return None if c is None else (c[0] + 1,) + c[1:]


exact_lattice.SmithForm._coefficients = corrupted
gens = [(1, 0, 2), (0, 1, 1)]
for call in (lambda: exact_lattice.in_span((3, 2, 8), gens),
             lambda: exact_lattice.snf(exact_lattice.span_matrix(gens, 3)).solve((1, 0, 2))):
    try:
        print("accepted:", call())
    except AssertionError as exc:
        print("rejected:", exc)
"""


def test_corrupted_span_solve_is_rejected(monkeypatch):
    coefficients = SmithForm._coefficients
    monkeypatch.setattr(SmithForm, "_coefficients", lambda smith, t: (
        lambda c: None if c is None else (c[0] + 1,) + c[1:])(coefficients(smith, t)))
    with pytest.raises(AssertionError, match=r"^span coefficients \(4, 2\) do not re-expand "
                       r"to \(3, 2, 8\)$"):
        in_span((3, 2, 8), [(1, 0, 2), (0, 1, 1)])


def test_corrupted_span_solve_is_rejected_under_python_O():
    # the re-expansion guard must not be an assert that -O strips
    done = run_python_O(["-c", CORRUPT_SOLVE], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "rejected: span coefficients (4, 2) do not re-expand to (3, 2, 8)",
        "rejected: span coefficients (2, 0) do not re-expand to (1, 0, 2)",
    ]


def test_quotient_pairing_independent_of_representatives():
    # L = (h-perp in xi-perp) / Z xi of D8D8, lifted by its reps
    from degen_atlas.root_classifier import script_L
    from degen_atlas.surface_pair import catalogue_model

    m = catalogue_model("D8D8")
    amb, xi = m.lattice.gram_form, m.xi
    q = script_L(m)
    rng = random.Random(5)
    for _ in range(20):
        a = tuple(rng.randint(-3, 3) for _ in range(len(q.reps)))
        b = tuple(rng.randint(-3, 3) for _ in range(len(q.reps)))
        # any lift, shifted by any multiple of xi, pairs as in the quotient
        v = add_vec(q.lift(a), scale_vec(rng.randint(-3, 3), xi))
        w = add_vec(q.lift(b), scale_vec(rng.randint(-3, 3), xi))
        assert amb.pairing(v, w) == q.gram.pairing(a, b)


def test_enumerate_short_single_minus2():
    g = GramForm(mat([[-2]]))
    assert enumerate_short(g, 2) == {(1,): -2}


def test_enumerate_short_d4_and_e8_root_counts():
    assert len(enumerate_short(GramForm(neg(D4_GRAM)), 2)) == 12  # 24 roots
    assert len(enumerate_short(GramForm(neg(E8_GRAM)), 2)) == 120  # 240 roots


@pytest.mark.parametrize("bound", [0, -2])
def test_enumerate_short_needs_a_positive_bound(bound):
    with pytest.raises(ValueError) as exc:
        enumerate_short(GramForm(mat([[-2]])), bound)
    assert str(exc.value) == "bound must be a positive integer"


def test_enumerate_short_rejects_indefinite():
    with pytest.raises(ValueError):
        enumerate_short(GramForm(mat([[0, 1], [1, 0]])), 2)


def test_enumerate_short_matches_box_oracle():
    # diagonals -1..-4, so odd norms -1 and -3 occur
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(1, 5)
        gram = mat(random_negative_definite(rng, n))
        got = enumerate_short(GramForm(gram), 4)
        want = [tuple(v) for v in box_short_vectors([list(r) for r in gram], 4)]
        assert list(got) == want
        assert got == rational_short_vectors(gram, 4)
        for v, norm in got.items():
            assert norm == sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def test_enumerate_short_matches_the_rational_walk_at_ranks_7_to_12():
    # random_negative_definite rejection-samples and would need tens of
    # thousands of draws per form at these ranks; -(A^T A) needs none.  The
    # box oracle is too slow here, so the exact rational walk is the reference.
    rng = random.Random(20261018)
    found = {}
    for n in range(7, 13):
        for _ in range(3):
            gram = mat(minus_gram_of_nonsingular(rng, n))
            for bound in (4, 12):
                got = enumerate_short(GramForm(gram), bound)
                assert got == rational_short_vectors(gram, bound), (n, bound, gram)
                found[n] = found.get(n, 0) + len(got)
    assert all(found[n] > 0 for n in range(7, 13)), found


def test_enumerate_short_rejects_exactly_the_indefinite_forms():
    # [[0]] stops at the first pivot, [[-1, 1], [1, -1]] at a zero second
    # pivot, [[-1, 2], [2, -1]] at a negative one
    forms = [[[0]], [[-1, 1], [1, -1]], [[-1, 2], [2, -1]]]
    rng = random.Random(20261019)
    for i in range(60):
        n = rng.randint(1, 5)
        # half drawn definite, half with diagonal entries in -4..4
        forms.append(random_negative_definite(rng, n) if i % 2 else
                     random_symmetric(rng, n, (-4, 4)))
    not_definite = 0
    for gram in forms:
        g = GramForm(mat(gram))
        if _is_neg_def(gram):
            assert enumerate_short(g, 4) == rational_short_vectors(gram, 4)
        else:
            not_definite += 1
            with pytest.raises(ValueError, match="not negative definite"):
                enumerate_short(g, 4)
    assert 25 <= not_definite <= 40


def test_enumerate_short_d4_matches_oracle():
    # E8's box is too large to scan exhaustively; its 240-root count above is
    # already an independent classical cross-check.
    gram = neg(D4_GRAM)
    for bound in (2, 4):
        got = list(enumerate_short(GramForm(gram), bound))
        want = [tuple(v) for v in box_short_vectors([list(r) for r in gram], bound)]
        assert got == want


def _leading_minors(gram):
    """Leading principal minors of -gram by permutation expansion."""
    return [perm_det([[-x for x in row[:k]] for row in gram[:k]]) for k in range(len(gram) + 1)]


def _schur_diagonals(gram, prefix, rest):
    """The diagonal, over rest, of the Schur complement of -gram's prefix
    block, by Fraction Gaussian elimination of -gram[prefix + rest]."""
    idx = list(prefix) + list(rest)
    a = [[Fraction(-gram[i][j]) for j in idx] for i in idx]
    for k in range(len(prefix)):
        for i in range(k + 1, len(idx)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][i] for i in range(len(prefix), len(idx))]


def test_bareiss_minors_and_rows():
    # d holds the leading minors of -gram permuted by order, up to the first
    # one that is not positive; each pivot is the least diagonal of the
    # remaining Schur complement (the lowest position on a tie); on definite
    # forms the rows rebuild -gram(x) exactly in the permuted coordinates.
    # -[[3, 0], [0, -1]] stops at its first pivot, where the unpivoted
    # elimination (minors 1, 3, -3) would stop at its second.
    stops_first = [[-3, 0], [0, 1]]
    assert _leading_minors(stops_first) == [1, 3, -3]
    assert _bareiss(stops_first)[0::2] == ([1, -1], [1, 0])
    rng = random.Random(20261020)
    forms = [stops_first, [[-4, -1], [-1, -2]]]
    for i in range(60):
        n = rng.randint(1, 5)
        forms.append(random_negative_definite(rng, n) if i % 2 else
                     random_symmetric(rng, n, (-4, 4)))
    definite = permuted = 0
    for gram in forms:
        n = len(gram)
        d, b, order = _bareiss(gram)
        assert sorted(order) == list(range(n))
        permuted += order != list(range(n))
        minors = _leading_minors([[gram[i][j] for j in order] for i in order])
        assert d == minors[:len(d)]
        assert all(x > 0 for x in d[:-1])
        arrangement = list(range(n))
        for k in range(len(d) - 1):
            diagonals = _schur_diagonals(gram, arrangement[:k], arrangement[k:])
            m = k + diagonals.index(min(diagonals))
            arrangement[k], arrangement[m] = arrangement[m], arrangement[k]
            assert Fraction(d[k + 1], d[k]) == min(diagonals), (gram, k)
        assert arrangement == order
        assert (d[-1] > 0) == _is_neg_def([list(r) for r in gram])
        if d[-1] <= 0:
            continue
        definite += 1
        assert len(d) == n + 1 and b[0][0] == d[1]
        for _ in range(5):
            x = [rng.randint(-3, 3) for _ in range(n)]
            y = [x[order[k]] for k in range(n)]
            rows = [d[k + 1] * y[k] + sum(b[k][j] * y[j] for j in range(k + 1, n))
                    for k in range(n)]
            terms = sum(Fraction(rows[k] ** 2, d[k] * d[k + 1]) for k in range(n))
            assert terms == -sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))
    assert 30 <= definite < 62 and permuted >= 20


def _skewed_planted_grams():
    """Three planted ADE + <-4> lattices of each rank 6..12, each in a basis
    skewed by 3 * rank elementary moves."""
    rng = random.Random(20261021)
    menu = [("A", 1), ("A", 2), ("A", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)]
    for rank in [r for r in range(6, 13) for _ in range(3)]:
        minus4 = rng.randint(0, 2)
        blocks, left = [], rank - minus4
        while left:
            blocks.append(rng.choice([b for b in menu if b[1] <= left]))
            left -= blocks[-1][1]
        yield mat(planted_gram(rng, blocks, minus4, moves=3 * rank))


def test_enumerate_short_matches_the_rational_walk_on_skewed_planted_lattices():
    # the pivoted walk against the unpivoted rational one, at the two
    # searches of generalized_roots on an even lattice: bound 2, and bound 4
    # with G.v = 0 mod 2; `permuted` counts the searches in a permuted order
    permuted = 0
    for gram in _skewed_planted_grams():
        g = GramForm(gram)
        for bound, p in ((2, 1), (4, 2)):
            assert enumerate_short(g, bound, p) == congruent_short_vectors(gram, bound, p), gram
            permuted += g.bareiss[2] != list(range(len(gram)))
    assert permuted >= 30


def test_enumerate_short_is_equivariant_under_coordinate_permutations():
    # the form gram[p][p] has the vectors v[p]: mapped back, the same sorted dict
    rng = random.Random(20261022)
    for form in _skewed_planted_grams():
        n = len(form)
        for bound, modulus in ((2, 1), (4, 2)):
            want = list(enumerate_short(GramForm(form), bound, modulus).items())
            for _ in range(3):
                p = rng.sample(range(n), n)
                moved = GramForm(mat([[form[i][j] for j in p] for i in p]))
                back = []
                for w, norm in enumerate_short(moved, bound, modulus).items():
                    v = [0] * n
                    for i, x in zip(p, w):
                        v[i] = x
                    back.append((canonical_sign(tuple(v)), norm))
                assert sorted(back) == want, (form, p)


@st.composite
def symmetric_forms(draw):
    """Small symmetric integer matrices with diagonal entries in -6..0 and
    off-diagonal ones in -2..2; about a fifth are negative definite."""
    n = draw(st.integers(1, 5))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = draw(st.integers(-6, 0))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-2, 2))
    return mat(g)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(symmetric_forms(), st.integers(1, 4))
def test_definiteness_and_short_vectors_match_the_oracles(gram, bound):
    g = GramForm(gram)
    definite = _is_neg_def([list(r) for r in gram])
    if definite:
        assert enumerate_short(g, bound) == rational_short_vectors(gram, bound)
    else:
        with pytest.raises(ValueError, match="not negative definite"):
            enumerate_short(g, bound)


def _int_matrix(n, k):
    return st.lists(st.lists(st.integers(-50, 50), min_size=k, max_size=k),
                    min_size=n, max_size=n).map(mat)


@st.composite
def kernel_operands(draw):
    """a (n x k), b (k x p), v (length k), w (length n) and a symmetric
    n x n gram; every side runs from 1 to 5, so 1 x n and n x 1 occur."""
    n, k, p = (draw(st.integers(1, 5)) for _ in range(3))
    a, b = draw(_int_matrix(n, k)), draw(_int_matrix(k, p))
    v = tuple(draw(st.lists(st.integers(-50, 50), min_size=k, max_size=k)))
    w = tuple(draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)))
    upper = draw(_int_matrix(n, n))
    gram = mat([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    return a, b, v, w, gram


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kernel_operands())
@example((((1, 2, 3),), ((4,), (5,), (6,)), (1, 0, -1), (7,), ((3,),)))  # 1 x 3 times 3 x 1
@example((((4,), (5,), (6,)), ((1, 2, 3),), (2,), (1, 0, -1),
          ((1, 0, 2), (0, -1, 0), (2, 0, 3))))  # 3 x 1 times 1 x 3
def test_product_kernels_match_the_textbook_loops(operands):
    a, b, v, w, gram = operands
    assert matmul(a, b) == loop_matmul(a, b)
    assert matvec(a, v) == loop_matvec(a, v)
    assert vecmat(w, a) == loop_vecmat(w, a)
    assert GramForm(gram).pairing(w, w[::-1]) == loop_pairing(gram, w, w[::-1])


@st.composite
def shaped_forms(draw):
    """(gram, v, w, basis): a symmetric n x n gram that is a signed
    permutation (one nonzero entry per row, as on the pair lattice), sparse
    or dense, two vectors of length n and a k x n basis, all with many zero
    entries; n runs from 1 to 8 and k from 1 to 4."""
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["signed permutation", "sparse", "dense"]))
    g = [[0] * n for _ in range(n)]
    if shape == "signed permutation":
        order = draw(st.permutations(range(n)))
        swaps = draw(st.integers(0, n // 2))
        for a, b in zip(order[:swaps], order[swaps:2 * swaps]):
            g[a][b] = g[b][a] = draw(st.sampled_from([-1, 1]))
        for i in order[2 * swaps:]:
            g[i][i] = draw(st.sampled_from([-1, 1]))
    else:
        for i in range(n):
            for j in range(i, n):
                if shape == "dense" or draw(st.integers(0, 3)) == 0:
                    g[i][j] = g[j][i] = draw(st.integers(-5, 5))
    entries = st.sampled_from([0, 0, 0, -2, -1, 1, 3])
    v, w = (tuple(draw(st.lists(entries, min_size=n, max_size=n))) for _ in range(2))
    k = draw(st.integers(1, 4))
    basis = mat(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k)))
    return mat(g), v, w, basis


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shaped_forms())
def test_sparse_row_products_match_the_textbook_loops(case):
    gram, v, w, basis = case
    g = GramForm(gram)
    assert g.pairing(v, w) == loop_pairing(gram, v, w)
    assert g.times(w) == loop_matvec(gram, w)
    assert g.sublattice_gram(basis) == loop_matmul(loop_matmul(basis, gram), transpose(basis))
    coeffs = v[:len(basis)] + (0,) * (len(basis) - len(v))
    assert sparse_vecmat(coeffs, sparse_rows(basis), len(v)) == loop_vecmat(coeffs, basis)


def test_vecmat_needs_one_entry_per_row():
    m = ((1, 2), (3, 4), (5, 6))
    assert vecmat((1, 0, -1), m) == (-4, -4)
    for v in [(1, 0), (1, 0, -1, 2)]:
        with pytest.raises(ValueError, match=f"a vector of length {len(v)} against 3 rows"):
            vecmat(v, m)
