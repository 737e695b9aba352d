import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degen_atlas import exact_lattice
from degen_atlas.exact_lattice import (
    GramForm,
    _bareiss,
    add_vec,
    det,
    enumerate_short,
    hnf,
    identity,
    in_span,
    in_span_many,
    kernel_basis,
    mat,
    matmul,
    matvec,
    quotient_by_isotropic,
    scale_vec,
    snf,
    solve_integer,
    solve_rational,
    sparse_rows,
    sparse_vecmat,
    transpose,
    vecmat,
)
from oracles import (
    _is_neg_def,
    box_short_vectors,
    loop_matmul,
    loop_matvec,
    loop_pairing,
    loop_vecmat,
    minor_gcd_divisors,
    minus_gram_of_nonsingular,
    perm_det,
    random_negative_definite,
    random_symmetric,
    rational_short_vectors,
    run_python_O,
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


def test_snf_examples():
    d, u, v, w = snf(mat([[2, 0], [0, 3]]))
    assert d == mat([[1, 0], [0, 6]])
    d, u, v, w = snf(identity(4))
    assert d == identity(4)
    d, u, v, w = snf(mat([[0]]))
    assert d == mat([[0]])


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = mat([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        d, u, v, w = snf(m)
        assert matmul(matmul(u, m), v) == d
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        assert loop_matmul(v, w) == identity(cols)
        diag = [d[i][i] for i in range(min(rows, cols))]
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


def test_kernel_basis_examples():
    assert kernel_basis(mat([[1, 1]])) in (((1, -1),), ((-1, 1),))
    assert kernel_basis(identity(2)) == ()
    # saturation: the kernel of [2, -4] is generated by (2, 1), not (4, 2)
    (k,) = kernel_basis(mat([[2, -4]]))
    assert k in ((2, 1), (-2, -1))


def test_kernel_is_saturated_randomly():
    rng = random.Random(3)
    for _ in range(30):
        rows = rng.randint(1, 3)
        cols = rng.randint(2, 5)
        m = mat([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        basis = kernel_basis(m)
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


def test_in_span_many_solves_each_target():
    gens = [(2, 0, 0), (0, 3, 0)]
    targets = [(4, 3, 0), (1, 0, 0), (0, 0, 1), (2, 6, 0), (0, 0, 0)]
    assert in_span_many(targets, gens) == [(2, 1), None, None, (1, 2), (0, 0)]
    assert in_span_many([(0, 0), (1, 0)], []) == [(), None]
    rng = random.Random(13)
    for _ in range(30):
        gens = [tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(rng.randint(1, 4))]
        targets = []
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            t = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(4))
            targets += [t, add_vec(t, (1, 0, 0, 0))]
        found = in_span_many(targets, gens)
        assert found == [in_span(t, gens) for t in targets]
        assert all(c is not None for c in found[::2])  # integer combinations


def test_solve_rational():
    assert solve_rational([(2, 0)], (1, 0))  # Q-span, not Z-span
    assert not solve_rational([(2, 0)], (0, 1))
    assert solve_rational([], (0, 0))
    assert not solve_rational([], (1, 0))
    # against the rank of the stacked matrix, read off gcds of minors
    rng = random.Random(17)
    for _ in range(40):
        gens = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(rng.randint(1, 3))]
        coeffs = [rng.randint(-3, 3) for _ in gens]
        t = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(4))
        for target in (t, add_vec(t, (0, 1, 0, 0))):
            want = len(minor_gcd_divisors(gens)) == len(minor_gcd_divisors(gens + [target]))
            assert solve_rational(gens, target) == want


CORRUPT_SOLVE = """
from degen_atlas import exact_lattice

solve = exact_lattice.solve_integer


def corrupted(columns, targets):
    # shift the first coefficient of every solution by one
    return [None if c is None else (c[0] + 1,) + c[1:] for c in solve(columns, targets)]


exact_lattice.solve_integer = corrupted
for call in (lambda: exact_lattice.in_span((3, 2, 8), [(1, 0, 2), (0, 1, 1)]),
             lambda: exact_lattice.in_span_many([(1, 0, 2)], [(1, 0, 2), (0, 1, 1)])):
    try:
        print("accepted:", call())
    except AssertionError as exc:
        print("rejected:", exc)
"""


def test_corrupted_span_solve_is_rejected(monkeypatch):
    solve = exact_lattice.solve_integer
    monkeypatch.setattr(exact_lattice, "solve_integer", lambda cols, ts: [
        None if c is None else (c[0] + 1,) + c[1:] for c in solve(cols, ts)])
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


NON_UNIMODULAR_SNF = """
from degen_atlas import exact_lattice
snf = exact_lattice.snf
def doubled_last_column(m):
    d, u, v, w = snf(m)
    return d, u, exact_lattice.mat([list(row[:-1]) + [2 * row[-1]] for row in v]), w
exact_lattice.snf = doubled_last_column
amb = exact_lattice.GramForm(exact_lattice.mat([[0, 0], [0, 0]]))
try:
    print("accepted:", exact_lattice.quotient_by_isotropic(amb, exact_lattice.identity(2), (1, 0)))
except AssertionError as exc:
    print("rejected:", exc)
"""


def test_quotient_checks_its_basis_completion_under_python_O():
    # a V that still maps xi's coordinates to (1, 0) but has determinant 2,
    # so that the returned W is not its inverse, must be caught by a raise,
    # not by an assert that -O strips
    done = run_python_O(["-c", NON_UNIMODULAR_SNF], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "rejected: quotient_by_isotropic: snf's W is not the inverse of V, V W != I",
    ]


CORRUPT_COMPLETION_INVERSE = """
from degen_atlas import catalogue_model, exact_lattice, root_classifier
snf = exact_lattice.snf
def doubled_last_inverse_row(m):
    d, u, v, w = snf(m)
    if len(m) == 1:  # the one row of xi's coordinates that the basis completes
        w = w[:-1] + (tuple(2 * x for x in w[-1]),)
    return d, u, v, w
exact_lattice.snf = doubled_last_inverse_row
try:
    print("accepted:", root_classifier.script_L(catalogue_model("D17")).rank)
except exact_lattice.InvariantError as exc:
    print("rejected:", exc)
"""


def test_quotient_checks_the_inverse_of_its_completion_under_python_O():
    # V is unimodular and maps xi's coordinates to (1, 0, ...), but the W
    # beside it is not V^-1, so its rows are no basis completion
    done = run_python_O(["-c", CORRUPT_COMPLETION_INVERSE], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "rejected: quotient_by_isotropic: snf's W is not the inverse of V, V W != I",
    ]


def test_quotient_by_isotropic_rank1_zero_form():
    amb = GramForm(mat([[0, 0], [0, 0]]))
    q = quotient_by_isotropic(amb, identity(2), (1, 0))
    assert q.rank == 1
    assert q.gram.gram == mat([[0]])


def test_quotient_needs_xi_orthogonal_to_sublattice():
    # In the hyperbolic plane the isotropic generator pairs to 1 with the
    # other generator, so the induced form on H/Z*xi would depend on coset
    # representatives; the operation must refuse.
    amb = GramForm(mat([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match="^xi is not isotropic on the sublattice$"):
        quotient_by_isotropic(amb, identity(2), (1, 0))


def test_quotient_rejects_bad_xi():
    # xi is given by its coordinates in the rows, so it always lies in S;
    # the first two also fail a later check, so the order is pinned
    amb = GramForm(mat([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match="^vecmat: a vector of length 2 against 1 rows$"):
        quotient_by_isotropic(amb, mat([[1, 0]]), (0, 1))  # two coordinates for one row
    with pytest.raises(ValueError, match="^xi is not primitive in the sublattice$"):
        quotient_by_isotropic(amb, identity(2), (2, 0))  # pairs to 2 with S
    with pytest.raises(ValueError, match="^xi is not isotropic on the sublattice$"):
        quotient_by_isotropic(amb, identity(2), (1, 1))


def test_quotient_pairing_independent_of_representatives():
    # rank-3 ambient: hyperbolic plane + <-2>, quotient by the isotropic (1,0,0)
    amb = GramForm(mat([[0, 1, 0], [1, 0, 0], [0, 0, -2]]))
    xi = (1, 0, 0)
    q = quotient_by_isotropic(amb, mat([[1, 0, 0], [0, 0, 1]]), (1, 0))
    rng = random.Random(5)
    for _ in range(20):
        a = tuple(rng.randint(-3, 3) for _ in range(q.rank))
        b = tuple(rng.randint(-3, 3) for _ in range(q.rank))
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


def test_bareiss_minors_and_rows():
    # d holds the leading minors of -gram up to the first one that is not
    # positive; on definite forms the rows rebuild -gram(x) exactly
    rng = random.Random(20261020)
    definite = 0
    for i in range(60):
        n = rng.randint(1, 5)
        gram = random_negative_definite(rng, n) if i % 2 else random_symmetric(rng, n, (-4, 4))
        d, b = _bareiss(gram)
        minors = _leading_minors(gram)
        assert d == minors[:len(d)]
        assert all(x > 0 for x in d[:-1])
        if d[-1] <= 0:
            continue
        definite += 1
        assert len(d) == n + 1 and b[0][0] == d[1]
        for _ in range(5):
            x = [rng.randint(-3, 3) for _ in range(n)]
            rows = [d[k + 1] * x[k] + sum(b[k][j] * x[j] for j in range(k + 1, n))
                    for k in range(n)]
            terms = sum(Fraction(rows[k] ** 2, d[k] * d[k + 1]) for k in range(n))
            assert terms == -sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))
    assert 30 <= definite < 60


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


def test_solve_integer_takes_no_smith_form_without_targets(monkeypatch):
    def no_snf(m):
        raise AssertionError("snf called")

    monkeypatch.setattr(exact_lattice, "snf", no_snf)
    assert solve_integer([(1, 2), (3, 4)], []) == []
    assert in_span_many([], [(1, 2), (3, 4)]) == []
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_integer([(1, 2), (3, 4, 5)], [])
