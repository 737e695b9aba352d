import random
from math import gcd

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from degen_atlas import exact_lattice, root_classifier
from degen_atlas.exact_lattice import (
    GramForm,
    SmithForm,
    enumerate_short,
    hnf,
    identity,
    mat,
    snf,
    span_matrix,
    sparse_rows,
    sparse_vecmat,
    transpose,
)
from degen_atlas.root_classifier import (
    GeneralizedRootSet,
    ScriptL,
    UnclassifiableError,
    classify,
    discriminant_group_order,
    generalized_roots,
    model_type,
    script_L,
    type_string,
)
from degen_atlas.surface_pair import (
    build_model,
    catalogue,
    catalogue_model,
    catalogue_row,
    class_vector,
    make_pair_lattice,
)
from oracles import (
    _is_neg_def,
    brute_generalized_roots,
    classical_root_count,
    congruent_short_vectors,
    det,
    filtered_generalized_roots,
    loop_matmul,
    loop_pairing,
    loop_vecmat,
    orthogonal_complement,
    perm_det,
    planted_gram,
    random_negative_definite,
    rational_short_vectors,
    run_python_O,
    snf_reflective_basis,
    solve_integer,
    swap_components,
)


@pytest.fixture(scope="module")
def models():
    return catalogue()


@pytest.fixture(scope="module")
def lattices(models):
    return {mid: script_L(m) for mid, m in models.items()}


def _roots_of(gram, bound=4):
    """generalized_roots of the form `gram` in the standard basis, as lists."""
    got = generalized_roots(ScriptL(gram=GramForm(mat(gram)), reps=identity(len(gram))), bound)
    return list(got.roots2), list(got.roots4), list(got.other)


@pytest.fixture(scope="module")
def a15_roots(models):
    L = script_L(models["A15"])
    return L, generalized_roots(L)


def test_script_L_rank_and_definiteness(models):
    for m in list(models.values()) + [swap_components(m) for m in models.values()]:
        L = script_L(m)
        assert len(L.reps) == 17
        assert _is_neg_def(L.gram.gram)
        amb = m.lattice.gram_form
        assert L.gram.gram == tuple(
            tuple(amb.pairing(a, b) for b in L.reps) for a in L.reps
        )


def test_generalized_roots_rejects_an_indefinite_L():
    # enumerate_short, run by generalized_roots, decides definiteness for L
    L = ScriptL(reps=identity(2), gram=GramForm(((-1, 2), (2, -1))))
    with pytest.raises(ValueError, match="not negative definite"):
        generalized_roots(L)


def test_script_L_rejects_a_model_without_polarization():
    with pytest.raises(ValueError, match="^polarization must have square 4$"):
        script_L(build_model("P2", "P2", 9))


def test_d17_discriminant_order(models):
    L = script_L(models["D17"])
    assert discriminant_group_order(L.gram) == 4


def test_script_L_matches_the_reference_route_on_every_reachable_state(reachable_states):
    # the kernel of G.h, G.xi and e_j* against h-perp in xi-perp from the
    # textbook pairing rows: each rep lies in it with coordinate j = 0, xi and
    # the reps are a basis of it, and the Gram matrix is the loop product
    assert len(reachable_states) == 28
    for label, m in reachable_states.items():
        L, gram, xi = script_L(m), m.lattice.gram_form.gram, m.xi
        j = next(i for i, x in enumerate(xi) if x in (1, -1))
        for v in L.reps:
            assert (loop_pairing(gram, v, m.h), loop_pairing(gram, v, xi), v[j]) == (0, 0, 0), label
        coords = solve_integer(orthogonal_complement(gram, [m.h, xi]), [xi, *L.reps])
        assert None not in coords and abs(det(coords)) == 1, label
        assert L.gram.gram == tuple(tuple(loop_pairing(gram, a, b) for b in L.reps)
                                    for a in L.reps), label


def test_script_L_takes_one_smith_form(models, monkeypatch):
    # the three rows G.h, G.xi and e_j*, once per model
    calls, snf = [], root_classifier.snf
    monkeypatch.setattr(root_classifier, "snf", lambda m: calls.append(len(m)) or snf(m))
    for m in models.values():
        script_L(m)
    assert calls == [3] * 9


def test_sublattice_gram_and_sparse_vecmat_match_the_textbook_loops(models):
    # sublattice_gram and sparse_vecmat, which read a basis' nonzero entries,
    # against the dense triple loops; the inputs are the nine L and bases of
    # {v : G.v = 0 mod d} from the Smith-form oracle, rows mostly d.e_c
    for mid, m in models.items():
        L = script_L(m)
        gram = L.gram.gram
        for d in (2, 3, 5, 7):
            basis = snf_reflective_basis(gram, d)
            want = loop_matmul(loop_matmul(basis, gram), transpose(basis))
            assert L.gram.sublattice_gram(basis) == want, (mid, d)
            rows = sparse_rows(basis)
            for c in [basis[0], tuple(range(-8, 9)), tuple(i % 3 - 1 for i in range(17))]:
                assert sparse_vecmat(c, rows, 17) == loop_vecmat(c, basis), (mid, d)


def test_discriminant_order_is_the_permutation_determinant(models):
    # read off the Bareiss minors that enumerate_short shares with it
    for mid, m in models.items():
        g = script_L(m).gram
        want = abs(perm_det([list(r) for r in g.gram]))
        assert discriminant_group_order(g) == want == 4, mid
        assert g.bareiss is g.bareiss
    with pytest.raises(ValueError, match="^form is not negative definite$"):
        discriminant_group_order(GramForm(((-1, 2), (2, -1))))


def test_a15_root_count_and_type(a15_roots):
    L, roots = a15_roots
    assert 2 * len(roots.roots2) == 244
    assert not roots.other
    t = classify(roots)
    assert type_string(t) == "A15+A1+A1"
    assert t.rank == 17


def test_e8d9_type(models):
    t, roots = model_type(models["E8D9"])
    assert type_string(t) == "E8+D9"
    assert 2 * len(roots.roots2) == 240 + 144


def test_roots_are_primitive_with_integral_reflection(a15_roots):
    L, roots = a15_roots

    for v in roots.all_roots():
        assert gcd(*v) == 1
        norm = L.gram.norm(v)
        for i in range(len(L.reps)):
            basis = tuple(1 if j == i else 0 for j in range(len(L.reps)))
            assert (2 * L.gram.pairing(v, basis)) % norm == 0


def _coset_member(m, L, roots, expected_terms):
    """True when some +-root lifts to the expected ambient class mod Z xi."""
    want = class_vector(m.lattice, expected_terms)
    xi = m.xi
    for r in roots:
        lifted = L.lift(r)
        for cand in (lifted, tuple(-x for x in lifted)):
            diff = tuple(x - y for x, y in zip(want, cand))
            for k in range(-3, 4):
                if diff == tuple(k * x for x in xi):
                    return True
    return False


def test_d8d8_extra_minus4_root(models):
    m = models["D8D8"]
    L = script_L(m)
    roots = generalized_roots(L)
    expected = {"l": -1, "e1": 1, "l'": 2, **{f"e'{i}": -1 for i in range(2, 10)}}
    assert _coset_member(m, L, roots.roots4, expected)
    t = classify(roots)
    assert type_string(t) == "D8+D8+<-4>"
    (gen,) = t.minus4_generators
    assert L.gram.norm(gen) == -4


def test_e8e8_extra_minus4_root(models):
    m = models["E8E8"]
    L = script_L(m)
    roots = generalized_roots(L)
    # big component carries the primes in this convention
    expected = {"l": -3, **{f"e{i}": 1 for i in range(1, 9)}, "e'9": 1, "e'10": -2}
    assert _coset_member(m, L, roots.roots4, expected)
    assert type_string(classify(roots)) == "E8+E8+<-4>"


def test_classify_rejects_an_empty_root_set():
    with pytest.raises(ValueError) as exc:
        classify(GeneralizedRootSet((), (), (), GramForm(mat([[-2]]))))
    assert str(exc.value) == "empty root set"


def test_single_root_is_a1():
    g = GramForm(mat([[-2]]))
    roots = GeneralizedRootSet(((1,),), (), (), g)
    t = classify(roots)
    assert t.components == (("A", 1),)
    assert t.minus4_count == 0


@pytest.mark.parametrize(
    "gram",
    [
        [[-4, -4, 0], [-4, -8, 0], [0, 0, -2]],
        [[-8, -4, 0], [-4, -4, 0], [0, 0, -2]],
    ],
)
def test_two_minus4_summands_in_a_skewed_basis(gram):
    # <-4> + <-4> + A1 with the <-4> part written in the basis (u, u + w)
    L = ScriptL(gram=GramForm(mat(gram)), reps=identity(3))
    t = classify(generalized_roots(L))
    assert type_string(t) == "A1+<-4>+<-4>"
    for gen in t.minus4_generators:
        assert L.gram.norm(gen) == -4


def test_classification_seed_independent(a15_roots):
    _, roots = a15_roots
    types = {type_string(classify(roots, seed=s)) for s in range(10)}
    assert types == {"A15+A1+A1"}


def test_classification_invariant_under_swap(models):
    m = models["E7E7A3"]
    t1, _ = model_type(m)
    t2, _ = model_type(swap_components(m))
    assert type_string(t1) == type_string(t2) == "E7+E7+A3"


def test_type_is_flop_and_swap_invariant_on_every_reachable_state(reachable_states):
    for label, m in reachable_states.items():
        t, _ = model_type(m)
        assert type_string(t) == catalogue_row(m.id).type, label


def test_custom_model_matches_d8d8(models):
    h = class_vector(make_pair_lattice("P2", 9, "P2", 9),
                     {"l": 1, "e1": -1, "l'": 4, "e'1": -2, **{f"e'{i}": -1 for i in range(2, 10)}})
    custom = build_model("P2", "P2", 9, h=h)
    L_custom = script_L(custom)
    L_cat = script_L(models["D8D8"])
    assert snf(L_custom.gram.gram).diagonal == snf(L_cat.gram.gram).diagonal
    t, _ = model_type(custom)
    assert type_string(t) == "D8+D8+<-4>"


def test_bound_is_a_parameter(models):
    L = script_L(models["D17"])
    only2 = generalized_roots(L, bound=2)
    assert not only2.roots4
    assert 2 * len(only2.roots2) == 544
    with pytest.raises(ValueError):
        generalized_roots(L, bound=1)


def test_classification_invariant_under_xi_negation(models):
    # L by another route gives the same generalized type: a basis of
    # h-perp in (-xi)-perp projected along xi onto {v_j = 0}, at the last
    # coordinate j where xi is +-1, then reduced by hnf
    m = models["D8D8"]
    gram, neg_xi = m.lattice.gram_form.gram, tuple(-x for x in m.xi)
    j = max(i for i, x in enumerate(neg_xi) if x in (1, -1))
    perp = orthogonal_complement(gram, [m.h, neg_xi])
    projected = [tuple(a - v[j] * neg_xi[j] * b for a, b in zip(v, neg_xi)) for v in perp]
    reps = tuple(row for row in hnf(mat(projected))[0] if any(row))
    assert len(reps) == 17 and all(v[j] == 0 for v in reps)
    L = ScriptL(gram=GramForm(loop_matmul(loop_matmul(reps, gram), transpose(reps))), reps=reps)
    t = classify(generalized_roots(L))
    assert type_string(t) == "D8+D8+<-4>"


# A2 with the root a1 + a2 left out: the Dynkin graph is an A2 tree, but
# only 4 of A2's 6 roots are present.
INCOMPLETE_A2 = GeneralizedRootSet(((1, 0), (0, 1)), (), (), GramForm(((-2, 1), (1, -2))))


@pytest.mark.parametrize("seed", range(4))
def test_incomplete_root_system_is_rejected(seed):
    with pytest.raises(UnclassifiableError, match="A2: found 4 roots, expected 6"):
        classify(INCOMPLETE_A2, seed)


def test_incomplete_root_system_is_rejected_under_python_O():
    # the classical-count check must not be an assert that -O strips
    code = (
        "from degen_atlas.exact_lattice import GramForm\n"
        "from degen_atlas.root_classifier import (\n"
        "    GeneralizedRootSet, UnclassifiableError, classify)\n"
        f"roots = {INCOMPLETE_A2!r}\n"
        "try:\n"
        "    print('accepted:', classify(roots))\n"
        "except UnclassifiableError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    done = run_python_O(["-c", code], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "rejected: A2: found 4 roots, expected 6"


def _tree(n, edges):
    """The basis vectors of a form with diagonal -2 and 1 on `edges`."""
    g = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return GeneralizedRootSet(identity(n), (), (), GramForm(mat(g)))


def _a1x8_glued():
    """Eight orthogonal -2 roots e1..e8 in the basis (e1..e7, w) of the
    overlattice with w = (e1 + ... + e8) / 2, and w, of norm -4, as its one
    root of norm -4.  w pairs to -1 with every e_i, so it is no <-4>
    generator, and it lies outside Z.e1 + ... + Z.e8."""
    g = [[-2 * (i == j) for j in range(8)] for i in range(8)]
    for i in range(7):
        g[i][7] = g[7][i] = -1
    g[7][7] = -4
    e8 = (-1,) * 7 + (2,)
    return GeneralizedRootSet(identity(8)[:7] + (e8,), ((0,) * 7 + (1,),), (),
                              GramForm(mat(g)))


@pytest.mark.parametrize(
    "roots,seed,message",
    [
        (GeneralizedRootSet(((0, 0),), (), (), GramForm(((-2, 0), (0, -2)))), 0,
         "could not separate roots with a functional"),
        (GeneralizedRootSet(((1,),), (), (), GramForm(((-6,),))), 0,
         "simple root (1,) has norm -6, not -2"),
        (GeneralizedRootSet(((1, 0), (0, 1)), (), (), GramForm(((-2, 2), (2, -2)))), 2,
         "simple roots (1, 0) and (0, 1) pair to 2, not +-1"),
        (_tree(3, [(0, 1), (1, 2), (0, 2)]), 0, "component graph is not a tree"),
        (_tree(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 0, "node of degree > 3"),
        (_tree(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]), 0, "more than one branch node"),
        (_tree(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]), 0,
         "arm profile [2, 2, 2] is not simply laced ADE"),
        (_tree(8, [(0, 1), (0, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7)]), 0,
         "arm profile [1, 3, 3] is not simply laced ADE"),
        (GeneralizedRootSet((), ((0, 1), (1, 0), (1, 1)), (), GramForm(((-4, 2), (2, -4)))), 0,
         "<-4> generators are not orthogonal"),
        (_a1x8_glued(), 0, "Span(Phi) is a proper overlattice of roots + <-4>"),
        (INCOMPLETE_A2, 0, "A2: found 4 roots, expected 6"),
        # (1, 1) = e1 + e2 is listed as a -2 root but lies in no component
        (GeneralizedRootSet(((1, 0), (0, 1), (1, 1)), (), (), GramForm(((-2, 0), (0, -2)))), 2,
         "some -2 roots lie in no single Dynkin component"),
    ],
    ids=["no-functional", "norm", "pairing", "cycle", "degree-4", "two-branches",
         "arms-2-2-2", "arms-1-3-3", "A2(2)", "A1x8-glued", "incomplete-A2", "no-component"],
)
def test_classify_rejection_messages(roots, seed, message):
    with pytest.raises(UnclassifiableError) as exc:
        classify(roots, seed)
    assert str(exc.value) == message


def test_gram_and_script_L_checks_raise_under_python_O():
    # each check is broken on purpose: a non-symmetric and a non-square Gram
    # matrix, then script_L with one vector dropped from L's kernel basis
    # and with xi doubled, so that no coordinate of it is +-1
    code = (
        "from degen_atlas import catalogue_model, root_classifier as rc\n"
        "from degen_atlas.exact_lattice import GramForm, InvariantError, SmithForm\n"
        "def attempt(fn):\n"
        "    try:\n"
        "        print('accepted:', fn())\n"
        "    except (ValueError, InvariantError) as exc:\n"
        "        print(f'{type(exc).__name__}: {exc}')\n"
        "attempt(lambda: GramForm(((-2, 1), (0, -2))))\n"
        "attempt(lambda: GramForm(((-2, 1),)))\n"
        "m = catalogue_model('D17')\n"
        "kernel = SmithForm.kernel\n"
        "SmithForm.kernel = lambda smith: kernel(smith)[1:]\n"
        "attempt(lambda: rc.script_L(m))\n"
        "SmithForm.kernel = kernel\n"
        "doubled = catalogue_model.__wrapped__('D17')\n"
        "doubled.__dict__['xi'] = tuple(2 * x for x in m.xi)  # xi's cached value\n"
        "attempt(lambda: rc.script_L(doubled))\n"
    )
    doubled = tuple(2 * x for x in catalogue_model("D17").xi)
    done = run_python_O(["-c", code], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "ValueError: gram must be symmetric",
        "ValueError: gram must be square",
        "UnclassifiableError: L has rank 16, expected 17",
        f"UnclassifiableError: xi {doubled} has no coordinate +-1",
    ]


def test_generalized_roots_match_brute_force():
    # diagonals -1..-4, so odd forms with roots of norm -1 and -3 occur
    rng = random.Random(20261018)
    odd_norms = 0
    for i in range(40):
        gram = random_negative_definite(rng, rng.randint(1, 5))
        got = _roots_of(gram)
        want = brute_generalized_roots([list(r) for r in gram], 4)
        assert got == want, f"form #{i} disagrees: {gram}"
        assert filtered_generalized_roots(gram, 4) == want, f"oracles disagree on {gram}"
        odd_norms += len(got[2])
    assert odd_norms > 0


_LETTERS = {"E": 0, "D": 1, "A": 2}

PLANTED = [
    ((("A", 1),), 0),
    ((("A", 2),), 1),
    ((("A", 3), ("A", 1)), 2),
    ((("D", 4),), 0),
    ((("D", 5), ("A", 2)), 1),
    ((("E", 6),), 2),
    ((("E", 7), ("A", 1)), 0),
    ((("E", 8),), 1),
    ((("D", 6), ("A", 1), ("A", 1)), 0),
    ((("A", 4), ("D", 4)), 0),
    ((("A", 5),), 2),
]


@pytest.mark.parametrize("blocks,minus4", PLANTED)
def test_planted_lattices_in_random_bases(blocks, minus4):
    rng = random.Random(f"{blocks}/{minus4}")
    rank = sum(r for _, r in blocks) + minus4
    gram = planted_gram(rng, blocks, minus4, moves=2 * rank)
    for bound in (2, 3, 4):
        assert enumerate_short(GramForm(mat(gram)), bound) == rational_short_vectors(gram, bound)
    roots = generalized_roots(ScriptL(gram=GramForm(mat(gram)), reps=identity(rank)))
    assert (list(roots.roots2), list(roots.roots4), list(roots.other)) == (
        filtered_generalized_roots(gram, 4))
    want = "+".join(
        [f"{x}{r}" for x, r in sorted(blocks, key=lambda b: (_LETTERS[b[0]], -b[1]))]
        + ["<-4>"] * minus4
    )
    for seed in range(4):
        t = classify(roots, seed)
        assert type_string(t) == want
        assert sorted(t.components) == sorted(blocks)
        assert t.roots2_by_component == tuple(
            classical_root_count(x, r) for x, r in t.components
        )
        assert sum(t.roots2_by_component) == 2 * len(roots.roots2)


@pytest.mark.parametrize("bound", [2, 3, 4])
def test_generalized_roots_match_filter_oracle_on_models(lattices, bound):
    for mid, L in lattices.items():
        got = generalized_roots(L, bound)
        want = filtered_generalized_roots(L.gram.gram, bound)
        assert (list(got.roots2), list(got.roots4), list(got.other)) == want, mid


def test_enumerate_short_matches_rational_oracle_on_models(models):
    # walks over L with the congruence G.v = 0 mod p: those generalized_roots
    # makes on the nine L, at norms -2 and -4, and the walk at p = 3, which
    # it makes only on odd lattices and never on these even ones
    for m in list(models.values()) + [swap_components(m) for m in models.values()]:
        g = script_L(m).gram
        for p, bound in ((1, 2), (3, 3), (2, 4)):
            want = congruent_short_vectors(g.gram, bound, p)
            assert enumerate_short(g, bound, p) == want, (p, bound)


@pytest.mark.parametrize(
    "gram,searches,other",
    [
        ([[-2, 0], [0, -2]], 1, []),  # even: norm -1 is not searched
        ([[-2, 1], [1, -3]], 2, []),  # odd: norm -3 is searched; (0, 1), (1, 1) are not roots
        ([[-6, 3], [3, -3]], 2, [(0, 1), (1, 1)]),  # odd with an even first diagonal entry
    ],
)
def test_odd_norms_are_searched_only_on_odd_lattices(monkeypatch, gram, searches, other):
    # one walk per modulus p = k / gcd(k, 2) of the norms -k searched, so 1
    # at bound 2 and `searches` at bound 3, 1 (even) or 2 (odd); `other`
    # holds the roots at bound 3.  At no bound does the root search take a
    # Smith or Hermite form
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(root_classifier, "enumerate_short", counted("search", enumerate_short))
    monkeypatch.setattr(exact_lattice, "snf", counted("snf", snf))
    monkeypatch.setattr(root_classifier, "snf", counted("snf", snf))
    monkeypatch.setattr(exact_lattice, "hnf", counted("hnf", hnf))
    odd = any(row[i] % 2 for i, row in enumerate(gram))
    for bound in range(2, 8):
        calls.clear()
        got = _roots_of(gram, bound)
        assert got == filtered_generalized_roots(gram, bound)
        moduli = {k // gcd(k, 2) for k in range(1, bound + 1) if odd or k % 2 == 0}
        assert calls.count("search") == len(moduli)
        assert calls.count("snf") == calls.count("hnf") == 0
        if bound == 2:
            assert calls.count("search") == 1
        if bound == 3:
            assert calls.count("search") == searches == (2 if odd else 1)
            assert got[2] == other


@pytest.mark.parametrize("gram", [[[-2, 1], [1, -4]], [[-2, 1], [1, -3]]], ids=["even", "odd"])
def test_norms_that_share_a_modulus_share_one_walk(monkeypatch, gram):
    # -1 and -2 share p = 1, -3 and -6 share p = 3: one walk per p, at the
    # largest norm searched with that p
    walks = []
    monkeypatch.setattr(root_classifier, "enumerate_short",
                        lambda g, bound, p: walks.append((p, bound)) or enumerate_short(g, bound, p))
    odd = any(row[i] % 2 for i, row in enumerate(gram))
    for bound in range(2, 8):
        walks.clear()
        got = _roots_of(gram, bound)
        searched = [k for k in range(1, bound + 1) if odd or k % 2 == 0]
        largest = {p: max(k for k in searched if k // gcd(k, 2) == p)
                   for p in {k // gcd(k, 2) for k in searched}}
        assert len({p for p, _ in walks}) == len(walks), (bound, walks)
        assert sorted(walks) == sorted(largest.items()), bound
        assert got == filtered_generalized_roots(gram, bound)


@pytest.mark.parametrize("gram", [[[-2, 1], [1, -4]], [[-2, 1], [1, -3]]], ids=["even", "odd"])
def test_generalized_roots_makes_one_elimination(monkeypatch, gram):
    # every modulus's walk reads the Bareiss elimination cached on L.gram
    calls = []
    bareiss = exact_lattice._bareiss
    monkeypatch.setattr(exact_lattice, "_bareiss", lambda g: calls.append(g) or bareiss(g))
    for bound in range(2, 8):
        calls.clear()
        assert _roots_of(gram, bound) == filtered_generalized_roots(gram, bound)
        assert calls == [mat(gram)], bound


def test_bound_8_is_rejected():
    # G.v = 0 mod 4 is no F_p-kernel; bound 8 would need it for the norm -8 roots
    with pytest.raises(ValueError, match="^bound must be between 2 and 7$"):
        _roots_of([[-2]], 8)
    with pytest.raises(ValueError, match="^p = 4 is neither 1 nor a prime$"):
        enumerate_short(GramForm(((-2,),)), 8, 4)


@pytest.mark.parametrize(
    "gram,v,kind",
    [
        ([[-4]], (1,), "roots4"),  # G.v = (-4) is even
        ([[-4, 1], [1, -2]], (1, 0), None),  # norm -4, but G.v = (-4, 1) is odd
        ([[-1]], (2,), None),  # norm -4 and G.v even, but content 2
        ([[-3]], (1,), "other"),  # norm -3 and G.v = (-3) = 0 mod 3
        ([[-3, 1], [1, -2]], (1, 0), None),  # norm -3, but G.v = (-3, 1)
        ([[-3, 0], [0, -2]], (1, 0), "other"),  # norm -3 beside an A1
    ],
)
def test_norm_minus3_and_minus4_roots_are_the_primitive_vectors_of_M_d(gram, v, kind):
    # M_d is the set of v with G.v = 0 mod p, p = d / gcd(d, 2); the search never builds it.
    got = _roots_of(gram)
    assert got == filtered_generalized_roots(gram, 4)
    found = [name for name, roots in zip(("roots2", "roots4", "other"), got) if v in roots]
    assert found == ([kind] if kind else [])
    assert _roots_of(gram, 3) == filtered_generalized_roots(gram, 3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32), st.sampled_from((2, 3, 5, 7)),
       st.integers(1, 7))
def test_congruence_walk_matches_the_filtered_rational_walk(rank, seed, p, bound):
    gram = random_negative_definite(random.Random(seed), rank)
    assert enumerate_short(GramForm(mat(gram)), bound, p) == (
        congruent_short_vectors(gram, bound, p))


@pytest.mark.parametrize(
    "gram,named",
    [
        (  # Phi spans Z^4
            [[-1 if i == j else 0 for j in range(4)] for i in range(4)],
            "(0, 0, 0, 1) (norm -1), (0, 0, 1, 0) (norm -1), "
            "(0, 1, 0, 0) (norm -1), (1, 0, 0, 0) (norm -1)",
        ),
        ([[-3]], "(1,) (norm -3)"),
        ([[-1, 0], [0, -4]], "(1, 0) (norm -1)"),
    ],
    ids=["-I4", "<-3>", "<-1>+<-4>"],
)
def test_odd_norm_roots_are_rejected_before_the_rank_checks(gram, named):
    roots = generalized_roots(ScriptL(gram=GramForm(mat(gram)), reps=identity(len(gram))))
    with pytest.raises(UnclassifiableError) as exc:
        classify(roots)
    assert str(exc.value) == f"roots of odd norm do not span ADE + <-4>: {named}"


def test_verify_classification_rejects_an_unknown_id_before_classifying(monkeypatch):
    calls = []
    monkeypatch.setattr(root_classifier, "model_type", lambda *args: calls.append(args))
    with pytest.raises(KeyError) as exc:
        root_classifier.verify_classification({"custom": catalogue_model("D17")})
    assert exc.value.args == (
        "unknown model 'custom'; known: A15, A11E6, D12D5, D8D8, D16, D17, E8D9, E7E7A3, E8E8",)
    assert calls == []


def _recorded_span_checks(patch):
    """Make classify record, for each Smith form it takes, the targets it
    solves for."""
    calls = []
    solve = SmithForm.solve

    def recorded_snf(m):
        calls.append(())
        return snf(m)

    def recorded_solve(smith, target):
        calls[-1] += (target,)
        return solve(smith, target)

    patch.setattr(root_classifier, "snf", recorded_snf)
    patch.setattr(SmithForm, "solve", recorded_solve)
    return calls


def _classify_both_ways(monkeypatch, roots):
    """classify(roots), whether it solved for the span, and the type from the
    path that always solves (no index shortcut)."""
    with monkeypatch.context() as patch:
        calls = _recorded_span_checks(patch)
        t = classify(roots)
        solved = bool(calls)
        patch.setattr(root_classifier, "discriminant_group_order", lambda g: 0)
        always_solved = classify(roots)
    return t, solved, always_solved


def _span_index(t, roots):
    """|det| of the generators by permutation expansion, None when there
    are fewer generators than coordinates."""
    gens = [s for comp in t.simple_roots for s in comp] + list(t.minus4_generators)
    if len(gens) != roots.gram.dim:
        return None, gens
    return abs(perm_det(gens)), gens


def _check_span_index_choice(monkeypatch, roots):
    t, solved, always_solved = _classify_both_ways(monkeypatch, roots)
    assert t == always_solved
    index, gens = _span_index(t, roots)
    if index == 1:
        assert not solved
        smith = snf(span_matrix(gens, roots.gram.dim))
        assert None not in [smith.solve(t) for t in roots.roots4 + roots.other]
    else:
        # the span is solved for whenever there is a root outside the -2
        # roots' span to test; with none, no Smith form is taken
        assert solved == bool(roots.roots4 + roots.other)
    return index


def _planted_cases():
    rng = random.Random(16)
    menu = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5),
            ("D", 6), ("E", 6), ("E", 7), ("E", 8)]
    for rank in range(6, 13):
        for minus4 in range(3):
            blocks, left = [], rank - minus4
            while left:
                blocks.append(rng.choice([b for b in menu if b[1] <= left]))
                left -= blocks[-1][1]
            name = "+".join(f"{x}{r}" for x, r in blocks) + "+<-4>" * minus4
            yield pytest.param(rank, tuple(blocks), minus4, id=name)


@pytest.mark.parametrize("rank,blocks,minus4", list(_planted_cases()))
def test_span_is_certified_by_index_on_planted_lattices(monkeypatch, rank, blocks, minus4):
    rng = random.Random(f"index/{blocks}/{minus4}")
    gram = planted_gram(rng, blocks, minus4, moves=2 * rank)
    roots = generalized_roots(ScriptL(gram=GramForm(mat(gram)), reps=identity(rank)))
    # a planted lattice is its own root span, so the generators are a basis
    assert _check_span_index_choice(monkeypatch, roots) == 1


def test_span_index_choice_on_models_and_swaps(monkeypatch, models):
    unit = set()
    for mid, m in models.items():
        for model in (m, swap_components(m)):
            index = _check_span_index_choice(monkeypatch, generalized_roots(script_L(model)))
            assert index is not None and index >= 1
            if index == 1:
                unit.add(mid)
    assert unit == {"D17", "E8D9", "E8E8"}


def test_glued_a1x8_reaches_the_smith_form_and_is_rejected(monkeypatch):
    roots = _a1x8_glued()
    assert abs(perm_det(roots.roots2)) == 2  # Z.e1 + ... + Z.e8 has index 2
    calls = _recorded_span_checks(monkeypatch)
    with pytest.raises(UnclassifiableError) as exc:
        classify(roots)
    assert str(exc.value) == "Span(Phi) is a proper overlattice of roots + <-4>"
    assert calls == [roots.roots4]


def test_classify_takes_no_smith_form_without_targets(monkeypatch, lattices):
    # A11E6's simple roots span L with index 3, but it has no -4 or odd
    # root for the span to be tested on, so classify takes no Smith form
    def no_snf(m):
        raise AssertionError("snf called")

    roots = generalized_roots(lattices["A11E6"])
    assert not roots.roots4 + roots.other
    monkeypatch.setattr(root_classifier, "snf", no_snf)
    t = classify(roots)
    assert type_string(t) == "E6+A11"
    assert _span_index(t, roots)[0] == 3
    monkeypatch.undo()
    smith = snf(span_matrix([(1, 2), (3, 4)], 2))
    for read in (smith.solve, smith.in_rational_span):
        with pytest.raises(ValueError, match="dimension mismatch"):
            read((1, 2, 3))
