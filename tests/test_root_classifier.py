import random

import pytest

from degen_atlas.exact_lattice import GramForm, identity, mat, snf, sub_vec
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
    class_vector,
    swap_components,
)
from oracles import (
    brute_generalized_roots,
    classical_root_count,
    planted_gram,
    random_negative_definite,
    run_python_O,
)


@pytest.fixture(scope="module")
def models():
    return catalogue()


@pytest.fixture(scope="module")
def a15_roots(models):
    L = script_L(models["A15"])
    return L, generalized_roots(L)


def test_script_L_rank_and_definiteness(models):
    for m in models.values():
        L = script_L(m)
        assert L.rank == 17
        assert L.gram.is_negative_definite()


def test_script_L_rejects_a_model_without_polarization():
    with pytest.raises(ValueError, match="^polarization must have square 4$"):
        script_L(build_model("P2", "P2", 9))


def test_d17_discriminant_order(models):
    L = script_L(models["D17"])
    assert discriminant_group_order(L.gram) == 4


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
    from degen_atlas.exact_lattice import content

    for v in roots.all_roots():
        assert content(v) == 1
        norm = L.gram.norm(v)
        for i in range(L.rank):
            basis = tuple(1 if j == i else 0 for j in range(L.rank))
            assert (2 * L.gram.pairing(v, basis)) % norm == 0


def _coset_member(m, L, roots, expected_terms):
    """True when some +-root lifts to the expected ambient class mod Z xi."""
    want = class_vector(m.lattice, expected_terms)
    xi = m.xi
    for r in roots:
        lifted = L.lift(r)
        for cand in (lifted, tuple(-x for x in lifted)):
            diff = sub_vec(want, cand)
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
    assert t1.as_multiset() == t2.as_multiset()


def test_custom_model_matches_d8d8(models):
    custom = build_model(
        "P2", "P2", 9,
        h_terms={"l": 1, "e1": -1, "l'": 4, "e'1": -2,
                 **{f"e'{i}": -1 for i in range(2, 10)}},
    )
    L_custom = script_L(custom)
    L_cat = script_L(models["D8D8"])
    d1, _, _ = snf(L_custom.gram.gram)
    d2, _, _ = snf(L_cat.gram.gram)
    assert d1 == d2
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
    # quotient by -xi instead of xi gives the same generalized type
    from degen_atlas.exact_lattice import mat, orthogonal_complement
    from degen_atlas.exact_lattice import quotient_by_isotropic
    from degen_atlas.root_classifier import ScriptL

    m = models["D8D8"]
    g = m.lattice.gram_form
    perp = orthogonal_complement(g, [m.h, m.xi])
    neg_xi = tuple(-x for x in m.xi)
    q = quotient_by_isotropic(g, mat(perp), neg_xi)
    L = ScriptL(gram=q.gram, reps=q.reps)
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


def test_generalized_roots_match_brute_force():
    # diagonals -1..-4, so odd forms with roots of norm -1 and -3 occur
    rng = random.Random(20261018)
    odd_norms = 0
    for i in range(40):
        gram = random_negative_definite(rng, rng.randint(1, 5))
        got = generalized_roots(ScriptL(gram=GramForm(mat(gram)), reps=identity(len(gram))))
        want = brute_generalized_roots([list(r) for r in gram], 4)
        assert (list(got.roots2), list(got.roots4), list(got.other)) == want, (
            f"form #{i} disagrees: {gram}"
        )
        odd_norms += len(got.other)
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
    roots = generalized_roots(ScriptL(gram=GramForm(mat(gram)), reps=identity(rank)))
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
