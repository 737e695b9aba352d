import random
import re

import pytest

from degen_atlas import period_relations
from degen_atlas.exact_lattice import InvariantError, add_vec, scale_vec
from degen_atlas.period_relations import (
    Divisor,
    RelationSystem,
    derive,
    imposed_relations,
    psi,
    restriction_dictionary,
    relation_rows,
    verify_relations,
)
from degen_atlas.surface_pair import (
    build_model,
    catalogue,
    catalogue_ids,
    catalogue_model,
    class_vector,
    flop_all,
)
from oracles import (
    d_semistability_relation,
    orthogonal_complement,
    run_python_O,
    swap_components,
    textbook_psi,
    toggle_tick,
)


@pytest.fixture(scope="module")
def models():
    return catalogue()


def test_point_symbol_grammar():
    # q, p<i>, their ticked forms and the 4-torsion point pf are the only
    # point symbols, ordered q, p1, p2, ..., q', p'1, ..., pf
    keys = {"q": (0, 0), "p1": (1, 1), "p10": (1, 10), "q'": (2, 0), "p'1": (3, 1),
            "p'10": (3, 10), "pf": (4, 0)}
    assert {sym: period_relations._symbol_key(sym) for sym in keys} == keys
    for sym in ("q3", "p", "p'", "q'3", "p1'", "pf'", "P1", "x5"):
        with pytest.raises(ValueError, match=re.escape(f"unknown point symbol {sym!r}")):
            period_relations._symbol_key(sym)


def test_dictionary_images(models):
    m = models["A11E6"]
    images = restriction_dictionary(m)
    total = 3 * Divisor.of(images["l'"])
    for i in range(1, 7):
        total = total - Divisor.of(images[f"e'{i}"])
    assert total == Divisor.of({"q'": 9, **{f"p'{i}": -1 for i in range(1, 7)}})

    d16 = {name: Divisor.of(t) for name, t in restriction_dictionary(models["D16"]).items()}
    assert d16["s'"] + 2 * d16["f'"] == Divisor.of({"q'": 5, "pf": 1})
    assert 2 * d16["s'"] + 2 * d16["f'"] == Divisor.of({"q'": 8})

    zero = class_vector(m.lattice, {})
    assert psi(m, zero) == Divisor.of({})


def test_psi_sums_the_read_only_images_into_one_divisor(models, monkeypatch):
    m = flop_all(models["A15"], ["e1"])  # a new model, made by the model's own _replace
    images = restriction_dictionary(m)
    assert images is m.restrictions and images == models["A15"].restrictions
    of, calls = Divisor.of, []
    monkeypatch.setattr(Divisor, "of", staticmethod(lambda terms: calls.append(1) or of(terms)))
    psi(m, m.h)
    assert len(calls) == 1  # the sum becomes one divisor; no image is converted
    with pytest.raises(TypeError):
        images["s"] = {"q": 0}
    with pytest.raises(TypeError):
        images["s"]["q"] = 0
    assert restriction_dictionary(m)["s"] == {"q": 2}


def test_every_model_holds_read_only_images(reachable_states):
    # catalogue, flopped and swapped models alike, and a CUSTOM model that
    # keeps its own copy of the dictionary it was built from
    dictionary = {"l": {"q": 3}, "l'": {"q'": 3}}
    for i in range(1, 10):
        dictionary[f"e{i}"] = {f"p{i}": 1}
        dictionary[f"e'{i}"] = {f"p'{i}": 1}
    custom = build_model("P2", "P2", 9, dictionary=dictionary)
    dictionary["l"]["q"] = 4
    assert custom.restrictions["l"] == {"q": 3}
    for m in [*reachable_states.values(), custom]:
        name = m.lattice.names[0]
        with pytest.raises(TypeError):
            m.restrictions[name] = {}
        with pytest.raises(TypeError):
            m.restrictions[name]["q"] = 0
        for relation in m.aux_relations:
            with pytest.raises(TypeError):
                relation["q"] = 1


def test_psi_examples(models):
    d17 = models["D17"]
    assert psi(d17, d17.h) == Divisor.of({"q": 9, "p1": -3, "q'": -6})

    a15 = models["A15"]
    want = Divisor.of({"q": 8, "q'": 8, **{f"p{i}": -1 for i in range(1, 17)}})
    assert -psi(a15, a15.xi) == want


def test_psi_is_additive(models):
    m = models["D8D8"]
    rng = random.Random(9)
    perp = orthogonal_complement(m.lattice.gram_form.gram, [m.xi])
    for _ in range(15):
        c1 = tuple(0 for _ in range(20))
        c2 = tuple(0 for _ in range(20))
        for v in perp:
            k1, k2 = rng.randint(-2, 2), rng.randint(-2, 2)
            c1 = tuple(a + k1 * x for a, x in zip(c1, v))
            c2 = tuple(a + k2 * x for a, x in zip(c2, v))
        assert psi(m, c1).degree() == 0
        assert psi(m, tuple(a + b for a, b in zip(c1, c2))) == psi(m, c1) + psi(m, c2)


def test_psi_matches_the_textbook_sum_on_every_reachable_state(reachable_states):
    # h, xi and 3h - 2xi, whose images add several classes into one symbol
    for label, m in reachable_states.items():
        for c in (m.h, m.xi, add_vec(scale_vec(3, m.h), scale_vec(-2, m.xi))):
            assert psi(m, c) == textbook_psi(m, c), label


def test_psi_checks_the_degree_of_its_image(models, monkeypatch):
    # a restriction dictionary with one image of degree 1 makes psi(h)
    # a divisor of nonzero degree, which psi must refuse to return
    m = models["D17"]
    i = next(i for i, x in enumerate(m.h) if x)
    name = m.lattice.names[i]
    images = restriction_dictionary(m)
    bent = {**images, name: {**images[name], "q": images[name].get("q", 0) + 1}}
    monkeypatch.setattr(period_relations, "restriction_dictionary", lambda model: bent)
    degree = m.h[i] * (1 if m.tags[i] == 0 else -1)
    assert degree != 0
    with pytest.raises(InvariantError) as exc:
        psi(m, m.h)
    assert str(exc.value) == f"psi of {m.h} has degree {degree}, not 0"


def test_psi_rejects_non_cartier(models):
    m = models["D17"]
    e1 = class_vector(m.lattice, {"e1": 1})
    with pytest.raises(ValueError, match="not numerically Cartier"):
        psi(m, e1)


def test_psi_rejects_a_class_of_another_rank(models):
    m = models["D17"]
    with pytest.raises(ValueError, match="longer"):
        psi(m, m.h + (0,))


def test_imposed_relations_printed_forms(models):
    r = imposed_relations(models["E8D9"])
    assert r.r_h == Divisor.of(
        {"q'": 21, "p'1": -3, **{f"p'{i}": -2 for i in range(2, 11)}}
    )

    r = imposed_relations(models["D8D8"])
    assert r.r_h == Divisor.of(
        {"q": 3, "p1": -1, "q'": -12, "p'1": 2, **{f"p'{i}": 1 for i in range(2, 10)}}
    )

    r = imposed_relations(models["A11E6"])
    assert r.r_xi == Divisor.of(
        {"q": 9, "q'": 9, **{f"p{i}": -1 for i in range(1, 13)},
         **{f"p'{i}": -1 for i in range(1, 7)}}
    )


def test_r_xi_is_d_semistability_for_all_models(models):
    for m in models.values():
        assert imposed_relations(m).r_xi == d_semistability_relation(m)


def test_derive_certificates(models):
    d17 = models["D17"]
    target = Divisor.of({"q": 45, "p1": -11, **{f"p{i}": -2 for i in range(2, 19)}})
    res = derive(imposed_relations(d17), target)
    assert res.certified and res.coefficients == (3, 2)

    # not in span even rationally
    bogus = Divisor.of({"q": 1, "p1": -1})
    assert derive(imposed_relations(d17), bogus).status == "not_in_span"


def test_derive_rejects_input_of_nonzero_degree(models):
    system = imposed_relations(models["D17"])
    q = Divisor.of({"q": 1})
    with pytest.raises(ValueError, match="targets must have degree 0"):
        derive(system, q)
    bad = RelationSystem(system.r_h, system.r_xi, system.aux + (q,))
    with pytest.raises(ValueError, match="generators must have degree 0"):
        derive(bad, system.r_h)


def test_derive_degree_checks_hold_under_python_O():
    # under -O a degree-1 target used to come back as not_in_span
    code = (
        "from degen_atlas.period_relations import Divisor, RelationSystem, derive\n"
        "from degen_atlas.period_relations import imposed_relations\n"
        "from degen_atlas.surface_pair import catalogue_model\n"
        "system = imposed_relations(catalogue_model('D17'))\n"
        "q = Divisor.of({'q': 1})\n"
        "bad = RelationSystem(system.r_h, system.r_xi, system.aux + (q,))\n"
        "for args in ((system, q), (bad, system.r_h)):\n"
        "    try:\n"
        "        print('accepted:', derive(*args).status)\n"
        "    except ValueError as exc:\n"
        "        print('rejected:', exc)\n"
    )
    done = run_python_O(["-c", code], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "rejected: targets must have degree 0",
        "rejected: generators must have degree 0",
    ]


def test_derive_reports_rational_only():
    sys_ = RelationSystem(
        r_h=Divisor.of({"q": 2, "q'": -2}),
        r_xi=Divisor.of({"p1": 1, "p2": -1}),
        aux=(),
    )
    res = derive(sys_, Divisor.of({"q": 1, "q'": -1}))
    assert res.status == "rational_only"


def test_span_is_flop_invariant(models):
    a15 = models["A15"]
    target = Divisor.of({"q": 16, **{f"p{i}": -1 for i in range(1, 17)}})
    before = derive(imposed_relations(a15), target)
    flopped = flop_all(a15, [f"e{i}" for i in range(1, 17)])
    after = derive(imposed_relations(flopped), target)
    assert before.certified and after.certified


def test_custom_requires_dictionary():
    m = build_model("P2", "P2", 9)
    with pytest.raises(ValueError, match="dictionary"):
        restriction_dictionary(m)
    dictionary = {"l": {"q": 3}, "l'": {"q'": 3}}
    for i in range(1, 10):
        dictionary[f"e{i}"] = {f"p{i}": 1}
        dictionary[f"e'{i}"] = {f"p'{i}": 1}
    m2 = build_model("P2", "P2", 9, dictionary=dictionary)
    assert -psi(m2, m2.xi) == d_semistability_relation(m2)


def test_verify_relations_all_eleven():
    rep = verify_relations()
    assert rep["pass"]
    got = {key: (entry["certificate"], entry["status"]) for key, entry in rep["rows"].items()}
    assert got == {
        "E8E8-d0": ([1, 0], "certified"),
        "E8E8-d1": ([1, 0], "certified"),
        "E8D9": ([1, 0], "certified"),
        "E7E7A3": ([1, 0], "certified"),
        "A11E6-d3": ([1, 1], "certified"),
        "A11E6-d9": ([-1, 1], "certified"),
        "D17": ([3, 2], "certified"),
        "D16": ([4, 3, 1], "certified"),
        "D12D5": ([1, 1], "certified"),
        "D8D8": ([-1, 0], "certified"),
        "A15": ([2, 1], "certified"),
    }


def _swap_symbols(d: Divisor) -> Divisor:
    """Name each point from the other component: q <-> q', p3 <-> p'3."""
    return Divisor.of({toggle_tick(s): c for s, c in d.coeffs})


_PAPER_SYMBOL = re.compile(r"([pq])(\d*)('?)")


def _paper_divisor(display: str) -> Divisor:
    """Left side minus right side of a relation as the paper prints it.

    The paper ticks after the index, so p1' is our p'1; a term k(a+..+b)
    or a+..+b sums k times every point of the range."""
    total: dict[str, int] = {}
    for sign, side in zip((1, -1), display.split(" = ")):
        for part in side.split(" + "):
            k, inner = re.fullmatch(r"(\d*)\(?([^()]+)\)?", part).groups()
            ends = [_PAPER_SYMBOL.fullmatch(x).groups() for x in inner.split("+..+")]
            (letter, lo, tick), hi = ends[0], ends[-1][1]
            for i in range(int(lo), int(hi) + 1) if lo else [""]:
                sym = f"{letter}{tick}{i}"
                total[sym] = total.get(sym, 0) + sign * int(k or 1)
    return Divisor.of(total)


# The two rows that print the paper's own labels, as maps from the label
# to our symbol in the row's orientation.  E8E8-d0 names the points of V1
# unticked and prints the flopped p'10 as p9'; A11E6-d9 keeps the q and p_i
# of the d3 row, which the d9 orientation names q', p'_i.
_PAPER_LABELS = {
    "E8E8-d0": {"q": "q'", **{f"p{i}": f"p'{i}" for i in range(1, 10)}, "p'9": "p'10"},
    "A11E6-d9": {s: toggle_tick(s) for s in ["q", *(f"p{i}" for i in range(1, 13))]},
}


def test_every_row_reads_in_the_paper_orientation():
    rep = verify_relations()["rows"]
    for row in relation_rows():
        entry, m = rep[row.key], row.prepare()
        assert entry["d"] == row.row_d >= 0, row.key
        assert tuple(entry["shapes"]) == row.row_shapes, row.key
        oriented = _swap_symbols(row.target()) if m.d < 0 else row.target()
        labels = _PAPER_LABELS.get(row.key, {})
        printed = Divisor.of({labels.get(s, s): c for s, c in _paper_divisor(row.display).coeffs})
        assert printed == oriented, (row.key, str(printed), str(oriented))
    # the orientation rule renames exactly the d < 0 states, three of them
    # catalogue models and one flopped
    assert {r.key for r in relation_rows() if r.prepare().d < 0} == {
        "E8E8-d1", "E8D9", "E7E7A3", "A11E6-d9"}


def test_toggled_system_is_the_swapped_pairs_system(reachable_states):
    # renaming points is exact: the swapped pair imposes the toggled system,
    # signs included, on every reachable state
    for label, m in reachable_states.items():
        assert imposed_relations(m).toggled() == imposed_relations(swap_components(m)), label


def test_table2_row_fixture_shapes():
    keys = [r.key for r in relation_rows()]
    assert len(keys) == 11 and len(set(keys)) == 11
    flopped = [r for r in relation_rows() if r.flops]
    assert {r.key for r in flopped} == {"E8E8-d0", "A11E6-d9"}


_ROWS = {r.key: r for r in relation_rows()}


@pytest.mark.parametrize(
    "state",
    [f"model:{mid}" for mid in catalogue_ids()] + [f"row:{key}" for key in _ROWS],
)
def test_relation_span_is_swap_invariant(state):
    kind, key = state.split(":")
    m = catalogue_model(key) if kind == "model" else _ROWS[key].prepare()
    s = swap_components(m)
    for before, after in ((m, s), (s, m)):
        span = imposed_relations(after)
        for g in imposed_relations(before).generators():
            res = derive(span, _swap_symbols(g))
            assert res.certified, f"{g} renamed: {res.status}"


def test_swapped_custom_model_renames_its_dictionary():
    dictionary = {"l": {"q": 3}, "l'": {"q'": 3}}
    for i in range(1, 19):
        dictionary[f"e{i}"] = {f"p{i}": 1}
    m = build_model("P2", "P2", 18, h=catalogue_model("D17").h, dictionary=dictionary)
    s = swap_components(m)
    assert psi(s, s.h) == -_swap_symbols(psi(m, m.h))
