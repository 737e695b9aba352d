import random
from types import SimpleNamespace

import pytest

from degen_atlas import surface_pair
from degen_atlas.exact_lattice import GramForm, InvariantError, add_vec, mat, scale_vec
from degen_atlas.surface_pair import (
    P2,
    SurfaceModel,
    build_model,
    catalogue,
    catalogue_ids,
    catalogue_model,
    catalogue_row,
    check_model_invariants,
    class_vector,
    curve_catalogue,
    export_model,
    flop,
    flop_all,
    format_class,
    intersect,
    make_pair_lattice,
    parse_class,
    reflect,
    surface_name,
)
from oracles import curve_class, swap_components, tag_xi


@pytest.fixture(scope="module")
def models():
    return catalogue()


def test_catalogue_has_nine_rank20_models(models):
    assert len(models) == 9
    for m in models.values():
        assert m.lattice.rank == 20


def test_catalogue_invariants(models):
    for m in models.values():
        assert intersect(m, m.h, m.h) == 4
        assert intersect(m, m.h, m.xi) == 0
        assert intersect(m, m.xi, m.xi) == 0
        e0, e1 = m.double_curve_class(0), m.double_curve_class(1)
        assert intersect(m, e0, e0) + intersect(m, e1, e1) == 0


def test_specific_intersections(models):
    m = models["A11E6"]
    v = class_vector(m.lattice, {"l'": 3, **{f"e'{i}": -1 for i in range(1, 7)}})
    assert intersect(m, v, v) == 3
    assert intersect(
        m,
        class_vector(m.lattice, {"l": 1}),
        class_vector(m.lattice, {"e1": 1}),
    ) == 0


@pytest.mark.parametrize("lookup", [catalogue_model, catalogue_row])
def test_catalogue_lookups_name_the_known_ids(lookup):
    with pytest.raises(KeyError) as exc:
        lookup("custom")
    assert exc.value.args == (
        "unknown model 'custom'; known: A15, A11E6, D12D5, D8D8, D16, D17, E8D9, E7E7A3, E8E8",)


def test_build_model_d_values():
    m = build_model("P2", "P2", 10)
    assert m.d == 1
    e0, e1 = m.double_curve_class(0), m.double_curve_class(1)
    assert intersect(m, e0, e0) == -1
    assert intersect(m, e1, e1) == 1
    assert intersect(m, m.xi, m.xi) == 0

    m = build_model("P1xP1", "P1xP1", 16)
    assert m.d == 8
    assert m.lattice.rank == 20

    m = build_model("P2", "P2", 9)
    assert m.d == 0
    assert intersect(m, m.double_curve_class(0), m.double_curve_class(0)) == 0


def test_build_model_validates_h():
    h = class_vector(make_pair_lattice("P2", 10, "P2", 8), {"l": 1})
    with pytest.raises(ValueError):
        build_model("P2", "P2", 10, h=h)  # h^2 = 1
    with pytest.raises(ValueError):
        build_model("P2", "P2", 19)
    m = build_model("P2", "P2", 9, h=catalogue_model("D8D8").h)
    assert intersect(m, m.h, m.h) == 4


def test_build_model_rejects_a_polarization_of_the_wrong_length():
    # pairing stops at the shorter vector, so a short h would pass h^2 = 4
    # and h.xi = 0 and reach script_L and lift_fan
    with pytest.raises(ValueError, match="^15 entries in h for a lattice of rank 20$"):
        build_model("P2", "P2", 18, h=(6, -4, -2) + (-1,) * 12)
    h = catalogue_model("D17").h
    assert build_model("P2", "P2", 18, h=h).h == h
    with pytest.raises(ValueError, match="^21 entries in h for a lattice of rank 20$"):
        build_model("P2", "P2", 18, h=h + (0,))


def test_build_model_rejects_an_incomplete_dictionary():
    # psi would otherwise fail later on the first class without an image
    missing = ", ".join([f"e{i}" for i in range(1, 10)] + ["l'"] + [f"e'{i}" for i in range(1, 10)])
    with pytest.raises(ValueError) as exc:
        build_model("P2", "P2", 9, dictionary={"l": {"q": 3}})
    assert str(exc.value) == f"the dictionary misses the basis classes {missing}"


def test_build_model_checks_the_squares_of_xi_and_e0(monkeypatch):
    # a pair lattice with e1 of square -2 makes xi^2 = E0^2 + E1^2 = -1; one
    # that blows up 10 points on V0 and 8 on V1 for n = 9 keeps xi^2 = 0 but
    # gives E0^2 = 9 - 10
    real = surface_pair.make_pair_lattice

    def with_e1_of_square_2(base0, n0, base1, n1):
        lattice = real(base0, n0, base1, n1)
        gram = [list(row) for row in lattice.gram_form.gram]
        gram[lattice.index("e1")][lattice.index("e1")] = -2
        return lattice._replace(gram_form=GramForm(mat(gram)))

    monkeypatch.setattr(surface_pair, "make_pair_lattice", with_e1_of_square_2)
    with pytest.raises(InvariantError, match="^xi has square -1, not 0$"):
        build_model("P2", "P2", 9)
    monkeypatch.setattr(surface_pair, "make_pair_lattice",
                        lambda base0, n0, base1, n1: real(base0, n0 + 1, base1, n1 - 1))
    with pytest.raises(InvariantError, match="^E0 has square -1, not 0$"):
        build_model("P2", "P2", 9)


def test_catalogue_d_matches_construction(models):
    expected = {
        "A15": 8, "A11E6": 3, "D12D5": 4, "D8D8": 0, "D16": 8,
        "D17": 9, "E8D9": -1, "E7E7A3": -2, "E8E8": -1,
    }
    for mid, m in models.items():
        assert m.d == expected[mid]


def test_flop_is_involution_and_isometry(models):
    m = models["E8E8"]
    m2 = flop(m, "e'10")
    assert m2.tags != m.tags
    assert flop(m2, "e'10").tags == m.tags
    assert flop(flop(m2, "e'10"), "e'10").h == m2.h
    # isometry on a few tracked classes
    rng = random.Random(1)
    for _ in range(10):
        a = tuple(rng.randint(-2, 2) for _ in range(20))
        b = tuple(rng.randint(-2, 2) for _ in range(20))
        e = class_vector(m.lattice, {"e'10": 1})
        assert intersect(m, a, b) == intersect(m2, reflect(m, e, a), reflect(m, e, b))


def test_flop_is_an_involution_on_every_reachable_state(reachable_states):
    for label, m in reachable_states.items():
        for name in m.lattice.names:
            if name.startswith("e"):
                back = flop(flop(m, name), name)
                assert (back.tags, back.h, back.xi) == (m.tags, m.h, m.xi), (label, name)


def test_flop_transports_xi_a15(models):
    m = models["A15"]
    flopped = flop_all(m, [f"e{i}" for i in range(1, 17)])
    # After moving every exceptional, V0 is a bare quadric again.
    assert surface_name(flopped, 0) == "P1xP1"
    assert surface_name(flopped, 1) == "Bl16(P1xP1)"
    want = class_vector(
        m.lattice,
        {"s": -2, "f": -2, "s'": 2, "f'": 2, **{f"e{i}": -1 for i in range(1, 17)}},
    )
    assert flopped.xi == want
    assert intersect(flopped, flopped.h, flopped.h) == 4


def test_flop_rejects_base_classes(models):
    with pytest.raises(ValueError):
        flop(models["D17"], "l")


def test_flop_keeps_invariants_reachable_states(models):
    m = models["E7E7A3"]
    state = flop_all(m, ["e'8", "e'9", "e'10", "e'11"])
    assert intersect(state, state.h, state.h) == 4
    assert intersect(state, state.h, state.xi) == 0
    assert surface_name(state, 0) == "Bl11P2"
    transported = class_vector(
        m.lattice,
        {"l'": 6, **{f"e'{i}": -2 for i in range(1, 8)},
         **{f"e'{i}": 1 for i in range(8, 12)}},
    )
    assert state.h == transported


def test_curve_catalogue_contents(models):
    d12 = models["D12D5"]
    names = {c.name for c in curve_catalogue(d12)}
    assert "l-e1" in names
    kinds = {c.name: c.kind for c in curve_catalogue(d12)}
    assert kinds["l-e1"] == "moving"
    assert kinds["e3"] == "floppable"

    e8e8 = models["E8E8"]
    kinds = {c.name: c.kind for c in curve_catalogue(e8e8)}
    assert kinds["l"] == "moving"

    a15 = models["A15"]
    floppables = [c for c in curve_catalogue(a15) if c.kind == "floppable"]
    assert {c.name for c in floppables} == {f"e{i}" for i in range(1, 17)}


def test_whitelist_degree_examples(models):
    # h is nef on A15's whitelist and has degree 0 exactly on e1..e16
    a15 = models["A15"]
    curves = curve_catalogue(a15)
    assert all(e.h_degree >= 0 for e in curves)
    assert {e.name for e in curves if e.h_degree == 0} == {f"e{i}" for i in range(1, 17)}
    for e in curves:
        assert e.h_degree == intersect(a15, a15.h, curve_class(a15, e))
        # linearity: doubling h doubles every pairing, so the partition agrees
        assert intersect(a15, scale_vec(2, a15.h), curve_class(a15, e)) == 2 * e.h_degree

    # on D8D8, h - xi has degree 0 on e'2..e'9 and on l'-e'1
    d8 = models["D8D8"]
    c = add_vec(d8.h, scale_vec(-1, d8.xi))
    zero_names = set()
    for e in curve_catalogue(d8):
        assert e.h_degree - e.xi_degree == intersect(d8, c, curve_class(d8, e))
        if e.h_degree == e.xi_degree:
            zero_names.add(e.name)
    assert {f"e'{i}" for i in range(2, 10)} <= zero_names
    assert "l'-e'1" in zero_names


def test_surface_names(models):
    e8e8 = models["E8E8"]
    assert surface_name(e8e8, 0) == "Bl8P2 (dP1)"
    assert surface_name(e8e8, 1) == "Bl10P2"
    assert surface_name(models["A15"], 1) == "P1xP1"
    assert surface_name(models["A11E6"], 1) == "Bl6P2 (dP3)"


def test_swap_components(models):
    m = models["E8D9"]
    s = swap_components(m)
    assert s.lattice.base0 == m.lattice.base1
    assert surface_name(s, 0) == surface_name(m, 1)
    assert s.d == -m.d
    assert intersect(s, s.h, s.h) == 4
    # xi changes sign structurally: E0 and E1 exchange roles
    assert swap_components(s).h == m.h


def test_export_and_parse(models):
    m = models["D16"]
    data = export_model(m)
    assert data["d"] == 8
    assert len(data["basis"]) == 20
    assert data["gram"][0][0] == 1

    v = parse_class(m.lattice, "3l-e1-e2")
    assert v == class_vector(m.lattice, {"l": 3, "e1": -1, "e2": -1})
    assert parse_class(m.lattice, format_class(m.lattice, v)) == v
    with pytest.raises(ValueError):
        parse_class(m.lattice, "2x+1")
    with pytest.raises(ValueError):
        parse_class(models["A15"].lattice, "l-e1")  # no l on a quadric model


@pytest.mark.parametrize("text,position", [
    ("e1e1", 2),
    ("le1", 1),
    ("3l-e1e2", 5),
    ("l - e1 e2", 7),  # positions count the spaces of the text
])
def test_parse_class_needs_a_sign_before_every_later_term(models, text, position):
    with pytest.raises(ValueError) as exc:
        parse_class(models["D17"].lattice, text)
    assert f"the term at position {position} " in str(exc.value)
    assert "needs a sign" in str(exc.value)


def test_parse_class_allows_a_sign_on_the_first_term(models):
    lattice = models["D17"].lattice
    assert parse_class(lattice, "-e1+e2") == class_vector(lattice, {"e1": -1, "e2": 1})
    assert parse_class(lattice, "+2l - e1") == class_vector(lattice, {"l": 2, "e1": -1})


def test_reflect_rejects_a_class_of_square_0(models):
    m = models["D17"]
    with pytest.raises(ValueError, match="cannot reflect in a class of square 0"):
        reflect(m, m.xi, m.h)


def test_reflect_rejects_a_reflection_that_is_not_integral(models):
    m = models["D17"]
    e = class_vector(m.lattice, {"e1": 1, "e2": 1, "e3": 1})
    message = r"^reflection in a class of square -3 is not integral on c\.e = -1$"
    with pytest.raises(ValueError, match=message):
        reflect(m, e, class_vector(m.lattice, {"e1": 1}))


def test_surface_model_rejects_tags_of_the_wrong_length_or_a_moved_base_class(models):
    m = models["D17"]
    with pytest.raises(ValueError, match="^19 tags for a lattice of rank 20$"):
        m._replace(tags=m.tags[:19])
    assert m.lattice.names[0] == "l" and m.tags[0] == 0
    with pytest.raises(ValueError, match="^base class l is tagged 1; base classes never move$"):
        m._replace(tags=(1,) + m.tags[1:])


def test_pair_lattices_are_unimodular_of_signature_2_18(models):
    from oracles import det, signature

    for m in models.values():
        gram = m.lattice.gram_form.gram
        assert abs(det(gram)) == 1
        assert signature([list(r) for r in gram]) == (2, 18)


def test_catalogue_models_are_built_once_and_read_only():
    for mid in catalogue_ids():
        m = catalogue_model(mid)
        assert catalogue_model(mid) is m
        with pytest.raises(TypeError):
            m.restrictions["l'" if m.lattice.base1 == P2 else "s'"] = {"q'": 0}
        name = m.lattice.names[-1]
        with pytest.raises(TypeError):
            m.restrictions[name]["q"] = 1
        for relation in m.aux_relations:
            with pytest.raises(TypeError):
                relation["q"] = 1
        row = catalogue_row(mid)
        for terms in (row.h, row.relation):
            with pytest.raises(TypeError):
                terms["q"] = 1


def test_catalogue_row_fibers_and_overrides_are_read_only():
    # catalogue_model rebuilds D16 from its row, so a write would change it
    row = catalogue_row("D16")
    images, (aux,) = row.overrides
    with pytest.raises(TypeError):
        images["s'"]["q'"] = 5
    with pytest.raises(TypeError):
        images["s'"] = {"q'": 5}
    with pytest.raises(TypeError):
        aux["q'"] = 0
    with pytest.raises(TypeError):
        row.fibers[0]["l"] = 2
    assert catalogue_row("D16").overrides[0]["s'"] == {"q'": 3, "pf": -1}


def test_xi_matches_the_tags_on_every_reachable_state(reachable_states):
    assert len(reachable_states) == 28
    for label, state in reachable_states.items():
        e0, e1 = state.double_curve_class(0), state.double_curve_class(1)
        assert state.xi == tag_xi(state) == add_vec(scale_vec(-1, e0), e1), label


def test_replaced_tags_give_a_fresh_xi():
    m = catalogue_model("E8E8")
    xi = m.xi
    i = m.lattice.index("e'10")
    moved = m._replace(tags=tuple(1 - t if j == i else t for j, t in enumerate(m.tags)))
    assert moved.xi == tag_xi(moved) != xi
    assert moved.double_curve_class(0)[i] == -1 and moved.double_curve_class(1)[i] == 0
    assert m.xi == tag_xi(m) == xi


# An unbalanced pair: Bl9P2 (E0^2 = 0) and Bl8P2 (E1^2 = 1), so xi^2 = 1.
# h = 2l + 3l' - 3e'1 has h^2 = 4 + 0 and h.E0 = h.E1 = 6, so h.xi = 0.
_UNBALANCED = make_pair_lattice(P2, 9, P2, 8)
_UNBALANCED_H = class_vector(_UNBALANCED, {"l": 2, "l'": 3, "e'1": -3})


def _unbalanced_model() -> SurfaceModel:
    tags = tuple(1 if "'" in n else 0 for n in _UNBALANCED.names)
    return SurfaceModel(id="CUSTOM", lattice=_UNBALANCED, tags=tags, h=_UNBALANCED_H)


def test_model_invariants_reject_a_polarization_that_is_not_cartier():
    m = catalogue_model("D8D8")
    bad = m._replace(h=class_vector(m.lattice, {"l": 2}))
    assert intersect(bad, bad.h, bad.h) == 4
    with pytest.raises(ValueError, match="^polarization must be numerically Cartier$"):
        check_model_invariants(bad)


def test_model_invariants_reject_a_double_curve_that_is_not_isotropic():
    m = _unbalanced_model()
    assert intersect(m, m.h, m.h) == 4 and intersect(m, m.h, m.xi) == 0
    with pytest.raises(ValueError, match="^double curve class must be isotropic$"):
        check_model_invariants(m)


def test_model_invariants_check_the_triple_point_formula():
    # xi^2 = E0^2 + E1^2 for xi = -E0 + E1, so only a model whose xi is
    # not -E0 + E1 passes the isotropy check and reaches this one
    real = _unbalanced_model()
    bad = SimpleNamespace(lattice=real.lattice, h=real.h, xi=(0,) * real.lattice.rank,
                          double_curve_class=real.double_curve_class)
    with pytest.raises(ValueError, match="^triple-point formula$"):
        check_model_invariants(bad)


def test_flop_checks_the_square_of_the_exceptional():
    m = catalogue_model("E8E8")
    i = m.lattice.index("e'10")
    gram = [list(row) for row in m.lattice.gram_form.gram]
    gram[i][i] = -2
    lattice = m.lattice._replace(gram_form=GramForm(mat(gram)))
    with pytest.raises(InvariantError, match="^exceptional e'10 has square -2, not -1$"):
        flop(m._replace(lattice=lattice), "e'10")


def test_flop_checks_that_the_exceptional_meets_the_double_curve(monkeypatch):
    m = catalogue_model("E8E8")
    i = m.lattice.index("e'10")
    real = SurfaceModel.double_curve_class

    def without_e10(self, comp):
        return tuple(0 if j == i else x for j, x in enumerate(real(self, comp)))

    monkeypatch.setattr(SurfaceModel, "double_curve_class", without_e10)
    with pytest.raises(InvariantError, match="^exceptional e'10 must meet the double curve once$"):
        flop(m, "e'10")
