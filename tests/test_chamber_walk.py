import pytest

from degen_atlas import chamber_walk
from degen_atlas.chamber_walk import (
    class_at,
    fan_diagram,
    format_ray,
    lift_fan,
    next_wall,
    stable_model_at,
    verify_fans,
)
from degen_atlas.exact_lattice import InvariantError
from degen_atlas.period_relations import Divisor, derive, imposed_relations, relation_rows
from degen_atlas.surface_pair import (
    SurfaceModel,
    build_model,
    catalogue,
    catalogue_row,
    curve_catalogue,
    flop,
    flop_all,
    intersect,
)
from oracles import (
    EXPECTED_FANS,
    curve_class,
    run_python_O,
    swap_components,
    threshold_next_wall,
    toggle_tick,
)


@pytest.fixture(scope="module")
def models():
    return catalogue()


@pytest.fixture(scope="module")
def fans(models):
    return {mid: lift_fan(m) for mid, m in models.items()}


def test_relation_rows_are_chambers_of_their_fans(models, fans):
    # each row's flopped state has the tags of exactly one chamber's state,
    # every other chamber mirrors a rowed chamber of its fan (the two shapes
    # reversed), and the table relation certifies in every chamber
    states = {mid: [flop_all(models[mid], c.flops) for c in fan.chambers]
              for mid, fan in fans.items()}
    assert sum(map(len, states.values())) == 14
    rowed = set()
    for row in relation_rows():
        tags = [state.tags for state in states[row.model_id]]
        row_tags = flop_all(models[row.model_id], row.flops).tags
        assert tags.count(row_tags) == 1, row.key
        rowed.add((row.model_id, tags.index(row_tags)))
    unrowed = {(mid, i) for mid, fan in fans.items() for i in range(len(fan.chambers))} - rowed
    assert unrowed == {("A15", 0), ("E7E7A3", 1), ("E8E8", 2)}
    for mid, i in unrowed:
        mirrored = fans[mid].chambers[i].labels[::-1]
        assert any(fans[mid].chambers[j].labels == mirrored for m, j in rowed if m == mid), mid
    for mid, chamber_states in states.items():
        target = Divisor.of(catalogue_row(mid).relation)
        for state in chamber_states:
            assert derive(imposed_relations(state), target).certified, (mid, state.flop_history)


def test_next_wall_examples(models):
    ray, zero = next_wall(curve_catalogue(models["A15"]), +1)
    assert ray == (1, 0)
    assert {e.name for e in zero} == {f"e{i}" for i in range(1, 17)}

    ray, zero = next_wall(curve_catalogue(models["E8E8"]), -1)
    assert ray == (1, -1)
    assert {e.name for e in zero} == {"e'10"}

    ray, zero = next_wall(curve_catalogue(models["D17"]), -1)
    assert ray == (3, -2)
    assert {e.name for e in zero} == {"l'"}


def test_next_wall_rejects_a_start_past_a_threshold(models):
    # e1 has h-degree 3 and xi-degree -1 on D17, so its degree reaches 0 at h + 3xi
    message = r"^curve e1 already negative at h\+100xi \(degree 0 at h\+3xi\); "
    with pytest.raises(InvariantError, match=message):
        next_wall(curve_catalogue(models["D17"]), 1, (1, 100))


def test_next_wall_matches_the_threshold_rule(models, monkeypatch):
    # every call the walks make on the catalogue models and their swaps finds
    # the ray and the curves of the least threshold h.C / |xi.C|
    calls = []
    real = chamber_walk.next_wall

    def recorded(curves, direction, start):
        hit = real(curves, direction, start)
        calls.append((curves, direction, hit))
        return hit

    monkeypatch.setattr(chamber_walk, "next_wall", recorded)
    for m in models.values():
        lift_fan(m)
        lift_fan(swap_components(m))
    assert len(calls) == 2 * sum(len(f["walls"]) + 2 for f in EXPECTED_FANS.values())
    for curves, direction, (ray, zero) in calls:
        assert (ray, {e.name for e in zero}) == threshold_next_wall(curves, direction)


def test_fans_match_expected(fans):
    for mid, fan in fans.items():
        want = EXPECTED_FANS[mid]
        assert [tuple(b) for b in fan.boundary] == [tuple(b) for b in want["boundary"]]
        assert [tuple(w) for w in fan.walls] == [tuple(w) for w in want["walls"]]
        assert len(fan.chambers) == want["chambers"]


def test_chamber_labels(fans):
    a15 = fans["A15"]
    assert [c.labels for c in a15.chambers] == [
        ("P1xP1", "Bl16(P1xP1)"),
        ("Bl16(P1xP1)", "P1xP1"),
    ]
    e8e8 = fans["E8E8"]
    assert [c.labels for c in e8e8.chambers] == [
        ("Bl8P2 (dP1)", "Bl10P2"),
        ("Bl9P2", "Bl9P2"),
        ("Bl10P2", "Bl8P2 (dP1)"),
    ]
    a11 = fans["A11E6"]
    assert [c.labels for c in a11.chambers] == [
        ("P2", "Bl18P2"),
        ("Bl12P2", "Bl6P2 (dP3)"),
    ]


def test_adjacent_chambers_differ_by_recorded_flops(fans):
    for fan in fans.values():
        wall_zero = {e.ray: set(e.zero_classes) for e in fan.events
                     if e.kind == "interior_flop"}
        for upper, lower in zip(fan.chambers, fan.chambers[1:]):
            assert upper.lower == lower.upper
            diff = set(upper.flops) ^ set(lower.flops)
            assert diff == wall_zero[upper.lower]


def test_e8d9_boundary_zero_set(fans):
    fan = fans["E8D9"]
    (event,) = [e for e in fan.events if e.ray == (1, -2)]
    assert event.kind == "boundary_moving_class"
    zero = set(event.zero_classes)
    assert {f"e'{i}" for i in range(2, 11)} <= zero
    assert "l'-e'1" in zero


def test_e7e7a3_wall_zero_set(fans):
    fan = fans["E7E7A3"]
    (event,) = [e for e in fan.events if e.kind == "interior_flop"]
    assert event.ray == (1, -1)
    assert set(event.zero_classes) == {"e'8", "e'9", "e'10", "e'11"}


def test_a11e6_upper_boundary_contracts_v0(fans):
    fan = fans["A11E6"]
    (event,) = [e for e in fan.events if e.ray == (3, 1)]
    assert event.kind == "boundary_component_trivial"
    assert event.stable_model.components[0].verdict == "contracted_to_point"


def test_stable_model_examples(models):
    a15 = models["A15"]
    desc = stable_model_at(a15, curve_catalogue(a15), (1, 0))
    assert desc.annotation == "two quadrics intersecting transversally"
    v0, v1 = desc.components
    assert v0.verdict == "birational"
    assert set(v0.contracted) == {f"e{i}" for i in range(1, 17)}
    assert v1.verdict == "birational" and not v1.contracted

    d17 = models["D17"]
    desc = stable_model_at(d17, curve_catalogue(d17), (3, -2))
    assert desc.components[1].verdict == "contracted_to_point"

    # an interior point of the middle E8E8 chamber: nothing is contracted
    e8e8 = flop_all(models["E8E8"], ["e'10"])
    desc = stable_model_at(e8e8, curve_catalogue(e8e8), (2, -3))
    assert all(c.verdict == "birational" and not c.contracted for c in desc.components)


def test_stable_model_at_rejects_a_ray_that_is_not_nef(models):
    d17 = models["D17"]
    message = r"^class at ray \(1, 5\) is not nef: negative on \['e1', "
    with pytest.raises(ValueError, match=message):
        stable_model_at(d17, curve_catalogue(d17), (1, 5))


def test_stable_model_at_checks_that_the_restricted_squares_sum_to_c_squared(models, monkeypatch):
    # D17's h restricts to V0 and V1 with squares 0 and 4; reading V1's part
    # for both components gives a sum of 8
    real = SurfaceModel.component_part
    monkeypatch.setattr(SurfaceModel, "component_part", lambda self, v, comp: real(self, v, 1))
    d17 = models["D17"]
    message = r"^restricted squares at \(1, 0\) sum to 8; c\.c = 4 and 4 m\^2 = 4$"
    with pytest.raises(InvariantError, match=message):
        stable_model_at(d17, curve_catalogue(d17), (1, 0))


def test_d16_boundary_maps_v1_to_a_curve(fans, models):
    fan = fans["D16"]
    (event,) = [e for e in fan.events if e.ray == (2, -1)]
    assert event.kind == "boundary_moving_class"
    fate = event.stable_model.components[1]
    assert fate.verdict == "contracted_to_curve"
    m = models["D16"]
    restricted = fate.restricted_class
    assert intersect(m, restricted, restricted) == 0
    assert any(restricted)


def test_boundary_rays_are_nef(models, fans):
    # (1, 0) is nef on the initial state of every model; each walk endpoint
    # was additionally checked inside stable_model_at during fan assembly.
    for mid, m in models.items():
        h = class_at(m, (1, 0))
        assert all(intersect(m, h, curve_class(m, e)) >= 0 for e in curve_catalogue(m)), mid


def test_flops_preserve_ray_squares(models):
    m = models["E8E8"]
    states = [m, flop_all(m, ["e'10"]), flop_all(m, ["e'10", "e'9"])]
    for state in states:
        for ray in [(1, 0), (1, -1), (2, -3), (1, -3)]:
            c = class_at(state, ray)
            assert intersect(state, c, c) == 4 * ray[0] * ray[0]


def test_fan_stable_without_two_point_lines(models, fans, monkeypatch):
    # The two-point line classes only vanish at rays the fan already records,
    # so dropping them must not change any fan.  The walk builds every
    # whitelist it reads through this one name, so the reduced list reaches
    # the start check, the walls and the stable models alike.
    import degen_atlas.chamber_walk as cw

    def filtered(m):
        return tuple(
            e for e in curve_catalogue(m) if "-" not in e.name or e.kind == "moving"
        )

    monkeypatch.setattr(cw, "curve_catalogue", filtered)
    changed = 0
    for mid, m in models.items():
        fan, want = cw.lift_fan(m), fans[mid]
        assert fan.boundary == want.boundary
        assert fan.walls == want.walls
        assert fan.chambers == want.chambers  # rays, labels and flops
        assert [(e.ray, e.kind, e.stable_model) for e in fan.events] == [
            (e.ray, e.kind, e.stable_model) for e in want.events
        ]
        # the zero classes an event lists do lose the two-point lines
        changed += sum(e.zero_classes != w.zero_classes
                       for e, w in zip(fan.events, want.events))
    assert changed


def test_format_ray_and_diagram(fans):
    assert format_ray((1, 0)) == "h"
    assert format_ray((2, 1)) == "2h+xi"
    assert format_ray((1, -3)) == "h-3xi"
    assert format_ray((3, -2)) == "3h-2xi"
    text = fan_diagram(fans["A15"])
    assert "2h+xi" in text and "2h-xi" in text and "flop" in text


def test_verify_fans_report():
    rep = verify_fans()
    assert rep["pass"]
    assert len(rep["models"]) == 9


def test_e8e8_interior_point_of_first_chamber(models):
    e8e8 = models["E8E8"]
    desc = stable_model_at(e8e8, curve_catalogue(e8e8), (2, -1))
    assert all(c.verdict == "birational" and not c.contracted for c in desc.components)


def test_lift_fan_rejects_a_start_that_is_not_nef(models):
    with pytest.raises(ValueError, match=r"not nef: negative on \[\"e'10\"\]"):
        lift_fan(flop(models["E8E8"], "e'10"))


def test_lift_fan_rejects_a_model_without_polarization():
    with pytest.raises(ValueError, match="^polarization must have square 4$"):
        lift_fan(build_model("P2", "P2", 9))


def test_lift_fan_rejects_a_walk_that_meets_no_wall(models, monkeypatch):
    monkeypatch.setattr(chamber_walk, "next_wall", lambda curves, direction, start: None)
    message = (r"^walk in direction \+1 is unbounded for D17; "
               r"the curve catalogue must be missing an effective class$")
    with pytest.raises(ValueError, match=message):
        lift_fan(models["D17"])


def test_lift_fan_rejects_an_interior_wall_of_curves_outside_the_basis(models, monkeypatch):
    # E8E8's walk towards -xi first flops e'10; a whitelist that names it E'10
    # offers a floppable curve that is not a basis class
    real = chamber_walk.curve_catalogue

    def renamed(m):
        return tuple(e._replace(name=e.name.upper()) if e.kind == "floppable" else e
                     for e in real(m))

    monkeypatch.setattr(chamber_walk, "curve_catalogue", renamed)
    message = r"^interior wall at \(1, -1\) flops \(\"E'10\",\), not basis classes$"
    with pytest.raises(InvariantError, match=message):
        lift_fan(models["E8E8"])


def test_a_model_without_polarization_is_rejected_under_python_O():
    # h = 0: under -O lift_fan used to return one chamber of zero width
    code = (
        "from degen_atlas.chamber_walk import lift_fan\n"
        "from degen_atlas.root_classifier import script_L\n"
        "from degen_atlas.surface_pair import build_model\n"
        "for step in (lift_fan, script_L):\n"
        "    try:\n"
        "        print('accepted:', step(build_model('P2', 'P2', 9)))\n"
        "    except ValueError as exc:\n"
        "        print('rejected:', exc)\n"
    )
    done = run_python_O(["-c", code], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["rejected: polarization must have square 4"] * 2


def test_lift_fan_rejects_a_start_that_is_not_nef_under_python_O():
    # under -O the walk used to return a fan with a wall at eps = -1
    code = (
        "from degen_atlas.chamber_walk import lift_fan\n"
        "from degen_atlas.surface_pair import catalogue_model, flop\n"
        "try:\n"
        "    print('accepted:', lift_fan(flop(catalogue_model('E8E8'), \"e'10\")).walls)\n"
        "except ValueError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    done = run_python_O(["-c", code], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("rejected: polarization of E8E8 is not nef")


def test_fan_of_the_swapped_pair_is_the_mirror_image(models, fans):
    # swapping V0 and V1 negates xi: (m, n) -> (m, -n) reverses the fan
    def mirror(ray):
        return (ray[0], -ray[1])

    for mid, m in models.items():
        fan, swapped = fans[mid], lift_fan(swap_components(m))
        assert swapped.boundary == (mirror(fan.boundary[1]), mirror(fan.boundary[0]))
        assert swapped.walls == tuple(mirror(w) for w in reversed(fan.walls))
        assert [c.labels for c in swapped.chambers] == [
            (c.labels[1], c.labels[0]) for c in reversed(fan.chambers)
        ]
        assert [c.flops for c in swapped.chambers] == [
            tuple(map(toggle_tick, c.flops)) for c in reversed(fan.chambers)
        ]


def test_whitelist_degrees_are_the_pairings(models, fans):
    # every state a walk visits is the model of one of its chambers
    for mid, m in models.items():
        swapped = swap_components(m)
        for base, fan in ((m, fans[mid]), (swapped, lift_fan(swapped))):
            for chamber in fan.chambers:
                state = flop_all(base, chamber.flops)
                curves = curve_catalogue(state)
                for e in curves:
                    assert e.h_degree == intersect(state, state.h, curve_class(state, e))
                    assert e.xi_degree == intersect(state, state.xi, curve_class(state, e))
                for a, b in (chamber.upper, chamber.lower):
                    c = class_at(state, (a, b))
                    for e in curves:
                        assert a * e.h_degree + b * e.xi_degree == intersect(state, c, curve_class(state, e))
