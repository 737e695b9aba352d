"""Wall-and-chamber decomposition of the effective lifted-polarization cone.

Lifted polarizations are the classes m*h + n*xi.  Starting from the nef ray
(1, 0) the walk turns towards +xi (direction +1) and towards -xi (direction
-1) through primitive integer rays (m, n), the same rays it reports.  At
each event ray the curves whose degree reaches 0 there and would go
negative beyond it decide what happens, with precedence

    component restriction trivial  >  a moving class hits zero  >  flop.

The first two end the walk (they are the cone's boundary rays: the stable
model there contracts a whole component, or the class stops being
effective); a pure set of floppable curves is an interior wall, the curves
are flopped, and the walk continues in the modified model.  Rays are
reported as primitive (m, n) pairs in the original (h, xi) coordinates;
since flops transport h and xi by isometries, the class at (m, n) keeps
self-intersection 4 m^2 in every chamber.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional

from .exact_lattice import InvariantError, Vector, add_vec, scale_vec
from .surface_pair import (
    CurveEntry,
    SurfaceModel,
    catalogue_ids,
    catalogue_model,
    catalogue_row,
    check_model_invariants,
    curve_catalogue,
    flop_all,
    format_terms,
    intersect,
    surface_name,
)

MAX_WALK_STEPS = 64


def class_at(m: SurfaceModel, ray: tuple[int, int]) -> Vector:
    """m*h_cur + n*xi_cur in the model's current (transported) frame."""
    return add_vec(scale_vec(ray[0], m.h), scale_vec(ray[1], m.xi))


def next_wall(
    curves: tuple[CurveEntry, ...], direction: int, start: tuple[int, int] = (1, 0)
) -> Optional[tuple[tuple[int, int], tuple[CurveEntry, ...]]]:
    """First primitive ray at or past start, turning towards direction*xi,
    where the degree of a curve reaches 0.

    Only curves of the state's whitelist `curves` whose xi-degree falls along
    the direction can stop the walk; such a C has degree m*h.C + n*xi.C = 0
    at the ray (|xi.C|, direction*h.C) / gcd, and rays are ordered along the
    direction by cross-multiplication.  A curve of negative degree at start
    means the walk went past its wall.  Returns the first ray and every curve
    reaching 0 there, or None when the direction is unobstructed (a data
    error for catalogue models, whose cones are strictly convex).
    """
    best: Optional[tuple[int, int]] = None
    hits: list[CurveEntry] = []
    for entry in curves:
        slope = direction * entry.xi_degree
        if slope >= 0:
            continue
        g = gcd(entry.h_degree, slope)
        ray = (-slope // g, direction * entry.h_degree // g)
        if start[0] * entry.h_degree + start[1] * entry.xi_degree < 0:
            raise InvariantError(
                f"curve {entry.name} already negative at {format_ray(start)} "
                f"(degree 0 at {format_ray(ray)}); walk state is inconsistent"
            )
        if best is None or direction * (ray[1] * best[0] - best[1] * ray[0]) < 0:
            best, hits = ray, [entry]
        elif ray == best:
            hits.append(entry)
    if best is None:
        return None
    return best, tuple(hits)


class ComponentFate(NamedTuple):
    verdict: str  # "birational" | "contracted_to_curve" | "contracted_to_point"
    restricted_square: int
    restricted_class: Vector
    contracted: tuple[str, ...]
    note: str = ""


class StableModelDescription(NamedTuple):
    ray: tuple[int, int]
    components: tuple[ComponentFate, ComponentFate]
    annotation: Optional[str] = None

    def as_json(self) -> dict:
        return {
            "ray": list(self.ray),
            "components": [
                {
                    "verdict": c.verdict,
                    "restricted_square": c.restricted_square,
                    "contracted": list(c.contracted),
                    **({"note": c.note} if c.note else {}),
                }
                for c in self.components
            ],
            **({"annotation": self.annotation} if self.annotation else {}),
        }


def stable_model_at(
    m: SurfaceModel, curves: tuple[CurveEntry, ...], ray: tuple[int, int]
) -> StableModelDescription:
    """Describe the stable model of the nef class at the given ray.

    Per component: birational when the restricted class has positive square
    (listing the curves of m's whitelist `curves` it meets in degree 0), a
    map to a curve when the restriction is nonzero of square zero, a point
    when the restriction vanishes.
    """
    c = class_at(m, ray)
    degrees = [(e, ray[0] * e.h_degree + ray[1] * e.xi_degree) for e in curves]
    negative = [e.name for e, deg in degrees if deg < 0]
    if negative:
        raise ValueError(f"class at ray {ray} is not nef: negative on {negative}")
    fates = []
    for comp in (0, 1):
        restricted = m.component_part(c, comp)
        square = intersect(m, restricted, restricted)
        if all(x == 0 for x in restricted):
            fates.append(ComponentFate("contracted_to_point", 0, restricted, ()))
        elif square == 0:
            fates.append(
                ComponentFate(
                    "contracted_to_curve",
                    0,
                    restricted,
                    (),
                    note="restriction is nonzero of square zero",
                )
            )
        else:
            contracted = tuple(
                e.name
                for e, deg in degrees
                if deg == 0 and any(m.tags[i] == comp for i, _ in e.terms)
            )
            fates.append(ComponentFate("birational", square, restricted, contracted))
    total = sum(f.restricted_square for f in fates)
    if not total == intersect(m, c, c) == 4 * ray[0] * ray[0]:
        raise InvariantError(
            f"restricted squares at {ray} sum to {total}; c.c = {intersect(m, c, c)} "
            f"and 4 m^2 = {4 * ray[0] * ray[0]}"
        )
    annotation = None
    if ray == (1, 0) and m.annotation:
        annotation = m.annotation
    return StableModelDescription(ray, (fates[0], fates[1]), annotation)


class WallEvent(NamedTuple):
    ray: tuple[int, int]
    kind: str  # "interior_flop" | "boundary_component_trivial" | "boundary_moving_class"
    zero_classes: tuple[str, ...]
    stable_model: StableModelDescription
    note: str = ""


class Chamber(NamedTuple):
    upper: tuple[int, int]
    lower: tuple[int, int]
    labels: tuple[str, str]
    flops: tuple[str, ...]  # flops applied to reach this chamber from (1, 0)


class LiftFan(NamedTuple):
    model_id: str
    boundary: tuple[tuple[int, int], tuple[int, int]]
    walls: tuple[tuple[int, int], ...]
    chambers: tuple[Chamber, ...]
    events: tuple[WallEvent, ...]

    def as_json(self) -> dict:
        return {
            "model": self.model_id,
            # the curve whitelist of a CUSTOM model is not guaranteed complete
            **({"caveat": "relative to catalogue"} if self.model_id == "CUSTOM" else {}),
            "chambers": len(self.chambers),
            "walls": [list(w) for w in self.walls],
            "boundary": [list(b) for b in self.boundary],
            "chamber_labels": [list(c.labels) for c in self.chambers],
            "chamber_flops": [list(c.flops) for c in self.chambers],
            "events": [
                {
                    "ray": list(e.ray),
                    "kind": e.kind,
                    "zero_classes": list(e.zero_classes),
                    "stable_model": e.stable_model.as_json(),
                    **({"note": e.note} if e.note else {}),
                }
                for e in self.events
            ],
        }


def _walk(model: SurfaceModel, curves: tuple[CurveEntry, ...], direction: int):
    """Walk one direction; returns (events ending at a boundary, states after each wall)."""
    m = model
    ray = (1, 0)
    events: list[WallEvent] = []
    states: list[SurfaceModel] = []
    for _ in range(MAX_WALK_STEPS):
        hit = next_wall(curves, direction, ray)
        if hit is None:
            raise ValueError(
                f"walk in direction {direction:+d} is unbounded for {model.id}; "
                "the curve catalogue must be missing an effective class"
            )
        ray, zero = hit
        names = tuple(e.name for e in zero)
        stable = stable_model_at(m, curves, ray)
        points = [i for i, f in enumerate(stable.components) if f.verdict == "contracted_to_point"]
        if points:
            kind, note = "boundary_component_trivial", f"V{points[-1]} is contracted to a point"
        elif any(e.kind == "moving" for e in zero):
            kind, note = "boundary_moving_class", ""
        else:  # a pure set of floppable curves: an interior wall
            kind, note = "interior_flop", ""
        events.append(WallEvent(ray, kind, names, stable, note))
        if kind != "interior_flop":
            return events, states
        if not all(n in m.lattice.names for n in names):
            raise InvariantError(f"interior wall at {ray} flops {names}, not basis classes")
        m = flop_all(m, names)
        curves = curve_catalogue(m)
        states.append(m)
    raise ValueError(f"walk exceeded {MAX_WALK_STEPS} steps for {model.id}")


def lift_fan(model: SurfaceModel) -> LiftFan:
    """Both walks from (1, 0), assembled top-down (from +xi to -xi side).

    The rays run from the + boundary through the walls to the - boundary,
    and chamber i lies between rays i and i+1.  The model must pass
    `check_model_invariants` and h must be nef on its whitelist (ValueError
    otherwise): (1, 0) is where both walks start, sharing that whitelist.
    """
    check_model_invariants(model)
    curves = curve_catalogue(model)
    negative = [e.name for e in curves if e.h_degree < 0]
    if negative:
        raise ValueError(f"polarization of {model.id} is not nef: negative on {negative}")
    plus_events, plus_states = _walk(model, curves, +1)
    minus_events, minus_states = _walk(model, curves, -1)
    rays = [e.ray for e in reversed(plus_events)] + [e.ray for e in minus_events]
    states = plus_states[::-1] + [model] + minus_states
    chambers = tuple(
        Chamber(upper, lower, (surface_name(state, 0), surface_name(state, 1)),
                state.flop_history[len(model.flop_history):])
        for state, upper, lower in zip(states, rays[:-1], rays[1:], strict=True)
    )
    return LiftFan(model.id, (rays[0], rays[-1]), tuple(rays[1:-1]), chambers,
                   tuple(plus_events + minus_events))


def format_ray(ray: tuple[int, int]) -> str:
    return format_terms(zip(("h", "xi"), ray))


def fan_diagram(fan: LiftFan) -> str:
    """Plain-text picture of the fan, top (+xi side) to bottom."""
    by_ray = {e.ray: e for e in fan.events}
    lines = [f"Lift>=0 cone for {fan.model_id} (rays are m*h + n*xi):"]
    rays_top_down = [fan.boundary[0]] + list(fan.walls) + [fan.boundary[1]]
    for i, ray in enumerate(rays_top_down):
        event = by_ray[ray]
        if event.kind == "interior_flop":
            desc = f"wall: flop {', '.join(event.zero_classes)}"
        elif event.kind == "boundary_component_trivial":
            desc = f"boundary: {event.note}"
        else:
            desc = f"boundary: {', '.join(event.zero_classes)} stop being positive"
        lines.append(f"  {format_ray(ray):10s} {desc}")
        if i < len(rays_top_down) - 1:
            c = fan.chambers[i]
            lines.append(f"      | chamber: {c.labels[0]} U {c.labels[1]}")
    return "\n".join(lines)


def verify_fans() -> dict:
    """Compute every catalogue fan and compare with the catalogue table's
    boundary rays and walls (lift_fan makes one chamber more than walls)."""
    fields = ("boundary", "walls", "chambers", "chamber_labels")
    results = {}
    for mid in catalogue_ids():
        fan = lift_fan(catalogue_model(mid))
        report = fan.as_json()
        ok = (fan.boundary, fan.walls) == catalogue_row(mid).fan
        results[mid] = {"ok": ok, **{k: report[k] for k in fields}}
    return {"suite": "chamber fans", "pass": all(r["ok"] for r in results.values()),
            "models": results}
