"""The combined Picard lattice of a two-component Tyurin central fiber.

A model is a pair of rational surfaces V0, V1 (each a blowup of P2 or of
P1xP1) glued along an elliptic curve.  Its lattice is H2(V0) + H2(V1) with
the standard diagonal/hyperbolic intersection form; every basis class
carries a component tag.  Flopping an exceptional curve toggles its tag and
acts on tracked classes by the reflection in that (-1)-class.

The nine catalogue entries carry the polarization h (h^2 = 4) and have
xi = (-E0, E1) recomputed from the tags, where Ei is the class of the
double curve on component i.  Each also carries the divisor image of every
basis class on the double curve and any auxiliary point relations; both are
data of the catalogue table; period_relations alone orders and renames
point symbols.  The table also gives each model's expected lattice type,
fan and point relation; catalogue_row reads it.
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .exact_lattice import FrozenValue, GramForm, InvariantError, Vector, add_vec, mat, scale_vec

P2 = "P2"
P1XP1 = "P1xP1"

# (-K)^2 of the unblown base; a model's invariant is d = n0 - k0.
BASE_DEGREE = {P2: 9, P1XP1: 8}

Terms = Mapping[str, int]  # name -> coefficient
Ray = tuple[int, int]  # (m, n), the class m*h + n*xi


def _base_names(base: str, primed: bool) -> list[str]:
    tick = "'" if primed else ""
    if base == P2:
        return [f"l{tick}"]
    if base == P1XP1:
        return [f"s{tick}", f"f{tick}"]
    raise ValueError(f"unknown base kind {base!r}; expected P2 or P1xP1")


def _exc_names(count: int, primed: bool) -> list[str]:
    tick = "'" if primed else ""
    return [f"e{tick}{i}" for i in range(1, count + 1)]


def point_symbol(basis_name: str) -> str:
    """Symbol of the blown-up point under an exceptional class, e'3 -> p'3."""
    if not is_exceptional(basis_name):
        raise ValueError(f"{basis_name} is not an exceptional class")
    return "p" + basis_name[1:]


def is_exceptional(name: str) -> bool:
    return name.startswith("e")


def home_component(name: str) -> int:
    """Component a basis class originally belongs to (primed = V1)."""
    return 1 if "'" in name else 0


class PairLattice(FrozenValue):
    _fields = ("base0", "base1", "names", "gram_form")

    def __init__(self, base0: str, base1: str, names: tuple[str, ...],
                 gram_form: GramForm) -> None:
        self._init(base0, base1, names, gram_form)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"unknown basis class {name!r}; alphabet: {', '.join(self.names)}")

    @property
    def rank(self) -> int:
        return len(self.names)


def make_pair_lattice(base0: str, n0: int, base1: str, n1: int) -> PairLattice:
    names = _base_names(base0, False) + _exc_names(n0, False)
    names += _base_names(base1, True) + _exc_names(n1, True)
    g = [[0] * len(names) for _ in names]
    for i, name in enumerate(names):
        if is_exceptional(name):
            g[i][i] = -1
        elif name.startswith("l"):
            g[i][i] = 1
        elif name.startswith("s"):  # rulings s, f: s.f = 1, s^2 = f^2 = 0
            g[i][i + 1] = g[i + 1][i] = 1
    return PairLattice(base0, base1, tuple(names), GramForm(mat(g)))


def _read_only(terms: Terms) -> Terms:
    """A read-only copy of terms, or terms itself when a flop passes a read-only one on."""
    return terms if isinstance(terms, MappingProxyType) else MappingProxyType(dict(terms))


class CurveEntry(NamedTuple):
    name: str
    terms: tuple[tuple[int, int], ...]  # C's nonzero coordinates, as (index, coefficient)
    kind: str  # "floppable" | "moving"
    h_degree: int  # h.C and xi.C in the model the whitelist was built for
    xi_degree: int


class SurfaceModel(FrozenValue):
    """A tagged pair lattice with its polarization and restriction data.

    A model is immutable: E0, E1 and xi are computed once, from its tags, on
    first use; a flop or `_replace` makes a new model.  `restrictions` maps
    every basis name to its divisor image on the double curve, as {point
    symbol: coefficient}, and one that misses a basis name is a ValueError;
    it is None for a CUSTOM model built without a dictionary.
    `aux_relations` are declared degree-0 point relations beyond those psi
    imposes.  Both are made read-only on construction.
    `fiber_classes` are the declared fiber class vectors of the
    Hirzebruch-cover models.  Catalogue models get the default
    images (l -> 3q, e_i -> p_i, ruling -> 2q) with the table's overrides
    applied; only D16 has overrides, which put its 4-torsion point pf on
    the quadric's rulings.
    """

    _fields = ("id", "lattice", "tags", "h", "fiber_classes", "flop_history", "annotation",
               "restrictions", "aux_relations")

    def __init__(self, id: str, lattice: PairLattice, tags: tuple[int, ...], h: Vector,
                 fiber_classes: tuple[Vector, ...] = (), flop_history: tuple[str, ...] = (),
                 annotation: Optional[str] = None,
                 restrictions: Optional[Mapping[str, Terms]] = None,
                 aux_relations: tuple[Terms, ...] = ()) -> None:
        rank = lattice.rank
        if len(tags) != rank:
            raise ValueError(f"{len(tags)} tags for a lattice of rank {rank}")
        if len(h) != rank:
            raise ValueError(f"{len(h)} entries in h for a lattice of rank {rank}")
        for i, name in enumerate(lattice.names):
            if not is_exceptional(name) and tags[i] != home_component(name):
                raise ValueError(
                    f"base class {name} is tagged {tags[i]}; base classes never move"
                )
        if restrictions is not None:
            missing = [name for name in lattice.names if name not in restrictions]
            if missing:
                raise ValueError(f"the dictionary misses the basis classes {', '.join(missing)}")
            restrictions = MappingProxyType(
                {name: _read_only(terms) for name, terms in restrictions.items()})
        self._init(id, lattice, tags, h, fiber_classes, flop_history, annotation,
                   restrictions, tuple(map(_read_only, aux_relations)))

    def __hash__(self) -> int:
        # mappings are not hashable, so the hash skips restrictions and aux_relations
        return hash(self._values()[:-2])

    @cached_property
    def xi(self) -> Vector:
        """(-E0, E1) from the model's tags."""
        e0, e1 = self._double_curve_classes
        return add_vec(scale_vec(-1, e0), e1)

    @cached_property
    def _double_curve_classes(self) -> tuple[Vector, Vector]:
        """(E0, E1), each component's anticanonical class under the tags."""
        lat = self.lattice
        out = []
        for comp, base in enumerate((lat.base0, lat.base1)):
            terms = dict.fromkeys(_base_names(base, comp == 1), 3 if base == P2 else 2)
            terms.update(dict.fromkeys(self.exceptionals_on(comp), -1))
            out.append(class_vector(lat, terms))
        return out[0], out[1]

    def double_curve_class(self, comp: int) -> Vector:
        """Anticanonical class of component comp under the current tags."""
        return self._double_curve_classes[comp]

    def component_part(self, v: Vector, comp: int) -> Vector:
        return tuple(
            x if self.tags[i] == comp else 0 for i, x in enumerate(v)
        )

    def exceptionals_on(self, comp: int) -> tuple[str, ...]:
        return tuple(
            name
            for i, name in enumerate(self.lattice.names)
            if is_exceptional(name) and self.tags[i] == comp
        )

    @property
    def d(self) -> int:
        return len(self.exceptionals_on(0)) - BASE_DEGREE[self.lattice.base0]


def class_vector(lattice: PairLattice, terms: Mapping[str, int]) -> Vector:
    v = [0] * lattice.rank
    for name, coeff in terms.items():
        v[lattice.index(name)] = coeff
    return tuple(v)


def intersect(m: SurfaceModel, a: Vector, b: Vector) -> int:
    return m.lattice.gram_form.pairing(a, b)


def _sum_terms(prefix: str, lo: int, hi: int, coeff: int) -> dict[str, int]:
    """{prefix+lo: coeff, ..., prefix+hi: coeff}, e.g. ("e'", 2, 4, -1) -> e'2, e'3, e'4."""
    return {f"{prefix}{i}": coeff for i in range(lo, hi + 1)}


def _default_restrictions(lattice: PairLattice) -> dict[str, Terms]:
    """l -> 3q, e_i -> p_i and each ruling -> 2q, ticked by home component."""
    out: dict[str, Terms] = {}
    for name in lattice.names:
        q = "q'" if home_component(name) else "q"
        if is_exceptional(name):
            out[name] = {point_symbol(name): 1}
        else:
            out[name] = {q: 3 if name.startswith("l") else 2}
    return out


class CatalogueRow(FrozenValue):
    """One catalogue model as the paper gives it, in its own basis names and
    point symbols; its h, relation, fibers and overrides are read-only."""

    _fields = ("base0", "n0", "base1", "n1", "h", "type", "fan", "relation", "fibers",
               "annotation", "overrides")

    def __init__(self, base0: str, n0: int, base1: str, n1: int, h: Terms,
                 type: str,  # expected lattice type, in type_string spelling
                 fan: tuple[tuple[Ray, Ray], tuple[Ray, ...]],  # expected (boundary rays, walls)
                 relation: Terms,  # the extra point relation, a degree-0 divisor
                 fibers: tuple[Terms, ...] = (),  # fiber classes of Hirzebruch-cover models
                 annotation: Optional[str] = None,
                 # restriction images that replace the defaults, and auxiliary relations
                 overrides: Optional[tuple[Mapping[str, Terms], tuple[Terms, ...]]] = None,
                 ) -> None:
        if overrides is not None:
            images, aux = overrides
            overrides = (MappingProxyType({name: _read_only(t) for name, t in images.items()}),
                         tuple(map(_read_only, aux)))
        self._init(base0, n0, base1, n1, _read_only(h), type, fan, _read_only(relation),
                   tuple(map(_read_only, fibers)), annotation, overrides)


_CATALOGUE_TABLE = {
    "A15": CatalogueRow(
        P1XP1, 16, P1XP1, 0,
        {"s": 1, "f": 1, "s'": 1, "f'": 1},
        "A15+A1+A1", (((2, 1), (2, -1)), ((1, 0),)),
        {"q": 16, **_sum_terms("p", 1, 16, -1)},
        annotation="two quadrics intersecting transversally",
    ),
    "A11E6": CatalogueRow(
        P2, 12, P2, 6,
        {"l": 1, "l'": 3, **_sum_terms("e'", 1, 6, -1)},
        "E6+A11", (((3, 1), (1, -1)), ((1, 0),)),
        {"q": 12, **_sum_terms("p", 1, 12, -1)},
        annotation="a plane intersecting a cubic surface",
    ),
    "D12D5": CatalogueRow(
        P2, 13, P2, 5,
        {"l": 2, "e1": -2, "l'": 3, **_sum_terms("e'", 1, 5, -1)},
        "D12+D5", (((1, 0), (1, -1)), ()),
        {"q": 15, "p1": -3, **_sum_terms("p", 2, 13, -1)},
        fibers=({"l": 1, "e1": -1},),
    ),
    "D8D8": CatalogueRow(
        P2, 9, P2, 9,
        {"l": 1, "e1": -1, "l'": 4, "e'1": -2, **_sum_terms("e'", 2, 9, -1)},
        "D8+D8+<-4>", (((1, 0), (1, -1)), ()),
        {"q'": 12, "p1": 1, "q": -3, "p'1": -2, **_sum_terms("p'", 2, 9, -1)},
        fibers=({"l": 1, "e1": -1}, {"l'": 1, "e'1": -1}),
    ),
    "D16": CatalogueRow(
        P2, 17, P1XP1, 0,
        {"l": 3, "e1": -3, "s'": 1, "f'": 2},
        "D16+<-4>", (((1, 0), (2, -1)), ()),
        {"q": 63, "p1": -15, **_sum_terms("p", 2, 17, -3)},
        fibers=({"l": 1, "e1": -1},),
        # The quadric's rulings restrict through a distinguished point pf,
        # with pf - q' 4-torsion: the images are pinned jointly by the forms
        # of psi(h) and psi(xi).
        overrides=(
            {"s'": {"q'": 3, "pf": -1}, "f'": {"q'": 1, "pf": 1}},
            ({"pf": 4, "q'": -4},),
        ),
    ),
    "D17": CatalogueRow(
        P2, 18, P2, 0,
        {"l": 3, "e1": -3, "l'": 2},
        "D17", (((1, 0), (3, -2)), ()),
        {"q": 45, "p1": -11, **_sum_terms("p", 2, 18, -2)},
        fibers=({"l": 1, "e1": -1},),
    ),
    "E8D9": CatalogueRow(
        P2, 8, P2, 10,
        {"l'": 7, "e'1": -3, **_sum_terms("e'", 2, 10, -2)},
        "E8+D9", (((1, 0), (1, -2)), ()),
        {"q'": 21, "p'1": -3, **_sum_terms("p'", 2, 10, -2)},
        fibers=({"l'": 1, "e'1": -1},),
    ),
    "E7E7A3": CatalogueRow(
        P2, 7, P2, 11,
        {"l'": 6, **_sum_terms("e'", 1, 7, -2), **_sum_terms("e'", 8, 11, -1)},
        "E7+E7+A3", (((1, 0), (1, -2)), ((1, -1),)),
        {"q'": 18, **_sum_terms("p'", 1, 7, -2), **_sum_terms("p'", 8, 11, -1)},
    ),
    "E8E8": CatalogueRow(
        P2, 8, P2, 10,
        {"l'": 9, **_sum_terms("e'", 1, 8, -3), "e'9": -2, "e'10": -1},
        "E8+E8+<-4>", (((1, 0), (1, -3)), ((1, -1), (1, -2))),
        {"q'": 27, **_sum_terms("p'", 1, 8, -3), "p'9": -2, "p'10": -1},
    ),
}

CATALOGUE_IDS = tuple(_CATALOGUE_TABLE)


def catalogue_ids() -> tuple[str, ...]:
    return CATALOGUE_IDS


def catalogue_row(model_id: str) -> CatalogueRow:
    """The catalogue table's row for a model id, else a KeyError naming the known ids."""
    if model_id not in _CATALOGUE_TABLE:
        raise KeyError(f"unknown model {model_id!r}; known: {', '.join(CATALOGUE_IDS)}")
    return _CATALOGUE_TABLE[model_id]


@cache
def catalogue_model(model_id: str) -> SurfaceModel:
    """A catalogue model built from its table row, once per id."""
    row = catalogue_row(model_id)
    image_overrides, aux_relations = row.overrides or ({}, ())
    lat = make_pair_lattice(row.base0, row.n0, row.base1, row.n1)
    model = SurfaceModel(
        id=model_id, lattice=lat, tags=tuple(home_component(n) for n in lat.names),
        h=class_vector(lat, row.h), fiber_classes=tuple(class_vector(lat, t) for t in row.fibers),
        annotation=row.annotation,
        restrictions={**_default_restrictions(lat), **image_overrides},
        aux_relations=aux_relations,
    )
    check_model_invariants(model)
    return model


def catalogue() -> dict[str, SurfaceModel]:
    """The nine standard models, keyed by their root-lattice id."""
    return {mid: catalogue_model(mid) for mid in CATALOGUE_IDS}


def check_model_invariants(m: SurfaceModel) -> None:
    """h^2 = 4, h.xi = 0, xi^2 = 0 and E0^2 + E1^2 = 0, else ValueError."""
    xi = m.xi
    if intersect(m, m.h, m.h) != 4:
        raise ValueError("polarization must have square 4")
    if intersect(m, m.h, xi) != 0:
        raise ValueError("polarization must be numerically Cartier")
    if intersect(m, xi, xi) != 0:
        raise ValueError("double curve class must be isotropic")
    e0, e1 = m.double_curve_class(0), m.double_curve_class(1)
    if intersect(m, e0, e0) + intersect(m, e1, e1) != 0:
        raise ValueError("triple-point formula")


def build_model(
    base0: str,
    base1: str,
    n: int,
    h: Optional[Vector] = None,
    dictionary: Optional[Mapping[str, Terms]] = None,
) -> SurfaceModel:
    """Blow up n double-curve points on V0 and k - n on V1.

    k = k0 + k1 with ki = (-K)^2 of the base; the d-semistability shadow
    E0^2 + E1^2 = 0 holds automatically.  A supplied polarization h must
    have h^2 = 4 and h.xi = 0.  The dictionary, {basis name: {symbol:
    coeff}}, becomes the model's restriction images.
    """
    k0, k1 = BASE_DEGREE[base0], BASE_DEGREE[base1]
    k = k0 + k1
    if not 0 <= n <= k:
        raise ValueError(f"point count n={n} out of range 0..{k}")
    lat = make_pair_lattice(base0, n, base1, k - n)
    tags = tuple(home_component(nm) for nm in lat.names)
    model = SurfaceModel(
        id="CUSTOM", lattice=lat, tags=tags,
        h=h if h is not None else (0,) * lat.rank,
        restrictions=dictionary,
    )
    xi = model.xi
    if intersect(model, xi, xi) != 0:
        raise InvariantError(f"xi has square {intersect(model, xi, xi)}, not 0")
    e0 = model.double_curve_class(0)
    if intersect(model, e0, e0) != k0 - n:
        raise InvariantError(f"E0 has square {intersect(model, e0, e0)}, not {k0 - n}")
    if h is not None:
        if intersect(model, h, h) != 4:
            raise ValueError("h.h must be 4")
        if intersect(model, h, xi) != 0:
            raise ValueError("h.xi must be 0 (numerically Cartier)")
    return model


def reflect(m: SurfaceModel, e: Vector, c: Vector) -> Vector:
    """Reflection of c in the (-1)-class e: c - 2 (c.e)/(e.e) e."""
    ee = intersect(m, e, e)
    if ee == 0:
        raise ValueError("cannot reflect in a class of square 0")
    ce = intersect(m, c, e)
    num = 2 * ce
    if num % ee:
        raise ValueError(f"reflection in a class of square {ee} is not integral on c.e = {ce}")
    return add_vec(c, scale_vec(-(num // ee), e))


def flop(m: SurfaceModel, name: str) -> SurfaceModel:
    """Move the exceptional curve `name` to the other component.

    Tracked classes transport by the reflection in the (-1)-class, which for
    a basis exceptional just negates that coordinate; xi recomputed from the
    new tags must (and does) agree with the transported xi.
    """
    idx = m.lattice.index(name)
    if not is_exceptional(name):
        raise ValueError(f"{name} is not an exceptional class; only exceptionals flop")
    e = tuple(1 if i == idx else 0 for i in range(m.lattice.rank))
    tag = m.tags[idx]
    e_comp = m.double_curve_class(tag)
    if intersect(m, e, e) != -1:
        raise InvariantError(f"exceptional {name} has square {intersect(m, e, e)}, not -1")
    if intersect(m, e, e_comp) != 1:
        raise InvariantError(f"exceptional {name} must meet the double curve once")
    xi_before = m.xi
    new_tags = tuple(
        (1 - t) if i == idx else t for i, t in enumerate(m.tags)
    )
    new_h = reflect(m, e, m.h)
    out = m._replace(tags=new_tags, h=new_h, flop_history=m.flop_history + (name,))
    if out.xi != reflect(m, e, xi_before):
        raise InvariantError(f"flop of {name}: tag-recomputed xi must match transport")
    check_model_invariants(out)
    return out


def flop_all(m: SurfaceModel, names: Sequence[str]) -> SurfaceModel:
    for n in names:
        m = flop(m, n)
    return m


def curve_catalogue(m: SurfaceModel) -> tuple[CurveEntry, ...]:
    """The finite curve whitelist for the current tagging, with degrees.

    Floppable: every exceptional basis class, plus the two-point lines
    l - e_i - e_j on P2-type components carrying at least two exceptionals.
    Moving: l (P2) and the two rulings (P1xP1) of each component, plus the
    declared fiber classes of the Hirzebruch-cover models.  Each entry
    carries h.C and xi.C, read from C's nonzero terms against G.h and G.xi,
    each formed once.  For CUSTOM models this list is only complete
    relative to the catalogue.
    """
    lat = m.lattice
    gh, gxi = lat.gram_form.times(m.h), lat.gram_form.times(m.xi)
    entries: list[CurveEntry] = []

    def add(name: str, terms: tuple[tuple[int, int], ...], kind: str) -> None:
        entries.append(CurveEntry(name, terms, kind, sum(c * gh[i] for i, c in terms),
                                  sum(c * gxi[i] for i, c in terms)))

    for i, name in enumerate(lat.names):
        if is_exceptional(name):
            add(name, ((i, 1),), "floppable")
    for comp in (0, 1):
        base = lat.base0 if comp == 0 else lat.base1
        primed = comp == 1
        if base == P2:
            lname = "l'" if primed else "l"
            il = lat.index(lname)
            add(lname, ((il, 1),), "moving")
            exc = m.exceptionals_on(comp)
            ie = [lat.index(e) for e in exc]
            for a in range(len(exc)):
                for b in range(a + 1, len(exc)):
                    add(f"{lname}-{exc[a]}-{exc[b]}", ((il, 1), (ie[a], -1), (ie[b], -1)),
                        "floppable")
        else:
            for rn in _base_names(P1XP1, primed):
                add(rn, ((lat.index(rn), 1),), "moving")
    for fvec in m.fiber_classes:
        terms = tuple((i, x) for i, x in enumerate(fvec) if x)
        if len({m.tags[i] for i, _ in terms}) == 1:  # still a curve class on a single component
            add(format_class(lat, fvec), terms, "moving")
    return tuple(entries)


def surface_name(m: SurfaceModel, comp: int) -> str:
    base = m.lattice.base0 if comp == 0 else m.lattice.base1
    k = len(m.exceptionals_on(comp))
    if k == 0:
        return base
    name = f"Bl{k}P2" if base == P2 else f"Bl{k}(P1xP1)"
    if base == P2 and k <= 8:
        name += f" (dP{9 - k})"
    return name


def export_model(m: SurfaceModel) -> dict:
    """JSON-ready description: basis names, tags, gram, h, xi."""
    return {
        "id": m.id,
        "bases": [m.lattice.base0, m.lattice.base1],
        "basis": [
            {"name": n, "component": t} for n, t in zip(m.lattice.names, m.tags)
        ],
        "gram": [list(row) for row in m.lattice.gram_form.gram],
        "h": list(m.h),
        "xi": list(m.xi),
        "d": m.d,
        "surfaces": [surface_name(m, 0), surface_name(m, 1)],
        "flops": list(m.flop_history),
    }


_TERM_RE = re.compile(r"([+-]?)\s*(\d*)\s*(e'\d+|e\d+|l'|l|s'|s|f'|f)")


def parse_class(lattice: PairLattice, text: str) -> Vector:
    """Parse basis-name syntax like '3l-e1-e2' or "2e'3+f'".

    Rejects a text with no term, symbols outside the lattice's alphabet,
    and a term after the first without its sign ('e1e1', 'le1'); spaces are
    ignored.
    """
    stripped = text.replace(" ", "")
    if not stripped:
        raise ValueError(f"cannot parse {text!r}: a class needs at least one term")
    pos = 0
    terms: dict[str, int] = {}
    while pos < len(stripped):
        match = _TERM_RE.match(stripped, pos)
        if not match:
            raise ValueError(
                f"cannot parse {text!r} at {stripped[pos:]!r}; "
                f"alphabet: {', '.join(lattice.names)}"
            )
        sign, digits, name = match.groups()
        if pos and not sign:
            at = [i for i, ch in enumerate(text) if ch != " "][pos]
            raise ValueError(f"cannot parse {text!r}: the term at position {at} "
                             f"({stripped[pos:]!r}) needs a sign, + or -")
        if name not in lattice.names:
            raise ValueError(
                f"unknown class {name!r} for this model; "
                f"alphabet: {', '.join(lattice.names)}"
            )
        coeff = int(digits) if digits else 1
        if sign == "-":
            coeff = -coeff
        terms[name] = terms.get(name, 0) + coeff
        pos = match.end()
    return class_vector(lattice, terms)


def format_terms(terms: Iterable[tuple[str, int]], sep: str = "") -> str:
    """The signed sum of (name, coefficient) pairs, as '3l-e1-e2', or with
    sep=" " as '27q - 3p1'.  Zero terms are left out, a coefficient of
    magnitude 1 is not printed, and the empty sum is '0'."""
    parts: list[str] = []
    for name, coeff in terms:
        if coeff:
            sign = "-" if coeff < 0 else ("+" if parts else "")
            mag = abs(coeff)
            parts.append(f"{sign}{sep if parts else ''}{'' if mag == 1 else mag}{name}")
    return sep.join(parts) or "0"


def format_class(lattice: PairLattice, v: Vector) -> str:
    return format_terms(zip(lattice.names, v))
