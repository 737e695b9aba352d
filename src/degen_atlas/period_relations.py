"""Formal divisor calculus on the double curve.

Each basis class of a surface pair restricts to a divisor class on the
elliptic double curve; with the two embeddings' group-law identities written
q and q', a line restricts to 3q, an exceptional curve over the i-th blown
up point to p_i, and a ruling of a quadric to 2q.  The period morphism of a
numerically Cartier class (c0, c1) is the degree-zero divisor

    psi(c) = c0|E - c1|E,

computed here as a formal integer combination of point symbols.  The
images of the basis classes, and any auxiliary relations, are data carried
by the model (SurfaceModel.restrictions and .aux_relations); the only
non-default entries are those of D16 in the catalogue table.  Applying psi
to the polarization h and to the double-curve class xi yields the two
imposed relations; the extra relation of each model, in its row of the
catalogue table, is then an integer combination of those (plus, for D16,
its declared 4-torsion auxiliary), certified by exact span membership.

This module owns the point symbols: their order, and the tick toggle that
names each point from the other component.  A stable-model state with
d < 0 is read in the paper's orientation by that renaming alone.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .exact_lattice import FrozenValue, InvariantError, Vector, in_span, snf, span_matrix
from .surface_pair import (
    SurfaceModel,
    Terms,
    catalogue_model,
    catalogue_row,
    flop_all,
    format_terms,
    intersect,
    surface_name,
)


_COMPONENT_NAME = re.compile(r"([a-z])(')?(\d*)")


def _symbol_key(sym: str) -> tuple:
    """The order q, p1, p2, ..., q', p'1, p'2, ..., pf of the point symbols;
    any other symbol is a ValueError."""
    match = _COMPONENT_NAME.fullmatch(sym)
    if match:
        letter, tick, index = match.groups()
        if (letter == "q" and not index) or (letter == "p" and index):
            return (2 * bool(tick) + (letter == "p"), int(index or 0))
    elif sym == "pf":
        return (4, 0)
    raise ValueError(f"unknown point symbol {sym!r}")


def _toggle_tick(sym: str) -> str:
    """The same point named from the other component.

    q <-> q', p3 <-> p'3.  A symbol of more than one letter, like the
    4-torsion point pf, belongs to no component and is returned unchanged.
    """
    match = _COMPONENT_NAME.fullmatch(sym)
    if match is None:
        return sym
    letter, tick, index = match.groups()
    return letter + ("" if tick else "'") + index


class Divisor(FrozenValue):
    """Formal integer combination of point symbols on the double curve."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[str, int], ...]) -> None:
        self._init(coeffs)

    @staticmethod
    def of(terms: Mapping[str, int]) -> "Divisor":
        cleaned = tuple(
            (s, c) for s, c in sorted(terms.items(), key=lambda t: _symbol_key(t[0])) if c
        )
        return Divisor(cleaned)

    def vector(self, symbols: Sequence[str]) -> Vector:
        """The coefficients of the symbols, in their order; a symbol of the
        divisor missing from symbols is dropped."""
        coeffs = dict(self.coeffs)
        return tuple(coeffs.get(s, 0) for s in symbols)

    def degree(self) -> int:
        return sum(c for _, c in self.coeffs)

    def __add__(self, other: "Divisor") -> "Divisor":
        return _linear_combination(((1, self.coeffs), (1, other.coeffs)))

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-1) * other

    def __rmul__(self, k: int) -> "Divisor":
        return Divisor.of({s: k * c for s, c in self.coeffs})

    def __neg__(self) -> "Divisor":
        return (-1) * self

    def symbols(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.coeffs)

    def __str__(self) -> str:
        return format_terms(self.coeffs, " ")


def _toggled(d: Divisor) -> Divisor:
    """d with every point named from the other component."""
    return Divisor.of({_toggle_tick(s): c for s, c in d.coeffs})


def _linear_combination(terms: Iterable[tuple[int, Iterable[tuple[str, int]]]]) -> Divisor:
    """sum k * d over the (k, d) pairs, d as (symbol, coeff) pairs, added in one dict."""
    total: dict[str, int] = {}
    for k, d in terms:
        for s, c in d:
            total[s] = total.get(s, 0) + k * c
    return Divisor.of(total)


def restriction_dictionary(m: SurfaceModel) -> Mapping[str, Terms]:
    """Image of every basis class on the double curve, as {symbol: coeff}.

    The images are the model's own read-only data, m.restrictions.  Exceptional
    classes keep their point symbol when flopped.  The one non-default
    entry is the quadric of D16, in the catalogue table: its two ruling
    images are pinned jointly by the forms of psi(h) and psi(xi) and
    involve a distinguished 4-torsion point pf, whose relation is in
    m.aux_relations.
    """
    if m.restrictions is None:
        raise ValueError(
            "CUSTOM models need an explicit restriction dictionary; "
            "pass dictionary={basis name: {symbol: coeff}} to build_model"
        )
    return m.restrictions


def psi(m: SurfaceModel, c: Vector) -> Divisor:
    """Period morphism: restriction to V0 minus restriction to V1.

    Only defined for numerically Cartier classes (c . xi = 0); the resulting
    divisor always has degree 0.
    """
    if intersect(m, c, m.xi) != 0:
        deg0 = intersect(m, m.component_part(c, 0), m.double_curve_class(0))
        deg1 = intersect(m, m.component_part(c, 1), m.double_curve_class(1))
        raise ValueError(
            f"class is not numerically Cartier: restriction degrees "
            f"({deg0}, {deg1}) differ"
        )
    images = restriction_dictionary(m)
    signed = zip(m.lattice.names, c, m.tags, strict=True)
    total = _linear_combination((-x if tag else x, images[name].items())
                                for name, x, tag in signed if x)
    if total.degree() != 0:
        raise InvariantError(f"psi of {c} has degree {total.degree()}, not 0")
    return total


def _sign_normalized(d: Divisor) -> Divisor:
    for _, c in d.coeffs:
        return d if c > 0 else -d
    return d


class RelationSystem(NamedTuple):
    r_h: Divisor
    r_xi: Divisor
    aux: tuple[Divisor, ...]

    def generators(self) -> tuple[Divisor, ...]:
        return (self.r_h, self.r_xi) + self.aux

    def toggled(self) -> "RelationSystem":
        """The system with every point named from the other component.

        This is exactly the system of the pair with V0 and V1 exchanged:
        there, with names toggled, tags flipped and images toggled,
        psi'(c') = -toggle(psi(c)) and xi' is -xi renamed, so R_h' and
        R_xi' are +-toggle(R_h) and +-toggle(R_xi), which _sign_normalized
        makes unique, and aux' = toggle(aux).
        """
        return RelationSystem(_sign_normalized(_toggled(self.r_h)),
                              _sign_normalized(_toggled(self.r_xi)),
                              tuple(map(_toggled, self.aux)))


def imposed_relations(m: SurfaceModel) -> RelationSystem:
    """The relations psi forces: R_h = psi(h) and R_xi = -psi(xi).

    Signs are normalized so the leading symbol has a positive coefficient.
    For an unflopped base-pair model R_xi is exactly the d-semistability
    relation k0 q + k1 q' - sum p_i - sum p'_j.
    """
    r_h = _sign_normalized(psi(m, m.h))
    r_xi = _sign_normalized(-1 * psi(m, m.xi))
    aux = tuple(Divisor.of(terms) for terms in m.aux_relations)
    return RelationSystem(r_h=r_h, r_xi=r_xi, aux=aux)


class DeriveResult(NamedTuple):
    status: str  # "certified" | "rational_only" | "not_in_span"
    coefficients: Optional[tuple[int, ...]]
    generators: tuple[Divisor, ...]
    target: Divisor

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def derive(system: RelationSystem, target: Divisor) -> DeriveResult:
    """Express the target in the integer span of the imposed relations.

    Membership is over Z; a rational-only membership is reported as its own
    verdict rather than silently accepted.  A returned certificate always
    re-expands exactly to the target.
    """
    gens = system.generators()
    if target.degree() != 0:
        raise ValueError("targets must have degree 0")
    if any(g.degree() != 0 for g in gens):
        raise ValueError("generators must have degree 0")
    universe = sorted(
        {s for g in gens for s in g.symbols()} | set(target.symbols()),
        key=_symbol_key,
    )
    gen_vecs = [g.vector(universe) for g in gens]
    tvec = target.vector(universe)
    coeffs = in_span(tvec, gen_vecs)
    if coeffs is not None:
        check = _linear_combination((k, g.coeffs) for k, g in zip(coeffs, gens))
        if check != target:
            raise InvariantError(f"certificate {tuple(coeffs)} re-expands to {check}, not {target}")
        return DeriveResult("certified", tuple(coeffs), gens, target)
    if snf(span_matrix(gen_vecs, len(tvec))).in_rational_span(tvec):
        return DeriveResult("rational_only", None, gens, target)
    return DeriveResult("not_in_span", None, gens, target)


class RelationRow(NamedTuple):
    """A stable-model state of a catalogue model and the relation the paper
    prints for it.  The paper prints every row with d >= 0; a state with
    d < 0 lists our (V1, V0) as its (V0, V1) and names our q', p'_i as
    q, p_i, which verify_relations reads through RelationSystem.toggled."""

    key: str
    model_id: str
    flops: tuple[str, ...]
    row_d: int
    row_shapes: tuple[str, str]  # the paper's (V0, V1)
    display: str

    def prepare(self) -> SurfaceModel:
        return flop_all(catalogue_model(self.model_id), self.flops)

    def target(self) -> Divisor:
        """The model's relation from the catalogue table; a flop keeps
        point symbols, so every state of the model reads it as it is."""
        return Divisor.of(catalogue_row(self.model_id).relation)

    def oriented(self) -> tuple[tuple[str, str], int, RelationSystem, Divisor]:
        """The state's shapes (V0, V1), d, system and target in the paper's
        orientation, d >= 0: a state with d < 0 is read as the pair with V0
        and V1 exchanged, so its shapes reverse and its d, system and target
        are -d, the toggled system and the table relation renamed."""
        m = self.prepare()
        shapes = (surface_name(m, 0), surface_name(m, 1))
        system, target = imposed_relations(m), self.target()
        if m.d < 0:
            return shapes[::-1], -m.d, system.toggled(), _toggled(target)
        return shapes, m.d, system, target


def relation_rows() -> tuple[RelationRow, ...]:
    """The eleven catalogued point relations, one per stable-model state:
    key, model id, flops, the paper's d and (V0, V1), and the relation as
    the paper prints it."""
    return (
        RelationRow("E8E8-d0", "E8E8", ("e'10",), 0, ("Bl9P2", "Bl9P2"),
                    "27q = 3(p1+..+p8) + 2p9 + p9'"),
        RelationRow("E8E8-d1", "E8E8", (), 1, ("Bl10P2", "Bl8P2 (dP1)"),
                    "27q = 3(p1+..+p8) + 2p9 + p10"),
        RelationRow("E8D9", "E8D9", (), 1, ("Bl10P2", "Bl8P2 (dP1)"),
                    "21q = 3p1 + 2(p2+..+p10)"),
        RelationRow("E7E7A3", "E7E7A3", (), 2, ("Bl11P2", "Bl7P2 (dP2)"),
                    "18q = 2(p1+..+p7) + p8+..+p11"),
        RelationRow("A11E6-d3", "A11E6", (), 3, ("Bl12P2", "Bl6P2 (dP3)"),
                    "12q = p1+..+p12"),
        RelationRow("A11E6-d9", "A11E6", tuple(f"e{i}" for i in range(1, 13)), 9,
                    ("Bl18P2", "P2"), "12q = p1+..+p12"),
        RelationRow("D17", "D17", (), 9, ("Bl18P2", "P2"),
                    "45q = 11p1 + 2(p2+..+p18)"),
        RelationRow("D16", "D16", (), 8, ("Bl17P2", "P1xP1"),
                    "63q = 15p1 + 3(p2+..+p17)"),
        RelationRow("D12D5", "D12D5", (), 4, ("Bl13P2", "Bl5P2 (dP4)"),
                    "15q = 3p1 + p2+..+p13"),
        RelationRow("D8D8", "D8D8", (), 0, ("Bl9P2", "Bl9P2"),
                    "12q' + p1 = 3q + 2p1' + p2'+..+p9'"),
        RelationRow("A15", "A15", (), 8, ("Bl16(P1xP1)", "P1xP1"),
                    "16q = p1+..+p16"),
    )


def verify_relations() -> dict:
    """Derive all eleven catalogued relations; report certificates.

    Each row is checked in its stable-model state (its flops applied) and
    reported in the paper's orientation, d >= 0, as `RelationRow.oriented`
    reads it.  The target must be an exact integer combination of {R_h,
    R_xi} plus the model's auxiliaries, and derive() re-expands each
    certificate, raising InvariantError unless it gives the target.
    """
    results = {}
    all_pass = True
    for row in relation_rows():
        shapes, d, system, target = row.oriented()
        shape_ok = shapes == row.row_shapes and d == row.row_d
        res = derive(system, target)
        ok = shape_ok and res.certified
        all_pass &= ok
        results[row.key] = {
            "ok": ok,
            "relation": row.display,
            "shapes": list(shapes),
            "d": d,
            "certificate": list(res.coefficients) if res.coefficients else None,
            "generators": [str(g) for g in system.generators()],
            "status": res.status,
        }
    return {"suite": "point relations", "pass": all_pass, "rows": results}
