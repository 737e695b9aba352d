"""Generalized root systems of the lattice L = h-perp in xi-perp / Z xi.

For each surface pair the rank-17 negative definite lattice L is computed
exactly, its generalized roots are enumerated (primitive v with v^2 < 0
whose reflection preserves L), and the span of the roots is classified as a
sum of ADE root lattices plus <-4> summands via simple roots and the Dynkin
graph.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd, prod
from operator import mul, sub
from typing import NamedTuple, Optional, Sequence

from .exact_lattice import (
    GramForm,
    InvariantError,
    QuotientLattice,
    Vector,
    enumerate_short,
    identity,
    mat,
    matvec,
    snf,
    span_matrix,
)
from .surface_pair import SurfaceModel, catalogue, catalogue_row, check_model_invariants

ScriptL = QuotientLattice  # L = h-perp in xi-perp / Z xi, lifted by its reps


def script_L(m: SurfaceModel) -> QuotientLattice:
    """Compute L for a model; UnclassifiableError unless xi has a coordinate
    +-1 and L has rank ambient - 3."""
    # No definiteness check here: the pair lattice has signature (2, r - 2),
    # one positive class per component, and check_model_invariants requires
    # h^2 = 4, h.xi = 0 and xi^2 = 0, so h-perp is Lorentzian and
    # (h-perp in xi-perp) / Z xi is negative definite.  enumerate_short, the
    # one place that decides definiteness, runs on L in generalized_roots.
    check_model_invariants(m)
    g, xi, r = m.lattice.gram_form, m.xi, m.lattice.rank
    # K = h-perp in xi-perp holds xi, and at a coordinate j where xi is +-1,
    # K = Z xi + (K with v_j = 0); xi pairs to zero with K, so L is that
    # second part: the kernel of G.h, G.xi and e_j* (Cohen, GTM 138, 2.4.3).
    # Every exceptional coordinate of xi = -E0 + E1 is +-1.
    j = next((i for i, x in enumerate(xi) if x in (1, -1)), None)
    if j is None:
        raise UnclassifiableError(f"xi {xi} has no coordinate +-1")
    reps = snf(mat([g.times(m.h), g.times(xi), identity(r)[j]])).kernel()
    if len(reps) != r - 3:
        raise UnclassifiableError(f"L has rank {len(reps)}, expected {r - 3}")
    return QuotientLattice(reps=reps, gram=GramForm(g.sublattice_gram(reps)))


def discriminant_group_order(g: GramForm) -> int:
    """|L^v / L| = |det G| for a negative definite G (ValueError otherwise):
    the last pivot of -G in the pivoted Bareiss elimination that
    `enumerate_short` runs on the same form, which is det(-G) since a
    symmetric permutation does not change the determinant."""
    d, _, _ = g.bareiss
    if len(d) <= g.dim or d[-1] <= 0:
        raise ValueError("form is not negative definite")
    return d[-1]


class GeneralizedRootSet(NamedTuple):
    roots2: tuple[Vector, ...]  # v^2 = -2 (one per antipodal pair)
    roots4: tuple[Vector, ...]  # v^2 = -4 with integral reflection
    other: tuple[Vector, ...]  # any other v^2 with integral reflection
    gram: GramForm

    def all_roots(self) -> tuple[Vector, ...]:
        return self.roots2 + self.roots4 + self.other


def generalized_roots(L: QuotientLattice, bound: int = 4) -> GeneralizedRootSet:
    """All generalized roots with -bound <= v^2 < 0, one per +-pair.

    A primitive v of norm -k is a root (its reflection maps L into itself)
    when k divides every 2(v, e_i), that is when G.v = 0 mod p with
    p = k / gcd(k, 2) (Vinberg).  Norms that share p share one
    `enumerate_short` walk over L with that congruence, at the largest such
    k, and each primitive vector it finds is kept when its own norm has
    modulus p: -1 and -2 come from the p = 1 walk, -3 and -6 from the
    p = 3 walk.  Every walk reads the one Bareiss elimination cached on
    L.gram.  For k <= 7, p is 1 or a prime; bound 8 or more is rejected.
    Norms other than -2 and -4 go to `other`.  When every diagonal entry of
    G is even, L is even and the odd norms are not searched.
    """
    if not 2 <= bound <= 7:
        raise ValueError("bound must be between 2 and 7")
    even = all(row[i] % 2 == 0 for i, row in enumerate(L.gram.gram))
    modulus = {-k: k // gcd(k, 2) for k in range(1, bound + 1) if k % 2 == 0 or not even}
    walks = {p: -norm for norm, p in modulus.items()}  # each p keys its largest k
    roots: dict[int, list[Vector]] = {-2: [], -4: []}
    for p, k in walks.items():
        for v, norm in enumerate_short(L.gram, k, p).items():
            if modulus.get(norm) == p and gcd(*v) == 1:
                roots.setdefault(norm, []).append(v)
    other = sorted(v for norm, vs in roots.items() if norm not in (-2, -4) for v in vs)
    return GeneralizedRootSet(tuple(roots[-2]), tuple(roots[-4]), tuple(other), L.gram)


class LatticeType(NamedTuple):
    """Isomorphism type of Span(Phi): ADE components plus <-4> summands."""

    components: tuple[tuple[str, int], ...]  # e.g. (("E", 8), ("D", 9))
    minus4_count: int
    simple_roots: tuple[tuple[Vector, ...], ...]
    minus4_generators: tuple[Vector, ...]
    roots2_by_component: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.components) + self.minus4_count


_LETTER_ORDER = {"E": 0, "D": 1, "A": 2}


def type_string(t: LatticeType) -> str:
    """Canonical spelling: E, D, A by letter, rank descending, <-4> last."""
    parts = [f"{letter}{rank}" for letter, rank in
             sorted(t.components, key=lambda c: (_LETTER_ORDER[c[0]], -c[1]))]
    parts += ["<-4>"] * t.minus4_count
    return "+".join(parts)


def classical_root_count(letter: str, rank: int) -> int:
    if letter == "A":
        return rank * (rank + 1)
    if letter == "D":
        return 2 * rank * (rank - 1)
    if letter == "E":
        return {6: 72, 7: 126, 8: 240}[rank]
    raise ValueError(letter)


def cartan_determinant(letter: str, rank: int) -> int:
    """det of the Cartan matrix of A_n, D_n or E_n (Bourbaki, Lie Groups VI,
    Plates I-VII)."""
    if letter == "A":
        return rank + 1
    if letter == "D":
        return 4
    if letter == "E":
        return 9 - rank
    raise ValueError(letter)


class UnclassifiableError(InvariantError):
    """L or its generalized roots fail a check of the ADE + <-4> classification."""


def _classify_tree(adj: Sequence[Sequence[int]], comp: Sequence[int]) -> tuple[str, int]:
    """Name the connected Dynkin diagram `comp` of the simple-root graph `adj`."""
    n = len(comp)
    if sum(len(adj[i]) for i in comp) != 2 * (n - 1):
        raise UnclassifiableError("component graph is not a tree")
    if max(len(adj[i]) for i in comp) > 3:
        raise UnclassifiableError("node of degree > 3")
    branch = [i for i in comp if len(adj[i]) == 3]
    if not branch:
        return ("A", n)
    if len(branch) > 1:
        raise UnclassifiableError("more than one branch node")
    b = branch[0]
    arms = []
    for start in adj[b]:
        length = 1
        prev, cur = b, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] != 1:
        raise UnclassifiableError(f"arm profile {arms} is not simply laced ADE")
    if arms[1] == 1:
        return ("D", arms[2] + 3)
    if arms[1] == 2 and arms[2] in (2, 3, 4):
        return ("E", {2: 6, 3: 7, 4: 8}[arms[2]])
    raise UnclassifiableError(f"arm profile {arms} is not simply laced ADE")


def classify(roots: GeneralizedRootSet, seed: int = 0) -> LatticeType:
    """Classify Span(Phi) as ADE components plus orthogonal <-4> summands.

    A random linear functional separates the -2 roots into positives.  In
    one pass by increasing value, a positive a is simple unless a - s is
    positive for a simple s already found (Bourbaki, Lie Groups VI 1.6);
    then a's support in the simple roots is that of a - s plus s.  The
    simple roots keep the order of the positives; each has norm -2 and each
    Dynkin edge pairs to +-1.  Each component is named from its tree shape
    and must hold the classical number of roots whose support stays in it.
    The functional is linear, so a - s is looked up only when value(a) -
    value(s) is the value of some positive root; the test drops no
    candidate, so the simple roots and supports do not depend on it.
    The <-4> generators are the norm -4 roots orthogonal to every simple
    root, pairwise orthogonal.  With the simple roots they have Gram matrix
    -Cartan + -4I, which is nonsingular, so Span(Phi) = Z.gens, of rank
    len(gens), once the other roots lie in Z.gens.  The generators are
    roots, so they lie in L, which is Z^dim in these coordinates.  When
    there are dim of them, det(gens)^2 |disc L| = prod(Cartan dets) 4^k,
    so they have index 1 exactly when that product is |disc L|, the last
    minor of the Bareiss elimination the root search already made; then
    Z.gens is all of L and holds every root, with no solve.  Otherwise
    (fewer than dim generators, or an index greater than 1) one Smith form
    decides whether the other roots lie in Z.gens.  Roots of odd norm are
    rejected first: ADE and <-4> lattices are even, so their sum holds no
    such root.
    """
    if not roots.all_roots():
        raise ValueError("empty root set")
    gram = roots.gram
    odd = [f"{v} (norm {gram.norm(v)})" for v in roots.other if gram.norm(v) % 2]
    if odd:
        raise UnclassifiableError("roots of odd norm do not span ADE + <-4>: " + ", ".join(odd))
    rng = random.Random(seed)
    dim = gram.dim

    positives: list[Vector] = []
    for _ in range(1000):
        functional = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(dim))
        values = [sum(map(mul, functional, v)) for v in roots.roots2]
        if all(val != 0 for val in values):
            positives = [
                v if val > 0 else tuple(-x for x in v)
                for v, val in zip(roots.roots2, values)
            ]
            break
    else:
        raise UnclassifiableError("could not separate roots with a functional")

    pos_set = set(positives)
    pos_values = set(map(abs, values))
    found: list[tuple[int, Vector]] = []  # (value, simple root)
    support: dict[Vector, frozenset[Vector]] = {}
    for va, a in sorted(zip(map(abs, values), positives)):
        for vs, s in found:
            if va - vs in pos_values:
                b = tuple(map(sub, a, s))
                if b in pos_set:
                    support[a] = support[b] | {s}
                    break
        else:
            found.append((va, a))
            support[a] = frozenset((a,))
    simples = sorted((a for _, a in found), key=positives.index)

    # The Dynkin graph (an edge where two simple roots pair nonzero), split
    # into its connected components.
    rows = [matvec(gram.gram, s) for s in simples]
    for s, row in zip(simples, rows):
        norm = sum(map(mul, row, s))
        if norm != -2:
            raise UnclassifiableError(f"simple root {s} has norm {norm}, not -2")
    adj: list[list[int]] = [[] for _ in simples]
    for (i, s), (j, t) in combinations(enumerate(simples), 2):
        p = sum(map(mul, rows[i], t))
        if p not in (-1, 0, 1):
            raise UnclassifiableError(f"simple roots {s} and {t} pair to {p}, not +-1")
        if p:
            adj[i].append(j)
            adj[j].append(i)
    unseen = set(range(len(simples)))
    comps: list[list[int]] = []
    while unseen:
        stack = [unseen.pop()]
        comp = [stack[0]]
        while stack:
            for j in adj[stack.pop()]:
                if j in unseen:
                    unseen.remove(j)
                    stack.append(j)
                    comp.append(j)
        comps.append(sorted(comp))
    simple_roots = tuple(tuple(simples[i] for i in comp) for comp in comps)

    named = [_classify_tree(adj, comp) for comp in comps]
    per_comp_counts = [2 * sum(sup <= members for sup in support.values())
                       for members in map(frozenset, simple_roots)]

    # <-4> part: the roots themselves are the generators; a reduced basis of
    # their span can mix two orthogonal <-4> roots into a vector of norm -8.
    perp4 = [v for v in roots.roots4
             if not any(sum(map(mul, v, row)) for row in rows) and gram.norm(v) == -4]
    if any(gram.pairing(a, b) for a, b in combinations(perp4, 2)):
        raise UnclassifiableError("<-4> generators are not orthogonal")
    # Every -2 root is a sum of simple roots by construction, and gens is
    # independent, so it is a basis of Span(Phi) once it spans the rest:
    # always when it is a basis of L (index 1), else by one Smith form of
    # gens for all the other roots.
    gens = simples + perp4
    targets = roots.roots4 + roots.other
    gram_det = prod(cartan_determinant(*c) for c in named) * 4 ** len(perp4)
    if targets and (len(gens) != dim or gram_det != discriminant_group_order(gram)):
        smith = snf(span_matrix(gens, dim))
        if None in [smith.solve(t) for t in targets]:
            raise UnclassifiableError("Span(Phi) is a proper overlattice of roots + <-4>")

    for (letter, rank_), count in zip(named, per_comp_counts):
        want = classical_root_count(letter, rank_)
        if count != want:
            raise UnclassifiableError(f"{letter}{rank_}: found {count} roots, expected {want}")
    if sum(per_comp_counts) != 2 * len(roots.roots2):
        raise UnclassifiableError("some -2 roots lie in no single Dynkin component")
    return LatticeType(
        components=tuple(named),
        minus4_count=len(perp4),
        simple_roots=simple_roots,
        minus4_generators=tuple(perp4),
        roots2_by_component=tuple(per_comp_counts),
    )


def model_type(m: SurfaceModel, seed: int = 0) -> tuple[LatticeType, GeneralizedRootSet]:
    roots = generalized_roots(script_L(m))
    return classify(roots, seed), roots


def root_report(t: LatticeType, roots: GeneralizedRootSet) -> dict:
    """The type, rank and root counts of a classification, as reports print them."""
    return {
        "type": type_string(t),
        "rank": t.rank,
        "roots2_count": 2 * len(roots.roots2),
        "roots4_count": 2 * len(roots.roots4),
        "odd_norm_members": 2 * len(roots.other),
    }


def verify_classification(models: Optional[dict] = None, seed: int = 0) -> dict:
    """Classify all nine models and compare with the catalogue table's types.

    Returns a report dict with one entry per model: type, root counts, and
    whether any odd-norm generalized roots appeared (none are expected).
    """
    if models is None:
        models = catalogue()
    results = {}
    all_pass = True
    for mid, m in models.items():
        want = catalogue_row(mid).type  # an unknown id fails before any classification
        t, roots = model_type(m, seed)
        report = root_report(t, roots)
        ok = report["type"] == want and not roots.other
        all_pass &= ok
        results[mid] = {**report, "ok": ok,
                        "discriminant_order": discriminant_group_order(roots.gram)}
    return {"suite": "root-lattice classification", "pass": all_pass, "models": results}
