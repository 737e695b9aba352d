"""Seeded planted lattices for the `lattices` workload.

Each lattice is an orthogonal sum of ADE blocks plus zero to two <-4>
summands, written in a skewed basis: the block-diagonal Gram matrix G is
replaced by B G B^T, where B is a product of rank - 1 elementary
unimodular moves.  The planted type is known by construction, so the
program's classification can be checked against it.

This module uses only the standard library, so the generator can be
checked on its own and the program receives nothing but Gram matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: |det| of each block's Gram matrix (its discriminant group order).
DISCRIMINANT = {"A": lambda n: n + 1, "D": lambda n: 4, "E": lambda n: {6: 3, 7: 2, 8: 1}[n]}
MINUS4_DISCRIMINANT = 4

#: Ranks of the lattices in one pass cycle through these values.
RANKS = (6, 7, 8, 9, 10, 11, 12)
#: Number of <-4> summands per lattice cycles through these values, so a
#: quarter of every pass has two of them.
MINUS4_COUNTS = (0, 1, 2, 1)

_LETTER_ORDER = {"E": 0, "D": 1, "A": 2}


@dataclass(frozen=True)
class PlantedLattice:
    blocks: tuple[tuple[str, int], ...]  # ADE blocks, e.g. (("E", 8), ("A", 2))
    minus4: int  # number of <-4> summands
    gram: tuple[tuple[int, ...], ...]  # Gram matrix in the skewed basis
    moves: int  # elementary moves in the change of basis

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def type_string(self) -> str:
        """Canonical spelling: E, D, A by letter, rank descending, <-4> last."""
        parts = [f"{letter}{n}" for letter, n in
                 sorted(self.blocks, key=lambda b: (_LETTER_ORDER[b[0]], -b[1]))]
        return "+".join(parts + ["<-4>"] * self.minus4)

    @property
    def skew(self) -> int:
        """Largest absolute Gram entry: 4 in an orthogonal basis."""
        return max(abs(x) for row in self.gram for x in row)

    def discriminant(self) -> int:
        """Product of the block discriminants, |det| of the Gram matrix."""
        d = MINUS4_DISCRIMINANT ** self.minus4
        for letter, n in self.blocks:
            d *= DISCRIMINANT[letter](n)
        return d


def block_edges(letter: str, n: int) -> list[tuple[int, int]]:
    """Edges of the Dynkin diagram, nodes 0..n-1."""
    if letter == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if letter == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if letter == "E":
        return [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    raise ValueError(letter)


def block_diagonal(blocks, minus4: int) -> list[list[int]]:
    """Negative definite Gram matrix: -Cartan blocks, then <-4> summands."""
    rank = sum(n for _, n in blocks) + minus4
    g = [[0] * rank for _ in range(rank)]
    at = 0
    for letter, n in blocks:
        for i in range(n):
            g[at + i][at + i] = -2
        for i, j in block_edges(letter, n):
            g[at + i][at + j] = g[at + j][at + i] = 1
        at += n
    for i in range(minus4):
        g[at + i][at + i] = -4
    return g


def _random_blocks(rng: random.Random, rank: int) -> list[tuple[str, int]]:
    """ADE blocks of total rank `rank`, each kind drawn from what fits."""
    blocks = []
    left = rank
    while left:
        kinds = [("A", n) for n in range(1, left + 1)]
        kinds += [("D", n) for n in range(4, left + 1)]
        kinds += [("E", n) for n in (6, 7, 8) if n <= left]
        letter = rng.choice(sorted({k for k, _ in kinds}))
        letter_kinds = [k for k in kinds if k[0] == letter]
        block = rng.choice(letter_kinds)
        blocks.append(block)
        left -= block[1]
    return blocks


def _skew_basis(rng: random.Random, g: list[list[int]]) -> list[list[int]]:
    """B G B^T for a random unimodular B made of rank - 1 elementary moves.

    The coordinates are shuffled, then taken in a random order, and each
    but the last gets row_i += c * row_j, c = +-1, for a row j still
    untouched.  Every basis vector is e_i or e_i +- e_j, so the skew is
    about the same in every lattice and every seed.
    """
    n = len(g)
    perm = list(range(n))
    rng.shuffle(perm)
    g = [[g[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for k, i in enumerate(order[:-1]):
        j = rng.choice(order[k + 1:])
        c = rng.choice((-1, 1))
        # congruence by E = I + c e_i e_j^T: row i += c row j, column i += c column j
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in g:
            row[i] += c * row[j]
    return g


def planted_types(count: int) -> list[tuple[tuple[tuple[str, int], ...], int]]:
    """`count` (ADE blocks, <-4> count) pairs: rank and <-4> count follow
    fixed cycles and the blocks come from a fixed generator."""
    rng = random.Random("lattices/types")
    types = []
    for i in range(count):
        rank = RANKS[i % len(RANKS)]
        minus4 = MINUS4_COUNTS[i % len(MINUS4_COUNTS)]
        types.append((tuple(_random_blocks(rng, rank - minus4)), minus4))
    return types


def planted_pass(seed: int, pass_index: int, count: int) -> list[PlantedLattice]:
    """The lattices of one pass; the same arguments give the same list.

    Every pass plants the same types, `planted_types(count)`, so passes and
    seeds cost about the same; the seed draws the basis and the order.
    """
    rng = random.Random(f"lattices/{seed}/{pass_index}")
    out = []
    for blocks, minus4 in planted_types(count):
        rank = sum(n for _, n in blocks) + minus4
        gram = _skew_basis(rng, block_diagonal(blocks, minus4))
        out.append(PlantedLattice(blocks, minus4, tuple(map(tuple, gram)), rank - 1))
    rng.shuffle(out)
    return out
