"""Flags of rational subspaces on {0,1}^k and their cell/genotype structure.

A flag is a nested chain <1> = V_0 <= V_1 <= ... <= V_r of subspaces of Q^k,
each spanned by the all-ones vector together with cube vectors.  Intersecting
the cosets of V_i with the cube partitions {0,1}^k into "cells"; cells at
consecutive levels form a tree.  For the binary family (k = 2^r, coordinates
indexed by subsets of [r]) a cell at level i is classified up to tree
isomorphism by its genotype: the set of positions A subset [i] at which its
i-blocks are constant, encoded as a 2^i-bit mask via A -> sum(2^(a-1)).

Cube points are tuples of 0/1 ints; coordinates are ordered by the reverse
binary order f(S) = sum(2^(r-s) for s in S), so printed strings reproduce the
block structure directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional, Sequence

import numpy as np

from . import qlinalg
from .errors import (
    CapacityError,
    DimensionMismatchError,
    EnumerationLimitError,
    InvalidChildError,
)
from .qlinalg import Subspace, contains, contains_subspace, cube_points, ones, span

MAX_FLAG_ORDER = 4
MAX_CELL_AMBIENT_DIM = 16
MAX_GENOTYPE_LEVEL = 24
SUBFLAG_SPACE_CAP = 10**6

CubePoint = tuple


def subset_index(subset: frozenset, r: int) -> int:
    """Coordinate position of S inside Q^{P[r]}: the reverse binary order."""
    return sum(1 << (r - s) for s in subset)


def all_subsets(r: int) -> list[frozenset]:
    """Subsets of [r] = {1..r}, listed in reverse binary coordinate order."""
    out: list[frozenset] = [frozenset()] * (1 << r)
    for bits in range(1 << r):
        s = frozenset(i for i in range(1, r + 1) if bits & (1 << (r - i)))
        out[bits] = s
    return out


def point_to_string(p: Sequence[int]) -> str:
    return "".join(str(int(x)) for x in p)


def string_to_point(s: str) -> tuple[int, ...]:
    if any(ch not in "01" for ch in s):
        raise ValueError(f"not a 0/1 string: {s!r}")
    return tuple(int(ch) for ch in s)


# ---------------------------------------------------------------------------
# Genotypes


@dataclass(frozen=True)
class Genotype:
    """Positions of constant blocks of a binary-flag cell, as a bitmask.

    A level-i genotype is a subset g of the power set P[i]; the subset
    A <= [i] occupies mask bit sum(2^(a-1) for a in A).  With this indexing
    the consolidation g* is a single AND of the mask's low and high halves.
    """

    level: int
    mask: int

    def __post_init__(self):
        if self.level > MAX_GENOTYPE_LEVEL:
            raise CapacityError(f"genotype level {self.level} > {MAX_GENOTYPE_LEVEL}")
        if not 0 <= self.mask < (1 << (1 << self.level)):
            raise ValueError("mask out of range for level")

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def subsets(self) -> list[frozenset]:
        """The members A <= [i] of this genotype."""
        out = []
        for n in range(1 << self.level):
            if self.mask >> n & 1:
                out.append(frozenset(a for a in range(1, self.level + 1) if n >> (a - 1) & 1))
        return out

    @staticmethod
    def from_subsets(level: int, subsets: Sequence[frozenset]) -> "Genotype":
        mask = 0
        for a_set in subsets:
            mask |= 1 << sum(1 << (a - 1) for a in a_set)
        return Genotype(level, mask)

    @staticmethod
    def full(level: int) -> "Genotype":
        return Genotype(level, (1 << (1 << level)) - 1)


def consolidate(g: Genotype) -> Genotype:
    """g* = {A <= [i-1] : A in g and A + {i} in g}; low-half AND high-half."""
    if g.level == 0:
        return Genotype(0, 0)
    half = 1 << (g.level - 1)
    low = g.mask & ((1 << half) - 1)
    return Genotype(g.level - 1, low & (g.mask >> half))


def defects(g: Genotype) -> tuple[int, ...]:
    """The exponent vector (D^1(g), ..., D^{i+1}(g)) of the product formula.

    D^m(g) = |g^(m-1)| - 2 |g^(m)| where g^(m) is the m-fold consolidation;
    every entry is >= 0, and D^{i+1}(g) = 1 iff g = P[i].
    """
    out = []
    cur = g
    for _ in range(g.level + 1):
        nxt = consolidate(cur)
        out.append(cur.size - 2 * nxt.size)
        cur = nxt
    return tuple(out)


def children_with_genotype_count(g: Genotype, g_child: Genotype) -> int:
    """Number of children with genotype g_child of a cell with genotype g."""
    gstar = consolidate(g)
    if g_child.level != g.level - 1 or (g_child.mask & ~gstar.mask) != 0:
        raise InvalidChildError(f"{g_child} is not dominated by the consolidation of {g}")
    return 1 << (g.size - gstar.size - g_child.size)


def children_count(g: Genotype) -> int:
    """Total number of children: 2^(|g|-2|g*|) 3^(|g*|)."""
    gstar = consolidate(g)
    return (1 << (g.size - 2 * gstar.size)) * 3**gstar.size


def cells_with_genotype_count(r: int, g: Genotype) -> int:
    """Number of level-i cells of the order-r binary flag with genotype g."""
    i = g.level
    return (2 ** (2 ** (r - i)) - 2) ** ((1 << i) - g.size)


# ---------------------------------------------------------------------------
# Flags


@dataclass(frozen=True)
class Flag:
    """A nested chain <1> = V_0 <= ... <= V_r of subspaces of Q^k."""

    ambient_dim: int
    spaces: tuple[Subspace, ...]
    kind: str  # "binary" | "maier_tenenbaum" | "custom"
    nondegenerate: bool

    @property
    def order(self) -> int:
        return len(self.spaces) - 1

    def dims(self) -> tuple[int, ...]:
        return tuple(W.dim for W in self.spaces)

    def __repr__(self):
        return f"Flag(kind={self.kind}, k={self.ambient_dim}, dims={self.dims()})"


def _is_nondegenerate(top: Subspace) -> bool:
    # degenerate iff V_r lies inside some hyperplane {x_i = x_j}
    k = top.ambient_dim
    for i in range(k):
        for j in range(i + 1, k):
            if all(row[i] == row[j] for row in top.basis):
                return False
    return True


def make_flag(spaces: Sequence[Subspace], kind: str, check: bool = True) -> Flag:
    """Assemble and validate a flag from its chain of spaces.

    Checks V_0 = <1>, nesting, and (for check=True) that k is within the
    cell enumeration guard and every V_i is spanned by cube vectors together
    with the all-ones vector.
    """
    spaces = tuple(spaces)
    k = spaces[0].ambient_dim
    if spaces[0] != span([ones(k)]):
        raise ValueError("V_0 must be the line spanned by the all-ones vector")
    for lo, hi in zip(spaces, spaces[1:]):
        if lo.ambient_dim != k or hi.ambient_dim != k:
            raise DimensionMismatchError("all spaces must share one ambient dimension")
        if not contains_subspace(hi, lo):
            raise ValueError("flag spaces are not nested")
    if check:
        if k > MAX_CELL_AMBIENT_DIM:
            raise CapacityError(f"cell enumeration guard: ambient dim {k} > {MAX_CELL_AMBIENT_DIM}")
        for W in spaces[1:]:
            if not _spanned_by_cube_points(W):
                raise ValueError("flag space is not spanned by cube vectors and the all-ones vector")
    return Flag(k, spaces, kind, _is_nondegenerate(spaces[-1]))


def _spanned_by_cube_points(W: Subspace) -> bool:
    """Is W spanned by 1 and its cube points?  The walk adds each cube point
    that leaves the span of 1 and those added before it, and stops once that
    span is W.

    The walk goes by popcount (ties in sorted order), so unit vectors and other
    sparse points come first; in sorted order 10...0 follows half the cube."""
    k = W.ambient_dim
    current = span([ones(k)])
    for p in sorted(cube_points(W), key=sum):
        if current == W:
            break
        if not contains(current, p):
            current = span(list(current.basis) + [p], k)
    return current == W


def _check_order(r: int) -> None:
    # an order below 1 is a bad input; one past the cap is a size guard
    if r < 1:
        raise ValueError(f"flag order must be >= 1, got {r}")
    if r > MAX_FLAG_ORDER:
        raise CapacityError(f"flag order {r} > {MAX_FLAG_ORDER}")


def binary_flag(r: int) -> Flag:
    """The order-r flag on Q^{P[r]} with V_i = {x : x_S = x_{S/\\[i]}}.

    dim(V_i) = 2^i and V_r is the whole space, so the flag is nondegenerate.
    """
    _check_order(r)
    k = 1 << r
    subsets = all_subsets(r)
    spaces = [span([ones(k)])]
    for i in range(1, r + 1):
        gens = []
        for a_bits in range(1 << i):
            a_set = frozenset(a for a in range(1, i + 1) if a_bits >> (a - 1) & 1)
            vec = [1 if s & frozenset(range(1, i + 1)) == a_set else 0 for s in subsets]
            gens.append(tuple(vec))
        spaces.append(span(gens, k))
    return make_flag(spaces, "binary", check=False)


def mt_flag(r: int) -> Flag:
    """The order-r flag with V_i = span(1, w^1, ..., w^i), w^j_S = [j in S].

    dim(V_i) = i + 1; the top cell V_r /\\ {0,1}^k is {0, 1, w^j, 1-w^j}.
    """
    _check_order(r)
    k = 1 << r
    subsets = all_subsets(r)
    omega = [tuple(1 if j in s else 0 for s in subsets) for j in range(1, r + 1)]
    spaces = [span([ones(k)])]
    for i in range(1, r + 1):
        spaces.append(span([ones(k)] + omega[:i], k))
    return make_flag(spaces, "maier_tenenbaum", check=False)


# ---------------------------------------------------------------------------
# Cells and the cell tree


@dataclass(frozen=True)
class Cell:
    """Intersection of one V_i-coset with {0,1}^k."""

    level: int
    members: tuple[tuple[int, ...], ...]  # sorted cube points
    genotype: Optional[Genotype]  # binary flags only

    @property
    def size(self) -> int:
        return len(self.members)

    def __repr__(self):
        pts = " ".join(point_to_string(p) for p in self.members[:4])
        more = "..." if len(self.members) > 4 else ""
        return f"Cell(level={self.level}, size={self.size}, [{pts}{more}])"


def _genotype_of_members(members: Sequence[tuple[int, ...]], level: int, r: int) -> Genotype:
    # Block A at level i occupies the contiguous coordinate chunk with index
    # sum(2^(i-a) for a in A); the genotype mask bit for A is sum(2^(a-1)),
    # i.e. the i-bit reversal of the chunk index.
    p = members[0]
    width = 1 << (r - level)
    mask = 0
    for chunk in range(1 << level):
        block = p[chunk * width : (chunk + 1) * width]
        if all(x == block[0] for x in block):
            bit = 0
            for a in range(1, level + 1):
                if chunk >> (level - a) & 1:
                    bit |= 1 << (a - 1)
            mask |= 1 << bit
    return Genotype(level, mask)


def _coset_keys(W: Subspace, rows: np.ndarray) -> np.ndarray:
    """L p - p[pivots] B for each 0/1 point row p, (L, B) = scaled_basis(W):
    L times p reduced modulo W, linear in p with kernel W and zero at W's
    pivots.  A W whose keys could overflow int64 is refused."""
    k = W.ambient_dim
    L, basis = qlinalg.scaled_basis(W)
    # |key_c| <= k * max(L, max|B|) for a 0/1 point p, and int64 must hold it exactly
    if k * max([L] + [abs(x) for row in basis for x in row]) >= 1 << 62:
        raise CapacityError("coset key guard: keys overflow int64")
    B = np.array(basis, dtype=np.int64).reshape(W.dim, k)
    return L * rows - rows[:, W.pivots] @ B


def _first_ids(keys: np.ndarray) -> np.ndarray:
    """The id of each key row, equal rows sharing one, numbered by first occurrence."""
    keys = np.ascontiguousarray(keys)
    first: dict = {}
    # one opaque row of bytes per key, read back as bytes
    items = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).reshape(-1).tolist()
    return np.array([first.setdefault(key, len(first)) for key in items], dtype=np.intp)


def coset_ids(W: Subspace, rows: np.ndarray) -> np.ndarray:
    """The W-coset id of each 0/1 point row, the cosets numbered 0, 1, 2, ...
    by first occurrence, so by least member when the rows are sorted.

    Two points share a coset iff their `_coset_keys` rows are equal; a W
    whose keys could overflow int64 is refused with CapacityError.
    """
    return _first_ids(_coset_keys(W, rows))


def genotype_of(cell: Cell) -> Genotype:
    if cell.genotype is None:
        raise ValueError("genotype is defined only for cells of binary flags")
    return cell.genotype


@dataclass(frozen=True)
class CellTree:
    """The cells of a flag over some cube points, with parent/child links
    between adjacent levels."""

    flag: Flag
    levels: tuple[tuple[Cell, ...], ...]  # levels[i] = cells at level i
    child_ids: tuple[tuple[tuple[int, ...], ...], ...]  # child_ids[i][c] at level i-1

    def children(self, level: int, idx: int) -> tuple[Cell, ...]:
        return tuple(self.levels[level - 1][j] for j in self.child_ids[level][idx])

    def gamma(self, level: int) -> Cell:
        """The cell at the given level containing the origin: the first, as
        the origin is the least cube point and cells are sorted by least member."""
        return self.levels[level][0]


def _groups(ids: np.ndarray, items: Sequence) -> list[tuple]:
    """items grouped by their ids 0, 1, 2, ..., in order within each group."""
    ordered = [items[j] for j in np.argsort(ids, kind="stable").tolist()]
    ends = np.cumsum(np.bincount(ids)).tolist()
    return [tuple(ordered[a:b]) for a, b in zip([0] + ends, ends)]


@lru_cache(maxsize=32)
def cell_tree(flag: Flag, points: Optional[tuple[CubePoint, ...]] = None) -> CellTree:
    """The cells of every level over the given sorted cube points (all of
    {0,1}^k when None), each the points of one V_i-coset.

    Levels are sorted by least member, and a level-(i-1) cell's parent is
    the level-i cell of its least point; so the tree over a union of cells
    (Gamma_r, say) is the full tree's subtree under them, in the same order.
    """
    k = flag.ambient_dim
    if k > MAX_CELL_AMBIENT_DIM:
        raise CapacityError(f"cell enumeration guard: ambient dim {k} > {MAX_CELL_AMBIENT_DIM}")
    points = tuple(product((0, 1), repeat=k)) if points is None else points
    rows = np.array(points, dtype=np.int64).reshape(-1, k)
    levels, child_ids, least = [], [()], None
    for i, W in enumerate(flag.spaces):
        ids = coset_ids(W, rows)
        if i:
            child_ids.append(tuple(_groups(ids[least], range(len(least)))))
        least = np.unique(ids, return_index=True)[1]
        levels.append(tuple(
            Cell(i, pts, _genotype_of_members(pts, i, flag.order) if flag.kind == "binary" else None)
            for pts in _groups(ids, points)))
    return CellTree(flag, tuple(levels), tuple(child_ids))


# ---------------------------------------------------------------------------
# Automorphisms of binary flags

Permutation = tuple  # sigma maps coordinate positions; (sigma x)_i = x_sigma(i)


def automorphism_generators(flag: Flag) -> list[Permutation]:
    """Block-swap coordinate permutations preserving every V_i (binary only).

    One generator per pair (j, A <= [j-1]); each swaps the adjacent j-blocks
    at positions A and A + {j} of every vector, and is an involution.
    """
    if flag.kind != "binary":
        raise ValueError("automorphism generators are provided for binary flags only")
    r = flag.order
    subsets = all_subsets(r)
    gens = []
    for j in range(1, r + 1):
        for a_bits in range(1 << (j - 1)):
            a_set = frozenset(a for a in range(1, j) if a_bits >> (a - 1) & 1)
            perm = []
            for s in subsets:
                img = s ^ frozenset({j}) if s & frozenset(range(1, j)) == a_set else s
                perm.append(subset_index(img, r))
            gens.append(tuple(perm))
    return gens


def permute_vector(perm: Permutation, v: Sequence) -> tuple:
    return tuple(v[perm[i]] for i in range(len(perm)))


def permute_subspace(perm: Permutation, W: Subspace) -> Subspace:
    return span([permute_vector(perm, row) for row in W.basis], W.ambient_dim)


# ---------------------------------------------------------------------------
# Subflags


@dataclass(frozen=True)
class Subflag:
    """A chain <1> = V'_0 <= ... <= V'_r with V'_i <= V_i for a parent flag."""

    parent: Flag
    spaces: tuple[Subspace, ...]

    def __post_init__(self):
        if len(self.spaces) != len(self.parent.spaces):
            raise ValueError("subflag must have one space per level")
        k = self.parent.ambient_dim
        if self.spaces[0] != span([ones(k)]):
            raise ValueError("V'_0 must be <1>")
        for i, (lo, hi) in enumerate(zip(self.spaces, self.spaces[1:]), start=1):
            if not contains_subspace(hi, lo):
                raise ValueError(f"subflag spaces not nested at level {i}")
        for i, (sub, sup) in enumerate(zip(self.spaces, self.parent.spaces)):
            if not contains_subspace(sup, sub):
                raise ValueError(f"V'_{i} is not contained in V_{i}")

    def dims(self) -> tuple[int, ...]:
        return tuple(W.dim for W in self.spaces)


def basic_subflag(flag: Flag, m: int) -> Subflag:
    """The subflag with V'_i = V_{min(m, i)}."""
    spaces = tuple(flag.spaces[min(m, i)] for i in range(flag.order + 1))
    return Subflag(flag, spaces)


class Universe(tuple):
    """A level universe's spaces; bit j of masks[u] is set iff the j-th cube point of W lies in the u-th."""
    masks: tuple[int, ...]


@lru_cache(maxsize=MAX_FLAG_ORDER)
def level_universe(W: Subspace, cap: int, level: int) -> Universe:
    """All distinct spans of <1> plus a subset of the cube points P of W,
    sorted, with the point set S(U) of each as a bitmask over P.

    Grown breadth first from <1>.  For a space U, the row of p in
    `_coset_keys(U, P)` is L times p reduced modulo U, linear with kernel U:
    it is zero iff p lies in U, and for p, q outside U, U + p = U + q iff
    their rows are parallel.  Grouping the rows by primitive direction (over
    their gcd, signed by the first nonzero entry) gives S(U + p) = S(U) |
    class(p); a universe space is the span of its point set, so `span` runs
    once per new set, <1> included.  The cap guards pathological growth.
    Cached: the enumeration and the invariant scan of one certificate share
    each level's closure; a capped closure raises each time.
    """
    k = W.ambient_dim
    pts = cube_points(W)
    rows = np.array(pts, dtype=np.int64)
    queue = [span([ones(k)])]  # breadth first: it grows as it is walked
    found = {1 | 1 << (len(pts) - 1): queue[0]}  # <1>: 0 and 1, the least and greatest of P
    for U in queue:
        keys = _coset_keys(U, rows)
        dirs = keys // np.maximum(np.gcd.reduce(keys, axis=1), 1)[:, None]
        dirs *= np.sign(dirs[np.arange(len(dirs)), (dirs != 0).argmax(axis=1)])[:, None]
        ids = _first_ids(dirs)  # 0 for the points of U, the origin first; 1, 2, ... for the classes
        first = np.unique(ids, return_index=True)[1]
        members = (ids == np.arange(1, len(first))[:, None]) | (ids == 0)  # row c - 1: S(U) | class c
        for p, bits in zip(first[1:].tolist(), np.packbits(members, axis=1, bitorder="little").tolist()):
            mask = int.from_bytes(bits, "little")
            if mask not in found:
                found[mask] = U2 = span(list(U.basis) + [pts[p]], k)
                if len(found) > cap:
                    raise EnumerationLimitError(level, len(found), cap)
                queue.append(U2)
    masks = sorted(found, key=lambda m: (found[m].dim, found[m].basis))
    universe = Universe(found[m] for m in masks)
    universe.masks = tuple(masks)
    return universe


def subflag_chains(flag: Flag) -> tuple[tuple, list[tuple[int, ...]]]:
    """The level universes, and in ascending lexicographic order every nested
    chain (u_1, ..., u_r) of indices into them, V'_i = universes[i - 1][u_i].

    Level i's universe is every span of <1> together with cube points of V_i,
    so the chains cover all basic subflags.  The lattice of arbitrary rational
    subspaces is infinite, so any certificate built on these chains must state
    this universe.  Each level-i space is in the level-(i+1) universe too, as
    pts(V_i) <= pts(V_{i+1}), where U <= W iff their masks give S(U) <= S(W).
    Each level is capped at SUBFLAG_SPACE_CAP spaces, read at the call.
    """
    universes = tuple(level_universe(flag.spaces[i], SUBFLAG_SPACE_CAP, i) for i in range(1, flag.order + 1))
    chains = [(u,) for u in range(len(universes[0]))]
    for lower, upper in zip(universes, universes[1:]):
        mask_of = dict(zip(upper, upper.masks))
        # above[u]: the ascending indices of the upper spaces that contain lower[u]
        above = [[w for w, m in enumerate(upper.masks) if mask_of[U] & ~m == 0] for U in lower]
        chains = [chain + (w,) for chain in chains for w in above[chain[-1]]]
    return universes, chains


def enumerate_subflags(flag: Flag) -> Iterator[Subflag]:
    """Yield the `Subflag` of each chain of `subflag_chains`, in its order."""
    universes, chains = subflag_chains(flag)
    v0 = span([ones(flag.ambient_dim)])
    for chain in chains:
        yield Subflag(flag, (v0, *(U[u] for U, u in zip(universes, chain))))


SUBFLAG_UNIVERSE_TAG = "spans of the all-ones vector and cube points of each V_i"


# ---------------------------------------------------------------------------
# Text format and JSON dump


def parse_flag_text(text: str) -> Flag:
    """Parse a flag from text: one line per level, 0/1 generator strings.

    Level i's space is the span of the all-ones vector and the generators on
    line i; '#' starts a comment.  Nesting is validated; the kind is "custom".
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty flag specification")
    gens_per_level = [[string_to_point(tok) for tok in line.split()] for line in lines]
    k = len(gens_per_level[0][0])
    for gens in gens_per_level:
        for g in gens:
            if len(g) != k:
                raise ValueError("generator strings have mixed lengths")
    spaces = [span([ones(k)])]
    for gens in gens_per_level:
        spaces.append(span([ones(k)] + gens, k))
    return make_flag(spaces, "custom", check=True)


def tree_json_dict(flag: Flag) -> dict:
    """Cell-tree dump: per level, each cell's genotype mask (hex) and members."""
    tree = cell_tree(flag)
    levels = [
        {"level": i, "cells": [
            {"genotype_mask": format(c.genotype.mask, "x") if c.genotype else None,
             "members": [point_to_string(p) for p in c.members]}
            for c in cells
        ]}
        for i, cells in enumerate(tree.levels)
    ]
    return {
        "schema": "cubeflags.tree.v1",
        "kind": flag.kind,
        "ambient_dim": flag.ambient_dim,
        "order": flag.order,
        "dims": list(flag.dims()),
        "nondegenerate": flag.nondegenerate,
        "levels": levels,
    }
