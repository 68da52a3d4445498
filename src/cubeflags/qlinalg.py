"""Exact rational linear algebra over Q^k.

Subspaces are stored in a canonical reduced row-echelon form whose rows are
integer vectors with cleared denominators, content 1 and positive leading
entry.  Because the form is canonical, two subspaces are equal iff their
basis tuples are identical, which makes Subspace values usable as dict keys
for deduplication.  Everything here is exact; no floating point enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterable, Sequence, Tuple

from .errors import CapacityError, DimensionMismatchError

#: A vector in Q^k: a tuple of exact rationals (ints allowed).
RationalVector = Tuple[Fraction, ...]

CUBE_ENUM_MAX_DIM = 24


def as_vector(entries: Sequence, dim: int | None = None) -> RationalVector:
    """Normalize a sequence of int/Fraction/str entries to a Fraction tuple."""
    vec = tuple(Fraction(x) for x in entries)
    if dim is not None and len(vec) != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {len(vec)}")
    return vec


def _scaled_ints(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """Return (nums, den) with vec == nums/den, den > 0."""
    den = 1
    for x in vec:
        f = Fraction(x)
        den = den * f.denominator // gcd(den, f.denominator)
    nums = [int(Fraction(x) * den) for x in vec]
    return nums, den


def _normalize_int_row(row: Sequence[int]) -> tuple[int, ...]:
    """Divide out the content and make the leading entry positive."""
    g = 0
    for x in row:
        g = gcd(g, x)
    if g == 0:
        return tuple(row)
    lead = next(x for x in row if x != 0)
    if lead < 0:
        g = -g
    return tuple(x // g for x in row)


def _rref(rows: list[list[Fraction]]) -> list[tuple[int, ...]]:
    """Reduced row echelon over Q; output rows scaled to canonical int form."""
    if not rows:
        return []
    k = len(rows[0])
    mat = [list(r) for r in rows]
    pivots: list[tuple[int, int]] = []  # (column, row index in mat)
    rank = 0
    for col in range(k):
        sel = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        piv = mat[rank][col]
        mat[rank] = [x / piv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append((col, rank))
        rank += 1
    out = []
    for _, i in pivots:
        nums, _den = _scaled_ints(mat[i])
        out.append(_normalize_int_row(nums))
    return out


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^k in canonical form.

    basis rows are integer tuples in reduced row-echelon form (pivot-sorted,
    mutually reduced, content 1, positive leading entry).  Do not construct
    directly; use span().
    """

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __post_init__(self):
        for row in self.basis:
            if len(row) != self.ambient_dim:
                raise DimensionMismatchError("basis row length != ambient dim")

    def _pivots(self) -> list[int]:
        return [next(i for i, x in enumerate(row) if x != 0) for row in self.basis]

    def __repr__(self):
        rows = ", ".join("(" + ",".join(map(str, r)) + ")" for r in self.basis)
        return f"Subspace(Q^{self.ambient_dim}, dim={self.dim}, [{rows}])"


def span(vectors: Iterable[Sequence], ambient_dim: int | None = None) -> Subspace:
    """Canonical Q-span of the given vectors.

    Idempotent: span(basis(span(S))) == span(S).  All vectors must share one
    ambient dimension; pass ambient_dim to span an empty generator list.
    """
    rows = [list(as_vector(v)) for v in vectors]
    dims = {len(r) for r in rows}
    if ambient_dim is not None:
        dims.add(ambient_dim)
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed ambient dimensions: {sorted(dims)}")
    if not dims:
        raise DimensionMismatchError("cannot infer ambient dimension of empty span")
    k = dims.pop()
    return Subspace(k, tuple(_rref(rows)))


def zero_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, ())


def ones(ambient_dim: int) -> tuple[int, ...]:
    """The all-ones vector of Q^k."""
    return (1,) * ambient_dim


def coset_key(W: Subspace, v: Sequence) -> tuple[tuple[int, ...], int]:
    """Canonical representative of the coset v + W, as (int vector, den).

    The representative is v reduced to have zeros at W's pivot coordinates;
    it is identical for two vectors iff they lie in the same W-coset.  All
    arithmetic is integer (projective scaling), which keeps this fast on the
    hot paths (coset grouping of cube points).
    """
    nums = list(v)
    if all(type(x) is int for x in nums):
        if len(nums) != W.ambient_dim:
            raise DimensionMismatchError(f"expected dimension {W.ambient_dim}, got {len(nums)}")
        den = 1
    else:
        nums, den = _scaled_ints(as_vector(nums, W.ambient_dim))
    for row in W.basis:
        p = next(i for i, x in enumerate(row) if x != 0)
        if nums[p] == 0:
            continue
        lead = row[p]
        coef = nums[p]
        nums = [n * lead - coef * b for n, b in zip(nums, row)]
        den *= lead
        g = den
        for n in nums:
            g = gcd(g, n)
        if g > 1:
            nums = [n // g for n in nums]
            den //= g
    return tuple(nums), den


def coset_matrix(W: Subspace) -> list[list[int]]:
    """Integer k x k matrix M with M v == L * reduce(v) for every v in Q^k.

    reduce(v) is the coset representative of coset_key (v with zeros at W's
    pivot coordinates) and L the lcm of the basis rows' leading entries.
    Because the basis rows are mutually reduced, reduce(v) is v minus
    (v_p / lead) * row for each row with pivot p, which is linear in v; so
    u and v lie in the same W-coset iff M u == M v.  The rows of M at the
    pivot coordinates are zero.
    """
    k = W.ambient_dim
    pivots = W._pivots()
    leads = [row[p] for row, p in zip(W.basis, pivots)]
    lcm = 1
    for lead in leads:
        lcm = lcm * lead // gcd(lcm, lead)
    mat = [[lcm if c == j else 0 for j in range(k)] for c in range(k)]
    for row, p, lead in zip(W.basis, pivots, leads):
        scale = lcm // lead
        for c in range(k):
            mat[c][p] -= scale * row[c]
    return mat


def contains(W: Subspace, v: Sequence) -> bool:
    """Exact membership test v in W."""
    nums, _den = coset_key(W, v)
    return all(n == 0 for n in nums)


def contains_subspace(W: Subspace, U: Subspace) -> bool:
    """True iff U <= W."""
    if W.ambient_dim != U.ambient_dim:
        raise DimensionMismatchError("ambient dims differ")
    return all(contains(W, row) for row in U.basis)


def subspace_sum(W1: Subspace, W2: Subspace) -> Subspace:
    if W1.ambient_dim != W2.ambient_dim:
        raise DimensionMismatchError("ambient dims differ")
    return span(list(W1.basis) + list(W2.basis), W1.ambient_dim)


def subspace_intersect(W1: Subspace, W2: Subspace) -> Subspace:
    """Exact intersection via the Zassenhaus block construction."""
    if W1.ambient_dim != W2.ambient_dim:
        raise DimensionMismatchError("ambient dims differ")
    k = W1.ambient_dim
    rows: list[list[Fraction]] = []
    for b in W1.basis:
        rows.append([Fraction(x) for x in b] + [Fraction(x) for x in b])
    for b in W2.basis:
        rows.append([Fraction(x) for x in b] + [Fraction(0)] * k)
    reduced = _rref(rows)
    inter_rows = [row[k:] for row in reduced if all(x == 0 for x in row[:k])]
    return span(inter_rows, k)


def cube_points(W: Subspace) -> list[tuple[int, ...]]:
    """All points of W intersect {0,1}^k, sorted.

    Enumerates 2^{dim W} candidates by assigning 0/1 to the pivot coordinate
    set (the projection of W onto its pivot coordinates is bijective), so the
    output count is guaranteed <= 2^{dim W}.
    """
    k = W.ambient_dim
    if k > CUBE_ENUM_MAX_DIM:
        raise CapacityError(f"cube enumeration guard: ambient dim {k} > {CUBE_ENUM_MAX_DIM}")
    d = W.dim
    if d == 0:
        return [(0,) * k]
    leads = [row[next(i for i, x in enumerate(row) if x != 0)] for row in W.basis]
    lcm = 1
    for l in leads:
        lcm = lcm * l // gcd(lcm, l)
    scaled = [tuple(x * (lcm // l) for x in row) for row, l in zip(W.basis, leads)]
    out = []
    for eps in product((0, 1), repeat=d):
        acc = [0] * k
        for e, row in zip(eps, scaled):
            if e:
                acc = [a + x for a, x in zip(acc, row)]
        if all(a == 0 or a == lcm for a in acc):
            out.append(tuple(1 if a else 0 for a in acc))
    out.sort()
    return out
