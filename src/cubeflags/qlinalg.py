"""Exact rational linear algebra over Q^k.

Subspaces are stored in a canonical reduced row-echelon form whose rows are
integer vectors with cleared denominators, content 1 and positive leading
entry.  Because the form is canonical, two subspaces are equal iff their
basis tuples are identical, which makes Subspace values usable as dict keys
for deduplication.  Elimination is fraction-free integer arithmetic;
Fractions appear only where non-integer input is normalized to integer rows.
Everything here is exact; no floating point enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import CapacityError, DimensionMismatchError

CUBE_ENUM_MAX_DIM = 24


def _normalize_int_row(row: Sequence[int]) -> tuple[int, ...]:
    """Divide out the content and make the leading entry positive."""
    g = gcd(*row)
    if g == 0:
        return tuple(row)
    lead = next(x for x in row if x != 0)
    if lead < 0:
        g = -g
    return tuple(x // g for x in row)


def _int_row(v: Sequence) -> tuple[list[int], int]:
    """(nums, den) with v == nums/den, den > 0; int entries pass through, others via Fraction."""
    nums = list(v)
    if all(type(x) is int for x in nums):
        return nums, 1
    vec = [Fraction(x) for x in nums]
    den = lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec], den


def _rref(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Reduced row echelon over Q of integer rows, in canonical int form.

    Fraction-free: each step sets row_i <- piv*row_i - f*row_pivot and divides
    out the content, so every entry stays an integer.  After full reduction a
    pivot row is zero at every other pivot column and the rows span the same
    space, so each is a rational multiple of the Fraction RREF row; with
    content 1 and a positive lead it is that row's canonical form.
    """
    mat = [_normalize_int_row(r) for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        sel = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        prow = mat[rank]
        piv = prow[col]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != rank:
                mat[i] = _normalize_int_row([piv * a - f * b for a, b in zip(row, prow)])
        rank += 1
    return mat[:rank]


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

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row: the position of its leading entry."""
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.basis)

    def __repr__(self):
        rows = ", ".join("(" + ",".join(map(str, r)) + ")" for r in self.basis)
        return f"Subspace(Q^{self.ambient_dim}, dim={self.dim}, [{rows}])"


def span(vectors: Iterable[Sequence], ambient_dim: int | None = None) -> Subspace:
    """Canonical Q-span of the given vectors.

    Idempotent: span(basis(span(S))) == span(S).  All vectors must share one
    ambient dimension; pass ambient_dim to span an empty generator list.
    """
    rows = [_int_row(v)[0] for v in vectors]
    dims = {len(r) for r in rows}
    if ambient_dim is not None:
        dims.add(ambient_dim)
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed ambient dimensions: {sorted(dims)}")
    if not dims:
        raise DimensionMismatchError("cannot infer ambient dimension of empty span")
    k = dims.pop()
    return Subspace(k, tuple(_rref(rows)))


def ones(ambient_dim: int) -> tuple[int, ...]:
    """The all-ones vector of Q^k."""
    return (1,) * ambient_dim


def coset_key(W: Subspace, v: Sequence) -> tuple[tuple[int, ...], int]:
    """Canonical representative of the coset v + W, as (int vector, den).

    The representative is v reduced to have zeros at W's pivot coordinates;
    it is identical for two vectors iff they lie in the same W-coset.  All
    arithmetic is integer (projective scaling).
    """
    nums, den = _int_row(v)
    if len(nums) != W.ambient_dim:
        raise DimensionMismatchError(f"expected dimension {W.ambient_dim}, got {len(nums)}")
    for row, p in zip(W.basis, W.pivots):
        if nums[p] == 0:
            continue
        lead = row[p]
        coef = nums[p]
        nums = [n * lead - coef * b for n, b in zip(nums, row)]
        den *= lead
        g = gcd(den, *nums)
        if g > 1:
            nums = [n // g for n in nums]
            den //= g
    return tuple(nums), den


def scaled_basis(W: Subspace) -> tuple[int, list[tuple[int, ...]]]:
    """(L, rows): W's basis rows, each scaled so its leading entry is L, the
    lcm of the leading entries (L = 1 and no rows for W = {0}).

    Because the rows are mutually reduced, L times v reduced modulo W (the
    coset_key representative, zero at W's pivots) is L v - sum_i v[p_i] rows_i;
    and a 0/1 sum of rows is a cube point times L iff each entry is 0 or L.
    """
    leads = [row[p] for row, p in zip(W.basis, W.pivots)]
    L = lcm(*leads)
    return L, [tuple(x * (L // lead) for x in row) for row, lead in zip(W.basis, leads)]


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
    reduced = _rref([b + b for b in W1.basis] + [b + (0,) * k for b in W2.basis])
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
    lead_lcm, scaled = scaled_basis(W)
    # Doubling: each row is added once to every partial sum so far, so each
    # candidate costs one row addition.
    sums = [(0,) * k]
    for row in scaled:
        sums += [tuple(a + x for a, x in zip(s, row)) for s in sums]
    return sorted(
        tuple(1 if a else 0 for a in s) for s in sums if all(a == 0 or a == lead_lcm for a in s)
    )
