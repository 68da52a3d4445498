import random
from fractions import Fraction

import pytest

from cubeflags.errors import CapacityError, DimensionMismatchError
from cubeflags.qlinalg import (
    contains,
    contains_subspace,
    coset_key,
    coset_matrix,
    cube_points,
    ones,
    span,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
)


def test_span_single_generator():
    W = span([(1, 1)])
    assert W.dim == 1
    assert W.ambient_dim == 2


def test_span_collapses_dependent_generators():
    assert span([(1, 1), (2, 2)]).dim == 1


def test_span_hand_row_reduction():
    # (1,1,1,1), (0,0,1,1), (0,1,0,0): eliminating by hand leaves three
    # independent rows (1,0,0,0) appears from r1 - r3 - r2
    W = span([(1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 0, 0)])
    assert W.dim == 3
    assert contains(W, (1, 0, 0, 0))
    assert not contains(W, (0, 0, 1, 0))


def test_span_mixed_dimensions_rejected():
    with pytest.raises(DimensionMismatchError):
        span([(1, 1), (1, 1, 1)])


def test_span_accepts_fractions():
    W = span([(Fraction(1, 2), Fraction(1, 3))])
    assert W.dim == 1
    # canonical form clears denominators: row should be (3, 2)
    assert W.basis == ((3, 2),)


def test_contains_ones_line():
    W = span([(1, 1)])
    assert contains(W, (1, 1))
    assert contains(W, (Fraction(-7, 3), Fraction(-7, 3)))
    assert not contains(W, (1, 0))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        contains(span([(1, 1)]), (1, 1, 1))


def test_canonicalization_idempotent_and_order_free():
    rnd = random.Random(7)
    for _ in range(50):
        k = rnd.randint(2, 5)
        gens = [tuple(rnd.randint(-3, 3) for _ in range(k)) for _ in range(rnd.randint(1, 5))]
        W = span(gens, k)
        assert span(W.basis, k) == W
        shuffled = gens[:]
        rnd.shuffle(shuffled)
        assert span(shuffled, k) == W


def test_sum_intersect_idempotence():
    W = span([(1, 1, 0), (0, 1, 1)])
    assert subspace_sum(W, W) == W
    assert subspace_intersect(W, W) == W


def test_sum_intersect_axes():
    e1 = span([(1, 0)])
    e2 = span([(0, 1)])
    assert subspace_sum(e1, e2).dim == 2
    assert subspace_intersect(e1, e2).dim == 0


def _random_cube_spanned(rnd, k, extra):
    gens = [ones(k)]
    for _ in range(extra):
        gens.append(tuple(rnd.randint(0, 1) for _ in range(k)))
    return span(gens, k)


def test_dimension_modularity_randomized():
    rnd = random.Random(20260810)
    for _ in range(200):
        k = 5
        W1 = _random_cube_spanned(rnd, k, rnd.randint(0, 3))
        W2 = _random_cube_spanned(rnd, k, rnd.randint(0, 3))
        s = subspace_sum(W1, W2)
        i = subspace_intersect(W1, W2)
        assert W1.dim + W2.dim == s.dim + i.dim
        assert contains_subspace(s, W1) and contains_subspace(s, W2)
        assert contains_subspace(W1, i) and contains_subspace(W2, i)


def test_cube_points_ones_line():
    for k in (2, 3, 5):
        pts = cube_points(span([ones(k)]))
        assert pts == [(0,) * k, (1,) * k]


def test_cube_points_full_space():
    W = span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert len(cube_points(W)) == 16


def test_cube_points_zero_space():
    assert cube_points(zero_subspace(3)) == [(0, 0, 0)]


def test_cube_points_bound_randomized():
    rnd = random.Random(3)
    for _ in range(100):
        k = rnd.randint(2, 6)
        W = _random_cube_spanned(rnd, k, rnd.randint(0, 4))
        pts = cube_points(W)
        assert len(pts) <= 2**W.dim
        assert all(contains(W, p) for p in pts)


def test_cube_points_guard():
    with pytest.raises(CapacityError):
        cube_points(zero_subspace(25))


def test_coset_key_partitions():
    W = span([(1, 1, 0), (0, 0, 1)])
    # two cube points are in the same coset iff their difference is in W
    from itertools import product

    pts = list(product((0, 1), repeat=3))
    for p in pts:
        for q in pts:
            same = coset_key(W, p) == coset_key(W, q)
            diff = tuple(a - b for a, b in zip(p, q))
            assert same == contains(W, diff)


def _random_rational_subspace(rnd, k):
    gens = [[Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)) for _ in range(k)]
            for _ in range(rnd.randint(0, k))]
    return span(gens, k)


def _random_int_vector(rnd, k):
    return tuple(rnd.choice((rnd.randint(-5, 5), rnd.randint(-(10**30), 10**30))) for _ in range(k))


def test_coset_key_int_and_fraction_inputs_agree():
    rnd = random.Random(20261017)
    for _ in range(300):
        k = rnd.randint(1, 6)
        W = _random_rational_subspace(rnd, k)
        v = _random_int_vector(rnd, k)
        nums, den = coset_key(W, v)
        assert (nums, den) == coset_key(W, [Fraction(x) for x in v])
        assert den > 0 and all(type(n) is int for n in nums)


def test_coset_key_int_path_checks_dimension():
    W = span([(1, 1, 0)])
    with pytest.raises(DimensionMismatchError):
        coset_key(W, (1, 0))
    with pytest.raises(DimensionMismatchError):
        coset_key(W, (1, 0, 0, 1))


def test_coset_matrix_separates_cosets():
    # M u == M v iff u and v share a coset, i.e. iff their coset keys agree
    rnd = random.Random(7)
    for _ in range(200):
        k = rnd.randint(1, 6)
        W = _random_rational_subspace(rnd, k)
        mat = coset_matrix(W)
        u = _random_int_vector(rnd, k)
        w = rnd.choice(W.basis) if W.basis else (0,) * k
        for v in (_random_int_vector(rnd, k), tuple(a + 3 * b for a, b in zip(u, w))):
            mu = [sum(m * x for m, x in zip(row, u)) for row in mat]
            mv = [sum(m * x for m, x in zip(row, v)) for row in mat]
            assert (mu == mv) == (coset_key(W, u) == coset_key(W, v))


def test_subspace_equality_is_structural():
    W1 = span([(1, 1), (1, 0)])
    W2 = span([(0, 1), (1, 0)])
    assert W1 == W2
    assert hash(W1) == hash(W2)


def test_cube_points_against_full_membership_scan():
    # the pivot-assignment enumeration must agree with brute-force membership
    from itertools import product

    rnd = random.Random(61)
    for _ in range(60):
        k = rnd.randint(2, 6)
        W = _random_cube_spanned(rnd, k, rnd.randint(0, 4))
        direct = [p for p in product((0, 1), repeat=k) if contains(W, p)]
        assert cube_points(W) == direct
