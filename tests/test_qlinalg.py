import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from cubeflags.errors import CapacityError, DimensionMismatchError
from cubeflags.qlinalg import (
    contains,
    contains_subspace,
    coset_key,
    cube_points,
    ones,
    scaled_basis,
    span,
    subspace_intersect,
    subspace_sum,
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
    assert cube_points(span([], 3)) == [(0, 0, 0)]


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
        cube_points(span([], 25))


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


def test_scaled_basis_keys_separate_cosets():
    # L v - sum_i v[p_i] B_i, for the basis rows B_i scaled to the common
    # lead L, agree for u and v iff u and v share a coset, i.e. iff their
    # coset keys agree; the key is zero at every pivot
    rnd = random.Random(7)
    for _ in range(200):
        k = rnd.randint(1, 6)
        W = _random_rational_subspace(rnd, k)
        L, rows = scaled_basis(W)
        assert all(row[p] == L for row, p in zip(rows, W.pivots))
        u = _random_int_vector(rnd, k)
        w = rnd.choice(W.basis) if W.basis else (0,) * k
        vecs = (u, _random_int_vector(rnd, k), tuple(a + 3 * b for a, b in zip(u, w)))
        keys = []
        for v in vecs:
            key = [L * x for x in v]
            for row, p in zip(rows, W.pivots):
                key = [a - v[p] * b for a, b in zip(key, row)]
            assert all(key[p] == 0 for p in W.pivots)
            keys.append(key)
        for v, key in zip(vecs[1:], keys[1:]):
            assert (key == keys[0]) == (coset_key(W, v) == coset_key(W, u))


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


def _canonical_row(row):
    # content 1 and positive lead, the form Subspace.basis rows take
    den = lcm(*(Fraction(x).denominator for x in row))
    nums = [int(Fraction(x) * den) for x in row]
    g = gcd(*nums)
    lead = next(n for n in nums if n)
    return tuple(n // (g if lead > 0 else -g) for n in nums)


def _fraction_rref(rows):
    # the Fraction elimination that span used before integer elimination
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        sel = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        piv = mat[rank][col]
        mat[rank] = [x / piv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return tuple(_canonical_row(r) for r in mat[:rank])


def _oracle_generators(rnd, k):
    # ints, big ints, Fractions or a mix of them (with zeros and dependent
    # rows), 0/1 rows with duplicates and zero rows, or no rows at all
    kind = rnd.choice(("int", "big", "fraction", "mixed", "cube", "empty"))
    if kind == "empty":
        return []
    count = rnd.randint(1, k + 3)
    if kind == "cube":
        rows = [tuple(rnd.randint(0, 1) for _ in range(k)) for _ in range(count)]
        rows += [rnd.choice(rows) for _ in range(rnd.randint(0, 3))] + [(0,) * k] * rnd.randint(0, 2)
        rnd.shuffle(rows)
        return rows
    draws = {
        "int": lambda: rnd.randint(-5, 5),
        "big": lambda: rnd.randint(-(10**30), 10**30),
        "fraction": lambda: Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)),
    }
    kinds = list(draws) if kind == "mixed" else [kind]
    density = rnd.choice((0.3, 0.7, 1.0))
    rows = [
        tuple(draws[rnd.choice(kinds)]() if rnd.random() < density else 0 for _ in range(k))
        for _ in range(count)
    ]
    for _ in range(rnd.randint(0, 2)):
        a, b = rnd.choice(rows), rnd.choice(rows)
        f = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) if kind != "int" else rnd.randint(-4, 4)
        rows.insert(rnd.randint(0, len(rows)), tuple(x + f * y for x, y in zip(a, b)))
    return rows


def _oracle_cases(seed, count):
    rnd = random.Random(seed)
    for _ in range(count):
        k = rnd.randint(1, 16)
        yield rnd, k, _oracle_generators(rnd, k)


def test_span_matches_fraction_rref_oracle():
    for _, k, gens in _oracle_cases(20261018, 400):
        W = span(gens, k)
        assert W.ambient_dim == k
        assert W.basis == _fraction_rref(gens)
        assert all(type(x) is int for row in W.basis for x in row)


def _sympy_rref(rows):
    # (canonical basis, pivot columns) from sympy; callers skip without sympy
    import sympy

    if not rows:
        return (), ()
    reduced, pivots = sympy.Matrix([[Fraction(x) for x in r] for r in rows]).rref()
    rats = [[Fraction(int(x.p), int(x.q)) for x in reduced.row(i)] for i in range(len(pivots))]
    return tuple(_canonical_row(r) for r in rats), tuple(pivots)


def _sympy_rank(rows):
    import sympy

    return sympy.Matrix([list(r) for r in rows]).rank() if rows else 0


def _sympy_intersection(W1, W2):
    # x = B1^T a = B2^T b for each nullspace vector (a, b) of [B1^T | -B2^T]
    import sympy

    if not W1.basis or not W2.basis:
        return []
    B1, B2 = sympy.Matrix(W1.basis), sympy.Matrix(W2.basis)
    null = sympy.Matrix.hstack(B1.T, -B2.T).nullspace()
    return [list(B1.T * v[: W1.dim, :]) for v in null]


def test_span_sum_intersect_and_pivots_match_sympy():
    pytest.importorskip("sympy")
    for rnd, k, gens in _oracle_cases(20261019, 120):
        W = span(gens, k)
        assert (W.basis, W.pivots) == _sympy_rref(gens)
        # a second space sharing some generators, so intersections are not trivial
        shared = rnd.sample(gens, rnd.randint(0, len(gens)))
        W2 = span(shared + _oracle_generators(rnd, k)[: rnd.randint(0, k // 2)], k)
        total = subspace_sum(W, W2)
        assert total.basis == _sympy_rref(list(W.basis) + list(W2.basis))[0]
        meet = subspace_intersect(W, W2)
        expected = _sympy_intersection(W, W2)
        assert meet.dim == len(expected) == W.dim + W2.dim - total.dim
        assert _sympy_rank(list(meet.basis) + expected) == meet.dim
        assert meet.pivots == _sympy_rref(list(meet.basis))[1]
