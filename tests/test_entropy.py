import math
import random
from fractions import Fraction
from itertools import product

import pytest

from cubeflags.entropy import (
    Measure,
    System,
    check_entropy_condition,
    coset_entropy,
    e_value,
    perturb_thresholds,
    submodularity_defect,
)
from cubeflags.flags import Subflag, basic_subflag, binary_flag
from cubeflags.qlinalg import ones, span, subspace_intersect, subspace_sum

LOG3 = math.log(3.0)


def _uniform_measure(points):
    return Measure.uniform(points)


def _worked_k2_system(c2):
    # flag <1> <= Q^2 with the symmetric three-point measure
    flag = binary_flag(1)
    mu = Measure(2, {(0, 0): Fraction(1, 3), (0, 1): Fraction(1, 3), (1, 0): Fraction(1, 3)})
    return System(flag, (1.0, c2), (mu,))


# ---------------------------------------------------------------------------
# coset_entropy


def test_entropy_uniform_vs_zero_subspace():
    for n in (2, 3, 5, 8):
        pts = list(product((0, 1), repeat=4))[:n]
        nu = _uniform_measure(pts)
        H = coset_entropy(nu, span([], 4))
        assert abs(H - math.log(n)) < 1e-12


def test_entropy_three_point_measure():
    nu = Measure(2, {(0, 0): Fraction(1, 3), (0, 1): Fraction(1, 3), (1, 0): Fraction(1, 3)})
    assert abs(coset_entropy(nu, span([ones(2)])) - LOG3) < 1e-14


def test_entropy_zero_when_support_in_subspace():
    W = span([(1, 1, 0, 0), (0, 0, 1, 1)])
    pts = [(0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)]
    nu = _uniform_measure(pts)
    assert coset_entropy(nu, W) == 0.0


def test_measure_validation():
    with pytest.raises(ValueError):
        Measure(2, {(0, 0): 0.5, (0, 1): 0.6})
    with pytest.raises(ValueError):
        Measure(2, {(0, 2): 1.0})
    with pytest.raises(ValueError):
        Measure(2, {(0, 0): Fraction(1, 2)})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measure_rejects_weights_that_are_not_finite(bad):
    # nan passes both `w < 0` and the mass-sum test, so it is refused by name
    with pytest.raises(ValueError, match="not finite"):
        Measure(2, {(0, 0): bad, (1, 1): 1.0})


@pytest.mark.parametrize("bad", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (1.0, -math.inf)])
def test_system_rejects_thresholds_that_are_not_finite(bad):
    mu = Measure(2, {(0, 0): 0.5, (1, 1): 0.5})
    with pytest.raises(ValueError, match="finite"):
        System(binary_flag(1), bad, (mu,))


# ---------------------------------------------------------------------------
# e-values on the worked two-dimensional system


def test_e_value_full_flag_is_dimension_sum():
    sys_ = _worked_k2_system(0.05)
    full = Subflag(sys_.flag, sys_.flag.spaces)
    # the support condition kills every entropy term: e(V) = c_1 * dim(V_1/V_0)
    assert abs(e_value(sys_, full) - 1.0) < 1e-14


def test_e_value_basic0_at_critical_threshold():
    c2 = 1.0 - 1.0 / LOG3
    sys_ = _worked_k2_system(c2)
    b0 = basic_subflag(sys_.flag, 0)
    # (c1 - c2) * log 3 = (1/log 3) * log 3 = 1 = e(full flag): exactly tight
    assert abs(e_value(sys_, b0) - 1.0) < 1e-14


def test_check_entropy_condition_strict_branch():
    c2 = 1.0 - 1.0 / LOG3 - 0.02
    rep = check_entropy_condition(_worked_k2_system(c2))
    assert rep.holds
    expected = (1.0 - c2) * LOG3 - 1.0
    assert abs(rep.min_slack - expected) < 1e-12
    assert rep.min_slack > 0


def test_check_entropy_condition_failing_branch():
    c2 = 1.0 - 1.0 / LOG3 + 0.02
    rep = check_entropy_condition(_worked_k2_system(c2))
    assert not rep.holds
    expected = (1.0 - c2) * LOG3 - 1.0
    assert abs(rep.min_slack - expected) < 1e-12
    argmin_entry = next(e for e in rep.entries if e.id == rep.argmin)
    assert argmin_entry.basic_m == 0


def test_full_flag_slack_is_zero():
    rep = check_entropy_condition(_worked_k2_system(0.03))
    full_entries = [e for e in rep.entries if e.is_full]
    assert len(full_entries) == 1
    assert full_entries[0].slack == 0.0


def test_report_deterministic_on_repeat():
    sys_ = _worked_k2_system(0.03)
    assert check_entropy_condition(sys_) == check_entropy_condition(sys_)


def test_report_serialization():
    rep = check_entropy_condition(_worked_k2_system(0.03))
    doc = rep.to_json_dict()
    assert doc["schema"].startswith("cubeflags.ereport")
    assert len(doc["entries"]) == len(rep.entries)


# ---------------------------------------------------------------------------
# Submodularity


def test_submodularity_trivial_cases():
    nu = _uniform_measure(list(product((0, 1), repeat=3)))
    W = span([(1, 1, 0)], 3)
    assert abs(submodularity_defect(nu, W, W)) < 1e-12
    W2 = span([(1, 1, 0), (0, 0, 1)], 3)
    assert abs(submodularity_defect(nu, W, W2)) < 1e-12  # nested


def _random_measure(rnd, k):
    pts = [tuple(rnd.randint(0, 1) for _ in range(k)) for _ in range(rnd.randint(2, 8))]
    pts = sorted(set(pts))
    w = [rnd.random() + 1e-3 for _ in pts]
    total = sum(w)
    return Measure(k, {p: x / total for p, x in zip(pts, w)})


def _random_cube_subspace(rnd, k):
    gens = [tuple(rnd.randint(0, 1) for _ in range(k)) for _ in range(rnd.randint(1, 3))]
    return span(gens, k)


def test_submodularity_random_sweep():
    rnd = random.Random(99)
    for _ in range(500):
        k = 4
        nu = _random_measure(rnd, k)
        W1 = _random_cube_subspace(rnd, k)
        W2 = _random_cube_subspace(rnd, k)
        assert submodularity_defect(nu, W1, W2) >= -1e-10


def test_chain_rule_random_sweep():
    # H(W') = H(W) + sum over W-cosets of mass * entropy of the restriction
    rnd = random.Random(17)
    from cubeflags.qlinalg import coset_key

    for _ in range(300):
        k = 4
        nu = _random_measure(rnd, k)
        W_small = _random_cube_subspace(rnd, k)
        W = subspace_sum(W_small, _random_cube_subspace(rnd, k))
        lhs = coset_entropy(nu, W_small)
        groups = {}
        for p, w in nu.weights.items():
            groups.setdefault(coset_key(W, p), []).append((p, w))
        rhs = coset_entropy(nu, W)
        for items in groups.values():
            mass = sum(w for _, w in items)
            if mass <= 0:
                continue
            sub = Measure(k, {p: w / mass for p, w in items})
            rhs += mass * coset_entropy(sub, W_small)
        assert abs(lhs - rhs) < 1e-10


def test_gibbs_bound_with_equality_case():
    rnd = random.Random(23)
    for _ in range(300):
        n = rnd.randint(2, 9)
        a = [rnd.uniform(-3, 3) for _ in range(n)]
        p = [rnd.random() + 1e-9 for _ in range(n)]
        total = sum(p)
        p = [x / total for x in p]
        H = -sum(x * math.log(x) for x in p)
        lse = math.log(sum(math.exp(x) for x in a))
        assert H + sum(ai * pi for ai, pi in zip(a, p)) <= lse + 1e-12
        z = sum(math.exp(x) for x in a)
        pstar = [math.exp(x) / z for x in a]
        Hstar = -sum(x * math.log(x) for x in pstar)
        assert abs(Hstar + sum(ai * pi for ai, pi in zip(a, pstar)) - lse) < 1e-10


def test_multinomial_entropy_bound_exact_lhs():
    rnd = random.Random(31)
    for _ in range(200):
        parts = [rnd.randint(0, 12) for _ in range(rnd.randint(2, 5))]
        n = sum(parts)
        if n == 0:
            continue
        lhs = math.factorial(n)
        for m in parts:
            lhs //= math.factorial(m)
        H = -sum((m / n) * math.log(m / n) for m in parts if m)
        assert lhs <= math.exp(H * n) * (1 + 1e-9)


def test_e_value_submodular_on_subflag_pairs():
    from cubeflags.optmeas import optimal_system

    system, _data = optimal_system(binary_flag(2))
    from cubeflags.flags import enumerate_subflags

    subs = list(enumerate_subflags(binary_flag(2)))
    rnd = random.Random(41)
    flag = system.flag
    for _ in range(100):
        a = rnd.choice(subs)
        b = rnd.choice(subs)
        plus = Subflag(flag, tuple(subspace_sum(x, y) for x, y in zip(a.spaces, b.spaces)))
        meet = Subflag(flag, tuple(subspace_intersect(x, y) for x, y in zip(a.spaces, b.spaces)))
        lhs = e_value(system, a) + e_value(system, b)
        rhs = e_value(system, plus) + e_value(system, meet)
        assert lhs >= rhs - 1e-10


def test_e_value_automorphism_invariance():
    from cubeflags.flags import Subflag, automorphism_generators, enumerate_subflags, permute_subspace
    from cubeflags.optmeas import optimal_system

    system, _ = optimal_system(binary_flag(2))
    gens = automorphism_generators(binary_flag(2))
    for sf in enumerate_subflags(binary_flag(2)):
        base = e_value(system, sf)
        for perm in gens:
            image = Subflag(sf.parent, tuple(permute_subspace(perm, W) for W in sf.spaces))
            assert abs(e_value(system, image) - base) < 1e-12


def test_perturb_thresholds():
    c = (1.0, 0.5, 0.2)
    eps = 1e-2
    out = perturb_thresholds(c, eps)
    assert out[0] == 1.0
    assert abs(out[1] - (0.5 - eps / 2)) < 1e-15
    assert abs(out[2] - (0.2 - (eps + eps**2) / 2)) < 1e-15
