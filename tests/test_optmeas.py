import math
import random
from itertools import product
from pathlib import Path

import pytest
from conftest import reference_bisect

from cubeflags import entropy, optmeas, qlinalg, rho
from cubeflags import flags as flags_mod
from cubeflags.entropy import (
    TIGHT_BAND,
    Measure,
    System,
    check_entropy_condition,
    coset_entropy,
    e_value,
    perturb_thresholds,
    score_entries,
)
from cubeflags.errors import CapacityError, DegenerateParametersError
from cubeflags.flags import (
    SUBFLAG_SPACE_CAP,
    Flag,
    Subflag,
    all_subsets,
    automorphism_generators,
    binary_flag,
    cell_tree,
    cube_points,
    enumerate_subflags,
    level_universe,
    make_flag,
    mt_flag,
    parse_flag_text,
    permute_vector,
    subflag_chains,
)
from cubeflags.optmeas import (
    certify_system,
    entropy_matrix_genotype,
    optimal_measure,
    optimal_parameters,
)
from cubeflags.qlinalg import Subspace, ones, span
from cubeflags.rho import RhoSolution, gamma_res, solve_flag_rhos, solve_rho_chain, theta

LOG3 = math.log(3.0)
L2 = math.log(2.0)
LE1 = math.log(math.e - 1.0)
KAPPA = (L2 - LE1) / (L2 + 1.0 - LE1)


# ---------------------------------------------------------------------------
# The measure


def test_mu_star_normalized():
    for flag in (binary_flag(2), binary_flag(3), mt_flag(2), mt_flag(3)):
        data = optimal_measure(flag)
        total = sum(data.mu_star.weights.values())
        assert abs(total - 1.0) < 1e-12
        one = (1,) * flag.ambient_dim
        assert data.mu_star.weights[one] == 0.0


def test_gamma_masses_binary():
    # mass of Gamma_m under mu*: e^(-dim(V_r/V_m)) for m >= 1; the level-0
    # cell gets a further 1/3 (its parent splits into three equal children)
    for r in (2, 3):
        data = optimal_measure(binary_flag(r))
        for m in range(1, r + 1):
            expected = math.exp(-(2**r - 2**m))
            assert abs(data.gamma_masses[m] - expected) < 1e-12
        assert abs(data.gamma_masses[0] - math.exp(-(2**r - 2)) / 3.0) < 1e-12


def test_restriction_masses_binary_r2():
    data = optimal_measure(binary_flag(2))
    tree = cell_tree(binary_flag(2))
    gamma1 = set(tree.gamma(1).members)
    mu2 = data.restrictions[1]
    mass = sum(w for p, w in mu2.weights.items() if p in gamma1)
    assert abs(mass - math.exp(-2.0)) < 1e-12


def test_largest_child_property():
    # among children of Gamma_i the restriction mu*_i is maximized at
    # Gamma_{i-1} with value e^(-2^(i-1)), strictly above every other child
    for r in (2, 3):
        flag = binary_flag(r)
        data = optimal_measure(flag)
        tree = cell_tree(flag)
        for i in range(2, r + 1):
            mu_i = data.restrictions[i - 1]
            gi = next(idx for idx, c in enumerate(tree.levels[i]) if c.members[0] == (0,) * flag.ambient_dim)
            masses = []
            for child in tree.children(i, gi):
                masses.append((sum(mu_i.weights.get(p, 0.0) for p in child.members), child))
            best_mass, best_cell = max(masses, key=lambda t: t[0])
            assert best_cell.members[0] == (0,) * flag.ambient_dim
            assert abs(best_mass - math.exp(-(2 ** (i - 1)))) < 1e-12
            for mass, cell in masses:
                if cell is not best_cell:
                    assert mass < best_mass - 1e-12


def test_mt_measure_closed_form():
    r = 3
    data = optimal_measure(mt_flag(r))
    subsets = all_subsets(r)
    w = data.mu_star.weights
    k = 1 << r
    zero = (0,) * k
    one = (1,) * k
    third = math.exp(1 - r) / 3.0
    assert abs(w[zero] - third) < 1e-12
    assert w[one] == 0.0
    for j in range(1, r + 1):
        om = tuple(1 if j in s else 0 for s in subsets)
        om_c = tuple(1 - x for x in om)
        if j == 1:
            assert abs(w[om] - third) < 1e-12
            assert abs(w[om_c] - third) < 1e-12
        else:
            expected = 0.5 * math.exp(j - r) * (1.0 - 1.0 / math.e)
            assert abs(w[om] - expected) < 1e-12
            assert abs(w[om_c] - expected) < 1e-12


def test_mu_star_automorphism_invariance():
    for r in (2, 3):
        flag = binary_flag(r)
        data = optimal_measure(flag)
        one = (1,) * flag.ambient_dim
        for perm in automorphism_generators(flag):
            for p, wgt in data.mu_star.weights.items():
                if p == one or p == (0,) * flag.ambient_dim:
                    continue
                q = permute_vector(perm, p)
                assert abs(data.mu_star.weights[q] - wgt) < 1e-13


# ---------------------------------------------------------------------------
# Entropy matrix


def test_H_diagonal_zero():
    for flag in (binary_flag(2), mt_flag(3)):
        data = optimal_measure(flag)
        H = data.entropy
        r = flag.order
        for j in range(1, r + 1):
            for m in range(j, r + 1):
                assert H[j - 1][m] == 0.0


def test_H_gap_inequalities_binary():
    for r in (2, 3):
        data = optimal_measure(binary_flag(r))
        H = data.entropy
        for m in range(r):
            assert H[m][m] > 2**m
        for i in range(2, r + 1):
            for m in range(1, i):
                assert H[i - 1][m - 1] - H[i - 1][m] < 2 ** (m - 1)


def test_H_genotype_dp_agrees_with_direct():
    for r in (1, 2, 3):
        sol, _ = solve_rho_chain(max(r - 1, 1))
        data = optimal_measure(binary_flag(r), sol)
        H_direct = data.entropy
        H_dp = entropy_matrix_genotype(r, sol)
        for row_a, row_b in zip(H_direct, H_dp):
            for a, b in zip(row_a, row_b):
                assert abs(a - b) < 1e-11


def test_H10_is_log3():
    data = optimal_measure(binary_flag(1))
    H = data.entropy
    assert abs(H[0][0] - LOG3) < 1e-14


# ---------------------------------------------------------------------------
# Optimal parameters


def test_c_star_binary_r1():
    data = optimal_measure(binary_flag(1))
    c = optimal_parameters(data)
    assert c[0] == 1.0
    assert abs(c[1] - (1.0 - 1.0 / LOG3)) < 1e-14


def test_c_star_binary_r2_equals_theta2():
    sol, _ = solve_rho_chain(1)
    data = optimal_measure(binary_flag(2), sol)
    c = optimal_parameters(data)
    assert abs(c[2] - theta(2, sol)) < 1e-12
    assert abs(c[2] - gamma_res([2], sol)) < 1e-12
    assert abs(c[2] - 0.012934) < 1e-6


def test_c_star_binary_r3_equals_theta3():
    sol, _ = solve_rho_chain(2)
    data = optimal_measure(binary_flag(3), sol)
    c = optimal_parameters(data)
    assert abs(c[3] - theta(3, sol)) < 1e-12


def test_c_star_mt_closed_form():
    for r in (2, 3):
        data = optimal_measure(mt_flag(r))
        c = optimal_parameters(data)
        assert abs(c[r] - (1.0 - 1.0 / LOG3) * KAPPA ** (r - 1)) < 1e-12
        assert all(a > b > 0 for a, b in zip(c, c[1:]))


def test_c_star_rescaling_invariance():
    # scaling the provisional seed is equivalent to scaling the solution;
    # solving twice must give the identical rescaled vector
    data = optimal_measure(binary_flag(2))
    c1 = optimal_parameters(data)
    c2 = optimal_parameters(optimal_measure(binary_flag(2)))
    assert c1 == c2
    assert c1[0] == 1.0


def test_degenerate_flag_raises():
    # <1> <= Q^3: a single step whose coset entropy log 7 < dim gap 2
    flag = parse_flag_text("100 010\n")
    data = optimal_measure(flag)
    with pytest.raises(DegenerateParametersError):
        optimal_parameters(data)


# ---------------------------------------------------------------------------
# Certification


def test_certificate_binary_r1_two_subflags():
    system, cert = certify_system(binary_flag(1))
    assert cert["ok"]
    assert len(cert["entropy_report"]["entries"]) == 2
    assert abs(cert["basic_slacks"]["0"]) <= TIGHT_BAND
    assert cert["perturbed_ok"]


def test_certificate_binary_r2():
    system, cert = certify_system(binary_flag(2))
    assert cert["ok"], cert["failures"]
    assert set(cert["basic_slacks"]) == {"0", "1"}
    assert all(abs(s) <= TIGHT_BAND for s in cert["basic_slacks"].values())
    assert cert["nonbasic_min_slack"] > 1e-6
    assert cert["gap_ok"]
    assert cert["invariant_intermediate"]["ok"]
    assert cert["perturbed_ok"]
    assert cert["universe"]


def test_certificate_mt_r2():
    system, cert = certify_system(mt_flag(2))
    assert cert["ok"], cert["failures"]
    assert all(abs(s) <= TIGHT_BAND for s in cert["basic_slacks"].values())
    assert cert["nonbasic_min_slack"] > 1e-6
    assert cert["perturbed_ok"]


def test_binary_r3_basic_equalities_and_standard_slacks():
    # full enumeration of Q^8 subflags is out of reach, but every *standard*
    # subflag (V'_i a member of the chain) is directly checkable: the basic
    # ones must tie with the full flag and all others must sit strictly above
    from itertools import product as iproduct

    from cubeflags.entropy import System, e_value
    from cubeflags.flags import Subflag, basic_subflag

    flag = binary_flag(3)
    sol, _ = solve_rho_chain(2)
    data = optimal_measure(flag, sol)
    c = optimal_parameters(data)
    system = System(flag, c, data.restrictions)
    e_full = sum(c[j - 1] * (2**j - 2 ** (j - 1)) for j in (1, 2, 3))

    for m in range(3):
        slack = e_value(system, basic_subflag(flag, m)) - e_full
        assert abs(slack) < 1e-9, m

    basics = {(0, 0, 0), (1, 1, 1), (1, 2, 2), (1, 2, 3)}
    for j1, j2, j3 in iproduct(range(2), range(3), range(4)):
        if not (j1 <= j2 <= j3):
            continue
        sf = Subflag(flag, tuple(flag.spaces[j] for j in (0, j1, j2, j3)))
        slack = e_value(system, sf) - e_full
        if (j1, j2, j3) in basics:
            assert abs(slack) < 1e-9, (j1, j2, j3)
        else:
            assert slack > 1e-3, (j1, j2, j3, slack)


def test_certificate_degenerate_flag_reports_failure():
    flag = parse_flag_text("100 010\n")
    system, cert = certify_system(flag)
    assert system is None
    assert not cert["ok"]
    assert any("optimal parameters" in f for f in cert["failures"])


def test_certificate_infeasible_perturbation_falls_back():
    # epsilon far above c_{r+1} cannot be applied; the certificate marks it
    # infeasible and substitutes a feasible one rather than failing
    _, cert = certify_system(binary_flag(2), eps_list=(0.9,))
    assert cert["perturbed"]["0.9"]["infeasible"] is True
    feasible = [v for v in cert["perturbed"].values() if v.get("ok") is not None]
    assert feasible and all(v["ok"] for v in feasible)
    assert cert["ok"]


def test_certificate_json_roundtrip():
    import json

    _, cert = certify_system(binary_flag(1))
    text = json.dumps(cert)
    assert json.loads(text)["ok"] is True


MT4_Q12 = Path(__file__).resolve().parents[1] / "perfbench" / "mt4_q12.flag"
CERT_FLAGS = {
    "binary-1": lambda: binary_flag(1),
    "binary-2": lambda: binary_flag(2),
    "mt-2": lambda: mt_flag(2),
    "mt-3": lambda: mt_flag(3),
    "mt-4": lambda: mt_flag(4),
    "mt4_q12": lambda: parse_flag_text(MT4_Q12.read_text()),
}


def _coset_entropy_by_keys(nu, W):
    """coset_entropy with one qlinalg.coset_key per support point: the
    reference for the coset-id kernel."""
    masses = {}
    for p, w in nu.weights.items():
        if w > 0:
            key = qlinalg.coset_key(W, p)
            masses[key] = masses.get(key, 0) + w
    return -math.fsum(float(m) * math.log(m) for m in masses.values() if m > 0)


@pytest.mark.parametrize("name", CERT_FLAGS)
def test_flag_roots_equal_bisection(name, bisect_pairs):
    flag = CERT_FLAGS[name]()
    solve_flag_rhos(flag)
    assert len(bisect_pairs) == flag.order - 1
    assert [p for p in bisect_pairs if p[1] != p[2]] == []


@pytest.mark.parametrize("name", CERT_FLAGS)
def test_coset_entropy_matches_per_point_keys_on_certificate_universes(name):
    flag = CERT_FLAGS[name]()
    universes = subflag_chains(flag)[0]
    for mu, universe in zip(optimal_measure(flag).restrictions, universes):
        assert [coset_entropy(mu, U) for U in universe] == [_coset_entropy_by_keys(mu, U) for U in universe]


def test_coset_entropy_matches_per_point_keys_on_random_spaces():
    rnd = random.Random(1908)
    mu3 = optimal_measure(binary_flag(3)).restrictions[2]
    assert len(mu3.support()) == 255
    for _ in range(2000):
        W = span([tuple(rnd.randint(0, 1) for _ in range(8)) for _ in range(rnd.randint(1, 7))], 8)
        assert coset_entropy(mu3, W) == _coset_entropy_by_keys(mu3, W)
    # exact Fraction masses
    for _ in range(200):
        k = rnd.randint(2, 6)
        pts = rnd.sample(list(product((0, 1), repeat=k)), rnd.randint(1, min(12, 1 << k)))
        nu = Measure.uniform(pts)
        W = span([tuple(rnd.randint(0, 1) for _ in range(k)) for _ in range(rnd.randint(0, k))], k)
        assert coset_entropy(nu, W) == _coset_entropy_by_keys(nu, W)


def test_coset_entropy_refuses_keys_past_int64():
    # the boundary of test_partition_guards_raise_capacity_error
    nu = Measure(2, {(0, 0): 0.5, (0, 1): 0.25, (1, 1): 0.25})
    fits = Subspace(2, ((1, (1 << 61) - 1),))
    assert coset_entropy(nu, fits) == _coset_entropy_by_keys(nu, fits)
    with pytest.raises(CapacityError):
        coset_entropy(nu, Subspace(2, ((1, 1 << 61),)))


@pytest.mark.parametrize("name", CERT_FLAGS)
def test_perturbed_rescore_matches_fresh_check(name):
    # the perturbed re-check re-scores the c* entries; the fresh route builds
    # a System at the perturbed thresholds and enumerates all over again
    flag = CERT_FLAGS[name]()
    eps_list = (1e-3, 1e-4, 1e-5)
    system, cert = certify_system(flag, eps_list=eps_list)
    entries = check_entropy_condition(system).entries
    subflags = list(enumerate_subflags(flag))
    for eps in eps_list:
        c_tilde = perturb_thresholds(system.thresholds, eps)
        if c_tilde[-1] <= 0.0:
            assert cert["perturbed"][str(eps)]["infeasible"]
            continue
        perturbed = System(flag, c_tilde, system.measures)
        fresh = check_entropy_condition(perturbed)
        assert score_entries(c_tilde, flag.dims(), entries) == fresh
        assert cert["perturbed"][str(eps)] == {"min_slack": fresh.min_slack, "ok": fresh.min_slack > 0.0}
        assert [e.e_value for e in fresh.entries] == [e_value(perturbed, sf) for sf in subflags]


@pytest.mark.parametrize(
    "name, entropy_calls", [("binary-2", 20), ("mt-3", 14), ("mt4_q12", 30)]
)
def test_certificate_enumerates_once_and_computes_each_entropy_once(
    monkeypatch, name, entropy_calls
):
    flag = CERT_FLAGS[name]()
    enumerations, entropies = [], []
    real_chains, real_entropy = entropy.subflag_chains, entropy.coset_entropy

    def spy_chains(*args, **kwargs):
        enumerations.append(args[0])
        return real_chains(*args, **kwargs)

    def spy_entropy(nu, W):
        entropies.append((nu, W))
        return real_entropy(nu, W)

    monkeypatch.setattr(entropy, "subflag_chains", spy_chains)
    monkeypatch.setattr(entropy, "coset_entropy", spy_entropy)
    system, cert = certify_system(flag)
    assert cert["ok"] and enumerations == [flag]
    level_of = {id(mu): j for j, mu in enumerate(system.measures, start=1)}
    calls = [(level_of[id(nu)], W) for nu, W in entropies]
    distinct = {(j, sf.spaces[j]) for sf in enumerate_subflags(flag) for j in range(1, flag.order + 1)}
    assert len(calls) == len(set(calls)) == entropy_calls
    assert set(calls) == distinct


def _label_by_spaces(sf):
    """A subflag's label and basic m, by comparing its spaces with each basic chain."""
    parent = sf.parent
    r = parent.order
    for m in range(r + 1):
        if sf.spaces == tuple(parent.spaces[min(m, i)] for i in range(r + 1)):
            return (f"basic({m})" if m < r else "full", m if m < r else None)
    return ("dims=" + ",".join(str(W.dim) for W in sf.spaces), None)


def _uniform_system(flag):
    r = flag.order
    measures = tuple(Measure.uniform(cube_points(V)) for V in flag.spaces[1:])
    return System(flag, tuple((r + 1 - j) / (r + 1) for j in range(r + 1)), measures)


def _sweep_oracle_systems():
    systems = {name: certify_system(make())[0] for name, make in CERT_FLAGS.items()}
    for text in ("0011\n0011\n0011 0101\n", "0011\n0011 0101\n0011 0101\n"):
        systems[text] = _uniform_system(parse_flag_text(text))
    rnd = random.Random(20261019)
    for t in range(12):
        systems[f"random-{t}"] = _uniform_system(_random_flag(rnd))
    # V_1 is not cube-spanned, so neither basic(1) nor the full chain is enumerated
    k = 4
    spaces = (span([ones(k)]), span([ones(k), (1, 2, 0, 0)]), span([ones(k), (1, 2, 0, 0), (1, 0, 0, 0)]))
    systems["missing-basic"] = _uniform_system(Flag(k, spaces, "custom", False))
    return systems


def test_index_chain_sweep_matches_the_subflag_route():
    systems = _sweep_oracle_systems()
    for name, system in systems.items():
        flag = system.flag
        report = check_entropy_condition(system)
        subflags = list(enumerate_subflags(flag))
        assert len(report.entries) == len(subflags), name
        for idx, (entry, sf) in enumerate(zip(report.entries, subflags)):
            label, basic_m = _label_by_spaces(sf)
            entropies = tuple(coset_entropy(mu, W) for mu, W in zip(system.measures, sf.spaces[1:]))
            assert (entry.id, entry.label, entry.basic_m, entry.dims, entry.is_full) == (
                idx, label, basic_m, sf.dims(), sf.spaces == flag.spaces), name
            assert entry.entropies == entropies, name
            assert entry.e_value == e_value(system, sf), name
    # dims (1, 2, 3, 3): basic(2) is the full chain, and the lower m labels it
    entry = check_entropy_condition(systems["0011\n0011 0101\n0011 0101\n"]).entries[11]
    assert (entry.label, entry.is_full) == ("basic(2)", True)
    missing = check_entropy_condition(systems["missing-basic"])
    assert [e.basic_m for e in missing.entries if e.basic_m is not None] == [0]
    assert not any(e.is_full for e in missing.entries)


def test_mt4_q12_sweep_tests_containment_once_per_pair_of_levels(monkeypatch):
    flag = CERT_FLAGS["mt4_q12"]()
    universes = [level_universe(V, SUBFLAG_SPACE_CAP, i) for i, V in enumerate(flag.spaces[1:], 1)]
    tested, validated = [], []
    real_contains, real_post_init = qlinalg.contains_subspace, Subflag.__post_init__

    def spy_contains(W, U):
        tested.append((W, U))
        return real_contains(W, U)

    def spy_post_init(self):
        validated.append(self)
        real_post_init(self)

    for mod in (qlinalg, flags_mod, optmeas, entropy):
        if hasattr(mod, "contains_subspace"):
            monkeypatch.setattr(mod, "contains_subspace", spy_contains)
    monkeypatch.setattr(Subflag, "__post_init__", spy_post_init)
    _, cert = certify_system(flag)
    assert cert["ok"] and len(cert["entropy_report"]["entries"]) == 120
    assert len(tested) <= sum(len(a) * len(b) for a, b in zip(universes, universes[1:])) == 168
    assert validated == []


def test_measures_json():
    data = optimal_measure(binary_flag(2))
    doc = optmeas.measures_json_dict(data)
    assert doc["schema"].startswith("cubeflags.measures")
    assert abs(sum(doc["mu_star"].values()) - 1.0) < 1e-12
    assert len(doc["c_star"]) == 3


# ---------------------------------------------------------------------------
# The f recursion on the origin's subtree against the all-cells route


def _gamma_by_scan(tree, level):
    zero = (0,) * tree.flag.ambient_dim
    return next(c for c in tree.levels[level] if c.members[0] == zero)


def _f_by_memo_walk(tree, cell, rhos):
    """f^C by a memoised walk down from the cell, the cell found by a scan."""
    idx = tree.levels[cell.level].index(cell)
    memo = {}

    def rec(level, idx):
        if level == 0:
            return 1.0
        if (level, idx) not in memo:
            rho = 0.0 if level == 1 else float(rhos[level - 2])
            memo[(level, idx)] = math.fsum(
                rec(level - 1, j) ** rho for j in tree.child_ids[level][idx])
        return memo[(level, idx)]

    return rec(cell.level, idx)


def _solve_flag_rhos_by_walks(flag):
    """Each bisection step walks Gamma_{j+1}'s subtree all over again."""
    tree = cell_tree(flag)
    rhos, residuals = [], []
    for j in range(1, flag.order):
        d = flag.spaces[j + 1].dim - flag.spaces[j].dim
        log_fj = math.log(_f_by_memo_walk(tree, _gamma_by_scan(tree, j), rhos))

        def phi(x):
            f_next = _f_by_memo_walk(tree, _gamma_by_scan(tree, j + 1), rhos + [x])
            return math.log(f_next) - x * log_fj - d

        x = reference_bisect(phi, 0.0, 1.0, rho.BISECT_WIDTH, f"equation {j}")
        rhos.append(x)
        residuals.append(abs(phi(x)))
    return RhoSolution(tuple(rhos), tuple(residuals))


def _optimal_measure_all_cells(flag, sol):
    """f on every cell of the cube, then mass pushed over every cell."""
    tree = cell_tree(flag)
    r, rhos, k = flag.order, sol.rhos, flag.ambient_dim
    f_val = {(0, idx): 1.0 for idx in range(len(tree.levels[0]))}
    for level in range(1, r + 1):
        x = 0.0 if level == 1 else rhos[level - 2]
        for idx in range(len(tree.levels[level])):
            f_val[(level, idx)] = math.fsum(
                f_val[(level - 1, j)] ** x for j in tree.child_ids[level][idx])
    top = tree.levels[r].index(_gamma_by_scan(tree, r))
    mass = {(r, top): 1.0}
    for level in range(r, 0, -1):
        x = 0.0 if level == 1 else rhos[level - 2]
        for idx in range(len(tree.levels[level])):
            m = mass.get((level, idx), 0.0)
            if m == 0.0:
                continue
            for j in tree.child_ids[level][idx]:
                mass[(level - 1, j)] = mass.get((level - 1, j), 0.0) + m * (
                    f_val[(level - 1, j)] ** x) / f_val[(level, idx)]
    weights = {}
    for idx, cell in enumerate(tree.levels[0]):
        m = mass.get((0, idx), 0.0)
        if m == 0.0:
            continue
        if cell.size == 2:
            weights[(0,) * k] = m
            weights[(1,) * k] = 0.0
        else:
            weights[cell.members[0]] = m
    total = math.fsum(weights.values())
    weights = {p: w / total for p, w in weights.items()}
    gamma_masses, restrictions = [], []
    for j in range(r + 1):
        pts = set(_gamma_by_scan(tree, j).members)
        gm = math.fsum(w for p, w in weights.items() if p in pts)
        gamma_masses.append(gm)
        if j >= 1:
            restrictions.append([(p, w / gm) for p, w in weights.items() if p in pts])
    return list(weights.items()), gamma_masses, restrictions


def _measure_items(flag, sol):
    data = optimal_measure(flag, sol)
    return (list(data.mu_star.weights.items()), list(data.gamma_masses),
            [list(mu.weights.items()) for mu in data.restrictions])


def _random_flag(rnd):
    k = rnd.randint(4, 6)
    gens = [ones(k)]
    spaces = [span(gens, k)]
    for _ in range(rnd.randint(1, 3)):
        gens += [tuple(rnd.randint(0, 1) for _ in range(k)) for _ in range(rnd.randint(1, 2))]
        spaces.append(span(gens, k))
    return make_flag(spaces, "custom")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the two routes must fail alike
        return type(exc), str(exc)


def test_subtree_recursion_matches_all_cells_route():
    rnd = random.Random(20261018)
    flags = [binary_flag(r) for r in (1, 2, 3)] + [mt_flag(r) for r in (2, 3, 4)]
    flags += [CERT_FLAGS["mt4_q12"]()] + [_random_flag(rnd) for _ in range(48)]
    raised = 0
    for flag in flags:
        new, old = _outcome(solve_flag_rhos, flag), _outcome(_solve_flag_rhos_by_walks, flag)
        assert new == old, flag
        if not isinstance(new, RhoSolution):
            raised += 1
            continue
        sol = solve_rho_chain(flag.order - 1)[0] if flag.kind == "binary" else new
        assert _outcome(_measure_items, flag, sol) == _outcome(_optimal_measure_all_cells, flag, sol)
    assert 0 < raised < len(flags) // 2


def test_mt4_certificate_evaluates_f_on_the_origin_subtree_only(monkeypatch):
    walks, layers, partitioned = [], [], []
    real_walk, real_layer, real_coset_ids = rho.f_cell_direct, optmeas._f_layer, flags_mod.coset_ids

    def spy_walk(*args):
        walks.append(args)
        return real_walk(*args)

    def spy_layer(tree, level, below, x):
        out = real_layer(tree, level, below, x)
        layers.append((level, len(below), len(out)))
        return out

    def spy_coset_ids(W, rows):
        partitioned.append(len(rows))
        return real_coset_ids(W, rows)

    monkeypatch.setattr(rho, "f_cell_direct", spy_walk)
    monkeypatch.setattr(optmeas, "_f_layer", spy_layer)
    monkeypatch.setattr(flags_mod, "coset_ids", spy_coset_ids)
    cell_tree.cache_clear()
    flag = mt_flag(4)
    _, cert = certify_system(flag)
    assert cert["ok"] and walks == []
    # mu* reads f on Gamma_4 and its descendants: 1 + 3 + 5 + 7 + 9 cells,
    # the level-0 ones being the first layer's `below`
    assert [level for level, _, _ in layers] == [1, 2, 3, 4]
    assert layers[0][1] + sum(n for _, _, n in layers) == 25
    # and partitions only Gamma_4's 10 points, not the 2^16 of the cube
    assert set(partitioned) == {10}


def test_certificate_builds_each_level_universe_once():
    level_universe.cache_clear()
    certify_system(binary_flag(2))
    info = level_universe.cache_info()
    assert (info.misses, info.hits) == (2, 2)
