import bisect
import hashlib
import math
import random

import pytest
from conftest import bisect_outcome, reference_bisect

from cubeflags import rho
from cubeflags.errors import CapacityError, NumericInstabilityError
from cubeflags.flags import Cell, Genotype, binary_flag, cell_tree, cube_points, mt_flag, parse_flag_text
from cubeflags.rho import (
    F_genotype,
    extend_a_row,
    f_cell_direct,
    product_formula,
    rho_limit,
    solve_flag_rhos,
    solve_rho_chain,
    solve_rho_chain_genotype,
)

TABLE = [
    0.3064810093305,
    0.2796104150767,
    0.2813005404710,
    0.2812067224539,
    0.2812115789381,
    0.2812113387071,
    0.2812113502101,
    0.2812113496729,
    0.2812113496974,
    0.2812113496963,
    0.2812113496964,
    0.2812113496964,
    0.2812113496964,
]

RHO_LIMIT_REF = 0.28121134969637466015
ETA_REF = 0.35332277270132346711


def explicit_f_gamma3(r1, r2):
    return (
        (3**r1 + 4 * 2**r1 + 4) ** r2
        + 8 * (2 * 2**r1 + 4) ** r2
        + 16 * 4**r2
        + 8 * (2**r1 + 2) ** r2
        + 32 * 2**r2
        + 16
    )


# ---------------------------------------------------------------------------
# Tree evaluation


def test_f_gamma1_is_three():
    tree = cell_tree(binary_flag(2))
    assert f_cell_direct(tree, tree.gamma(1), []) == 3.0


def test_f_gamma2_explicit():
    tree = cell_tree(binary_flag(2))
    for r1 in (0.1, 0.3064810093305, 0.9):
        got = f_cell_direct(tree, tree.gamma(2), [r1])
        assert abs(got - (3**r1 + 4 * 2**r1 + 4)) < 1e-12


def test_f_gamma3_explicit():
    tree = cell_tree(binary_flag(3))
    for r1, r2 in ((0.3, 0.27), (0.30648, 0.27961), (0.5, 0.5)):
        got = f_cell_direct(tree, tree.gamma(3), [r1, r2])
        assert abs(got - explicit_f_gamma3(r1, r2)) < 1e-10 * explicit_f_gamma3(r1, r2)


# ---------------------------------------------------------------------------
# Genotype evaluation


def test_F_leaf_cases():
    assert F_genotype(Genotype(1, 0), []) == 1.0
    assert F_genotype(Genotype.from_subsets(1, [frozenset()]), []) == 2.0
    assert F_genotype(Genotype.full(1), []) == 3.0


def test_F_matches_direct_tree_on_gamma3():
    rhos = [0.3064810093305, 0.2796104150767]
    tree = cell_tree(binary_flag(3))
    direct = f_cell_direct(tree, tree.gamma(3), rhos)
    geno = F_genotype(Genotype.full(3), rhos)
    assert abs(direct - geno) < 1e-13 * direct


def test_F_matches_every_cell_r3():
    rhos = [0.31, 0.28]
    f = binary_flag(3)
    tree = cell_tree(f)
    for level in range(4):
        for idx, cell in enumerate(tree.levels[level]):
            direct = f_cell_direct(tree, cell, rhos)
            geno = F_genotype(cell.genotype, rhos)
            assert abs(direct - geno) < 1e-12 * max(1.0, direct)


def test_f_cell_direct_guards():
    f = binary_flag(2)
    tree = cell_tree(f)
    with pytest.raises(ValueError, match="need 1 rho values"):
        f_cell_direct(tree, tree.gamma(2), [])
    # a level-1 cell outside Gamma_1 is no cell of the tree over Gamma_1
    gamma1_tree = cell_tree(f, tree.gamma(1).members)
    outside = next(c for c in tree.levels[1] if c.members[0] not in tree.gamma(1).members)
    with pytest.raises(KeyError):
        f_cell_direct(gamma1_tree, outside, [])
    # a tree over some points evaluates its cells as the full tree does
    assert f_cell_direct(gamma1_tree, tree.gamma(1), []) == f_cell_direct(f, tree.gamma(1), []) == 3.0
    # given the flag, a least member that starts no cell is no key either
    with pytest.raises(KeyError):
        f_cell_direct(f, Cell(1, tree.gamma(1).members[1:], None), [])
    with pytest.raises(ValueError, match="need 1 rho values"):
        f_cell_direct(f, tree.gamma(2), [])


@pytest.mark.parametrize(
    "flag, ncells", [(binary_flag(2), 25), (mt_flag(3), 822), (binary_flag(3), 562)],
    ids=["binary-2", "mt-3", "binary-3"],
)
def test_f_cell_direct_flag_route_matches_tree_route(flag, ncells):
    tree = cell_tree(flag)
    rhos = [0.31, 0.28][: max(0, flag.order - 1)]
    cells = [c for level in tree.levels for c in level]
    assert len(cells) == ncells
    for cell in cells:
        assert f_cell_direct(flag, cell, rhos) == f_cell_direct(tree, cell, rhos)


def test_f_cell_direct_given_a_flag_builds_no_cube_tree(monkeypatch):
    flag = mt_flag(4)
    point_sets = []
    real_cell_tree = rho.cell_tree

    def spy_cell_tree(f, points=None):
        point_sets.append(points)
        return real_cell_tree(f, points)

    monkeypatch.setattr(rho, "cell_tree", spy_cell_tree)
    gamma2 = real_cell_tree(flag, tuple(cube_points(flag.spaces[2]))).gamma(2)
    assert f_cell_direct(flag, gamma2, [0.3]) > 0.0
    assert point_sets and None not in point_sets


# ---------------------------------------------------------------------------
# a-table


def _plain_a_table(rhos, imax, jmax):
    # direct (non-log) evaluation; safe for small j only.  Row 1 uses the
    # zero exponent, which makes both row-0 correction terms equal to 1.
    a = {}
    for j in range(1, jmax + 1):
        a[(0, j)] = 1.0
    for i in range(1, imax + 1):
        x = 0.0 if i == 1 else rhos[i - 2]
        a[(i, 1)] = 2.0
        a[(i, 2)] = 2.0 + 2.0**x
        for j in range(3, jmax + 1):
            a[(i, j)] = a[(i, j - 1)] ** 2 + a[(i - 1, j - 1)] ** x - a[(i - 1, j - 2)] ** (2 * x)
    return a


def test_extend_row_seeds():
    row1 = rho._a_row(0.0, 4)
    assert row1[1] == math.log(2.0)
    assert row1[2] == math.log(3.0)
    row2 = extend_a_row(0.31, 4, row1, 2)
    assert abs(row2[1] - math.log(2.0)) < 1e-15
    assert abs(row2[2] - math.log(2.0 + 2.0**0.31)) < 1e-15


def test_log_table_matches_plain_arithmetic():
    rhos = [0.3064810093305, 0.2796104150767, 0.2813005404710, 0.2812067224539]
    plain = _plain_a_table(rhos, 5, 6)
    rows = [None, rho._a_row(0.0, 6)]
    for i in range(2, 6):
        rows.append(extend_a_row(rhos[i - 2], 6, rows[i - 1], i))
    for i in range(1, 6):
        for j in range(1, 7):
            if (i, j) in plain:
                assert abs(rows[i][j] - math.log(plain[(i, j)])) < 1e-11


def test_crude_bounds_enforced():
    # a corrupt row 2, from which the computed row 3 violates its a-priori bounds
    prev = [None, math.log(2.0), 100.0, 200.0]
    with pytest.raises(NumericInstabilityError) as err:
        extend_a_row(0.3, 4, prev, 3)
    assert str(err.value) == (
        "a-table entry log a[3][3] = 30.000000000000835 violates the crude bounds "
        "[2.1972245773362196, 2.772588722239781]"
    )


# The log-domain a-table as an earlier version built it, kept as the oracle:
# row 1 by doubling, each chain row by its own loop, the limit row by a third.


def _oracle_step(x, left, up, up2):
    t = 2.0 * left
    return t + math.log1p(math.exp(x * up - t) - math.exp(2.0 * x * up2 - t))


def _oracle_row1(ncols):
    row = [None, math.log(2.0), math.log(3.0)]
    for _ in range(3, ncols + 1):
        row.append(2.0 * row[-1])
    return row


def _oracle_chain_row(prev, x, ncols):
    row = [None, math.log(2.0), math.log(2.0 + 2.0**x)]
    for j in range(3, ncols + 1):
        row.append(_oracle_step(x, row[j - 1], prev[j - 1], prev[j - 2]))
    return row


def _oracle_limit_row(x, nterms):
    ell = [None, math.log(2.0), math.log(2.0 + 2.0**x)]
    for j in range(3, nterms + 2):
        ell.append(_oracle_step(x, ell[j - 1], ell[j - 1], ell[j - 2]))
    return ell


def _oracle_chain(max_j):
    """rho_1..rho_max_j, their residuals and rows 1..max_j+1, one equation at a time."""
    rows = [None, _oracle_row1(3)]
    rhos, residuals = [], []
    for j in range(1, max_j + 1):
        prev = rows[j]

        def phi(x):
            return _oracle_chain_row(prev, x, j + 2)[j + 2] - x * prev[j + 1] - 2.0**j

        x = reference_bisect(phi, 0.0, 1.0, rho.BISECT_WIDTH, f"the rho_{j} equation")
        rhos.append(x)
        residuals.append(abs(phi(x)))
        rows.append(_oracle_chain_row(prev, x, j + 3))
    return tuple(rhos), tuple(residuals), rows


def _oracle_rows(rhos):
    """Rows 1..len(rhos)+1 rebuilt from given rho values."""
    rows = [None, _oracle_row1(3)]
    for i, x in enumerate(rhos, start=2):
        rows.append(_oracle_chain_row(rows[i - 1], x, i + 2))
    return rows


@pytest.mark.parametrize("max_j", [0, 1, 2, 5, 13, 80])
def test_chain_matches_oracle_exactly(max_j):
    sol, rows = solve_rho_chain(max_j)
    assert (sol.rhos, sol.residuals, rows) == _oracle_chain(max_j)
    assert [len(row) for row in rows[1:]] == [i + 3 for i in range(1, max_j + 2)]


def test_chain_to_the_guard_matches_oracle_and_pinned_bytes(capsys, monkeypatch):
    # the longest chain takes ~16 s, so one solve serves the rows oracle and
    # the stdout pin of `rho-table --max-j 1021 --format json`
    from cubeflags.cli import main

    solved = []
    real_solve = rho.solve_rho_chain
    monkeypatch.setattr(rho, "solve_rho_chain", lambda j: solved.append(real_solve(j)) or solved[-1])
    assert main(["rho-table", "--max-j", str(rho.MAX_RHO_CHAIN_J), "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "262654790a3c05dc592c37adb16ada2d1b572727f26fef8dc3a06435779c9107")
    [(sol, rows)] = solved
    assert len(sol.rhos) == 1021
    assert rows == _oracle_rows(sol.rhos)


def test_limit_row_matches_oracle_exactly():
    n = rho.LIMIT_SERIES_TERMS
    for x in [k / 200 for k in range(201)] + [RHO_LIMIT_REF, 1e-300, 1.0 - 2.0**-53]:
        assert rho._a_row(x, n + 1) == _oracle_limit_row(x, n)
    assert rho._a_row(0.0, 3) == _oracle_row1(3)


def test_product_formula_full_and_empty():
    sol, rows = solve_rho_chain(4)
    for i in (1, 2, 3, 4):
        lf = product_formula(Genotype.full(i), rows)
        assert abs(lf - rows[i][i + 1]) < 1e-14
        assert product_formula(Genotype(i, 0), rows) == 0.0
    with pytest.raises(ValueError, match="row 0 missing"):
        product_formula(Genotype(0, 0), rows)
    with pytest.raises(ValueError, match="row 6 missing"):
        product_formula(Genotype(6, 0), rows)


def test_product_formula_matches_genotype_levels_up_to_4():
    sol, rows = solve_rho_chain(4)
    rhos = sol.rhos
    rnd = random.Random(2)
    for level in (1, 2, 3, 4):
        masks = range(1 << (1 << level)) if level <= 3 else [
            rnd.getrandbits(16) for _ in range(4000)
        ]
        for mask in masks:
            g = Genotype(level, mask)
            lhs = product_formula(g, rows)
            rhs = F_genotype(g, rhos)
            assert abs(math.exp(lhs) - rhs) < 1e-12 * rhs


# ---------------------------------------------------------------------------
# Solving the chain


def test_table1_reproduction():
    sol, _ = solve_rho_chain(13)
    for got, ref in zip(sol.rhos, TABLE):
        assert abs(got - ref) < 5e-13


def test_residuals_small():
    # residuals live in the log domain, where the slope of phi_j grows like
    # 2^(j-1); a 1e-14 bisection width therefore leaves ~1e-11-scale residue
    sol, _ = solve_rho_chain(13)
    assert max(sol.residuals) < 1e-10


def test_first_equation_residual_linear_domain():
    sol, _ = solve_rho_chain(1)
    r1 = sol.rhos[0]
    assert abs(3**r1 * math.e**2 - (3**r1 + 4 * 2**r1 + 4)) < 1e-11


def test_genotype_route_agrees_with_a_recursion():
    sol_a, _ = solve_rho_chain(2)
    sol_g = solve_rho_chain_genotype(2)
    for a, g in zip(sol_a.rhos, sol_g.rhos):
        assert abs(a - g) < 1e-10


def test_tree_route_agrees_for_binary_r3():
    sol_a, _ = solve_rho_chain(2)
    sol_t = solve_flag_rhos(binary_flag(3))
    for a, t in zip(sol_a.rhos, sol_t.rhos):
        assert abs(a - t) < 1e-10


def test_rho_solution_invariants():
    sol, rows = solve_rho_chain(13)
    assert all(0 < x < 1 for x in sol.rhos)
    assert all(x <= sol.rhos[0] + 1e-12 for x in sol.rhos)
    for row in rows[1:]:
        for j in range(1, len(row)):
            lo = 2.0 ** (j - 2) * math.log(3.0)
            hi = 2.0 ** (j - 1) * math.log(2.0)
            assert lo - 1e-9 <= row[j] <= hi + 1e-9


def test_monotone_root_function():
    # phi_j is strictly monotone on a grid of 100 points
    sol, rows = solve_rho_chain(3)
    for j in (1, 2, 3):
        prev = rows[j]
        vals = []
        for t in range(1, 101):
            x = t / 101.0
            row = extend_a_row(x, j + 2, prev, j + 1)
            vals.append(row[j + 2] - x * prev[j + 1] - 2.0**j)
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d < 0 for d in diffs) or all(d > 0 for d in diffs)


def test_mt_flag_closed_form_rhos():
    sol = solve_flag_rhos(mt_flag(3))
    l2, le1, l3 = math.log(2.0), math.log(math.e - 1.0), math.log(3.0)
    kappa = (l2 - le1) / (l2 + 1.0 - le1)
    assert abs(sol.rhos[0] - (l2 - le1) / l3) < 1e-12
    assert abs(sol.rhos[1] - kappa) < 1e-12


# ---------------------------------------------------------------------------
# The limit and the constants


def test_rho_limit_value():
    res = rho_limit()
    assert abs(res.value - RHO_LIMIT_REF) < 1e-13
    assert res.residual < 1e-12
    assert res.tail_bound < 1e-300 or res.tail_bound == 0.0


def test_rho_limit_zero_tolerance_terminates():
    # the limit equation has an exact float zero, which ends the bisection
    assert rho_limit(0.0).value == rho_limit().value


def test_bisect_stops_at_float_resolution():
    # a step with no exact zero: width 0 ends only when no float is between a and b
    x = rho._bisect(lambda t: -1.0 if t < 0.3 else 1.0, 0.0, 1.0, 0.0, "a step")
    assert abs(x - 0.3) <= math.ulp(0.3)


def test_bisect_equals_bisection_on_the_chain_limit_and_genotype_roots(bisect_pairs):
    solve_rho_chain(80)
    solve_rho_chain_genotype(3)
    for tol in (1e-15, 1e-12, 0.0):  # on [0.1, 0.9], off the dyadic grid
        rho_limit.cache_clear()
        rho_limit(tol)
    rho_limit.cache_clear()
    assert len(bisect_pairs) == 80 + 3 + 3
    assert [p for p in bisect_pairs if p[1] != p[2]] == []


def _staircase(rnd):
    """A seeded monotone step function on [0, 1] that changes sign; one step
    in three is exactly 0 over a stretch, as phi_1 is near its root."""
    cuts = sorted(rnd.random() for _ in range(rnd.randint(1, 8)))
    k = rnd.randrange(len(cuts))  # the last step below zero
    values = [-(10.0 ** rnd.uniform(-6, 6)) for _ in range(k + 1)]
    values += [10.0 ** rnd.uniform(-6, 6) for _ in range(len(cuts) - k)]
    values[:k + 1] = sorted(values[:k + 1])
    values[k + 1:] = sorted(values[k + 1:])
    if k + 1 < len(cuts) and rnd.random() < 1 / 3:
        values[k + 1] = 0.0
    sign = rnd.choice((1.0, -1.0))
    return lambda t: sign * values[bisect.bisect_right(cuts, t)]


@pytest.mark.parametrize("seed", range(40))
def test_bisect_equals_bisection_on_step_functions(seed):
    rnd = random.Random(seed)
    phi = _staircase(rnd)
    for width in (rho.BISECT_WIDTH, 0.0, 1e-6):
        for a, b in ((0.0, 1.0), (0.1, 0.9)):
            args = (phi, a, b, width, f"staircase {seed}")
            assert bisect_outcome(rho._bisect, *args) == bisect_outcome(reference_bisect, *args)


@pytest.mark.parametrize("phi", [lambda t: 1.0, lambda t: 0.0, lambda t: -t, lambda t: 0.5 - t])
def test_bisect_equals_bisection_on_endpoints_and_errors(phi):
    args = (phi, 0.0, 1.0, rho.BISECT_WIDTH, "an edge case")
    assert bisect_outcome(rho._bisect, *args) == bisect_outcome(reference_bisect, *args)


def test_chain_roots_take_at_most_14_evaluations_each(monkeypatch):
    # plain bisection spends 636 evaluations on these 13 roots
    calls = 0
    fast = rho._bisect

    def counting(phi, *args):
        def counted(x):
            nonlocal calls
            calls += 1
            return phi(x)
        return fast(counted, *args)

    monkeypatch.setattr(rho, "_bisect", counting)
    solve_rho_chain(13)
    assert calls <= 14 * 13


def test_flag_equation_without_sign_change_raises():
    flag = parse_flag_text("1011\n1011 1001 0110\n1011 1001 0110 1001 0000\n")
    with pytest.raises(NumericInstabilityError, match=r"no root in \(0,1\) for equation 2"):
        solve_flag_rhos(flag)


def test_rho13_close_to_limit():
    sol, _ = solve_rho_chain(13)
    assert abs(sol.rhos[12] - rho_limit().value) < 1e-10


def test_limit_recursion_seed_at_zero():
    # at rho = 0 the second seed is 2 + 2^0 = 3 exactly
    assert 2.0 + 2.0**0.0 == 3.0


def test_telescoping_diagonal():
    sol, rows = solve_rho_chain(13)
    lim = rho_limit().value
    i = 13
    value = rows[i][i + 1] / 2.0 ** (i - 1)
    assert abs(value - 1.0 / (1.0 - lim / 2.0)) < 1e-8


def test_eta():
    assert abs(rho.eta(rho_limit().value) - ETA_REF) < 1e-12


def test_theta1():
    sol, _ = solve_rho_chain(1)
    assert abs(rho.theta(1, sol) - (1.0 - 1.0 / math.log(3.0))) < 1e-14


def test_theta2_value():
    sol, _ = solve_rho_chain(1)
    l3 = math.log(3.0)
    expected = (l3 - 1.0) / (l3 + 2.0 / sol.rhos[0])
    assert abs(rho.theta(2, sol) - expected) < 1e-15
    assert abs(expected - 0.012934) < 1e-6


def test_theta_gamma_res_consistency():
    sol, _ = solve_rho_chain(3)
    assert rho.theta(4, sol) == rho.gamma_res([2, 4, 8], sol)


def test_gamma_res_raises_once_the_rho_product_underflows():
    # zero increments keep the sum finite, so the product reaches 0 first
    sol, _ = solve_rho_chain(3)
    with pytest.raises(NumericInstabilityError, match="underflows"):
        rho.gamma_res([0] * 1000, sol)
    # the last r whose theta is still a positive double
    assert 0.0 < rho.theta(362, sol) < 1e-300
    with pytest.raises(NumericInstabilityError, match="overflows at i = 362"):
        rho.theta(363, sol)


def test_theta_root_monotone_approach():
    sol, _ = solve_rho_chain(13)
    lim = rho_limit().value
    errs = [abs(rho.theta(r, sol) ** (1.0 / r) - lim / 2.0) for r in range(5, 21)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_constants_report():
    rep = rho.constants()
    assert abs(rep["beta3"] - 0.02616218797316965133) < 1e-14
    assert abs(rep["beta4"] - 0.01295186091360511918) < 1e-14
    assert abs(rep["mt_exponent_1984"] - 0.28754048957) < 1e-9
    assert abs(rep["mt_exponent_2009"] - 0.33827824168) < 1e-9
    assert abs(rep["mt_base"] - 0.131810543) < 1e-8
    assert abs(rep["binary_base"] - 0.140605674848) < 1e-10
    assert abs(rep["eta"] - math.log(2.0) / math.log(2.0 / rep["rho_limit"])) < 1e-15
    assert rep["binary_base"] == rep["rho_limit"] / 2.0
    assert abs(rep["beta2"] - rep["theta"]["1"]) < 1e-14
    assert rep["schema"].startswith("cubeflags.constants")


def test_genotype_level_guard():
    with pytest.raises(CapacityError):
        F_genotype(Genotype(5, 0), [0.3] * 4)
