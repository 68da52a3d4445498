"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single `[criterion NN] PASS|FAIL` line (visible with
pytest -s or in captured output on failure) before asserting, so a full run
yields a per-criterion scoreboard.
"""

import math
import time
from fractions import Fraction

from cubeflags import optmeas, rho, simlab
from cubeflags.cli import main as cli_main
from cubeflags.entropy import Measure, coset_entropy, submodularity_defect
from cubeflags.flags import (
    Genotype,
    binary_flag,
    cell_tree,
    cells_with_genotype_count,
    children_count,
    children_with_genotype_count,
    genotype_of,
    mt_flag,
)
from cubeflags.qlinalg import coset_key, span, subspace_sum

RHO_TABLE = [
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
RHO_LIMIT_REF = 0.28121134969637466
ETA_REF = 0.35332277270132347


def _report(n: int, ok: bool, detail: str = ""):
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_criterion_01_rho_table_reproduction(capsys):
    t0 = time.time()
    code = cli_main(["--workers", "1", "rho-table", "--max-j", "13"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    diffs = [abs(float(row[1]) - ref) for row, ref in zip(rows, RHO_TABLE)]
    ok = code == 0 and len(rows) == 13 and max(diffs) < 0.5e-10 and elapsed < 60.0
    with capsys.disabled():
        _report(1, ok, f"max diff {max(diffs):.2e}, {elapsed:.2f}s")
    assert code == 0 and len(rows) == 13
    assert max(diffs) < 0.5e-10  # >= 10 decimal digits on every entry
    assert elapsed < 60.0


def test_criterion_02_rho_limit(capsys):
    lim = rho.rho_limit().value
    sol, _ = rho.solve_rho_chain(13)
    d1 = abs(lim - RHO_LIMIT_REF)
    d2 = abs(sol.rhos[12] - lim)
    ok = d1 <= 1e-12 and d2 < 1e-10
    with capsys.disabled():
        _report(2, ok, f"|limit-ref| {d1:.2e}, |rho13-limit| {d2:.2e}")
    assert d1 <= 1e-12
    assert d2 < 1e-10


def test_criterion_03_eta(capsys):
    val = rho.eta(rho.rho_limit().value)
    d = abs(val - ETA_REF)
    ok = d <= 1e-12
    with capsys.disabled():
        _report(3, ok, f"|eta-ref| {d:.2e}")
    assert d <= 1e-12


def test_criterion_04_first_equation_residual(capsys):
    sol, _ = rho.solve_rho_chain(1)
    r1 = sol.rhos[0]
    res = abs(3**r1 * math.e**2 - (3**r1 + 4 * 2**r1 + 4))
    ok = res < 1e-11
    with capsys.disabled():
        _report(4, ok, f"residual {res:.2e}")
    assert res < 1e-11


def _explicit_f_gamma3(r1, r2):
    return (
        (3**r1 + 4 * 2**r1 + 4) ** r2
        + 8 * (2 * 2**r1 + 4) ** r2
        + 16 * 4**r2
        + 8 * (2**r1 + 2) ** r2
        + 32 * 2**r2
        + 16
    )


def test_criterion_05_cross_oracles(capsys):
    sol_a, rows = rho.solve_rho_chain(13)
    sol_g = rho.solve_rho_chain_genotype(2)
    d_rho = max(abs(a - g) for a, g in zip(sol_a.rhos, sol_g.rhos))

    # independent route for rho_2: bisection on the explicitly expanded
    # level-3 value, never touching the genotype or a-recursion code paths
    r1 = sol_g.rhos[0]
    f2 = 3**r1 + 4 * 2**r1 + 4

    def phi(x):
        return _explicit_f_gamma3(r1, x) - f2**x * math.e**4

    a, b = 0.0, 1.0
    for _ in range(60):
        m = 0.5 * (a + b)
        if (phi(m) < 0) == (phi(a) < 0):
            a = m
        else:
            b = m
    rho2_explicit = 0.5 * (a + b)
    d_explicit = abs(rho2_explicit - sol_a.rhos[1])

    # genotype evaluation vs product formula: every genotype at levels <= 4
    worst_rel = 0.0
    for level in (1, 2, 3, 4):
        for mask in range(1 << (1 << level)):
            g = Genotype(level, mask)
            via_geno = rho.F_genotype(g, sol_a.rhos)
            via_prod = math.exp(rho.product_formula(g, rows))
            worst_rel = max(worst_rel, abs(via_geno - via_prod) / via_prod)

    ok = d_rho <= 1e-10 and d_explicit <= 1e-10 and worst_rel <= 1e-12
    with capsys.disabled():
        _report(
            5, ok,
            f"rho routes {d_rho:.2e}, explicit-expansion route {d_explicit:.2e}, "
            f"F relative {worst_rel:.2e}",
        )
    assert d_rho <= 1e-10
    assert d_explicit <= 1e-10
    assert worst_rel <= 1e-12


def test_criterion_06_closed_form_constants(capsys):
    rep = rho.constants()
    checks = [
        (abs(rep["beta3"] - 0.02616218797316965), 1e-14, "beta3"),
        (abs(rep["beta4"] - 0.01295186091360512), 1e-14, "beta4"),
        (abs(rep["mt_exponent_1984"] - 0.28754048957), 1e-9, "exp1984"),
        (abs(rep["mt_exponent_2009"] - 0.33827824168), 1e-9, "exp2009"),
        (abs(rep["mt_base"] - 0.131810543), 1e-8, "mt base"),
        (abs(rep["binary_base"] - 0.140605674848), 1e-10, "binary base"),
    ]
    ok = all(d <= tol for d, tol, _ in checks)
    with capsys.disabled():
        _report(6, ok, ", ".join(f"{name} {d:.1e}" for d, tol, name in checks))
    for d, tol, name in checks:
        assert d <= tol, name


def test_criterion_07_theta_identities(capsys):
    sol, _ = rho.solve_rho_chain(13)
    lim = rho.rho_limit().value
    d1 = abs(rho.theta(1, sol) - (1 - 1 / math.log(3)))
    errs = [abs(rho.theta(r, sol) ** (1.0 / r) - lim / 2.0) for r in range(5, 21)]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    ok = d1 <= 1e-14 and monotone
    with capsys.disabled():
        _report(7, ok, f"theta1 diff {d1:.2e}, approach errors {errs[0]:.2e}->{errs[-1]:.2e}")
    assert d1 <= 1e-14
    assert monotone


def test_criterion_08_certificates(capsys):
    t0 = time.time()
    results = {}
    for name, flag in (("binary", binary_flag(2)), ("mt", mt_flag(2))):
        _system, cert = optmeas.certify_system(flag)
        results[name] = cert
    elapsed = time.time() - t0
    ok = True
    details = []
    for name, cert in results.items():
        basic_ok = all(abs(s) <= 1e-9 for s in cert["basic_slacks"].values())
        nonbasic_ok = cert["nonbasic_min_slack"] is None or cert["nonbasic_min_slack"] > 1e-6
        ok = ok and basic_ok and nonbasic_ok and cert["gap_ok"] and cert["ok"]
        details.append(
            f"{name}: basic max |slack| "
            f"{max(abs(s) for s in cert['basic_slacks'].values()):.1e}, "
            f"nonbasic min {cert['nonbasic_min_slack']:.2e}, gaps {cert['gap_ok']}"
        )
    ok = ok and elapsed < 120.0
    with capsys.disabled():
        _report(8, ok, "; ".join(details) + f", {elapsed:.1f}s")
    for name, cert in results.items():
        assert all(abs(s) <= 1e-9 for s in cert["basic_slacks"].values()), name
        assert cert["nonbasic_min_slack"] > 1e-6, name
        assert cert["gap_ok"], name
        assert cert["ok"], (name, cert["failures"])
    assert elapsed < 120.0


def test_criterion_09_combinatorial_census(capsys):
    ok = True
    # (a), (b), (d), (e) against brute-force enumeration for r <= 3
    for r in (1, 2, 3):
        flag = binary_flag(r)
        tree = cell_tree(flag)
        for level in range(r + 1):
            census = {}
            for cell in tree.levels[level]:
                g = genotype_of(cell)
                ok = ok and (cell.size == 2**g.size)  # (a)
                census[g] = census.get(g, 0) + 1
            for g, n in census.items():
                ok = ok and (n == cells_with_genotype_count(r, g))  # (b)
        for level in range(1, r + 1):
            for idx, cell in enumerate(tree.levels[level]):
                g = genotype_of(cell)
                kids = tree.children(level, idx)
                ok = ok and (len(kids) == children_count(g))  # (e)
                by_geno = {}
                for kid in kids:
                    gg = genotype_of(kid)
                    by_geno[gg] = by_geno.get(gg, 0) + 1
                for gg, n in by_geno.items():
                    ok = ok and (n == children_with_genotype_count(g, gg))  # (d)

    # the consolidation-sum identity, exactly as rationals, j <= 4
    for j in (1, 2, 3, 4):
        half = 1 << (j - 1)
        lowmask = (1 << half) - 1
        sums = [Fraction(0)] * (1 << half)
        for mask in range(1 << (1 << j)):
            gstar = mask & lowmask & (mask >> half)
            w = Fraction(1, 1 << gstar.bit_count())
            sub = gstar
            while True:
                sums[sub] += w
                if sub == 0:
                    break
                sub = (sub - 1) & gstar
        for gp in range(1 << half):
            expected = Fraction(1, 2) ** half * 7 ** (half - gp.bit_count())
            ok = ok and (sums[gp] == expected)

    with capsys.disabled():
        _report(9, ok)
    assert ok


def test_criterion_10_entropy_property_suite(capsys):
    import random

    rnd = random.Random(20260810)
    failures = {"submodularity": 0, "chain_rule": 0, "gibbs": 0, "multinomial": 0}
    N = 10**4

    def random_measure(k):
        pts = sorted({tuple(rnd.randint(0, 1) for _ in range(k)) for _ in range(rnd.randint(2, 8))})
        w = [rnd.random() + 1e-3 for _ in pts]
        total = sum(w)
        return Measure(k, {p: x / total for p, x in zip(pts, w)})

    def random_subspace(k):
        return span([tuple(rnd.randint(0, 1) for _ in range(k)) for _ in range(rnd.randint(1, 3))], k)

    for _ in range(N):
        nu = random_measure(4)
        if submodularity_defect(nu, random_subspace(4), random_subspace(4)) < -1e-10:
            failures["submodularity"] += 1

    for _ in range(N):
        nu = random_measure(4)
        W_small = random_subspace(4)
        W = subspace_sum(W_small, random_subspace(4))
        lhs = coset_entropy(nu, W_small)
        groups = {}
        for p, w in nu.weights.items():
            groups.setdefault(coset_key(W, p), []).append((p, w))
        rhs = coset_entropy(nu, W)
        for items in groups.values():
            mass = sum(w for _, w in items)
            sub = Measure(4, {p: w / mass for p, w in items})
            rhs += mass * coset_entropy(sub, W_small)
        if abs(lhs - rhs) >= 1e-10:
            failures["chain_rule"] += 1

    for _ in range(N):
        n = rnd.randint(2, 8)
        a = [rnd.uniform(-4, 4) for _ in range(n)]
        w = [rnd.random() + 1e-12 for _ in range(n)]
        tot = sum(w)
        p = [x / tot for x in w]
        H = -sum(x * math.log(x) for x in p)
        lse = math.log(sum(math.exp(x) for x in a))
        if H + sum(ai * pi for ai, pi in zip(a, p)) > lse + 1e-12:
            failures["gibbs"] += 1
        z = sum(math.exp(x) for x in a)
        ps = [math.exp(x) / z for x in a]
        Hs = -sum(x * math.log(x) for x in ps)
        if abs(Hs + sum(ai * pi for ai, pi in zip(a, ps)) - lse) > 1e-10:
            failures["gibbs"] += 1

    for _ in range(N):
        parts = [rnd.randint(0, 20) for _ in range(rnd.randint(2, 6))]
        n = sum(parts)
        if n == 0 or n > 60:
            continue
        lhs = math.factorial(n)
        for m in parts:
            lhs //= math.factorial(m)
        H = -sum((m / n) * math.log(m / n) for m in parts if m)
        if lhs > math.exp(H * n) * (1 + 1e-12):
            failures["multinomial"] += 1

    ok = all(v == 0 for v in failures.values())
    with capsys.disabled():
        _report(10, ok, str(failures))
    assert ok, failures


def test_criterion_11_simulator_determinism_and_oracles(capsys, tmp_path):
    # byte-identical CLI output at worker counts 1, 4, 8
    outputs = []
    for workers in (1, 4, 8):
        path = tmp_path / f"w{workers}.csv"
        code = cli_main([
            "--workers", str(workers),
            "simulate", "equal-sums", "--D", "100000", "--c", "0.1",
            "--trials", "40", "--seed", "12345", "--json", "--out", str(path),
        ])
        assert code == 0
        outputs.append(path.read_bytes())
    byte_identical = outputs[0] == outputs[1] == outputs[2]

    # the multiplicity of the smallest m elements (the lower bound the
    # equal-sums estimate takes past 26 elements) <= exact multiplicity,
    # 10^3 paired sets
    dominance_violations = 0
    for t in range(1000):
        rng = simlab.substream(777, t)
        size = int(rng.integers(6, 15))
        vals = sorted({int(x) for x in rng.integers(1, 2000, size=size)})
        exact = simlab.max_subset_sum_multiplicity(vals)
        m = int(simlab.substream(778, t).integers(1, len(vals) + 1))
        if simlab._k_max(vals[:m])[0] > exact.k_max:
            dominance_violations += 1

    # polynomial route equals brute-force subset enumeration, all n <= 20
    perm_mismatch = 0
    for t in range(300):
        rng = simlab.substream(779, t)
        n = int(rng.integers(1, 21))
        ct = simlab._cycle_types(n, lambda m: rng.random((1, m)))[0]
        if simlab.delta_perm(ct).delta != simlab.delta_perm_bruteforce(ct):
            perm_mismatch += 1

    ok = byte_identical and dominance_violations == 0 and perm_mismatch == 0
    with capsys.disabled():
        _report(
            11, ok,
            f"bytes identical {byte_identical}, dominance violations "
            f"{dominance_violations}, perm mismatches {perm_mismatch}",
        )
    assert byte_identical
    assert dominance_violations == 0
    assert perm_mismatch == 0


def test_criterion_12_qualitative_phase_behavior(capsys):
    # NOTE: with the faithful model (window [D^c, D] of a Bernoulli-1/i set,
    # exact distinct-subset collision detection) the measured success rate at
    # c = 0.02, D = 10^6 is ~0.69, not > 0.9; see the repository notes.  The
    # criterion is asserted exactly as stated.
    D, k, trials, seed = 1e6, 2, 2000, 20260810
    grid = [0.02, 0.05, 0.0898, 0.15, 0.3]
    ests = [simlab.equal_sums_probability(D, c, k, trials, seed) for c in grid]
    monotone_within_ci = all(
        b["estimate"] <= a["estimate"] or b["ci95"][0] <= a["ci95"][1]
        for a, b in zip(ests, ests[1:])
    )
    first = ests[0]["estimate"]
    last = ests[-1]["estimate"]
    ok = monotone_within_ci and first > 0.9 and last < 0.5
    with capsys.disabled():
        _report(
            12, ok,
            "estimates " + ", ".join(f"c={c}: {e['estimate']:.3f}" for c, e in zip(grid, ests))
            + f"; monotone(CI) {monotone_within_ci}",
        )
    assert monotone_within_ci
    assert last < 0.5
    assert first > 0.9, (
        f"estimate at c=0.02 is {first:.3f}; the faithful sampling model "
        "saturates near 0.69 at D = 1e6 (see notes)"
    )
