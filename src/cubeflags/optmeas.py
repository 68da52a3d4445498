"""Extremal measures and thresholds for a flag, and the certificate builder.

Once the fixed-point parameters rho of a flag are solved, a distinguished
measure mu* on the cube is obtained by telescoping the ratio

    mu*(C') / mu*(C) = f^{C'}(rho)^{rho_{i-1}} / f^C(rho)

down the cell tree from mu*(Gamma_r) = 1, splitting the bottom cell {0, 1}
by the convention mu*(1) = 0 (harmless: 0 and 1 share a coset of every
subflag space, so no entropy ever sees the split).  Only the subtree of
Gamma_r carries mass, so f is evaluated on Gamma_r's cell tree alone, as
the rho equations are (rho.solve_flag_rhos).  mu* comes whole with its
restrictions mu*_j to Gamma_j and their entropy matrix H, from which the
thresholds c* tying every basic subflag's e-value to the full flag's are
solved; all assemble into a system whose entropy condition can then be
checked over the enumerated subflag universe.

certify_system runs the whole pipeline and reports: basic-subflag tightness,
positivity of all other enumerated slacks, the two entropy-gap inequality
families, an exhaustive search for invariant intermediate subspaces (small
binary flags), and a re-check under perturbed thresholds, which is the
regime where every proper slack must become strictly positive; it re-scores
the stored entropies of the one enumeration, as e is linear in the
thresholds.  Certificates never claim more than their enumeration universe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import log
from typing import Optional, Sequence

from . import flags
from .entropy import (
    TIGHT_BAND,
    Measure,
    System,
    check_entropy_condition,
    coset_entropy,
    perturb_thresholds,
    score_entries,
)
from .errors import DegenerateParametersError
from .flags import (
    SUBFLAG_UNIVERSE_TAG,
    Flag,
    Genotype,
    automorphism_generators,
    cell_tree,
    contains_subspace,
    cube_points,
    level_universe,
    permute_subspace,
)
from .rho import (
    F_genotype,
    RhoSolution,
    _f_layer,
    solve_flag_rhos,
    solve_rho_chain,
)

DEGENERATE_PIVOT_TOL = 1e-12
NONBASIC_SLACK_MIN = 1e-6
PERTURB_EPSILONS = (1e-3, 1e-4)


@dataclass(frozen=True)
class OptimalData:
    """The extremal measure of a flag, its restrictions and their entropies."""

    flag: Flag
    rho: RhoSolution
    mu_star: Measure
    restrictions: tuple[Measure, ...]  # mu*_1 .. mu*_r
    gamma_masses: tuple[float, ...]  # mu*(Gamma_j), j = 0..r
    entropy: tuple[tuple[float, ...], ...]  # H[j][m], j=1..r


def optimal_measure(flag: Flag, sol: Optional[RhoSolution] = None) -> OptimalData:
    """Build mu*, its restrictions (telescoping down the cell tree) and their H."""
    if sol is None:
        sol = solve_rho_chain(flag.order - 1)[0] if flag.kind == "binary" else solve_flag_rhos(flag)
    if len(sol.rhos) < flag.order - 1:
        raise ValueError("rho solution does not cover the flag order")
    # only Gamma_r carries mass, so only its tree is built
    tree = cell_tree(flag, tuple(cube_points(flag.spaces[-1])))
    r = flag.order
    rhos = sol.rhos

    f = [[1.0] * len(tree.levels[0])]
    for level in range(1, r + 1):
        f.append(_f_layer(tree, level, f[-1], 0.0 if level == 1 else rhos[level - 2]))
    mass = {0: 1.0}
    for level in range(r, 0, -1):
        rho = 0.0 if level == 1 else rhos[level - 2]
        mass = {
            j: m * f[level - 1][j] ** rho / f[level][i]
            for i, m in mass.items()
            for j in tree.child_ids[level][i]
        }

    k = flag.ambient_dim
    weights: dict[tuple, float] = {}
    for idx, cell in enumerate(tree.levels[0]):  # coset_entropy sums in insertion order
        weights[cell.members[0]] = mass[idx]
        if cell.size == 2:  # the cell {0, 1}: all of its mass goes to 0
            weights[(1,) * k] = 0.0
    total = math.fsum(weights.values())
    weights = {p: w / total for p, w in weights.items()}
    mu_star = Measure(k, weights)

    gamma_masses = []
    restrictions = []
    for j in range(r + 1):
        pts = set(tree.gamma(j).members)
        gm = math.fsum(w for p, w in weights.items() if p in pts)
        gamma_masses.append(gm)
        if j >= 1:
            sub = {p: w / gm for p, w in weights.items() if p in pts}
            restrictions.append(Measure(k, sub))
    return OptimalData(flag, sol, mu_star, tuple(restrictions), tuple(gamma_masses),
                       entropy_matrix(flag, restrictions))


def entropy_matrix(flag: Flag, restrictions: Sequence[Measure]) -> tuple[tuple[float, ...], ...]:
    """H[j][m] = H_{mu_j}(V_m), mu_j = restrictions[j-1], 1 <= j <= r, 0 <= m <= r (direct)."""
    r = flag.order
    return tuple(
        tuple(
            0.0 if m >= j else coset_entropy(restrictions[j - 1], flag.spaces[m])
            for m in range(r + 1)
        )
        for j in range(1, r + 1)
    )


def entropy_matrix_genotype(r: int, sol: RhoSolution) -> tuple[tuple[float, ...], ...]:
    """The same matrix for the order-r binary flag, by genotype-path DP.

    Cells with a common genotype path carry equal mass, so it suffices to
    push (sum of count*mass, sum of count*mass*log mass) through the
    genotype transition counts 2^{|g|-|g*|-|g'|}; no cube materialization.
    """
    rhos = sol.rhos
    out = []
    for j in range(1, r + 1):
        row = []
        for m in range(r + 1):
            if m >= j:
                row.append(0.0)
                continue
            s0 = {Genotype.full(j).mask: 1.0}
            s1 = {Genotype.full(j).mask: 0.0}
            for level in range(j, m, -1):
                rho = 0.0 if level == 1 else rhos[level - 2]
                shift = 1 << (level - 1)
                lowmask = (1 << shift) - 1
                n0: dict[int, float] = {}
                n1: dict[int, float] = {}
                for gmask, v0 in s0.items():
                    v1 = s1[gmask]
                    fg = F_genotype(Genotype(level, gmask), rhos)
                    gstar = gmask & lowmask & (gmask >> shift)
                    base = gmask.bit_count() - gstar.bit_count()
                    # iterate submasks g' of g*
                    sub = gstar
                    while True:
                        child = Genotype(level - 1, sub)
                        ratio = F_genotype(child, rhos) ** rho / fg
                        count = 1 << (base - sub.bit_count())
                        w = count * ratio
                        n0[sub] = n0.get(sub, 0.0) + v0 * w
                        n1[sub] = n1.get(sub, 0.0) + (v1 + v0 * log(ratio)) * w
                        if sub == 0:
                            break
                        sub = (sub - 1) & gstar
                s0, s1 = n0, n1
            row.append(-math.fsum(s1.values()))
        out.append(tuple(row))
    return tuple(out)


def optimal_parameters(data: OptimalData) -> tuple[float, ...]:
    """Thresholds tying every basic subflag's e-value to the full flag's.

    Solved by downward back-substitution from a provisional c_{r+1} = 1,
    then rescaled so c_1 = 1.  Raises DegenerateParametersError on a
    near-zero pivot H[m+1][m] - dim(V_{m+1}/V_m) or a non-descending or
    non-positive solution.
    """
    flag = data.flag
    r = flag.order
    d = [W.dim for W in flag.spaces]
    H = data.entropy
    c = [0.0] * (r + 2)  # 1-indexed: c[1..r+1]
    c[r + 1] = 1.0
    for m in range(r - 1, -1, -1):
        pivot = H[m][m] - (d[m + 1] - d[m])  # H[m+1][m] in 1-indexed j
        if abs(pivot) < DEGENERATE_PIVOT_TOL:
            raise DegenerateParametersError(
                f"degenerate pivot at m={m}: H_(mu_{m+1})(V_{m}) = {H[m][m]!r} "
                f"matches dim(V_{m+1}/V_{m}) = {d[m + 1] - d[m]}"
            )
        rhs = math.fsum(
            (c[j] - c[j + 1]) * ((d[j] - d[m]) - H[j - 1][m]) for j in range(m + 2, r + 1)
        ) + c[r + 1] * (d[r] - d[m])
        gap = rhs / pivot
        if gap <= 0.0:
            raise DegenerateParametersError(
                f"non-descending thresholds: gap c_{m + 1} - c_{m + 2} = {gap!r} <= 0"
            )
        c[m + 1] = c[m + 2] + gap
    scale = c[1]
    out = tuple(x / scale for x in c[1:])
    if not all(a > b > 0.0 for a, b in zip(out, out[1:])):
        raise DegenerateParametersError(f"thresholds not strictly descending: {out}")
    return out


def optimal_system(flag: Flag, sol: Optional[RhoSolution] = None) -> tuple[System, OptimalData]:
    data = optimal_measure(flag, sol)
    c = optimal_parameters(data)
    return System(flag, c, data.restrictions), data


# ---------------------------------------------------------------------------
# Certification


def _certificate(flag: Flag, rho: Sequence[float]) -> dict:
    """The cubeflags.certificate.v1 document of a flag on which no check ran
    and none passed; certify_system updates the keys its checks set."""
    return {
        "schema": "cubeflags.certificate.v1",
        "flag": {"kind": flag.kind, "order": flag.order, "ambient_dim": flag.ambient_dim},
        "rho": list(rho),
        "c_star": [],
        "universe": "",
        "claim": (
            "entropy condition certified over the stated enumeration "
            "universe only; tight (non-strict) at basic subflags, strict "
            "after threshold perturbation"
        ),
        "basic_slacks": {},
        "basic_tight_ok": False,
        "nonbasic_min_slack": None,
        "nonbasic_ok": False,
        "gap_checks": [],
        "gap_ok": False,
        "invariant_intermediate": None,
        "perturbed": {},  # str(eps) -> {"min_slack":..., "ok":...}
        "perturbed_ok": False,
        "failures": [],
        "ok": False,
        "entropy_report": None,
    }


def certify_system(
    flag: Flag, eps_list: Sequence[float] = PERTURB_EPSILONS
) -> tuple[Optional[System], dict]:
    """Build the extremal system for a flag and verify everything checkable.

    Returns the system and its cubeflags.certificate.v1 document.  Failures
    are collected in the document rather than raised, so a failing flag still
    yields a complete diagnostic record.  Every epsilon must be finite and
    > 0; one too coarse for c* is recorded as infeasible.

    A binary flag's rho is solve_rho_chain(max(r - 1, 1)): mu* of order r
    reads rho_1 .. rho_{r-1}, so order 1 reads none, yet its certificate
    reports rho_1 where `measures` reports no rho; the check-binary-1 digest
    pins that field.
    """
    if not all(0.0 < eps < math.inf for eps in eps_list):
        raise ValueError(f"perturbation epsilons must be finite and > 0, got {list(eps_list)}")
    if flag.kind == "binary":
        sol = solve_rho_chain(max(flag.order - 1, 1))[0]
    else:
        sol = solve_flag_rhos(flag)
    cert = _certificate(flag, sol.rhos)
    failures = cert["failures"]

    try:
        system, data = optimal_system(flag, sol)
    except DegenerateParametersError as exc:
        failures.append(f"optimal parameters do not exist: {exc}")
        return None, cert

    r = flag.order
    c_star = system.thresholds
    d = [W.dim for W in flag.spaces]
    H = data.entropy

    report = check_entropy_condition(system)

    basic_slacks = {
        e.basic_m: e.slack for e in report.entries if e.basic_m is not None
    }
    basic_tight_ok = len(basic_slacks) == r and all(
        abs(s) <= TIGHT_BAND for s in basic_slacks.values()
    )
    if not basic_tight_ok:
        failures.append(f"basic subflag slacks not tight within {TIGHT_BAND}: {basic_slacks}")

    nonbasic = [
        e for e in report.entries if not e.is_full and e.basic_m is None
    ]
    nonbasic_min = min((e.slack for e in nonbasic), default=None)
    nonbasic_ok = nonbasic_min is None or nonbasic_min > NONBASIC_SLACK_MIN
    if not nonbasic_ok:
        failures.append(
            f"non-basic enumerated slack {nonbasic_min} <= {NONBASIC_SLACK_MIN}"
        )

    gap_checks = []
    for m in range(r):
        val = H[m][m]
        bound = float(d[m + 1] - d[m])
        label = f"H(mu_{m + 1}, V_{m}) > dim(V_{m + 1}/V_{m})"
        gap_checks.append({"label": label, "value": val, "bound": bound, "ok": val > bound})
    for i in range(2, r + 1):
        for m in range(1, i):
            val = H[i - 1][m - 1] - H[i - 1][m]
            bound = float(d[m] - d[m - 1])
            label = f"H(mu_{i}, V_{m - 1}) - H(mu_{i}, V_{m}) < dim(V_{m}/V_{m - 1})"
            gap_checks.append({"label": label, "value": val, "bound": bound, "ok": val < bound})
    gap_ok = all(g["ok"] for g in gap_checks)
    if not gap_ok:
        failures.append("entropy gap inequality failed: " + "; ".join(
            g["label"] for g in gap_checks if not g["ok"]
        ))

    invariant_info = None
    if flag.kind == "binary" and r <= 2:
        gens = automorphism_generators(flag)
        offenders = []
        scanned = 0
        for i in range(1, r + 1):
            for W in level_universe(flag.spaces[i], flags.SUBFLAG_SPACE_CAP, i):  # cached by the sweep
                if W.dim <= flag.spaces[i - 1].dim or W.dim >= flag.spaces[i].dim:
                    continue
                if not contains_subspace(W, flag.spaces[i - 1]):
                    continue
                scanned += 1
                if all(permute_subspace(g, W) == W for g in gens):
                    offenders.append((i, W.basis))
        invariant_info = {
            "scanned": scanned,
            "invariant_intermediate_found": len(offenders),
            "ok": not offenders,
        }
        if offenders:
            failures.append("invariant intermediate subspace found (gap hypothesis broken)")

    perturbed = {}

    def _run_perturbed(eps: float) -> Optional[bool]:
        c_tilde = perturb_thresholds(c_star, eps)
        if c_tilde[-1] <= 0.0:
            # the shift exceeds c_{r+1}: this epsilon is too coarse here
            perturbed[str(eps)] = {"min_slack": None, "ok": None, "infeasible": True}
            return None
        rep = score_entries(c_tilde, d, report.entries)
        ok = rep.min_slack > 0.0
        perturbed[str(eps)] = {"min_slack": rep.min_slack, "ok": ok}
        return ok

    outcomes = [_run_perturbed(eps) for eps in eps_list]
    if all(o is None for o in outcomes):
        # every requested epsilon was infeasible; strictness still needs a
        # witness, so shrink until the perturbation fits under c_{r+1}
        eps = c_star[-1] / 10.0
        while _run_perturbed(eps) is None:
            eps /= 10.0
        outcomes.append(perturbed[str(eps)]["ok"])
    perturbed_ok = all(o for o in outcomes if o is not None)
    if not perturbed_ok:
        failures.append("perturbed thresholds did not yield strictly positive slacks")

    cert.update(
        c_star=list(c_star),
        universe=SUBFLAG_UNIVERSE_TAG,
        basic_slacks={str(m): slack for m, slack in basic_slacks.items()},
        basic_tight_ok=basic_tight_ok,
        nonbasic_min_slack=nonbasic_min,
        nonbasic_ok=nonbasic_ok,
        gap_checks=gap_checks,
        gap_ok=gap_ok,
        invariant_intermediate=invariant_info,
        perturbed=perturbed,
        perturbed_ok=perturbed_ok,
        ok=not failures,
        entropy_report=report.to_json_dict(),
    )
    return system, cert


def measures_json_dict(data: OptimalData) -> dict:
    """Machine dump of mu*, c*, and the entropy matrix."""
    from .flags import point_to_string

    flag = data.flag
    c = optimal_parameters(data)
    return {
        "schema": "cubeflags.measures.v1",
        "flag": {"kind": flag.kind, "order": flag.order, "ambient_dim": flag.ambient_dim},
        "rho": list(data.rho.rhos),
        "c_star": list(c),
        "mu_star": {
            point_to_string(p): float(w) for p, w in sorted(data.mu_star.weights.items())
        },
        "gamma_masses": [float(x) for x in data.gamma_masses],
        "entropy_matrix": [[float(x) for x in row] for row in data.entropy],
    }
