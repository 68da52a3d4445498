"""The cell-tree recursion, its fixed-point equations, and the named constants.

For a flag with cell tree T, define f^C = 1 on level-0 cells and
f^C = sum over children C' of (f^{C'})^{rho_{i-1}} at level i (rho_0 = 0).
The chain of equations

    f^{Gamma_{j+1}} = (f^{Gamma_j})^{rho_j} * exp(dim(V_{j+1}/V_j))

pins down rho_1, rho_2, ... one at a time; each is the unique root in (0,1)
of a monotone one-variable function.  For the binary family these admit two
independent evaluation routes:

  * the genotype recursion F(g) = sum_{g' <= g*} 2^{|g|-|g*|-|g'|} F(g')^rho,
    equal to f^C for any cell of genotype g;
  * a double recursion a_{i,1} = 2, a_{i,2} = 2 + 2^x,
    a_{i,j} = a_{i,j-1}^2 + a_{i-1,j-1}^x - a_{i-1,j-2}^{2x}  (x = rho_{i-1}),
    for which F(g) = prod_m a_{i,m}^{D^m(g)} with the defect exponents D^m,
    and in particular f^{Gamma_i} = a_{i,i+1}.

a_{i,j} is doubly exponential in j (a_{i,13} ~ 2^4096), so the a-table is kept
in the log domain with log1p/expm1 steps; error analysis shows doubles retain
11+ digits through j = 13.  The limit rho of the rho_j satisfies a single
scalar equation with a rapidly convergent series, solved here by bisection.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from math import exp, log, log1p
from typing import Optional, Sequence

from .errors import CapacityError, NumericInstabilityError
from .flags import Cell, CellTree, Flag, Genotype, cell_tree, defects

LOG2 = log(2.0)
LOG3 = log(3.0)
MAX_GENOTYPE_F_LEVEL = 4
BISECT_WIDTH = 1e-14
LIMIT_SERIES_TERMS = 60


# ---------------------------------------------------------------------------
# Direct tree evaluation


def f_cell_direct(tree_or_flag, cell: Cell, rhos: Sequence[float]) -> float:
    """Evaluate f^C on the materialized cell tree (brute-force oracle).

    rho_0 = 0 by convention; rhos[j-1] is the exponent used at level j+1, so
    a length of level-1 suffices for a cell at the given level.
    """
    tree = tree_or_flag if isinstance(tree_or_flag, CellTree) else cell_tree(tree_or_flag)
    if cell.level >= 2 and len(rhos) < cell.level - 1:
        raise ValueError(f"need {cell.level - 1} rho values for a level-{cell.level} cell")

    # levels are sorted by least member
    cells = tree.levels[cell.level]
    idx = bisect_left(cells, cell.members[0], key=lambda c: c.members[0])
    if idx == len(cells) or cells[idx].members[0] != cell.members[0]:
        raise KeyError(cell.members[0])
    memo: dict = {}

    def rec(level: int, idx: int) -> float:
        if level == 0:
            return 1.0
        key = (level, idx)
        val = memo.get(key)
        if val is None:
            rho = 0.0 if level == 1 else float(rhos[level - 2])
            val = math.fsum(rec(level - 1, j) ** rho for j in tree.child_ids[level][idx])
            memo[key] = val
        return val

    return rec(cell.level, idx)


# ---------------------------------------------------------------------------
# Genotype evaluation (binary flags; no cube materialization)


@lru_cache(maxsize=64)
def _F_level_table(level: int, rhos: tuple[float, ...]) -> tuple[float, ...]:
    """F(g) for every genotype mask at the given level.

    Level i needs rhos[0..i-2].  Uses a subset-sum (SOS) transform per level:
    T[m] = sum_{g' <= m} 2^{-|g'|} F(g')^rho, then F(g) = 2^{|g|-|g*|} T[g*].
    """
    if level > MAX_GENOTYPE_F_LEVEL:
        raise CapacityError(f"genotype table guard: level {level} > {MAX_GENOTYPE_F_LEVEL}")
    if level == 0:
        return (1.0, 1.0)
    prev = _F_level_table(level - 1, rhos[: max(0, level - 2)])
    rho = 0.0 if level == 1 else float(rhos[level - 2])
    nprev = 1 << (level - 1)
    T = [prev[m] ** rho * 0.5 ** m.bit_count() for m in range(1 << nprev)]
    for b in range(nprev):
        bit = 1 << b
        for m in range(1 << nprev):
            if m & bit:
                T[m] += T[m ^ bit]
    shift = 1 << (level - 1)
    lowmask = (1 << shift) - 1
    out = []
    for mask in range(1 << (1 << level)):
        gstar = mask & lowmask & (mask >> shift)
        out.append(2.0 ** (mask.bit_count() - gstar.bit_count()) * T[gstar])
    return tuple(out)


def F_genotype(g: Genotype, rhos: Sequence[float]) -> float:
    """F(g): the common value of f^C over binary-flag cells of genotype g."""
    need = max(0, g.level - 1)
    return _F_level_table(g.level, tuple(float(x) for x in rhos[:need]))[g.mask]


# ---------------------------------------------------------------------------
# Log-domain a-table


@dataclass
class LogATable:
    """Rows L[i][j] = log a_{i,j}; row i is built with x = rho_{i-1}.

    rows[i] is a list indexed from 1 (index 0 unused); row i of length >= i+1
    is enough to carry the chain forward.  rho[i-1] records the x used for
    row i (rho[0] = 0 by convention).
    """

    rows: dict = field(default_factory=dict)
    rho: dict = field(default_factory=dict)

    def ensure_row1(self, ncols: int):
        # rho_0 = 0: a_{1,1} = 2, a_{1,2} = 3, a_{1,j} = a_{1,j-1}^2
        row = [None, LOG2, LOG3]
        for _ in range(3, ncols + 1):
            row.append(2.0 * row[-1])
        self.rows[1] = row
        self.rho[1] = 0.0

    def L(self, i: int, j: int) -> float:
        return self.rows[i][j]


def _check_crude_bounds(row: list, i: int):
    # 3^(2^(j-2)) <= a_{i,j} <= 2^(2^(j-1)), with equality possible at both ends
    for j in range(1, len(row)):
        lo = 2.0 ** (j - 2) * LOG3
        hi = 2.0 ** (j - 1) * LOG2
        if not (lo - 1e-9 <= row[j] <= hi + 1e-9):
            raise NumericInstabilityError(
                f"a-table entry log a[{i}][{j}] = {row[j]!r} violates the crude bounds "
                f"[{lo!r}, {hi!r}]"
            )


def extend_a_row(table: LogATable, i: int, x: float, ncols: Optional[int] = None) -> list:
    """Compute row i in the log domain from row i-1 with candidate rho_{i-1} = x.

    L[i][j] = 2 L[i][j-1] + log1p(exp(x L[i-1][j-1] - 2 L[i][j-1])
                                  - exp(2 x L[i-1][j-2] - 2 L[i][j-1])).
    Every entry is checked against the crude a-priori bounds.
    """
    if i == 1:
        table.ensure_row1(ncols or 3)
        return table.rows[1]
    prev = table.rows.get(i - 1)
    if prev is None:
        raise ValueError(f"row {i - 1} missing")
    if ncols is None:
        ncols = len(prev)  # the longest row the stored prefix supports
    row = [None, LOG2, log(2.0 + 2.0**x)]
    for j in range(3, ncols + 1):
        t = 2.0 * row[j - 1]
        u = x * prev[j - 1] - t
        v = 2.0 * x * prev[j - 2] - t
        row.append(t + log1p(exp(u) - exp(v)))
    _check_crude_bounds(row, i)
    return row


def solve_rho_j(j: int, table: LogATable) -> tuple[float, float]:
    """Root of phi(x) = L[j+1][j+2](x) - x L[j][j+1] - 2^j by bisection.

    Requires rows 1..j present (row j out to column j+1).  phi is strictly
    monotone on (0,1); a missing sign change signals an upstream numeric
    fault.  Returns (rho_j, |phi(rho_j)|); on return row j+1 is stored.
    """
    prev = table.rows[j]
    target = prev[j + 1]
    pow2j = 2.0**j

    def phi(x: float) -> float:
        row = extend_a_row(table, j + 1, x, ncols=j + 2)
        return row[j + 2] - x * target - pow2j

    a, b = 0.0, 1.0
    fa, fb = phi(a), phi(b)
    if fa == 0.0:
        a = b = 0.0
    elif fb == 0.0:
        a = b = 1.0
    elif (fa < 0) == (fb < 0):
        raise NumericInstabilityError(f"no sign change for rho_{j}: phi(0)={fa}, phi(1)={fb}")
    while b - a > BISECT_WIDTH:
        m = 0.5 * (a + b)
        fm = phi(m)
        if fm == 0.0:
            a = b = m
            break
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    x = 0.5 * (a + b)
    residual = abs(phi(x))
    table.rows[j + 1] = extend_a_row(table, j + 1, x, ncols=j + 3)
    table.rho[j + 1] = x
    return x, residual


@dataclass(frozen=True)
class RhoSolution:
    """Solved rho_1..rho_J with per-equation residuals |phi_j(rho_j)|."""

    rhos: tuple[float, ...]
    residuals: tuple[float, ...]
    method: str  # "a_recursion" | "genotype"

    def __post_init__(self):
        for x in self.rhos:
            if not 0.0 < x < 1.0:
                raise ValueError(f"rho value {x} outside (0,1)")
        if any(x > self.rhos[0] + 1e-12 for x in self.rhos):
            raise ValueError("rho_j must not exceed rho_1")

    def padded(self, n: int, limit: Optional[float] = None) -> tuple[float, ...]:
        """First n rho values, reusing the limit beyond the solved range."""
        if n <= len(self.rhos):
            return self.rhos[:n]
        fill = rho_limit().value if limit is None else limit
        return self.rhos + (fill,) * (n - len(self.rhos))


def solve_rho_chain(max_j: int) -> tuple[RhoSolution, LogATable]:
    """Solve rho_1..rho_max_j for the binary family via the a-recursion."""
    table = LogATable()
    table.ensure_row1(3)
    rhos, residuals = [], []
    for j in range(1, max_j + 1):
        # row j must extend to column j+1 before solving equation j
        need = j + 1
        if len(table.rows[j]) - 1 < need:
            row = table.rows[j]
            if j == 1:
                table.ensure_row1(need)
            else:
                table.rows[j] = extend_a_row(table, j, table.rho[j], ncols=need)
        x, res = solve_rho_j(j, table)
        rhos.append(x)
        residuals.append(res)
    return RhoSolution(tuple(rhos), tuple(residuals), "a_recursion"), table


def solve_rho_chain_genotype(max_j: int) -> RhoSolution:
    """Solve the chain via the genotype recursion (levels <= 4, so j <= 3)."""
    if max_j > MAX_GENOTYPE_F_LEVEL - 1:
        raise CapacityError(f"genotype route supports j <= {MAX_GENOTYPE_F_LEVEL - 1}")
    rhos: list[float] = []
    residuals = []
    for j in range(1, max_j + 1):
        top = Genotype.full(j)
        nxt = Genotype.full(j + 1)
        f_j = F_genotype(top, rhos)
        log_fj = log(f_j)
        pow2j = 2.0**j

        def phi(x: float) -> float:
            return log(F_genotype(nxt, rhos + [x])) - x * log_fj - pow2j

        a, b = 0.0, 1.0
        fa, fb = phi(a), phi(b)
        if (fa < 0) == (fb < 0):
            raise NumericInstabilityError(f"no sign change for rho_{j} (genotype route)")
        while b - a > BISECT_WIDTH:
            m = 0.5 * (a + b)
            fm = phi(m)
            if fm == 0.0:
                a = b = m
                break
            if (fm < 0) == (fa < 0):
                a, fa = m, fm
            else:
                b, fb = m, fm
        x = 0.5 * (a + b)
        rhos.append(x)
        residuals.append(abs(phi(x)))
    return RhoSolution(tuple(rhos), tuple(residuals), "genotype")


def solve_flag_rhos(flag: Flag) -> RhoSolution:
    """Solve the fixed-point equations of an arbitrary flag on its cell tree."""
    tree = cell_tree(flag)
    rhos: list[float] = []
    residuals = []
    for j in range(1, flag.order):
        gamma_j = tree.gamma(j)
        gamma_j1 = tree.gamma(j + 1)
        d = flag.spaces[j + 1].dim - flag.spaces[j].dim
        log_fj = log(f_cell_direct(tree, gamma_j, rhos))

        def phi(x: float) -> float:
            return log(f_cell_direct(tree, gamma_j1, rhos + [x])) - x * log_fj - d

        a, b = 0.0, 1.0
        fa, fb = phi(a), phi(b)
        if (fa < 0) == (fb < 0):
            raise NumericInstabilityError(
                f"no root in (0,1) for equation {j}: phi(0)={fa}, phi(1)={fb}"
            )
        while b - a > BISECT_WIDTH:
            m = 0.5 * (a + b)
            fm = phi(m)
            if fm == 0.0:
                a = b = m
                break
            if (fm < 0) == (fa < 0):
                a, fa = m, fm
            else:
                b, fb = m, fm
        x = 0.5 * (a + b)
        rhos.append(x)
        residuals.append(abs(phi(x)))
    return RhoSolution(tuple(rhos), tuple(residuals), "genotype")


def product_formula(g: Genotype, table: LogATable) -> float:
    """log F(g) = sum_m D^m(g) * L[i][m] from the defect exponents."""
    i = g.level
    if i not in table.rows:
        raise ValueError(f"a-table row {i} missing")
    row = table.rows[i]
    ds = defects(g)
    if len(row) - 1 < len(ds):
        raise ValueError(f"a-table row {i} too short: need column {len(ds)}")
    return math.fsum(d * row[m] for m, d in enumerate(ds, start=1) if d)


# ---------------------------------------------------------------------------
# The limit of the rho_j and the closed-form constants


@dataclass(frozen=True)
class RhoLimitResult:
    value: float
    terms_used: int
    tail_bound: float
    residual: float


def _limit_series_gap(rho: float, nterms: int) -> tuple[float, int, float]:
    """1/(1 - rho/2) - [log 2 + series]; returns (gap, terms, tail bound)."""
    ell = [None, LOG2, log(2.0 + 2.0**rho)]
    for j in range(3, nterms + 2):
        t = 2.0 * ell[j - 1]
        u = rho * ell[j - 1] - t
        v = 2.0 * rho * ell[j - 2] - t
        ell.append(t + log1p(exp(u) - exp(v)))
    s = LOG2
    used = 0
    tail = 0.0
    for j in range(1, nterms + 1):
        q = exp(rho * ell[j] - ell[j + 1])
        term = (log1p(q) - log1p(-q)) / 2.0**j
        s += term
        used = j
        tail = 2.0 * term  # terms decay doubly exponentially
        if term == 0.0:
            break
    return 1.0 / (1.0 - rho / 2.0) - s, used, tail


@lru_cache(maxsize=8)
def rho_limit(tolerance: float = 1e-15, max_terms: int = LIMIT_SERIES_TERMS) -> RhoLimitResult:
    """Solve the scalar limit equation for rho = lim rho_j by bisection.

    The series is truncated once a term vanishes to double precision (always
    long before max_terms; term j is of order (2/3)^(2^(j-1))).
    """
    a, b = 0.1, 0.9
    fa, _, _ = _limit_series_gap(a, max_terms)
    fb, _, _ = _limit_series_gap(b, max_terms)
    if (fa < 0) == (fb < 0):
        raise NumericInstabilityError("limit equation has no sign change on [0.1, 0.9]")
    while b - a > tolerance:
        m = 0.5 * (a + b)
        if m == a or m == b:  # float resolution exhausted
            break
        fm, _, _ = _limit_series_gap(m, max_terms)
        if fm == 0.0:
            a = b = m
            break
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    x = 0.5 * (a + b)
    gap, used, tail = _limit_series_gap(x, max_terms)
    return RhoLimitResult(x, used, tail, abs(gap))


def eta(rho: float) -> float:
    """The divisor-concentration exponent log 2 / log(2 / rho)."""
    return LOG2 / log(2.0 / rho)


def gamma_res(dims: Sequence[int], sol: RhoSolution, limit: Optional[float] = None) -> float:
    """(log 3 - 1) / (log 3 + sum_i dims[i-1] / (rho_1 ... rho_i)).

    dims lists the increments dim(V_{i+1}/V_i) for i = 1..r-1.
    """
    rhos = sol.padded(len(dims), limit)
    s = LOG3
    prod = 1.0
    for d, x in zip(dims, rhos):
        prod *= x
        s += d / prod
    return (LOG3 - 1.0) / s


def theta(r: int, sol: RhoSolution, limit: Optional[float] = None) -> float:
    """theta_r: gamma_res of the order-r binary flag (increments 2^i)."""
    return gamma_res([2**i for i in range(1, r)], sol, limit)


@dataclass(frozen=True)
class ConstantsReport:
    rho_limit: float
    eta: float
    theta: dict
    beta2: float
    beta3: float
    beta4: float
    xi: float
    lam: float
    mt_kappa: float
    mt_rho1: float
    mt_exponent_1984: float
    mt_exponent_2009: float
    mt_base: float
    binary_base: float

    def to_json_dict(self) -> dict:
        d = {
            "schema": "cubeflags.constants.v1",
            "rho_limit": self.rho_limit,
            "eta": self.eta,
            "beta2": self.beta2,
            "beta3": self.beta3,
            "beta4": self.beta4,
            "xi": self.xi,
            "lambda": self.lam,
            "mt_kappa": self.mt_kappa,
            "mt_rho1": self.mt_rho1,
            "mt_exponent_1984": self.mt_exponent_1984,
            "mt_exponent_2009": self.mt_exponent_2009,
            "mt_base": self.mt_base,
            "binary_base": self.binary_base,
            "theta": {str(r): v for r, v in sorted(self.theta.items())},
        }
        return d


def constants(max_theta_r: int = 20, table_j: int = 13) -> ConstantsReport:
    """Evaluate every named constant from its closed form or solved chain."""
    sol, _ = solve_rho_chain(table_j)
    lim = rho_limit()
    log_e1 = log(math.e - 1.0)
    xi = (LOG2 - log_e1) / log(1.5)
    lam = (LOG2 - log_e1) / (1.0 + LOG2 - log_e1 - log1p(2.0 ** (1.0 - xi)))
    kappa = (LOG2 - log_e1) / (LOG2 + 1.0 - log_e1)
    thetas = {r: theta(r, sol, lim.value) for r in range(1, max_theta_r + 1)}
    return ConstantsReport(
        rho_limit=lim.value,
        eta=eta(lim.value),
        theta=thetas,
        beta2=1.0 - 1.0 / LOG3,
        beta3=(LOG3 - 1.0) / (LOG3 + 1.0 / xi),
        beta4=(LOG3 - 1.0) / (LOG3 + 1.0 / xi + 1.0 / (xi * lam)),
        xi=xi,
        lam=lam,
        mt_kappa=kappa,
        mt_rho1=(LOG2 - log_e1) / LOG3,
        mt_exponent_1984=-LOG2 / log(1.0 - 1.0 / LOG3),
        mt_exponent_2009=LOG2 / log((1.0 - 1.0 / log(27.0)) / (1.0 - 1.0 / LOG3)),
        mt_base=kappa,
        binary_base=lim.value / 2.0,
    )
