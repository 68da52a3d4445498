"""The cell-tree recursion, its fixed-point equations, and the named constants.

For a flag with cell tree T, define f^C = 1 on level-0 cells and
f^C = sum over children C' of (f^{C'})^{rho_{i-1}} at level i (rho_0 = 0).
The chain of equations

    f^{Gamma_{j+1}} = (f^{Gamma_j})^{rho_j} * exp(dim(V_{j+1}/V_j))

pins down rho_1, rho_2, ... one at a time; each is the unique root in (0,1)
of a monotone one-variable function phi_j, and one chain loop solves them
in turn.  Regula falsi brackets each root, then bisection's loop is replayed
with phi_j evaluated only inside that bracket; whenever phi_j is monotone in
floats (possibly flat at zero) that returns bisection's own float.  Three
routes supply the phi_j: the cell tree, for any flag (solve_flag_rhos), and
for the binary family two more:

  * the genotype recursion F(g) = sum_{g' <= g*} 2^{|g|-|g*|-|g'|} F(g')^rho,
    equal to f^C for any cell of genotype g;
  * a double recursion a_{i,1} = 2, a_{i,2} = 2 + 2^x,
    a_{i,j} = a_{i,j-1}^2 + a_{i-1,j-1}^x - a_{i-1,j-2}^{2x}  (x = rho_{i-1}),
    for which F(g) = prod_m a_{i,m}^{D^m(g)} with the defect exponents D^m,
    and in particular f^{Gamma_i} = a_{i,i+1}.

a_{i,j} is doubly exponential in j (a_{i,13} ~ 2^4096), so the a-rows are kept
in the log domain with log1p steps; error analysis shows doubles retain 11+
digits through j = 13.  One row step builds row 1, the chain rows and the
limit row, and `sol, rows = solve_rho_chain(13)` returns the rows as a list.
The limit rho of the rho_j satisfies a single scalar equation with a rapidly
convergent series over the limit row, solved the same way.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import exp, log, log1p
from operator import le
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapacityError, NumericInstabilityError
from .flags import Cell, CellTree, Flag, Genotype, cell_tree, cube_points, defects, span

LOG2 = log(2.0)
LOG3 = log(3.0)
MAX_GENOTYPE_F_LEVEL = 4
BISECT_WIDTH = 1e-14
LIMIT_SERIES_TERMS = 60
CHAIN_J = 13  # constants and theta solve the chain this far (11+ digits, see above)
MAX_THETA_R = 20  # constants reports theta_1 .. theta_20
# row max_j + 1 of the chain reaches column max_j + 3, whose crude upper
# bound is 2^(max_j + 2) log 2; past this max_j that power leaves the floats
MAX_RHO_CHAIN_J = sys.float_info.max_exp - 3


# ---------------------------------------------------------------------------
# Direct tree evaluation


def _f_layer(tree: CellTree, level: int, below: list, rho: float) -> list:
    """f for every cell of the given level, from below, the f values one
    level down by cell index; rho is the exponent of this level."""
    return [math.fsum(below[j] ** rho for j in kids) for kids in tree.child_ids[level]]


def f_cell_direct(tree_or_flag, cell: Cell, rhos: Sequence[float]) -> float:
    """Evaluate f^C on the cell tree over C's members (brute-force oracle).

    rho_0 = 0 by convention; rhos[j-1] is the exponent used at level j+1, so
    a length of level-1 suffices for a cell at the given level.
    """
    if isinstance(tree_or_flag, CellTree):
        tree = tree_or_flag
    else:  # the cube points of V_i + <least member> hold C's whole V_i-coset
        V = tree_or_flag.spaces[cell.level]
        tree = cell_tree(tree_or_flag, tuple(cube_points(span([*V.basis, cell.members[0]]))))
    if cell.level >= 2 and len(rhos) < cell.level - 1:
        raise ValueError(f"need {cell.level - 1} rho values for a level-{cell.level} cell")

    # levels are sorted by least member
    cells = tree.levels[cell.level]
    idx = bisect_left(cells, cell.members[0], key=lambda c: c.members[0])
    if idx == len(cells) or cells[idx].members[0] != cell.members[0]:
        raise KeyError(cell.members[0])
    sub = cell_tree(tree.flag, cells[idx].members)  # the cell is its level's only one
    f = [1.0] * len(sub.levels[0])
    for level in range(1, cell.level + 1):
        f = _f_layer(sub, level, f, 0.0 if level == 1 else float(rhos[level - 2]))
    return f[0]


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
# Log-domain a-rows


# _check_crude_bounds's bounds of columns 1, 2, ..., widened by 1e-9; each
# column's are computed once, when a row first reaches it
_CRUDE_LOWS: list[float] = []
_CRUDE_HIGHS: list[float] = []


def _check_crude_bounds(row: list, i: int):
    # 3^(2^(j-2)) <= a_{i,j} <= 2^(2^(j-1)), with equality possible at both ends
    for j in range(len(_CRUDE_LOWS) + 1, len(row)):
        _CRUDE_LOWS.append(2.0 ** (j - 2) * LOG3 - 1e-9)
        _CRUDE_HIGHS.append(2.0 ** (j - 1) * LOG2 + 1e-9)
    entries = row[1:]
    if all(map(le, _CRUDE_LOWS, entries)) and all(map(le, entries, _CRUDE_HIGHS)):
        return
    j = next(j for j, x in enumerate(entries, 1) if not _CRUDE_LOWS[j - 1] <= x <= _CRUDE_HIGHS[j - 1])
    raise NumericInstabilityError(
        f"a-table entry log a[{i}][{j}] = {row[j]!r} violates the crude bounds "
        f"[{2.0 ** (j - 2) * LOG3!r}, {2.0 ** (j - 1) * LOG2!r}]"
    )


def _a_row(x: float, ncols: int, prev: Optional[list] = None) -> list:
    """Row [None, log a_{i,1}, ..., log a_{i,ncols}] with x = rho_{i-1}.

    L[i][j] = 2 L[i][j-1] + log1p(exp(x L[i-1][j-1] - 2 L[i][j-1])
                                  - exp(2 x L[i-1][j-2] - 2 L[i][j-1])),
    where prev is row i-1; with prev None the row is its own predecessor,
    as the limit row is.  At x = 0 the predecessor drops out, so row 1 is
    _a_row(0.0, ncols).
    """
    row = [None, LOG2, log(2.0 + 2.0**x)]
    up = row if prev is None else prev
    for j in range(3, ncols + 1):
        t = 2.0 * row[j - 1]
        row.append(t + log1p(exp(x * up[j - 1] - t) - exp(2.0 * x * up[j - 2] - t)))
    return row


def extend_a_row(x: float, ncols: int, prev: list, i: int) -> list:
    """Chain row i >= 2 from row i-1 with candidate rho_{i-1} = x; every entry
    is checked against the crude a-priori bounds."""
    row = _a_row(x, ncols, prev)
    _check_crude_bounds(row, i)
    return row


def _sign(v: float) -> int:
    return (v > 0) - (v < 0)


def _bisect(phi, a: float, b: float, width: float, what: str) -> float:
    """Root of the monotone phi on [a, b]: the float that bisection returns.

    Bisection halves [a, b] until it is at most width wide or float
    resolution is exhausted, and returns its midpoint; an exact zero of phi
    met on the way (endpoints included) is returned as is.  Illinois regula
    falsi first narrows a signed bracket lo < root < hi, then bisection's
    loop is replayed with phi evaluated only at midpoints strictly inside
    (lo, hi): outside it, monotonicity fixes the sign.  So when phi is
    monotone in floats, possibly flat at zero, the result is bisection's to
    the bit, from ~10 evaluations instead of ~50.  When phi(a) and phi(b)
    have one sign, or are both zero, it raises NumericInstabilityError
    naming the equation.

    The shipped chain equations are not monotone in floats within a few
    ulps of their roots: phi_1 near 0.30648100933045 changes sign back and
    forth (+, 0, +, -, 0, - over 20 consecutive floats).  So that this
    matches bisection on those equations rests on the tests that compare it
    under == with plain bisection (reference_bisect in tests/conftest.py),
    not on the argument above.
    """
    fa, fb = phi(a), phi(b)
    if _sign(fa) == _sign(fb):
        raise NumericInstabilityError(
            f"no root in ({a:g},{b:g}) for {what}: phi({a:g})={fa}, phi({b:g})={fb}"
        )
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    neg = fa < 0
    lo, flo, hi, fhi = a, fa, b, fb
    kept = 0  # n > 0: the last n steps kept hi; n < 0: they kept lo
    while hi - lo > 0.5 * width:  # narrower than the last bisection step: the replay probes ~1 midpoint
        x = lo - flo * ((hi - lo) / (fhi - flo))
        if abs(kept) > 2 or not lo < x < hi:  # the secant stalls: halve the bracket instead
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # float resolution exhausted
                break
        fx = phi(x)
        if fx == 0.0:
            # off bisection's path a zero gives no sign; a point either side
            # of it, a quarter of the final width away, usually has one
            step = max(0.25 * width, math.ulp(x))
            if lo < x - step and _sign(phi(x - step)) == _sign(fa):
                lo = x - step
            if x + step < hi and _sign(phi(x + step)) == _sign(fb):
                hi = x + step
            break
        if (fx < 0) == neg:
            lo, flo = x, fx
            kept = max(kept, 0) + 1
            if kept > 1:
                fhi *= 0.5
        else:
            hi, fhi = x, fx
            kept = min(kept, 0) - 1
            if kept < -1:
                flo *= 0.5
    while b - a > width:
        m = 0.5 * (a + b)
        if m == a or m == b:  # float resolution exhausted
            break
        if m <= lo:
            a = m
        elif m >= hi:
            b = m
        else:
            fm = phi(m)
            if fm == 0.0:
                return m
            if (fm < 0) == neg:
                a = m
            else:
                b = m
    return 0.5 * (a + b)


@dataclass(frozen=True)
class RhoSolution:
    """Solved rho_1..rho_J with per-equation residuals |phi_j(rho_j)|."""

    rhos: tuple[float, ...]
    residuals: tuple[float, ...]

    def __post_init__(self):
        for x in self.rhos:
            if not 0.0 < x < 1.0:
                raise NumericInstabilityError(f"rho value {x} outside (0,1)")
        if any(x > self.rhos[0] + 1e-12 for x in self.rhos):
            raise NumericInstabilityError(f"rho_j must not exceed rho_1: {self.rhos}")

    def padded(self) -> Iterator[float]:
        """The rho values, then the limit for ever (solved only if reached)."""
        yield from self.rhos
        yield from repeat(rho_limit().value)


def _solve_chain(n: int, equation, what: str) -> RhoSolution:
    """Solve rho_1..rho_n in turn, each the root in (0,1) of its phi_j.

    equation(j, rhos) returns phi_j given rhos = [rho_1, ..., rho_{j-1}], a
    list that grows as the chain is solved; what.format(j) names it in errors.
    """
    rhos: list[float] = []
    residuals = []
    for j in range(1, n + 1):
        phi = equation(j, rhos)
        x = _bisect(phi, 0.0, 1.0, BISECT_WIDTH, what.format(j))
        rhos.append(x)
        residuals.append(abs(phi(x)))
    return RhoSolution(tuple(rhos), tuple(residuals))


def solve_rho_chain(max_j: int) -> tuple[RhoSolution, list]:
    """Solve rho_1..rho_max_j for the binary family via the a-recursion.

    phi_j(x) = L[j+1][j+2](x) - x L[j][j+1] - 2^j, with row j+1 built from x.
    Returns the solution and rows, where rows[i] (i = 1..max_j+1) is row i
    out to column i+2 and rows[0] is None.
    """
    if max_j < 0:
        raise ValueError(f"max_j must be >= 0, got {max_j}")
    if max_j > MAX_RHO_CHAIN_J:
        raise CapacityError(f"rho chain guard: max_j {max_j} > {MAX_RHO_CHAIN_J}, past which "
                            "the a-table bounds overflow double precision")
    rows = [None, _a_row(0.0, 3)]

    def equation(j: int, rhos: list):
        if j > 1:  # row j, from the rho_{j-1} just solved
            rows.append(extend_a_row(rhos[-1], j + 2, rows[j - 1], j))
        prev, pow2j = rows[j], 2.0**j
        return lambda x: extend_a_row(x, j + 2, prev, j + 1)[j + 2] - x * prev[j + 1] - pow2j

    sol = _solve_chain(max_j, equation, "the rho_{} equation")
    if max_j:
        rows.append(extend_a_row(sol.rhos[-1], max_j + 3, rows[max_j], max_j + 1))
    return sol, rows


def solve_rho_chain_genotype(max_j: int) -> RhoSolution:
    """Solve the chain via the genotype recursion (levels <= 4, so j <= 3)."""
    if max_j > MAX_GENOTYPE_F_LEVEL - 1:
        raise CapacityError(f"genotype route supports j <= {MAX_GENOTYPE_F_LEVEL - 1}")

    def equation(j: int, rhos: list):
        log_fj = log(F_genotype(Genotype.full(j), rhos))
        nxt, pow2j = Genotype.full(j + 1), 2.0**j
        return lambda x: log(F_genotype(nxt, rhos + [x])) - x * log_fj - pow2j

    return _solve_chain(max_j, equation, "the rho_{} equation (genotype route)")


def solve_flag_rhos(flag: Flag) -> RhoSolution:
    """Solve the fixed-point equations of an arbitrary flag on its cell tree.

    Equation j reads f at level j only on the children of Gamma_{j+1}, and
    rho_j does not change those values, so f is built one level at a time
    on the cell tree over Gamma_r = V_r /\\ {0,1}^k, whose level-i cell 0 is
    Gamma_i, as the rho_j come in.
    """
    tree = cell_tree(flag, tuple(cube_points(flag.spaces[-1])))
    f = [1.0] * len(tree.levels[0])

    def equation(j: int, rhos: list):
        nonlocal f
        f = _f_layer(tree, j, f, 0.0 if j == 1 else rhos[j - 2])
        kids = [f[c] for c in tree.child_ids[j + 1][0]]
        d = flag.spaces[j + 1].dim - flag.spaces[j].dim
        log_fj = log(f[0])
        return lambda x: log(math.fsum(v ** x for v in kids)) - x * log_fj - d

    return _solve_chain(flag.order - 1, equation, "equation {}")


def product_formula(g: Genotype, rows: list) -> float:
    """log F(g) = sum_m D^m(g) * L[i][m] from the defect exponents."""
    i = g.level
    if not 0 < i < len(rows):
        raise ValueError(f"a-table row {i} missing")
    row = rows[i]
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


def _limit_series_gap(rho: float) -> tuple[float, int, float]:
    """1/(1 - rho/2) - [log 2 + series]; returns (gap, terms, tail bound)."""
    ell = _a_row(rho, LIMIT_SERIES_TERMS + 1)
    s = LOG2
    used = 0
    tail = 0.0
    for j in range(1, LIMIT_SERIES_TERMS + 1):
        q = exp(rho * ell[j] - ell[j + 1])
        term = (log1p(q) - log1p(-q)) / 2.0**j
        s += term
        used = j
        tail = 2.0 * term  # terms decay doubly exponentially
        if term == 0.0:
            break
    return 1.0 / (1.0 - rho / 2.0) - s, used, tail


@lru_cache(maxsize=8)
def rho_limit(tolerance: float = 1e-15) -> RhoLimitResult:
    """Solve the scalar limit equation for rho = lim rho_j; see _bisect.

    The series is truncated once a term vanishes to double precision (always
    long before LIMIT_SERIES_TERMS; term j is of order (2/3)^(2^(j-1))).  A
    zero tolerance bisects down to float resolution.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    x = _bisect(lambda r: _limit_series_gap(r)[0], 0.1, 0.9, tolerance, "the limit equation")
    gap, used, tail = _limit_series_gap(x)
    return RhoLimitResult(x, used, tail, abs(gap))


def eta(rho: float) -> float:
    """The divisor-concentration exponent log 2 / log(2 / rho)."""
    return LOG2 / log(2.0 / rho)


def gamma_res(dims: Iterable[int], sol: RhoSolution) -> float:
    """(log 3 - 1) / (log 3 + sum_i dims[i-1] / (rho_1 ... rho_i)).

    dims lists the increments dim(V_{i+1}/V_i) for i = 1..r-1; they and the
    rhos are consumed one at a time.  Raises NumericInstabilityError once the
    product of the rhos underflows to 0 or the sum overflows, rather than
    dividing by zero or returning 0.
    """
    s = LOG3
    prod = 1.0
    for i, (d, x) in enumerate(zip(dims, sol.padded()), start=1):
        prod *= x
        if prod == 0.0:
            raise NumericInstabilityError(f"rho_1 ... rho_{i} underflows to 0 in double precision")
        s += d / prod
        if not math.isfinite(s):
            raise NumericInstabilityError(f"the gamma denominator overflows at i = {i}")
    return (LOG3 - 1.0) / s


def theta(r: int, sol: RhoSolution) -> float:
    """theta_r: gamma_res of the order-r binary flag (increments 2^i)."""
    if r < 1:
        raise ValueError(f"theta_r needs r >= 1, got r = {r}")
    # lazily: on the chain's rhos the sum overflows at i = 362, whatever r is
    return gamma_res((2**i for i in range(1, r)), sol)


def constants() -> dict:
    """Every named constant, from its closed form or solved chain, as the
    `cubeflags.constants.v1` document: 13 scalars, then theta_1 .. theta_20
    keyed "1" .. "20"."""
    sol, _ = solve_rho_chain(CHAIN_J)
    lim = rho_limit().value
    log_e1 = log(math.e - 1.0)
    xi = (LOG2 - log_e1) / log(1.5)
    lam = (LOG2 - log_e1) / (1.0 + LOG2 - log_e1 - log1p(2.0 ** (1.0 - xi)))
    kappa = (LOG2 - log_e1) / (LOG2 + 1.0 - log_e1)
    return {
        "schema": "cubeflags.constants.v1",
        "rho_limit": lim,
        "eta": eta(lim),
        "beta2": 1.0 - 1.0 / LOG3,
        "beta3": (LOG3 - 1.0) / (LOG3 + 1.0 / xi),
        "beta4": (LOG3 - 1.0) / (LOG3 + 1.0 / xi + 1.0 / (xi * lam)),
        "xi": xi,
        "lambda": lam,
        "mt_kappa": kappa,
        "mt_rho1": (LOG2 - log_e1) / LOG3,
        "mt_exponent_1984": -LOG2 / log(1.0 - 1.0 / LOG3),
        "mt_exponent_2009": LOG2 / log((1.0 - 1.0 / log(27.0)) / (1.0 - 1.0 / LOG3)),
        "mt_base": kappa,
        "binary_base": lim / 2.0,
        "theta": {str(r): theta(r, sol) for r in range(1, MAX_THETA_R + 1)},
    }
