"""Measures on the cube, coset entropies, e-values and the entropy checker.

The central quantity is the coset entropy H_nu(W): the Shannon entropy (in
nats) of the distribution that a finitely supported measure nu induces on the
cosets of a subspace W.  A system couples a flag with descending thresholds
c_1 >= ... >= c_{r+1} and measures mu_1..mu_r supported on V_i /\\ {0,1}^k;
its e-value on a subflag weighs coset entropies against dimension increments.
The checker walks the subflags as chains of indices into the per-level
universes (`flags.subflag_chains` tests containment on their point sets),
computes each coset entropy once per universe space, builds each entry once
with its e-value and slack e(V') - e(V), and builds no `Subflag`; the
perturbed re-check scores the stored entropies by the same `e_values`.

Coset grouping is exact, by int64 coset keys under an overflow guard
(`flags.coset_ids`); only the entropy itself is floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import qlinalg
from .errors import DimensionMismatchError
from .flags import SUBFLAG_UNIVERSE_TAG, Flag, Subflag, coset_ids, subflag_chains
from .qlinalg import Subspace, contains

MASS_TOL = 1e-12
#: |slack| below this band is reported as "tight" rather than pass/fail.
TIGHT_BAND = 1e-9


@dataclass(frozen=True)
class Measure:
    """A finitely supported probability measure on {0,1}^k.

    Weights may be floats or Fractions; they must be nonnegative and sum to 1
    (exactly for all-Fraction weights, within 1e-12 otherwise).
    """

    ambient_dim: int
    weights: dict

    def __post_init__(self):
        for p, w in self.weights.items():
            if len(p) != self.ambient_dim:
                raise DimensionMismatchError("support point of wrong dimension")
            if any(x not in (0, 1) for x in p):
                raise ValueError(f"support point not in the cube: {p}")
            if not math.isfinite(w):
                raise ValueError(f"weight {w!r} is not finite")
            if w < 0:
                raise ValueError("negative weight")
        if all(isinstance(w, (int, Fraction)) for w in self.weights.values()):
            total = sum(self.weights.values())
            if total != 1:
                raise ValueError(f"weights sum to {total}, expected exactly 1")
        else:
            total = math.fsum(self.weights.values())
            if abs(total - 1.0) > MASS_TOL:
                raise ValueError(f"weights sum to {total!r}, expected 1 within {MASS_TOL}")

    def support(self) -> list[tuple]:
        return sorted(p for p, w in self.weights.items() if w > 0)

    @staticmethod
    def uniform(points: Sequence[tuple]) -> "Measure":
        pts = [tuple(p) for p in points]
        w = Fraction(1, len(pts))
        return Measure(len(pts[0]), {p: w for p in pts})


def coset_entropy(nu: Measure, W: Subspace) -> float:
    """H_nu(W): entropy of the coset masses of W under nu, natural log.

    Each coset's mass sums its positive weights in the order of nu.weights
    (exactly for Fractions); a W whose coset keys overflow int64 is refused.
    """
    if W.ambient_dim != nu.ambient_dim:
        raise DimensionMismatchError("measure and subspace dimensions differ")
    support = [(p, w) for p, w in nu.weights.items() if w > 0]
    ids = coset_ids(W, np.array([p for p, _ in support], dtype=np.int64)).tolist()
    masses = [0] * (max(ids) + 1)
    for c, (_, w) in zip(ids, support):
        masses[c] += w
    return -math.fsum(float(m) * math.log(m) for m in masses)


def submodularity_defect(nu: Measure, W1: Subspace, W2: Subspace) -> float:
    """H(W1) + H(W2) - H(W1 /\\ W2) - H(W1 + W2); nonnegative in exact arithmetic."""
    return (
        coset_entropy(nu, W1)
        + coset_entropy(nu, W2)
        - coset_entropy(nu, qlinalg.subspace_intersect(W1, W2))
        - coset_entropy(nu, qlinalg.subspace_sum(W1, W2))
    )


@dataclass(frozen=True)
class System:
    """A flag with thresholds 1 >= c_1 >= ... >= c_{r+1} >= 0 and measures."""

    flag: Flag
    thresholds: tuple[float, ...]
    measures: tuple[Measure, ...]

    def __post_init__(self):
        r = self.flag.order
        if len(self.thresholds) != r + 1:
            raise ValueError(f"need {r + 1} thresholds, got {len(self.thresholds)}")
        if len(self.measures) != r:
            raise ValueError(f"need {r} measures, got {len(self.measures)}")
        c = self.thresholds
        if not all(math.isfinite(x) for x in c):
            raise ValueError(f"thresholds must be finite, got {c}")
        if c[0] > 1 + MASS_TOL or c[-1] < -MASS_TOL:
            raise ValueError("thresholds must lie in [0, 1]")
        if any(a < b - MASS_TOL for a, b in zip(c, c[1:])):
            raise ValueError("thresholds must be descending")
        for i, mu in enumerate(self.measures, start=1):
            V = self.flag.spaces[i]
            for p in mu.support():
                if not contains(V, p):
                    raise ValueError(f"supp(mu_{i}) not contained in V_{i}")


def _e_from_entropies(c: Sequence[float], dims: Sequence[int], entropies: Sequence) -> float:
    """The e-value from the dims of V' and entropies[j - 1] = H_{mu_j}(V'_j)."""
    r = len(entropies)
    ent = math.fsum((c[j - 1] - c[j]) * entropies[j - 1] for j in range(1, r + 1))
    dim_terms = math.fsum(c[j - 1] * (dims[j] - dims[j - 1]) for j in range(1, r + 1))
    return ent + dim_terms


def e_value(system: System, sf: Subflag) -> float:
    """sum_j (c_j - c_{j+1}) H_{mu_j}(V'_j) + sum_j c_j dim(V'_j / V'_{j-1})."""
    if sf.parent != system.flag:
        raise ValueError("subflag belongs to a different flag")
    entropies = [coset_entropy(mu, W) for mu, W in zip(system.measures, sf.spaces[1:])]
    return _e_from_entropies(system.thresholds, sf.dims(), entropies)


@dataclass(frozen=True)
class EEntry:
    id: int
    label: str
    dims: tuple[int, ...]
    e_value: float
    slack: float
    is_full: bool
    basic_m: Optional[int]  # m if this is the basic(m) subflag
    entropies: tuple[float, ...] = field(repr=False)  # H_{mu_j}(V'_j), j = 1..r


@dataclass(frozen=True)
class EReport:
    """Outcome of evaluating the e-value over an enumerated subflag universe."""

    e_full: float
    entries: tuple[EEntry, ...]
    min_slack: float  # over proper subflags
    argmin: int
    tight_ids: tuple[int, ...]  # |slack| <= TIGHT_BAND, proper subflags
    holds: bool  # every proper slack >= -TIGHT_BAND

    def to_json_dict(self) -> dict:
        return {
            "schema": "cubeflags.ereport.v1",
            "e_full": self.e_full,
            "min_slack": self.min_slack,
            "argmin": self.argmin,
            "universe": SUBFLAG_UNIVERSE_TAG,
            "holds": self.holds,
            "tight_ids": list(self.tight_ids),
            "entries": [
                {
                    "id": e.id,
                    "label": e.label,
                    "dims": list(e.dims),
                    "e_value": e.e_value,
                    "slack": e.slack,
                    "basic_m": e.basic_m,
                }
                for e in self.entries
            ],
        }


def e_values(c: Sequence[float], flag_dims: Sequence[int], rows: Sequence[tuple]) -> tuple[float, list[float]]:
    """At thresholds c: the full flag's e-value, and the e-value of each
    (dims, entropies) of rows, entropies[j - 1] = H_{mu_j}(V'_j).  The sweep
    and the perturbed re-check both score by it."""
    d = flag_dims
    e_full = math.fsum(c[j - 1] * (d[j] - d[j - 1]) for j in range(1, len(d)))
    return e_full, [_e_from_entropies(c, dims, entropies) for dims, entropies in rows]


def check_entropy_condition(system: System) -> EReport:
    """Evaluate e over the enumerated subflags, which include every basic one.

    Entries carry their deterministic enumeration id; argmin ties break to
    the lowest id.
    """
    flag, r = system.flag, system.flag.order
    universes, chains = subflag_chains(flag)
    H = [[coset_entropy(mu, U) for U in universe] for mu, universe in zip(system.measures, universes)]
    # at[i - 1][m]: the index of V_m in level i's universe, None if absent
    at = [[next((u for u, U in enumerate(universe) if U == V), None) for V in flag.spaces[: i + 1]]
          for i, universe in enumerate(universes, start=1)]
    # basics[m]: the chain of basic(m); a chain equal to several takes the lowest m
    basics = [tuple(at[i - 1][min(m, i)] for i in range(1, r + 1)) for m in range(r + 1)]
    basic = {basics[r]: ("full", None)}
    for m in range(r - 1, -1, -1):
        basic[basics[m]] = (f"basic({m})", m)
    rows = [((1, *(U[u].dim for U, u in zip(universes, chain))),  # dim V'_0 = dim <1>
             tuple(H[j][u] for j, u in enumerate(chain))) for chain in chains]
    e_full, values = e_values(system.thresholds, flag.dims(), rows)
    entries = []
    for idx, (chain, (dims, entropies), e) in enumerate(zip(chains, rows, values)):
        label, m = basic.get(chain, ("dims=" + ",".join(map(str, dims)), None))
        entries.append(EEntry(idx, label, dims, e, e - e_full, chain == basics[r], m, entropies))
    proper = [e for e in entries if not e.is_full]
    if proper:
        best = min(proper, key=lambda e: (e.slack, e.id))
        min_slack, argmin = best.slack, best.id
    else:
        min_slack, argmin = 0.0, entries[0].id if entries else -1
    return EReport(
        e_full=e_full,
        entries=tuple(entries),
        min_slack=min_slack,
        argmin=argmin,
        tight_ids=tuple(e.id for e in proper if abs(e.slack) <= TIGHT_BAND),
        holds=all(e.slack >= -TIGHT_BAND for e in proper),
    )


def perturb_thresholds(c: Sequence[float], eps: float) -> tuple[float, ...]:
    """Shift c_j by -(1/2) sum_{l<j} eps^l; keeps c_1 and strictifies descent."""
    out = [c[0]]
    for j in range(2, len(c) + 1):
        shift = 0.5 * math.fsum(eps**l for l in range(1, j))
        out.append(c[j - 1] - shift)
    return tuple(out)
