"""Seeded Monte Carlo laboratory: logarithmic random sets, equal subset
sums, and divisor-concentration statistics for integers, permutations,
and polynomials over finite fields.

Reproducibility contract: every sampler takes a numpy Generator produced by
substream(seed, trial), a counter-based Philox stream keyed by the mixed
(seed, trial index) entropy.  Results therefore depend only on (seed, trial)
and never on execution order; aggregation is restricted to order-independent
reductions over trial-indexed rows.

Subset sums are exact integers end to end: every census holds them as
int64, which is exact for the guarded domain (elements <= 2^50, at most 26
of them for the exact censuses, at most 62 for the vectorized randomized
search; beyond 62 the randomized search uses Python ints).  No modular
hashing is involved, so a reported collision is a real collision.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, log
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError

EXACT_SUBSET_LIMIT = 26
MAX_ELEMENT = 1 << 50
MAX_PERM_N = 400
MAX_POLY_N = 2000
MAX_POLY_Q = 1 << 20
MAX_DIVISORS = 10**6
RANDOMIZED_SAMPLES = 20000


def substream(seed: int, trial: int) -> np.random.Generator:
    """Deterministic per-trial RNG: Philox keyed by SeedSequence([seed, trial])."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, trial])))


# ---------------------------------------------------------------------------
# Logarithmic random sets


@dataclass(frozen=True)
class LogRandomSet:
    """A sample of {i in (lo, hi] : independent coin of bias 1/i came up}."""

    lo: int
    hi: int
    elements: tuple[int, ...]
    seed_info: str = ""

    def __len__(self):
        return len(self.elements)


def sample_log_set(lo: int, hi: int, rng: np.random.Generator, seed_info: str = "") -> LogRandomSet:
    """Sample a logarithmic random set on (lo, hi].

    Uses gap sampling: from element i, the next element exceeds j with
    probability i/j, so next = int(i/u) + 1 for u uniform on (0, 1].  Cost is
    proportional to the expected output size log(hi/lo), so astronomically
    wide ranges are fine.
    """
    if not (1 <= lo < hi <= MAX_ELEMENT):
        raise ValueError(f"need 1 <= lo < hi <= 2^50, got ({lo}, {hi})")
    out = []
    i = lo
    while True:
        u = 1.0 - rng.random()  # uniform on (0, 1]
        nxt = int(i / u) + 1
        if nxt > hi:
            break
        out.append(nxt)
        i = nxt
    return LogRandomSet(lo, hi, tuple(out), seed_info)


# ---------------------------------------------------------------------------
# Equal subset sums


@dataclass(frozen=True)
class MultiplicityResult:
    """Witnessed subset-sum multiplicity of an integer set.

    witnesses are index tuples into the sorted element list; when exact is
    True, k_max is the true maximum multiplicity over all 2^n subsets,
    otherwise it is a lower bound found by randomized search.
    """

    k_max: int
    witness_sum: int
    witnesses: tuple[tuple[int, ...], ...]
    exact: bool
    detail: Optional[dict] = None


def _distinct_values(A: Sequence[int]) -> list[int]:
    """The distinct elements of A in ascending order, checked against 2^50."""
    values = sorted(set(int(a) for a in A))
    if any(not 1 <= v <= MAX_ELEMENT for v in values):
        raise ValueError("elements must be positive and <= 2^50")
    return values


def _exact_guard(n: int) -> None:
    if n > EXACT_SUBSET_LIMIT:
        raise CapacityError(f"exact census guard: |A| = {n} > {EXACT_SUBSET_LIMIT}")


def _census_sums(values: Sequence[int]) -> np.ndarray:
    """All 2^n subset sums as int64; index bit i selects values[i]."""
    sums = np.zeros(1, dtype=np.int64)
    for v in values:
        sums = np.concatenate([sums, sums + np.int64(v)])
    return sums


def _mask_to_indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def max_subset_sum_multiplicity(
    A: Sequence[int],
    mode: str = "exact",
    rng: Optional[np.random.Generator] = None,
    samples: int = RANDOMIZED_SAMPLES,
) -> MultiplicityResult:
    """Maximum number of distinct subsets of A sharing one sum.

    exact mode enumerates all 2^n subset sums (n <= 26) and returns the true
    maximum with up to k_max witnesses; randomized mode draws subsets
    uniformly at random (deduplicated), giving a lower-bound witness.  Ties
    go to the least sum, and witnesses are listed by ascending subset mask.
    """
    values = _distinct_values(A)
    n = len(values)
    if mode == "exact":
        _exact_guard(n)
        sums = _census_sums(values)
        uniq, counts = np.unique(sums, return_counts=True)
        k_max = int(counts.max())
        witness_sum = int(uniq[counts == k_max][0])  # least such sum
        masks = np.nonzero(sums == witness_sum)[0][:k_max]
        witnesses = tuple(_mask_to_indices(int(m)) for m in masks)
        return MultiplicityResult(k_max, witness_sum, witnesses, True)
    if mode != "randomized":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("randomized mode needs an rng")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n <= 62:
        masks = np.unique(rng.integers(0, 1 << n, size=samples, dtype=np.uint64))
        bits = (masks[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
        # exact: at most 62 terms of at most 2^50 each
        sums = bits.astype(np.int64) @ np.array(values, dtype=np.int64)
        uniq, inverse, counts = np.unique(sums, return_inverse=True, return_counts=True)
        best = int(np.argmax(counts))  # first maximum: the least sum
        witnesses = tuple(tuple(np.flatnonzero(row).tolist()) for row in bits[inverse == best])
        return MultiplicityResult(int(counts[best]), int(uniq[best]), witnesses, False)
    words = (n + 31) // 32
    draws = rng.integers(0, 1 << 32, size=(samples, words), dtype=np.uint64)
    masks = []
    for row in draws:
        m = 0
        for w, word in enumerate(row):
            m |= int(word) << (32 * w)
        masks.append(m & ((1 << n) - 1))
    by_sum: dict[int, set] = {}
    for m in masks:
        s = 0
        mm = m
        i = 0
        while mm:
            if mm & 1:
                s += values[i]
            mm >>= 1
            i += 1
        by_sum.setdefault(s, set()).add(m)
    best_sum = None
    k_max = 0
    for s, ms in by_sum.items():
        if len(ms) > k_max or (len(ms) == k_max and (best_sum is None or s < best_sum)):
            k_max = len(ms)
            best_sum = s
    witnesses = tuple(_mask_to_indices(m) for m in sorted(by_sum[best_sum]))[:k_max]
    return MultiplicityResult(k_max, int(best_sum), witnesses, False)


def has_k_equal_sums(A: Sequence[int], k: int) -> bool:
    """Exact decision: do k distinct subsets of A share a sum?

    Holds the subset sums of the elements seen so far as one sorted int64
    array (8 bytes per sum).  Each element merges in the shifted copy of the
    array, and the walk stops at the first level with k equal neighbours,
    which makes collision-rich sets cheap; a full 2^n walk happens only for
    sets that are nearly sum-distinct.
    """
    values = _distinct_values(A)
    _exact_guard(len(values))
    if k <= 1:
        return True
    sums = np.zeros(1, dtype=np.int64)
    for a in values:
        m = len(sums)
        merged = np.empty(2 * m, dtype=np.int64)
        merged[:m] = sums
        np.add(sums, a, out=merged[m:])
        sums = merged  # drops the old array before the sort takes its buffer
        # two sorted runs: the stable sort (timsort for int64) merges them in O(m)
        sums.sort(kind="stable")
        if 2 * m >= k and (sums[k - 1:] == sums[:1 - k]).any():
            return True
    return False


def wilson_ci(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class EqualSumsEstimate:
    D: float
    c: float
    k: int
    trials: int
    successes: int
    estimate: float
    ci_low: float
    ci_high: float
    inexact_trials: int
    window: tuple[int, int]


def _window_bounds(D: float, c: float) -> tuple[int, int]:
    # integers of [D^c, D]: sample_log_set((lo_int - 1, hi])
    lo_int = max(2, math.ceil(D**c))
    return lo_int, int(D)


def equal_sums_trial(D: float, c: float, k: int, seed: int, trial: int) -> tuple[bool, bool, int]:
    """One trial: (success, was_exact, set size)."""
    lo_int, hi = _window_bounds(D, c)
    rng = substream(seed, trial)
    A = sample_log_set(lo_int - 1, hi, rng)
    if len(A) <= EXACT_SUBSET_LIMIT:
        return has_k_equal_sums(A.elements, k), True, len(A)
    res = max_subset_sum_multiplicity(A.elements, "randomized", rng)
    return res.k_max >= k, False, len(A)


def equal_sums_probability(D: float, c: float, k: int, trials: int, seed: int) -> EqualSumsEstimate:
    """Fraction of trials in which A /\\ [D^c, D] has k equal subset sums.

    The estimate is monotone nonincreasing in c up to CI width; no finite-D
    agreement with the asymptotic thresholds is claimed (convergence in D is
    slow), so treat sweeps over c as qualitative.
    """
    rows = [equal_sums_trial(D, c, k, seed, t) for t in range(trials)]
    successes = sum(1 for ok, _, _ in rows if ok)
    inexact = sum(1 for _, ex, _ in rows if not ex)
    lo, hi = wilson_ci(successes, trials)
    return EqualSumsEstimate(
        D, c, k, trials, successes, successes / trials if trials else 0.0,
        lo, hi, inexact, _window_bounds(D, c),
    )


def equal_sums_rows(D: float, c: float, k: int, trials: int, seed: int) -> list[dict]:
    """Per-trial census rows (trial, set_size, k_max, exact) for CSV export."""

    def one(t: int) -> dict:
        lo_int, hi = _window_bounds(D, c)
        rng = substream(seed, t)
        A = sample_log_set(lo_int - 1, hi, rng)
        if len(A) <= EXACT_SUBSET_LIMIT:
            res = max_subset_sum_multiplicity(A.elements, "exact")
        else:
            res = max_subset_sum_multiplicity(A.elements, "randomized", rng)
        return {
            "trial": t,
            "set_size": len(A),
            "k_max": res.k_max,
            "exact": int(res.exact),
        }

    return [one(t) for t in range(trials)]


def amplify_demo(
    D1: int, D2: int, k: int, alpha: float, seed: int, trial: int = 0
) -> MultiplicityResult:
    """Stack per-window equal sums into a k^(#windows)-fold family.

    Splits [D1, D2] into windows [D2^(alpha^(i+1)), D2^(alpha^i)), finds k
    equal subset sums inside each window that admits them, and returns the
    union family: picking one of the k witnesses per successful window gives
    k^(#successes) distinct sets, all with the same total.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not 2 <= D1 < D2 <= MAX_ELEMENT:
        raise ValueError("need 2 <= D1 < D2 <= 2^50")
    rng = substream(seed, trial)
    A = sample_log_set(D1 - 1, D2, rng)
    elements = A.elements
    index_of = {e: i for i, e in enumerate(elements)}

    windows = []
    i = 0
    while True:
        upper = D2 ** (alpha**i)
        lower = D2 ** (alpha ** (i + 1))
        if lower < D1:
            break
        windows.append((lower, upper))
        i += 1

    chosen: list[list[tuple[int, ...]]] = []  # per successful window: k index tuples
    window_info = []
    for lower, upper in windows:
        W = [e for e in elements if lower <= e < upper]
        ok = False
        if 2 <= len(W) <= EXACT_SUBSET_LIMIT:
            res = max_subset_sum_multiplicity(W, "exact")
            if res.k_max >= k:
                ok = True
                local = sorted(W)
                picks = [
                    tuple(index_of[local[i]] for i in witness)
                    for witness in res.witnesses[:k]
                ]
                chosen.append(picks)
        window_info.append({"lower": lower, "upper": upper, "size": len(W), "success": ok})

    if not chosen:
        return MultiplicityResult(
            1, 0, ((),), False, {"windows": window_info, "successful_windows": 0}
        )

    total = k ** len(chosen)
    witnesses: list[tuple[int, ...]] = [()]
    for picks in chosen:
        witnesses = [w + p for w in witnesses for p in picks]
    common = {sum(elements[i] for i in w) for w in witnesses}
    assert len(common) == 1, "window unions must share one sum"
    return MultiplicityResult(
        total,
        common.pop(),
        tuple(tuple(sorted(w)) for w in witnesses),
        False,
        {"windows": window_info, "successful_windows": len(chosen)},
    )


# ---------------------------------------------------------------------------
# Integer factorization and the divisor window statistic


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (fixed 12-base battery)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """Brent-cycle Pollard rho with a deterministic parameter schedule."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            j = 0
            while j < r and g == 1:
                ys = y
                for _ in range(min(m, r - j)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                j += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed for {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n <= 2^63 as {p: exponent}."""
    if not 1 <= n < 1 << 63:
        raise ValueError("n must be in [1, 2^63)")
    out: Counter = Counter()
    stack = []
    m = n
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while m % p == 0:
            out[p] += 1
            m //= p
    if m > 1:
        stack.append(m)
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            out[m] += 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def divisors_of(factors: dict[int, int]) -> list[int]:
    count = 1
    for e in factors.values():
        count *= e + 1
    if count > MAX_DIVISORS:
        raise CapacityError(f"divisor count {count} > {MAX_DIVISORS}")
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    divs.sort()
    return divs


@dataclass(frozen=True)
class DeltaSample:
    """One observation of a divisor-window statistic; delta >= 1 always."""

    kind: str  # "integer" | "permutation" | "polynomial"
    param: object
    delta: int
    aux: dict = field(default_factory=dict)


def _max_log_window(logs: list[float]) -> int:
    # max number of sorted log-values inside a closed window of length 1
    best = 0
    j = 0
    for i in range(len(logs)):
        if j < i:
            j = i
        while j + 1 < len(logs) and logs[j + 1] <= logs[i] + 1.0:
            j += 1
        best = max(best, j - i + 1)
    return best


def delta_integer(n: int) -> DeltaSample:
    """Max number of divisors of n in a window [t, t+1] of log-scale."""
    factors = factorize(n)
    divs = divisors_of(factors)
    delta = _max_log_window([log(d) for d in divs])
    return DeltaSample("integer", n, delta, {"tau": len(divs)})


@dataclass(frozen=True)
class DeltaStats:
    kind: str
    samples: tuple[DeltaSample, ...]
    mean_delta: float
    max_delta: int

    @staticmethod
    def from_samples(kind: str, samples: Sequence[DeltaSample]) -> "DeltaStats":
        if not samples:
            raise ValueError("samples must be >= 1")
        deltas = [s.delta for s in samples]
        return DeltaStats(
            kind, tuple(samples), sum(deltas) / len(deltas), max(deltas)
        )


def sample_delta_integer(X: int, samples: int, seed: int) -> DeltaStats:
    """delta on uniform random integers in [1, X]."""
    if X > 1 << 50:
        raise ValueError("X must be <= 2^50")

    def one(t: int) -> DeltaSample:
        rng = substream(seed, t)
        n = int(rng.integers(1, X + 1))
        return delta_integer(n)

    return DeltaStats.from_samples("integer", [one(t) for t in range(samples)])


# ---------------------------------------------------------------------------
# Random permutations


def sample_cycle_type(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Cycle type of a uniform random permutation of n symbols (sorted).

    Canonical sequential construction: while building a cycle with `rem`
    symbols not yet placed in closed cycles, the cycle closes at each step
    with probability 1/remaining.
    """
    if not 1 <= n <= MAX_PERM_N:
        raise CapacityError(f"permutation size guard: n = {n} not in 1..{MAX_PERM_N}")
    out = []
    rem = n
    while rem:
        t = 1
        while rng.random() >= 1.0 / (rem - t + 1):
            t += 1
        out.append(t)
        rem -= t
    return tuple(sorted(out))


def _max_coeff_of_product(factor_counts: dict[int, int], max_degree: Optional[int] = None) -> int:
    """Largest coefficient of prod_j (1 + x^j)^(c_j), exact big integers."""
    poly = [1]
    for j, cj in sorted(factor_counts.items()):
        if cj <= 0:
            continue
        binoms = [comb(cj, s) for s in range(cj + 1)]
        grown = len(poly) + j * cj
        if max_degree is not None:
            grown = min(grown, max_degree + 1)
        new = [0] * grown
        for t0, coeff in enumerate(poly):
            if coeff:
                for s, b in enumerate(binoms):
                    t = t0 + s * j
                    if t < grown:
                        new[t] += coeff * b
        poly = new
    return max(poly)


def delta_perm(cycle_type: Sequence[int]) -> DeltaSample:
    """Max number of permutation divisors of one length: the largest
    coefficient of prod_j (1 + x^j)^(C_j) over the cycle counts C_j."""
    n = sum(cycle_type)
    if n > MAX_PERM_N:
        raise CapacityError(f"permutation size guard: n = {n} > {MAX_PERM_N}")
    counts = Counter(int(c) for c in cycle_type)
    delta = _max_coeff_of_product(counts)
    return DeltaSample("permutation", n, delta, {"cycle_type": tuple(sorted(cycle_type))})


def delta_perm_bruteforce(cycle_type: Sequence[int]) -> int:
    """Oracle: enumerate all subsets of the cycle multiset directly."""
    cycles = list(cycle_type)
    if len(cycles) > 20:
        raise CapacityError("brute force guard: > 20 cycles")
    census: Counter = Counter()
    for mask in range(1 << len(cycles)):
        census[sum(c for i, c in enumerate(cycles) if mask >> i & 1)] += 1
    return max(census.values())


def sample_delta_perm(n: int, samples: int, seed: int) -> DeltaStats:
    def one(t: int) -> DeltaSample:
        rng = substream(seed, t)
        return delta_perm(sample_cycle_type(n, rng))

    return DeltaStats.from_samples("permutation", [one(t) for t in range(samples)])


# ---------------------------------------------------------------------------
# Random polynomials over F_q


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    m = n
    out = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def _prime_power_base(q: int) -> int:
    f = factorize(q)
    if len(f) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return next(iter(f))


# sample_poly_degrees asks for every degree of its window once per sample
@lru_cache(maxsize=4096)
def irreducible_count(q: int, d: int) -> int:
    """Number of monic irreducible degree-d polynomials over F_q (exact)."""
    if not 2 <= q <= MAX_POLY_Q:
        raise CapacityError(f"q guard: {q} not in 2..{MAX_POLY_Q}")
    _prime_power_base(q)
    if d < 1:
        raise ValueError("d must be >= 1")
    total = 0
    for j in range(1, d + 1):
        if d % j == 0:
            total += _mobius(d // j) * q**j
    assert total % d == 0
    return total // d


def lemma_degree_range(n: int) -> tuple[int, int]:
    """The transfer window [10 log n, n / (10 log n)] as integer bounds.

    Empty (lo > hi) for n <= ~8000; at desk scale callers should pass an
    explicit range to get a nonvacuous simulation.
    """
    ln = log(n)
    return math.ceil(10 * ln), math.floor(n / (10 * ln))


def nb_mean(q: int, d: int) -> Fraction:
    """Exact mean of the degree-d factor-count law: N_q(d) / (q^d - 1)."""
    return Fraction(irreducible_count(q, d), q**d - 1)


def sample_poly_degrees(
    q: int,
    n: int,
    model: str,
    rng: np.random.Generator,
    d_range: Optional[tuple[int, int]] = None,
) -> dict[int, int]:
    """Counts of irreducible-factor degrees in the transfer window.

    model "poisson" draws Z_d ~ Poisson(1/d); model "nb" draws the negative
    binomial law NB(m, p) with m = irreducible_count(q, d) and p = q^(-d)
    (mass C(m+y-1, y) p^y (1-p)^m).  When q^d is too large for float
    arithmetic the NB law is sampled as Poisson(m / (q^d - 1)), which is
    within O(q^-d) of it in total variation.
    """
    if not 1 <= n <= MAX_POLY_N:
        raise CapacityError(f"poly degree guard: n = {n} not in 1..{MAX_POLY_N}")
    if not 2 <= q <= MAX_POLY_Q:
        raise CapacityError(f"q guard: {q} not in 2..{MAX_POLY_Q}")
    _prime_power_base(q)
    d_lo, d_hi = d_range if d_range is not None else lemma_degree_range(n)
    d_hi = min(d_hi, n)
    out: dict[int, int] = {}
    for d in range(max(1, d_lo), d_hi + 1):
        if model == "poisson":
            y = int(rng.poisson(1.0 / d))
        elif model == "nb":
            m = irreducible_count(q, d)
            if q**d < (1 << 52):
                y = int(rng.negative_binomial(m, 1.0 - 1.0 / q**d))
            else:
                y = int(rng.poisson(float(nb_mean(q, d))))
        else:
            raise ValueError(f"unknown model {model!r}")
        if y:
            out[d] = y
    return out


def delta_poly(degree_counts: dict[int, int]) -> DeltaSample:
    """Max number of monic divisors of one degree built from distinct
    irreducible factors: largest coefficient of prod_d (1 + x^d)^(Y_d)."""
    n = sum(d * y for d, y in degree_counts.items())
    delta = _max_coeff_of_product(dict(degree_counts))
    return DeltaSample("polynomial", n, delta, {"degrees": dict(sorted(degree_counts.items()))})


def sample_delta_poly(
    q: int,
    n: int,
    model: str,
    samples: int,
    seed: int,
    d_range: Optional[tuple[int, int]] = None,
) -> DeltaStats:
    def one(t: int) -> DeltaSample:
        rng = substream(seed, t)
        return delta_poly(sample_poly_degrees(q, n, model, rng, d_range))

    return DeltaStats.from_samples("polynomial", [one(t) for t in range(samples)])
