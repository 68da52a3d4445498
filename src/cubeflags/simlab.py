"""Seeded Monte Carlo laboratory: logarithmic random sets, equal subset
sums, and divisor-concentration statistics for integers, permutations,
and polynomials over finite fields.

Reproducibility contract: every trial draws from substream(seed, trial), a
counter-based Philox stream keyed by the mixed (seed, trial index) entropy.
Results therefore depend only on (seed, trial) and never on execution order;
aggregation is restricted to order-independent reductions over trial-indexed
rows.  Philox word s is a pure function of the key and the counter
1 + s // 4, so _philox_keys and _philox_words compute the words of a whole
batch of substreams in numpy, bit for bit, with no Generator built.  The
equal-sums and amplify sets, the randomized search's masks, the delta-int
integers (numpy's bounded draws) and the delta-perm uniforms all come from
them; only delta-poly (negative binomial and Poisson draws) builds a
Generator per trial, on its key.

Subset sums are exact integers end to end: every census holds them as
int32 when its largest sum is at most 2^31 - 1, else as int64 (the
randomized search always adds in int64), which is exact for the guarded
domain (elements <= 2^50, at most 26 of them for the exact censuses, at most
8191 for the randomized search, so that n * 2^50 < 2^63).  No modular
hashing is involved, so a reported collision is a real collision.

The equal-sums estimate decides its trials in batches of up to TRIAL_BATCH.
_log_set_rows samples a batch's sets in lockstep, each from its own
substream, and all exact trials walk their sorted subset sums together
(_rows_have_k_equal_sums), each only up to its last element that does not
exceed the sum of those below it (_needed_lengths), writing each level once
in levels of at most BATCH_SUMS sums (a larger single row runs alone).  Each
row leaves at its first level with k equal sums or after its last level,
and the outcomes are those of one trial at a time.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, log
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import CapacityError

EXACT_SUBSET_LIMIT = 26
MAX_ELEMENT = 1 << 50
RANDOMIZED_SUBSET_LIMIT = ((1 << 63) - 1) // MAX_ELEMENT  # 8191: n * 2^50 < 2^63
MAX_PERM_N = 400
MAX_POLY_N = 2000
MAX_POLY_Q = 1 << 20
MAX_DIVISORS = 10**6
# amplify windows: alpha = 0.9999 at D2 = 10^6 makes ~30k (under a second) and
# every tested case a few; each window scans the whole set, and alpha nearer 1
# made millions of them and ran out of memory
MAX_AMPLIFY_WINDOWS = 10**5
# the delta samples and the equal-sums trials stream, so this cap on their
# count bounds the run time only (2-core VM): 10^6 delta-perm --n 400 samples
# take ~100 s; 10^6 equal-sums trials ~13 s at --D 1e6 --c 0.1 and ~135 s at
# --D 1e8 --c 0.02, and with --out, a census per trial, ~12 min and ~3 h
MAX_SAMPLES = 10**6
RANDOMIZED_SAMPLES = 20000
BATCH_SUMS = 1 << 22  # subset sums per row batch of the equal-sums census: 16 MB as int32, 32 as int64
MERGE_SCRATCH_SUMS = 1 << 22  # merge buffer the exact census may add to its own, in sums: 16 or 32 MB
TRIAL_BATCH = 1 << 12  # equal-sums trials sampled and decided together
BLOCK_WORDS = 1 << 19  # uint64 cells per numpy block of the delta samplers: 4 MB
SIEVE_BOUND = 1 << 13  # factorization divides by the primes below it in numpy


def substream(seed: int, trial: int) -> np.random.Generator:
    """Deterministic per-trial RNG: Philox keyed by SeedSequence([seed, trial])."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, trial])))


# The first draws of substream(seed, t), computed from its Philox key for a
# whole batch of trials at once.  Every constant is a np.uint64 and every
# operand an array: numpy 1.x turns a uint64 scalar mixed with a Python int
# into float64.  Array arithmetic wraps modulo 2^64 without a warning.
_M32 = np.uint64(0xFFFFFFFF)
_U11, _U16, _U32 = np.uint64(11), np.uint64(16), np.uint64(32)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))  # round multipliers
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))  # key bumps


def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant, as (before, after) each
    multiply modulo 2^32."""
    while True:
        nxt = init * mult & 0xFFFFFFFF
        yield np.uint64(init), np.uint64(nxt)
        init = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    before, after = next(consts)
    value = (value ^ before) * after & _M32
    return value ^ value >> _U16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = (x * np.uint64(0xCA01F9DD) - y * np.uint64(0x4973F715)) & _M32
    return value ^ value >> _U16


def _seed_words(seed: int) -> list[int]:
    """The 32-bit words of a seed, low first (one word for 0), as SeedSequence checks them."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return [seed >> s & 0xFFFFFFFF for s in range(0, max(1, seed.bit_length()), 32)]


def _philox_keys(seed: int, trials: np.ndarray) -> np.ndarray:
    """(len(trials), 2) uint64: row i is SeedSequence([seed, trials[i]])
    .generate_state(2, np.uint64), the Philox key of substream(seed,
    trials[i]), for a uint64 array of trials.

    The entropy is each integer's 32-bit words, low first (one word for 0),
    held in uint64 arrays.  Its first four words (zeros past the end, as
    SeedSequence pads) fill the pool, and each later word is mixed into it;
    rows whose entropy has ended keep their pool.
    """
    seed_words = _seed_words(seed)
    s = len(seed_words)
    entropy = np.zeros((len(trials), max(4, s + 2)), dtype=np.uint64)
    entropy[:, :s] = seed_words
    entropy[:, s] = trials & _M32
    entropy[:, s + 1] = trials >> _U32
    size = s + 1 + (entropy[:, s + 1] != 0)  # the words of each row's entropy
    consts = _hash_constants(0x43B0D7E5, 0x931E8875)
    pool = [_hashmix(entropy[:, i], consts) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for src in range(4, entropy.shape[1]):
        for dst in range(4):
            pool[dst] = np.where(size > src, _mix(pool[dst], _hashmix(entropy[:, src], consts)), pool[dst])
    consts = _hash_constants(0x8B51F9DD, 0x58F38DED)
    state = [_hashmix(p, consts) for p in pool]  # four 32-bit words, read as two little-endian uint64
    return np.stack([state[0] | state[1] << _U32, state[2] | state[3] << _U32], axis=1)


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit halves of the 128-bit products a * b, from 32-bit
    halves: every partial sum stays below 2^64."""
    a_lo, a_hi, b_lo, b_hi = a & _M32, a >> _U32, b & _M32, b >> _U32
    lo_lo, hi_lo = a_lo * b_lo, a_hi * b_lo
    cross = (lo_lo >> _U32) + (hi_lo & _M32) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> _U32) + (cross >> _U32), a * b


def _philox_words(keys: np.ndarray, start: int, m: int) -> np.ndarray:
    """(len(keys), m) uint64: words start .. start + m - 1 of the stream of
    each Philox key, as its bit generator's next_uint64 gives them.

    Philox4x64-10 bumps its counter before each block, so word s is word
    s % 4 of block s // 4, run on counter (1 + s // 4, 0, 0, 0).
    """
    first = start // 4
    ctr = np.arange(first + 1, (start + m + 3) // 4 + 1, dtype=np.uint64)
    zeros = np.zeros((len(keys), len(ctr)), dtype=np.uint64)
    x0, x1, x2, x3 = zeros + ctr, zeros, zeros, zeros
    k0, k1 = keys[:, :1], keys[:, 1:]
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack([x0, x1, x2, x3], axis=2).reshape(len(keys), -1)[:, start - 4 * first:][:, :m]


def _philox_uniforms(keys: np.ndarray, start: int, m: int) -> np.ndarray:
    """(len(keys), m) doubles: draws start .. start + m - 1 of each key's
    stream, as Generator.random gives them: the top 53 bits of a word, times
    2^-53."""
    return (_philox_words(keys, start, m) >> _U11) * (1.0 / (1 << 53))


def _philox_integers(keys: np.ndarray, high: int, start: int, size: int) -> np.ndarray:
    """(len(keys), size) uint64: integers(0, high, size, np.uint64) of the
    Generator each key seeds, from word `start` on, for 1 <= high <= 2^63.

    numpy draws by Lemire's method: a w-bit draw u gives u * high >> w, or
    is rejected when the low w bits of u * high are below 2^w mod high.  w is
    32 for high <= 2^32 (each word's low half, then its high half), else 64.
    """
    half = high <= 1 << 32
    threshold, high = np.uint64((1 << (32 if half else 64)) % high), np.uint64(high)
    words = -(-size // 2) if half else size  # enough when no draw is rejected
    while True:
        w = _philox_words(keys, start, words)
        if half:
            m = np.stack([w & _M32, w >> _U32], axis=2).reshape(len(keys), -1) * high
            hi, lo = m >> _U32, m & _M32
        else:
            hi, lo = _mulhilo(high, w)
        ok = lo >= threshold  # all True for a power of two
        if ok.all():
            return hi[:, :size]
        if (np.count_nonzero(ok, axis=1) >= size).all():
            return np.take_along_axis(hi, np.argsort(~ok, axis=1, kind="stable")[:, :size], axis=1)
        words *= 2


# ---------------------------------------------------------------------------
# Logarithmic random sets


def _log_set_rows(lo: int, hi: int, rows: int, draw):
    """Sample `rows` logarithmic random sets on (lo, hi], in lockstep.

    Gap sampling: from element i, the next element exceeds j with probability
    i/j, so next = int(i/u) + 1 for u uniform on (0, 1].  draw(live, start)
    gives uniforms start, start + 1, ... of each row in live, a block of them
    per row, and one numpy step per element position advances every set still
    below hi.  Returns (elements, sizes): row r holds its ascending set in its
    first sizes[r] columns, zeros after.  A set of n elements uses n + 1
    draws.
    """
    live = np.arange(rows)  # the rows still below hi
    cur = np.full(rows, float(lo))  # their last element; integers below 2^53 are exact
    steps = []  # per position: (the rows that reached it, their elements)
    start, u = 0, np.empty((rows, 0))  # the live rows' uniforms from draw start on
    while live.size:
        j = len(steps) - start
        if j == u.shape[1]:
            start, j, u = len(steps), 0, 1.0 - draw(live, len(steps))  # on (0, 1]
        q = cur / u[:, j]
        below = q < hi  # int(q) + 1 <= hi
        if not below.all():
            live, q, u = live[below], q[below], u[below]
            if not live.size:
                break
        cur = np.floor(q) + 1.0
        steps.append((live, cur))
    elements = np.zeros((rows, len(steps)), dtype=np.int64)
    if steps:
        reached, values = zip(*steps)
        positions = np.repeat(np.arange(len(steps)), [len(r) for r in reached])
        elements[np.concatenate(reached), positions] = np.concatenate(values)
    return elements, np.count_nonzero(elements, axis=1)


def _key_draws(keys: np.ndarray, block: int = 32):
    """Draw source over Philox keys: for each row in live, the doubles start
    .. start + block - 1 that random() gives on the Generator its key seeds,
    computed without one."""
    return lambda live, start: _philox_uniforms(keys[live], start, block)


# ---------------------------------------------------------------------------
# Equal subset sums


@dataclass(frozen=True)
class MultiplicityResult:
    """Witnessed subset-sum multiplicity of an integer set: k_max is the
    maximum multiplicity over all 2^n subsets, and witnesses are index tuples
    into the sorted element list."""

    k_max: int
    witness_sum: int
    witnesses: tuple[tuple[int, ...], ...]

    @property
    def exact(self) -> bool:
        """Always True: perfbench/tracer.py tags each call by it."""
        return True


def _distinct_values(A: Sequence[int], limit: int) -> list[int]:
    """The distinct elements of A in ascending order, checked against the
    guarded domain: each in [1, 2^50], and at most `limit` of them."""
    values = sorted(set(int(a) for a in A))
    if any(not 1 <= v <= MAX_ELEMENT for v in values):
        raise ValueError("elements must be positive and <= 2^50")
    if len(values) > limit:
        raise CapacityError(f"subset-sum guard: |A| = {len(values)} > {limit}")
    return values


def _sum_dtype(total: int) -> type:
    """The dtype of a census whose largest sum is total: int32 up to 2^31 - 1, else int64."""
    return np.int32 if total < 1 << 31 else np.int64


def _census_sums(values: Sequence[int], merge: bool = False) -> np.ndarray:
    """All 2^n subset sums in _sum_dtype(sum(values)), doubled into one
    buffer: indexed by subset mask (bit i selects values[i]), or ascending if
    merge, each level merging its shifted copy in with _merge_runs."""
    sums = np.empty(1 << len(values), dtype=_sum_dtype(sum(values)))
    sums[0] = 0
    for i, v in enumerate(values):
        np.add(sums[:1 << i], v, out=sums[1 << i:2 << i])
        if merge:
            # timsort may buffer what the census has yet to fill, and
            # MERGE_SCRATCH_SUMS more: the peak stays within 2^22 sums of the census
            _merge_runs(sums[:2 << i], len(sums) - (2 << i) + MERGE_SCRATCH_SUMS)
    return sums


def _merge_runs(sums: np.ndarray, spare: int) -> None:
    """Sort sums, whose two halves are sorted, in place.

    Only the overlap of the halves' ranges moves.  Timsort (kind="stable")
    merges it in linear time, with a buffer as long as its shorter part; an
    overlap that would need more than `spare` sums of buffer is sorted in
    place with the default kind instead, slower but with no buffer.
    """
    m = len(sums) // 2
    lo = int(np.searchsorted(sums[:m], sums[m], "right"))
    hi = m + int(np.searchsorted(sums[m:], sums[m - 1], "left"))
    sums[lo:hi].sort(kind="stable" if min(m - lo, hi - m) <= spare else None)


def _run_starts(sums: np.ndarray, k: int) -> Iterator[tuple[int, np.ndarray]]:
    """(i, mask) per 2^22 positions of the sorted 1-D sums: mask[j] says
    whether k >= 1 equal values start at position i + j.  A 2^26-sum census
    needs no 64 MB mask."""
    end, step = len(sums) - k + 1, 1 << 22  # end: the positions a run of k can start at
    for i in range(0, end, step):
        stop = min(end, i + step)
        yield i, sums[i + k - 1:stop + k - 1] == sums[i:stop]


def _has_run(sums: np.ndarray, k: int) -> bool:
    """Whether the sorted 1-D sums hold k >= 1 equal values."""
    return any(mask.any() for _, mask in _run_starts(sums, k))


def _needed_lengths(values: np.ndarray) -> np.ndarray:
    """The prefix m of each ascending, zero-padded row of the (R, n) int64
    values that decides its census (has_k_equal_sums): the last j with
    a_j <= a_1 + ... + a_{j-1}, or 0."""
    a, before = values[:, 1:], np.cumsum(values, axis=1)[:, :-1]
    return (((0 < a) & (a <= before)) * np.arange(2, values.shape[1] + 1)).max(axis=1, initial=0)


def _rows_have_k_equal_sums(values: np.ndarray, lengths: np.ndarray, k: int) -> np.ndarray:
    """has_k_equal_sums of values[r, :lengths[r]] for each row r of the (R, n)
    int64 array values (with _needed_lengths, of the whole row), walking the
    rows' sorted subset sums together in _sum_dtype of the largest total.

    A level is the C-ordered prefix of one buffer, so the memory touched
    follows the levels reached, and each level is written once.  A row leaves
    at the first level with k equal neighbours (True) or after level
    lengths[r] (False).  The rows that walk on are the next level's left
    halves: the first rows spread from the top row down in halving chunks
    past their source (so numpy buffers no copy), others in one gather.
    Each row's shifted copy goes behind it and the two sorted runs merge
    (timsort).  A level of width 2w keeps at most max(1, BATCH_SUMS // 2w)
    rows; the rest walk again from level 0 in a later pass, with a new buffer
    once this one is freed.  A lone row merges with _merge_runs, whose buffer
    is bounded as in the exact census.
    """
    found = np.zeros(len(values), dtype=bool)
    values = np.where(np.arange(values.shape[1]) < lengths[:, None], values, 0)
    values = values.astype(_sum_dtype(int(values.sum(axis=1).max(initial=0))))
    todo = np.arange(len(values))
    while len(todo):
        rows, todo, buf, level = todo, todo[:0], None, None  # the last pass's buffer goes first
        top = int(lengths[rows].max())  # a level holds a lone row of up to 2^top sums, or at most BATCH_SUMS
        buf = np.empty(max(len(rows), min(len(rows) << top, max(BATCH_SUMS, 1 << top))), dtype=values.dtype)
        level = buf[:len(rows), None]
        level[:] = 0  # level 0: every row's empty sum
        for j in range(top + 1):
            w, hit = level.shape[1], np.zeros(len(rows), dtype=bool)
            for i, mask in _run_starts(level.ravel(), k):  # runs of k on the flat level, inside one row
                starts = i + np.flatnonzero(mask)
                hit[starts[starts % w <= w - k] // w] = True
            found[rows[hit]] = True
            walk = np.flatnonzero(~hit & (lengths[rows] > j))  # the rows with a level to go
            cap = max(1, BATCH_SUMS // (2 * w))  # rows the next level keeps; the rest wait for a later pass
            walk, todo = walk[:cap], np.concatenate([todo, rows[walk[cap:]]])
            if not len(walk):
                break
            left = level[walk] if walk[-1] >= len(walk) else None  # a gather, unless the first rows walk on
            rows, level = rows[walk], buf[:2 * w * len(walk)].reshape(len(walk), 2 * w)
            hi = len(rows) if left is None else 1  # row 0 stays
            while hi > 1:
                lo = (hi + 1) // 2
                level[lo:hi, :w] = buf[lo * w:hi * w].reshape(hi - lo, w)
                hi = lo
            if left is not None:
                level[:, :w], left = left, None
            np.add(level[:, :w], values[rows, j:j + 1], out=level[:, w:])
            if len(rows) == 1:  # a lone row, up to 2^26 sums: bound the merge as the census does
                _merge_runs(level[0], len(buf) - level.size + MERGE_SCRATCH_SUMS)
            else:
                level.sort(axis=1, kind="stable")  # two sorted runs: timsort merges them in O(w)
    return found


def _longest_run(sums: np.ndarray) -> tuple[int, int]:
    """(length, value) of the longest run in the sorted array sums, the least
    value on ties.  The length is found by doubling, then bisection."""
    lo, hi = 1, 2  # a run of lo exists; one of hi is not yet ruled out
    while _has_run(sums, hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _has_run(sums, mid) else (lo, mid)
    i, mask = next((i, mask) for i, mask in _run_starts(sums, lo) if mask.any())
    return lo, int(sums[i + np.argmax(mask)])


def _masks_with_sum(values: Sequence[int], target: int) -> np.ndarray:
    """Ascending masks of the subsets of values that sum to target.

    Horowitz-Sahni meet in the middle: the census of each half (at most 2^13
    sums under the exact guard), the low half sorted once, and one pair of
    searchsorted bounds per high-half sum.
    """
    h = len(values) // 2
    low, high = _census_sums(values[:h]), _census_sums(values[h:])
    order = np.argsort(low, kind="stable")  # equal sums keep ascending low masks
    low, rest = low[order], target - high.astype(np.int64)  # exact whatever the halves' dtypes
    first = np.searchsorted(low, rest, "left")
    counts = np.searchsorted(low, rest, "right") - first
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    low_masks = order[np.repeat(first, counts) + offsets]
    return (np.repeat(np.arange(len(high)), counts) << h | low_masks).astype(np.uint64)


def _witnesses(masks: np.ndarray, n: int) -> tuple[tuple[int, ...], ...]:
    """Index tuples of the n-bit uint64 subset masks."""
    bits = (masks[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in bits)


def _k_max(values: list[int]) -> tuple[int, int, list[int]]:
    """(k_max, its least sum, the prefix walked) of the checked ascending
    values: the longest run of all 2^m sorted subset sums of the prefix that
    has_k_equal_sums describes (m <= n <= 26).  The census is freed on return."""
    values = values[:int(_needed_lengths(np.array([values], dtype=np.int64))[0])]
    return (*_longest_run(_census_sums(values, merge=True)), values)


def max_subset_sum_multiplicity(A: Sequence[int]) -> MultiplicityResult:
    """Maximum number of distinct subsets of A sharing one sum, exact: _k_max,
    and its k_max witnesses recovered by meet in the middle.  Ties go to the
    least sum, and witnesses are listed by ascending subset mask.
    """
    k_max, witness_sum, values = _k_max(_distinct_values(A, EXACT_SUBSET_LIMIT))
    masks = _masks_with_sum(values, witness_sum)
    return MultiplicityResult(k_max, witness_sum, _witnesses(masks, len(values)))


def _randomized_search(values: list[int], samples: int, integers) -> int:
    """A lower bound on the k_max of max_subset_sum_multiplicity of the
    checked values: the most of `samples` subsets drawn uniformly at random
    (deduplicated) that share one sum.  integers(high, size) gives `size`
    uniform uint64 draws below high, in the order of the Generator's
    integers(0, high, size)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = len(values)
    # each sampled mask is a row of words, low word first: one uint64 draw
    # per sample up to 62 elements, else one 32-bit draw per word
    if n <= 62:
        width, rows = 64, np.sort(integers(1 << n, samples)).reshape(samples, 1)
    else:
        width, rows = 32, integers(1 << 32, samples * ((n + 31) // 32)).reshape(samples, -1)
        rows[:, -1] &= np.uint64((1 << (n - 32 * (rows.shape[1] - 1))) - 1)
        rows = rows[np.lexsort(rows.T)]
    rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]  # sorted: drop the repeated masks
    sums = np.zeros(len(rows), dtype=np.int64)
    for base in range(0, n, 8):  # each byte of the masks indexes its census table
        w, shift = divmod(base, width)
        sums += _census_sums(values[base:base + 8])[(rows[:, w] >> np.uint64(shift)) & np.uint64(0xFF)]
    return int(np.unique(sums, return_counts=True)[1].max())


def has_k_equal_sums(A: Sequence[int], k: int) -> bool:
    """Exact decision: do k distinct subsets of A share a sum?

    Let m be the last j with a_j <= a_1 + ... + a_{j-1} in A ascending (0 if
    none).  Past a_m each element exceeds the sum of all before it, so equal
    sums use the same ones (the last element where two subsets differ would
    outweigh all below it), and only a_1..a_m is walked: level by level, up to
    the first level with k equal neighbours (_rows_have_k_equal_sums, one row).
    """
    values = np.array([_distinct_values(A, EXACT_SUBSET_LIMIT)], dtype=np.int64)
    return k <= 1 or bool(_rows_have_k_equal_sums(values, _needed_lengths(values), k)[0])


def wilson_ci(successes: int, trials: int) -> tuple[float, float]:
    z = 1.96  # 95%
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _window_bounds(D: float, c: float) -> tuple[int, int]:
    """The integers [lo, hi] of the window [D^c, D], sampled as (lo - 1, hi]."""
    # False for a nan D or c and for an infinite D; c <= 1 keeps D^c <= D finite
    if 2 <= D < MAX_ELEMENT + 1 and c <= 1:
        lo, hi = max(2, math.ceil(D**c)), int(D)
        if lo <= hi:
            return lo, hi
    raise ValueError(f"need finite D and c with max(2, ceil(D^c)) <= int(D) <= 2^50, got D = {D}, c = {c}")


def _check_counts(k: int, trials: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_size("trials", trials, 1, MAX_SAMPLES)


def _check_size(what: str, x: int, low: int, cap: int) -> None:
    # below low is a bad input (usage error); past the cap, a size guard
    if x < low:
        raise ValueError(f"{what} must be >= {low}, got {x}")
    if x > cap:
        raise CapacityError(f"{what} guard: {x} > {cap}")


def _key_batches(seed: int, start: int, stop: int, rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first trial, Philox keys) for trials start..stop-1, `rows` at a time:
    the keys of substream(seed, trial) for the block's trials.  The seed is
    checked at the call, and each block's keys are made when it is reached."""
    _seed_words(seed)
    return ((first, _philox_keys(seed, np.arange(first, min(stop, first + rows), dtype=np.uint64)))
            for first in range(start, stop, rows))


def _trial_batches(D: float, c: float, seed: int, start: int, stop: int):
    """(first trial, elements, sizes) for trials start..stop-1, at most
    TRIAL_BATCH at a time: each trial's set, sampled by _log_set_rows from
    the first draws of its substream(seed, trial), computed from its key.
    The window and the seed are checked at the call."""
    lo, hi = _window_bounds(D, c)
    return ((first, *_log_set_rows(lo - 1, hi, len(keys), _key_draws(keys)))
            for first, keys in _key_batches(seed, start, stop, TRIAL_BATCH))


def _randomized_trial(values: list[int], seed: int, trial: int) -> int:
    """The randomized search of a set too large for the exact census, on its
    trial's stream past the len(values) + 1 draws that sampled the set."""
    key = _philox_keys(seed, np.array([trial], dtype=np.uint64))
    values = _distinct_values(values, RANDOMIZED_SUBSET_LIMIT)
    return _randomized_search(
        values, RANDOMIZED_SAMPLES, lambda high, size: _philox_integers(key, high, len(values) + 1, size)[0])


def _decide_trials(first: int, elements: np.ndarray, sizes: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Success per trial of a batch: the exact trials in one row walk over
    the prefixes their sets need, the rest by the randomized search."""
    success = np.zeros(len(sizes), dtype=bool)
    exact = np.flatnonzero(sizes <= EXACT_SUBSET_LIMIT)
    values = elements[exact, :EXACT_SUBSET_LIMIT]
    success[exact] = _rows_have_k_equal_sums(values, _needed_lengths(values), k)
    for r in np.flatnonzero(sizes > EXACT_SUBSET_LIMIT).tolist():
        success[r] = _randomized_trial(elements[r, :sizes[r]].tolist(), seed, first + r) >= k
    return success


def equal_sums_probability(D: float, c: float, k: int, trials: int, seed: int) -> dict:
    """The cubeflags.equalsums.v1 document of the fraction of trials in which
    A /\\ [D^c, D] has k equal subset sums, with its 95% Wilson interval.

    The trials are decided in batches, with the same outcomes as one trial at
    a time: _log_set_rows samples a batch's sets in lockstep, and its exact
    trials share one level walk.

    The estimate is monotone nonincreasing in c up to CI width; no finite-D
    agreement with the asymptotic thresholds is claimed (convergence in D is
    slow), so treat sweeps over c as qualitative.
    """
    _check_counts(k, trials)
    successes = inexact = 0
    for first, elements, sizes in _trial_batches(D, c, seed, 0, trials):
        successes += int(np.count_nonzero(_decide_trials(first, elements, sizes, k, seed)))
        inexact += int(np.count_nonzero(sizes > EXACT_SUBSET_LIMIT))
    return {
        "schema": "cubeflags.equalsums.v1",
        "D": D,
        "c": c,
        "k": k,
        "trials": trials,
        "successes": successes,
        "estimate": successes / trials,
        "ci95": list(wilson_ci(successes, trials)),
        "inexact_trials": inexact,
        "window": list(_window_bounds(D, c)),
        "note": "qualitative; no finite-D agreement with asymptotic thresholds is claimed",
    }


def equal_sums_rows(D: float, c: float, k: int, trials: int, seed: int) -> Iterator[dict]:
    """Per-trial census rows (trial, set_size, k_max, exact) for CSV export,
    sampled a batch of trials at a time as they are read.  The arguments are
    checked at the call.

    The rows see the same sets and searches as equal_sums_probability, so
    counting k_max >= k and exact == 0 over them gives its counts.
    """
    _check_counts(k, trials)
    batches = _trial_batches(D, c, seed, 0, trials)

    def rows():
        for first, elements, sizes in batches:
            for r, n in enumerate(sizes.tolist()):
                values, exact = elements[r, :n].tolist(), n <= EXACT_SUBSET_LIMIT
                k_max = _k_max(values)[0] if exact else _randomized_trial(values, seed, first + r)
                yield {"trial": first + r, "set_size": n, "k_max": k_max, "exact": int(exact)}
    return rows()


def amplify_demo(D1: int, D2: int, k: int, alpha: float, seed: int, trial: int = 0) -> dict:
    """Stack per-window equal sums into a k^(#windows)-fold family.

    Splits [D1, D2] into windows [D2^(alpha^(i+1)), D2^(alpha^i)), finds k
    equal subset sums inside each window that admits them, and stacks them:
    picking one of the k witnesses per successful window gives k^(#successes)
    distinct sets, all with the same total.  The set is drawn on (D1 - 1, D2]
    from substream(seed, trial), computed from its key.

    Returns the cubeflags.amplify.v1 document: the family's size k_max, its
    common sum, its first 128 witnesses (sorted index lists into the set) and
    one entry per window.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not 2 <= D1 < D2 <= MAX_ELEMENT:
        raise ValueError("need 2 <= D1 < D2 <= 2^50")
    windows = []  # (D2^(alpha^(i+1)), D2^(alpha^i)) while the lower edge reaches D1
    while (lower := D2 ** (alpha ** (len(windows) + 1))) >= D1:
        if len(windows) == MAX_AMPLIFY_WINDOWS:
            raise CapacityError(f"amplify window guard: alpha = {alpha!r} splits "
                                f"[{D1}, {D2}] into more than {MAX_AMPLIFY_WINDOWS} windows")
        windows.append((lower, D2 ** (alpha ** len(windows))))

    key = _philox_keys(seed, np.array([trial], dtype=np.uint64))
    rows, sizes = _log_set_rows(D1 - 1, D2, 1, _key_draws(key))
    elements = rows[0, :sizes[0]].tolist()
    index_of = {e: i for i, e in enumerate(elements)}

    chosen: list[list[tuple[int, ...]]] = []  # per successful window: k index tuples
    window_info = []
    for lower, upper in windows:
        W = [e for e in elements if lower <= e < upper]
        ok = False
        if 2 <= len(W) <= EXACT_SUBSET_LIMIT:
            res = max_subset_sum_multiplicity(W)
            if res.k_max >= k:  # W is ascending and distinct: witnesses index into it
                ok = True
                chosen.append([tuple(index_of[W[i]] for i in w) for w in res.witnesses[:k]])
        window_info.append({"lower": lower, "upper": upper, "size": len(W), "success": ok})

    total = k ** len(chosen)
    witnesses: list[tuple[int, ...]] = [()]  # no successful window: the empty set alone
    for picks in chosen:
        witnesses = [w + p for w in witnesses for p in picks]
    common = {sum(elements[i] for i in w) for w in witnesses}
    assert len(common) == 1, "window unions must share one sum"
    return {
        "schema": "cubeflags.amplify.v1",
        "k_max": total,
        "witness_sum": common.pop(),
        "witnesses": [sorted(w) for w in witnesses[:128]],
        "windows": window_info,
    }


# ---------------------------------------------------------------------------
# Integer factorization and the divisor window statistic


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (bound, k): the first k prime bases decide every n below the bound; each
# bound is the least strong pseudoprime to those bases (OEIS A014233)
_MR_BOUNDS = ((341550071728321, 7), (3825123056546413051, 9),
              (318665857834031151167461, 12), (3317044064679887385961981, 13))


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3317044064679887385961981 (~3.3e24),
    with as many of the first 13 prime bases as the size of n needs."""
    if n >= _MR_BOUNDS[-1][0]:
        raise ValueError(f"primality is decided only below {_MR_BOUNDS[-1][0]}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES[:next(k for bound, k in _MR_BOUNDS if n < bound)]:
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
                    q = q * (x - y) % n  # a sign changes no gcd
                g = gcd(q, n)
                j += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed for {n}")


@lru_cache(maxsize=1)
def _sieve_primes() -> np.ndarray:
    """The primes below SIEVE_BOUND, as int64."""
    composite = np.zeros(SIEVE_BOUND, dtype=bool)
    for p in range(2, math.isqrt(SIEVE_BOUND) + 1):
        composite[p * p::p] = True
    return np.flatnonzero(~composite)[2:]


def _factorize_rows(ns: Sequence[int]) -> list[dict[int, int]]:
    """factorize for each n of ns, 1 <= n < 2^63.

    One numpy divisibility pass finds the primes below SIEVE_BOUND that
    divide each n, in blocks of at most BLOCK_WORDS remainders.  What is
    left has no prime factor below the bound, so it is prime when it is
    below SIEVE_BOUND^2; only larger cofactors go to Miller-Rabin and
    Pollard-Brent.
    """
    primes = _sieve_primes()
    step = max(1, BLOCK_WORDS // len(primes))
    out = []
    for i in range(0, len(ns), step):
        block = ns[i:i + step]
        for m, divides in zip(block, np.array(block, dtype=np.int64)[:, None] % primes == 0):
            factors: Counter = Counter()
            for p in primes[divides].tolist():
                while m % p == 0:
                    m //= p
                    factors[p] += 1
            stack = [m] if m > 1 else []
            while stack:
                m = stack.pop()
                if m < SIEVE_BOUND**2 or is_probable_prime(m):
                    factors[m] += 1
                else:
                    d = _pollard_brent(m)
                    stack += [d, m // d]
            out.append(dict(sorted(factors.items())))
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n < 2^63 as {p: exponent}: the one-row case of
    _factorize_rows."""
    if not 1 <= n < 1 << 63:
        raise ValueError("n must be in [1, 2^63)")
    return _factorize_rows([n])[0]


def divisors_of(factors: dict[int, int]) -> list[int]:
    count = math.prod(e + 1 for e in factors.values())
    if count > MAX_DIVISORS:
        raise CapacityError(f"divisor count {count} > {MAX_DIVISORS}")
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    divs.sort()
    return divs


@dataclass(frozen=True)
class DeltaSample:
    """One divisor-window observation: param is the integer, or the permutation's
    or polynomial's n, and delta >= 1 always."""

    param: int
    delta: int


def _max_log_window(logs: list[float]) -> int:
    # max number of sorted log-values inside a closed window of length 1
    return max((bisect_right(logs, x + 1.0) - i for i, x in enumerate(logs)), default=0)


def delta_integer(n: int, factors: Optional[dict[int, int]] = None) -> DeltaSample:
    """Max number of divisors of n in a window [t, t+1] of log-scale;
    factors is factorize(n) when the caller has it."""
    divs = divisors_of(factorize(n) if factors is None else factors)
    delta = _max_log_window([log(d) for d in divs])
    return DeltaSample(n, delta)


def _sample_keys(samples: int, seed: int, rows: int = TRIAL_BATCH) -> Iterator[tuple[int, np.ndarray]]:
    """_key_batches of samples 0 .. samples - 1, the count checked first.
    Each delta sampler checks every argument at the call, then returns an
    iterator that draws its samples a batch at a time as they are read."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_size("samples", samples, 1, MAX_SAMPLES)
    return _key_batches(seed, 0, samples, rows)


def sample_delta_integer(X: int, samples: int, seed: int) -> Iterator[DeltaSample]:
    """delta on uniform random integers in [1, X]: sample t is
    substream(seed, t).integers(1, X + 1), drawn from its Philox key, and
    each batch of samples is factored together."""
    if not 1 <= X <= 1 << 50:
        raise ValueError(f"X must be in [1, 2^50], got {X}")
    batches = _sample_keys(samples, seed)

    def draw():
        for _, keys in batches:
            ns = (_philox_integers(keys, X, 0, 1)[:, 0] + np.uint64(1)).tolist()
            yield from map(delta_integer, ns, _factorize_rows(ns))
    return draw()


# ---------------------------------------------------------------------------
# Random permutations


def _cycle_types(n: int, draw) -> list[tuple[int, ...]]:
    """Cycle types (sorted) of uniform random permutations of n symbols, one
    per row of the (rows, n) uniforms draw(n) gives.

    Canonical sequential construction: symbols are placed one at a time, and
    symbol g (0-based, in placement order) closes its cycle with probability
    1/(n - g), one uniform draw each; the cycle lengths are the gaps between
    closing positions.
    """
    closes = draw(n) < 1.0 / (n - np.arange(n))  # g = n - 1 always closes
    # gaps between flat positions: each row's last symbol closes, so its
    # first gap counts from the previous row's end
    lengths = np.diff(np.flatnonzero(closes), prepend=-1).tolist()
    ends = np.cumsum(np.count_nonzero(closes, axis=1)).tolist()
    return [tuple(sorted(lengths[a:b])) for a, b in zip([0, *ends], ends)]


def _max_coeff_of_product(factor_counts: dict[int, int]) -> int:
    """Largest coefficient of prod_j (1 + x^j)^(c_j), exact: one big-integer
    product at x = 2^(8b) (Kronecker substitution), whose b-byte digits are
    the coefficients.  They sum to 2^(sum c_j) < 2^(8b), so none carries."""
    counts = [(j, c) for j, c in factor_counts.items() if c > 0]
    b = sum(c for _, c in counts) // 8 + 1
    value = math.prod(((1 << 8 * b * j) + 1) ** c for j, c in counts)
    digits = value.to_bytes(b * (sum(j * c for j, c in counts) + 1), "big")
    digits = np.frombuffer(digits, dtype=np.uint8).reshape(-1, b)
    for col in range(b):  # the largest digit: its bytes compared from the most significant
        digits = digits[digits[:, col] == digits[:, col].max()]
    return int.from_bytes(digits[0].tobytes(), "big")


def delta_perm(cycle_type: Sequence[int]) -> DeltaSample:
    """Max number of permutation divisors of one length: the largest
    coefficient of prod_j (1 + x^j)^(C_j) over the cycle counts C_j."""
    n = sum(cycle_type)
    if n > MAX_PERM_N:
        raise CapacityError(f"permutation size guard: n = {n} > {MAX_PERM_N}")
    counts = Counter(int(c) for c in cycle_type)
    delta = _max_coeff_of_product(counts)
    return DeltaSample(n, delta)


def delta_perm_bruteforce(cycle_type: Sequence[int]) -> int:
    """Oracle: enumerate all subsets of the cycle multiset directly."""
    cycles = list(cycle_type)
    if len(cycles) > 20:
        raise CapacityError("brute force guard: > 20 cycles")
    census: Counter = Counter()
    for mask in range(1 << len(cycles)):
        census[sum(c for i, c in enumerate(cycles) if mask >> i & 1)] += 1
    return max(census.values())


def sample_delta_perm(n: int, samples: int, seed: int) -> Iterator[DeltaSample]:
    """delta_perm on uniform random permutations of n symbols: sample t is
    the cycle type _cycle_types gives on the first n uniforms of
    substream(seed, t), computed from its Philox key, BLOCK_WORDS of them at a
    time."""
    batches = _sample_keys(samples, seed, max(1, min(TRIAL_BATCH, BLOCK_WORDS // max(1, n))))
    _check_size("permutation size n", n, 1, MAX_PERM_N)
    return (sample for _, keys in batches
            for sample in map(delta_perm, _cycle_types(n, lambda m: _philox_uniforms(keys, 0, m))))


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


@lru_cache(maxsize=64)  # irreducible_count checks q at every degree of a window
def _check_q(q: int) -> None:
    _check_size("q", q, 2, MAX_POLY_Q)
    if len(factorize(q)) != 1:
        raise ValueError(f"q = {q} is not a prime power")


def irreducible_count(q: int, d: int) -> int:
    """Number of monic irreducible degree-d polynomials over F_q (exact)."""
    _check_q(q)
    if d < 1:
        raise ValueError("d must be >= 1")
    total = 0
    for j in range(1, math.isqrt(d) + 1):  # the divisor pairs (j, d / j)
        if d % j == 0:
            total += _mobius(d // j) * q**j
            if j * j != d:
                total += _mobius(j) * q ** (d // j)
    assert total % d == 0
    return total // d


def lemma_degree_range(n: int) -> tuple[int, int]:
    """The transfer window [10 log n, n / (10 log n)] as integer bounds.

    Empty (lo > hi) for n <= ~8000; at desk scale callers should pass an
    explicit range to get a nonvacuous simulation.
    """
    if n < 2:
        raise ValueError(f"the window [10 log n, n / (10 log n)] needs n >= 2, got n = {n}; pass --dmin/--dmax")
    ln = log(n)
    return math.ceil(10 * ln), math.floor(n / (10 * ln))


def nb_mean(q: int, d: int) -> Fraction:
    """Exact mean of the degree-d factor-count law: N_q(d) / (q^d - 1)."""
    return Fraction(irreducible_count(q, d), q**d - 1)


# sample_delta_poly draws many samples over one (q, n, model, window)
@lru_cache(maxsize=64)
def _poly_draw_params(q: int, n: int, model: str, d_range: Optional[tuple[int, int]]):
    """The degrees of the window, the NB(m, p) parameters of the degrees
    with q^d < 2^52 and the Poisson means of the rest, as read-only arrays,
    once n, q, the window and the model are checked.  q^d grows with d, so
    the NB block is the low end of the window and one call per block draws in
    the scalar loop's order."""
    _check_size("poly degree n", n, 1, MAX_POLY_N)
    _check_q(q)
    d_lo, d_hi = d_range if d_range is not None else lemma_degree_range(n)
    degrees = range(max(1, d_lo), min(d_hi, n) + 1)
    if model == "poisson":
        nb_degrees = range(0)
        means = [1.0 / d for d in degrees]
    elif model == "nb":
        nb_degrees = [d for d in degrees if q**d < (1 << 52)]
        means = [float(nb_mean(q, d)) for d in degrees[len(nb_degrees):]]
    else:
        raise ValueError(f"unknown model {model!r}")
    arrays = (
        np.array([irreducible_count(q, d) for d in nb_degrees], dtype=np.float64),
        np.array([1.0 - 1.0 / q**d for d in nb_degrees], dtype=np.float64),
        np.array(means, dtype=np.float64),
    )
    for a in arrays:
        a.flags.writeable = False
    return degrees, *arrays


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
    degrees, nb_m, nb_p, means = _poly_draw_params(q, n, model, d_range)
    ys = rng.negative_binomial(nb_m, nb_p).tolist() + rng.poisson(means).tolist()
    return {d: y for d, y in zip(degrees, ys) if y}


def delta_poly(degree_counts: dict[int, int]) -> DeltaSample:
    """Max number of monic divisors of one degree built from distinct
    irreducible factors: largest coefficient of prod_d (1 + x^d)^(Y_d)."""
    n = sum(d * y for d, y in degree_counts.items())
    delta = _max_coeff_of_product(dict(degree_counts))
    return DeltaSample(n, delta)


def sample_delta_poly(q: int, n: int, model: str, samples: int, seed: int,
                      d_range: Optional[tuple[int, int]] = None) -> Iterator[DeltaSample]:
    """delta_poly on sample_poly_degrees: sample t draws from the Generator
    of substream(seed, t), built on its Philox key."""
    batches = _sample_keys(samples, seed)
    _poly_draw_params(q, n, model, d_range)  # checks n, q, the window and the model
    return (delta_poly(sample_poly_degrees(q, n, model, np.random.Generator(np.random.Philox(key=key)), d_range))
            for _, keys in batches for key in keys)
