import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cubeflags import simlab as S
from cubeflags.errors import CapacityError


# ---------------------------------------------------------------------------
# RNG and the logarithmic sampler


def test_substream_determinism_and_independence():
    a = S.substream(1, 0).integers(0, 1 << 30, size=8).tolist()
    b = S.substream(1, 0).integers(0, 1 << 30, size=8).tolist()
    c = S.substream(1, 1).integers(0, 1 << 30, size=8).tolist()
    assert a == b
    assert a != c


def _generator_draws(rngs, block=32):
    # the draw source of _log_set_rows over Generators: rng.random(block) gives
    # the same doubles as block scalar draws, so each is left past its last block
    return lambda live, start: np.array([rngs[r].random(block) for r in live])


def _log_set(lo, hi, rng):
    # the set on (lo, hi] drawn one uniform at a time from rng, which is left
    # past exactly the n + 1 draws the set used
    elements, sizes = S._log_set_rows(lo, hi, 1, _generator_draws([rng], block=1))
    return elements[0, :sizes[0]].tolist()


def test_sample_log_set_bounds_and_determinism():
    A = _log_set(10, 10**9, S.substream(3, 7))
    assert all(10 < e <= 10**9 for e in A)
    assert A == sorted(A)
    assert A == _log_set(10, 10**9, S.substream(3, 7))


def test_sample_log_set_huge_range_is_cheap():
    A = _log_set(2, 1 << 50, S.substream(4, 0))
    assert len(A) < 200  # expected size ~ 34


def _lockstep_sets(lo, hi, seed, n):
    # the sets of streams (seed, 0..n-1), sampled in lockstep: each row is the
    # set _log_set gives on that stream
    return S._log_set_rows(lo, hi, n, _generator_draws([S.substream(seed, t) for t in range(n)]))


def test_log_set_expected_count():
    # mean count over many draws within 3 standard errors of the
    # inclusion-probability sum
    D = 10**6
    lo, hi = 10, D
    mean_target = sum(1.0 / i for i in range(lo + 1, hi + 1))
    n = 4000
    counts = _lockstep_sets(lo, hi, 11, n)[1].tolist()
    mean = sum(counts) / n
    # variance of a sum of Bernoulli(1/i): at most the mean
    se = math.sqrt(mean_target / n)
    assert abs(mean - mean_target) < 3 * se + 0.01


def test_log_set_per_element_inclusion_frequency():
    # P(i in A) = 1/i for individual elements, within binomial noise
    trials = 20000
    elements = _lockstep_sets(2, 100, 17, trials)[0]
    hits = {i: int((elements == i).any(axis=1).sum()) for i in (3, 10, 40)}
    for i, h in hits.items():
        p = 1.0 / i
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(h / trials - p) < 4 * se, (i, h / trials)


def test_log_set_window_deviation_bound():
    # windowed counts concentrate: the fraction of draws violating
    # |count - (beta-alpha) log D| <= (log D)^(3/4) stays below 1%.  At
    # D = 10^6 the slack (log D)^(3/4) ~ 7.2 is only ~2 standard deviations
    # for the widest windows, so this is checked on mid-width windows where
    # the finite-size bound has room.
    D = 10**6
    logD = math.log(D)
    bound = logD**0.75
    n = 10**4
    for alpha, beta in ((0.3, 0.7), (0.5, 0.9), (0.2, 0.5)):
        lo = int(D**alpha)
        hi = int(D**beta)
        target = (beta - alpha) * logD
        counts = _lockstep_sets(lo, hi, 5, n)[1]
        bad = int((np.abs(counts - target) > bound).sum())
        assert bad / n < 0.01, (alpha, beta, bad)


# ---------------------------------------------------------------------------
# Subset-sum multiplicity


def test_multiplicity_examples():
    res = S.max_subset_sum_multiplicity([3, 5, 8])
    assert res.k_max == 2 and res.exact
    assert res.witness_sum == 8
    assert set(res.witnesses) == {(0, 1), (2,)}  # {3,5} and {8}

    res = S.max_subset_sum_multiplicity([1, 2, 4, 8])
    assert res.k_max == 1


def test_multiplicity_guard():
    with pytest.raises(CapacityError):
        S.max_subset_sum_multiplicity(list(range(1, 28)))


def test_witnesses_have_equal_sums():
    vals = [3, 5, 8, 11, 14, 19]
    res = S.max_subset_sum_multiplicity(vals)
    sorted_vals = sorted(set(vals))
    sums = {sum(sorted_vals[i] for i in w) for w in res.witnesses}
    assert sums == {res.witness_sum}
    assert len(res.witnesses) == res.k_max


def test_has_k_equal_sums_matches_census():
    for t in range(80):
        rng = S.substream(55, t)
        vals = sorted(set(int(x) for x in rng.integers(1, 200, size=10)))
        res = S.max_subset_sum_multiplicity(vals)
        for k in (2, 3, res.k_max, res.k_max + 1):
            assert S.has_k_equal_sums(vals, k) == (res.k_max >= k)


# Loop reference for the census: a Python-int dict walk for has_k_equal_sums.


def _dict_walk_has_k_equal_sums(A, k):
    values = sorted(set(int(a) for a in A))
    if k <= 1:
        return True
    counts = {0: 1}
    sums = [0]
    for a in values:
        fresh = []
        for s in sums:
            t = s + a
            c = counts.get(t, 0) + 1
            if c >= k:
                return True
            counts[t] = c
            fresh.append(t)
        sums.extend(fresh)
    return False


def _random_multiset(t):
    # duplicates in A, the empty set, small and near-2^50 elements
    rng = S.substream(61, t)
    size = int(rng.integers(0, 15))
    top = int(rng.choice([8, 60, 1000, 1 << 20, S.MAX_ELEMENT]))
    return [int(x) for x in rng.integers(1, top, size=size, endpoint=True)]


def _census_unique_exact(A):
    # the full census: all 2^n sums indexed by subset mask, then np.unique
    values = sorted(set(int(a) for a in A))
    sums = np.zeros(1, dtype=np.int64)
    for v in values:
        sums = np.concatenate([sums, sums + np.int64(v)])
    uniq, counts = np.unique(sums, return_counts=True)
    k_max = int(counts.max())
    witness_sum = int(uniq[counts == k_max][0])
    masks = np.nonzero(sums == witness_sum)[0][:k_max]
    witnesses = tuple(
        tuple(i for i in range(len(values)) if int(m) >> i & 1) for m in masks
    )
    return S.MultiplicityResult(k_max, witness_sum, witnesses)


def _exact_cases():
    cases = [_random_multiset(t) for t in range(240)]
    # tied maxima: the least sum must win
    cases += [[1, 2, 3, 4], [2, 3, 5, 7, 8, 10], [1, 2, 4, 5, 7, 8], [1, 5, 6, 11, 12, 17]]
    cases.append(list(range(1, 21)))  # k_max in the thousands
    return cases


def test_exact_multiplicity_matches_full_census():
    for A in _exact_cases():
        assert S.max_subset_sum_multiplicity(A) == _census_unique_exact(A), A


def test_exact_multiplicity_without_merge_scratch(monkeypatch):
    # no scratch: every census merges its last level by the in-place sort
    monkeypatch.setattr(S, "MERGE_SCRATCH_SUMS", 0)
    for A in _exact_cases():
        assert S.max_subset_sum_multiplicity(A) == _census_unique_exact(A), A


def test_has_k_equal_sums_matches_dict_walk():
    assert S.has_k_equal_sums([], 1) and not S.has_k_equal_sums([], 2)
    for t in range(240):
        A = _random_multiset(t)
        n = len(set(A))
        k_max = S.max_subset_sum_multiplicity(A).k_max
        for k in (0, 1, 2, 3, k_max, k_max + 1, 2**n + 1):
            got = S.has_k_equal_sums(A, k)
            assert got == _dict_walk_has_k_equal_sums(A, k), (t, A, k)
            assert got == (k <= k_max), (t, A, k)


def _int64_level_walk(values, k):
    # the int64 row walk the one-write kernel replaced: each level compacts
    # the kept rows, spreads them with an overlapping copy, then merges
    found = np.zeros(len(values), dtype=bool)
    rows = np.arange(len(values))
    buf = np.empty(len(values) << values.shape[1], dtype=np.int64)
    sums = buf[:len(values), None]
    sums[:] = 0
    for j in range(values.shape[1] + 1):
        if j:
            m = sums.shape[1]
            level = buf[:2 * sums.size].reshape(len(rows), 2 * m)
            level[1:, :m] = sums[1:]
            np.add(level[:, :m], values[rows, j - 1:j], out=level[:, m:])
            if len(rows) == 1:
                S._merge_runs(level[0], len(buf) - level.size + S.MERGE_SCRATCH_SUMS)
            else:
                level.sort(axis=1, kind="stable")
            sums = level
        hit = (sums[:, k - 1:] == sums[:, :sums.shape[1] - k + 1]).any(axis=1)
        if hit.any():
            found[rows[hit]] = True
            rows = rows[~hit]
            if not len(rows):
                break
            kept = sums[~hit]
            sums = buf[:kept.size].reshape(kept.shape)
            sums[:] = kept
    return found


def _walk_cases():
    # seeded (R, n) rows: tiny ranges (repeated values within a row), elements
    # up to 2^50 and lone rows; and rows whose largest element brings every
    # total to exactly 2^31 - 1, the most the int32 census takes, or to 2^31
    rng = S.substream(64, 0)
    for n in range(17):
        for t, top in enumerate([3, 40, 1 << 20, S.MAX_ELEMENT]):
            R = 1 if t == 0 else int(rng.integers(2, 12 if n > 12 else 40))
            values = np.sort(rng.integers(1, top, size=(R, n), endpoint=True), axis=1)
            yield values
            if n and top <= 1 << 20:
                for total in ((1 << 31) - 1, 1 << 31):
                    edge = values.copy()
                    edge[:, -1] = total - values[:, :-1].sum(axis=1)
                    yield edge


def test_row_walk_matches_the_int64_walk(monkeypatch):
    # each case walks its full rows, then the same rows cut to seeded lengths
    # in one call, one of them 0 and one the full width; the oracle walks the
    # rows of each length apart.  The small caps defer rows on many levels.
    rng, caps = S.substream(65, 0), (S.BATCH_SUMS, 1 << 7, 1)
    largest = set()
    for values in _walk_cases():
        R, n = values.shape
        cut = rng.integers(0, n, size=R, endpoint=True)
        cut[0], cut[-1] = 0, n
        largest.add(int(values.sum(axis=1).max(initial=0)))
        for lengths in (np.full(R, n), cut):
            for k in range(1, 5):
                want = np.zeros(R, dtype=bool)
                for m in set(lengths.tolist()):
                    want[lengths == m] = _int64_level_walk(values[lengths == m, :m], k)
                for batch_sums in caps:
                    monkeypatch.setattr(S, "BATCH_SUMS", batch_sums)
                    got = S._rows_have_k_equal_sums(values, lengths, k)
                    assert (got == want).all(), (values, lengths, k, batch_sums)
    assert {(1 << 31) - 1, 1 << 31} <= largest
    assert S._sum_dtype((1 << 31) - 1) == np.int32 and S._sum_dtype(1 << 31) == np.int64


# The prefix rule: past the last element a_m that is at most the sum of the
# elements below it, subsets with equal sums hold the same elements, so the
# census of a_1..a_m decides the set.  Checked against a brute-force Counter
# over all 2^n subset sums and the dict walk, on seeded sets alone, with a
# tail of elements that each exceed the sum before them (dominated), and
# with one more element equal to that sum (needed).


def _counter_multiplicity(A):
    values = sorted(set(A))
    sums = [0]  # indexed by subset mask
    for v in values:
        sums += [s + v for s in sums]
    counts = Counter(sums)
    k_max = max(counts.values())
    witness_sum = min(s for s, c in counts.items() if c == k_max)
    witnesses = tuple(tuple(i for i in range(len(values)) if mask >> i & 1)
                      for mask, s in enumerate(sums) if s == witness_sum)
    return S.MultiplicityResult(k_max, witness_sum, witnesses)


def _needed_length(values):
    return max((j for j in range(1, len(values) + 1) if values[j - 1] <= sum(values[:j - 1])), default=0)


def _prefix_rule_cases():
    rng = S.substream(66, 0)
    for t in range(80):
        top = int(rng.choice([6, 50, 1000, 1 << 20]))
        base = sorted(set(rng.integers(1, top, size=int(rng.integers(0, 11)), endpoint=True).tolist()))
        tail = list(base)
        for _ in range(int(rng.integers(1, 5))):
            tail.append(sum(tail) + int(rng.integers(1, 4)))
        yield base, tail
        if len(base) >= 2:
            yield base + [sum(base)], base + [sum(base), 2 * sum(base) + 1]


def test_prefix_rule_keeps_every_multiplicity():
    rows = []
    for A, with_tail in _prefix_rule_cases():
        assert _needed_length(with_tail) == _needed_length(A), (A, with_tail)
        for B in (A, with_tail):
            rows.append(B)
            assert S.max_subset_sum_multiplicity(B) == _counter_multiplicity(B), B
            for k in range(1, 5):
                assert S.has_k_equal_sums(B, k) == _dict_walk_has_k_equal_sums(B, k), (B, k)
    assert any(_needed_length(B) == len(B) > 0 for B in rows)  # the equal element is needed
    assert any(_needed_length(B) == 0 < len(B) for B in rows)
    # every row in one call, zero-padded
    padded = np.zeros((len(rows), max(map(len, rows))), dtype=np.int64)
    for r, B in enumerate(rows):
        padded[r, :len(B)] = B
    assert S._needed_lengths(padded).tolist() == [_needed_length(B) for B in rows]


def test_dominated_powers_of_two_need_no_walk():
    # each power of two exceeds the sum of those below it, so m = 0: the
    # 26 of them are decided on level 0, with no 2^26-sum buffer
    A = [1 << i for i in range(26)]
    assert S._needed_lengths(np.array([A], dtype=np.int64)).tolist() == [0]
    tracemalloc.start()
    try:
        assert not S.has_k_equal_sums(A, 2)
        assert S.max_subset_sum_multiplicity(A) == S.MultiplicityResult(1, 0, ((),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("A", [[0, 1], [3, S.MAX_ELEMENT + 1]])
def test_has_k_equal_sums_rejects_elements_outside_exact_domain(A):
    # int64 sums are exact only for elements in [1, 2^50]
    with pytest.raises(ValueError, match="positive and <= 2"):
        S.has_k_equal_sums(A, 2)


def _no_draws(*args, **kwargs):
    raise AssertionError("the guard must fire before any sample is drawn")


def _conway_guy(n):
    # the Conway-Guy sum-distinct set of n elements: u_0 = 0, u_1 = 1,
    # u_{i+1} = 2 u_i - u_{i - round(sqrt(2 i))}, and the set {u_n - u_i : i < n}.
    # Its largest element is at most the sum of the others, so every census
    # of it walks all 2^n sums; for n = 26 they sum below 2^31
    u = [0, 1]
    for i in range(1, n):
        u.append(2 * u[i] - u[i - round(math.sqrt(2 * i))])
    return sorted(u[n] - u[i] for i in range(n))


def test_conway_guy_sets_walk_every_level():
    for n in (12, 24, 26):
        A = _conway_guy(n)
        assert S._needed_lengths(np.array([A, [a << 20 for a in A]], dtype=np.int64)).tolist() == [n, n]
    assert sum(_conway_guy(26)) == 413708110
    assert not S.has_k_equal_sums(_conway_guy(12), 2)  # sum-distinct


def test_has_k_equal_sums_memory_bounded(fresh):
    # 2^24 distinct subset sums must fit in 1 GiB of address space
    # (a dict of Python ints needs several times that)
    child = fresh(f"from cubeflags.simlab import has_k_equal_sums\nprint(has_k_equal_sums({_conway_guy(24)!r}, 2))",
                  limit_memory=True)
    assert child.code == 0, child.stderr
    assert child.stdout == "False\n"


# Two sum-distinct sets of 26 elements that every census walks in full: the
# Conway-Guy set, whose sums fit int32, and powers of two raised by 2^40,
# whose sums are int64.  Both interleave their levels and need the sort's
# merge buffer.
@pytest.mark.parametrize("A", [pytest.param(repr(_conway_guy(26)), id="conway-guy-26"),
                               "[(1 << 40) + (1 << i) for i in range(26)]"])
def test_exact_multiplicity_memory_bounded(fresh, A):
    # the full exact census of 2^26 distinct sums, the most the guard allows,
    # must fit in 1 GiB of address space
    child = fresh(f"from cubeflags.simlab import max_subset_sum_multiplicity\n"
                  f"print(max_subset_sum_multiplicity({A}).k_max)", limit_memory=True)
    assert child.code == 0, child.stderr
    assert child.stdout == "1\n"


def _child_peak_rss(fresh, call):
    # (printed result of call, peak RSS in bytes) in a fresh interpreter
    child = fresh(f"from cubeflags.simlab import *\nprint({call})")
    assert child.code == 0, child.stderr
    return child.stdout.rstrip("\n"), child.peak_rss


def test_exact_census_peak_rss(fresh):
    # 2^26 sums take 512 MB; with interleaving levels the last merge may add
    # no more than its 32 MB of scratch (timsort's buffer alone would be 256 MB)
    _, peak = _child_peak_rss(fresh, "max_subset_sum_multiplicity([(1 << 40) + (1 << i) for i in range(26)]).k_max")
    assert peak < 0.65e9


def test_equal_sums_walk_peak_rss(fresh):
    # the same set in the has_k_equal_sums walk: a lone row merges with the
    # census's bounded scratch, and its run check builds no 64 MB mask
    result, peak = _child_peak_rss(fresh, "has_k_equal_sums([(1 << 40) + (1 << i) for i in range(26)], 2)")
    assert result == "False"
    assert peak < 0.65e9


def test_equal_sums_walk_on_int32_sums_peak_rss(fresh):
    # the Conway-Guy set sums below 2^31: its 2^26 sums take 256 MB as int32
    result, peak = _child_peak_rss(fresh, f"has_k_equal_sums({_conway_guy(26)!r}, 2)")
    assert result == "False"
    assert peak < 0.4e9


def test_row_batches_memory_bounded(fresh):
    # two 26-element trials each need a lone row's pass past 2^22 sums: the
    # first pass's 512 MB buffer must be gone before the second allocates,
    # within 1 GiB (the Conway-Guy set times 2^20 sums past 2^31, so its sums
    # are int64)
    child = fresh(
        "import numpy as np\n"
        "from cubeflags.simlab import _decide_trials\n"
        f"rows = np.array([[a << 20 for a in {_conway_guy(26)!r}]] * 2, dtype=np.int64)\n"
        "print(_decide_trials(rows, 2).tolist())\n",
        limit_memory=True,
    )
    assert child.code == 0, child.stderr
    assert child.stdout == "[False, False]\n"


def test_exact_equal_sums_command_needs_no_generator(fresh):
    # every trial of this command is exact, so it builds no Generator (the
    # draws come from the Philox kernel) and groups sizes without np.unique,
    # whose first call imports numpy.ma
    code = (
        "from cubeflags.cli import main\n"
        "main(['simulate', 'equal-sums', '--D', '1e6', '--c', '0.3', '--trials', '2000',"
        " '--seed', '20260810', '--json'])\n"
        "print([m for m in ('numpy.ma', 'numpy.random') if m in sys.modules])\n"
    )
    child = fresh(code)
    assert child.code == 0, child.stderr
    doc, imported = child.stdout.rsplit("\n", 2)[:2]
    assert '"inexact_trials": 0,' in doc
    assert imported == "[]"


def test_delta_and_randomized_commands_need_no_generator(fresh):
    # delta-int, delta-perm, equal-sums at D = 1e8 (13 of whose sets are
    # larger than the exact census) and amplify all draw from the Philox keys,
    # so numpy.random is never imported
    seed = ["--seed", "20260810", "--json"]
    commands = [["simulate", "delta-int", "--X", "1125899906842624", "--samples", "200", *seed],
                ["simulate", "delta-perm", "--n", "400", "--samples", "100", *seed],
                ["simulate", "equal-sums", "--D", "1e8", "--c", "0.02", "--k", "2", "--trials", "500", *seed],
                ["simulate", "amplify", "--D1", "2", "--D2", "10000000000000", "--alpha", "0.25", *seed]]
    child = fresh(
        "from cubeflags.cli import main\n"
        f"print([main(argv) for argv in {commands!r}])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert child.code == 0, child.stderr
    assert '"inexact_trials": 13,' in child.stdout
    assert child.stdout.endswith("[0, 0, 0, 0]\nFalse\n")


def _no_generator(*args, **kwargs):
    raise AssertionError("a Generator was built")


def test_samplers_draw_from_the_keys_alone(monkeypatch):
    # every sampler but delta-poly computes its draws from the Philox keys
    monkeypatch.setattr(S, "substream", _no_generator)
    monkeypatch.setattr(np.random, "Generator", _no_generator)
    # D = 1e8, c = 0.02, seed 1: trials 0 and 17 are larger than the exact census
    assert S.equal_sums_probability(1e8, 0.02, 2, 20, 1)["inexact_trials"] == 2
    assert [r["trial"] for r in S.equal_sums_rows(1e8, 0.02, 2, 20, 1) if not r["exact"]] == [0, 17]
    assert S.amplify_demo(2, 10**13, 2, 0.25, seed=76)["k_max"] == 4
    assert len(list(S.sample_delta_integer(10**9, 20, 5))) == 20
    assert len(list(S.sample_delta_perm(40, 20, 5))) == 20


@pytest.mark.parametrize("k, trials, message", [(2, 0, "trials"), (2, -3, "trials"), (0, 5, "k")])
def test_equal_sums_needs_positive_counts(k, trials, message):
    for run in (S.equal_sums_probability, S.equal_sums_rows):
        with pytest.raises(ValueError, match=f"{message} must be >= 1"):
            run(1e5, 0.1, k, trials, 3)


def test_equal_sums_rows_give_the_estimate():
    # at D = 1e8, c = 0.02 and seed 1, trials 0 and 17 are large sets: their
    # rows and the estimate both go by the smallest 26 elements
    for D, c, k, trials, seed in ((1e5, 0.1, 3, 300, 4), (1e8, 0.02, 2, 20, 1)):
        rows = list(S.equal_sums_rows(D, c, k, trials, seed))
        expected = _estimate(D, c, k, [(r["k_max"] >= k, r["exact"]) for r in rows])
        assert S.equal_sums_probability(D, c, k, trials, seed).items() >= expected.items(), D


# The per-trial loop the batched estimate replaced: one scalar draw per gap
# and a sorted-merge level walk per trial, over the smallest 26 elements of a
# larger set.


def _level_walk_has_k_equal_sums(A, k):
    if k <= 1:
        return True
    sums = np.zeros(1, dtype=np.int64)
    for a in sorted(set(A)):
        sums = np.sort(np.concatenate([sums, sums + a]), kind="stable")
        if len(sums) >= k and (sums[k - 1:] == sums[:len(sums) - k + 1]).any():
            return True
    return False


def _scalar_log_set(lo, hi, rng):
    out, i = [], lo
    while (nxt := int(i / (1.0 - rng.random())) + 1) <= hi:
        out.append(nxt)
        i = nxt
    return out


def _estimate(D, c, k, outcomes):
    # the numbers of the estimate's document from one (success, was_exact) pair per trial
    trials, successes = len(outcomes), sum(ok for ok, _ in outcomes)
    return {"D": D, "c": c, "k": k, "trials": trials, "successes": successes, "estimate": successes / trials,
            "ci95": list(S.wilson_ci(successes, trials)), "inexact_trials": sum(not exact for _, exact in outcomes),
            "window": list(S._window_bounds(D, c))}


def _per_trial_outcomes(D, c, k, trials, seed):
    lo, hi = max(2, math.ceil(D**c)), int(D)
    outcomes = []
    for t in range(trials):
        rng = S.substream(seed, t)
        A = _scalar_log_set(lo - 1, hi, rng)
        outcomes.append((_level_walk_has_k_equal_sums(A[:S.EXACT_SUBSET_LIMIT], k),
                         len(A) <= S.EXACT_SUBSET_LIMIT))
    return outcomes


@pytest.mark.parametrize("D", [10, 1e5, 1e6, 1e8])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_equal_sums_probability_matches_per_trial_loop(D, k):
    # at D = 1e8 and c = 0.02 some sets are too large for the exact census, and
    # the 20-element sets, four to a batch, fill more than one batch
    for c, seed in ((0.02, 1), (0.02, 2), (0.3, 3)):
        trials = 150
        expected = _estimate(D, c, k, _per_trial_outcomes(D, c, k, trials, seed))
        assert S.equal_sums_probability(D, c, k, trials, seed).items() >= expected.items(), (c, seed)


@pytest.mark.parametrize("batch_sums, trial_batch",
                         [(S.BATCH_SUMS, S.TRIAL_BATCH), (1 << 10, 7), (1 << 6, 50), (1, 1)])
def test_equal_sums_batches_match_per_trial_loop(monkeypatch, batch_sums, trial_batch):
    # trial by trial, so that rows swapped within a batch show; the small caps
    # defer rows to later passes on several levels of one walk (2^6 sums: on
    # every level from the first), and one trial per batch walks alone
    monkeypatch.setattr(S, "BATCH_SUMS", batch_sums)
    monkeypatch.setattr(S, "TRIAL_BATCH", trial_batch)
    for D, c, k, seed in ((1e6, 0.3, 2, 5), (1e8, 0.02, 3, 6), (1e5, 0.02, 1, 7)):
        got = []
        for first, elements, sizes in S._trial_batches(D, c, seed, 0, 120):
            success = S._decide_trials(elements, k)
            got += zip(success.tolist(), (sizes <= S.EXACT_SUBSET_LIMIT).tolist())
        assert got == _per_trial_outcomes(D, c, k, 120, seed), (D, c, k)


def test_equal_sums_trial_is_one_row_of_the_batch():
    # D = 1e8, c = 0.02, seed 1: trials 0 and 17 are too large for the exact census
    outcomes = _per_trial_outcomes(1e8, 0.02, 2, 20, 1)
    assert [t for t, (_, exact) in enumerate(outcomes) if not exact] == [0, 17]
    for t, (success, exact) in enumerate(outcomes):  # a batch of one trial
        _, elements, sizes = next(S._trial_batches(1e8, 0.02, 1, t, t + 1))
        assert S._decide_trials(elements, 2).tolist() == [success], t
        assert (sizes[0] <= S.EXACT_SUBSET_LIMIT) == exact, t


def test_equal_sums_trials_are_monotone_in_D():
    # at c = 0.02 the window starts at 2 for every D <= 2^50, so a trial's set
    # at D is a prefix of its set at any larger D, and k equal sums, once
    # found, stay found as D grows
    sets, outcomes = [], []
    for D in (1e6, 1e8, 1e10):
        assert S._window_bounds(D, 0.02)[0] == 2
        (_, elements, sizes), = S._trial_batches(D, 0.02, 20260810, 0, 300)
        sets.append([row[:n].tolist() for row, n in zip(elements, sizes)])
        outcomes.append(S._decide_trials(elements, 2))
    for i in (0, 1):
        assert all(small == large[:len(small)] for small, large in zip(sets[i], sets[i + 1]))
        lost = np.flatnonzero(outcomes[i] & ~outcomes[i + 1]).tolist()
        assert not lost, (i, lost)
    assert outcomes[2].sum() > outcomes[0].sum()


def test_large_sets_are_decided_by_their_smallest_26(monkeypatch):
    # k equal sums among the smallest 26 elements are the set's (True); equal
    # sums that need the 27th element are not seen (False), so past 26
    # elements a trial's outcome is a lower bound, and both sets count as inexact
    hit = [3, 5, 8] + [1 << j for j in range(5, 32)]  # 3 + 5 = 8; 30 elements
    miss = [1 << j for j in range(1, 27)] + [(1 << 26) + 2]  # 2^26 + 2 = 2^26 + 2^1
    elements = np.zeros((2, 30), dtype=np.int64)
    elements[0], elements[1, :27] = hit, miss
    assert S._decide_trials(elements, 2).tolist() == [True, False]
    monkeypatch.setattr(S, "_trial_batches", lambda *args: iter([(0, elements, np.array([30, 27]))]))
    doc = S.equal_sums_probability(1e8, 0.02, 2, 2, 1)
    assert (doc["successes"], doc["inexact_trials"]) == (1, 2)
    rows = [(r["set_size"], r["k_max"], r["exact"]) for r in S.equal_sums_rows(1e8, 0.02, 2, 2, 1)]
    assert rows == [(30, 2, 0), (27, 1, 0)]


# The Philox kernel against substream: seeds of one, two and three 32-bit
# words, and trials on both sides of 2^32, where a trial's entropy grows from
# one word to two (a batch starting at 2^32 - 2 holds both).
ORACLE_SEEDS = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) + 5, (1 << 70) + 3, 20260810]
ORACLE_TRIALS = [*range(300), (1 << 32) - 1, *range(1 << 32, (1 << 32) + 20)]


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_philox_kernel_matches_substream(seed):
    trials = np.array(ORACLE_TRIALS, dtype=np.uint64)
    keys = S._philox_keys(seed, trials)
    expected = [np.random.SeedSequence([seed, t]).generate_state(2, np.uint64) for t in ORACLE_TRIALS]
    assert np.array_equal(keys, np.array(expected))
    # m crosses counter blocks; a start off a block boundary begins mid-block
    for start, m in ((0, 1), (0, 4), (0, 5), (0, 37), (0, 130), (3, 6), (32, 37)):
        got = S._philox_uniforms(keys, start, m)
        want = np.array([S.substream(seed, t).random(start + m)[start:] for t in ORACLE_TRIALS])
        assert np.array_equal(_bits(got), _bits(want)), (start, m)
    # whole lockstep samples agree on both draw sources, on short and long sets
    for lo, hi in ((1, 10**8), (2, S.MAX_ELEMENT)):
        for block in (4, 32):
            rngs = [S.substream(seed, t) for t in ORACLE_TRIALS]
            want = S._log_set_rows(lo, hi, len(rngs), _generator_draws(rngs, block))
            got = S._log_set_rows(lo, hi, len(keys), S._key_draws(keys, block))
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (lo, hi, block)


@pytest.mark.parametrize("start", [0, (1 << 32) - 2, 1 << 32])
def test_trial_batches_sample_the_substreams(start):
    first, elements, sizes = next(S._trial_batches(1e6, 0.02, 20260810, start, start + 40))
    rngs = [S.substream(20260810, t) for t in range(start, start + 40)]
    lo, hi = S._window_bounds(1e6, 0.02)
    want = S._log_set_rows(lo - 1, hi, 40, _generator_draws(rngs))
    assert first == start
    assert np.array_equal(elements, want[0]) and np.array_equal(sizes, want[1])


class _Zeros:
    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)


def test_log_set_rows_stop_at_hi():
    # a draw of 0.0 is u = 1: each step adds one, and the walk ends on hi itself
    elements, sizes = S._log_set_rows(5, 8, 1, _generator_draws([_Zeros()], block=2))
    assert elements.tolist() == [[6, 7, 8]] and sizes.tolist() == [3]
    assert _scalar_log_set(5, 8, _Zeros()) == [6, 7, 8]


def test_log_set_rows_match_scalar_loop():
    # block 1 draws again at every position; sets of 2..2^50 outrun a block of 32
    for lo, hi in ((1, 10), (9, 10**5), (1, 10**8), (2, S.MAX_ELEMENT)):
        for block in (1, 4, 32):
            rngs = [S.substream(71, t) for t in range(200)]
            elements, sizes = S._log_set_rows(lo, hi, 200, _generator_draws(rngs, block))
            for t in range(200):
                assert elements[t, :sizes[t]].tolist() == _scalar_log_set(lo, hi, S.substream(71, t))
                assert not elements[t, sizes[t]:].any()
    # the one-row case leaves its generator past exactly the draws the set used
    for t in range(50):
        rng, ref = S.substream(72, t), S.substream(72, t)
        assert _log_set(1, 10**8, rng) == _scalar_log_set(1, 10**8, ref)
        assert rng.random() == ref.random()


def test_equal_sums_probability_near_empty_window():
    est = S.equal_sums_probability(1e6, 0.999, 2, 200, seed=9)
    assert est["estimate"] < 0.02


def _no_k_equal_sums_probability(hi, k):
    # P(no k subsets of A /\ [2, hi] share a sum) when i is in A with
    # probability 1/i: a set S has probability prod_{i <= hi} (1 - 1/i) *
    # prod_{i in S} 1/(i - 1) = prod_{i in S} 1/(i - 1) / hi, summed by a DFS
    # over the sets without k equal sums (their subsets have none either).
    # reach[m - 1] is the bitset of the sums that m or more subsets of a set
    # reach, m < k; with a, m subsets reach s when i skip a (s) and m - i take it (s - a)
    def extensions(first, reach):
        total = 1.0
        for a in range(first, hi + 1):
            for i in range(k - 1):
                if reach[i] & reach[k - 2 - i] << a:  # i + 1 and k - 1 - i subsets: k reach one sum
                    break
            else:
                up = [r << a for r in reach]
                grown = []
                for m in range(k - 1):
                    g = reach[m] | up[m]
                    for i in range(m):
                        g |= reach[i] & up[m - 1 - i]
                    grown.append(g)
                total += extensions(a + 1, grown) / (a - 1)
        return total

    return extensions(2, [1] + [0] * (k - 2)) / hi


@pytest.mark.parametrize("hi, k, law", [
    (20, 2, 0.197814327358), (40, 2, 0.268890325859), (20, 3, 0.035181258353), (30, 3, 0.052470131349),
], ids=["20-0.197814327358", "40-0.268890325859", "20-0.035181258353-k3", "30-0.052470131349-k3"])
def test_equal_sums_probability_matches_the_exact_law(hi, k, law):
    # the window [2, hi] (c = 0.1 rounds D^c up to 2) against the exact law
    # of k equal sums; z = 4 was fixed before the first run
    assert abs(1 - _no_k_equal_sums_probability(hi, k) - law) < 1e-12
    est = S.equal_sums_probability(hi, 0.1, k, 40000, seed=20261020)
    assert est["window"] == [2, hi]
    assert abs(est["estimate"] - law) < 4 * math.sqrt(law * (1 - law) / 40000)


def test_equal_sums_probability_small_c_smoke():
    est = S.equal_sums_probability(1e6, 0.02, 2, 500, seed=10)
    assert est["estimate"] > 0.5
    assert est["ci95"][0] <= est["estimate"] <= est["ci95"][1]


def test_equal_sums_rows_deterministic():
    rows = list(S.equal_sums_rows(1e5, 0.1, 2, 60, seed=3))
    assert len(rows) == 60
    assert rows == list(S.equal_sums_rows(1e5, 0.1, 2, 60, seed=3))


def test_amplify_product_construction():
    # deterministic instance with two successful windows: multiplicity k^2
    res = S.amplify_demo(2, 10**13, 2, 0.25, seed=76)
    assert sum(w["success"] for w in res["windows"]) == 2
    assert res["k_max"] == 4
    assert len(res["witnesses"]) == 4
    assert len({tuple(w) for w in res["witnesses"]}) == 4


def test_amplify_single_or_no_window():
    res = S.amplify_demo(2, 10**6, 2, 0.5, seed=11)
    assert res["k_max"] == 2 ** sum(w["success"] for w in res["windows"])


def test_amplify_window_guard_boundary(monkeypatch):
    nwin = len(S.amplify_demo(2, 10**13, 2, 0.25, seed=76)["windows"])
    monkeypatch.setattr(S, "MAX_AMPLIFY_WINDOWS", nwin)
    assert len(S.amplify_demo(2, 10**13, 2, 0.25, seed=76)["windows"]) == nwin
    monkeypatch.setattr(S, "MAX_AMPLIFY_WINDOWS", nwin - 1)
    with pytest.raises(CapacityError, match=f"more than {nwin - 1} windows"):
        S.amplify_demo(2, 10**13, 2, 0.25, seed=76)


def test_amplify_witness_sums_agree():
    res = S.amplify_demo(2, 10**13, 2, 0.25, seed=76)
    elements = _log_set(1, 10**13, S.substream(76, 0))
    sums = {sum(elements[i] for i in w) for w in res["witnesses"]}
    assert sums == {res["witness_sum"]}


@pytest.mark.parametrize("seed", [0, 76, 20260810, (1 << 32) + 7, (1 << 40) + 3])
def test_amplify_samples_the_substream(monkeypatch, seed):
    # the set amplify splits is the one drawn from substream(seed, trial)
    sets = []
    log_set_rows = S._log_set_rows
    monkeypatch.setattr(S, "_log_set_rows", lambda *args: sets.append(log_set_rows(*args)) or sets[-1])
    for D1, D2, trial in ((2, 10**13, 0), (10, 10**6, 3), (2, S.MAX_ELEMENT, 1)):
        windows = S.amplify_demo(D1, D2, 2, 0.5, seed, trial)["windows"]
        elements, sizes = sets.pop()
        want = _scalar_log_set(D1 - 1, D2, S.substream(seed, trial))
        assert elements[0, :sizes[0]].tolist() == want, (D1, D2, trial)
        assert [w["size"] for w in windows] == [
            sum(w["lower"] <= e < w["upper"] for e in want) for w in windows]


@pytest.mark.parametrize("args, message", [
    ((2, 10**6, 0, 0.5), "k must be >= 1"),
    ((2, 10**6, -1, 0.5), "k must be >= 1"),
    ((5, 5, 2, 0.5), "need 2 <= D1 < D2"),  # an empty range
])
def test_amplify_rejects_arguments_before_sampling(monkeypatch, args, message):
    monkeypatch.setattr(S, "_log_set_rows", _no_draws)
    with pytest.raises(ValueError, match=message):
        S.amplify_demo(*args, seed=0)


# ---------------------------------------------------------------------------
# Integers


def test_factorize_small():
    assert S.factorize(1) == {}
    assert S.factorize(2**10) == {2: 10}
    assert S.factorize(600851475143) == {71: 1, 839: 1, 1471: 1, 6857: 1}


def test_factorize_recomposes():
    for t in range(40):
        rng = S.substream(77, t)
        n = int(rng.integers(2, 1 << 50))
        f = S.factorize(n)
        prod = 1
        for p, e in f.items():
            assert S.is_probable_prime(p)
            prod *= p**e
        assert prod == n


def test_is_probable_prime_against_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert S.is_probable_prime(n) == sieve[n]


# OEIS A014233: the least strong pseudoprime to the first 7, 9, 12 and 13
# prime bases, and the largest prime below each
PSEUDOPRIME_BOUNDS = [341550071728321, 3825123056546413051, 318665857834031151167461,
                      3317044064679887385961981]
PRIMES_BELOW_BOUNDS = [341550071728289, 3825123056546412979, 318665857834031151167441,
                       3317044064679887385961813]


def test_is_probable_prime_near_its_bounds():
    # the first 12 bases pass 399165290221 * 798330580441, so 13 must decide it
    assert 399165290221 * 798330580441 == PSEUDOPRIME_BOUNDS[2]
    for bound, p in zip(PSEUDOPRIME_BOUNDS[:3], PRIMES_BELOW_BOUNDS[:3]):
        assert not S.is_probable_prime(bound)
        assert S.is_probable_prime(p)
    assert S.is_probable_prime(PRIMES_BELOW_BOUNDS[3])
    with pytest.raises(ValueError, match="decided only below"):
        S.is_probable_prime(PSEUDOPRIME_BOUNDS[3])


def test_factorize_rows_around_the_sieve_bound():
    # cofactors below SIEVE_BOUND^2 are prime without a test; above it, one
    # prime, a square and products of two primes above the bound
    B = S.SIEVE_BOUND
    p, q = 8209, 8219  # the least primes above 2^13
    cases = {1: {}, 2: {2: 1}, B: {2: 13}, 8191 * 8191: {8191: 2}, p: {p: 1}, p * p: {p: 2},
             p * q: {p: 1, q: 1}, 2 * 3 * p * q: {2: 1, 3: 1, p: 1, q: 1}, (1 << 61) - 1: {(1 << 61) - 1: 1},
             PRIMES_BELOW_BOUNDS[0]: {PRIMES_BELOW_BOUNDS[0]: 1}, 3 * 8191 * p: {3: 1, 8191: 1, p: 1}}
    assert S._factorize_rows(list(cases)) == list(cases.values())
    assert [S.factorize(n) for n in cases] == list(cases.values())


def test_delta_integer_examples():
    assert S.delta_integer(12).delta == 3
    assert S.delta_integer(2).delta == 2
    for p in (3, 5, 7, 97, 65537):
        assert S.delta_integer(p).delta == 1


def test_delta_integer_bounds():
    for t in range(30):
        rng = S.substream(88, t)
        n = int(rng.integers(2, 10**12))
        s = S.delta_integer(n)
        assert 1 <= s.delta <= len(S.divisors_of(S.factorize(n)))


def test_delta_integer_bruteforce_window():
    # independent two-loop oracle on numbers with modest divisor counts
    for n in (12, 360, 720, 2**6 * 3**4, 97, 1001):
        divs = S.divisors_of(S.factorize(n))
        best = 0
        for d in divs:
            cnt = sum(1 for e in divs if d <= e <= math.e * d + 1e-9)
            best = max(best, cnt)
        assert S.delta_integer(n).delta == best


def test_sample_delta_integer():
    samples = list(S.sample_delta_integer(10**6, 50, seed=4))
    assert len(samples) == 50
    assert min(s.delta for s in samples) >= 1
    assert samples == list(S.sample_delta_integer(10**6, 50, seed=4))


# numpy's bounded draws: X = 1 takes none, X <= 2^32 takes 32-bit halves
# (2^31 + 1 rejects about half of them, 2^32 none), larger X 64-bit words
DELTA_INT_X = [1, 2, 3, (1 << 31) + 1, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, 10**12 + 39,
               (1 << 50) - 3, 1 << 50]
# 2^64 mod X = X - 16129: about 6 of 10^5 first words are rejected
REJECTING_X = 1125831191559937


@pytest.mark.parametrize("X", DELTA_INT_X)
def test_sample_delta_integer_draws_the_substreams(X):
    assert list(S.sample_delta_integer(X, 60, seed=20260810)) == [
        S.delta_integer(int(S.substream(20260810, t).integers(1, X + 1))) for t in range(60)]


def test_sample_delta_integer_redraws_a_rejected_word():
    trials = np.arange(10**5, dtype=np.uint64)
    words = S._philox_words(S._philox_keys(20260810, trials), 0, 1)[:, 0]
    _, low = S._mulhilo(np.uint64(REJECTING_X), words)
    rejected = np.flatnonzero(low < np.uint64((1 << 64) % REJECTING_X)).tolist()
    assert rejected  # [19549, 50634, 60449, 67767]
    keys = S._philox_keys(20260810, np.array(rejected, dtype=np.uint64))
    got = (S._philox_integers(keys, REJECTING_X) + np.uint64(1)).tolist()
    assert got == [int(S.substream(20260810, t).integers(1, REJECTING_X + 1)) for t in rejected]


def test_sample_delta_integer_rejects_x_outside_range():
    for X in (0, -5, (1 << 50) + 1):
        with pytest.raises(ValueError, match="X must be in"):
            S.sample_delta_integer(X, 3, seed=1)


# ---------------------------------------------------------------------------
# Permutations


def _cycle_type(n, rng):
    # one permutation's cycle type, from n of rng's uniforms
    return S._cycle_types(n, lambda m: rng.random((1, m)))[0]


def test_cycle_type_n1():
    assert _cycle_type(1, S.substream(0, 0)) == (1,)


def _scalar_cycle_type(n, rng):
    out, rem = [], n
    while rem:
        t = 1
        while rng.random() >= 1.0 / (rem - t + 1):
            t += 1
        out.append(t)
        rem -= t
    return tuple(sorted(out))


def test_cycle_type_matches_scalar_loop():
    for n in (1, 2, 3, 7, 50, 400):
        for t in range(300):
            rng, ref = S.substream(81, t), S.substream(81, t)
            assert _cycle_type(n, rng) == _scalar_cycle_type(n, ref), (n, t)
            assert rng.random() == ref.random()  # both use n draws


def test_cycle_type_partitions_n():
    for t in range(50):
        ct = _cycle_type(37, S.substream(6, t))
        assert sum(ct) == 37
        assert all(c >= 1 for c in ct)


def test_cycle_count_distribution():
    # E[#cycles] = H_n; check within 4 standard errors
    n, trials = 40, 3000
    h = sum(1.0 / i for i in range(1, n + 1))
    counts = [len(_cycle_type(n, S.substream(13, t))) for t in range(trials)]
    mean = sum(counts) / trials
    var = sum(1.0 / i - 1.0 / i**2 for i in range(1, n + 1))
    se = math.sqrt(var / trials)
    assert abs(mean - h) < 4 * se


def test_cycle_length_1_frequency():
    # P(a uniform permutation has a fixed point) = 1 - sum_k (-1)^k / k!
    trials = 4000
    n = 25
    hit = sum(1 in _cycle_type(n, S.substream(14, t)) for t in range(trials))
    target = 1.0 - sum((-1) ** k / math.factorial(k) for k in range(n + 1))
    assert abs(hit / trials - target) < 4 * math.sqrt(target * (1 - target) / trials)


def test_cycle_type_exact_distribution_n4():
    # uniform S_4: cycle-type probabilities 1/24 * (1, 6, 3, 8, 6)
    expected = {
        (1, 1, 1, 1): 1 / 24,
        (1, 1, 2): 6 / 24,
        (2, 2): 3 / 24,
        (1, 3): 8 / 24,
        (4,): 6 / 24,
    }
    trials = 20000
    counts: dict = {}
    for t in range(trials):
        ct = _cycle_type(4, S.substream(19, t))
        counts[ct] = counts.get(ct, 0) + 1
    assert set(counts) == set(expected)
    for ct, p in expected.items():
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(counts[ct] / trials - p) < 4.5 * se, ct


def test_delta_perm_examples():
    assert S.delta_perm([1]).delta == 1
    assert S.delta_perm([1, 1, 2]).delta == 2
    for n in (4, 8, 10):
        assert S.delta_perm([1] * n).delta == math.comb(n, n // 2)


def test_delta_perm_equals_bruteforce():
    for t in range(60):
        ct = _cycle_type(int(S.substream(21, t).integers(1, 21)), S.substream(22, t))
        assert S.delta_perm(ct).delta == S.delta_perm_bruteforce(ct)


def test_delta_perm_guard():
    with pytest.raises(CapacityError):
        S.delta_perm([401])


@pytest.mark.parametrize("n", [1, 2, 37, 400])
def test_sample_delta_perm_draws_the_substreams(monkeypatch, n):
    # blocks of 7 rows: the flat gaps restart at each row of every block
    monkeypatch.setattr(S, "BLOCK_WORDS", 7 * n)
    assert list(S.sample_delta_perm(n, 40, seed=20260810)) == [
        S.delta_perm(_cycle_type(n, S.substream(20260810, t))) for t in range(40)]


def _poly_loop_max_coeff(factor_counts):
    # the coefficient list of prod_j (1 + x^j)^(c_j), multiplied out term by term
    poly = [1]
    for j, cj in sorted(factor_counts.items()):
        if cj <= 0:
            continue
        new = [0] * (len(poly) + j * cj)
        for t0, coeff in enumerate(poly):
            for s in range(cj + 1):
                new[t0 + s * j] += coeff * math.comb(cj, s)
        poly = new
    return max(poly)


def test_kronecker_product_matches_term_loop():
    rng = S.substream(90, 0)
    # {0: 8} is the one coefficient 2^(sum c_j), which needs a digit of 9 bits
    cases = [{}, {1: 0}, {3: -2, 5: 1}, {0: 8}, {1: 80}, {1: 40, 2: 30, 7: 3}, {1: 255}, {2: 7, 3: 1}]
    for t in range(60):
        size = int(rng.integers(1, 9))
        cases.append(dict(zip(rng.integers(1, 60, size).tolist(), rng.integers(-1, 30, size).tolist())))
    assert max(_poly_loop_max_coeff(c) for c in cases) >= 1 << 64
    for counts in cases:
        assert S._max_coeff_of_product(counts) == _poly_loop_max_coeff(counts), counts


# ---------------------------------------------------------------------------
# Polynomials


def test_irreducible_count_values():
    assert S.irreducible_count(2, 1) == 2
    assert S.irreducible_count(2, 2) == 1
    assert S.irreducible_count(2, 3) == 2
    assert S.irreducible_count(2, 4) == 3
    assert S.irreducible_count(3, 2) == 3
    for q in (2, 3, 4, 5, 8, 9):
        assert S.irreducible_count(q, 1) == q


def test_irreducible_count_total_identity():
    # sum over d | n of d * N_q(d) = q^n (every monic poly factors uniquely)
    for q in (2, 3, 5):
        for n in (1, 2, 3, 4, 6, 12):
            total = sum(d * S.irreducible_count(q, d) for d in range(1, n + 1) if n % d == 0)
            assert total == q**n


def test_irreducible_count_rejects_non_prime_power():
    with pytest.raises(ValueError):
        S.irreducible_count(6, 2)


def test_irreducible_count_matches_full_divisor_sum():
    for q in (2, 3, 4, 9, 1 << 20):
        for d in range(1, 80):
            total = sum(S._mobius(d // j) * q**j for j in range(1, d + 1) if d % j == 0)
            assert S.irreducible_count(q, d) == total // d, (q, d)


def test_nb_mean_agreement_in_lemma_range():
    # in the transfer window d >= 10 log n the factor-count law's mean is
    # within 2/n relative of 1/d
    n = 2000
    d0 = math.ceil(10 * math.log(n))
    for q in (2, 3):
        for d in (d0, d0 + 1, d0 + 5):
            mean = S.nb_mean(q, d)
            rel = abs(float(mean) * d - 1.0)
            assert rel < 2.0 / n


def test_nb_mean_formula():
    assert S.nb_mean(2, 3) == Fraction(2, 7)


def test_lemma_degree_range_empty_at_desk_scale():
    lo, hi = S.lemma_degree_range(2000)
    assert lo > hi  # documented: the window is empty for all n <= 2000


def test_sample_poly_degrees_models():
    rng = S.substream(31, 0)
    deg_p = S.sample_poly_degrees(2, 2000, "poisson", rng, d_range=(2, 50))
    assert all(2 <= d <= 50 for d in deg_p)
    rng = S.substream(31, 1)
    deg_nb = S.sample_poly_degrees(2, 2000, "nb", rng, d_range=(2, 50))
    assert all(y >= 1 for y in deg_nb.values())
    # default lemma range is empty at n=2000: no degrees sampled
    rng = S.substream(31, 2)
    assert S.sample_poly_degrees(2, 2000, "poisson", rng) == {}


def _scalar_poly_degrees(q, model, d_lo, d_hi, rng):
    # the one-draw-per-degree loop sample_poly_degrees replaced
    out = {}
    for d in range(max(1, d_lo), d_hi + 1):
        if model == "poisson":
            y = int(rng.poisson(1.0 / d))
        elif q**d < (1 << 52):
            y = int(rng.negative_binomial(S.irreducible_count(q, d), 1.0 - 1.0 / q**d))
        else:
            y = int(rng.poisson(float(S.nb_mean(q, d))))
        if y:
            out[d] = y
    return out


@pytest.mark.parametrize("model", ["poisson", "nb"])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_sample_poly_degrees_matches_scalar_draws(q, model):
    # the window (1, 60) crosses q^d = 2^52 for every q here, so the nb
    # model draws both blocks; so does the short window around the switch
    switch = next(d for d in range(1, 60) if q**d >= 1 << 52)
    for window in ((1, 60), (switch - 2, switch + 1)):
        for seed in range(20):
            got = S.sample_poly_degrees(q, 100, model, S.substream(seed, 0), window)
            assert got == _scalar_poly_degrees(q, model, *window, S.substream(seed, 0))
            assert all(type(d) is int and type(y) is int for d, y in got.items())


def test_sample_poly_degrees_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        S.sample_poly_degrees(2, 100, "binomial", S.substream(0, 0), (2, 10))


def test_poisson_nb_empirical_means_close():
    # same d, many draws: sample means agree within a few standard errors
    d, trials = 25, 4000
    tot_p = tot_nb = 0
    for t in range(trials):
        rng = S.substream(41, t)
        tot_p += rng.poisson(1.0 / d)
        tot_nb += rng.negative_binomial(S.irreducible_count(2, d), 1.0 - 1.0 / 2**d)
    se = math.sqrt(1.0 / d / trials) * 4
    assert abs(tot_p / trials - 1.0 / d) < se
    assert abs(tot_nb / trials - 1.0 / d) < se + 2.0 / 2000


def test_nb_zero_mass_frequency():
    # NB(m, p) puts mass (1-p)^m at 0; q=2, d=3 gives m=2, p=1/8
    trials = 20000
    zeros = 0
    for t in range(trials):
        rng = S.substream(23, t)
        if rng.negative_binomial(2, 1.0 - 1.0 / 8.0) == 0:
            zeros += 1
    p0 = (7.0 / 8.0) ** 2
    se = math.sqrt(p0 * (1 - p0) / trials)
    assert abs(zeros / trials - p0) < 4 * se


def test_delta_integer_random_against_two_loop_oracle():
    for t in range(40):
        rng = S.substream(29, t)
        n = int(rng.integers(2, 10**7))
        divs = S.divisors_of(S.factorize(n))
        best = 0
        logs = [math.log(d) for d in divs]
        for i in range(len(logs)):
            best = max(best, sum(1 for x in logs if logs[i] <= x <= logs[i] + 1.0))
        assert S.delta_integer(n).delta == best


def test_delta_poly_product():
    s = S.delta_poly({1: 2, 2: 1})
    assert s.delta == 2  # same polynomial as cycle type {1,1,2}
    assert S.delta_poly({}).delta == 1


def test_sample_delta_poly_deterministic():
    a = list(S.sample_delta_poly(2, 2000, "poisson", 30, seed=2, d_range=(2, 40)))
    b = list(S.sample_delta_poly(2, 2000, "poisson", 30, seed=2, d_range=(2, 40)))
    assert a == b
    assert all(s.delta >= 1 for s in a)


@pytest.mark.parametrize("model", ["poisson", "nb"])
def test_sample_delta_poly_draws_the_substreams(model):
    # each sample's Generator is built on its Philox key: the draws of substream(seed, t)
    got = S.sample_delta_poly(3, 2000, model, 40, seed=20260810, d_range=(2, 60))
    assert list(got) == [S.delta_poly(S.sample_poly_degrees(3, 2000, model, S.substream(20260810, t), (2, 60)))
                         for t in range(40)]


@pytest.mark.parametrize("sample, message", [
    (lambda: S.sample_delta_integer(10, 5, seed=-1), "expected non-negative integer"),
    (lambda: S.sample_delta_perm(401, 5, seed=0), "permutation size n guard"),
    (lambda: S.sample_delta_perm(10, 0, seed=0), "samples must be >= 1"),
    (lambda: S.sample_delta_poly(6, 100, "nb", 5, seed=0, d_range=(2, 5)), "not a prime power"),
    (lambda: S.sample_delta_poly(2, 1, "nb", 5, seed=0), "needs n >= 2"),
    (lambda: S.sample_delta_poly(2, 100, "binomial", 5, seed=0, d_range=(2, 5)), "unknown model"),
    (lambda: S.sample_delta_poly(2, 100, "nb", 5, seed=-1, d_range=(2, 5)), "expected non-negative integer"),
    (lambda: S.equal_sums_rows(1e6, 0.1, 2, 5, seed=-1), "expected non-negative integer"),
    (lambda: S.equal_sums_rows(1.5, 0.1, 2, 5, seed=0), "need finite D and c"),
], ids=["int-seed", "perm-n", "perm-samples", "poly-q", "poly-window", "poly-model", "poly-seed",
        "rows-seed", "rows-window"])
def test_streams_check_their_arguments_at_the_call(monkeypatch, sample, message):
    # nothing is drawn before every argument is checked, so the CLI opens no
    # --out file for a run it refuses
    monkeypatch.setattr(S, "_philox_keys", _no_draws)
    with pytest.raises((ValueError, CapacityError), match=message):
        sample()
