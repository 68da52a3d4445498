import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from cubeflags import flags
from cubeflags.errors import CapacityError, InvalidChildError
from cubeflags.flags import (
    Flag,
    Genotype,
    Subflag,
    automorphism_generators,
    basic_subflag,
    binary_flag,
    cell_tree,
    cells_with_genotype_count,
    children_count,
    children_with_genotype_count,
    consolidate,
    defects,
    enumerate_subflags,
    genotype_of,
    make_flag,
    mt_flag,
    parse_flag_text,
    permute_subspace,
    permute_vector,
    point_to_string,
)
from cubeflags.qlinalg import Subspace, contains, coset_key, cube_points, ones, span


# ---------------------------------------------------------------------------
# Flag construction


def test_binary_flag_dims():
    assert binary_flag(1).dims() == (1, 2)
    assert binary_flag(2).dims() == (1, 2, 4)
    assert binary_flag(3).dims() == (1, 2, 4, 8)


def test_binary_flag_nondegenerate():
    for r in (1, 2, 3):
        assert binary_flag(r).nondegenerate


def test_binary_v1_cube_points():
    f = binary_flag(2)
    pts = [point_to_string(p) for p in cube_points(f.spaces[1])]
    assert pts == ["0000", "0011", "1100", "1111"]


def test_binary_r3_membership_characterization():
    # x in V_i iff every i-block of x is constant
    f = binary_flag(3)
    from itertools import product

    for i in (1, 2):
        width = 1 << (3 - i)
        for p in product((0, 1), repeat=8):
            blocks_const = all(
                len(set(p[c * width : (c + 1) * width])) == 1 for c in range(1 << i)
            )
            assert contains(f.spaces[i], p) == blocks_const


def test_binary_flag_order_guard():
    with pytest.raises(CapacityError):
        binary_flag(5)


def test_mt_flag_r1_equals_binary_r1():
    assert mt_flag(1).spaces == binary_flag(1).spaces


def test_mt_flag_dims_and_top_cell():
    f = mt_flag(2)
    assert f.dims() == (1, 2, 3)
    assert len(cube_points(f.spaces[2])) == 6
    f3 = mt_flag(3)
    assert f3.dims()[-1] == 4
    assert f3.nondegenerate


# ---------------------------------------------------------------------------
# Cells


def test_cells_binary_r2_level2():
    cells = cell_tree(binary_flag(2)).levels[2]
    assert len(cells) == 1 and cells[0].size == 16


def test_cells_binary_r2_level1_sizes():
    cells = cell_tree(binary_flag(2)).levels[1]
    assert sorted((c.size for c in cells), reverse=True) == [4, 2, 2, 2, 2, 1, 1, 1, 1]


def test_cells_binary_r2_level0():
    cells = cell_tree(binary_flag(2)).levels[0]
    assert len(cells) == 15
    sizes = sorted(c.size for c in cells)
    assert sizes == [1] * 14 + [2]


def test_cells_partition_and_size_identity():
    for r in (2, 3):
        f = binary_flag(r)
        k = f.ambient_dim
        for i in range(r + 1):
            cells = cell_tree(f).levels[i]
            total = sum(c.size for c in cells)
            assert total == 2**k
            assert sum(2 ** genotype_of(c).size for c in cells) == 2**k
            seen = set()
            for c in cells:
                assert c.size == 2 ** genotype_of(c).size
                for p in c.members:
                    assert p not in seen
                    seen.add(p)


def test_level0_leaf_count():
    for r in (1, 2, 3):
        f = binary_flag(r)
        assert len(cell_tree(f).levels[0]) == 2**f.ambient_dim - 1


def _reference_partition(flag):
    """Cells and child links by the per-point route: group the cube by
    coset_key at every level; a cell's parent is the group one level up that
    holds its least member."""
    levels, group_of = [], []
    for W in flag.spaces:
        groups = {}
        for p in product((0, 1), repeat=flag.ambient_dim):
            groups.setdefault(coset_key(W, p), []).append(p)
        cells = sorted(tuple(pts) for pts in groups.values())
        levels.append(cells)
        group_of.append({p: j for j, pts in enumerate(cells) for p in pts})
    child_ids = [()]
    for i in range(1, flag.order + 1):
        by_parent = [[] for _ in levels[i]]
        for j, pts in enumerate(levels[i - 1]):
            by_parent[group_of[i][pts[0]]].append(j)
        child_ids.append(tuple(tuple(lst) for lst in by_parent))
    return levels, tuple(child_ids)


def _random_custom_flag(rnd):
    k = rnd.randint(2, 9)
    gens = [ones(k)]
    spaces = [span(gens, k)]
    for _ in range(rnd.randint(1, 3)):
        gens += [tuple(rnd.randint(0, 1) for _ in range(k)) for _ in range(rnd.randint(1, 2))]
        spaces.append(span(gens, k))
    return make_flag(spaces, "custom")


def test_partition_and_tree_match_per_point_reference():
    rnd = random.Random(20261017)
    cases = [binary_flag(r) for r in (1, 2, 3)] + [mt_flag(r) for r in (2, 3, 4)]
    cases.append(parse_flag_text((Path(__file__).parents[1] / "perfbench" / "mt4_q12.flag").read_text()))
    cases += [_random_custom_flag(rnd) for _ in range(20)]
    # basis rows with leading entry 2, so the coset matrix scales by an lcm > 1
    pts = [(1, 1, 0, 0, 1, 0), (1, 0, 1, 0, 1, 0), (1, 1, 0, 0, 0, 1), (0, 0, 1, 1, 1, 0),
           (1, 0, 0, 1, 0, 1)]
    lead2 = [span([ones(6)]), span([ones(6), pts[0]]), span([ones(6)] + pts)]
    assert lead2[2].basis[0][0] == 2
    cases.append(make_flag(lead2, "custom"))
    for f in cases:
        levels, child_ids = _reference_partition(f)
        for i in range(f.order + 1):
            assert [c.members for c in cell_tree(f).levels[i]] == levels[i]
        assert cell_tree(f).child_ids == child_ids


def test_gamma_tree_is_the_full_tree_under_gamma():
    # the tree over V_r's cube points is the full tree's subtree under
    # Gamma_r: the same cells, in the same order, with the same child links
    rnd = random.Random(20261019)
    cases = [binary_flag(r) for r in (1, 2, 3)] + [mt_flag(r) for r in (2, 3, 4)]
    cases.append(parse_flag_text((Path(__file__).parents[1] / "perfbench" / "mt4_q12.flag").read_text()))
    cases += [_random_custom_flag(rnd) for _ in range(20)]
    for f in cases:
        full, sub = cell_tree(f), cell_tree(f, tuple(cube_points(f.spaces[-1])))
        under = [[0]]  # full-tree indices of the cells under Gamma_r, top down
        for i in range(f.order, 0, -1):
            under.append(sorted(j for c in under[-1] for j in full.child_ids[i][c]))
        under.reverse()
        for i in range(f.order + 1):
            index = {c.members[0]: j for j, c in enumerate(full.levels[i])}
            mapped = [index[c.members[0]] for c in sub.levels[i]]
            assert mapped == under[i]
            assert list(sub.levels[i]) == [full.levels[i][j] for j in mapped]
            if i:
                assert [[under[i - 1][j] for j in kids] for kids in sub.child_ids[i]] == [
                    list(full.child_ids[i][j]) for j in mapped]


def test_gamma_is_the_first_cell_and_the_only_one_holding_the_origin():
    mt4_q12 = parse_flag_text((Path(__file__).parents[1] / "perfbench" / "mt4_q12.flag").read_text())
    cases = [binary_flag(r) for r in (1, 2, 3)] + [mt_flag(r) for r in (2, 3, 4)] + [mt4_q12]
    for f in cases:
        tree = cell_tree(f)
        origin = (0,) * f.ambient_dim
        for i in range(f.order + 1):
            holding = [c for c in tree.levels[i] if origin in c.members]
            assert holding == [tree.levels[i][0]]
            assert tree.gamma(i) is tree.levels[i][0]


def _reference_cube_points(W):
    # the per-candidate loop cube_points used before the doubling: each of the
    # 2^dim W sign vectors re-sums its rows from zero
    k, d = W.ambient_dim, W.dim
    if d == 0:
        return [(0,) * k]
    leads = [row[p] for row, p in zip(W.basis, W.pivots)]
    lead_lcm = math.lcm(*leads)
    scaled = [tuple(x * (lead_lcm // l) for x in row) for row, l in zip(W.basis, leads)]
    out = []
    for eps in product((0, 1), repeat=d):
        acc = [0] * k
        for e, row in zip(eps, scaled):
            if e:
                acc = [a + x for a, x in zip(acc, row)]
        if all(a == 0 or a == lead_lcm for a in acc):
            out.append(tuple(1 if a else 0 for a in acc))
    out.sort()
    return out


def test_cube_points_match_per_candidate_reference():
    mt4_q12 = parse_flag_text((Path(__file__).parents[1] / "perfbench" / "mt4_q12.flag").read_text())
    spaces = [W for f in [binary_flag(r) for r in (1, 2, 3)] + [mt_flag(r) for r in (2, 3, 4)] + [mt4_q12]
              for W in f.spaces]
    rnd = random.Random(20261018)
    for _ in range(60):
        # small signed integer generators give leading entries above 1 and
        # negative entries, so the lcm scaling and cancellation both show
        k = rnd.randint(1, 7)
        gens = [tuple(rnd.randint(-2, 2) for _ in range(k)) for _ in range(rnd.randint(0, k))]
        spaces.append(span(gens, k))
    assert any(max(row[p] for row, p in zip(W.basis, W.pivots)) > 1 for W in spaces if W.dim)
    for W in spaces:
        assert cube_points(W) == _reference_cube_points(W)


def test_partition_guards_raise_capacity_error():
    # beyond the ambient-dimension cap, before the cube is built
    k = flags.MAX_CELL_AMBIENT_DIM + 1
    with pytest.raises(CapacityError):
        cell_tree(Flag(k, (span([ones(k)]),), "custom", True))
    # coset keys must fit int64: k * max|M| < 2^62 for M = coset_matrix(V_i)
    v0 = span([ones(2)])
    fits = Flag(2, (v0, Subspace(2, ((1, (1 << 61) - 1),))), "custom", True)
    assert [c.members for c in cell_tree(fits).levels[1]] == [((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]
    with pytest.raises(CapacityError):
        cell_tree(Flag(2, (v0, Subspace(2, ((1, 1 << 61),))), "custom", True))


# ---------------------------------------------------------------------------
# Genotypes


def test_genotype_consolidation_matches_set_definition():
    rnd = random.Random(5)
    for _ in range(200):
        level = rnd.randint(1, 4)
        mask = rnd.getrandbits(1 << level)
        g = Genotype(level, mask)
        members = set(g.subsets())
        expected = {a for a in members if level not in a and (a | {level}) in members}
        assert set(consolidate(g).subsets()) == expected


def test_consolidation_inequality():
    rnd = random.Random(6)
    for _ in range(300):
        level = rnd.randint(1, 4)
        g = Genotype(level, rnd.getrandbits(1 << level))
        gstar = consolidate(g)
        assert g.size / 2 >= gstar.size >= g.size - 2 ** (level - 1)


def test_defects_of_full_genotype():
    for i in (1, 2, 3, 4):
        d = defects(Genotype.full(i))
        assert d[: i] == (0,) * i
        assert d[i] == 1


def test_defects_example_level1():
    g = Genotype.from_subsets(1, [frozenset()])
    assert defects(g) == (1, 0)


def test_consolidation_example_p2():
    g = Genotype.full(2)
    gstar = consolidate(g)
    assert g.size == 4 and gstar.size == 2
    assert gstar == Genotype.full(1)


def test_defects_nonnegative_and_sum():
    rnd = random.Random(11)
    for _ in range(300):
        level = rnd.randint(1, 4)
        g = Genotype(level, rnd.getrandbits(1 << level))
        ds = defects(g)
        assert all(d >= 0 for d in ds)
        # sum_m D^m(g) 2^(m-1) telescopes back to |g|
        assert sum(d * 2**m for d, m in zip(ds, range(len(ds)))) == g.size


def test_children_with_genotype_count_examples():
    g = Genotype.full(2)
    g1 = Genotype.full(1)
    assert children_with_genotype_count(g, g1) == 1
    empty = Genotype(1, 0)
    assert children_with_genotype_count(g, empty) == 4
    assert children_count(g) == 9
    g_empty = Genotype(1, 0)
    assert children_count(g_empty) == 1


def test_children_invalid_child():
    g = Genotype(2, 0b0011)  # g* = {emptyset}... low half 11, high 00 -> g* = 0
    child = Genotype(1, 0b10)
    with pytest.raises(InvalidChildError):
        children_with_genotype_count(g, child)


def test_cells_with_genotype_count_examples():
    # level-1 genotypes of the order-2 flag
    assert cells_with_genotype_count(2, Genotype.full(1)) == 1
    one = Genotype(1, 0b01)
    assert cells_with_genotype_count(2, one) == 2
    assert cells_with_genotype_count(2, Genotype(1, 0)) == 4


def test_genotype_census_against_closed_forms():
    # brute-force census of cells by genotype == closed-form count, r <= 3
    for r in (2, 3):
        f = binary_flag(r)
        for i in range(r + 1):
            census = {}
            for c in cell_tree(f).levels[i]:
                g = genotype_of(c)
                census[g] = census.get(g, 0) + 1
            for g, n in census.items():
                assert n == cells_with_genotype_count(r, g)
            total = sum(census.values())
            assert total == sum(
                cells_with_genotype_count(r, Genotype(i, m)) for m in range(1 << (1 << i))
            )


def test_child_counts_against_closed_forms():
    for r in (2, 3):
        f = binary_flag(r)
        tree = cell_tree(f)
        for level in range(1, r + 1):
            for idx, cell in enumerate(tree.levels[level]):
                g = genotype_of(cell)
                kids = tree.children(level, idx)
                assert len(kids) == children_count(g)
                by_geno = {}
                for kid in kids:
                    gg = genotype_of(kid)
                    by_geno[gg] = by_geno.get(gg, 0) + 1
                for gg, n in by_geno.items():
                    assert n == children_with_genotype_count(g, gg)


def test_small_calc_identity_exact():
    # sum over level-j genotypes g with g* >= g' of 2^(-|g*|)
    #   == (1/2)^(2^(j-1)) * 7^(2^(j-1) - |g'|), exactly as rationals
    for j in (1, 2, 3, 4):
        half = 1 << (j - 1)
        scale = 1 << half  # clear denominators: multiply by 2^half
        sums = [0] * (1 << half)
        lowmask = (1 << half) - 1
        for mask in range(1 << (1 << j)):
            gstar = mask & lowmask & (mask >> half)
            w = 1 << (half - gstar.bit_count())
            sub = gstar
            while True:
                sums[sub] += w
                if sub == 0:
                    break
                sub = (sub - 1) & gstar
        for gp in range(1 << half):
            lhs = Fraction(sums[gp], scale)
            rhs = Fraction(1, 2) ** half * 7 ** (half - gp.bit_count())
            assert lhs == rhs
    # spot value from the statement: j = 1, g' empty gives 7/2
    assert Fraction(7, 2) == Fraction(1, 2) * 7


# ---------------------------------------------------------------------------
# Automorphisms


def test_automorphisms_are_involutions():
    f = binary_flag(2)
    for perm in automorphism_generators(f):
        double = tuple(perm[perm[i]] for i in range(len(perm)))
        assert double == tuple(range(len(perm)))


def test_automorphisms_preserve_spaces():
    for r in (2, 3):
        f = binary_flag(r)
        for perm in automorphism_generators(f):
            for W in f.spaces:
                assert permute_subspace(perm, W) == W


def test_block_swap_generator():
    # the coarsest generator swaps the two level-1 blocks of every vector
    f = binary_flag(2)
    gens = automorphism_generators(f)
    swap = None
    for perm in gens:
        if permute_vector(perm, (0, 1, 2, 3)) == (2, 3, 0, 1):
            swap = perm
    assert swap is not None


def test_automorphisms_preserve_cell_partition():
    for r in (2, 3):
        f = binary_flag(r)
        gens = automorphism_generators(f)
        for i in range(r + 1):
            parts = {frozenset(c.members) for c in cell_tree(f).levels[i]}
            for perm in gens:
                mapped = {
                    frozenset(permute_vector(perm, p) for p in part) for part in parts
                }
                assert mapped == parts


def test_apply_automorphism_to_subflag():
    f = binary_flag(2)
    sf = basic_subflag(f, 1)
    for perm in automorphism_generators(f):
        image = Subflag(sf.parent, tuple(permute_subspace(perm, W) for W in sf.spaces))
        assert image.spaces == sf.spaces  # basic flags invariant


# ---------------------------------------------------------------------------
# Subflag enumeration


def test_subflags_binary_r1():
    subs = list(enumerate_subflags(binary_flag(1)))
    assert len(subs) == 2
    dims = sorted(sf.dims() for sf in subs)
    assert dims == [(1, 1), (1, 2)]


def test_subflags_include_basics():
    f = binary_flag(2)
    subs = {sf.spaces for sf in enumerate_subflags(f)}
    for m in range(3):
        assert basic_subflag(f, m).spaces in subs


def test_subflags_mt_r2_universe():
    f = mt_flag(2)
    subs = list(enumerate_subflags(f))
    assert len(subs) == 6
    for sf in subs:
        for i, W in enumerate(sf.spaces):
            assert W.dim <= i + 1


def test_subflag_enumeration_deterministic():
    f = binary_flag(2)
    a = [sf.spaces for sf in enumerate_subflags(f)]
    b = [sf.spaces for sf in enumerate_subflags(f)]
    assert a == b


def test_subflag_cap(monkeypatch):
    from cubeflags.errors import EnumerationLimitError

    # read at the call: level 2 of binary 2 holds 18 spaces
    monkeypatch.setattr(flags, "SUBFLAG_SPACE_CAP", 2)
    with pytest.raises(EnumerationLimitError, match="at level 2 exceeded 2"):
        list(enumerate_subflags(binary_flag(2)))


def test_level_universe_complete_against_bounded_bruteforce():
    # every span of <1> plus cube points equals a span of <1> plus at most
    # dim-1 of them (a basis can be chosen among the generators), so spans of
    # all <=3-subsets enumerate the whole universe for k = 4
    from itertools import combinations

    from cubeflags.flags import level_universe
    from cubeflags.qlinalg import ones, span

    for flag, level in ((binary_flag(2), 2), (mt_flag(2), 2), (binary_flag(2), 1)):
        W = flag.spaces[level]
        pts = cube_points(W)
        brute = set()
        for size in range(0, 4):
            for combo in combinations(pts, size):
                brute.add(span([ones(flag.ambient_dim), *combo], flag.ambient_dim))
        universe = level_universe(W, 10**6, level)
        assert isinstance(universe, tuple)  # cached: callers cannot alias a list
        assert set(universe) == brute


# ---------------------------------------------------------------------------
# Text format and tree dump


def test_flag_text_rejects_non_nested():
    bad = "0111\n0011\n"  # level-2 span does not contain the level-1 generator
    with pytest.raises(ValueError):
        parse_flag_text(bad)


def test_cube_generator_walk_spans_each_level_in_dim_plus_one_spans(monkeypatch):
    # Q^16 from 15 unit vectors: spanning all 2^16 cube points at once took a
    # 65,537-row elimination; the walk adds one point per missing dimension,
    # and by popcount it tests the zero point and the unit vectors only (in
    # sorted order it tested 16,385 points before reaching 10...0)
    text = " ".join("0" * i + "1" + "0" * (15 - i) for i in range(15)) + "\n"
    spans = tests = 0
    per_level = []
    real_span, real_contains, real_walk = flags.span, flags.contains, flags._cube_generators

    def counting_span(*args, **kwargs):
        nonlocal spans
        spans += 1
        return real_span(*args, **kwargs)

    def counting_contains(*args, **kwargs):
        nonlocal tests
        tests += 1
        return real_contains(*args, **kwargs)

    def recording_walk(W):
        spans_before, tests_before = spans, tests
        out = real_walk(W)
        per_level.append((W.dim, spans - spans_before, tests - tests_before))
        return out

    monkeypatch.setattr(flags, "span", counting_span)
    monkeypatch.setattr(flags, "contains", counting_contains)
    monkeypatch.setattr(flags, "_cube_generators", recording_walk)
    assert parse_flag_text(text).dims() == (1, 16)
    assert [dim for dim, _, _ in per_level] == [16]
    assert all(n <= dim + 1 for dim, n, _ in per_level)
    assert all(n <= dim + 1 for dim, _, n in per_level)
    assert tests == 16


def test_flag_not_spanned_by_cube_points_is_rejected():
    # span(1, (1, 0, -1)) meets the cube only in 0 and 1
    spaces = [span([ones(3)]), span([ones(3), (1, 0, -1)])]
    with pytest.raises(ValueError, match="not spanned by cube vectors and the all-ones"):
        make_flag(spaces, "custom")


def test_flag_text_comments_and_validation():
    text = "# a two-level chain in Q^4\n0011\n0011 0101\n"
    f = parse_flag_text(text)
    assert f.dims() == (1, 2, 3)
    assert f.kind == "custom"


def test_tree_json_dict():
    doc = flags.tree_json_dict(binary_flag(2))
    assert doc["schema"].startswith("cubeflags.tree")
    assert [len(level["cells"]) for level in doc["levels"]] == [15, 9, 1]
    top = doc["levels"][2]["cells"][0]
    assert top["genotype_mask"] == "f"
    assert len(top["members"]) == 16
