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
    apply_automorphism,
    automorphism_generators,
    basic_subflag,
    binary_flag,
    cell_tree,
    cells_at_level,
    cells_with_genotype_count,
    children_count,
    children_with_genotype_count,
    consolidate,
    defects,
    enumerate_subflags,
    format_flag_text,
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
    cells = cells_at_level(binary_flag(2), 2)
    assert len(cells) == 1 and cells[0].size == 16


def test_cells_binary_r2_level1_sizes():
    cells = cells_at_level(binary_flag(2), 1)
    assert sorted((c.size for c in cells), reverse=True) == [4, 2, 2, 2, 2, 1, 1, 1, 1]


def test_cells_binary_r2_level0():
    cells = cells_at_level(binary_flag(2), 0)
    assert len(cells) == 15
    sizes = sorted(c.size for c in cells)
    assert sizes == [1] * 14 + [2]


def test_cells_partition_and_size_identity():
    for r in (2, 3):
        f = binary_flag(r)
        k = f.ambient_dim
        for i in range(r + 1):
            cells = cells_at_level(f, i)
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
        assert len(cells_at_level(f, 0)) == 2**f.ambient_dim - 1


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
            assert [c.members for c in cells_at_level(f, i)] == levels[i]
        assert cell_tree(f).child_ids == child_ids


def test_partition_guards_raise_capacity_error():
    # beyond the ambient-dimension cap, before the cube is built
    k = flags.MAX_CELL_AMBIENT_DIM + 1
    with pytest.raises(CapacityError):
        cells_at_level(Flag(k, (span([ones(k)]),), "custom", True), 0)
    # coset keys must fit int64: k * max|M| < 2^62 for M = coset_matrix(V_i)
    v0 = span([ones(2)])
    fits = Flag(2, (v0, Subspace(2, ((1, (1 << 61) - 1),))), "custom", True)
    assert [c.members for c in cells_at_level(fits, 1)] == [((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]
    with pytest.raises(CapacityError):
        cells_at_level(Flag(2, (v0, Subspace(2, ((1, 1 << 61),))), "custom", True), 1)


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
            for c in cells_at_level(f, i):
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
            parts = {frozenset(c.members) for c in cells_at_level(f, i)}
            for perm in gens:
                mapped = {
                    frozenset(permute_vector(perm, p) for p in part) for part in parts
                }
                assert mapped == parts


def test_apply_automorphism_to_subflag():
    f = binary_flag(2)
    sf = basic_subflag(f, 1)
    for perm in automorphism_generators(f):
        assert apply_automorphism(perm, sf).spaces == sf.spaces  # basic flags invariant


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


def test_subflag_cap():
    from cubeflags.errors import EnumerationLimitError

    with pytest.raises(EnumerationLimitError):
        list(enumerate_subflags(binary_flag(2), cap=2))


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
        assert set(level_universe(W, 10**6, level)) == brute


# ---------------------------------------------------------------------------
# Text format and tree dump


def test_flag_text_roundtrip():
    for f in (binary_flag(2), mt_flag(2)):
        text = format_flag_text(f)
        g = parse_flag_text(text)
        assert g.spaces == f.spaces


def test_flag_text_rejects_non_nested():
    bad = "0111\n0011\n"  # level-2 span does not contain the level-1 generator
    with pytest.raises(ValueError):
        parse_flag_text(bad)


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
