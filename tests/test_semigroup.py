import random
from array import array
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

import pytest

from grasstrop import (
    LabeledTree,
    PairMultiset,
    SigmaWeight,
    contract_edge,
    decompose,
    gorenstein_witness_check,
    graded_count,
    in_semigroup,
    invariant_dim,
    leaf_path,
    omega,
    pieri_dim,
)
from oracles import (
    _vertex_ok,
    achievable_weights,
    brute_force_box_count,
    brute_force_degree_count,
    brute_force_interior_count,
    character_invariant_dim,
    hook_content_dim,
    is_crossing_free,
    rooted_shape_form,
    side_away_from_leaf_1,
)
from grasstrop import semigroup
from grasstrop.semigroup import _tensor_invariant_dim
from util import caterpillar, grown_tree, random_tree, trees_cached


def sigma(k):
    return trees_cached(4)[k - 1]


def s_of(t, mapping):
    return SigmaWeight.of(t, mapping)


def test_pieri_dim():
    assert pieri_dim(1, 1, 0) == 1
    assert pieri_dim(1, 1, 1) == 0
    assert pieri_dim(2, 4, 4) == 1
    assert pieri_dim(0, 0, 0) == 1
    assert pieri_dim(5, 1, 2) == 0
    with pytest.raises(ValueError):
        pieri_dim(-1, 0, 1)
    for vals in product(range(9), repeat=3):
        assert pieri_dim(*vals) == int(_vertex_ok(vals))
    # the Gorenstein shift: with an even sum, the strict inequalities
    # |a-b| < c < a+b hold exactly when (a-2, b-2, c-2) is admissible
    for a, b, c in product(range(2, 13), repeat=3):
        interior = (a + b + c) % 2 == 0 and abs(a - b) < c < a + b
        assert interior == (pieri_dim(a - 2, b - 2, c - 2) == 1)


def test_invariant_dim_examples():
    t = sigma(1)
    assert invariant_dim(t, omega(t, 1, 2)) == 1
    assert invariant_dim(t, s_of(t, {})) == 1
    star = LabeledTree(4, [(1, 5), (2, 5), (3, 5), (4, 5)])
    ones = s_of(star, {f"l{i}": 1 for i in range(1, 5)})
    assert invariant_dim(star, ones) == 2 == character_invariant_dim((1, 1, 1, 1))


def test_invariant_dim_character_oracle():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(3, 6)
        vals = tuple(rng.randint(0, 8) for _ in range(k))
        star = LabeledTree(k, [(i, k + 1) for i in range(1, k + 1)])
        s = s_of(star, {f"l{i}": vals[i - 1] for i in range(1, k + 1)})
        assert invariant_dim(star, s) == character_invariant_dim(vals)


def test_in_semigroup_examples():
    t = sigma(1)
    assert in_semigroup(t, omega(t, 1, 3))
    assert not in_semigroup(t, s_of(t, {"l1": 1}))
    for subset_size in range(0, 6):
        for S in combinations(t.edge_ids, subset_size):
            w = s_of(t, {eid: (4 if eid in S else 2) for eid in t.edge_ids})
            assert in_semigroup(t, w)
    star = LabeledTree(4, [(1, 5), (2, 5), (3, 5), (4, 5)])
    with pytest.raises(ValueError):
        in_semigroup(star, s_of(star, {}))


def test_invariant_space_not_zero_all_subsets():
    for n in (4, 5, 6):
        trees = trees_cached(n) if n < 6 else trees_cached(6)[:8]
        for t in trees:
            for subset_size in range(len(t.edge_ids) + 1):
                for S in combinations(t.edge_ids, subset_size):
                    w = s_of(t, {eid: (4 if eid in S else 2) for eid in t.edge_ids})
                    assert in_semigroup(t, w)


def test_in_semigroup_matches_invariant_dim():
    for t in trees_cached(4):
        for vec in product(range(4), repeat=5):
            s = s_of(t, dict(zip(t.edge_ids, vec)))
            assert in_semigroup(t, s) == (invariant_dim(t, s) >= 1)


def test_omega_examples():
    t = sigma(1)
    assert omega(t, 1, 2).values == (1, 1, 0, 0, 0)
    assert omega(t, 3, 4).values == (0, 0, 1, 1, 0)
    assert omega(t, 1, 3).values == (1, 0, 1, 0, 1)
    assert omega(t, 3, 1) == omega(t, 1, 3)


def test_decompose_examples():
    t = sigma(1)
    assert decompose(t, omega(t, 1, 3)) == PairMultiset(((1, 3),))
    golden = s_of(t, {"l1": 1, "l2": 1, "l3": 1, "l4": 1, "e3-4": 2})
    assert decompose(t, golden) == PairMultiset(((1, 4), (2, 3)))
    assert decompose(t, s_of(t, {})) == PairMultiset(())
    with pytest.raises(ValueError) as err:
        decompose(t, s_of(t, {"l1": 1}))
    assert "vertex" in str(err.value)


def test_decompose_sums_to_s():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.choice([4, 5, 6])
        t = random_tree(rng, n)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        total = s_of(t, {})
        for _ in range(rng.randint(0, 6)):
            i, j = pairs[rng.randrange(len(pairs))]
            total = total + omega(t, i, j)
        m = decompose(t, total)
        back = s_of(t, {})
        for i, j in m.pairs:
            back = back + omega(t, i, j)
        assert back == total
        assert len(m.pairs) == sum(total.value(f"l{i}") for i in range(1, n + 1)) // 2


def test_decompose_generators():
    for n in (4, 5):
        for t in trees_cached(n):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert decompose(t, omega(t, i, j)) == PairMultiset(((i, j),))


def test_decompose_returns_each_crossing_free_multiset():
    # a crossing-free multiset in the planar order is the decomposition of
    # its own weight; each edge counts the pairs it separates
    cases = 0
    for n in (4, 5):
        pairs = list(combinations(range(1, n + 1), 2))
        for t in trees_cached(n):
            order = t.planar_leaf_order
            sides = {t.edge_id_of(u, v): side_away_from_leaf_1(t, u, v) for u, v in t.edges}
            for side in sides.values():
                at = sorted(order.index(i) for i in side)
                assert at == list(range(at[0], at[0] + len(at)))
            for size in range(5):
                for chosen in combinations_with_replacement(pairs, size):
                    if not is_crossing_free(order, chosen):
                        continue
                    weight = {
                        e: sum((i in side) != (j in side) for i, j in chosen)
                        for e, side in sides.items()
                    }
                    assert decompose(t, s_of(t, weight)) == PairMultiset(chosen)
                    cases += 1
    assert cases == 11436


def test_decompose_deep_caterpillar():
    # a path of 1498 internal vertices, deeper than the recursion limit
    n = 1500
    t = caterpillar(n)
    chosen = [(i, n + 1 - i) for i in range(1, n // 2 + 1, 2)]
    chosen += [(i, i + 1) for i in range(2, n // 2, 2)] + [(1, n), (n - 1, n)]
    assert is_crossing_free(t.planar_leaf_order, chosen)
    s = s_of(t, Counter(e for i, j in chosen for e in leaf_path(t, i, j)))
    assert decompose(t, s) == PairMultiset(tuple(chosen))


def test_graded_count_degree_examples():
    for t in trees_cached(4):
        assert graded_count(t, plucker_degree=1) == 6
        assert graded_count(t, plucker_degree=2) == 20


def test_graded_count_degree_matches_oracles():
    t4 = sigma(1)
    for d in (0, 1, 2, 3):
        assert graded_count(t4, plucker_degree=d) == brute_force_degree_count(t4, d)
    for n in (4, 5, 6):
        expect = [hook_content_dim(n, d) for d in range(5)]
        for t in trees_cached(n)[:: max(1, len(trees_cached(n)) // 7)]:
            got = [graded_count(t, plucker_degree=d) for d in range(5)]
            assert got == expect
    assert [hook_content_dim(4, d) for d in (1, 2, 3, 4)] == [6, 20, 50, 105]
    assert [hook_content_dim(5, d) for d in (1, 2, 3, 4)] == [10, 50, 175, 490]
    assert [hook_content_dim(6, d) for d in (1, 2, 3, 4)] == [15, 105, 490, 1764]


def test_graded_count_box_fixtures():
    for t in trees_cached(4):
        assert [graded_count(t, box_bound=m) for m in (0, 1, 2, 3)] == [1, 8, 41, 137]
    assert brute_force_box_count(sigma(1), 1) == 8
    assert brute_force_box_count(sigma(1), 2) == 41
    for t in trees_cached(5):
        assert [graded_count(t, box_bound=m) for m in (1, 2, 3)] == [16, 153, 818]
    assert brute_force_box_count(trees_cached(5)[0], 2) == 153


def test_graded_count_box_tree_dependence_at_n6():
    counts = sorted({graded_count(t, box_bound=3) for t in trees_cached(6)})
    assert counts == [4883, 4885]
    caterpillar = trees_cached(6)[0]
    snowflake = LabeledTree(
        6,
        [(1, 7), (2, 7), (3, 8), (4, 8), (5, 9), (6, 9), (7, 10), (8, 10), (9, 10)],
    )
    assert graded_count(caterpillar, box_bound=3) == 4885
    assert graded_count(snowflake, box_bound=3) == 4883
    assert brute_force_box_count(caterpillar, 3) == 4885
    assert brute_force_box_count(snowflake, 3) == 4883
    for m in (1, 2):
        assert len({graded_count(t, box_bound=m) for t in trees_cached(6)}) == 1


def test_graded_count_deep_caterpillar():
    # a path of 1498 internal vertices, deeper than the recursion limit
    n = 1500
    t = caterpillar(n)
    assert t.is_trivalent
    assert graded_count(t, box_bound=0) == 1
    assert graded_count(t, plucker_degree=1) == n * (n - 1) // 2


def test_graded_count_mode_validation():
    t = sigma(1)
    with pytest.raises(ValueError):
        graded_count(t)
    with pytest.raises(ValueError):
        graded_count(t, plucker_degree=1, box_bound=1)


def test_membership_against_multigraph_oracle_n4():
    for t in trees_cached(4):
        reachable = achievable_weights(t, 3)
        for vec in product(range(4), repeat=5):
            s = s_of(t, dict(zip(t.edge_ids, vec)))
            assert in_semigroup(t, s) == (vec in reachable)


def test_contraction_count_identity():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.choice([4, 5])
        t = random_tree(rng, n)
        eid = t.internal_edge_ids[rng.randrange(len(t.internal_edge_ids))]
        tc = contract_edge(t, eid)
        vals = {e: rng.randint(0, 3) for e in tc.edge_ids}
        sc = s_of(tc, vals)
        bound = sum(vals.values()) + 1
        total = 0
        for v in range(bound + 1):
            s = s_of(t, {**vals, eid: v})
            total += invariant_dim(t, s)
        assert total == invariant_dim(tc, sc)


def test_interior_count_matches_brute_force_and_shifted_box():
    for n, top in ((4, 7), (5, 5)):
        for t in trees_cached(n):
            for m in range(3, top + 1):
                expect = brute_force_interior_count(t, m)
                assert semigroup._interior_count(t, m) == expect
                assert brute_force_box_count(t, m - 3) == expect


def test_gorenstein_witness_check():
    t = sigma(1)
    two = s_of(t, {eid: 2 for eid in t.edge_ids})
    assert in_semigroup(t, two)
    for n in (4, 5):
        for t in trees_cached(n):
            assert gorenstein_witness_check(t) is True
    # the first 8-leaf tree with 10 samples and seed 0 made the earlier
    # rejection sampler give up; the sampler's arguments are still accepted
    assert gorenstein_witness_check(trees_cached(8)[0], 10, seed=0) is True
    rng = random.Random(59)
    for n in (8, 8, 12, 12):
        assert gorenstein_witness_check(grown_tree(rng, n)) is True


def test_gorenstein_witness_check_fails_on_a_mismatch(monkeypatch):
    t = sigma(2)
    real = semigroup._interior_count
    monkeypatch.setattr(semigroup, "_interior_count", lambda u, m: real(u, m) + (m == 9))
    assert gorenstein_witness_check(t) is False
    m, interior, box = semigroup._gorenstein_witness(t)
    assert m == 9 and interior == box + 1 == graded_count(t, box_bound=6) + 1


def test_sigma_weight_validation_and_json():
    t = sigma(1)
    with pytest.raises(ValueError):
        s_of(t, {"l1": -1})
    with pytest.raises(ValueError):
        SigmaWeight(t, (True, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        s_of(t, {"bogus": 1})
    for bad in ({"l1": 2.7}, {"l2": True}, {"l1": 2.0}, {"l1": 2.7, "l2": True}):
        with pytest.raises(ValueError, match="nonnegative integer"):
            s_of(t, bad)
    s = s_of(t, {"l1": 2, "e3-4": 3})
    assert SigmaWeight.from_json_dict(s.to_json_dict()) == s
    for bad in (2.0, 2.5, True):
        obj = s.to_json_dict()
        obj["s"]["l1"] = bad
        with pytest.raises(ValueError, match="must be an integer"):
            SigmaWeight.from_json_dict(obj)
    with pytest.raises(ValueError, match="must hold an object"):
        SigmaWeight.from_json_dict({**s.to_json_dict(), "s": [2, 0]})
    for bad in ([1], "s", 3, None):
        with pytest.raises(ValueError, match="must be an object"):
            SigmaWeight.from_json_dict(bad)
    assert (s + s).value("e3-4") == 6
    assert s.scaled(3).value("l1") == 6


def test_invariant_dim_cache_stays_bounded():
    # trivalent trees never fold, so contract an edge to get a degree-4 vertex
    t = contract_edge(trees_cached(6)[0], trees_cached(6)[0].internal_edge_ids[0])
    rng = random.Random(47)
    for _ in range(2000):
        invariant_dim(t, SigmaWeight(t, tuple(2 * rng.randint(0, 30) for _ in t.edge_ids)))
    info = _tensor_invariant_dim.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def _memo_counts(t):
    """Box 0..4, degree 0..4 and interior 3..8 of one tree."""
    return (
        [graded_count(t, box_bound=m) for m in range(5)],
        [graded_count(t, plucker_degree=d) for d in range(5)],
        [semigroup._interior_count(t, m) for m in range(3, 9)],
    )


def test_count_memo_hits_equal_cold_walks():
    rng = random.Random(61)
    trees = [t for n in range(4, 8) for t in trees_cached(n)]
    trees += [grown_tree(rng, n) for n in range(8, 41)]
    semigroup._walk_count.cache_clear()
    # every tree after the first of its shape is served from the memo
    warm = [_memo_counts(t) for t in trees]
    shapes = {t._shape for t in trees}
    assert len(shapes) < len(trees)
    # one walk per shape and count, none evicted
    assert semigroup._walk_count.cache_info().misses == 16 * len(shapes)
    for t, counts in zip(trees, warm):
        semigroup._walk_count.cache_clear()
        assert _memo_counts(t) == counts
        box, degree, interior = counts
        assert degree == [hook_content_dim(t.n, d) for d in range(5)]
        # the Gorenstein shift: interior at level m is the box at m-3
        assert interior[:5] == box


def test_shape_key_matches_rooted_shape_oracle():
    rng = random.Random(71)
    distinct = []
    for n in range(3, 10):
        # at n=9, 2000 uniform random trees of the 135135 meet all 23 shapes
        trees = trees_cached(n) if n < 9 else [grown_tree(rng, 9) for _ in range(2000)]
        pairs = {(t._shape, rooted_shape_form(t)) for t in trees}
        keys = {key for key, _ in pairs}
        assert len(keys) == len({form for _, form in pairs}) == len(pairs)
        assert all(type(key) is bytes for key in keys)
        distinct.append(len(keys))
    assert distinct == [1, 1, 2, 3, 6, 11, 23]
    star = LabeledTree(4, [(1, 5), (2, 5), (3, 5), (4, 5)])
    with pytest.raises(ValueError, match="trivalent"):
        star._shape


def test_shape_key_and_counts_on_deep_caterpillars():
    # paths of 1498 and 4998 internal vertices, deeper than the recursion limit
    for n in (1500, 5000):
        t = caterpillar(n)
        # one pair of names per internal vertex: every one has its own height
        assert len(t._shape) == 2 * (n - 2) * array("I").itemsize
        semigroup._walk_count.cache_clear()
        assert graded_count(t, plucker_degree=1) == n * (n - 1) // 2
        assert graded_count(t, box_bound=0) == 1


def test_count_memo_stays_bounded():
    rng = random.Random(67)
    semigroup._walk_count.cache_clear()
    shapes = set()
    bound = semigroup._walk_count.cache_info().maxsize
    assert bound is not None
    while len(shapes) * 20 <= 2 * bound:
        t = grown_tree(rng, rng.randint(10, 14))
        shapes.add(t._shape)
        assert gorenstein_witness_check(t) is True
        assert semigroup._walk_count.cache_info().currsize <= bound
    assert semigroup._walk_count.cache_info().currsize == bound
