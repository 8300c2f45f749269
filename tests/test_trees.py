import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import grasstrop.trees as trees_mod
from grasstrop import (
    EdgeWeighting,
    LabeledTree,
    contract_edge,
    dissimilarity,
    double_factorial,
    enumerate_trivalent,
    leaf_path,
    parse_edge_order,
    reconstruct_tree,
    tree_equal,
    tree_from_json,
    tree_from_newick,
    tree_to_json,
    tree_to_newick,
)
from grasstrop.trees import parse_rational, tree_to_json_dict
from oracles import grown_trivalent_trees, rooted_shape_form, rooted_tables, side_away_from_leaf_1
from util import caterpillar, grown_tree, random_weighting


def sigma(k):
    return enumerate_trivalent(4)[k - 1]


def test_double_factorial():
    assert [double_factorial(k) for k in (1, 3, 5, 7)] == [1, 3, 15, 105]


def test_enumeration_counts():
    for n in range(3, 7):
        trees = enumerate_trivalent(n)
        assert len(trees) == double_factorial(2 * n - 5)


def test_enumeration_pairwise_distinct():
    trees = enumerate_trivalent(5)
    keys = {t.internal_splits for t in trees}
    assert len(keys) == len(trees)
    for a in trees[:4]:
        for b in trees[:4]:
            assert tree_equal(a, b) == (a is b)


def test_enumeration_order_n4():
    splits = [t.internal_splits for t in enumerate_trivalent(4)]
    assert splits == [
        frozenset({frozenset({3, 4})}),
        frozenset({frozenset({2, 4})}),
        frozenset({frozenset({2, 3})}),
    ]


def test_enumeration_deterministic():
    a = [tree_to_json(t) for t in enumerate_trivalent(6)]
    b = [tree_to_json(t) for t in enumerate_trivalent(6)]
    assert a == b


def test_enumeration_matches_grown_oracle():
    for n in range(3, 9):
        trees = enumerate_trivalent(n)
        assert [t.edges for t in trees] == [t.edges for t in grown_trivalent_trees(n)]
        for t in trees:
            ref = LabeledTree(n, t.edges)
            assert t.edge_ids == ref.edge_ids
            assert t.planar_leaf_order == ref.planar_leaf_order
            assert t.internal_splits == ref.internal_splits
            # the grown preorder is the one the validating walk finds
            assert (t._pre, t._up) == (ref._pre, ref._up)


def test_enumeration_survives_optimized_mode():
    # python -O strips assert statements; enumerate_trivalent builds its
    # trees through an internal constructor that skips validation, and must
    # list the same trees either way
    code = (
        "import hashlib\n"
        "from grasstrop import enumerate_trivalent, tree_to_json\n"
        "lines = ''.join(tree_to_json(t) + '\\n' for t in enumerate_trivalent(7))\n"
        "print(hashlib.sha256(lines.encode()).hexdigest())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, (flags, proc.stderr + proc.stdout)
        outputs.append(proc.stdout)
    lines = "".join(tree_to_json(t) + "\n" for t in enumerate_trivalent(7))
    assert outputs == [hashlib.sha256(lines.encode()).hexdigest() + "\n"] * 2


def test_tree_shape_invariants():
    for n in (4, 5, 6):
        for t in enumerate_trivalent(n):
            assert len(t.edges) == 2 * n - 3
            assert len(t.internal_edge_ids) == n - 3
            assert t.is_trivalent
            assert all(t.degree(v) == 3 for v in t.internal_vertices)
            assert all(t.degree(i) == 1 for i in t.leaves)


def test_canonical_form_relabeling():
    base = LabeledTree(4, [(1, 5), (2, 5), (3, 6), (4, 6), (5, 6)])
    renamed = LabeledTree(4, [(3, 9), (4, 9), (9, 7), (1, 7), (2, 7)])
    assert base == renamed
    assert tree_equal(base, renamed)
    assert base.edges == renamed.edges


def test_tree_equal_distinct_topologies():
    assert not tree_equal(sigma(1), sigma(2))
    assert tree_equal(LabeledTree(3, [(1, 4), (2, 4), (3, 4)]),
                      LabeledTree(3, [(2, 5), (3, 5), (1, 5)]))
    with pytest.raises(ValueError):
        tree_equal(sigma(1), LabeledTree(3, [(1, 4), (2, 4), (3, 4)]))


def test_invalid_trees_rejected():
    with pytest.raises(ValueError):
        LabeledTree(4, [(1, 5), (2, 5), (3, 5), (4, 6)])  # disconnected 6
    with pytest.raises(ValueError):
        LabeledTree(4, [(1, 5), (2, 5), (5, 6), (3, 6), (4, 7), (6, 7)])  # deg-2
    with pytest.raises(ValueError):
        LabeledTree(4, [(1, 5), (1, 5), (2, 5), (3, 5), (4, 5)])  # repeated edge
    with pytest.raises(ValueError):
        LabeledTree(2, [(1, 2)])
    with pytest.raises(ValueError):
        LabeledTree(4, [(0, 5), (2, 5), (3, 5), (4, 5)])
    # degrees and edge count fit a tree, but leaves 4..6 hang off a triangle
    triangle = [(11, 12), (12, 13), (13, 11), (4, 11), (5, 12), (6, 13)]
    with pytest.raises(ValueError, match="graph is not connected"):
        LabeledTree(6, [(1, 10), (2, 10), (3, 10), *triangle])


def test_edge_ids_and_splits():
    t = sigma(1)
    assert t.edge_ids == ("l1", "l2", "l3", "l4", "e3-4")
    assert t.internal_edge_ids == ("e3-4",)
    u, v = t.endpoints("e3-4")
    assert t.edge_id_of(u, v) == "e3-4"
    near, away = t.split("e3-4")
    assert near == frozenset({1, 2}) and away == frozenset({3, 4})
    near1, away1 = t.split("l1")
    assert near1 == frozenset({1}) and away1 == frozenset({2, 3, 4})


def test_edge_ids_unique_on_snowflake():
    snowflake = LabeledTree(
        6,
        [(1, 7), (2, 7), (3, 8), (4, 8), (5, 9), (6, 9), (7, 10), (8, 10), (9, 10)],
    )
    ids = snowflake.edge_ids
    assert len(set(ids)) == len(ids) == 9
    assert set(snowflake.internal_edge_ids) == {"e3-4", "e5-6", "e3-4-5-6"}


def test_leaf_path_examples():
    t = sigma(1)
    assert leaf_path(t, 1, 2) == frozenset({"l1", "l2"})
    assert leaf_path(t, 1, 3) == frozenset({"l1", "l3", "e3-4"})
    assert leaf_path(t, 3, 1) == leaf_path(t, 1, 3)
    with pytest.raises(ValueError):
        leaf_path(t, 1, 1)
    with pytest.raises(ValueError):
        leaf_path(t, 1, 5)


def test_leaf_path_symmetric_difference():
    rng = random.Random(3)
    for n in (5, 6, 7):
        trees = enumerate_trivalent(n)
        for _ in range(20):
            t = trees[rng.randrange(len(trees))]
            i, j, k = rng.sample(range(1, n + 1), 3)
            assert leaf_path(t, i, j) ^ leaf_path(t, j, k) == leaf_path(t, i, k)


def scrambled(rng, t):
    """LabeledTree on t's edges with the internal labels permuted, each edge
    turned at random and the list shuffled."""
    label = {i: i for i in t.leaves}
    internal = t.internal_vertices
    label.update(zip(internal, rng.sample(range(t.n + 1, 10 * (t.n + len(internal))), len(internal))))
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u]) for u, v in t.edges]
    rng.shuffle(edges)
    return LabeledTree(t.n, edges)


def rooted_table_corpus():
    """Seeded trees built every way the library builds one: the validating
    constructor on scrambled labels, enumerate_trivalent, reconstruct_tree,
    contract_edge (trees that are not trivalent) and tree_from_newick."""
    rng = random.Random(83)
    trees = [LabeledTree(5, [(i, 6) for i in range(1, 6)])]
    trees += [t for n in (3, 4, 5, 6) for t in enumerate_trivalent(n)]
    for n in range(3, 16):
        t = grown_tree(rng, n)
        trees.append(scrambled(rng, t))
        trees.append(reconstruct_tree(dissimilarity(random_weighting(rng, t)))[0])
        trees.append(tree_from_newick(tree_to_newick(t))[0])
        for _ in range(rng.randint(1, max(1, n - 3))):
            if t.internal_edge_ids:
                t = contract_edge(t, rng.choice(t.internal_edge_ids))
                trees.append(t)
                trees.append(tree_from_newick(tree_to_newick(t))[0])
    return trees


def rooted_table_mismatches():
    """(edges, table) for each table of a corpus tree that differs from the
    rooted-table oracle; "shape" if shape codes and the oracle's rooted
    shape forms do not correspond one to one."""
    bad = []
    forms = {}
    for t in rooted_table_corpus():
        o = rooted_tables(t)
        got = {
            "preorder": (list(t._pre), list(t._up)),
            "parent": {v: t._parent[v] for v in o.pre},
            "children": {v: t._children[v] for v in o.pre},
            "span": {v: t._span[v] for v in o.pre},
            "planar": list(t.planar_leaf_order),
            "edge_ids": list(t.edge_ids),
            "stars": list(t._stars),
            # internal vertices are numbered n+1, n+2, ... in preorder
            "internal": list(t.internal_vertices),
        }
        want = {
            "preorder": (o.pre, o.up),
            "parent": o.parent,
            "children": o.children,
            "span": o.span,
            "planar": o.planar,
            "edge_ids": o.edge_ids,
            "stars": o.stars,
            "internal": [v for v in o.pre if v > t.n],
        }
        bad += [(t.edges, table) for table in want if got[table] != want[table]]
        if t.is_trivalent:
            forms.setdefault(t._shape, set()).add(rooted_shape_form(t))
    if any(len(f) != 1 for f in forms.values()) or len(set().union(*forms.values())) != len(forms):
        bad.append("shape")
    return bad


def test_rooted_tables_match_bfs_oracle():
    assert rooted_table_mismatches() == []


def test_rooted_tables_survive_optimized_mode():
    # python -O strips assert statements; the tables must not depend on them
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    code = "import test_trees\nprint(test_trees.rooted_table_mismatches())\n"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout == "[]\n"


def read_every_table(t):
    """Everything a tree answers, so that every table it keeps is built."""
    t.edge_ids, t.planar_leaf_order, t._stars, t.internal_splits, t.adjacency
    t._edge_counts([(pair, 1) for pair in itertools.combinations(t.leaves, 2)])
    for eid in t.edge_ids:
        t.split(eid), t.endpoints(eid), t.edge_id_of(*t.endpoints(eid))
    tree_to_newick(t, {eid: Fraction(1) for eid in t.edge_ids}), tree_to_json(t)
    if t.is_trivalent:
        t._shape
    dissimilarity(EdgeWeighting.of(t, {eid: Fraction(1) for eid in t.edge_ids}))


def test_one_rooted_walk_per_tree_built_from_edges(monkeypatch):
    walks = []
    original = trees_mod._root_at_leaf_1

    def counted(adj):
        walks.append(len(adj))
        return original(adj)

    monkeypatch.setattr(trees_mod, "_root_at_leaf_1", counted)
    rng = random.Random(89)
    base = grown_tree(rng, 9)
    text = tree_to_newick(base, {eid: Fraction(k + 1) for k, eid in enumerate(base.edge_ids)})
    d = dissimilarity(random_weighting(rng, base))
    read_every_table(base)
    builders = {
        "LabeledTree": lambda: [scrambled(rng, base)],
        "_relabeled": lambda: [LabeledTree._relabeled(9, base.edges)[0]],
        "contract_edge": lambda: [contract_edge(base, base.internal_edge_ids[2])],
        "tree_from_newick": lambda: [tree_from_newick(text)[0]],
        "reconstruct_tree": lambda: [reconstruct_tree(d)[0]],
        "enumerate_trivalent": lambda: enumerate_trivalent(6),
    }
    counts = {}
    for how, build in builders.items():
        walks.clear()
        for t in build():
            read_every_table(t)
        counts[how] = len(walks)
    # reconstruction and enumeration hand over trees already rooted at leaf 1
    assert counts == {**dict.fromkeys(builders, 1), "reconstruct_tree": 0, "enumerate_trivalent": 0}


def rooted_parents(rng, n, edges):
    """Each vertex's parent (0 for leaf 1) and children in lists indexed by
    label, as leaf insertion holds them, with each children list shuffled."""
    size = 1 + max(max(e) for e in edges)
    adj = [[] for _ in range(size)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent, children, order = [0] * size, [[] for _ in range(size)], [1]
    for v in order:
        children[v] = [w for w in adj[v] if w != parent[v]]
        rng.shuffle(children[v])
        for w in children[v]:
            parent[w] = v
        order += children[v]
    return parent, children


def test_rooted_parents_build_the_tree_of_their_edges():
    # leaf insertion hands its rooted tree to _canonical_form and skips the
    # validating walk over raw edges; both ways must give the same tree
    rng = random.Random(97)
    for n in range(3, 41):
        t = grown_tree(rng, n)
        for _ in range(3):  # trivalent, then partly contracted
            label = {i: i for i in t.leaves}
            internal = t.internal_vertices
            label.update(zip(internal, rng.sample(range(n + 1, 3 * n), len(internal))))
            edges = [(label[u], label[v]) for u, v in t.edges]
            expect, old2new = LabeledTree._relabeled(n, edges)
            form = trees_mod._canonical_form(n, *rooted_parents(rng, n, edges))
            got = LabeledTree._from_canonical(n, *form[:3])
            assert (got.edges, got._pre, got._up, form[3]) == (expect.edges, expect._pre, expect._up, old2new)
            assert got == expect == t
            if t.internal_edge_ids:
                t = contract_edge(t, rng.choice(t.internal_edge_ids))


def test_index_tables_match_edge_ids():
    rng = random.Random(7)
    star = LabeledTree(5, [(i, 6) for i in range(1, 6)])
    trees = [star, *enumerate_trivalent(5), *enumerate_trivalent(6)[::9]]
    for n in range(3, 15):
        t = grown_tree(rng, n)
        trees.append(t)
        for _ in range(rng.randint(1, max(1, n - 3))):  # partly contracted
            if t.internal_edge_ids:
                t = contract_edge(t, rng.choice(t.internal_edge_ids))
                trees.append(t)
    for t in trees:
        o = rooted_tables(t)
        assert t.internal_splits == frozenset(o.below[v] for v in o.pre[2:] if v > t.n)
        leaves = frozenset(t.leaves)
        for u, v in t.edges:
            child = v if o.parent[v] == u else u
            eid, side = o.name[child], o.below[child]
            assert side == side_away_from_leaf_1(t, u, v)
            assert t.edge_id_of(u, v) == t.edge_id_of(v, u) == eid
            assert t.endpoints(eid) == (u, v)
            assert t.split(eid) == (leaves - side, side)
        for i, j in itertools.combinations(t.leaves, 2):
            cut = {o.name[c] for c in o.pre[1:] if (i in o.below[c]) != (j in o.below[c])}
            assert leaf_path(t, i, j) == cut
        with pytest.raises(ValueError):
            t.edge_id_of(1, 2)
        pairs = [((1, 2), 2), ((2, t.n), 1), ((1, t.n), 3)]
        expect = [0] * len(t.edge_ids)
        for (i, j), mult in pairs:
            for eid in leaf_path(t, i, j):
                expect[t._edge_index[eid]] += mult
        assert t._edge_counts(pairs) == expect
    big = caterpillar(1500)
    for u, v in big.edges[::300]:
        side = side_away_from_leaf_1(big, u, v)
        assert big.split(big.edge_id_of(u, v)) == (frozenset(big.leaves) - side, side)


def test_planar_leaf_order():
    assert sigma(1).planar_leaf_order == (1, 2, 3, 4)
    assert sigma(2).planar_leaf_order == (1, 2, 4, 3)
    assert sigma(3).planar_leaf_order == (1, 2, 3, 4)


def test_contract_edge():
    t = sigma(1)
    star = contract_edge(t, "e3-4")
    assert star.internal_vertices == (5,)
    assert star.degree(5) == 4
    with pytest.raises(ValueError):
        contract_edge(t, "l1")
    for t5 in enumerate_trivalent(5):
        for eid in t5.internal_edge_ids:
            c = contract_edge(t5, eid)
            assert sorted(c.degree(v) for v in c.internal_vertices) == [3, 4]
            assert not c.is_trivalent


def test_contract_all_internal_edges_gives_star():
    for n in (4, 5, 6):
        for t in enumerate_trivalent(n)[:10]:
            while t.internal_edge_ids:
                t = contract_edge(t, t.internal_edge_ids[0])
            assert t.internal_vertices == (n + 1,)
            assert t.degree(n + 1) == n


def test_json_round_trip():
    rng = random.Random(29)
    trees = [t for n in range(3, 8) for t in enumerate_trivalent(n)]
    trees += [contract_edge(sigma(1), sigma(1).internal_edge_ids[0]), caterpillar(1500)]
    trees += [grown_tree(rng, n) for n in (60, 120)]
    for t in trees:
        text = tree_to_json(t)
        # the text is joined by hand; it must stay the compact JSON of the dict
        assert text == json.dumps(tree_to_json_dict(t), separators=(",", ":"))
        assert tree_from_json(text) == t
    assert tree_to_json(sigma(1)) == '{"n":4,"edges":[[1,5],[2,5],[3,6],[4,6],[5,6]]}'


def test_newick_round_trip_plain():
    for n in (4, 5, 6):
        for t in enumerate_trivalent(n)[:12]:
            back, weights = tree_from_newick(tree_to_newick(t))
            assert tree_equal(back, t)
            assert weights is None


def test_newick_round_trip_with_lengths():
    t = sigma(1)
    w = {"l1": Fraction(1, 2), "l2": Fraction(3), "l3": Fraction(0),
         "l4": Fraction(2), "e3-4": Fraction(5, 4)}
    text = tree_to_newick(t, weights=w)
    back, weights = tree_from_newick(text)
    assert tree_equal(back, t)
    assert weights == w


def test_newick_round_trip_deep_caterpillar():
    # a path of 1498 internal vertices, deeper than the recursion limit
    t = caterpillar(1500)
    back, weights = tree_from_newick(tree_to_newick(t))
    assert back == t and weights is None
    w = {eid: Fraction(k % 7 - 3, 1 + k % 4) for k, eid in enumerate(t.edge_ids)}
    back, weights = tree_from_newick(tree_to_newick(t, weights=w))
    assert back == t and weights == w


def test_newick_text_n4():
    assert tree_to_newick(sigma(1)) == "(1,2,(3,4));"
    assert tree_to_newick(sigma(2)) == "(1,(2,4),3);"
    assert tree_to_newick(sigma(3)) == "(1,(2,3),4);"


def test_newick_rejects_malformed():
    for bad in ("(1,2", "(1,2,(3,4))", "1;", "(1,2,(3,4):1);"):
        with pytest.raises(ValueError):
            tree_from_newick(bad)
    # leaf labels are ASCII digits only, as in every other reader
    for bad in ("(\u0661,2,(3,4));", "(1,+2,(3,4));", "(1,2,(3,4_0));"):
        with pytest.raises(ValueError, match="leaf labels must be integers"):
            tree_from_newick(bad)
    for bad in ("(1:\u0661,2:1,3:1);", "(1:1,2:1/0,3:1);", "(1:1,2:x,3:1);", "(1:1,2:1e5000,3:1);"):
        with pytest.raises(ValueError, match="bad branch length"):
            tree_from_newick(bad)


def test_parse_rational_refuses_more_digits_than_the_int_limit():
    # sys.get_int_max_str_digits() is 4300 by default; the digits are
    # judged from the text, before Fraction takes any power of ten
    assert parse_rational("1e400") == 10**400
    assert parse_rational(" -0.5e4299 ") == -5 * 10**4298
    assert parse_rational("1e-4299") == Fraction(1, 10**4299)
    for bad in ("1e5000", "1e-5000", "0.001e4304", "1" * 4301, "1e10000000"):
        with pytest.raises(ValueError) as err:
            parse_rational(bad)
        assert str(err.value) == f"not a rational number: {bad!r}"


def test_parse_edge_order():
    t = sigma(1)
    assert parse_edge_order(t, "e3-4,l4,l3,l2,l1") == (
        "e3-4", "l4", "l3", "l2", "l1"
    )
    with pytest.raises(ValueError):
        parse_edge_order(t, "l1,l2")
    with pytest.raises(ValueError):
        parse_edge_order(t, "l1,l2,l3,l4,l4")
