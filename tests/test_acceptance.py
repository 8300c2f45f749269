"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Every test prints `CRITERION k PASS/FAIL: detail` so the verdicts survive
in the raw pytest output, then asserts.  Timed criteria include their
measured runtime in the detail.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from grasstrop import (
    DissimilarityVector,
    SigmaWeight,
    decompose,
    dissimilarity,
    enumerate_trivalent,
    graded_count,
    in_semigroup,
    initial_ideal_hilbert_check,
    invariant_dim,
    is_tropical_point,
    leaf_pairs,
    rank_valuation,
    reconstruct_tree,
    report,
    straighten,
    tropical_weight,
)
from grasstrop.semigroup import _gorenstein_witness
from grasstrop.trees import LabeledTree, leaf_path
from oracles import (
    achievable_weights,
    character_invariant_dim,
    eval_on_minors,
    hook_content_dim,
)
from util import (
    random_matrix,
    random_polynomial,
    random_tree,
    random_weighting,
    trees_cached,
)


def verdict(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {k} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {k}: {detail}"


@lru_cache(maxsize=1)
def round_trip_instances():
    """200 random (tree, weighting, dissimilarity) triples, n in 4..8."""
    rng = random.Random(2024)
    out = []
    for _ in range(200):
        n = rng.choice([4, 5, 6, 7, 8])
        t = random_tree(rng, n)
        r = random_weighting(rng, t)
        out.append((t, r, dissimilarity(r)))
    return out


def test_criterion_01_worked_example(capsys):
    t0 = time.perf_counter()
    ok, text = report.check_report()
    dt = time.perf_counter() - t0
    rays = [
        "l1: (1, 1, 1, 0, 0, 0)",
        "l2: (1, 0, 0, 1, 1, 0)",
        "l3: (0, 1, 0, 1, 0, 1)",
        "l4: (0, 0, 1, 0, 1, 1)",
        "e3-4: (0, 1, 1, 1, 1, 0)",
    ]
    content = all(r in report.GOLDEN for r in rays)
    content = content and "p[1,3] -> y[l1]*y[l3]*y[e3-4]" in report.GOLDEN
    content = content and "Kernel binomial: p[1,3]*p[2,4] - p[1,4]*p[2,3]" in report.GOLDEN
    content = content and "e3-4\t0\t1\t1\t1\t1\t0" in report.GOLDEN
    ok = ok and content and dt < 1.0
    verdict(capsys, 1, ok, f"worked example byte-exact, all pinned items present, {dt:.2f}s")


def test_criterion_02_tree_counts(capsys):
    t0 = time.perf_counter()
    failures = []
    expect = {3: 1, 4: 3, 5: 15, 6: 105, 7: 945}
    for n, count in expect.items():
        trees = enumerate_trivalent(n)
        double_factorial = 1
        for k in range(2 * n - 5, 0, -2):
            double_factorial *= k
        if len(trees) != count or count != double_factorial:
            failures.append(f"n={n}: {len(trees)}")
        shapes = {frozenset(t.split(e) for e in t.internal_edge_ids) for t in trees}
        if len(shapes) != count:
            failures.append(f"n={n}: duplicate split sets")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 10.0
    verdict(capsys, 2, ok, failures or f"counts 1,3,15,105,945 with pairwise distinct splits, {dt:.1f}s")


def test_criterion_03_round_trip(capsys):
    t0 = time.perf_counter()
    bad = 0
    for t, r, d in round_trip_instances():
        t2, r2 = reconstruct_tree(d)
        if t2 != t or r2 != r:
            bad += 1
    dt = time.perf_counter() - t0
    verdict(capsys, 3, bad == 0, f"200/200 exact round trips over n=4..8, {bad} failures, {dt:.1f}s")


def test_criterion_04_tropical_membership(capsys):
    t0 = time.perf_counter()
    false_negative = sum(1 for _, _, d in round_trip_instances() if not is_tropical_point(d)[0])
    rng = random.Random(77)
    instances = round_trip_instances()
    false_positive = 0
    for _ in range(200):
        _, _, d = instances[rng.randrange(len(instances))]
        quads = list(combinations(range(1, d.n + 1), 4))
        i, j, k, l = quads[rng.randrange(len(quads))]
        sums = {
            (i, j): d.value(i, j) + d.value(k, l),
            (i, k): d.value(i, k) + d.value(j, l),
            (i, l): d.value(i, l) + d.value(j, k),
        }
        top = max(sums.values())
        partner = {(i, j): (k, l), (i, k): (j, l), (i, l): (j, k)}
        hit = [pr for pr, v in sums.items() if v == top]
        a, b = hit[rng.randrange(len(hit))] if rng.random() < 0.5 else partner[hit[0]]
        vals = {pr: d.value(*pr) for pr in leaf_pairs(d.n)}
        vals[(min(a, b), max(a, b))] += 1
        if is_tropical_point(DissimilarityVector.of(d.n, vals))[0]:
            false_positive += 1
    dt = time.perf_counter() - t0
    ok = false_negative == 0 and false_positive == 0
    verdict(
        capsys, 4, ok,
        f"200 members accepted, 200 max-pair +1 perturbations rejected "
        f"({false_negative} false negatives, {false_positive} false positives), {dt:.1f}s",
    )


def test_criterion_05_semigroup_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for n in (4, 5):
        for t in trees_cached(n):
            reachable = achievable_weights(t, 4)
            for vec in product(range(5), repeat=len(t.edge_ids)):
                s = SigmaWeight(t, vec)
                member = in_semigroup(t, s)
                checked += 1
                if member != (invariant_dim(t, s) >= 1) or member != (vec in reachable):
                    mismatches += 1
                    continue
                if member:
                    back = {e: 0 for e in t.edge_ids}
                    for i, j in decompose(t, s):
                        for e in leaf_path(t, i, j):
                            back[e] += 1
                    if SigmaWeight.of(t, back) != s:
                        mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 60.0
    verdict(
        capsys, 5, ok,
        f"{checked} weights on all trees n=4,5: membership = invariant dim = "
        f"exhaustive search, decompositions sum back, {mismatches} mismatches, {dt:.1f}s",
    )


def test_criterion_06_character_oracle(capsys):
    rng = random.Random(6)
    mismatches = 0
    for _ in range(200):
        k = rng.randint(3, 6)
        vals = tuple(rng.randint(0, 8) for _ in range(k))
        star = LabeledTree(k, [(i, k + 1) for i in range(1, k + 1)])
        s = SigmaWeight.of(star, {f"l{i}": vals[i - 1] for i in range(1, k + 1)})
        if invariant_dim(star, s) != character_invariant_dim(vals):
            mismatches += 1
    verdict(capsys, 6, mismatches == 0, f"200 random tuples k<=6, a_i<=8, {mismatches} mismatches")


def test_criterion_07_dimension_cross_checks(capsys):
    t0 = time.perf_counter()
    fixtures = {
        4: [6, 20, 50, 105],
        5: [10, 50, 175, 490],
        6: [15, 105, 490, 1764],
    }
    failures = []
    for n, expect in fixtures.items():
        if [hook_content_dim(n, d) for d in (1, 2, 3, 4)] != expect:
            failures.append(f"oracle disagrees with fixtures at n={n}")
        for t in trees_cached(n):
            got = [graded_count(t, plucker_degree=d) for d in (1, 2, 3, 4)]
            if got != expect:
                failures.append(f"n={n} tree {t.edges}: {got}")
                break
    dt = time.perf_counter() - t0
    ok = not failures and dt < 60.0
    verdict(
        capsys, 7, ok,
        failures or f"graded counts tree-independent and equal to frozen "
        f"hook-content fixtures, n=4,5,6, d<=4, {dt:.1f}s",
    )


def test_criterion_08_valuation_axioms(capsys):
    t0 = time.perf_counter()
    rng = random.Random(8)
    failures = 0
    for n in (4, 5, 6):
        for t in trees_cached(n):
            o = t.edge_ids
            for _ in range(100):
                r = random_weighting(rng, t)
                f = random_polynomial(rng, n, max_degree=2, max_terms=2)
                g = random_polynomial(rng, n, max_degree=2, max_terms=2)
                if tropical_weight(r, f * g) != tropical_weight(r, f) + tropical_weight(r, g):
                    failures += 1
                if rank_valuation(t, o, f * g) != rank_valuation(t, o, f) + rank_valuation(t, o, g):
                    failures += 1
                if not (f + g).is_zero:
                    if tropical_weight(r, f + g) > max(tropical_weight(r, f), tropical_weight(r, g)):
                        failures += 1
                    vs = rank_valuation(t, o, f + g).values
                    if vs > max(rank_valuation(t, o, f).values, rank_valuation(t, o, g).values):
                        failures += 1
    oracle_failures = 0
    for _ in range(100):
        n = rng.randint(4, 7)
        f = random_polynomial(rng, n, max_degree=3, max_terms=3)
        mat = random_matrix(rng, n)
        if eval_on_minors(straighten(f), mat) != eval_on_minors(f, mat):
            oracle_failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and oracle_failures == 0
    verdict(
        capsys, 8, ok,
        f"100 polynomial pairs per tree (123 trees, n<=6) additive and sub-maximal, "
        f"straightening exact on 100 random matrices, {failures + oracle_failures} failures, {dt:.1f}s",
    )


def test_criterion_09_initial_ideal(capsys):
    t0 = time.perf_counter()
    failures = []
    for n in (4, 5):
        for t in trees_cached(n):
            rep = initial_ideal_hilbert_check(t, 3)
            if not rep.passed:
                failures.append(f"n={n} tree {t.edges}")
    for t in trees_cached(4):
        rep = initial_ideal_hilbert_check(t, 2)
        if rep.degrees[1].ideal_dim != 1:
            failures.append(f"degree-2 span {rep.degrees[1].ideal_dim} on {t.edges}")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 120.0
    verdict(
        capsys, 9, ok,
        failures or f"all trees n=4,5 pass at d<=3; n=4 degree-2 ideal is one binomial, {dt:.1f}s",
    )


def test_criterion_10_gorenstein_witness(capsys):
    t0 = time.perf_counter()
    failures = []
    for n in (4, 5, 6):
        for t in trees_cached(n):
            witness = _gorenstein_witness(t)
            if witness is not None:
                m, interior, box = witness
                failures.append(
                    f"n={n} tree {t.edges}: first level m={m} has {interior} interior points, "
                    f"box_bound={m - 3} has {box}"
                )
    dt = time.perf_counter() - t0
    ok = not failures and dt < 30.0
    verdict(
        capsys, 10, ok,
        failures or f"interior count = box count at m-3 for levels m=3..12, all 123 trees n=4,5,6, {dt:.1f}s",
    )
