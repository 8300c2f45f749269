import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from grasstrop import (
    DissimilarityVector,
    EdgeWeighting,
    QuartetWitness,
    cone_of,
    contract_edge,
    dissimilarity,
    is_tropical_point,
    leaf_path,
    reconstruct_tree,
    tree_equal,
)
from util import caterpillar, grown_tree, random_tree, random_weighting, trees_cached


def sigma(k):
    return trees_cached(4)[k - 1]


def vec4(*values):
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    return DissimilarityVector.of(4, dict(zip(pairs, map(Fraction, values))))


def test_edge_weighting_validation():
    t = sigma(1)
    r = EdgeWeighting.of(t, {"l1": Fraction(-2)})
    assert r.weight("l1") == -2 and r.weight("e3-4") == 0
    with pytest.raises(ValueError):
        EdgeWeighting.of(t, {"e3-4": Fraction(-1)})
    with pytest.raises(ValueError):
        EdgeWeighting.of(t, {"nope": Fraction(1)})


def test_dissimilarity_examples():
    t = sigma(1)
    ones = EdgeWeighting.of(t, {eid: Fraction(1) for eid in t.edge_ids})
    assert dissimilarity(ones).values == (2, 3, 3, 3, 3, 2)
    zero = EdgeWeighting.of(t, {})
    assert dissimilarity(zero).values == (0, 0, 0, 0, 0, 0)
    ray = EdgeWeighting.of(t, {"e3-4": Fraction(1)})
    assert dissimilarity(ray).values == (0, 1, 1, 1, 1, 0)


def test_is_tropical_point_examples():
    ok, witnesses = is_tropical_point(vec4(2, 3, 3, 3, 3, 2))
    assert ok and len(witnesses) == 1
    w = witnesses[0]
    assert w.quad == (1, 2, 3, 4)
    assert w.sums == (4, 6, 6) and w.attained == (1, 2)
    assert "max at 13|24,14|23" in w.describe()

    ok0, _ = is_tropical_point(vec4(0, 0, 0, 0, 0, 0))
    assert ok0

    bad, witnesses = is_tropical_point(vec4(1, 0, 0, 0, 0, 0))
    assert not bad and len(witnesses) == 1
    assert witnesses[0].quad == (1, 2, 3, 4)
    assert witnesses[0].attained == (0,)


def test_is_tropical_on_random_tree_metrics():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.choice([4, 5, 6, 7, 8])
        t = random_tree(rng, n)
        r = random_weighting(rng, t, positive_internal=False)
        ok, _ = is_tropical_point(dissimilarity(r))
        assert ok


def test_reconstruct_examples():
    t, r = reconstruct_tree(vec4(2, 3, 3, 3, 3, 2))
    assert tree_equal(t, sigma(1))
    assert all(r.weight(eid) == 1 for eid in t.edge_ids)

    t, r = reconstruct_tree(vec4(0, 1, 1, 1, 1, 0))
    assert tree_equal(t, sigma(1))
    assert r.weight("e3-4") == 1
    assert all(r.weight(f"l{i}") == 0 for i in range(1, 5))

    t, r = reconstruct_tree(vec4(1, 1, 1, 0, 0, 0))
    assert t.internal_vertices == (5,) and t.degree(5) == 4
    assert r.weight("l1") == 1
    assert all(r.weight(f"l{i}") == 0 for i in range(2, 5))


def test_reconstruct_rejects_nonmember():
    with pytest.raises(ValueError) as err:
        reconstruct_tree(vec4(1, 0, 0, 0, 0, 0))
    assert "(1, 2, 3, 4)" in str(err.value)


def test_round_trip_property():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.choice([4, 5, 6, 7, 8])
        t = random_tree(rng, n)
        r = random_weighting(rng, t, positive_internal=True)
        t2, r2 = reconstruct_tree(dissimilarity(r))
        assert tree_equal(t2, t)
        assert r2.as_dict() == r.as_dict()


def test_round_trip_with_zero_internal_weights():
    # zero internal edges come back contracted; leaf weights of either sign
    rng = random.Random(29)
    for n in range(3, 17):
        for _ in range(3):
            t = grown_tree(rng, n)
            weights = {}
            for eid in t.edge_ids:
                if eid.startswith("l"):
                    weights[eid] = Fraction(rng.randint(-40, 3), rng.randint(1, 3))
                else:
                    weights[eid] = Fraction(rng.choice([0, 0, 1, 2]), rng.randint(1, 3))
            d = dissimilarity(EdgeWeighting.of(t, weights))
            t2, r2 = reconstruct_tree(d)
            assert dissimilarity(r2) == d
            kept = {t.split(eid)[1]: w for eid, w in weights.items() if eid.startswith("e") and w > 0}
            assert {t2.split(eid)[1]: r2.weight(eid) for eid in t2.internal_edge_ids} == kept
            assert all(r2.weight(f"l{i}") == weights[f"l{i}"] for i in range(1, n + 1))


def test_round_trip_large_trees():
    rng = random.Random(53)
    for t in (caterpillar(300), grown_tree(rng, 200)):
        r = random_weighting(rng, t)
        assert reconstruct_tree(dissimilarity(r)) == (t, r)


def reference_witness(d, quad):
    """The witness of one quadruple, its sums taken in Fractions through d.value."""
    i, j, k, l = quad
    sums = (d.value(i, j) + d.value(k, l), d.value(i, k) + d.value(j, l), d.value(i, l) + d.value(j, k))
    return QuartetWitness(quad, sums, tuple(p for p, s in enumerate(sums) if s == max(sums)))


def reference_error(d):
    """The ValueError text naming the first quadruple with a unique maximum."""
    for quad in itertools.combinations(range(1, d.n + 1), 4):
        w = reference_witness(d, quad)
        if not w.ok:
            return f"not a tropical point: quadruple {w.quad} has a unique maximum ({w.describe()})"
    return None


def perturbed(rng, d):
    """d with one pair of a maximal pairing of a random quadruple raised by 1/2."""
    i, j, k, l = sorted(rng.sample(range(1, d.n + 1), 4))
    w = reference_witness(d, (i, j, k, l))
    pairing = (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))[rng.choice(w.attained)]
    vals = d.as_dict()
    vals[rng.choice(pairing)] += Fraction(1, 2)
    return DissimilarityVector.of(d.n, vals)


def test_reconstruct_error_text_on_perturbed_vectors():
    rng = random.Random(37)
    for n in range(5, 15):
        for _ in range(4):
            d = dissimilarity(random_weighting(rng, grown_tree(rng, n)))
            bad = perturbed(rng, d)
            with pytest.raises(ValueError) as err:
                reconstruct_tree(bad)
            assert str(err.value) == reference_error(bad)
            # a random change may or may not leave the tropical Grassmannian
            vals = list(d.values)
            vals[rng.randrange(len(vals))] += Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
            other = DissimilarityVector(n, tuple(vals))
            expect = reference_error(other)
            if expect is None:
                assert dissimilarity(reconstruct_tree(other)[1]) == other
            else:
                with pytest.raises(ValueError, match=r"^not a tropical point") as err:
                    reconstruct_tree(other)
                assert str(err.value) == expect


def test_reconstruct_refuses_nonmembers_in_optimized_mode():
    # python -O strips assert statements; the refusal must not depend on them
    rng = random.Random(41)
    bad = perturbed(rng, dissimilarity(random_weighting(rng, grown_tree(rng, 9))))
    code = (
        "from fractions import Fraction\n"
        "from grasstrop import DissimilarityVector, reconstruct_tree\n"
        f"d = DissimilarityVector({bad.n}, tuple(map(Fraction, {[str(v) for v in bad.values]!r})))\n"
        "try:\n"
        "    reconstruct_tree(d)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('no ValueError')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == reference_error(bad)


def test_witness_sums_match_fraction_sums():
    # mixed denominators: the integer scan must give the Fraction sums exactly
    rng = random.Random(59)
    for n in (4, 5, 7, 9):
        for _ in range(5):
            t = grown_tree(rng, n)
            weights = {
                eid: Fraction(rng.randint(0 if eid.startswith("e") else -9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
                for eid in t.edge_ids
            }
            d = dissimilarity(EdgeWeighting.of(t, weights))
            for v in (d, perturbed(rng, d)):
                refs = [reference_witness(v, q) for q in itertools.combinations(range(1, n + 1), 4)]
                bad = [w for w in refs if not w.ok]
                assert is_tropical_point(v) == ((False, (bad[0],)) if bad else (True, tuple(refs)))


def test_dissimilarity_matches_leaf_path_sums():
    rng = random.Random(61)
    for n in (3, 4, 6, 9, 13, 20):
        t = grown_tree(rng, n)
        for tree in (t, contract_edge(t, t.internal_edge_ids[0]) if n > 4 else t):
            r = random_weighting(rng, tree)
            expect = tuple(
                sum((r.weight(e) for e in leaf_path(tree, i, j)), Fraction(0))
                for i, j in itertools.combinations(range(1, n + 1), 2)
            )
            assert dissimilarity(r).values == expect


def test_cone_of():
    assert tree_equal(cone_of(vec4(2, 3, 3, 3, 3, 2)), sigma(1))
    assert tree_equal(cone_of(vec4(0, 1, 1, 1, 1, 0)), sigma(1))
    lineality = vec4(1, 1, 1, 0, 0, 0) + vec4(1, 0, 0, 1, 1, 0)
    assert lineality.values == (2, 1, 1, 1, 1, 0)
    star = cone_of(lineality)
    assert star.internal_vertices == (5,)


def test_dissimilarity_vector_addition():
    a = vec4(1, 2, 3, 4, 5, 6)
    b = vec4(1, 0, 0, 0, 0, 0)
    assert (a + b).values == (2, 2, 3, 4, 5, 6)


def test_tsv_round_trip():
    d = vec4(Fraction(1, 2), 2, 3, 4, 5, Fraction(7, 3))
    text = d.to_tsv()
    assert text.splitlines()[0] == "i\tj\td_ij"
    assert DissimilarityVector.from_tsv(text) == d
    assert DissimilarityVector.from_tsv("\n".join(text.splitlines()[1:])) == d


def test_json_round_trip():
    d = vec4(Fraction(-1, 2), 0, 1, 2, 3, 4)
    assert DissimilarityVector.from_json(d.to_json()) == d


def test_weighting_json_round_trip():
    rng = random.Random(31)
    for n in (4, 6):
        t = random_tree(rng, n)
        r = random_weighting(rng, t)
        assert EdgeWeighting.from_json_dict(r.to_json_dict()) == r


def test_vector_of_validation():
    with pytest.raises(ValueError):
        DissimilarityVector.of(4, {(1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        vec4(1, 2, 3, 4, 5, 6).value(1, 5)
    full = dict(zip([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], range(6)))
    for extra in ((7, 9), (0, 1), (2, 5), (2, 1)):
        with pytest.raises(ValueError, match="not a leaf pair|duplicate pair"):
            DissimilarityVector.of(4, {**full, extra: 5})
    text = vec4(2, 3, 3, 3, 3, 2).to_json()
    for extra in ('"7,9":"5"', '"0,1":"3"', '"2,1":"5"'):
        with pytest.raises(ValueError, match="not a leaf pair|duplicate pair"):
            DissimilarityVector.from_json(text[:-2] + "," + extra + "}}")
    # leaf indices are ASCII digits only: no signs, spaces, underscores or other digits
    for extra in ('"1, 2":"5"', '"+3,4":"5"', '"3,0_4":"5"', '"\u0663,4":"5"'):
        with pytest.raises(ValueError, match="bad pair key"):
            DissimilarityVector.from_json(text[:-2] + "," + extra + "}}")
    with pytest.raises(ValueError, match="bad leaf index"):
        DissimilarityVector.from_tsv(vec4(2, 3, 3, 3, 3, 2).to_tsv().replace("3\t4", "3\t+4"))
    with pytest.raises(ValueError, match="not a leaf pair"):
        DissimilarityVector.from_tsv(vec4(2, 3, 3, 3, 3, 2).to_tsv() + "0 2 9\n")
    # a large n with few entries names 20 missing pairs and counts the rest
    with pytest.raises(ValueError, match=r"\(1, 22\)\] and 24496479 more$"):
        DissimilarityVector.from_json('{"n":7000,"d":{"1,2":"1"}}')
    with pytest.raises(ValueError, match="must be an integer"):
        DissimilarityVector.from_json('{"n":1e999,"d":{}}')
