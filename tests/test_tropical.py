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
    enumerate_trivalent,
    is_tropical_point,
    leaf_path,
    reconstruct_tree,
    tree_equal,
)
import grasstrop.tropical as tropical_mod
from grasstrop.tropical import NotTropicalError
from oracles import four_point, quartet
from util import caterpillar, grown_tree, random_rational, random_tree, random_weighting, trees_cached


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
    return QuartetWitness(*quartet(d, quad))


def reference_error(d):
    """The ValueError text naming the first quadruple with a unique maximum."""
    for quad in itertools.combinations(range(1, d.n + 1), 4):
        w = reference_witness(d, quad)
        if not w.ok:
            return f"not a tropical point: quadruple {w.quad} has a unique maximum ({w.describe()})"
    return None


def perturbed(rng, d, quad=None, leaf=None):
    """d with one pair of a maximal pairing of quadruple `quad` (a random one
    by default) raised by 1/2; with `leaf`, the pair that holds that leaf."""
    i, j, k, l = quad or sorted(rng.sample(range(1, d.n + 1), 4))
    w = reference_witness(d, (i, j, k, l))
    pairing = (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))[rng.choice(w.attained)]
    vals = d.as_dict()
    vals[rng.choice(pairing) if leaf is None else next(p for p in pairing if leaf in p)] += Fraction(1, 2)
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


def four_point_corpus():
    """Seeded vectors for the four-point oracle, n = 2..12, accepted and rejected."""
    rng = random.Random(67)
    raise_rng = random.Random(97)  # a stream of its own, so these vectors shift none of the others
    for n in (2, 3):
        yield DissimilarityVector(n, tuple(random_rational(rng) for _ in range(n * (n - 1) // 2)))
    for n in range(4, 13):
        pairs = n * (n - 1) // 2
        t = grown_tree(rng, n)
        metrics = []
        for zeros in (False, True):
            # leaf weights of either sign, mixed denominators; with zeros,
            # internal weights 0 contract their edges
            weights = {
                eid: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
                if eid.startswith("l")
                else Fraction(rng.choice((0, 0, 1, 4)) if zeros else rng.randint(1, 9), rng.choice((1, 2, 3, 5)))
                for eid in t.edge_ids
            }
            d = dissimilarity(EdgeWeighting.of(t, weights))
            yield d
            yield perturbed(rng, d)
            yield DissimilarityVector(n, tuple(d.values))  # without the table dissimilarity hands over
            metrics.append(d)
        # the certificate must catch a raised pair wherever it sits: at leaf 1
        # or 2, in the quadruple the first insertions fix, or at leaf n, the
        # last leaf inserted
        yield perturbed(raise_rng, metrics[0], (1, 2, 3, 4), raise_rng.choice((1, 2)))
        yield perturbed(raise_rng, metrics[1], (*sorted(raise_rng.sample(range(1, n), 3)), n), n)
        # all three sums attained at every quadruple
        yield DissimilarityVector(n, (Fraction(5, 2),) * pairs)
        yield DissimilarityVector(n, (Fraction(-3),) * pairs)
        yield DissimilarityVector(n, tuple(random_rational(rng) for _ in range(pairs)))


def oracle_mismatches():
    """The corpus vectors on which is_tropical_point or reconstruct_tree
    disagree with the brute-force oracle, as text."""
    bad = []
    for d in four_point_corpus():
        ok, witnesses = is_tropical_point(d)
        got = (ok, [(w.quad, w.sums, w.attained) for w in witnesses])
        if got != four_point(d):
            bad.append(f"is_tropical_point {d}")
        if d.n < 3:
            continue
        try:
            t, r = reconstruct_tree(d)
        except NotTropicalError as exc:
            if ok or exc.witness != witnesses[0]:
                bad.append(f"reconstruct_tree refused {d}")
        else:
            if not ok or dissimilarity(r) != d or any(r.weight(e) <= 0 for e in t.internal_edge_ids):
                bad.append(f"reconstruct_tree {d}")
    return bad


def test_four_point_matches_the_oracle():
    verdicts = [is_tropical_point(d)[0] for d in four_point_corpus()]
    assert verdicts.count(True) > 40 and verdicts.count(False) > 20
    assert oracle_mismatches() == []


def test_describe_matches_the_oracle():
    # the line `trop check` prints per quadruple, spelled out from the oracle's Fraction sums
    for d in four_point_corpus():
        for w in is_tropical_point(d)[1]:
            quad, sums, attained = quartet(d, w.quad)
            i, j, k, l = quad
            names = (f"{i}{j}|{k}{l}", f"{i}{k}|{j}{l}", f"{i}{l}|{j}{k}")
            parts = "  ".join(f"{name}:{s}" for name, s in zip(names, sums))
            assert w.describe() == f"quad {quad}: {parts}  max at {','.join(names[p] for p in attained)}"


def test_four_point_matches_the_oracle_in_optimized_mode():
    # python -O strips assert statements; the verdicts must not depend on them
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    code = "import test_tropical\nprint(test_tropical.oracle_mismatches())\n"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout == "[]\n"


def counted(monkeypatch, name):
    """Replace tropical_mod.<name> by a wrapper and return its list of calls."""
    calls = []
    original = getattr(tropical_mod, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(tropical_mod, name, wrapper)
    return calls


def test_accepted_vector_scans_no_quartet_until_read(monkeypatch):
    built = counted(monkeypatch, "_all_witnesses")
    scanned = counted(monkeypatch, "_first_violation")
    rng = random.Random(71)
    d = dissimilarity(random_weighting(rng, grown_tree(rng, 12)))
    ok, witnesses = is_tropical_point(d)
    assert ok and len(witnesses) == 495
    assert built == [] and scanned == []
    assert witnesses[0].quad == (1, 2, 3, 4)
    assert len(built) == 1
    assert len(list(witnesses)) == 495 and witnesses[-1].quad == (9, 10, 11, 12)
    assert len(built) == 1 and scanned == []


def test_certificate_inserts_leaves_once(monkeypatch):
    inserted = counted(monkeypatch, "_insert_leaves")
    rng = random.Random(73)
    r = random_weighting(rng, grown_tree(rng, 10))
    d = dissimilarity(r)
    assert is_tropical_point(d)[0]
    assert reconstruct_tree(d) == (r.tree, r)
    assert is_tropical_point(d)[0]
    assert len(inserted) == 1
    bad = perturbed(rng, d)
    assert not is_tropical_point(bad)[0]
    with pytest.raises(NotTropicalError):
        reconstruct_tree(bad)
    assert len(inserted) == 2


def test_lazy_witnesses_read_like_a_tuple():
    rng = random.Random(79)
    d = dissimilarity(random_weighting(rng, grown_tree(rng, 7)))
    ref = tuple(reference_witness(d, q) for q in itertools.combinations(range(1, 8), 4))
    ok, witnesses = is_tropical_point(d)
    assert ok and len(witnesses) == len(ref) == 35
    assert witnesses[-1] == ref[-1] and witnesses[-35] == ref[0]
    with pytest.raises(IndexError):
        witnesses[35]
    assert witnesses[3:9] == ref[3:9] and witnesses[::-4] == ref[::-4]
    assert type(witnesses[1:3]) is tuple
    assert list(witnesses) == list(ref) and list(reversed(witnesses)) == list(reversed(ref))
    assert witnesses == ref and ref == witnesses and not witnesses != ref
    assert witnesses != list(ref) and witnesses != ref[:-1]
    assert witnesses == is_tropical_point(d)[1]
    assert hash(witnesses) == hash(ref) and {ref: 1}[witnesses] == 1
    assert is_tropical_point(d) == (True, ref)
    assert ref[5] in witnesses and witnesses.index(ref[5]) == 5
    assert repr(witnesses) == repr(ref)
    # fewer than four leaves: no quadruple
    assert is_tropical_point(DissimilarityVector(3, (1, 2, 3))) == (True, ())
    # a rejected vector still returns a real 1-tuple
    bad = is_tropical_point(perturbed(rng, d))
    assert not bad[0] and type(bad[1]) is tuple and len(bad[1]) == 1


def adversarial_corpus(n, rng):
    """Vectors on n leaves built to stress insertion's integer positions:
    all zero, all equal, entries of +-10^30 next to 1/7, and a leaf-1 row far
    above or below the rest, each as a tree metric and as a mixed vector."""
    pairs = n * (n - 1) // 2
    big, small = Fraction(10**30), Fraction(1, 7)
    t = grown_tree(rng, n)
    yield DissimilarityVector(n, (Fraction(0),) * pairs)
    for c in (small, -big, big):
        yield DissimilarityVector(n, (c,) * pairs)
    for leaf_one in (big, -big, small):
        weights = {eid: rng.choice((big, -big, small)) if eid[0] == "l" else small for eid in t.edge_ids}
        weights["l1"] = leaf_one
        yield dissimilarity(EdgeWeighting.of(t, weights))
    yield DissimilarityVector(n, tuple(rng.choice((big, -big, small, -small)) for _ in range(pairs)))
    for row_one in (big, -big):
        pair_order = itertools.combinations(range(1, n + 1), 2)
        yield DissimilarityVector(n, tuple(row_one if i == 1 else random_rational(rng) for i, _ in pair_order))


def test_leaf_insertion_is_total_on_an_adversarial_corpus():
    # every vector gets a candidate; an accepted one is reproduced by it, and
    # the verdicts are the oracle's: in full up to 12 leaves, past that on
    # the rejected vectors, where the oracle stops at the first violation
    rng = random.Random(109)
    accepted = rejected = 0
    for n in range(3, 41):
        for d in adversarial_corpus(n, rng):
            r = tropical_mod._insert_leaves(d)
            assert isinstance(r, EdgeWeighting) and r.tree.n == n, d
            ok, witnesses = is_tropical_point(d)
            if ok:
                accepted += 1
                assert dissimilarity(d._realization) == d, d
            else:
                rejected += 1
            if n <= 12 or not ok:
                assert (ok, [(w.quad, w.sums, w.attained) for w in witnesses]) == four_point(d), d
    # the zero, all-equal and tree-metric vectors (seven per n) pass, the
    # three mixed ones fail, and on three leaves every vector passes
    assert (accepted, rejected) == (7 * 37 + 10, 3 * 37)


def test_a_wrong_candidate_leaves_the_verdict_to_the_scan(monkeypatch):
    # a candidate that misses a tropical d certifies nothing: the scan accepts
    # d, and reconstruction has no realization to return
    rng = random.Random(83)
    d = dissimilarity(random_weighting(rng, grown_tree(rng, 8)))
    wrong = random_weighting(rng, grown_tree(rng, 8))
    assert dissimilarity(wrong) != d
    monkeypatch.setattr(tropical_mod, "_insert_leaves", lambda d: wrong)
    ref = tuple(reference_witness(d, q) for q in itertools.combinations(range(1, 9), 4))
    assert is_tropical_point(d) == (True, ref)
    with pytest.raises(RuntimeError, match="^the realization certificate failed, yet no quadruple violates"):
        reconstruct_tree(d)
    bad = perturbed(rng, d)
    assert is_tropical_point(bad) == four_point_verdict(bad)


def test_a_candidate_that_misses_d_certifies_nothing(monkeypatch):
    # insertion only proposes a weighting; acceptance needs it to reproduce d
    rng = random.Random(89)
    r = random_weighting(rng, grown_tree(rng, 8))
    monkeypatch.setattr(tropical_mod, "_insert_leaves", lambda d: r)
    bad = perturbed(rng, dissimilarity(r))
    assert is_tropical_point(bad) == four_point_verdict(bad)
    with pytest.raises(NotTropicalError):
        reconstruct_tree(bad)


def four_point_verdict(d):
    """The oracle's verdict with its quartets as witnesses."""
    ok, quartets = four_point(d)
    return ok, tuple(QuartetWitness(*q) for q in quartets)


def fan(n):
    """Every tree on leaves 1..n: the trivalent ones and all their contractions."""
    trees = set(enumerate_trivalent(n))
    todo = list(trees)
    while todo:
        t = todo.pop()
        for eid in t.internal_edge_ids:
            c = contract_edge(t, eid)
            if c not in trees:
                trees.add(c)
                todo.append(c)
    return sorted(trees, key=lambda t: t.edges)


def path_sum_mismatches():
    """What dissimilarity gets wrong against sums of weights along leaf_path:
    on every tree of the fan for n = 3..6 (1, 4, 26 and 236 trees), on grown
    and contracted trees, and, through its integer table, on sampled pairs
    of two 1500-leaf trees."""
    rng = random.Random(61)
    bad = []

    def reference(r, i, j):
        return sum((r.weight(e) for e in leaf_path(r.tree, i, j)), Fraction(0))

    trees = []
    for n, count in ((3, 1), (4, 4), (5, 26), (6, 236)):
        cones = fan(n)
        if len(cones) != count:
            bad.append(("fan size", n, len(cones)))
        trees += cones
    for n in (9, 13, 20):
        t = grown_tree(rng, n)
        trees += [t, contract_edge(t, t.internal_edge_ids[0])]
    for t in trees:
        r = random_weighting(rng, t)
        expect = tuple(reference(r, i, j) for i, j in itertools.combinations(t.leaves, 2))
        if dissimilarity(r).values != expect:
            bad.append(t.edges)
    for t in (caterpillar(1500), grown_tree(rng, 1500)):
        r = random_weighting(rng, t)
        table, den = tropical_mod._path_sums(r)
        pairs = [(1, 2), (1, 1500), (1499, 1500)] + [sorted(rng.sample(t.leaves, 2)) for _ in range(200)]
        for i, j in pairs:
            if table[j][i] != table[i][j] or Fraction(table[i][j], den) != reference(r, i, j):
                bad.append((1500, t.edges[:3], i, j))
    return bad


def test_dissimilarity_matches_leaf_path_sums():
    assert path_sum_mismatches() == []


def test_dissimilarity_matches_leaf_path_sums_in_optimized_mode():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    code = "import test_tropical\nprint(test_tropical.path_sum_mismatches())\n"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout == "[]\n"


def test_certificate_compares_tables_over_different_denominators():
    # leaf weights of 1/2 and integer internal weights give integer path
    # sums: the vector read back has denominator 1, its realization 2
    rng = random.Random(101)
    for n in (4, 7, 12):
        t = grown_tree(rng, n)
        weights = {eid: Fraction(1, 2) if eid[0] == "l" else rng.randint(1, 5) for eid in t.edge_ids}
        r = EdgeWeighting.of(t, weights)
        d = DissimilarityVector.from_tsv(dissimilarity(r).to_tsv())
        assert d._table[1] == 1 and r._integer_weights[0] == 2
        assert is_tropical_point(d)[0]
        assert reconstruct_tree(d) == (t, r)


def test_a_candidate_off_by_the_smallest_step_certifies_nothing(monkeypatch):
    # the candidate misses d on one pair only, by 1/den in either direction
    rng = random.Random(103)
    r = random_weighting(rng, grown_tree(rng, 7))
    monkeypatch.setattr(tropical_mod, "_insert_leaves", lambda d: r)
    d = dissimilarity(r)
    step = Fraction(1, d._table[1])
    for k in range(len(d.values)):
        for sign in (1, -1):
            values = list(d.values)
            values[k] += sign * step
            near = DissimilarityVector(d.n, tuple(values))
            assert near._realization is None
            assert is_tropical_point(near) == four_point_verdict(near)


def test_reconstruction_hands_over_the_canonical_tree():
    # the tree insertion builds from its own parent links is the tree the
    # validating constructor gives on the same edges, table for table
    rng = random.Random(107)
    for n in range(3, 41):
        t = grown_tree(rng, n)
        for _ in range(2):  # trivalent, then partly contracted
            t2, r2 = reconstruct_tree(dissimilarity(random_weighting(rng, t)))
            assert (t2.edges, t2._pre, t2._up) == (t.edges, t._pre, t._up)
            if t.internal_edge_ids:
                t = contract_edge(t, rng.choice(t.internal_edge_ids))


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
