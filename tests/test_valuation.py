import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from grasstrop import (
    DissimilarityVector,
    EdgeWeighting,
    LabeledTree,
    PlueckerPolynomial,
    ValueVector,
    contract_edge,
    dissimilarity,
    in_semigroup,
    leaf_pairs,
    leaf_path,
    monomial_weight,
    omega,
    p,
    quasi_valuation_weight,
    rank_valuation,
    straighten,
    three_term_relation,
    tropical_weight,
    valuation_matrix,
)
from util import random_polynomial, random_tree, random_weighting, trees_cached


def sigma(k):
    return trees_cached(4)[k - 1]


def ones(t):
    return EdgeWeighting.of(t, {e: 1 for e in t.edge_ids})


def test_rank_valuation_on_variables():
    t = sigma(1)
    o = t.edge_ids
    expect = {
        (1, 2): (1, 1, 0, 0, 0),
        (1, 3): (1, 0, 1, 0, 1),
        (1, 4): (1, 0, 0, 1, 1),
        (2, 3): (0, 1, 1, 0, 1),
        (2, 4): (0, 1, 0, 1, 1),
        (3, 4): (0, 0, 1, 1, 0),
    }
    for (i, j), vec in expect.items():
        vv = rank_valuation(t, o, p(i, j))
        assert vv.values == vec
        assert vv.as_weight() == omega(t, i, j)


def test_valuation_matrix_columns_match_variables():
    for n in (4, 5, 6):
        for t in trees_cached(n)[:6]:
            o = t.edge_ids
            mat = valuation_matrix(t, o)
            for i, j in leaf_pairs(n):
                assert mat.column(i, j) == rank_valuation(t, o, p(i, j)).values


def test_valuation_matrix_tsv():
    t = sigma(1)
    tsv = valuation_matrix(t, t.edge_ids).to_tsv()
    lines = tsv.splitlines()
    assert lines[0] == "edge\tp[1,2]\tp[1,3]\tp[1,4]\tp[2,3]\tp[2,4]\tp[3,4]"
    assert lines[1] == "l1\t1\t1\t1\t0\t0\t0"
    assert lines[5] == "e3-4\t0\t1\t1\t1\t1\t0"
    assert len(lines) == 6


def test_valuation_matrix_respects_order():
    t = sigma(1)
    o = tuple(reversed(t.edge_ids))
    mat = valuation_matrix(t, o)
    assert mat.order == o
    assert mat.column(1, 2) == (0, 0, 0, 1, 1)
    assert mat.entry("e3-4", 1, 3) == 1
    assert mat.entry("l2", 3, 4) == 0
    with pytest.raises(ValueError):
        valuation_matrix(t, ("l1",))


def test_tropical_weight_examples():
    t = sigma(1)
    r = ones(t)
    assert tropical_weight(r, p(1, 3)) == 3
    assert tropical_weight(r, p(1, 2)) == 2
    assert tropical_weight(r, PlueckerPolynomial.constant(7)) == 0
    binom = p(1, 3) * p(2, 4) - p(1, 4) * p(2, 3)
    assert tropical_weight(r, binom) == 4
    with pytest.raises(ValueError):
        tropical_weight(r, PlueckerPolynomial.zero())
    with pytest.raises(ValueError):
        tropical_weight(r, p(1, 5))
    with pytest.raises(ValueError):
        tropical_weight(r, three_term_relation(1, 2, 3, 4))  # zero modulo the Pluecker ideal


def test_tropical_weight_uses_planar_frame():
    t = sigma(2)
    r = ones(t)
    assert t.planar_leaf_order == (1, 2, 4, 3)
    assert tropical_weight(r, p(1, 3) * p(2, 4)) == 4
    assert tropical_weight(r, p(1, 2) * p(3, 4)) == 6
    crossing = p(1, 4) * p(2, 3)
    expanded = straighten(crossing, order=t.planar_leaf_order)
    assert set(expanded.monomials()) == {
        (p(1, 2) * p(3, 4)).monomials()[0],
        (p(1, 3) * p(2, 4)).monomials()[0],
    }
    assert tropical_weight(r, crossing) == 6


def test_multiplicativity_sigma2_regression():
    t = sigma(2)
    r = EdgeWeighting.of(t, {e: (3 if e in t.internal_edge_ids else 1) for e in t.edge_ids})
    f = p(1, 3) * p(2, 4)
    lhs = tropical_weight(r, f * f)
    rhs = tropical_weight(r, f) + tropical_weight(r, f)
    assert lhs == rhs
    o = t.edge_ids
    assert rank_valuation(t, o, f * f).values == (rank_valuation(t, o, f) + rank_valuation(t, o, f)).values


def test_valuation_axioms_random():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.choice([4, 5, 6])
        t = random_tree(rng, n)
        r = random_weighting(rng, t)
        o = t.edge_ids
        f = random_polynomial(rng, n, max_degree=2, max_terms=3)
        g = random_polynomial(rng, n, max_degree=2, max_terms=3)
        assert tropical_weight(r, f * g) == tropical_weight(r, f) + tropical_weight(r, g)
        assert rank_valuation(t, o, f * g) == rank_valuation(t, o, f) + rank_valuation(t, o, g)
        if not (f + g).is_zero:
            s = tropical_weight(r, f + g)
            assert s <= max(tropical_weight(r, f), tropical_weight(r, g))
            vf, vg = rank_valuation(t, o, f), rank_valuation(t, o, g)
            vs = rank_valuation(t, o, f + g)
            assert vs.values <= max(vf.values, vg.values)
            if vf.values != vg.values:
                assert vs.values == max(vf.values, vg.values)


def test_rank_valuation_values_lie_in_semigroup():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.choice([4, 5])
        t = random_tree(rng, n)
        f = random_polynomial(rng, n, max_degree=3, max_terms=3)
        vv = rank_valuation(t, t.edge_ids, f)
        assert in_semigroup(t, vv.as_weight())


def test_monomial_weight_matches_omega_sum():
    rng = random.Random(37)
    for _ in range(50):
        n = rng.choice([4, 5, 6])
        t = random_tree(rng, n)
        f = random_polynomial(rng, n, max_degree=3, max_terms=1)
        (m, _), = f.terms
        total = sum(
            (omega(t, i, j).scaled(e) for (i, j), e in m.exps),
            omega(t, 1, 2).scaled(0),
        )
        assert monomial_weight(t, m) == total


def test_tropical_weight_on_noncrossing_monomials_is_linear():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.choice([4, 5])
        t = random_tree(rng, n)
        r = random_weighting(rng, t)
        d = dissimilarity(r)
        f = straighten(random_polynomial(rng, n, max_degree=3, max_terms=2), order=t.planar_leaf_order)
        for m in f.monomials():
            mono = PlueckerPolynomial.of({m: 1})
            expect = sum((d.value(i, j) * e for (i, j), e in m.exps), Fraction(0))
            assert tropical_weight(r, mono) == expect


def test_quasi_valuation_weight():
    t = sigma(1)
    d = dissimilarity(ones(t))
    assert quasi_valuation_weight(d, p(1, 3)) == 3
    binom = p(1, 3) * p(2, 4) - p(1, 4) * p(2, 3)
    assert quasi_valuation_weight(d, binom) == 4
    bad = DissimilarityVector.of(4, {(1, 2): 1, (1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 0, (3, 4): 1})
    with pytest.raises(ValueError) as err:
        quasi_valuation_weight(bad, p(1, 2))
    assert "(1, 2, 3, 4)" in str(err.value)
    with pytest.raises(ValueError):
        quasi_valuation_weight(d, PlueckerPolynomial.zero())


def test_quasi_valuation_weight_scans_a_non_member_once(monkeypatch):
    import grasstrop.tropical as tropical_mod

    # the integer scan for the first violating quadruple, which names the witness
    scan = tropical_mod._first_violation
    calls = []

    def counted(d):
        calls.append(d)
        return scan(d)

    monkeypatch.setattr(tropical_mod, "_first_violation", counted)
    rng = random.Random(59)
    vals = dissimilarity(random_weighting(rng, random_tree(rng, 8))).as_dict()
    # raise one chord of a maximal pairing of 1234: that pairing becomes the unique max
    pairings = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))
    top = max(pairings, key=lambda pr: vals[pr[0]] + vals[pr[1]])
    vals[top[0]] += Fraction(1, 2)
    bad = DissimilarityVector.of(8, vals)
    with pytest.raises(ValueError) as err:
        quasi_valuation_weight(bad, p(1, 2))
    assert len(calls) == 1
    w = scan(bad)
    assert str(err.value) == (
        f"weight vector is not a tropical point ({w.describe()}); "
        "weights outside the tropical variety are not supported"
    )


def test_value_vector_basics():
    t = sigma(1)
    vv = rank_valuation(t, t.edge_ids, p(1, 3))
    assert vv.value("e3-4") == 1
    assert vv.v == {"l1": 1, "l2": 0, "l3": 1, "l4": 0, "e3-4": 1}
    with pytest.raises(ValueError):
        vv.value("nope")
    with pytest.raises(ValueError):
        ValueVector(t, t.edge_ids, (1, 2, 3))
    other = rank_valuation(t, tuple(reversed(t.edge_ids)), p(1, 3))
    with pytest.raises(ValueError):
        vv + other


def test_edge_order_is_checked_once_per_value(monkeypatch):
    check = LabeledTree._order_positions
    calls = []

    def counted(t, order):
        calls.append(order)
        return check(t, order)

    monkeypatch.setattr(LabeledTree, "_order_positions", counted)
    rng = random.Random(61)
    t = random_tree(rng, 7)
    order = list(t.edge_ids)
    rng.shuffle(order)
    f = random_polynomial(rng, 7, max_degree=3, max_terms=3)
    g = f * three_term_relation(1, 3, 5, 7) + p(2, 6) * p(1, 4)  # the fiber route and the fallback
    values = [rank_valuation(t, order, h) for h in (f, g)]
    assert len(calls) == 2
    total = values[0] + values[1]
    assert len(calls) == 2
    assert total == ValueVector(t, tuple(order), tuple(a + b for a, b in zip(*(v.values for v in values))))
    assert len(calls) == 3
    # a public constructor call still checks, with the same message
    for bad in (t.edge_ids[:-1], t.edge_ids[:-1] + t.edge_ids[:1], t.edge_ids + ("e9-9",)):
        with pytest.raises(ValueError, match="^edge order must be a permutation of the tree's edge ids$"):
            ValueVector(t, bad, (0,) * len(bad))
    with pytest.raises(ValueError, match="^edge order must be a permutation"):
        rank_valuation(t, t.edge_ids[1:], f)


def test_rank_valuation_rejects_bad_input():
    t = sigma(1)
    with pytest.raises(ValueError):
        rank_valuation(t, t.edge_ids, PlueckerPolynomial.zero())
    with pytest.raises(ValueError):
        rank_valuation(t, t.edge_ids, p(1, 5))
    with pytest.raises(ValueError):
        rank_valuation(t, ("l1", "l2"), p(1, 2))
    with pytest.raises(ValueError):
        rank_valuation(t, t.edge_ids, three_term_relation(1, 2, 3, 4))


def test_tropical_weight_is_max_over_planar_expansion():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.choice([5, 6, 7])
        t = random_tree(rng, n)
        weights = {}
        for eid in t.edge_ids:
            lo = -7 if eid.startswith("l") else 0
            weights[eid] = Fraction(rng.randint(lo, 9), rng.choice([1, 2, 3, 5, 7]))
        r = EdgeWeighting.of(t, weights)
        d = dissimilarity(r)
        f = random_polynomial(rng, n, max_degree=3, max_terms=4)
        g = straighten(f, order=t.planar_leaf_order)
        expect = max(
            sum((d.value(i, j) * e for (i, j), e in m.exps), Fraction(0)) for m in g.monomials()
        )
        assert tropical_weight(r, f) == expect


def test_rank_valuation_is_max_over_monomial_weights():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.choice([5, 6, 7])
        t = random_tree(rng, n)
        o = list(t.edge_ids)
        rng.shuffle(o)
        f = random_polynomial(rng, n, max_degree=3, max_terms=4)
        g = straighten(f, order=t.planar_leaf_order)
        expect = max(tuple(monomial_weight(t, m).value(e) for e in o) for m in g.monomials())
        assert rank_valuation(t, o, f).values == expect


def _expansion_rank(t, o, f):
    """rank_valuation by straightening in the planar frame; None when f is 0 there."""
    g = straighten(f, order=t.planar_leaf_order)
    if g.is_zero:
        return None
    paths = {pr: leaf_path(t, *pr) for pr in leaf_pairs(t.n)}
    return max(
        tuple(sum(e for pr, e in m.exps if eid in paths[pr]) for eid in o) for m in g.monomials()
    )


def _expansion_weight(r, f):
    """tropical_weight by straightening in the planar frame; None when f is 0 there."""
    g = straighten(f, order=r.tree.planar_leaf_order)
    if g.is_zero:
        return None
    d = dissimilarity(r)
    return max(sum((d.value(i, j) * e for (i, j), e in m.exps), Fraction(0)) for m in g.monomials())


def _value_or_none(call):
    try:
        return call()
    except ValueError as exc:
        assert "vanishes modulo the Pluecker ideal" in str(exc)
        return None


def _nonzero_rational(rng):
    return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 4))


def _cancelling(rng, t):
    """m * (three-term relation + c * its split pairing) for a quartet of t.

    The quartet's two pairings that cross its split share one edge count
    vector, which lies above the split pairing's in every coordinate and
    scores higher under every weighting with positive internal weights;
    that top fiber cancels because m times the relation lies in the
    Pluecker ideal, while f itself is c * m * (split pairing) modulo it.
    """
    i, j, k, l = sorted(rng.sample(list(t.leaves), 4))
    pairings = (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))
    a, b = min(pairings, key=lambda pr: len(leaf_path(t, *pr[0])) + len(leaf_path(t, *pr[1])))
    m = random_polynomial(rng, t.n, max_terms=1, max_degree=2)
    return m * (three_term_relation(i, j, k, l) + (p(*a) * p(*b)).scaled(_nonzero_rational(rng)))


def _with_zero_internal_weight(rng, r):
    weights = r.as_dict()
    weights[rng.choice(r.tree.internal_edge_ids)] = 0
    return EdgeWeighting.of(r.tree, weights)


def _star_point(rng, t):
    """Positive leaf weights, all internal weights 0, and m * (relation + c * p_ij).

    At this point, on the boundary of every tree's cone and the only
    point of the star tree's, the three pairings of the quartet score
    the same, so the fiber of the relation's split pairing is a top fiber
    with a nonzero sum; yet f is c * m * p_ij modulo the Pluecker ideal,
    which scores lower.
    """
    weights = {eid: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for eid in t.edge_ids[: t.n]}
    i, j, k, l = sorted(rng.sample(list(t.leaves), 4))
    m = random_polynomial(rng, t.n, max_terms=1, max_degree=2)
    f = m * (three_term_relation(i, j, k, l) + p(i, j).scaled(_nonzero_rational(rng)))
    return EdgeWeighting.of(t, weights), f


@lru_cache(maxsize=None)
def _route_corpus():
    """Seeded (kind, tree, edge order, weighting, polynomial) cases for n = 4..8.

    Kinds: "random" (random polynomials and their products, internal
    weights positive), "relation" (three-term relation * g + h),
    "cancelling" (see _cancelling), "zero-internal" (a random input with
    one internal weight 0) and "contracted" (a weighting of a tree with
    one internal edge contracted; tropical_weight only).
    """
    rng = random.Random(61)
    cases = []
    for n in (4, 5, 6, 7, 8):
        for _ in range(8):
            t = random_tree(rng, n)
            o = list(t.edge_ids)
            rng.shuffle(o)
            r = random_weighting(rng, t)
            f = random_polynomial(rng, n, max_degree=3, max_terms=3)
            g = random_polynomial(rng, n, max_degree=2, max_terms=3)
            h = random_polynomial(rng, n, max_degree=2, max_terms=2)
            relation = three_term_relation(*sorted(rng.sample(range(1, n + 1), 4)))
            cases += [("random", t, o, r, f), ("random", t, o, r, f * g)]
            cases.append(("relation", t, o, r, relation * g + h))
            cases.append(("cancelling", t, o, r, _cancelling(rng, t)))
            cases.append(("zero-internal", t, o, _with_zero_internal_weight(rng, r), f * g))
            cases.append(("zero-internal", t, o, *_star_point(rng, t)))
            c = contract_edge(t, rng.choice(t.internal_edge_ids))
            cases.append(("contracted", c, None, random_weighting(rng, c, positive_internal=False), f))
            while c.internal_edge_ids:
                c = contract_edge(c, c.internal_edge_ids[0])
            cases.append(("contracted", c, None, *_star_point(rng, c)))
    return tuple(cases)


def test_both_valuations_agree_with_the_straightening_route():
    kinds = set()
    for kind, t, o, r, f in _route_corpus():
        kinds.add(kind)
        if o is not None:
            assert _value_or_none(lambda: rank_valuation(t, o, f).values) == _expansion_rank(t, o, f)
        assert _value_or_none(lambda: tropical_weight(r, f)) == _expansion_weight(r, f)
    assert kinds == {"random", "relation", "cancelling", "zero-internal", "contracted"}


def test_straightening_runs_only_when_the_leading_fiber_cancels(monkeypatch):
    import grasstrop.valuation as valuation_mod

    calls = []

    def counted(f, order=None):
        calls.append(f)
        return straighten(f, order=order)

    monkeypatch.setattr(valuation_mod, "straighten", counted)
    corpus = _route_corpus()
    for kind, t, o, r, f in corpus:
        if kind == "random":
            rank_valuation(t, o, f)
            tropical_weight(r, f)
    assert calls == []
    fallbacks = [
        ("cancelling", lambda t, o, r, f: rank_valuation(t, o, f)),
        ("cancelling", lambda t, o, r, f: tropical_weight(r, f)),
        ("zero-internal", lambda t, o, r, f: tropical_weight(r, f)),
        ("contracted", lambda t, o, r, f: tropical_weight(r, f)),
    ]
    for want, call in fallbacks:
        for kind, t, o, r, f in corpus:
            if kind == want:
                before = len(calls)
                call(t, o, r, f)
                assert len(calls) > before, (kind, f)


def test_valuation_checks_survive_optimized_mode():
    # python -O strips assert statements; the valuations must still refuse
    # a polynomial whose planar expansion is zero, a polynomial whose
    # leading fiber cancels must still get the value of its expansion, and
    # straightening through the memo must give the same expansions and the
    # same refusal of a label missing from the order as without -O
    code = (
        "from grasstrop import EdgeWeighting, enumerate_trivalent, format_polynomial, p,"
        " rank_valuation, straighten, three_term_relation, tropical_weight\n"
        "t = enumerate_trivalent(4)[0]\n"
        "f = three_term_relation(1, 2, 3, 4)\n"
        "for call in (lambda: tropical_weight(EdgeWeighting.of(t, {}), f),"
        " lambda: rank_valuation(t, t.edge_ids, f)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('no ValueError')\n"
        "# the fiber of p13*p24 and p14*p23 cancels; g is p12*p34 modulo the ideal\n"
        "g = f + p(1, 2) * p(3, 4)\n"
        "ones = EdgeWeighting.of(t, {e: 1 for e in t.edge_ids})\n"
        "got = (rank_valuation(t, t.edge_ids, g).values, tropical_weight(ones, g))\n"
        "if got != ((1, 1, 1, 1, 0), 4):\n"
        "    raise SystemExit(f'cancelling input valued {got}')\n"
        "m = p(1, 4) * p(2, 5) * p(3, 6) * p(1, 5)\n"
        "order = [1, 2, 3, 5, 4, 6]\n"
        "cold = straighten(m.scaled(-2), order=order)\n"
        "warm = straighten(m.scaled(-2), order=order)\n"
        "if warm != cold:\n"
        "    raise SystemExit('warm expansion differs from the cold one')\n"
        "print(format_polynomial(cold))\n"
        "print(format_polynomial(warm))\n"
        "try:\n"
        "    straighten(m, order=order[:-1])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('no ValueError for a missing label')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, (flags, proc.stderr + proc.stdout)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[-1] == "labels [6] not in the circular order"
