#!/usr/bin/env python3
"""Time grasstrop's baseline stress cases and write BENCH_<label>.json.

Run from anywhere; the library is imported from the `src` directory next
to this script:

    python3 bench/run.py --label after

writes BENCH_after.json at the repository root.  Each case builds its
input afresh (untimed), then times its library calls with
`time.perf_counter`, five times; the file records every run and the
median, together with the Python version, the commit
and a check of each result, so that a wrong answer cannot pass as a
fast one.  The cases are the stress cases of ROADMAP.md's baseline,
two valuation cases, a box of decompositions, perfbench's box op through
the library, the Gorenstein check of the acceptance test, two cases of
graded counts, the per-tree tables and the tropical layer on a 32-leaf
tree:

- `hilbert-n6-d4`: `initial_ideal_hilbert_check` on the first trivalent
  tree with 6 leaves, degrees 1..4, from an empty memo of semigroup
  counts, each quotient checked against the hook-content count;
- `hilbert-caterpillar8-d3`: the same on the 8-leaf caterpillar,
  degrees 1..3;
- `hilbert-caterpillar9-d4`: the same on the 9-leaf caterpillar,
  degrees 1..4, whose 82,251 monomials in degree 4 are the size that
  the `max_monomials` docstring quotes;
- `enumerate-n8`: `enumerate_trivalent(8)`, checked to be 10395
  distinct trivalent trees in ascending order of their split keys;
- `straighten-d12`: `straighten` of (p15 p26 p37 p48)^3, 364 terms,
  with the memo of expansions cleared first, so the number is cold;
- `straighten-d8-warm`: `straighten` of c*(p15 p26 p37 p48)^2 right
  after the same monomial was straightened with another coefficient, so
  its expansion comes from the memo; checked against the cold result
  and its 91 terms;
- `straighten-multi-cold` and `straighten-multi-warm`: `straighten` of
  40 seeded polynomials on 8 labels, 20 of the form relation*g + h and
  20 random ones of 6 terms of degree 6, so most have several crossing
  monomials; cold with the memo cleared first, warm right after each
  input was straightened once.  Each result is checked to be
  crossing-free, equal to the cold one, and equal to its input on the
  2x2 minors of a seeded matrix;
- `rank-valuation-d12`: 300 calls of `rank_valuation` of that product
  on the 8-leaf caterpillar (`enumerate_trivalent(8)[0]`), read along
  its edge ids; one call takes about 0.1 ms, too little to time alone;
- `axioms-n8`: both valuations of f, g, f*g and f+g for 100 seeded
  random 8-leaf trees, weightings, edge orders and polynomials f, g
  (up to 3 terms of degree up to 3), checked for multiplicativity and
  the ultrametric inequality;
- `decompose-box`: `decompose` of each of the 571 semigroup weights
  with every edge value at most 2 on a seeded 6-leaf tree, checked to
  sum back to the weight and to be crossing-free in the planar leaf
  order;
- `box-sweep-n5-m2`: the library path of perfbench's box op on each of
  the 2187 weights with every edge value at most 2 on a seeded 5-leaf
  tree: `SigmaWeight`, `in_semigroup`, `invariant_dim`, `decompose` of
  each member, then `graded_count(t, box_bound=2)`.  Membership and
  invariant dimension are checked against the vertex rule read from the
  adjacency, the decompositions as in `decompose-box`, and the number of
  members against the count;
- `gorenstein-n4-6`: `gorenstein_witness_check` on each of the 123
  trivalent trees with 4, 5 or 6 leaves, each checked True, from an
  empty memo of counts;
- `graded-n8-sweep`: `graded_count` in degrees 1..4 and
  `gorenstein_witness_check` on each of the 10395 trivalent trees with 8
  leaves, built afresh, from an empty memo of counts, so all but the
  first tree of each of the 11 rooted shapes are served from it; the
  counts are checked against the hook-content formula and every check
  to be True;
- `box-caterpillar1500-m2`: `graded_count(t, box_bound=2)` on 8 fresh
  copies of the 1500-leaf caterpillar, each from an empty memo, so every
  count builds the copy's shape key and walks it; checked against a
  transfer matrix along the caterpillar's spine;
- `canonicalize-n32`: `LabeledTree` on the edges of a seeded 32-leaf
  tree whose internal labels are permuted, each edge turned and the list
  shuffled, then its `edge_ids`, `planar_leaf_order`, stars and shape
  code; checked to give the unscrambled tree and its shape code, and the
  ids, order and stars of a walk from leaf 1 over the edge list;
- `leaf-paths-n32`: the edge positions on all 496 leaf paths of a fresh
  32-leaf tree, so the first one also builds the tables they are read
  from; each checked against the edges whose ids name a side holding
  one of the two leaves;
- `dissimilarity-n32`, `four-point-n32`, `four-point-n32-witnesses`,
  `reconstruct-n32`, `from-json-n32` and `from-tsv-n32`: the tropical
  layer on one seeded 32-leaf weighted tree (leaf weights of either
  sign, internal weights positive) and its dissimilarity vector d.
  `dissimilarity` is checked against sums of weights along `leaf_path`,
  `reconstruct_tree` to return the input tree and weights, and both
  parsers to read `d.to_json()` and `d.to_tsv()` back to d.
  `four-point-n32` times the verdict of `is_tropical_point` alone;
  `four-point-n32-witnesses` also builds all 35960 witnesses, as
  `trop check` does.  Both are checked to accept d and to name every
  quadruple in order with its three pairing sums, added as Fractions
  from `d.as_dict()`, and the positions of their maximum;
- `round-trip-n8`: `dissimilarity`, `is_tropical_point` and
  `reconstruct_tree` on each of 200 seeded 8-leaf weightings made as the
  32-leaf one; each d is checked against sums of weights along
  `leaf_path` and to be accepted, and each reconstruction to return the
  input tree, with its canonical preorder, and its weights;
- `four-point-n32-reject`: `is_tropical_point` on d with one pair of a
  maximal pairing of a seeded quadruple raised by 1/2, checked to
  reject it with the witness of the first quadruple whose maximum is
  attained once, found the same way;
- `reject-n8`: `is_tropical_point` and `reconstruct_tree` on each of
  200 seeded 8-leaf vectors, made as `round-trip-n8`'s are and then
  perturbed in the same way; each is checked to be rejected with the
  witness of its first violating quadruple, and `reconstruct_tree` to
  raise `NotTropicalError` with that witness.  A rejected vector is
  inserted in full and fails the realization certificate before the
  integer scan names its quadruple, so this case times that trade;
- `trop-check-n32`: `cli.main` on `trop check` of that d, read from a
  TSV file and written to another in a temporary directory, so the
  35960 quadruple lines are built and written as the command does; each
  line is checked against the three pairing sums of its quadruple, added
  as Fractions from `d.as_dict()`, and the positions of their maximum.

The `cli-*` cases time one request each from the start of a fresh
interpreter, `python -m grasstrop.cli` run with PYTHONDONTWRITEBYTECODE=1,
so interpreter start and the imports of the modules the command loads
count with the command itself:

- `cli-trees-enumerate-n4`: `trees enumerate --n 4`;
- `cli-trop-check-n6`: `trop check` of the dissimilarity vector of a
  6-leaf weighted tree made as the 32-leaf one, read from stdin;
- `cli-val-matrix-n4`: `val matrix` of the first 4-leaf tree, read from
  stdin;
- `cli-paper-example`: `paper-example`, which loads every module.

Each is checked to exit 0 with no stderr and the stdout of README.md's
example (the `trop check` lines are checked as above, the report against
the golden text).  A child that does not write bytecode still reads it:
an existing `src/grasstrop/__pycache__` makes the imports faster, so the
file records whether one was present (`bytecode_cache`).

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import grasstrop as gt  # noqa: E402
from grasstrop import cli, report  # noqa: E402
from grasstrop.tropical import NotTropicalError  # noqa: E402


def _caterpillar(n: int) -> gt.LabeledTree:
    """Internal vertices on one path, leaves 1 and 2 at one end."""
    edges = [(1, n + 1), (2, n + 1), (n - 1, 2 * n - 2), (n, 2 * n - 2)]
    edges += [(k, n + k - 1) for k in range(3, n - 1)]
    edges += [(v, v + 1) for v in range(n + 1, 2 * n - 2)]
    return gt.LabeledTree(n, tuple(edges))


REPEATS = 5


def _cold(make):
    """A set-up that empties the memo of semigroup counts, then calls make."""

    def setup():
        gt.semigroup._walk_count.cache_clear()
        return make()

    return setup


def _hook_content(n: int, d: int) -> int:
    """C(n+d-1,d)C(n+d-2,d)/(d+1), the hook-content dimension of the two-row
    shape (d, d) with n labels: the degree-d count of every n-leaf tree."""
    return comb(n + d - 1, d) * comb(n + d - 2, d) // (d + 1)


def _hilbert(make_tree, n: int, d: int):
    n_vars = comb(n, 2)

    def run(t):
        return gt.initial_ideal_hilbert_check(t, d, max_monomials=comb(n_vars + d - 1, d))

    def check(rep):
        quotients = [(row.d, row.quotient) for row in rep.degrees]
        return rep.passed and quotients == [(k, _hook_content(n, k)) for k in range(1, d + 1)]

    return _cold(make_tree), run, check


def _diameters():
    return gt.p(1, 5) * gt.p(2, 6) * gt.p(3, 7) * gt.p(4, 8)


def _straighten_setup():
    f = _diameters()
    return f * f * f


def _straighten_cold_setup():
    gt.plucker._unit_normal_form.cache_clear()
    return _straighten_setup()


def _straighten_warm_setup():
    """c*m and its cold expansion, with the memo warmed by another multiple of m."""
    m = _diameters() * _diameters()
    f = m.scaled(Fraction(-5, 3))
    gt.plucker._unit_normal_form.cache_clear()
    cold = gt.straighten(f)
    gt.plucker._unit_normal_form.cache_clear()
    gt.straighten(m.scaled(7))
    return f, cold


def _straighten_warm(arg):
    f, cold = arg
    return gt.straighten(f), cold


MULTI_INPUTS = 20


def _multi_setup():
    """Seeded relation*g + h and random 6-term, degree-6 polynomials on 8
    labels, and their expansions, which leave the memo holding each one."""
    rng = random.Random(20)
    pairs = list(combinations(range(1, 9), 2))

    def poly(terms: int, degree: int) -> gt.PlueckerPolynomial:
        return gt.PlueckerPolynomial(tuple(
            (
                gt.PlueckerMonomial.of([rng.choice(pairs) for _ in range(degree)]),
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)),
            )
            for _ in range(terms)
        ))

    inputs = [
        gt.three_term_relation(*sorted(rng.sample(range(1, 9), 4))) * poly(2, 2) + poly(2, 4)
        for _ in range(MULTI_INPUTS)
    ]
    inputs += [poly(6, 6) for _ in range(MULTI_INPUTS)]
    gt.plucker._unit_normal_form.cache_clear()
    return inputs, [gt.straighten(f) for f in inputs]


def _multi_cold_setup():
    arg = _multi_setup()
    gt.plucker._unit_normal_form.cache_clear()
    return arg


def _straighten_all(arg):
    inputs, cold = arg
    return inputs, [gt.straighten(f) for f in inputs], cold


def _on_minors(f, mat) -> Fraction:
    """f with each p[i,j] replaced by the 2x2 minor of columns i, j of mat."""
    top, bot = mat
    total = Fraction(0)
    for m, c in f.terms:
        for (i, j), e in m.exps:
            c *= (top[i - 1] * bot[j - 1] - top[j - 1] * bot[i - 1]) ** e
        total += c
    return total


def _straightened_hold(res) -> bool:
    """Each expansion equals the cold one, has no two crossing chords in
    the order 1..8, and takes the input's value on a seeded matrix."""
    inputs, outs, cold = res
    rng = random.Random(21)
    mat = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(8)) for _ in range(2))
    for f, g in zip(inputs, outs):
        for m in g.monomials():
            if any(a < c < b < d or c < a < d < b for (a, b), (c, d) in combinations(m.support(), 2)):
                return False
        if _on_minors(f, mat) != _on_minors(g, mat):
            return False
    return outs == cold and len(outs) == 2 * MULTI_INPUTS


RANK_VALUATION_CALLS = 300


def _rank_valuation_setup():
    return _caterpillar(8), _straighten_setup()


def _rank_valuation(arg):
    t, f = arg
    return {gt.rank_valuation(t, t.edge_ids, f).values for _ in range(RANK_VALUATION_CALLS)}


def _random_tree(rng: random.Random, n: int) -> gt.LabeledTree:
    """Grow a trivalent tree by inserting leaves 4..n into random edges."""
    edges = [(1, n + 1), (2, n + 1), (3, n + 1)]
    for k in range(4, n + 1):
        u, v = edges.pop(rng.randrange(len(edges)))
        w = n + k - 2
        edges += [(u, w), (v, w), (k, w)]
    return gt.LabeledTree(n, tuple(edges))


def _random_polynomial(rng: random.Random, n: int) -> gt.PlueckerPolynomial:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    while True:
        terms = [
            (
                gt.PlueckerMonomial.of([rng.choice(pairs) for _ in range(rng.randint(0, 3))]),
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)),
            )
            for _ in range(rng.randint(1, 3))
        ]
        f = gt.PlueckerPolynomial(tuple(terms))
        if not f.is_zero:
            return f


AXIOMS_OPS = 100


def _axioms_setup():
    n = 8
    rng = random.Random(8)
    ops = []
    for _ in range(AXIOMS_OPS):
        t = _random_tree(rng, n)
        r = gt.EdgeWeighting.of(t, {
            e: Fraction(rng.randint(-4, 6) if e.startswith("l") else rng.randint(1, 6), rng.randint(1, 3))
            for e in t.edge_ids
        })
        order = list(t.edge_ids)
        rng.shuffle(order)
        f, g = _random_polynomial(rng, n), _random_polynomial(rng, n)
        ops.append((t, r, order, [f, g, f * g] + ([] if (f + g).is_zero else [f + g])))
    return ops


def _axioms(ops):
    return [
        (
            [gt.tropical_weight(r, h) for h in inputs],
            [gt.rank_valuation(t, order, h).values for h in inputs],
        )
        for t, r, order, inputs in ops
    ]


def _axioms_hold(results) -> bool:
    for tw, rv in results:
        if tw[2] != tw[0] + tw[1] or rv[2] != tuple(a + b for a, b in zip(rv[0], rv[1])):
            return False
        if len(tw) == 4 and (tw[3] > max(tw[0], tw[1]) or rv[3] > max(rv[0], rv[1])):
            return False
    return len(results) == AXIOMS_OPS


def _rooted_walk(n: int, edges) -> tuple[dict, dict, list, dict]:
    """(adjacency, parent, walk order, leaves below each vertex) of a walk
    from leaf 1 over an edge list alone.  A vertex the walk does not reach
    is missing from the order."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent, order = {1: 0}, [1]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    below = {v: {v} if v <= n else set() for v in order}
    # order[1] is the neighbour of leaf 1; its edge is the leaf edge l1
    for v in reversed(order[2:]):
        below[parent[v]] |= below[v]
    return adj, parent, order, below


def _enumeration_holds(trees, n: int = 8) -> bool:
    """(2n-5)!! trivalent trees, connected, listed by strictly ascending split keys.

    A tree's key is the list of leaf-1 sides of its internal splits, each
    a sorted tuple, in ascending order; the sides are found by a walk from
    leaf 1 over the edge list alone.  The key determines the split set, so
    strictly ascending keys also mean distinct trees.
    """
    leaves = set(range(1, n + 1))
    keys = []
    for t in trees:
        adj, _, order, below = _rooted_walk(n, t.edges)
        if any(len(nbrs) != (1 if v <= n else 3) for v, nbrs in adj.items()) or len(order) != len(adj):
            return False
        keys.append(sorted(tuple(sorted(leaves - below[v])) for v in order[2:] if v > n))
    return len(keys) == gt.double_factorial(2 * n - 5) and all(a < b for a, b in zip(keys, keys[1:]))


def _weighted_tree(n: int) -> gt.EdgeWeighting:
    """A tree on n leaves and weights (leaf weights of either sign, internal
    weights positive), all from random.Random(n)."""
    return _random_weighting(random.Random(n), n)


def _random_weighting(rng: random.Random, n: int) -> gt.EdgeWeighting:
    """A random tree on n leaves and weights, drawn as for _weighted_tree."""
    t = _random_tree(rng, n)
    return gt.EdgeWeighting.of(t, {
        e: Fraction(rng.randint(-4, 6) if e.startswith("l") else rng.randint(1, 6), rng.randint(1, 3))
        for e in t.edge_ids
    })


def _path_sums_hold(rd) -> bool:
    r, d = rd
    return d.as_dict() == {
        (i, j): sum(r.weight(e) for e in gt.leaf_path(r.tree, i, j))
        for i, j in gt.leaf_pairs(r.tree.n)
    }


ROUND_TRIPS = 200


def _round_trips(rs):
    """dissimilarity, is_tropical_point and reconstruct_tree on each weighting."""
    out = []
    for r in rs:
        d = gt.dissimilarity(r)
        out.append((r, d, gt.is_tropical_point(d)[0], gt.reconstruct_tree(d)))
    return out


def _round_trips_hold(res) -> bool:
    """Each d holds the sums along leaf paths, is accepted, and gives back
    the input tree, in canonical form, and its weights."""
    return len(res) == ROUND_TRIPS and all(
        ok and _path_sums_hold((r, d)) and rec == (r.tree, r) and rec[0]._pre == r.tree._pre
        for r, d, ok, rec in res
    )


def _witness_of(vals, quad):
    """(quad, sums, attained) of one quadruple, the sums added as Fractions."""
    i, j, k, l = quad
    sums = (vals[i, j] + vals[k, l], vals[i, k] + vals[j, l], vals[i, l] + vals[j, k])
    return quad, sums, tuple(p for p in range(3) if sums[p] == max(sums))


def _witnesses_hold(d, res) -> bool:
    """res accepts d and names every quadruple, in order, with its sums and maximum."""
    ok, witnesses = res
    vals = d.as_dict()
    quads = list(combinations(range(1, d.n + 1), 4))
    return ok is True and len(witnesses) == len(quads) and [
        (w.quad, w.sums, w.attained) for w in witnesses
    ] == [_witness_of(vals, q) for q in quads]


def _read_all_witnesses(d):
    """is_tropical_point(d) with every witness built, as `trop check` reads them."""
    ok, witnesses = gt.is_tropical_point(d)
    return ok, tuple(witnesses)


def _perturbed(d, rng: random.Random) -> gt.DissimilarityVector:
    """d with one pair of a maximal pairing of a quadruple drawn by rng
    raised by 1/2, as a new vector."""
    vals = d.as_dict()
    i, j, k, l = quad = tuple(sorted(rng.sample(range(1, d.n + 1), 4)))
    top = _witness_of(vals, quad)[2][0]
    vals[(((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))[top][0]] += Fraction(1, 2)
    return gt.DissimilarityVector.of(d.n, vals)


def _perturbed32() -> gt.DissimilarityVector:
    """d of _weighted_tree(32) with a pair raised at a seeded quadruple."""
    return _perturbed(gt.dissimilarity(_weighted_tree(32)), random.Random(4))


def _rejected8():
    """The vectors of 8-leaf weightings made as round-trip-n8's, each with
    a pair raised at a quadruple drawn by the same generator."""
    out = []
    for k in range(ROUND_TRIPS):
        rng = random.Random(f"reject-{k}")
        out.append(_perturbed(gt.dissimilarity(_random_weighting(rng, 8)), rng))
    return out


def _rejections(ds):
    """is_tropical_point on each vector, and the error reconstruct_tree raises."""
    out = []
    for d in ds:
        verdict, error = gt.is_tropical_point(d), None
        try:
            gt.reconstruct_tree(d)
        except NotTropicalError as exc:
            error = exc
        out.append((d, verdict, error))
    return out


def _rejections_hold(res) -> bool:
    """Each vector is rejected with the witness of its first quadruple whose
    maximum is attained once, and reconstruct_tree raises with that witness."""
    return len(res) == ROUND_TRIPS and all(
        _first_violation_named(d, verdict) and exc is not None and exc.witness == verdict[1][0]
        for d, verdict, exc in res
    )


def _first_violation_named(d, res) -> bool:
    """res rejects d with the witness of its first quadruple whose maximum is attained once."""
    ok, witnesses = res
    vals = d.as_dict()
    ws = (_witness_of(vals, q) for q in combinations(range(1, d.n + 1), 4))
    first = next(w for w in ws if len(w[2]) == 1)
    return ok is False and [(w.quad, w.sums, w.attained) for w in witnesses] == [first]


def _check_text(d) -> str:
    """The stdout of `trop check` on an accepted d, its sums added as Fractions."""
    vals = d.as_dict()
    lines = ["tropical: yes"]
    for quad in combinations(range(1, d.n + 1), 4):
        _, sums, attained = _witness_of(vals, quad)
        i, j, k, l = quad
        names = (f"{i}{j}|{k}{l}", f"{i}{k}|{j}{l}", f"{i}{l}|{j}{k}")
        parts = "  ".join(f"{name}:{s}" for name, s in zip(names, sums))
        lines.append(f"  quad {quad}: {parts}  max at {','.join(names[p] for p in attained)}")
    return "\n".join(lines) + "\n"


def _trop_check_setup():
    """d of _weighted_tree(32) in a TSV file, and the file `trop check` is to write,
    in a temporary directory that goes away with the returned object."""
    d = gt.dissimilarity(_weighted_tree(32))
    tmp = tempfile.TemporaryDirectory()
    src, out = Path(tmp.name) / "d.tsv", Path(tmp.name) / "out.txt"
    src.write_text(d.to_tsv() + "\n", encoding="utf-8")
    return d, tmp, src, out


def _trop_check(arg):
    d, tmp, src, out = arg
    return d, tmp, cli.main(["trop", "check", "--input", str(src), "--output", str(out)]), out


def _trop_check_holds(res) -> bool:
    d, _, code, out = res
    return code == 0 and out.read_text(encoding="utf-8") == _check_text(d)


def _tropical_case(run, check, text=None):
    """A case on d = dissimilarity of _weighted_tree(32): run gets d, or
    d rendered by text, and check gets (weighting, d, result)."""

    def setup():
        r = _weighted_tree(32)
        d = gt.dissimilarity(r)
        return r, d, d if text is None else text(d)

    return setup, lambda arg: (arg[0], arg[1], run(arg[2])), lambda res: check(*res)


def _scrambled32():
    """A seeded 32-leaf tree, and its edges with the internal labels
    permuted, each edge turned at random and the list shuffled."""
    rng = random.Random(34)
    ref = _random_tree(rng, 32)
    label = {v: v for v in range(1, 33)}
    label.update(zip(range(33, 63), rng.sample(range(100, 1000), 30)))
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u]) for u, v in ref.edges]
    rng.shuffle(edges)
    return ref, tuple(edges)


def _canonicalize(arg):
    ref, edges = arg
    t = gt.LabeledTree(32, edges)
    return ref, t, t.edge_ids, t.planar_leaf_order, t._stars, t._shape


def _tables_hold(res) -> bool:
    """The tree is the unscrambled one and has its shape code; its edge ids,
    planar leaf order and stars are those of a walk from leaf 1 over its
    edges alone."""
    ref, t, ids, planar, stars, shape = res
    n = t.n
    adj, parent, order, below = _rooted_walk(n, t.edges)
    leaves = set(range(1, n + 1))
    internal = sorted((v for v in order[2:] if v > n), key=lambda v: sorted(leaves - below[v]))
    # each edge is named after its child, the endpoint away from leaf 1
    name = {v: f"l{v}" for v in range(2, n + 1)}
    name[order[1]] = "l1"
    name.update((v, "e" + "-".join(map(str, sorted(below[v])))) for v in internal)
    expect_ids = tuple([f"l{i}" for i in range(1, n + 1)] + [name[v] for v in internal])
    expect_planar, stack = [], [1]
    while stack:
        v = stack.pop()
        if v <= n:
            expect_planar.append(v)
        kids = [w for w in adj[v] if parent[w] == v]
        stack += sorted(kids, key=lambda w: min(below[w]), reverse=True)
    index = {e: k for k, e in enumerate(expect_ids)}
    expect_stars = tuple(
        tuple(index[name[w if parent[w] == v else v]] for w in sorted(adj[v])) for v in sorted(order) if v > n
    )
    return (
        t == ref
        and ids == expect_ids
        and planar == tuple(expect_planar)
        and stars == expect_stars
        and shape == ref._shape
    )


def _all_paths(t):
    return t, {(i, j): t._path(i, j) for i, j in combinations(range(1, t.n + 1), 2)}


def _paths_hold(res) -> bool:
    """All 496 leaf pairs, each with the edges that separate its two leaves,
    read off the edge ids: an id names the leaves on one side of its edge."""
    t, paths = res
    sides = [{int(e[1:])} if e[0] == "l" else set(map(int, e[1:].split("-"))) for e in t.edge_ids]
    return len(paths) == 496 and all(
        sorted(path) == [k for k, side in enumerate(sides) if (i in side) != (j in side)]
        for (i, j), path in paths.items()
    )


README_ENUMERATE_N4 = """\
{"n":4,"edges":[[1,5],[2,5],[3,6],[4,6],[5,6]]}
{"n":4,"edges":[[1,5],[2,6],[3,5],[4,6],[5,6]]}
{"n":4,"edges":[[1,5],[2,6],[3,6],[4,5],[5,6]]}
"""

README_MATRIX_N4 = """\
edge\tp[1,2]\tp[1,3]\tp[1,4]\tp[2,3]\tp[2,4]\tp[3,4]
l1\t1\t1\t1\t0\t0\t0
l2\t1\t0\t0\t1\t1\t0
l3\t0\t1\t0\t1\t0\t1
l4\t0\t0\t1\t0\t1\t1
e3-4\t0\t1\t1\t1\t1\t0
"""

CLI_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    PYTHONDONTWRITEBYTECODE="1",
)


def _startup(args: list[str], make):
    """A case running `python -m grasstrop.cli args` in a fresh interpreter;
    make() gives its stdin and expected stdout."""

    def run(arg):
        stdin, expect = arg
        proc = subprocess.run(
            [sys.executable, "-m", "grasstrop.cli", *args],
            input=stdin, capture_output=True, text=True, env=CLI_ENV, cwd=ROOT, timeout=120,
        )
        return proc, expect

    def check(res) -> bool:
        proc, expect = res
        return proc.returncode == 0 and proc.stdout == expect and proc.stderr == ""

    return make, run, check


def _check_n6():
    """d of _weighted_tree(6) as TSV, and its `trop check` text."""
    d = gt.dissimilarity(_weighted_tree(6))
    return d.to_tsv() + "\n", _check_text(d)


def _box_members():
    """The tree of seed 6 on 6 leaves and every semigroup weight with all
    edge values at most 2 on it."""
    t = _random_tree(random.Random(6), 6)
    weights = (gt.SigmaWeight(t, vec) for vec in product(range(3), repeat=len(t.edge_ids)))
    return t, [s for s in weights if gt.in_semigroup(t, s)]


def _decompose_box(arg):
    t, members = arg
    return t, [(s, gt.decompose(t, s)) for s in members]


def _decompositions_hold(res) -> bool:
    """Every member of the box, each split into pairs whose leaf paths sum
    back to it and no two of which cross as chords in the planar order."""
    t, out = res
    pos = {leaf: k for k, leaf in enumerate(t.planar_leaf_order)}
    for s, pairs in out:
        back = dict.fromkeys(t.edge_ids, 0)
        for i, j in pairs:
            for e in gt.leaf_path(t, i, j):
                back[e] += 1
        chords = [tuple(sorted((pos[i], pos[j]))) for i, j in pairs]
        if any(a < c < b < d or c < a < d < b for (a, b), (c, d) in combinations(chords, 2)):
            return False
        if gt.SigmaWeight.of(t, back) != s:
            return False
    return len(out) == gt.graded_count(t, box_bound=2)


def _box_sweep_setup():
    """The tree of seed 5 on 5 leaves and every weight with all edge values
    at most 2 on it."""
    t = _random_tree(random.Random(5), 5)
    return t, list(product(range(3), repeat=len(t.edge_ids)))


def _box_sweep(arg):
    """Build, test, split and count every weight of the box, as perfbench's
    box op does through the library."""
    t, points = arg
    rows = []
    for vec in points:
        s = gt.SigmaWeight(t, vec)
        member = gt.in_semigroup(t, s)
        rows.append((s, member, gt.invariant_dim(t, s), gt.decompose(t, s) if member else None))
    return t, rows, gt.graded_count(t, box_bound=2)


def _box_sweep_holds(res) -> bool:
    """Membership and invariant dimension agree with the vertex rule read
    from the adjacency, every member splits as _decompositions_hold asks,
    and the members number the box count."""
    t, rows, count = res
    index = {eid: k for k, eid in enumerate(t.edge_ids)}
    stars = [[index[t.edge_id_of(v, w)] for w in t.adjacency[v]] for v in t.internal_vertices]
    members = []
    for s, member, inv, pairs in rows:
        triples = ([s.values[k] for k in star] for star in stars)
        ok = all((a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b for a, b, c in triples)
        if member != ok or inv != int(ok) or (pairs is None) == ok:
            return False
        if ok:
            members.append((s, pairs))
    return len(rows) == 3 ** len(t.edge_ids) and len(members) == count and _decompositions_hold((t, members))


def _gorenstein_trees():
    """Each tree with 4, 5 or 6 leaves."""
    return [t for n in (4, 5, 6) for t in gt.enumerate_trivalent(n)]


def _gorenstein(trees):
    return [gt.gorenstein_witness_check(t) for t in trees]


SWEEP_DEGREES = range(1, 5)


def _graded_sweep(trees):
    return [
        ([gt.graded_count(t, plucker_degree=d) for d in SWEEP_DEGREES], gt.gorenstein_witness_check(t))
        for t in trees
    ]


def _graded_sweep_holds(rows, n: int = 8) -> bool:
    """Degree-d counts equal the hook-content dimension (see _hook_content) on
    every tree, and every Gorenstein check passes."""
    expect = [_hook_content(n, d) for d in SWEEP_DEGREES]
    return len(rows) == gt.double_factorial(2 * n - 5) and all(c == expect and ok is True for c, ok in rows)


CATERPILLAR_COPIES = 8


def _cold_box_counts(trees):
    """graded_count(t, box_bound=2) on each tree, each from an empty memo."""
    out = []
    for t in trees:
        gt.semigroup._walk_count.cache_clear()
        out.append(gt.graded_count(t, box_bound=2))
    return out


def _caterpillar_box_count(n: int, m: int) -> int:
    """Weights with every edge value at most m on the n-leaf caterpillar, by
    a transfer matrix along the spine: each spine vertex but the two ends
    carries one leaf, the ends carry two."""

    def ok(a, b, c):
        return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b

    vals = range(m + 1)
    end = [sum(ok(a, b, c) for a in vals for b in vals) for c in vals]
    step = [[sum(ok(c, x, d) for x in vals) for d in vals] for c in vals]
    counts = end
    for _ in range(n - 4):
        counts = [sum(counts[c] * step[c][d] for c in vals) for d in vals]
    return sum(counts[c] * end[c] for c in vals)


CASES = {
    "hilbert-n6-d4": _hilbert(lambda: gt.enumerate_trivalent(6)[0], 6, 4),
    "hilbert-caterpillar8-d3": _hilbert(lambda: _caterpillar(8), 8, 3),
    "hilbert-caterpillar9-d4": _hilbert(lambda: _caterpillar(9), 9, 4),
    "enumerate-n8": (lambda: 8, gt.enumerate_trivalent, _enumeration_holds),
    "straighten-d12": (_straighten_cold_setup, gt.straighten, lambda g: len(g.terms) == 364),
    "straighten-d8-warm": (
        _straighten_warm_setup,
        _straighten_warm,
        lambda gc: gc[0] == gc[1] and len(gc[0].terms) == 91,
    ),
    "straighten-multi-cold": (_multi_cold_setup, _straighten_all, _straightened_hold),
    "straighten-multi-warm": (_multi_setup, _straighten_all, _straightened_hold),
    "rank-valuation-d12": (
        _rank_valuation_setup,
        _rank_valuation,
        lambda v: v == {(3, 3, 3, 3, 3, 3, 3, 3, 6, 9, 12, 9, 6)},
    ),
    "axioms-n8": (_axioms_setup, _axioms, _axioms_hold),
    "decompose-box": (_box_members, _decompose_box, _decompositions_hold),
    "box-sweep-n5-m2": (_box_sweep_setup, _box_sweep, _box_sweep_holds),
    "gorenstein-n4-6": (
        _cold(_gorenstein_trees),
        _gorenstein,
        lambda oks: len(oks) == 123 and all(ok is True for ok in oks),
    ),
    "graded-n8-sweep": (_cold(lambda: gt.enumerate_trivalent(8)), _graded_sweep, _graded_sweep_holds),
    "box-caterpillar1500-m2": (
        lambda: [_caterpillar(1500) for _ in range(CATERPILLAR_COPIES)],
        _cold_box_counts,
        lambda counts: counts == [_caterpillar_box_count(1500, 2)] * CATERPILLAR_COPIES,
    ),
    "canonicalize-n32": (_scrambled32, _canonicalize, _tables_hold),
    "leaf-paths-n32": (lambda: _random_tree(random.Random(35), 32), _all_paths, _paths_hold),
    "dissimilarity-n32": (
        lambda: _weighted_tree(32),
        lambda r: (r, gt.dissimilarity(r)),
        _path_sums_hold,
    ),
    "round-trip-n8": (
        lambda: [_random_weighting(random.Random(f"round-trip-{k}"), 8) for k in range(ROUND_TRIPS)],
        _round_trips,
        _round_trips_hold,
    ),
    "four-point-n32": _tropical_case(gt.is_tropical_point, lambda r, d, res: _witnesses_hold(d, res)),
    "four-point-n32-witnesses": _tropical_case(
        _read_all_witnesses,
        lambda r, d, res: _witnesses_hold(d, res),
    ),
    "four-point-n32-reject": (
        _perturbed32,
        lambda d: (d, gt.is_tropical_point(d)),
        lambda res: _first_violation_named(*res),
    ),
    "reject-n8": (_rejected8, _rejections, _rejections_hold),
    "reconstruct-n32": _tropical_case(
        gt.reconstruct_tree,
        lambda r, d, res: res == (r.tree, r),
    ),
    "from-json-n32": _tropical_case(
        gt.DissimilarityVector.from_json,
        lambda r, d, res: res == d,
        text=gt.DissimilarityVector.to_json,
    ),
    "from-tsv-n32": _tropical_case(
        gt.DissimilarityVector.from_tsv,
        lambda r, d, res: res == d,
        text=gt.DissimilarityVector.to_tsv,
    ),
    "trop-check-n32": (_trop_check_setup, _trop_check, _trop_check_holds),
    "cli-trees-enumerate-n4": _startup(["trees", "enumerate", "--n", "4"], lambda: ("", README_ENUMERATE_N4)),
    "cli-trop-check-n6": _startup(["trop", "check", "--input", "-"], _check_n6),
    "cli-val-matrix-n4": _startup(
        ["val", "matrix", "--tree", "-"],
        # the command ends the table with an empty line
        lambda: (README_ENUMERATE_N4.splitlines()[0], README_MATRIX_N4 + "\n"),
    ),
    "cli-paper-example": _startup(["paper-example"], lambda: ("", report.GOLDEN)),
}


def _commit() -> tuple[str, bool | None]:
    """HEAD's hash and whether the tree has changes, or ("unknown", None)."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None
    return head, bool(status.strip())


def measure() -> dict:
    cases = {}
    for name, (setup, run, check) in CASES.items():
        runs = []
        ok = True
        for _ in range(REPEATS):
            arg = setup()
            start = time.perf_counter()
            result = run(arg)
            runs.append(time.perf_counter() - start)
            ok = ok and bool(check(result))
            # a live result (35960 witnesses, say) would make the garbage
            # collector's passes in the next timed run longer
            del arg, result
        cases[name] = {"median_s": statistics.median(runs), "runs_s": runs, "correct": ok}
        print(f"{name}\t{cases[name]['median_s']:.4f} s\t{'ok' if ok else 'WRONG'}", flush=True)
    return cases


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        ap.error("--label may hold only letters, digits, '.', '_' and '-'")
    commit, dirty = _commit()
    out = {
        "label": args.label,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "commit": commit,
        "dirty": dirty,
        "bytecode_cache": (ROOT / "src" / "grasstrop" / "__pycache__").is_dir(),
        "repeats": REPEATS,
        "cases": measure(),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0 if all(case["correct"] for case in out["cases"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
