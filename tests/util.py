"""Shared random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from grasstrop import (
    EdgeWeighting,
    LabeledTree,
    PlueckerMonomial,
    PlueckerPolynomial,
    enumerate_trivalent,
)


@lru_cache(maxsize=None)
def trees_cached(n: int) -> tuple[LabeledTree, ...]:
    return tuple(enumerate_trivalent(n))


def random_tree(rng: random.Random, n: int) -> LabeledTree:
    trees = trees_cached(n)
    return trees[rng.randrange(len(trees))]


def random_rational(rng: random.Random, lo: int = -6, hi: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def random_weighting(
    rng: random.Random, t: LabeledTree, *, positive_internal: bool = True
) -> EdgeWeighting:
    weights = {}
    for eid in t.edge_ids:
        if eid.startswith("l"):
            weights[eid] = Fraction(rng.randint(-4, 6), rng.randint(1, 3))
        elif positive_internal:
            weights[eid] = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        else:
            weights[eid] = Fraction(rng.randint(0, 6), rng.randint(1, 3))
    return EdgeWeighting.of(t, weights)


def random_monomial(rng: random.Random, n: int, max_degree: int = 3) -> PlueckerMonomial:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    k = rng.randrange(0, max_degree + 1)
    return PlueckerMonomial.of([pairs[rng.randrange(len(pairs))] for _ in range(k)])


def random_polynomial(
    rng: random.Random, n: int, *, max_terms: int = 3, max_degree: int = 3
) -> PlueckerPolynomial:
    while True:
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            coeff = Fraction(0)
            while coeff == 0:
                coeff = random_rational(rng)
            terms.append((random_monomial(rng, n, max_degree), coeff))
        f = PlueckerPolynomial.of(terms)
        if not f.is_zero:
            return f


def random_matrix(rng: random.Random, n: int):
    return (
        tuple(random_rational(rng) for _ in range(n)),
        tuple(random_rational(rng) for _ in range(n)),
    )


def caterpillar(n: int) -> LabeledTree:
    """The tree whose internal vertices form one path, leaves 1, 2 at one end."""
    edges = [(1, n + 1), (2, n + 1), (n - 1, 2 * n - 2), (n, 2 * n - 2)]
    edges += [(k, n + k - 1) for k in range(3, n - 1)]
    edges += [(v, v + 1) for v in range(n + 1, 2 * n - 2)]
    return LabeledTree(n, edges)


def grown_tree(rng: random.Random, n: int) -> LabeledTree:
    """Random trivalent tree: leaf k joins a uniformly chosen edge of the tree on k-1 leaves."""
    edges = [(1, n + 1), (2, n + 1), (3, n + 1)]
    fresh = n + 2
    for k in range(4, n + 1):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, fresh), (v, fresh), (k, fresh)]
        fresh += 1
    return LabeledTree(n, edges)
