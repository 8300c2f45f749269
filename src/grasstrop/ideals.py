"""Initial forms of Pluecker polynomials and the toric degeneration of a tree.

Weighting the ambient polynomial ring by a point of the tropical
Grassmannian selects, from each polynomial, the sub-sum of terms of
maximal weight.  For the dissimilarity vector of the weighting that is 1
on internal edges and 0 on leaf edges, the three-term relations
degenerate to binomials, and the ideal they span cuts out a toric
variety whose coordinate ring is graded by Pluecker degree.  The
dimension check below confirms, degree by degree, that this quotient
matches the count of semigroup weightings of the tree.

The check needs no elimination.  Every generator is a binomial with
coefficients +-1, so in degree d the generators times the monomials of
degree d-2 form the incidence matrix of a signed graph on the degree-d
monomials.  Its rank, the dimension of the ideal in degree d, is the
number of monomials minus the number of balanced components, those
whose cycles all carry sign +1 (Eisenbud-Sturmfels, "Binomial ideals",
1996).

A sign caveat: the two surviving terms of a three-term relation carry
opposite signs exactly when the quartet's split in the tree avoids the
middle pairing {ik, jl} (labels sorted i < j < k < l).  For trees that
are planar in the natural circular order this holds for every quartet,
and each degenerated binomial lies in the kernel of the sign-less
monomial map.  For the remaining quartets the binomial is a sum of two
monomials with the same image and lands in the kernel only after
flipping the sign of one variable per inverted pair of the planar leaf
order.  Sign flips are coordinate changes, so the graded dimension
comparison is unaffected either way: in the signed graph a flip negates
some columns, which changes no cycle's sign.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Hashable, Iterable, Iterator, Mapping

from .plucker import PlueckerMonomial, PlueckerPolynomial
from .semigroup import graded_count
from .trees import EdgeId, LabeledTree
from .tropical import DissimilarityVector, EdgeWeighting, _pair_position, leaf_pairs
from .valuation import monomial_weight


def _edge_key(eid: EdgeId) -> tuple:
    """Sort key placing leaf edges, in leaf order, before internal edges."""
    if eid.startswith("l") and eid[1:].isdigit():
        return (0, int(eid[1:]), eid)
    return (1, 0, eid)


@dataclass(frozen=True)
class EdgeMonomial:
    """A monomial in the edge variables y[e] of a tree."""

    exps: tuple[tuple[EdgeId, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for eid, e in self.exps:
            if eid in seen:
                raise ValueError(f"repeated edge {eid}")
            seen.add(eid)
            if not isinstance(e, int) or isinstance(e, bool) or e <= 0:
                raise ValueError(f"exponent of {eid} must be a positive integer")
        object.__setattr__(
            self, "exps", tuple(sorted(self.exps, key=lambda it: _edge_key(it[0])))
        )

    @classmethod
    def of(cls, exps: Mapping[EdgeId, int]) -> EdgeMonomial:
        return cls(tuple((eid, e) for eid, e in exps.items() if e != 0))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def as_dict(self) -> dict[EdgeId, int]:
        return dict(self.exps)

    def format(self) -> str:
        if not self.exps:
            return "1"
        factors = []
        for eid, e in self.exps:
            factors.append(f"y[{eid}]" if e == 1 else f"y[{eid}]^{e}")
        return "*".join(factors)


def initial_form(f: PlueckerPolynomial, d: DissimilarityVector) -> PlueckerPolynomial:
    """The sub-sum of terms of f whose weight under d is maximal.

    The weight of a term is the d-weighted sum of its exponents over the
    variable pairs; exponents of variables p[i,j] with i or j above d.n
    are rejected.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no initial form")
    if f.max_label() > d.n:
        raise ValueError(
            f"polynomial mentions label {f.max_label()} but d has n={d.n}"
        )
    weights: dict[PlueckerMonomial, Fraction] = {}
    for m, _ in f.terms:
        weights[m] = sum(
            (Fraction(e) * d.value(i, j) for (i, j), e in m.exps), Fraction(0)
        )
    top = max(weights.values())
    return PlueckerPolynomial(
        tuple((m, c) for m, c in f.terms if weights[m] == top)
    )


def monomial_map(t: LabeledTree, m: PlueckerMonomial) -> EdgeMonomial:
    """Image of a Pluecker monomial in the edge variables of t.

    Each p[i,j] maps to the product of y[e] over the edges on the path
    from leaf i to leaf j, so the exponent of y[e] in the image is the
    edge value of the weight of m at e.
    """
    s = monomial_weight(t, m)
    return EdgeMonomial.of(s.as_dict())


def toric_kernel_membership(t: LabeledTree, f: PlueckerPolynomial) -> bool:
    """Whether f lies in the kernel of the monomial map of t.

    True iff, after grouping the terms of f by their image edge
    monomial, every group's coefficients sum to zero.
    """
    if f.max_label() > t.n:
        raise ValueError(f"polynomial mentions label {f.max_label()} but t has n={t.n}")
    sums: dict[EdgeMonomial, Fraction] = {}
    for m, c in f.terms:
        img = monomial_map(t, m)
        sums[img] = sums.get(img, Fraction(0)) + c
    return all(v == 0 for v in sums.values())


def internal_indicator(t: LabeledTree) -> EdgeWeighting:
    """The edge weighting of t that is 1 on internal edges and 0 on leaf edges."""
    return EdgeWeighting.of(t, {eid: Fraction(1) for eid in t.internal_edge_ids})


@dataclass(frozen=True)
class DegreeCheck:
    """One graded piece of the initial-ideal dimension check."""

    d: int
    monomials: int
    ideal_dim: int
    quotient: int
    semigroup_count: int

    @property
    def passed(self) -> bool:
        return self.quotient == self.semigroup_count


@dataclass(frozen=True)
class HilbertReport:
    """Degree-by-degree comparison of the toric quotient with the semigroup."""

    tree: LabeledTree
    degrees: tuple[DegreeCheck, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.degrees)

    def to_json_dict(self) -> dict:
        from .trees import tree_to_json_dict

        return {
            "n": self.tree.n,
            "tree": tree_to_json_dict(self.tree),
            "degrees": [
                {
                    "d": row.d,
                    "monomials": row.monomials,
                    "ideal_dim": row.ideal_dim,
                    "quotient": row.quotient,
                    "semigroup_count": row.semigroup_count,
                    "pass": row.passed,
                }
                for row in self.degrees
            ],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def signed_incidence_rank(rows: Iterable[Mapping[Hashable, int]]) -> int:
    """Rank over the rationals of a matrix whose rows are two entries of +-1.

    Such a matrix is the incidence matrix of a signed graph on its
    columns: the row a*e_u + b*e_v joins u and v with parity 0 when
    a*b < 0 and parity 1 otherwise.  A kernel vector x has x_v = x_u
    across a parity-0 edge and x_v = -x_u across a parity-1 edge, so a
    connected component carries one kernel dimension when it is
    balanced (every cycle has even parity) and none otherwise.  Hence
    the rank is the number of columns minus the number of balanced
    components, where a column met by no row is a balanced component of
    its own and adds nothing.  A union-find keeps each vertex's parity
    relative to its root.  Raises RuntimeError on any other row shape.
    """
    parent: dict[Hashable, Hashable] = {}
    parity: dict[Hashable, int] = {}  # parity of a vertex relative to its parent
    unbalanced: set[Hashable] = set()  # roots of components with an odd cycle

    def find(u: Hashable) -> tuple[Hashable, int]:
        if u not in parent:
            parent[u] = u
            parity[u] = 0
            return u, 0
        path = []
        while parent[u] != u:
            path.append(u)
            u = parent[u]
        acc = 0
        for v in reversed(path):
            acc ^= parity[v]
            parity[v] = acc
            parent[v] = u
        return u, parity[path[0]] if path else 0

    components = 0
    for row in rows:
        if len(row) != 2:
            raise RuntimeError(f"row {dict(row)!r} does not have two entries")
        (u, a), (v, b) = row.items()
        if a not in (1, -1) or b not in (1, -1):
            raise RuntimeError(f"row {dict(row)!r} has an entry other than +-1")
        components += (u not in parent) + (v not in parent)
        ru, pu = find(u)
        rv, pv = find(v)
        edge = 0 if a * b < 0 else 1
        if ru == rv:
            if pu ^ pv != edge:
                unbalanced.add(ru)
            continue
        parent[rv] = ru
        parity[rv] = pu ^ pv ^ edge
        components -= 1
        if rv in unbalanced:
            unbalanced.discard(rv)
            unbalanced.add(ru)
    return len(parent) - (components - len(unbalanced))


_Binomial = tuple[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]]


def _toric_generators(t: LabeledTree) -> list[_Binomial]:
    """The initial binomials of the three-term relations of t.

    This is `initial_form(three_term_relation(i, j, k, l), d)` for the
    dissimilarity vector d of `internal_indicator(t)`, on integers: d_ij
    is the number of internal edges, those at index n or above in
    edge_ids, on the path from i to j.  Each binomial is a pair of
    (monomial, coefficient) terms, a monomial written as the sorted tuple
    of its variable indices with repetition, where p[i,j] has the index
    of (i, j) in leaf_pairs(n).
    """
    n = t.n
    w = [sum(k >= n for k in t._path(i, j)) for i, j in leaf_pairs(n)]
    gens: list[_Binomial] = []
    for quad in combinations(range(1, n + 1), 4):
        ij, ik, il, jk, jl, kl = (_pair_position(n, a, b) for a, b in combinations(quad, 2))
        # p_ij p_kl - p_ik p_jl + p_il p_jk, each product already sorted
        terms = (((ij, kl), 1), ((ik, jl), -1), ((il, jk), 1))
        top = max(w[a] + w[b] for (a, b), _ in terms)
        kept = tuple(term for term in terms if w[term[0][0]] + w[term[0][1]] == top)
        if len(kept) != 2:
            raise RuntimeError(f"quartet {quad} did not degenerate to a binomial")
        gens.append(kept)
    return gens


def _degree_rows(gens: list[_Binomial], n_vars: int, d: int) -> Iterator[dict[tuple[int, ...], int]]:
    """The rows shift * g spanning the degree-d part of the ideal, d >= 2."""
    for shift in combinations_with_replacement(range(n_vars), d - 2):
        for (a, ca), (b, cb) in gens:
            yield {tuple(sorted(a + shift)): ca, tuple(sorted(b + shift)): cb}


def initial_ideal_hilbert_check(
    t: LabeledTree, d_max: int, *, max_monomials: int = 100_000
) -> HilbertReport:
    """Check that the initial ideal of t cuts out the expected dimensions.

    The generators are the initial forms of the three-term relations of
    all quadruples, taken with respect to the dissimilarity vector of
    the internal-edge indicator weighting.  Each is a binomial with
    coefficients +-1, so for each degree d up to d_max the products of
    the generators with degree-(d-2) monomials form the incidence matrix
    of a signed graph on the degree-d monomials, and the dimension of
    their span is the number of monomials minus the number of balanced
    components (`signed_incidence_rank`).  The codimension of the span
    inside the full degree-d monomial space is compared with the number
    of semigroup weightings of Pluecker degree d.

    A degree with more than max_monomials monomials is refused.  Time and
    memory grow about linearly in the count (caterpillars, Python 3.11):
    82,251 monomials (n=9, d=4) take 0.26 s and peak at 10.6 MB under
    tracemalloc, 116,280 (n=6, d=7) 0.81 s and 22.4 MB.
    """
    if not t.is_trivalent:
        raise ValueError("initial ideal check requires a trivalent tree")
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    n = t.n
    n_vars = n * (n - 1) // 2
    gens = _toric_generators(t)
    checks = []
    for d in range(1, d_max + 1):
        count = comb(n_vars + d - 1, d)
        if count > max_monomials:
            raise ValueError(
                f"degree {d} has {count} monomials for n={n}, "
                f"above the limit of {max_monomials}"
            )
        rank = signed_incidence_rank(_degree_rows(gens, n_vars, d)) if d >= 2 else 0
        checks.append(
            DegreeCheck(
                d=d,
                monomials=count,
                ideal_dim=rank,
                quotient=count - rank,
                semigroup_count=graded_count(t, plucker_degree=d),
            )
        )
    return HilbertReport(tree=t, degrees=tuple(checks))
