"""Initial forms of Pluecker polynomials and the toric degeneration of a tree.

Weighting the ambient polynomial ring by a point of the tropical
Grassmannian selects, from each polynomial, the sub-sum of terms of
maximal weight.  For the dissimilarity vector of the weighting that is 1
on internal edges and 0 on leaf edges, the three-term relations
degenerate to binomials, and the ideal they span cuts out a toric
variety whose coordinate ring is graded by Pluecker degree.  The
dimension check below confirms, degree by degree, that this quotient
matches the count of semigroup weightings of the tree.

A sign caveat: the two surviving terms of a three-term relation carry
opposite signs exactly when the quartet's split in the tree avoids the
middle pairing {ik, jl} (labels sorted i < j < k < l).  For trees that
are planar in the natural circular order this holds for every quartet,
and each degenerated binomial lies in the kernel of the sign-less
monomial map.  For the remaining quartets the binomial is a sum of two
monomials with the same image and lands in the kernel only after
flipping the sign of one variable per inverted pair of the planar leaf
order.  Sign flips are coordinate changes, so the graded dimension
comparison is unaffected either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Mapping

from .linalg import exact_rank
from .plucker import (
    Pair,
    PlueckerMonomial,
    PlueckerPolynomial,
    three_term_relation,
)
from .semigroup import graded_count
from .trees import EdgeId, LabeledTree
from .tropical import DissimilarityVector, EdgeWeighting, dissimilarity
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


def _degree_basis(n: int, d: int) -> list[PlueckerMonomial]:
    """All degree-d monomials in the variables p[i,j], 1 <= i < j <= n."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    basis = []
    for combo in combinations(range(len(pairs) + d - 1), d):
        exps: dict[Pair, int] = {}
        for k, c in enumerate(combo):
            idx = c - k
            exps[pairs[idx]] = exps.get(pairs[idx], 0) + 1
        basis.append(PlueckerMonomial.of(exps))
    return basis


def initial_ideal_hilbert_check(
    t: LabeledTree, d_max: int, *, max_monomials: int = 1500
) -> HilbertReport:
    """Check that the initial ideal of t cuts out the expected dimensions.

    The generators are the initial forms of the three-term relations of
    all quadruples, taken with respect to the dissimilarity vector of
    the internal-edge indicator weighting.  For each degree d up to
    d_max, the span of the generators times degree-(d-2) monomials is
    row-reduced exactly, and the codimension of the span inside the full
    degree-d monomial space is compared with the number of semigroup
    weightings of Pluecker degree d.
    """
    if not t.is_trivalent:
        raise ValueError("initial ideal check requires a trivalent tree")
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    n = t.n
    n_vars = n * (n - 1) // 2
    dvec = dissimilarity(internal_indicator(t))
    gens: list[PlueckerPolynomial] = []
    for quad in combinations(range(1, n + 1), 4):
        g = initial_form(three_term_relation(*quad), dvec)
        if len(g.terms) != 2:
            raise RuntimeError(f"quartet {quad} did not degenerate to a binomial")
        gens.append(g)
    checks = []
    for d in range(1, d_max + 1):
        count = comb(n_vars + d - 1, d)
        if count > max_monomials:
            raise ValueError(
                f"degree {d} has {count} monomials for n={n}, "
                f"above the limit of {max_monomials}"
            )
        basis = _degree_basis(n, d)
        index = {m: k for k, m in enumerate(basis)}
        rows: list[dict[int, int]] = []
        if d >= 2:
            for g in gens:
                for shift in _degree_basis(n, d - 2):
                    row: dict[int, int] = {}
                    for m, c in g.terms:
                        k = index[m * shift]
                        row[k] = row.get(k, 0) + int(c)
                    rows.append(row)
        rank = exact_rank(rows)
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
