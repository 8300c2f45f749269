"""Weight valuations and maximal-rank valuations attached to a tree.

Every edge weighting r induces a weight val_r on Pluecker polynomials:
expand f over the crossing-free monomials of the tree's planar leaf
order, then take the maximum of <d(r), alpha> over the surviving
exponent vectors alpha.  Refining the single weight to the full vector
of per-edge path counts, compared along a chosen edge order, gives the
rank 2n-3 valuation of the tree; its values land in the edge-weight
semigroup, one vector per polynomial.

Values here follow the positive max convention: larger weight means
higher order of vanishing along the boundary divisors.  Expanding in the
planar frame of the tree first is what makes both maps multiplicative;
taking the maximum over an arbitrary presentation of f would only give
an upper bound.

Most of the time the expansion is not needed.  Orient every chord by the
planar order, q_ab = p_ab when a comes before b there and -p_ab
otherwise.  For a trivalent tree the initial ideal of the Pluecker ideal
under the rank valuation is then the toric ideal of the monomial map
q_ab -> (edge counts of the path a-b) (Speyer-Sturmfels, arXiv
math/0304218; Kaveh-Manon, arXiv 1610.00298).  So group f's own
monomials into fibers, one per edge-count vector, and sum their
coefficients, each times the sign (-1)^(number of odd-exponent factors
p_ij with j before i in the planar order).  When the largest fiber
along the edge order has a nonzero sum, its vector is the rank
valuation; when some fiber of largest weight does, that weight is
val_r, provided r is in the open cone of the tree (trivalent, every
internal weight positive).  Only when those sums cancel -- every f in
the Pluecker ideal does so -- or r lies on the cone's boundary, or the
tree is not trivalent, is f straightened.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import Sequence

from .plucker import PlueckerMonomial, PlueckerPolynomial, _in_normal_form, straighten
from .semigroup import SigmaWeight
from .trees import EdgeId, LabeledTree
from .tropical import (
    DissimilarityVector,
    EdgeWeighting,
    NotTropicalError,
    _pair_position,
    leaf_pairs,
    reconstruct_tree,
)


@dataclass(frozen=True)
class ValueVector:
    """Integer vector indexed by the edges of a tree, read in a fixed order."""

    tree: LabeledTree
    order: tuple[EdgeId, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        order, values = tuple(self.order), tuple(self.values)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "values", values)
        self.tree._order_positions(order)
        if len(values) != len(order):
            raise ValueError(f"expected {len(order)} entries, got {len(values)}")

    @property
    def v(self) -> dict[EdgeId, int]:
        return dict(zip(self.order, self.values))

    def value(self, eid: EdgeId) -> int:
        return self.values[_slot(self.tree, self.order, eid)]

    def __add__(self, other: "ValueVector") -> "ValueVector":
        if self.tree != other.tree or self.order != other.order:
            raise ValueError("can only add value vectors on the same tree and order")
        return _in_normal_form(
            ValueVector,
            tree=self.tree,
            order=self.order,
            values=tuple(a + b for a, b in zip(self.values, other.values)),
        )

    def as_weight(self) -> SigmaWeight:
        return SigmaWeight.of(self.tree, dict(zip(self.order, self.values)))


@dataclass(frozen=True)
class ValuationMatrix:
    """0/1 matrix: rows are edges in a fixed order, columns leaf pairs."""

    tree: LabeledTree
    order: tuple[EdgeId, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return leaf_pairs(self.tree.n)

    def entry(self, eid: EdgeId, i: int, j: int) -> int:
        r = _slot(self.tree, self.order, eid)
        return self.column(i, j)[r]

    def column(self, i: int, j: int) -> tuple[int, ...]:
        c = _pair_position(self.tree.n, i, j)
        return tuple(row[c] for row in self.rows)

    def to_tsv(self) -> str:
        header = "edge\t" + "\t".join(f"p[{i},{j}]" for i, j in self.pairs)
        lines = [header]
        for eid, row in zip(self.order, self.rows):
            lines.append(eid + "\t" + "\t".join(str(x) for x in row))
        return "\n".join(lines) + "\n"


def _slot(t: LabeledTree, order: Sequence[EdgeId], eid: EdgeId) -> int:
    """The position of an edge id in an edge order of t."""
    t._position(eid)  # refuses an id that is not an edge of t
    return order.index(eid)


def _check_labels(t: LabeledTree, f: PlueckerPolynomial) -> None:
    if f.max_label() > t.n:
        raise ValueError(
            f"polynomial uses leaf label {f.max_label()} but the tree has n={t.n}"
        )


def _planar_edge_vectors(t: LabeledTree, f: PlueckerPolynomial) -> list[list[int]]:
    """Edge count vectors of the monomials of f's expansion in the tree's planar frame.

    Shared by both valuations when f's own monomials do not decide the
    value (see the module docstring): the weight is a dot product with
    these vectors, the rank valuation their largest reordering.
    """
    _check_labels(t, f)
    g = straighten(f, order=t.planar_leaf_order)
    if g.is_zero:
        raise ValueError("the polynomial vanishes modulo the Pluecker ideal and has no value")
    return [t._edge_counts(m.exps) for m, _ in g.terms]


def _signed_fibers(t: LabeledTree, f: PlueckerPolynomial) -> dict[tuple[int, ...], Fraction]:
    """f's own monomials grouped by edge count vector, with signed coefficient sums.

    A monomial's sign is -1 to the number of its odd-exponent factors
    p_ij (i < j) whose leaf j comes before leaf i in the planar order;
    it turns f into a polynomial in the oriented chords q_ab.  A fiber
    of one monomial keeps that monomial's coefficient, so only fibers
    that meet add.
    """
    n, span, path, size = t.n, t._span, t._path, len(t.edge_ids)
    fibers: dict[tuple[int, ...], Fraction] = {}
    for m, c in f.terms:
        counts = [0] * size
        flip = False
        for (i, j), e in m.exps:
            if j > n:
                _check_labels(t, f)  # raises: f uses a label past n
            for k in path(i, j):
                counts[k] += e
            if e & 1 and span[i][0] > span[j][0]:
                flip = not flip
        vec = tuple(counts)
        if flip:
            c = -c
        fibers[vec] = fibers[vec] + c if vec in fibers else c
    return fibers


def monomial_weight(t: LabeledTree, m: PlueckerMonomial) -> SigmaWeight:
    """The edge weight sum alpha_ij * omega(i, j) of a monomial."""
    return SigmaWeight(t, tuple(t._edge_counts(m.exps)))


def tropical_weight(r: EdgeWeighting, f: PlueckerPolynomial) -> Fraction:
    """Weight of f under the edge weighting r (a rank-1 valuation value).

    The weights are scaled to integers over the lcm of their
    denominators, so each monomial scores an integer dot product.  On a
    trivalent tree with every internal weight positive, the weight is
    the top score among f's own monomials as soon as one fiber of top
    score has a nonzero signed sum (see the module docstring).  When
    every such fiber cancels, when an internal weight is 0, or when the
    tree is not trivalent, the score is taken over f's planar expansion.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no weight")
    t = r.tree
    den, scaled = r._integer_weights
    if t.is_trivalent and all(w > 0 for w in scaled[t.n :]):
        fibers = _signed_fibers(t, f)
        scores = {vec: sum(map(mul, scaled, vec)) for vec in fibers}
        best = max(scores.values())
        if any(fibers[vec] for vec, score in scores.items() if score == best):
            return Fraction(best, den)
    best = max(sum(map(mul, scaled, vec)) for vec in _planar_edge_vectors(t, f))
    return Fraction(best, den)


def rank_valuation(t: LabeledTree, o: Sequence[EdgeId], f: PlueckerPolynomial) -> ValueVector:
    """Extremal edge-weight vector of f's planar expansion, read along o.

    This is the largest edge count vector along o among f's own
    monomials whenever that fiber's signed coefficient sum is nonzero
    (see the module docstring); only when it cancels is f straightened.
    """
    if not t.is_trivalent:
        raise ValueError("rank valuations are defined for trivalent trees")
    order = tuple(o)
    read = itemgetter(*t._order_positions(order))
    if f.is_zero:
        raise ValueError("the zero polynomial has no valuation")
    fibers = _signed_fibers(t, f)
    top = max(fibers, key=read)
    if not fibers[top]:
        top = max(_planar_edge_vectors(t, f), key=read)
    return _in_normal_form(ValueVector, tree=t, order=order, values=read(top))


def valuation_matrix(t: LabeledTree, o: Sequence[EdgeId]) -> ValuationMatrix:
    """Row e, column {i,j} holds 1 exactly when e lies on the path i to j."""
    if not t.is_trivalent:
        raise ValueError("valuation matrices are defined for trivalent trees")
    order = tuple(o)
    positions = t._order_positions(order)
    paths = [t._path(i, j) for i, j in leaf_pairs(t.n)]
    rows = tuple(tuple(1 if k in path else 0 for path in paths) for k in positions)
    return ValuationMatrix(t, order, rows)


def quasi_valuation_weight(w: DissimilarityVector, f: PlueckerPolynomial) -> Fraction:
    """Weight of f at a tropical point, via its tree realization.

    Only points satisfying the four-point condition are supported; the
    weight is computed on the reconstructed tree, where it is an honest
    valuation rather than a quasi-valuation.
    """
    try:
        _, r = reconstruct_tree(w)
    except NotTropicalError as exc:
        raise ValueError(
            f"weight vector is not a tropical point ({exc.witness.describe()}); "
            "weights outside the tropical variety are not supported"
        ) from None
    return tropical_weight(r, f)
