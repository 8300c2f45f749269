"""Dissimilarity vectors, the four-point condition, and tree reconstruction.

A dissimilarity vector d assigns a rational to every pair of leaves.  It
is a tropical point when for every four leaves i<j<k<l the maximum of

    d_ij + d_kl,   d_ik + d_jl,   d_il + d_jk

is attained at least twice.  These are exactly the vectors realized by a
tree with nonnegative internal edge weights (leaf weights may be any
rational): d_ij is the total weight along the path from i to j.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .trees import (
    EdgeId,
    LabeledTree,
    _canonical_form,
    tree_from_json_dict,
    tree_to_json_dict,
)

Rational = Fraction


def leaf_pairs(n: int) -> list[tuple[int, int]]:
    """All pairs (i, j) with 1 <= i < j <= n in lexicographic order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


@dataclass(frozen=True)
class EdgeWeighting:
    """Rational weight per edge of a tree; internal weights must be >= 0."""

    tree: LabeledTree
    values: tuple[Fraction, ...]  # aligned with tree.edge_ids

    def __post_init__(self) -> None:
        if len(self.values) != len(self.tree.edge_ids):
            raise ValueError(
                f"expected {len(self.tree.edge_ids)} weights, got {len(self.values)}"
            )
        vals = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        for eid, v in zip(self.tree.edge_ids, vals):
            if eid.startswith("e") and v < 0:
                raise ValueError(f"internal edge {eid} has negative weight {v}")

    @classmethod
    def of(cls, tree: LabeledTree, weights: Mapping[EdgeId, object]) -> "EdgeWeighting":
        """Build from a (possibly partial) map; missing edges get weight 0."""
        known = set(tree.edge_ids)
        bad = set(weights) - known
        if bad:
            raise ValueError(f"unknown edge ids: {sorted(bad)}")
        vals = tuple(Fraction(str(weights.get(e, 0))) for e in tree.edge_ids)
        return cls(tree, vals)

    def weight(self, eid: EdgeId) -> Fraction:
        try:
            return self.values[self.tree._edge_index[eid]]
        except KeyError:
            raise ValueError(f"unknown edge id {eid!r}") from None

    def as_dict(self) -> dict[EdgeId, Fraction]:
        return dict(zip(self.tree.edge_ids, self.values))

    def to_json_dict(self) -> dict:
        return {
            "tree": tree_to_json_dict(self.tree),
            "weights": {e: str(v) for e, v in zip(self.tree.edge_ids, self.values)},
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "EdgeWeighting":
        if not isinstance(obj, dict):
            raise ValueError("weighting JSON must be an object with keys 'tree' and 'weights'")
        try:
            tree_obj, raw = obj["tree"], obj["weights"]
        except KeyError as exc:
            raise ValueError(f"weighting JSON needs key {exc}") from exc
        for key, value in (("tree", tree_obj), ("weights", raw)):
            if not isinstance(value, dict):
                raise ValueError(f"weighting JSON key {key!r} must hold an object")
        tree = tree_from_json_dict(tree_obj)
        return cls.of(tree, {str(k): parse_rational(v) for k, v in raw.items()})


@dataclass(frozen=True)
class DissimilarityVector:
    """One rational per leaf pair, stored in lexicographic pair order."""

    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 leaves, got n={self.n}")
        expect = self.n * (self.n - 1) // 2
        if len(self.values) != expect:
            raise ValueError(f"expected {expect} entries for n={self.n}, got {len(self.values)}")
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    @classmethod
    def of(cls, n: int, data: Mapping[tuple[int, int], object] | Iterable[object]) -> "DissimilarityVector":
        if isinstance(data, Mapping):
            norm: dict[tuple[int, int], Fraction] = {}
            for key, v in data.items():
                i, j = key
                if i == j:
                    raise ValueError(f"pair ({i}, {j}) has equal entries")
                norm[(min(i, j), max(i, j))] = Fraction(str(v))
            missing = [p for p in leaf_pairs(n) if p not in norm]
            if missing:
                raise ValueError(f"missing pairs: {missing}")
            return cls(n, tuple(norm[p] for p in leaf_pairs(n)))
        return cls(n, tuple(Fraction(str(v)) for v in data))

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        return {p: k for k, p in enumerate(leaf_pairs(self.n))}

    def value(self, i: int, j: int) -> Fraction:
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"({i}, {j}) is not a leaf pair for n={self.n}")
        return self.values[self._index[(min(i, j), max(i, j))]]

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(zip(leaf_pairs(self.n), self.values))

    def __add__(self, other: "DissimilarityVector") -> "DissimilarityVector":
        if not isinstance(other, DissimilarityVector):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"cannot add vectors with n={self.n} and n={other.n}")
        return DissimilarityVector(
            self.n, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def scaled(self, c) -> "DissimilarityVector":
        c = Fraction(c)
        return DissimilarityVector(self.n, tuple(c * v for v in self.values))

    def to_tsv(self) -> str:
        lines = ["i\tj\td_ij"]
        for (i, j), v in zip(leaf_pairs(self.n), self.values):
            lines.append(f"{i}\t{j}\t{v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_tsv(cls, text: str) -> "DissimilarityVector":
        entries: dict[tuple[int, int], Fraction] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if lineno == 1 and not parts[0].lstrip("-").isdigit():
                continue  # header
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'i j d_ij', got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad leaf index") from exc
            if i == j:
                raise ValueError(f"line {lineno}: leaf indices must differ")
            key = (min(i, j), max(i, j))
            if key in entries:
                raise ValueError(f"line {lineno}: duplicate pair {key}")
            entries[key] = parse_rational(parts[2])
        if not entries:
            raise ValueError("no entries found")
        n = max(j for _, j in entries)
        return cls.of(n, entries)

    def to_json(self) -> str:
        obj = {"n": self.n, "d": {f"{i},{j}": str(v) for (i, j), v in self.as_dict().items()}}
        return json.dumps(obj, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "DissimilarityVector":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "n" not in obj or "d" not in obj:
            raise ValueError("dissimilarity JSON must be an object with keys 'n' and 'd'")
        if not isinstance(obj["d"], dict):
            raise ValueError("dissimilarity JSON key 'd' must hold an object of 'i,j' entries")
        try:
            n = int(obj["n"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"dissimilarity JSON key 'n' must be an integer, got {obj['n']!r}") from exc
        entries: dict[tuple[int, int], Fraction] = {}
        for key, v in obj["d"].items():
            try:
                i_s, j_s = str(key).split(",")
                i, j = int(i_s), int(j_s)
            except ValueError as exc:
                raise ValueError(f"bad pair key {key!r}") from exc
            entries[(min(i, j), max(i, j))] = parse_rational(v)
        return cls.of(n, entries)


@dataclass(frozen=True)
class QuartetWitness:
    """The three pairing sums of one leaf quadruple and where the max sits.

    For quad (i, j, k, l) the sums come in the fixed order
    ij|kl, ik|jl, il|jk; `attained` lists the positions achieving the max.
    """

    quad: tuple[int, int, int, int]
    sums: tuple[Fraction, Fraction, Fraction]
    attained: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return len(self.attained) >= 2

    def pairings(self) -> tuple[str, str, str]:
        i, j, k, l = self.quad
        return (f"{i}{j}|{k}{l}", f"{i}{k}|{j}{l}", f"{i}{l}|{j}{k}")

    def describe(self) -> str:
        parts = [f"{p}:{s}" for p, s in zip(self.pairings(), self.sums)]
        tags = ",".join(self.pairings()[a] for a in self.attained)
        return f"quad {self.quad}: " + "  ".join(parts) + f"  max at {tags}"


def _quartet(d: DissimilarityVector, i: int, j: int, k: int, l: int) -> QuartetWitness:
    s0 = d.value(i, j) + d.value(k, l)
    s1 = d.value(i, k) + d.value(j, l)
    s2 = d.value(i, l) + d.value(j, k)
    top = max(s0, s1, s2)
    attained = tuple(p for p, s in enumerate((s0, s1, s2)) if s == top)
    return QuartetWitness((i, j, k, l), (s0, s1, s2), attained)


def is_tropical_point(d: DissimilarityVector) -> tuple[bool, tuple[QuartetWitness, ...]]:
    """Check the four-point condition on every quadruple.

    Returns (True, all witnesses) or (False, (first failing witness,)).
    """
    witnesses = []
    for i, j, k, l in itertools.combinations(range(1, d.n + 1), 4):
        w = _quartet(d, i, j, k, l)
        if not w.ok:
            return False, (w,)
        witnesses.append(w)
    return True, tuple(witnesses)


def dissimilarity(r: EdgeWeighting) -> DissimilarityVector:
    """Path-sum dissimilarity vector of an edge weighting."""
    t, w = r.tree, r.values
    # every path is read once, so walk it rather than fill the tree's path table
    vals = [sum(w[k] for k in t._walk_path(i, j)) for i, j in leaf_pairs(t.n)]
    return DissimilarityVector(t.n, tuple(vals))


# ---------------------------------------------------------------------------
# Reconstruction


def _separated(dist, labels: tuple[int, ...], i: int, j: int) -> bool:
    """Does some quadruple split i from j with a strict four-point minimum?"""
    others = [x for x in labels if x != i and x != j]
    for k, l in itertools.combinations(others, 2):
        s0 = dist(i, j) + dist(k, l)
        s1 = dist(i, k) + dist(j, l)
        s2 = dist(i, l) + dist(j, k)
        # a unique minimum at ik|jl or il|jk puts i and j on opposite
        # sides of the resolved quartet
        if (s1 < s0 and s1 < s2) or (s2 < s0 and s2 < s1):
            return True
    return False


class _Builder:
    """Accumulates vertices and edges while reconstruction recurses."""

    def __init__(self, n: int) -> None:
        self.fresh = itertools.count(n + 1)
        self.internal_edges: dict[frozenset[int], Fraction] = {}

    def new_vertex(self) -> int:
        return next(self.fresh)


def _solve_star(dist, labels: tuple[int, ...], b: _Builder) -> tuple[dict[int, int], dict[int, Fraction]]:
    i, j, k = labels[0], labels[1], labels[2]
    v = b.new_vertex()
    attach: dict[int, int] = {}
    leafw: dict[int, Fraction] = {}
    for x in labels:
        p, q = (i, j) if x not in (i, j) else ((j, k) if x == i else (i, k))
        leafw[x] = (dist(x, p) + dist(x, q) - dist(p, q)) / 2
        attach[x] = v
    for x, y in itertools.combinations(labels, 2):
        assert dist(x, y) == leafw[x] + leafw[y], "star realization is inconsistent"
    return attach, leafw


def _solve(dist, labels: tuple[int, ...], b: _Builder) -> tuple[dict[int, int], dict[int, Fraction]]:
    assert len(labels) >= 3, "reduced instance dropped below 3 labels"
    if len(labels) == 3:
        return _solve_star(dist, labels, b)

    # sibling classes: labels never split apart by a strict quartet
    parent = {x: x for x in labels}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in itertools.combinations(labels, 2):
        if find(i) != find(j) and not _separated(dist, labels, i, j):
            parent[find(i)] = find(j)
    classes: dict[int, list[int]] = {}
    for x in labels:
        classes.setdefault(find(x), []).append(x)
    groups = sorted((sorted(g) for g in classes.values()), key=lambda g: g[0])

    if len(groups) == 1:
        return _solve_star(dist, labels, b)

    big = [g for g in groups if len(g) >= 2]
    assert big, "no sibling class found on a non-star instance"
    cls = big[0]
    m = cls[0]
    others = [x for x in labels if x not in cls]
    assert len(others) >= 2, "reduction would leave fewer than 3 labels"

    # Gromov reduction: replace the class by its smallest member m, at the
    # distance of the class's attachment vertex.
    dm: dict[int, Fraction] = {}
    for x in others:
        proj = {(dist(i, x) + dist(j, x) - dist(i, j)) / 2
                for i, j in itertools.combinations(cls, 2)}
        assert len(proj) == 1, "inconsistent Gromov products within a sibling class"
        dm[x] = proj.pop()

    def sub_dist(x: int, y: int) -> Fraction:
        if x == m:
            return dm[y]
        if y == m:
            return dm[x]
        return dist(x, y)

    sub_labels = tuple(sorted(others + [m]))
    attach, leafw = _solve(sub_dist, sub_labels, b)

    w_m = leafw.pop(m)
    v_class = attach.pop(m)
    assert w_m >= 0, "class attachment computed a negative internal weight"
    if w_m > 0:
        v = b.new_vertex()
        b.internal_edges[frozenset((v, v_class))] = w_m
    else:
        v = v_class
    x0 = others[0]
    for leaf in cls:
        w_leaf = dist(leaf, x0) - dm[x0]
        for x in others[1:]:
            assert dist(leaf, x) - dm[x] == w_leaf, "inconsistent leaf weight"
        attach[leaf] = v
        leafw[leaf] = w_leaf
    return attach, leafw


def reconstruct_tree(d: DissimilarityVector) -> tuple[LabeledTree, EdgeWeighting]:
    """Recover the minimal tree and edge weighting realizing a tropical point.

    Internal edges of the result have strictly positive weight; boundary
    points therefore come back on partially contracted (non-trivalent)
    trees.  Raises ValueError with the violating quadruple if d fails the
    four-point condition.
    """
    if d.n < 3:
        raise ValueError(f"reconstruction needs at least 3 leaves, got n={d.n}")
    ok, witnesses = is_tropical_point(d)
    if not ok:
        w = witnesses[0]
        raise ValueError(
            f"not a tropical point: quadruple {w.quad} has a unique maximum ({w.describe()})"
        )
    b = _Builder(d.n)
    labels = tuple(range(1, d.n + 1))
    attach, leafw = _solve(d.value, labels, b)

    edges = [(leaf, v) for leaf, v in attach.items()]
    edges += [tuple(sorted(k)) for k in b.internal_edges]
    tree = LabeledTree(d.n, tuple(edges))

    # map raw vertex ids through canonicalization to name the edges
    _, old2new = _canonical_form(d.n, tuple(edges))
    weights: dict[EdgeId, Fraction] = {}
    for leaf, v in attach.items():
        weights[tree.edge_id_of(leaf, old2new[v])] = leafw[leaf]
    for key, w in b.internal_edges.items():
        u, v = key
        weights[tree.edge_id_of(old2new[u], old2new[v])] = w
    r = EdgeWeighting.of(tree, weights)
    if dissimilarity(r) != d:
        raise RuntimeError("reconstructed weighting does not reproduce the input")
    return tree, r


def cone_of(d: DissimilarityVector) -> LabeledTree:
    """The tree indexing the cone containing d (minimal realization)."""
    return reconstruct_tree(d)[0]
