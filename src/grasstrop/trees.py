"""Leaf-labeled trees with unlabeled internal vertices.

Leaves carry the labels 1..n and every internal vertex has degree at least
three.  A tree is stored as its canonical preorder: the walk from leaf 1
that descends at each vertex into the subtree containing the smallest
leaf first, with the internal vertices numbered n+1, n+2, ... as the walk
meets them.  Two trees with the same splits therefore have the same
preorder and the same sorted `edges`, and compare equal as plain values.

A `LabeledTree` keeps `n`, `edges` and the preorder: `_pre`, the labels in
walk order, and `_up`, each position's parent position (-1 for leaf 1).
The validating constructor takes the preorder from its one walk over the
raw edges, `enumerate_trivalent` grows it (see `_grow`), and leaf
insertion hands over its tree already rooted (see `_canonical_form`).
Every other table is read off these two arrays, with no second walk:
parent and ordered children, spans and `planar_leaf_order`, the bottom-up
order (the preorder reversed), child vertex and parent edge of each edge,
stars and `_shape`.

Inside the library an edge is addressed either by its position in
`edge_ids` or by its child vertex, the endpoint away from leaf 1 (for the
edge at leaf 1, the vertex next to it).  The walk meets the leaves in
`planar_leaf_order`, and the leaves below any vertex form one contiguous
slice of that order, so each split is kept as a pair of positions
(lo, hi) instead of a set of leaves.

Edges are named by stable string ids: the edge at leaf i is "l{i}",
and an internal edge is named by the leaves on its side away from leaf 1,
e.g. "e3-4" for the split {1,2}|{3,4}.  Naming internal edges by a pair of
representative leaves is not enough: on the six-leaf tree whose three
cherries hang off one central vertex path, the splits {1,2}|{3,4,5,6} and
{3,4}|{1,2,5,6} would both reduce to the representatives (1, 3).

Edge ids, edge orders and leaf/internal status are resolved only here:
other modules ask `LabeledTree` for the position of an id or of each id
of an edge order, and an edge is internal exactly when its position is n
or more.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, count
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

EdgeId = str


def double_factorial(k: int) -> int:
    """Product k * (k-2) * (k-4) * ... down to 1 or 2; equals 1 for k <= 0."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _build_adjacency(n: int, edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    if n < 3:
        raise ValueError(f"need at least 3 leaves, got {n}")
    adj: dict[int, list[int]] = {}
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for i in range(1, n + 1):
        if i not in adj:
            raise ValueError(f"leaf {i} missing from edge list")
        if len(adj[i]) != 1:
            raise ValueError(f"leaf {i} must have degree 1, got {len(adj[i])}")
    for v, nbrs in adj.items():
        if v > n and len(nbrs) < 3:
            raise ValueError(f"internal vertex {v} has degree {len(nbrs)} < 3")
        if v < 1:
            raise ValueError(f"vertex labels must be positive, got {v}")
    if len(seen) != len(adj) - 1:
        raise ValueError("edge count does not match a tree")
    return adj


def _root_at_leaf_1(adj: Mapping[int, Iterable[int]]) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Each vertex's parent (0 for leaf 1) and children in the graph rooted
    at leaf 1.  The walk also checks that the graph is connected, which
    with one edge fewer than vertices makes it a tree."""
    parent = {1: 0}
    children: dict[int, list[int]] = {}
    order = [1]
    for v in order:
        kids = children[v] = [w for w in adj[v] if w not in parent]
        parent.update(dict.fromkeys(kids, v))
        order += kids
    if len(order) != len(adj):
        raise ValueError("graph is not connected")
    return parent, children


def _canonical_form(
    n: int, parent: Mapping[int, int] | Sequence[int], children: Mapping[int, list[int]] | Sequence[list[int]]
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...], dict[int, int]]:
    """(sorted canonical edges, canonical preorder, parent positions,
    old->new label map) of a tree rooted at leaf 1, given by each vertex's
    parent (0 for leaf 1) and children, which it does not validate.

    The walk descends into the children of a vertex in order of the
    smallest leaf below them, so it meets the leaves in planar order.
    Leaf insertion hands its rooted tree straight to this step.
    """
    minleaf = {0: 0}
    for leaf in range(1, n + 1):  # the first leaf to reach a vertex is the smallest below it
        v = leaf
        while v not in minleaf:
            minleaf[v] = leaf
            v = parent[v]
    order: list[int] = []
    up: list[int] = []
    stack = [(1, -1)]
    while stack:
        v, p = stack.pop()
        stack.extend((w, len(order)) for w in sorted(children[v], key=minleaf.__getitem__, reverse=True))
        order.append(v)
        up.append(p)
    old2new = {i: i for i in range(1, n + 1)}
    internal = (v for v in order if v > n)
    old2new.update((v, new) for new, v in enumerate(internal, start=n + 1))
    pre = tuple(map(old2new.__getitem__, order))
    edges = sorted((pre[p], v) if pre[p] < v else (v, pre[p]) for p, v in zip(up[1:], pre[1:]))
    return tuple(edges), pre, tuple(up), old2new


@dataclass(frozen=True)
class LabeledTree:
    """Tree with leaves 1..n, stored as its canonical preorder (see module docstring)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        rooted = _root_at_leaf_1(_build_adjacency(self.n, self.edges))
        edges, pre, up, _ = _canonical_form(self.n, *rooted)
        self.__dict__.update(edges=edges, _pre=pre, _up=up)

    @classmethod
    def _relabeled(
        cls, n: int, edges: Iterable[tuple[int, int]]
    ) -> tuple[LabeledTree, dict[int, int]]:
        """The tree on these edges, canonicalized once, and the map from the
        given vertex labels to the canonical ones."""
        edges, pre, up, old2new = _canonical_form(n, *_root_at_leaf_1(_build_adjacency(n, edges)))
        return cls._from_canonical(n, edges, pre, up), old2new

    @classmethod
    def _from_canonical(
        cls, n: int, edges: tuple[tuple[int, int], ...], pre: tuple[int, ...], up: tuple[int, ...]
    ) -> LabeledTree:
        """The tree with this canonical preorder and its sorted edges, built
        without the validating walk of __post_init__."""
        t = cls.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "edges", edges)
        object.__setattr__(t, "_pre", pre)
        object.__setattr__(t, "_up", up)
        return t

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        parent, children = self._parent, self._children
        return {v: tuple(sorted(children[v] + [parent[v]] if v != 1 else children[v])) for v in self._pre}

    @property
    def leaves(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def internal_vertices(self) -> tuple[int, ...]:
        return tuple(range(self.n + 1, len(self._pre) + 1))

    @cached_property
    def is_trivalent(self) -> bool:
        # internal vertices have degree at least 3, so a tree has at most
        # 2n-3 edges, and exactly that many when every degree is 3
        return len(self.edges) == 2 * self.n - 3

    # Per-vertex tables are lists indexed by vertex label; index 0 is unused.

    @cached_property
    def _parent(self) -> list[int]:
        """Per vertex: its parent's label, 0 for leaf 1."""
        pre = self._pre
        parent = [0] * (len(pre) + 1)
        for v, p in zip(pre[1:], self._up[1:]):
            parent[v] = pre[p]
        return parent

    @cached_property
    def _children(self) -> list[list[int]]:
        """Per vertex: its children, the one with the smallest leaf below first."""
        pre = self._pre
        children: list[list[int]] = [[] for _ in range(len(pre) + 1)]
        for v, p in zip(pre[1:], self._up[1:]):
            children[pre[p]].append(v)
        return children

    @cached_property
    def _span(self) -> list[tuple[int, int]]:
        """Per vertex: (lo, hi), the positions in planar_leaf_order of the
        leaves below it.  Leaf 1 spans all of them."""
        pre, up, n = self._pre, self._up, self.n
        # lo[p] counts the leaves before position p, hi[p] those up to it
        lo = list(accumulate((v <= n for v in pre), initial=0))
        hi = lo[1:]
        # a subtree ends with the last leaf of its last child
        for p in range(len(pre) - 1, 0, -1):
            if hi[up[p]] < hi[p]:
                hi[up[p]] = hi[p]
        span = [(0, 0)] * (len(pre) + 1)
        for v, a, b in zip(pre, lo, hi):
            span[v] = (a, b)
        return span

    @cached_property
    def _shape(self) -> bytes:
        """Canonical code of the trivalent tree rooted at leaf 1, with the
        other leaves unlabeled: two trees get the same code exactly when a
        relabeling of leaves 2..n carries one onto the other.

        Names are given by height, AHU style: every leaf but leaf 1 is 0,
        and each internal vertex gets the sorted pair of its children's
        names.  Height by height, the distinct pairs are ranked and named
        after all names used below, so the k-th pair of the code is the
        vertex type named k+1, and the last one is the root's.  The code
        lists the pairs in that order as unsigned ints; it holds each type
        once and never nests, so a deep tree needs no recursion.
        """
        if not self.is_trivalent:
            raise ValueError("tree shapes are defined for trivalent trees")
        pre, up, n = self._pre, self._up, self.n
        # per position: an internal vertex's first child comes next, `second` holds the other
        second = [0] * len(pre)
        for p in range(2, len(pre)):
            if up[p] != p - 1:
                second[up[p]] = p
        # leaves stay 0 in `height` and `names`
        height = [0] * len(pre)
        levels: list[list[int]] = []
        for q in range(len(pre) - 1, 0, -1):  # each position after all positions below it
            if pre[q] > n:
                h = height[q] = max(height[q + 1], height[second[q]]) + 1
                if h > len(levels):
                    levels.append([])
                levels[h - 1].append(q)
        names = [0] * len(pre)
        code = array("I")
        for level in levels:
            pairs = []
            for q in level:
                a, b = names[q + 1], names[second[q]]
                pairs.append((a, b) if a <= b else (b, a))
            ranked = {pair: len(code) // 2 + k for k, pair in enumerate(sorted(set(pairs)), 1)}
            for q, pair in zip(level, pairs):
                names[q] = ranked[pair]
            for pair in ranked:
                code.extend(pair)
        return code.tobytes()

    @cached_property
    def _edge_child(self) -> tuple[int, ...]:
        """Per edge, in edge_ids order: its child vertex."""
        pre = self._pre
        internal = [pre[p] for _, p in _by_leaf_one_side(self.n, pre, self._up, _LeafTuples())]
        return (pre[1], *range(2, self.n + 1), *internal)

    @cached_property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        """All edge ids: leaf edges l1..ln, then internal edges in a fixed order.

        Internal edges sort by their side containing leaf 1, lexicographically.
        """
        span = self._span
        planar = self.planar_leaf_order
        internal = [
            "e" + "-".join(map(str, sorted(planar[slice(*span[v])])))
            for v in self._edge_child[self.n :]
        ]
        return tuple([f"l{i}" for i in self.leaves] + internal)

    @cached_property
    def _edge_index(self) -> dict[EdgeId, int]:
        """Position of each edge id in edge_ids."""
        return {eid: k for k, eid in enumerate(self.edge_ids)}

    @cached_property
    def _parent_edge(self) -> list[int]:
        """Per vertex: the edge_ids index of the edge to its parent, -1 for leaf 1."""
        up = [-1] * (len(self._pre) + 1)
        for k, v in enumerate(self._edge_child):
            up[v] = k
        return up

    @cached_property
    def _leaf_paths(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Leaf pair (i, j), i < j -> edge_ids indices on its path; see _path."""
        return {}

    def _path(self, i: int, j: int) -> tuple[int, ...]:
        """The edge_ids indices on the path between leaves i < j, kept per tree.

        Pairs enter the table as they are first asked for, so a caller
        that needs a few paths of a large tree does not pay for all of them.
        """
        path = self._leaf_paths.get((i, j))
        if path is None:
            if not 1 <= i < j <= self.n:
                raise ValueError(f"need leaves 1 <= i < j <= {self.n}, got ({i}, {j})")
            parent, span, up = self._parent, self._span, self._parent_edge
            out: list[int] = []
            for a, b in ((i, j), (j, i)):
                lo, hi = span[b]
                # climb until a's span holds b's: then a lies above b or is b
                while not (span[a][0] <= lo and hi <= span[a][1]):
                    out.append(up[a])
                    a = parent[a]
            path = self._leaf_paths[(i, j)] = tuple(out)
        return path

    def _edge_counts(self, pairs: Iterable[tuple[tuple[int, int], int]]) -> list[int]:
        """Per edge, in edge_ids order: the multiplicities of the leaf pairs i < j
        whose path uses it."""
        counts = [0] * len(self.edge_ids)
        for (i, j), mult in pairs:
            for k in self._path(i, j):
                counts[k] += mult
        return counts

    @cached_property
    def _stars(self) -> tuple[tuple[int, ...], ...]:
        """Per internal vertex, in internal_vertices order: the edge_ids indices
        of its incident edges, in order of the neighbour's label."""
        parent, children, up = self._parent, self._children, self._parent_edge
        return tuple(
            tuple(up[v] if w == parent[v] else up[w] for w in sorted([parent[v], *children[v]]))
            for v in self.internal_vertices
        )

    @cached_property
    def internal_edge_ids(self) -> tuple[EdgeId, ...]:
        return self.edge_ids[self.n :]

    def edge_id_of(self, u: int, v: int) -> EdgeId:
        parent = self._parent
        for child, other in ((u, v), (v, u)):
            if 1 < child < len(parent) and parent[child] == other:
                return self.edge_ids[self._parent_edge[child]]
        raise ValueError(f"({u}, {v}) is not an edge of this tree")

    def _position(self, eid: EdgeId) -> int:
        """The index of an edge id in edge_ids; leaf edges are those below n."""
        try:
            return self._edge_index[eid]
        except KeyError:
            raise ValueError(f"unknown edge id {eid!r}") from None

    def _full_values(self, partial: Mapping[EdgeId, object]) -> list:
        """A map from some edge ids to values, as a list in edge_ids order with 0
        for every edge it leaves out."""
        out: list = [0] * len(self.edge_ids)
        for eid, v in partial.items():
            out[self._position(eid)] = v
        return out

    def _order_positions(self, order: Iterable[EdgeId]) -> tuple[int, ...]:
        """The index in edge_ids of each id of an edge order, which must list
        every edge exactly once."""
        index = self._edge_index
        positions = tuple(index.get(eid, -1) for eid in order)
        if sorted(positions) != list(range(len(index))):
            raise ValueError("edge order must be a permutation of the tree's edge ids")
        return positions

    def _leaf_pair(self, i: int, j: int) -> tuple[int, int]:
        """Two distinct leaves, smaller first."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"leaves must lie in 1..{self.n}, got ({i}, {j})")
        if i == j:
            raise ValueError("leaf path needs two distinct leaves")
        return (i, j) if i < j else (j, i)

    def endpoints(self, eid: EdgeId) -> tuple[int, int]:
        v = self._edge_child[self._position(eid)]
        u = self._parent[v]
        return (u, v) if u < v else (v, u)

    def split(self, eid: EdgeId) -> tuple[frozenset[int], frozenset[int]]:
        """Leaf bipartition induced by removing the edge; side with leaf 1 first."""
        lo, hi = self._span[self._edge_child[self._position(eid)]]
        planar = self.planar_leaf_order
        return frozenset(planar[:lo] + planar[hi:]), frozenset(planar[lo:hi])

    @cached_property
    def internal_splits(self) -> frozenset[frozenset[int]]:
        """Sides-away-from-leaf-1 of the internal edges; determines the tree."""
        span = self._span
        planar = self.planar_leaf_order
        return frozenset(
            frozenset(planar[slice(*span[v])]) for v in self._edge_child[self.n :]
        )

    @cached_property
    def planar_leaf_order(self) -> tuple[int, ...]:
        """Leaves in depth-first order from leaf 1 (smallest leaf below first).

        This is the circular order of a planar embedding of the tree; pairs of
        leaf paths that cross do so in any embedding, so it is the natural
        frame for crossing-free rewriting on this tree.
        """
        return tuple(v for v in self._pre if v <= self.n)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def leaf_path(t: LabeledTree, i: int, j: int) -> frozenset[EdgeId]:
    """Ids of the edges on the unique path between leaves i and j."""
    ids = t.edge_ids
    return frozenset(ids[k] for k in t._path(*t._leaf_pair(i, j)))


def tree_equal(a: LabeledTree, b: LabeledTree) -> bool:
    """Equality as leaf-labeled topological trees (split sets agree)."""
    if a.n != b.n:
        raise ValueError(f"trees on different leaf sets: n={a.n} vs n={b.n}")
    return a.internal_splits == b.internal_splits


class _LeafTuples(dict):
    """Bitmask with bit x set for each leaf x -> sorted tuple of those leaves.

    Filled as masks are first asked for, so it holds no more entries than
    the sets met.
    """

    def __missing__(self, mask: int) -> tuple[int, ...]:
        bits = bin(mask)[:1:-1]  # bit 0 first
        leaves = self[mask] = tuple([x for x, bit in enumerate(bits) if bit == "1"])
        return leaves


def _by_leaf_one_side(
    n: int, pre: tuple[int, ...], up: tuple[int, ...], sides: _LeafTuples
) -> list[tuple[tuple[int, ...], int]]:
    """(leaf-1 side, position) of each internal edge of a canonical preorder,
    sorted by side: the order in which edge_ids lists the internal edges.

    An internal edge runs above the internal vertex at a position past 1
    (the edge at leaf 1 runs to position 1), and its side is the sorted
    tuple of the leaves off the subtree below, read from `sides`.
    """
    below = [1 << x if x <= n else 0 for x in pre]
    for p in range(len(pre) - 1, 1, -1):
        below[up[p]] |= below[p]
    leaves = (1 << n + 1) - 2  # bits 1..n
    return sorted([(sides[leaves ^ below[p]], p) for p in range(2, len(pre)) if pre[p] > n])


@lru_cache(maxsize=1024)
def _insertions(up: tuple[int, ...]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(i, one past the end of i's subtree, the grown tree's up) per edge above
    a position i of a tree with these parent positions (see _grow).  They
    depend on up alone, so the trees of one plane shape share them."""
    size = len(up)
    end = list(range(1, size + 1))  # one past the last position of each subtree
    for x in range(size - 1, 1, -1):
        if end[up[x]] < end[x]:
            end[up[x]] = end[x]
    return tuple(
        (
            i,
            end[i],
            up[: i + 1]  # w takes v's parent
            + (i,)
            + tuple([p + 1 for p in up[i + 1 : end[i]]])
            + (i,)
            + tuple([p if p < i else p + 2 for p in up[end[i] :]]),
        )
        for i in range(1, size)
    )


def _grow(
    pre: tuple[int, ...], up: tuple[int, ...], k: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The trees grown from one tree by inserting leaf k into each of its edges.

    A tree is carried as its canonical preorder from leaf 1 (see the
    module docstring): pre holds each vertex's leaf label, or 0 for an
    internal vertex, and up holds the position of its parent (-1 for
    leaf 1).  Leaf k is larger than every leaf present, so inserting it
    into the edge above the vertex v at position i, by way of a new
    vertex w with children v and k, changes no vertex's smallest leaf
    below, and w takes v's.  The child's preorder is therefore the
    parent's with w placed just before v and k just after the end of v's
    subtree: positions from i on move by one, and those after the
    subtree by two.
    """
    for i, e, child_up in _insertions(up):
        yield pre[:i] + (0,) + pre[i:e] + (k,) + pre[e:], child_up


def _preorders(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(pre, up) of every trivalent tree on leaves 1..n, depth first; see _grow."""
    if n == 3:
        yield (1, 0, 2, 3), (-1, 0, 1, 1)
        return
    for pre, up in _preorders(n - 1):
        yield from _grow(pre, up, n)


def enumerate_trivalent(n: int) -> list[LabeledTree]:
    """All (2n-5)!! trivalent trees on leaves 1..n, in a fixed canonical order.

    Grown from the 3-leaf star by inserting leaf k = 4, ..., n into every
    edge of every tree on leaves 1..k-1; removing the highest leaf
    inverts the step, so each tree shows up exactly once.  Each child's
    canonical form is read off its parent's, never recomputed: inserting
    the highest leaf into the edge above a vertex v leaves every smallest
    leaf below in place, so the child's preorder from leaf 1 is the
    parent's with the new vertex just before v and the new leaf just
    after v's subtree (see _grow).

    The trees are sorted by the leaf-1 sides of their internal edges,
    listed in edge_ids order (see _by_leaf_one_side).
    """
    if n < 3:
        raise ValueError(f"need at least 3 leaves, got {n}")
    sides = _LeafTuples()
    # one shared tuple per edge (min, max) of labels
    pair = [[(a, b) if a < b else (b, a) for b in range(2 * n - 1)] for a in range(2 * n - 1)]
    keyed = []
    for pre, up in _preorders(n):
        label = count(n + 1).__next__
        lab = tuple([x or label() for x in pre])
        edges = tuple(sorted([pair[lab[p]][v] for p, v in zip(up[1:], lab[1:])]))
        key = [side for side, _ in _by_leaf_one_side(n, lab, up, sides)]
        keyed.append((key, LabeledTree._from_canonical(n, edges, lab, up)))
    keyed.sort(key=itemgetter(0))
    return [t for _, t in keyed]


def contract_edge(t: LabeledTree, eid: EdgeId) -> LabeledTree:
    """Merge the endpoints of an internal edge; leaf edges cannot contract."""
    if t._position(eid) < t.n:
        raise ValueError(f"cannot contract leaf edge {eid!r}")
    u, v = t.endpoints(eid)
    edges = []
    for a, b in t.edges:
        if (a, b) == (u, v):
            continue
        a2 = u if a == v else a
        b2 = u if b == v else b
        edges.append((a2, b2))
    return LabeledTree(t.n, tuple(edges))


# ---------------------------------------------------------------------------
# Serialization


def tree_to_json_dict(t: LabeledTree) -> dict:
    return {"n": t.n, "edges": [[u, v] for u, v in t.edges]}


def _leaf_index(text: str) -> int:
    """A leaf label spelled in ASCII digits only; `int` would also take signs,
    spaces, digit underscores and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"leaf labels must be integers, got {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """A rational spelled in ASCII; `Fraction` would also take non-ASCII digits.
    Text m.fEk = int(mf) * 10**k / 10**len(f) is refused before any power of
    ten is taken if a part could pass the limit on digits (`int` holds a/b to it)."""
    try:
        s = str(text)
        mantissa, _, exp = s.strip().lower().partition("e")
        whole, _, frac = mantissa.replace("_", "").lstrip("+-").partition(".")
        k, limit = int(exp or 0), sys.get_int_max_str_digits()
        digits = max(len((whole + frac).lstrip("0")) + max(k, 0), len(frac) - k + 1)
        if not s.isascii() or (limit and "/" not in mantissa and digits > limit):
            raise ValueError("not ASCII, or past the limit on digits")
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _json_integer(value: object, what: str) -> int:
    """A JSON integer as read by `json.loads`; floats and booleans are refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_object(text: str, shape: str) -> dict:
    """The JSON object in `text`.  Malformed JSON, JSON nested past the
    interpreter's recursion limit and any value but an object raise
    ValueError, the last with the message `shape`."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(shape)
    return obj


def tree_from_json_dict(obj: Mapping) -> LabeledTree:
    try:
        n = _json_integer(obj["n"], "'n'")
        edges = tuple(
            (_json_integer(u, "an edge end"), _json_integer(v, "an edge end")) for u, v in obj["edges"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed tree object: {exc}") from exc
    return LabeledTree(n, edges)


# The JSON text of one canonical edge.  Trees with up to 9 leaves have fewer
# than 128 distinct edges, so listing them all hits this on every edge.
@lru_cache(maxsize=4096)
def _json_edge(edge: tuple[int, int]) -> str:
    return "[%d,%d]" % edge


def tree_to_json(t: LabeledTree) -> str:
    """Compact JSON of tree_to_json_dict(t), joined directly from the edges."""
    return f'{{"n":{t.n},"edges":[' + ",".join(map(_json_edge, t.edges)) + "]}"


def tree_from_json(text: str) -> LabeledTree:
    return tree_from_json_dict(_json_object(text, "tree JSON must be an object with keys 'n' and 'edges'"))


def tree_to_newick(t: LabeledTree, weights: Mapping[EdgeId, Fraction] | None = None) -> str:
    """Newick string rooted at the internal vertex next to leaf 1.

    Read off the preorder: each later position closes the groups that
    end before it, then names a leaf or opens a group of its own.
    """
    pre, up, edge = t._pre, t._up, t._parent_edge

    def length(p: int) -> str:
        return "" if weights is None else ":" + str(weights[t.edge_ids[edge[pre[p]]]])

    # leaf 1 hangs off the root, at position 1, by the edge the root is the child of
    out = ["(1" + length(1)]
    groups = [1]  # positions whose ")" is still to come
    for p in range(2, len(pre)):
        while groups[-1] != up[p]:
            out.append(")" + length(groups.pop()))
        if out[-1] != "(":
            out.append(",")
        if pre[p] <= t.n:
            out.append(str(pre[p]) + length(p))
        else:
            out.append("(")
            groups.append(p)
    out += [")" + length(p) for p in reversed(groups[1:])]
    return "".join(out) + ");"


_NEWICK_TOKEN = re.compile(r"\(|\)|,|;|:[^,():;]+|[^,():;]+")


def tree_from_newick(text: str) -> tuple[LabeledTree, dict[EdgeId, Fraction] | None]:
    """Parse a Newick string; returns the tree and edge weights if lengths are given.

    Every branch length must be present or none at all.  A degree-2 root is
    smoothed away (its two branch lengths add up).
    """
    tokens = _NEWICK_TOKEN.findall(text.strip())
    if not tokens or tokens[-1] != ";":
        raise ValueError("Newick string must end with ';'")
    pos = 0

    # branch length per (parent, child) edge, in input order
    lengths: dict[tuple[int, int], Fraction | None] = {}
    next_internal = 10**6
    leaves_seen: set[int] = set()
    open_nodes: list[int] = []  # internal nodes whose ')' is still to come

    while True:
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            open_nodes.append(next_internal)
            next_internal += 1
            continue
        node = _leaf_index(tok)
        if node in leaves_seen:
            raise ValueError(f"leaf {node} appears twice")
        leaves_seen.add(node)
        # hang the finished node on its parent, closing every node that ends here
        while open_nodes:
            me = open_nodes[-1]
            length: Fraction | None = None
            if pos < len(tokens) and tokens[pos].startswith(":"):
                try:
                    length = parse_rational(tokens[pos][1:])
                except ValueError as exc:
                    raise ValueError(f"bad branch length {tokens[pos][1:]!r}") from exc
                pos += 1
            lengths[(me, node)] = length
            if pos < len(tokens) and tokens[pos] == ",":
                pos += 1
                break
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("unbalanced parentheses in Newick string")
            pos += 1
            node = open_nodes.pop()
        else:
            root = node
            break

    if pos >= len(tokens) or tokens[pos].startswith(":"):
        # a root length is meaningless for an unrooted tree; tolerate and drop
        pos += 1
    if pos >= len(tokens) or tokens[pos] != ";":
        raise ValueError("trailing input after Newick tree")
    if root <= len(leaves_seen):
        raise ValueError("Newick root must be an internal node")

    n = len(leaves_seen)
    if leaves_seen != set(range(1, n + 1)):
        raise ValueError(f"leaf labels must be exactly 1..{n}")

    given = [w for w in lengths.values() if w is not None]
    if given and len(given) != len(lengths):
        raise ValueError("either all branch lengths must be given or none")
    has_weights = bool(given)

    # smooth a degree-2 root; the root is never a child
    at_root = [v for u, v in lengths if u == root]
    if len(at_root) == 2:
        a, b = at_root
        wa, wb = lengths.pop((root, a)), lengths.pop((root, b))
        lengths[(a, b)] = (wa + wb) if has_weights else None

    t, old2new = LabeledTree._relabeled(n, lengths)
    if not has_weights:
        return t, None
    return t, {t.edge_id_of(old2new[u], old2new[v]): w for (u, v), w in lengths.items()}


def parse_edge_order(t: LabeledTree, text: str) -> tuple[EdgeId, ...]:
    """Parse a comma-separated edge order and check it permutes t's edges."""
    order = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    t._order_positions(order)
    return order
