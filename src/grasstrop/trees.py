"""Leaf-labeled trees with unlabeled internal vertices.

Leaves carry the labels 1..n and every internal vertex has degree at least
three.  A tree is stored in a canonical form: internal vertices are
renumbered n+1, n+2, ... in depth-first order from leaf 1, descending at
each vertex into the subtree containing the smallest leaf first.  Two
trees with the same splits therefore compare equal as plain values.

Edges are addressed by stable string ids: the edge at leaf i is "l{i}",
and an internal edge is named by the leaves on its side away from leaf 1,
e.g. "e3-4" for the split {1,2}|{3,4}.  Naming internal edges by a pair of
representative leaves is not enough: on the six-leaf tree whose three
cherries hang off one central vertex path, the splits {1,2}|{3,4,5,6} and
{3,4}|{1,2,5,6} would both reduce to the representatives (1, 3).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

EdgeId = str


def double_factorial(k: int) -> int:
    """Product k * (k-2) * (k-4) * ... down to 1 or 2; equals 1 for k <= 0."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _build_adjacency(n: int, edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    seen: set[frozenset[int]] = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = frozenset((u, v))
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
    # connectivity
    stack = [1]
    reached = {1}
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != len(adj):
        raise ValueError("graph is not connected")
    return adj


def _canonical_form(
    n: int, edges: Iterable[tuple[int, int]]
) -> tuple[tuple[tuple[int, int], ...], dict[int, int]]:
    """Renumber internal vertices canonically; return (sorted edges, old->new map)."""
    if n < 3:
        raise ValueError(f"need at least 3 leaves, got {n}")
    edges = tuple(edges)
    adj = _build_adjacency(n, edges)
    # Post-order pass rooted at leaf 1: smallest leaf in each subtree.
    minleaf: dict[int, int] = {}
    order: list[tuple[int, int]] = []  # (vertex, parent)
    stack = [(1, 0)]
    while stack:
        v, parent = stack.pop()
        order.append((v, parent))
        for w in adj[v]:
            if w != parent:
                stack.append((w, v))
    for v, parent in reversed(order):
        if 1 <= v <= n:
            minleaf[v] = v
        else:
            minleaf[v] = min(minleaf[w] for w in adj[v] if w != parent)
    # Preorder renumbering, children visited smallest subtree leaf first.
    old2new = {i: i for i in range(1, n + 1)}
    next_id = n + 1
    walk: list[tuple[int, int]] = [(adj[1][0], 1)]
    while walk:
        v, parent = walk.pop()
        if not (1 <= v <= n):
            old2new[v] = next_id
            next_id += 1
        children = sorted(
            (w for w in adj[v] if w != parent), key=lambda w: minleaf[w], reverse=True
        )
        walk.extend((w, v) for w in children)
    new_edges = sorted(tuple(sorted((old2new[u], old2new[v]))) for u, v in edges)
    return tuple(new_edges), old2new


@dataclass(frozen=True)
class LabeledTree:
    """Tree with leaves 1..n, stored canonically (see module docstring)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        canonical, _ = _canonical_form(self.n, self.edges)
        object.__setattr__(self, "edges", canonical)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    @property
    def leaves(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def internal_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for v in self.adjacency if v > self.n))

    @cached_property
    def is_trivalent(self) -> bool:
        return all(len(self.adjacency[v]) == 3 for v in self.internal_vertices)

    # Rooted view at leaf 1, children ordered by smallest leaf below.
    @cached_property
    def _rooted(self) -> tuple[dict[int, int], dict[int, tuple[int, ...]], dict[int, int]]:
        adj = self.adjacency
        parent: dict[int, int] = {1: 0}
        orderv: list[int] = []
        stack = [1]
        while stack:
            v = stack.pop()
            orderv.append(v)
            for w in adj[v]:
                if w != parent[v]:
                    parent[w] = v
                    stack.append(w)
        minleaf: dict[int, int] = {}
        for v in reversed(orderv):
            kids = [w for w in adj[v] if parent.get(w) == v]
            minleaf[v] = v if v <= self.n else min(minleaf[w] for w in kids)
        children = {
            v: tuple(sorted((w for w in adj[v] if parent.get(w) == v), key=minleaf.get))
            for v in orderv
        }
        return parent, children, minleaf

    @cached_property
    def _depth(self) -> dict[int, int]:
        parent, children, _ = self._rooted
        depth = {1: 0}
        stack = [1]
        while stack:
            v = stack.pop()
            for w in children[v]:
                depth[w] = depth[v] + 1
                stack.append(w)
        return depth

    @cached_property
    def _splits_below(self) -> dict[frozenset[int], frozenset[int]]:
        """Per edge {u,v}: the leaves strictly below it (away from leaf 1)."""
        parent, children, _ = self._rooted
        below: dict[int, set[int]] = {}
        orderv: list[int] = []
        stack = [1]
        while stack:
            v = stack.pop()
            orderv.append(v)
            stack.extend(children[v])
        for v in reversed(orderv):
            acc = {v} if v <= self.n else set()
            for w in children[v]:
                acc |= below[w]
            below[v] = acc
        out: dict[frozenset[int], frozenset[int]] = {}
        for u, v in self.edges:
            child = u if parent.get(u) == v else v
            out[frozenset((u, v))] = frozenset(below[child])
        # The edge at leaf 1 has leaf 1 above it; its below-side is everything else.
        e1 = frozenset((1, self.adjacency[1][0]))
        out[e1] = frozenset(range(2, self.n + 1))
        return out

    @cached_property
    def _edge_ids(self) -> tuple[dict[frozenset[int], EdgeId], dict[EdgeId, frozenset[int]]]:
        by_pair: dict[frozenset[int], EdgeId] = {}
        for u, v in self.edges:
            key = frozenset((u, v))
            leaf = u if u <= self.n else (v if v <= self.n else None)
            if leaf is not None:
                eid = f"l{leaf}"
            else:
                side = sorted(self._splits_below[key])
                eid = "e" + "-".join(str(x) for x in side)
            by_pair[key] = eid
        by_id = {eid: key for key, eid in by_pair.items()}
        return by_pair, by_id

    @cached_property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        """All edge ids: leaf edges l1..ln, then internal edges in a fixed order.

        Internal edges sort by their side containing leaf 1, lexicographically.
        """
        by_pair, _ = self._edge_ids
        allleaves = set(self.leaves)
        internal: list[tuple[tuple[int, ...], EdgeId]] = []
        for key, eid in by_pair.items():
            if eid.startswith("e"):
                side1 = tuple(sorted(allleaves - self._splits_below[key]))
                internal.append((side1, eid))
        internal.sort()
        return tuple([f"l{i}" for i in self.leaves] + [eid for _, eid in internal])

    @cached_property
    def _edge_index(self) -> dict[EdgeId, int]:
        """Position of each edge id in edge_ids."""
        return {eid: k for k, eid in enumerate(self.edge_ids)}

    @cached_property
    def _parent_edge(self) -> dict[int, int]:
        """Per vertex other than leaf 1: the edge_ids index of the edge to its parent."""
        parent, _, _ = self._rooted
        by_pair, _ = self._edge_ids
        index = self._edge_index
        return {v: index[by_pair[frozenset((v, u))]] for v, u in parent.items() if v != 1}

    def _walk_path(self, i: int, j: int) -> list[int]:
        """The edge_ids indices on the path between vertices i and j."""
        parent, _, _ = self._rooted
        depth = self._depth
        up = self._parent_edge
        a, b = i, j
        out: list[int] = []
        while depth[a] > depth[b]:
            out.append(up[a])
            a = parent[a]
        while depth[b] > depth[a]:
            out.append(up[b])
            b = parent[b]
        while a != b:
            out += (up[a], up[b])
            a, b = parent[a], parent[b]
        return out

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
            path = self._leaf_paths[(i, j)] = tuple(self._walk_path(i, j))
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
        of its incident edges, in adjacency order."""
        parent, children, _ = self._rooted
        up = self._parent_edge
        stars = []
        for v in self.internal_vertices:
            edge_to = {parent[v]: up[v]}
            edge_to.update((w, up[w]) for w in children[v])
            stars.append(tuple(edge_to[w] for w in self.adjacency[v]))
        return tuple(stars)

    @cached_property
    def internal_edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(e for e in self.edge_ids if e.startswith("e"))

    def edge_id_of(self, u: int, v: int) -> EdgeId:
        by_pair, _ = self._edge_ids
        try:
            return by_pair[frozenset((u, v))]
        except KeyError:
            raise ValueError(f"({u}, {v}) is not an edge of this tree") from None

    def endpoints(self, eid: EdgeId) -> tuple[int, int]:
        _, by_id = self._edge_ids
        try:
            u, v = sorted(by_id[eid])
        except KeyError:
            raise ValueError(f"unknown edge id {eid!r}") from None
        return u, v

    def split(self, eid: EdgeId) -> tuple[frozenset[int], frozenset[int]]:
        """Leaf bipartition induced by removing the edge; side with leaf 1 first."""
        u, v = self.endpoints(eid)
        side = self._splits_below[frozenset((u, v))]
        return frozenset(self.leaves) - side, side

    @cached_property
    def internal_splits(self) -> frozenset[frozenset[int]]:
        """Sides-away-from-leaf-1 of the internal edges; determines the tree."""
        return frozenset(
            self._splits_below[frozenset(self.endpoints(e))] for e in self.internal_edge_ids
        )

    @cached_property
    def planar_leaf_order(self) -> tuple[int, ...]:
        """Leaves in depth-first order from leaf 1 (smallest leaf below first).

        This is the circular order of a planar embedding of the tree; pairs of
        leaf paths that cross do so in any embedding, so it is the natural
        frame for crossing-free rewriting on this tree.
        """
        parent, children, _ = self._rooted
        out: list[int] = []
        stack = [1]
        while stack:
            v = stack.pop()
            if v <= self.n:
                out.append(v)
            stack.extend(reversed(children[v]))
        return tuple(out)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def leaf_path(t: LabeledTree, i: int, j: int) -> frozenset[EdgeId]:
    """Ids of the edges on the unique path between leaves i and j."""
    if not (1 <= i <= t.n and 1 <= j <= t.n):
        raise ValueError(f"leaves must lie in 1..{t.n}, got ({i}, {j})")
    if i == j:
        raise ValueError("leaf path needs two distinct leaves")
    ids = t.edge_ids
    return frozenset(ids[k] for k in t._walk_path(i, j))


def tree_equal(a: LabeledTree, b: LabeledTree) -> bool:
    """Equality as leaf-labeled topological trees (split sets agree)."""
    if a.n != b.n:
        raise ValueError(f"trees on different leaf sets: n={a.n} vs n={b.n}")
    return a.internal_splits == b.internal_splits


def enumerate_trivalent(n: int) -> list[LabeledTree]:
    """All trivalent trees on leaves 1..n, in a fixed canonical order.

    Built by attaching leaf k to every edge of every (k-1)-leaf tree;
    removing the highest leaf inverts the step, so each tree shows up
    exactly once.  Sorted by their lists of internal splits.
    """
    if n < 3:
        raise ValueError(f"need at least 3 leaves, got {n}")
    trees = [LabeledTree(3, ((1, 4), (2, 4), (3, 4)))]
    for k in range(4, n + 1):
        grown: list[LabeledTree] = []
        for t in trees:
            # shift internal ids past the new leaf label k
            shift = lambda v: v + 1 if v > t.n else v
            base = [(shift(u), shift(v)) for u, v in t.edges]
            fresh = max(max(u, v) for u, v in base) + 1
            for u, v in base:
                edges = [e for e in base if e != (u, v)]
                edges += [(u, fresh), (v, fresh), (k, fresh)]
                grown.append(LabeledTree(k, tuple(edges)))
        trees = grown

    def sort_key(t: LabeledTree) -> tuple[tuple[int, ...], ...]:
        allleaves = frozenset(t.leaves)
        return tuple(sorted(tuple(sorted(allleaves - s)) for s in t.internal_splits))

    trees.sort(key=sort_key)
    return trees


def contract_edge(t: LabeledTree, eid: EdgeId) -> LabeledTree:
    """Merge the endpoints of an internal edge; leaf edges cannot contract."""
    if not eid.startswith("e"):
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


def tree_from_json_dict(obj: Mapping) -> LabeledTree:
    try:
        n = int(obj["n"])
        edges = tuple((int(u), int(v)) for u, v in obj["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed tree object: {exc}") from exc
    return LabeledTree(n, edges)


def tree_to_json(t: LabeledTree) -> str:
    return json.dumps(tree_to_json_dict(t), separators=(",", ":"))


def tree_from_json(text: str) -> LabeledTree:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("tree JSON must be an object with keys 'n' and 'edges'")
    return tree_from_json_dict(obj)


def tree_to_newick(t: LabeledTree, weights: Mapping[EdgeId, Fraction] | None = None) -> str:
    """Newick string rooted at the internal vertex next to leaf 1."""
    _, _, minleaf = t._rooted
    root = t.adjacency[1][0]
    out: list[str] = []
    # items are text to emit or a (vertex, parent) subtree still to render
    todo: list[str | tuple[int, int]] = []

    def push_children(v: int, par: int, close: str) -> None:
        kids = sorted((w for w in t.adjacency[v] if w != par), key=minleaf.get)
        todo.append(close)
        for pos, w in enumerate(reversed(kids)):
            if pos:
                todo.append(",")
            todo.append((w, v))
        todo.append("(")

    push_children(root, 0, ");")
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        v, par = item
        length = "" if weights is None else ":" + str(weights[t.edge_id_of(v, par)])
        if v <= t.n:
            out.append(str(v) + length)
        else:
            push_children(v, par, ")" + length)
    return "".join(out)


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

    raw_edges: list[tuple[int, int]] = []
    lengths: dict[frozenset[int], Fraction | None] = {}
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
        if not tok.isdigit():
            raise ValueError(f"leaf labels must be integers, got {tok!r}")
        node = int(tok)
        if node in leaves_seen:
            raise ValueError(f"leaf {node} appears twice")
        leaves_seen.add(node)
        # hang the finished node on its parent, closing every node that ends here
        while open_nodes:
            me = open_nodes[-1]
            length: Fraction | None = None
            if pos < len(tokens) and tokens[pos].startswith(":"):
                try:
                    length = Fraction(tokens[pos][1:])
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValueError(f"bad branch length {tokens[pos][1:]!r}") from exc
                pos += 1
            raw_edges.append((me, node))
            lengths[frozenset((me, node))] = length
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

    # smooth a degree-2 root
    degree: dict[int, int] = {}
    for u, v in raw_edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if degree.get(root, 0) == 2:
        (a, b) = [w for (u, w) in [(u, v) if u == root else (v, u) for u, v in raw_edges] if u == root]
        wa = lengths.pop(frozenset((root, a)))
        wb = lengths.pop(frozenset((root, b)))
        raw_edges = [e for e in raw_edges if root not in e]
        raw_edges.append((a, b))
        lengths[frozenset((a, b))] = (wa + wb) if has_weights else None

    canonical, old2new = _canonical_form(n, raw_edges)
    t = LabeledTree(n, canonical)
    if not has_weights:
        return t, None
    weights: dict[EdgeId, Fraction] = {}
    for key, w in lengths.items():
        u, v = key
        assert w is not None
        weights[t.edge_id_of(old2new[u], old2new[v])] = w
    return t, weights


def parse_edge_order(t: LabeledTree, text: str) -> tuple[EdgeId, ...]:
    """Parse a comma-separated edge order and check it permutes t's edges."""
    order = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if sorted(order) != sorted(t.edge_ids):
        raise ValueError(
            f"order must be a permutation of the {len(t.edge_ids)} edge ids of the tree"
        )
    return order
