"""Independent checks for benchmark outputs.

Nothing here imports grasstrop.  Trees are plain (n, edges) pairs; every
quantity is recomputed from the definitions in the library's docstrings
and README: splits, edge ids, canonical vertex numbering, path sums,
chord crossings, 2x2 minors, the hook-content formula and the
parity/triangle rule for semigroup membership.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

Edge = frozenset


def adjacency(edges) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _rooted(n: int, edges):
    """Parent map and preorder rooted at leaf 1, and leaves below each vertex."""
    adj = adjacency(edges)
    parent = {1: 0}
    order = []
    stack = [1]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    below: dict[int, frozenset[int]] = {}
    for v in reversed(order):
        acc = {v} if v <= n else set()
        for w in adj[v]:
            if parent.get(w) == v:
                acc |= below[w]
        below[v] = frozenset(acc)
    return adj, parent, below


def sides(n: int, edges) -> dict[Edge, frozenset[int]]:
    """Each edge mapped to its leaf side away from leaf 1."""
    _, parent, below = _rooted(n, edges)
    out = {}
    for u, v in edges:
        child = u if parent.get(u) == v else v
        out[Edge((u, v))] = below[child] if child != 1 else frozenset(range(2, n + 1))
    return out


def internal_splits(n: int, edges) -> frozenset[frozenset[int]]:
    return frozenset(s for s in sides(n, edges).values() if 1 < len(s) < n - 1)


def edge_names(n: int, edges) -> dict[Edge, str]:
    """Stable edge ids: l<i> at leaf i, e<a-b-...> naming the side away from leaf 1."""
    out = {}
    for key, side in sides(n, edges).items():
        leaf = min(key)
        if leaf <= n:
            out[key] = f"l{leaf}"
        else:
            out[key] = "e" + "-".join(str(x) for x in sorted(side))
    return out


def edge_order(n: int, edges) -> list[str]:
    """Edge ids in canonical order: leaf edges, then internal edges by their leaf-1 side."""
    allleaves = frozenset(range(1, n + 1))
    names = edge_names(n, edges)
    side = sides(n, edges)
    internal = sorted(
        (tuple(sorted(allleaves - side[k])), name)
        for k, name in names.items()
        if name.startswith("e")
    )
    return [f"l{i}" for i in range(1, n + 1)] + [name for _, name in internal]


def split_of_name(n: int, edges) -> dict[str, frozenset[int]]:
    side = sides(n, edges)
    return {name: side[k] for k, name in edge_names(n, edges).items()}


def path_names(n: int, edges) -> dict[tuple[int, int], frozenset[str]]:
    """Edge ids on each leaf-to-leaf path: the edges whose split separates i and j."""
    by_name = split_of_name(n, edges)
    return {
        (i, j): frozenset(e for e, s in by_name.items() if (i in s) != (j in s))
        for i, j in combinations(range(1, n + 1), 2)
    }


def _minleaf(n: int, edges):
    adj, parent, below = _rooted(n, edges)
    return adj, parent, {v: min(b) for v, b in below.items()}


def canonical_edges(n: int, edges) -> list[tuple[int, int]]:
    """Renumber internal vertices n+1, n+2, ... in preorder from leaf 1, smallest leaf first."""
    adj, parent, minleaf = _minleaf(n, edges)
    new = {i: i for i in range(1, n + 1)}
    nxt = n + 1
    walk = [adj[1][0]]
    while walk:
        v = walk.pop()
        if v > n:
            new[v] = nxt
            nxt += 1
        kids = sorted((w for w in adj[v] if parent.get(w) == v), key=minleaf.get, reverse=True)
        walk.extend(kids)
    return sorted(tuple(sorted((new[u], new[v]))) for u, v in edges)


def newick(n: int, edges) -> str:
    """Newick text rooted at the internal vertex next to leaf 1."""
    adj, parent, minleaf = _minleaf(n, edges)

    def render(v: int) -> str:
        if v <= n:
            return str(v)
        kids = sorted((w for w in adj[v] if parent.get(w) == v), key=minleaf.get)
        return "(" + ",".join(render(w) for w in kids) + ")"

    root = adj[1][0]
    return "(" + ",".join(render(w) for w in sorted(adj[root], key=minleaf.get)) + ");"


def planar_order(n: int, edges) -> list[int]:
    adj, parent, minleaf = _minleaf(n, edges)
    out = []
    stack = [1]
    while stack:
        v = stack.pop()
        if v <= n:
            out.append(v)
        kids = sorted((w for w in adj[v] if parent.get(w) == v), key=minleaf.get, reverse=True)
        stack.extend(kids)
    return out


def is_trivalent(n: int, edges) -> bool:
    adj = adjacency(edges)
    return all(len(adj[v]) == (1 if v <= n else 3) for v in adj)


def insertion_trees(n: int) -> list[list[tuple[int, int]]]:
    """All trivalent trees on n leaves, by attaching leaf k to every edge."""
    trees = [[(1, n + 1), (2, n + 1), (3, n + 1)]]
    for k in range(4, n + 1):
        grown = []
        for t in trees:
            fresh = max(max(e) for e in t) + 1
            for idx, (u, v) in enumerate(t):
                grown.append(t[:idx] + t[idx + 1:] + [(u, fresh), (v, fresh), (k, fresh)])
        trees = grown
    return trees


def enumeration_order_key(n: int, edges):
    allleaves = frozenset(range(1, n + 1))
    return tuple(sorted(tuple(sorted(allleaves - s)) for s in internal_splits(n, edges)))


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


# ---------------------------------------------------------------------------
# Dissimilarities and the four-point condition


def pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def path_sums(n: int, edges, weights: dict[str, Fraction]) -> dict[tuple[int, int], Fraction]:
    return {pr: sum((weights[e] for e in path), Fraction(0)) for pr, path in path_names(n, edges).items()}


def quartet_sums(d, i, j, k, l):
    return (d[(i, j)] + d[(k, l)], d[(i, k)] + d[(j, l)], d[(i, l)] + d[(j, k)])


def describe_quartet(d, quad) -> str:
    i, j, k, l = quad
    sums = quartet_sums(d, i, j, k, l)
    top = max(sums)
    names = (f"{i}{j}|{k}{l}", f"{i}{k}|{j}{l}", f"{i}{l}|{j}{k}")
    body = "  ".join(f"{p}:{s}" for p, s in zip(names, sums))
    tags = ",".join(p for p, s in zip(names, sums) if s == top)
    return f"quad {quad}: {body}  max at {tags}"


def first_violation(n: int, d) -> tuple[int, ...] | None:
    for quad in combinations(range(1, n + 1), 4):
        sums = quartet_sums(d, *quad)
        if sums.count(max(sums)) < 2:
            return quad
    return None


# ---------------------------------------------------------------------------
# Pluecker polynomials, given as {((i, j), ...) sorted pair tuple: Fraction}


def crosses(a, b, pos) -> bool:
    if set(a) & set(b):
        return False
    lo, hi = sorted((pos[a[0]], pos[a[1]]))
    return (lo < pos[b[0]] < hi) != (lo < pos[b[1]] < hi)


def noncrossing(pair_list, order=None) -> bool:
    labels = {x for pr in pair_list for x in pr}
    pos = {x: x for x in labels} if order is None else {x: k for k, x in enumerate(order)}
    sup = sorted(set(pair_list))
    return not any(crosses(a, b, pos) for a, b in combinations(sup, 2))


def eval_on_minors(terms, top, bot) -> Fraction:
    """Evaluate sum c * prod p_ij with p_ij the 2x2 minor of columns i, j."""
    total = Fraction(0)
    for pair_list, c in terms:
        val = Fraction(c)
        for i, j in pair_list:
            val *= top[i - 1] * bot[j - 1] - top[j - 1] * bot[i - 1]
        total += val
    return total


def hook_content(n: int, d: int) -> int:
    """Number of semistandard tableaux of shape (d, d) with entries at most n."""
    num = 1
    den = 1
    for row, length in ((0, d), (1, d)):
        for col in range(length):
            num *= n + col - row
            arm = length - col - 1
            leg = 1 - row
            den *= arm + leg + 1
    return num // den


# ---------------------------------------------------------------------------
# Semigroup membership


def vertex_triples(n: int, edges, order: list[str]) -> list[tuple[int, int, int]]:
    """Per internal vertex, the positions in `order` of its three edges."""
    names = edge_names(n, edges)
    index = {name: k for k, name in enumerate(order)}
    adj = adjacency(edges)
    return [
        tuple(index[names[Edge((v, w))]] for w in adj[v]) for v in sorted(adj) if v > n
    ]


def member(triples, vals) -> bool:
    for ia, ib, ic in triples:
        a, b, c = vals[ia], vals[ib], vals[ic]
        if (a + b + c) % 2 or not abs(a - b) <= c <= a + b:
            return False
    return True


def canonical_json_tree(n: int, edges) -> str:
    return json.dumps({"n": n, "edges": [list(e) for e in canonical_edges(n, edges)]}, separators=(",", ":"))
