"""Independent oracles the test suite checks the library against.

Each oracle recomputes a quantity through a route the library does not
use: Laurent character arithmetic for invariant dimensions, the hook
content formula for graded dimensions, degree-constrained multigraph
enumeration for semigroup membership, minor evaluation for polynomial
identities, plain exhaustive enumeration for graded and interior counts,
a breadth-first search on the edge list for the leaves on each side of
an edge, one breadth-first search from leaf 1 on the edge list for
every rooted table of a tree, leaf insertion on plain edge lists,
canonicalized by the validating constructor, for the enumeration of
trivalent trees, chords on a circle for crossing-free multisets of leaf
pairs, nested sorted strings for the shape of a tree rooted at leaf 1,
and Fraction sums over every leaf quadruple for the four-point
condition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

from grasstrop import DissimilarityVector, LabeledTree, PlueckerPolynomial, leaf_path

Quartet = tuple[tuple[int, int, int, int], tuple[Fraction, Fraction, Fraction], tuple[int, ...]]


def character_invariant_dim(vals: tuple[int, ...]) -> int:
    """dim of the invariant subspace of V(a_1) x ... x V(a_k) over SL2.

    Multiplies the characters z^-a + z^(-a+2) + ... + z^a as Laurent
    polynomials and returns c_0 - c_2, the multiplicity of the trivial
    summand.
    """
    poly = {0: 1}
    for a in vals:
        nxt: dict[int, int] = {}
        for e, c in poly.items():
            for k in range(-a, a + 1, 2):
                nxt[e + k] = nxt.get(e + k, 0) + c
        poly = nxt
    return poly.get(0, 0) - poly.get(2, 0)


def side_away_from_leaf_1(t: LabeledTree, u: int, v: int) -> frozenset[int]:
    """The leaves cut off from leaf 1 when the edge {u, v} is removed.

    A breadth-first search from leaf 1 over t.edges that never crosses the
    removed edge; the leaves it does not reach are the answer.
    """
    nbrs: dict[int, list[int]] = {}
    for a, b in t.edges:
        if {a, b} != {u, v}:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
    reached = {1}
    queue = deque([1])
    while queue:
        x = queue.popleft()
        for y in nbrs.get(x, ()):
            if y not in reached:
                reached.add(y)
                queue.append(y)
    return frozenset(i for i in range(1, t.n + 1) if i not in reached)


@dataclass
class RootedTables:
    """The tables of a tree rooted at leaf 1, keyed by vertex label."""

    pre: list[int]  # vertices in depth-first order, smallest leaf below first
    up: list[int]  # per position of pre, its parent's position; -1 for leaf 1
    parent: dict[int, int]  # 0 for leaf 1
    children: dict[int, list[int]]  # smallest leaf below first
    below: dict[int, frozenset[int]]  # leaves below; for leaf 1, all of them
    span: dict[int, tuple[int, int]]  # first and one-past-last position of below in planar
    planar: list[int]
    name: dict[int, str]  # per vertex but leaf 1: the id of the edge to its parent
    edge_ids: list[str]
    stars: list[tuple[int, ...]]  # per internal vertex by label: edge_ids positions by neighbour label


def rooted_tables(t: LabeledTree) -> RootedTables:
    """Every rooted table of t from one breadth-first search from leaf 1 over t.edges.

    The search gives each vertex's parent, and the leaves below each vertex
    are gathered from the far end of the search order back.  The rest
    follows from the definitions: children by smallest leaf below, the
    depth-first order through them, the leaves in that order, each span
    from the positions of the leaves below, edge ids from the leaves below
    each child sorted by the leaves on the other side, and the stars.
    """
    n = t.n
    nbrs: dict[int, list[int]] = {}
    for a, b in t.edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    parent = {1: 0}
    order = [1]
    queue = deque([1])
    while queue:
        x = queue.popleft()
        for y in nbrs[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
                queue.append(y)
    leaves = frozenset(range(1, n + 1))
    below: dict[int, frozenset[int]] = {1: leaves}
    for v in reversed(order[1:]):
        below[v] = frozenset([v]) if v <= n else frozenset().union(
            *(below[w] for w in nbrs[v] if w != parent[v])
        )
    children = {
        v: sorted((w for w in nbrs[v] if w != parent[v]), key=lambda w: min(below[w])) for v in order
    }
    pre: list[int] = []
    up: list[int] = []
    stack = [(1, -1)]
    while stack:
        v, p = stack.pop()
        up.append(p)
        pre.append(v)
        stack += [(w, len(pre) - 1) for w in reversed(children[v])]
    planar = [v for v in pre if v <= n]
    place = {leaf: k for k, leaf in enumerate(planar)}
    span = {v: (min(place[i] for i in below[v]), max(place[i] for i in below[v]) + 1) for v in order}
    name = {v: f"l{v}" if v <= n else "e" + "-".join(map(str, sorted(below[v]))) for v in order[1:]}
    name[order[1]] = "l1"
    internal = sorted((v for v in order[2:] if v > n), key=lambda v: sorted(leaves - below[v]))
    edge_ids = [f"l{i}" for i in range(1, n + 1)] + [name[v] for v in internal]
    stars = [
        tuple(edge_ids.index(name[w] if parent[w] == v else name[v]) for w in sorted(nbrs[v]))
        for v in sorted(order)
        if v > n
    ]
    return RootedTables(pre, up, parent, children, below, span, planar, name, edge_ids, stars)


def is_crossing_free(order: Sequence[int], pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether no two leaf pairs cross as chords of a circle that carries
    the leaves in `order`.

    Two chords cross when their four endpoints alternate around the
    circle; chords that share an endpoint do not cross.
    """
    pos = {leaf: k for k, leaf in enumerate(order)}
    chords = [tuple(sorted((pos[i], pos[j]))) for i, j in pairs]
    return not any(a < c < b < d or c < a < d < b for (a, b), (c, d) in combinations(chords, 2))


def grown_trivalent_trees(n: int) -> list[LabeledTree]:
    """Every trivalent tree on leaves 1..n, in the order enumerate_trivalent documents.

    Grows plain edge lists from the 3-leaf star by replacing each edge
    {u, v} of each tree on leaves 1..k-1 with {u, w}, {v, w}, {k, w} for a
    fresh vertex w, canonicalizes every result through the validating
    LabeledTree constructor, and sorts by the leaf-1 sides of the
    internal edges, each side found by side_away_from_leaf_1.
    """
    grown = [[(1, n + 1), (2, n + 1), (3, n + 1)]]
    for k in range(4, n + 1):
        w = n + k - 2
        grown = [
            edges[:x] + edges[x + 1 :] + [(u, w), (v, w), (k, w)]
            for edges in grown
            for x, (u, v) in enumerate(edges)
        ]
    leaves = frozenset(range(1, n + 1))

    def splits(t: LabeledTree) -> list[tuple[int, ...]]:
        return sorted(
            tuple(sorted(leaves - side_away_from_leaf_1(t, u, v))) for u, v in t.edges if u > n
        )

    return sorted((LabeledTree(n, edges) for edges in grown), key=splits)


def hook_content_dim(n: int, d: int) -> int:
    """dim of the GL_n representation with two-row partition (d, d)."""
    if d == 0:
        return 1
    result = Fraction(1)
    for j in range(d):
        result *= Fraction((n + j) * (n + j - 1), (d - j + 1) * (d - j))
    assert result.denominator == 1
    return result.numerator


def eval_on_minors(
    f: PlueckerPolynomial, mat: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
) -> Fraction:
    """Evaluate f with each p[i,j] replaced by the 2x2 minor of columns i, j."""
    top, bot = mat
    total = Fraction(0)
    for m, c in f.terms:
        val = c
        for (i, j), e in m.exps:
            minor = top[i - 1] * bot[j - 1] - top[j - 1] * bot[i - 1]
            val *= minor**e
        total += val
    return total


def enumerate_multigraphs(n: int, max_degree: int):
    """All multisets of pairs on labels 1..n with every label degree <= max_degree.

    Yields dicts pair -> multiplicity (zero entries omitted).
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def rec(idx: int, degs: list[int], chosen: dict):
        if idx == len(pairs):
            yield dict(chosen)
            return
        i, j = pairs[idx]
        cap = min(max_degree - degs[i - 1], max_degree - degs[j - 1])
        for mult in range(0, cap + 1):
            if mult:
                degs[i - 1] += mult
                degs[j - 1] += mult
                chosen[(i, j)] = mult
            yield from rec(idx + 1, degs, chosen)
            if mult:
                degs[i - 1] -= mult
                degs[j - 1] -= mult
                del chosen[(i, j)]

    yield from rec(0, [0] * n, {})


def achievable_weights(t: LabeledTree, max_entry: int) -> set[tuple[int, ...]]:
    """All edge-weight vectors with entries <= max_entry realized by pair multisets.

    A multiset of pairs realizes the weight that counts, on every edge,
    the pairs whose leaf path uses that edge.  This is the brute-force
    membership oracle: a weight is in the value semigroup iff it appears
    here.
    """
    order = t.edge_ids
    pos = {eid: k for k, eid in enumerate(order)}
    path_masks = {}
    for i in range(1, t.n + 1):
        for j in range(i + 1, t.n + 1):
            path_masks[(i, j)] = [pos[eid] for eid in leaf_path(t, i, j)]
    out: set[tuple[int, ...]] = set()
    for graph in enumerate_multigraphs(t.n, max_entry):
        vec = [0] * len(order)
        for pair, mult in graph.items():
            for k in path_masks[pair]:
                vec[k] += mult
        if all(v <= max_entry for v in vec):
            out.add(tuple(vec))
    return out


def _vertex_ok(vals: tuple[int, int, int]) -> bool:
    a, b, c = vals
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


def _stars(t: LabeledTree) -> list[tuple[int, ...]]:
    """Per internal vertex, the positions in t.edge_ids of its incident edges."""
    pos = {eid: k for k, eid in enumerate(t.edge_ids)}
    return [tuple(pos[t.edge_id_of(v, u)] for u in t.adjacency[v]) for v in t.internal_vertices]


def brute_force_box_count(t: LabeledTree, m: int) -> int:
    """Count semigroup weights with all entries <= m by direct enumeration.

    Checks parity and triangle inequalities at every internal vertex
    straight from the adjacency, without the library's membership code.
    """
    stars = _stars(t)
    count = 0
    for vec in product(range(m + 1), repeat=len(t.edge_ids)):
        if all(_vertex_ok(tuple(vec[k] for k in star)) for star in stars):
            count += 1
    return count


def brute_force_interior_count(t: LabeledTree, m: int) -> int:
    """Count the interior weights at level m by direct enumeration.

    Every edge value lies in 1..m-1, and at every internal vertex the sum
    is even and each value is strictly less than the sum of the other two
    and strictly more than their difference.
    """
    stars = _stars(t)
    count = 0
    for vec in product(range(1, m), repeat=len(t.edge_ids)):
        for star in stars:
            a, b, c = (vec[k] for k in star)
            if (a + b + c) % 2 or not abs(a - b) < c < a + b:
                break
        else:
            count += 1
    return count


def brute_force_degree_count(t: LabeledTree, d: int) -> int:
    """Count semigroup weights with leaf sum 2d by direct enumeration."""
    stars = _stars(t)
    n_leaves = t.n
    count = 0
    for vec in product(range(2 * d + 1), repeat=len(t.edge_ids)):
        if sum(vec[:n_leaves]) != 2 * d:
            continue
        if all(_vertex_ok(tuple(vec[k] for k in star)) for star in stars):
            count += 1
    return count


def rooted_shape_form(t: LabeledTree) -> str:
    """The shape of t rooted at leaf 1, with leaves 2..n unlabeled, as a string.

    A leaf is "x" and any other vertex is "(" + its children's strings,
    sorted, + ")", read recursively from the edge list; leaf 1 itself is
    left out, so the string is that of its neighbour.  Two trees get the
    same string exactly when a relabeling of leaves 2..n carries one onto
    the other.
    """
    nbrs: dict[int, list[int]] = {}
    for a, b in t.edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)

    def form(v: int, parent: int) -> str:
        if v <= t.n:
            return "x"
        return "(" + "".join(sorted(form(w, v) for w in nbrs[v] if w != parent)) + ")"

    (root,) = nbrs[1]
    return form(root, 1)


def quartet(d: DissimilarityVector, quad: tuple[int, int, int, int]) -> Quartet:
    """(quad, sums, attained) for the quadruple i<j<k<l.

    The sums d_ij + d_kl, d_ik + d_jl, d_il + d_jk are added as Fractions
    read through d.value; attained lists the positions of their maximum.
    """
    i, j, k, l = quad
    sums = (d.value(i, j) + d.value(k, l), d.value(i, k) + d.value(j, l), d.value(i, l) + d.value(j, k))
    return quad, sums, tuple(p for p, s in enumerate(sums) if s == max(sums))


def four_point(d: DissimilarityVector) -> tuple[bool, list[Quartet]]:
    """The four-point condition by brute force over every quadruple.

    Returns (True, the quartet of every quadruple in combinations order),
    or (False, [the quartet of the first one whose maximum is attained once]).
    """
    quartets = []
    for quad in combinations(range(1, d.n + 1), 4):
        q = quartet(d, quad)
        if len(q[2]) < 2:
            return False, [q]
        quartets.append(q)
    return True, quartets
