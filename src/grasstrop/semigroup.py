"""Edge-weight semigroups of trivalent trees.

A weight s assigns a nonnegative integer to every edge.  At an internal
vertex of a trivalent tree the three incident values must have even sum
and satisfy the triangle inequality; the weights passing that test at
every vertex form the semigroup of the tree.  Path indicator weights
omega(i, j) generate it, and each weight is the sum of exactly one
multiset of leaf pairs that is crossing-free in the tree's planar leaf
order, which `decompose` finds by matching strands in one pass from the
leaves to leaf 1.  The vertex rule is written once, in `_first_violation`,
and each weight on a trivalent tree runs it at most once: `in_semigroup`,
`invariant_dim` and `decompose` all read the verdict the weight keeps.

Graded, box and interior counts depend only on the tree's shape rooted at
leaf 1.  They run one table walk over that shape, one step per vertex
type, and are memoized by it in one memo of at most 1024 counts.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .trees import EdgeId, LabeledTree, _json_integer, tree_from_json_dict, tree_to_json_dict


def _first_violation(
    stars: Iterable[tuple[int, int, int]], values: Sequence[int]
) -> int | None:
    """Index of the first star whose three values have an odd sum or break
    the triangle inequality |a-b| <= c <= a+b; None when every star passes.

    Each star lists three positions in values.  This is the vertex rule of
    the tree semigroup, and the only place it is written.
    """
    for k, (ia, ib, ic) in enumerate(stars):
        a, b, c = values[ia], values[ib], values[ic]
        if (a + b + c) % 2 != 0 or not (abs(a - b) <= c <= a + b):
            return k
    return None


def pieri_dim(i: int, j: int, k: int) -> int:
    """Multiplicity of the trivial factor in V(i) (x) V(j) (x) V(k) for SL2.

    Equals 1 when i+j+k is even and |i-j| <= k <= i+j, else 0.
    """
    if i < 0 or j < 0 or k < 0:
        raise ValueError(f"weights must be nonnegative, got ({i}, {j}, {k})")
    return 1 if _first_violation(((0, 1, 2),), (i, j, k)) is None else 0


def _tensor_invariant_dim(vals: tuple[int, ...]) -> int:
    """Invariant dimension of V(a1) (x) ... (x) V(ak), by Clebsch-Gordan folding."""
    if not vals:
        return 1
    state = {vals[0]: 1}
    for a in vals[1:]:
        nxt: dict[int, int] = {}
        for c, mult in state.items():
            for out in range(abs(c - a), c + a + 1, 2):
                nxt[out] = nxt.get(out, 0) + mult
        state = nxt
    return state.get(0, 0)


@dataclass(frozen=True)
class SigmaWeight:
    """Nonnegative integer per edge of a tree, in tree.edge_ids order."""

    tree: LabeledTree
    values: tuple[int, ...]
    _bad_star = -1  # not a field: the verdict of _violation, -1 until it is kept

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != len(self.tree.edge_ids):
            raise ValueError(f"expected {len(self.tree.edge_ids)} values, got {len(values)}")
        for v in values:
            if type(v) is not int or v < 0:  # then name the edge, or pass an int subclass
                for eid, w in zip(self.tree.edge_ids, values):
                    if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                        raise ValueError(f"edge {eid}: weight must be a nonnegative integer, got {w!r}")
                break

    def _violation(self) -> int | None:
        """_first_violation on the stars of a trivalent tree, run once and kept."""
        bad = self._bad_star
        if bad == -1:
            bad = _first_violation(self.tree._stars, self.values)
            object.__setattr__(self, "_bad_star", bad)
        return bad

    @classmethod
    def of(cls, tree: LabeledTree, values: Mapping[EdgeId, int]) -> "SigmaWeight":
        """Build from a (possibly partial) map; missing edges get 0."""
        return cls(tree, tuple(tree._full_values(values)))

    def value(self, eid: EdgeId) -> int:
        return self.values[self.tree._position(eid)]

    def as_dict(self) -> dict[EdgeId, int]:
        return dict(zip(self.tree.edge_ids, self.values))

    def __add__(self, other: "SigmaWeight") -> "SigmaWeight":
        if self.tree != other.tree:
            raise ValueError("cannot add weights on different trees")
        return SigmaWeight(self.tree, tuple(a + b for a, b in zip(self.values, other.values)))

    def scaled(self, k: int) -> "SigmaWeight":
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        return SigmaWeight(self.tree, tuple(k * v for v in self.values))

    def to_json_dict(self) -> dict:
        return {
            "tree": tree_to_json_dict(self.tree),
            "s": {e: v for e, v in zip(self.tree.edge_ids, self.values)},
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SigmaWeight":
        if not isinstance(obj, dict):
            raise ValueError("weight JSON must be an object with keys 'tree' and 's'")
        try:
            tree = tree_from_json_dict(obj["tree"])
            raw = obj["s"]
        except KeyError as exc:
            raise ValueError(f"weight JSON needs key {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("weight JSON key 's' must hold an object")
        return cls.of(tree, {str(k): _json_integer(v, f"weight of {k}") for k, v in raw.items()})


def _check_tree(t: LabeledTree, s: SigmaWeight) -> None:
    """Refuse a weight on another tree, comparing only distinct objects."""
    if s.tree is not t and s.tree != t:
        raise ValueError("weight does not live on this tree")


def invariant_dim(t: LabeledTree, s: SigmaWeight) -> int:
    """Product over internal vertices of local tensor invariant dimensions.

    On a trivalent tree every factor is pieri_dim, so the product is 1 for
    a semigroup element and 0 otherwise, read from the verdict the weight
    keeps (see SigmaWeight._violation); higher degrees fold by
    Clebsch-Gordan.
    """
    _check_tree(t, s)
    if t.is_trivalent:
        # each local factor is pieri_dim, 0 or 1
        return int(s._violation() is None)
    vals = s.values
    out = 1
    for star in t._stars:
        out *= _tensor_invariant_dim(tuple(sorted(vals[k] for k in star)))
        if out == 0:
            return 0
    return out


def in_semigroup(t: LabeledTree, s: SigmaWeight) -> bool:
    """Parity and triangle test at every internal vertex (trivalent trees),
    run once per weight (see SigmaWeight._violation)."""
    if not t.is_trivalent:
        raise ValueError("semigroup membership is defined for trivalent trees")
    _check_tree(t, s)
    return s._violation() is None


def omega(t: LabeledTree, i: int, j: int) -> SigmaWeight:
    """Indicator weight of the path between leaves i and j."""
    return SigmaWeight(t, tuple(t._edge_counts(((t._leaf_pair(i, j), 1),))))


@dataclass(frozen=True)
class PairMultiset:
    """Multiset of leaf pairs, stored as a sorted tuple with repetitions."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for i, j in self.pairs:
            if i >= j:
                raise ValueError(f"pairs must be increasing, got ({i}, {j})")
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    @classmethod
    def _from_increasing(cls, pairs: list[tuple[int, int]]) -> PairMultiset:
        """Sorts pairs known to be increasing, without __post_init__'s check."""
        out = object.__new__(cls)
        object.__setattr__(out, "pairs", tuple(sorted(pairs)))
        return out

    def counts(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for p in self.pairs:
            out[p] = out.get(p, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def to_json_list(self) -> list[list[int]]:
        return [[i, j, m] for (i, j), m in sorted(self.counts().items())]


def decompose(t: LabeledTree, s: SigmaWeight) -> PairMultiset:
    """Split a semigroup element into path indicators by planar matching.

    Each edge value is laid out as that many strands in the planar picture
    of the tree, and one pass from the leaves towards leaf 1 carries, per
    edge, the leaves at the lower ends of its strands in planar order; a
    leaf edge carries its own leaf s(e) times.  At an internal vertex whose
    children carry b and c strands and whose parent edge carries a, the
    (b+c-a)/2 innermost strands close up, the last ones of the left child
    with the first ones of the right child, and the rest go up; the strands
    that reach leaf 1's edge end at leaf 1.  Each closed strand is one leaf
    pair.  The result sums back to s and is crossing-free in the planar
    leaf order of the tree.  A weight outside the semigroup is refused from
    the verdict it keeps (see SigmaWeight._violation).
    """
    if not t.is_trivalent:
        raise ValueError("decomposition is defined for trivalent trees")
    _check_tree(t, s)
    bad = s._violation()
    if bad is not None:
        vals = tuple(s.values[k] for k in t._stars[bad])
        raise ValueError(
            f"weight is not in the semigroup: vertex {t.internal_vertices[bad]} "
            f"sees values {vals} (odd sum or triangle inequality fails)"
        )
    children, values, up, n = t._children, s.values, t._parent_edge, t.n
    # per vertex: the lower ends of the strands of the edge to its parent
    ends: list[list[int]] = [[]] * len(up)
    pairs: list[tuple[int, int]] = []
    # the preorder backwards lists every vertex after all vertices below it
    for v in t._pre[:0:-1]:
        a = values[up[v]]
        if v <= n:
            ends[v] = [v] * a
            continue
        left, right = children[v]
        b, c = ends[left], ends[right]
        # the last `close` strands of b meet the first ones of c, innermost first
        close = (len(b) + len(c) - a) // 2
        for k in range(close):
            i, j = b[-1 - k], c[k]
            pairs.append((i, j) if i < j else (j, i))
        ends[v] = b[: len(b) - close] + c[close:]
    pairs += [(1, j) for j in ends[t._pre[1]]]
    back = [0] * len(values)
    for i, j in pairs:
        for k in t._path(i, j):
            back[k] += 1
    if tuple(back) != values:
        raise RuntimeError("strand decomposition does not sum back to the weight")
    return PairMultiset._from_increasing(pairs)


def _table_walk(
    shape: bytes, leaf_table: dict[int, list[tuple[int, int]]], cap: int, slack: int
) -> dict[int, list[tuple[int, int]]]:
    """Table walk over a rooted shape code (LabeledTree._shape); returns the
    table of leaf 1's edge.

    The table of an edge maps each leaf sum below it to the list of
    (edge value, number of weights on the subtree below) with a nonzero
    count.  Type 0, a leaf, gets leaf_table, and type k, the k-th pair
    (i, j) of the code, combines the tables of types i and j, so the walk
    takes one step per vertex type.  A vertex whose children carry b and c
    lets its parent edge take the values |b-c|+slack .. min(b+c-slack, cap)
    of the parity of b+c: slack 0 is the vertex rule of the semigroup,
    slack 2 its strict form (for an even sum, |b-c| < a < b+c).  Leaf sums
    above cap are dropped.  Each pair of child entries adds its count to a
    whole range of values at once, as a difference at both ends that a
    running sum over values of one parity spreads out.
    """
    code = array("I")
    code.frombytes(shape)
    pairs = list(zip(code[::2], code[1::2]))
    # a table is dropped after the last type that uses it
    last = {x: k for k, pair in enumerate(pairs, 1) for x in pair}
    tables: list[dict[int, list[tuple[int, int]]] | None] = [leaf_table]
    for k, (left, right) in enumerate(pairs, 1):
        right_table = tables[right].items()
        diffs: dict[int, list[int]] = {}
        for sb, row_b in tables[left].items():
            for sc, row_c in right_table:
                stot = sb + sc
                if stot > cap:
                    continue
                diff = diffs.get(stot)
                if diff is None:
                    diff = diffs[stot] = [0] * (cap + 3)
                for b, cb in row_b:
                    for c, cc in row_c:
                        lo, hi = abs(b - c) + slack, min(b + c - slack, cap)
                        if lo <= hi:
                            # hi - (hi - lo) % 2 is the last value of lo's parity
                            count = cb * cc
                            diff[lo] += count
                            diff[hi - (hi - lo) % 2 + 2] -= count
        out: dict[int, list[tuple[int, int]]] = {}
        for stot, diff in diffs.items():
            for a in range(2, cap + 1):
                diff[a] += diff[a - 2]
            out[stot] = [(a, count) for a, count in enumerate(diff[: cap + 1]) if count]
        for x in (left, right):
            if last[x] == k:
                tables[x] = None
        tables.append(out)
    return tables[-1]


# 1024 entries hold the 20 counts of the Gorenstein check and degrees 1..4
# for all 23 rooted shapes at n=9 (552 entries).
@lru_cache(maxsize=1024)
def _walk_count(shape: bytes, mode: str, level: int) -> int:
    """The count of one graded piece of every tree of this rooted shape.

    Every leaf gets the same table and every vertex applies the same
    symmetric rule, so a count depends only on the shape, and the memo
    serves every later tree of the shape.  Modes: "box" (every edge value
    at most level), "degree" (leaf values summing to 2*level) and
    "interior" (see _interior_count).
    """
    # Box and interior modes keep the leaf sum at 0 and cap edge values;
    # degree mode caps both at 2*level, and leaf 1's value must bring the
    # sum to 2*level.
    if mode == "box":
        return _count_all(_table_walk(shape, {0: [(a, 1) for a in range(level + 1)]}, level, 0))
    if mode == "interior":
        return _count_all(_table_walk(shape, {0: [(a, 1) for a in range(1, level)]}, level - 1, 2))
    top = 2 * level
    table = _table_walk(shape, {a: [(a, 1)] for a in range(top + 1)}, top, 0)
    return sum(count for stot, row in table.items() for a, count in row if a + stot == top)


def _count_all(table: dict[int, list[tuple[int, int]]]) -> int:
    return sum(count for row in table.values() for _, count in row)


def graded_count(
    t: LabeledTree, *, plucker_degree: int | None = None, box_bound: int | None = None
) -> int:
    """Count semigroup elements in one graded piece.

    Exactly one of the two keyword modes must be given: `plucker_degree=d`
    counts weights whose leaf values sum to 2d, `box_bound=m` counts
    weights with every edge value at most m.  Counts are memoized by the
    tree's rooted shape (see _walk_count).
    """
    if (plucker_degree is None) == (box_bound is None):
        raise ValueError("give exactly one of plucker_degree= or box_bound=")
    if not t.is_trivalent:
        raise ValueError("graded counts are defined for trivalent trees")
    if box_bound is not None:
        if box_bound < 0:
            raise ValueError(f"box bound must be nonnegative, got {box_bound}")
        return _walk_count(t._shape, "box", box_bound)
    if plucker_degree < 0:
        raise ValueError(f"degree must be nonnegative, got {plucker_degree}")
    return _walk_count(t._shape, "degree", plucker_degree)


def _interior_count(t: LabeledTree, m: int) -> int:
    """Weights at level m in the interior: every edge value in 1..m-1, even
    vertex sums and strict triangle inequalities."""
    return _walk_count(t._shape, "interior", m)


def _gorenstein_witness(t: LabeledTree) -> tuple[int, int, int] | None:
    """(m, interior count at level m, box count at level m-3) for the first
    level m in 3..12 where the two differ, or None when none does."""
    if not t.is_trivalent:
        raise ValueError("the witness check is defined for trivalent trees")
    counts = ((m, _interior_count(t, m), graded_count(t, box_bound=m - 3)) for m in range(3, 13))
    return next((c for c in counts if c[1] != c[2]), None)


def gorenstein_witness_check(t: LabeledTree, samples: int | None = None, *, seed: int | None = None) -> bool:
    """Check the interior-to-box shift exactly on the levels m = 3..12.

    The interior at level m (every edge value in 1..m-1, even vertex sums,
    strict triangle inequalities) is the box at level m-3 shifted by 2 on
    every edge: for an even sum, |a-b| < c < a+b holds exactly when
    |a-b| <= c-2 <= a+b-4, and no interior value is 1, which would force
    the other two at its vertex equal and the sum odd.  The check rests on
    this bijection alone, not on the index-4 Gorenstein theorem of
    Buczynska-Wisniewski, which is about the polytope with vertex sums
    capped at 2m.  Both sides are counted by the same table walk, memoized
    by shape, and the result is False at the first level where the
    interior count differs from graded_count(t, box_bound=m-3).
    `samples` and `seed` are ignored, left from the earlier sampling check.
    """
    return _gorenstein_witness(t) is None
