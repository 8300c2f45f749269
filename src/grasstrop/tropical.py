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
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .trees import EdgeId, LabeledTree, _canonical_form, _json_integer, _json_object, _leaf_index
from .trees import parse_rational, tree_from_json_dict, tree_to_json_dict

Rational = Fraction


def leaf_pairs(n: int) -> list[tuple[int, int]]:
    """All pairs (i, j) with 1 <= i < j <= n in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), 2))


def _pair_position(n: int, i: int, j: int) -> int:
    """The index of the pair {i, j} in leaf_pairs(n)."""
    a, b = (i, j) if i < j else (j, i)
    if not 1 <= a < b <= n:
        raise ValueError(f"({i}, {j}) is not a leaf pair for n={n}")
    # (a - 1) * (2n - a) / 2 pairs start with a leaf below a
    return (a - 1) * (2 * n - a) // 2 + b - a - 1


def _pair_values(n: int, entries: Iterable[tuple[str, int, int, object]]) -> list[object]:
    """The values of (where, i, j, value) entries, in leaf_pairs(n) order.

    Every leaf pair must come exactly once, as (i, j) or (j, i); an error
    about one entry starts with its `where`.
    """
    given: dict[tuple[int, int], object] = {}
    for where, i, j, v in entries:
        if i == j:
            raise ValueError(f"{where}pair ({i}, {j}) has equal entries")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"{where}pair ({i}, {j}) is not a leaf pair for n={n}")
        pair = (i, j) if i < j else (j, i)
        if pair in given:
            raise ValueError(f"{where}duplicate pair {pair}")
        given[pair] = v
    # name at most 20: a large n with few entries lacks ~n^2/2 pairs
    pairs = itertools.combinations(range(1, n + 1), 2)
    missing = list(itertools.islice((p for p in pairs if p not in given), 20))
    if missing:
        more = n * (n - 1) // 2 - len(given) - len(missing)
        tail = f" and {more} more" if more else ""
        raise ValueError(f"missing pairs: {missing}{tail}")
    return [given[p] for p in leaf_pairs(n)]


def _integer_scaled(values: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    """(den, w) with den the lcm of the denominators and w[k] = den * values[k]."""
    den = math.lcm(*{v.denominator for v in values})
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


_WEIGHTING_SHAPE = "weighting JSON must be an object with keys 'tree' and 'weights'"


@dataclass(frozen=True)
class EdgeWeighting:
    """Rational weight per edge of a tree; internal weights must be >= 0."""

    tree: LabeledTree
    values: tuple[Fraction, ...]  # aligned with tree.edge_ids

    def __post_init__(self) -> None:
        if len(self.values) != len(self.tree.edges):
            raise ValueError(f"expected {len(self.tree.edge_ids)} weights, got {len(self.values)}")
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        n = self.tree.n
        for k, v in enumerate(vals[n:], start=n):
            if v < 0:
                raise ValueError(f"internal edge {self.tree.edge_ids[k]} has negative weight {v}")

    @classmethod
    def of(cls, tree: LabeledTree, weights: Mapping[EdgeId, object]) -> "EdgeWeighting":
        """Build from a (possibly partial) map; missing edges get weight 0."""
        return cls(tree, tuple(Fraction(str(v)) for v in tree._full_values(weights)))

    def weight(self, eid: EdgeId) -> Fraction:
        return self.values[self.tree._position(eid)]

    def as_dict(self) -> dict[EdgeId, Fraction]:
        return dict(zip(self.tree.edge_ids, self.values))

    @cached_property
    def _integer_weights(self) -> tuple[int, tuple[int, ...]]:
        """The weights over their common denominator; see _integer_scaled."""
        return _integer_scaled(self.values)

    def to_json_dict(self) -> dict:
        return {
            "tree": tree_to_json_dict(self.tree),
            "weights": {e: str(v) for e, v in zip(self.tree.edge_ids, self.values)},
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "EdgeWeighting":
        if not isinstance(obj, dict):
            raise ValueError(_WEIGHTING_SHAPE)
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
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)

    @classmethod
    def of(cls, n: int, data: Mapping[tuple[int, int], object] | Iterable[object]) -> "DissimilarityVector":
        if isinstance(data, Mapping):
            data = _pair_values(n, (("", i, j, v) for (i, j), v in data.items()))
        return cls(n, tuple(Fraction(str(v)) for v in data))

    def value(self, i: int, j: int) -> Fraction:
        return self.values[_pair_position(self.n, i, j)]

    # The certificate of the four-point condition that is_tropical_point
    # and reconstruct_tree share: each part is computed at most once.

    @cached_property
    def _table(self) -> tuple[list[list[int]], int]:
        """(D, den) with D[i][j] = den * d_ij for a common denominator den.

        _integer_table takes the lcm of the denominators; dissimilarity()
        fills in its own table over the lcm of the edge weights' ones.
        """
        return _integer_table(self)

    @cached_property
    def _realization(self) -> "EdgeWeighting | None":
        """The minimal tree realization of self, or None if self has none.
        Leaf insertion proposes it, and the one acceptance test, which
        certifies the four-point condition, is that its path sums equal
        self on every pair: got[i][j] / den_r == table[i][j] / den."""
        r = _insert_leaves(self)
        if r is None:
            return None
        got, den_r = _path_sums(r)
        table, den = self._table
        if all([x * den for x in g] == [y * den_r for y in row] for g, row in zip(got, table)):
            return r
        return None

    @cached_property
    def _violation(self) -> "QuartetWitness | None":
        """The first quadruple with a unique maximum, or None; see _first_violation."""
        return _first_violation(self)

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
        entries: list[tuple[str, int, int, Fraction]] = []
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
                i, j = _leaf_index(parts[0]), _leaf_index(parts[1])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad leaf index") from exc
            entries.append((f"line {lineno}: ", i, j, parse_rational(parts[2])))
        if not entries:
            raise ValueError("no entries found")
        n = max(max(i, j) for _, i, j, _ in entries)
        return cls(n, tuple(_pair_values(n, entries)))

    def to_json(self) -> str:
        obj = {"n": self.n, "d": {f"{i},{j}": str(v) for (i, j), v in self.as_dict().items()}}
        return json.dumps(obj, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "DissimilarityVector":
        shape = "dissimilarity JSON must be an object with keys 'n' and 'd'"
        obj = _json_object(text, shape)
        if "n" not in obj or "d" not in obj:
            raise ValueError(shape)
        if not isinstance(obj["d"], dict):
            raise ValueError("dissimilarity JSON key 'd' must hold an object of 'i,j' entries")
        n = _json_integer(obj["n"], "dissimilarity JSON key 'n'")
        entries: list[tuple[str, int, int, Fraction]] = []
        for key, v in obj["d"].items():
            try:
                i_s, j_s = str(key).split(",")
                i, j = _leaf_index(i_s), _leaf_index(j_s)
            except ValueError as exc:
                raise ValueError(f"bad pair key {key!r}") from exc
            entries.append(("", i, j, parse_rational(v)))
        return cls(n, tuple(_pair_values(n, entries)))


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
        names = self.pairings()
        a, b, c = self.sums
        tags = ",".join([names[p] for p in self.attained])
        return f"quad {self.quad}: {names[0]}:{a}  {names[1]}:{b}  {names[2]}:{c}  max at {tags}"


# positions of the maximum among three sums, keyed by which sums equal it
_ATTAINED = {
    key: tuple(p for p in range(3) if key[p])
    for key in itertools.product((False, True), repeat=3)
}


def _integer_table(d: DissimilarityVector) -> tuple[list[list[int]], int]:
    """(D, den) with den the lcm of d's denominators and D[i][j] = den * d_ij."""
    den, scaled = _integer_scaled(d.values)
    table = [[0] * (d.n + 1) for _ in range(d.n + 1)]
    for (i, j), x in zip(leaf_pairs(d.n), scaled):
        table[i][j] = table[j][i] = x
    return table, den


def _all_witnesses(d: DissimilarityVector) -> tuple[QuartetWitness, ...]:
    """The witness of every quadruple i<j<k<l, in combinations order."""
    table, den = d._table
    exact: dict[int, Fraction] = {}  # integer sum -> the sum as a rational
    witnesses = []
    for i, j, k, l in itertools.combinations(range(1, d.n + 1), 4):
        di, dj, dk = table[i], table[j], table[k]
        sums = (di[j] + dk[l], di[k] + dj[l], di[l] + dj[k])
        top = max(sums)
        attained = _ATTAINED[sums[0] == top, sums[1] == top, sums[2] == top]
        for s in sums:
            if s not in exact:
                exact[s] = Fraction(s, den)
        witnesses.append(
            QuartetWitness((i, j, k, l), (exact[sums[0]], exact[sums[1]], exact[sums[2]]), attained)
        )
    return tuple(witnesses)


def _first_violation(d: DissimilarityVector) -> QuartetWitness | None:
    """The witness of the first quadruple, in combinations order, whose
    maximum is attained once, or None if there is none.

    The scan compares integer sums only and builds just that one witness.
    """
    table, den = d._table
    n = d.n
    for i in range(1, n - 2):
        di = table[i]
        for j in range(i + 1, n - 1):
            dj, dij = table[j], di[j]
            for k in range(j + 1, n):
                dk, dik, djk = table[k], di[k], dj[k]
                for l, a, b, c in zip(range(k + 1, n + 1), dk[k + 1:], dj[k + 1:], di[k + 1:]):
                    a += dij
                    b += dik
                    c += djk
                    if (a > b and a > c) or (b > a and b > c) or (c > a and c > b):
                        top = max(a, b, c)
                        return QuartetWitness(
                            (i, j, k, l),
                            (Fraction(a, den), Fraction(b, den), Fraction(c, den)),
                            _ATTAINED[a == top, b == top, c == top],
                        )
    return None


class _Witnesses(Sequence):
    """The witnesses of every quadruple of an accepted vector, built on first read.

    Reads like the tuple _all_witnesses(d) gives: the same items, slices,
    equality and hash; only its length is known before the first read.
    """

    __slots__ = ("_d", "_items")

    def __init__(self, d: DissimilarityVector) -> None:
        self._d = d
        self._items: tuple[QuartetWitness, ...] | None = None

    def _built(self) -> tuple[QuartetWitness, ...]:
        if self._items is None:
            self._items = _all_witnesses(self._d)
        return self._items

    def __len__(self) -> int:
        return math.comb(self._d.n, 4)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Witnesses):
            other = other._built()
        return self._built() == other

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


def is_tropical_point(d: DissimilarityVector) -> tuple[bool, Sequence[QuartetWitness]]:
    """Check the four-point condition on every quadruple.

    Returns (True, witnesses) or (False, (first failing witness,)).  A tree
    with nonnegative internal weights that reproduces d certifies the
    condition: leaf insertion proposes one in O(n^2), and the certificate
    of DissimilarityVector._realization is the one test.  An accepted d
    scans no quadruple: `witnesses` is a read-only sequence of all C(n,4)
    witnesses in combinations order, built when first read, that compares
    and hashes equal to the tuple of them.  A rejected d is inserted in
    full and fails the certificate before an integer scan names the first
    quadruple whose maximum is attained once.
    """
    if d.n >= 4 and d._realization is None:
        w = d._violation
        if w is not None:
            return False, (w,)
    return True, _Witnesses(d)


def _path_sums(r: EdgeWeighting) -> tuple[list[list[int]], int]:
    """(D, den) with den the lcm of r's denominators and D[i][j] = den times
    the weight of the path between leaves i and j, from one pass up the
    preorder with no recursion: the leaves below each vertex v gather into
    one list, and a pair whose lists meet at v gets h_i + h_j - 2 h_v, with
    h the height over leaf 1."""
    t = r.tree
    den, w = r._integer_weights
    pre, up, edge, n = t._pre, t._up, t._parent_edge, t.n
    h = [0] * (len(pre) + 1)  # per vertex: den times its height over leaf 1
    for v, p in zip(pre[1:], up[1:]):
        h[v] = h[pre[p]] + w[edge[v]]
    table = [[0] * (n + 1) for _ in range(n + 1)]
    below = [[v] if v <= n else [] for v in pre]  # per position: the leaves met so far below it
    for q in range(len(pre) - 1, 0, -1):
        met = below[up[q]]
        top = 2 * h[pre[up[q]]]
        for b in below[q]:
            row, y = table[b], h[b] - top
            for a in met:
                row[a] = table[a][b] = y + h[a]
        met += below[q]
    return table, den


def dissimilarity(r: EdgeWeighting) -> DissimilarityVector:
    """Path-sum dissimilarity vector of an edge weighting."""
    table, den = _path_sums(r)
    n = r.tree.n
    d = DissimilarityVector(n, tuple([Fraction(x, den) for i in range(1, n) for x in table[i][i + 1 :]]))
    # the integer table over den is at hand; the four-point certificate reads it
    d.__dict__["_table"] = (table, den)
    return d


# ---------------------------------------------------------------------------
# Reconstruction


def _insert_leaves(d: DissimilarityVector) -> EdgeWeighting | None:
    """Build a weighted tree leaf by leaf from Gromov products.

    Returns None only when a Gromov product fails the structural guard
    below; otherwise it always proposes a candidate, which the caller
    accepts only if its path sums reproduce d (see _realization).  Its tree
    comes from the insertion's own parent links (see _canonical_form).
    """
    table, den = d._table
    n = d.n
    # Lengths and positions (distances from leaf 1) are in units of
    # 1/(2 den), so Gromov products are integers.  Adding m/den to every
    # entry lengthens every leaf edge by m units.  In the minimal
    # realization a leaf weight is a Gromov product of d, at least
    # -3 max|den * d| units, so with this m every leaf edge is positive:
    # no leaf lies on the path between two others.
    m = 3 * max(map(abs, itertools.chain.from_iterable(table))) + 1
    d1 = [x + m for x in table[1]]
    parent = [0] * (2 * n)
    pos = [0] * (2 * n)
    parent[2], pos[2] = 1, 2 * d1[2]
    fresh = n + 1
    for x in range(3, n + 1):
        dx = table[x]
        # the attachment point of x lies on the path from leaf 1 to the leaf b with
        # the largest Gromov product (x|b) = (dx[1] + m) + d1[b] - (dx[b] + m) at
        # leaf 1, at that distance
        best, b = max((dx[1] + d1[b] - dx[b], -b) for b in range(2, x))
        b = -b
        # m makes every d pass this guard (each margin is at least 1), but
        # the walk below needs it: positions rise away from leaf 1 (position
        # 0), so internal edges are positive and the walk stops by leaf 1;
        # with best <= 0 it would climb past leaf 1 to vertex 0 forever.
        if not 0 < best < pos[b] or best >= 2 * d1[x]:
            return None
        v = b
        while pos[parent[v]] > best:
            v = parent[v]
        u = parent[v]
        if pos[u] == best:
            attach = u
        else:
            # subdivide the edge (u, v); no internal edge of length 0 arises
            attach, fresh = fresh, fresh + 1
            parent[attach], pos[attach] = u, best
            parent[v] = attach
        parent[x], pos[x] = attach, 2 * d1[x]

    children: list[list[int]] = [[] for _ in range(fresh)]
    for v in range(2, fresh):
        children[parent[v]].append(v)
    edges, pre, up, old2new = _canonical_form(n, parent, children)
    tree = LabeledTree._from_canonical(n, edges, pre, up)
    edge = tree._parent_edge
    values = [Fraction(0)] * len(tree.edges)
    for v in range(2, fresh):
        u = parent[v]
        length = pos[v] - pos[u]
        if v <= n or u == 1:  # a leaf edge: take the shift back off
            length -= m
        # v lies away from leaf 1 here, so it is the edge's child in the tree too
        values[edge[old2new[v]]] = Fraction(length, 2 * den)
    return EdgeWeighting(tree, tuple(values))


class NotTropicalError(ValueError):
    """A vector fails the four-point condition at quartet `witness`."""

    def __init__(self, witness: QuartetWitness) -> None:
        super().__init__(
            f"not a tropical point: quadruple {witness.quad} has a unique maximum ({witness.describe()})"
        )
        self.witness = witness


def reconstruct_tree(d: DissimilarityVector) -> tuple[LabeledTree, EdgeWeighting]:
    """Recover the minimal tree and edge weighting realizing a tropical point.

    Internal edges of the result have strictly positive weight; boundary
    points therefore come back on partially contracted (non-trivalent)
    trees.  Raises NotTropicalError, a ValueError carrying the first
    violating quadruple, if d fails the four-point condition.
    """
    if d.n < 3:
        raise ValueError(f"reconstruction needs at least 3 leaves, got n={d.n}")
    r = d._realization
    if r is not None:
        return r.tree, r
    w = d._violation
    if w is None:
        raise RuntimeError("leaf insertion failed on a vector that satisfies the four-point condition")
    raise NotTropicalError(w)


def cone_of(d: DissimilarityVector) -> LabeledTree:
    """The tree indexing the cone containing d (minimal realization)."""
    return reconstruct_tree(d)[0]
