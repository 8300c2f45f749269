"""Polynomials in the Pluecker variables p_ij and the straightening law.

Variables are indexed by pairs i < j of positive integers.  For four
labels i < j < k < l the determinantal identity

    p_ik * p_jl = p_ij * p_kl + p_il * p_jk

lets us rewrite any product containing a crossing pair of chords into
products that do not cross.  Crossing is judged against a circular order
of the labels; the default is 1..n, and planar trees pass their own leaf
order.  Each rewrite strictly lowers the total number of crossing chord
pairs, so straightening terminates, and the crossing-free expansion it
lands on is unique.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, TypeVar

Pair = tuple[int, int]
Exps = tuple[tuple[Pair, int], ...]  # a monomial's sorted (pair, exponent) items
Terms = tuple[tuple[Exps, Fraction], ...]
_T = TypeVar("_T")


def _check_pair(p: Pair) -> Pair:
    i, j = p
    if not (isinstance(i, int) and isinstance(j, int)) or i < 1 or j < 1:
        raise ValueError(f"variable indices must be positive integers, got ({i}, {j})")
    if i >= j:
        raise ValueError(f"variable indices must be increasing, got ({i}, {j})")
    return (i, j)


@dataclass(frozen=True)
class PlueckerMonomial:
    """Product of variables p_ij with positive integer exponents."""

    exps: tuple[tuple[Pair, int], ...]

    def __post_init__(self) -> None:
        seen: dict[Pair, int] = {}
        for p, e in self.exps:
            p = _check_pair(tuple(p))
            if not isinstance(e, int) or e <= 0:
                raise ValueError(f"exponent of p{p} must be a positive integer, got {e!r}")
            seen[p] = seen.get(p, 0) + e
        object.__setattr__(self, "exps", tuple(sorted(seen.items())))

    @classmethod
    def of(cls, data: Mapping[Pair, int] | Iterable[Pair]) -> "PlueckerMonomial":
        """From an exponent map, or from a list of pairs with repetition."""
        if isinstance(data, Mapping):
            return cls(tuple((p, e) for p, e in data.items() if e != 0))
        return cls(tuple((tuple(p), 1) for p in data))

    @classmethod
    def one(cls) -> "PlueckerMonomial":
        return cls(())

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def is_constant(self) -> bool:
        return not self.exps

    def expanded(self) -> tuple[Pair, ...]:
        """The variables with repetition, sorted."""
        out: list[Pair] = []
        for p, e in self.exps:
            out.extend([p] * e)
        return tuple(out)

    def as_dict(self) -> dict[Pair, int]:
        return dict(self.exps)

    def support(self) -> tuple[Pair, ...]:
        return tuple(p for p, _ in self.exps)

    def max_label(self) -> int:
        return max((j for (_, j), _ in self.exps), default=0)

    def __mul__(self, other: "PlueckerMonomial") -> "PlueckerMonomial":
        merged = self.as_dict()
        for p, e in other.exps:
            merged[p] = merged.get(p, 0) + e
        return PlueckerMonomial(tuple(merged.items()))


@dataclass(frozen=True)
class PlueckerPolynomial:
    """Linear combination of monomials with nonzero rational coefficients."""

    terms: tuple[tuple[PlueckerMonomial, Fraction], ...]

    def __post_init__(self) -> None:
        merged: dict[PlueckerMonomial, Fraction] = {}
        for m, c in self.terms:
            c = Fraction(c)
            if c != 0:
                merged[m] = merged.get(m, Fraction(0)) + c
        clean = tuple(
            (m, c)
            for m, c in sorted(merged.items(), key=lambda mc: (-mc[0].degree, mc[0].exps))
            if c != 0
        )
        object.__setattr__(self, "terms", clean)

    @classmethod
    def of(cls, data: Mapping[PlueckerMonomial, object] | Iterable[tuple[PlueckerMonomial, object]]) -> "PlueckerPolynomial":
        items = data.items() if isinstance(data, Mapping) else data
        return cls(tuple((m, Fraction(str(c))) for m, c in items))

    @classmethod
    def zero(cls) -> "PlueckerPolynomial":
        return cls(())

    @classmethod
    def constant(cls, c: object) -> "PlueckerPolynomial":
        return cls(((PlueckerMonomial.one(), Fraction(str(c))),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: PlueckerMonomial) -> Fraction:
        for mm, c in self.terms:
            if mm == m:
                return c
        return Fraction(0)

    def monomials(self) -> tuple[PlueckerMonomial, ...]:
        return tuple(m for m, _ in self.terms)

    def max_label(self) -> int:
        return max((m.max_label() for m, _ in self.terms), default=0)

    def max_degree(self) -> int:
        return max((m.degree for m, _ in self.terms), default=0)

    def __add__(self, other: "PlueckerPolynomial") -> "PlueckerPolynomial":
        return PlueckerPolynomial(self.terms + other.terms)

    def __neg__(self) -> "PlueckerPolynomial":
        return PlueckerPolynomial(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "PlueckerPolynomial") -> "PlueckerPolynomial":
        return self + (-other)

    def __mul__(self, other: "PlueckerPolynomial") -> "PlueckerPolynomial":
        out: list[tuple[PlueckerMonomial, Fraction]] = []
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                out.append((m1 * m2, c1 * c2))
        return PlueckerPolynomial(tuple(out))

    def scaled(self, c: object) -> "PlueckerPolynomial":
        return PlueckerPolynomial(tuple((m, cc * Fraction(str(c))) for m, cc in self.terms))


def p(i: int, j: int) -> PlueckerPolynomial:
    """The generator p_ij as a polynomial."""
    return PlueckerPolynomial(((PlueckerMonomial.of([(i, j)]), Fraction(1)),))


def three_term_relation(i: int, j: int, k: int, l: int) -> PlueckerPolynomial:
    """p_ij p_kl - p_ik p_jl + p_il p_jk for i<j<k<l; vanishes on 2xn minors."""
    if not i < j < k < l:
        raise ValueError(f"need i < j < k < l, got ({i}, {j}, {k}, {l})")
    return p(i, j) * p(k, l) - p(i, k) * p(j, l) + p(i, l) * p(j, k)


# ---------------------------------------------------------------------------
# Crossing and straightening


def _positions(order: Sequence[int] | None, labels: Iterable[int]) -> dict[int, int]:
    if order is None:
        return {x: x for x in labels}
    pos = {x: k for k, x in enumerate(order)}
    if len(pos) < len(order):
        # a repeated label keeps only its last position in pos
        repeated = sorted({x for k, x in enumerate(order) if pos[x] != k})
        raise ValueError(f"labels {repeated} repeat in the circular order")
    missing = [x for x in labels if x not in pos]
    if missing:
        raise ValueError(f"labels {sorted(set(missing))} not in the circular order")
    return pos


def _first_crossing(sup: Sequence[Pair], pos: Mapping[int, int]) -> tuple[Pair, Pair] | None:
    """Lexicographically smallest pair of crossing chords in a sorted support, or None.

    Chords a and b cross in the circular order pos when exactly one end of
    b lies strictly inside the arc spanned by a; chords sharing a label
    never cross.
    """
    arcs = [(pos[i], pos[j]) if pos[i] < pos[j] else (pos[j], pos[i]) for i, j in sup]
    for x, (a0, a1) in enumerate(arcs):
        for y in range(x + 1, len(arcs)):
            b0, b1 = arcs[y]
            if a0 < b0 < a1 < b1 or b0 < a0 < b1 < a1:
                return sup[x], sup[y]
    return None


def is_noncrossing(m: PlueckerMonomial, order: Sequence[int] | None = None) -> bool:
    """True iff no two support variables cross (circular order 1..n by default)."""
    sup = m.support()
    return _first_crossing(sup, _positions(order, (x for pr in sup for x in pr))) is None


def _rewrite(u: Pair, v: Pair) -> tuple[tuple[Pair, Pair, int], tuple[Pair, Pair, int]]:
    """Replacements for the product p_u p_v of a crossing pair.

    Returns two (pair, pair, sign) triples whose signed sum equals p_u p_v
    modulo the Pluecker ideal, by the three-term relation on the four
    labels involved.
    """
    i, j, k, l = sorted(set(u) | set(v))
    disjoint = ((i, j), (k, l))
    middle = ((i, k), (j, l))
    nested = ((i, l), (j, k))
    pair_set = {u, v}
    if pair_set == set(middle):
        return (*disjoint, 1), (*nested, 1)
    if pair_set == set(disjoint):
        return (*middle, 1), (*nested, -1)
    if pair_set == set(nested):
        return (*middle, 1), (*disjoint, -1)
    raise AssertionError(f"{u}, {v} is not a pairing of four labels")


def _in_normal_form(cls: type[_T], **fields: object) -> _T:
    """An instance of a frozen class from fields already in its normal form.

    Skips __post_init__, which would only re-validate, re-merge and
    re-sort what the caller already keeps checked, sorted and merged
    (straightening's terms, or a valuation's edge order).
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _desc_key(exps: Exps) -> tuple[int, ...]:
    """Heap key that pops the largest monomial first.

    Monomials are ordered by degree, then lexicographically on their
    exponent tuples.  The key flattens (degree, exps) and negates every
    entry; two monomials of equal degree are never a proper prefix of one
    another, so the negation reverses the order exactly.
    """
    key = [-sum(e for _, e in exps)]
    for (i, j), e in exps:
        key += (-i, -j, -e)
    return tuple(key)


def _multiply(exps: Exps, drop: tuple[Pair, Pair], add: tuple[Pair, Pair]) -> Exps:
    """exps with one factor of each pair in drop replaced by the pairs in add."""
    out = dict(exps)
    for pr in drop:
        out[pr] -= 1
    for pr in add:
        out[pr] = out.get(pr, 0) + 1
    return tuple(sorted((pr, e) for pr, e in out.items() if e))


# 256 entries hold the expansions of all 185 crossing products of 2 to 6
# of the octagon's four diameters (0.8 MB under tracemalloc), so recurring
# crossing-heavy products never evict one another.  An entry grows with its
# crossing part: the perfbench valuations mix (64 hits and 9-13 misses per
# cycle) fills the memo to 0.9 MB, random 6-term degree-6 polynomials on 8
# labels fill it to 4.9 MB and 4-term degree-8 ones to 7.3 MB, and memory
# stays flat however many distinct inputs a process straightens.
@lru_cache(maxsize=256)
def _unit_normal_form(items: Terms, order: tuple[int, ...] | None) -> Terms:
    """The crossing-free expansion of a crossing part scaled to first coefficient 1.

    items are the crossing monomials with their coefficients; order is
    the circular order as a tuple, or None for 1..n, and holds every
    label of items (the caller checks).  All items share one worklist
    run, so the rewrites of different monomials meet and cancel (as for
    relation*g + h).  Crossing-free monomials go straight to the result;
    crossing ones wait in a pending map with their smallest crossing
    pair, found once, and a heap keyed by _desc_key hands out the
    largest.  A heap entry whose monomial has meanwhile cancelled to 0
    is skipped.
    """
    pos = _positions(order, (x for exps, _ in items for pr, _ in exps for x in pr))
    done: dict[Exps, Fraction] = {}
    pending: dict[Exps, Fraction] = {}
    first_crossing: dict[Exps, tuple[Pair, Pair]] = {}
    heap: list[tuple[tuple[int, ...], Exps]] = []

    def add(exps: Exps, c: Fraction) -> None:
        if exps in done:
            done[exps] += c
            return
        if exps in pending:
            c += pending[exps]
            if c:
                pending[exps] = c
            else:
                del pending[exps]
            return
        hit = first_crossing.get(exps)
        if hit is None:
            hit = _first_crossing([pr for pr, _ in exps], pos)
            if hit is None:
                done[exps] = c
                return
            first_crossing[exps] = hit
        pending[exps] = c
        heapq.heappush(heap, (_desc_key(exps), exps))

    for exps, c in items:
        add(exps, c)
    while heap:
        _, exps = heapq.heappop(heap)
        coeff = pending.pop(exps, None)
        if coeff is None:
            continue
        u, v = first_crossing[exps]
        for a, b, sign in _rewrite(u, v):
            add(_multiply(exps, (u, v), (a, b)), coeff if sign > 0 else -coeff)
    return tuple((e, c) for e, c in done.items() if c)


def straighten(f: PlueckerPolynomial, order: Sequence[int] | None = None) -> PlueckerPolynomial:
    """Expand f over crossing-free monomials for the given circular order.

    The result is equal to f modulo the Pluecker ideal and is supported on
    monomials without crossing pairs.  The rewrite loop always picks the
    largest remaining monomial (degree, then lexicographic) and its
    smallest crossing pair, which makes intermediate traces deterministic;
    the final expansion does not depend on this choice.

    f splits into its crossing-free terms and its crossing part.  The
    crossing part, divided by its first coefficient, is expanded in one
    rewrite run by _unit_normal_form, a bounded memo keyed by that part
    and the circular order; the expansion times that coefficient is
    added to the crossing-free terms.  So a recurring crossing part, at
    any scale, is rewritten once.  The order is checked against f's
    labels before any lookup.
    """
    pos = _positions(order, {x for m, _ in f.terms for pr in m.support() for x in pr})
    done: dict[Exps, Fraction] = {}
    crossing: list[tuple[Exps, Fraction]] = []
    for m, c in f.terms:
        if _first_crossing(m.support(), pos) is None:
            done[m.exps] = c
        else:
            crossing.append((m.exps, c))
    if not crossing:
        return f
    first = crossing[0][1]
    key = None if order is None else tuple(order)
    for e, u in _unit_normal_form(tuple((exps, c / first) for exps, c in crossing), key):
        done[e] = done[e] + first * u if e in done else first * u
    terms = sorted(
        ((exps, c) for exps, c in done.items() if c),
        key=lambda ec: (-sum(e for _, e in ec[0]), ec[0]),
    )
    return _in_normal_form(
        PlueckerPolynomial,
        terms=tuple((_in_normal_form(PlueckerMonomial, exps=exps), c) for exps, c in terms),
    )


# ---------------------------------------------------------------------------
# Text format: "c * p[i,j]^e * ..." terms joined by + / -


def format_polynomial(f: PlueckerPolynomial) -> str:
    if f.is_zero:
        return "0"
    parts: list[str] = []
    for idx, (m, c) in enumerate(f.terms):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        factors = [
            f"p[{i},{j}]" + (f"^{e}" if e > 1 else "") for (i, j), e in m.exps
        ]
        if m.is_constant:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if idx == 0:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


# One factor and the sign or '*' before it: p[i,j] with an optional exponent,
# or a coefficient a, a/b or a decimal.  The exponent takes every digit, '.'
# and '/' after the '^', so "^1.5" and "^1/2" are refused whole instead of
# read as an exponent times a coefficient.
_FACTOR = re.compile(
    r"\s*(?P<join>[-+*]?)\s*"
    r"(?:p\[\s*(?P<i>\d+)\s*,\s*(?P<j>\d+)\s*\](?:\s*\^\s*(?P<exp>[\d./]*))?|(?P<num>\d+(?:/\d+)?|\d*\.\d+))",
    re.ASCII,
)


def parse_polynomial(text: str) -> PlueckerPolynomial:
    """Parse the format produced by format_polynomial.

    Factors are joined by '*' or blanks and terms by '+' or '-'; the text
    may open with a sign, and "0" is the zero polynomial.
    """
    text = text.strip()
    if text == "0":
        return PlueckerPolynomial.zero()
    monomials: list[dict[Pair, int]] = []
    coeffs: list[Fraction] = []
    pos = 0
    while pos < len(text):
        m = _FACTOR.match(text, pos)
        if m is None or (m["join"] == "*" and not coeffs):
            raise ValueError(f"cannot parse polynomial at ...{text[pos:pos + 20]!r}")
        if m["join"] in ("+", "-") or not coeffs:
            monomials.append({})
            coeffs.append(Fraction(-1 if m["join"] == "-" else 1))
        if m["num"] is not None:
            try:
                coeffs[-1] *= Fraction(m["num"])
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in coefficient {m['num']!r}") from None
        else:
            exp = m["exp"]
            if exp is not None and not exp.isdecimal():
                raise ValueError("exponent must be a plain integer")
            pr = _check_pair((int(m["i"]), int(m["j"])))
            monomials[-1][pr] = monomials[-1].get(pr, 0) + (1 if exp is None else int(exp))
        pos = m.end()
    if not coeffs:
        raise ValueError("empty polynomial")
    return PlueckerPolynomial(tuple((PlueckerMonomial.of(e), c) for e, c in zip(monomials, coeffs)))
