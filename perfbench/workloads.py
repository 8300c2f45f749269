"""The four benchmark workloads: seeded inputs, the library calls, and their checks.

A workload runs cycles of ops.  Each op belongs to a kind (for example
`rt-n12`, a round trip on 12 leaves); the number of ops of each kind in a
cycle is its share of the mix.  Cycle k draws fresh inputs from a random
generator seeded with the workload, the seed and k, so no input recurs
unless the mix makes it recur on purpose, and the same seed gives the same
cycles however many of them fit in a run.  An op's `run` is the timed library work;
its `check` runs afterwards, untimed, and compares the result with the
independent recomputations in `oracles`.  It returns "ok", "wrong" (a
result that does not match) or "error" (a crash signalled by the
program itself, such as a traceback from the CLI).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path
from typing import Callable

import oracles as O

NAMES = ("tree-metrics", "valuations", "semigroup-ideals", "cli-small")

# The first tree of enumerate_trivalent(8); with 10 samples and seed 0 the
# Gorenstein witness check raises RuntimeError on it.
GORENSTEIN_REPRO = ((1, 9), (2, 9), (3, 10), (4, 11), (5, 12), (6, 13), (7, 14), (8, 14),
                    (9, 10), (10, 11), (11, 12), (12, 13), (13, 14))


@dataclass
class Op:
    kind: str
    desc: str
    run: Callable[[], object]
    check: Callable[[object], str]


@dataclass
class Workload:
    name: str
    seed: int
    gt: object
    mix: list  # (factory, argument, ops per cycle)
    runner: "CliRunner | None" = None
    defects: list = field(default_factory=list)  # (factory, argument) of each known-defect probe
    shares: dict[str, float] = field(default_factory=dict)  # each kind's share of a cycle
    cycle_ops: int = 0
    _first: list[Op] | None = None

    def prepare(self) -> None:
        """Build cycle 0 (part of set-up) and the shares of the mix."""
        self._first = self._build(0)
        self.cycle_ops = len(self._first)
        for op in self._first:
            self.shares[op.kind] = self.shares.get(op.kind, 0.0) + 1.0 / self.cycle_ops

    def cycle(self, k: int) -> list[Op]:
        """Cycle k; cycle 0 is the one `prepare` built, handed out once so it is not kept alive."""
        if k == 0 and self._first is not None:
            ops, self._first = self._first, None
            return ops
        return self._build(k)

    def known_defects(self) -> list[Op]:
        """The known-defect probes: the same inputs for every seed, kept out of the timed cycles."""
        rng = random.Random(f"{self.name}:known-defects")
        return [factory(self.gt, rng, arg) for factory, arg in self.defects]

    def _build(self, k: int) -> list[Op]:
        """Fresh inputs from the seed and k, each kind spread evenly over the cycle."""
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        return interleave([[factory(self.gt, rng, arg) for _ in range(count)] for factory, arg, count in self.mix])


def verdict(ok: bool) -> str:
    return "ok" if ok else "wrong"


def interleave(groups: list[list[Op]]) -> list[Op]:
    """Spread each kind evenly over the cycle; the order depends only on the counts."""
    keyed = [
        ((k + 0.5) / len(ops), g, op)
        for g, ops in enumerate(groups)
        for k, op in enumerate(ops)
    ]
    keyed.sort(key=lambda item: item[:2])
    return [op for _, _, op in keyed]


# ---------------------------------------------------------------------------
# Random inputs


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform trivalent tree: leaf k joins a uniformly chosen edge of the tree on k-1 leaves."""
    edges = [(1, n + 1), (2, n + 1), (3, n + 1)]
    fresh = n + 2
    for k in range(4, n + 1):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, fresh), (v, fresh), (k, fresh)]
        fresh += 1
    return edges


def random_weights(rng: random.Random, n: int, edges) -> dict[str, Fraction]:
    """Rational leaf weights of either sign, strictly positive internal weights."""
    out = {}
    for name in O.edge_order(n, edges):
        if name.startswith("l"):
            out[name] = Fraction(rng.randint(-4, 6), rng.randint(1, 3))
        else:
            out[name] = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    return out


def random_rational(rng: random.Random) -> Fraction:
    c = Fraction(0)
    while c == 0:
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return c


def random_terms(rng: random.Random, n: int, max_terms: int, max_degree: int):
    all_pairs = O.pairs(n)
    return [
        (tuple(sorted(rng.choice(all_pairs) for _ in range(rng.randint(0, max_degree)))), random_rational(rng))
        for _ in range(rng.randint(1, max_terms))
    ]


def polynomial(gt, terms):
    return gt.PlueckerPolynomial.of([(gt.PlueckerMonomial.of(list(prs)), c) for prs, c in terms])


def random_polynomial(gt, rng: random.Random, n: int, max_terms: int, max_degree: int):
    """A nonzero random polynomial and its terms."""
    while True:
        terms = random_terms(rng, n, max_terms, max_degree)
        f = polynomial(gt, terms)
        if not f.is_zero:
            return f, terms


def terms_of(poly) -> list:
    return [([pr for pr, e in m.exps for _ in range(e)], c) for m, c in poly.terms]


def random_matrix(rng: random.Random, n: int):
    return tuple(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)) for _ in range(2))


def perturb(rng: random.Random, n: int, d: dict) -> dict:
    """Raise one pair of a maximal pairing of a random quartet by 1."""
    i, j, k, l = sorted(rng.sample(range(1, n + 1), 4))
    pairings = (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))
    sums = O.quartet_sums(d, i, j, k, l)
    top = max(sums)
    hit = [p for p, s in zip(pairings, sums) if s == top]
    pair = rng.choice(rng.choice(hit))
    bad = dict(d)
    bad[pair] += 1
    return bad


# ---------------------------------------------------------------------------
# tree-metrics


def _round_trip(gt, rng, n):
    edges = random_tree_edges(rng, n)
    weights = random_weights(rng, n, edges)
    t = gt.LabeledTree(n, tuple(edges))
    r = gt.EdgeWeighting.of(t, weights)

    def run():
        d = gt.dissimilarity(r)
        ok, _ = gt.is_tropical_point(d)
        t2, r2 = gt.reconstruct_tree(d)
        return d, ok, t2, r2

    def check(res):
        d, ok, t2, r2 = res
        expect = O.path_sums(n, edges, weights)
        return verdict(
            ok
            and d.values == tuple(expect[pr] for pr in O.pairs(n))
            and list(t2.edges) == O.canonical_edges(n, edges)
            and r2.as_dict() == weights
        )

    return Op(f"rt-n{n}", f"rt {n} {sorted(edges)} {sorted(weights.items())}", run, check)


def _perturbed(gt, rng, sizes):
    n = rng.randint(*sizes)
    edges = random_tree_edges(rng, n)
    weights = random_weights(rng, n, edges)
    bad = perturb(rng, n, O.path_sums(n, edges, weights))
    dv = gt.DissimilarityVector.of(n, bad)

    def run():
        ok, witnesses = gt.is_tropical_point(dv)
        try:
            gt.reconstruct_tree(dv)
        except ValueError:
            return ok, witnesses, True
        return ok, witnesses, False

    def check(res):
        ok, witnesses, refused = res
        return verdict(not ok and refused and [w.quad for w in witnesses] == [O.first_violation(n, bad)])

    return Op("perturb-n{}-{}".format(*sizes), f"perturb {n} {sorted(bad.items())}", run, check)


def _enumerate(gt, rng, n):
    def run():
        return gt.enumerate_trivalent(n)

    def check(trees):
        keys = [O.enumeration_order_key(n, t.edges) for t in trees]
        return verdict(
            len(trees) == O.double_factorial(2 * n - 5)
            and len({O.internal_splits(n, t.edges) for t in trees}) == len(trees)
            and all(O.is_trivalent(n, t.edges) for t in trees)
            and keys == sorted(keys)
        )

    return Op(f"enum-n{n}", f"enum {n}", run, check)


TREE_MIX = {
    "full": [(_round_trip, n, c) for n, c in ((6, 200), (7, 140), (8, 120), (9, 60), (10, 48), (12, 32), (14, 16),
                                             (16, 24), (24, 2), (32, 1))]
    + [(_perturbed, (6, 10), 80), (_perturbed, (12, 16), 40)]
    + [(_enumerate, n, c) for n, c in ((4, 8), (5, 12), (6, 8), (7, 2))],
    "tiny": [(_round_trip, 6, 3), (_round_trip, 9, 1), (_perturbed, (6, 10), 2), (_enumerate, 5, 1)],
}


# ---------------------------------------------------------------------------
# valuations


def _axioms(gt, rng, n):
    edges = random_tree_edges(rng, n)
    t = gt.LabeledTree(n, tuple(edges))
    weights = random_weights(rng, n, edges)
    r = gt.EdgeWeighting.of(t, weights)
    order = O.edge_order(n, edges)
    rng.shuffle(order)
    f, f_terms = random_polynomial(gt, rng, n, 3, 3)
    g, g_terms = random_polynomial(gt, rng, n, 3, 3)
    inputs = [f, g, f * g] + ([] if (f + g).is_zero else [f + g])

    def run():
        return (
            [gt.tropical_weight(r, h) for h in inputs],
            [gt.rank_valuation(t, order, h).values for h in inputs],
        )

    def check(res):
        tw, rv = res
        ok = tw[2] == tw[0] + tw[1] and rv[2] == tuple(a + b for a, b in zip(rv[0], rv[1]))
        if len(inputs) == 4:
            ok = ok and tw[3] <= max(tw[0], tw[1]) and rv[3] <= max(rv[0], rv[1])
        return verdict(ok)

    desc = f"axioms {n} {sorted(edges)} {sorted(weights.items())} {order} {f_terms} {g_terms}"
    return Op(f"axioms-n{n}", desc, run, check)


def _straighten_op(gt, rng, kind, terms):
    f = polynomial(gt, terms)
    mats = [random_matrix(rng, 8) for _ in range(2)]

    def run():
        return gt.straighten(f)

    def check(g):
        got = terms_of(g)
        return verdict(
            all(O.noncrossing(prs) for prs, _ in got)
            and all(O.eval_on_minors(got, *m) == O.eval_on_minors(terms, *m) for m in mats)
        )

    return Op(kind, f"{kind} {terms}", run, check)


DIAMETERS = ((1, 5), (2, 6), (3, 7), (4, 8))


def _crossing_heavy(gt, rng, degree):
    """Product of `degree` diameters of the octagon taken cyclically from a random start.

    All four diameters cross each other, so every input needs many
    rewrites, and the few distinct sub-products recur across ops.
    """
    start = rng.randrange(4)
    prs = tuple(sorted(DIAMETERS[(start + k) % 4] for k in range(degree)))
    return _straighten_op(gt, rng, f"straighten-d{degree}", [(prs, random_rational(rng))])


def _crossing_free(gt, rng, _):
    """One to three terms, each a random crossing-free monomial on 8 labels."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        prs: list[tuple[int, int]] = []
        for _ in range(rng.randint(2, 6)):
            cands = [p for p in O.pairs(8) if O.noncrossing(prs + [p])]
            prs.append(rng.choice(cands))
        terms.append((tuple(sorted(prs)), random_rational(rng)))
    return _straighten_op(gt, rng, "straighten-free", terms)


def _unique_poly(gt, rng, _):
    n = rng.randint(5, 8)
    return _straighten_op(gt, rng, "straighten-rand", random_polynomial(gt, rng, n, 3, 4)[1])


VALUATION_MIX = {
    "full": [(_axioms, n, c) for n, c in ((5, 60), (6, 60), (7, 50), (8, 40))]
    + [(_crossing_heavy, d, c) for d, c in ((4, 20), (5, 20), (6, 16), (7, 6), (8, 2))]
    + [(_crossing_free, None, 20), (_unique_poly, None, 30)],
    "tiny": [(_axioms, 5, 2), (_axioms, 6, 1), (_crossing_heavy, 4, 1), (_crossing_free, None, 1), (_unique_poly, None, 1)],
}


# ---------------------------------------------------------------------------
# semigroup-ideals


def _tree(gt, rng, n):
    edges = random_tree_edges(rng, n)
    return edges, gt.LabeledTree(n, tuple(edges))


def _box(gt, rng, size):
    """Every weight in [0, m]^edges: membership, invariant dimension, decomposition, count."""
    n, m = size
    edges, t = _tree(gt, rng, n)
    order = O.edge_order(n, edges)
    points = list(product(range(m + 1), repeat=len(order)))

    def run():
        out = []
        for vec in points:
            s = gt.SigmaWeight(t, vec)
            member = gt.in_semigroup(t, s)
            out.append((member, gt.invariant_dim(t, s), gt.decompose(t, s) if member else None))
        return out, gt.graded_count(t, box_bound=m)

    def check(res):
        rows, count = res
        if list(t.edge_ids) != order:
            return "wrong"
        triples = O.vertex_triples(n, edges, order)
        paths = O.path_names(n, edges)
        planar = O.planar_order(n, edges)
        index = {name: k for k, name in enumerate(order)}
        members = 0
        for vec, (member, inv, dec) in zip(points, rows):
            expect = O.member(triples, vec)
            if member != expect or inv != int(expect):
                return "wrong"
            if not member:
                continue
            members += 1
            back = [0] * len(order)
            for pr in dec:
                for e in paths[pr]:
                    back[index[e]] += 1
            if tuple(back) != vec or not O.noncrossing(list(dec), planar):
                return "wrong"
        return verdict(members == count)

    return Op(f"box-n{n}m{m}", f"box {n} {m} {sorted(edges)}", run, check)


def _graded(gt, rng, size):
    n, d = size
    edges, t = _tree(gt, rng, n)

    def run():
        return gt.graded_count(t, plucker_degree=d)

    return Op("graded", f"graded {sorted(edges)} {d}", run, lambda c: verdict(c == O.hook_content(n, d)))


def _gorenstein(gt, rng, n, edges=None, seed=None):
    if edges is None:
        edges = random_tree_edges(rng, n)
    seed = rng.randrange(10**6) if seed is None else seed
    t = gt.LabeledTree(n, tuple(edges))

    def run():
        return gt.gorenstein_witness_check(t, 10, seed=seed)

    return Op(f"gorenstein-n{n}", f"gorenstein {sorted(edges)} {seed}", run, lambda ok: verdict(ok is True))


def _hilbert(gt, rng, size):
    n, d = size
    edges, t = _tree(gt, rng, n)
    n_vars = comb(n, 2)

    def run():
        return gt.initial_ideal_hilbert_check(t, d, max_monomials=comb(n_vars + d - 1, d))

    def check(rep):
        ok = rep.passed and [row.d for row in rep.degrees] == list(range(1, d + 1))
        for row in rep.degrees:
            monomials = comb(n_vars + row.d - 1, row.d)
            expect = O.hook_content(n, row.d)
            ok = ok and (row.monomials, row.quotient, row.semigroup_count, row.ideal_dim) == (
                monomials, expect, expect, monomials - expect)
        return verdict(ok)

    return Op(f"hilbert-n{n}d{d}", f"hilbert {sorted(edges)} {d}", run, check)


def _gorenstein_repro(gt, rng, _):
    return _gorenstein(gt, rng, 8, GORENSTEIN_REPRO, 0)


SEMIGROUP_MIX = {
    "full": [(_box, s, c) for s, c in (((4, 2), 60), ((5, 1), 60), ((6, 1), 30), ((4, 3), 16), ((5, 2), 8))]
    + [(_graded, (n, d), 34) for n in (4, 5, 6, 7, 8) for d in (1, 2, 3, 4, 5)]
    + [(_gorenstein, n, c) for n, c in ((4, 120), (5, 80), (6, 30), (7, 4))]
    + [(_hilbert, s, c) for s, c in (((4, 3), 80), ((5, 3), 40), ((6, 3), 12), ((5, 4), 20), ((7, 3), 1),
                                     ((6, 4), 1), ((8, 3), 1))],
    "tiny": [(_box, (4, 1), 2), (_graded, (6, 3), 2), (_gorenstein, 5, 2), (_hilbert, (4, 3), 1)],
}


# ---------------------------------------------------------------------------
# cli-small


CHILD = Path(__file__).resolve().parent / "cli_child.py"


class CliRunner:
    """Runs one `grasstrop` request at a time from the checkout's sources.

    While `tracer` is set, requests go through cli_child.py, which traces
    the CLI inside the child; its spans join `tracer` under one
    `cli.request` span per request.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.tracer = None
        self.spans_file = root / ".perfbench" / f"child-{os.getpid()}.json"

    def startup_s(self) -> float:
        """Wall time of a fresh interpreter importing grasstrop.cli: what every request waits for first.

        Output goes to pipes, so the end is seen when they close: with a
        timeout and no pipes, subprocess polls for the exit in steps of up
        to 50 ms.
        """
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import grasstrop.cli"], env=self.env, cwd=self.root, check=True,
                       capture_output=True, timeout=120)
        return time.perf_counter() - t0

    def _run(self, cmd: list[str], env: dict, stdin: str) -> subprocess.CompletedProcess:
        return subprocess.run(cmd, input=stdin, capture_output=True, text=True, env=env, cwd=self.root, timeout=120)

    def __call__(self, args: list[str], stdin: str) -> subprocess.CompletedProcess:
        if self.tracer is None:
            return self._run([sys.executable, "-m", "grasstrop.cli"] + args, self.env, stdin)
        self.spans_file.parent.mkdir(exist_ok=True)
        env = dict(self.env, PERFBENCH_SPANS=str(self.spans_file))
        idx = self.tracer.begin(self.tracer.name_index("cli.request"))
        raised = True
        try:
            proc = self._run([sys.executable, str(CHILD)] + args, env, stdin)
            raised = False
        finally:
            self.tracer.finish(idx, raised)
        if self.spans_file.exists():
            self.tracer.merge(json.loads(self.spans_file.read_text(encoding="utf-8")), idx)
            self.spans_file.unlink()
        return proc


def cli_verdict(proc, code: int, stdout: str, stderr_prefix: str) -> str:
    if "Traceback" in proc.stderr:
        return "error"
    return verdict(proc.returncode == code and proc.stdout == stdout and proc.stderr.startswith(stderr_prefix))


def _cli_op(runner, kind, args, stdin, expect: Callable[[], tuple[int, str, str]]):
    def check(proc):
        code, stdout, prefix = expect()
        return cli_verdict(proc, code, stdout, prefix)

    return Op(kind, f"{kind} {args} {stdin!r}", lambda: runner(args, stdin), check)


def _tsv(n, d) -> str:
    return "i\tj\td_ij\n" + "".join(f"{i}\t{j}\t{d[(i, j)]}\n" for i, j in O.pairs(n))


def _vector_json(n, d) -> str:
    return json.dumps({"n": n, "d": {f"{i},{j}": str(d[(i, j)]) for i, j in O.pairs(n)}}, separators=(",", ":"))


def _weighted_tree(rng):
    n = rng.randint(4, 8)
    edges = random_tree_edges(rng, n)
    weights = random_weights(rng, n, edges)
    return n, edges, weights, O.path_sums(n, edges, weights)


def _cli_enumerate(runner, rng, variant):
    fmt, n = variant
    args = ["trees", "enumerate", "--n", str(n)] + ({"count": ["--count"], "newick": ["--format", "newick"]}.get(fmt, []))

    def expect():
        if fmt == "count":
            return 0, f"{O.double_factorial(2 * n - 5)}\n", ""
        trees = sorted((O.canonical_edges(n, e) for e in O.insertion_trees(n)),
                       key=lambda e: O.enumeration_order_key(n, e))
        render = (lambda e: O.newick(n, e)) if fmt == "newick" else (lambda e: O.canonical_json_tree(n, e))
        return 0, "".join(render(e) + "\n" for e in trees), ""

    return _cli_op(runner, f"enumerate-{fmt}-n{n}", args, "", expect)


def _cli_dissim(runner, rng, fmt):
    n, edges, weights, d = _weighted_tree(rng)
    doc = {"tree": {"n": n, "edges": [list(e) for e in edges]}, "weights": {k: str(v) for k, v in weights.items()}}

    def expect():
        return 0, (_vector_json(n, d) + "\n" if fmt == "json" else _tsv(n, d) + "\n"), ""

    return _cli_op(runner, f"dissim-{fmt}", ["trop", "dissim", "-i", "-", "--format", fmt], json.dumps(doc), expect)


def _cli_check(runner, rng, variant):
    n, edges, weights, d = _weighted_tree(rng)
    if variant == "no":
        d = perturb(rng, n, d)
    stdin = _vector_json(n, d) if variant == "json" else _tsv(n, d)

    def expect():
        bad = O.first_violation(n, d)
        if bad is not None:
            return 1, "tropical: no\n  " + O.describe_quartet(d, bad) + "\n", ""
        lines = ["tropical: yes"] + ["  " + O.describe_quartet(d, q) for q in combinations(range(1, n + 1), 4)]
        return 0, "\n".join(lines) + "\n", ""

    return _cli_op(runner, f"check-{variant}", ["trop", "check", "-i", "-"], stdin, expect)


def _cli_reconstruct(runner, rng, variant):
    n, edges, weights, d = _weighted_tree(rng)
    if variant == "no":
        d = perturb(rng, n, d)

    def expect():
        if variant == "no":
            return 2, "", "error: not a tropical point"
        doc = {"tree": {"n": n, "edges": [list(e) for e in O.canonical_edges(n, edges)]},
               "weights": {e: str(weights[e]) for e in O.edge_order(n, edges)}}
        return 0, json.dumps(doc, indent=2) + "\n", ""

    return _cli_op(runner, f"reconstruct-{variant}", ["trop", "reconstruct", "-i", "-"], _tsv(n, d), expect)


def _cli_matrix(runner, rng, shuffled):
    n = rng.randint(4, 8)
    edges = random_tree_edges(rng, n)
    order = O.edge_order(n, edges)
    args = ["val", "matrix", "--tree", "-"]
    if shuffled:
        rng.shuffle(order)
        args += ["--order", ",".join(order)]
    stdin = json.dumps({"n": n, "edges": [list(e) for e in edges]})

    def expect():
        paths = O.path_names(n, edges)
        lines = ["edge\t" + "\t".join(f"p[{i},{j}]" for i, j in O.pairs(n))]
        lines += [e + "\t" + "\t".join("1" if e in paths[pr] else "0" for pr in O.pairs(n)) for e in order]
        return 0, "\n".join(lines) + "\n\n", ""

    return _cli_op(runner, "matrix-order" if shuffled else "matrix", args, stdin, expect)


GOLDEN = Path(__file__).resolve().parent / "data" / "paper_example.txt"


def _cli_paper(runner, rng, _):
    return _cli_op(runner, "paper-example", ["paper-example"], "",
                   lambda: (0, GOLDEN.read_text(encoding="utf-8"), ""))


def _cli_malformed(runner, rng, variant):
    """Bad input: the CLI must exit 2 with an error line and no traceback."""
    n = rng.randint(4, 8)
    if variant == "json":
        text = _vector_json(n, {pr: 1 for pr in O.pairs(n)})
        args, stdin = ["trop", "check", "-i", "-"], text[: rng.randint(1, len(text) - 2)]
    elif variant == "tsv":
        d = {pr: str(rng.randint(1, 9)) for pr in O.pairs(n)}
        d[rng.choice(O.pairs(n))] = rng.choice(["x", "1/0", "--2"])
        args, stdin = ["trop", "check", "-i", "-"], _tsv(n, d)
    else:
        edges = random_tree_edges(rng, n)
        edges.pop(rng.randrange(len(edges)))
        args, stdin = ["val", "matrix", "--tree", "-"], json.dumps({"n": n, "edges": [list(e) for e in edges]})
    return _cli_op(runner, f"malformed-{variant}", args, stdin, lambda: (2, "", "error:"))


def _cli_wrong_shape(runner, rng, variant):
    """Well-formed JSON of the wrong shape: the CLI contract asks for exit 2 and no traceback."""
    if variant == "dissim":
        args, stdin = ["trop", "dissim", "-i", "-"], "[1,2]"
    else:
        args, stdin = ["trop", variant, "-i", "-"], '{"n":4,"d":[1,2]}'
    return _cli_op(runner, f"shape-{variant}", args, stdin, lambda: (2, "", "error:"))


CLI_MIX = {
    "full": [(_cli_enumerate, v, c) for v, c in ((("json", 4), 2), (("newick", 5), 2), (("json", 6), 1),
                                                  (("count", 6), 1), (("count", 7), 2))]
    + [(_cli_dissim, "tsv", 3), (_cli_dissim, "json", 2)]
    + [(_cli_check, v, c) for v, c in (("tsv", 3), ("json", 2), ("no", 3))]
    + [(_cli_reconstruct, "yes", 4), (_cli_reconstruct, "no", 1)]
    + [(_cli_matrix, False, 2), (_cli_matrix, True, 2), (_cli_paper, None, 2)]
    + [(_cli_malformed, v, 1) for v in ("json", "tsv", "tree")],
    "tiny": [(_cli_enumerate, ("json", 4), 1), (_cli_check, "no", 1), (_cli_paper, None, 1),
             (_cli_malformed, "json", 1)],
}


# ---------------------------------------------------------------------------
# Known defects.  An operation that fails would make the failed count of a
# run depend on how many cycles fit in it, so the inputs that hit a known
# defect are not part of the timed cycles.  Each run instead runs them once,
# untimed, after the timed ops, and reports their outcomes.

DEFECTS = {
    "semigroup-ideals": [(_gorenstein_repro, None)] + [(_gorenstein, 8)] * 3,
    "cli-small": [(_cli_wrong_shape, v) for v in ("check", "reconstruct", "dissim")],
}


# ---------------------------------------------------------------------------


def build(name: str, seed: int, gt, root: Path, scale: str = "full") -> Workload:
    runner = None
    defects = DEFECTS.get(name, [])
    if name == "cli-small":
        runner = CliRunner(root)
        mix = [(lambda _gt, r, arg, f=f: f(runner, r, arg), arg, c) for f, arg, c in CLI_MIX[scale]]
        defects = [(lambda _gt, r, arg, f=f: f(runner, r, arg), arg) for f, arg in defects]
    else:
        mix = {"tree-metrics": TREE_MIX, "valuations": VALUATION_MIX, "semigroup-ideals": SEMIGROUP_MIX}[name][scale]
    return Workload(name, seed, gt, mix, runner, defects)
