"""Spans around the public functions of each grasstrop module, installed from outside.

`Tracer.install` replaces every public function of the layer modules at
every name it is bound to: its defining module, each `from .x import y`
copy in another grasstrop module, and the package `__init__`.  Each call
then records a span (function, op id, parent span, start, end, raised)
in flat arrays kept in memory.  A span's self time is its duration minus
the durations of its child spans.  Methods and classmethods, such as
`LabeledTree.edge_id_of` or `DissimilarityVector.value`, are not wrapped:
their time counts toward the self time of the calling span.

Besides spans, a few probes count work at the same boundaries (quartets
tested, straightening terms in and out, weights tested, matrix rows) and
the number of `LabeledTree` objects built.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from array import array
from collections import Counter
from math import comb
from time import perf_counter

LAYERS = ("trees", "tropical", "semigroup", "plucker", "valuation", "ideals", "linalg", "cli", "report")


def _quartets_tested(counts, args, kwargs, result):
    d = args[0] if args else kwargs["d"]
    ok, witnesses = result
    if ok:
        counts["tropical.quartets"] += comb(d.n, 4)
    else:
        # rank of the failing quadruple in combinations order, plus one
        i, j, k, l = witnesses[0].quad
        n = d.n
        rank = 0
        prev = 0
        for pos, x in enumerate((i, j, k, l)):
            for y in range(prev + 1, x):
                rank += comb(n - y, 3 - pos)
            prev = x
        counts["tropical.quartets"] += rank + 1


def _straighten_terms(counts, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    counts["plucker.terms_in"] += len(f.terms)
    counts["plucker.terms_out"] += len(result.terms)


def _weights_tested(counts, args, kwargs, result):
    counts["semigroup.weights_tested"] += 1
    counts["semigroup.members"] += bool(result)


def _rows(counts, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    counts["linalg.rows_in"] += len(rows)
    counts["linalg.rank"] += result


PROBES = {
    "tropical.is_tropical_point": _quartets_tested,
    "plucker.straighten": _straighten_terms,
    "semigroup.in_semigroup": _weights_tested,
    "linalg.exact_rank": _rows,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.err = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter[str] = Counter()
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def name_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def begin(self, fn_idx: int) -> int:
        idx = len(self.start)
        self.fn.append(fn_idx)
        self.op.append(self.op_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.err.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int, raised: bool) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        if raised:
            self.err[idx] = 1

    def _wrap(self, qualname: str, func):
        fn_idx = self.name_index(qualname)
        probe = PROBES.get(qualname)
        begin, finish, counts = self.begin, self.finish, self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = begin(fn_idx)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                finish(idx, True)
                raise
            finish(idx, False)
            if probe is not None:
                probe(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions at all of their grasstrop bindings."""
        if not self._bindings:
            self._bindings = self._collect()
        for owner, name, _, traced in self._bindings:
            setattr(owner, name, traced)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def _collect(self) -> list[tuple[object, str, object, object]]:
        package = importlib.import_module("grasstrop")
        modules = [package] + [importlib.import_module(f"grasstrop.{layer}") for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        bindings = [
            (mod, name, obj, wrapped[id(obj)])
            for mod in modules
            for name, obj in vars(mod).items()
            if id(obj) in wrapped
        ]
        tree_cls = package.LabeledTree
        post_init = tree_cls.__post_init__
        counts = self.counts

        def counting_post_init(tree):
            counts["trees.trees_built"] += 1
            post_init(tree)

        bindings.append((tree_cls, "__post_init__", post_init, counting_post_init))
        return bindings

    # -- spans from another process ---------------------------------------

    def export(self) -> dict:
        spans = [
            [self.fn[i], self.parent[i], self.start[i], self.end[i], self.err[i]]
            for i in range(len(self.start))
        ]
        return {"names": self.names, "spans": spans, "counts": dict(self.counts)}

    def merge(self, dump: dict, parent_idx: int) -> None:
        """Add spans recorded by a child process under the span parent_idx.

        perf_counter reads the system-wide monotonic clock, so child
        timestamps are comparable with this process's.
        """
        remap = [self.name_index(name) for name in dump["names"]]
        base = len(self.start)
        for fn_idx, parent, start, end, err in dump["spans"]:
            self.fn.append(remap[fn_idx])
            self.op.append(self.op_id)
            self.parent.append(parent_idx if parent < 0 else base + parent)
            self.start.append(start)
            self.end.append(end)
            self.err.append(err)
        self.counts.update(dump["counts"])

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function name: calls, self seconds and calls that raised."""
        out = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in self.names}
        for fn_idx, own, err in zip(self.fn, self.self_times(), self.err):
            row = out[self.names[fn_idx]]
            row["calls"] += 1
            row["self_s"] += own
            row["errors"] += err
        return out

    def write(self, path) -> None:
        """Write all spans as gzipped JSON lines: a header, then one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["op", "fn", "parent", "start", "end", "raised"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.op[i]},{self.fn[i]},{self.parent[i]},{self.start[i]!r},{self.end[i]!r},{self.err[i]}]\n"
                )
