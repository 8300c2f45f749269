"""Every entry point that takes an edge id, an edge order or leaf pairs
refuses a bad key with the same message."""

import json
import random

import pytest

from grasstrop import (
    DissimilarityVector,
    EdgeWeighting,
    SigmaWeight,
    ValueVector,
    contract_edge,
    p,
    parse_edge_order,
    rank_valuation,
    valuation_matrix,
)
from util import random_tree


def _message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_unknown_edge_id_reads_the_same_everywhere():
    t = random_tree(random.Random(5), 6)
    zeros = {eid: 0 for eid in t.edge_ids}
    s = SigmaWeight.of(t, zeros)
    r = EdgeWeighting.of(t, zeros)
    vv = rank_valuation(t, t.edge_ids, p(1, 2))
    vm = valuation_matrix(t, t.edge_ids)
    for bad in ("e9-9", "l0", "l7", "x", ""):
        calls = [
            lambda: SigmaWeight.of(t, {**zeros, bad: 1}),
            lambda: s.value(bad),
            lambda: EdgeWeighting.of(t, {bad: 1}),
            lambda: r.weight(bad),
            lambda: vv.value(bad),
            lambda: vm.entry(bad, 1, 2),
            lambda: t.endpoints(bad),
            lambda: t.split(bad),
            lambda: contract_edge(t, bad),
        ]
        assert {_message(call) for call in calls} == {f"unknown edge id {bad!r}"}


def test_edge_orders_are_refused_alike():
    t = random_tree(random.Random(6), 6)
    ids = t.edge_ids
    bad_orders = {
        "repeated": ids[:-1] + ids[:1],
        "missing": ids[:-1],
        "foreign": ids[:-1] + ("e9-9",),
        "extra": ids + ("e9-9",),
    }
    for what, order in bad_orders.items():
        calls = [
            lambda: rank_valuation(t, order, p(1, 2)),
            lambda: valuation_matrix(t, order),
            lambda: ValueVector(t, order, (0,) * len(order)),
            lambda: parse_edge_order(t, ",".join(order)),
        ]
        assert {_message(call) for call in calls} == {
            "edge order must be a permutation of the tree's edge ids"
        }, what


def _pair_errors(entries):
    """The errors of DissimilarityVector.of, from_json and from_tsv on the
    (i, j, value) entries of a 4-leaf vector."""
    text = json.dumps({"n": 4, "d": {f"{i},{j}": str(v) for i, j, v in entries}})
    tsv = "i\tj\td_ij\n" + "".join(f"{i}\t{j}\t{v}\n" for i, j, v in entries)
    return (
        _message(lambda: DissimilarityVector.of(4, {(i, j): v for i, j, v in entries})),
        _message(lambda: DissimilarityVector.from_json(text)),
        _message(lambda: DissimilarityVector.from_tsv(tsv)),
    )


def test_pair_keyed_input_is_refused_alike():
    full = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5), (2, 4, 4), (3, 4, 3)]
    # the TSV header is line 1, so the entry at index k sits on line k + 2
    cases = [
        (full + [(2, 2, 1)], "line 8: ", "pair (2, 2) has equal entries"),
        (full[:3] + [(0, 2, 1)] + full[3:], "line 5: ", "pair (0, 2) is not a leaf pair for n=4"),
        (full + [(2, 1, 7)], "line 8: ", "duplicate pair (1, 2)"),
        (full[:-1], "", "missing pairs: [(3, 4)]"),
    ]
    for entries, line, expect in cases:
        assert _pair_errors(entries) == (expect, expect, line + expect)
