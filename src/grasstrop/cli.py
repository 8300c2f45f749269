"""Command-line interface.

Subcommands:
  trees enumerate   list the trivalent trees on n leaves
  trop dissim       dissimilarity vector of an edge weighting
  trop check        test a vector against the four-point condition
  trop reconstruct  rebuild the tree and weights from a vector
  val matrix        valuation matrix of a tree for an edge order
  paper-example     recompute the four-leaf worked example and diff it
                    against the embedded golden text

Exit codes: 0 on success or a verified property, 1 on a failed
verification (a vector outside the tropical Grassmannian, a golden
mismatch), 2 on usage or format errors.  Every input option accepts "-"
for stdin.  All output is deterministic.

Only `trees` is imported with this module; each command imports the
other library modules it runs, so a request loads only what it needs.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from math import floor, lgamma, log

from .trees import _json_object, double_factorial, enumerate_trivalent, parse_edge_order
from .trees import tree_from_json, tree_to_json, tree_to_newick

# Largest n whose trees `trees enumerate` lists: 135135 trees at n=9, while
# n=10 has 2027025 and n=12 already 654729075.  --count has no limit.
_MAX_LISTED_N = 9
# Largest n whose refusal spells the count out: 3995!! has 6329 digits and
# takes a few milliseconds, while 60000 leaves take seconds.  Past it the
# refusal names the count's number of digits.
_MAX_SPELLED_N = 2000


def _tree_count(n: int) -> str:
    """(2n-5)!!, the number of trivalent trees on n labeled leaves, in
    decimal; from n=1426 on it has more digits than str(int) converts."""
    if n < 3:
        raise ValueError(f"need at least 3 leaves, got {n}")
    return str(Decimal(double_factorial(2 * n - 5)))


def _tree_count_size(n: int) -> str:
    """The number of decimal digits of (2n-5)!!, from log10 of
    (2m)! / (2^m m!) with m = n-2, without computing the count.

    lgamma is good to a few units in the last place, so unless the
    logarithm lies within 1e-9 plus a relative 1e-12 of an integer the
    digit count is exact; otherwise it is marked as approximate.
    """
    m = n - 2
    digits = (lgamma(2 * m + 1) - lgamma(m + 1) - m * log(2)) / log(10)
    margin = 1e-9 + 1e-12 * digits
    exact = margin < digits % 1 < 1 - margin
    return f"{'' if exact else 'about '}{floor(digits) + 1} digits"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_vector(args: argparse.Namespace):
    from .tropical import DissimilarityVector

    text = _read_text(args.input)
    fmt = args.format
    if fmt is None:
        fmt = "json" if text.lstrip().startswith("{") else "tsv"
    if fmt == "json":
        return DissimilarityVector.from_json(text)
    return DissimilarityVector.from_tsv(text)


def cmd_trees_enumerate(args: argparse.Namespace) -> int:
    if args.count:
        _emit(args, _tree_count(args.n) + "\n")
        return 0
    n = args.n
    if n > _MAX_LISTED_N:
        if n > _MAX_SPELLED_N:
            count = f"{2 * n - 5}!! ({_tree_count_size(n)})"
        else:
            count = _tree_count(n)
        raise ValueError(
            f"refusing to list the {count} trees on {n} leaves "
            f"(at most n={_MAX_LISTED_N}); use --count to count them"
        )
    line = tree_to_newick if args.format == "newick" else tree_to_json
    # the trees go before the lines are joined
    lines = [line(t) for t in enumerate_trivalent(n)]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_trop_dissim(args: argparse.Namespace) -> int:
    from .tropical import _WEIGHTING_SHAPE, EdgeWeighting, dissimilarity

    r = EdgeWeighting.from_json_dict(_json_object(_read_text(args.input), _WEIGHTING_SHAPE))
    d = dissimilarity(r)
    if (args.format or "tsv") == "json":
        _emit(args, d.to_json() + "\n")
    else:
        _emit(args, d.to_tsv() + "\n")
    return 0


def cmd_trop_check(args: argparse.Namespace) -> int:
    from .tropical import is_tropical_point

    d = _read_vector(args)
    ok, witnesses = is_tropical_point(d)
    if ok:
        lines = ["tropical: yes"]
        lines.extend("  " + w.describe() for w in witnesses)
        _emit(args, "\n".join(lines) + "\n")
        return 0
    (w,) = witnesses
    _emit(args, "tropical: no\n  " + w.describe() + "\n")
    return 1


def cmd_trop_reconstruct(args: argparse.Namespace) -> int:
    from .tropical import reconstruct_tree

    d = _read_vector(args)
    _, r = reconstruct_tree(d)
    _emit(args, json.dumps(r.to_json_dict(), indent=2) + "\n")
    return 0


def cmd_val_matrix(args: argparse.Namespace) -> int:
    from .valuation import valuation_matrix

    t = tree_from_json(_read_text(args.tree))
    order = parse_edge_order(t, args.order) if args.order else t.edge_ids
    m = valuation_matrix(t, order)
    _emit(args, m.to_tsv() + "\n")
    return 0


def cmd_paper_example(args: argparse.Namespace) -> int:
    from .report import build_report, check_report

    if args.emit:
        _emit(args, build_report())
        return 0
    ok, text = check_report()
    if ok:
        _emit(args, text)
        return 0
    sys.stderr.write(text)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasstrop",
        description="Tree-indexed tropical and valuation data "
        "of the Grassmannian of planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: list[argparse.ArgumentParser] = []

    def command(group, name: str, func, summary: str) -> argparse.ArgumentParser:
        p = group.add_parser(name, help=summary)
        p.set_defaults(func=func)
        commands.append(p)
        return p

    def group(name: str, summary: str):
        return sub.add_parser(name, help=summary).add_subparsers(dest="subcommand", required=True)

    trees = group("trees", "tree enumeration")
    p_enum = command(trees, "enumerate", cmd_trees_enumerate, "list trivalent trees in canonical order")
    p_enum.add_argument("--n", type=int, required=True, help="number of leaves")
    p_enum.add_argument("--count", action="store_true", help="print only the number of trees")
    p_enum.add_argument("--format", choices=["json", "newick"], default=None)

    trop = group("trop", "tropical Grassmannian operations")
    detected = "input format, detected from content when omitted"
    for name, func, summary, format_help in (
        ("dissim", cmd_trop_dissim, "dissimilarity vector of an edge weighting (JSON in)", None),
        ("check", cmd_trop_check, "four-point condition check (exit 1 when violated)", detected),
        ("reconstruct", cmd_trop_reconstruct, "tree and weights realizing a tropical vector", detected),
    ):
        p_trop = command(trop, name, func, summary)
        p_trop.add_argument("--input", "-i", required=True, help='file or "-"')
        p_trop.add_argument("--format", choices=["tsv", "json"], default=None, help=format_help)

    val = group("val", "valuation operations")
    p_matrix = command(val, "matrix", cmd_val_matrix, "valuation matrix of a tree for an edge order")
    p_matrix.add_argument("--tree", required=True, help='tree JSON file or "-"')
    p_matrix.add_argument(
        "--order", default=None, help="comma-separated edge ids; defaults to the canonical order"
    )

    p_example = command(
        sub, "paper-example", cmd_paper_example,
        "recompute the four-leaf worked example and diff against golden",
    )
    p_example.add_argument("--emit", action="store_true", help="print the report without comparing")

    # last, so that it closes every option list
    for p in commands:
        p.add_argument("--output", "-o", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
