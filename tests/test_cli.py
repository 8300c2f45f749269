import argparse
import io
import json
import random
import re
import time

import pytest

from grasstrop import report
from grasstrop.cli import _tree_count, _tree_count_size, build_parser, main
from grasstrop.trees import double_factorial, enumerate_trivalent, tree_from_json, tree_to_json
from util import trees_cached

SIGMA1_JSON = '{"n":4,"edges":[[1,5],[2,5],[3,6],[4,6],[5,6]]}'
ONES_WEIGHTING = json.dumps(
    {
        "tree": {"n": 4, "edges": [[1, 5], [2, 5], [3, 6], [4, 6], [5, 6]]},
        "weights": {"l1": "1", "l2": "1", "l3": "1", "l4": "1", "e3-4": "1"},
    }
)
TROPICAL_TSV = "i\tj\td_ij\n1\t2\t2\n1\t3\t3\n1\t4\t3\n2\t3\t3\n2\t4\t3\n3\t4\t2\n"
TROPICAL_JSON = '{"n":4,"d":{"1,2":"2","1,3":"3","1,4":"3","2,3":"3","2,4":"3","3,4":"2"}}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trees_enumerate_count(capsys):
    for n, expect in ((3, 1), (5, 15), (6, 105)):
        code, out, err = run(capsys, "trees", "enumerate", "--n", str(n), "--count")
        assert code == 0 and err == ""
        assert out == f"{expect}\n"
    # --count uses the closed form; it must agree with the enumeration
    for n in range(3, 8):
        _, out, _ = run(capsys, "trees", "enumerate", "--n", str(n), "--count")
        assert out == f"{len(enumerate_trivalent(n))}\n"


def test_trees_enumerate_json(capsys):
    code, out, _ = run(capsys, "trees", "enumerate", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == SIGMA1_JSON
    assert [tree_from_json(s) for s in lines] == list(trees_cached(4))


def test_trees_enumerate_newick(capsys):
    code, out, _ = run(capsys, "trees", "enumerate", "--n", "4", "--format", "newick")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(1,2,(3,4));"
    assert len(lines) == 3


def test_trees_enumerate_bad_n(capsys):
    code, _, err = run(capsys, "trees", "enumerate", "--n", "2", "--count")
    assert code == 2
    assert err.startswith("error:")


def test_trees_enumerate_refuses_to_list_large_n(capsys):
    for n, count in ((10, 2027025), (12, 654729075)):
        code, out, err = run(capsys, "trees", "enumerate", "--n", str(n))
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"{count} trees" in err and "--count" in err
        code, out, _ = run(capsys, "trees", "enumerate", "--n", str(n), "--count")
        assert code == 0 and out == f"{count}\n"


def test_trees_enumerate_past_the_int_digit_limit(capsys):
    # 3995!! has 6329 digits, more than str(int) converts by default
    count = double_factorial(2 * 2000 - 5)
    code, out, err = run(capsys, "trees", "enumerate", "--n", "2000", "--count")
    assert code == 0 and err == "" and out.endswith("\n")
    digits = out[:-1]
    assert digits.isdigit() and 10 ** (len(digits) - 1) <= count < 10 ** len(digits)
    assert int(digits[:18]) == count // 10 ** (len(digits) - 18)
    assert int(digits[-18:]) == count % 10**18
    code, out, err = run(capsys, "trees", "enumerate", "--n", "2000")
    assert code == 2 and out == ""
    assert err.startswith(f"error: refusing to list the {digits} trees on 2000 leaves")
    assert "use --count" in err


def test_trees_enumerate_refuses_huge_n_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "trees", "enumerate", "--n", "200000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        "error: refusing to list the 399995!! (1033543 digits) trees on 200000 leaves "
        "(at most n=9); use --count to count them\n"
    )


def test_tree_count_size_matches_the_spelled_count():
    for n in (10, 12, 100, 1999, 2000, 2001, 2500):
        assert _tree_count_size(n) == f"{len(_tree_count(n))} digits"


def test_trop_dissim_tsv(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(ONES_WEIGHTING)
    code, out, _ = run(capsys, "trop", "dissim", "--input", str(path))
    assert code == 0
    assert out == TROPICAL_TSV + "\n"


def test_trop_dissim_json_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(ONES_WEIGHTING))
    code, out, _ = run(capsys, "trop", "dissim", "--input", "-", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["d"]["1,2"] == "2"
    assert obj["d"]["1,3"] == "3"


def test_trop_check_yes(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TROPICAL_TSV))
    code, out, _ = run(capsys, "trop", "check", "--input", "-")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tropical: yes"
    assert len(lines) == 2
    assert lines[1].startswith("  ")


def test_trop_check_no(capsys, monkeypatch):
    bad = TROPICAL_TSV.replace("1\t2\t2", "1\t2\t9")
    monkeypatch.setattr("sys.stdin", io.StringIO(bad))
    code, out, _ = run(capsys, "trop", "check", "--input", "-")
    assert code == 1
    assert out.splitlines()[0] == "tropical: no"
    assert "(1, 2, 3, 4)" in out


def test_trop_check_json_autodetect(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TROPICAL_JSON))
    code, out, _ = run(capsys, "trop", "check", "--input", "-")
    assert code == 0
    assert out.splitlines()[0] == "tropical: yes"


def test_trop_reconstruct(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TROPICAL_TSV))
    code, out, _ = run(capsys, "trop", "reconstruct", "--input", "-")
    assert code == 0
    obj = json.loads(out)
    assert obj["tree"]["edges"] == [[1, 5], [2, 5], [3, 6], [4, 6], [5, 6]]
    assert obj["weights"]["e3-4"] == "1"


def test_trop_reconstruct_rejects_nontropical(capsys, monkeypatch):
    bad = TROPICAL_TSV.replace("1\t2\t2", "1\t2\t9")
    monkeypatch.setattr("sys.stdin", io.StringIO(bad))
    code, _, err = run(capsys, "trop", "reconstruct", "--input", "-")
    assert code == 2
    assert err.startswith("error:")
    assert "(1, 2, 3, 4)" in err


def test_val_matrix(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(SIGMA1_JSON)
    code, out, _ = run(capsys, "val", "matrix", "--tree", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "edge\tp[1,2]\tp[1,3]\tp[1,4]\tp[2,3]\tp[2,4]\tp[3,4]"
    assert lines[1] == "l1\t1\t1\t1\t0\t0\t0"
    assert lines[2] == "l2\t1\t0\t0\t1\t1\t0"
    assert lines[3] == "l3\t0\t1\t0\t1\t0\t1"
    assert lines[4] == "l4\t0\t0\t1\t0\t1\t1"
    assert lines[5] == "e3-4\t0\t1\t1\t1\t1\t0"


def test_val_matrix_custom_order(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(SIGMA1_JSON)
    order = "e3-4,l4,l3,l2,l1"
    code, out, _ = run(capsys, "val", "matrix", "--tree", str(path), "--order", order)
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("e3-4\t")
    assert lines[5].startswith("l1\t")


def test_val_matrix_bad_order(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(SIGMA1_JSON)
    code, _, err = run(capsys, "val", "matrix", "--tree", str(path), "--order", "l1,l2")
    assert code == 2
    assert err.startswith("error:")


def test_paper_example(capsys):
    code, out, err = run(capsys, "paper-example")
    assert code == 0 and err == ""
    assert out == report.GOLDEN
    code2, out2, _ = run(capsys, "paper-example", "--emit")
    assert code2 == 0
    assert out2 == out


def test_paper_example_detects_drift(capsys, monkeypatch):
    monkeypatch.setattr(report, "GOLDEN", report.GOLDEN.replace("yes", "maybe", 1))
    code, out, err = run(capsys, "paper-example")
    assert code == 1
    assert out == ""
    assert "--- golden" in err
    assert "+++ live" in err
    assert "maybe" in err


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "trees", "enumerate", "--n", "4", "--count", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "3\n"


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "trop", "dissim", "--input", "/nonexistent/r.json")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_json_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, _, err = run(capsys, "trop", "dissim", "--input", "-")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, text",
    [
        (("trop", "check"), '{"n":4,"d":[1,2]}'),
        (("trop", "reconstruct"), '{"n":4,"d":[1,2]}'),
        (("trop", "dissim"), "[1,2]"),
        (("trop", "dissim"), '{"tree":[1,2],"weights":{}}'),
        (("trop", "dissim"), '{"tree":{"n":3,"edges":[[1,4],[2,4],[3,4]]},"weights":[1]}'),
        (("trop", "check"), TROPICAL_JSON[:-2] + ',"7,9":5,"0,1":3}}'),
        (("trop", "reconstruct"), TROPICAL_JSON[:-2] + ',"2,1":"2"}}'),
        (("trop", "check"), TROPICAL_TSV + "0 2 9\n"),
        (("trop", "reconstruct"), TROPICAL_TSV + "0 2 9\n"),
        (("trop", "check"), '{"n":1e999,"d":{}}'),
        (("trop", "dissim"), '{"tree":{"n":3,"edges":[[1,4],[2,4],[3,1e999]]},"weights":{}}'),
        (("trop", "check"), TROPICAL_JSON.replace('"n":4', '"n":4.5')),
        (("trop", "reconstruct"), TROPICAL_JSON.replace('"n":4', '"n":4.0')),
        (("trop", "check"), TROPICAL_JSON.replace('"n":4', '"n":true')),
        (("trop", "dissim"), ONES_WEIGHTING.replace('"n": 4', '"n": 4.0')),
        (("trop", "dissim"), ONES_WEIGHTING.replace("[1, 5]", "[true, 5]")),
        (("trop", "check"), TROPICAL_JSON.replace('"3,4"', '"+3,4"')),
        (("trop", "check"), TROPICAL_JSON.replace('"3,4"', '" 3,4"')),
        (("trop", "check"), TROPICAL_JSON.replace('"3,4"', '"3,0_4"')),
        (("trop", "check"), TROPICAL_JSON.replace('"3,4"', '"\u0663,4"')),
        (("trop", "check"), TROPICAL_TSV.replace("3\t4\t2", "3\t+4\t2")),
        (("trop", "check"), TROPICAL_TSV.replace("3\t4\t2", "3\t4\t\u0662")),
        (("trop", "check"), TROPICAL_JSON.replace('"3,4":"2"', '"3,4":"\u0661/\u0662"')),
        (("trop", "dissim"), ONES_WEIGHTING.replace('"e3-4": "1"', '"e3-4": "\u0661"')),
        (("trop", "check"), TROPICAL_TSV.replace("3\t4\t2", "3\t4\t1e5000")),
        (("trop", "reconstruct"), TROPICAL_JSON.replace('"3,4":"2"', '"3,4":"1e5000"')),
        (("trop", "dissim"), '{"a":' * 5000),
        (("trop", "check"), '{"a":' * 5000),
        (("trop", "reconstruct"), '{"a":' * 5000),
        (("val", "matrix"), "[" * 1000),
    ],
    ids=[
        "check-d-list", "reconstruct-d-list", "dissim-list", "dissim-tree-list",
        "dissim-weights-list", "check-pairs-out-of-range", "reconstruct-duplicate-pair",
        "check-tsv-leaf-0", "reconstruct-tsv-leaf-0", "check-n-overflow", "dissim-vertex-overflow",
        "check-n-float", "reconstruct-n-integral-float", "check-n-bool", "dissim-n-integral-float",
        "dissim-vertex-bool", "check-key-plus-sign", "check-key-space", "check-key-underscore",
        "check-key-arabic-indic-digit", "check-tsv-index-plus-sign", "check-tsv-value-arabic-indic-digit",
        "check-value-arabic-indic-digits", "dissim-weight-arabic-indic-digit",
        "check-tsv-value-past-digit-limit", "reconstruct-value-past-digit-limit",
        "dissim-nested-past-recursion-limit", "check-nested-past-recursion-limit",
        "reconstruct-nested-past-recursion-limit", "matrix-nested-past-recursion-limit",
    ],
)
def test_wrong_shape_json_exits_2(capsys, monkeypatch, argv, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, *argv, "--tree" if argv[0] == "val" else "--input", "-")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    if "1e5000" in text:
        # refused where it is read, not when its 5001 digits are written out
        assert err == "error: not a rational number: '1e5000'\n"


@pytest.mark.parametrize(
    "text",
    [
        '{"n":4.9,"edges":[[1,5],[2,5],[3,6],[4.7,6],[5,6]]}',
        SIGMA1_JSON.replace('"n":4', '"n":true'),
        SIGMA1_JSON.replace("[5,6]", "[5,6.0]"),
    ],
    ids=["float-n-and-leaf", "bool-n", "integral-float-vertex"],
)
def test_val_matrix_refuses_non_integer_json(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "val", "matrix", "--tree", "-")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "must be an integer" in err


_OUTPUT = (("--output", "-o"), None, None, None, False)
_TROP_INPUT = (("--input", "-i"), 'file or "-"', None, None, True)
_DETECTED = "input format, detected from content when omitted"
# (option strings, help, choices, default, required) of every option, in
# declaration order; the help text layout differs between Python versions,
# these fields do not
CLI_OPTIONS = {
    "trees enumerate": [
        (("--n",), "number of leaves", None, None, True),
        (("--count",), "print only the number of trees", None, False, False),
        (("--format",), None, ("json", "newick"), None, False),
        _OUTPUT,
    ],
    "trop dissim": [_TROP_INPUT, (("--format",), None, ("tsv", "json"), None, False), _OUTPUT],
    "trop check": [_TROP_INPUT, (("--format",), _DETECTED, ("tsv", "json"), None, False), _OUTPUT],
    "trop reconstruct": [_TROP_INPUT, (("--format",), _DETECTED, ("tsv", "json"), None, False), _OUTPUT],
    "val matrix": [
        (("--tree",), 'tree JSON file or "-"', None, None, True),
        (("--order",), "comma-separated edge ids; defaults to the canonical order", None, None, False),
        _OUTPUT,
    ],
    "paper-example": [(("--emit",), "print the report without comparing", None, False, False), _OUTPUT],
}


def test_cli_options_are_pinned():
    table = {}

    def walk(parser, path):
        rows = []
        for a in parser._actions:
            if isinstance(a, argparse._SubParsersAction):
                for name, sub in a.choices.items():
                    walk(sub, path + (name,))
            elif not isinstance(a, argparse._HelpAction):
                choices = None if a.choices is None else tuple(a.choices)
                rows.append((tuple(a.option_strings), a.help, choices, a.default, a.required))
        if rows:
            table[" ".join(path)] = rows

    walk(build_parser(), ())
    assert table == CLI_OPTIONS


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trees", "enumerate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_cli_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "paper-example")
        outs.add(out)
    for _ in range(2):
        _, out, _ = run(capsys, "trees", "enumerate", "--n", "5")
        outs.add(out)
    assert len(outs) == 2


def test_round_trip_tree_json():
    t = trees_cached(4)[0]
    assert tree_to_json(t) == SIGMA1_JSON
    assert tree_from_json(SIGMA1_JSON) == t


def test_mutated_inputs_keep_the_exit_code_contract(capsys, monkeypatch):
    # 1-4 edits of valid inputs (a character, a number swapped for 4.9 or
    # true, or brackets nested past the recursion limit), fixed seed: every
    # run must end in 0, 1 or 2 without an exception escaping main
    cases = [
        (("trop", "dissim", "--input", "-"), ONES_WEIGHTING),
        (("trop", "check", "--input", "-"), TROPICAL_TSV),
        (("trop", "check", "--input", "-"), TROPICAL_JSON),
        (("trop", "reconstruct", "--input", "-"), TROPICAL_TSV),
        (("trop", "reconstruct", "--input", "-"), TROPICAL_JSON),
        (("val", "matrix", "--tree", "-"), SIGMA1_JSON),
    ]
    alphabet = '0123456789-/.,:;{}[]"e \t\n'
    rng = random.Random(5)
    codes = set()
    for k in range(1500):
        argv, text = cases[k % len(cases)]
        chars = list(text)
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(chars) + 1)
            op = rng.randrange(5)
            numbers = [m.span() for m in re.finditer(r"\d+", "".join(chars))]
            if op == 4:
                chars[pos:pos] = "[" * 5000
            elif op == 3 and numbers:
                # a non-integer number or a boolean where an integer stood
                start, end = rng.choice(numbers)
                chars[start:end] = rng.choice(("4.9", "true"))
            elif op == 0 or not chars:
                chars.insert(pos, rng.choice(alphabet))
            elif op == 1:
                del chars[min(pos, len(chars) - 1)]
            else:
                chars[min(pos, len(chars) - 1)] = rng.choice(alphabet)
        mutated = "".join(chars)
        monkeypatch.setattr("sys.stdin", io.StringIO(mutated))
        try:
            code = main(list(argv))
        except Exception as exc:
            pytest.fail(f"{' '.join(argv)} on {mutated!r} raised {exc!r}")
        _, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, mutated, code)
        assert (code == 2) == err.startswith("error:"), (argv, mutated, err)
        codes.add(code)
    assert codes == {0, 1, 2}
