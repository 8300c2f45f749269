"""The package namespace loads lazily, and each CLI command imports only what it runs."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Each library module and its public names, in the order of grasstrop.__all__.
PUBLIC = {
    "trees": [
        "EdgeId", "LabeledTree", "contract_edge", "double_factorial", "enumerate_trivalent", "leaf_path",
        "parse_edge_order", "tree_equal", "tree_from_json", "tree_from_newick", "tree_to_json",
        "tree_to_newick",
    ],
    "tropical": [
        "DissimilarityVector", "EdgeWeighting", "QuartetWitness", "cone_of", "dissimilarity",
        "is_tropical_point", "leaf_pairs", "reconstruct_tree",
    ],
    "semigroup": [
        "PairMultiset", "SigmaWeight", "decompose", "gorenstein_witness_check", "graded_count",
        "in_semigroup", "invariant_dim", "omega", "pieri_dim",
    ],
    "plucker": [
        "PlueckerMonomial", "PlueckerPolynomial", "format_polynomial", "is_noncrossing", "p",
        "parse_polynomial", "straighten", "three_term_relation",
    ],
    "valuation": [
        "ValuationMatrix", "ValueVector", "monomial_weight", "quasi_valuation_weight", "rank_valuation",
        "tropical_weight", "valuation_matrix",
    ],
    "ideals": [
        "EdgeMonomial", "HilbertReport", "initial_form", "initial_ideal_hilbert_check", "internal_indicator",
        "monomial_map", "toric_kernel_membership",
    ],
    "linalg": ["exact_rank"],
}


def _run(args, stdin="", flags=()):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    return subprocess.run(
        [sys.executable, *flags, *args], input=stdin, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def namespace_problems() -> list[str]:
    """What is wrong with a fresh interpreter's grasstrop namespace, as text.

    Runs without assert statements, so that `python -O` checks the same.
    """
    import grasstrop

    names = [name for names in PUBLIC.values() for name in names]
    bad = []
    if grasstrop.__all__ != names + ["__version__"]:
        bad.append(f"__all__ is {grasstrop.__all__}")
    early = [name for name in names if name in vars(grasstrop)]
    if early or any(m.startswith("grasstrop.") for m in sys.modules):
        bad.append(f"bound before the first read: {early}")
    from grasstrop import semigroup

    if semigroup is not sys.modules["grasstrop.semigroup"]:
        bad.append(f"from grasstrop import semigroup gave {semigroup!r}")
    grasstrop.p  # the first read binds every public name
    missing = [name for name in grasstrop.__all__ if name not in vars(grasstrop)]
    if missing:
        bad.append(f"not bound after one read: {missing}")
    star: dict = {}
    exec("from grasstrop import *", star)
    for module, module_names in PUBLIC.items():
        mod = importlib.import_module(f"grasstrop.{module}")
        for name in module_names:
            if getattr(grasstrop, name) is not getattr(mod, name) or star.get(name) is not getattr(mod, name):
                bad.append(f"{name} is not grasstrop.{module}.{name}")
    if star.get("__version__") != grasstrop.__version__:
        bad.append("from grasstrop import * does not bind __version__")
    try:
        grasstrop.no_such_name
    except AttributeError as exc:
        if "no_such_name" not in str(exc):
            bad.append(f"the AttributeError does not name the attribute: {exc}")
    else:
        bad.append("an unknown name did not raise AttributeError")
    return bad


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_public_namespace(flags):
    proc = _run(["-c", "import test_package\nprint(test_package.namespace_problems())\n"], flags=flags)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout == "[]\n"


# Run the CLI as `python -m grasstrop.cli` does, then print the grasstrop
# modules it loaded.  -m runs grasstrop.cli as __main__, so it is not
# among them under its own name.
CHILD = """\
import runpy, sys
sys.argv[0] = "grasstrop"
try:
    runpy.run_module("grasstrop.cli", run_name="__main__", alter_sys=True)
finally:
    print(sorted(m for m in sys.modules if m.startswith("grasstrop")))
"""

TREES = ["grasstrop", "grasstrop.trees"]
TROPICAL = TREES + ["grasstrop.tropical"]
VALUATION = sorted(TROPICAL + ["grasstrop.plucker", "grasstrop.semigroup", "grasstrop.valuation"])
# every module but linalg, which only the package namespace imports
REPORT = sorted(VALUATION + ["grasstrop.ideals", "grasstrop.report"])

TREE4 = '{"n":4,"edges":[[1,5],[2,5],[3,6],[4,6],[5,6]]}'
VECTOR4 = "i\tj\td_ij\n1\t2\t2\n1\t3\t3\n1\t4\t3\n2\t3\t3\n2\t4\t3\n3\t4\t2\n"
WEIGHTING4 = '{"tree":' + TREE4 + ',"weights":{"l1":1,"l2":1,"l3":1,"l4":1,"e3-4":1}}'

# (arguments, stdin, exit code, modules loaded): a valid and a malformed
# request for each command
REQUESTS = [
    (["trees", "enumerate", "--n", "4"], "", 0, TREES),
    (["trees", "enumerate", "--n", "2"], "", 2, TREES),
    (["trop", "dissim", "-i", "-"], WEIGHTING4, 0, TROPICAL),
    (["trop", "dissim", "-i", "-"], "{not json", 2, TROPICAL),
    (["trop", "check", "-i", "-"], VECTOR4, 0, TROPICAL),
    (["trop", "check", "-i", "-"], "i\tj\td_ij\n1\t2\tx\n", 2, TROPICAL),
    (["trop", "reconstruct", "-i", "-"], VECTOR4, 0, TROPICAL),
    (["trop", "reconstruct", "-i", "-"], '{"n":4}', 2, TROPICAL),
    (["val", "matrix", "--tree", "-"], TREE4, 0, VALUATION),
    (["val", "matrix", "--tree", "-", "--order", "l1,l2"], TREE4, 2, VALUATION),
    (["paper-example"], "", 0, REPORT),
    (["paper-example", "--emit", "-o", "no-such-dir/report.txt"], "", 2, REPORT),
]


@pytest.mark.parametrize(
    "args, stdin, code, loaded", REQUESTS, ids=[f"{' '.join(r[0][:2])} exit {r[2]}" for r in REQUESTS]
)
def test_command_loads_only_what_it_runs(args, stdin, code, loaded):
    proc = _run(["-c", CHILD, *args], stdin=stdin)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == loaded


@pytest.mark.parametrize("module, loaded", [
    ("grasstrop", ["grasstrop"]),
    ("grasstrop.cli", ["grasstrop", "grasstrop.cli", "grasstrop.trees"]),
])
def test_import_loads_no_more_than_its_module(module, loaded):
    code = f"import sys, {module}\nprint(sorted(m for m in sys.modules if m.startswith('grasstrop')))\n"
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == loaded


def test_declared_python_floor_has_the_int_digit_limit():
    # trees.parse_rational reads sys.get_int_max_str_digits, first shipped
    # in 3.10.7; without it every rational read raises AttributeError
    floor = re.search(r'^requires-python = ">=([\d.]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)[1]
    assert tuple(map(int, floor.split("."))) >= (3, 10, 7)
    assert f"Python {floor} or newer." in (ROOT / "README.md").read_text(encoding="utf-8")
