"""Every stress case of bench/run.py runs once and passes its own check."""

import importlib.util
from pathlib import Path

import pytest


def _load_bench():
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CASES = _load_bench().CASES


@pytest.mark.parametrize("name", list(CASES))
def test_bench_case_passes_its_check(name):
    setup, run, check = CASES[name]
    assert check(run(setup()))
