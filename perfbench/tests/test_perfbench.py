"""Tests of the benchmark itself, on tiny cycles of small ops.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = json.loads(next(line for line in lines if line.startswith("context "))[len("context "):])
    details = json.loads(next(line for line in lines if line.startswith("details "))[len("details "):])
    return result, context, details


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result, context, _ = bench(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for key in ("python", "commit", "nproc", "loadavg_start", "loadavg_end", "seed"):
        assert key in context


@pytest.mark.parametrize("workload", ["semigroup-ideals", "cli-small"])
def test_seed_fixes_inputs_and_failed_ops(workload):
    _, _, first = bench(workload, 5, 0)
    _, _, again = bench(workload, 5, 0)
    _, _, other = bench(workload, 6, 0)
    # the runs may fit different numbers of cycles; compare the cycles both ran to the end
    both = min(first["complete_cycles"], again["complete_cycles"])
    assert both >= 1
    assert first["cycle_digests"][:both] == again["cycle_digests"][:both]

    def failed_in_both(details):
        return [f for f in details["failed_ops"] if int(f.split(":")[0]) < both]

    assert failed_in_both(first) == failed_in_both(again)
    assert first["known_defects"] == again["known_defects"] == other["known_defects"]
    assert any(not d.endswith(" ok") for d in first["known_defects"]), "the known defects must still show"
    assert other["cycle_digests"][0] != first["cycle_digests"][0]


def test_every_cycle_draws_fresh_inputs():
    _, _, details = bench("tree-metrics", 7, 0)
    digests = details["cycle_digests"]
    assert len(digests) >= 2
    assert len(set(digests)) == len(digests)


def test_pace_scales_by_the_probes_next_to_an_op():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from pace import REF_MS, Pace

    pace = Pace()
    pace.at = [0.0, 1.0, 1.05, 2.0, 3.0]
    pace.ms = [REF_MS, 2 * REF_MS, 2 * REF_MS, 4 * REF_MS, REF_MS]
    assert pace.scale(1.01, 1.02) == 0.5  # both neighbours in the slow state
    assert pace.scale(0.5, 0.6) == 2 / 3  # nearest on each side: REF_MS and 2 * REF_MS
    assert pace.scale(2.5, 2.6) == 0.4  # nearest on each side: 4 * REF_MS and REF_MS


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
