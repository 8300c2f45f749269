"""grasstrop benchmark: one seeded workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload tree-metrics --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload tree-metrics --seed 1 --seconds 25 --trace 1

Run from the repository root; the library is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json, with --trace 1 the per-layer ones.  Each run also
appends its result and its context (Python version, commit, nproc, load
average and the time of the pace loop of pace.py at start and end, seed)
to .perfbench/runs.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import loop_ms
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def spin_ms(seconds: float = 0.3) -> float:
    """Median time of the pace loop over `seconds`: larger on a busier or slower machine."""
    walls = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        walls.append(loop_ms())
    return statistics.median(walls)


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def worker(args, mode: str, started: float) -> dict:
    """Run worker.py in its own process group; on timeout kill the group and wait for it."""
    left = max(DEADLINE_S - (time.monotonic() - started), 1.0)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--scale", args.scale, "--t0", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker ({mode}) did not finish within {left:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="tiny: a few small ops per cycle, for the benchmark's own tests")
    args = ap.parse_args()
    if not (ROOT / "src" / "grasstrop" / "__init__.py").is_file():
        print(f"error: no grasstrop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "python": platform.python_version(), "commit": commit(),
        "nproc": os.cpu_count(), "loadavg_start": loadavg(), "spin_ms_start": spin_ms(),
    }
    try:
        if args.trace:
            report = worker(args, "trace", started)
            metrics = report.pop("metrics")
        else:
            report = worker(args, "measure", started)
            metrics = {
                "setup_s": {"value": report["setup_s"], "unit": "s"},
                "throughput_ops_s": {"value": report["throughput_ops_s"], "unit": "1/s"},
                "op_p50_ms": {"value": report["op_p50_ms"], "unit": "ms"},
                "op_p99_ms": {"value": report["op_p99_ms"], "unit": "ms"},
                "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            }
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    context["loadavg_end"] = loadavg()
    context["spin_ms_end"] = spin_ms()

    result = {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"{args.workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    if not args.trace:
        print(f"{args.workload}\tfailed_ratio\t{report['failed'] / report['attempted']:.6g}\tratio"
              f"\t({report['failed']} of {report['attempted']} ops; {report['wrong']} wrong answers)")
    for line in report["known_defects"]:
        print(f"{args.workload}\tknown defect\t{line}")
    details = {k: v for k, v in report.items() if k != "per_kind"}
    print("context " + json.dumps(context))
    print("details " + json.dumps(details))
    if "per_kind" in report:
        for kind, row in sorted(report["per_kind"].items(), key=lambda kv: -kv[1]["mean_ms"]):
            print(f"kind\t{kind}\t" + "\t".join(f"{k}={v:.4g}" for k, v in row.items()))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"context": context, "details": details, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
