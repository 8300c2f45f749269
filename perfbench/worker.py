"""One workload process: build the seeded inputs, run the op cycles, print a JSON summary.

Started by run.py.  `--t0` is the wall-clock time just before the parent
spawned this interpreter, so set-up time runs from a fresh interpreter to
the first timed op and covers the grasstrop import and building the first
cycle's inputs.  For cli-small, whose requests each start their own
interpreter, set-up time is instead the wall time of a fresh interpreter
importing grasstrop.cli.  Modes:

  setup    stop after set-up and print it
  measure  run ops untraced for --seconds (at least one whole cycle), and
           take SETUP_PROBES set-up samples spread over the run; times are
           reported scaled to the machine's pace (see pace.py)
  trace    for --seconds, run each op twice: untraced, and with every public
           grasstrop function wrapped in a span
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from pace import Pace  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

OUT_DIR = ROOT / ".perfbench"

# Set-up samples spread over the run see the same mix of machine states
# as the ops do.
SETUP_PROBES = 5

# function-level timings named in BENCHMARK.json, keyed by traced function
FUNCTION_METRICS = {
    "trees.enumerate.self_s": "trees.enumerate_trivalent",
    "tropical.four_point.self_s": "tropical.is_tropical_point",
    "tropical.reconstruct.self_s": "tropical.reconstruct_tree",
    "plucker.straighten.self_s": "plucker.straighten",
    "valuation.tropical_weight.self_s": "valuation.tropical_weight",
    "valuation.rank_valuation.self_s": "valuation.rank_valuation",
    "semigroup.decompose.self_s": "semigroup.decompose",
    "semigroup.gorenstein.self_s": "semigroup.gorenstein_witness_check",
    "ideals.hilbert.self_s": "ideals.initial_ideal_hilbert_check",
}


def execute(op) -> tuple[float, float, str]:
    """Run one op; return when op.run started, the seconds inside it, and the checked outcome."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception:  # a crash inside the library is a failed op, not a benchmark error
        return t0, time.perf_counter() - t0, "error"
    dt = time.perf_counter() - t0
    try:
        return t0, dt, op.check(result)
    except Exception:  # a result the check cannot read is a wrong answer
        return t0, dt, "wrong"


def digest(ops) -> str:
    return hashlib.sha256("\n".join(op.desc for op in ops).encode()).hexdigest()[:16]


def run_ops(wl, seconds: float, each, pause=lambda: 0.0):
    """Call each(cycle, position, op) until `seconds` have passed and at least one whole cycle ran.

    pause() runs before each op; the seconds it returns do not count
    toward the run.

    Returns the input digest of every cycle started and the number of cycles run to the end.
    """
    digests = []
    complete = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        ops = wl.cycle(k)
        digests.append(digest(ops))
        for pos, op in enumerate(ops):
            deadline += pause()
            if k > 0 and time.perf_counter() >= deadline:
                return digests, complete
            each(k, pos, op)
        complete += 1
        k += 1
        ops = op = None  # let the finished cycle go before the next is built
    return digests, complete


def measure(wl, seconds: float, setup_probe):
    """Untraced runs of every op, timed raw and scaled to the machine's pace.

    A sample is (cycle, position, kind, seconds inside op.run, outcome).
    Also calls setup_probe SETUP_PROBES times at even intervals.  Returns
    the scaled samples, the raw ones, what run_ops returns, and the scaled
    and raw set-up samples.
    """
    pace = Pace()
    raw, spans = [], []  # spans: (start, end) of each sample
    setups, setup_spans = [], []
    due = [time.perf_counter() + seconds / SETUP_PROBES / 2]

    def setup_sample():
        pace.probe()
        t0 = time.perf_counter()
        setups.append(setup_probe())
        setup_spans.append((t0, time.perf_counter()))
        pace.probe()

    def pause():
        spent = pace.probe_if_due()
        if len(setups) == SETUP_PROBES or time.perf_counter() < due[0]:
            return spent
        t0 = time.perf_counter()
        setup_sample()
        due[0] += seconds / SETUP_PROBES + time.perf_counter() - t0
        return spent + time.perf_counter() - t0

    def each(k, pos, op):
        t0, dt, outcome = execute(op)
        raw.append((k, pos, op.kind, dt, outcome))
        spans.append((t0, t0 + dt))

    cycles_run = run_ops(wl, seconds, each, pause)
    while len(setups) < SETUP_PROBES:  # probes not yet due when a long last op ended the run
        setup_sample()
    pace.probe()
    scaled = [(k, pos, kind, dt * pace.scale(*span), o) for (k, pos, kind, dt, o), span in zip(raw, spans)]
    scaled_setups = [v * pace.scale(*span) for v, span in zip(setups, setup_spans)]
    return scaled, raw, cycles_run, scaled_setups, setups


def setup_probe(wl, args) -> float:
    """One more set-up sample, from a fresh process."""
    if wl.runner is not None:
        return wl.runner.startup_s()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--mode", "setup", "--scale", args.scale, "--t0", repr(time.time())]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def measure_traced(wl, seconds: float, tracer: Tracer):
    """Like measure, but each op runs twice: untraced and traced, alternating which goes first.

    Alternating shares the cost of cold caches fairly between the two.
    Returns the traced samples, what run_ops returns, the traced wall time
    (op plus check), and the seconds inside op.run untraced and traced.
    """
    samples = []
    totals = {"plain": 0.0, "traced": 0.0, "wall": 0.0}

    def each(k, pos, op):
        tracer.op_id = len(samples)
        for traced in ((False, True) if len(samples) % 2 == 0 else (True, False)):
            if not traced:
                totals["plain"] += execute(op)[1]
                continue
            tracer.install()
            if wl.runner is not None:
                wl.runner.tracer = tracer
            t0 = time.perf_counter()
            _, dt, outcome = execute(op)
            totals["wall"] += time.perf_counter() - t0
            tracer.uninstall()
            if wl.runner is not None:
                wl.runner.tracer = None
            totals["traced"] += dt
            samples.append((k, pos, op.kind, dt, outcome))

    cycles_run = run_ops(wl, seconds, each)
    return samples, cycles_run, totals["wall"], totals["plain"], totals["traced"]


def weighted_quantile(points, q: float) -> float:
    """Smallest value whose cumulative weight reaches q of the total."""
    points = sorted(points)
    total = sum(w for _, w in points)
    acc = 0.0
    for x, w in points:
        acc += w
        if acc >= q * total * (1 - 1e-12):
            return x
    return points[-1][0]


def summarize(samples, shares: dict[str, float]) -> dict:
    """Statistics of the stated mix, so a partly finished last cycle does not bias them.

    Each sample is weighted by its kind's share of the cycle divided by
    the kind's number of samples in the run.  Throughput is the mix's
    share of ops checked correct per second inside op.run; p50 and p99 are
    weighted quantiles of the single-op latencies.  The kind means are
    kept in `per_kind` as a diagnostic.
    """
    by_kind: dict[str, list] = {}
    for _, _, kind, dt, outcome in samples:
        by_kind.setdefault(kind, []).append((dt, outcome))
    per_kind = {}
    for kind, rows in by_kind.items():
        per_kind[kind] = {
            "n": len(rows),
            "mean_ms": sum(dt for dt, _ in rows) / len(rows) * 1e3,
            "max_ms": max(dt for dt, _ in rows) * 1e3,
            "failed": sum(1 for _, o in rows if o != "ok"),
            "share": shares[kind],
        }
    ok_share = sum(r["share"] * (r["n"] - r["failed"]) / r["n"] for r in per_kind.values())
    ms_share = sum(r["share"] * r["mean_ms"] for r in per_kind.values())
    points = [(dt * 1e3, shares[kind] / per_kind[kind]["n"]) for _, _, kind, dt, _ in samples]
    p99 = weighted_quantile(points, 0.99)
    return {
        "throughput_ops_s": ok_share / ms_share * 1e3,
        "op_p50_ms": weighted_quantile(points, 0.50),
        "op_p99_ms": p99,
        "samples": len(samples),
        "beyond_p99": sum(1 for ms, _ in points if ms > p99),
        "per_kind": per_kind,
    }


def outcomes(samples, cycles_run) -> dict:
    """Counts, input digests, and every failed op as cycle:position:kind:outcome, over what ran."""
    digests, complete = cycles_run
    failed = [s for s in samples if s[4] != "ok"]
    return {
        "attempted": len(samples),
        "failed": len(failed),
        "wrong": sum(1 for s in failed if s[4] == "wrong"),
        "inputs_digest": hashlib.sha256(" ".join(digests).encode()).hexdigest()[:16],
        "cycle_digests": digests,
        "complete_cycles": complete,
        "failed_ops": [f"{k}:{pos}:{kind}:{o}" for k, pos, kind, _, o in failed],
    }


def known_defects(wl) -> list[str]:
    """Run each known-defect probe once, untimed and untraced; return "kind outcome" for each."""
    return [f"{op.kind} {execute(op)[2]}" for op in wl.known_defects()]


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.runner is not None else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def interpreter_costs(repeats: int = 7) -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of `import grasstrop.cli` minus that.

    Output goes to pipes, as in CliRunner.startup_s, so the exit is not polled for.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def median_wall(code: str) -> float:
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls)

    interp = median_wall("pass")
    return interp, median_wall("import grasstrop.cli") - interp


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_s: float, traced_s: float) -> dict:
    funcs = tracer.summary()
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        rows = [row for name, row in funcs.items() if name.split(".")[0] == layer]
        out[f"{layer}.calls"] = (sum(r["calls"] for r in rows), "count")
        out[f"{layer}.self_s"] = (sum(r["self_s"] for r in rows), "s")
        out[f"{layer}.errors"] = (sum(r["errors"] for r in rows), "count")
    for metric, fn in FUNCTION_METRICS.items():
        out[metric] = (funcs.get(fn, {"self_s": 0.0})["self_s"], "s")
    counts = tracer.counts
    out["trees.leaf_path.calls"] = (funcs.get("trees.leaf_path", {"calls": 0})["calls"], "count")
    out["trees.trees_built"] = (counts["trees.trees_built"], "count")
    out["tropical.quartets"] = (counts["tropical.quartets"], "count")
    out["plucker.terms_in"] = (counts["plucker.terms_in"], "count")
    out["plucker.terms_out"] = (counts["plucker.terms_out"], "count")
    out["semigroup.weights_tested"] = (counts["semigroup.weights_tested"], "count")
    tested = counts["semigroup.weights_tested"]
    out["semigroup.member_ratio"] = (counts["semigroup.members"] / tested if tested else 0.0, "ratio")
    out["linalg.rows_in"] = (counts["linalg.rows_in"], "count")
    rows_in = counts["linalg.rows_in"]
    out["linalg.rank_ratio"] = (counts["linalg.rank"] / rows_in if rows_in else 0.0, "ratio")
    out["trace_overhead_ratio"] = (traced_s / untraced_s, "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    out["bench.self_s"] = (traced_wall - sum(out[f"{layer}.self_s"][0] for layer in LAYERS), "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    import grasstrop as gt

    wl = workloads.build(args.workload, args.seed, gt, ROOT, args.scale)
    wl.prepare()
    setup_s = time.time() - args.t0 if wl.runner is None else wl.runner.startup_s()
    report = {"setup_s": setup_s, "cycle_ops": wl.cycle_ops}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    if args.mode == "measure":
        samples, raw, cycles_run, setups, raw_setups = measure(wl, args.seconds, lambda: setup_probe(wl, args))
        report["setup_samples_s"] = setups
        report["setup_s"] = statistics.median(setups)
        report.update(summarize(samples, wl.shares), **outcomes(samples, cycles_run))
        report["raw"] = {k: v for k, v in summarize(raw, wl.shares).items() if k != "per_kind"}
        report["raw"]["setup_s"] = statistics.median(raw_setups)
        report["peak_rss_mb"] = peak_rss_mb(wl)
        report["known_defects"] = known_defects(wl)
        print(json.dumps(report))
        return 0

    tracer = Tracer()
    samples, cycles_run, traced_wall, plain_s, traced_s = measure_traced(wl, args.seconds, tracer)
    metrics = layer_metrics(tracer, traced_wall, plain_s, traced_s)
    report["known_defects"] = known_defects(wl)
    metrics["known_defects.failed"] = (sum(1 for d in report["known_defects"] if not d.endswith(" ok")), "count")
    interp, imp = interpreter_costs()
    metrics["cli.interp_s"] = (interp, "s")
    metrics["cli.import_s"] = (imp, "s")
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(trace_file)
    report.update(outcomes(samples, cycles_run))
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["spans"] = len(tracer.start)
    report["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
