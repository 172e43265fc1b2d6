"""Time-to-verdict benchmark for expanse.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each timed call runs in a fresh interpreter
(bench/child.py), one at a time, with BLAS/OpenMP pools pinned to one
thread: a closed loop with one client, a researcher waiting for each
verdict. Calls repeat while the next one is expected to end within S
seconds of the first (at least one call).
Every call's output is checked; a call that raises, exits with an
unexpected code or fails its check counts as failed.

With --trace 0 the last stdout line carries the end-to-end metrics:
median wall seconds of the timed call, median import seconds of numpy and
expanse in a fresh child, and median peak RSS. With --trace 1 plain and
traced calls alternate and the line carries the per-layer metrics plus
the tracing overhead. See bench/README.md for the workloads and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent

# the keys of workloads.WORKLOADS; this process does not import numpy or expanse
WORKLOADS = ("falsify-harmonic16", "hierarchy-exp8", "entropy-doubling",
             "shadow-drift", "entropy-exact18")
SETUP_SAMPLES = 3          # import-only children per run, after one warm-up
RUN_DEADLINE_S = 170.0     # a run that reaches it stops its child and reports
ADD_UP_TOL_S = 1e-6
PIN_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def run_child(workload: str, seed: int, mode: str, out_dir: Path, run_id: str,
              timeout: float) -> dict:
    """Run bench/child.py once and return its result, or the reason it has none."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0",
               **{k: "1" for k in PIN_THREADS})
    result_file = out_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), mode,
           str(out_dir), run_id]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        problem = f"child exited {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        problem = f"no result within {timeout:.0f} s"
    res = {"run_id": run_id, "mode": mode, "problems": [problem]}
    if result_file.is_file():
        res = json.loads(result_file.read_text())
    res["process_s"] = time.perf_counter() - t0
    res["process_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return res


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced call."""
    by_layer, by_name = trace["self_by_layer"], trace["self_by_name"]
    calls, counts = trace["calls"], trace["counts"]

    def named(*names, table=calls):
        return sum(table.get(n, 0) for n in names)

    search = ("alignment._find_orbit_time", "alignment.orbit_membership")
    align_s = by_name.get("alignment.align", 0.0)
    scanned = counts.get("expansivity.pairs_scanned", 0)
    below = counts.get("expansivity.pairs_below_delta", 0)
    m = {f"{layer}.self_s": s for layer, s in by_layer.items()}
    m.update({
        "alignment.align_calls": calls.get("alignment.align", 0),
        "alignment.dp_cells": counts.get("alignment.dp_cells", 0),
        "alignment.dp_cells_per_s": counts.get("alignment.dp_cells", 0) / align_s
        if align_s > 0 else 0.0,
        "alignment.orbit_search_calls": named(*search),
        "alignment.orbit_search_self_s": named(*search, table=by_name),
        "spaces.calls": sum(c for n, c in calls.items() if n.startswith("spaces.")),
        "spaces.values": counts.get("spaces.values", 0),
        "flows.points": counts.get("flows.points", 0),
        "flows.sample_orbit_calls": calls.get("flows.sample_orbit", 0),
        "expansivity.pairs_scanned": scanned,
        "expansivity.pairs_below_delta": below,
        "expansivity.below_ratio": below / scanned if scanned else 0.0,
        "shadowing.candidates_tried": counts.get("shadowing.candidates_tried", 0),
        "entropy.cover_cells": counts.get("entropy.cover_cells", 0),
        "entropy.cover_size_sum": counts.get("entropy.cover_size_sum", 0),
        "entropy.bowen_cells": counts.get("entropy.bowen_cells", 0),
        "cli.report_bytes": counts.get("cli.report_bytes", 0),
        "trace.top_self_s": trace["top"],
        "trace.wall_s": trace["wall"],
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/expanse/__init__.py").is_file():
        print("error: run from the expanse repository root (src/expanse not found)",
              file=sys.stderr)
        return 2
    declared = json.loads(Path("BENCHMARK.json").read_text())

    deadline = time.perf_counter() + RUN_DEADLINE_S
    out_root = Path(".bench_out") / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    tag = f"{args.workload}-s{args.seed}"

    def child(mode: str, i: int) -> dict:
        return run_child(args.workload, args.seed, mode, out_root / f"{mode}-{i}",
                         f"{tag}-{mode}-{i}", max(1.0, deadline - time.perf_counter()))

    child("setup", 0)  # warm-up: fills the file and bytecode caches, sample dropped
    setups = [child("setup", i) for i in range(1, SETUP_SAMPLES + 1)]

    # whole rounds of calls, as many as are expected to fit in --seconds
    modes = ("plain", "traced") if args.trace else ("plain",)
    samples = []
    start = time.perf_counter()
    rounds = 0
    while True:
        samples.extend(child(mode, rounds) for mode in modes)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break

    # the same inputs must give the same report bytes on every call
    shas = {s["sha256"] for s in samples if "sha256" in s}
    if len(shas) > 1:
        for s in samples:
            s["problems"].append("report bytes differ between calls")
    traced = [s for s in samples if "trace" in s]
    for s in traced:
        t, first = s["trace"], traced[0]["trace"]
        if abs(sum(t["self_by_layer"].values()) + t["top"] - t["wall"]) > ADD_UP_TOL_S:
            s["problems"].append("layer self times do not add up to the traced wall")
        if t["counts"] | t["calls"] != first["counts"] | first["calls"]:
            s["problems"].append("trace counts differ between calls of the same inputs")

    failed = [s for s in samples if s["problems"]]
    for s in samples:
        # a call that crashed still took its process time and memory
        s.setdefault("wall_s", s["process_s"])
        s.setdefault("peak_rss_mb", s["process_rss_mb"])
        # last line only: a traceback stays whole in the call's result.json
        status = "FAILED: " + " | ".join(p.strip().splitlines()[-1] for p in s["problems"]) \
            if s["problems"] else "ok"
        print(f"{s['run_id']}: wall {s['wall_s']:.4f} s, "
              f"setup {s.get('setup_s', float('nan')):.4f} s, "
              f"rss {s['peak_rss_mb']:.1f} MB, "
              f"sha256 {s.get('sha256', '-')[:16]}, {status}")
    plain = [s for s in samples if s["mode"] == "plain"]
    print(f"{tag}: {len(samples)} calls, failed_frac {len(failed) / len(samples):.3f}, "
          f"setup samples {len(setups) + len(samples)}, "
          f"report sha256 {' '.join(sorted(shas)) or '-'}")

    if args.trace:
        # with no trace at all (every traced call crashed) the run reports zeros
        per_call = [layer_metrics(s["trace"]) for s in traced] or [
            dict.fromkeys((m["name"] for m in declared["per_layer"]), 0)]
        # counts repeat exactly, so the low median keeps them whole numbers
        values = {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
            m[k] for m in per_call) for k, v in per_call[0].items()}
        values["trace.overhead_frac"] = (
            statistics.median(s["wall_s"] for s in samples if s["mode"] == "traced")
            / statistics.median(s["wall_s"] for s in plain) - 1.0)
    else:
        values = {
            "wall_s": statistics.median(s["wall_s"] for s in plain),
            "setup_s": statistics.median(s["setup_s"] for s in setups + samples
                                         if "setup_s" in s),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        }
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not failed, "attempted": len(samples), "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
