"""One benchmark sample in a fresh interpreter.

Usage: python3 bench/child.py WORKLOAD SEED MODE OUT_DIR RUN_ID
MODE is ``setup`` (imports only), ``plain`` (one timed call) or ``traced``
(the same call with layer spans). Writes ``result.json`` to
OUT_DIR; run.py starts this with PYTHONPATH=src and thread pools pinned
to one thread.
"""

import time

_T0 = time.perf_counter()

import numpy  # noqa: E402,F401
import expanse  # noqa: E402
import expanse.cli  # noqa: E402,F401

SETUP_S = time.perf_counter() - _T0

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main(workload: str, seed: int, mode: str, out_dir: Path, run_id: str) -> dict:
    result = {"run_id": run_id, "mode": mode, "setup_s": SETUP_S}
    if mode == "setup":
        return result
    import workloads

    job = workloads.WORKLOADS[workload](seed, out_dir)
    tracer = None
    if mode == "traced":
        from tracing import Tracer
        tracer = Tracer(run_id)
        tracer.install(expanse)
        tracer.active = True
    try:
        t0 = time.perf_counter()
        output = job.call()
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.active = False
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report, problems = job.finish(output)
    result["sha256"] = hashlib.sha256(report).hexdigest()
    result["problems"] = problems
    if tracer is not None:
        summary = tracer.summary(expanse, wall)
        written = out_dir / "report.json"
        summary["counts"]["cli.report_bytes"] = written.stat().st_size if written.is_file() else 0
        tracer.write(out_dir / "spans.json")
        result["trace"] = summary
    return result


if __name__ == "__main__":
    workload, seed, mode, out, run_id = sys.argv[1:6]
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        res = main(workload, int(seed), mode, out_dir, run_id)
    except Exception:  # noqa: BLE001 - a failed sample is reported, not raised
        res = {"run_id": run_id, "mode": mode, "setup_s": SETUP_S,
               "problems": [traceback.format_exc()]}
    (out_dir / "result.json").write_text(json.dumps(res))
