"""melaplace benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload rect_grid --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src``.  Every workload runs in fresh processes (worker.py)
with the thread variables of BLAS and OpenMP set to 1.  With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` a separate traced
process prints the per-layer metrics and the tracing overhead.  Summary
lines go first; the last line of stdout is the JSON result.  See README.md
for the workloads, the metrics and what each layer metric should move.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the names of workloads.WORKLOADS; run.py itself never imports melaplace
WORKLOADS = ("rect_grid", "rect_sweep", "line_numeric", "direct")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
# An untraced run splits --seconds over PARTS timed processes, each on its
# own op stream, and times SETUPS_BETWEEN set-up-only processes before,
# between and after them, so that samples spread over the whole run.
# Times are scaled by a calibration kernel (see worker.py).
PARTS = 4
SETUPS_BETWEEN = 2
# p99.9 spread by 40% between runs of one seed, so the ladder stops at p99
TAIL_LADDER = (50.0, 90.0, 99.0)
# the whole run must end within 180 s
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


class ChildFailed(Exception):
    pass


def run_child(args, deadline):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"worker printed nothing: {' '.join(args)}")
    return json.loads(lines[-1])


def tail(latencies):
    """(percentile, value) at the highest ladder percentile that still has
    at least ten samples beyond it; the median when none has."""
    data = sorted(latencies)
    n = len(data)
    best = (50.0, statistics.median(data))
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)  # nearest rank, 1-based
        if n - rank >= 10:
            best = (p, data[rank - 1])
    return best


def end_to_end(base, seconds, deadline):
    setup_only = base + ["--setup-only"]
    setups, parts = [], []
    for part in range(PARTS + 1):
        setups += [run_child(setup_only, deadline) for _ in range(SETUPS_BETWEEN)]
        if part == PARTS:
            break
        res = run_child(base + ["--part", str(part), "--seconds", str(seconds / PARTS)],
                        deadline)
        setups.append(res)
        parts.append(res)
    latencies = [x for p in parts for x in p["latencies"]]
    n = len(latencies)
    failed = sum(p["failed"] for p in parts)
    pct, tail_s = tail(latencies)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": n / sum(latencies),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    print(f"ops: {n} attempted, {failed} failed, fail_frac = {failed / n:.6g}")
    print(f"op_ms_tail is p{pct:g} of {n} ops")
    print("machine speed against the calibration reference, per part: "
          + ", ".join(f"{p['speed']:.3f}" for p in parts))
    print("unscaled, per part: ops_per_s over wall "
          + ", ".join(f"{p['raw_ops_per_s']:.4g}" for p in parts)
          + "; op_ms_p50 " + ", ".join(f"{p['raw_op_ms_p50']:.4g}" for p in parts))
    print(f"setup_s is the median of {len(setups)} fresh processes; unscaled: "
          + ", ".join(f"{s['raw_setup_s']:.4f}" for s in setups))
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return n, failed, True, metrics


def traced(base, seconds, deadline):
    res = run_child(base + ["--seconds", str(seconds), "--trace"], deadline)
    n, failed = res["attempted"], res["failed"]
    print(f"ops: {n} attempted over {res['passes']} untraced and "
          f"{res['passes']} traced passes, {failed} failed")
    print("trace counts repeat across passes: "
          + ("yes" if res["repeatable"] else "NO"))
    metrics = {k: {"value": v, "unit": per_layer_unit(k)}
               for k, v in res["metrics"].items()}
    return n, failed, res["repeatable"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "melaplace" / "__init__.py").is_file():
        print(f"no melaplace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    measure = traced if args.trace else end_to_end
    try:
        attempted, failed, sound, metrics = measure(base, args.seconds, deadline)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and sound,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
