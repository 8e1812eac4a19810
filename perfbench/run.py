"""crackst benchmark: time to a validated result, with its accuracy.

    python3 perfbench/run.py --workload fig6_grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (closed loop, one client, each
pass in a fresh interpreter, BLAS pinned to one thread):

  fig6_grid         ``crackst scenario fig6`` in-process through ``cli.main``:
                    3 load angles x 3 surface tensions at N=20 plus the base
                    solve, its validation battery and the exports.  Ignores
                    the seed.
  order_ladder      the reference semicircle solved at N = 16, 24, 32, 48, 64,
                    each followed by ``original_bc_residual`` and
                    ``conservation_checks``.  Ignores the seed.
  ellipse_validate  what ``crackst validate`` does on a 1.5:1 ellipse at N=24,
                    as library calls; each pass feeds its own seed, drawn
                    from ``--seed``, to ``validate_solution``.

For ``--seconds`` this script starts passes one after the other; each pass is
``perfbench/worker.py`` importing ``crackst`` from ``src/``, running the
workload once and checking its outputs against ``perfbench/reference.json``.
An operation is one pass; it fails on an exception or an output mismatch.

End-to-end metrics (``--trace 0``) are medians over the passes:
  setup_s           spawn of the interpreter to ``import crackst.cli`` done
  wall_s            one pass of the workload after the import (the report
                    also gives cpu_s, the process CPU time of that pass)
  peak_rss_mb       peak resident memory of the pass's process
  max_residual      worst unweighted least-squares residual at the top order
  surface_residual  worst relative surface-condition residual at the top order
  cols_per_rank     sum of columns over sum of ranks over all solves; 1 when
                    every solve has full rank
The report above the last line also gives rank_deficit, trace_consistency,
checks_failed and ops_failed, which can be 0 or depend on the seed.

``--trace 1`` alternates plain and traced passes and reports the per-layer
metrics of ``perfbench/tracing.py`` (medians over traced passes), the import
times of numpy, scipy and crackst from ``python -X importtime``, and
``trace.overhead_s``, the traced minus the plain median wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in ``BENCHMARK.json``.
Scratch files go to ``.perfbench_out/``.  The last run of each workload
leaves there ``result-<workload>.json``, with every metric of the report and
the environment, and, when traced, ``spans-<workload>.json``, the spans of
its last traced pass.
"""

import argparse
import collections
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("fig6_grid", "order_ladder", "ellipse_validate")
PASS_TIMEOUT_S = 100
IMPORTTIME_PROBES = 3
MAX_PROBLEMS_SHOWN = 20


def pinned_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("CRACKST_OUTPUT_ROOT", None)
    return env


def run_pass(workload, seed, trace, index):
    out = os.path.join(OUT, f"{workload}-pass")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    args = {"workload": workload, "seed": seed, "trace": trace, "out": out,
            "spans": os.path.join(OUT, f"spans-{workload}.json")}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(args)],
            env=pinned_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass {index} timed out after {PASS_TIMEOUT_S} s", "trace": trace}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"pass {index} exited with {proc.returncode}: {tail[0]}", "trace": trace}
    result = json.loads(lines[-1])
    result["setup_s"] = result["imported_at"] - spawned
    result["trace"] = trace
    return result


def import_times(env):
    """Self import time of numpy, scipy and crackst from -X importtime."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import crackst.cli"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    totals = {"numpy": 0.0, "scipy": 0.0, "crackst": 0.0}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)", line.strip())
        if m and m.group(2).split(".")[0] in totals:
            totals[m.group(2).split(".")[0]] += int(m.group(1)) * 1e-6
    return {"import.numpy_s": totals["numpy"], "import.scipy_s": totals["scipy"],
            "import.crackst_self_s": totals["crackst"]}


def accuracy(result):
    """Accuracy figures of one pass, from the solves and checks it reported."""
    solves, checks = result["solves"], result["checks"]
    top = max(s["order"] for s in solves)
    surface = [c["relative"] for c in checks
               if c["name"] == "surface_condition_residual" and c["order"] == top]
    trace = [c["value"] for c in checks if c["name"] == "trace_consistency"]
    return {
        "max_residual": max(s["max_residual"] for s in solves if s["order"] == top),
        "surface_residual": max(surface) if surface else None,
        "cols_per_rank": sum(s["cols"] for s in solves) / sum(s["rank"] for s in solves),
        "rank_deficit": sum(s["cols"] - s["rank"] for s in solves),
        "condition_top": max(s["condition"] for s in solves if s["order"] == top),
        "trace_consistency": max(trace) if trace else None,
        "checks_failed": sum(1 for c in checks if not c["passed"]),
    }


def unit_of(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "ratio" in name or "per_rank" in name:
        return "ratio"
    if any(k in name for k in ("residual", "condition", "consistency")):
        return "1"
    return "count"


def median(values):
    return statistics.median(values) if values else float("nan")


def run_workload(workload, seed, seconds, trace, spec):
    rng = random.Random(seed)
    results = []
    start = time.monotonic()
    if trace:
        probes = [import_times(pinned_env()) for _ in range(IMPORTTIME_PROBES)]
    while len(results) < 1 + trace or time.monotonic() - start < seconds:
        traced = trace and len(results) % 2 == 1
        results.append(run_pass(workload, rng.randrange(2**31), traced, len(results)))
    elapsed = time.monotonic() - start

    problems = [([r["error"]] if r.get("error") else []) + r.get("mismatches", [])
                for r in results]
    failed = sum(1 for p in problems if p)
    shown = [p for pass_problems in problems for p in pass_problems]
    for problem in shown[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {workload}: {problem}")
    if len(shown) > MAX_PROBLEMS_SHOWN:
        print(f"FAILED {workload}: ... {len(shown) - MAX_PROBLEMS_SHOWN} more")
    good = [r for r in results if not r.get("error")]
    plain = [r for r in good if not r["trace"]]
    traced = [r for r in good if r["trace"]]
    if not plain or (trace and not traced):
        print(f"error: no pass of {workload} completed", file=sys.stderr)
        return None
    acc = [accuracy(r) for r in good]
    metrics = {
        "setup_s": median([r["setup_s"] for r in plain]),
        "wall_s": median([r["wall_s"] for r in plain]),
        "cpu_s": median([r["cpu_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    for key in acc[0]:
        values = [a[key] for a in acc if a[key] is not None]
        metrics[key] = median(values) if values else None
    metrics["ops_attempted"] = len(results)
    metrics["ops_failed"] = failed
    if trace:
        for key in traced[0]["layers"]:
            metrics[key] = median([r["layers"][key] for r in traced])
        metrics["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - metrics["wall_s"]
        for key in probes[0]:
            metrics[key] = median([p[key] for p in probes])

    failing = collections.Counter(c["name"] for r in good for c in r["checks"] if not c["passed"])
    with open(os.path.join(OUT, f"result-{workload}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace, "env": good[0]["env"],
                   "failing_checks": failing, "metrics": metrics}, fh, indent=1)

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"{len(results)} passes ({len(plain)} plain, {len(traced)} traced) in {elapsed:.1f} s")
    print("env " + json.dumps(good[0]["env"], sort_keys=True))
    print(f"  failing validation checks (count over {len(good)} passes): "
          f"{dict(failing) or 'none'}")
    walls = sorted(r["wall_s"] for r in plain)
    print(f"  wall_s per plain pass: min {walls[0]:.4f}  median {metrics['wall_s']:.4f}  "
          f"max {walls[-1]:.4f}  (n={len(walls)})")
    for key, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:32s} {shown:>14s} {unit_of(key)}")

    names = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in names if metrics.get(m["name"]) is None]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return None
    return {
        "correct": metrics["ops_failed"] == 0,
        "attempted": metrics["ops_attempted"],
        "failed": metrics["ops_failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (os.path.join(SRC, "crackst", "__init__.py"),
                   os.path.join(HERE, "reference.json"),
                   os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found; run from a crackst checkout", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        result = run_workload(workload, args.seed, seconds, bool(args.trace), spec)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
