"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 --first-seed 100 [--workload NAME]
        [--trace 0|1] [--out perfbench/baseline.json]

For every workload it runs ``run.py`` once per seed, for the ``run_seconds``
of ``BENCHMARK.json``, and prints for every metric of the run's full result
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and
the quartile distance as a share of the median, next to the bound for the
end-to-end metrics of ``BENCHMARK.json``.  ``--out`` writes these figures,
with every run's values and the environment of the first run, as a JSON
baseline.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(os.path.join(ROOT, ".perfbench_out", f"result-{workload}.json")) as fh:
                full = json.load(fh)
            full.update(attempted=last["attempted"], failed=last["failed"])
            runs.append(full)
            report.setdefault("env", full["env"])
            print(f"{workload} seed {seed}: attempted {last['attempted']} "
                  f"failed {last['failed']} correct {last['correct']}", flush=True)
        summary = {}
        for name, value in runs[0]["metrics"].items():
            if value is None:
                continue
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": values}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:g}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:32s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}{flag}", flush=True)
        report["workloads"][workload] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failing_checks": [r["failing_checks"] for r in runs],
            "metrics": summary,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
