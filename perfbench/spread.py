#!/usr/bin/env python3
"""Runs the benchmark on one workload with several seeds and reports, for
each metric, the median, the quartiles and the spread: the distance
between the first and third quartile as a share of the median.

Run it from the repository root:

    python3 perfbench/spread.py --workload mix-64 --seeds 1-10
    python3 perfbench/spread.py --workload mix-64 --seeds 1-10 --trace 1 --out runs.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="also write every run's result and the summary as JSON")
    args = ap.parse_args()

    runs = []
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        res["seed"] = seed
        runs.append(res)
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']}", file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
        }
        spread = summary[name]["spread"]
        print(f"{name:34} median {med:14.4f} {summary[name]['unit']:10} spread "
              + (f"{spread:.4f}" if spread is not None else "n/a"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                       "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
