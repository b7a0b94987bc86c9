"""Repeat the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:
    python3 bench/spread.py [--runs 10] [--first-seed 1] [--trace 0|1] [--out FILE] [workload ...]

For every workload it runs bench/run.py once per seed, one run at a time,
and prints each metric's median and its quartile spread (Q3 - Q1 of the
runs, from statistics.quantiles(n=4), as a share of the median) next to the
metric's bound in BENCHMARK.json, flagged "ok" below a third of the
bound, "within bound" up to the bound, and "ABOVE bound" past it. --out writes the runs and the summary as
JSON, which is how bench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    report: dict = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **last})
            ok = ok and last["correct"]
            print(f"{workload} seed {seed}: correct={last['correct']} failed={last['failed']}"
                  f"/{last['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()),
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            summary[name] = {"median": median, "spread": spread,
                             "unit": runs[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                # acceptance needs spread <= bound; below bound / 3 leaves room for a second set
                flag = ("  ok" if spread < bound / 3 else
                        "  within bound, not below bound/3" if spread <= bound else "  ABOVE bound")
            print(f"{workload} {name}: median {median:.6g}, spread {spread:.3f}"
                  + ("" if bound is None else f" (bound {bound})") + flag)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
