#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload service_mix --seeds 1-5

Runs perfbench/run.py once per seed (untraced, BENCHMARK.json's
run_seconds unless --seconds is given) and prints, per end-to-end metric,
the median, the quartile spread (Q3 - Q1, from
statistics.quantiles(values, n=4)) as a share of the median, and the
metric's bound from BENCHMARK.json. A spread above a third of the bound
is flagged. Exits non-zero if any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print("seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: host_s_per_volume %.4f setup_s %.4g" % (
            seed, result["metrics"]["host_s_per_volume"]["value"],
            result["metrics"]["setup_s"]["value"]))

    print("%-20s %14s %10s %7s" % ("metric", "median", "spread", "bound"))
    for spec in bench["end_to_end"]:
        v = values[spec["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        flag = "" if spread <= spec["bound"] / 3 else "  <-- above bound/3"
        print("%-20s %14.6g %9.2f%% %7.2f%s" % (
            spec["name"], med, 100 * spread, spec["bound"], flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
