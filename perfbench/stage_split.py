#!/usr/bin/env python3
"""Print the traced per-layer metrics of several workloads side by side.

    python3 perfbench/stage_split.py [--seed 1] [--seconds 10] [workload ...]

Runs the command from BENCHMARK.json with `--trace 1` for each workload
(default: unicast_sync and unicast_sync_udp, the sim-vs-UDP comparison)
from the repository root, and prints one row per per-layer metric with
one column per workload.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("workloads", nargs="*",
                    default=["unicast_sync", "unicast_sync_udp"])
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    columns = []
    for w in a.workloads:
        cmd = bench["command"] + [
            "--workload", w, "--seed", str(a.seed),
            "--seconds", str(seconds), "--trace", "1",
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{w}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        columns.append(json.loads(out.stdout.strip().splitlines()[-1])["metrics"])
    print(f"{'metric':<36} {'unit':<13}" + "".join(f"{w:>20}" for w in a.workloads))
    for m in bench["per_layer"]:
        name = m["name"]
        cells = "".join(f"{c[name]['value']:>20.4f}" for c in columns)
        print(f"{name:<36} {m['unit']:<13}{cells}")


if __name__ == "__main__":
    main()
