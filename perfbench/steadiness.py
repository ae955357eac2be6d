"""Repeat each workload over several seeds and show how steady each metric is.

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workload NAME ...]

Runs ``perfbench/run.py`` once per (workload, seed), in order, and prints
for every end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (third minus first
quartile, as a share of the median) and the metric's bound from
``BENCHMARK.json``.  A spread above a third of its bound is flagged
(``setup_s`` is compared on its median only, so its spread is shown but
not flagged).  The share of failed operations must be identical in every
run of a workload; a difference is flagged too.  Exits 1 when anything is
flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = False
    for workload in args.workload:
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        shares = set()
        for seed in args.seeds:
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {completed.returncode}\n{completed.stderr}")
                return 1
            result = json.loads(lines[-1])
            shares.add((result["failed"], result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, "
                  + " ".join(f"{name}={values[name][-1]:.4g}" for name in bounds), flush=True)
        ratios = {failed / attempted for failed, attempted in shares}
        if len(ratios) > 1:
            flagged = True
            print(f"  FLAG failed share differs between runs: {sorted(shares)}")
        print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name, series in values.items():
            q1, mid, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            mark = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                mark = "  FLAG"
                flagged = True
            print(f"  {name:<22}{mid:12.4f}{q1:12.4f}{q3:12.4f}{spread:9.3f}"
                  f"{bounds[name]:8.2f}{mark}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
