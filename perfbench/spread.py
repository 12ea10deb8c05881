"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/spread.py --workloads joins-large random-small corpus --seeds 1-10

For each workload and end-to-end metric it prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median, next to a third of the metric's bound
from BENCHMARK.json; and the share of failed operations in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(out, file=sys.stderr)
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        print(f"## {workload}: correct={all(r['correct'] for r in runs)}, "
              f"failed/attempted per run: {', '.join(shares)}")
        print("| metric | median | q1 | q3 | (q3-q1)/median | bound/3 |\n|---|---|---|---|---|---|")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"| {name} | {med:.4g} {first['unit']} | {q1:.4g} | {q3:.4g} | "
                  f"{spread:.3f} | {bounds[name] / 3:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
