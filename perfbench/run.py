"""Benchmark for swanss: run one workload and print its metrics.

    python3 perfbench/run.py --workload joins-large --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
`--workload all` runs every workload in turn.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
of a traced run with `--trace 1`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORKLOADS = ("joins-large", "random-small", "corpus")
OUT = os.path.join("perfbench", "out")
# Set-up is timed in this many probe processes, half of them before and
# half after the measured one, so the median spans the whole run.
PROBES = 23
WORKER_TIMEOUT_S = 170.0


def write_inputs(workload: str, seed: int) -> str | None:
    """Generate the workload's input files; None for the built-in corpus."""
    if workload == "corpus":
        return None
    folder = os.path.join(OUT, f"inputs-{workload}-{seed}")
    os.makedirs(folder, exist_ok=True)
    index = []
    for i, (name, data, meta) in enumerate(gen.WORKLOADS[workload](seed)):
        file = f"{i:03d}-{name}.json"
        with open(os.path.join(folder, file), "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        index.append({"name": name, "file": file, "meta": meta})
    with open(os.path.join(folder, "index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh)
    return folder


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["THREADS"] = str(len(os.sched_getaffinity(0)))  # corpus entries, one per core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # BLAS never competes with the corpus threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONOPTIMIZE", None)  # the program's asserts are part of what runs
    return env


def run_worker(args: list[str]) -> tuple[dict, float]:
    """Run worker.py; return its final JSON line and its set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=worker_env(), text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker timed out: {' '.join(args)}")
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    ready = json.loads(lines[0])["ready"]
    return json.loads(lines[-1]), ready - spawned


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = write_inputs(workload, seed)
    base = ["--workload", workload, "--seconds", str(seconds)]
    if inputs:
        base += ["--inputs", inputs]
    if trace:
        base += ["--trace", os.path.join(OUT, f"trace-{workload}-{seed}.tsv.gz")]
        probes = (0, 0)
    else:
        probes = (PROBES // 2 + 1, PROBES // 2)
    setups = [run_worker(base + ["--probe"])[1] for _ in range(probes[0])]
    result, setup = run_worker(base)
    setups.append(setup)
    setups += [run_worker(base + ["--probe"])[1] for _ in range(probes[1])]

    if trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in result["layers"].items()}
        metrics["traced.wall_s"] = {"value": statistics.median(result["round_walls"]), "unit": "s"}
    else:
        peak_kb = max(result["maxrss_kb"], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics = {
            "wall_s": {"value": statistics.median(result["round_walls"]), "unit": "s"},
            "op_p50_s": {"value": statistics.median(result["op_times"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    return {
        "workload": workload,
        "rounds": result["rounds"],
        "errors": result["errors"],
        "problems": result["problems"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_cells") or metric.endswith("_nnz"):
        return "entries"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "swanss", "__init__.py")):
        print("error: run from the root of a swanss checkout (no src/swanss here)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        summary[name] = res
        print(f"{name}: {res['rounds']} rounds, {res['attempted']} operations attempted, "
              f"{res['failed']} failed, outputs {'correct' if res['correct'] else 'WRONG'}")
        for problem in res["problems"]:
            print(f"  wrong: {problem}")
        for op, error in res["errors"].items():
            print(f"  failed: {op}: {error.splitlines()[-1]}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    keys = ("correct", "attempted", "failed", "metrics")
    if len(names) == 1:
        print(json.dumps({k: summary[names[0]][k] for k in keys}))
    else:
        print(json.dumps({n: {k: summary[n][k] for k in keys} for n in names}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
