"""One benchmark process: set up, run whole rounds of one workload, check.

`run.py` starts this file in a fresh interpreter with `src/` of the
checkout on PYTHONPATH.  Set-up ends when the inputs are loaded through
`load_complex_json`; the worker then prints the monotonic clock reading
of that moment, so the parent can time set-up from the moment it started
the process.  A probe (`--probe`) stops there.  Otherwise the worker runs
rounds, each one pass over every input, until `--seconds` of timed work
and at least three rounds are done, checks every output outside the timed
part, and prints its result as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402

# The median of three rounds outvotes one round slowed by the machine.
MIN_ROUNDS = 3
# A round is never cut short, so a slow machine may run past --seconds;
# no new round starts once the process is this old.
DEADLINE_S = 120.0


def load_inputs(input_dir: str):
    from swanss.complexes import load_complex_json

    with open(os.path.join(input_dir, "index.json"), encoding="utf-8") as fh:
        index = json.load(fh)
    items = []
    for entry in index:
        with open(os.path.join(input_dir, entry["file"]), encoding="utf-8") as fh:
            text = fh.read()
        items.append((entry["name"], load_complex_json(text), entry["meta"], text))
    return items


def make_ops(workload: str, items):
    """(name, callable) per operation of one round."""
    if workload == "corpus":
        from swanss.cli import main

        def corpus_pass():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["corpus", "run"])
            return code, out.getvalue()

        return [("corpus-run", corpus_pass)]
    import swanss.report as report  # looked up per call, so a traced run sees the wrapper

    return [(name, lambda K=K, name=name: report.analyze_complex(K, name=name))
            for name, K, _, _ in items]


class Checks:
    """Independent checks of every output, kept apart from the timing."""

    def __init__(self, workload: str, items):
        self.workload = workload
        self.items = items
        self.facts: dict[str, checker.InputFacts] = {}
        self.first_corpus: str | None = None
        self.corpus_names: list[str] | None = None

    def __call__(self, index: int, result) -> list[str]:
        if self.workload == "corpus":
            if self.corpus_names is None:
                from swanss.corpus import corpus_names

                self.corpus_names = corpus_names()
            code, text = result
            problems = checker.check_corpus(code, text, self.corpus_names, self.first_corpus)
            if self.first_corpus is None:
                self.first_corpus = text
            return problems
        name, _, meta, text = self.items[index]
        if name not in self.facts:
            self.facts[name] = checker.InputFacts(json.loads(text))
        return checker.check_report(self.facts[name], result, meta)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", default=None)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", default=None, help="write spans here and report per-layer metrics")
    ap.add_argument("--probe", action="store_true", help="stop once set-up is done")
    args = ap.parse_args(argv)

    import numpy  # noqa: F401  (part of set-up, as for any user of swanss)
    import swanss
    import swanss.cli  # noqa: F401
    import swanss.report  # noqa: F401

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(swanss.__file__).startswith(src + os.sep):
        raise SystemExit(f"swanss was imported from {swanss.__file__}, not from {src}")
    items = load_inputs(args.inputs) if args.inputs else []
    ready = time.monotonic()
    print(json.dumps({"ready": ready}), flush=True)
    if args.probe:
        return 0

    ops = make_ops(args.workload, items)
    checks = Checks(args.workload, items)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    started = time.monotonic()
    round_walls: list[float] = []
    op_times: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    errors: dict[str, str] = {}
    while True:
        results = []
        t_round = time.perf_counter()
        for index, (name, op) in enumerate(ops):
            if tracer is not None:
                tracer.op_id = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = op() if tracer is None else tracer.call("op", op)
            except Exception as exc:  # the fault is counted, the run goes on
                failed += 1
                errors.setdefault(name, "".join(traceback.format_exception_only(exc)).strip())
                continue
            finally:
                op_times.append(time.perf_counter() - t0)
            results.append((index, result))
        round_walls.append(time.perf_counter() - t_round)
        for index, result in results:
            problems += [f"{ops[index][0]}: {p}" for p in checks(index, result)]
        if len(round_walls) >= MIN_ROUNDS and sum(round_walls) >= args.seconds:
            break
        if time.monotonic() - started > DEADLINE_S:
            break

    out = {
        "rounds": len(round_walls),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "problems": problems[:20],
        "correct": not problems,
        "round_walls": round_walls,
        "op_times": op_times,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics(len(round_walls))
        tracer.save(args.trace)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
