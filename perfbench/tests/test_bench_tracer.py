"""The outside-in tracer: spans nest, self times add up, nothing is left wrapped."""

import json
import os
import time

import pytest

import gen
import swanss.pages
import swanss.report
from swanss.complexes import load_complex_json
from swanss.report import analyze_complex
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def traced():
    K = load_complex_json(json.dumps(gen.polygon_join(3, 3, 1, 3, 0)))
    tracer = Tracer()
    originals = (swanss.report.cochain_complex, swanss.pages.kernel_mod,
                 swanss.pages.FactoredSolve.solve)
    tracer.install()
    try:
        # wrapped where other modules bind the name, not only where it is defined
        assert swanss.report.cochain_complex is not originals[0]
        assert swanss.pages.kernel_mod is not originals[1]
        assert swanss.pages.FactoredSolve.solve is not originals[2]
        tracer.op_id = 7
        t0 = time.perf_counter()
        tracer.call("op", analyze_complex, K)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert (swanss.report.cochain_complex, swanss.pages.kernel_mod,
            swanss.pages.FactoredSolve.solve) == originals
    return tracer, wall


def test_self_times_sum_to_the_operation_span(traced):
    tracer, wall = traced
    own = tracer.self_times()
    root = [i for i, nid in enumerate(tracer.name) if tracer.names[nid] == "op"]
    assert len(root) == 1
    span = tracer.end[root[0]] - tracer.start[root[0]]
    assert all(op == 7 for op in tracer.op)
    assert sum(own) == pytest.approx(span, rel=0.01)
    assert min(own) > -1e-6
    assert span == pytest.approx(wall, rel=0.05)


def test_spans_nest_inside_their_parents(traced):
    tracer, _ = traced
    for i, parent in enumerate(tracer.parent):
        if parent >= 0:
            assert tracer.start[parent] <= tracer.start[i] <= tracer.end[i] <= tracer.end[parent]


def test_every_declared_per_layer_metric_is_reported(traced):
    tracer, _ = traced
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    metrics = tracer.metrics(rounds=1)
    assert declared - {"traced.wall_s"} <= set(metrics)
    assert metrics["linalg.rref_calls"] > 0 and metrics["linalg.rref_cells"] > 0
    assert metrics["complexes.subdivisions"] >= 2  # regularization and the quotient
    assert metrics["swan.tot_degrees"] == 21
    assert metrics["corpus.entries_s"] == 0
