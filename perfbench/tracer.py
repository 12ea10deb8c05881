"""Outside-in tracing of swanss: spans recorded around calls into its layers.

`install` replaces functions and methods of the loaded swanss modules by
wrappers, wherever the name is bound (a function imported by name into
another module is replaced there too), so no file of the program changes.
A span records its name, start, end, parent span and operation id; the
parent is kept per thread.  Spans stay in memory and `save` writes them
out when the run ends.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import threading
import time
from array import array
from collections import Counter

# (module, attribute, span name or None for count-only, counter, sizer).
# A sizer maps (args, result) to the amount added to the counter; without
# one the counter counts calls.
TARGETS = (
    ("report", "analyze_complex", "report.self", None, None),
    ("complexes", "validate_and_regularize", "complexes.regularize",
     "complexes.regularized_simplices", lambda a, r: r.size()),
    ("complexes", "barycentric_subdivision", None, "complexes.subdivisions", None),
    ("complexes", "cochain_complex", "complexes.cochain", None, None),
    ("complexes", "EquivariantCochainComplex.cohomology", "complexes.cohomology", None, None),
    ("complexes", "quotient_complex", "complexes.quotient",
     "complexes.quotient_simplices", lambda a, r: r.size()),
    ("complexes", "betti_numbers", "complexes.betti", None, None),
    ("swan", "SwanDoubleComplex.__init__", "swan.build", None, None),
    ("swan", "SwanDoubleComplex.total_cohomology_dims", "swan.tot_dims", None, None),
    ("pages", "PageTower.__init__", "pages.tower",
     "pages.cells", lambda a, r: sum(len(pg.cells) for pg in a[0].pages.values())),
    ("pages", "PageTower.pairing_matrix", None, "duality.pairings", None),
    ("duality", "duality_report", "duality.report", None, None),
    ("duality", "pd_propagation_audit", "duality.audit", None, None),
    ("duality", "mod4_audit", "duality.audit", None, None),
    ("gmodule", "decompose", "gmodule.decompose", None, None),
    ("linalg", "rref_mod", "linalg.rref", "linalg.rref_cells", lambda a, r: a[0].size),
    ("linalg", "kernel_mod", "linalg.echelon", None, None),
    ("linalg", "column_echelon_mod", "linalg.echelon", None, None),
    ("linalg", "FactoredSolve.__init__", "linalg.factor",
     "linalg.factor_cells", lambda a, r: a[1].size),
    ("linalg", "FactoredSolve.solve", "linalg.solve", "linalg.solve_columns", lambda a, r: 1),
    ("linalg", "FactoredSolve.solve_many", "linalg.solve",
     "linalg.solve_columns", lambda a, r: a[1].size // max(a[0].shape[0], 1)),
    ("linalg", "sparse_rank", "linalg.sparse_rank",
     "linalg.sparse_rank_nnz", lambda a, r: sum(len(c) for c in a[0])),
    ("corpus", "run_entry", "corpus.entry", None, None),
    ("cli", "_emit", "cli.emit", None, None),
)

# Spans whose time is reported inclusive of their children (a corpus entry
# covers a whole analysis; the emitter calls nothing traced).
INCLUSIVE = ("corpus.entry", "cli.emit")

# Every per-layer metric `Tracer.metrics` reports, in order.
SPAN_METRICS = (
    "report.self", "complexes.regularize", "complexes.cochain", "complexes.cohomology",
    "complexes.quotient", "complexes.betti", "swan.build", "swan.tot_dims",
    "pages.tower", "duality.report", "duality.audit", "gmodule.decompose",
    "linalg.rref", "linalg.echelon", "linalg.factor", "linalg.solve", "linalg.sparse_rank",
)
CALL_METRICS = ("linalg.rref", "linalg.factor", "linalg.solve", "linalg.sparse_rank")
COUNTERS = (
    "complexes.regularized_simplices", "complexes.subdivisions", "complexes.quotient_simplices",
    "swan.tot_degrees", "pages.cells", "duality.pairings", "linalg.rref_cells",
    "linalg.factor_cells", "linalg.solve_columns", "linalg.sparse_rank_nnz",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
        stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._local.stack.pop()

    def call(self, span: str, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `span`."""
        idx = self._open(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def count(self, counter: str, amount: int):
        with self._lock:
            self.counts[counter] += amount

    def wrap(self, fn, span: str | None, counter: str | None, sizer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs) if span is None else self.call(span, fn, *args, **kwargs)
            if counter is not None:
                self.count(counter, 1 if sizer is None else sizer(args, result))
            return result

        return traced

    # -- installing into swanss --------------------------------------------
    def install(self):
        """Wrap every TARGETS entry wherever a swanss module binds it."""
        homes = {name: importlib.import_module(f"swanss.{name}") for name, *_ in TARGETS}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "swanss" or k.startswith("swanss."))]
        for module_name, attr, span, counter, sizer in TARGETS:
            home = homes[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                self._replace(owner, meth, self.wrap(vars(owner)[meth], span, counter, sizer))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(original, span, counter, sizer)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, wrapped)
        # total_cohomology_dims caches its answer: count the degrees only
        # when it actually computes them
        cls = homes["swan"].SwanDoubleComplex
        tot = vars(cls)["total_cohomology_dims"]

        def tot_dims(dc):
            fresh = dc._tot_dims_cache is None
            dims = tot(dc)
            if fresh:
                self.count("swan.tot_degrees", len(dims))
            return dims

        self._replace(cls, "total_cohomology_dims", tot_dims)

    def _replace(self, owner, name: str, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results -----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        out = list(dur)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= dur[i]
        return out

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, summed over the run and divided by `rounds`."""
        own = self.self_times()
        busy: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        entry_max = 0.0
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            if name in INCLUSIVE:
                dur = self.end[i] - self.start[i]
                busy[name] += dur
                if name == "corpus.entry":
                    entry_max = max(entry_max, dur)
            else:
                busy[name] += own[i]
        out = {name + "_s": busy[name] / rounds for name in SPAN_METRICS}
        out["corpus.entries_s"] = busy["corpus.entry"] / rounds
        out["corpus.entry_max_s"] = entry_max
        out["cli.emit_s"] = busy["cli.emit"] / rounds
        for name in CALL_METRICS:
            out[name + "_calls"] = calls[name] / rounds
        for name in COUNTERS:
            out[name] = self.counts[name] / rounds
        return out

    def save(self, path: str):
        """Write the spans, gzipped, as tab-separated lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i, nid in enumerate(self.name):
                fh.write(f"{self.names[nid]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\t{self.op[i]}\n")
