"""Span tracer that wraps the public functions of every ``stabrenyi`` module.

Nothing inside the package is changed.  ``Tracer.install`` replaces each
public function of each layer module with a timing wrapper, in every
``stabrenyi`` namespace that binds it (``cli.read_records`` as well as
``recordio.read_records``), because a call resolves the name in the
caller's own module globals.  ``Tracer.uninstall`` puts the originals back.

A span is ``(name, start, end, parent, iteration, raised)``; spans stay in
memory and are written out once, when the run ends.  The code under test is
single-threaded and synchronous, so spans nest strictly and no layer ever
waits on another: self time is a span's duration minus its children's, and
no wait time is recorded.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import os
import statistics
import time
from collections import defaultdict

#: The layers of the pipeline, one per module of ``src/stabrenyi``.
LAYERS = (
    "cliffords",
    "states",
    "oracle",
    "estimator",
    "noise",
    "fitting",
    "calibration",
    "recordio",
    "cli",
)

ROOT_SPAN = "bench.iteration"


def _path_size(path_or_file) -> int:
    if isinstance(path_or_file, (str, os.PathLike)) and os.path.isfile(path_or_file):
        return os.path.getsize(path_or_file)
    return 0


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Counts recorded at a layer boundary, from the call's arguments and result.
# ``computed_*`` values are derived from array sizes, not measured.
def _count_sample_counts(args, kwargs, result):
    probs = _arg(args, kwargs, 0, "probs")
    return {
        "shots": _arg(args, kwargs, 1, "n_shots"),
        "kept": len(result),
        "enumerated": len(probs),
    }


def _count_walsh(args, kwargs, result):
    d = len(result)
    # Dense Sylvester-Hadamard matvec: d*d multiply-adds, reading the cached
    # d x d float64 matrix plus the input and output vectors.
    return {"computed_flops": 2 * d * d, "computed_bytes": 8 * d * d + 16 * d}


def _count_w_epsilon(args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    epsilon = float(_arg(args, kwargs, 1, "epsilon"))
    if epsilon == 0.0:
        return {"multisets": 0, "computed_bytes": 0}
    terms = getattr(state, "terms", None)
    k = sum(1 for w, _ in terms if w != 0.0) if terms is not None else 1
    multisets = math.comb(k + 3, 4)
    # Each multiset materialises one 2**(4n) complex vector by Kronecker
    # products and one more per qubit the 16x16 operator is applied to.
    n = state.n
    return {
        "multisets": multisets,
        "computed_bytes": multisets * (n + 1) * 16 * 2 ** (4 * n),
    }


def _count_grid_search(args, kwargs, result):
    return {"experiments": len(result) * kwargs.get("trials", 100)}


COUNTERS = {
    "states.sample_counts": _count_sample_counts,
    "noise.prep_channel": lambda a, k, r: {"terms": len(r.terms)},
    "oracle.walsh_z_expectations": _count_walsh,
    "estimator.counts_vector": lambda a, k, r: {"outcomes": len(_arg(a, k, 0, "counts"))},
    "estimator.simulate_experiment": lambda a, k, r: {"units": _arg(a, k, 1, "n_units")},
    "recordio.write_records": lambda a, k, r: {"bytes": _path_size(_arg(a, k, 1, "path_or_file"))},
    "recordio.read_records": lambda a, k, r: {"bytes": _path_size(_arg(a, k, 0, "path_or_file"))},
    "calibration.grid_search": _count_grid_search,
    "noise.w_epsilon": _count_w_epsilon,
}


def public_functions(module) -> dict[str, object]:
    """Public callables defined in ``module`` itself (not imported, not classes)."""
    found = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            found[attr] = obj
    return found


class Tracer:
    """Timing wrappers around the package's public functions, plus spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.iteration = -1
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    # -- installation -------------------------------------------------------

    def _namespaces(self):
        mods = [importlib.import_module("stabrenyi")]
        for layer in LAYERS:
            try:
                mods.append(importlib.import_module(f"stabrenyi.{layer}"))
            except ImportError:
                continue
        return mods

    def install(self) -> None:
        namespaces = self._namespaces()
        wrappers: dict[int, object] = {}
        for module in namespaces[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, fn in public_functions(module).items():
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self._wrap(name, fn)
                self.wrapped.add(name)
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        solver = name.startswith("noise.solve_")
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.iteration, raised)
                if raised and solver:
                    self.counts[self.iteration]["noise.solvers.raised"] += 1
            if counter is not None:
                bucket = self.counts[self.iteration]
                for key, value in counter(args, kwargs, result).items():
                    bucket[f"{name}.{key}"] += value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- recording ----------------------------------------------------------

    def run_iteration(self, iteration: int, task):
        """Run ``task()`` traced, under one root span for the iteration."""
        self.iteration = iteration
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self.active = True
        start = time.perf_counter()
        try:
            return task()
        finally:
            end = time.perf_counter()
            self.active = False
            self._stack.pop()
            self.spans[index] = (ROOT_SPAN, start, end, -1, iteration, False)

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_iteration(self) -> dict[int, dict[str, float]]:
        """Per traced iteration: ``<name>.calls``, ``<name>.self_s`` and counts."""
        table: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _, iteration, _ = span
            row = table[iteration]
            row[f"{name}.calls"] += 1
            row[f"{name}.self_s"] += own
            if name == ROOT_SPAN:
                row["iteration_s"] = end - start
        for iteration, counts in self.counts.items():
            table[iteration].update(counts)
        return {it: dict(row) for it, row in table.items()}

    def write(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, iteration, raised in self.spans:
                handle.write(
                    json.dumps(
                        [name, start - origin, end - origin, parent, iteration, raised]
                    )
                    + "\n"
                )


def layer_metric(name: str, rows: list[dict[str, float]], wrapped: set[str]):
    """One per-layer metric from per-iteration rows; None for a name that
    the tracer could not wrap because the function no longer exists."""
    if name == "states.sample_counts.nonzero_ratio":
        if "states.sample_counts" not in wrapped:
            return None
        kept = sum(r.get("states.sample_counts.kept", 0.0) for r in rows)
        enumerated = sum(r.get("states.sample_counts.enumerated", 0.0) for r in rows)
        return kept / enumerated if enumerated else 0.0
    function = name.rsplit(".", 1)[0]
    if function != "noise.solvers" and function not in wrapped:
        return None
    values = [r.get(name, 0.0) for r in rows]
    if name.endswith(".self_s"):
        return statistics.median(values)
    return statistics.fmean(values)
