"""Outside-in layer tracer for finsec: wraps module functions, records spans in memory.

A layer is a module of the package.  Every public function of a layer
module is replaced by a timing wrapper at every name bound to it, in every
loaded ``finsec.*`` module, because ``fsm``, ``rfsm``, ``catalog`` and ``cli``
import kernels under their own names.  ``linalg`` is split into the sigma
kernels and the solves.

Not traced: ``operators`` (its ``entry()`` and ``as_point`` run once per
matrix entry, so their time stays inside the assembling ``sections`` span)
and ``linalg.as_matrix`` (a dtype conversion called inside every kernel).
``cli`` is the root span opened around ``main``.

A span is ``(id, parent_id, name, start_ns, end_ns, counts, count_ns)``.
Counts are computed after the end time is taken, so they do not inflate the
span, and their cost ``count_ns`` is subtracted from the parent's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYER_MODULES = ("geometry", "sections", "linalg", "fsm", "rfsm", "catalog", "reports")
SOLVES = {"solve_square", "least_squares"}
UNTRACED = {("linalg", "as_matrix")}
ROOT = "cli"
LAYERS = ("geometry", "sections", "linalg.sv", "linalg.solve", "fsm", "rfsm", "catalog", "reports", ROOT)


def layer_of(module: str, func: str) -> str:
    if module == "linalg":
        return "linalg.solve" if func in SOLVES else "linalg.sv"
    return module


def _svd_flops(shape) -> float:
    # Golub-Kahan bidiagonalisation, 4(l k^2 - k^3/3) real flops, times 4 for complex.
    k, l = min(shape), max(shape)
    return 16.0 * l * k * k - 16.0 * k**3 / 3.0


def _count_geometry(args, result):
    return {"geometry.points": result if isinstance(result, int) else len(result)}


def _count_assemble(args, result):
    rows, cols = result.shape
    return {
        "sections.cells": rows * cols,
        "sections.nnz": int(np.count_nonzero(result.data)),
        "sections.bytes": rows * cols * 16,
    }


def _count_svd(args, result):
    shape = args[0].shape
    return {"linalg.sv.flops": _svd_flops(shape), "linalg.sv.max_dim": max(shape)}


def _count_text(args, result):
    return {"reports.bytes": len(result.encode())}


# (module, function) -> counter(args, result) -> {metric name: value}
COUNTERS = {
    ("geometry", "lattice_section"): _count_geometry,
    ("geometry", "lattice_section_size"): _count_geometry,
    ("sections", "assemble"): _count_assemble,
    ("sections", "overflow_block"): lambda a, r: {"sections.overflow_rows": r.shape[0]},
    ("linalg", "singular_values"): _count_svd,
    # numpy's lstsq is LAPACK gelsd, which bidiagonalises like the SVD.
    ("linalg", "least_squares"): lambda a, r: {"linalg.solve.flops": _svd_flops(a[0].shape)},
    ("linalg", "solve_square"): lambda a, r: {"linalg.solve.flops": 8.0 * a[0].shape[0] ** 3 / 3.0},
    ("fsm", "section_extremes"): lambda a, r: {"fsm.sections": 1},
    ("fsm", "stability_scan"): lambda a, r: {"catalog.scans": 1},
    ("rfsm", "overflow_norm"): lambda a, r: {"rfsm.overflow_evals": 1},
    ("reports", "stability_report_csv"): _count_text,
    ("reports", "stability_report_json"): _count_text,
    ("reports", "rfsm_report_csv"): _count_text,
    ("reports", "rfsm_report_json"): _count_text,
}


def layer_functions() -> dict:
    """{original function: (module, name)} for every traced function of the loaded package."""
    found = {}
    for module in LAYER_MODULES:
        mod = sys.modules[f"finsec.{module}"]
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and (module, name) not in UNTRACED
            ):
                found[obj] = (module, name)
    return found


class Tracer:
    """Installs span-recording wrappers into the loaded finsec package."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple] = []  # (module object, attribute, original)

    def install(self) -> None:
        originals = layer_functions()
        wrappers = {
            fn: self._wrap(fn, layer_of(module, name), name, COUNTERS.get((module, name)))
            for fn, (module, name) in originals.items()
        }
        for modname, mod in list(sys.modules.items()):
            if modname != "finsec" and not modname.startswith("finsec."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, layer: str, name: str, counter):
        span_name = f"{layer}:{name}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id += 1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, parent, span_name, start, end, None, 0))
                raise
            end = clock()
            stack.pop()
            if counter is None:
                spans.append((sid, parent, span_name, start, end, None, 0))
            else:
                counts = counter(args, result)
                spans.append((sid, parent, span_name, start, end, counts, clock() - end))
            return result

        return traced

    @contextmanager
    def root(self, name: str = f"{ROOT}:main"):
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, 0, name, start, end, None, 0))


def summarize(spans) -> dict:
    """Per-layer metrics of one traced invocation.

    ``<layer>.self_s`` is span time minus the time of direct child spans and
    of their counting;
    ``<layer>.calls`` counts entries into the layer from another layer.
    Counter values are summed over spans, except ``*.max_dim`` (maximum).
    """
    layer = {sid: name.split(":", 1)[0] for sid, _, name, *_ in spans}
    child_ns = defaultdict(int)
    for _, parent, _, start, end, _, count_ns in spans:
        child_ns[parent] += end - start + count_ns
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for sid, parent, _, start, end, extra, _ in spans:
        name = layer[sid]
        self_ns[name] += end - start - child_ns[sid]
        if layer.get(parent) != name:
            calls[name] += 1
        for key, value in (extra or {}).items():
            counts[key] = max(counts[key], value) if key.endswith(".max_dim") else counts[key] + value
    out = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = self_ns[name] / 1e9
        out[f"{name}.calls"] = calls[name]
    out.update(counts)
    # Merged times exist on every workload: each workload runs either fsm or rfsm,
    # and either only sigma kernels or sigma kernels and solves.
    out["linalg.self_s"] = out["linalg.sv.self_s"] + out["linalg.solve.self_s"]
    out["methods.self_s"] = out["fsm.self_s"] + out["rfsm.self_s"]
    return out
