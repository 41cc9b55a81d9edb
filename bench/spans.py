"""Span tracing of blockrelax's public functions, installed from outside the package.

``Tracer.installed()`` swaps every public function of the traced layers (the
names in each module's ``__all__``, plus the ``ConcentrationStudy`` methods) for
a timing wrapper, in every ``blockrelax`` namespace that holds a reference to
it, and puts the originals back on exit.  Internal calls that go through a
module global (``build_instance`` -> ``sample_guess_ensemble``, ``run_sweep``
-> ``solve_instance``) are therefore traced too; nothing in the package
changes on disk.

A span is ``[layer, function, start, end, parent, item, info]``.  ``parent`` is
the index of the enclosing span (-1 at the root) and ``item`` the benchmark
item it belongs to.  ``info`` holds a few counts taken from the arguments or
the result (iterations, points scanned, bytes written).  Spans stay in memory
until ``write`` is called.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import os
import sys
import time

LAYERS = (
    "generate",
    "model",
    "solver",
    "oracle",
    "reductions",
    "concentration",
    "bounds",
    "sweep",
    "storage",
)
BENCH_LAYER = "bench"
_STUDY_METHODS = ("from_config", "redraw", "image_sq_norm")


def _solve_info(args, kwargs, out):
    return {"status": out.status, "iterations": out.iterations}


def _evaluated_info(args, kwargs, out):
    return {"points": out.evaluated_count}


def _l0_info(args, kwargs, out):
    a = args[0] if args else kwargs["A"]
    max_support = args[2] if len(args) > 2 else kwargs["max_support"]
    ncols = a.shape[1]
    top = out.min_support if out.feasible else min(max_support, ncols)
    return {"subsets": sum(math.comb(ncols, k) for k in range(1, (top or 0) + 1))}


def _comparison_info(args, kwargs, out):
    return {"trials": sum(res.cell.trials for res in out)}


def _bytes_info(args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# counts recorded per function, keyed "layer.function"
_INFO = {
    "solver.solve_weighted_bp": _solve_info,
    "oracle.discrete_lp_oracle": _evaluated_info,
    "oracle.enumerate_selectors": _evaluated_info,
    "oracle.l0_min_oracle": _l0_info,
    "sweep.run_comparison": _comparison_info,
    "storage.save_instance": _bytes_info,
}


class Tracer:
    """In-memory span recorder.

    ``item`` is the id stamped on new spans; the benchmark sets it per item.
    ``item_start=(parent_fn, fn)`` makes a call of ``fn`` directly under
    ``parent_fn`` begin a new item, which numbers the trials inside one
    ``run_sweep`` call without touching the sweep's internals.
    """

    def __init__(self, item_start: tuple[str, str] | None = None):
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._item_start = item_start

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(f"{layer}.{name}")
        item_start = self._item_start

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if item_start and name == item_start[1] and parent >= 0 and spans[parent][1] == item_start[0]:
                self.item += 1
            span = [layer, name, 0.0, 0.0, parent, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                span[2] = t0
                stack.pop()
            if info is not None:
                span[6] = info(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def item_span(self, item: int | None = None):
        """Root span of one benchmark item; its children are the program's spans."""
        if item is not None:
            self.item = item
        span = [BENCH_LAYER, "item", 0.0, 0.0, -1, self.item, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Trace every public function of LAYERS while the block runs."""
        from blockrelax.concentration import ConcentrationStudy

        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"blockrelax.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self._wrap(layer, name, fn)
        namespaces = [m for n, m in sys.modules.items() if n == "blockrelax" or n.startswith("blockrelax.")]
        restore = []
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrapped:
                    restore.append((ns, key, val))
                    setattr(ns, key, wrapped[val])
        for name in _STUDY_METHODS:
            raw = ConcentrationStudy.__dict__[name]
            restore.append((ConcentrationStudy, name, raw))
            if isinstance(raw, classmethod):
                setattr(ConcentrationStudy, name, classmethod(self._wrap("concentration", name, raw.__func__)))
            else:
                setattr(ConcentrationStudy, name, self._wrap("concentration", name, raw))
        try:
            yield self
        finally:
            for ns, key, val in reversed(restore):
                setattr(ns, key, val)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("layer", "fn", "start", "end", "parent", "item", "info")
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, **dict(zip(keys, s))}
                fh.write(json.dumps(rec) + "\n")
