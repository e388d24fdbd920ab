"""Span tracing around the library's layer functions, installed from outside.

The tracer replaces a fixed list of module attributes of ``gbfrft`` with
wrappers for the duration of one set-up or one round, then puts the
originals back. Each wrapper records a span (name, start, end, parent) in
memory; the spans are written out once, when the run ends. A layer's self
time is its span's duration minus the time its child spans cover.

Functions are patched where their callers look them up (``from .x import
y`` binds ``y`` in the caller's module), so one layer can appear under
several module attributes.
"""

from __future__ import annotations

import importlib
import statistics
import warnings
from array import array
from contextlib import contextmanager
from time import perf_counter

from gbfrft.errors import IllConditionedSystem
from gbfrft.spectral import ORDER_KEY_DECIMALS  # fractional_power's cache key resolution
from gbfrft.timevertex import METHODS as TV_METHODS

# (module, attribute, span name); a span name of None is resolved per call
TARGETS = (
    ("gbfrft.synthetic", "build_observation_model", "synthetic.model"),
    ("gbfrft.graphs", "make_knn_graph", "graphs.knn"),
    ("gbfrft.deblur", "make_knn_graph", "graphs.knn"),
    ("gbfrft.timevertex", "make_knn_graph", "graphs.knn"),
    ("gbfrft.transforms", "eig_general", "spectral.eig"),
    ("gbfrft.transforms", "fractional_power", "spectral.power"),
    ("gbfrft.transforms.ProductTransform", "vec_operator", "transforms.vec_operator"),
    ("gbfrft.wiener", "transform_2d", "transforms.build"),
    ("gbfrft.learn", "transform_2d", "transforms.build"),
    ("gbfrft.learn", "jfrft", "transforms.build"),
    ("gbfrft.learn", "hybrid_transform", "transforms.build"),
    ("gbfrft.deblur", "transform_2d", "transforms.build"),
    ("gbfrft.deblur", "jfrft", "transforms.build"),
    ("gbfrft.deblur", "hybrid_transform", "transforms.build"),
    ("gbfrft.wiener", "assemble_normal_equations", "wiener.assemble"),
    ("gbfrft.wiener", "solve_filter", "wiener.solve"),
    ("gbfrft.learn", "loss", "learn.loss"),
    ("gbfrft.learn", "gradients", "learn.gradients"),
    ("gbfrft.deblur", "train", "deblur.patch"),
    ("gbfrft.deblur", "frame_metrics", "metrics.frame_metrics"),
    ("gbfrft.timevertex", "train", None),
    ("gbfrft.timevertex", "train_jfrft", "timevertex.fit.jfrft"),
    ("gbfrft.timevertex", "train_hybrid", "timevertex.fit.hybrid"),
)


def _timevertex_train_name(args, kwargs) -> str:
    # run_timevertex calls train(batch, spatial, temporal, cfg) for both
    # product methods; the equal-order baseline ties the orders
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return "timevertex.fit.2d-gfrft" if cfg.tie_orders else "timevertex.fit.2d-gbfrft"


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """In-memory span store plus per-phase self times and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_phase = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.phases: list[str] = []
        self._stack: list[list] = []  # [span index, child time]
        self._totals: dict | None = None
        self._orders: set | None = None

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_phase.append(len(self.phases) - 1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        return idx

    def _close(self, name: str):
        end = perf_counter()
        idx, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        t = self._totals
        t[name + ".self_s"] = t.get(name + ".self_s", 0.0) + dur - child
        t[name + ".calls"] = t.get(name + ".calls", 0) + 1
        t.setdefault(name + ".durations", []).append(dur)

    def _wrap(self, fn, name):
        tracer = self

        def wrapped(*args, **kwargs):
            span = name if name is not None else _timevertex_train_name(args, kwargs)
            tracer._open(span)
            try:
                if span == "spectral.power":
                    basis, alpha = args[0], args[1]
                    tracer._orders.add((id(basis), round(float(alpha), ORDER_KEY_DECIMALS)))
                if span == "wiener.solve":
                    return tracer._solve_counting_fallbacks(fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        wrapped.__wrapped__ = fn
        return wrapped

    def _solve_counting_fallbacks(self, fn, args, kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, IllConditionedSystem):
                key = "wiener.lstsq_fallbacks"
                self._totals[key] = self._totals.get(key, 0) + 1
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    @contextmanager
    def phase(self, label: str):
        """Trace one set-up or round: install wrappers, record, restore.

        Yields the phase's totals: self time, call count and span durations
        per span name, plus the counters.
        """
        self.phases.append(label)
        self._totals = {}
        self._orders = set()
        saved = []
        try:
            for path, attr, name in TARGETS:
                owner = _resolve(path)
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name))
            self._open("phase")
            try:
                yield self._totals
            finally:
                self._close("phase")
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self._totals["spectral.power_orders"] = len(self._orders)

    def write_spans(self, path):
        """Write every span as one CSV row: phase, span, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("phase,span,parent,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.phases[self.span_phase[i]]},{i},{self.span_parent[i]},"
                         f"{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f}\n")


def layer_metrics(setups: list[dict], rounds: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics: one set-up plus one round, each the median over
    the traced set-ups and traced rounds of the run."""

    def both(key):
        return sum(statistics.median(p.get(key, 0) for p in phases) for phases in (setups, rounds))

    patch_durations = [d for r in rounds for d in r.get("deblur.patch.durations", [])]
    m = {
        "synthetic.model_s": (both("synthetic.model.self_s"), "s"),
        "graphs.knn_s": (both("graphs.knn.self_s"), "s"),
        "spectral.eig_s": (both("spectral.eig.self_s"), "s"),
        "spectral.eig_calls": (both("spectral.eig.calls"), "count"),
        "wiener.assemble_s": (both("wiener.assemble.self_s"), "s"),
        "wiener.solve_s": (both("wiener.solve.self_s"), "s"),
        "wiener.points": (both("wiener.solve.calls"), "count"),
        "wiener.lstsq_fallbacks": (both("wiener.lstsq_fallbacks"), "count"),
        "transforms.vec_operator_s": (both("transforms.vec_operator.self_s"), "s"),
        "transforms.build_s": (both("transforms.build.self_s"), "s"),
        "transforms.build_calls": (both("transforms.build.calls"), "count"),
        "learn.loss_s": (both("learn.loss.self_s"), "s"),
        "learn.gradients_s": (both("learn.gradients.self_s"), "s"),
        "learn.epochs": (both("learn.loss.calls"), "count"),
        "spectral.power_s": (both("spectral.power.self_s"), "s"),
        "spectral.power_calls": (both("spectral.power.calls"), "count"),
        "spectral.power_orders": (both("spectral.power_orders"), "count"),
        "deblur.patch_p50_s": (statistics.median(patch_durations) if patch_durations else 0.0, "s"),
        "deblur.patches": (both("deblur.patch.calls"), "count"),
    }
    for method in TV_METHODS:
        # a fit's whole time, children included; only timevertex fits
        key = f"timevertex.fit.{method}.durations"
        if any(key in r for r in rounds):
            m[f"timevertex.fit_s.{method}"] = (statistics.median(sum(r.get(key, [])) for r in rounds), "s")
    m["metrics.frame_metrics_s"] = (both("metrics.frame_metrics.self_s"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
