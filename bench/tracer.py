"""Outside-in tracing of melaplace's layers.

Every public function of each layer module is wrapped from here; the
program itself is not changed.  The modules import each other with
``from .x import y``, so the wrapper is rebound in every ``melaplace.*``
module that holds the same function object, not only where it is defined.

A span records (span id, parent span id, op id, name, start, end).  Spans
stay in memory and are written out by ``write_spans`` at the end of a run.
A layer's self time is the total of its spans' durations minus the time
covered by their direct children.  Counters are taken at the same
boundaries, from the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("quadrature", "transforms", "contours", "residues", "functions",
          "campaigns", "cli")

# every per-layer metric, in report order; *_s are self times in seconds
COUNTERS = (
    "quadrature.finite_calls", "quadrature.halfline_calls", "quadrature.panels",
    "quadrature.integrand_points", "quadrature.unconverged",
    "transforms.point_evals", "transforms.vector_points",
    "transforms.estimate_calls",
    "contours.discretize_calls", "contours.nodes_built", "contours.inverse_calls",
    "residues.oracle_calls",
    "functions.evaluate_calls", "functions.points",
    "campaigns.calls",
    "cli.calls", "cli.nonzero_exits",
)


class Tracer:
    """Spans and counters of melaplace's layers; the wrappers are in place
    while the tracer is used as a context manager."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.pairs: set = set()  # distinct (contour, q) handed to discretize
        self.op = -1
        self._stack: list = []
        self._patched: list = []

    def __enter__(self):
        import melaplace

        self._default_q = melaplace.QuadratureSpec()
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "melaplace" or name.startswith("melaplace.")]
        for layer in LAYERS:
            modname = f"melaplace.{layer}"
            # a snapshot, since wrappers replace values as the loop runs
            for name, fn in list(vars(sys.modules[modname]).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, layer, name, fn):
        span_name = f"{layer}.{name}"
        count = getattr(self, f"_count_{name}", None)
        if layer == "campaigns":
            count = self._count_campaign
        call = self._counting_integrand(fn) if name == "integrate_finite" else fn
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, self.op, span_name, t0, t1)
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def _counting_integrand(self, integrate_finite):
        # integrand points are counted where the integrand is handed over
        counts = self.counts

        def call(f, *rest, **kwargs):
            def counted(xs):
                counts["quadrature.integrand_points"] += np.size(xs)
                return f(xs)
            return integrate_finite(counted, *rest, **kwargs)

        return call

    # panels come from integrate_finite only: integrate_halfline's
    # panels_used already sums its inner integrate_finite calls
    def _count_integrate_finite(self, args, kwargs, est):
        self.counts["quadrature.finite_calls"] += 1
        self.counts["quadrature.panels"] += est.panels_used
        self.counts["quadrature.unconverged"] += not est.converged

    def _count_integrate_halfline(self, args, kwargs, est):
        self.counts["quadrature.halfline_calls"] += 1
        self.counts["quadrature.unconverged"] += not est.converged

    def _count_eval_transform(self, args, kwargs, value):
        self.counts["transforms.point_evals"] += 1

    def _count_rational_values(self, args, kwargs, values):
        self.counts["transforms.vector_points"] += np.size(values)

    def _count_transform_estimate(self, args, kwargs, est):
        self.counts["transforms.estimate_calls"] += 1

    def _count_discretize(self, args, kwargs, result):
        contour = args[0] if args else kwargs["c"]
        q = args[1] if len(args) > 1 else kwargs.get("q")
        self.counts["contours.discretize_calls"] += 1
        self.counts["contours.nodes_built"] += len(result[0])
        self.pairs.add((contour, q or self._default_q))

    def _count_inverse_eval(self, args, kwargs, value):
        self.counts["contours.inverse_calls"] += 1

    _count_single_line_eval = _count_inverse_eval
    _count_cauchy_reproduction = _count_inverse_eval

    def _count_campaign(self, args, kwargs, result):
        self.counts["campaigns.calls"] += 1

    def _count_residue_inverse(self, args, kwargs, value):
        self.counts["residues.oracle_calls"] += 1

    def _count_evaluate(self, args, kwargs, value):
        self.counts["functions.evaluate_calls"] += 1
        self.counts["functions.points"] += np.size(value)

    def _count_cli_main(self, args, kwargs, code):
        self.counts["cli.calls"] += 1
        self.counts["cli.nonzero_exits"] += code != 0

    # -- results -----------------------------------------------------------
    def layer_self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {layer: 0.0 for layer in LAYERS}
        for sid, _, _, name, t0, t1 in self.spans:
            out[name.split(".", 1)[0]] += (t1 - t0) - child[sid]
        return out

    def metrics(self) -> dict:
        out = {name: self.counts[name] for name in COUNTERS}
        calls = self.counts["contours.discretize_calls"]
        # 0 when discretize is never called
        out["contours.discretize_useful_ratio"] = len(self.pairs) / calls if calls else 0.0
        for layer, seconds in self.layer_self_times().items():
            out[f"{layer}.self_s"] = seconds
        return out

    def write_spans(self, path) -> None:
        """CSV of every span, times in seconds from the first span's start."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("op", "span", "parent", "name", "start_s", "end_s"))
            for sid, parent, op, name, t0, t1 in self.spans:
                writer.writerow((op, sid, parent, name,
                                 f"{t0 - origin:.9f}", f"{t1 - origin:.9f}"))
