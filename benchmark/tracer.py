"""Spans around monodd's public functions, recorded from outside the solver.

Each target is wrapped wherever a monodd module binds it, so callers that
imported the name directly (iteration's `eval_F1_field`) reach the wrapper
too.  A target that no longer exists, or is never called, leaves its
metrics at zero and is listed as absent rather than failing the run.
The model callables of the spec are wrapped to count evaluated points.
"""
from __future__ import annotations

import dataclasses
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

# (span name, module, attribute).  The span's layer is the part before the dot.
TARGETS = (
    ("iteration.run_dd", "monodd.iteration", "run_dd"),
    ("iteration.run_single_domain", "monodd.iteration", "run_single_domain"),
    ("iteration.dd_sweep", "monodd.iteration", "dd_sweep"),
    ("volterra.compute_stabilizers", "monodd.volterra", "compute_stabilizers"),
    ("volterra.eval_F1_field", "monodd.volterra", "eval_F1_field"),
    ("volterra.eval_g_row", "monodd.volterra", "eval_g_row"),
    ("discretization.solve_linear_parabolic", "monodd.discretization", "solve_linear_parabolic"),
    ("discretization.assemble_step", "monodd.discretization", "assemble_step"),
    ("discretization.thomas_solve", "monodd.discretization", "thomas_solve"),
    ("verify.chain_min_margin", "monodd.verify", "chain_min_margin"),
    ("verify.m_matrix_check", "monodd.verify", "m_matrix_check"),
    ("cli.main", "monodd.cli", "main"),
)
LAYERS = ("iteration", "volterra", "discretization", "verify", "cli")
PEAK_TRACED = "volterra.compute_stabilizers"

# Per-layer metrics: (name, unit, better).  A name <span>.<calls|s|self_s>
# reads that span's statistics, <layer>.self_s the layer's summed self time.
PER_LAYER = (
    ("volterra.eval_g_row.calls", "count", "lower"),
    ("volterra.eval_g_row.s", "s", "lower"),
    ("model.g0_points", "count", "lower"),
    ("volterra.compute_stabilizers.s", "s", "lower"),
    ("volterra.compute_stabilizers.peak_mb", "MB", "lower"),
    ("model.dg0_points", "count", "lower"),
    ("volterra.eval_F1_field.calls", "count", "lower"),
    ("volterra.eval_F1_field.self_s", "s", "lower"),
    ("model.f_points", "count", "lower"),
    ("discretization.assemble_step.calls", "count", "lower"),
    ("discretization.assemble_step.s", "s", "lower"),
    ("model.coeff_points", "count", "lower"),
    ("discretization.thomas_solve.calls", "count", "lower"),
    ("discretization.thomas_solve.s", "s", "lower"),
    ("discretization.rows_solved", "count", "lower"),
    ("discretization.solve_linear_parabolic.calls", "count", "lower"),
    ("discretization.solve_linear_parabolic.self_s", "s", "lower"),
    ("iteration.self_s", "s", "lower"),
    ("iteration.dd_sweep.calls", "count", "lower"),
    ("verify.chain_min_margin.calls", "count", "lower"),
    ("verify.chain_min_margin.s", "s", "lower"),
    ("verify.m_matrix_check.calls", "count", "lower"),
    ("verify.m_matrix_check.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("volterra.self_s", "s", "lower"),
    ("discretization.self_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.chain_margin_min", "1", "higher"),
    ("verify.envelope_order_min", "1", "higher"),
    ("discretization.dirichlet_pin_err", "1", "lower"),
    ("trace.solve_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _rebind(original, replacement):
    """Point every monodd module attribute bound to `original` at `replacement`."""
    for key, module in list(sys.modules.items()):
        if key == "monodd" or key.startswith("monodd."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.peak_mb = {}
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        peak = name == PEAK_TRACED

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if peak:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if peak:
                    self.peak_mb[name] = max(
                        self.peak_mb.get(name, 0.0), tracemalloc.get_traced_memory()[1] / 2**20
                    )
                    tracemalloc.stop()
            if name == "discretization.thomas_solve":
                self.counts["discretization.rows_solved"] += np.size(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target at each monodd module attribute bound to it."""
        import monodd

        for name, module_name, attr in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None) or getattr(monodd, attr, None)
            if callable(original):
                _rebind(original, self._wrap(name, original))

    def _count(self, key, fn):
        counts = self.counts

        def counted(*args):
            out = fn(*args)
            counts[key] += np.broadcast(*args, out).size
            return out

        return counted

    def count_spec(self, spec):
        """The spec with a, b, f, g0 and dg0/deta1 counting evaluated points."""
        c = self._count
        coeffs = dataclasses.replace(
            spec.coeffs, a=c("model.coeff_points", spec.coeffs.a), b=c("model.coeff_points", spec.coeffs.b)
        )
        reaction = dataclasses.replace(spec.reaction, f=c("model.f_points", spec.reaction.f))
        dg0 = spec.kernel.dg0_deta1
        kernel = dataclasses.replace(
            spec.kernel,
            g0=c("model.g0_points", spec.kernel.g0),
            dg0_deta1=None if dg0 is None else c("model.dg0_points", dg0),
        )
        return dataclasses.replace(spec, coeffs=coeffs, reaction=reaction, kernel=kernel)

    def count_catalog(self):
        """Make the catalog_lookup the CLI resolves return a counted spec."""
        import monodd

        original = monodd.catalog_lookup
        _rebind(original, lambda *args, **kwargs: self.count_spec(original(*args, **kwargs)))

    def summary(self):
        """Per-span calls, inclusive and self seconds; per-layer self seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_time[idx]
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in self_s.items():
            layer_self[name.split(".")[0]] += value
        return calls, total, self_s, layer_self


def layer_metrics(tracer, csv_bytes=None):
    """Values of the span, count and layer metrics of one traced solve, and
    the names among them whose function is missing or was never called."""
    calls, total, self_s, layer_self = tracer.summary()
    values, absent = {}, []
    for name, _, _ in PER_LAYER:
        head, kind = name.rsplit(".", 1)
        if head in LAYERS and kind == "self_s":
            values[name] = layer_self[head]
            if not any(span.startswith(head + ".") for span in calls):
                absent.append(name)
        elif kind in ("calls", "s", "self_s"):
            values[name] = {"calls": calls, "s": total, "self_s": self_s}[kind][head]
            if not calls[head]:
                absent.append(name)
        elif name == PEAK_TRACED + ".peak_mb":
            values[name] = tracer.peak_mb.get(PEAK_TRACED, 0.0)
            if not calls[PEAK_TRACED]:
                absent.append(name)
        elif name == "discretization.rows_solved":
            values[name] = tracer.counts[name]
            if not calls["discretization.thomas_solve"]:
                absent.append(name)
        elif name.startswith("model."):
            values[name] = tracer.counts[name]
        elif name == "cli.csv_bytes":
            values[name] = csv_bytes or 0
            if csv_bytes is None:
                absent.append(name)
    return values, absent
