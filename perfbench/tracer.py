"""In-memory span recorder that instruments bandcast from outside.

The benchmark must not edit the library, so it wraps the library's public
functions in place.  ``harness`` and ``engine`` import names with
``from .x import y``, so a function can be bound in several module
namespaces; :meth:`Tracer.install` replaces every binding of the original
function object in every loaded ``bandcast`` module, and :meth:`uninstall`
restores them.  Untraced runs therefore execute the library unchanged.

Each call records one span: layer id, parent span, start and end.  Spans
stay in compact arrays until :meth:`layer_metrics` reduces them after the
run.  Counts (samples, points, nodes) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (layer, module, attribute or "Class.method") for every wrapped function.
# A layer may group several functions; its inclusive time counts only the
# outermost span of the group so nested members are not counted twice.
TARGETS = (
    ("transforms.signal_from_spectrum", "bandcast.transforms", "signal_from_spectrum"),
    ("engine.fourier_inverse", "bandcast.engine", "fourier_inverse"),
    ("engine.spectral_predict", "bandcast.engine", "spectral_predict"),
    ("engine.mixed_predict", "bandcast.engine", "mixed_predict"),
    ("engine.error_norms", "bandcast.engine", "error_norms"),
    ("engine.causal_convolve", "bandcast.engine", "causal_convolve"),
    ("engine.anticausal_convolve_oracle", "bandcast.engine", "anticausal_convolve_oracle"),
    ("kernels.transfer_on_grid", "bandcast.kernels", "transfer_on_grid"),
    ("kernels.eval_time_kernel", "bandcast.kernels", "eval_time_kernel"),
    ("predictor.compensator", "bandcast.predictor", "compensator_minus_one_on_points"),
    ("predictor.compensator", "bandcast.predictor", "compensator_on_points"),
    ("predictor.compensator", "bandcast.predictor", "predictor_transfer_on_grid"),
    ("predictor.deviation_norm", "bandcast.predictor", "deviation_norm"),
    ("predictor.synthesize_time_predictor", "bandcast.predictor", "synthesize_time_predictor"),
    ("signals.integrate_against", "bandcast.signals", "RaisedCosineBump.integrate_against"),
    ("signals.integrate_against", "bandcast.signals", "GaussianBump.integrate_against"),
    ("signals.integrate_against", "bandcast.signals", "SampledDensity.integrate_against"),
    ("signals.generators", "bandcast.signals", "make_bandlimited_signal"),
    ("signals.generators", "bandcast.signals", "make_highfreq_signal"),
    ("signals.generators", "bandcast.signals", "make_mixed_signal"),
    ("signals.generators", "bandcast.signals", "add_outofband_noise"),
    ("signals.generators", "bandcast.signals", "ideal_lowpass_split"),
    ("harness.op", "bandcast.harness", "run_convergence_sweep"),
    ("harness.op", "bandcast.harness", "run_robustness_probe"),
    ("harness.op", "bandcast.harness", "run_decomposition_demo"),
    ("harness.op", "bandcast.harness", "run_uniform_bound_check"),
    ("harness.to_csv", "bandcast.harness", "ErrorReport.to_csv"),
)

# Root span the benchmark opens around an op made of several library calls.
BENCH_OP = "bench.op"

LAYERS = tuple(dict.fromkeys([t[0] for t in TARGETS] + [BENCH_OP]))


def _count_samples(tracer, args, kwargs):
    tracer.counts["transforms.signal_from_spectrum.samples"] += len(args[0])


def _count_transfer_points(tracer, args, kwargs):
    tracer.counts["kernels.transfer_on_grid.points"] += np.size(args[1])


def _count_compensator_points(tracer, args, kwargs):
    if tracer.is_outermost("predictor.compensator"):
        tracer.counts["predictor.compensator.points"] += np.size(args[1])


def _count_quadrature(tracer, args, kwargs):
    """Wrap the weight callable: each call receives one quadrature node set."""
    self, weight, t_values = args
    if weight is None:
        return None
    n_t = len(t_values)
    counts = tracer.counts

    def counted_weight(wv):
        counts["signals.quadrature.nodes"] += len(wv)
        counts["signals.quadrature.matrix_bytes_computed"] += 16 * n_t * len(wv)
        return weight(wv)

    return (self, counted_weight, t_values), kwargs


COUNTERS = {
    "transforms.signal_from_spectrum": _count_samples,
    "kernels.transfer_on_grid": _count_transfer_points,
    "predictor.compensator": _count_compensator_points,
    "signals.integrate_against": _count_quadrature,
}


class Tracer:
    """Records spans of wrapped bandcast calls; install, run, uninstall, reduce."""

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self.counts = defaultdict(float)
        self._stack = [-1]
        self._depth = [0] * len(LAYERS)
        self._undo = []

    # -- recording ---------------------------------------------------------

    def is_outermost(self, layer: str) -> bool:
        """True inside a span of `layer` that has no ancestor of the same layer."""
        return self._depth[self.layer_ids[layer]] == 1

    def span(self, layer: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of `layer`."""
        return self._call(self.layer_ids[layer], None, fn, args, kwargs)

    def _call(self, lid, counter, fn, args, kwargs):
        idx = len(self.start)
        depth = self._depth[lid]
        self.layer.append(lid)
        self.parent.append(self._stack[-1])
        self.outer.append(depth == 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._depth[lid] = depth + 1
        self._stack.append(idx)
        try:
            if counter is not None:
                changed = counter(self, args, kwargs)
                if changed is not None:
                    args, kwargs = changed
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = t0
        finally:
            self._stack.pop()
            self._depth[lid] = depth

    def _wrapper(self, layer: str, fn):
        lid = self.layer_ids[layer]
        counter = COUNTERS.get(layer)
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(lid, counter, fn, args, kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each target function with a traced wrapper."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bandcast" or name.startswith("bandcast."))]
        for layer, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(layer, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrapper(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def layer_metrics(self) -> dict[str, float]:
        """Per layer: .s (outermost inclusive), .self_s (minus children), .calls."""
        n = len(self.start)
        layer = np.frombuffer(self.layer, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        outer = np.frombuffer(self.outer, dtype=np.int8, count=n).astype(bool)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for name, lid in self.layer_ids.items():
            mine = layer == lid
            out[f"{name}.s"] = float(np.sum(dur[mine & outer]))
            out[f"{name}.self_s"] = float(np.sum(self_time[mine]))
            out[f"{name}.calls"] = float(np.count_nonzero(mine))
        return out

    def root_durations(self) -> float:
        """Summed duration of spans with no parent (the ops)."""
        n = len(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        return float(np.sum(dur[parent < 0]))

    def calls_within(self, layer: str, outer_layer: str) -> int:
        """Spans of `layer` that start inside a span of `outer_layer`.

        Spans of `outer_layer` must not overlap, which holds for op roots.
        """
        n = len(self.start)
        layer_arr = np.frombuffer(self.layer, dtype=np.int32, count=n)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        outer = layer_arr == self.layer_ids[outer_layer]
        o_start, o_end = start[outer], end[outer]
        s = start[layer_arr == self.layer_ids[layer]]
        idx = np.searchsorted(o_start, s, side="right") - 1
        inside = (idx >= 0) & (s <= o_end[np.maximum(idx, 0)])
        return int(np.count_nonzero(inside))
