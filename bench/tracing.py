"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of `builtup` from outside the
package: it replaces module attributes (and every other module attribute
that refers to the same function, so names imported with `from x import f`
are covered too), class methods of `Model`, and the pass methods of each
layer instance of every model built while the wrappers are installed.

Each call made while the tracer is on records a span: name, parent span,
start and end. Spans stay in memory; `summary()` turns them into calls,
total time and self time (total minus the time covered by direct child
spans). The benchmark calls `builtup` from one thread, so one span stack
is enough.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

from builtup import evaluation, model, nncore, pipeline, raster, sampling, synth

# Model layers by attribute name; each pass becomes a span
# "nncore.<layer>.<pass>".
LAYERS = ("conv1", "conv2", "bn1", "conv3", "conv4", "bn2", "dense1", "dense2")
LAYER_PASSES = {  # span suffix -> method name on conv/dense, on batch norm
    "fwd": ("forward", "forward_infer"),
    "fwd_train": ("forward_train", "forward_train"),
    "bwd": ("backward", "backward"),
}

# (span name, module, attribute) of each traced module-level function.
FUNCTIONS = (
    ("synth.synth_zone", synth, "synth_zone"),
    ("raster.read_raster", raster, "read_raster"),
    ("raster.write_raster", raster, "write_raster"),
    ("raster.rescale_reflectance", raster, "rescale_reflectance"),
    ("raster.gather_patches", raster, "gather_patches"),
    ("raster.quantize_probability", raster, "quantize_probability"),
    ("sampling.build_sample_set", sampling, "build_sample_set"),
    ("nncore.adam_step", nncore, "adam_step"),
    ("model.build_model", model, "build_model"),
    ("model.train_step", model, "train_step"),
    ("model.save_model", model, "save_model"),
    ("model.load_model", model, "load_model"),
    ("pipeline.train_zone", pipeline, "train_zone"),
    ("pipeline.predict_zone", pipeline, "predict_zone"),
    ("evaluation.evaluate_probabilities", evaluation, "evaluate_probabilities"),
    ("evaluation.rasterize_density", evaluation, "rasterize_density"),
    ("evaluation.regress_density", evaluation, "regress_density"),
    ("evaluation.confusion", evaluation, "confusion"),
)

# (span name, method name) of each traced `Model` method.
MODEL_METHODS = (
    ("model.forward", "forward"),
    ("model.forward_train", "forward_train"),
    ("model.backward", "backward"),
)

# Counters recorded from traced results: name -> (span, count of a result).
COUNTERS = {
    "sampling.samples": ("sampling.build_sample_set", len),
    "pipeline.tiles": ("pipeline.predict_zone", len),
    "pipeline.tiles_failed": ("pipeline.predict_zone",
                              lambda preds: sum(not p.ok for p in preds)),
}

FUNCTION_SPANS = tuple(name for name, _, _ in FUNCTIONS) + \
    tuple(name for name, _ in MODEL_METHODS)
LAYER_SPANS = tuple(f"nncore.{layer}.{p}" for layer in LAYERS
                    for p in LAYER_PASSES)


class Tracer:
    """In-memory spans of the calls made while `enabled` is true."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, parent index or None, start, end]
        self.counts = {name: 0 for name in COUNTERS}
        self.missing = []  # traced names whose target does not exist
        self._stack = []

    def wrap(self, name: str, fn, fold_into: str = None):
        """Traced version of fn. A call made directly inside a span named
        fold_into is not recorded on its own (a layer's inference pass that
        runs through its train-mode pass)."""
        counters = [(c, f) for c, (span, f) in COUNTERS.items() if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (
                fold_into and self._stack
                and self.spans[self._stack[-1]][0] == fold_into
            ):
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, parent, time.perf_counter(), None])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][3] = time.perf_counter()
            for counter, count in counters:
                self.counts[counter] += count(result)
            return result

        return traced

    @contextmanager
    def on(self, name: str):
        """Turn tracing on for the block, under a root span called name."""
        index = len(self.spans)
        self.spans.append([name, None, time.perf_counter(), None])
        self._stack.append(index)
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self._stack.pop()
            self.spans[index][3] = time.perf_counter()

    @contextmanager
    def paused(self):
        """Record nothing inside the block, such as the benchmark's checks."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out


def _replace_everywhere(original, replacement) -> None:
    """Point every builtup module attribute bound to original at replacement."""
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("builtup"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument_layers(tracer: Tracer, net) -> None:
    """Wrap the pass methods of each layer instance of one model."""
    for layer_name in LAYERS:
        layer = getattr(net, layer_name, None)
        if layer is None:
            continue
        is_bn = hasattr(layer, "forward_infer")
        for suffix, methods in LAYER_PASSES.items():
            method = methods[1] if is_bn else methods[0]
            fold = f"nncore.{layer_name}.fwd" if suffix == "fwd_train" else None
            setattr(layer, method, tracer.wrap(f"nncore.{layer_name}.{suffix}",
                                               getattr(layer, method),
                                               fold_into=fold))


def instrument(tracer: Tracer) -> None:
    """Install the tracer's wrappers in builtup; they record only while the
    tracer is on."""
    for name, module, attr in FUNCTIONS:
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append(name)
            continue
        traced = tracer.wrap(name, original)
        if name == "model.build_model":
            traced = _with_layers(tracer, traced)
        _replace_everywhere(original, traced)
    for name, attr in MODEL_METHODS:
        original = getattr(model.Model, attr, None)
        if original is None:
            tracer.missing.append(name)
            continue
        setattr(model.Model, attr, tracer.wrap(name, original))
    probe = model.build_model(model.preset("desk"))
    tracer.missing += [f"nncore.{layer}" for layer in LAYERS
                       if getattr(probe, layer, None) is None]


def _with_layers(tracer: Tracer, build):
    @functools.wraps(build)
    def build_and_instrument(*args, **kwargs):
        net = build(*args, **kwargs)
        instrument_layers(tracer, net)
        return net

    return build_and_instrument
