"""Patch-classification network: topology, batched passes, GHSM model files.

The network maps 5x5xB reflectance patches to a built-up probability for the
central pixel:

    conv 2x2 (f_a, linear) -> conv 2x2 (f_a, tanh) -> BN -> dropout
    -> conv 2x2 (f_b, linear) -> conv 2x2 (f_b, tanh) -> BN -> dropout
    -> dense (hidden, tanh) -> dense (1, sigmoid)

The layer table LAYERS spells this out, one row per layer, and is the only
place it is spelled out: Model's passes are loops over its rows. Spatial
extent shrinks 5 -> 4 -> 3 -> 2 -> 1 across the four convolutions, and the
dense layers are 1x1 convolutions applied per pixel. The network is
therefore fully convolutional: an (h+4) x (w+4) window gives the h x w
probabilities of its interior pixels in one pass, each equal to the
probability of that pixel's 5x5 patch.

Maps and validation losses run inference_stack(model), the one inference
pass, through run_layers; training runs train_step. Both compose the
layers by one rule, _compose.

GHSM model file: magic "GHSM", u32 little-endian JSON header length, UTF-8
JSON header, then float32 little-endian parameter blobs in the order of
LAYERS. Kernels are laid out [out][in][kh][kw], so a dense layer's 1x1
kernel is stored as its [out][in] weight matrix. The header's arch holds
ArchitectureConfig's fields and the network's constants (FIXED_ARCH).
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nncore, raster
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .nncore import (
    KERNEL_SIZE,
    TRAIN_SLICES,
    AdamState,
    BatchNorm,
    ConvLayer,
    Dropout,
    adam_step,
    bce_loss,
    ordered_sum,
    slice_bounds,
)

GHSM_MAGIC = b"GHSM"
GHSM_VERSION = 1


@dataclass(frozen=True)
class ArchitectureConfig:
    bands: int = 4
    block_filters: tuple = (32, 64)
    hidden_units: int = 128

    def validate(self) -> None:
        if self.bands < 1:
            raise ConfigError(f"bands must be >= 1, got {self.bands}")
        if len(self.block_filters) != 2 or min(self.block_filters) < 1:
            raise ConfigError(f"block_filters must be two counts >= 1, "
                              f"got {self.block_filters}")
        if self.hidden_units < 1:
            raise ConfigError(f"hidden_units must be >= 1, got {self.hidden_units}")

    def to_dict(self) -> dict:
        """The fields by name; JSON writes block_filters as a list."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ArchitectureConfig":
        values = {f.name: d[f.name] for f in fields(cls)}
        values["block_filters"] = tuple(values["block_filters"])
        cfg = cls(**values)
        cfg.validate()
        return cfg


PRESETS = {
    "desk": ArchitectureConfig(),
    "paper": ArchitectureConfig(block_filters=(128, 256), hidden_units=512),
}


def preset(name: str) -> ArchitectureConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


# The network in forward order: (name, layer class, activation, input width,
# output width, kernel size), widths named as in _layer_shapes(). GHSM
# parameter blobs follow this order, each layer's trainable arrays
# (param_names) before its statistics (state_names).
LAYERS = (
    ("conv1", ConvLayer, "linear", "bands", "f_a", KERNEL_SIZE),
    ("conv2", ConvLayer, "tanh", "f_a", "f_a", KERNEL_SIZE),
    ("bn1", BatchNorm, None, "f_a", "f_a", None),
    ("drop1", Dropout, None, "f_a", "f_a", None),
    ("conv3", ConvLayer, "linear", "f_a", "f_b", KERNEL_SIZE),
    ("conv4", ConvLayer, "tanh", "f_b", "f_b", KERNEL_SIZE),
    ("bn2", BatchNorm, None, "f_b", "f_b", None),
    ("drop2", Dropout, None, "f_b", "f_b", None),
    ("dense1", ConvLayer, "tanh", "f_b", "hidden", 1),
    ("dense2", ConvLayer, "sigmoid", "hidden", "out", 1),
)


def _layer_shapes(arch: ArchitectureConfig):
    """(name, class, activation, output width, trainable array shapes) per
    table row."""
    f_a, f_b = arch.block_filters
    width = {"bands": arch.bands, "f_a": f_a, "f_b": f_b,
             "hidden": arch.hidden_units, "out": 1}
    for name, cls, activation, cin, cout, k in LAYERS:
        n_in, n_out = width[cin], width[cout]
        shapes = {ConvLayer: [(n_out, n_in, k, k), (n_out,)],
                  BatchNorm: [(n_out,), (n_out,)], Dropout: []}[cls]
        yield name, cls, activation, n_out, shapes


def count_params(arch: ArchitectureConfig):
    """(trainable, non_trainable) parameter counts."""
    arch.validate()
    trainable = non_trainable = 0
    for _, cls, _, n_out, shapes in _layer_shapes(arch):
        trainable += sum(math.prod(s) for s in shapes)
        non_trainable += len(cls.state_names) * n_out
    return trainable, non_trainable


class Model:
    """Built network plus identity metadata; immutable once training ends.

    Every trainable array is a view into the flat vector `params`, so the
    optimizer updates the whole network in place, and backward() returns
    the gradient in the same layout. A new Model has zero
    conv kernels and identity BatchNorm (gamma 1, beta 0, moving mean
    0, moving variance 1); build_model draws the initial weights, and
    pipeline.train_zone sets the BatchNorm statistics after each epoch.
    """

    def __init__(self, arch: ArchitectureConfig, zone_id: str = "",
                 seed: int = 0, epochs_trained: int = 0, dtype=np.float32):
        arch.validate()
        self.arch = arch
        self.zone_id = zone_id
        self.seed = seed
        self.epochs_trained = epochs_trained
        self.params = np.zeros(count_params(arch)[0], dtype=dtype)
        for (name, cls, activation, _, _), arrays in zip(
                _layer_shapes(arch), self._layer_views(self.params)):
            if cls is BatchNorm:
                gamma, beta = arrays
                gamma[...] = 1.0
                layer = BatchNorm(gamma, beta, np.zeros_like(beta),
                                  np.ones_like(beta))
            elif cls is Dropout:
                layer = Dropout()
            else:
                layer = cls(*arrays, activation)
            setattr(self, name, layer)

    @property
    def layers(self) -> list:
        """Layer objects in table order."""
        return [getattr(self, name) for name, *_ in LAYERS]

    def _layer_views(self, flat: np.ndarray) -> list:
        """Views of a params-sized flat vector shaped as each layer's
        trainable arrays, one list per layer in table order."""
        views, pos = [], 0
        for *_, shapes in _layer_shapes(self.arch):
            arrays = []
            for shape in shapes:
                size = math.prod(shape)
                arrays.append(flat[pos:pos + size].reshape(shape))
                pos += size
            views.append(arrays)
        return views

    def serialization_arrays(self):
        """All parameter blobs in the GHSM order."""
        return [getattr(layer, attr) for layer in self.layers
                for attr in layer.param_names + layer.state_names]

    # -- passes -----------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> None:
        m = raster.PATCH_SIZE - 1
        if x.ndim != 4 or min(x.shape[1:3]) <= m or x.shape[3] != self.arch.bands:
            raise ShapeError(
                f"input must be (N, h+{m}, w+{m}, {self.arch.bands}) with "
                f"h, w >= 1, got {x.shape}"
            )

    def forward_train(self, x: np.ndarray, rng: np.random.Generator,
                      slices: int = 1, run=map):
        """Training pass over `slices` row slices, their tasks mapped by
        run (map, or a thread pool's map); train_step describes the pass.

        x is (N, h+4, w+4, bands); rng is a PCG64 generator. The masks
        follow each other in its stream, each a whole-batch draw in C
        order. A slice's task reads a mask's units per batch row from the
        array it masks, draws from its first row's place in the mask, and
        counts the whole mask's draws; each run starts at the count of the
        one before, and rng ends past all of them. Returns ((N, h, w)
        probabilities, a tape for backward(): the pass's layer list and
        one list of layer caches per slice)."""
        self._check_input(x)
        state = nncore.pcg64_state(rng)
        layers = _compose(self.layers, run)
        bounds = slice_bounds(x.shape[0], slices)
        xs = [x[a:b] for a, b in bounds]
        caches = [[] for _ in bounds]
        drawn = 0  # the draws of the masks before the run
        for lo, hi in _runs(layers):
            head = layers[lo][0]
            stats = (head.batch_statistics(xs, run)
                     if isinstance(head, BatchNorm) else None)

            def run_slice(s, lo=lo, hi=hi, stats=stats, start=drawn):
                (a, _), y = bounds[s], xs[s]
                for i in range(lo, hi):
                    layer = layers[i][0]
                    if isinstance(layer, BatchNorm):
                        y, cache = layer.normalize(y, *stats)
                    elif isinstance(layer, Dropout):
                        row = math.prod(y.shape[1:])  # units per batch row
                        y, cache = layer.apply(y, layer.keep_flags(
                            state, start + a * row, y.shape))
                        start += x.shape[0] * row
                    else:
                        y, cache = layer.forward_train(y)
                    caches[s].append(cache)
                return y, start

            xs, starts = zip(*run(run_slice, range(len(bounds))))
            drawn = starts[0]
        rng.bit_generator.state = nncore.pcg64_at(state, drawn).state
        return np.concatenate(xs)[..., 0], (layers, caches)

    def backward(self, dprobs: np.ndarray, tape, run=map) -> np.ndarray:
        """Gradient of the loss over params, one flat vector laid out like
        params; dprobs is shaped like forward_train's output, and tape is
        its tape.

        The runs of layers go in reverse, one task per slice each, and a
        slice records its gradients per layer of the pass. A task ends at
        its run's BatchNorm with that slice's column sums, which added over
        the slices in slice order give each slice's BatchNorm input
        gradient in the next task. After the runs each layer's gradients
        are added over the slices once, in slice order, and written into
        the flat vector by the tasks of one map: a composed layer's pulled
        back onto its two factors by compose_convs_adjoint's two tasks,
        and every other layer's summed and written by one more task."""
        layers, caches = tape
        bounds = slice_bounds(dprobs.shape[0], len(caches))
        ds = [dprobs[a:b, ..., None] for a, b in bounds]
        grads = [[()] * len(layers) for _ in bounds]  # per slice, per layer
        bn_sums = None
        for lo, hi in reversed(_runs(layers)):

            def run_slice(s, lo=lo, hi=hi, bn_sums=bn_sums):
                d, sums = ds[s], None
                if bn_sums is not None:  # d is the dxhat of layers[hi]
                    d = layers[hi][0].input_gradient(d, caches[s][hi],
                                                     *bn_sums)
                for i in range(hi - 1, lo - 1, -1):
                    layer = layers[i][0]
                    if isinstance(layer, BatchNorm):
                        d, grads[s][i], sums = layer.gradient_sums(
                            d, caches[s][i])
                    else:
                        # nothing reads the gradient of the input patches
                        d, *grads[s][i] = layer.backward(d, caches[s][i],
                                                         input_grad=i > 0)
                return d, sums

            done = list(run(run_slice, range(len(bounds))))
            ds = [d for d, _ in done]
            if isinstance(layers[lo][0], BatchNorm):
                bn_sums = [ordered_sum(c) for c in zip(*(c for _, c in done))]
        grad = np.empty_like(self.params)  # every trainable array is written
        out, table = self._layer_views(grad), self.layers
        writes, plain = [], []  # plain: (view, its array per slice)
        for i, (_, pos) in enumerate(layers):
            if len(pos) > 1:
                summed = [ordered_sum(g) for g in zip(*(g[i] for g in grads))]
                writes += compose_convs_adjoint(
                    *[(table[p].kernel, table[p].bias) for p in pos], summed,
                    [out[p] for p in pos])
            else:
                plain += zip(out[pos[0]], zip(*(g[i] for g in grads)))
        writes.append(functools.partial(_sum_into, plain))
        list(run(lambda write: write(), writes))
        return grad


def _runs(layers) -> list:
    """(lo, hi) of each run of a train-mode layer list that a pass gives
    one task per slice. Every BatchNorm opens a run, since its statistics
    span the whole batch: the slices sync there and nowhere else."""
    cuts = [0] + [i for i, (layer, _) in enumerate(layers)
                  if i and isinstance(layer, BatchNorm)]
    return list(zip(cuts, cuts[1:] + [len(layers)]))


COMPOSE_SPLIT_MACS = 1 << 24  # the least composition compose_convs maps


def run_layers(layers, x: np.ndarray) -> np.ndarray:
    """Forward passes of layers in order (inference_stack's); (N, h, w)
    from the last layer's single output channel, so 5x5 patches give
    (N, 1, 1)."""
    for layer in layers:
        x = layer.forward(x)
    return x[..., 0]


def _inference_conv(layer) -> ConvLayer:
    """A conv or BatchNorm layer's inference map as a float64 ConvLayer;
    a BatchNorm is the linear 1x1 conv of its moving-statistics affine."""
    if isinstance(layer, BatchNorm):
        scale = layer.gamma / np.sqrt(
            layer.moving_var.astype(np.float64) + layer.epsilon)
        shift = layer.beta - layer.moving_mean * scale
        return ConvLayer(np.diag(scale)[:, :, None, None], shift, "linear")
    return ConvLayer(layer.kernel.astype(np.float64),
                     layer.bias.astype(np.float64), layer.activation)


def _taps(kernel: np.ndarray) -> np.ndarray:
    """A kernel's taps as one contiguous (k, k, in, out) array: tap (i, j)
    is the (in, out) matrix that ConvLayer's GEMM applies to pixel (i, j)
    of every window."""
    return np.ascontiguousarray(kernel.transpose(2, 3, 1, 0))


def compose_convs(first, second, run=map):
    """(kernel, bias) of the valid conv `second` applied to the output of
    the linear valid conv `first`, both given as (kernel, bias): one valid
    conv of side k1 + k2 - 1, exact in real arithmetic. Tap (i1 + i2,
    j1 + j2) of the kernel sums the products of first's tap (i1, j1) and
    second's tap (i2, j2), in the order of (i2, j2). The kernel is an
    (out, in, k, k) view of its contiguous taps, so a ConvLayer's kernel
    matrix is a reshape of it.

    The output channels are TRAIN_SLICES tasks, and a task makes the
    products of its taps of second with all of first's in one GEMM each:
    an output element is the same dot products added in the same order
    whatever the split. run (map, or a thread pool's map) maps the tasks
    of a composition of at least COMPOSE_SPLIT_MACS multiply-adds (the
    paper preset's conv3.conv4); a smaller one runs them in turn, since a
    map costs about 0.1-0.3 ms."""
    (k1, b1), (k2, b2) = first, second
    t1 = _taps(k1)
    s1, s2 = len(t1), k2.shape[2]
    side = s1 + s2 - 1
    rows = t1.reshape(-1, t1.shape[3])  # first's taps stacked, one GEMM
    taps = np.zeros((side, side, t1.shape[2], k2.shape[0]),
                    dtype=np.result_type(k1, k2))
    tap_sums = np.empty((k2.shape[1], k2.shape[0]), dtype=taps.dtype)

    def outputs(bounds):
        cols = slice(*bounds)
        t2 = _taps(k2[cols])
        for i2, j2 in np.ndindex(s2, s2):
            taps[i2:i2 + s1, j2:j2 + s1, :, cols] += (
                rows @ t2[i2, j2]).reshape(s1, s1, t1.shape[2], t2.shape[3])
        tap_sums[:, cols] = t2.sum(axis=(0, 1))

    if rows.size * k2.shape[0] * s2 * s2 < COMPOSE_SPLIT_MACS:
        run = map
    list(run(outputs, slice_bounds(taps.shape[3], TRAIN_SLICES)))
    return taps.transpose(3, 2, 0, 1), b2 + b1 @ tap_sums


def compose_convs_adjoint(first, second, grad, out):
    """Two tasks that write the gradient grad = (dK, dB) of
    compose_convs(first, second), pulled back to its factors, into out =
    ((dk1, db1), (dk2, db2)), arrays shaped like the factors' kernels and
    biases: the transpose of the composition's Jacobian at (first,
    second), exact in real arithmetic. Per tap, in the (in, out) matrices
    of _taps:

        dk1[i1, j1] = sum over (i2, j2) of dK[i1 + i2, j1 + j2] k2[i2, j2]^T
        dk2[i2, j2] = b1 dB^T + sum over (i1, j1) of
                      k1[i1, j1]^T dK[i1 + i2, j1 + j2]
        db1 = (sum of k2's taps) dB,  db2 = dB

    with the terms added in the order shown. The first task writes dk1
    and db1, the second dk2 and db2; the caller runs them, and
    Model.backward runs them in one map with its other layers' writes."""
    (k1, b1), (k2, _) = first, second
    dk, db = grad
    (dk1, db1), (dk2, db2) = out
    dt = _taps(dk)
    s1, s2 = k1.shape[2], k2.shape[2]
    dtype = np.result_type(k1, k2, dk)

    def first_taps():
        t2 = _taps(k2)
        acc = np.zeros((s1, s1, *k1.shape[1::-1]), dtype=dtype)
        for i2, j2 in np.ndindex(s2, s2):
            acc += dt[i2:i2 + s1, j2:j2 + s1] @ t2[i2, j2].T
        dk1[...] = acc.transpose(3, 2, 0, 1)
        db1[...] = t2.sum(axis=(0, 1)) @ db

    def second_taps():
        t1 = _taps(k1)
        acc = np.empty((s2, s2, *k2.shape[1::-1]), dtype=dtype)
        acc[...] = np.multiply.outer(b1, db)
        for i1, j1 in np.ndindex(s1, s1):
            acc += t1[i1, j1].T @ dt[i1:i1 + s2, j1:j1 + s2]
        dk2[...] = acc.transpose(3, 2, 0, 1)
        db2[...] = db

    return first_taps, second_taps


def _sum_into(pairs) -> None:
    """Write each (view, arrays) pair's sum of arrays, in their order,
    into its view."""
    for view, arrays in pairs:
        view[...] = ordered_sum(arrays)


def _compose(layers, run=map) -> list:
    """The composition rule of the train-mode pass and of inference_stack:
    each linear ConvLayer is composed into the ConvLayer after it
    (compose_convs, in the kernels' dtype, its tasks mapped by run), and a
    composed layer that is linear composes on. Returns (layer, positions
    in layers) per result, in order; a layer that is not composed is the
    given object."""
    composed = []
    for i, layer in enumerate(layers):
        prev, pos = composed[-1] if composed else (None, ())
        if (isinstance(layer, ConvLayer) and isinstance(prev, ConvLayer)
                and prev.activation == "linear"):
            kernel, bias = compose_convs((prev.kernel, prev.bias),
                                         (layer.kernel, layer.bias), run)
            composed[-1] = (ConvLayer(kernel, bias, layer.activation),
                            pos + (i,))
        else:
            composed.append((layer, (i,)))
    return composed


def inference_stack(net: Model) -> list:
    """The network's inference pass, which makes the maps and the
    validation losses through run_layers, as few ConvLayers.

    In inference mode dropout is the identity and BatchNorm an affine map,
    i.e. a linear 1x1 conv, and a linear valid conv followed by another
    valid conv is one valid conv of side k1 + k2 - 1 (_compose). For the
    LAYERS table the eight layers give four: conv1.conv2 3x3 tanh,
    bn1.conv3.conv4 3x3 tanh, bn2.dense1 1x1 tanh and dense2, that is
    27,904 instead of 37,504 multiply-adds per pixel (desk; paper 431,104
    instead of 592,384). This is exact in real arithmetic because no conv
    pads: every intermediate pixel comes from real inputs, and the only
    zero border is the one around the input, which the composed conv reads
    alike. Kernels are composed in float64 and cast once to the model's
    dtype, so the stack differs from running the layers one by one in that
    dtype by float32 rounding only (at most 3e-7 on trained desk and paper
    models). net is not modified, and the layers are read-only, so threads
    may share them."""
    layers = [_inference_conv(layer) for layer in net.layers
              if not isinstance(layer, Dropout)]
    dtype = net.params.dtype
    return [ConvLayer(layer.kernel.astype(dtype), layer.bias.astype(dtype),
                      layer.activation) for layer, _ in _compose(layers)]


def build_model(arch: ArchitectureConfig, seed: int = 0,
                zone_id: str = "") -> Model:
    """Initialize all layers; conv kernels and biases uniform on
    [-0.1065, 0.1065], drawn from a generator seeded with seed in table
    order; BN at gamma=1, beta=0, moving mean 0 / var 1 (see Model)."""
    rng = np.random.default_rng(seed)
    model = Model(arch, zone_id=zone_id, seed=seed)
    for layer in model.layers:
        if isinstance(layer, ConvLayer):
            for attr in layer.param_names:
                arr = getattr(layer, attr)
                arr[...] = nncore.init_uniform(rng, arr.shape)
    return model


def train_step(model: Model, patches: np.ndarray, labels: np.ndarray,
               state: AdamState, rng: np.random.Generator, run=map) -> float:
    """Forward/backward/Adam over one optimizer batch; returns the batch
    loss measured before the update.

    The pass keeps BatchNorm and dropout where they are, with their
    statistics, masks and RNG stream, and runs the layers as _compose
    gives them, built afresh from the current parameters: conv1.conv2 is
    one 3x3 conv on the 5x5 patch, and conv3.conv4 one 3x3 conv on the
    3x3 map out of bn1/drop1, which is a dense layer. Per paper patch the
    forward pass costs 467,968 multiply-adds instead of 1,540,608, and the
    composed first layer takes no input gradient. The loss is the same
    function of the parameters, so each factor's gradient is the composed
    kernel's gradient pulled back through the bilinear composition
    (compose_convs_adjoint), once per step; in float64 this agrees with
    the per-layer gradient to within a few roundings.

    The batch runs as TRAIN_SLICES contiguous row slices (slice_bounds).
    rng must be a PCG64 generator (ConfigError otherwise). The dropout
    masks are rng.random(shape) >= rate at the whole batch's shape, in
    layer order. Each slice's task places its rows of a mask by the shape
    of the array it masks (forward_train) and draws them from a copy of
    rng's stream jumped to their place (Dropout.keep_flags); rng ends
    where the whole-batch draws leave it, so rng's stream does not depend
    on the slices. The composed kernels are TRAIN_SLICES tasks each
    (compose_convs). The layers from one BatchNorm to the next are one
    task per slice, mapped by run (map, or a thread pool's map); each
    BatchNorm syncs the slices, its statistics and gradient sums being
    per-slice column sums added in slice order (synchronized BatchNorm).
    Each layer's weight gradient is the sum of the slices' in slice order,
    before one Adam step whose chunks run maps too. The slice count is
    fixed, so results do not depend on the thread count. One slice is the
    unsliced pass over the composed layers bit for bit; two differ from it
    by the order of those sums only."""
    probs, caches = model.forward_train(patches, rng, TRAIN_SLICES, run)
    loss, dprobs = bce_loss(labels.astype(np.float32), probs[:, 0, 0])
    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss {loss}")
    grad = model.backward(dprobs.reshape(probs.shape), caches, run)
    adam_step(model.params, grad, state, run)
    return loss


# -- GHSM serialization ----------------------------------------------------

# The network's constants, outside ArchitectureConfig, in every header.
FIXED_ARCH = {"patch_size": raster.PATCH_SIZE, "dropout_rate": Dropout.rate,
              "normalization_divisor": raster.REFLECTANCE_SCALE}


def _header_dict(model: Model) -> dict:
    return {
        "version": GHSM_VERSION,
        "arch": {**model.arch.to_dict(), **FIXED_ARCH},
        "zone_id": model.zone_id,
        "seed": model.seed,
        "epochs_trained": model.epochs_trained,
    }


def save_model(model: Model, path) -> None:
    header = json.dumps(_header_dict(model), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(GHSM_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for arr in model.serialization_arrays():
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


# The JSON type of each GHSM header field ("float" fields accept integers).
HEADER_TYPES = {"version": int, "arch": dict, "zone_id": str, "seed": int,
                "epochs_trained": int}
ARCH_TYPES = {"patch_size": int, "bands": int, "block_filters": list,
              "hidden_units": int, "dropout_rate": float,
              "normalization_divisor": float}


def _has_type(value, kind) -> bool:
    """isinstance for JSON values: true/false are not numbers, and an
    integer is a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_header(parsed) -> None:
    """FormatError unless the header has every field with its JSON type
    and its arch holds the network's constants (FIXED_ARCH) and values
    ArchitectureConfig accepts."""
    for where, obj, types in (("", parsed, HEADER_TYPES),
                              ("arch.", parsed.get("arch"), ARCH_TYPES)):
        for key, kind in types.items():
            if not _has_type(obj.get(key), kind):
                raise FormatError(f"model header field {where}{key} must be "
                                  f"a JSON {kind.__name__}, got "
                                  f"{obj.get(key)!r}")
    if not all(_has_type(f, int) for f in parsed["arch"]["block_filters"]):
        raise FormatError("model header field arch.block_filters must hold "
                          "integers")
    for key, value in FIXED_ARCH.items():
        if parsed["arch"][key] != value:
            raise FormatError(f"model header field arch.{key} must be "
                              f"{value}, got {parsed['arch'][key]!r}")
    try:
        ArchitectureConfig.from_dict(parsed["arch"])
    except ConfigError as exc:
        raise FormatError(f"model header field arch: {exc}") from exc


def _reject_constant(name: str):
    """json parse_constant: NaN and Infinity are not JSON."""
    raise FormatError(f"model header at offset 8 holds {name}, which is not "
                      f"JSON")


def _read_header(f) -> dict:
    """The checked JSON header of the GHSM file open as f; f is left at
    the first parameter blob."""
    magic = f.read(4)
    if len(magic) < 4 or magic != GHSM_MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0")
    raw_len = f.read(4)
    if len(raw_len) < 4:
        raise FormatError("truncated header length at offset 4")
    (hlen,) = struct.unpack("<I", raw_len)
    size = os.fstat(f.fileno()).st_size
    if 8 + hlen > size:  # checked before reading: hlen can be 4 GB
        raise FormatError(f"truncated header at offset {size}: length "
                          f"{hlen} at offset 4 runs past the end")
    header = f.read(hlen)
    try:
        parsed = json.loads(header.decode("utf-8"),
                            parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"undecodable header at offset 8: {exc}") from exc
    if not isinstance(parsed, dict):
        raise FormatError("model header at offset 8 is not a JSON object")
    if parsed.get("version") != GHSM_VERSION:
        raise FormatError(f"unsupported model version {parsed.get('version')}")
    _check_header(parsed)
    return parsed


@contextmanager
def _open_model(path):
    """The GHSM file at path, open for reading; a FormatError raised while
    it is read names the file."""
    with open(path, "rb") as f:
        try:
            yield f
        except FormatError as exc:
            raise FormatError(f"model file {path}: {exc}") from exc


def read_model_header(path) -> dict:
    with _open_model(path) as f:
        return _read_header(f)


def load_model(path) -> Model:
    with _open_model(path) as f:
        hdr = _read_header(f)
        arch = ArchitectureConfig.from_dict(hdr["arch"])
        # checked before the model is allocated: a header can ask for terabytes
        need = 4 * sum(count_params(arch))
        offset = f.tell()
        size = os.fstat(f.fileno()).st_size
        if size - offset != need:
            raise FormatError(
                f"parameter payload of {size - offset} bytes at offset "
                f"{offset}: expected {offset + need} bytes total"
            )
        flat = np.frombuffer(f.read(), dtype="<f4")
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            raise FormatError(f"non-finite parameter {flat[bad[0]]} at "
                              f"offset {offset + 4 * bad[0]}")
    # every parameter array is read from the file, so none is initialised
    model = Model(arch, zone_id=hdr["zone_id"], seed=hdr["seed"],
                  epochs_trained=hdr["epochs_trained"])
    pos = 0
    for a in model.serialization_arrays():
        a[...] = flat[pos:pos + a.size].reshape(a.shape)
        pos += a.size
    return model
