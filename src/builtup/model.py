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
kernel is stored as its [out][in] weight matrix.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from . import nncore
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .nncore import (
    KERNEL_SIZE,
    AdamState,
    BatchNorm,
    ConvLayer,
    Dropout,
    adam_step,
    bce_loss,
    ordered_sum,
)

GHSM_MAGIC = b"GHSM"
GHSM_VERSION = 1


@dataclass(frozen=True)
class ArchitectureConfig:
    patch_size: int = 5
    bands: int = 4
    block_filters: tuple = (32, 64)
    hidden_units: int = 128
    dropout_rate: float = 0.1
    normalization_divisor: float = 10000.0

    def validate(self) -> None:
        if self.patch_size != 5:
            raise ConfigError(f"patch_size must be 5, got {self.patch_size}")
        if self.bands < 1:
            raise ConfigError(f"bands must be >= 1, got {self.bands}")
        if len(self.block_filters) != 2 or min(self.block_filters) < 1:
            raise ConfigError(f"block_filters must be two counts >= 1, "
                              f"got {self.block_filters}")
        if self.hidden_units < 1:
            raise ConfigError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), "
                              f"got {self.dropout_rate}")
        if not 0 < self.normalization_divisor < math.inf:
            raise ConfigError(f"normalization_divisor must be positive and "
                              f"finite, got {self.normalization_divisor}")

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


def preset(name: str, divisor: Optional[float] = None) -> ArchitectureConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = PRESETS[name]
    if divisor is not None:
        cfg = replace(cfg, normalization_divisor=divisor)
    return cfg


# The network in forward order: (name, layer class, activation, input width,
# output width, kernel size), widths named as in _layer_shapes(). Dropout
# rows take their rate from ArchitectureConfig.dropout_rate. GHSM parameter
# blobs follow this order, each layer's trainable arrays (param_names)
# before its statistics (state_names).
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
    0, moving variance 1); build_model draws the initial weights.
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
                layer = Dropout(arch.dropout_rate)
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
        m = self.arch.patch_size - 1
        if x.ndim != 4 or min(x.shape[1:3]) <= m or x.shape[3] != self.arch.bands:
            raise ShapeError(
                f"input must be (N, h+{m}, w+{m}, {self.arch.bands}) with "
                f"h, w >= 1, got {x.shape}"
            )

    def forward_train(self, x: np.ndarray, rng: np.random.Generator,
                      slices: int = 1, run=map):
        """Training pass over `slices` row slices, their tasks mapped by
        run (map, or a thread pool's map); train_step describes the pass.

        x is (N, h+4, w+4, bands). Returns ((N, h, w) probabilities, a
        tape for backward(): the pass's layer list and one list of layer
        caches per slice)."""
        self._check_input(x)
        layers = _compose(self.layers)
        masks = _draw_masks(layers, x.shape, rng)
        bounds = slice_bounds(x.shape[0], slices)
        xs = [x[a:b] for a, b in bounds]
        caches = [[] for _ in bounds]
        for lo, hi in _runs(layers):
            head = layers[lo][0]
            stats = (head.batch_statistics(xs, run)
                     if isinstance(head, BatchNorm) else None)

            def run_slice(s, lo=lo, hi=hi, stats=stats):
                (a, b), y = bounds[s], xs[s]
                for i in range(lo, hi):
                    layer = layers[i][0]
                    if isinstance(layer, BatchNorm):
                        y, cache = layer.normalize(y, *stats)
                    elif isinstance(layer, Dropout):
                        mask = masks[i]
                        y, cache = layer.apply(
                            y, None if mask is None else mask[a:b])
                    else:
                        y, cache = layer.forward_train(y)
                    caches[s].append(cache)
                return y

            xs = list(run(run_slice, range(len(bounds))))
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
        the flat vector: a composed layer's pulled back onto its two
        factors by compose_convs_adjoint, whose tasks run maps, and any
        other layer's as they are."""
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
        for i, (_, pos) in enumerate(layers):
            summed = [ordered_sum(g) for g in zip(*(g[i] for g in grads))]
            pulled = (compose_convs_adjoint(
                *[(table[p].kernel, table[p].bias) for p in pos], summed, run)
                if len(pos) > 1 else [summed])
            for p, factor_grads in zip(pos, pulled):
                for view, g in zip(out[p], factor_grads):
                    view[...] = g
        return grad


def _runs(layers) -> list:
    """(lo, hi) of each run of a train-mode layer list that a pass gives
    one task per slice. Every BatchNorm opens a run, since its statistics
    span the whole batch: the slices sync there and nowhere else."""
    cuts = [0] + [i for i, (layer, _) in enumerate(layers)
                  if i and isinstance(layer, BatchNorm)]
    return list(zip(cuts, cuts[1:] + [len(layers)]))


TRAIN_SLICES = 2  # row slices of every optimizer batch (train_step)


def slice_bounds(n: int, slices: int) -> list:
    """(start, stop) of `slices` contiguous row ranges covering n rows in
    order; sizes differ by at most one, and ranges are empty when
    slices > n."""
    edges = [n * i // slices for i in range(slices + 1)]
    return list(zip(edges, edges[1:]))


def _draw_masks(layers, shape, rng: np.random.Generator) -> list:
    """draw() of each Dropout of a train-mode layer list, in layer order
    and at the whole batch's shape, None for every other layer. shape is
    the input's (N, H, W, C); each ConvLayer shrinks H and W by k - 1 and
    sets C."""
    n, h, w, c = shape
    masks = []
    for layer, _ in layers:
        if isinstance(layer, ConvLayer):
            k = layer.kernel_size
            h, w, c = h - k + 1, w - k + 1, layer.out_channels
        masks.append(layer.draw(rng, (n, h, w, c))
                     if isinstance(layer, Dropout) else None)
    return masks


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


def compose_convs(first, second):
    """(kernel, bias) of the valid conv `second` applied to the output of
    the linear valid conv `first`, both given as (kernel, bias): one valid
    conv of side k1 + k2 - 1, exact in real arithmetic. Tap (i1 + i2,
    j1 + j2) of the kernel sums the products of first's tap (i1, j1) and
    second's tap (i2, j2), in the order of (i2, j2). The kernel is an
    (out, in, k, k) view of its contiguous taps, so a ConvLayer's kernel
    matrix is a reshape of it."""
    (k1, b1), (k2, b2) = first, second
    t1, t2 = _taps(k1), _taps(k2)
    s1, s2 = len(t1), len(t2)
    side = s1 + s2 - 1
    taps = np.zeros((side, side, t1.shape[2], t2.shape[3]),
                    dtype=np.result_type(t1, t2))
    for i2, j2 in np.ndindex(s2, s2):
        taps[i2:i2 + s1, j2:j2 + s1] += t1 @ t2[i2, j2]
    return taps.transpose(3, 2, 0, 1), b2 + b1 @ t2.sum(axis=(0, 1))


def compose_convs_adjoint(first, second, grad, run=map):
    """((dk1, db1), (dk2, db2)): the gradient grad = (dK, dB) of
    compose_convs(first, second) pulled back to its factors, i.e. the
    transpose of the composition's Jacobian at (first, second), exact in
    real arithmetic. Per tap, in the (in, out) matrices of _taps:

        dk1[i1, j1] = sum over (i2, j2) of dK[i1 + i2, j1 + j2] k2[i2, j2]^T
        dk2[i2, j2] = b1 dB^T + sum over (i1, j1) of
                      k1[i1, j1]^T dK[i1 + i2, j1 + j2]
        db1 = (sum of k2's taps) dB,  db2 = dB

    with the terms added in the order shown. dk1 and dk2 are one task of
    run (map, or a thread pool's map) each."""
    (k1, b1), (k2, _) = first, second
    dk, db = grad
    t1, t2, dt = _taps(k1), _taps(k2), _taps(dk)
    s1, s2 = len(t1), len(t2)
    dtype = np.result_type(t1, t2, dt)

    def first_taps():
        acc = np.zeros(t1.shape, dtype=dtype)
        for i2, j2 in np.ndindex(s2, s2):
            acc += dt[i2:i2 + s1, j2:j2 + s1] @ t2[i2, j2].T
        return acc

    def second_taps():
        acc = np.empty(t2.shape, dtype=dtype)
        acc[...] = np.multiply.outer(b1, db)
        for i1, j1 in np.ndindex(s1, s1):
            acc += t1[i1, j1].T @ dt[i1:i1 + s2, j1:j1 + s2]
        return acc

    dt1, dt2 = run(lambda taps: taps(), (first_taps, second_taps))
    return ((dt1.transpose(3, 2, 0, 1), t2.sum(axis=(0, 1)) @ db),
            (dt2.transpose(3, 2, 0, 1), db))


def _compose(layers) -> list:
    """The composition rule of the train-mode pass and of inference_stack:
    each linear ConvLayer is composed into the ConvLayer after it
    (compose_convs, in the kernels' dtype), and a composed layer that is
    linear composes on. Returns (layer, positions in layers) per result,
    in order; a layer that is not composed is the given object."""
    composed = []
    for i, layer in enumerate(layers):
        prev, pos = composed[-1] if composed else (None, ())
        if (isinstance(layer, ConvLayer) and isinstance(prev, ConvLayer)
                and prev.activation == "linear"):
            kernel, bias = compose_convs((prev.kernel, prev.bias),
                                         (layer.kernel, layer.bias))
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
    order; BN at gamma=1, beta=0, moving mean 0 / var 1."""
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
    Every dropout mask is drawn first, on the calling thread, in layer
    order and at the whole batch's shape (_draw_masks), and each slice
    applies its rows, so rng's stream does not depend on the slices. The
    layers from one BatchNorm to the next are one task per slice, mapped
    by run (map, or a thread pool's map); each BatchNorm syncs the
    slices, its statistics and gradient sums being per-slice column sums
    added in slice order (synchronized BatchNorm). Each layer's weight
    gradient is the sum of the slices' in slice order, before one Adam
    step whose chunks run maps too. The slice count is fixed, so results
    do not depend on the thread count. One slice is the unsliced pass
    over the composed layers bit for bit; two differ from it by the order
    of those sums only."""
    probs, caches = model.forward_train(patches, rng, TRAIN_SLICES, run)
    loss, dprobs = bce_loss(labels.astype(np.float32), probs[:, 0, 0])
    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss {loss}")
    grad = model.backward(dprobs.reshape(probs.shape), caches, run)
    adam_step(model.params, grad, state, run)
    return loss


# -- GHSM serialization ----------------------------------------------------

def _header_dict(model: Model) -> dict:
    return {
        "version": GHSM_VERSION,
        "arch": model.arch.to_dict(),
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
    """FormatError unless the header has every field with its JSON type."""
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


def read_model_header(path) -> dict:
    with open(path, "rb") as f:
        return _read_header(f)


def load_model(path) -> Model:
    with open(path, "rb") as f:
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
        raise FormatError(f"non-finite parameter {flat[bad[0]]} at offset "
                          f"{offset + 4 * bad[0]}")
    # every parameter array is read from the file, so none is initialised
    model = Model(arch, zone_id=hdr["zone_id"], seed=hdr["seed"],
                  epochs_trained=hdr["epochs_trained"])
    pos = 0
    for a in model.serialization_arrays():
        a[...] = flat[pos:pos + a.size].reshape(a.shape)
        pos += a.size
    return model
