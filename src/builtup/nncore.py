"""Deterministic tensor/layer/optimizer kernel with exact analytic gradients.

Layers operate on channels-last (N, H, W, C) numpy arrays. ConvLayer's
forward(x) -> y is the inference pass: model.inference_stack folds the
network into ConvLayers, BatchNorm becoming a 1x1 conv and Dropout, the
identity in inference, left out. forward never mutates layer state, so
threads may share it. param_names and state_names name each layer's
trainable arrays and its non-trainable statistics.

Model's train pass runs a batch as contiguous row slices, possibly on
several threads, and each layer's train mode takes the form that allows:

    ConvLayer  forward_train(x) -> (y, cache) per slice, and
               backward(dout, cache, input_grad=True) -> (dx, dkernel, dbias)
    BatchNorm  batch_statistics(xs) once for the batch (it also updates
               the moving statistics), normalize(x, ...) per slice;
               gradient_sums per slice, then input_gradient per slice
               from the batch's sums (synchronized BatchNorm)
    Dropout    draw(rng, shape) once for the batch, apply(x, draws[a:b])
               per slice, and backward(dout, mask) -> (dx,)

A ConvLayer is a k x k convolution; a dense layer applied per pixel is its
k = 1 case. With input_grad false a backward pass returns dx None and does
not compute it (the first layer, whose input is data). BatchNorm's
forward (its moving-statistics affine map), forward_train and backward
are whole-batch forms, the last two the one-slice compositions of its
split passes. The program runs none of them: tests compare against them,
and the benchmark's tracer wraps them.

Every batch-wide BatchNorm quantity is a sum of per-slice column sums
taken in slice order (ordered_sum), and every dropout mask is drawn at
the whole batch's shape before any slice runs, so a result does not
depend on which thread ran a slice, rng's stream does not depend on the
slice count, and one slice gives the bits of the unsliced pass.

No pass writes its input. Epilogues run in place on arrays the pass
allocated itself: a ConvLayer adds its bias to and takes tanh of its fresh
GEMM output, which is also the activation its cache keeps, and
BatchNorm.forward shifts its own scaled copy. This saves one full-size
temporary per layer and gives the same bits as the out-of-place forms.

Parameters and activations are float32 in production; every routine is
dtype-generic so gradient checks can run the same code in float64.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    DegenerateBatchError,
    NumericError,
    ParameterError,
    ShapeError,
)

KERNEL_SIZE = 2  # the network's convolutions; its dense layers are 1x1
WEIGHT_INIT_BOUND = 0.1065
PRED_CLIP = 1e-7


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def init_uniform(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Weight draw on [-WEIGHT_INIT_BOUND, WEIGHT_INIT_BOUND], i.i.d. uniform."""
    return rng.uniform(-WEIGHT_INIT_BOUND, WEIGHT_INIT_BOUND, size=shape).astype(dtype)


class ConvLayer:
    """Valid k x k convolution, stride 1, linear, tanh or sigmoid activation.

    kernel is (out_ch, in_ch, k, k), and k is read from its shape; forward
    maps (N, H, W, in_ch) to (N, H-k+1, W-k+1, out_ch). With k = 1 this is
    a dense layer applied per pixel.
    """

    param_names = ("kernel", "bias")
    state_names = ()

    def __init__(self, kernel: np.ndarray, bias: np.ndarray, activation: str):
        if activation not in ("linear", "tanh", "sigmoid"):
            raise ParameterError(f"conv activation {activation!r} not supported")
        if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
            raise ShapeError(f"kernel shape {kernel.shape} must be (out, in, k, k)")
        self.kernel = kernel
        self.bias = bias
        self.activation = activation

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.kernel.shape[2]

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 4:
            raise ShapeError(f"conv input must be (N, H, W, C), got {x.shape}")
        if min(x.shape[1:3]) < self.kernel_size:
            raise ShapeError(f"conv input spatial dims too small: {x.shape}")
        if x.shape[3] != self.in_channels:
            raise ShapeError(
                f"conv expects {self.in_channels} channels, got {x.shape[3]}"
            )

    def _kernel_matrix(self) -> np.ndarray:
        # (out, in, kh, kw) -> (kh*kw*in, out), row order (kh, kw, in)
        return self.kernel.transpose(2, 3, 1, 0).reshape(-1, self.out_channels)

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        """(N*Ho*Wo, k*k*C) patch rows, column order (kh, kw, in).

        Row di of every k x k window is k*C contiguous values of the
        flattened input row, so the matrix is built from k row-run copies
        rather than k*k per-offset slices. Where the windows do not overlap
        (k = 1, or a kernel covering its whole h = w = k input, which is a
        dense layer) the matrix is the input itself, reshaped.
        """
        k = self.kernel_size
        n, h, w, c = x.shape
        ho, wo = h - k + 1, w - k + 1
        if k == 1 or ho == wo == 1:
            return x.reshape(n * ho * wo, k * k * c)
        runs = np.lib.stride_tricks.sliding_window_view(
            x.reshape(n, h, w * c), k * c, axis=2)[:, :, ::c]  # (n, h, wo, kc)
        cols = np.empty((n, ho, wo, k, k * c), dtype=x.dtype)
        for di in range(k):
            cols[:, :, :, di] = runs[:, di:di + ho]
        return cols.reshape(n * ho * wo, k * k * c)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_train(x)
        return y

    def forward_train(self, x: np.ndarray):
        self._check_input(x)
        n, h, w, _ = x.shape
        ho, wo = h - self.kernel_size + 1, w - self.kernel_size + 1
        cols = self._im2col(x)
        z = cols @ self._kernel_matrix()
        z += self.bias
        z = z.reshape(n, ho, wo, self.out_channels)
        if self.activation == "tanh":
            a = np.tanh(z, out=z)
        elif self.activation == "sigmoid":
            a = sigmoid(z)
        else:
            return z, (x.shape, cols, None)
        return a, (x.shape, cols, a)

    def backward(self, dout: np.ndarray, cache, input_grad: bool = True):
        x_shape, cols, a = cache
        k = self.kernel_size
        n, h, w, c = x_shape
        ho, wo = h - k + 1, w - k + 1
        if self.activation == "tanh":
            dz = dout * (1.0 - a * a)
        elif self.activation == "sigmoid":
            dz = dout * a * (1.0 - a)
        else:
            dz = dout
        dz_mat = dz.reshape(n * ho * wo, self.out_channels)
        dbias = dz_mat.sum(axis=0)
        dw_mat = cols.T @ dz_mat
        dkernel = dw_mat.reshape(k, k, c, self.out_channels).transpose(3, 2, 0, 1)
        if not input_grad:
            return None, dkernel, dbias
        dcols = dz_mat @ self._kernel_matrix().T
        if k == 1 or ho == wo == 1:  # each dx element has one term
            return dcols.reshape(x_shape), dkernel, dbias
        dcols = dcols.reshape(n, ho, wo, k * k * c)
        dx = np.zeros(x_shape, dtype=dout.dtype)
        for i, (di, dj) in enumerate(np.ndindex(k, k)):
            dx[:, di:di + ho, dj:dj + wo, :] += dcols[..., i * c:(i + 1) * c]
        return dx, dkernel, dbias


class BatchNorm:
    """Per-channel batch normalization over the trailing axis.

    Train mode normalizes with batch statistics and nudges the moving
    statistics by exponential momentum. Inference uses the moving
    statistics only, as the affine map that model.inference_stack folds
    into the next conv.
    """

    param_names = ("gamma", "beta")
    state_names = ("moving_mean", "moving_var")
    epsilon = 1e-3
    momentum = 0.99

    def __init__(self, gamma: np.ndarray, beta: np.ndarray,
                 moving_mean: np.ndarray, moving_var: np.ndarray):
        self.gamma = gamma
        self.beta = beta
        self.moving_mean = moving_mean
        self.moving_var = moving_var

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def _check_input(self, x: np.ndarray) -> None:
        if x.shape[-1] != self.channels:
            raise ShapeError(
                f"batch norm expects {self.channels} channels, got {x.shape[-1]}"
            )

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        dt = x.dtype
        scale = (self.gamma / np.sqrt(self.moving_var + self.epsilon)).astype(dt)
        shift = (self.beta - self.moving_mean * scale).astype(dt)
        y = x * scale
        y += shift
        return y

    def _column_sum(self, x: np.ndarray, center=None) -> np.ndarray:
        """Per-channel sum of x, or of its squared deviations from center."""
        flat = x.reshape(-1, self.channels)
        if center is not None:
            flat = flat - center
            np.square(flat, out=flat)
        return flat.sum(axis=0)

    def batch_statistics(self, xs, run=map):
        """(mean, inv_std, count) of the batch whose row slices are xs, and
        one update of the moving statistics.

        Two passes, as np.mean and np.var make them: the mean, then the
        mean of squared deviations from it. Each pass sums per-slice column
        sums in slice order (run maps the per-slice sums, possibly on
        threads), so one slice gives the bits of flat.mean()/flat.var().
        """
        for x in xs:
            self._check_input(x)
        rows = sum(x.shape[0] for x in xs)
        if rows < 2:
            raise DegenerateBatchError(
                f"train-mode batch norm needs batch size >= 2, got {rows}"
            )
        count = sum(x.size for x in xs) // self.channels
        mean = ordered_sum(run(self._column_sum, xs)) / count
        var = ordered_sum(
            run(lambda x: self._column_sum(x, center=mean), xs)) / count
        m = self.momentum
        dt = self.moving_mean.dtype
        self.moving_mean = (m * self.moving_mean + (1.0 - m) * mean).astype(dt)
        self.moving_var = (m * self.moving_var + (1.0 - m) * var).astype(dt)
        inv_std = 1.0 / np.sqrt(var + np.asarray(self.epsilon, dtype=var.dtype))
        return mean, inv_std, count

    def normalize(self, x: np.ndarray, mean, inv_std, count: int):
        """(y, cache) of one slice, normalized with its batch's statistics."""
        xhat = (x.reshape(-1, self.channels) - mean) * inv_std
        y = (xhat * self.gamma + self.beta).reshape(x.shape)
        return y, (xhat, inv_std, x.shape, count)

    def forward_train(self, x: np.ndarray):
        return self.normalize(x, *self.batch_statistics([x]))

    def gradient_sums(self, dout: np.ndarray, cache):
        """(dxhat, (dgamma, dbeta), (sum of dxhat, sum of dxhat * xhat)) of
        one slice: backward's per-channel column sums, which a batch adds
        up over its slices in slice order, the last two before
        input_gradient."""
        xhat = cache[0]
        dflat = dout.reshape(-1, self.channels)
        dxhat = dflat * self.gamma
        return (dxhat, ((dflat * xhat).sum(axis=0), dflat.sum(axis=0)),
                (dxhat.sum(axis=0), (dxhat * xhat).sum(axis=0)))

    def input_gradient(self, dxhat: np.ndarray, cache, dxhat_sum,
                       dxhat_xhat_sum) -> np.ndarray:
        """One slice's dx from its dxhat and its batch's column sums."""
        xhat, inv_std, shape, m = cache
        dx = (inv_std / m) * (m * dxhat - dxhat_sum - xhat * dxhat_xhat_sum)
        return dx.reshape(shape)

    def backward(self, dout: np.ndarray, cache, input_grad: bool = True):
        dxhat, (dgamma, dbeta), sums = self.gradient_sums(dout, cache)
        if not input_grad:
            return None, dgamma, dbeta
        return self.input_gradient(dxhat, cache, *sums), dgamma, dbeta


class Dropout:
    """Inverted dropout: train mode zeroes each unit with probability rate
    and scales the kept ones by 1/(1-rate). Inference is the identity, so
    the inference pass leaves the layer out."""

    param_names = ()
    state_names = ()

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def draw(self, rng: np.random.Generator, shape):
        """The keep flags of a batch shaped `shape`, one uniform draw from
        rng per unit; None at rate 0, which draws nothing."""
        if self.rate == 0.0:
            return None
        return rng.random(shape) >= self.rate

    def apply(self, x: np.ndarray, draws):
        """(y, mask) of x under its rows of draw()'s keep flags; draws None
        is the identity with mask None."""
        if draws is None:
            return x, None
        mask = draws.astype(x.dtype) / np.asarray(1.0 - self.rate,
                                                  dtype=x.dtype)
        return x * mask, mask

    def backward(self, dout: np.ndarray, mask, input_grad: bool = True):
        if not input_grad:
            return (None,)
        return (dout if mask is None else dout * mask,)


def ordered_sum(arrays):
    """Left-to-right sum of arrays, in the order given (a float sum depends
    on it); one array is returned as it is."""
    return functools.reduce(operator.add, arrays)


def bce_loss(y_true: np.ndarray, y_pred: np.ndarray):
    """Mean binary cross-entropy with predictions clipped to [1e-7, 1-1e-7].

    Returns (value, gradient w.r.t. predictions). The value is accumulated
    in float64 regardless of input dtype.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ShapeError(
            f"label/prediction length mismatch: {y_true.shape} vs {y_pred.shape}"
        )
    n = y_true.size
    p = np.clip(y_pred, PRED_CLIP, 1.0 - PRED_CLIP)
    p64 = p.astype(np.float64)
    y64 = y_true.astype(np.float64)
    value = -np.mean(y64 * np.log(p64) + (1.0 - y64) * np.log1p(-p64))
    grad = ((p - y_true.astype(p.dtype)) / (p * (1.0 - p))) / np.asarray(
        n, dtype=p.dtype
    )
    return float(value), grad


@dataclass
class AdamState:
    """First/second moment estimates for a flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    learning_rate: float = 1e-4
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8

    @classmethod
    def for_size(cls, n: int, learning_rate: float = 1e-4,
                 dtype=np.float32) -> "AdamState":
        return cls(m=np.zeros(n, dtype=dtype), v=np.zeros(n, dtype=dtype),
                   learning_rate=learning_rate)


ADAM_CHUNK = 1 << 16  # parameters per Adam task (256 KB of float32)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              run=map) -> np.ndarray:
    """One bias-corrected Adam update; params and state updated in place.

    The update is elementwise, so it runs in chunks of ADAM_CHUNK
    parameters, mapped by run (map, or a thread pool's map), with the bits
    of one whole-vector update."""
    if params.shape != grads.shape:
        raise ShapeError(f"param/grad shape mismatch: {params.shape} vs {grads.shape}")
    finite = np.isfinite(grads)
    if not finite.all():
        idx = int(np.flatnonzero(~finite)[0])
        raise NumericError(f"non-finite gradient at parameter index {idx}")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    mhat_div, vhat_div = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step

    def update(start: int) -> None:
        chunk = slice(start, start + ADAM_CHUNK)
        g, m, v = grads[chunk], state.m[chunk], state.v[chunk]
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        mhat = m / mhat_div
        vhat = v / vhat_div
        params[chunk] -= (state.learning_rate * mhat
                          / (np.sqrt(vhat) + state.epsilon)).astype(params.dtype)

    list(run(update, range(0, params.size, ADAM_CHUNK)))
    return params
