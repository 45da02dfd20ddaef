"""Deterministic tensor/layer/optimizer kernel with exact analytic gradients.

Layers operate on channels-last (N, H, W, C) numpy arrays. ConvLayer's
forward(x) -> y is the inference pass: model.inference_stack folds the
network into ConvLayers, BatchNorm becoming a 1x1 conv and Dropout, the
identity in inference, left out. forward changes no parameter or
statistic (a Winograd layer keeps its kernel transform, and buffers per
thread), so threads may share it. param_names and state_names name each
layer's trainable arrays and its non-trainable statistics.

forward runs one of two paths, chosen from the kernel and the input's
shape. A 3x3 ConvLayer of at least WINOGRAD_MIN_CHANNELS inputs runs
F(2x2, 3x3) on outputs of at least 2 x 2, in chunks of WINOGRAD_TILE_ROWS
tile rows through two buffers the layer holds for each thread that runs
it; the first such pass makes the layer's kernel transform, so a layer
that only sees 1 x 1 outputs never makes one. Every other forward, and
every forward_train, is im2col and one GEMM. In the network only the
paper preset's composed bn1.conv3.conv4 (128 -> 256) qualifies, and only
on prediction windows: desk's (32 -> 64), each conv1.conv2 (the bands)
and every 5x5-patch pass (training, BatchNorm statistics, validation
losses) run im2col. On a paper 64x64 block with one BLAS thread the layer
took 16.5-17 ms against 24.5 ms by im2col, its 16 GEMMs about 10.4 ms of
that, and its buffers hold 6 MB where im2col's matrix is 18.9 MB.

Model's train pass runs a batch as contiguous row slices, possibly on
several threads, and each layer's train mode takes the form that allows:

    ConvLayer  forward_train(x) -> (y, cache) per slice, and
               backward(dout, cache, input_grad=True) -> (dx, dkernel, dbias)
    BatchNorm  batch_statistics(xs) once for the batch, normalize(x, ...)
               per slice; gradient_sums per slice, then input_gradient
               per slice from the batch's sums (synchronized BatchNorm)
    Dropout    keep_flags(state, skip, shape) and apply(x, keep) per
               slice, and backward(dout, mask) -> (dx,)

A ConvLayer is a k x k convolution; a dense layer applied per pixel is its
k = 1 case. With input_grad false a backward pass returns dx None and does
not compute it (the first layer, whose input is data). BatchNorm's
forward (its moving-statistics affine map), forward_train and backward
are whole-batch forms, the last two the one-slice compositions of its
split passes. The program runs none of them: tests compare against them,
and the benchmark's tracer wraps them.

Every batch-wide BatchNorm quantity is a sum of per-slice column sums
taken in slice order (ordered_sum). Every dropout mask is one whole-batch
draw of rng.random(shape) >= rate, and each slice draws its own rows of it
from the step's PCG64 stream, jumped to their place (pcg64_at), so a
result does not depend on which thread ran a slice, rng's stream does not
depend on the slice count, and one slice gives the bits of the unsliced
pass.

No pass writes its input. Epilogues run in place on arrays the pass
allocated itself, with the operations of the out-of-place forms in the
same order, so they give the same bits: a ConvLayer adds its bias to and
takes tanh of its fresh GEMM output, which is also the activation its
cache keeps, and the other epilogues (tanh's derivative, BatchNorm's
normalization and gradients, dropout's mask, Adam's update) each
work in one or two buffers of their own instead of a temporary per
operation.

Parameters and activations are float32 in production; every routine is
dtype-generic so gradient checks can run the same code in float64.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatchError,
    NumericError,
    ShapeError,
)

KERNEL_SIZE = 2  # the network's convolutions; its dense layers are 1x1
WEIGHT_INIT_BOUND = 0.1065
PRED_CLIP = 1e-7

# F(2x2, 3x3) (Lavin & Gray 2016, arXiv:1509.09308): a 2x2 output tile of a
# 3x3 conv is A^T [(G g G^T) * (B^T d B)] A for a 4x4 input tile d, with
# 16 multiplies per input and output channel pair where im2col's GEMM
# makes 36. B^T = [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0],
# [0, 1, 0, -1]] is spelled out as adds in ConvLayer._winograd_forward;
# WINOGRAD_AA is kron(A^T, A^T), A^T m A of every tile as one GEMM.
WINOGRAD_G = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5],
                       [0.0, 0.0, 1.0]])
_WINOGRAD_AT = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, -1.0]])
WINOGRAD_AA = np.kron(_WINOGRAD_AT, _WINOGRAD_AT) + 0.0  # no -0 entries
# A 3x3 c -> 2c layer on a 66x66 input, one BLAS thread, im2col time over
# Winograd time: c = 16 0.83-0.91, 32 1.07-1.10, 48 1.12-1.18, 64 1.32-1.35,
# 96 1.42-1.52, 128 1.46-1.50. From 64 inputs the gain is clear of the
# machine's noise; desk's 32 stays on im2col and keeps its bytes.
WINOGRAD_MIN_CHANNELS = 64  # least input channels of a 3x3 Winograd layer
# 8 tile rows of a 64-wide block are 256 tiles: the 16 GEMMs' M, at which
# they ran fastest (10.2 ms per block, against 11.3 at 128 and 10.6 at 512)
WINOGRAD_TILE_ROWS = 8  # tile rows (two output rows each) per pass chunk


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, both from
    e = exp(-|z|), which cannot overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def init_uniform(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Weight draw on [-WEIGHT_INIT_BOUND, WEIGHT_INIT_BOUND], i.i.d. uniform."""
    return rng.uniform(-WEIGHT_INIT_BOUND, WEIGHT_INIT_BOUND, size=shape).astype(dtype)


def winograd_kernel(kernel: np.ndarray) -> np.ndarray:
    """The F(2x2, 3x3) transform G g G^T of each (out, in) 3x3 kernel g, as
    16 contiguous (in, out) matrices, one per place of a 4x4 tile, taken in
    float64 and cast once to kernel's dtype."""
    out_ch, in_ch, _, _ = kernel.shape
    # (G g G^T)[a, b] = sum of G[a, i] G[b, j] g[i, j], over all kernels
    # at once: kron(G, G) times the 9 taps' (in, out) matrices
    taps = kernel.transpose(2, 3, 1, 0).reshape(9, in_ch * out_ch)
    u = np.kron(WINOGRAD_G, WINOGRAD_G) @ taps
    return u.reshape(16, in_ch, out_ch).astype(kernel.dtype)


def _buffer(workspace: threading.local, name: str, shape,
            dtype) -> np.ndarray:
    """A C-contiguous `shape` array over the buffer `name` of dtype that
    workspace holds for the calling thread, grown when it is too small. Its
    values are the last user's, and every user writes it before reading
    it, so no pass sees another's data."""
    arrays = vars(workspace).setdefault("arrays", {})
    key, size = (name, np.dtype(dtype)), math.prod(shape)
    if key not in arrays or arrays[key].size < size:
        arrays[key] = np.empty(size, dtype)
    return arrays[key][:size].reshape(shape)


class ConvLayer:
    """Valid k x k convolution, stride 1, linear, tanh or sigmoid activation.

    kernel is (out_ch, in_ch, k, k), and k is read from its shape; forward
    maps (N, H, W, in_ch) to (N, H-k+1, W-k+1, out_ch). With k = 1 this is
    a dense layer applied per pixel.

    A 3x3 kernel of at least WINOGRAD_MIN_CHANNELS inputs makes forward
    run F(2x2, 3x3) where the output is at least 2 x 2, and im2col
    elsewhere (a 5x5 patch's 1 x 1 output), as forward_train always does.
    The first F(2x2, 3x3) pass makes the kernel transform (winograd_kernel)
    and keeps it; its chunks' buffers are the layer's, one set per thread
    that runs it, reused by every later pass there and freed with the
    layer (6 MB a thread for the paper preset's): a prediction's stack,
    built per call, takes them with it.
    """

    param_names = ("kernel", "bias")
    state_names = ()

    def __init__(self, kernel: np.ndarray, bias: np.ndarray, activation: str):
        if activation not in ("linear", "tanh", "sigmoid"):
            raise ConfigError(f"conv activation {activation!r} not supported")
        if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
            raise ShapeError(f"kernel shape {kernel.shape} must be (out, in, k, k)")
        self.kernel = kernel
        self.bias = bias
        self.activation = activation
        # F(2x2, 3x3): the kernel transform, made by the first pass that
        # needs it under the lock, and the buffers of each thread
        self._winograd = None
        if kernel.shape[2] == 3 and kernel.shape[1] >= WINOGRAD_MIN_CHANNELS:
            self._lock, self._workspace = threading.Lock(), threading.local()
        else:
            self._lock = self._workspace = None

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
        rather than k*k per-offset slices. The (n, h, wo, k*C) view of those
        runs is made by as_strided from the strides of the input seen as
        (n, h, w*C): run j starts C values after run j - 1. Where the windows
        do not overlap (k = 1, or a kernel covering its whole h = w = k
        input, which is a dense layer) the matrix is the input itself,
        reshaped.
        """
        k = self.kernel_size
        n, h, w, c = x.shape
        ho, wo = h - k + 1, w - k + 1
        if k == 1 or ho == wo == 1:
            return x.reshape(n * ho * wo, k * k * c)
        rows = x.reshape(n, h, w * c)
        sn, sh, sv = rows.strides
        runs = np.lib.stride_tricks.as_strided(
            rows, (n, h, wo, k * c), (sn, sh, c * sv, sv), writeable=False)
        cols = np.empty((n, ho, wo, k, k * c), dtype=x.dtype)
        for di in range(k):
            cols[:, :, :, di] = runs[:, di:di + ho]
        return cols.reshape(n * ho * wo, k * k * c)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if (self._workspace is not None and x.ndim == 4
                and min(x.shape[1:3]) >= 4):
            self._check_input(x)
            return self._winograd_forward(x)
        y, _ = self.forward_train(x)
        return y

    def _winograd_forward(self, x: np.ndarray) -> np.ndarray:
        """forward by F(2x2, 3x3), in chunks of WINOGRAD_TILE_ROWS tile rows.

        An odd output side is zero-padded to whole tiles, input and output,
        so a pass is a function of its input's shape and values only. Per
        chunk: B^T d B, its row stage over whole input rows taken with
        stride-2 row slices, then its column stage over stride-2 column
        slices; 16 GEMMs of the chunk's tiles by the transformed kernels;
        the bias added to m[1, 1], which A^T m A adds to each of a tile's
        four outputs; A^T m A as one GEMM; and the activation written into
        the chunk's output rows. The chunk's arrays are two buffers of the
        layer and thread (_buffer): the row stage's, then the GEMM outputs,
        in one, the transformed input, then the output tiles, in the
        other."""
        with self._lock:
            if self._winograd is None:
                self._winograd = winograd_kernel(self.kernel)
        u = self._winograd
        n, h, w, c = x.shape
        ho, wo, o = h - 2, w - 2, self.out_channels
        tr, tc = (ho + 1) // 2, (wo + 1) // 2  # tile rows and columns
        if ho % 2 or wo % 2:
            padded = np.zeros((n, 2 * tr + 2, 2 * tc + 2, c), dtype=x.dtype)
            padded[:, :h, :w] = x
            x, w = padded, 2 * tc + 2
        out = np.empty((n, 2 * tr, 2 * tc, o), dtype=x.dtype)
        aa = WINOGRAD_AA.astype(x.dtype)
        for r0 in range(0, tr, WINOGRAD_TILE_ROWS):
            r1 = min(r0 + WINOGRAD_TILE_ROWS, tr)
            k = r1 - r0
            t = _buffer(self._workspace, "a", (4, n, k, w, c), x.dtype)
            d = [x[:, 2 * r0 + i:2 * r1 + i:2] for i in range(4)]
            np.subtract(d[0], d[2], out=t[0])
            np.add(d[1], d[2], out=t[1])
            np.subtract(d[2], d[1], out=t[2])
            np.subtract(d[1], d[3], out=t[3])
            v = _buffer(self._workspace, "b", (4, 4, n, k, tc, c), x.dtype)
            e = [t[:, :, :, j:j + 2 * tc:2] for j in range(4)]
            np.subtract(e[0], e[2], out=v[:, 0])
            np.add(e[1], e[2], out=v[:, 1])
            np.subtract(e[2], e[1], out=v[:, 2])
            np.subtract(e[1], e[3], out=v[:, 3])
            m = _buffer(self._workspace, "a", (4, 4, n, k, tc, o), x.dtype)
            np.matmul(v.reshape(16, -1, c), u,
                      out=m.reshape(16, -1, o))
            m[1, 1] += self.bias
            z = _buffer(self._workspace, "b", (2, 2, n, k, tc, o), x.dtype)
            np.matmul(aa, m.reshape(16, -1), out=z.reshape(4, -1))
            # output pixel (2 r + a, 2 c + b) is z[a, b, :, r, c]
            y = out[:, 2 * r0:2 * r1].reshape(n, k, 2, tc, 2, o).transpose(
                2, 4, 0, 1, 3, 5)
            if self.activation == "tanh":
                np.tanh(z, out=y)
            elif self.activation == "sigmoid":
                y[...] = sigmoid(z)
            else:
                y[...] = z
        if out.shape[1:3] != (ho, wo):
            out = np.ascontiguousarray(out[:, :ho, :wo])
        return out

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
            dz = a * a
            np.subtract(1.0, dz, out=dz)
            dz *= dout
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
        kernel_t = self._kernel_matrix().T
        # with one output channel the product is an outer product, whose
        # broadcast makes the same products faster than a K = 1 GEMM
        dcols = (dz_mat * kernel_t if self.out_channels == 1
                 else dz_mat @ kernel_t)
        if k == 1 or ho == wo == 1:  # each dx element has one term
            return dcols.reshape(x_shape), dkernel, dbias
        dcols = dcols.reshape(n, ho, wo, k * k * c)
        dx = np.zeros(x_shape, dtype=dout.dtype)
        for i, (di, dj) in enumerate(np.ndindex(k, k)):
            dx[:, di:di + ho, dj:dj + wo, :] += dcols[..., i * c:(i + 1) * c]
        return dx, dkernel, dbias


class BatchNorm:
    """Per-channel batch normalization over the trailing axis.

    Train mode normalizes with batch statistics and writes no layer state.
    Inference uses moving_mean and moving_var only, as the affine map that
    model.inference_stack folds into the next conv. Those are population
    statistics, not a moving average: after each epoch
    pipeline.train_zone sets them to the mean and variance of the layer's
    inference-mode input over a fixed subset of the training samples
    (Ioffe & Szegedy 2015, arXiv:1502.03167, Alg. 2), and a GHSM file
    holds them as the layer's two statistics blobs.
    """

    param_names = ("gamma", "beta")
    state_names = ("moving_mean", "moving_var")
    epsilon = 1e-3

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
        """(mean, var, count) of the batch whose row slices are xs.

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
        return mean, var, count

    def normalize(self, x: np.ndarray, mean, var, count: int):
        """(y, cache) of one slice, normalized with its batch's statistics."""
        inv_std = 1.0 / np.sqrt(var + np.asarray(self.epsilon, dtype=var.dtype))
        xhat = x.reshape(-1, self.channels) - mean
        xhat *= inv_std
        y = xhat * self.gamma
        y += self.beta
        return y.reshape(x.shape), (xhat, inv_std, x.shape, count)

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
        product = dflat * xhat
        dgamma = product.sum(axis=0)
        np.multiply(dxhat, xhat, out=product)
        return (dxhat, (dgamma, dflat.sum(axis=0)),
                (dxhat.sum(axis=0), product.sum(axis=0)))

    def input_gradient(self, dxhat: np.ndarray, cache, dxhat_sum,
                       dxhat_xhat_sum) -> np.ndarray:
        """One slice's dx from its dxhat and its batch's column sums."""
        xhat, inv_std, shape, m = cache
        dx = m * dxhat
        dx -= dxhat_sum
        dx -= xhat * dxhat_xhat_sum
        dx *= inv_std / m
        return dx.reshape(shape)

    def backward(self, dout: np.ndarray, cache, input_grad: bool = True):
        dxhat, (dgamma, dbeta), sums = self.gradient_sums(dout, cache)
        if not input_grad:
            return None, dgamma, dbeta
        return self.input_gradient(dxhat, cache, *sums), dgamma, dbeta


DRAW_CHUNK = 1 << 16  # raw outputs per keep_flags draw (512 KB of uint64)


class Dropout:
    """Inverted dropout: train mode zeroes each unit with probability rate
    and scales the kept ones by 1/(1-rate). Inference is the identity, so
    the inference pass leaves the layer out.

    A batch's keep flags are rng.random(shape) >= rate on a PCG64
    generator, one draw per unit in C order. Generator.random() is
    (raw >> 11) * 2**-53 of one 64-bit output raw, so a unit is kept
    exactly when raw >= KEEP_RAW, and keep_flags draws any run of rows
    from the raw outputs alone."""

    param_names = ()
    state_names = ()
    rate = 0.1
    KEEP_RAW = math.ceil(rate * 2 ** 53) << 11

    def keep_flags(self, state: dict, skip: int, shape):
        """The keep flags of `shape` units drawn from the PCG64 stream at
        state, `skip` outputs on: the rows of a whole-batch draw from
        state that start `skip` units into it. The raw outputs come
        DRAW_CHUNK at a time, so no full-size uint64 temporary is made."""
        bit_generator = pcg64_at(state, skip)
        keep = np.empty(math.prod(shape), dtype=bool)
        for start in range(0, keep.size, DRAW_CHUNK):
            chunk = keep[start:start + DRAW_CHUNK]
            np.greater_equal(bit_generator.random_raw(chunk.size),
                             self.KEEP_RAW, out=chunk)
        return keep.reshape(shape)

    def apply(self, x: np.ndarray, keep):
        """(y, mask) of x under keep flags shaped like it."""
        scale = (np.asarray(1.0, dtype=x.dtype)
                 / np.asarray(1.0 - self.rate, dtype=x.dtype))
        mask = np.multiply(keep, scale, dtype=x.dtype)
        return x * mask, mask

    def backward(self, dout: np.ndarray, mask, input_grad: bool = True):
        if not input_grad:
            return (None,)
        return (dout * mask,)


def pcg64_state(rng: np.random.Generator) -> dict:
    """rng's bit generator state; ConfigError unless it is a PCG64, the
    stream Dropout.keep_flags can jump ahead in."""
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise ConfigError(f"training needs a PCG64 generator, got "
                          f"{type(rng.bit_generator).__name__}")
    return rng.bit_generator.state


def pcg64_at(state: dict, skip: int) -> np.random.PCG64:
    """A new PCG64 where the stream at state is after `skip` 64-bit outputs
    (O(log skip), O'Neill 2014). advance() clears the buffered 32-bit half
    that a 32-bit draw leaves behind and a 64-bit draw does not touch, so
    state's half is put back."""
    bit_generator = np.random.PCG64(0)  # its seed is overwritten
    bit_generator.state = state
    bit_generator.advance(skip)
    bit_generator.state = {**bit_generator.state,
                           "has_uint32": state["has_uint32"],
                           "uinteger": state["uinteger"]}
    return bit_generator


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


TRAIN_SLICES = 2  # row slices of an optimizer batch, tasks of a training map


def slice_bounds(n: int, slices: int) -> list:
    """(start, stop) of `slices` contiguous row ranges covering n rows in
    order; sizes differ by at most one, and ranges are empty when
    slices > n."""
    edges = [n * i // slices for i in range(slices + 1)]
    return list(zip(edges, edges[1:]))


ADAM_CHUNK = 1 << 16  # parameters updated at a time (256 KB of float32)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              run=map) -> np.ndarray:
    """One bias-corrected Adam update; params and state updated in place.

    The update is elementwise, so it runs in chunks of ADAM_CHUNK
    parameters with the bits of one whole-vector update. The chunks are
    TRAIN_SLICES contiguous runs (slice_bounds), one task of run (map, or a
    thread pool's map) each: a task per chunk would hand the interpreter
    lock between threads for every chunk."""
    if params.shape != grads.shape:
        raise ShapeError(f"param/grad shape mismatch: {params.shape} vs {grads.shape}")
    finite = np.isfinite(grads)
    if not finite.all():
        idx = int(np.flatnonzero(~finite)[0])
        raise NumericError(f"non-finite gradient at parameter index {idx}")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    mhat_div, vhat_div = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    learning_rate = float(state.learning_rate)

    def update(starts) -> None:
        # m += (1 - b1) (g - m); v += (1 - b2) (g g - v); params -=
        # (lr m / mhat_div) / (sqrt(v / vhat_div) + eps), in two buffers
        for start in starts:
            chunk = slice(start, start + ADAM_CHUNK)
            g, m, v = grads[chunk], state.m[chunk], state.v[chunk]
            t = g - m
            t *= 1.0 - b1
            m += t
            np.multiply(g, g, out=t)
            t -= v
            t *= 1.0 - b2
            v += t
            step = m / mhat_div
            step *= learning_rate
            np.divide(v, vhat_div, out=t)
            np.sqrt(t, out=t)
            t += state.epsilon
            step /= t
            params[chunk] -= step.astype(params.dtype, copy=False)

    starts = range(0, params.size, ADAM_CHUNK)
    list(run(update, [starts[a:b] for a, b in
                      slice_bounds(len(starts), TRAIN_SLICES)]))
    return params
