"""Unit tests for the layer/loss/optimizer kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builtup import nncore
from builtup.errors import (
    DegenerateBatchError,
    NumericError,
    ParameterError,
    ShapeError,
)
from builtup.nncore import (
    AdamState,
    BatchNorm,
    ConvLayer,
    Dropout,
    adam_step,
    bce_loss,
    init_uniform,
)


def train_pass(layer, x, rng):
    """(y, cache) of layer's train mode over one whole batch x."""
    if isinstance(layer, Dropout):
        return layer.apply(x, layer.draw(rng, x.shape))
    return layer.forward_train(x)


def make_conv(rng, cin, cout, activation="linear"):
    return ConvLayer(init_uniform(rng, (cout, cin, 2, 2), np.float64),
                     init_uniform(rng, (cout,), np.float64), activation)


class TestConv:
    def test_valid_conv_shape(self):
        rng = np.random.default_rng(0)
        layer = make_conv(rng, 4, 8)
        x = rng.random((3, 5, 5, 4))
        assert layer.forward(x).shape == (3, 4, 4, 8)

    def test_zero_input_zero_bias_is_zero(self):
        rng = np.random.default_rng(1)
        layer = make_conv(rng, 2, 3, "linear")
        layer.bias[:] = 0.0
        out = layer.forward(np.zeros((2, 5, 5, 2)))
        assert np.all(out == 0.0)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(2)
        layer = make_conv(rng, 4, 8)
        with pytest.raises(ShapeError):
            layer.forward(rng.random((1, 5, 5, 3)))

    def test_too_small_input(self):
        rng = np.random.default_rng(3)
        layer = make_conv(rng, 2, 2)
        with pytest.raises(ShapeError):
            layer.forward(rng.random((1, 1, 5, 2)))

    @pytest.mark.parametrize("h,w", [(2, 2), (3, 5), (5, 3), (7, 7)])
    def test_shape_law(self, h, w):
        rng = np.random.default_rng(h * 10 + w)
        layer = make_conv(rng, 3, 4)
        out = layer.forward(rng.random((2, h, w, 3)))
        assert out.shape == (2, h - 1, w - 1, 4)

    def test_forward_matches_naive_loops(self):
        rng = np.random.default_rng(7)
        layer = make_conv(rng, 3, 5, "tanh")
        x = rng.random((2, 4, 6, 3))
        out = layer.forward(x)
        naive = np.zeros_like(out)
        for n in range(2):
            for i in range(3):
                for j in range(5):
                    for o in range(5):
                        acc = layer.bias[o]
                        for di in range(2):
                            for dj in range(2):
                                for c in range(3):
                                    acc += x[n, i + di, j + dj, c] * \
                                        layer.kernel[o, c, di, dj]
                        naive[n, i, j, o] = np.tanh(acc)
        np.testing.assert_allclose(out, naive, rtol=1e-12)


def im2col_by_offsets(x, k):
    """Reference im2col: one slice copy per kernel offset (di, dj)."""
    n, h, w, c = x.shape
    ho, wo = h - k + 1, w - k + 1
    cols = np.empty((n, ho, wo, k * k * c), dtype=x.dtype)
    for i, (di, dj) in enumerate(np.ndindex(k, k)):
        cols[..., i * c:(i + 1) * c] = x[:, di:di + ho, dj:dj + wo, :]
    return cols.reshape(n * ho * wo, -1)


class TestIm2col:
    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 3), n=st.integers(1, 2), dh=st.integers(0, 5),
           dw=st.integers(0, 5), c=st.integers(1, 5),
           layout=st.sampled_from(["contiguous", "transposed", "strided"]),
           seed=st.integers(0, 99))
    def test_row_runs_equal_offset_slices(self, k, n, dh, dw, c, layout,
                                          seed):
        """The k row-run copies give the bytes of the k*k offset slices,
        also for non-contiguous inputs such as a tile window, which is a
        (bands, H, W) zone slice seen as (H, W, bands)."""
        h, w = k + dh, k + dw
        rng = np.random.default_rng(seed)
        if layout == "transposed":
            x = rng.random((n, c, h, w)).astype(np.float32)
            x = x.transpose(0, 2, 3, 1)
        elif layout == "strided":
            x = rng.random((n, 2 * h, w + 3, c)).astype(np.float32)
            x = x[:, ::2, 1:w + 1]
        else:
            x = rng.random((n, h, w, c)).astype(np.float32)
        layer = ConvLayer(np.zeros((2, c, k, k), np.float32),
                          np.zeros(2, np.float32), "linear")
        np.testing.assert_array_equal(layer._im2col(x),
                                      im2col_by_offsets(x, k))


class TestWholeInputConv:
    """A conv whose kernel covers its whole h = w = k input is a dense
    layer: its im2col matrix and its dx are reshapes. Forward, dx and the
    weight gradients equal the general path: offset-slice im2col and k*k
    slice-adds of dcols into a zero dx."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_the_general_path(self, k):
        rng = np.random.default_rng(30 + k)
        n, c = 6, 3
        layer = ConvLayer(init_uniform(rng, (4, c, k, k)),
                          init_uniform(rng, (4,)), "tanh")
        x = rng.random((n, k, k, c)).astype(np.float32)
        dout = rng.standard_normal((n, 1, 1, 4)).astype(np.float32)
        y, cache = layer.forward_train(x)
        dx, dkernel, dbias = layer.backward(dout, cache)

        cols = im2col_by_offsets(x, k)
        matrix = layer._kernel_matrix()
        z = cols @ matrix
        z += layer.bias
        a = np.tanh(z).reshape(n, 1, 1, 4)
        np.testing.assert_array_equal(y, a)
        dz = (dout * (1.0 - a * a)).reshape(n, 4)
        dcols = (dz @ matrix.T).reshape(n, 1, 1, k * k * c)
        want_dx = np.zeros_like(x)
        for i, (di, dj) in enumerate(np.ndindex(k, k)):
            want_dx[:, di:di + 1, dj:dj + 1] += dcols[..., i * c:(i + 1) * c]
        assert np.array_equal(dx, want_dx)
        np.testing.assert_array_equal(
            dkernel, (cols.T @ dz).reshape(k, k, c, 4).transpose(3, 2, 0, 1))
        np.testing.assert_array_equal(dbias, dz.sum(axis=0))


def float32_conv(k, activation):
    rng = np.random.default_rng(k)
    return ConvLayer(init_uniform(rng, (4, 3, k, k)), init_uniform(rng, (4,)),
                     activation)


class TestPassesKeepTheirInput:
    """Epilogues run in place on arrays a pass allocated itself; no pass
    writes the array it was given."""

    LAYERS = {
        "conv2x2_linear": lambda: float32_conv(2, "linear"),
        "conv2x2_tanh": lambda: float32_conv(2, "tanh"),
        "dense_linear": lambda: float32_conv(1, "linear"),
        "dense_tanh": lambda: float32_conv(1, "tanh"),
        "dense_sigmoid": lambda: float32_conv(1, "sigmoid"),
        "batchnorm": lambda: BatchNorm(
            np.full(3, 1.5, np.float32), np.full(3, 0.25, np.float32),
            np.full(3, 0.5, np.float32), np.full(3, 2.0, np.float32)),
        "dropout": lambda: Dropout(0.5),
    }

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_forward_and_forward_train(self, name):
        layer = self.LAYERS[name]()
        x = np.random.default_rng(9).random((4, 5, 5, 3)).astype(np.float32)
        before = x.copy()
        if not isinstance(layer, Dropout):  # no inference pass of its own
            layer.forward(x)
        assert x.tobytes() == before.tobytes()
        train_pass(layer, x, np.random.default_rng(10))
        assert x.tobytes() == before.tobytes()

    def test_tanh_output_is_the_cached_activation(self):
        x = np.random.default_rng(11).random((2, 5, 5, 3)).astype(np.float32)
        y, (_, _, a) = float32_conv(2, "tanh").forward_train(x)
        assert y is a


class TestInputGradient:
    """backward(..., input_grad=False) skips dx and gives the same
    parameter gradients, bit for bit."""

    LAYERS = TestPassesKeepTheirInput.LAYERS

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_same_grads_without_dx(self, name):
        layer = self.LAYERS[name]()
        rng = np.random.default_rng(12)
        x = rng.random((4, 5, 5, 3)).astype(np.float32)
        y, cache = train_pass(layer, x, rng)
        dout = rng.standard_normal(y.shape).astype(np.float32)
        dx, *grads = layer.backward(dout, cache)
        skipped, *same = layer.backward(dout, cache, input_grad=False)
        assert dx.shape == x.shape and skipped is None
        assert [g.tobytes() for g in same] == [g.tobytes() for g in grads]


class TestDense:
    """A dense layer is a ConvLayer with a (out, in, 1, 1) kernel."""

    @staticmethod
    def make(weights, activation):
        return ConvLayer(weights[:, :, None, None], np.zeros(len(weights)),
                         activation)

    def test_tanh_zero_input(self):
        layer = self.make(np.eye(4), "tanh")
        out = layer.forward(np.zeros((1, 1, 1, 4)))
        assert out.shape == (1, 1, 1, 4)
        assert np.all(out == 0.0)

    def test_sigmoid_zero_everything(self):
        layer = self.make(np.zeros((3, 5)), "sigmoid")
        out = layer.forward(np.ones((2, 3, 4, 5)))
        assert out.shape == (2, 3, 4, 3)
        np.testing.assert_allclose(out, 0.5)

    def test_length_mismatch(self):
        layer = self.make(np.zeros((3, 5)), "sigmoid")
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 1, 1, 4)))

    def test_acts_per_pixel_without_copying_its_input(self):
        rng = np.random.default_rng(8)
        weights = rng.standard_normal((3, 5))
        layer = self.make(weights, "linear")
        x = rng.random((2, 3, 4, 5))
        y, (_, cols, _) = layer.forward_train(x)
        np.testing.assert_allclose(y, x @ weights.T, rtol=1e-12)
        assert np.shares_memory(cols, x)


class TestBatchNorm:
    @staticmethod
    def make(ch, dtype=np.float64):
        return BatchNorm(np.ones(ch, dtype), np.zeros(ch, dtype),
                         np.zeros(ch, dtype), np.ones(ch, dtype))

    def test_constant_batch_collapses_to_zero(self):
        bn = self.make(3)
        x = np.full((8, 3), 2.5)
        y, _ = bn.forward_train(x)
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    def test_beta_shift(self):
        bn = self.make(2)
        bn.beta[:] = 5.0
        rng = np.random.default_rng(4)
        x = rng.standard_normal((256, 2))
        y, _ = bn.forward_train(x)
        np.testing.assert_allclose(y.mean(axis=0), 5.0, atol=1e-9)

    def test_train_moments_match_direct_recompute(self):
        rng = np.random.default_rng(5)
        bn = self.make(4)
        # variance well above epsilon so normalized variance stays near 1
        x = (3.0 * rng.standard_normal((64, 6, 6, 4))).astype(np.float32)
        y, _ = bn.forward_train(x)
        flat = x.reshape(-1, 4).astype(np.float64)
        expected = (flat - flat.mean(axis=0)) / np.sqrt(
            flat.var(axis=0) + bn.epsilon
        )
        np.testing.assert_allclose(y.reshape(-1, 4), expected, atol=1e-4)
        out = y.reshape(-1, 4).astype(np.float64)
        assert np.abs(out.mean(axis=0)).max() < 1e-6
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-3

    def test_moving_stats_momentum_update(self):
        rng = np.random.default_rng(6)
        bn = self.make(3)
        x = rng.standard_normal((32, 3))
        mean, var = x.mean(axis=0), x.var(axis=0)
        bn.forward_train(x)
        np.testing.assert_allclose(bn.moving_mean, 0.01 * mean, rtol=1e-9)
        np.testing.assert_allclose(bn.moving_var, 0.99 + 0.01 * var, rtol=1e-9)

    def test_infer_uses_moving_stats_only(self):
        bn = self.make(2)
        bn.moving_mean[:] = (1.0, -1.0)
        bn.moving_var[:] = (4.0, 9.0)
        x = np.array([[3.0, 5.0]])
        y = bn.forward(x)
        expected = (x - bn.moving_mean) / np.sqrt(bn.moving_var + bn.epsilon)
        np.testing.assert_allclose(y, expected, rtol=1e-9)

    def test_degenerate_batch(self):
        bn = self.make(2)
        with pytest.raises(DegenerateBatchError):
            bn.forward_train(np.zeros((1, 2)))


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.random.default_rng(0).random((4, 4))
        layer = Dropout(0.0)
        y, mask = train_pass(layer, x, np.random.default_rng(1))
        assert y is x and mask is None
        (dx,) = layer.backward(x, mask)
        assert dx is x

    def test_drop_fraction(self):
        x = np.ones(10 ** 6, dtype=np.float32)
        y, mask = train_pass(Dropout(0.1), x, np.random.default_rng(9))
        dropped = np.count_nonzero(y == 0.0) / x.size
        assert abs(dropped - 0.1) < 0.001
        (dx,) = Dropout(0.1).backward(x, mask)
        np.testing.assert_array_equal(dx, y)

    def test_mask_reproducible_from_seed(self):
        x = np.ones((100, 7), dtype=np.float32)
        layer = Dropout(0.3)
        y1, _ = train_pass(layer, x, np.random.default_rng(42))
        y2, _ = train_pass(layer, x, np.random.default_rng(42))
        assert np.array_equal(y1, y2)

    def test_expectation_preserved(self):
        rng = np.random.default_rng(11)
        x = rng.random(2000).astype(np.float64)
        layer = Dropout(0.1)
        trials = 800
        acc = np.zeros_like(x)
        for _ in range(trials):
            y, _ = train_pass(layer, x, rng)
            acc += y
        mean = acc / trials
        # per-unit MC sigma of the mean of inverted-dropout draws
        sigma = x * np.sqrt(0.1 / 0.9 / trials)
        assert np.mean(np.abs(mean - x)) < 3.0 * np.mean(sigma)

    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            Dropout(1.0)


class TestBceLoss:
    def test_confident_correct_is_near_zero(self):
        loss, _ = bce_loss(np.array([1.0]), np.array([1.0 - 1e-7]))
        assert 0.0 <= loss < 1e-6

    def test_frozen_two_sample_value(self):
        loss, _ = bce_loss(np.array([1.0, 0.0]), np.array([0.9, 0.2]))
        # -(ln 0.9 + ln 0.8) / 2
        assert abs(loss - 0.16425203348601815) < 1e-12

    def test_half_is_ln2(self):
        loss, _ = bce_loss(np.array([0.0]), np.array([0.5]))
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_gradient_formula(self):
        y = np.array([1.0, 0.0, 1.0])
        p = np.array([0.7, 0.3, 0.4])
        _, grad = bce_loss(y, p)
        expected = (p - y) / (p * (1 - p)) / 3.0
        np.testing.assert_allclose(grad, expected, rtol=1e-9)

    def test_nonnegative_and_zero_only_at_labels(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            y = (rng.random(16) < 0.5).astype(np.float64)
            p = rng.random(16)
            loss, _ = bce_loss(y, p)
            assert loss >= 0.0
        loss, _ = bce_loss(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert loss < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            bce_loss(np.zeros(3), np.zeros(4))


class TestAdam:
    def test_zero_gradient_is_identity(self):
        w = np.array([1.0, -2.0, 3.0], dtype=np.float32)
        state = AdamState.for_size(3)
        adam_step(w, np.zeros(3, dtype=np.float32), state)
        np.testing.assert_array_equal(w, [1.0, -2.0, 3.0])
        assert state.step == 1

    def test_first_step_closed_form(self):
        # m_hat = v_hat = 1 after one unit-gradient step, so dw = -lr
        w = np.zeros(1, dtype=np.float64)
        state = AdamState.for_size(1, learning_rate=1e-4, dtype=np.float64)
        adam_step(w, np.ones(1), state)
        assert abs(w[0] + 1e-4) < 1e-11

    def test_second_step_update_bounded_by_lr(self):
        w = np.zeros(1, dtype=np.float64)
        state = AdamState.for_size(1, learning_rate=1e-4, dtype=np.float64)
        adam_step(w, np.ones(1), state)
        w_prev = w.copy()
        adam_step(w, np.ones(1), state)
        assert abs(w[0] - w_prev[0]) <= 1e-4 * (1.0 + 1e-6)

    def test_nonfinite_gradient_names_index(self):
        w = np.zeros(4, dtype=np.float32)
        g = np.zeros(4, dtype=np.float32)
        g[2] = np.nan
        state = AdamState.for_size(4)
        with pytest.raises(NumericError, match="index 2"):
            adam_step(w, g, state)


class TestInit:
    def test_bounds(self):
        rng = np.random.default_rng(21)
        draws = init_uniform(rng, (10 ** 5,))
        assert draws.min() >= -nncore.WEIGHT_INIT_BOUND
        assert draws.max() <= nncore.WEIGHT_INIT_BOUND

    def test_mean_near_zero(self):
        rng = np.random.default_rng(22)
        draws = init_uniform(rng, (10 ** 5,))
        assert abs(float(draws.mean())) < 0.002

    def test_same_seed_bit_identical(self):
        a = init_uniform(np.random.default_rng(33), (513,))
        b = init_uniform(np.random.default_rng(33), (513,))
        assert a.tobytes() == b.tobytes()


class TestDeterminism:
    def test_repeated_layer_passes_bit_identical(self):
        rng = np.random.default_rng(44)
        layer = make_conv(rng, 3, 6, "tanh")
        x = rng.random((4, 5, 5, 3))
        assert layer.forward(x).tobytes() == layer.forward(x).tobytes()
