"""Analytic gradients vs central finite differences, in float64."""

import numpy as np
import pytest

from builtup.model import ArchitectureConfig, build_model
from builtup.nncore import BatchNorm, ConvLayer, bce_loss, init_uniform
from model_arrays import copy_model, trainable_arrays

SEEDS = list(range(20))

TINY_ARCH = ArchitectureConfig(bands=3, block_filters=(3, 4), hidden_units=5)


def finite_difference(f, arrays, step: float = 1e-4):
    """Central finite differences of scalar f() w.r.t. each array, in place.

    f must re-read the arrays on every call; arrays are restored afterwards.
    """
    if not 1e-6 <= step <= 1e-3:
        raise ValueError(f"step must be in [1e-6, 1e-3], got {step}")
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f()
            flat[i] = orig - step
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor: float = 1e-8) -> float:
    """Worst-case |a - n| / max(|a|, |n|, floor) over paired gradient arrays."""
    worst = 0.0
    for a, nmr in zip(analytic, numeric):
        a = np.asarray(a, dtype=np.float64)
        nmr = np.asarray(nmr, dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(nmr)), floor)
        worst = max(worst, float(np.max(np.abs(a - nmr) / denom)))
    return worst


def grad_check(f, arrays, analytic, step: float = 1e-4) -> float:
    """Compare analytic gradients against central differences of scalar f."""
    numeric = finite_difference(f, arrays, step=step)
    return max_relative_error(analytic, numeric)


def projection_loss(out, weights):
    """Fixed random projection makes a scalar objective out of any output."""
    return float(np.sum(out * weights))


def check_conv(seed, activation):
    rng = np.random.default_rng(seed)
    layer = ConvLayer(init_uniform(rng, (4, 2, 2, 2), np.float64),
                      init_uniform(rng, (4,), np.float64), activation)
    x = rng.random((3, 3, 3, 2))
    proj = rng.standard_normal((3, 2, 2, 4))

    out, cache = layer.forward_train(x)
    dx, dk, db = layer.backward(proj, cache)

    def f():
        return projection_loss(layer.forward(x), proj)

    err_params = grad_check(f, [layer.kernel, layer.bias], [dk, db])
    err_input = grad_check(f, [x], [dx])
    return max(err_params, err_input)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv_linear_gradients_near_exact(seed):
    # linear map: central differences are exact up to rounding
    assert check_conv(seed, "linear") < 1e-6


@pytest.mark.parametrize("seed", SEEDS)
def test_conv_tanh_gradients(seed):
    assert check_conv(seed, "tanh") < 1e-4


# Dense layers are 1x1 convs: over (N, H, W, F) windows, and over the
# (N, 1, 1, F) patch features of the network
DENSE_CASES = ([pytest.param(s, (2, 2, 3), id=str(s)) for s in SEEDS]
               + [pytest.param(s, (4, 1, 1), id=f"4d-{s}") for s in SEEDS])


def check_dense(seed, lead, n_in, n_out, activation):
    rng = np.random.default_rng(seed)
    layer = ConvLayer(init_uniform(rng, (n_out, n_in, 1, 1), np.float64),
                      init_uniform(rng, (n_out,), np.float64), activation)
    x = rng.random((*lead, n_in))
    proj = rng.standard_normal((*lead, n_out))
    _, cache = layer.forward_train(x)
    dx, dk, db = layer.backward(proj, cache)

    def f():
        return projection_loss(layer.forward(x), proj)

    return grad_check(f, [layer.kernel, layer.bias, x], [dk, db, dx])


@pytest.mark.parametrize("seed, lead", DENSE_CASES)
def test_dense_gradients(seed, lead):
    assert check_dense(seed + 100, lead, 8, 3, "tanh") < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_sigmoid_dense_gradients(seed):
    assert check_dense(seed + 200, (5, 1, 1), 6, 1, "sigmoid") < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_batchnorm_train_gradients(seed):
    rng = np.random.default_rng(seed + 300)
    ch = 3
    bn = BatchNorm(rng.random(ch) + 0.5, rng.standard_normal(ch),
                   np.zeros(ch), np.ones(ch))
    x = rng.standard_normal((6, 2, 2, ch))
    proj = rng.standard_normal(x.shape)
    _, cache = bn.forward_train(x)
    dx, dgamma, dbeta = bn.backward(proj, cache)

    def f():
        y, _ = bn.forward_train(x)
        return projection_loss(y, proj)

    assert grad_check(f, [bn.gamma, bn.beta, x], [dgamma, dbeta, dx]) < 1e-4


def full_stack_error(seed, slices=1):
    """BCE-through-the-whole-network check with a frozen dropout mask, the
    batch run as `slices` row slices."""
    rng = np.random.default_rng(seed)
    net = copy_model(build_model(TINY_ARCH, seed=seed))
    x = rng.random((4, 5, 5, 3))
    y = (rng.random(4) < 0.5).astype(np.float64)
    mask_seed = seed + 1

    def run():
        return net.forward_train(x, np.random.default_rng(mask_seed), slices)

    probs, caches = run()
    loss, dprobs = bce_loss(y, probs[:, 0, 0])
    grad = net.backward(dprobs[:, None, None], caches)

    def f():
        p, _ = run()
        val, _ = bce_loss(y, p[:, 0, 0])
        return val

    params = trainable_arrays(net)
    numeric = finite_difference(f, params)
    return max_relative_error(
        [grad], [np.concatenate([g.reshape(-1) for g in numeric])])


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_full_stack_gradients(seed):
    assert full_stack_error(seed) < 1e-4


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_full_stack_gradients_of_two_slices(seed):
    assert full_stack_error(seed, slices=2) < 1e-4
