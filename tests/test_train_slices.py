"""The sliced training step: one optimizer batch as TRAIN_SLICES row slices.

`reference_step` is a frozen copy of the unsliced step (the layer loops of
Model.forward_train/backward, BatchNorm's train mode and a whole-vector
Adam update) as it was before batches were sliced. One slice must give its
bits; two slices differ from one by the order of the batch sums only,
which float64 shows as ~1e-16 relative; and a zone's training must not
depend on the worker count or on the BLAS thread setting.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from builtup import model as model_mod, pipeline
from builtup.errors import DegenerateBatchError, NumericError
from builtup.model import (PRESETS, ArchitectureConfig, build_model,
                           save_model, slice_bounds, train_step)
from builtup.nncore import (ADAM_CHUNK, AdamState, BatchNorm, adam_step,
                            bce_loss)
from builtup.synth import SceneParams, synth_zone

TINY = ArchitectureConfig(bands=2, block_filters=(3, 4), hidden_units=6)
ARCHS = {"tiny": TINY, "desk": PRESETS["desk"], "paper": PRESETS["paper"]}


def reference_bn_forward_train(bn, x):
    flat = x.reshape(-1, bn.channels)
    mean = flat.mean(axis=0)
    var = flat.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + np.asarray(bn.epsilon, dtype=x.dtype))
    xhat = (flat - mean) * inv_std
    y = (xhat * bn.gamma + bn.beta).reshape(x.shape)
    m = bn.momentum
    dt = bn.moving_mean.dtype
    bn.moving_mean = (m * bn.moving_mean + (1.0 - m) * mean).astype(dt)
    bn.moving_var = (m * bn.moving_var + (1.0 - m) * var).astype(dt)
    return y, (xhat, inv_std, x.shape)


def reference_bn_backward(bn, dout, cache):
    xhat, inv_std, shape = cache
    dflat = dout.reshape(-1, bn.channels)
    m = dflat.shape[0]
    dgamma = (dflat * xhat).sum(axis=0)
    dbeta = dflat.sum(axis=0)
    dxhat = dflat * bn.gamma
    dx = (inv_std / m) * (
        m * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
    )
    return dx.reshape(shape), dgamma, dbeta


def reference_adam_step(params, grads, state):
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    state.m += (1.0 - b1) * (grads - state.m)
    state.v += (1.0 - b2) * (grads * grads - state.v)
    mhat = state.m / (1.0 - b1 ** state.step)
    vhat = state.v / (1.0 - b2 ** state.step)
    params -= (state.learning_rate * mhat / (np.sqrt(vhat) + state.epsilon)
               ).astype(params.dtype)


def reference_step(net, patches, labels, state, rng):
    """The unsliced train_step, frozen."""
    x, caches = patches, []
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            x, cache = reference_bn_forward_train(layer, x)
        else:
            x, cache = layer.forward_train(x, rng)
        caches.append(cache)
    probs = x[..., 0]
    loss, dprobs = bce_loss(labels.astype(np.float32), probs[:, 0, 0])
    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss {loss}")
    d = dprobs.reshape(probs.shape)[..., None]
    grads = []
    first = net.layers[0]
    for layer, cache in zip(net.layers[::-1], caches[::-1]):
        if isinstance(layer, BatchNorm):
            d, *layer_grads = reference_bn_backward(layer, d, cache)
        else:
            d, *layer_grads = layer.backward(d, cache,
                                             input_grad=layer is not first)
        grads = layer_grads + grads
    reference_adam_step(
        net.params, np.concatenate([g.reshape(-1) for g in grads]), state)
    return loss


def batch(arch, n, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 5, 5, arch.bands)).astype(dtype)
    y = (rng.random(n) < 0.5).astype(dtype)
    x[y == 1] += 0.3
    return x, y


def run_steps(step, arch, n, steps, dtype=np.float32, seed=0):
    """(net, losses) after `steps` optimizer steps of `step` on one batch."""
    net = build_model(arch, seed=seed)
    if dtype != np.float32:
        net = net.astype(dtype)
    state = AdamState.for_size(net.params.size, learning_rate=1e-3,
                               dtype=dtype)
    x, y = batch(arch, n, seed + 1, dtype)
    rng = np.random.default_rng(seed + 2)
    losses = [step(net, x, y, state, rng) for _ in range(steps)]
    return net, losses


def state_arrays(net):
    return [net.params] + net.non_trainable_arrays()


def test_slice_bounds_cover_the_batch_in_order():
    assert slice_bounds(1024, 2) == [(0, 512), (512, 1024)]
    assert slice_bounds(777, 2) == [(0, 388), (388, 777)]
    assert slice_bounds(3, 2) == [(0, 1), (1, 3)]
    assert slice_bounds(2, 3) == [(0, 0), (0, 1), (1, 2)]
    assert slice_bounds(5, 1) == [(0, 5)]


@pytest.mark.parametrize("name", ARCHS)
def test_one_slice_is_the_unsliced_step_bit_for_bit(name, monkeypatch):
    arch = ARCHS[name]
    n = 64 if name == "paper" else 256
    ref_net, ref_losses = run_steps(reference_step, arch, n, steps=3)
    monkeypatch.setattr(model_mod, "TRAIN_SLICES", 1)
    net, losses = run_steps(train_step, arch, n, steps=3)
    assert losses == ref_losses
    for got, want in zip(state_arrays(net), state_arrays(ref_net)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [1024, 777, 3, 2])
@pytest.mark.parametrize("name", ARCHS)
def test_two_slices_match_one_in_float64(name, n, monkeypatch):
    arch = ARCHS[name]
    if name == "paper" and n > 3:
        n //= 4  # a float64 paper step at 1024 rows takes ~0.5 s
    assert model_mod.TRAIN_SLICES == 2
    two, two_losses = run_steps(train_step, arch, n, 5, np.float64)
    monkeypatch.setattr(model_mod, "TRAIN_SLICES", 1)
    one, one_losses = run_steps(train_step, arch, n, 5, np.float64)
    np.testing.assert_allclose(two_losses, one_losses, rtol=0, atol=1e-12)
    for got, want in zip(state_arrays(two), state_arrays(one)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_an_empty_slice_changes_nothing(monkeypatch):
    """Three slices of a 2-row batch leave the first one empty."""
    monkeypatch.setattr(model_mod, "TRAIN_SLICES", 3)
    three, three_losses = run_steps(train_step, TINY, 2, 5, np.float64)
    monkeypatch.setattr(model_mod, "TRAIN_SLICES", 1)
    one, one_losses = run_steps(train_step, TINY, 2, 5, np.float64)
    np.testing.assert_allclose(three_losses, one_losses, rtol=0, atol=1e-12)
    for got, want in zip(state_arrays(three), state_arrays(one)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["desk", "paper"])
def test_slices_on_threads_equal_slices_in_turn(name):
    in_turn, in_turn_losses = run_steps(train_step, ARCHS[name], 300, 3)
    with ThreadPoolExecutor(2) as pool:
        def threaded(net, x, y, state, rng):
            return train_step(net, x, y, state, rng, run=pool.map)

        on_threads, losses = run_steps(threaded, ARCHS[name], 300, 3)
    assert losses == in_turn_losses
    for got, want in zip(state_arrays(on_threads), state_arrays(in_turn)):
        np.testing.assert_array_equal(got, want)


def test_many_slices_on_more_threads_than_cores(monkeypatch):
    """Eight slices on eight threads with a short switch interval: every
    dropout mask is still drawn once, in layer order, and each slice
    writes only its own caches and gradients, so the steps equal the
    slices run in turn."""
    monkeypatch.setattr(model_mod, "TRAIN_SLICES", 8)
    in_turn, in_turn_losses = run_steps(train_step, TINY, 64, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            def threaded(net, x, y, state, rng):
                return train_step(net, x, y, state, rng, run=pool.map)

            on_threads, losses = run_steps(threaded, TINY, 64, 3)
    finally:
        sys.setswitchinterval(interval)
    assert losses == in_turn_losses
    for got, want in zip(state_arrays(on_threads), state_arrays(in_turn)):
        np.testing.assert_array_equal(got, want)


def test_adam_chunks_on_threads_match_one_update():
    rng = np.random.default_rng(3)
    n = 3 * ADAM_CHUNK + 5
    params = rng.standard_normal(n).astype(np.float32)
    expected, state = params.copy(), AdamState.for_size(n, learning_rate=0.1)
    expected_state = AdamState.for_size(n, learning_rate=0.1)
    with ThreadPoolExecutor(2) as pool:
        for _ in range(3):
            grads = rng.standard_normal(n).astype(np.float32)
            adam_step(params, grads, state, run=pool.map)
            reference_adam_step(expected, grads, expected_state)
    np.testing.assert_array_equal(params, expected)
    np.testing.assert_array_equal(state.v, expected_state.v)


def test_a_one_sample_batch_is_degenerate():
    net = build_model(TINY, seed=0)
    x, y = batch(TINY, 1, seed=1)
    with pytest.raises(DegenerateBatchError):
        train_step(net, x, y, AdamState.for_size(net.params.size),
                   np.random.default_rng(0))


def test_nan_weights_raise_numeric_error():
    net = build_model(TINY, seed=0)
    net.dense2.kernel[:] = np.nan
    x, y = batch(TINY, 16, seed=1)
    with pytest.raises(NumericError):
        train_step(net, x, y, AdamState.for_size(net.params.size),
                   np.random.default_rng(0))


# -- train_zone ----------------------------------------------------------------


@pytest.fixture(scope="module")
def zone():
    return synth_zone(SceneParams(size=96, seed=0), zone_id="A")


def train(zone, tmp_path, name):
    net, history, _ = pipeline.train_zone(
        zone.composite, zone.labels, PRESETS["desk"],
        pipeline.TrainingRun(zone_id="A", epochs=2, seed=0),
        pipeline.SamplingConfig(tile_pixels=32, batch_size=256))
    path = tmp_path / f"{name}.ghsm"
    save_model(net, path)
    return history.to_dict(), path.read_bytes()


def test_training_does_not_depend_on_the_worker_count(zone, tmp_path,
                                                      monkeypatch):
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda cpus=cpus: cpus)
        runs.append(train(zone, tmp_path, f"cpus{cpus}"))
    assert runs[0] == runs[1]


needs_openblas = pytest.mark.skipif(pipeline._OPENBLAS_THREADS is None,
                                    reason="numpy does not bundle OpenBLAS")


@needs_openblas
def test_training_runs_on_one_blas_thread_whatever_the_setting(zone, tmp_path,
                                                               monkeypatch):
    """Training gives the same bytes at 1 and 2 OpenBLAS threads, sees one
    thread in every step, and gives the count back, on error too."""
    get, put = pipeline._OPENBLAS_THREADS
    seen = []

    def counting(*args, **kwargs):
        seen.append(get())
        return train_step(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train_step", counting)
    before = get()
    runs = []
    try:
        for threads in (1, 2):
            put(threads)
            runs.append(train(zone, tmp_path, f"blas{threads}"))
            assert get() == threads
        monkeypatch.setattr(pipeline, "train_step", None)  # fails a step
        with pytest.raises(TypeError):
            train(zone, tmp_path, "failed")
        assert get() == 2
    finally:
        put(before)
    assert runs[0] == runs[1]
    assert seen and set(seen) == {1}
