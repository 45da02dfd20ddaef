"""The sliced training step: one optimizer batch as TRAIN_SLICES row slices.

The train-mode pass composes conv1.conv2 and conv3.conv4 into one conv
each and pulls their gradients back to the table's layers. Frozen copies
pin it: `reference_gradient` over the table's own layers and
`reference_adam_step` are the unsliced step (the layer loops of
Model.forward_train/backward, BatchNorm's train mode and a whole-vector
Adam update) as it was before batches were sliced or convs composed, and
`composed_reference_step` is the same loop through the composed layers.
The composed pass equals the per-layer one up to float64 rounding; one
slice gives the composed loop's bits; two slices differ from one by the
order of the batch sums only; and a zone's training must not depend on
the worker count or on the BLAS thread setting.
"""

import copy
import functools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from builtup import model as model_mod, pipeline
from builtup.errors import ConfigError, DegenerateBatchError, NumericError
from builtup.model import (PRESETS, ArchitectureConfig, build_model,
                           compose_convs, save_model, slice_bounds,
                           train_step)
from builtup.nncore import (ADAM_CHUNK, AdamState, BatchNorm, ConvLayer,
                            Dropout, adam_step, bce_loss)
from builtup.synth import SceneParams, synth_zone
from model_arrays import (batch_keep_flags, copy_model, moving_statistics,
                          pull_back)

TINY = ArchitectureConfig(bands=2, block_filters=(3, 4), hidden_units=6)
ARCHS = {"tiny": TINY, "desk": PRESETS["desk"], "paper": PRESETS["paper"]}
EPS = np.finfo(np.float64).eps


def reference_bn_forward_train(bn, x):
    flat = x.reshape(-1, bn.channels)
    mean = flat.mean(axis=0)
    var = flat.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + np.asarray(bn.epsilon, dtype=x.dtype))
    xhat = (flat - mean) * inv_std
    y = (xhat * bn.gamma + bn.beta).reshape(x.shape)
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


def reference_gradient(net, patches, labels, rng, layers=None):
    """(loss, flat gradient) of the unsliced step, frozen: one loop forward
    and one back through `layers`, (layer, table positions) pairs that
    default to the table's own layers, each position's gradients laid out
    in table order. A composed layer's gradient is pulled back to its two
    table layers."""
    table = net.layers
    if layers is None:
        layers = [(layer, (i,)) for i, layer in enumerate(table)]
    x, caches = patches, []
    for layer, _ in layers:
        if isinstance(layer, BatchNorm):
            x, cache = reference_bn_forward_train(layer, x)
        elif isinstance(layer, Dropout):
            x, cache = layer.apply(x, batch_keep_flags(rng, x.shape))
        else:
            x, cache = layer.forward_train(x)
        caches.append(cache)
    probs = x[..., 0]
    loss, dprobs = bce_loss(labels.astype(np.float32), probs[:, 0, 0])
    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss {loss}")
    d = dprobs.reshape(probs.shape)[..., None]
    grads = {}
    first = layers[0][0]
    for (layer, pos), cache in zip(layers[::-1], caches[::-1]):
        if isinstance(layer, BatchNorm):
            d, *layer_grads = reference_bn_backward(layer, d, cache)
        else:
            d, *layer_grads = layer.backward(d, cache,
                                             input_grad=layer is not first)
        if len(pos) == 1:
            grads[pos[0]] = layer_grads
            continue
        factors = [(table[i].kernel, table[i].bias) for i in pos]
        for i, pulled in zip(pos, pull_back(*factors, layer_grads)):
            grads[i] = pulled
    return loss, np.concatenate([g.reshape(-1) for i in range(len(table))
                                 for g in grads[i]])


def composed_layers(net):
    """The table's layers with each linear conv composed into the conv
    after it, as (layer, table positions), frozen."""
    layers = []
    for i, layer in enumerate(net.layers):
        prev = layers[-1][0] if layers else None
        if (isinstance(layer, ConvLayer) and isinstance(prev, ConvLayer)
                and prev.activation == "linear"):
            kernel, bias = compose_convs((prev.kernel, prev.bias),
                                         (layer.kernel, layer.bias))
            layers[-1] = (ConvLayer(kernel, bias, layer.activation),
                          (i - 1, i))
        else:
            layers.append((layer, (i,)))
    return layers


def composed_reference_step(net, patches, labels, state, rng):
    """The unsliced composed train_step, frozen."""
    loss, grad = reference_gradient(net, patches, labels, rng,
                                    composed_layers(net))
    reference_adam_step(net.params, grad, state)
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
        net = copy_model(net, dtype)
    state = AdamState.for_size(net.params.size, learning_rate=1e-3,
                               dtype=dtype)
    x, y = batch(arch, n, seed + 1, dtype)
    rng = np.random.default_rng(seed + 2)
    losses = [step(net, x, y, state, rng) for _ in range(steps)]
    return net, losses


def test_slice_bounds_cover_the_batch_in_order():
    assert slice_bounds(1024, 2) == [(0, 512), (512, 1024)]
    assert slice_bounds(777, 2) == [(0, 388), (388, 777)]
    assert slice_bounds(3, 2) == [(0, 1), (1, 3)]
    assert slice_bounds(2, 3) == [(0, 0), (0, 1), (1, 2)]
    assert slice_bounds(5, 1) == [(0, 5)]


def assert_within_roundings(got, want, roundings):
    """|got - want| <= roundings * EPS * the largest |want|."""
    scale = np.max(np.abs(want))
    assert np.max(np.abs(np.subtract(got, want))) <= roundings * EPS * scale


def model_gradient(net, x, y, rng, slices=1):
    """(loss, flat gradient) of Model's train-mode pass; no Adam step."""
    probs, tape = net.forward_train(x, rng, slices)
    loss, dprobs = bce_loss(y.astype(np.float32), probs[:, 0, 0])
    return loss, net.backward(dprobs.reshape(probs.shape), tape)


@pytest.mark.parametrize("name", ARCHS)
def test_composed_step_matches_the_per_layer_reference_in_float64(name):
    """At each of 3 steps of the per-layer reference, the composed pass at
    the same parameters and dropout draws gives the loss and gradient up
    to float64 rounding: within 64 roundings of the loss, and 1024 of the
    largest gradient entry (measured: at most 15, on paper)."""
    arch = ARCHS[name]
    n = 64 if name == "paper" else 256
    net = copy_model(build_model(arch, seed=0))
    state = AdamState.for_size(net.params.size, learning_rate=1e-3,
                               dtype=np.float64)
    x, y = batch(arch, n, 1, np.float64)
    rng = np.random.default_rng(2)
    for _ in range(3):
        composed = copy_model(net)
        loss, grad = model_gradient(composed, x, y, copy.deepcopy(rng))
        ref_loss, ref_grad = reference_gradient(net, x, y, rng)
        assert_within_roundings(loss, ref_loss, 64)
        assert_within_roundings(grad, ref_grad, 1024)
        reference_adam_step(net.params, ref_grad, state)


@pytest.mark.parametrize("name", ARCHS)
def test_one_slice_is_the_unsliced_composed_step_bit_for_bit(name,
                                                             monkeypatch):
    arch = ARCHS[name]
    n = 64 if name == "paper" else 256
    ref_net, ref_losses = run_steps(composed_reference_step, arch, n, steps=3)
    monkeypatch.setattr(model_mod, "TRAIN_SLICES", 1)
    net, losses = run_steps(train_step, arch, n, steps=3)
    assert losses == ref_losses
    np.testing.assert_array_equal(net.params, ref_net.params)


@pytest.mark.parametrize("n", [1024, 777, 3, 2])
@pytest.mark.parametrize("name", ARCHS)
def test_two_slices_match_one_in_float64(name, n, monkeypatch):
    """Two slices add the batch sums in another order than one: the first
    step's gradient agrees within 1024 float64 roundings of its largest
    entry (measured: at most 134, desk at 1024 rows), and the losses of 5
    steps within 1e-12. Parameters after several steps are not compared: Adam's
    m / sqrt(v) magnifies a rounding difference in a near-zero gradient
    entry into a parameter step of the learning rate's size."""
    arch = ARCHS[name]
    if name == "paper" and n > 3:
        n //= 4  # a float64 paper step at 1024 rows takes ~0.5 s
    x, y = batch(arch, n, 1, np.float64)
    two, one = (copy_model(build_model(arch)) for _ in range(2))
    _, two_grad = model_gradient(two, x, y, np.random.default_rng(2), 2)
    _, one_grad = model_gradient(one, x, y, np.random.default_rng(2), 1)
    assert_within_roundings(two_grad, one_grad, 1024)
    assert model_mod.TRAIN_SLICES == 2
    _, two_losses = run_steps(train_step, arch, n, 5, np.float64)
    monkeypatch.setattr(model_mod, "TRAIN_SLICES", 1)
    _, one_losses = run_steps(train_step, arch, n, 5, np.float64)
    np.testing.assert_allclose(two_losses, one_losses, rtol=0, atol=1e-12)


@pytest.mark.parametrize("slices", [1, 2, 3],
                         ids=lambda slices: f"{slices}-{Dropout.rate}")
def test_a_step_draws_each_dropout_mask_once_at_the_batch_shape(slices,
                                                                 monkeypatch):
    """rng's stream is part of a zone's reproducible training: one step
    draws drop1's (N, 3, 3, f_a) uniforms, then drop2's (N, 1, 1, f_b),
    and nothing else, whatever the slice count."""
    monkeypatch.setattr(model_mod, "TRAIN_SLICES", slices)
    n, (f_a, f_b) = 37, TINY.block_filters
    net = build_model(TINY, seed=0)
    x, y = batch(TINY, n, 1)
    rng, expected = np.random.default_rng(5), np.random.default_rng(5)
    loss = train_step(net, x, y, AdamState.for_size(net.params.size), rng)
    assert np.isfinite(loss)
    expected.random((n, 3, 3, f_a))
    expected.random((n, 1, 1, f_b))
    assert rng.bit_generator.state == expected.bit_generator.state


def masks_drawn(rng, n, steps=1):
    """rng after `steps` steps' whole-batch mask draws of TINY at batch n,
    drawn with rng.random as the unsliced pass drew them."""
    f_a, f_b = TINY.block_filters
    for _ in range(steps):
        batch_keep_flags(rng, (n, 3, 3, f_a))
        batch_keep_flags(rng, (n, 1, 1, f_b))
    return rng


@pytest.mark.parametrize("n", [37, 2], ids=["37-rows", "2-rows"])
@pytest.mark.parametrize("slices", [1, 2, 3])
def test_a_step_keeps_a_pending_32_bit_half(slices, n, monkeypatch):
    """A 32-bit draw, such as shuffle_minibatches' permutation, can leave
    half of a 64-bit output buffered; random() does not touch it, so after
    a step rng's whole state, buffer included, is that of the unsliced
    draws. Three slices of 2 rows leave the first one empty."""
    monkeypatch.setattr(model_mod, "TRAIN_SLICES", slices)
    rng = np.random.default_rng(5)
    rng.integers(0, 1000, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    expected = copy.deepcopy(rng)
    net = build_model(TINY, seed=0)
    x, y = batch(TINY, n, 1)
    train_step(net, x, y, AdamState.for_size(net.params.size), rng)
    expected = masks_drawn(expected, n)
    assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("slices", [1, 2, 3, 5])
def test_each_slice_draws_the_rows_of_the_whole_batch_draw(slices):
    """Dropout.keep_flags at a slice's offset gives that slice's rows of
    rng.random(shape) >= rate over the whole batch, also past an earlier
    mask and with a pending 32-bit half."""
    rng = np.random.default_rng(11)
    rng.permutation(9)
    state = rng.bit_generator.state
    earlier, shape = 1000, (23, 3, 3, 7)
    rng.random(earlier)
    whole = batch_keep_flags(rng, shape)
    row = whole[0].size
    parts = [Dropout().keep_flags(state, earlier + a * row,
                                  (b - a,) + shape[1:])
             for a, b in slice_bounds(shape[0], slices)]
    np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_keep_raw_is_the_exact_threshold_of_random():
    """random() is (raw >> 11) * 2**-53, so raw >= KEEP_RAW must hold
    exactly when random() >= rate: KEEP_RAW is the least such raw."""
    top = Dropout.KEEP_RAW >> 11
    assert Dropout.KEEP_RAW == top << 11
    assert top * 2.0 ** -53 >= Dropout.rate > (top - 1) * 2.0 ** -53


def test_a_generator_other_than_pcg64_is_a_config_error():
    net = build_model(TINY, seed=0)
    x, y = batch(TINY, 8, 1)
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(ConfigError, match="PCG64"):
        train_step(net, x, y, AdamState.for_size(net.params.size), rng)


def test_an_empty_slice_changes_nothing(monkeypatch):
    """Three slices of a 2-row batch leave the first one empty."""
    monkeypatch.setattr(model_mod, "TRAIN_SLICES", 3)
    three, three_losses = run_steps(train_step, TINY, 2, 5, np.float64)
    monkeypatch.setattr(model_mod, "TRAIN_SLICES", 1)
    one, one_losses = run_steps(train_step, TINY, 2, 5, np.float64)
    np.testing.assert_allclose(three_losses, one_losses, rtol=0, atol=1e-12)
    np.testing.assert_allclose(three.params, one.params, rtol=0, atol=1e-12)


def test_a_step_leaves_the_batchnorm_statistics_untouched():
    """Training normalizes with batch statistics only: steps on two
    threaded slices write no BatchNorm's moving_mean or moving_var."""
    net = build_model(TINY, seed=0)
    rng = np.random.default_rng(4)
    for stat in moving_statistics(net):
        stat[...] = rng.uniform(0.5, 2.0, stat.shape)
    before = [(stat, stat.copy()) for stat in moving_statistics(net)]
    x, y = batch(TINY, 64, 1)
    state = AdamState.for_size(net.params.size, learning_rate=1e-3)
    with ThreadPoolExecutor(2) as pool:
        for _ in range(2):
            train_step(net, x, y, state, rng, run=pool.map)
    assert state.step == 2
    for (stat, copied), now in zip(before, moving_statistics(net)):
        assert now is stat
        np.testing.assert_array_equal(now, copied)


@pytest.mark.parametrize("name", ["desk", "paper"])
def test_slices_on_threads_equal_slices_in_turn(name):
    in_turn, in_turn_losses = run_steps(train_step, ARCHS[name], 300, 3)
    with ThreadPoolExecutor(2) as pool:
        def threaded(net, x, y, state, rng):
            return train_step(net, x, y, state, rng, run=pool.map)

        on_threads, losses = run_steps(threaded, ARCHS[name], 300, 3)
    assert losses == in_turn_losses
    np.testing.assert_array_equal(on_threads.params, in_turn.params)


def test_many_slices_on_more_threads_than_cores(monkeypatch):
    """Eight slices on eight threads with a short switch interval: each
    slice draws its own rows of every dropout mask and writes only its
    own caches and gradients, so the steps equal the slices run in turn
    and rng ends where the whole-batch draws leave it. Each task result
    is waited for at most 60 s."""
    monkeypatch.setattr(model_mod, "TRAIN_SLICES", 8)
    in_turn, in_turn_losses = run_steps(train_step, TINY, 64, 3)
    rngs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            def threaded(net, x, y, state, rng):
                rngs.append(rng)
                return train_step(net, x, y, state, rng,
                                  run=functools.partial(pool.map, timeout=60))

            on_threads, losses = run_steps(threaded, TINY, 64, 3)
    finally:
        sys.setswitchinterval(interval)
    assert losses == in_turn_losses
    np.testing.assert_array_equal(on_threads.params, in_turn.params)
    expected = masks_drawn(np.random.default_rng(2), 64, steps=3)
    assert rngs[-1].bit_generator.state == expected.bit_generator.state


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
    """(history, GHSM bytes) of a 2-epoch desk training; the bytes hold the
    BatchNorm statistics, which the population pass has set."""
    net, history, _ = pipeline.train_zone(
        zone.composite, zone.labels, PRESETS["desk"],
        pipeline.TrainingRun(zone_id="A", epochs=2, seed=0),
        pipeline.SamplingConfig(tile_pixels=32, batch_size=256))
    for stat in moving_statistics(net):  # built at mean 0 and variance 1
        assert not np.all((stat == 0.0) | (stat == 1.0))
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
    thread in every step and every statistics pass, and gives the count
    back, on error too."""
    get, put = pipeline._OPENBLAS_THREADS
    seen, passes = [], []
    set_statistics = pipeline._set_statistics

    def counting(*args, **kwargs):
        seen.append(get())
        return train_step(*args, **kwargs)

    def counting_passes(*args, **kwargs):
        passes.append(get())
        return set_statistics(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train_step", counting)
    monkeypatch.setattr(pipeline, "_set_statistics", counting_passes)
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
    assert passes == [1] * 4  # two epochs at each thread setting
