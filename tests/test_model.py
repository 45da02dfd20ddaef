"""Topology assembly, parameter counting, batched passes, GHSM files."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builtup.errors import (ConfigError, FormatError, NumericError,
                            ShapeError, ToolkitError)
from builtup.model import (
    ArchitectureConfig,
    Model,
    PRESETS,
    build_model,
    compose_convs,
    count_params,
    inference_stack,
    load_model,
    run_layers,
    save_model,
    train_step,
)
from builtup.nncore import (AdamState, BatchNorm, ConvLayer, Dropout,
                            bce_loss, init_uniform)
from builtup.raster import gather_patches
from model_arrays import (copy_model, layer_by_layer, moving_statistics,
                          pull_back, trainable_arrays)

TINY = ArchitectureConfig(bands=2, block_filters=(3, 4), hidden_units=6)


def random_patches(rng, n, arch):
    return rng.random((n, 5, 5, arch.bands)).astype(np.float32)


def infer(net, x):
    """The inference pass that makes maps and validation losses."""
    return run_layers(inference_stack(net), x)


class TestBuild:
    def test_desk_preset_shape_chain(self):
        net = build_model(PRESETS["desk"], seed=1)
        x = random_patches(np.random.default_rng(0), 3, PRESETS["desk"])
        h = net.conv1.forward(x)
        assert h.shape == (3, 4, 4, 32)
        h = net.conv2.forward(h)
        assert h.shape == (3, 3, 3, 32)
        h = net.conv3.forward(net.bn1.forward(h))
        assert h.shape == (3, 2, 2, 64)
        h = net.conv4.forward(h)
        assert h.shape == (3, 1, 1, 64)  # flatten width 64

    def test_paper_preset_flatten_width(self):
        net = build_model(PRESETS["paper"], seed=1)
        assert net.dense1.kernel.shape == (512, 256, 1, 1)

    def test_output_in_open_unit_interval(self):
        rng = np.random.default_rng(3)
        net = build_model(PRESETS["desk"], seed=2)
        probs = infer(net, random_patches(rng, 64, PRESETS["desk"]))
        assert probs.shape == (64, 1, 1)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_invalid_arch(self, tmp_path):
        """The patch size and the reflectance scale are the network's
        constants: a GHSM header with another is a format error."""
        path = tmp_path / "m.ghsm"
        save_model(build_model(TINY, seed=0), path)
        raw = path.read_bytes()
        for field, good, bad in ((b"patch_size", b"5", b"7"),
                                 (b"normalization_divisor", b"10000.0",
                                  b"1.0")):
            text = raw.replace(b'"%s":%s' % (field, good),
                               b'"%s":%s' % (field, bad))
            assert len(text) == len(raw) - len(good) + len(bad)
            hlen = struct.unpack("<I", raw[4:8])[0] - len(good) + len(bad)
            path.write_bytes(text[:4] + struct.pack("<I", hlen) + text[8:])
            with pytest.raises(FormatError, match=f"{field.decode()} must be "
                               f"{good.decode()}") as exc:
                load_model(path)
            assert str(path) in str(exc.value)
        with pytest.raises(ConfigError):
            ArchitectureConfig(bands=0).validate()

    def test_init_weights_within_bounds(self):
        net = build_model(PRESETS["desk"], seed=5)
        for arr in (net.conv1.kernel, net.conv4.bias, net.dense1.kernel):
            assert np.abs(arr).max() <= 0.1065
        assert np.all(net.bn1.gamma == 1.0) and np.all(net.bn1.beta == 0.0)
        assert np.all(net.bn2.moving_mean == 0.0)
        assert np.all(net.bn2.moving_var == 1.0)

    def test_same_seed_bit_identical_build(self):
        a = build_model(PRESETS["desk"], seed=9)
        b = build_model(PRESETS["desk"], seed=9)
        for x, y in zip(a.serialization_arrays(), b.serialization_arrays()):
            assert x.tobytes() == y.tobytes()


# The public methods and properties of the layers and of Model. One added
# or dropped is a change to the program's surface, made here on purpose: a
# helper only tests call belongs in tests/.
SURFACE = {
    "ConvLayer": ["backward", "forward", "forward_train", "in_channels",
                  "kernel_size", "out_channels"],
    "BatchNorm": ["backward", "batch_statistics", "channels", "forward",
                  "forward_train", "gradient_sums", "input_gradient",
                  "normalize"],
    "Dropout": ["apply", "backward", "keep_flags"],
    "Model": ["backward", "forward_train", "layers", "serialization_arrays"],
}


def test_layer_and_model_surface_is_pinned():
    surface = {cls.__name__: sorted(
        name for name, value in vars(cls).items() if not name.startswith("_")
        and (callable(value) or isinstance(value, property)))
        for cls in (ConvLayer, BatchNorm, Dropout, Model)}
    assert surface == SURFACE


class TestFlatParams:
    """Every trainable array is a view into the one flat vector net.params."""

    def assert_views(self, net):
        arrays = trainable_arrays(net)
        np.testing.assert_array_equal(
            np.concatenate([a.reshape(-1) for a in arrays]), net.params
        )
        for a in arrays:
            assert np.shares_memory(a, net.params)

    def test_build_model(self):
        self.assert_views(build_model(PRESETS["desk"], seed=0))

    def test_load_model(self, tmp_path):
        path = tmp_path / "m.ghsm"
        save_model(build_model(TINY, seed=1), path)
        self.assert_views(load_model(path))

    def test_astype_float64(self):
        net = copy_model(build_model(TINY, seed=2))
        assert net.params.dtype == np.float64
        self.assert_views(net)

    def test_train_step_updates_params_in_place(self):
        rng = np.random.default_rng(3)
        net = build_model(TINY, seed=3)
        before = net.params.copy()
        x = rng.random((8, 5, 5, TINY.bands)).astype(np.float32)
        y = (rng.random(8) < 0.5).astype(np.float32)
        train_step(net, x, y, AdamState.for_size(net.params.size), rng)
        assert not np.array_equal(net.params, before)
        self.assert_views(net)


class TestInitialFileDigest:
    """GHSM bytes of a freshly built model: pins the layer order, the
    initial draws and the blob layout (no BLAS involved)."""

    @pytest.mark.parametrize("name, digest, size", [
        ("desk", "48e5a131ea8c7049b8bfe335b11c542b69d5eb32eded2fad60e06056f5188353",
         153_027),
        ("paper", "3af2ff0ff63bb744b626d5498d181a7b0d4d9dd16346e48dd45d4d84099a730a",
         2_380_997),
    ])
    def test_sha256(self, tmp_path, name, digest, size):
        path = tmp_path / "m.ghsm"
        save_model(build_model(PRESETS[name], seed=0, zone_id="A"), path)
        raw = path.read_bytes()
        assert len(raw) == size
        assert hashlib.sha256(raw).hexdigest() == digest


class TestCountParams:
    def test_desk_counts(self):
        assert count_params(PRESETS["desk"]) == (38017, 192)

    def test_paper_counts(self):
        assert count_params(PRESETS["paper"]) == (594433, 768)

    def test_bands_zero_is_config_error(self):
        with pytest.raises(ConfigError):
            count_params(ArchitectureConfig(bands=0))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        arch = ArchitectureConfig(
            bands=int(rng.integers(1, 6)),
            block_filters=(int(rng.integers(1, 9)), int(rng.integers(1, 9))),
            hidden_units=int(rng.integers(1, 20)),
        )
        net = build_model(arch, seed=seed)
        trainable = sum(a.size for a in trainable_arrays(net))
        non_trainable = sum(a.size for a in moving_statistics(net))
        assert count_params(arch) == (trainable, non_trainable)


# Batch and one-patch GEMMs round differently: by up to 2 float32 spacings
# of a probability in [0.5, 1) on 200 random desk nets and batches.
BATCH_BOUND = 4 * float(np.spacing(np.float32(0.5)))


class TestForwardBatch:
    """The inference stack on a batch of 5x5 patches: each patch's
    probability does not depend on the rest of the batch."""

    def test_wrong_shape(self):
        net = build_model(TINY, seed=0)
        for shape in [(2, 4, 5, 2), (1, 5, 4, 2), (1, 5, 5, 3), (5, 5, 2)]:
            with pytest.raises(ShapeError):
                infer(net, np.zeros(shape, dtype=np.float32))

    def test_duplicated_patch_identical_probability(self):
        rng = np.random.default_rng(4)
        net = build_model(TINY, seed=1)
        patch = random_patches(rng, 1, TINY)
        batch = np.concatenate([patch, random_patches(rng, 3, TINY), patch])
        probs = infer(net, batch)
        assert probs[0] == probs[-1]

    def test_batch_equals_one_by_one(self):
        rng = np.random.default_rng(5)
        net = build_model(PRESETS["desk"], seed=2)
        batch = random_patches(rng, 32, PRESETS["desk"])
        stack = inference_stack(net)
        together = run_layers(stack, batch)
        single = np.array([run_layers(stack, batch[i:i + 1])[0]
                           for i in range(32)])
        assert np.max(np.abs(together - single)) <= BATCH_BOUND


class TestFullyConvolutional:
    """Through the inference stack a window gives, per interior pixel, the
    probability of that pixel's 5x5 patch: bit for bit for the tiny and
    desk presets, whose 3x3 layers run im2col on windows and patches
    alike, so the map and the validation loss see the same model. The
    paper preset's bn1.conv3.conv4 runs F(2x2, 3x3) on a window and im2col
    on a patch, so there the two agree to float32 rounding."""

    NETS = {"tiny": build_model(TINY, seed=7),
            "desk": build_model(PRESETS["desk"], seed=8),
            "paper": build_model(PRESETS["paper"], seed=9)}
    # max |window - patches| on 64 x 64 windows read 3.6e-7 over 4 paper
    # nets; a probability differs from its patch's by a few roundings
    PAPER_BOUND = 16 * float(np.spacing(np.float32(0.5)))

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["desk", "tiny"]), n=st.integers(1, 2),
           h=st.integers(1, 9), w=st.integers(1, 9), seed=st.integers(0, 99))
    def test_window_equals_gathered_patches(self, name, n, h, w, seed):
        net = self.NETS[name]
        window, patches = self.window_and_patches(net, n, h, w, seed)
        np.testing.assert_array_equal(
            infer(net, window), infer(net, patches).reshape(n, h, w))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_paper_window_is_its_patches_to_rounding(self, seed):
        net = self.NETS["paper"]
        window, patches = self.window_and_patches(net, 1, 64, 64, seed)
        got = infer(net, window)
        want = infer(net, patches).reshape(1, 64, 64)
        assert np.max(np.abs(got - want)) <= self.PAPER_BOUND

    @staticmethod
    def window_and_patches(net, n, h, w, seed):
        window = np.random.default_rng(seed).random(
            (n, h + 4, w + 4, net.arch.bands)).astype(np.float32)
        rows, cols = np.divmod(np.arange(h * w), w)
        patches = np.concatenate([gather_patches(one, rows, cols)
                                  for one in window])
        return window, patches


@pytest.mark.parametrize("arch, winograd", [
    (TINY, [False] * 4), (PRESETS["desk"], [False] * 4),
    (PRESETS["paper"], [False, True, False, False])],
    ids=["tiny", "desk", "paper"])
def test_only_the_paper_composed_conv_runs_winograd(arch, winograd):
    """nncore's rule gives F(2x2, 3x3) to the paper preset's
    bn1.conv3.conv4 (128 inputs) alone: not to desk's (32), nor to any
    conv1.conv2 (the bands). 5x5 patches make no kernel transform, a
    window makes it in that layer only."""
    stack = inference_stack(build_model(arch, seed=1))
    rng = np.random.default_rng(2)
    run_layers(stack, rng.random((3, 5, 5, arch.bands), dtype=np.float32))
    assert all(layer._winograd is None for layer in stack)
    run_layers(stack, rng.random((1, 8, 9, arch.bands), dtype=np.float32))
    assert [layer._winograd is not None for layer in stack] == winograd


def with_batchnorm_statistics(net, seed):
    """net with random BatchNorm gamma, beta and moving mean, and moving
    variances in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            n = layer.channels
            layer.gamma[...] = rng.uniform(0.5, 1.5, n)
            layer.beta[...] = rng.uniform(-0.5, 0.5, n)
            layer.moving_mean[...] = rng.uniform(-0.5, 0.5, n)
            layer.moving_var[...] = rng.uniform(0.5, 2.0, n)
    return net


class TestInferenceStack:
    """The folded stack: dropout dropped, BatchNorm folded into the next
    conv and each linear conv composed into the next one. It matches the
    layers run one by one (layer_by_layer) up to float32 rounding."""

    @pytest.mark.parametrize("arch", [TINY, PRESETS["desk"], PRESETS["paper"]],
                             ids=["tiny", "desk", "paper"])
    def test_matches_forward_on_windows(self, arch):
        net = with_batchnorm_statistics(build_model(arch, seed=5), seed=6)
        stack = inference_stack(net)
        assert [(layer.kernel_size, layer.activation) for layer in stack] == [
            (3, "tanh"), (3, "tanh"), (1, "tanh"), (1, "sigmoid")]
        assert all(layer.kernel.dtype == np.float32 for layer in stack)
        rng = np.random.default_rng(7)
        for h, w in ((1, 1), (3, 7), (20, 13)):
            window = rng.random((2, h + 4, w + 4, arch.bands)).astype(
                np.float32)
            folded = run_layers(stack, window)
            assert folded.shape == (2, h, w)
            reference = layer_by_layer(net, window)
            assert np.max(np.abs(folded - reference)) <= 1e-6

    def test_linear_2x2_composition_equals_float64_reference(self):
        rng = np.random.default_rng(10)
        first = ConvLayer(init_uniform(rng, (5, 3, 2, 2), np.float64),
                          init_uniform(rng, (5,), np.float64), "linear")
        second = ConvLayer(init_uniform(rng, (4, 5, 2, 2), np.float64),
                           init_uniform(rng, (4,), np.float64), "linear")
        kernel, bias = compose_convs((first.kernel, first.bias),
                                     (second.kernel, second.bias))
        assert kernel.shape == (4, 3, 3, 3) and bias.shape == (4,)
        x = rng.standard_normal((2, 6, 7, 3))
        reference = second.forward(first.forward(x))
        composed = ConvLayer(kernel, bias, "linear").forward(x)
        np.testing.assert_allclose(composed, reference, rtol=0, atol=1e-13)


@pytest.mark.parametrize("pair", [("conv1", "conv2"), ("conv3", "conv4")])
@pytest.mark.parametrize("arch", [TINY, PRESETS["desk"], PRESETS["paper"]],
                         ids=["tiny", "desk", "paper"])
def test_pull_back_is_the_transpose_of_the_composition(arch, pair):
    """<G, J d> = <J^T G, d> in float64, biases included: J is the
    Jacobian of compose_convs at the network's factors, J^T G is
    compose_convs_adjoint, and d and G are random directions. The
    composition is bilinear in (k1, b1) and k2 and adds b2, so
    J d = compose(d1, (k2, db2)) + compose(first, (dk2, 0))."""
    net = copy_model(build_model(arch, seed=8))
    rng = np.random.default_rng(9)
    first, second = [(getattr(net, name).kernel, getattr(net, name).bias)
                     for name in pair]

    def direction(arrays):
        return tuple(rng.standard_normal(a.shape) for a in arrays)

    d1, d2 = direction(first), direction(second)
    g = direction(compose_convs(first, second))
    ka, ba = compose_convs(d1, (second[0], d2[1]))
    kb, bb = compose_convs(first, (d2[0], np.zeros_like(d2[1])))
    (dk1, db1), (dk2, db2) = pull_back(first, second, g)
    assert dk1.shape == first[0].shape and dk2.shape == second[0].shape
    lhs = np.vdot(g[0], ka + kb) + np.vdot(g[1], ba + bb)
    rhs = sum(np.vdot(a, b) for a, b in zip((dk1, db1, dk2, db2), d1 + d2))
    np.testing.assert_allclose(rhs, lhs, rtol=1e-12)


class TestTrainStep:
    def separable_batch(self, rng, n=64):
        x = rng.random((n, 5, 5, TINY.bands)).astype(np.float32) * 0.2
        y = (rng.random(n) < 0.5).astype(np.float32)
        x[y == 1] += 0.6
        return x, y

    def eval_loss(self, net, x, y, mask_seed):
        probs, _ = net.forward_train(x, np.random.default_rng(mask_seed))
        loss, _ = bce_loss(y, probs[:, 0, 0])
        return loss

    def test_loss_decreases_on_separable_batch(self):
        rng = np.random.default_rng(6)
        net = build_model(TINY, seed=3)
        x, y = self.separable_batch(rng)
        state = AdamState.for_size(net.params.size,
                                   learning_rate=0.01)
        before = self.eval_loss(net, x, y, mask_seed=77)
        train_step(net, x, y, state, np.random.default_rng(77))
        after = self.eval_loss(net, x, y, mask_seed=77)
        assert after < before

    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(7)
        net = build_model(TINY, seed=4)
        x, y = self.separable_batch(rng)
        snapshot = [a.copy() for a in trainable_arrays(net)]
        state = AdamState.for_size(net.params.size,
                                   learning_rate=0.0)
        train_step(net, x, y, state, np.random.default_rng(0))
        for a, b in zip(trainable_arrays(net), snapshot):
            assert np.array_equal(a, b)

    def test_fixed_seed_identical_loss_trajectory(self):
        def run():
            rng = np.random.default_rng(8)
            net = build_model(TINY, seed=5)
            x, y = self.separable_batch(np.random.default_rng(100))
            state = AdamState.for_size(net.params.size,
                                       learning_rate=1e-3)
            return [train_step(net, x, y, state, rng) for _ in range(5)]

        assert run() == run()

    def test_nonfinite_loss_raises(self):
        rng = np.random.default_rng(9)
        net = build_model(TINY, seed=6)
        net.dense2.kernel[:] = np.nan
        x, y = self.separable_batch(rng)
        state = AdamState.for_size(net.params.size)
        with pytest.raises(NumericError):
            train_step(net, x, y, state, np.random.default_rng(0))


class TestSerialization:
    def trained_model(self, tmp_path, seed=11):
        rng = np.random.default_rng(seed)
        net = build_model(TINY, seed=seed, zone_id="ZZ")
        x = rng.random((32, 5, 5, TINY.bands)).astype(np.float32)
        y = (rng.random(32) < 0.5).astype(np.float32)
        state = AdamState.for_size(net.params.size)
        for _ in range(3):
            train_step(net, x, y, state, rng)
        net.epochs_trained = 3
        return net

    def test_save_load_save_byte_identical(self, tmp_path):
        net = self.trained_model(tmp_path)
        p1, p2 = tmp_path / "a.ghsm", tmp_path / "b.ghsm"
        save_model(net, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic(self, tmp_path):
        net = self.trained_model(tmp_path)
        path = tmp_path / "m.ghsm"
        save_model(net, path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic") as exc:
            load_model(path)
        assert str(path) in str(exc.value)

    def test_truncated_payload(self, tmp_path):
        net = self.trained_model(tmp_path)
        path = tmp_path / "m.ghsm"
        save_model(net, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="offset") as exc:
            load_model(path)
        assert str(path) in str(exc.value)

    def test_a_huge_architecture_is_a_format_error(self, tmp_path):
        """The payload size is checked against the header's architecture
        before any array is built: 10^12 hidden units would need 240 TiB."""
        path = tmp_path / "m.ghsm"
        save_model(build_model(PRESETS["desk"], seed=0), path)
        raw = path.read_bytes()
        hlen = struct.unpack("<I", raw[4:8])[0]
        header = json.loads(raw[8:8 + hlen])
        header["arch"]["hidden_units"] = 10 ** 12
        text = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:4] + struct.pack("<I", len(text)) + text
                         + raw[8 + hlen:])
        with pytest.raises(FormatError, match="payload"):
            load_model(path)

    def test_a_non_finite_parameter_is_a_format_error(self, tmp_path):
        """A NaN or infinite weight names the offset of its float."""
        path = tmp_path / "m.ghsm"
        save_model(self.trained_model(tmp_path), path)
        raw = path.read_bytes()
        offset = 8 + struct.unpack("<I", raw[4:8])[0] + 4 * 7
        for value in (float("nan"), float("-inf")):
            path.write_bytes(raw[:offset] + struct.pack("<f", value)
                             + raw[offset + 4:])
            with pytest.raises(FormatError,
                               match=f"at offset {offset}$") as exc:
                load_model(path)
            assert str(path) in str(exc.value)

    def test_nan_in_the_header_is_a_format_error(self, tmp_path):
        """Python's json reads NaN and Infinity, which are not JSON."""
        path = tmp_path / "m.ghsm"
        save_model(self.trained_model(tmp_path), path)
        raw = path.read_bytes()
        hlen = struct.unpack("<I", raw[4:8])[0]
        for constant in (b"NaN", b"Infinity", b"-Infinity"):
            text = raw[8:8 + hlen].replace(b'"normalization_divisor":10000.0',
                                           b'"normalization_divisor":'
                                           + constant)
            assert text != raw[8:8 + hlen]
            path.write_bytes(raw[:4] + struct.pack("<I", len(text)) + text
                             + raw[8 + hlen:])
            with pytest.raises(FormatError, match="not JSON") as exc:
                load_model(path)
            assert str(path) in str(exc.value)

    def test_loaded_model_forward_is_exact(self, tmp_path):
        net = self.trained_model(tmp_path)
        path = tmp_path / "m.ghsm"
        save_model(net, path)
        back = load_model(path)
        rng = np.random.default_rng(12)
        batch = rng.random((16, 5, 5, TINY.bands)).astype(np.float32)
        assert np.array_equal(infer(net, batch), infer(back, batch))
        assert back.zone_id == "ZZ" and back.epochs_trained == 3

    def test_every_parameter_bit_preserved(self, tmp_path):
        net = self.trained_model(tmp_path, seed=13)
        path = tmp_path / "m.ghsm"
        save_model(net, path)
        back = load_model(path)
        for a, b in zip(net.serialization_arrays(),
                        back.serialization_arrays()):
            assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def desk_ghsm(tmp_path_factory):
    path = tmp_path_factory.mktemp("ghsm") / "desk.ghsm"
    save_model(build_model(PRESETS["desk"], seed=0, zone_id="A"), path)
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=st.integers(0, 255))
def test_header_byte_mutations_load_or_raise_toolkit_errors(desk_ghsm, data,
                                                            value):
    """Any single-byte change to a desk GHSM file's magic, header length or
    JSON header either still loads or raises a ToolkitError, never another
    exception."""
    path, raw = desk_ghsm
    header_end = 8 + int.from_bytes(raw[4:8], "little")
    mutated = bytearray(raw)
    mutated[data.draw(st.integers(0, header_end - 1), label="offset")] = value
    path.with_suffix(".mutated").write_bytes(bytes(mutated))
    try:
        load_model(path.with_suffix(".mutated"))
    except ToolkitError:
        pass


@settings(max_examples=40, deadline=None)
@given(bands=st.integers(1, 6), f_a=st.integers(1, 6), f_b=st.integers(1, 6),
       hidden=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_ghsm_round_trip(tmp_path_factory, bands, f_a, f_b, hidden, seed):
    """A trained model with random parameters and moving statistics saves,
    loads and saves again to the same bytes, and loads the arrays it
    saved: training's composed layers leave the table's layout alone."""
    arch = ArchitectureConfig(bands=bands, block_filters=(f_a, f_b),
                              hidden_units=hidden)
    rng = np.random.default_rng(seed)
    net = build_model(arch, seed=seed % 1000, zone_id="Z")
    x = random_patches(rng, 4, arch)
    train_step(net, x, (rng.random(4) < 0.5).astype(np.float32),
               AdamState.for_size(net.params.size), rng)
    net.params[...] = rng.standard_normal(net.params.size)
    for bn in (net.bn1, net.bn2):
        bn.moving_mean[...] = rng.standard_normal(bn.channels)
        bn.moving_var[...] = rng.random(bn.channels) + 0.5
    path = tmp_path_factory.mktemp("round_trip") / "m.ghsm"
    save_model(net, path)
    raw = path.read_bytes()
    back = load_model(path)
    save_model(back, path)
    assert path.read_bytes() == raw
    assert back.arch == arch and back.zone_id == "Z"
    for saved, loaded in zip(net.serialization_arrays(),
                             back.serialization_arrays()):
        assert loaded.dtype == np.float32
        assert loaded.tobytes() == saved.tobytes()
