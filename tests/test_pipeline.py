"""Tiled prediction over a whole zone, its 64x64 inference blocks, and
the zone registry.

predict_zone computes the zone once, in blocks aligned to the zone origin,
and tiles only slice the result, so every tiling and worker count gives
the bytes of the whole-zone tile, with all of the network's weights and
for every preset. The block test compares blocks against one pass of the
inference stack over the whole window instead, where dense2's rounding
really depends on the row count: a (rows, hidden) @ (hidden, 1) gemv
rounds a row by the call's size and the row's place in it. That test
therefore reads dense2 from one hidden unit (`one_term_dense2`), whose dot
product has one non-zero term and rounds alike at every size, and leaves
the paper preset out: its wide GEMMs also round differently at small row
counts, and its bn1.conv3.conv4 runs F(2x2, 3x3) in chunks of tile rows.

The path a layer takes is fixed by the layer and the block's shape: a 3x3
layer of at least nncore.WINOGRAD_MIN_CHANNELS inputs (paper's
bn1.conv3.conv4) runs F(2x2, 3x3) on blocks of 2 x 2 outputs or more, and
every other layer runs im2col, so desk and tiny never take the Winograd
path, and every preset's mosaic stays byte for byte the same at every
tiling and worker count.
"""

import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builtup import pipeline, raster
from builtup.errors import ConfigError, RegistryError, ShapeError
from builtup.model import (PRESETS, ArchitectureConfig, build_model,
                           inference_stack, run_layers, save_model)
from builtup.nncore import BatchNorm, ConvLayer, bce_loss
from builtup.pipeline import (PREDICT_BLOCK, STATISTICS_CHUNK, _infer_loss,
                              _predict_padded, _set_statistics, predict_zone)
from builtup.raster import PATCH_MARGIN, gather_patches, rescale_reflectance
from builtup.synth import SceneParams, synth_zone
from model_arrays import batchnorm_inputs, copy_model, layer_by_layer

SIZE = 64
TINY = ArchitectureConfig(bands=2, block_filters=(3, 4), hidden_units=6)


@pytest.fixture(scope="module")
def zone():
    return synth_zone(SceneParams(size=SIZE, seed=0), zone_id="A")


@pytest.fixture(scope="module")
def net():
    return build_model(PRESETS["desk"], seed=0)


def mosaic(predictions, size=SIZE):
    prob = np.full((size, size), np.nan, dtype=np.float32)
    for pred in predictions:
        assert pred.ok, pred.error
        t = pred.tile
        prob[t.row0:t.row0 + t.rows, t.col0:t.col0 + t.cols] = pred.prob
    return prob


def test_mosaic_independent_of_tiling_and_workers(zone, net):
    reference = mosaic(predict_zone(net, zone.composite, SIZE, workers=1))
    assert not np.isnan(reference).any()
    valid = zone.composite.valid_mask()
    assert np.all(reference[~valid] == -1.0)
    assert np.all((reference[valid] > 0.0) & (reference[valid] < 1.0))
    for tile in (16, 37, 64):
        for workers in (1, 2):
            got = mosaic(predict_zone(net, zone.composite, tile,
                                      workers=workers))
            assert got.tobytes() == reference.tobytes(), (tile, workers)


def read_mosaic(paths, entries):
    """The mosaic of the probability tiles at paths, read whole."""
    grid, places = pipeline.mosaic_layout(paths, entries)
    return replace(grid, data=pipeline.read_mosaic_rows(
        grid, places, 0, grid.height)[None])


def test_tiles_are_placed_by_their_headers(zone, net, tmp_path):
    """read_mosaic of the tiles write_tiles wrote is the zone's mosaic at
    the composite's origin; without the first tile row it starts a tile
    lower. Failed bands fail whole tile rows: whichever rows remain, the
    mosaic spans them, with -1 in the rows between."""
    preds = predict_zone(net, zone.composite, 24)
    entries = pipeline.write_tiles(preds, zone.composite, tmp_path)
    whole = read_mosaic([e["prob"] for e in entries], len(entries))
    comp = zone.composite
    assert (whole.origin_x, whole.origin_y, whole.pixel_size,
            whole.zone_id) == (comp.origin_x, comp.origin_y,
                               comp.pixel_size, "A")
    assert whole.data[0].tobytes() == mosaic(preds).tobytes()
    lower = read_mosaic([e["prob"] for e in entries
                                  if e["tile_row"] > 0], len(entries))
    assert lower.origin_y == comp.origin_y + 24 * comp.pixel_size
    assert lower.data[0].tobytes() == mosaic(preds)[24:].tobytes()
    for n in (1, 2):
        for kept in itertools.combinations(range(3), n):
            part = read_mosaic([e["prob"] for e in entries
                                         if e["tile_row"] in kept],
                                        len(entries))
            want = mosaic(preds)[24 * kept[0]:24 * kept[-1] + 24].copy()
            for row in set(range(kept[0], kept[-1])) - set(kept):
                want[24 * (row - kept[0]):24 * (row - kept[0] + 1)] = -1.0
            assert part.data[0].tobytes() == want.tobytes(), kept


def test_prediction_leaves_the_model_file_unchanged(zone, tmp_path):
    """predict_zone folds and composes the layers into a separate stack;
    the model's GHSM bytes, with non-trivial BatchNorm rows, are kept."""
    net = build_model(PRESETS["desk"], seed=2)
    net.bn1.moving_var[...] = 1.5
    net.bn2.moving_mean[...] = 0.25
    before, after = tmp_path / "before.ghsm", tmp_path / "after.ghsm"
    save_model(net, before)
    predict_zone(net, zone.composite, 37, workers=2)
    save_model(net, after)
    assert after.read_bytes() == before.read_bytes()


def one_term_dense2(net):
    """A copy of net whose dense2 reads hidden unit 0 only."""
    net = copy_model(net, np.float32)
    net.dense2.kernel[:, 1:] = 0.0
    return net


@pytest.fixture(scope="module")
def zone160():
    return synth_zone(SceneParams(size=160, seed=1), zone_id="A").composite


def test_mosaic_across_block_seams():
    """On zones of several blocks each way, tiles that cut through blocks
    give the bytes of the whole-zone tile, with all of dense2's weights,
    on one worker or two, for every preset. (The paper zone is smaller to
    keep the test quick; 130 rows still make three bands.)"""
    for arch, size in ((TINY, 160), (PRESETS["desk"], 160),
                       (PRESETS["paper"], 130)):
        comp = synth_zone(SceneParams(size=size, seed=1), zone_id="A").composite
        net = build_model(replace(arch, bands=comp.bands), seed=0)
        reference = mosaic(predict_zone(net, comp, size), size)
        assert not np.isnan(reference).any()
        for tile, workers in itertools.product((37, 64, 65, 100), (1, 2)):
            got = mosaic(predict_zone(net, comp, tile, workers=workers), size)
            assert got.tobytes() == reference.tobytes(), (arch, tile, workers)


def test_desk_and_tiny_prediction_never_runs_winograd(zone160, monkeypatch):
    def refuse(layer, x):
        raise AssertionError("F(2x2, 3x3) taken")

    monkeypatch.setattr(ConvLayer, "_winograd_forward", refuse)
    for arch in (PRESETS["desk"], replace(TINY, bands=zone160.bands)):
        for pred in predict_zone(build_model(arch, seed=0), zone160, 64):
            assert pred.ok, pred.error
    with pytest.raises(AssertionError, match="taken"):
        run_layers(inference_stack(build_model(PRESETS["paper"], seed=0)),
                   np.zeros((1, 8, 8, 4), np.float32))


def failing_second_band(zone):
    """A _predict_padded that raises for the band of zone rows 64-127."""
    padded, _ = rescale_reflectance(zone)
    second = padded[64:128 + 2 * PATCH_MARGIN]

    def predict(net, window):
        if np.array_equal(window, second):
            raise RuntimeError("band 64 failed")
        return _predict_padded(net, window)

    return predict


@pytest.mark.parametrize("workers", [1, 2])
def test_tile_validity_is_the_composite_mask(zone160, net, workers):
    """Each tile's valid, read from its prob, is its window of the
    composite's mask, and prob is exactly -1 off it, at a tile size that
    cuts through the 64-row bands."""
    mask = zone160.valid_mask()
    assert not mask.all()
    for pred in predict_zone(net, zone160, 37, workers=workers):
        assert pred.ok, pred.error
        t = pred.tile
        window = mask[t.row0:t.row0 + t.rows, t.col0:t.col0 + t.cols]
        assert np.array_equal(pred.valid, window)
        assert np.all(pred.prob[~window] == -1.0)
        assert np.all((pred.prob[window] >= 0.0) & (pred.prob[window] <= 1.0))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_band_fails_only_the_tiles_it_covers(zone160, net,
                                                      monkeypatch, workers):
    clean = predict_zone(net, zone160, 37, workers=workers)
    monkeypatch.setattr(pipeline, "_predict_padded",
                        failing_second_band(zone160))
    got = predict_zone(net, zone160, 37, workers=workers)
    assert [p.tile for p in got] == [p.tile for p in clean]
    for pred, ref in zip(got, clean):
        t = pred.tile
        if t.row0 < 128 and t.row0 + t.rows > 64:  # tile rows 1-3 of 0-4
            assert pred.error == "RuntimeError: band 64 failed"
            assert pred.prob is None and pred.valid is None
        else:
            assert pred.ok, pred.error
            assert pred.prob.tobytes() == ref.prob.tobytes()
            assert np.array_equal(pred.valid, ref.valid)
    assert sum(not p.ok for p in got) == 3 * 5


@pytest.mark.parametrize("workers", [1, 2])
def test_tile_rows_read_from_the_file_are_the_zone_in_memory(
        zone160, net, tmp_path, monkeypatch, workers):
    """predict_tile_rows with a path reads each band's rows from the GHSR
    file and gives the tiles predict_zone gives from the composite in
    memory, one tile row at a time, each as soon as its last band is done
    (on one worker, the bands a row needs and no more)."""
    path = tmp_path / "composite.ghsr"
    raster.write_raster(zone160, path)
    passes = []

    def counting(stack, window):
        passes.append(window.shape[0])
        return _predict_padded(stack, window)

    monkeypatch.setattr(pipeline, "_predict_padded", counting)
    rows, seen = [], []
    for row in pipeline.predict_tile_rows(net, raster.read_header(path), 37,
                                          workers=workers, path=path):
        rows.append(row)
        seen.append(len(passes))
    assert [{p.tile.tile_row for p in row} for row in rows] == \
        [{i} for i in range(5)]
    if workers == 1:  # tile rows end at 37, 74, 111, 148 and 160
        assert seen == [1, 2, 2, 3, 3]
    reference = predict_zone(net, zone160, 37)
    got = [p for row in rows for p in row]
    assert [p.tile for p in got] == [p.tile for p in reference]
    for pred, ref in zip(got, reference):
        assert pred.prob.tobytes() == ref.prob.tobytes()
        assert np.array_equal(pred.valid, ref.valid)


@pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
def test_a_zone_without_pixels_has_no_tiles(net, shape):
    comp = raster.make_grid(np.zeros((4, *shape), np.int16), "i16", -32768)
    for workers in (1, 2):
        assert predict_zone(net, comp, 16, workers=workers) == []


@pytest.mark.parametrize("size", [63, 64, 128, 130])
def test_each_band_is_at_most_one_block_high(size, monkeypatch):
    """predict_zone hands _predict_padded bands of at most PREDICT_BLOCK
    output rows and their halo, whether or not the zone's height is a
    multiple of PREDICT_BLOCK, and the bands cover the zone once."""
    comp = synth_zone(SceneParams(size=size, seed=1), zone_id="A").composite
    net = build_model(replace(TINY, bands=comp.bands), seed=0)
    rows = []

    def spy(stack, window):
        rows.append(window.shape[0] - 2 * PATCH_MARGIN)
        return _predict_padded(stack, window)

    monkeypatch.setattr(pipeline, "_predict_padded", spy)
    predict_zone(net, comp, 37)
    assert max(rows) <= PREDICT_BLOCK and sum(rows) == size


@pytest.mark.parametrize("arch", [TINY, PRESETS["desk"]],
                         ids=["tiny", "desk"])
def test_blocks_equal_one_pass_over_the_window(arch):
    """_predict_padded cuts a window into blocks of at most PREDICT_BLOCK
    columns, its full height each, with a 4-pixel halo; the result is one
    pass of the inference stack over the whole window, bit for bit, at
    sides around and across the block size."""
    assert PREDICT_BLOCK == 64
    stack = inference_stack(one_term_dense2(build_model(arch, seed=3)))
    rng = np.random.default_rng(4)
    for h, w in itertools.product((1, 63, 64, 65, 130), repeat=2):
        window = rng.random((h + 4, w + 4, arch.bands), dtype=np.float32)
        whole = run_layers(stack, window[None])[0]
        np.testing.assert_array_equal(_predict_padded(stack, window), whole,
                                      err_msg=f"{h}x{w}")


def test_training_refuses_a_network_of_other_bands(zone):
    """train_zone checks the composite's bands against arch before it
    samples, as predict_zone does."""
    arch = replace(PRESETS["desk"], bands=zone.composite.bands - 1)
    with pytest.raises(ConfigError, match="bands"):
        pipeline.train_zone(zone.composite, zone.labels, arch,
                            pipeline.TrainingRun("A", epochs=1),
                            pipeline.SamplingConfig())


def test_training_refuses_labels_of_another_size(zone, monkeypatch):
    """train_zone checks the label raster's size against the composite's
    before it rescales the composite, and names both sizes."""
    def fail(composite):
        raise AssertionError("rescaled before the label check")

    monkeypatch.setattr(pipeline.raster, "rescale_reflectance", fail)
    labels = replace(zone.labels, width=SIZE - 4,
                     data=zone.labels.data[..., :SIZE - 4])
    with pytest.raises(ShapeError, match="64 x 60 pixels, the composite "
                                         "64 x 64"):
        pipeline.train_zone(zone.composite, labels, PRESETS["desk"],
                            pipeline.TrainingRun("A", epochs=1),
                            pipeline.SamplingConfig())


@pytest.mark.parametrize("field, value", [
    ("origin_x", 5.0), ("origin_y", -10.0), ("pixel_size", 20.0),
    ("zone_id", "B")])
def test_training_refuses_labels_on_another_grid(zone, monkeypatch, field,
                                                 value):
    """A label raster of the composite's size but another origin, pixel
    size or zone_id is refused as a size mismatch is: before the composite
    is rescaled, naming both values."""
    def fail(composite):
        raise AssertionError("rescaled before the label check")

    monkeypatch.setattr(pipeline.raster, "rescale_reflectance", fail)
    labels = replace(zone.labels, **{field: value})
    with pytest.raises(ShapeError) as caught:
        pipeline.train_zone(zone.composite, labels, PRESETS["desk"],
                            pipeline.TrainingRun("A", epochs=1),
                            pipeline.SamplingConfig())
    message = str(caught.value)
    assert "64 x 64 pixels, the composite 64 x 64" in message
    assert repr(value) in message
    assert repr(getattr(zone.composite, field)) in message


def test_early_stopping_counts_epochs_since_the_best(zone, monkeypatch):
    """Patience counts the epochs since the last improvement, so a later
    improvement starts the count again: with patience 2, validation losses
    that improve at epochs 1, 2 and 4 and stall at 3, 5 and 6 stop training
    after epoch 6, and the model is that of a 4-epoch training."""
    losses = iter([1.0, 0.9, 0.95, 0.8, 0.85, 0.86, 0.87])
    monkeypatch.setattr(pipeline, "_infer_loss", lambda *args: next(losses))
    arch = replace(TINY, bands=zone.composite.bands)
    early = pipeline.EarlyStopping(patience=2)
    net, history, _ = pipeline.train_zone(
        zone.composite, zone.labels, arch,
        pipeline.TrainingRun("A", epochs=7, early_stopping=early),
        pipeline.SamplingConfig())
    assert history.validation_loss == [1.0, 0.9, 0.95, 0.8, 0.85, 0.86]
    assert history.best_epoch == net.epochs_trained == 4
    monkeypatch.undo()
    four, _, _ = pipeline.train_zone(zone.composite, zone.labels, arch,
                                     pipeline.TrainingRun("A", epochs=4),
                                     pipeline.SamplingConfig())
    for got, want in zip(net.serialization_arrays(),
                         four.serialization_arrays()):
        assert got.tobytes() == want.tobytes()


def test_validation_loss_runs_the_inference_stack_in_bounded_batches(zone):
    """_infer_loss feeds the stack's first layer at most one prediction
    block of patches per call, and its loss is the model's inference-mode
    loss, here against the float64 layers run one by one."""
    net = build_model(PRESETS["desk"], seed=0)
    padded, _ = rescale_reflectance(zone.composite)
    rng = np.random.default_rng(0)
    n = 2 * PREDICT_BLOCK ** 2 + 123
    rows, cols = rng.integers(0, SIZE, n), rng.integers(0, SIZE, n)
    labels = rng.integers(0, 2, n).astype(np.uint8)
    stack = inference_stack(net)
    sizes = []
    first = stack[0].forward

    def spy(x):
        sizes.append(x.shape[0])
        return first(x)

    stack[0].forward = spy
    loss = _infer_loss(stack, padded, rows, cols, labels)
    assert max(sizes) <= PREDICT_BLOCK ** 2 and sum(sizes) == n
    patches = gather_patches(padded, rows, cols).astype(np.float64)
    probs = layer_by_layer(copy_model(net), patches)[:, 0, 0]
    reference, _ = bce_loss(labels.astype(np.float64), probs)
    assert abs(loss - reference) <= 1e-5


def test_batchnorm_statistics_are_the_moments_of_their_inference_input(
        zone, monkeypatch):
    """_set_statistics sets each BatchNorm's statistics to the mean and
    population variance of its inference-mode input over the patches:
    those of the float64 layers run one by one, bn2's input taken with
    bn1's new statistics, to float32 rounding (the inputs are tanh
    outputs, so the means are within 16 roundings of 1). Each BatchNorm
    sums chunks of at most STATISTICS_CHUNK rows, mapped by run, and the
    pass returns the stack of the new statistics."""
    net = build_model(PRESETS["desk"], seed=0)
    padded, _ = rescale_reflectance(zone.composite)
    rng = np.random.default_rng(1)
    n = 2 * STATISTICS_CHUNK + 77
    rows, cols = rng.integers(0, SIZE, n), rng.integers(0, SIZE, n)
    patches = gather_patches(padded, rows, cols)
    sizes = []
    batch_statistics = BatchNorm.batch_statistics

    def spy(bn, xs, run=map):
        sizes.append([x.shape[0] for x in xs])
        return batch_statistics(bn, xs, run)

    monkeypatch.setattr(BatchNorm, "batch_statistics", spy)
    with ThreadPoolExecutor(2) as pool:
        stack = _set_statistics(net, patches, pool.map)
    assert sizes == [[STATISTICS_CHUNK, STATISTICS_CHUNK, 77]] * 2
    inputs = batchnorm_inputs(copy_model(net), patches.astype(np.float64))
    for bn, x in zip((net.bn1, net.bn2), inputs):
        flat = x.reshape(-1, bn.channels)
        np.testing.assert_allclose(bn.moving_mean, flat.mean(axis=0),
                                   rtol=0, atol=16 * np.finfo(np.float32).eps)
        np.testing.assert_allclose(bn.moving_var, flat.var(axis=0),
                                   rtol=2e-5)
    for got, want in zip(stack, inference_stack(net)):
        np.testing.assert_array_equal(got.kernel, want.kernel)
        np.testing.assert_array_equal(got.bias, want.bias)


def test_statistics_samples_are_gathered_once_per_training(zone,
                                                           monkeypatch):
    """train_zone gathers the statistics samples' patches once, before the
    first epoch, and every epoch's statistics pass sweeps that one array;
    the pass itself gathers nothing."""
    gathered, swept = [], []

    def spy_gather(padded, rows, cols):
        patches = gather_patches(padded, rows, cols)
        gathered.append(patches)
        return patches

    set_statistics = pipeline._set_statistics

    def spy_statistics(net, patches, *args):
        swept.append(patches)
        before = len(gathered)
        stack = set_statistics(net, patches, *args)
        assert len(gathered) == before
        return stack

    monkeypatch.setattr(pipeline.raster, "gather_patches", spy_gather)
    monkeypatch.setattr(pipeline, "_set_statistics", spy_statistics)
    pipeline.train_zone(zone.composite, zone.labels, PRESETS["desk"],
                        pipeline.TrainingRun(zone_id="A", epochs=2),
                        pipeline.SamplingConfig())
    assert len(swept) == 2 and swept[0] is swept[1]
    assert sum(patches is swept[0] for patches in gathered) == 1
    assert gathered[0] is swept[0]


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(st.sampled_from([0, 1]), min_size=2, max_size=40)
       .filter(lambda labels: 0 < sum(labels) < len(labels)),
       fraction=st.floats(0, 1, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stratified_split_keeps_both_classes_in_training(labels, fraction,
                                                         seed):
    """Train and validation indices are disjoint, sorted and cover every
    sample; validation is never empty, and from 3 samples every class
    keeps a training sample (with 2 of different classes one must be held
    out). The seed fixes the split."""
    labels = np.array(labels, dtype=np.uint8)
    train, val = pipeline._stratified_split(labels, fraction,
                                            np.random.default_rng(seed))
    assert np.all(np.diff(train) > 0) and np.all(np.diff(val) > 0)
    assert np.array_equal(np.sort(np.concatenate([train, val])),
                          np.arange(labels.size))
    assert val.size >= 1
    if labels.size >= 3:
        assert set(labels[train].tolist()) == {0, 1}
    again = pipeline._stratified_split(labels, fraction,
                                       np.random.default_rng(seed))
    assert train.tobytes() == again[0].tobytes()
    assert val.tobytes() == again[1].tobytes()


needs_openblas = pytest.mark.skipif(pipeline._OPENBLAS_THREADS is None,
                                    reason="numpy does not bundle OpenBLAS")


@needs_openblas
@pytest.mark.parametrize("preset, workers",
                         [("desk", 1), ("desk", 2), ("paper", 1)])
def test_tiles_run_on_one_blas_thread(zone160, monkeypatch, preset, workers):
    """Every band's pass sees one OpenBLAS thread, whatever the preset and
    worker count (the 160-row zone has three bands, so two workers run
    concurrently), and predict_zone gives back the count it found."""
    net = build_model(PRESETS[preset], seed=0)
    get, put = pipeline._OPENBLAS_THREADS
    seen = []

    def counting(net, window):
        seen.append(get())
        return _predict_padded(net, window)

    monkeypatch.setattr(pipeline, "_predict_padded", counting)
    before = get()
    put(2)
    try:
        predict_zone(net, zone160, 37, workers=workers)
        assert get() == 2
    finally:
        put(before)
    assert len(seen) == 3 and set(seen) == {1}


@needs_openblas
def test_one_blas_thread_restores_after_the_last_caller_and_on_error():
    get, put = pipeline._OPENBLAS_THREADS
    before = get()
    put(2)
    try:
        with pipeline._one_blas_thread():
            with pipeline._one_blas_thread():
                assert get() == 1
            assert get() == 1  # the outer caller is still running
        assert get() == 2
        with pytest.raises(RuntimeError):
            with pipeline._one_blas_thread():
                raise RuntimeError("tile set-up failed")
        assert get() == 2
    finally:
        put(before)


ZONES = st.sampled_from(["A", "B", "C", "AB"])


@settings(max_examples=100, deadline=None)
@given(calls=st.lists(st.tuples(ZONES, st.text(max_size=8), st.booleans()),
                      max_size=12))
def test_the_registry_holds_the_last_model_of_each_trained_zone(
        tmp_path_factory, calls):
    """After record_model(zone, path) calls, each with a relative path or
    that path made absolute, registered_model(z) is the absolute path last
    recorded for z, a zone never recorded is a RegistryError, and the
    registry holds exactly the recorded zones, each with its path alone."""
    path = tmp_path_factory.mktemp("registry") / "registry.json"
    last = {}
    for zone, model_path, absolute in calls:
        if absolute:
            model_path = os.path.abspath(model_path)
        pipeline.record_model(path, zone, model_path)
        last[zone] = os.path.abspath(model_path)
    assert pipeline.read_registry(path) == {
        zone: {"model_path": p} for zone, p in last.items()}
    for zone in ["A", "B", "C", "AB"]:
        if zone in last:
            assert pipeline.registered_model(path, zone) == last[zone]
        else:
            with pytest.raises(RegistryError):
                pipeline.registered_model(path, zone)


def test_a_registry_entry_of_the_old_format_still_resolves(tmp_path):
    """Entries that also carry mode and source_zone_id, as registries
    written before them did, resolve to their model_path, and recording
    another zone keeps them."""
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"A": {
        "model_path": "/models/A.ghsm", "mode": "close_range",
        "source_zone_id": "A"}}), encoding="utf-8")
    assert pipeline.registered_model(path, "A") == "/models/A.ghsm"
    pipeline.record_model(path, "B", tmp_path / "B.ghsm")
    assert pipeline.registered_model(path, "A") == "/models/A.ghsm"
    assert pipeline.registered_model(path, "B") == str(tmp_path / "B.ghsm")
