"""Tiled prediction over a whole zone, and its 64x64 inference blocks.

Blocks are exact up to dense2: every layer before it gives the same bytes
for a block as for the whole window. dense2's per-pixel dot product over
the hidden units is one BLAS gemv per block, whose rounding of a row
depends on the row count and the row's position (ROADMAP item 1, "tiling
invariance is exact only to 1 ulp"). Row strips, the scheme the blocks
replaced, show the same defect: on 160x160 desk zones, tiles 37, 65 or 129
differ from the whole-zone tile in one pixel by 6e-8 for some zone seeds.
The seam tests therefore read dense2 from one hidden unit
(`one_term_dense2`), whose dot product has one non-zero term and rounds
alike at every size, and bound the defect separately with all of dense2's
weights. The paper preset is left out, as in the model's window test: its
conv2 GEMM also rounds differently at small row counts, and with row
strips tiles 37/65 already differed from the whole 160x160 zone in 7-18
pixels by 6e-8.
"""

import itertools

import numpy as np
import pytest

from builtup import pipeline
from builtup.model import PRESETS, ArchitectureConfig, build_model
from builtup.pipeline import PREDICT_BLOCK, _predict_padded, predict_zone
from builtup.synth import SceneParams, synth_zone

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


def one_term_dense2(net):
    """A copy of net whose dense2 reads hidden unit 0 only."""
    net = net.astype(np.float32)
    net.dense2.kernel[:, 1:] = 0.0
    return net


@pytest.fixture(scope="module")
def zone160():
    return synth_zone(SceneParams(size=160, seed=1), zone_id="A").composite


def test_mosaic_across_block_seams(zone160, net):
    """On a 160x160 zone, tiles larger than one block run several blocks;
    every tiling gives the bytes of the whole-zone tile."""
    exact = one_term_dense2(net)
    reference = mosaic(predict_zone(exact, zone160, 160), 160)
    assert not np.isnan(reference).any()
    for tile in (37, 64, 65, 100):
        got = mosaic(predict_zone(exact, zone160, tile), 160)
        assert got.tobytes() == reference.tobytes(), tile


def test_dense2_rounding_is_bounded_across_block_seams(zone160, net):
    """With all of dense2's weights, tilings differ from the whole-zone
    tile only by dense2's gemv rounding: a few pixels, each by at most
    1.2e-7 (the largest difference ROADMAP item 1 records)."""
    reference = mosaic(predict_zone(net, zone160, 160), 160)
    for tile in (37, 64, 65, 100):
        got = mosaic(predict_zone(net, zone160, tile), 160)
        assert np.count_nonzero(got != reference) <= 8, tile
        np.testing.assert_allclose(got, reference, rtol=0, atol=1.2e-7)


@pytest.mark.parametrize("arch", [TINY, PRESETS["desk"]],
                         ids=["tiny", "desk"])
def test_blocks_equal_one_pass_over_the_window(arch):
    """_predict_padded cuts a window into PREDICT_BLOCK-sided blocks with a
    4-pixel halo; the result is one net.forward over the whole window,
    bit for bit, at sides around and across the block size."""
    assert PREDICT_BLOCK == 64
    net = one_term_dense2(build_model(arch, seed=3))
    rng = np.random.default_rng(4)
    for h, w in itertools.product((1, 63, 64, 65, 130), repeat=2):
        window = rng.random((arch.bands, h + 4, w + 4)).astype(np.float32)
        whole = net.forward(window.transpose(1, 2, 0)[None])[0]
        np.testing.assert_array_equal(_predict_padded(net, window), whole,
                                      err_msg=f"{h}x{w}")


needs_openblas = pytest.mark.skipif(pipeline._OPENBLAS_THREADS is None,
                                    reason="numpy does not bundle OpenBLAS")


@needs_openblas
@pytest.mark.parametrize("preset, workers",
                         [("desk", 1), ("desk", 2), ("paper", 1)])
def test_tiles_run_on_one_blas_thread(zone, monkeypatch, preset, workers):
    """Every tile's pass sees one OpenBLAS thread, whatever the preset and
    worker count, and predict_zone gives back the count it found."""
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
        predict_zone(net, zone.composite, 37, workers=workers)
        assert get() == 2
    finally:
        put(before)
    assert len(seen) == 4 and set(seen) == {1}


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
