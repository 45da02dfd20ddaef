"""Tiled prediction over a whole zone."""

import numpy as np
import pytest

from builtup.model import PRESETS, build_model
from builtup.pipeline import predict_zone
from builtup.synth import SceneParams, synth_zone

SIZE = 64


@pytest.fixture(scope="module")
def zone():
    return synth_zone(SceneParams(size=SIZE, seed=0), zone_id="A")


@pytest.fixture(scope="module")
def net():
    return build_model(PRESETS["desk"], seed=0)


def mosaic(predictions):
    prob = np.full((SIZE, SIZE), np.nan, dtype=np.float32)
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
