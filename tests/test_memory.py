"""CLI predict and evaluate hold row bands of the zone, not the zone;
synth and the GHSR writer hold no whole-zone copy they do not need.

Both commands run in-process under tracemalloc, which sees numpy's
buffers, on a 512 x 512 and a 1024 x 1024 zone with an untrained desk
model. From the smaller zone to the larger, whole-zone arrays grow by
three times their size at 512 x 512: the i16 composite by 6 MB, its
rescaled f32 copy by 12.6 MB, the f32 mosaic by 3 MB. Held whole, they
grew the predict and evaluate peaks by 22 and 23 MB. Bands and tile rows
grow only with the zone's width, the peaks by 1.5 and 0.3 MB when this
was written; the bound is BOUND_MB. One band worker, whatever the
machine's CPUs: with two, the peak moves by megabytes from run to run, as
the workers' block passes may or may not peak together.

synth_zone builds one band at a time in a float64 plane: about 26 bytes
per zone pixel at 512 x 512 (the i16 composite 8, the plane 8 and one
float64 draw, a band's noise or the nodata draw, 8). Four float64 bands
and their noise held at once come to about 97, above the bound
SYNTH_BYTES_PER_PIXEL. write_raster writes the array itself: a bytes copy
of the payload would trace its whole size.
"""

import tracemalloc

import numpy as np
import pytest

from builtup import cli, pipeline, raster
from builtup.model import PRESETS, build_model, save_model
from builtup.synth import SceneParams, save_zone, synth_zone

SIZES = (512, 1024)
BOUND_MB = 3.0
SYNTH_BYTES_PER_PIXEL = 40


@pytest.fixture(scope="module")
def zones(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    save_model(build_model(PRESETS["desk"], seed=0), root / "desk.ghsm")
    for size in SIZES:
        zone = synth_zone(SceneParams(size=size, seed=1), zone_id="A")
        save_zone(zone, root / str(size) / "A")
    return root


def traced_peak(call, *args) -> int:
    """Peak traced memory of one call, in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_cli(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0


def traced_peak_mb(*argv) -> float:
    """Peak traced memory of one in-process CLI command, in MB."""
    return traced_peak(run_cli, *argv) / 2 ** 20


def test_predict_and_evaluate_memory_does_not_grow_with_the_zone(
        zones, monkeypatch):
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
    peaks = {}
    for size in SIZES:
        data, pred = zones / str(size), zones / f"pred{size}"
        peaks[size] = (
            traced_peak_mb("predict", "--zone", "A", "--data", data,
                           "--model", zones / "desk.ghsm", "--out", pred),
            traced_peak_mb("evaluate", "--probs", pred, "--reference",
                           data / "A", "--report", zones / f"r{size}.json"))
    for command, small, large in zip(("predict", "evaluate"), *peaks.values()):
        assert large - small < BOUND_MB, (command, peaks)


def test_synth_zone_builds_one_band_at_a_time():
    size = 512
    peak = traced_peak(synth_zone, SceneParams(size=size, seed=1))
    assert peak <= SYNTH_BYTES_PER_PIXEL * size * size, peak / size ** 2


def test_write_raster_writes_the_array_itself(tmp_path):
    data = np.arange(4 * 1024 * 1024, dtype=np.int16).reshape(4, 1024, 1024)
    grid = raster.make_grid(data, "i16", -32768)
    peak = traced_peak(raster.write_raster, grid, tmp_path / "g.ghsr")
    assert peak < data.nbytes / 4, peak
    assert np.array_equal(raster.read_raster(tmp_path / "g.ghsr").data, data)
