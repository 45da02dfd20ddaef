"""CLI predict and evaluate hold row bands of the zone, not the zone.

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
"""

import tracemalloc

import pytest

from builtup import cli, pipeline
from builtup.model import PRESETS, build_model, save_model
from builtup.synth import SceneParams, save_zone, synth_zone

SIZES = (512, 1024)
BOUND_MB = 3.0


@pytest.fixture(scope="module")
def zones(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    save_model(build_model(PRESETS["desk"], seed=0), root / "desk.ghsm")
    for size in SIZES:
        zone = synth_zone(SceneParams(size=size, seed=1), zone_id="A")
        save_zone(zone, root / str(size) / "A")
    return root


def traced_peak_mb(*argv) -> float:
    """Peak traced memory of one in-process CLI command, in MB."""
    tracemalloc.start()
    try:
        assert cli.main([str(a) for a in argv]) == 0
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


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
