"""The command-line pipeline end to end on a small synthetic zone pair."""

import argparse
import hashlib
import json
import struct
from dataclasses import replace

import pytest

from builtup import (cli, errors, evaluation, model as model_mod, pipeline,
                     raster, synth)


def run(*argv):
    return cli.main([str(a) for a in argv])


def strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def load(path):
    """Parse a JSON file the CLI wrote, failing on NaN and Infinity."""
    with open(path, encoding="utf-8") as f:
        return json.load(f, parse_constant=strict_constant)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """synth two 64x64 zones and train zone A for one epoch."""
    root = tmp_path_factory.mktemp("cli")
    data, model = root / "data", root / "models" / "A.ghsm"
    registry = root / "registry.json"
    assert run("synth", "--out", data, "--zones", 2, "--size", 64) == 0
    assert run("train", "--zone", "A", "--data", data, "--out", model,
               "--epochs", 1, "--registry", registry) == 0
    return root, data, model, registry


def test_commands_exit_zero_with_ok_manifests(trained, capsys):
    root, data, model, registry = trained
    assert run("predict", "--zone", "A", "--data", data, "--model", model,
               "--out", root / "pred_A") == 0
    assert run("evaluate", "--probs", root / "pred_A", "--reference",
               data / "A", "--report", root / "reports" / "A.json") == 0
    assert run("transfer", "--zone", "B", "--source-zone", "A", "--data",
               data, "--registry", registry, "--out", root / "pred_B") == 0
    assert run("inspect", model) == 0
    assert "zone_id: A" in capsys.readouterr().out

    manifests = {
        "synth": data / "synth_manifest.json",
        "train": model.parent / "A.train_manifest.json",
        "predict": root / "pred_A" / "predict_manifest.json",
        "evaluate": root / "reports" / "A.evaluate_manifest.json",
        "transfer": root / "pred_B" / "transfer_manifest.json",
    }
    for command, path in manifests.items():
        info = load(path)
        assert info["command"] == command
        assert info["status"] == "ok" and info["error"] is None
        assert "func" not in info["config"]
    for info in map(load, manifests.values()):
        assert info["peak_rss_mb"] > 0
    for command in ("predict", "transfer"):
        assert load(manifests[command])["predict_px_per_s"] > 0
    assert load(manifests["predict"])["tiles_failed"] == 0
    for command in ("predict", "transfer"):
        assert load(manifests[command])["workers"] >= 1
    train = load(manifests["train"])
    assert train["train_samples_per_s"] > 0
    assert train["workers"] == min(pipeline.usable_cpus(), 2)
    assert load(manifests["transfer"])["transfer"]["mode"] == "far_range"
    assert "thresholds" in load(root / "reports" / "A.json")

    assert load(registry) == {
        "A": {"model_path": str(model), "mode": "close_range",
              "source_zone_id": "A"},
    }


def test_maps_match_the_model_training_optimised(tmp_path):
    """BatchNorm keeps the population statistics of the training samples,
    so inference-mode outputs match the trained model: on the CLI scene
    (128 x 128 here) desk's validation loss in inference mode falls every
    epoch, and the map of the zone is not all built up (kappa 0.86 at 0.5
    when this was written; 0.006 with moving averages)."""
    data, model = tmp_path / "data", tmp_path / "A.ghsm"
    assert run("synth", "--out", data, "--size", 128) == 0
    assert run("train", "--zone", "A", "--data", data, "--out", model,
               "--epochs", 3) == 0
    losses = load(tmp_path / "A.history.json")["validation_loss"]
    assert len(losses) == 3 and losses[0] > losses[1] > losses[2]
    assert run("predict", "--zone", "A", "--data", data, "--model", model,
               "--out", tmp_path / "pred") == 0
    assert run("evaluate", "--probs", tmp_path / "pred", "--reference",
               data / "A", "--report", tmp_path / "A.json") == 0
    assert load(tmp_path / "A.json")["thresholds"]["0.5"]["kappa"] >= 0.65


def test_early_stopping_keeps_the_best_epoch(trained, tmp_path):
    """A min-delta of 1.0 stops training after epoch 2, which improves on
    epoch 1 by less; the model is then epoch 1's, byte for byte the model
    of a 1-epoch training, and the history and the train manifest name
    the epoch it holds, the manifest with that epoch's losses."""
    _, data, _, _ = trained
    stopped, one = tmp_path / "stopped.ghsm", tmp_path / "one.ghsm"
    assert run("train", "--zone", "A", "--data", data, "--out", stopped,
               "--epochs", 4, "--early-stop-patience", 1,
               "--early-stop-min-delta", 1.0, "--seed", 3) == 0
    assert run("train", "--zone", "A", "--data", data, "--out", one,
               "--epochs", 1, "--seed", 3) == 0
    history = load(tmp_path / "stopped.history.json")
    assert len(history["train_loss"]) == 2 and history["best_epoch"] == 1
    assert load(tmp_path / "one.history.json")["best_epoch"] == 1
    assert model_mod.read_model_header(stopped)["epochs_trained"] == 1
    assert stopped.read_bytes() == one.read_bytes()
    manifest = load(tmp_path / "stopped.train_manifest.json")
    assert manifest["best_epoch"] == 1
    assert manifest["final_train_loss"] == history["train_loss"][0]
    assert manifest["final_validation_loss"] == history["validation_loss"][0]
    assert history["validation_loss"][1] != history["validation_loss"][0]


def test_failed_tiles_are_recorded_in_the_manifest(trained, tmp_path,
                                                  monkeypatch):
    """A band that raises fails its tiles: predict still exits 0, and the
    manifest records each such tile with its error and no raster."""
    _, data, model, _ = trained

    def fail(net, window):
        raise RuntimeError("band failed")

    monkeypatch.setattr(pipeline, "_predict_padded", fail)
    out = tmp_path / "pred"
    assert run("predict", "--zone", "A", "--data", data, "--model", model,
               "--out", out, "--tile-size", 32) == 0
    info = load(out / "predict_manifest.json")
    assert info["tiles_failed"] == len(info["tiles"]) == 4
    for tile in info["tiles"]:
        assert tile["status"] == "error"
        assert tile["error"] == "RuntimeError: band failed"
    assert not list(out.glob("*.ghsr"))


def test_evaluate_reads_tiles_next_to_the_manifest(trained, tmp_path,
                                                   monkeypatch):
    """The manifest names tiles as given to predict (here relative to its
    working directory); evaluate run from elsewhere still finds them."""
    _, data, model, _ = trained
    monkeypatch.chdir(tmp_path)
    assert run("predict", "--zone", "A", "--data", data, "--model", model,
               "--out", "pred") == 0
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert run("evaluate", "--probs", tmp_path / "pred", "--reference",
               data / "A", "--report", "r.json") == 0
    assert "thresholds" in load(tmp_path / "elsewhere" / "r.json")


def drop_a_tile(pred, ref):
    next(pred.glob("*_prob.ghsr")).unlink()


def list_no_tiles(pred, ref):
    info = load(pred / "predict_manifest.json")
    info["tiles"] = []
    (pred / "predict_manifest.json").write_text(json.dumps(info),
                                                encoding="utf-8")


def tiles_not_a_list(pred, ref):
    info = load(pred / "predict_manifest.json")
    info["tiles"] = 5
    (pred / "predict_manifest.json").write_text(json.dumps(info),
                                                encoding="utf-8")


def manifest_is_a_directory(pred, ref):
    (pred / "predict_manifest.json").unlink()
    (pred / "predict_manifest.json").mkdir()


def corrupt_footprints(pred, ref):
    (ref / "footprints.json").write_text('{"rects": [', encoding="utf-8")


def manifest_not_json(pred, ref):
    (pred / "predict_manifest.json").write_text('{"tiles": [',
                                                encoding="utf-8")


def edit_tile(**fields):
    def damage(pred, ref):
        info = load(pred / "predict_manifest.json")
        info["tiles"][1].update(fields)
        (pred / "predict_manifest.json").write_text(json.dumps(info),
                                                    encoding="utf-8")
    return damage


def fail_every_tile(pred, ref):
    info = load(pred / "predict_manifest.json")
    for tile in info["tiles"]:
        tile.update(status="error", error="RuntimeError: band failed")
    (pred / "predict_manifest.json").write_text(json.dumps(info),
                                                encoding="utf-8")


def fail_every_tile_without_pixel_size(pred, ref):
    fail_every_tile(pred, ref)
    footprints = load(ref / "footprints.json")
    del footprints["pixel_size"]
    (ref / "footprints.json").write_text(json.dumps(footprints),
                                         encoding="utf-8")


def shift_tile_header(origin_x=0.0, origin_y=0.0, zone_id=None):
    """Move tile 1's raster origin by (origin_x, origin_y) metres, or
    relabel its zone."""
    def damage(pred, ref):
        path = sorted(pred.glob("*_prob.ghsr"))[1]
        grid = raster.read_raster(path)
        raster.write_raster(replace(
            grid, origin_x=grid.origin_x + origin_x,
            origin_y=grid.origin_y + origin_y,
            zone_id=grid.zone_id if zone_id is None else zone_id), path)
    return damage


def tall_tile_header(pred, ref):
    """Tile 1's header claims 10**9 rows; its payload is untouched."""
    path = sorted(pred.glob("*_prob.ghsr"))[1]
    raw = bytearray(path.read_bytes())
    raw[12:16] = struct.pack("<I", 10 ** 9)
    path.write_bytes(bytes(raw))


def nan_in_a_tile(pred, ref):
    """A NaN probability would score as r NaN in the report."""
    path = sorted(pred.glob("*_prob.ghsr"))[1]
    grid = raster.read_raster(path)
    grid.data[0, 3, 3] = float("nan")
    raster.write_raster(grid, path)


def tiles_at_10_4_m(pred, ref):
    """Every tile rewritten at 10.4 m pixels, its origin scaled to match:
    the tiles are still whole pixels apart, but a pixel is no whole number
    of the reference's 1 m fine cells."""
    for path in pred.glob("*_prob.ghsr"):
        grid = raster.read_raster(path)
        scale = 10.4 / grid.pixel_size
        raster.write_raster(replace(
            grid, pixel_size=10.4, origin_x=grid.origin_x * scale,
            origin_y=grid.origin_y * scale), path)


def bad_tile_magic(pred, ref):
    """Tile 1 starts XXXX instead of GHSR."""
    path = sorted(pred.glob("*_prob.ghsr"))[1]
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])


# What the error message of a damage names, where that is pinned.
NAMED_IN_ERROR = {tall_tile_header: "tile_000_001_prob.ghsr",
                  bad_tile_magic: "tile_000_001_prob.ghsr",
                  tiles_at_10_4_m: "pixel size 10.4 m"}


@pytest.mark.parametrize("damage, code, error_class", [
    (drop_a_tile, 3, "missing_input"),
    (list_no_tiles, 4, "format"),
    (tiles_not_a_list, 4, "format"),
    (manifest_is_a_directory, 4, "format"),
    (corrupt_footprints, 4, "format"),
    (manifest_not_json, 4, "format"),
    (fail_every_tile, 10, "undefined_statistic"),
    (fail_every_tile_without_pixel_size, 10, "undefined_statistic"),
    (shift_tile_header(origin_x=5.0), 4, "format"),
    (shift_tile_header(zone_id="B"), 4, "format"),
    (nan_in_a_tile, 4, "format"),
    (shift_tile_header(origin_y=1e13), 4, "format"),
    (tall_tile_header, 4, "format"),
    (bad_tile_magic, 4, "format"),
    (tiles_at_10_4_m, 10, "metric"),
], ids=["missing_tile", "no_tiles", "tiles_5", "manifest_directory",
        "corrupt_footprints", "manifest_not_json",
        "no_ok_tile", "no_ok_tile_nor_pixel_size", "tile_off_the_grid",
        "tiles_of_two_zones", "nan_in_a_tile", "tile_origin_y_1e13",
        "tile_height_1e9", "tile_magic_xxxx", "tiles_at_10_4_m"])
def test_evaluate_damaged_inputs_exit_typed(trained, tmp_path, damage, code,
                                            error_class):
    _, data, model, _ = trained
    pred, ref = tmp_path / "pred", tmp_path / "ref"
    assert run("predict", "--zone", "A", "--data", data, "--model", model,
               "--out", pred, "--tile-size", 32) == 0
    ref.mkdir()
    (ref / "footprints.json").write_bytes(
        (data / "A" / "footprints.json").read_bytes())
    damage(pred, ref)
    assert run("evaluate", "--probs", pred, "--reference", ref,
               "--report", tmp_path / "r.json") == code
    info = load(tmp_path / "r.evaluate_manifest.json")
    assert info["status"] == "error" and info["error"]["class"] == error_class
    assert NAMED_IN_ERROR.get(damage, "") in info["error"]["message"]


def test_a_failed_tile_does_not_size_the_mosaic(trained, tmp_path):
    """A failed tile's entry has no raster to check its extent against, so
    rows 10**12 on it change nothing: the report is that of its honest
    extent."""
    _, data, model, _ = trained
    reports = []
    for rows in (32, 10 ** 12):
        pred, report = tmp_path / f"pred_{rows}", tmp_path / f"r_{rows}.json"
        assert run("predict", "--zone", "A", "--data", data, "--model", model,
                   "--out", pred, "--tile-size", 32) == 0
        edit_tile(status="error", rows=rows)(pred, None)
        assert run("evaluate", "--probs", pred, "--reference", data / "A",
                   "--report", report) == 0
        assert load(tmp_path / f"r_{rows}.evaluate_manifest.json")[
            "status"] == "ok"
        reports.append(load(report))
    assert reports[0] == reports[1]


def drop_row0(tile):
    del tile["row0"]


def nonsense_geometry(tile):
    tile.update(row0=10 ** 12, col0=-1, rows=0, cols="x")


@pytest.mark.parametrize("edit", [
    drop_row0,
    lambda tile: tile.update(rows=31),
    lambda tile: tile.update(row0=-5),
    lambda tile: tile.update(cols=0),
    lambda tile: tile.update(row0=10 ** 12),
    nonsense_geometry,
], ids=["tile_without_row0", "tile_rows_not_its_raster", "negative_row0",
        "zero_cols", "row0_1e12", "every_field"])
def test_manifest_tile_geometry_is_not_read(trained, tmp_path, edit):
    """Each tile raster's header places it, so row0/col0/rows/cols of the
    ok entries, here edited on every one of them (row0 10**12 once ran
    evaluate out of memory), leave the report byte-identical."""
    _, data, model, _ = trained
    pred = tmp_path / "pred"
    assert run("predict", "--zone", "A", "--data", data, "--model", model,
               "--out", pred, "--tile-size", 32) == 0
    assert run("evaluate", "--probs", pred, "--reference", data / "A",
               "--report", tmp_path / "honest.json") == 0
    info = load(pred / "predict_manifest.json")
    for tile in info["tiles"]:
        if tile["status"] == "ok":
            edit(tile)
    (pred / "predict_manifest.json").write_text(json.dumps(info),
                                                encoding="utf-8")
    assert run("evaluate", "--probs", pred, "--reference", data / "A",
               "--report", tmp_path / "edited.json") == 0
    assert (tmp_path / "edited.json").read_bytes() == \
        (tmp_path / "honest.json").read_bytes()


def test_an_offset_zone_scores_as_at_the_origin(tmp_path):
    """predict -> evaluate on a zone whose origin is (123.45, 678.9), with
    footprints in its metres, reports what the same zone at the origin
    does."""
    zone = synth.synth_zone(synth.SceneParams(size=64, seed=3), zone_id="A")
    data = tmp_path / "data"
    synth.save_zone(zone, data / "origin")
    dx, dy = 123.45, 678.9
    synth.save_zone(synth.Zone(
        zone_id="A",
        composite=replace(zone.composite, origin_x=dx, origin_y=dy),
        labels=replace(zone.labels, origin_x=dx, origin_y=dy),
        footprints=[(x0 + dx, y0 + dy, x1 + dx, y1 + dy)
                    for x0, y0, x1, y1 in zone.footprints]), data / "offset")
    model = tmp_path / "A.ghsm"
    assert run("train", "--zone", "origin", "--data", data, "--out", model,
               "--epochs", 1) == 0
    for name in ("origin", "offset"):
        assert run("predict", "--zone", name, "--data", data, "--model",
                   model, "--out", tmp_path / name, "--tile-size", 32) == 0
        assert run("evaluate", "--probs", tmp_path / name, "--reference",
                   data / name, "--report", tmp_path / f"{name}.json") == 0
    assert load(data / "offset" / "footprints.json")["origin_x"] == dx
    assert (tmp_path / "offset.json").read_bytes() == \
        (tmp_path / "origin.json").read_bytes()


def test_evaluate_creates_the_csv_directory(trained, predicted, tmp_path):
    _, data, _, _ = trained
    csv_path = tmp_path / "nodir" / "x.csv"
    assert run("evaluate", "--probs", predicted, "--reference", data / "A",
               "--report", tmp_path / "r.json", "--csv", csv_path) == 0
    assert csv_path.read_text(encoding="utf-8").startswith("aoi_id,r,")


def test_evaluate_manifest_hashes_what_it_scored(trained, predicted,
                                                 tmp_path):
    """evaluate's inputs are the prediction manifest, every tile it read
    and the footprints, each with its sha256."""
    _, data, _, _ = trained
    assert run("evaluate", "--probs", predicted, "--reference", data / "A",
               "--report", tmp_path / "r.json") == 0
    read = [predicted / "predict_manifest.json",
            *sorted(predicted.glob("*_prob.ghsr")),
            data / "A" / "footprints.json"]
    assert load(tmp_path / "r.evaluate_manifest.json")["inputs"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in read}


@pytest.mark.parametrize("band_pixels", [64 * 10, None],
                         ids=["10_row_bands", "one_band"])
def test_evaluation_bands_do_not_follow_the_tiles(trained, tmp_path,
                                                  monkeypatch, band_pixels):
    """evaluate reads the tiles in zone-aligned bands of a fixed pixel
    count, whatever the tile size: the tile-48 and tile-256 predictions of
    one zone give byte-equal reports, with 10-row bands that cut the
    48-row tiles and with the default, one band for the 64 x 64 zone."""
    _, data, model, _ = trained
    if band_pixels is not None:
        monkeypatch.setattr(evaluation, "EVAL_BAND_PIXELS", band_pixels)
    reports = []
    for tile in (48, 256):
        pred, report = tmp_path / f"pred{tile}", tmp_path / f"r{tile}.json"
        assert run("predict", "--zone", "A", "--data", data, "--model",
                   model, "--out", pred, "--tile-size", tile) == 0
        assert run("evaluate", "--probs", pred, "--reference", data / "A",
                   "--report", report) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


OUTPUT_CASES = ["registry_in_a_new_directory", "train_out_is_a_directory",
                "synth_out_is_a_file", "predict_out_is_a_file",
                "report_under_a_file", "synth_manifest_is_a_directory",
                "train_manifest_is_a_directory",
                "predict_manifest_is_a_directory",
                "transfer_manifest_is_a_directory",
                "evaluate_manifest_is_a_directory", "history_is_a_directory",
                "synth_zone_is_a_file", "registry_lock_is_a_directory",
                "tile_is_a_directory", "zone_file_is_a_directory"]


@pytest.mark.parametrize("case", OUTPUT_CASES)
def test_outputs_are_made_or_refused_before_any_work(
        trained, predicted, tmp_path, monkeypatch, capsys, case):
    """A registry in a new directory is written, as --out and --csv are.
    An output whose place a file or a directory holds, the command's own
    manifest included, is a config error naming it, raised before the
    command's work (which here would fail), with a manifest wherever the
    manifest can be written, and nothing else is made."""
    _, data, model, registry = trained
    if case == "registry_in_a_new_directory":
        registry, out = tmp_path / "nodir" / "reg.json", tmp_path / "A.ghsm"
        assert run("train", "--zone", "A", "--data", data, "--out", out,
                   "--epochs", 1, "--registry", registry) == 0
        assert load(registry)["A"]["model_path"] == str(out)
        return

    def work(*args, **kwargs):
        raise AssertionError("the command's work ran")

    for module, name in ((pipeline, "train_zone"),
                         (pipeline, "predict_tile_rows"),
                         (synth, "synth_zone"), (cli, "_prediction_tiles")):
        monkeypatch.setattr(module, name, work)
    taken, out = tmp_path / "taken", tmp_path / "out"
    train = ["train", "--zone", "A", "--data", data, "--out"]
    predict = ["predict", "--zone", "A", "--data", data, "--model", model,
               "--out"]
    transfer = ["transfer", "--zone", "B", "--source-zone", "A", "--data",
                data, "--registry", registry, "--out"]
    evaluate = ["evaluate", "--probs", predicted, "--reference", data / "A",
                "--report"]
    # (argv, the path taken, whether a directory takes it, the manifest)
    argv, taken, directory, manifest = {
        "train_out_is_a_directory": (
            train + [taken], taken, True,
            tmp_path / "taken.train_manifest.json"),
        "synth_out_is_a_file": (["synth", "--out", taken], taken, False, None),
        "predict_out_is_a_file": (predict + [taken], taken, False, None),
        "report_under_a_file": (evaluate + [taken / "r.json"], taken, False,
                                None),
        "synth_manifest_is_a_directory": (
            ["synth", "--out", out], out / "synth_manifest.json", True, None),
        "train_manifest_is_a_directory": (
            train + [out / "A.ghsm"], out / "A.train_manifest.json", True,
            None),
        "predict_manifest_is_a_directory": (
            predict + [out], out / "predict_manifest.json", True, None),
        "transfer_manifest_is_a_directory": (
            transfer + [out], out / "transfer_manifest.json", True, None),
        "evaluate_manifest_is_a_directory": (
            evaluate + [out / "r.json"], out / "r.evaluate_manifest.json",
            True, None),
        "history_is_a_directory": (
            train + [out / "A.ghsm"], out / "A.history.json", True,
            out / "A.train_manifest.json"),
        "synth_zone_is_a_file": (
            ["synth", "--out", out], out / "A", False,
            out / "synth_manifest.json"),
        "registry_lock_is_a_directory": (
            train + [out / "A.ghsm", "--registry", out / "reg.json"],
            out / "reg.json.lock", True, out / "A.train_manifest.json"),
        "tile_is_a_directory": (
            predict + [out, "--tile-size", 32], out / "tile_000_000_prob.ghsr",
            True, out / "predict_manifest.json"),
        "zone_file_is_a_directory": (
            ["synth", "--out", out], out / "A" / "composite.ghsr", True,
            out / "synth_manifest.json"),
    }[case]
    if directory:
        taken.mkdir(parents=True)
    else:
        taken.parent.mkdir(parents=True, exist_ok=True)
        taken.write_text("kept", encoding="utf-8")
    capsys.readouterr()
    assert run(*argv) == 5
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and str(taken) in err
    if manifest is not None:
        assert load(manifest)["error"]["message"] == \
            err[len("error[config]: "):].rstrip("\n")
    if directory:
        assert not any(taken.iterdir())
    else:
        assert taken.read_text(encoding="utf-8") == "kept"
    made = {taken, manifest, *taken.parents} - {None}
    assert set(tmp_path.rglob("*")) == {p for p in made
                                        if tmp_path in p.parents}


def test_trainings_that_share_a_registry_keep_both_entries(
        trained, tmp_path, monkeypatch):
    """A training records its zone in the registry as it is when training
    ends: a second training that records zone B while the first is still
    training zone A keeps its entry."""
    _, data, _, _ = trained
    registry = tmp_path / "registry.json"
    models = {zone: tmp_path / f"{zone}.ghsm" for zone in "AB"}
    train_zone = pipeline.train_zone

    def train_b_meanwhile(*args, **kwargs):
        monkeypatch.setattr(pipeline, "train_zone", train_zone)
        assert run("train", "--zone", "B", "--data", data, "--out",
                   models["B"], "--epochs", 1, "--registry", registry) == 0
        return train_zone(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train_zone", train_b_meanwhile)
    assert run("train", "--zone", "A", "--data", data, "--out", models["A"],
               "--epochs", 1, "--registry", registry) == 0
    assert {zone: entry["model_path"] for zone, entry in
            load(registry).items()} == {z: str(p) for z, p in models.items()}


def test_a_nan_parameter_is_a_format_error(trained, tmp_path):
    """A GHSM with a NaN weight would map NaN probabilities; predict
    refuses it and records the failure."""
    _, data, model, _ = trained
    raw = bytearray(model.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    bad = tmp_path / "nan.ghsm"
    bad.write_bytes(bytes(raw))
    assert run("predict", "--zone", "A", "--data", data, "--model", bad,
               "--out", tmp_path / "pred") == 4
    info = load(tmp_path / "pred" / "predict_manifest.json")
    assert info["status"] == "error" and info["error"]["class"] == "format"


def test_the_model_header_is_strict_json(trained):
    _, _, model, _ = trained
    raw = model.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen], parse_constant=strict_constant)
    assert header["arch"]["normalization_divisor"] == 10000.0


# Every option of every subcommand, by dest. An option added or dropped is
# a change to the CLI's surface, made here on purpose.
OPTIONS = {
    "synth": ["clusters", "nodata_fraction", "noise_sigma", "out", "seed",
              "size", "zones"],
    "train": ["batch_size", "data", "early_stop_min_delta",
              "early_stop_patience", "epochs", "learning_rate",
              "non_bu_rate", "out", "preset", "registry", "seed",
              "tile_fraction", "tile_size", "validation_fraction",
              "water_zone", "zone"],
    "predict": ["data", "model", "out", "tile_size", "zone"],
    "transfer": ["data", "out", "registry", "source_zone", "tile_size",
                 "zone"],
    "evaluate": ["csv", "probs", "reference", "report", "thresholds"],
    "inspect": ["path"],
}


def test_option_surface_is_pinned():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    dests = {name: sorted(a.dest for a in sub._actions if a.dest != "help")
             for name, sub in commands.choices.items()}
    assert dests == OPTIONS
    assert sum(map(len, dests.values())) == 40


@pytest.fixture(scope="module")
def predicted(trained):
    root, data, model, _ = trained
    pred = root / "pred_for_footprints"
    assert run("predict", "--zone", "A", "--data", data, "--model", model,
               "--out", pred) == 0
    return pred


@pytest.mark.parametrize("edit", [
    {"rects": [[0, 0, "x", 5]]},
    {"rects": 5},
    {"rects": [[0, 0, 5]]},
    {"rects": [[0, 0, True, 5]]},
    {"origin_x": "a"},
    {"origin_y": None},
    {"pixel_size": 0},
], ids=["string_coordinate", "rects_not_a_list", "three_coordinates",
        "bool_coordinate", "string_origin_x", "null_origin_y",
        "zero_pixel_size"])
def test_malformed_footprints_are_format_errors(trained, predicted, tmp_path,
                                                edit):
    _, data, _, _ = trained
    footprints = load(data / "A" / "footprints.json")
    footprints.update(edit)
    ref = tmp_path / "ref"
    ref.mkdir()
    (ref / "footprints.json").write_text(json.dumps(footprints),
                                         encoding="utf-8")
    assert run("evaluate", "--probs", predicted, "--reference", ref,
               "--report", tmp_path / "r.json") == 4
    info = load(tmp_path / "r.evaluate_manifest.json")
    assert info["status"] == "error" and info["error"]["class"] == "format"


def ghsm_with_header(model, path, edit):
    """Copy of the GHSM file model, with edit applied to its JSON header."""
    raw = model.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:4] + struct.pack("<I", len(text)) + text
                     + raw[8 + hlen:])
    return path


def ghsr_with_bad_zone_id(data, path):
    raw = bytearray((data / "A" / "labels.ghsr").read_bytes())
    raw[48] = 0xFF
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("case", ["zone_id_0xff", "no_arch",
                                  "fractional_hidden_units", "directory",
                                  "model_directory", "huge_hidden_units"])
def test_corrupt_headers_are_format_errors(trained, tmp_path, case):
    _, data, model, _ = trained
    if case == "zone_id_0xff":
        argv = ["inspect", ghsr_with_bad_zone_id(data, tmp_path / "l.ghsr")]
    elif case == "directory":
        argv = ["inspect", tmp_path]
    elif case == "model_directory":
        argv = ["predict", "--zone", "A", "--data", data, "--model", tmp_path,
                "--out", tmp_path / "pred"]
    else:
        edit = {"no_arch": lambda h: h.pop("arch"),
                "fractional_hidden_units":
                    lambda h: h["arch"].update(hidden_units=1.8),
                "huge_hidden_units":
                    lambda h: h["arch"].update(hidden_units=10 ** 12)}[case]
        bad = ghsm_with_header(model, tmp_path / "m.ghsm", edit)
        argv = ["predict", "--zone", "A", "--data", data, "--model", bad,
                "--out", tmp_path / "pred"]
    assert run(*argv) == 4
    if argv[0] == "predict":
        info = load(tmp_path / "pred" / "predict_manifest.json")
        assert info["status"] == "error"
        assert info["error"]["class"] == "format"
        assert str(argv[argv.index("--model") + 1]) in info["error"]["message"]


@pytest.mark.parametrize("field, value", [("bands", 0), ("patch_size", 7),
                                          ("dropout_rate", 0.5),
                                          ("normalization_divisor", 1.0),
                                          ("block_filters", [8])],
                         ids=["bands_0", "patch_size_7", "dropout_rate_0.5",
                              "normalization_divisor_1", "one_block_filter"])
def test_a_damaged_arch_is_a_format_error_naming_the_file(
        trained, tmp_path, capsys, field, value):
    """A GHSM whose arch ArchitectureConfig refuses, or whose constants
    differ from the network's, is a damaged file: predict and inspect
    exit 4 and name it."""
    _, data, model, _ = trained
    bad = ghsm_with_header(model, tmp_path / "m.ghsm",
                           lambda h: h["arch"].update({field: value}))
    capsys.readouterr()
    assert run("inspect", bad) == 4
    assert run("predict", "--zone", "A", "--data", data, "--model", bad,
               "--out", tmp_path / "pred") == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line in err:
        assert line.startswith(f"error[format]: model file {bad}: ")
        assert "arch" in line
    info = load(tmp_path / "pred" / "predict_manifest.json")
    assert info["error"]["class"] == "format"
    assert info["error"]["message"] == err[1][len("error[format]: "):]


def test_train_sizes_the_network_for_the_composite_bands(trained, tmp_path):
    """A 3-band zone trains a 3-band model, which a 4-band zone then does
    not fit: a config error before any tile is predicted."""
    _, data, _, _ = trained
    zone = tmp_path / "three" / "A"
    zone.mkdir(parents=True)
    comp = raster.read_raster(data / "A" / "composite.ghsr")
    raster.write_raster(replace(comp, bands=3, data=comp.data[:3]),
                        zone / "composite.ghsr")
    (zone / "labels.ghsr").write_bytes(
        (data / "A" / "labels.ghsr").read_bytes())
    model = tmp_path / "three.ghsm"
    assert run("train", "--zone", "A", "--data", tmp_path / "three",
               "--out", model, "--epochs", 1) == 0
    assert model_mod.read_model_header(model)["arch"]["bands"] == 3
    assert run("predict", "--zone", "A", "--data", data, "--model", model,
               "--out", tmp_path / "pred") == 5
    info = load(tmp_path / "pred" / "predict_manifest.json")
    assert info["status"] == "error" and info["error"]["class"] == "config"


def test_evaluate_refuses_another_zones_reference(trained, tmp_path):
    """Synth zones share origin and pixel size, so only the footprints'
    aoi_id tells B's tiles from A's: against A's reference they are a
    config error, against B's they score."""
    _, data, model, _ = trained
    assert run("predict", "--zone", "B", "--data", data, "--model", model,
               "--out", tmp_path / "pred") == 0
    assert run("evaluate", "--probs", tmp_path / "pred", "--reference",
               data / "A", "--report", tmp_path / "A.json") == 5
    info = load(tmp_path / "A.evaluate_manifest.json")
    assert info["status"] == "error" and info["error"]["class"] == "config"
    assert not (tmp_path / "A.json").exists()
    assert run("evaluate", "--probs", tmp_path / "pred", "--reference",
               data / "B", "--report", tmp_path / "B.json") == 0
    assert load(tmp_path / "B.json")["aoi_id"] == "B"


def test_transfer_does_not_register_the_target(trained, tmp_path):
    """A transfer to B leaves B without a model: B <- B is a registry error,
    not a run of A's model recorded as close range."""
    root, data, model, registry = trained
    assert run("transfer", "--zone", "B", "--source-zone", "A", "--data",
               data, "--registry", registry, "--out", tmp_path / "BA") == 0
    info = load(tmp_path / "BA" / "transfer_manifest.json")
    assert set(info["inputs"]) == {str(data / "B" / "composite.ghsr"),
                                   str(model)}
    assert run("transfer", "--zone", "B", "--source-zone", "B", "--data",
               data, "--registry", registry, "--out", tmp_path / "BB") == 9
    info = load(tmp_path / "BB" / "transfer_manifest.json")
    assert info["error"]["class"] == "registry"
    assert set(load(registry)) == {"A"}


def test_failures_exit_with_typed_codes(trained, tmp_path):
    _, data, model, _ = trained
    failed = tmp_path / "pred_missing"
    assert run("predict", "--zone", "Q", "--data", data, "--model", model,
               "--out", failed) == 3
    info = load(failed / "predict_manifest.json")
    assert info["status"] == "error"
    assert info["error"]["class"] == "missing_input"
    assert info["peak_rss_mb"] > 0

    # evaluating a failed prediction is a format error, not a crash
    assert run("evaluate", "--probs", failed, "--reference", data / "A",
               "--report", tmp_path / "r.json") == 4
    assert load(tmp_path / "r.evaluate_manifest.json")["error"]["class"] == \
        "format"

    corrupt = tmp_path / "corrupt.ghsm"
    corrupt.write_bytes(b"XXXX" + model.read_bytes()[4:])
    assert run("predict", "--zone", "A", "--data", data, "--model", corrupt,
               "--out", tmp_path / "pred_corrupt") == 4
    assert run("inspect", corrupt) == 4
    assert not list(tmp_path.rglob("*.tmp"))


def test_transfer_with_a_deleted_registered_model_is_missing_input(trained,
                                                                   tmp_path):
    """transfer resolves the registered model and then runs predict's path,
    so a deleted model file exits 3 as it does for predict."""
    _, data, _, _ = trained
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"A": {
        "model_path": str(tmp_path / "deleted.ghsm"), "mode": "close_range",
        "source_zone_id": "A"}}), encoding="utf-8")
    assert run("transfer", "--zone", "B", "--source-zone", "A", "--data",
               data, "--registry", registry, "--out", tmp_path / "BA") == 3
    info = load(tmp_path / "BA" / "transfer_manifest.json")
    assert info["error"]["class"] == "missing_input"
    assert info["transfer"]["mode"] == "far_range"


def test_corrupt_registry_is_a_registry_error(trained, tmp_path):
    _, data, _, _ = trained
    registry = tmp_path / "registry.json"
    registry.write_text('{"A": {"model_path": ', encoding="utf-8")
    assert run("transfer", "--zone", "B", "--source-zone", "A", "--data",
               data, "--registry", registry, "--out", tmp_path / "BA") == 9
    assert load(tmp_path / "BA" / "transfer_manifest.json")["error"][
        "class"] == "registry"
    # train reads the registry before it trains, so no model is written
    out = tmp_path / "A.ghsm"
    assert run("train", "--zone", "A", "--data", data, "--out", out,
               "--epochs", 1, "--registry", registry) == 9
    assert load(tmp_path / "A.train_manifest.json")["error"]["class"] == \
        "registry"
    assert not out.exists()


@pytest.mark.parametrize("case", ["directory", "entry_not_an_object",
                                  "no_model_path"])
def test_unusable_registries_are_registry_errors(trained, tmp_path, case):
    """A registry path that is a directory, or an entry without a string
    model_path, exits 9 rather than escaping as an unexpected error."""
    _, data, _, _ = trained
    registry = tmp_path / "registry.json"
    if case == "directory":
        registry.mkdir()
    else:
        entry = 5 if case == "entry_not_an_object" else {"mode": "close_range"}
        registry.write_text(json.dumps({"A": entry}), encoding="utf-8")
    assert run("transfer", "--zone", "B", "--source-zone", "A", "--data",
               data, "--registry", registry, "--out", tmp_path / "BA") == 9
    assert load(tmp_path / "BA" / "transfer_manifest.json")["error"][
        "class"] == "registry"


# (flag, value, the arguments passed with them)
PATIENCE, WATER_ZONE = ("--early-stop-patience", 1), ("--water-zone",)
BAD_TRAINING_ARGUMENTS = [
    ("--batch-size", 0, ()),
    ("--batch-size", 1, ()),
    ("--non-bu-rate", 5, ()),
    ("--learning-rate", -1, ()),
    ("--learning-rate", "inf", ()),
    ("--tile-fraction", 0, ()),
    ("--tile-fraction", 1.5, ()),
    # a water zone ignores the fraction's value, but not its range
    ("--tile-fraction", 0, WATER_ZONE),
    ("--tile-fraction", 7, WATER_ZONE),
    ("--tile-size", 3, ()),
    ("--seed", -1, ()),
    ("--early-stop-patience", 0, ()),
    ("--early-stop-patience", -1, ()),
    ("--early-stop-min-delta", "nan", PATIENCE),
    ("--early-stop-min-delta", "inf", PATIENCE),
    ("--early-stop-min-delta", -1, PATIENCE),
    # a min-delta without a patience would be ignored
    ("--early-stop-min-delta", 0.01, ()),
    ("--early-stop-min-delta", "nan", ()),
]


@pytest.mark.parametrize(
    "flag, value, extra", BAD_TRAINING_ARGUMENTS,
    ids=[f"{flag}-{value}" + ("-water-zone" if extra == WATER_ZONE else
                              "-without-patience" if not extra and
                              flag == "--early-stop-min-delta" else "")
         for flag, value, extra in BAD_TRAINING_ARGUMENTS])
def test_bad_training_arguments_are_config_errors(trained, tmp_path, flag,
                                                  value, extra):
    _, data, _, _ = trained
    out = tmp_path / "A.ghsm"
    assert run("train", "--zone", "A", "--data", data, "--out", out,
               "--epochs", 1, *extra, flag, value) == 5
    assert load(tmp_path / "A.train_manifest.json")["error"]["class"] == \
        "config"
    assert not out.exists()


def test_labels_of_another_size_are_a_shape_error(trained, tmp_path):
    """A 64 x 60 label raster beside a 64 x 64 composite is refused before
    training, naming both sizes."""
    _, data, _, _ = trained
    zone = tmp_path / "data" / "A"
    zone.mkdir(parents=True)
    (zone / "composite.ghsr").write_bytes(
        (data / "A" / "composite.ghsr").read_bytes())
    labels = raster.read_raster(data / "A" / "labels.ghsr")
    raster.write_raster(replace(labels, width=60, data=labels.data[..., :60]),
                        zone / "labels.ghsr")
    out = tmp_path / "A.ghsm"
    assert run("train", "--zone", "A", "--data", tmp_path / "data", "--out",
               out, "--epochs", 1) == 6
    error = load(tmp_path / "A.train_manifest.json")["error"]
    assert error["class"] == "shape"
    assert "64 x 60" in error["message"] and "64 x 64" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--noise-sigma", -1),
    ("--noise-sigma", "nan"),
    ("--noise-sigma", "inf"),
    ("--clusters", -1),
    ("--zones", 0),
    ("--seed", -1),
])
def test_impossible_scenes_are_generation_errors(tmp_path, flag, value):
    out = tmp_path / "data"
    assert run("synth", "--out", out, "--size", 64, flag, value) == 11
    info = load(out / "synth_manifest.json")
    assert info["status"] == "error"
    assert info["error"]["class"] == "generation"
    assert not list(out.glob("*/composite.ghsr"))


@pytest.mark.parametrize("thresholds", ["x", "", "0.2,", "1.5", "-0.1",
                                        "0.2,nan"])
def test_bad_thresholds_are_usage_errors(thresholds, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("evaluate", "--probs", tmp_path, "--reference", tmp_path,
            "--report", tmp_path / "r.json", "--thresholds", thresholds)
    assert exc.value.code == 2
    assert "--thresholds" in capsys.readouterr().err


def test_thresholds_parse_to_probabilities():
    args = cli.build_parser().parse_args(
        ["evaluate", "--probs", "p", "--reference", "r", "--report", "o",
         "--thresholds", "0,0.25,1"])
    assert args.thresholds == [0.0, 0.25, 1.0]
    default = cli.build_parser().parse_args(
        ["evaluate", "--probs", "p", "--reference", "r", "--report", "o"])
    assert default.thresholds == [0.2, 0.5]


@pytest.mark.parametrize("error_class, code", [
    (errors.ToolkitError, 1),
    (errors.MissingInputError, 3),
    (errors.FormatError, 4),
    (errors.ConfigError, 5),
    (errors.ShapeError, 6),
    (errors.NumericError, 7),
    (errors.DegenerateBatchError, 8),
    (errors.DegenerateClassError, 8),
    (errors.RegistryError, 9),
    (errors.UndefinedStatisticError, 10),
    (errors.MetricError, 10),
    (errors.GenerationError, 11),
])
def test_exit_code_of_each_error_class(monkeypatch, error_class, code):
    def fail(args, argv):
        raise error_class("boom")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    assert error_class.exit_code == code
    assert run("inspect", "anything") == code


def test_unexpected_error_exits_one(monkeypatch):
    def fail(args, argv):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    assert run("inspect", "anything") == 1
