"""Command-line entry point: synth | train | predict | transfer | evaluate
| inspect.

Every executed command writes a JSON run manifest next to its primary
output (flags echoed, seeds, input/output hashes, timings, peak RSS,
training samples/s and prediction px/s with their worker counts, per-tile
statuses, metric summaries), on success and on error. Exit codes, each the
``exit_code`` of an error class in errors.py:

    0  success                  6  shape error
    1  unexpected error         7  numeric error
    2  usage error              8  degenerate class/batch
    3  missing input            9  registry error
    4  format error            10  stats/metric error
    5  config error            11  generation error
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import evaluation, model as model_mod, pipeline, raster, synth
from .errors import (ConfigError, FormatError, GenerationError,
                     MissingInputError, ToolkitError, UndefinedStatisticError)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_paths(paths) -> dict:
    return {str(p): _sha256(p) for p in paths if Path(p).is_file()}


def _require(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"{what} not found: {p}")
    return p


def _require_file(path, what: str) -> Path:
    """_require for an input read as a file: a directory is a format
    error."""
    p = _require(path, what)
    if p.is_dir():
        raise FormatError(f"{what} {p} is a directory, not a file")
    return p


class Manifest:
    """Accumulates the reproducibility record for one command.

    Used as a context manager: on leaving the block, successfully or by an
    exception, the manifest is finished (total time and the process's peak
    RSS) and written to path, and the exception propagates."""

    def __init__(self, command: str, argv, args, path):
        self.path = Path(path)
        self.data = {
            "command": command,
            "argv": list(argv),
            # inf and nan, which JSON lacks, are echoed as strings
            "config": {k: str(v) if isinstance(v, float)
                       and not math.isfinite(v) else v
                       for k, v in vars(args).items() if k != "func"},
            "inputs": {},
            "outputs": {},
            "timings_s": {},
            "status": "running",
            "error": None,
        }
        self._t0 = time.perf_counter()

    def time(self, stage: str, start: float) -> float:
        """Record the seconds since start under stage and return them."""
        seconds = time.perf_counter() - start
        self.data["timings_s"][stage] = round(seconds, 4)
        return seconds

    def __enter__(self) -> "Manifest":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.time("total", self._t0)
        self.data["peak_rss_mb"] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        )
        if exc is None:
            self.data["status"] = "ok"
        else:
            self.data["status"] = "error"
            self.data["error"] = {
                "class": getattr(exc, "error_class", "error"),
                "message": str(exc),
            }
        # Replace the file atomically, so a manifest is never partial.
        text = json.dumps(self.data, indent=2, sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, self.path)


def _zone_names(n: int):
    names = []
    for i in range(n):
        name = ""
        k = i
        while True:
            name = chr(ord("A") + k % 26) + name
            k = k // 26 - 1
            if k < 0:
                break
        names.append(name)
    return names


# -- commands ----------------------------------------------------------------


def cmd_synth(args, argv) -> int:
    out = Path(args.out)
    with Manifest("synth", argv, args, out / "synth_manifest.json") as manifest:
        if args.zones < 1:
            raise GenerationError(f"zones must be >= 1, got {args.zones}")
        params = synth.SceneParams(size=args.size, clusters=args.clusters,
                                   noise_sigma=args.noise_sigma,
                                   nodata_fraction=args.nodata_fraction,
                                   seed=args.seed)
        zones = {}
        for i, zone_id in enumerate(_zone_names(args.zones)):
            t0 = time.perf_counter()
            zone = synth.synth_zone(replace(params, seed=args.seed + i),
                                    zone_id=zone_id)
            paths = synth.save_zone(zone, out / zone_id)
            manifest.time(f"zone_{zone_id}", t0)
            zones[zone_id] = {"paths": paths, "stats": synth.zone_stats(zone)}
        manifest.data["zones"] = zones
        manifest.data["outputs"] = _hash_paths(
            p for z in zones.values() for p in z["paths"].values()
        )
    return 0


def cmd_train(args, argv) -> int:
    out = Path(args.out)
    with Manifest("train", argv, args,
                  out.parent / f"{out.stem}.train_manifest.json") as manifest:
        zone_dir = _require(Path(args.data) / args.zone, "zone directory")
        comp_path = _require_file(zone_dir / "composite.ghsr",
                                  "composite raster")
        label_path = _require_file(zone_dir / "labels.ghsr", "label raster")
        manifest.data["inputs"] = _hash_paths([comp_path, label_path])

        registry = (pipeline.ZoneRegistry.load(args.registry)
                    if args.registry else None)
        composite = raster.read_raster(comp_path)
        labels = raster.read_raster(label_path)
        arch = model_mod.preset(args.preset, divisor=args.divisor)
        early = None
        if args.early_stop_patience is not None:
            early = pipeline.EarlyStopping(patience=args.early_stop_patience)
            if args.early_stop_min_delta is not None:
                early.min_delta = args.early_stop_min_delta
        elif args.early_stop_min_delta is not None:
            raise ConfigError("--early-stop-min-delta needs "
                              "--early-stop-patience")
        run = pipeline.TrainingRun(zone_id=args.zone, epochs=args.epochs,
                                   validation_fraction=args.validation_fraction,
                                   seed=args.seed,
                                   learning_rate=args.learning_rate,
                                   early_stopping=early)
        cfg = pipeline.SamplingConfig(tile_pixels=args.tile_size,
                                      tile_fraction=args.tile_fraction,
                                      non_bu_rate=args.non_bu_rate,
                                      batch_size=args.batch_size,
                                      water_zone=args.water_zone)
        manifest.data["workers"] = pipeline.train_workers()
        t0 = time.perf_counter()
        net, history, info = pipeline.train_zone(composite, labels, arch,
                                                 run, cfg)
        seconds = manifest.time("train", t0)
        manifest.data["train_samples_per_s"] = round(
            info["train_samples"] * len(history.train_loss) / seconds
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        model_mod.save_model(net, out)
        history_path = out.with_suffix(".history.json")
        with open(history_path, "w", encoding="utf-8") as f:
            json.dump(history.to_dict(), f, indent=2)
        manifest.data["training"] = info
        manifest.data["final_train_loss"] = history.train_loss[-1]
        manifest.data["final_validation_loss"] = history.validation_loss[-1]
        manifest.data["outputs"] = _hash_paths([out, history_path])
        if registry is not None:
            registry.record(args.zone, str(out))
            registry.save(args.registry)
    return 0


def _predict_common(args, argv, command: str) -> int:
    out_dir = Path(args.out)
    with Manifest(command, argv, args,
                  out_dir / f"{command}_manifest.json") as manifest:
        zone_dir = _require(Path(args.data) / args.zone, "zone directory")
        comp_path = _require_file(zone_dir / "composite.ghsr",
                                  "composite raster")
        if command == "transfer":
            # a transfer is a predict with the source zone's registered model
            registry = pipeline.ZoneRegistry.load(
                _require(args.registry, "registry")
            )
            model_path = registry.model_path(args.source_zone)
            manifest.data["transfer"] = {
                "mode": (pipeline.CLOSE_RANGE if args.source_zone == args.zone
                         else pipeline.FAR_RANGE),
                "source_zone": args.source_zone,
                "target_zone": args.zone,
            }
        else:
            model_path = args.model
        model_path = _require_file(model_path, "model file")
        net = model_mod.load_model(model_path)
        composite = raster.read_raster(comp_path)
        # one band worker per usable CPU; outputs do not depend on the count
        workers = pipeline.usable_cpus()
        manifest.data["workers"] = workers
        t0 = time.perf_counter()
        predictions = pipeline.predict_zone(net, composite, args.tile_size,
                                            workers=workers)
        seconds = manifest.time("predict", t0)
        manifest.data["predict_px_per_s"] = round(
            composite.width * composite.height / seconds
        )

        manifest.data["inputs"] = _hash_paths([comp_path, model_path])
        out_dir.mkdir(parents=True, exist_ok=True)
        statuses = pipeline.write_tiles(predictions, composite, out_dir)
        manifest.data["tiles"] = statuses
        manifest.data["outputs"] = _hash_paths(
            [s["prob"] for s in statuses if s["status"] == "ok"]
            + [s["quant"] for s in statuses if s["status"] == "ok"]
        )
        failed = [s for s in statuses if s["status"] != "ok"]
        manifest.data["tiles_failed"] = len(failed)
    return 0


def cmd_predict(args, argv) -> int:
    return _predict_common(args, argv, "predict")


def cmd_transfer(args, argv) -> int:
    return _predict_common(args, argv, "transfer")


def _load_prediction_mosaic(probs_dir: Path) -> raster.RasterGrid:
    """pipeline.read_mosaic of the ok tiles of the prediction manifest in
    probs_dir, read from probs_dir whatever directory the prediction ran
    from; UndefinedStatisticError when no tile is ok."""
    manifest_path = None
    for name in ("predict_manifest.json", "transfer_manifest.json"):
        if (probs_dir / name).exists():
            manifest_path = probs_dir / name
            break
    if manifest_path is None:
        raise MissingInputError(
            f"no prediction manifest found under {probs_dir}"
        )
    try:
        info = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable manifest {manifest_path}: {exc}") \
            from exc
    if not isinstance(info, dict):
        raise FormatError(f"{manifest_path} is not a JSON object")
    if not info.get("tiles"):
        raise FormatError(
            f"{manifest_path} lists no tiles (run status {info.get('status')!r})"
        )
    for t in info["tiles"]:
        if not (isinstance(t, dict) and t.get("status") in ("ok", "error")
                and (t["status"] != "ok" or isinstance(t.get("prob"), str))):
            raise FormatError(f"{manifest_path}: bad tile entry {t!r}")
    paths = [_require_file(probs_dir / Path(t["prob"]).name, "tile raster")
             for t in info["tiles"] if t["status"] == "ok"]
    if not paths:
        raise UndefinedStatisticError(
            f"{manifest_path}: no tile was predicted, nothing to score")
    return pipeline.read_mosaic(paths, len(info["tiles"]))


def cmd_evaluate(args, argv) -> int:
    report_path = Path(args.report)
    with Manifest("evaluate", argv, args, report_path.parent
                  / f"{report_path.stem}.evaluate_manifest.json") as manifest:
        probs_dir = _require(args.probs, "prediction directory")
        ref_dir = _require(args.reference, "reference directory")
        fp_path = _require_file(Path(ref_dir) / "footprints.json",
                                "footprints")
        mosaic = _load_prediction_mosaic(Path(probs_dir))
        footprints = synth.load_footprints(fp_path)
        t0 = time.perf_counter()
        report = evaluation.evaluate_probabilities(
            mosaic.data[0], mosaic.valid_mask(), footprints["rects"],
            width=mosaic.width, height=mosaic.height,
            pixel_size=mosaic.pixel_size, origin_x=mosaic.origin_x,
            origin_y=mosaic.origin_y, thresholds=args.thresholds,
            aoi_id=footprints.get("aoi_id", ""),
        )
        manifest.time("evaluate", t0)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        evaluation.report_to_json(report, report_path)
        outputs = [report_path]
        if args.csv:
            Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
            evaluation.report_to_csv([report], args.csv)
            outputs.append(Path(args.csv))
        manifest.data["inputs"] = _hash_paths([fp_path])
        manifest.data["outputs"] = _hash_paths(outputs)
        manifest.data["metrics"] = report
    return 0


def cmd_inspect(args, argv) -> int:
    path = _require_file(args.path, "GHSR or GHSM file")
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == raster.MAGIC:
        header = raster.read_header(path)
    elif magic == model_mod.GHSM_MAGIC:
        header = model_mod.read_model_header(path)
    else:
        raise FormatError(f"bad magic {magic!r} at offset 0")
    for key in sorted(header):
        print(f"{key}: {header[key]}")
    return 0


# -- parser -------------------------------------------------------------------


def _thresholds(text: str) -> list:
    """argparse type: comma-separated probabilities, each in [0, 1]."""
    try:
        values = [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of numbers") from None
    if not all(0.0 <= t <= 1.0 for t in values):
        raise argparse.ArgumentTypeError(
            f"{text!r}: thresholds must be in [0, 1]")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="builtup",
        description="Train, apply, transfer and validate the patch "
                    "classification network on tiled multi-band rasters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic zones")
    scene = synth.SceneParams
    p.add_argument("--out", required=True)
    p.add_argument("--zones", type=int, default=1)
    p.add_argument("--size", type=int, default=scene.size)
    p.add_argument("--clusters", type=int, default=scene.clusters)
    # 300, not SceneParams.noise_sigma (200): keeps the zones the CLI writes
    p.add_argument("--noise-sigma", type=float, default=300.0)
    p.add_argument("--nodata-fraction", type=float,
                   default=scene.nodata_fraction)
    p.add_argument("--seed", type=int, default=scene.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one zone model")
    p.add_argument("--zone", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output .ghsm model path")
    p.add_argument("--preset", choices=sorted(model_mod.PRESETS),
                   default="desk")
    run, cfg = pipeline.TrainingRun, pipeline.SamplingConfig
    arch = model_mod.ArchitectureConfig
    p.add_argument("--epochs", type=int, default=run.epochs)
    p.add_argument("--seed", type=int, default=run.seed)
    p.add_argument("--validation-fraction", type=float,
                   default=run.validation_fraction)
    p.add_argument("--learning-rate", type=float, default=run.learning_rate)
    p.add_argument("--tile-size", type=int, default=cfg.tile_pixels)
    p.add_argument("--tile-fraction", type=float, default=cfg.tile_fraction)
    p.add_argument("--non-bu-rate", type=float, default=cfg.non_bu_rate)
    p.add_argument("--batch-size", type=int, default=cfg.batch_size)
    p.add_argument("--divisor", type=float,
                   default=arch.normalization_divisor)
    p.add_argument("--water-zone", action="store_true")
    p.add_argument("--early-stop-patience", type=int, default=None)
    p.add_argument("--early-stop-min-delta", type=float, default=None)
    p.add_argument("--registry", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict all tiles of a zone")
    p.add_argument("--zone", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tile-size", type=int, default=256)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("transfer", help="predict a zone with another zone's "
                                        "model and record provenance")
    p.add_argument("--zone", required=True, help="target zone")
    p.add_argument("--source-zone", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tile-size", type=int, default=256)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("evaluate", help="score predictions against reference "
                                        "footprints")
    p.add_argument("--probs", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--thresholds", type=_thresholds,
                   default=list(evaluation.DEFAULT_THRESHOLDS))
    p.add_argument("--report", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="print a GHSR/GHSM header")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except ToolkitError as exc:
        print(f"error[{exc.error_class}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001
        print(f"error[unexpected]: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
