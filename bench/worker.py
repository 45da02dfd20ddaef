"""Benchmark workloads for builtup, run in a child process by run.py.

run.py pins the BLAS thread count in this process's environment before
numpy is imported; this file does the work of one run and prints the
result. It drives the library (synth, raster, sampling, model, pipeline,
evaluation) through its public functions and never the CLI.

Output on stdout, one JSON object per line: "environment", "computed"
(counts derived from the architecture, not measured), "checks", "report"
(every metric with its unit and direction, gated or not), and last the
result: {"correct", "attempted", "failed", "metrics"}. A readable table of
the report goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

import builtup
from builtup import evaluation, model, nncore, pipeline, raster, synth

import tracing

THRESHOLDS = (0.2, 0.5)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload: model preset, zone edge in pixels, epochs,
    prediction tile edge, and how many set-ups a run times."""

    preset: str
    zone_size: int
    epochs: int
    setups: int
    tile: int = 256


SPECS = {
    "train_desk": Spec("desk", 512, 3, setups=5),
    "map_desk": Spec("desk", 512, 3, setups=2),
    "paper": Spec("paper", 256, 1, setups=5),
}
SMOKE_SPECS = {name: dataclasses.replace(s, zone_size=64, epochs=1, setups=1,
                                         tile=32)
               for name, s in SPECS.items()}

# End-to-end metrics gated by BENCHMARK.json: name -> (unit, better).
GATED = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "train_samples_per_s": ("samples/s", "higher"),
    "predict_px_per_s": ("px/s", "higher"),
}
# End-to-end quality and failure metrics: reported, not gated.
REPORTED = {
    "val_loss_infer": ("BCE", "lower"),
    "density_r": ("r", "higher"),
    "kappa_0.2": ("kappa", "higher"),
    "kappa_0.5": ("kappa", "higher"),
    "ops_failed_frac": ("fraction", "lower"),
}


def per_layer_metrics() -> dict:
    """Per-layer metrics of the traced run: name -> (unit, better)."""
    out = {f"{span}_ms": ("ms", "lower") for span in tracing.LAYER_SPANS}
    for span in tracing.FUNCTION_SPANS:
        out[f"{span}.calls"] = ("count", "lower")
        out[f"{span}.ms"] = ("ms", "lower")
        out[f"{span}.self_ms"] = ("ms", "lower")
    out["pipeline.tiles"] = ("count", "higher")
    out["pipeline.tiles_failed"] = ("count", "lower")
    out["sampling.samples"] = ("count", "higher")
    out["trace.overhead_s"] = ("s", "lower")
    return out


# -- bookkeeping ---------------------------------------------------------------


class Ledger:
    """Operations attempted and failed. Train runs, mapping passes, predict
    calls, predicted tiles, evaluations and correctness checks each count as
    one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}  # name -> [passed, failed]
        self.errors = []

    @property
    def checks_failed(self) -> int:
        return sum(failed for _, failed in self.checks.values())

    def check(self, name: str, ok, detail: str = "") -> bool:
        ok = bool(ok)
        self.attempted += 1
        self.checks.setdefault(name, [0, 0])[0 if ok else 1] += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".strip())
        return ok

    def op(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) as one operation; returns None if it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


class Timer:
    """Wall and CPU (user + system, all threads) seconds of a block."""

    def __enter__(self):
        self._cpu0 = _cpu_seconds()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t0
        self.cpu = _cpu_seconds() - self._cpu0


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# -- library calls shared by the workloads --------------------------------------


def make_zone(spec: Spec, seed: int, zone_id: str):
    return synth.synth_zone(synth.SceneParams(size=spec.zone_size, seed=seed),
                            zone_id=zone_id)


def train(composite, labels, spec: Spec, seed: int, zone_id: str):
    """pipeline.train_zone with the workload's preset and epochs and the
    default sampling configuration; returns (net, history, info, seconds)."""
    t0 = time.perf_counter()
    net, history, info = pipeline.train_zone(
        composite, labels, model.preset(spec.preset),
        pipeline.TrainingRun(zone_id=zone_id, epochs=spec.epochs, seed=seed),
        pipeline.SamplingConfig(),
    )
    return net, history, info, time.perf_counter() - t0


def training_metrics(ledger: Ledger, trained, previous) -> dict:
    """Rate and final inference-mode validation loss of one training, after
    checking its losses are finite and repeat those of the previous one."""
    net, history, info, seconds = trained
    losses = history.train_loss + history.validation_loss
    ledger.check("losses_finite", np.all(np.isfinite(losses)), str(losses))
    if previous is not None:
        ledger.check("training_repeats", previous.to_dict() == history.to_dict())
    return {
        "train_samples_per_s":
            info["train_samples"] * len(history.train_loss) / seconds,
        "val_loss_infer": history.validation_loss[-1],
    }


def predict(ledger: Ledger, net, composite, spec: Spec):
    """(tile predictions, seconds) of pipeline.predict_zone on one process."""
    t0 = time.perf_counter()
    preds = ledger.op("predict", pipeline.predict_zone, net, composite,
                      spec.tile, workers=1)
    return preds, time.perf_counter() - t0


def mosaic(preds, height: int, width: int):
    """Zone probability grid and validity mask from tile predictions."""
    prob = np.full((height, width), -1.0, dtype=np.float32)
    valid = np.zeros((height, width), dtype=bool)
    for p in preds:
        if p.ok:
            t = p.tile
            sl = (slice(t.row0, t.row0 + t.rows), slice(t.col0, t.col0 + t.cols))
            prob[sl] = p.prob
            valid[sl] = p.valid
    return prob, valid


def check_predictions(ledger: Ledger, preds, composite) -> None:
    """Every tile ran; probabilities are in [0, 1] where valid and exactly
    -1 elsewhere; the tile masks reassemble to the composite's valid mask."""
    failed = [p for p in preds if not p.ok]
    ledger.attempted += len(preds)
    ledger.failed += len(failed)
    ledger.check("tiles_ok", not failed, "; ".join(p.error for p in failed))
    in_range = all(
        np.all((p.prob[p.valid] >= 0.0) & (p.prob[p.valid] <= 1.0))
        and np.all(p.prob[~p.valid] == -1.0)
        for p in preds if p.ok
    )
    ledger.check("prob_range", in_range)
    _, valid = mosaic(preds, composite.height, composite.width)
    ledger.check("valid_mask", np.array_equal(valid, composite.valid_mask()))


def evaluate(ledger: Ledger, prob, valid, footprints: dict):
    """evaluation.evaluate_probabilities at THRESHOLDS, as one operation."""
    return ledger.op(
        "evaluate", evaluation.evaluate_probabilities, prob, valid,
        footprints["rects"], width=prob.shape[1], height=prob.shape[0],
        pixel_size=footprints["pixel_size"], origin_x=footprints["origin_x"],
        origin_y=footprints["origin_y"], thresholds=THRESHOLDS,
        aoi_id=footprints["aoi_id"],
    )


def zone_footprints(zone) -> dict:
    c = zone.composite
    return {"rects": zone.footprints, "pixel_size": c.pixel_size,
            "origin_x": c.origin_x, "origin_y": c.origin_y,
            "aoi_id": zone.zone_id}


def quality(reports) -> dict:
    """Pearson r and kappa per threshold, each the mean over the reports."""
    reports = [r for r in reports if r is not None]
    if not reports:
        return {}
    out = {"density_r":
           float(np.mean([r["regression"]["r"] for r in reports]))}
    for t in THRESHOLDS:
        out[f"kappa_{t:g}"] = float(np.mean(
            [r["thresholds"][f"{t:g}"]["kappa"] for r in reports]))
    return out


def digest(*grids) -> str:
    h = hashlib.sha256()
    for g in grids:
        h.update(np.ascontiguousarray(g).tobytes())
    return h.hexdigest()


# -- workloads ------------------------------------------------------------------


class Workload:
    """setup(i) -> measurements; iteration() -> measurements, with the timed
    part in "wall_s" and "cpu_s". A traced run sets `tracer`."""

    def __init__(self, spec: Spec, seed: int, work: Path, ledger: Ledger):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.tracer = None
        self.digests = []

    def untraced(self):
        """Context for the benchmark's own checks: they record no spans."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def check_digest(self, value: str) -> None:
        if self.digests:
            self.ledger.check("mosaic_digest_repeats", value == self.digests[0])
        self.digests.append(value)


class TrainDesk(Workload):
    """pipeline.train_zone on zone A with the desk preset; wall_s and cpu_s
    time the training alone. Each untraced iteration then maps zone A with
    the new model (close range) for predict_px_per_s."""

    def setup(self, i: int) -> dict:
        with Timer() as t:
            self.zone = make_zone(self.spec, self.seed, "A")
        self.history = None
        return {"setup_s": t.wall}

    def iteration(self) -> dict:
        z = self.zone
        with Timer() as t:
            trained = self.ledger.op("train", train, z.composite, z.labels,
                                     self.spec, self.seed, "A")
        out = {"wall_s": t.wall, "cpu_s": t.cpu}
        if trained is not None:
            out.update(training_metrics(self.ledger, trained, self.history))
            self.history = trained[1]
            if self.tracer is None:
                out.update(self._map_zone(trained[0]))
        return out

    def _map_zone(self, net) -> dict:
        comp = self.zone.composite
        preds, seconds = predict(self.ledger, net, comp, self.spec)
        if preds is None:
            return {}
        check_predictions(self.ledger, preds, comp)
        prob, valid = mosaic(preds, comp.height, comp.width)
        self.check_digest(digest(prob))
        report = evaluate(self.ledger, prob, valid, zone_footprints(self.zone))
        return {"predict_px_per_s": comp.height * comp.width / seconds,
                **quality([report])}


class MapDesk(Workload):
    """The production mapping path. Set-up writes zones A and B as GHSR
    files and trains and saves a desk model on A; the timed part loads the
    model, reads both composites, predicts them at the tile size, writes
    each tile's probability and quantized rasters, reads the probability
    tiles back into a mosaic and evaluates it."""

    def setup(self, i: int) -> dict:
        d = self.work / f"setup{i}"
        with Timer() as t:
            zones = [make_zone(self.spec, self.seed + k, zone_id)
                     for k, zone_id in enumerate("AB")]
            paths = {z.zone_id: synth.save_zone(z, d / z.zone_id) for z in zones}
            composite = raster.read_raster(paths["A"]["composite"])
            labels = raster.read_raster(paths["A"]["labels"])
            trained = self.ledger.op("train", train, composite, labels,
                                     self.spec, self.seed, "A")
            if trained is not None:
                model.save_model(trained[0], d / "A.ghsm")
        self.dir = d
        out = {"setup_s": t.wall}
        with self.untraced():
            for z in zones:
                for kind in ("composite", "labels"):
                    path = paths[z.zone_id][kind]
                    self.ledger.check("ghsr_readback", np.array_equal(
                        raster.read_raster(path).data, getattr(z, kind).data),
                        path)
            if trained is not None:
                out.update(training_metrics(self.ledger, trained, None))
                model.save_model(model.load_model(d / "A.ghsm"),
                                 d / "A.check.ghsm")
                self.ledger.check("ghsm_roundtrip", (d / "A.ghsm").read_bytes()
                                  == (d / "A.check.ghsm").read_bytes())
        return out

    def iteration(self) -> dict:
        with Timer() as t:
            mapped = self.ledger.op("map", self._map)
        out = {"wall_s": t.wall, "cpu_s": t.cpu}
        if mapped is None:
            return out
        predict_seconds, zones = mapped
        pixels = 0
        for z in zones:
            comp = z.composite
            pixels += comp.height * comp.width
            check_predictions(self.ledger, z.preds, comp)
            mem_prob, mem_valid = mosaic(z.preds, comp.height, comp.width)
            self.ledger.check("ghsr_readback", np.array_equal(z.prob, mem_prob)
                              and np.array_equal(z.valid, mem_valid),
                              "prob tiles")
            with self.untraced():
                for quant_path, quant in z.quant_tiles:
                    self.ledger.check("ghsr_readback", np.array_equal(
                        raster.read_raster(quant_path).data[0], quant),
                        quant_path)
        self.check_digest(digest(*(z.prob for z in zones)))
        out["predict_px_per_s"] = pixels / predict_seconds
        out.update(quality([z.report for z in zones]))
        return out

    def _map(self):
        net = model.load_model(self.dir / "A.ghsm")
        predict_seconds = 0.0
        zones = []
        for zone_id in "AB":
            zdir = self.dir / zone_id
            comp = raster.read_raster(zdir / "composite.ghsr")
            preds, seconds = predict(self.ledger, net, comp, self.spec)
            predict_seconds += seconds
            out_dir = self.work / "predictions" / zone_id
            out_dir.mkdir(parents=True, exist_ok=True)
            quant_tiles, prob_paths = write_predictions(preds, comp, out_dir)
            prob, valid = read_mosaic(prob_paths, comp.height, comp.width)
            report = evaluate(self.ledger, prob, valid,
                              synth.load_footprints(zdir / "footprints.json"))
            zones.append(MappedZone(comp, preds, quant_tiles, prob, valid,
                                    report))
        return predict_seconds, zones


class MappedZone(NamedTuple):
    """What the timed mapping of one zone produced, kept for the checks."""

    composite: raster.RasterGrid
    preds: list
    quant_tiles: list  # [(path, quantized array in memory)]
    prob: np.ndarray  # mosaic read back from the probability tiles
    valid: np.ndarray
    report: dict


def write_predictions(preds, composite, out_dir: Path):
    """Each tile's f32 probability and u8 quantized GHSR rasters, written as
    `builtup predict` writes them. Returns ([(quant path, quant array)],
    [(tile, prob path)])."""
    written, prob_paths = [], []
    for p in preds:
        if not p.ok:
            continue
        t = p.tile
        prob_grid = raster.RasterGrid(
            width=t.cols, height=t.rows, bands=1, dtype="f32", nodata=-1.0,
            zone_id=composite.zone_id,
            origin_x=composite.origin_x + t.col0 * composite.pixel_size,
            origin_y=composite.origin_y + t.row0 * composite.pixel_size,
            pixel_size=composite.pixel_size, data=p.prob[None])
        quant = raster.quantize_probability(np.where(p.valid, p.prob, 0.0),
                                            p.valid)
        quant_grid = dataclasses.replace(prob_grid, dtype="u8", nodata=255.0,
                                         data=quant[None])
        stem = f"tile_{t.tile_row:03d}_{t.tile_col:03d}"
        prob_path = out_dir / f"{stem}_prob.ghsr"
        quant_path = out_dir / f"{stem}_quant.ghsr"
        raster.write_raster(prob_grid, prob_path)
        raster.write_raster(quant_grid, quant_path)
        written.append((quant_path, quant))
        prob_paths.append((t, prob_path))
    return written, prob_paths


def read_mosaic(prob_paths, height: int, width: int):
    """Zone probability grid and validity mask read back from tile files,
    as `builtup evaluate` reads them."""
    prob = np.full((height, width), -1.0, dtype=np.float32)
    valid = np.zeros((height, width), dtype=bool)
    for t, path in prob_paths:
        grid = raster.read_raster(path)
        sl = (slice(t.row0, t.row0 + t.rows), slice(t.col0, t.col0 + t.cols))
        prob[sl] = grid.data[0]
        valid[sl] = grid.data[0] != grid.nodata
    return prob, valid


class Paper(Workload):
    """The paper preset: train on one zone, predict it and evaluate it.
    wall_s covers all three."""

    def setup(self, i: int) -> dict:
        with Timer() as t:
            self.zone = make_zone(self.spec, self.seed, "A")
        self.history = None
        return {"setup_s": t.wall}

    def iteration(self) -> dict:
        z, comp = self.zone, self.zone.composite
        with Timer() as t:
            trained = self.ledger.op("train", train, comp, z.labels,
                                     self.spec, self.seed, "A")
            if trained is not None:
                preds, predict_seconds = predict(self.ledger, trained[0],
                                                 comp, self.spec)
                if preds is not None:
                    prob, valid = mosaic(preds, comp.height, comp.width)
                    report = evaluate(self.ledger, prob, valid,
                                      zone_footprints(z))
        out = {"wall_s": t.wall, "cpu_s": t.cpu}
        if trained is None:
            return out
        out.update(training_metrics(self.ledger, trained, self.history))
        self.history = trained[1]
        if preds is None:
            return out
        check_predictions(self.ledger, preds, comp)
        self.check_digest(digest(prob))
        out["predict_px_per_s"] = comp.height * comp.width / predict_seconds
        out.update(quality([report]))
        return out


WORKLOADS = {"train_desk": TrainDesk, "map_desk": MapDesk, "paper": Paper}


# -- runs -------------------------------------------------------------------------


def untraced_run(wl: Workload, seconds: float) -> dict:
    """Median of each end-to-end measurement: set-up spec.setups times, then
    iterations until the next would end after `seconds` (at least one)."""
    samples = [wl.setup(i) for i in range(wl.spec.setups)]
    start = time.perf_counter()
    while True:
        samples.append(wl.iteration())
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / (len(samples) - wl.spec.setups)) > seconds:
            break
    out = {}
    for name in list(GATED) + list(REPORTED):
        values = [s[name] for s in samples if name in s]
        if values:
            out[name] = statistics.median(values)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def traced_run(wl: Workload) -> dict:
    """Per-layer metrics over one traced set-up and one traced iteration,
    and the wall time the tracing added to that iteration."""
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    wl.tracer = tracer
    if tracer.missing:
        print(f"trace targets not found: {', '.join(tracer.missing)}",
              file=sys.stderr)
    with tracer.on("bench.setup"):
        wl.setup(0)
    untraced = wl.iteration()
    with tracer.on("bench.iteration"):
        traced = wl.iteration()
    spans = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {f"{name}_ms": spans.get(name, empty)["total_s"] * 1e3
           for name in tracing.LAYER_SPANS}
    for name in tracing.FUNCTION_SPANS:
        row = spans.get(name, empty)
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.ms"] = row["total_s"] * 1e3
        out[f"{name}.self_ms"] = row["self_s"] * 1e3
    out.update(tracer.counts)
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return out


# -- environment and computed counts --------------------------------------------


def blas_runtime():
    """(threads in effect, runtime configuration) of numpy's bundled
    OpenBLAS, or (None, None) when it cannot be queried."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        threads = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        config = getattr(handle, "scipy_openblas_get_config64_", None)
        if threads is not None and config is not None:
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return threads(), config().decode()
    return None, None


def git_commit(root: Path) -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, blas_threads, blas_config) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "builtup": builtup.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "build_config": blas.get("openblas configuration"),
            "runtime_config": blas_config,
            "threads_in_effect": blas_threads,
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(root),
    }


def computed_counts(spec: Spec) -> dict:
    """FLOPs per patch of each conv and dense layer (2 per multiply-add), and
    bytes of the arrays the hot paths materialise, from the architecture and
    the library's batch sizes. Computed, not measured."""
    arch = model.preset(spec.preset)
    f_a, f_b = arch.block_filters
    k, side = nncore.KERNEL_SIZE, raster.PATCH_SIZE
    f32 = np.dtype(np.float32).itemsize
    predict_batch = getattr(pipeline, "PREDICT_BATCH_CELLS", None)
    train_batch = pipeline.SamplingConfig().batch_size
    layers = {}
    for name, cin, cout in (("conv1", arch.bands, f_a), ("conv2", f_a, f_a),
                            ("conv3", f_a, f_b), ("conv4", f_b, f_b)):
        side -= k - 1
        im2col = side * side * k * k * cin * f32  # bytes per patch
        layers[name] = {
            "flops_per_patch": 2 * side * side * k * k * cin * cout,
            "im2col_bytes_per_predict_batch":
                None if predict_batch is None else predict_batch * im2col,
            "im2col_bytes_per_train_batch": train_batch * im2col,
        }
    layers["dense1"] = {"flops_per_patch": 2 * f_b * arch.hidden_units}
    layers["dense2"] = {"flops_per_patch": 2 * arch.hidden_units}
    fine = round(10.0 / 1.0)  # synth pixel size / rasterize_density fine_res
    return {
        "label": "computed",
        "preset": spec.preset,
        "predict_batch_patches": predict_batch,
        "train_batch_patches": train_batch,
        "layers": layers,
        "gather_patches_bytes_per_train_batch":
            train_batch * raster.PATCH_SIZE ** 2 * arch.bands * f32,
        "rasterize_density_fine_grid_bytes":
            (spec.zone_size * fine) ** 2 * np.dtype(bool).itemsize,
    }


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True, help="scratch directory")
    p.add_argument("--root", required=True, help="repository checkout")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    root = Path(args.root).resolve()
    if root / "src" not in Path(builtup.__file__).resolve().parents:
        print(f"builtup imported from {builtup.__file__}, not from {root}/src",
              file=sys.stderr)
        return 2
    spec = (SMOKE_SPECS if args.smoke else SPECS)[args.workload]
    ledger = Ledger()
    blas_threads, blas_config = blas_runtime()
    pinned = os.environ.get("OPENBLAS_NUM_THREADS")
    if blas_threads is not None and pinned is not None:
        ledger.check("blas_threads_pinned", blas_threads == int(pinned),
                     f"{blas_threads} != {pinned}")
    wl = WORKLOADS[args.workload](spec, args.seed, Path(args.work), ledger)

    if args.trace:
        measured = traced_run(wl)
        table = per_layer_metrics()
    else:
        measured = untraced_run(wl, args.seconds)
        measured["ops_failed_frac"] = ledger.failed / ledger.attempted
        table = {**GATED, **REPORTED}
    report = {name: {"value": measured.get(name), "unit": unit, "better": better,
                     "gated": args.trace == 0 and name in GATED}
              for name, (unit, better) in table.items()}
    missing = [name for name, row in report.items() if row["value"] is None]
    metrics = {name: {"value": row["value"] if row["value"] is not None else 0.0,
                      "unit": row["unit"]}
               for name, row in report.items()
               if args.trace or name in GATED}

    print(json.dumps({"environment": environment(root, blas_threads,
                                                 blas_config)}))
    print(json.dumps({"computed": computed_counts(spec)}))
    print(json.dumps({"checks": {"passed_failed": ledger.checks,
                                 "errors": ledger.errors,
                                 "mosaic_sha256": wl.digests[:1],
                                 "not_measured": missing}}))
    print(json.dumps({"report": report}))
    for name, row in report.items():
        gate = "gated" if row["gated"] else "reported"
        print(f"{name:44s} {row['value']!s:>24} {row['unit']:10s} "
              f"{row['better']:7s} {gate}", file=sys.stderr)
    for line in ledger.errors:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": ledger.checks_failed == 0 and not missing,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
