"""Per-zone training, tiled prediction, its tile files and the zone model
registry.

The zone is rescaled once into a float32 array with a zero border of
PATCH_MARGIN pixels: training gathers 5x5 patches from it, and prediction
runs model.inference_stack, which is fully convolutional, over it once, in
bands of PREDICT_BLOCK rows cut into square blocks of at most
PREDICT_BLOCK x PREDICT_BLOCK output pixels with a 4-pixel halo, so the
working set does not grow with the zone.

Every block starts at a multiple of PREDICT_BLOCK from the zone origin
and tiles only slice the finished mosaic, so a pixel comes from the same
block and BLAS calls at every tile size and worker count: tilings are
byte-identical by construction (dense2's gemv rounds a row by its place
in its block, so tile-aligned blocks differed by 1 ulp).

Prediction runs OpenBLAS on one thread; bands run in parallel on the
workers instead. A block's GEMMs are small (4096 rows), and between them
the im2col copies, bias adds and tanh run on one thread while an idle BLAS
thread spins; a 2-thread GEMM then waits for its slower half, so it gains
little and loses much when another process holds a core. Predicting a
512x512 desk zone (256x256 paper zone) at tile 256 on 2 vCPUs, in one
process, without and with a busy-looping process on one core: 2-thread
BLAS 474k -> 319k px/s (paper 74k -> 47k), 1-thread 412k -> 370k (paper
50k -> 43k). At tile 128, 2 workers on 1-thread BLAS reach 666k (paper
93k). One thread also makes mosaics independent of the machine's thread
setting: a threaded gemv splits dense2's rows between threads, which moves
the rows that round differently.

Why blocks of 64. Each pass allocates an im2col matrix and an output per
layer; for a 64x64 block the largest is the second 3x3 layer's im2col,
4096 x 9 f_a floats: 4.7 MB (desk preset) or 18.9 MB (paper preset). That
is under glibc's 32 MB ceiling for its mmap threshold, so freed arrays
return to the heap and the next block reuses them while they are still in
cache. Row strips of 32768 pixels made conv4 im2col matrices of 33 MB
(desk) and 134 MB (paper), mapped and faulted in afresh for every strip:
7-8k (desk) and 14k (paper) minor page faults per 256x256 tile, against
0-2k for blocks. Square blocks keep the halo overhead at (68/64)^2 - 1 =
13% of the input whatever the zone width, where 4096-pixel row strips of
a 512-wide zone are 8 rows high and read 50% more rows than they output.
Smaller blocks (32) round differently in the paper preset's small-M GEMMs
and change its mosaics.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import model as model_mod, raster, sampling
from .errors import (ConfigError, DegenerateClassError, FormatError,
                     RegistryError)
from .model import (TRAIN_SLICES, Model, build_model, inference_stack,
                    run_layers, train_step)
from .nncore import AdamState, bce_loss
from .raster import PATCH_MARGIN, RasterGrid, TileIndex

PREDICT_BLOCK = 64  # output pixels per side of one inference block


@dataclass
class EarlyStopping:
    patience: int = 3
    min_delta: float = 1e-4


@dataclass
class TrainingRun:
    zone_id: str
    epochs: int = 25
    validation_fraction: float = 0.10
    seed: int = 0
    learning_rate: float = 1e-4
    early_stopping: Optional[EarlyStopping] = None

    def validate(self) -> None:
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError(
                f"validation_fraction must be in (0, 1), "
                f"got {self.validation_fraction}"
            )
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")
        early = self.early_stopping
        if early is not None and (early.patience < 1
                                  or not 0 <= early.min_delta < np.inf):
            raise ConfigError(f"early stopping needs patience >= 1 and a "
                              f"finite min_delta >= 0, got {early}")


@dataclass
class SamplingConfig:
    tile_pixels: int = 256
    tile_fraction: float = 0.5
    non_bu_rate: float = 0.6
    batch_size: int = 1024
    water_zone: bool = False

    def validate(self) -> None:
        # train-mode batch norm needs two samples per batch
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.0 <= self.non_bu_rate <= 1.0:
            raise ConfigError(
                f"non_bu_rate must be in [0, 1], got {self.non_bu_rate}"
            )


@dataclass
class TrainingHistory:
    train_loss: list = field(default_factory=list)
    validation_loss: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _stratified_split(labels: np.ndarray, fraction: float,
                      rng: np.random.Generator):
    """Disjoint sorted (train_idx, val_idx), stratified per class: each
    class holds out round(size * fraction) of its samples and keeps at
    least one for training."""
    parts = [rng.permutation(idx) for idx in
             (np.flatnonzero(labels == cls) for cls in (0, 1)) if idx.size]
    n_val = [min(int(np.floor(p.size * fraction + 0.5)), p.size - 1)
             for p in parts]
    if sum(n_val) == 0 and labels.size >= 2:
        # tiny sets: hold out one sample of the largest class, so the
        # validation loss exists and, from 3 samples, both classes train
        n_val[int(np.argmax([p.size for p in parts]))] = 1
    train_idx = np.concatenate([p[n:] for p, n in zip(parts, n_val)])
    val_idx = np.concatenate([p[:n] for p, n in zip(parts, n_val)])
    return np.sort(train_idx), np.sort(val_idx)


# -- threads ----------------------------------------------------------------


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has
    one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def train_workers() -> int:
    """Threads train_zone runs the slices of a batch on."""
    return min(usable_cpus(), TRAIN_SLICES)


def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy,
    or None when numpy uses another BLAS or the library cannot be loaded."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy loaded, not a second one
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype = ctypes.c_int
                    put.argtypes = [ctypes.c_int]
                    return get, put
    return None


_OPENBLAS_THREADS = _openblas_thread_calls()
_blas_lock = threading.Lock()
_blas_users = 0  # train_zone and predict_zone calls on one BLAS thread
_blas_threads_before = 1


@contextmanager
def _one_blas_thread():
    """Run the body with one OpenBLAS thread; the count in force when the
    first of any concurrent callers entered is restored when the last one
    leaves."""
    global _blas_users, _blas_threads_before
    if _OPENBLAS_THREADS is None:
        yield
        return
    get, put = _OPENBLAS_THREADS
    with _blas_lock:
        if _blas_users == 0:
            _blas_threads_before = get()
            put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                put(_blas_threads_before)


# -- training ---------------------------------------------------------------


def _infer_loss(stack, view: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                labels: np.ndarray, run=map) -> float:
    """Mean BCE over a sample subset in inference mode, from the layers of
    model.inference_stack (the pass that makes the maps), in batches of at
    most PREDICT_BLOCK**2 patches, a prediction block's pixel count; run
    maps the batches, whose losses are added in order."""
    batch = PREDICT_BLOCK ** 2

    def batch_loss(b0: int) -> float:
        b1 = min(b0 + batch, rows.size)
        patches = raster.gather_patches(view, rows[b0:b1], cols[b0:b1])
        loss, _ = bce_loss(labels[b0:b1].astype(np.float32),
                           run_layers(stack, patches)[:, 0, 0])
        return loss * (b1 - b0)

    return sum(run(batch_loss, range(0, rows.size, batch))) / rows.size


def train_zone(composite: RasterGrid, label_grid: RasterGrid,
               arch: model_mod.ArchitectureConfig, run: TrainingRun,
               cfg: SamplingConfig):
    """Two-stage sampling plus the full optimization loop for one zone.

    Training runs on one OpenBLAS thread and takes its parallelism from
    the batch instead: each optimizer batch runs as model.train_step's
    TRAIN_SLICES row slices on train_workers() threads, and each epoch's
    validation loss runs the inference stack on the same threads. Between
    GEMMs a step is numpy work (im2col copies, BatchNorm, dropout) that a
    second BLAS thread does not reach; slices run it on both cores. The
    slice count is fixed and each BLAS call single-threaded, so the model
    and history do not depend on the worker count or on the process's
    BLAS thread setting.

    Returns (model, history, info) where info carries the sampling manifest
    and the selected tile windows.
    """
    run.validate()
    cfg.validate()
    padded, valid = raster.rescale_reflectance(
        composite, arch.normalization_divisor
    )
    tiles = raster.tile_grid(composite.height, composite.width,
                             cfg.tile_pixels, valid_mask=valid)
    selected = sampling.select_training_tiles(tiles, cfg.tile_fraction,
                                              water_zone=cfg.water_zone)

    seeds = np.random.SeedSequence([run.seed, 0x7A11])
    sample_rng, split_rng, train_rng = [
        np.random.default_rng(s) for s in seeds.spawn(3)
    ]
    samples = sampling.build_sample_set(label_grid, valid, selected,
                                        cfg.non_bu_rate, sample_rng)
    if samples.built_up_count == 0 or samples.non_built_up_count == 0:
        raise DegenerateClassError(
            f"zone {run.zone_id!r}: single-class training data "
            f"({samples.built_up_count} built-up, "
            f"{samples.non_built_up_count} non-built-up)"
        )

    train_idx, val_idx = _stratified_split(samples.labels,
                                           run.validation_fraction, split_rng)
    view = raster.patch_view(padded)
    rows, cols, labels = samples.rows, samples.cols, samples.labels

    net = build_model(arch, seed=run.seed, zone_id=run.zone_id)
    state = AdamState.for_size(net.params.size,
                               learning_rate=run.learning_rate)
    history = TrainingHistory()
    best_val = np.inf
    stall = 0
    workers = train_workers()
    with _one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        # one worker runs the slices here, in turn
        run_tasks = pool.map if workers > 1 else map
        for epoch in range(run.epochs):
            epoch_loss = 0.0
            for batch_idx in sampling.shuffle_minibatches(
                train_idx.size, cfg.batch_size, train_rng
            ):
                idx = train_idx[batch_idx]
                patches = raster.gather_patches(view, rows[idx], cols[idx])
                loss = train_step(net, patches, labels[idx], state,
                                  train_rng, run_tasks)
                epoch_loss += loss * idx.size
            history.train_loss.append(epoch_loss / train_idx.size)
            val_loss = _infer_loss(inference_stack(net), view, rows[val_idx],
                                   cols[val_idx], labels[val_idx], run_tasks)
            history.validation_loss.append(val_loss)
            net.epochs_trained = epoch + 1

            if run.early_stopping is not None:
                if val_loss < best_val - run.early_stopping.min_delta:
                    best_val = val_loss
                    stall = 0
                else:
                    stall += 1
                    if stall >= run.early_stopping.patience:
                        break

    info = {
        "sampling": {**sampling.sample_manifest(samples), "seed": run.seed,
                     "non_bu_rate": cfg.non_bu_rate},
        "tiles_total": len(tiles),
        "tiles_selected": [(t.tile_row, t.tile_col) for t in selected],
        "train_samples": int(train_idx.size),
        "validation_samples": int(val_idx.size),
    }
    return net, history, info


# -- prediction -------------------------------------------------------------


def _predict_padded(stack, padded_window: np.ndarray) -> np.ndarray:
    """Probabilities for every center of a margin-2 padded (bands, H+4, W+4)
    window, in blocks of at most PREDICT_BLOCK x PREDICT_BLOCK output
    pixels, from the layers of model.inference_stack."""
    window = padded_window.transpose(1, 2, 0)
    halo = 2 * PATCH_MARGIN
    h, w = window.shape[0] - halo, window.shape[1] - halo
    out = np.empty((h, w), dtype=np.float32)
    for r0 in range(0, h, PREDICT_BLOCK):
        r1 = min(r0 + PREDICT_BLOCK, h)
        for c0 in range(0, w, PREDICT_BLOCK):
            c1 = min(c0 + PREDICT_BLOCK, w)
            out[r0:r1, c0:c1] = run_layers(
                stack, window[None, r0:r1 + halo, c0:c1 + halo])[0]
    return out


@dataclass
class TilePrediction:
    tile: TileIndex
    prob: Optional[np.ndarray]  # (rows, cols) f32 view, -1 where invalid
    valid: Optional[np.ndarray]  # (rows, cols) bool view
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def predict_zone(net: Model, composite: RasterGrid, tile_pixels: int,
                 workers: int = 1):
    """Per-tile probabilities for a whole zone composite (raw i16 input).

    The zone is computed once by net's inference stack, built at the start
    of the call without modifying net and shared read-only by the workers,
    in zone-aligned bands of PREDICT_BLOCK rows run in parallel on the
    workers with one OpenBLAS thread; each tile's prob and valid are views
    of the zone arrays, so outputs do not depend on tile_pixels or workers. A failed band fails the tiles its rows
    overlap, each reporting the band's error; every other tile is produced.
    """
    if composite.bands != net.arch.bands:
        raise ConfigError(f"composite has {composite.bands} bands, model "
                          f"expects {net.arch.bands}")
    tiles = raster.tile_grid(composite.height, composite.width, tile_pixels)
    padded, valid = raster.rescale_reflectance(
        composite, net.arch.normalization_divisor
    )
    prob = np.empty(valid.shape, dtype=np.float32)
    stack = inference_stack(net)

    def run_band(r0: int) -> Optional[str]:
        try:  # the last band's slices end at the zone's edge
            prob[r0:r0 + PREDICT_BLOCK] = _predict_padded(
                stack, padded[:, r0:r0 + PREDICT_BLOCK + 2 * PATCH_MARGIN])
        except Exception as exc:  # noqa: BLE001 - per-tile isolation
            return f"{type(exc).__name__}: {exc}"
        return None

    band_starts = range(0, composite.height, PREDICT_BLOCK)
    with _one_blas_thread(), ThreadPoolExecutor(max(workers, 1)) as pool:
        # one worker runs here: on a pool thread paper benched ~7% slower
        run = pool.map if workers > 1 else map
        band_errors = list(run(run_band, band_starts))
    prob[~valid] = -1.0

    predictions = []
    for t in tiles:
        bands = slice(t.row0 // PREDICT_BLOCK,
                      (t.row0 + t.rows - 1) // PREDICT_BLOCK + 1)
        failed = [e for e in band_errors[bands] if e is not None]
        window = np.s_[t.row0:t.row0 + t.rows, t.col0:t.col0 + t.cols]
        predictions.append(
            TilePrediction(tile=t, prob=None, valid=None, error=failed[0])
            if failed else
            TilePrediction(tile=t, prob=prob[window], valid=valid[window]))
    return predictions


def write_tiles(predictions, composite: RasterGrid, out_dir: Path) -> list:
    """Each ok tile's f32 probability raster (nodata -1) and u8 quantized
    one (0..100, nodata 255) in out_dir; returns a manifest entry per tile."""
    entries = []
    for pred in predictions:
        t = pred.tile
        entry = {
            "tile_row": t.tile_row, "tile_col": t.tile_col,
            "row0": t.row0, "col0": t.col0, "rows": t.rows, "cols": t.cols,
        }
        if pred.ok:
            stem = f"tile_{t.tile_row:03d}_{t.tile_col:03d}"
            prob_grid = raster.make_grid(
                pred.prob, "f32", -1.0, zone_id=composite.zone_id,
                origin_x=composite.origin_x + t.col0 * composite.pixel_size,
                origin_y=composite.origin_y + t.row0 * composite.pixel_size,
                pixel_size=composite.pixel_size)
            quant = raster.quantize_probability(pred.prob, pred.valid)
            quant_grid = replace(prob_grid, data=quant[None], dtype="u8",
                                 nodata=255.0)
            prob_path = out_dir / f"{stem}_prob.ghsr"
            quant_path = out_dir / f"{stem}_quant.ghsr"
            raster.write_raster(prob_grid, prob_path)
            raster.write_raster(quant_grid, quant_path)
            entry.update(status="ok", prob=str(prob_path),
                         quant=str(quant_path))
        else:
            entry.update(status="error", error=pred.error)
        entries.append(entry)
    return entries


def read_mosaic(paths, entries: int) -> RasterGrid:
    """The probability tiles at paths, each placed by its own header, as one
    f32 band with nodata -1; FormatError unless they are such bands of one
    zone_id and pixel size, whole pixels apart, holding probabilities, each
    file as long as its header says.

    entries is the number of tiles the prediction made, failed ones
    included. A prediction's tiles cover its zone and fail by whole tile
    rows, so honest tiles span at most entries times the largest one's
    pixels; tiles that span more are a FormatError, raised before the
    mosaic is allocated."""
    headers = [raster.read_header(p) for p in paths]
    zone_id, pixel = headers[0]["zone_id"], headers[0]["pixel_size"]
    least = np.min([(h["origin_y"], h["origin_x"]) for h in headers], axis=0)
    places = []
    for path, h in zip(paths, headers):
        # nan, and so off the grid, where an origin is not finite
        offset = (np.array((h["origin_y"], h["origin_x"])) - least) / pixel
        if ((h["dtype"], h["bands"], h["nodata"], h["zone_id"],
             h["pixel_size"]) != ("f32", 1, -1.0, zone_id, pixel)
                or not 0 < pixel < np.inf
                or not (np.abs(offset - np.rint(offset)) <= 1e-6).all()):
            raise FormatError(
                f"tile {path} is not one f32 band, nodata -1, of zone "
                f"{zone_id!r} at pixel size {pixel}, whole pixels from tile "
                f"{paths[0]}")
        raster.check_payload_size(path, h)
        r, c = np.rint(offset).astype(np.int64).tolist()
        places.append((r, c, r + h["height"], c + h["width"]))
    height, width = max(p[2] for p in places), max(p[3] for p in places)
    largest = max(h["height"] * h["width"] for h in headers)
    if height * width > entries * largest:
        raise FormatError(
            f"tiles from {paths[0]} span {height} x {width} pixels, more "
            f"than {entries} tiles of at most {largest} pixels cover")
    data = np.full((1, height, width), -1.0, dtype=np.float32)
    for path, (r0, c0, r1, c1) in zip(paths, places):  # one at a time
        tile = raster.read_raster(path).data[0]
        if not ((tile == -1.0) | ((tile >= 0.0) & (tile <= 1.0))).all():
            raise FormatError(f"tile {path} holds a value that is neither "
                              f"a probability nor -1")
        data[0, r0:r1, c0:c1] = tile
    return RasterGrid(width=width, height=height, bands=1, dtype="f32",
                      nodata=-1.0, zone_id=zone_id, origin_x=float(least[1]),
                      origin_y=float(least[0]), pixel_size=pixel, data=data)


# -- registry ---------------------------------------------------------------

CLOSE_RANGE = "close_range"
FAR_RANGE = "far_range"


class ZoneRegistry:
    """Trained models: zone_id -> {model_path, mode, source_zone_id},
    persisted as JSON. Each entry is the zone's own model (close range);
    transfers read the registry and never write it."""

    def __init__(self, entries: Optional[dict] = None):
        self.entries = entries or {}

    @classmethod
    def load(cls, path) -> "ZoneRegistry":
        p = Path(path)
        if not p.exists():
            return cls()
        try:
            entries = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RegistryError(f"unreadable registry {p}: {exc}") from exc
        if not isinstance(entries, dict):
            raise RegistryError(f"registry {p} is not a JSON object")
        return cls(entries)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.entries, f, indent=2, sort_keys=True)

    def record(self, zone_id: str, model_path: str) -> None:
        """Register the model trained on zone_id."""
        self.entries[zone_id] = {"model_path": str(model_path),
                                 "mode": CLOSE_RANGE, "source_zone_id": zone_id}

    def model_path(self, zone_id: str) -> str:
        if zone_id not in self.entries:
            raise RegistryError(f"no trained model registered for {zone_id!r}")
        entry = self.entries[zone_id]
        path = entry.get("model_path") if isinstance(entry, dict) else None
        if not isinstance(path, str):
            raise RegistryError(f"registry entry for {zone_id!r} has no "
                                f"model_path string: {entry!r}")
        return path
