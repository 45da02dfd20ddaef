"""Per-zone training, tiled prediction, its tile files and the zone model
registry.

Training rescales the zone once into a channels-last float32 array, the
network's layout, with a zero border of PATCH_MARGIN pixels, and gathers
5x5 patches from it. Prediction runs model.inference_stack, which is fully
convolutional, over the zone once, as a stream of bands of PREDICT_BLOCK
rows cut into square blocks of at most PREDICT_BLOCK x PREDICT_BLOCK
output pixels with a 4-pixel halo. Each band rescales its own window, its
rows and a PATCH_MARGIN halo, with the element-wise float operations that
rescale a whole zone, so the window holds the whole-zone array's bits.

The stack's layers take one of nncore.ConvLayer's two paths, decided by
the layer and the block's shape alone: the paper preset's bn1.conv3.conv4
runs F(2x2, 3x3) on every block of at least 2 x 2 outputs, and every
other layer, all of desk and tiny included, runs im2col. Training, the
BatchNorm statistics and the validation losses see 5x5 patches, whose
3x3 layers have 1 x 1 outputs, so they run im2col and keep their bits.
A paper map therefore differs from the map of its patches by float32
rounding (max |dp| 2.0e-6 on the golden chain's zone B, against an
all-im2col map of the same model), and is byte for byte the same at
every tiling and worker count.

Memory. Prediction holds the bands in flight, one per worker and the one
whose rows are being taken, and the tile row they fill, not the zone: a
band is its f32 window, 68 x (W + 4) x bands x 4 bytes, and one i16 plane
of its rows at a time, and a tile row is tile x W x 4 bytes, so both grow
with the zone's width W only. CLI predict and transfer read each band's
rows from the composite file (raster.read_rows: one read per spectral
plane, into a plane buffer each thread reuses), not through np.memmap,
whose touched pages would count in the process's RSS, and write each tile
row as soon as it is done (predict_tile_rows). predict_zone collects the
stream for callers that hold the zone anyway. With a desk model on 2
vCPUs, CLI predict's peak RSS reads 61.5 MB at 2048 x 2048 against 54.2 MB
at 512 x 512: neither the composite, nor its rescaled copy, nor the mosaic
is held whole.

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
4096 x 9 f_a floats: 4.7 MB (desk preset; paper's layer runs F(2x2, 3x3)
through 6 MB of buffers per thread instead of an 18.9 MB matrix). That
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
import fcntl
import glob
import itertools
import json
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import model as model_mod, raster, sampling
from .errors import (ConfigError, DegenerateClassError, FormatError,
                     RegistryError, ShapeError)
from .model import (TRAIN_SLICES, Model, build_model, inference_stack,
                    run_layers, train_step)
from .nncore import AdamState, BatchNorm, bce_loss
from .raster import PATCH_MARGIN, RasterGrid, TileIndex

PREDICT_BLOCK = 64  # output pixels per side of one inference block
STATISTICS_SAMPLES = 4096  # training samples of BatchNorm's statistics
STATISTICS_CHUNK = 1024  # patches per task of that pass: a default batch


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
    best_epoch: int = 0  # 1-based: the epoch the model holds

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


def _check_bands(composite: RasterGrid,
                 arch: model_mod.ArchitectureConfig) -> None:
    """ConfigError unless the network reads the composite's band count."""
    if composite.bands != arch.bands:
        raise ConfigError(f"composite has {composite.bands} bands, model "
                          f"expects {arch.bands}")


# -- training ---------------------------------------------------------------


def _infer_loss(stack, padded: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                labels: np.ndarray, run=map) -> float:
    """Mean BCE over a sample subset in inference mode, from the layers of
    model.inference_stack (the pass that makes the maps), in batches of at
    most PREDICT_BLOCK**2 patches, a prediction block's pixel count; run
    maps the batches, whose losses are added in order."""
    batch = PREDICT_BLOCK ** 2

    def batch_loss(b0: int) -> float:
        b1 = min(b0 + batch, rows.size)
        patches = raster.gather_patches(padded, rows[b0:b1], cols[b0:b1])
        loss, _ = bce_loss(labels[b0:b1].astype(np.float32),
                           run_layers(stack, patches)[:, 0, 0])
        return loss * (b1 - b0)

    return sum(run(batch_loss, range(0, rows.size, batch))) / rows.size


def _set_statistics(net: Model, patches: np.ndarray, run=map) -> list:
    """Set each BatchNorm's moving_mean and moving_var to the mean and
    population variance of its inference-mode input over patches, and
    return the inference stack they give.

    Layer i of model.inference_stack ends where BatchNorm i begins, so one
    sweep gives every input: layer i, rebuilt once BatchNorm i - 1 is set,
    maps that BatchNorm's input (layer 0 the patches) to BatchNorm i's, in
    views of STATISTICS_CHUNK rows mapped by run. BatchNorm.batch_statistics,
    the train pass's own, sums the chunks' column sums in chunk order."""
    stack = inference_stack(net)
    xs = [patches[a:a + STATISTICS_CHUNK]
          for a in range(0, patches.shape[0], STATISTICS_CHUNK)]
    norms = [layer for layer in net.layers if isinstance(layer, BatchNorm)]
    for i, bn in enumerate(norms):
        xs = list(run(stack[i].forward, xs))
        mean, var, _ = bn.batch_statistics(xs, run)
        bn.moving_mean[...], bn.moving_var[...] = mean, var
        stack = inference_stack(net)
    return stack


def train_zone(composite: RasterGrid, label_grid: RasterGrid,
               arch: model_mod.ArchitectureConfig, run: TrainingRun,
               cfg: SamplingConfig):
    """Two-stage sampling plus the full optimization loop for one zone.

    After each epoch, before its validation loss, _set_statistics gives
    each BatchNorm the population statistics of its inference-mode input
    over STATISTICS_SAMPLES training samples, evenly spaced over the
    training set, so no generator draws them; their patches are gathered
    once, before the first epoch. With early stopping the model ends with
    the parameters and statistics of the epoch that last improved the
    validation loss; without, with the last epoch's.

    Training runs on one OpenBLAS thread and takes its parallelism from
    the batch instead: each optimizer batch runs as model.train_step's
    TRAIN_SLICES row slices on train_workers() threads, and each epoch's
    statistics pass and validation loss run on the same threads. Between
    GEMMs a step is numpy work (im2col copies, BatchNorm, dropout and its
    mask draws) that a second BLAS thread does not reach; slices run it on
    both cores, each drawing its own rows of the masks from the training
    generator's PCG64 stream, and the composed kernels are split over the
    same threads. The slice and task counts are fixed and each BLAS call
    single-threaded, so the model, the history and the generator's stream
    do not depend on the worker count or on the process's BLAS thread
    setting.

    The label raster must lie on the composite's grid (size, origin, pixel
    size and zone_id), or a ShapeError is raised before any rescaling.

    Returns (model, history, info) where info carries the sampling manifest
    and the selected tile windows.
    """
    run.validate()
    cfg.validate()
    _check_bands(composite, arch)
    grid = ("height", "width", "origin_x", "origin_y", "pixel_size", "zone_id")
    label, comp = ([getattr(g, f) for f in grid]
                   for g in (label_grid, composite))
    if label != comp:
        raise ShapeError(
            "label raster is {0} x {1} pixels, the composite {6} x {7}; "
            "origins ({2}, {3}) and ({8}, {9}), pixel sizes {4} and {10}, "
            "zones {5!r} and {11!r}".format(*label, *comp))
    padded, valid = raster.rescale_reflectance(composite)
    tiles = raster.tile_grid(composite.height, composite.width,
                             cfg.tile_pixels)
    selected = sampling.select_training_tiles(
        tiles, cfg.tile_fraction, valid if cfg.water_zone else None)

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
    rows, cols, labels = samples.rows, samples.cols, samples.labels
    n_stats = min(STATISTICS_SAMPLES, train_idx.size)
    stats_idx = train_idx[np.arange(n_stats) * train_idx.size // n_stats]
    stats_patches = raster.gather_patches(padded, rows[stats_idx],
                                          cols[stats_idx])
    val = rows[val_idx], cols[val_idx], labels[val_idx]

    net = build_model(arch, seed=run.seed, zone_id=run.zone_id)
    state = AdamState.for_size(net.params.size,
                               learning_rate=run.learning_rate)
    history = TrainingHistory()
    best_val = np.inf
    best = None  # the arrays of the best epoch, when early stopping
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
                patches = raster.gather_patches(padded, rows[idx], cols[idx])
                loss = train_step(net, patches, labels[idx], state,
                                  train_rng, run_tasks)
                epoch_loss += loss * idx.size
            history.train_loss.append(epoch_loss / train_idx.size)
            stack = _set_statistics(net, stats_patches, run_tasks)
            val_loss = _infer_loss(stack, padded, *val, run_tasks)
            history.validation_loss.append(val_loss)

            if run.early_stopping is not None:
                if val_loss < best_val - run.early_stopping.min_delta:
                    best_val, history.best_epoch = val_loss, epoch + 1
                    best = [a.copy() for a in net.serialization_arrays()]
                elif (epoch + 1 - history.best_epoch
                      >= run.early_stopping.patience):
                    break  # epochs since the best one, or since the start
    if best is None:
        history.best_epoch = len(history.train_loss)
    else:
        for array, saved in zip(net.serialization_arrays(), best):
            array[...] = saved
    net.epochs_trained = history.best_epoch

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


def _predict_padded(stack, window: np.ndarray) -> np.ndarray:
    """Probabilities for every center of a margin-2 padded (H+4, W+4, bands)
    band window, H at most PREDICT_BLOCK, in blocks of at most
    PREDICT_BLOCK columns, from the layers of model.inference_stack."""
    halo = 2 * PATCH_MARGIN
    h, w = window.shape[0] - halo, window.shape[1] - halo
    out = np.empty((h, w), dtype=np.float32)
    for c0 in range(0, w, PREDICT_BLOCK):
        c1 = min(c0 + PREDICT_BLOCK, w)
        out[:, c0:c1] = run_layers(stack, window[None, :, c0:c1 + halo])[0]
    return out


@dataclass
class TilePrediction:
    tile: TileIndex
    prob: Optional[np.ndarray]  # (rows, cols) f32 view, -1 where invalid
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def valid(self) -> Optional[np.ndarray]:
        """(rows, cols) bool: where prob holds a probability, not -1."""
        return None if self.prob is None else self.prob != -1.0


@dataclass
class _Band:
    """Zone rows r0..r1 predicted: prob, -1 where invalid, or the error
    that failed their pass."""
    r0: int
    r1: int
    prob: Optional[np.ndarray]
    error: Optional[str] = None


def _predict_bands(net: Model, composite: RasterGrid, workers: int,
                   path=None):
    """The zone's bands of PREDICT_BLOCK rows, in order, from the zone
    origin. Each band rescales its own window of the composite, its rows
    and a PATCH_MARGIN halo (raster.rescale_window), read from the GHSR
    file at path, whose header composite is, when given, else sliced from
    composite.data. At most workers bands run at once, on as many threads
    with one OpenBLAS thread, while the caller takes the finished ones."""
    stack = inference_stack(net)
    height, m = composite.height, PATCH_MARGIN
    buffers = threading.local()  # each thread reads into its own

    def planes(a: int, b: int):
        if path is None:
            yield from composite.data[:, a:b]
            return
        if not hasattr(buffers, "plane"):
            buffers.plane = np.empty(
                (PREDICT_BLOCK + 2 * m, composite.width),
                dtype=raster.DTYPE_NUMPY[composite.dtype])
        for band in range(composite.bands):
            yield raster.read_rows(path, composite, band, a, b,
                                   out=buffers.plane[:b - a])

    def run_band(r0: int) -> _Band:
        r1 = min(r0 + PREDICT_BLOCK, height)
        a, b = max(r0 - m, 0), min(r1 + m, height)
        window, valid = raster.rescale_window(
            planes(a, b), (composite.bands, b - a, composite.width),
            composite.nodata, m - (r0 - a), m - (b - r1))
        try:
            prob = _predict_padded(stack, window)
        except Exception as exc:  # noqa: BLE001 - per-tile isolation
            return _Band(r0, r1, None, f"{type(exc).__name__}: {exc}")
        prob[~valid[r0 - a:r1 - a]] = -1.0
        return _Band(r0, r1, prob)

    starts = iter(range(0, height, PREDICT_BLOCK))
    with _one_blas_thread():
        if workers <= 1:
            # one worker runs here: on a pool thread paper benched ~7% slower
            yield from map(run_band, starts)
            return
        with ThreadPoolExecutor(workers) as pool:
            running = deque(pool.submit(run_band, r0)
                            for r0 in itertools.islice(starts, workers))
            while running:
                band = running.popleft().result()
                running.extend(pool.submit(run_band, r0)
                               for r0 in itertools.islice(starts, 1))
                yield band


def predict_tile_rows(net: Model, composite: RasterGrid, tile_pixels: int,
                      workers: int = 1, path=None):
    """Per-tile probabilities of a zone composite (raw i16 input), one
    tile row at a time: an iterator over the TilePredictions of each tile
    row, each ready as soon as the row's last band is done, each tile's
    prob a view of that row's array. The band count and the tile size are
    checked when it is called.

    The zone is computed once by net's inference stack, built at the start
    of the call without modifying net and shared read-only by the workers,
    in zone-aligned bands of PREDICT_BLOCK rows (_predict_bands), so
    outputs do not depend on tile_pixels or workers, and memory holds a
    tile row and the bands in flight, not the zone. With path, composite
    is the header of the GHSR file there and the bands are read from the
    file. A failed band fails the tiles its rows overlap, each reporting
    the first such band's error; every other tile is produced.
    """
    _check_bands(composite, net.arch)
    tiles = raster.tile_grid(composite.height, composite.width, tile_pixels)
    return _tile_rows(tiles, _predict_bands(net, composite, workers, path),
                      composite.width)


def _tile_rows(tiles: list, bands, width: int):
    """Lists of TilePredictions, a tile row each, from the bands, which
    cover the zone in order; tiles is tile_grid's row-major list."""
    if not tiles:  # a zone without columns has bands but no tile
        return
    rows = (list(row) for _, row in
            itertools.groupby(tiles, key=lambda t: t.tile_row))
    end = 0
    for band in bands:
        r = band.r0
        while r < band.r1:
            if r == end:  # the next tile row starts here
                row = next(rows)
                top, end = r, r + row[0].rows
                prob = None  # drop the last row's before making this one
                prob = np.empty((end - top, width), dtype=np.float32)
                error = None
            b = min(band.r1, end)
            if band.error is None:
                prob[r - top:b - top] = band.prob[r - band.r0:b - band.r0]
            error = error or band.error
            if b == end:
                yield [TilePrediction(tile=t, prob=None, error=error)
                       if error else
                       TilePrediction(tile=t,
                                      prob=prob[:, t.col0:t.col0 + t.cols])
                       for t in row]
            r = b


def predict_zone(net: Model, composite: RasterGrid, tile_pixels: int,
                 workers: int = 1) -> list:
    """Every TilePrediction of predict_tile_rows for a whole zone
    composite held in memory."""
    return [p for row in predict_tile_rows(net, composite, tile_pixels,
                                           workers)
            for p in row]


def tile_paths(out_dir: Path, tile: TileIndex):
    """(probability, quantized) raster paths of a tile in out_dir."""
    stem = f"tile_{tile.tile_row:03d}_{tile.tile_col:03d}"
    return out_dir / f"{stem}_prob.ghsr", out_dir / f"{stem}_quant.ghsr"


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
            prob_grid = raster.make_grid(
                pred.prob, "f32", -1.0, zone_id=composite.zone_id,
                origin_x=composite.origin_x + t.col0 * composite.pixel_size,
                origin_y=composite.origin_y + t.row0 * composite.pixel_size,
                pixel_size=composite.pixel_size)
            quant = raster.quantize_probability(pred.prob, pred.valid)
            quant_grid = replace(prob_grid, data=quant[None], dtype="u8",
                                 nodata=255.0)
            prob_path, quant_path = tile_paths(out_dir, t)
            raster.write_raster(prob_grid, prob_path)
            raster.write_raster(quant_grid, quant_path)
            entry.update(status="ok", prob=str(prob_path),
                         quant=str(quant_path))
        else:
            entry.update(status="error", error=pred.error)
        entries.append(entry)
    return entries


def mosaic_layout(paths, entries: int):
    """(mosaic, places) of the probability tiles at paths, each placed by
    its own header: mosaic is the header of the one f32 band, nodata -1,
    that they make (data None), and places holds a (path, header, row,
    col) per tile. FormatError unless they are such bands of one zone_id
    and pixel size, whole pixels apart, each file as long as its header
    says.

    entries is the number of tiles the prediction made, failed ones
    included. A prediction's tiles cover its zone and fail by whole tile
    rows, so honest tiles span at most entries times the largest one's
    pixels; tiles that span more are a FormatError, raised before any
    pixel is read."""
    headers = [raster.read_header(p) for p in paths]
    zone_id, pixel = headers[0].zone_id, headers[0].pixel_size
    least = np.min([(h.origin_y, h.origin_x) for h in headers], axis=0)
    places = []
    for path, h in zip(paths, headers):
        # nan, and so off the grid, where an origin is not finite
        offset = (np.array((h.origin_y, h.origin_x)) - least) / pixel
        if ((h.dtype, h.bands, h.nodata, h.zone_id, h.pixel_size)
                != ("f32", 1, -1.0, zone_id, pixel)
                or not 0 < pixel < np.inf
                or not (np.abs(offset - np.rint(offset)) <= 1e-6).all()):
            raise FormatError(
                f"tile {path} is not one f32 band, nodata -1, of zone "
                f"{zone_id!r} at pixel size {pixel}, whole pixels from tile "
                f"{paths[0]}")
        raster.check_payload_size(path, h)
        places.append((path, h, *np.rint(offset).astype(np.int64).tolist()))
    height = max(r + h.height for _, h, r, _ in places)
    width = max(c + h.width for _, h, _, c in places)
    largest = max(h.height * h.width for h in headers)
    if height * width > entries * largest:
        raise FormatError(
            f"tiles from {paths[0]} span {height} x {width} pixels, more "
            f"than {entries} tiles of at most {largest} pixels cover")
    return replace(headers[0], width=width, height=height,
                   origin_x=float(least[1]), origin_y=float(least[0])), places


def read_mosaic_rows(mosaic: RasterGrid, places, r0: int,
                     r1: int) -> np.ndarray:
    """Rows r0..r1 of the mosaic mosaic_layout gave, -1 where no tile
    lies, reading each tile's rows there once; FormatError where a tile
    holds a value that is neither a probability nor -1."""
    out = np.full((r1 - r0, mosaic.width), -1.0, dtype=np.float32)
    for path, h, row, col in places:
        a, b = max(row, r0), min(row + h.height, r1)
        if a >= b:
            continue
        tile = raster.read_rows(path, h, 0, a - row, b - row)
        if not ((tile == -1.0) | ((tile >= 0.0) & (tile <= 1.0))).all():
            raise FormatError(f"tile {path} holds a value that is neither "
                              f"a probability nor -1")
        out[a - r0:b - r0, col:col + h.width] = tile
    return out


# -- registry ---------------------------------------------------------------
# A JSON object: zone_id -> {"model_path": the absolute path of the model
# trained on that zone}. Training writes it; a transfer only reads it.


def read_registry(path) -> dict:
    """The entries of the registry at path, {} when there is none;
    RegistryError when it is not a readable JSON object."""
    p = Path(path)
    if not p.exists():
        return {}
    try:
        entries = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RegistryError(f"unreadable registry {p}: {exc}") from exc
    if not isinstance(entries, dict):
        raise RegistryError(f"registry {p} is not a JSON object")
    return entries


def record_model(path, zone_id: str, model_path) -> None:
    """Record model_path, made absolute, as zone_id's model in the registry
    at path, read again under an exclusive flock on <path>.lock, a file the
    write does not replace: trainings that share a registry keep each
    other's entries."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(f"{path}.lock", "a") as lock:  # closing it unlocks
        fcntl.flock(lock, fcntl.LOCK_EX)
        entries = read_registry(path)
        entries[zone_id] = {"model_path": os.path.abspath(model_path)}
        raster.write_json(entries, path)


def registered_model(path, zone_id: str) -> str:
    """The model path the registry at path holds for zone_id; RegistryError
    when it holds none. Fields beside model_path are ignored."""
    entries = read_registry(path)
    if zone_id not in entries:
        raise RegistryError(f"no trained model registered for {zone_id!r}")
    entry = entries[zone_id]
    model_path = entry.get("model_path") if isinstance(entry, dict) else None
    if not isinstance(model_path, str):
        raise RegistryError(f"registry entry for {zone_id!r} has no "
                            f"model_path string: {entry!r}")
    return model_path
