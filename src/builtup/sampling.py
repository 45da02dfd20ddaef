"""The two-stage tile/patch training sampler and epoch minibatching.

Stage one picks a systematic subset of tiles (checkerboard parity at the
default 50% fraction). Stage two keeps every patch whose 5x5 label block
contains at least one built-up pixel and an independent Bernoulli draw of
the non-built-up patches.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ParameterError
from .raster import PATCH_MARGIN, PATCH_SIZE, RasterGrid


def select_training_tiles(tiles, fraction: float,
                          water_zone: bool = False) -> list:
    """Systematic tile selection.

    fraction 0.5 selects the (tile_row + tile_col) parity checkerboard;
    other fractions take a systematic every-1/fraction pass in row-major
    order (the first tile is always taken). Water-dominated zones keep all
    tiles that contain valid data, ignoring the fraction.
    """
    if water_zone:
        return [t for t in tiles if not t.water_dominated]
    if not 0.0 < fraction <= 1.0:
        raise ParameterError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 0.5:
        return [t for t in tiles if (t.tile_row + t.tile_col) % 2 == 0]
    return [t for i, t in enumerate(tiles) if (i * fraction) % 1.0 < fraction]


@dataclass
class SampleSet:
    """Patch references plus labels for one zone; values live in the rasters."""

    zone_id: str
    rows: np.ndarray  # (N,) patch center rows
    cols: np.ndarray  # (N,) patch center cols
    labels: np.ndarray  # (N,) uint8, 1 = built-up patch

    def __len__(self) -> int:
        return self.rows.size

    @property
    def built_up_count(self) -> int:
        return int(self.labels.sum())

    @property
    def non_built_up_count(self) -> int:
        return int(len(self) - self.labels.sum())


def patch_block_labels(labels: np.ndarray) -> np.ndarray:
    """(H, W) bool: patch label block contains >= 1 built-up pixel.

    Blocks are clipped at the grid border; nodata label cells never count
    as built-up.
    """
    padded = np.pad(labels == 1, PATCH_MARGIN)
    win = np.lib.stride_tricks.sliding_window_view(padded,
                                                   (PATCH_SIZE, PATCH_SIZE))
    return win.any(axis=(2, 3))


def build_sample_set(label_grid: RasterGrid, valid_mask: np.ndarray,
                     tiles, non_bu_rate: float,
                     rng: np.random.Generator) -> SampleSet:
    """All built-up patches from the selected tiles plus a Bernoulli
    non_bu_rate draw of the non-built-up ones.

    Candidates are patch centers inside the tile windows whose center label
    is known and whose center pixel carries valid image data.
    """
    labels = label_grid.data[0]
    block_bu = patch_block_labels(labels)
    center_ok = (labels != label_grid.nodata) & valid_mask

    rows_out, cols_out, labels_out = [], [], []
    for tile in sorted(tiles, key=lambda t: (t.tile_row, t.tile_col)):
        sl = (slice(tile.row0, tile.row0 + tile.rows),
              slice(tile.col0, tile.col0 + tile.cols))
        ok = center_ok[sl]
        bu = block_bu[sl]
        draws = rng.random(ok.shape)
        keep = ok & (bu | (draws < non_bu_rate))
        r, c = np.nonzero(keep)
        rows_out.append(r + tile.row0)
        cols_out.append(c + tile.col0)
        labels_out.append(bu[keep].astype(np.uint8))

    rows = np.concatenate(rows_out) if rows_out else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols_out) if cols_out else np.empty(0, dtype=np.int64)
    labs = np.concatenate(labels_out) if labels_out else np.empty(0, dtype=np.uint8)
    sample_set = SampleSet(zone_id=label_grid.zone_id, rows=rows, cols=cols,
                           labels=labs)
    if sample_set.built_up_count == 0:
        warnings.warn(
            f"zone {label_grid.zone_id!r}: no built-up patches in the selected "
            f"tiles; training will be degenerate",
            stacklevel=2,
        )
    return sample_set


def sample_manifest(sample_set: SampleSet) -> dict:
    """The class counts and fractions of a sample set; both fractions are
    0 for an empty set."""
    n, bu = len(sample_set), sample_set.built_up_count
    return {
        "zone_id": sample_set.zone_id,
        "samples": n,
        "built_up": bu,
        "non_built_up": sample_set.non_built_up_count,
        "fractions": ({"built_up": bu / n, "non_built_up": (n - bu) / n}
                      if n else {"built_up": 0.0, "non_built_up": 0.0}),
    }


def shuffle_minibatches(n_samples: int, batch_size: int,
                        rng: np.random.Generator) -> Iterator[np.ndarray]:
    """One epoch of sample indices: a full shuffle split into optimizer
    batches. Every index appears exactly once.

    A size-1 tail batch is merged into the batch before it, since
    train-mode batch norm needs at least two samples."""
    order = rng.permutation(n_samples)
    starts = list(range(0, n_samples, batch_size))
    if len(starts) > 1 and n_samples - starts[-1] == 1:
        starts.pop()
    for s, e in zip(starts, starts[1:] + [n_samples]):
        yield order[s:e]
