"""Deterministic synthetic scenes: clustered rectangular buildings on a
noisy multi-band background, with co-registered labels and footprints.

Buildings are pixel-aligned axis-parallel rectangles, so the label raster
and the footprint rectangles (in metres) describe exactly the same mask.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, GenerationError
from .raster import RasterGrid, make_grid, write_json, write_raster

COMPOSITE_NODATA = -32768
LABEL_NODATA = 255
PLACEMENT_RETRIES = 200
BUILDINGS_PER_CLUSTER = 14
BUILDING_SIZE = (5, 11)  # min/max rectangle edge, pixels
CLUSTER_SPREAD = 14.0  # pixel sigma of building centers
BAND_BACKGROUND = (1600.0, 1800.0, 2000.0, 2800.0)
BAND_BUILT_OFFSET = (2400.0, 2200.0, 2000.0, -1200.0)


@dataclass(frozen=True)
class SceneParams:
    size: int = 512  # zone edge, pixels
    clusters: int = 26
    noise_sigma: float = 200.0
    nodata_fraction: float = 0.02
    seed: int = 0

    def validate(self) -> None:
        if self.size <= 2 * BUILDING_SIZE[1]:
            raise GenerationError(
                f"zone size {self.size} too small for buildings up to "
                f"{BUILDING_SIZE[1]} pixels"
            )
        if not 0.0 <= self.nodata_fraction < 1.0:
            raise GenerationError(
                f"nodata_fraction must be in [0, 1), got {self.nodata_fraction}"
            )
        if not 0.0 <= self.noise_sigma < math.inf:
            raise GenerationError(f"noise_sigma must be finite and >= 0, "
                                  f"got {self.noise_sigma}")
        if self.clusters < 0:
            raise GenerationError(f"clusters must be >= 0, got {self.clusters}")
        if self.seed < 0:
            raise GenerationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Zone:
    zone_id: str
    composite: RasterGrid  # i16, 4 bands
    labels: RasterGrid  # u8 {0,1}, nodata 255 unused
    footprints: list  # [(x0, y0, x1, y1), ...] metres


def _place_buildings(params: SceneParams, rng: np.random.Generator):
    """Clustered pixel-aligned rectangles [(r0, c0, r1, c1) half-open)."""
    size = params.size
    lo, hi = BUILDING_SIZE
    rects = []
    for _ in range(params.clusters):
        cy, cx = rng.integers(hi, size - hi, size=2)
        for _ in range(BUILDINGS_PER_CLUSTER):
            ok = False
            for _ in range(PLACEMENT_RETRIES):
                h = int(rng.integers(lo, hi + 1))
                w = int(rng.integers(lo, hi + 1))
                dy, dx = rng.normal(0.0, CLUSTER_SPREAD, size=2)
                r0 = int(round(cy + dy - h / 2))
                c0 = int(round(cx + dx - w / 2))
                if 0 <= r0 and 0 <= c0 and r0 + h <= size and c0 + w <= size:
                    rects.append((r0, c0, r0 + h, c0 + w))
                    ok = True
                    break
            if not ok:
                raise GenerationError(
                    f"could not place building after {PLACEMENT_RETRIES} retries"
                )
    return rects


def synth_zone(params: SceneParams, zone_id: str = "A") -> Zone:
    params.validate()
    rng = np.random.default_rng(np.random.SeedSequence([params.seed, 0x5CE2E]))
    size = params.size
    rects = _place_buildings(params, rng)

    mask = np.zeros((size, size), dtype=bool)
    for r0, c0, r1, c1 in rects:
        mask[r0:r1, c0:c1] = True

    # one float64 plane at a time: the bands' noise, drawn in turn, is the
    # one (4, size, size) draw in order
    composite = np.empty((4, size, size), dtype=np.int16)
    plane = np.empty((size, size), dtype=np.float64)
    for b in range(4):
        plane.fill(BAND_BACKGROUND[b])
        plane[mask] += BAND_BUILT_OFFSET[b]
        plane += rng.normal(0.0, params.noise_sigma, size=plane.shape)
        np.rint(plane, out=plane)
        np.clip(plane, 0, 32767, out=plane)
        composite[b] = plane

    if params.nodata_fraction > 0:
        holes = rng.random((size, size)) < params.nodata_fraction
        composite[:, holes] = COMPOSITE_NODATA

    pixel = 10.0
    comp_grid = make_grid(composite, "i16", COMPOSITE_NODATA, zone_id=zone_id,
                          pixel_size=pixel)
    label_grid = make_grid(mask.astype(np.uint8), "u8", LABEL_NODATA,
                           zone_id=zone_id, pixel_size=pixel)
    footprints = [(c0 * pixel, r0 * pixel, c1 * pixel, r1 * pixel)
                  for r0, c0, r1, c1 in rects]
    return Zone(zone_id=zone_id, composite=comp_grid, labels=label_grid,
                footprints=footprints)


def zone_stats(zone: Zone) -> dict:
    labels = zone.labels.data[0]
    n = labels.size
    built = int((labels == 1).sum())
    return {
        "zone_id": zone.zone_id,
        "pixels": n,
        "built_up_pixels": built,
        "built_up_fraction": built / n,
        "buildings": len(zone.footprints),
        "nodata_pixels": int((~zone.composite.valid_mask()).sum()),
    }


def zone_paths(out_dir) -> dict:
    """The composite, labels and footprints paths of a zone in out_dir."""
    d = Path(out_dir)
    return {"composite": d / "composite.ghsr", "labels": d / "labels.ghsr",
            "footprints": d / "footprints.json"}


def save_zone(zone: Zone, out_dir) -> dict:
    """Write composite.ghsr, labels.ghsr and footprints.json; returns paths."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    paths = zone_paths(out_dir)
    write_raster(zone.composite, paths["composite"])
    write_raster(zone.labels, paths["labels"])
    write_json({
        "aoi_id": zone.zone_id,
        "pixel_size": zone.composite.pixel_size,
        "origin_x": zone.composite.origin_x,
        "origin_y": zone.composite.origin_y,
        "rects": [list(r) for r in zone.footprints],
    }, paths["footprints"])
    return {k: str(v) for k, v in paths.items()}


def _is_number(value) -> bool:
    """A finite JSON number; true and false are not numbers."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def load_footprints(path) -> dict:
    """The footprints.json written by save_zone; FormatError unless it is a
    JSON object whose "rects" is a list of [x0, y0, x1, y1] number lists
    and whose pixel_size (positive), origin_x and origin_y, where present,
    are numbers."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            footprints = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable footprints {path}: {exc}") from exc
    if not isinstance(footprints, dict) or "rects" not in footprints:
        raise FormatError(f"footprints {path} is not an object with rects")
    rects = footprints["rects"]
    if not isinstance(rects, list) or not all(
            isinstance(r, list) and len(r) == 4 and all(map(_is_number, r))
            for r in rects):
        raise FormatError(f"footprints {path}: rects must be a list of "
                          f"[x0, y0, x1, y1] number lists")
    for key in ("pixel_size", "origin_x", "origin_y"):
        value = footprints.get(key, 1.0)
        if not _is_number(value) or (key == "pixel_size" and value <= 0):
            raise FormatError(f"footprints {path}: bad {key} {value!r}")
    return footprints
