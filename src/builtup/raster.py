"""Raster container, GHSR file I/O, tiling, padding and patch extraction.

The GHSR container is a minimal bit-exact raster format: a fixed 80-byte
little-endian header followed by band-sequential row-major samples.

Header layout (offsets in bytes):
    0   magic "GHSR" (4)
    4   u16 version = 1
    6   u8 dtype code (1=u8, 2=i16, 3=f32)
    7   u8 bands
    8   u32 width
    12  u32 height
    16  f64 nodata
    24  f64 origin_x
    32  f64 origin_y
    40  f64 pixel_size
    48  32-byte NUL-padded zone_id
    80  payload: bands * height * width samples, band-sequential row-major
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import FormatError, ParameterError, NumericError, ShapeError

MAGIC = b"GHSR"
VERSION = 1
HEADER_SIZE = 80
PATCH_SIZE = 5
PATCH_MARGIN = PATCH_SIZE // 2

DTYPE_CODES = {"u8": 1, "i16": 2, "f32": 3}
DTYPE_NAMES = {code: name for name, code in DTYPE_CODES.items()}
DTYPE_NUMPY = {"u8": np.dtype("<u1"), "i16": np.dtype("<i2"), "f32": np.dtype("<f4")}


@dataclass
class RasterGrid:
    """In-memory raster: data is (bands, height, width), matching file order."""

    width: int
    height: int
    bands: int
    dtype: str
    nodata: float
    zone_id: str = ""
    origin_x: float = 0.0
    origin_y: float = 0.0
    pixel_size: float = 10.0
    data: np.ndarray = field(default=None, repr=False)

    def validate(self) -> None:
        if self.dtype not in DTYPE_CODES:
            raise FormatError(f"unknown dtype {self.dtype!r}")
        if self.data.shape != (self.bands, self.height, self.width):
            raise ShapeError(
                f"data shape {self.data.shape} != "
                f"({self.bands}, {self.height}, {self.width})"
            )
        np_dtype = DTYPE_NUMPY[self.dtype]
        if np_dtype.kind in "iu":
            info = np.iinfo(np_dtype)
            if not float(self.nodata).is_integer() or not (
                info.min <= int(self.nodata) <= info.max
            ):
                raise FormatError(
                    f"nodata {self.nodata} not representable in {self.dtype}"
                )
        if len(self.zone_id.encode("utf-8")) > 32:
            raise FormatError("zone_id longer than 32 bytes")

    def valid_mask(self) -> np.ndarray:
        """(H, W) bool; a pixel is valid when no band holds the nodata value."""
        return ~np.any(self.data == self.nodata, axis=0)


def make_grid(data: np.ndarray, dtype: str, nodata: float, zone_id: str = "",
              origin_x: float = 0.0, origin_y: float = 0.0,
              pixel_size: float = 10.0) -> RasterGrid:
    data = np.ascontiguousarray(data, dtype=DTYPE_NUMPY[dtype])
    if data.ndim == 2:
        data = data[None, :, :]
    bands, height, width = data.shape
    grid = RasterGrid(width=width, height=height, bands=bands, dtype=dtype,
                      nodata=nodata, zone_id=zone_id, origin_x=origin_x,
                      origin_y=origin_y, pixel_size=pixel_size, data=data)
    grid.validate()
    return grid


def write_raster(grid: RasterGrid, path) -> None:
    grid.validate()
    zone = grid.zone_id.encode("utf-8").ljust(32, b"\x00")
    header = MAGIC + struct.pack(
        "<HBBII dddd",
        VERSION,
        DTYPE_CODES[grid.dtype],
        grid.bands,
        grid.width,
        grid.height,
        grid.nodata,
        grid.origin_x,
        grid.origin_y,
        grid.pixel_size,
    ) + zone
    assert len(header) == HEADER_SIZE
    payload = np.ascontiguousarray(grid.data, dtype=DTYPE_NUMPY[grid.dtype])
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload.tobytes())


def read_header(path) -> dict:
    """Parse the 80-byte GHSR header without touching the payload."""
    with open(path, "rb") as f:
        raw = f.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise FormatError(
            f"truncated header at offset {len(raw)}: need {HEADER_SIZE} bytes"
        )
    if raw[:4] != MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r} at offset 0")
    version, dcode, bands, width, height, nodata, ox, oy, psize = struct.unpack(
        "<HBBII dddd", raw[4:48]
    )
    if version != VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    if dcode not in DTYPE_NAMES:
        raise FormatError(f"unknown dtype code {dcode} at offset 6")
    try:
        zone_id = raw[48:80].rstrip(b"\x00").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"zone_id is not UTF-8 at offset 48: {exc}") from exc
    return {
        "version": version,
        "dtype": DTYPE_NAMES[dcode],
        "bands": bands,
        "width": width,
        "height": height,
        "nodata": nodata,
        "origin_x": ox,
        "origin_y": oy,
        "pixel_size": psize,
        "zone_id": zone_id,
    }


def check_payload_size(path, hdr: dict) -> int:
    """The sample count of the payload hdr describes; FormatError unless
    the file at path holds the header and exactly that payload."""
    count = hdr["bands"] * hdr["height"] * hdr["width"]
    expected = HEADER_SIZE + count * DTYPE_NUMPY[hdr["dtype"]].itemsize
    size = os.path.getsize(path)
    if size != expected:
        raise FormatError(f"truncated payload of {path} at offset {size}: "
                          f"expected {expected} bytes total")
    return count


def read_raster(path) -> RasterGrid:
    hdr = read_header(path)
    np_dtype = DTYPE_NUMPY[hdr["dtype"]]
    count = check_payload_size(path, hdr)
    with open(path, "rb") as f:
        f.seek(HEADER_SIZE)
        # read into the array itself: no bytes object beside it
        data = np.fromfile(f, dtype=np_dtype, count=count).reshape(
            hdr["bands"], hdr["height"], hdr["width"])
    return RasterGrid(width=hdr["width"], height=hdr["height"],
                      bands=hdr["bands"], dtype=hdr["dtype"],
                      nodata=hdr["nodata"], zone_id=hdr["zone_id"],
                      origin_x=hdr["origin_x"], origin_y=hdr["origin_y"],
                      pixel_size=hdr["pixel_size"], data=data)


def rescale_reflectance(grid: RasterGrid, divisor: float):
    """Map integer reflectance to f32 in [0,1] by value/divisor, clamped,
    inside a zero border of PATCH_MARGIN pixels.

    Returns (padded, valid): padded is (bands, H+4, W+4) float32 with
    nodata cells zeroed, valid the (H, W) validity mask.
    """
    if divisor <= 0:
        raise ParameterError(f"divisor must be positive, got {divisor}")
    valid = grid.valid_mask()
    m = PATCH_MARGIN
    padded = np.zeros((grid.bands, grid.height + 2 * m, grid.width + 2 * m),
                      dtype=np.float32)
    interior = padded[:, m:m + grid.height, m:m + grid.width]
    np.divide(grid.data, np.float32(divisor), out=interior, dtype=np.float32)
    np.clip(interior, 0.0, 1.0, out=interior)
    interior[:, ~valid] = 0.0
    return padded, valid


def patch_view(padded: np.ndarray) -> np.ndarray:
    """Sliding-window view over (bands, Hp, Wp): result (H, W, PATCH_SIZE,
    PATCH_SIZE, bands)."""
    win = np.lib.stride_tricks.sliding_window_view(
        padded, (PATCH_SIZE, PATCH_SIZE), axis=(1, 2))
    # win: (bands, H, W, size, size) -> (H, W, size, size, bands)
    return win.transpose(1, 2, 3, 4, 0)


def gather_patches(view: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Materialize (N, size, size, bands) float32 patches for given centers."""
    return np.ascontiguousarray(view[rows, cols], dtype=np.float32)


@dataclass(frozen=True)
class TileIndex:
    tile_row: int
    tile_col: int
    row0: int
    col0: int
    rows: int
    cols: int
    water_dominated: bool = False  # True when the window has no valid pixel


def tile_grid(height: int, width: int, tile_pixels: int,
              valid_mask: Optional[np.ndarray] = None) -> list:
    """Partition a zone extent into non-overlapping tiles.

    Last row/column tiles may be smaller. When a validity mask is given,
    tiles without a single valid pixel are flagged water_dominated.
    """
    if tile_pixels < PATCH_SIZE:
        raise ParameterError(
            f"tile_pixels must be >= {PATCH_SIZE}, got {tile_pixels}"
        )
    tiles = []
    n_rows = (height + tile_pixels - 1) // tile_pixels
    n_cols = (width + tile_pixels - 1) // tile_pixels
    for tr in range(n_rows):
        for tc in range(n_cols):
            r0 = tr * tile_pixels
            c0 = tc * tile_pixels
            rows = min(tile_pixels, height - r0)
            cols = min(tile_pixels, width - c0)
            water = False
            if valid_mask is not None:
                water = not bool(valid_mask[r0:r0 + rows, c0:c0 + cols].any())
            tiles.append(TileIndex(tile_row=tr, tile_col=tc, row0=r0, col0=c0,
                                   rows=rows, cols=cols, water_dominated=water))
    return tiles


def quantize_probability(prob: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Probabilities [0,1] -> u8 0..100; invalid cells -> 255. A valid
    probability outside [0, 1], or NaN, is a NumericError."""
    p = np.asarray(prob, dtype=np.float64)
    checked = p[valid]
    # written so that NaN, which fails every comparison, fails the check
    if checked.size and not (checked.min() >= 0.0 and checked.max() <= 1.0):
        raise NumericError(
            f"probability outside [0,1]: min={checked.min()}, max={checked.max()}"
        )
    out = np.full(p.shape, 255, dtype=np.uint8)
    out[valid] = np.rint(checked * 100.0).astype(np.uint8)
    return out
