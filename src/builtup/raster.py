"""Raster container, GHSR file I/O, tiling, padding and patch extraction.

The GHSR container is a minimal bit-exact raster format: a fixed 80-byte
little-endian header followed by band-sequential row-major samples.
RasterGrid keeps the file's band-first order, and a header read alone
(read_header) is a RasterGrid whose data is None; read_rows reads some rows
of one band. The rescaled zone, or a window of its rows, is in the
network's channels-last order, and every 5x5 patch is a window of it.
Composites hold reflectance as integers times REFLECTANCE_SCALE, as
Sentinel-2 products do; rescale_reflectance divides by it.

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

from .errors import ConfigError, FormatError, NumericError, ShapeError

MAGIC = b"GHSR"
VERSION = 1
HEADER_SIZE = 80
PATCH_SIZE = 5
PATCH_MARGIN = PATCH_SIZE // 2
REFLECTANCE_SCALE = 10000.0

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
        f.write(payload)  # the array itself: no bytes object beside it


def read_header(path) -> RasterGrid:
    """The 80-byte GHSR header as a RasterGrid without data, the payload
    not read; each FormatError names the file, as check_payload_size's
    does."""
    with open(path, "rb") as f:
        raw = f.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise FormatError(
            f"truncated header of {path} at offset {len(raw)}: need "
            f"{HEADER_SIZE} bytes"
        )
    if raw[:4] != MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r} of {path} at offset 0")
    version, dcode, bands, width, height, nodata, ox, oy, psize = struct.unpack(
        "<HBBII dddd", raw[4:48]
    )
    if version != VERSION:
        raise FormatError(f"unsupported version {version} of {path} at "
                          f"offset 4")
    if dcode not in DTYPE_NAMES:
        raise FormatError(f"unknown dtype code {dcode} of {path} at offset 6")
    try:
        zone_id = raw[48:80].rstrip(b"\x00").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"zone_id of {path} is not UTF-8 at offset 48: "
                          f"{exc}") from exc
    return RasterGrid(width=width, height=height, bands=bands,
                      dtype=DTYPE_NAMES[dcode], nodata=nodata, zone_id=zone_id,
                      origin_x=ox, origin_y=oy, pixel_size=psize)


def check_payload_size(path, grid: RasterGrid) -> int:
    """The sample count of the payload grid's header fields describe;
    FormatError unless the file at path holds the header and exactly that
    payload."""
    count = grid.bands * grid.height * grid.width
    expected = HEADER_SIZE + count * DTYPE_NUMPY[grid.dtype].itemsize
    size = os.path.getsize(path)
    if size != expected:
        raise FormatError(f"truncated payload of {path} at offset {size}: "
                          f"expected {expected} bytes total")
    return count


def read_raster(path) -> RasterGrid:
    grid = read_header(path)
    count = check_payload_size(path, grid)
    with open(path, "rb") as f:
        f.seek(HEADER_SIZE)
        # read into the array itself: no bytes object beside it
        data = np.fromfile(f, dtype=DTYPE_NUMPY[grid.dtype], count=count)
    grid.data = data.reshape(grid.bands, grid.height, grid.width)
    return grid


def read_rows(path, grid: RasterGrid, band: int, r0: int, r1: int,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows r0..r1 of one band of the GHSR file at path, whose header is
    grid, as a (r1 - r0, width) array, in one read: into out, C-contiguous,
    where given, else into a new array. FormatError when the file ends
    before them."""
    dtype = DTYPE_NUMPY[grid.dtype]
    if out is None:
        out = np.empty((r1 - r0, grid.width), dtype=dtype)
    row_bytes = grid.width * dtype.itemsize
    with open(path, "rb", buffering=0) as f:
        f.seek(HEADER_SIZE + (band * grid.height + r0) * row_bytes)
        view = memoryview(out).cast("B")
        if f.readinto(view) != view.nbytes:
            raise FormatError(f"truncated payload of {path}: rows {r0}-{r1} "
                              f"of band {band} are missing")
    return out


def rescale_window(planes, shape, nodata: float, top: int, bottom: int):
    """Map integer reflectance to f32 in [0,1] by value/REFLECTANCE_SCALE,
    clamped, inside a zero border: top rows above, bottom rows below and
    PATCH_MARGIN columns on either side.

    planes gives the (h, W) planes of some zone rows in band order, shape
    (bands, h, W) their count and size; each plane is used before the next
    is taken, so an iterator may read them all into one buffer. Returns
    (padded, valid): padded is C-contiguous (top + h + bottom, W + 4,
    bands) float32, channels-last, with nodata cells zeroed; valid the
    (h, W) mask, false where any band holds nodata. Every operation is
    element-wise, so a window of some rows of a zone holds the bits that
    rescaling the whole zone gives those rows.
    """
    bands, h, w = shape
    m = PATCH_MARGIN
    padded = np.zeros((top + h + bottom, w + 2 * m, bands), dtype=np.float32)
    interior = padded[top:top + h, m:m + w]
    invalid = np.zeros((h, w), dtype=bool)
    for b, plane in enumerate(planes):
        invalid |= plane == nodata
        np.divide(plane, np.float32(REFLECTANCE_SCALE), out=interior[..., b],
                  dtype=np.float32)
    np.clip(interior, 0.0, 1.0, out=interior)
    interior[invalid] = 0.0
    return padded, ~invalid


def rescale_reflectance(grid: RasterGrid):
    """rescale_window of a whole zone, PATCH_MARGIN zero rows above and
    below: (padded, valid), padded (H+4, W+4, bands)."""
    return rescale_window(grid.data, grid.data.shape, grid.nodata,
                          PATCH_MARGIN, PATCH_MARGIN)


def gather_patches(padded: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
    """The (N, size, size, bands) patches of a rescaled (H+4, W+4, bands)
    zone centred on zone pixels (rows, cols), padded[r:r+5, c:c+5], in one
    C-contiguous copy; a patch row is size*bands floats from c*bands."""
    hp, wp, bands = padded.shape
    win = np.lib.stride_tricks.sliding_window_view(
        padded.reshape(hp, wp * bands), (PATCH_SIZE, PATCH_SIZE * bands))
    return win[rows, cols * bands].reshape(-1, PATCH_SIZE, PATCH_SIZE, bands)


@dataclass(frozen=True)
class TileIndex:
    tile_row: int
    tile_col: int
    row0: int
    col0: int
    rows: int
    cols: int


def tile_grid(height: int, width: int, tile_pixels: int) -> list:
    """Partition a zone extent into non-overlapping tiles, row-major.

    Last row/column tiles may be smaller.
    """
    if tile_pixels < PATCH_SIZE:
        raise ConfigError(
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
            tiles.append(TileIndex(tile_row=tr, tile_col=tc, row0=r0, col0=c0,
                                   rows=rows, cols=cols))
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
