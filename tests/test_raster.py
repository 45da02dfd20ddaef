"""GHSR container round trips, tiling, padding, patches and quantization."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from builtup import raster
from builtup.errors import (ConfigError, FormatError, NumericError,
                            ToolkitError)
from builtup.raster import (
    HEADER_SIZE,
    PATCH_MARGIN,
    REFLECTANCE_SCALE,
    gather_patches,
    make_grid,
    quantize_probability,
    read_header,
    read_raster,
    rescale_reflectance,
    tile_grid,
    write_raster,
)
from builtup.sampling import select_training_tiles


def random_grid(rng, dtype, bands=3, h=6, w=7, nodata=None):
    if dtype == "u8":
        data = rng.integers(0, 256, size=(bands, h, w), dtype=np.uint8)
        nodata = 255 if nodata is None else nodata
    elif dtype == "i16":
        data = rng.integers(-32768, 32768, size=(bands, h, w), dtype=np.int16)
        nodata = -32768 if nodata is None else nodata
    else:
        data = rng.random((bands, h, w), dtype=np.float32)
        nodata = -1.0 if nodata is None else nodata
    return make_grid(data, dtype, nodata, zone_id="Z1", origin_x=12.5,
                     origin_y=-4.0, pixel_size=10.0)


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", ["u8", "i16", "f32"])
    def test_write_read_write_is_byte_identical(self, tmp_path, dtype):
        rng = np.random.default_rng(hash(dtype) % 1000)
        grid = random_grid(rng, dtype)
        p1, p2 = tmp_path / "a.ghsr", tmp_path / "b.ghsr"
        write_raster(grid, p1)
        write_raster(read_raster(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_size_is_header_plus_payload(self, tmp_path):
        grid = make_grid(np.zeros((3, 4, 4), dtype=np.uint8), "u8", 255)
        path = tmp_path / "g.ghsr"
        write_raster(grid, path)
        assert path.stat().st_size == HEADER_SIZE + 48

    def test_i16_boundary_value_survives(self, tmp_path):
        data = np.full((1, 2, 2), -32768, dtype=np.int16)
        grid = make_grid(data, "i16", -1)
        path = tmp_path / "g.ghsr"
        write_raster(grid, path)
        assert read_raster(path).data[0, 0, 0] == -32768

    def test_header_fields_preserved(self, tmp_path):
        grid = random_grid(np.random.default_rng(5), "i16")
        path = tmp_path / "g.ghsr"
        write_raster(grid, path)
        back = read_raster(path)
        assert (back.zone_id, back.origin_x, back.origin_y, back.pixel_size,
                back.nodata) == ("Z1", 12.5, -4.0, 10.0, -32768.0)
        assert read_header(path) == replace(grid, data=None)


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ghsr"
        grid = random_grid(np.random.default_rng(0), "u8")
        write_raster(grid, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="offset 0") as exc:
            read_raster(path)
        assert str(path) in str(exc.value)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.ghsr"
        write_raster(random_grid(np.random.default_rng(0), "u8"), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version") as exc:
            read_raster(path)
        assert str(path) in str(exc.value)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "bad.ghsr"
        write_raster(random_grid(np.random.default_rng(0), "u8"), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match="offset") as exc:
            read_raster(path)
        assert str(path) in str(exc.value)

    def test_bytes_after_the_payload(self, tmp_path):
        path = tmp_path / "bad.ghsr"
        write_raster(random_grid(np.random.default_rng(0), "u8"), path)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00" * 5)
        with pytest.raises(FormatError, match=f"offset {len(raw) + 5}"):
            read_raster(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.ghsr"
        path.write_bytes(b"GHSR\x01\x00")
        with pytest.raises(FormatError, match="truncated header") as exc:
            read_header(path)
        assert str(path) in str(exc.value)

    def test_nodata_not_representable(self):
        with pytest.raises(FormatError, match="nodata"):
            make_grid(np.zeros((1, 2, 2), dtype=np.uint8), "u8", -5)


@pytest.fixture(scope="module")
def ghsr_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ghsr") / "g.ghsr"
    write_raster(random_grid(np.random.default_rng(6), "i16"), path)
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(offset=st.integers(0, HEADER_SIZE - 1), value=st.integers(0, 255))
def test_header_byte_mutations_load_or_raise_toolkit_errors(ghsr_file, offset,
                                                            value):
    """Any single-byte change to the 80-byte header either still loads or
    raises a ToolkitError (the CLI's typed exit codes), never another
    exception."""
    path, raw = ghsr_file
    mutated = bytearray(raw)
    mutated[offset] = value
    path.with_suffix(".mutated").write_bytes(bytes(mutated))
    try:
        read_raster(path.with_suffix(".mutated"))
    except ToolkitError:
        pass


GHSR_VALUES = {
    "u8": (np.uint8, st.integers(0, 255)),
    "i16": (np.int16, st.integers(-32768, 32767)),
    "f32": (np.float32, st.floats(width=32, allow_nan=False)),
}
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def ghsr_grids(draw):
    """Any grid GHSR can hold: each dtype, 1-4 bands, sides 1-17, a nodata
    the dtype represents, a zone id of up to 32 UTF-8 bytes and finite
    georeferencing."""
    dtype = draw(st.sampled_from(sorted(GHSR_VALUES)))
    np_dtype, values = GHSR_VALUES[dtype]
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 17)),
             draw(st.integers(1, 17)))
    data = draw(hnp.arrays(np_dtype, shape))
    zone_id = draw(st.text(max_size=32).filter(
        lambda z: len(z.encode("utf-8")) <= 32))
    return make_grid(data, dtype, draw(values), zone_id=zone_id,
                     origin_x=draw(FINITE), origin_y=draw(FINITE),
                     pixel_size=draw(FINITE))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


@settings(max_examples=200, deadline=None)
@given(grid=ghsr_grids())
def test_write_read_write_property(scratch, grid):
    first, second = scratch / "first.ghsr", scratch / "second.ghsr"
    write_raster(grid, first)
    back = read_raster(first)
    write_raster(back, second)
    assert first.read_bytes() == second.read_bytes()
    np.testing.assert_array_equal(back.data, grid.data)


class TestRescale:
    def grid(self, values, nodata=-32768):
        return make_grid(np.asarray(values, dtype=np.int16), "i16", nodata)

    def interior(self, padded):
        m = PATCH_MARGIN
        return padded[m:-m, m:-m]

    def test_divisor_maps_to_unit(self):
        out, _ = rescale_reflectance(self.grid([[[10000]]]))
        assert self.interior(out)[0, 0, 0] == 1.0

    def test_clamps_above_one(self):
        out, _ = rescale_reflectance(self.grid([[[12000]]]))
        assert self.interior(out)[0, 0, 0] == 1.0

    def test_nodata_masked_and_zeroed(self):
        out, valid = rescale_reflectance(self.grid([[[-32768, 5000]]]))
        assert not valid[0, 0] and valid[0, 1]
        assert self.interior(out)[0, 0, 0] == 0.0
        assert self.interior(out)[0, 1, 0] == np.float32(0.5)


def pad(data, margin=PATCH_MARGIN):
    """The band-first (bands, H, W) data channels-last inside a zero border
    of margin pixels, the layout rescale_reflectance gives a zone."""
    return np.pad(data.transpose(1, 2, 0),
                  ((margin, margin), (margin, margin), (0, 0)),
                  mode="constant")


def all_patches(data):
    """Every pixel's patch, row-major, through the production patch path."""
    h, w = data.shape[1:]
    rows, cols = np.divmod(np.arange(h * w), w)
    return gather_patches(pad(data), rows, cols)


class TestPad:
    def test_margin_zero_identity(self):
        """Without a border, the 3 x 4 centres of a 7 x 8 array are all it
        has, and the first patch is its top-left 5 x 5 corner."""
        grid = random_grid(np.random.default_rng(1), "f32", h=7, w=8)
        rows, cols = np.divmod(np.arange(3 * 4), 4)
        patches = gather_patches(pad(grid.data, margin=0), rows, cols)
        assert patches.shape == (12, 5, 5, 3)
        np.testing.assert_array_equal(
            patches[0], grid.data[:, :5, :5].transpose(1, 2, 0)
        )
        with pytest.raises(IndexError):
            gather_patches(pad(grid.data, margin=0), np.array([0]),
                           np.array([4]))

    def test_dims_grow_by_two_margins(self):
        grid = random_grid(np.random.default_rng(2), "f32", h=10, w=10)
        padded = pad(grid.data)
        assert padded.shape == (14, 14, 3)
        assert np.all(padded[:2, :, :] == 0.0)
        np.testing.assert_array_equal(padded[2:-2, 2:-2],
                                      grid.data.transpose(1, 2, 0))
        last = gather_patches(padded, np.array([9]), np.array([9]))
        assert last.shape == (1, 5, 5, 3)
        assert np.all(last[0, 3:] == 0.0) and np.all(last[0, :, 3:] == 0.0)

    def test_corner_patch_fully_defined_after_padding(self):
        grid = random_grid(np.random.default_rng(3), "f32", h=6, w=6)
        first = gather_patches(pad(grid.data), np.array([0]), np.array([0]))
        assert first.shape == (1, 5, 5, 3)
        assert first.dtype == np.float32 and first.flags.c_contiguous


class TestPatches:
    def test_one_patch_per_pixel(self):
        grid = random_grid(np.random.default_rng(4), "f32", h=10, w=10)
        assert all_patches(grid.data).shape == (100, 5, 5, 3)

    def test_centers_row_major(self):
        grid = random_grid(np.random.default_rng(5), "f32", h=3, w=4)
        patches = all_patches(grid.data)
        centers = patches[:, PATCH_MARGIN, PATCH_MARGIN, :]
        np.testing.assert_array_equal(
            centers, grid.data.transpose(1, 2, 0).reshape(12, 3)
        )

    def test_border_patch_contains_pad_values(self):
        grid = random_grid(np.random.default_rng(6), "f32", h=6, w=6)
        first = all_patches(grid.data)[0]
        assert np.all(first[:2, :, :] == 0.0)
        assert np.all(first[:, :2, :] == 0.0)
        np.testing.assert_array_equal(
            first[2:, 2:, :], grid.data[:, :3, :3].transpose(1, 2, 0)
        )

    def test_unpadded_too_small(self):
        grid = random_grid(np.random.default_rng(7), "f32", h=4, w=4)
        with pytest.raises(ValueError):
            gather_patches(np.ascontiguousarray(grid.data.transpose(1, 2, 0)),
                           np.array([0]), np.array([0]))
        # padded, even a one-pixel grid (a ragged last tile) has its patch
        one = grid.data[:, :1, :1]
        patch = all_patches(one)
        assert patch.shape == (1, 5, 5, 3)
        np.testing.assert_array_equal(patch[0, 2, 2], one[:, 0, 0])

    def test_interior_patches_match_after_crop_and_repad(self):
        rng = np.random.default_rng(8)
        grid = random_grid(rng, "f32", h=9, w=8)
        patches = all_patches(grid.data).reshape(9, 8, 5, 5, 3)
        # interior pixels have fully in-bounds windows: compare directly
        for r in range(2, 7):
            for c in range(2, 6):
                window = grid.data[:, r - 2:r + 3, c - 2:c + 3]
                np.testing.assert_array_equal(
                    patches[r, c], window.transpose(1, 2, 0)
                )


@st.composite
def rescaled_zones(draw):
    """An i16 zone of 1-4 bands and sides 1-12 with some nodata cells, and
    centres anywhere in it, the border included."""
    bands, h, w = (draw(st.integers(1, 4)), draw(st.integers(1, 12)),
                   draw(st.integers(1, 12)))
    data = draw(hnp.arrays(np.int16, (bands, h, w),
                           elements=st.sampled_from([-32768, -1, 0, 1, 4999,
                                                     5000, 10000, 32767])))
    n = draw(st.integers(1, 20))
    rows = draw(hnp.arrays(np.int64, n, elements=st.integers(0, h - 1)))
    cols = draw(hnp.arrays(np.int64, n, elements=st.integers(0, w - 1)))
    return make_grid(data, "i16", -32768), rows, cols


@settings(max_examples=200, deadline=None)
@given(case=rescaled_zones())
def test_rescaled_zone_is_channels_last_and_patches_are_its_windows(case):
    """rescale_reflectance is the band-first rescale (divide, clip, zero
    nodata) transposed to C-contiguous (H+4, W+4, bands) float32, and
    gather_patches(padded, r, c) is padded[r:r+5, c:c+5]."""
    grid, rows, cols = case
    padded, valid = rescale_reflectance(grid)
    m = PATCH_MARGIN
    reference = np.zeros((grid.bands, grid.height + 2 * m,
                          grid.width + 2 * m), dtype=np.float32)
    inner = reference[:, m:-m, m:-m]
    np.divide(grid.data, np.float32(REFLECTANCE_SCALE), out=inner,
              dtype=np.float32)
    np.clip(inner, 0.0, 1.0, out=inner)
    inner[:, ~valid] = 0.0
    assert padded.dtype == np.float32 and padded.flags.c_contiguous
    assert padded.tobytes() == np.ascontiguousarray(
        reference.transpose(1, 2, 0)).tobytes()
    patches = gather_patches(padded, rows, cols)
    assert patches.dtype == np.float32 and patches.flags.c_contiguous
    assert patches.shape == (rows.size, 5, 5, grid.bands)
    for patch, r, c in zip(patches, rows, cols):
        np.testing.assert_array_equal(patch, padded[r:r + 5, c:c + 5])


class TestTileGrid:
    def test_four_tiles(self):
        tiles = tile_grid(20000, 20000, 10000)
        assert len(tiles) == 4
        assert all(t.rows == 10000 and t.cols == 10000 for t in tiles)

    def test_ragged_last_tile(self):
        tiles = tile_grid(25000, 10000, 10000)
        assert len(tiles) == 3
        assert tiles[-1].rows == 5000 and tiles[-1].cols == 10000

    def test_partition_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            h = int(rng.integers(5, 60))
            w = int(rng.integers(5, 60))
            t = int(rng.integers(5, 25))
            tiles = tile_grid(h, w, t)
            cover = np.zeros((h, w), dtype=int)
            for tile in tiles:
                cover[tile.row0:tile.row0 + tile.rows,
                      tile.col0:tile.col0 + tile.cols] += 1
            assert np.all(cover == 1)

    def test_water_dominated_flag(self):
        """A water zone trains on the tiles whose window of the validity
        mask holds a valid pixel, here only the first."""
        valid = np.zeros((10, 10), dtype=bool)
        valid[:5, :5] = True  # only the first tile has data
        tiles = tile_grid(10, 10, 5)
        assert [(t.tile_row, t.tile_col) for t in
                select_training_tiles(tiles, 0.5, water=valid)] == [(0, 0)]
        valid[9, 9] = True  # one valid pixel in the last tile
        assert [(t.tile_row, t.tile_col) for t in
                select_training_tiles(tiles, 0.5, water=valid)] == [
                    (0, 0), (1, 1)]

    def test_tile_smaller_than_patch(self):
        with pytest.raises(ConfigError):
            tile_grid(10, 10, 3)


class TestQuantize:
    def test_rounding(self):
        q = quantize_probability(np.array([[0.57]], dtype=np.float32),
                                 np.array([[True]]))
        assert q[0, 0] == 57

    def test_endpoints(self):
        q = quantize_probability(np.array([[0.0, 1.0]], dtype=np.float32),
                                 np.ones((1, 2), dtype=bool))
        assert q.tolist() == [[0, 100]]

    def test_nodata_is_255(self):
        q = quantize_probability(np.array([[0.4, 0.6]], dtype=np.float32),
                                 np.array([[False, True]]))
        assert q[0, 0] == 255 and q[0, 1] == 60

    def test_out_of_range_raises(self):
        with pytest.raises(NumericError):
            quantize_probability(np.array([[1.5]]), np.array([[True]]))

    def test_nan_raises(self):
        """NaN fails both comparisons of a min/max range check."""
        with pytest.raises(NumericError):
            quantize_probability(np.array([[0.5, np.nan]]),
                                 np.array([[True, True]]))

    def test_dequantize_error_bounded(self):
        rng = np.random.default_rng(10)
        p = rng.random((50, 50)).astype(np.float32)
        q = quantize_probability(p, np.ones_like(p, dtype=bool))
        assert np.max(np.abs(q / 100.0 - p)) <= 0.005 + 1e-9
