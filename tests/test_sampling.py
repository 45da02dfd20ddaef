"""Tile selection, the two-stage patch sampler and epoch minibatches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builtup import sampling
from builtup.errors import ConfigError
from builtup.raster import TileIndex, make_grid, tile_grid
from builtup.sampling import (
    build_sample_set,
    patch_block_labels,
    sample_manifest,
    select_training_tiles,
    shuffle_minibatches,
)
from builtup.synth import LABEL_NODATA


def label_grid(values, nodata=LABEL_NODATA, zone_id="Z"):
    return make_grid(np.asarray(values, dtype=np.uint8), "u8", nodata,
                     zone_id=zone_id)


class TestSelectTiles:
    def make_tiles(self, rows, cols):
        return tile_grid(rows * 10, cols * 10, 10)

    def test_checkerboard_half(self):
        selected = select_training_tiles(self.make_tiles(4, 4), 0.5)
        assert len(selected) == 8
        assert all((t.tile_row + t.tile_col) % 2 == 0 for t in selected)

    def test_checkerboard_never_adjacent_in_row(self):
        for rows, cols in ((3, 5), (4, 4), (5, 2)):
            selected = select_training_tiles(self.make_tiles(rows, cols), 0.5)
            n = rows * cols
            assert len(selected) in (n // 2, (n + 1) // 2)
            by_row = {}
            for t in selected:
                by_row.setdefault(t.tile_row, []).append(t.tile_col)
            for cols_sel in by_row.values():
                cols_sel = sorted(cols_sel)
                assert all(b - a >= 2 for a, b in zip(cols_sel, cols_sel[1:]))

    def test_single_tile_any_fraction(self):
        tiles = self.make_tiles(1, 1)
        for fraction in (0.2, 0.5, 0.9, 1.0):
            assert len(select_training_tiles(tiles, fraction)) == 1

    def test_quarter_of_a_four_by_four_grid_uses_every_column(self):
        """Diagonals 0 and 4 of 7 at 0.25: 1 + 3 tiles, one per column (a
        row-major every-4th pass took 4 tiles of column 0)."""
        selected = select_training_tiles(self.make_tiles(4, 4), 0.25)
        assert sorted((t.tile_row, t.tile_col) for t in selected) == [
            (0, 0), (1, 3), (2, 2), (3, 1)]

    def test_water_zone_selects_all_valid(self):
        valid = np.zeros((20, 20), dtype=bool)
        valid[:10, :] = True  # top two tiles have data
        tiles = tile_grid(20, 20, 10)
        selected = select_training_tiles(tiles, 0.5, water=valid)
        assert {(t.tile_row, t.tile_col) for t in selected} == {(0, 0), (0, 1)}

    def test_bad_fraction(self):
        """Refused also in a water zone, whose selection ignores the
        fraction's value."""
        for water in (None, np.ones((20, 20), dtype=bool)):
            for fraction in (0.0, 7.0):
                with pytest.raises(ConfigError):
                    select_training_tiles(self.make_tiles(2, 2), fraction,
                                          water=water)


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12),
       fraction=st.floats(0, 1, exclude_min=True))
def test_tile_selection_is_systematic_over_anti_diagonals(rows, cols,
                                                          fraction):
    """A diagonal tile_row + tile_col is taken whole or not at all, the
    first tile always; of the K diagonals floor((K - 1) * fraction) + 1 are
    taken, every one at 1.0, and 0.5 is the parity checkerboard."""
    tiles = tile_grid(rows * 10, cols * 10, 10)
    selected = select_training_tiles(tiles, fraction)
    diagonals = {t.tile_row + t.tile_col for t in selected}
    assert (0, 0) in {(t.tile_row, t.tile_col) for t in selected}
    assert len(selected) == sum(t.tile_row + t.tile_col in diagonals
                                for t in tiles)
    k = rows + cols - 1
    assert len(diagonals) == math.floor((k - 1) * fraction) + 1
    assert select_training_tiles(tiles, 1.0) == tiles
    half = select_training_tiles(tiles, 0.5)
    assert half == [t for t in tiles if (t.tile_row + t.tile_col) % 2 == 0]


class TestBlockLabels:
    def test_corner_pixel_marks_patch_built_up(self):
        labels = np.zeros((8, 8), dtype=np.uint8)
        labels[0, 0] = 1
        block = patch_block_labels(labels)
        # centers within Chebyshev distance 2 of (0,0) see that pixel
        assert block[2, 2] and block[0, 2] and block[2, 0]
        assert not block[3, 0] and not block[0, 3] and not block[3, 3]

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(1)
        labels = (rng.random((12, 14)) < 0.1).astype(np.uint8)
        block = patch_block_labels(labels)
        for r in range(12):
            for c in range(14):
                r0, r1 = max(0, r - 2), min(12, r + 3)
                c0, c1 = max(0, c - 2), min(14, c + 3)
                assert block[r, c] == labels[r0:r1, c0:c1].any()

    def test_nodata_labels_never_built(self):
        labels = np.full((6, 6), LABEL_NODATA, dtype=np.uint8)
        assert not patch_block_labels(labels).any()


class TestBuildSampleSet:
    def scenario(self, seed=3, h=20, w=20):
        rng = np.random.default_rng(seed)
        labels = np.zeros((h, w), dtype=np.uint8)
        labels[2:5, 3:6] = 1
        labels[11, 15] = 1
        grid = label_grid(labels)
        valid = np.ones((h, w), dtype=bool)
        tiles = tile_grid(h, w, max(h, w))
        return grid, valid, tiles, rng

    def test_every_built_up_patch_kept(self):
        """The block rule draws; the centre pixel labels: (2, 1) is drawn
        for the built-up pixel (2, 3) in its block, and is labelled 0."""
        grid, valid, tiles, rng = self.scenario()
        samples = build_sample_set(grid, valid, tiles, 0.6, rng)
        block = patch_block_labels(grid.data[0])
        kept = set(zip(samples.rows.tolist(), samples.cols.tolist()))
        assert set(zip(*np.nonzero(block))) <= kept
        assert np.array_equal(samples.labels,
                              grid.data[0][samples.rows, samples.cols])
        assert block[2, 1] and (2, 1) in kept
        assert samples.built_up_count == 3 * 3 + 1

    def test_non_built_up_keep_rate(self):
        rng = np.random.default_rng(8)
        labels = np.zeros((128, 128), dtype=np.uint8)
        grid = label_grid(labels)
        grid.data[0, 64, 64] = 1  # avoid the zero-built-up warning
        valid = np.ones((128, 128), dtype=bool)
        tiles = tile_grid(128, 128, 128)
        samples = build_sample_set(grid, valid, tiles, 0.6, rng)
        block = patch_block_labels(grid.data[0])
        candidates = int((~block).sum())
        kept = len(samples) - int(block.sum())  # every block patch is kept
        sigma = np.sqrt(candidates * 0.6 * 0.4)
        assert abs(kept - 0.6 * candidates) < 3 * sigma

    def test_nodata_center_excluded(self):
        grid, valid, tiles, rng = self.scenario()
        grid.data[0, 3, 4] = LABEL_NODATA
        valid[11, 15] = False  # image nodata at a built-up center
        samples = build_sample_set(grid, valid, tiles, 1.0 - 1e-9, rng)
        centers = set(zip(samples.rows, samples.cols))
        assert (3, 4) not in centers
        assert (11, 15) not in centers

    def test_same_seed_identical(self):
        grid, valid, tiles, _ = self.scenario()
        a = build_sample_set(grid, valid, tiles, 0.6, np.random.default_rng(5))
        b = build_sample_set(grid, valid, tiles, 0.6, np.random.default_rng(5))
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_built_up_warns(self):
        grid = label_grid(np.zeros((10, 10), dtype=np.uint8))
        valid = np.ones((10, 10), dtype=bool)
        tiles = tile_grid(10, 10, 10)
        with pytest.warns(UserWarning, match="no built-up"):
            build_sample_set(grid, valid, tiles, 0.6,
                             np.random.default_rng(0))

    def test_only_selected_tiles_sampled(self):
        grid, valid, _, rng = self.scenario()
        tiles = tile_grid(20, 20, 10)
        selected = select_training_tiles(tiles, 0.5)
        samples = build_sample_set(grid, valid, selected, 1.0 - 1e-9, rng)
        windows = [(t.row0, t.col0, t.rows, t.cols) for t in selected]
        for r, c in zip(samples.rows, samples.cols):
            assert any(r0 <= r < r0 + rr and c0 <= c < c0 + cc
                       for r0, c0, rr, cc in windows)


class TestClassStats:
    """The class fractions a sampling manifest records."""

    def test_fractions(self):
        s = sampling.SampleSet(zone_id="Z", rows=np.zeros(500, dtype=int),
                               cols=np.zeros(500, dtype=int),
                               labels=np.r_[np.ones(10), np.zeros(490)]
                               .astype(np.uint8))
        stats = sample_manifest(s)["fractions"]
        assert stats["built_up"] == pytest.approx(0.02)
        assert stats["non_built_up"] == pytest.approx(0.98)
        assert stats["built_up"] + stats["non_built_up"] == pytest.approx(1.0)

    def test_all_built_up(self):
        s = sampling.SampleSet(zone_id="Z", rows=np.zeros(4, dtype=int),
                               cols=np.zeros(4, dtype=int),
                               labels=np.ones(4, dtype=np.uint8))
        assert sample_manifest(s)["fractions"] == {"built_up": 1.0,
                                                   "non_built_up": 0.0}

    def test_empty_set(self):
        s = sampling.SampleSet(zone_id="Z", rows=np.empty(0, dtype=int),
                               cols=np.empty(0, dtype=int),
                               labels=np.empty(0, dtype=np.uint8))
        manifest = sample_manifest(s)
        assert manifest["samples"] == manifest["built_up"] == 0
        assert manifest["fractions"] == {"built_up": 0.0,
                                         "non_built_up": 0.0}


class TestShuffleMinibatches:
    def test_batch_sizes(self):
        batches = list(shuffle_minibatches(500, 100,
                                           np.random.default_rng(0)))
        assert [b.size for b in batches] == [100, 100, 100, 100, 100]

    def test_epoch_is_exact_partition(self):
        batches = list(shuffle_minibatches(777, 64,
                                           np.random.default_rng(1)))
        joined = np.sort(np.concatenate(batches))
        np.testing.assert_array_equal(joined, np.arange(777))

    def test_epochs_reshuffle_same_multiset(self):
        rng = np.random.default_rng(2)
        first = np.concatenate(list(shuffle_minibatches(100, 10, rng)))
        second = np.concatenate(list(shuffle_minibatches(100, 10, rng)))
        assert not np.array_equal(first, second)
        np.testing.assert_array_equal(np.sort(first), np.sort(second))

    def test_trailing_single_sample_joins_previous_batch(self):
        batches = list(shuffle_minibatches(2049, 1024,
                                           np.random.default_rng(3)))
        assert [b.size for b in batches] == [1024, 1025]

    def test_final_single_sample_chunk_joins_previous_batch(self):
        """The epoch's one-sample tail after several full batches joins
        the last of them."""
        batches = list(shuffle_minibatches(2049, 512,
                                           np.random.default_rng(4)))
        assert [b.size for b in batches] == [512, 512, 512, 513]


def reference_minibatches(n_samples, batch_size, rng):
    """Batching without the size-1 merge."""
    order = rng.permutation(n_samples)
    for b0 in range(0, n_samples, batch_size):
        yield order[b0:b0 + batch_size]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 3000), batch=st.integers(2, 600),
       seed=st.integers(0, 2**32 - 1))
def test_minibatch_properties(n, batch, seed):
    batches = list(shuffle_minibatches(n, batch, np.random.default_rng(seed)))
    joined = np.concatenate(batches) if batches else np.empty(0, int)
    np.testing.assert_array_equal(np.sort(joined), np.arange(n))
    if n >= 2:
        assert min(b.size for b in batches) >= 2
    reference = list(reference_minibatches(n, batch,
                                           np.random.default_rng(seed)))
    if all(b.size != 1 for b in reference):
        assert len(batches) == len(reference)
        for b, r in zip(batches, reference):
            np.testing.assert_array_equal(b, r)
