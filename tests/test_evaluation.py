"""Density rasterization, regression and confusion metrics on known answers."""

import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from builtup import evaluation, pipeline
from builtup.errors import MetricError, ShapeError, UndefinedStatisticError
from builtup.synth import SceneParams, synth_zone
from builtup.evaluation import (
    ConfusionCounts,
    accuracy_metrics,
    binarize,
    confusion,
    evaluate_probabilities,
    rasterize_density,
    report_to_csv,
)


def density(rects, width=1, height=1, **kwargs):
    """rasterize_density with warnings turned into errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return rasterize_density(rects, width=width, height=height, **kwargs)


class TestRasterizeDensity:
    """A 10 m cell holds 10x10 fine cells of 1 m; a fine cell is built when
    its centre lies in a rectangle [x0, x1) x [y0, y1)."""

    def test_half_cell_rectangle(self):
        assert density([(0.0, 0.0, 5.0, 10.0)]) == [[0.5]]

    def test_only_fine_cell_centres_count(self):
        # covers the centre 0.5 of fine column 0
        assert density([(0.4, 0.0, 0.6, 10.0)]) == [[0.1]]
        # lies between the centres 0.5 and 1.5: no fine cell is built
        assert density([(0.6, 0.0, 1.4, 10.0)]) == [[0.0]]

    def test_edges_are_half_open(self):
        # x0 = 0.5 takes the centre 0.5; x1 = 1.5 leaves the centre 1.5 out
        assert density([(0.5, 0.0, 1.5, 10.0)]) == [[0.1]]
        assert density([(0.0, 0.5, 10.0, 1.5)]) == [[0.1]]

    def test_x_runs_along_columns_and_y_along_rows(self):
        np.testing.assert_array_equal(
            density([(10.0, 0.0, 20.0, 10.0)], width=2, height=3),
            [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(
            density([(0.0, 20.0, 10.0, 30.0)], width=2, height=3),
            [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])

    def test_overlaps_count_once_and_origin_shifts(self):
        rects = [(100.0, 50.0, 110.0, 60.0), (100.0, 50.0, 105.0, 60.0)]
        assert density(rects, origin_x=100.0, origin_y=50.0) == [[1.0]]

    def test_outside_footprint_is_clipped_with_a_warning(self):
        with pytest.warns(UserWarning, match="clipped"):
            out = rasterize_density([(-5.0, 0.0, 5.0, 10.0)], 1, 1)
        assert out == [[0.5]]
        with pytest.warns(UserWarning, match="clipped"):
            out = rasterize_density([(0.0, 0.0, 10.0, 15.0)], 1, 1)
        assert out == [[1.0]]

    @pytest.mark.parametrize("pixel_size", [10.4, 0.4])
    def test_pixel_size_off_the_fine_grid_is_refused(self, pixel_size):
        """Coarse cells are a whole number of fine cells wide: at 10.4 m
        the footprint of pixel 100 would land in cell 104, and at 0.4 m
        no fine cell would fit in a pixel."""
        assert evaluation.FINE_RES == 1.0
        with pytest.raises(MetricError, match=f"pixel size {pixel_size} m"):
            rasterize_density([(1040.0, 0.0, 1050.4, 10.4)], 120, 1,
                              pixel_size=pixel_size)

    def test_pixel_size_within_1e6_of_whole_cells_is_kept(self):
        assert density([(0.0, 0.0, 5.0, 10.0)],
                       pixel_size=10.0 + 1e-7) == [[0.5]]


def full_grid_density(rects, width, height, sub=10):
    """Brute-force reference at FINE_RES 1: the whole fine grid of sub x
    sub cells per pixel at once, fine cell (r, c) built when its centre
    (c + 0.5, r + 0.5) lies in a rectangle."""
    centres = np.arange(max(width, height) * sub) + 0.5
    fine = np.zeros((height * sub, width * sub), dtype=bool)
    for x0, y0, x1, y1 in rects:
        inside_y = (centres[:height * sub] >= y0) & (centres[:height * sub] < y1)
        inside_x = (centres[:width * sub] >= x0) & (centres[:width * sub] < x1)
        fine |= inside_y[:, None] & inside_x[None, :]
    return fine.reshape(height, sub, width, sub).mean(axis=(1, 3))


class TestRasterizeDensityStrips:
    """The fine grid is built in bands of coarse rows; rectangles crossing
    band edges are split between bands without changing any density."""

    @pytest.mark.parametrize("pixel_size", [1, 3, 10, 20, 300])
    @pytest.mark.parametrize("band_rows", [1, 2, 3, None])
    def test_bands_equal_the_full_grid(self, monkeypatch, pixel_size,
                                       band_rows):
        """Bands of 1, 2 and 3 coarse rows of the 7x9 extent, and (None,
        the default) one band for the whole, at pixel sizes whose counts
        need uint8 (1, 3 and 10 m), uint16 (20 m: a full cell counts 400)
        and uint32 (300 m: 90,000, and its row sums, up to 300, uint16)."""
        assert evaluation.FINE_RES == 1.0
        width, height, sub = 7, 9, pixel_size
        if band_rows is not None:
            monkeypatch.setattr(evaluation, "RASTER_STRIP_CELLS",
                                band_rows * width * sub * sub)
        rng = np.random.default_rng(5)
        rects = []
        for _ in range(40):
            x0, y0 = rng.uniform(0, 7), rng.uniform(0, 9)
            rects.append((x0, y0, x0 + rng.uniform(0, 3),
                          y0 + rng.uniform(0, 4.5)))
        rects = [r for r in rects if r[2] <= 7 and r[3] <= 9]
        # coarse cell (1, 4) built whole by two overlapping rectangles
        rects += [(4.0, 1.0, 4.75, 2.0), (4.25, 0.5, 5.0, 2.5)]
        rects = [tuple(v * pixel_size for v in r) for r in rects]
        assert any(int(y0 // pixel_size) != int(y1 // pixel_size)
                   for _, y0, _, y1 in rects)
        expected = full_grid_density(rects, width, height, sub)
        assert expected[1, 4] == 1.0
        np.testing.assert_array_equal(
            density(rects, width=width, height=height, pixel_size=pixel_size),
            expected)

    def test_clip_warning_with_several_bands(self, monkeypatch):
        monkeypatch.setattr(evaluation, "RASTER_STRIP_CELLS", 1)
        rects = [(0.0, 5.0, 10.0, 45.0), (15.0, 25.0, 20.0, 35.0)]
        with pytest.warns(UserWarning, match="clipped"):
            out = rasterize_density(rects, 2, 3)
        np.testing.assert_array_equal(out, full_grid_density(rects, 2, 3))


def regress_density(prob, density, valid):
    """The regression of one band: _RegressionSums over the valid pixels."""
    sums = evaluation._RegressionSums()
    sums.add(prob[valid].astype(np.float64),
             density[valid].astype(np.float64))
    return sums.result()


class TestRegressDensity:
    def test_exact_line(self):
        prob = np.array([[0.0, 0.25], [0.5, 1.0]])
        dens = 2.0 * prob + 0.1
        dens[0, 1] = 9.0  # off the line, but masked out
        valid = np.array([[True, False], [True, True]])
        out = regress_density(prob, dens, valid)
        assert out["r"] == pytest.approx(1.0)
        assert out["slope"] == pytest.approx(2.0)
        assert out["intercept"] == pytest.approx(0.1)
        assert out["n"] == 3

    def test_anticorrelated_line(self):
        prob = np.array([0.1, 0.2, 0.3])
        out = regress_density(prob, 1.0 - prob, np.ones(3, dtype=bool))
        assert out["r"] == pytest.approx(-1.0)
        assert out["slope"] == pytest.approx(-1.0)
        assert out["intercept"] == pytest.approx(1.0)

    @pytest.mark.parametrize("prob, dens", [
        ([0.3, 0.3, 0.3], [0.0, 0.5, 1.0]),
        ([0.0, 0.5, 1.0], [0.2, 0.2, 0.2]),
    ])
    def test_zero_variance_is_undefined(self, prob, dens):
        with pytest.raises(UndefinedStatisticError):
            regress_density(np.array(prob), np.array(dens),
                            np.ones(3, dtype=bool))

    def test_fewer_than_two_pixels_is_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            regress_density(np.array([0.1, 0.9]), np.array([0.0, 1.0]),
                            np.array([True, False]))

    def test_shape_mismatch(self):
        """A band whose probabilities are not the density's shape."""
        def read_rows(r0, r1):
            return np.zeros((r1 - r0, 4)), np.ones((r1 - r0, 3), dtype=bool)

        with pytest.raises(ShapeError):
            evaluation.evaluate_rows(read_rows, [], width=3, height=2)


def two_pass_regression(prob, density, valid):
    """Whole-zone reference: OLS and Pearson r from the means of all valid
    pixels first, then the einsum sums of their centred values."""
    x = prob[valid].astype(np.float64)
    y = density[valid].astype(np.float64)
    xc, yc = x - x.mean(), y - y.mean()
    sxx, syy, sxy = (float(np.einsum("i,i", a, b))
                     for a, b in ((xc, xc), (yc, yc), (xc, yc)))
    slope = sxy / sxx
    return {"r": sxy / np.sqrt(sxx * syy), "slope": slope,
            "intercept": float(y.mean() - slope * x.mean()),
            "n": int(x.size)}


@pytest.fixture(scope="module")
def scored_zone():
    """A 128 x 128 zone's footprints, its density, and noisy probabilities
    of it, -1 on a nodata pattern."""
    zone = synth_zone(SceneParams(size=128, seed=2), zone_id="A")
    dens = rasterize_density(zone.footprints, 128, 128)
    rng = np.random.default_rng(3)
    prob = np.clip(dens + 0.3 * rng.standard_normal(dens.shape), 0.0, 1.0)
    prob = prob.astype(np.float32)
    valid = zone.composite.valid_mask()
    prob[~valid] = -1.0
    return prob, valid, zone.footprints, dens


def banded_report(scored_zone, bands=None):
    """evaluate_rows of scored_zone, recording each band read in bands."""
    prob, valid, rects, _ = scored_zone

    def read_rows(r0, r1):
        if bands is not None:
            bands.append((r0, r1))
        return prob[r0:r1], valid[r0:r1]

    return evaluation.evaluate_rows(read_rows, rects, 128, 128,
                                    thresholds=(0.2, 0.5, 0.5), aoi_id="A")


class TestEvaluationBands:
    """Evaluation reads zone-aligned bands of at most EVAL_BAND_PIXELS
    pixels; the counts are exact, and the regression's band sums merge by
    Chan et al.'s pairwise update."""

    def test_one_band_is_the_two_pass_regression(self, scored_zone):
        prob, valid, rects, dens = scored_zone
        bands = []
        report = banded_report(scored_zone, bands)
        assert bands == [(0, 128)]
        assert report["regression"] == two_pass_regression(prob, dens, valid)
        counts = report["thresholds"]["0.5"]["counts"]
        assert sum(counts.values()) == valid.sum()  # 0.5 is counted once
        assert evaluate_probabilities(prob, valid, rects, 128, 128,
                                      thresholds=(0.2, 0.5, 0.5),
                                      aoi_id="A") == report

    @pytest.mark.parametrize("rows", [1, 7, 40])
    def test_bands_merge_to_the_whole_zone_figures(self, scored_zone,
                                                   monkeypatch, rows):
        prob, valid, _, dens = scored_zone
        whole = banded_report(scored_zone)
        monkeypatch.setattr(evaluation, "EVAL_BAND_PIXELS", 128 * rows)
        bands = []
        banded = banded_report(scored_zone, bands)
        assert len(bands) >= 3 and bands[0][0] == 0 and bands[-1][1] == 128
        assert all(r1 - r0 <= rows and r1 == next_r0 for (r0, r1), (next_r0, _)
                   in zip(bands, bands[1:] + [(128, None)]))
        assert banded["thresholds"] == whole["thresholds"]
        reference = two_pass_regression(prob, dens, valid)
        assert banded["regression"]["n"] == reference["n"]
        for key in ("r", "slope", "intercept"):
            assert banded["regression"][key] == pytest.approx(
                reference[key], rel=1e-12, abs=0), key

    def test_constancy_is_checked_over_the_whole_zone(self, monkeypatch):
        """One-row bands, each of one probability: the zone varies, so
        the regression is defined; a zone of one probability is not."""
        monkeypatch.setattr(evaluation, "EVAL_BAND_PIXELS", 1)
        rects = [(0.0, 0.0, 5.0, 30.0)]
        prob = np.repeat(np.float32([[0.2], [0.4], [0.6]]), 2, axis=1)
        valid = np.ones(prob.shape, dtype=bool)
        report = evaluate_probabilities(prob, valid, rects, 2, 3)
        assert report["regression"]["n"] == 6
        with pytest.raises(UndefinedStatisticError, match="zero variance"):
            evaluate_probabilities(np.full_like(prob, 0.3), valid, rects,
                                   2, 3)


class TestAccuracyMetrics:
    def test_hand_computed(self):
        out = accuracy_metrics(ConfusionCounts(tp=40, fp=10, fn=20, tn=30))
        # OA = 70/100; BA = (40/60 + 30/40) / 2; chance agreement
        # p_e = (60*50 + 40*50) / 100^2 = 0.5, kappa = (0.7 - 0.5) / 0.5
        assert out["oa"] == pytest.approx(0.7)
        assert out["balanced_accuracy"] == pytest.approx(17.0 / 24.0)
        assert out["kappa"] == pytest.approx(0.4)

    def test_perfect_agreement(self):
        out = accuracy_metrics(ConfusionCounts(tp=3, fp=0, fn=0, tn=5))
        assert out == {"oa": 1.0, "balanced_accuracy": 1.0, "kappa": 1.0}

    @pytest.mark.parametrize("counts, message", [
        (ConfusionCounts(tp=0, fp=0, fn=0, tn=0), "no valid pixels"),
        (ConfusionCounts(tp=0, fp=2, fn=0, tn=3), "no built-up"),
        (ConfusionCounts(tp=2, fp=0, fn=3, tn=0), "no non-built-up"),
    ])
    def test_undefined_metrics(self, counts, message):
        with pytest.raises(MetricError, match=message):
            accuracy_metrics(counts)

    def test_confusion_counts_valid_pixels_only(self):
        predicted = np.array([True, True, False, False, True])
        reference = np.array([True, False, True, False, False])
        valid = np.array([True, True, True, True, False])
        counts = confusion(predicted, reference, valid)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)
        assert counts.total == 4


def four_mask_confusion(predicted, reference, valid):
    """Reference counts: the valid pixels copied out, one mask per cell."""
    p = predicted[valid].astype(bool)
    r = reference[valid].astype(bool)
    return tuple(int(np.count_nonzero(m))
                 for m in (p & r, p & ~r, ~p & r, ~p & ~r))


@st.composite
def confusion_grids(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                  max_side=12))
    dtype = draw(st.sampled_from([bool, np.uint8, np.float32]))
    predicted = draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 2)))
    predicted = predicted.astype(dtype)
    reference = draw(hnp.arrays(bool, shape))
    valid = draw(hnp.arrays(bool, shape))
    return predicted, reference, valid


@settings(max_examples=150, deadline=None)
@given(grids=confusion_grids())
@example(grids=(np.zeros(0, bool), np.zeros(0, bool), np.zeros(0, bool)))
@example(grids=(np.ones((3, 4), bool), np.eye(3, 4, dtype=bool),
                np.zeros((3, 4), bool)))
def test_confusion_equals_the_four_mask_counts(grids):
    """Also on empty grids, all-invalid masks and non-bool predictions,
    whose nonzero values count as built up."""
    counts = confusion(*grids)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == \
        four_mask_confusion(*grids)
    assert all(type(v) is int for v in (counts.tp, counts.fp, counts.fn,
                                         counts.tn))


def test_binarize_threshold_is_inclusive():
    np.testing.assert_array_equal(
        binarize(np.array([0.19, 0.2, 0.21]), 0.2), [False, True, True])
    np.testing.assert_array_equal(binarize(np.array([1.0]), 1.0), [True])


def test_evaluate_probabilities_report():
    # left column fully built, right column empty; probabilities agree
    prob = np.array([[0.9, 0.1], [0.6, 0.3]], dtype=np.float32)
    report = evaluate_probabilities(
        prob, np.ones((2, 2), dtype=bool), [(0.0, 0.0, 10.0, 20.0)],
        width=2, height=2, thresholds=(0.2, 0.5), aoi_id="Z")
    assert report["aoi_id"] == "Z"
    assert report["regression"]["n"] == 4
    assert report["thresholds"]["0.5"]["counts"] == \
        {"tp": 2, "fp": 0, "fn": 0, "tn": 2}
    assert report["thresholds"]["0.2"]["counts"] == \
        {"tp": 2, "fp": 1, "fn": 0, "tn": 1}
    assert report["thresholds"]["0.5"]["kappa"] == 1.0


def test_report_to_csv_header_and_rows(tmp_path):
    def entry(oa, ba, kappa):
        return {"oa": oa, "balanced_accuracy": ba, "kappa": kappa}

    reports = [
        {"aoi_id": "A", "regression": {"r": 0.9, "slope": 1.5,
                                       "intercept": -0.25},
         "thresholds": {"0.5": entry(0.75, 0.5, 0.25),
                        "0.2": entry(0.5, 0.625, 0.125)}},
        {"aoi_id": "B", "regression": {"r": 0.5, "slope": 2.0,
                                       "intercept": 0.0},
         "thresholds": {"0.2": entry(1.0, 1.0, 1.0)}},
    ]
    path = tmp_path / "report.csv"
    report_to_csv(reports, path)
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["aoi_id", "r", "slope", "intercept",
                       "oa_0.2", "ba_0.2", "kappa_0.2",
                       "oa_0.5", "ba_0.5", "kappa_0.5"]
    assert rows[1] == ["A", "0.9", "1.5", "-0.25",
                       "0.5", "0.625", "0.125", "0.75", "0.5", "0.25"]
    assert rows[2] == ["B", "0.5", "2.0", "0.0", "1.0", "1.0", "1.0",
                       "", "", ""]
    assert len(rows) == 3


@pytest.mark.skipif(pipeline._OPENBLAS_THREADS is None,
                    reason="numpy does not bundle OpenBLAS")
def test_regression_does_not_depend_on_the_blas_thread_count():
    """evaluate runs on the process's BLAS threads, and a threaded BLAS
    dot product splits a long sum between them: the regression's sums
    must give the same bytes at 1 and 2 OpenBLAS threads (512 x 512
    pixels)."""
    rng = np.random.default_rng(7)
    prob = rng.random((512, 512)).astype(np.float32)
    density = np.clip(prob + 0.3 * rng.standard_normal(prob.shape), 0, 1)
    valid = np.ones(prob.shape, dtype=bool)
    get, put = pipeline._OPENBLAS_THREADS
    before = get()
    reports = []
    try:
        for threads in (1, 2):
            put(threads)
            reports.append(regress_density(prob, density, valid))
    finally:
        put(before)
    assert json.dumps(reports[0]) == json.dumps(reports[1])
