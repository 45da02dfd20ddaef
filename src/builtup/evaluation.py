"""Accuracy assessment: density regression and confusion-based metrics.

The continuous assessment regresses reference built-up densities on the
predicted probabilities (ordinary least squares plus Pearson r). The
binary assessment thresholds the probabilities and scores overall
accuracy, balanced accuracy and Cohen's kappa against a presence/absence
reference.

Memory. evaluate_rows reads a zone in zone-aligned bands of
EVAL_BAND_PIXELS = 2^18 pixels, whatever its tiles, and each band
rasterizes its reference density in strips of RASTER_STRIP_CELLS = 2^20
fine cells (a 1 MB uint8 buffer), so neither grows with the zone. Density
counts and confusion counts are exact integers: no band or strip size
changes a count, oa, balanced accuracy or kappa, and no strip size changes
a bit. A smaller strip cuts each footprint into more slices, so it costs
time where footprints are many.
The regression's band sums merge by the pairwise update of Chan, Golub and
LeVeque (1979), and one band is the two-pass regression of the whole zone,
bit for bit. A 512 x 512 zone is 2^18 pixels, one band, so every report of
a zone up to that size keeps its bytes; in larger zones r, slope and
intercept move by float rounding only (1e-14 relative in r at 2048 x 2048).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, ShapeError, UndefinedStatisticError

DEFAULT_THRESHOLDS = (0.2, 0.5)
FINE_RES = 1.0  # metres per side of a rasterize_density fine cell
RASTER_STRIP_CELLS = 1 << 20  # fine cells per rasterize_density strip (1 MB)
EVAL_BAND_PIXELS = 1 << 18  # pixels per evaluation band (a 512 x 512 zone)


def _fine_boxes(rects, width: int, height: int, pixel_size: float,
                origin_x: float, origin_y: float):
    """(boxes, sub): the footprints as (r0, r1, c0, c1) fine-cell ranges,
    clipped to the extent with a warning, and the fine cells per pixel
    side; MetricError unless a pixel is a whole number of fine cells."""
    sub = int(round(pixel_size / FINE_RES))
    if sub < 1 or abs(pixel_size / FINE_RES - sub) > 1e-6:
        raise MetricError(f"pixel size {pixel_size} m is not a whole number "
                          f"of {FINE_RES} m fine cells")
    fw, fh = width * sub, height * sub
    boxes = []
    clipped = False
    for x0, y0, x1, y1 in rects:
        # fine cell i has center (i + 0.5) * FINE_RES; center in [a, b)
        # iff i in [ceil(a/fine - 0.5), ceil(b/fine - 0.5) - 1]
        c0 = int(np.ceil((x0 - origin_x) / FINE_RES - 0.5))
        c1 = int(np.ceil((x1 - origin_x) / FINE_RES - 0.5))
        r0 = int(np.ceil((y0 - origin_y) / FINE_RES - 0.5))
        r1 = int(np.ceil((y1 - origin_y) / FINE_RES - 0.5))
        if c0 < 0 or r0 < 0 or c1 > fw or r1 > fh:
            clipped = True
        c0, c1 = max(c0, 0), min(c1, fw)
        r0, r1 = max(r0, 0), min(r1, fh)
        if r1 > r0 and c1 > c0:
            boxes.append((r0, r1, c0, c1))
    if clipped:
        warnings.warn("footprint extends outside the extent; clipped",
                      stacklevel=3)
    return np.array(boxes, dtype=np.int64).reshape(-1, 4), sub


def _density_rows(boxes: np.ndarray, sub: int, width: int, g0: int,
                  g1: int) -> np.ndarray:
    """The density of coarse rows g0..g1 from _fine_boxes' boxes, built
    in strips of at most RASTER_STRIP_CELLS fine cells (see
    rasterize_density)."""
    fw = width * sub
    boxes = boxes[(boxes[:, 0] < g1 * sub) & (boxes[:, 1] > g0 * sub)]
    density = np.empty((g1 - g0, width), dtype=np.float64)
    strip = max(1, RASTER_STRIP_CELLS // max(1, fw * sub))  # coarse rows
    row_type = np.min_scalar_type(sub)
    count_type = np.min_scalar_type(sub * sub)
    buffer = np.zeros((min(strip, g1 - g0) * sub, fw), dtype=np.uint8)
    for s0 in range(g0, g1, strip):
        s1 = min(s0 + strip, g1)
        f0, f1 = s0 * sub, s1 * sub
        fine = buffer[:f1 - f0]
        hits = (boxes[:, 0] < f1) & (boxes[:, 1] > f0)
        cuts = [(max(r0, f0) - f0, min(r1, f1) - f0, c0, c1)
                for r0, r1, c0, c1 in boxes[hits].tolist()]
        for r0, r1, c0, c1 in cuts:
            fine[r0:r1, c0:c1] = 1
        rows = fine.reshape(s1 - s0, sub, fw).sum(axis=1, dtype=row_type)
        cells = rows.reshape(s1 - s0, width, sub)
        counts = np.zeros((s1 - s0, width), dtype=count_type)
        for j in range(sub):
            counts += cells[:, :, j]
        np.divide(counts, sub * sub, out=density[s0 - g0:s1 - g0])
        for r0, r1, c0, c1 in cuts:
            fine[r0:r1, c0:c1] = 0
    return density


def rasterize_density(rects, width: int, height: int, pixel_size: float = 10.0,
                      origin_x: float = 0.0, origin_y: float = 0.0
                      ) -> np.ndarray:
    """Built-up density per coarse cell from rectangle footprints.

    Rectangles are (x0, y0, x1, y1) in metres; x runs along columns and y
    along rows. A fine cell counts as built when its center point lies in
    any rectangle (half-open [x0, x1) x [y0, y1)); the density of a coarse
    cell is the count of its built fine cells over sub^2. Footprints outside
    the extent are clipped with a warning. A pixel size that is not within
    1e-6 of a whole number sub >= 1 of fine cells is a MetricError.

    The fine grid is built one strip of coarse rows at a time, of at most
    RASTER_STRIP_CELLS fine cells, in one uint8 buffer that every strip
    reuses, so the fine grid's memory does not grow with the zone. A strip
    clears only the rectangles it drew, so pages that no footprint reaches
    are never written and take no memory. A strip is counted in two exact
    integer passes: the sub fine rows of each coarse row are summed first,
    over an outer axis so that numpy's inner loop runs along the strip's
    full width, and then the sub columns of each coarse cell are added. Each
    count's dtype is the smallest unsigned type that holds its largest
    value, sub for a row sum and sub^2 for a cell. Counts are exact
    integers, so the strip height changes no density.
    """
    boxes, sub = _fine_boxes(rects, width, height, pixel_size, origin_x,
                             origin_y)
    return _density_rows(boxes, sub, width, 0, height)


class _RegressionSums:
    """Count, means and centred sums of squares and products of (x, y)
    pairs added band by band, plus each axis's extremes.

    A band's sums are two-pass (its means first, then einsum over the
    centred values, not a BLAS dot, which splits a long sum between its
    threads); bands merge by the pairwise update of Chan, Golub and
    LeVeque (1979). One band is therefore the two-pass regression of the
    whole, bit for bit; several round differently in the last bits."""

    def __init__(self):
        self.n = 0
        self.mean_x = self.mean_y = 0.0
        self.sxx = self.syy = self.sxy = 0.0
        self.lo = np.full(2, np.inf)
        self.hi = np.full(2, -np.inf)

    def add(self, x: np.ndarray, y: np.ndarray) -> None:
        if not x.size:
            return
        mean_x, mean_y = x.mean(), y.mean()
        xc, yc = x - mean_x, y - mean_y
        sxx, syy, sxy = (float(np.einsum("i,i", a, b))
                         for a, b in ((xc, xc), (yc, yc), (xc, yc)))
        self.lo = np.minimum(self.lo, (x.min(), y.min()))
        self.hi = np.maximum(self.hi, (x.max(), y.max()))
        # the first band's weight is 0 and x.size / n is 1: its sums, exactly
        n = self.n + x.size
        dx, dy = mean_x - self.mean_x, mean_y - self.mean_y
        weight = self.n * x.size / n
        self.sxx += sxx + dx * dx * weight
        self.syy += syy + dy * dy * weight
        self.sxy += sxy + dx * dy * weight
        self.mean_x += dx * x.size / n
        self.mean_y += dy * x.size / n
        self.n = n

    def result(self) -> dict:
        """OLS of y (response) on x (predictor) plus Pearson r."""
        if self.n < 2:
            raise UndefinedStatisticError(
                f"need >= 2 valid pixels, got {self.n}")
        # test constancy exactly: the mean of equal values can round away
        # from them, leaving a tiny nonzero sum of squares
        if not (self.hi != self.lo).all():
            raise UndefinedStatisticError(
                "zero variance on the probability or density axis"
            )
        slope = self.sxy / self.sxx
        return {
            "r": self.sxy / np.sqrt(self.sxx * self.syy),
            "slope": slope,
            "intercept": float(self.mean_y - slope * self.mean_x),
            "n": int(self.n),
        }


def _check_shapes(*grids) -> None:
    if any(g.shape != grids[0].shape for g in grids):
        raise ShapeError("grid shapes differ: "
                         + ", ".join(str(g.shape) for g in grids))


def binarize(prob: np.ndarray, threshold: float) -> np.ndarray:
    """Built-up iff probability >= threshold (inclusive)."""
    return np.asarray(prob) >= threshold


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(predicted: np.ndarray, reference: np.ndarray,
              valid: np.ndarray) -> ConfusionCounts:
    _check_shapes(predicted, reference, valid)
    # valid pixels by mask rather than copied out; fp, fn and tn follow
    # from tp and the marginal counts
    p = predicted.astype(bool, copy=False) & valid
    r = reference.astype(bool, copy=False) & valid
    tp, pos, ref_pos, n = (int(np.count_nonzero(a))
                           for a in (p & r, p, r, valid))
    return ConfusionCounts(tp=tp, fp=pos - tp, fn=ref_pos - tp,
                           tn=n - pos - ref_pos + tp)


def accuracy_metrics(counts: ConfusionCounts) -> dict:
    """OA, balanced accuracy and Cohen's kappa (marginal-product chance)."""
    total = counts.total
    if total == 0:
        raise MetricError("no valid pixels to score")
    ref_pos = counts.tp + counts.fn
    ref_neg = counts.tn + counts.fp
    if ref_pos == 0:
        raise MetricError("reference has no built-up pixels; "
                          "sensitivity undefined")
    if ref_neg == 0:
        raise MetricError("reference has no non-built-up pixels; "
                          "specificity undefined")
    oa = (counts.tp + counts.tn) / total
    ba = 0.5 * (counts.tp / ref_pos + counts.tn / ref_neg)
    pred_pos = counts.tp + counts.fp
    pred_neg = counts.tn + counts.fn
    # both reference classes are present, so chance agreement is below 1
    p_e = (ref_pos * pred_pos + ref_neg * pred_neg) / (total * total)
    kappa = (oa - p_e) / (1.0 - p_e)
    return {"oa": oa, "balanced_accuracy": ba, "kappa": kappa}


def evaluate_rows(read_rows, rects, width: int, height: int,
                  pixel_size: float = 10.0, origin_x: float = 0.0,
                  origin_y: float = 0.0, thresholds=DEFAULT_THRESHOLDS,
                  aoi_id: str = "") -> dict:
    """Full per-AOI report, regression stats plus per-threshold metrics,
    of a height x width zone read one band at a time: read_rows(r0, r1)
    gives the (prob, valid) arrays of zone rows r0..r1.

    Bands are zone-aligned and of EVAL_BAND_PIXELS pixels at most (one row
    where a row holds more), whatever the tiles, so the memory of an
    evaluation does not grow with the zone. Each band rasterizes its own
    density, adds its confusion counts, which are exact, and merges its
    regression sums (_RegressionSums). A zone of at most EVAL_BAND_PIXELS
    pixels is one band, so its report is that of the whole-zone two-pass
    regression, bit for bit; above that, r, slope and intercept can move
    in the last bits, and the counts, oa, balanced accuracy and kappa do
    not. The zero-variance and n >= 2 checks see the whole zone."""
    boxes, sub = _fine_boxes(rects, width, height, pixel_size, origin_x,
                             origin_y)
    band = max(1, EVAL_BAND_PIXELS // max(1, width))  # rows
    sums = _RegressionSums()
    counts = [ConfusionCounts(0, 0, 0, 0) for _ in thresholds]
    for r0 in range(0, height, band):
        r1 = min(r0 + band, height)
        prob, valid = read_rows(r0, r1)
        density = _density_rows(boxes, sub, width, r0, r1)
        _check_shapes(prob, density, valid)
        sums.add(prob[valid].astype(np.float64),
                 density[valid].astype(np.float64))
        reference = density > 0.0
        for i, t in enumerate(thresholds):
            counts[i] += confusion(binarize(prob, t), reference, valid)
    regression = sums.result()
    per_threshold = {}
    for t, c in zip(thresholds, counts):
        per_threshold[f"{t:g}"] = {
            "threshold": t,
            "counts": {"tp": c.tp, "fp": c.fp, "fn": c.fn, "tn": c.tn},
            **accuracy_metrics(c),
        }
    return {
        "aoi_id": aoi_id,
        "regression": regression,
        "thresholds": per_threshold,
    }


def evaluate_probabilities(prob: np.ndarray, valid: np.ndarray, rects,
                           width: int, height: int, pixel_size: float = 10.0,
                           origin_x: float = 0.0, origin_y: float = 0.0,
                           thresholds=DEFAULT_THRESHOLDS,
                           aoi_id: str = "") -> dict:
    """evaluate_rows of whole (height, width) prob and valid arrays."""
    if prob.shape != (height, width) or valid.shape != prob.shape:
        raise ShapeError(f"grid shapes differ: {prob.shape}, "
                         f"{(height, width)}, {valid.shape}")
    return evaluate_rows(lambda r0, r1: (prob[r0:r1], valid[r0:r1]), rects,
                         width, height, pixel_size=pixel_size,
                         origin_x=origin_x, origin_y=origin_y,
                         thresholds=thresholds, aoi_id=aoi_id)


def report_to_csv(reports, path) -> None:
    """One row per AOI: id, regression stats, then OA/BA/kappa per threshold."""
    reports = list(reports)
    thresholds = sorted(
        {t for rep in reports for t in rep["thresholds"]}, key=float
    )
    fields = ["aoi_id", "r", "slope", "intercept"]
    for t in thresholds:
        fields += [f"oa_{t}", f"ba_{t}", f"kappa_{t}"]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        for rep in reports:
            row = {
                "aoi_id": rep["aoi_id"],
                "r": rep["regression"]["r"],
                "slope": rep["regression"]["slope"],
                "intercept": rep["regression"]["intercept"],
            }
            for t, entry in rep["thresholds"].items():
                row[f"oa_{t}"] = entry["oa"]
                row[f"ba_{t}"] = entry["balanced_accuracy"]
                row[f"kappa_{t}"] = entry["kappa"]
            writer.writerow(row)
