"""Accuracy assessment: density regression and confusion-based metrics.

The continuous assessment regresses reference built-up densities on the
predicted probabilities (ordinary least squares plus Pearson r). The
binary assessment thresholds the probabilities and scores overall
accuracy, balanced accuracy and Cohen's kappa against a presence/absence
reference.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, ShapeError, UndefinedStatisticError

DEFAULT_THRESHOLDS = (0.2, 0.5)
FINE_RES = 1.0  # metres per side of a rasterize_density fine cell
RASTER_STRIP_CELLS = 1 << 24  # fine cells per rasterize_density band (16 MB)


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

    The fine grid is built one band of coarse rows at a time, of at most
    RASTER_STRIP_CELLS fine cells, in one uint8 buffer that every band
    reuses, so memory does not grow with the zone. A band clears only the
    rectangles it drew, so pages that no footprint reaches are never
    written and take no memory. A band is counted in two exact integer
    passes: the sub fine rows of each coarse row are summed first, over an
    outer axis so that numpy's inner loop runs along the band's full width,
    and then the sub columns of each coarse cell are added. Each count's
    dtype is the smallest unsigned type that holds its largest value, sub
    for a row sum and sub^2 for a cell.
    """
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
                      stacklevel=2)
    boxes = np.array(boxes, dtype=np.int64).reshape(-1, 4)
    density = np.empty((height, width), dtype=np.float64)
    band = max(1, RASTER_STRIP_CELLS // max(1, fw * sub))  # coarse rows
    row_type = np.min_scalar_type(sub)
    count_type = np.min_scalar_type(sub * sub)
    buffer = np.zeros((min(band, height) * sub, fw), dtype=np.uint8)
    for g0 in range(0, height, band):
        g1 = min(g0 + band, height)
        f0, f1 = g0 * sub, g1 * sub
        fine = buffer[:f1 - f0]
        hits = (boxes[:, 0] < f1) & (boxes[:, 1] > f0)
        cuts = [(max(r0, f0) - f0, min(r1, f1) - f0, c0, c1)
                for r0, r1, c0, c1 in boxes[hits].tolist()]
        for r0, r1, c0, c1 in cuts:
            fine[r0:r1, c0:c1] = 1
        rows = fine.reshape(g1 - g0, sub, fw).sum(axis=1, dtype=row_type)
        cells = rows.reshape(g1 - g0, width, sub)
        counts = np.zeros((g1 - g0, width), dtype=count_type)
        for j in range(sub):
            counts += cells[:, :, j]
        np.divide(counts, sub * sub, out=density[g0:g1])
        for r0, r1, c0, c1 in cuts:
            fine[r0:r1, c0:c1] = 0
    return density


def regress_density(prob: np.ndarray, density: np.ndarray,
                    valid: np.ndarray) -> dict:
    """OLS of density (response) on probability (predictor) plus Pearson r."""
    if prob.shape != density.shape or prob.shape != valid.shape:
        raise ShapeError(
            f"grid shapes differ: {prob.shape}, {density.shape}, {valid.shape}"
        )
    x = prob[valid].astype(np.float64)
    y = density[valid].astype(np.float64)
    if x.size < 2:
        raise UndefinedStatisticError(f"need >= 2 valid pixels, got {x.size}")
    # test constancy exactly: the mean of equal values can round away from
    # them, leaving a tiny nonzero sum of squares
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise UndefinedStatisticError(
            "zero variance on the probability or density axis"
        )
    xc = x - x.mean()
    yc = y - y.mean()
    # einsum, not a BLAS dot, which splits a long sum between its threads
    sxx, syy, sxy = (float(np.einsum("i,i", a, b))
                     for a, b in ((xc, xc), (yc, yc), (xc, yc)))
    slope = sxy / sxx
    return {
        "r": sxy / np.sqrt(sxx * syy),
        "slope": slope,
        "intercept": float(y.mean() - slope * x.mean()),
        "n": int(x.size),
    }


def binarize(prob: np.ndarray, threshold: float) -> np.ndarray:
    """Built-up iff probability >= threshold (inclusive)."""
    return np.asarray(prob) >= threshold


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(predicted: np.ndarray, reference: np.ndarray,
              valid: np.ndarray) -> ConfusionCounts:
    if predicted.shape != reference.shape or predicted.shape != valid.shape:
        raise ShapeError(
            f"grid shapes differ: {predicted.shape}, {reference.shape}, "
            f"{valid.shape}"
        )
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


def evaluate_probabilities(prob: np.ndarray, valid: np.ndarray, rects,
                           width: int, height: int, pixel_size: float = 10.0,
                           origin_x: float = 0.0, origin_y: float = 0.0,
                           thresholds=DEFAULT_THRESHOLDS,
                           aoi_id: str = "") -> dict:
    """Full per-AOI report: regression stats plus per-threshold metrics."""
    density = rasterize_density(rects, width=width, height=height,
                                pixel_size=pixel_size, origin_x=origin_x,
                                origin_y=origin_y)
    reference = density > 0.0
    regression = regress_density(prob, density, valid)
    per_threshold = {}
    for t in thresholds:
        counts = confusion(binarize(prob, t), reference, valid)
        metrics = accuracy_metrics(counts)
        per_threshold[f"{t:g}"] = {
            "threshold": t,
            "counts": {"tp": counts.tp, "fp": counts.fp,
                       "fn": counts.fn, "tn": counts.tn},
            **metrics,
        }
    return {
        "aoi_id": aoi_id,
        "regression": regression,
        "thresholds": per_threshold,
    }


def report_to_json(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)


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
