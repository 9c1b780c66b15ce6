"""Threshold calibration and evaluation metrics.

The detector is one threshold ``epsilon``, calibrated as a quantile of
in-distribution scores; a score strictly above it flags OOD. Evaluation
reports, at a threshold calibrated on one InD score list, the achieved TNR
and FNR, the rank-statistic AUROC (ties counted half), and shared-range
score histograms for both populations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, _array, _setting

HISTOGRAM_BINS = 50


def _as_scores(scores, name: str) -> np.ndarray:
    arr = _array(scores, name)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{name} must be a non-empty 1-D score list")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite scores")
    return arr


def calibrate(ind_scores, tnr_target: float = 0.95) -> float:
    """The threshold ``epsilon`` at the ``tnr_target`` quantile of InD scores.

    Linear interpolation between order statistics; if the interpolated
    value would keep fewer than ``tnr_target`` of the calibration scores
    (possible for small samples), the threshold is bumped to the next order
    statistic so the achieved TNR is always >= the target.
    """
    arr = _as_scores(ind_scores, "ind_scores")
    tnr_target = _setting("tnr_target", tnr_target, "in (0, 1)")
    epsilon = float(np.quantile(arr, tnr_target))
    achieved = float(np.mean(arr <= epsilon))
    if achieved < tnr_target:
        higher = arr[arr > epsilon]
        epsilon = float(np.min(higher))
    return epsilon


def auroc_rank(ind_scores, ood_scores) -> float:
    """AUROC via the rank statistic: P(OOD score > InD score), ties half."""
    ind = np.sort(_as_scores(ind_scores, "ind_scores"))
    # Sorted keys let each binary search start from the last one's place;
    # the integer sum does not depend on their order.
    ood = np.sort(_as_scores(ood_scores, "ood_scores"))
    # Mann-Whitney U = #(ind < o) + #(ind == o) / 2 over the OOD scores o,
    # counted as twice U in integers, so it is exact.
    twice_u = (np.searchsorted(ind, ood, "left") + np.searchsorted(ind, ood, "right")).sum()
    return float(twice_u) / 2.0 / (ind.size * ood.size)


@dataclass
class EvalReport:
    """Detection metrics plus binned score histograms.

    ``fn_count``/``tn_count`` are the exact integer tallies behind the
    rates, so near-zero FNRs are distinguishable from exactly-zero ones.
    """

    tnr: float
    fnr_at_tnr: float
    auroc: float
    n_ind: int
    n_ood: int
    epsilon: float
    tnr_target: float
    tn_count: int
    fn_count: int
    bin_edges: np.ndarray
    hist_ind: np.ndarray
    hist_ood: np.ndarray


def evaluate(calib_scores, ind_scores, ood_scores, tnr_target: float = 0.95) -> EvalReport:
    """Calibrate the threshold on ``calib_scores`` and report both score lists at it.

    Pass a held-out calibration slice as ``calib_scores`` so the evaluated
    InD scores never see their own quantile, or the InD scores themselves
    to calibrate on the evaluated set.
    """
    epsilon = calibrate(calib_scores, tnr_target)
    ind = _as_scores(ind_scores, "ind_scores")
    ood = _as_scores(ood_scores, "ood_scores")
    tn_count = int(np.sum(ind <= epsilon))
    fn_count = int(np.sum(ood <= epsilon))

    lo = float(min(ind.min(), ood.min()))
    hi = float(max(ind.max(), ood.max()))
    if hi <= lo:
        hi = lo + 1.0
    hist_ind, edges = np.histogram(ind, bins=HISTOGRAM_BINS, range=(lo, hi))
    hist_ood, _ = np.histogram(ood, bins=HISTOGRAM_BINS, range=(lo, hi))

    return EvalReport(
        tnr=tn_count / ind.size,
        fnr_at_tnr=fn_count / ood.size,
        auroc=auroc_rank(ind, ood),
        n_ind=int(ind.size),
        n_ood=int(ood.size),
        epsilon=epsilon,
        tnr_target=float(tnr_target),
        tn_count=tn_count,
        fn_count=fn_count,
        bin_edges=edges,
        hist_ind=hist_ind,
        hist_ood=hist_ood,
    )


def report_text(report: EvalReport) -> str:
    """Plain-text rendering of an evaluation report (one document per run)."""
    lines = [
        "== detection report ==",
        f"n_ind: {report.n_ind}",
        f"n_ood: {report.n_ood}",
        f"tnr_target: {report.tnr_target!r}",
        f"epsilon: {report.epsilon!r}",
        f"tnr: {report.tnr!r}",
        f"fnr_at_tnr: {report.fnr_at_tnr!r}",
        f"auroc: {report.auroc!r}",
        f"tn_count: {report.tn_count}",
        f"fn_count: {report.fn_count}",
        f"histogram_bins: {len(report.hist_ind)}",
        f"bin_range: [{float(report.bin_edges[0])!r}, {float(report.bin_edges[-1])!r}]",
        "hist_ind: " + " ".join(str(int(c)) for c in report.hist_ind),
        "hist_ood: " + " ".join(str(int(c)) for c in report.hist_ood),
    ]
    return "\n".join(lines) + "\n"


def histogram_csv_lines(report: EvalReport, which: str) -> list[str]:
    """Histogram as (bin_center, count) CSV rows for one population."""
    counts = report.hist_ind if which == "ind" else report.hist_ood
    centers = (report.bin_edges[:-1] + report.bin_edges[1:]) / 2.0
    lines = ["bin_center,count"]
    for center, count in zip(centers, counts):
        lines.append(f"{float(center)!r},{int(count)}")
    return lines
