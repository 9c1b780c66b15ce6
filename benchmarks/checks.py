"""Output checks that share no code with ``wood``.

Scores come from a NumPy forward pass over the weights in the checkpoint
JSON and the closed-form scores (dynamic: ``1 - sum f**2``; binary:
``1 - max f``). Detection metrics are recomputed from those scores with the
same calibration split and rules that ``wood evaluate`` documents, and
compared with ``report.txt``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-12


@dataclass
class Quality:
    auroc: float
    tnr: float
    fnr_at_tnr: float
    ind_accuracy: float
    mean_ood_score: float


def checkpoint_probs(checkpoint: Path, x: np.ndarray) -> np.ndarray:
    """Softmax outputs of the ReLU MLP stored in ``checkpoint``."""
    payload = json.loads(checkpoint.read_text(encoding="ascii"))
    weights = [np.array(w, dtype=np.float64) for w in payload["weights"]]
    biases = [np.array(b, dtype=np.float64) for b in payload["biases"]]
    a = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w + b
        if i < len(weights) - 1:
            a = np.maximum(a, 0.0)
    z = a - a.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def closed_form_scores(probs: np.ndarray, matrix: str) -> np.ndarray:
    if matrix == "dynamic":
        return 1.0 - np.einsum("ij,ij->i", probs, probs)
    return 1.0 - probs.max(axis=1)


def auroc(ind: np.ndarray, ood: np.ndarray) -> float:
    """P(OOD score > InD score) with ties counted half (Mann-Whitney)."""
    both = np.concatenate([ind, ood])
    order = np.argsort(both, kind="mergesort")
    ranks = np.empty(both.size)
    sorted_scores = both[order]
    # Average rank within each run of equal scores.
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], both.size]
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    u = ranks[ind.size:].sum() - ood.size * (ood.size + 1) / 2.0
    return float(u / (ind.size * ood.size))


def _threshold(calib: np.ndarray, tnr: float) -> float:
    # Quantile with linear interpolation, raised to the next calibration
    # score when it would keep fewer than ``tnr`` of them.
    epsilon = float(np.quantile(calib, tnr))
    if np.mean(calib <= epsilon) < tnr:
        epsilon = float(np.min(calib[calib > epsilon]))
    return epsilon


def check_scores(scores_csv: Path, probs: np.ndarray, matrix: str,
                 epsilon: float) -> list[str]:
    """Compare ``scores.csv`` with the independent scores; returns problems."""
    lines = scores_csv.read_text(encoding="ascii").splitlines()
    if lines[0] != "index,argmin_class,score,decision":
        return [f"{scores_csv}: unexpected header {lines[0]!r}"]
    table = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
    if table.shape != (probs.shape[0], 4):
        return [f"{scores_csv}: {table.shape} rows/columns, expected ({probs.shape[0]}, 4)"]
    expected = closed_form_scores(probs, matrix)
    argmin = np.zeros(probs.shape[0]) if matrix == "dynamic" else probs.argmax(axis=1)
    problems = []
    if not np.array_equal(table[:, 0], np.arange(probs.shape[0])):
        problems.append("scores.csv: index column is not 0..n-1")
    worst = float(np.max(np.abs(table[:, 2] - expected)))
    if not worst <= SCORE_TOL:
        problems.append(f"scores.csv: score differs from the closed form by {worst:.3g}")
    if not np.array_equal(table[:, 1], argmin):
        problems.append("scores.csv: argmin_class differs from the closed form")
    if not np.array_equal(table[:, 3], (table[:, 2] > epsilon).astype(np.float64)):
        problems.append("scores.csv: decision is not score > epsilon")
    return problems


def read_report(report_txt: Path) -> dict[str, str]:
    values = {}
    for line in report_txt.read_text(encoding="ascii").splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            values[key] = value
    return values


def check_report(report_txt: Path, ind_probs: np.ndarray, ind_labels: np.ndarray,
                 ood_probs: np.ndarray, matrix: str, tnr: float, calib_frac: float,
                 seed: int) -> tuple[Quality, list[str]]:
    """Recompute the evaluation behind ``report.txt``; returns it and problems."""
    ind = closed_form_scores(ind_probs, matrix)
    ood = closed_form_scores(ood_probs, matrix)
    n_calib = max(1, int(round(calib_frac * ind.size)))
    perm = np.random.default_rng(seed).permutation(ind.size)
    calib, held_out = ind[perm[:n_calib]], ind[perm[n_calib:]]
    epsilon = _threshold(calib, tnr)
    quality = Quality(
        auroc=auroc(held_out, ood),
        tnr=float(np.mean(held_out <= epsilon)),
        fnr_at_tnr=float(np.mean(ood <= epsilon)),
        ind_accuracy=float(np.mean(ind_probs.argmax(axis=1) == ind_labels)),
        mean_ood_score=float(np.mean(ood)),
    )
    report = read_report(report_txt)
    problems = []
    for key, value in (("auroc", quality.auroc), ("tnr", quality.tnr),
                       ("fnr_at_tnr", quality.fnr_at_tnr),
                       ("ind_accuracy", quality.ind_accuracy)):
        if key not in report:
            problems.append(f"report.txt: no {key}")
        elif not abs(float(report[key]) - value) <= SCORE_TOL:
            problems.append(f"report.txt: {key} {report[key]} but recomputed {value!r}")
    if report.get("n_calibration") != str(n_calib):
        problems.append(f"report.txt: n_calibration {report.get('n_calibration')} != {n_calib}")
    return quality, problems


def c06_gates(quality: Quality, n_classes: int) -> list[str]:
    """The acceptance suite's c06 quality gates."""
    problems = []
    if not quality.ind_accuracy >= 0.97:
        problems.append(f"c06 gate: ind_accuracy {quality.ind_accuracy} < 0.97")
    if not quality.auroc >= 0.99:
        problems.append(f"c06 gate: auroc {quality.auroc} < 0.99")
    if not quality.fnr_at_tnr <= 0.05:
        problems.append(f"c06 gate: fnr_at_tnr {quality.fnr_at_tnr} > 0.05")
    floor = 0.8 * (1.0 - 1.0 / n_classes)
    if not quality.mean_ood_score >= floor:
        problems.append(f"c06 gate: mean OOD score {quality.mean_ood_score} < {floor}")
    return problems
