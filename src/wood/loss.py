"""Mixed-batch training loss and its gradient w.r.t. softmax outputs.

The loss is mean cross-entropy over labeled in-distribution rows minus
``beta`` times the mean OOD score over auxiliary out-of-distribution rows:
minimizing it sharpens InD predictions while pushing OOD softmax vectors
away from every class one-hot. :func:`loss_and_grad` evaluates it on one
batch array ``probs (n, K)`` whose first ``len(labels)`` rows are InD.
The OOD gradient supports both the closed-form score and the Sinkhorn dual
route, and its rows are centered — the downstream softmax Jacobian is
invariant to additive constants, and centering makes the closed-form and
dual-gauge routes directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, _labels, _setting
from .geometry import EvalPath, ScoreConfig, _score_rows
from .transport import CostKind, as_prob_rows, sinkhorn_gradient

# Probabilities are clamped here before any log or reciprocal.
PROB_FLOOR = 1e-12


@dataclass
class LossValue:
    """Loss decomposition ``total = ce_term - beta * ood_term``, plus the
    generalization-bound constants of the batch (reported for logging only).

    ``alpha_m`` is the largest cost entry the OOD score evaluations touch:
    always 1 for binary costs, ``max(1 - min f)`` over the OOD rows for
    dynamic costs. ``m`` is the smallest clamped softmax entry over the InD
    rows; an empty InD slice reports the vacuous 1.
    """

    total: float
    ce_term: float
    ood_term: float
    alpha_m: float
    m: float


def loss_and_grad(
    probs, labels, beta: float, cfg: ScoreConfig
) -> tuple[LossValue, np.ndarray]:
    """Loss of one mixed batch and its gradient w.r.t. ``probs``.

    The first ``len(labels)`` rows are InD with those labels; the rest are
    OOD. An empty slice contributes zero. InD rows of the gradient touch
    only the label coordinate, ``-1 / (n_ind * f[label])``. OOD rows are the
    centered gradient of ``-beta * mean(score)``: closed-form dynamic costs
    give ``(beta/n_ood) * (2f - 1)``, closed-form binary costs put
    ``beta/n_ood`` on the argmin class, and the Sinkhorn path reads the dual
    gradient from the plan the score evaluation already solved.
    """
    P = as_prob_rows(probs)
    labels = _labels(labels)
    n, k = P.shape
    if n == 0:
        raise InputError("batch must contain at least one sample")
    beta = _setting("beta", beta, "finite and nonnegative")
    if labels.ndim != 1 or labels.shape[0] > n:
        raise InputError(f"labels of shape {labels.shape} do not fit {n} rows")
    out_of_range = (labels < 0) | (labels >= k)
    if out_of_range.any():
        raise IndexError(f"label {labels[np.argmax(out_of_range)]} out of range for K={k}")
    return _loss_and_grad(P, labels, beta, cfg)


def _loss_and_grad(
    P: np.ndarray, labels: np.ndarray, beta: float, cfg: ScoreConfig
) -> tuple[LossValue, np.ndarray]:
    """The body of :func:`loss_and_grad` for simplex rows ``P (n, K)``,
    ``n >= 1``, integer ``labels`` in ``[0, K)`` with at most ``n`` entries
    and ``beta >= 0``."""
    n, k = P.shape
    n_ind = labels.shape[0]
    n_ood = n - n_ind
    grad = np.zeros_like(P)
    ce_term, m = 0.0, 1.0
    if n_ind:
        # Row i's label entry, as one index into the flattened rows.
        flat = np.arange(0, n_ind * k, k) + labels
        p_label = np.maximum(P.take(flat), PROB_FLOOR)
        ce_term = float(np.add.reduce(-np.log(p_label)) / n_ind)
        grad.put(flat, -1.0 / (n_ind * p_label))
        # The floor commutes with the minimum, as 1 - x below does with it.
        m = max(float(np.minimum.reduce(P[:n_ind], axis=None)), PROB_FLOOR)

    dynamic = cfg.matrix_kind is CostKind.DYNAMIC
    ood_term = 0.0
    alpha_m = 0.0 if dynamic else 1.0
    if n_ood:
        Q = P[n_ind:]
        values, classes, plans = _score_rows(Q, cfg, first_row=n_ind)
        ood_term = float(np.add.reduce(values) / n_ood)
        scale = beta / n_ood
        if cfg.evaluation is EvalPath.SINKHORN:
            g = -scale * sinkhorn_gradient(plans, cfg.sinkhorn)
        elif dynamic:
            g = scale * (2.0 * Q - 1.0)
        else:
            g = np.zeros_like(Q)
            g[np.arange(n_ood), classes] = scale
        np.subtract(g, np.add.reduce(g, axis=1, keepdims=True) / k, out=grad[n_ind:])
        if dynamic:
            alpha_m = 1.0 - float(np.minimum.reduce(Q, axis=None))

    loss = LossValue(
        total=ce_term - beta * ood_term,
        ce_term=ce_term,
        ood_term=ood_term,
        alpha_m=alpha_m,
        m=m,
    )
    return loss, grad
