"""Cost-matrix construction and the transport-based OOD score.

The score of a softmax vector ``f`` is its transport distance to the nearest
class one-hot, and :func:`scores` computes it for a whole batch
``probs (n, K)`` at once. Two cost families are supported: the binary
matrix (all misclassification costs equal) and the dynamic matrix built
from ``f`` itself, which is label-invariant and needs a single evaluation.
Against a one-hot target the coupling is forced, so both have exact closed
forms: binary gives ``1 - max f`` (the max-softmax baseline) and dynamic
gives ``1 - sum(f**2)``. The closed form is the default evaluation path;
the Sinkhorn path is retained for gradient mechanics and benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionError, NumericError
from .transport import (
    CostKind,
    CostMatrix,
    SinkhornConfig,
    TransportResult,
    as_prob_rows,
    as_prob_vector,
    one_hot,
    sinkhorn_distance,
)


class EvalPath(Enum):
    """How one-hot transport distances are evaluated."""

    CLOSED_FORM = "closed"
    SINKHORN = "sinkhorn"


@dataclass(frozen=True)
class ScoreConfig:
    """Cost-matrix family plus evaluation route for the OOD score."""

    matrix_kind: CostKind = CostKind.DYNAMIC
    evaluation: EvalPath = EvalPath.CLOSED_FORM
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)


def binary_matrix(n_classes: int) -> CostMatrix:
    """Unit cost for any class change, zero for staying put."""
    if n_classes < 2:
        raise DimensionError(f"binary matrix needs K >= 2, got {n_classes}")
    entries = np.ones((n_classes, n_classes)) - np.eye(n_classes)
    return CostMatrix(entries=entries, kind=CostKind.BINARY)


def dynamic_matrix(f, k: int) -> CostMatrix:
    """Cost matrix of elementwise distances between ``f`` and the one-hot ``k``.

    Row ``k`` (the one-hot side under the library's row-marginal convention)
    holds ``1 - f``; every other row holds ``f``. Row ``k`` plus any other
    row is the all-ones vector.
    """
    f = as_prob_vector(f, "f")
    n = f.shape[0]
    if not 0 <= k < n:
        raise IndexError(f"class index {k} out of range for K={n}")
    entries = np.tile(f, (n, 1))
    entries[k, :] = 1.0 - f
    return CostMatrix(entries=entries, kind=CostKind.DYNAMIC)


def scores(probs, cfg: ScoreConfig) -> tuple[np.ndarray, np.ndarray]:
    """OOD scores of a batch of softmax rows ``probs (n, K)``.

    Returns ``(values, classes)``: each row's minimum transport distance to
    a class one-hot, and the class attaining it. Dynamic costs are
    label-invariant, so one evaluation per row suffices and class 0 is
    reported by convention; binary costs take the minimum over all K
    classes, ties going to the lowest index. The simplex is validated once
    for the whole array.
    """
    values, classes, _ = _score_rows(as_prob_rows(probs), cfg)
    return values, classes


def _score_rows(
    P: np.ndarray, cfg: ScoreConfig
) -> tuple[np.ndarray, np.ndarray, list[TransportResult] | None]:
    """Scores of already validated rows, plus each row's transport plan.

    Closed form is pure array math and returns ``None`` for the plans. The
    Sinkhorn path solves row by row (K solves per row for binary costs, one
    for dynamic) and returns the ``TransportResult`` of each row's argmin
    class, so callers can read the dual gradient without solving again.
    """
    n, k = P.shape
    if cfg.evaluation is EvalPath.CLOSED_FORM:
        if cfg.matrix_kind is CostKind.BINARY:
            return 1.0 - P.max(axis=1), P.argmax(axis=1), None
        # A stacked matmul rounds each row exactly as ``f @ f`` does;
        # einsum and (P * P).sum(1) do not.
        return 1.0 - (P[:, None, :] @ P[:, :, None])[:, 0, 0], np.zeros(n, dtype=np.intp), None

    binary = binary_matrix(k) if cfg.matrix_kind is CostKind.BINARY else None
    candidates = range(k) if binary is not None else (0,)
    values = np.empty(n)
    classes = np.zeros(n, dtype=np.intp)
    plans: list[TransportResult] = []
    for i, f in enumerate(P):
        best = None
        for c in candidates:
            M = binary if binary is not None else dynamic_matrix(f, c)
            result = sinkhorn_distance(one_hot(c, k), f, M, cfg.sinkhorn)
            if not result.converged:
                raise NumericError(
                    f"sinkhorn failed to converge on row {i} (class {c}) after"
                    f" {result.iterations} iterations (lam={cfg.sinkhorn.lam})"
                )
            if best is None or result.value < best.value:
                best = result
                classes[i] = c
        values[i] = best.value
        plans.append(best)
    return values, classes, plans
