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

from .errors import InputError, NumericError
from .transport import (
    CostKind,
    SinkhornConfig,
    TransportResult,
    _sinkhorn_batch,
    as_prob_rows,
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


def binary_matrix(n_classes: int) -> np.ndarray:
    """``(K, K)`` costs: unit cost for any class change, zero for staying put."""
    if n_classes < 2:
        raise InputError(f"binary matrix needs K >= 2, got {n_classes}")
    return np.ones((n_classes, n_classes)) - np.eye(n_classes)


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
    P: np.ndarray, cfg: ScoreConfig, first_row: int = 0
) -> tuple[np.ndarray, np.ndarray, TransportResult | None]:
    """Scores of already validated rows, plus each row's transport plan.

    ``P`` is a float64 ``(n, K)`` array of simplex rows, ``K >= 2``; the
    Sinkhorn solves take it and the costs built here without checking them
    again. Closed form is pure array math and returns ``None`` for the
    plans. The Sinkhorn path solves all rows at once: binary costs take one
    batch per candidate class (K solves per row), dynamic costs one batch.
    It returns the argmin class's ``TransportResult`` rows, so callers can
    read the dual gradient without solving again. Errors name rows counting
    from ``first_row``.
    """
    n, k = P.shape
    if cfg.evaluation is EvalPath.CLOSED_FORM:
        if cfg.matrix_kind is CostKind.BINARY:
            return 1.0 - P.max(axis=1), P.argmax(axis=1), None
        # A stacked matmul rounds each row exactly as ``f @ f`` does;
        # einsum and (P * P).sum(1) do not.
        return 1.0 - (P[:, None, :] @ P[:, :, None])[:, 0, 0], np.zeros(n, dtype=np.intp), None

    if cfg.matrix_kind is CostKind.DYNAMIC:
        # wood.oracles.dynamic_matrix(f, 0) for every row: f on each line,
        # 1 - f on line 0.
        costs = P[:, None, :].repeat(k, axis=1)
        costs[:, 0, :] = 1.0 - P
        result = _sinkhorn_batch(_one_hots(P.shape, 0), P, costs, cfg.sinkhorn)
        if np.count_nonzero(result.converged) < n:
            raise _not_converged(result.converged[None], [result], first_row, cfg)
        return result.value, np.zeros(n, dtype=np.intp), result

    costs = binary_matrix(k)[None]
    results = [_sinkhorn_batch(_one_hots(P.shape, c), P, costs, cfg.sinkhorn) for c in range(k)]
    converged = np.array([r.converged for r in results])
    if not converged.all():
        raise _not_converged(converged, results, first_row, cfg)
    values = np.array([r.value for r in results])
    # argmin takes the lowest class on ties, as a strict-less scan would.
    classes = values.argmin(axis=0)
    # Row i of class c sits at c * n + i of a field stacked over the classes.
    picked = classes * n + np.arange(n)

    def pick(name):
        return np.concatenate([getattr(r, name) for r in results]).take(picked, axis=0)

    value = values.take(picked)
    plans = TransportResult(
        value=value,
        log_v=pick("log_v"),
        iterations=pick("iterations"),
        converged=converged.take(picked),
        reg_value=pick("reg_value"),
        domain=pick("domain"),
    )
    return value, classes, plans


def _one_hots(shape: tuple[int, int], c: int) -> np.ndarray:
    # The first marginal of class c's solve: unit mass on c in every row.
    onehots = np.zeros(shape)
    onehots[:, c] = 1.0
    return onehots


def _not_converged(converged, results, first_row: int, cfg: ScoreConfig) -> NumericError:
    # ``converged`` is (candidate classes, rows); names the first row that
    # failed and the lowest class it failed for.
    i = int(np.argmin(converged.all(axis=0)))
    c = int(np.argmin(converged[:, i]))
    return NumericError(
        f"sinkhorn failed to converge on row {first_row + i} (class {c})"
        f" after {results[c].iterations[i]} iterations (lam={cfg.sinkhorn.lam})"
    )
