"""Discrete optimal transport between probability vectors.

Provides the exact transportation-LP distance, the entropically regularized
Sinkhorn-Knopp iteration (scaled and log-domain), and extraction of the
distance gradient with respect to the second marginal from the converged
column scaling.

Orientation convention used throughout the library: for
``W(r1, r2) = min <P, M>`` the coupling ``P`` has row sums ``r1`` and column
sums ``r2``, i.e. ``P @ 1 = r1`` and ``P.T @ 1 = r2``. The Sinkhorn scaling
``u`` belongs to ``r1`` (rows) and ``v`` to ``r2`` (columns), with
``P = diag(u) @ exp(-lam * M) @ diag(v)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linprog

from .errors import CapacityError, DimensionError, InputError, NumericError

# Absolute tolerance on sum(p) == 1 for probability vectors.
PROB_SUM_TOL = 1e-9

# Floor applied to scaling entries before taking logs in the gradient.
LOG_FLOOR = 1e-300

# Largest K for which the exact LP path is allowed.
LP_CAP_DEFAULT = 16


class CostKind(Enum):
    """Structural family of a transport cost matrix."""

    BINARY = "binary"
    DYNAMIC = "dynamic"


def as_prob_vector(values, name: str = "distribution") -> np.ndarray:
    """Validate and return a point on the K-simplex as a float64 array.

    The single-row case of :func:`as_prob_rows`.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {arr.shape}")
    return as_prob_rows(arr[None, :], name)[0]


def as_prob_rows(values, name: str = "probs") -> np.ndarray:
    """Validate a batch ``(n, K)`` of simplex points, one per row.

    Entries must be nonnegative and finite, each row must sum to 1 within
    ``PROB_SUM_TOL``, and K must be at least 2. Zeros are allowed (one-hot
    labels). The checks run once over the whole array; the error names the
    first row that fails.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D (n, K), got shape {arr.shape}")
    if arr.shape[1] < 2:
        raise DimensionError(f"{name} needs K >= 2 classes, got K={arr.shape[1]}")
    # Array methods rather than np.all/np.any: this also runs once per
    # Sinkhorn marginal, where the function wrappers' overhead shows.
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise InputError(f"{name} row {int(bad.argmax())} contains non-finite entries")
    bad = (arr < 0.0).any(axis=1)
    if bad.any():
        raise InputError(f"{name} row {int(bad.argmax())} contains negative mass")
    totals = arr.sum(axis=1)
    bad = np.abs(totals - 1.0) > PROB_SUM_TOL
    if bad.any():
        row = int(bad.argmax())
        raise InputError(f"{name} row {row} must sum to 1, got {float(totals[row])!r}")
    return arr


def one_hot(k: int, n_classes: int) -> np.ndarray:
    """Unit mass on class ``k`` (0-based)."""
    if not 0 <= k < n_classes:
        raise IndexError(f"class index {k} out of range for K={n_classes}")
    e = np.zeros(n_classes, dtype=np.float64)
    e[k] = 1.0
    return e


@dataclass(frozen=True)
class CostMatrix:
    """K x K nonnegative matrix of unit transport costs.

    ``kind`` records the structural family; BINARY matrices are checked
    exactly (zero diagonal, unit off-diagonal). DYNAMIC matrices carry no
    metric guarantees.
    """

    entries: np.ndarray
    kind: CostKind

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionError(f"cost matrix must be square, got {entries.shape}")
        if entries.shape[0] < 2:
            raise DimensionError("cost matrix needs K >= 2")
        if not np.all(np.isfinite(entries)):
            raise InputError("cost matrix contains non-finite entries")
        if np.any(entries < 0.0):
            raise InputError("cost matrix contains negative costs")
        if self.kind is CostKind.BINARY:
            k = entries.shape[0]
            expected = np.ones((k, k)) - np.eye(k)
            if not np.array_equal(entries, expected):
                raise InputError(
                    "binary cost matrix must have zero diagonal and unit off-diagonal"
                )

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def max_entry(self) -> float:
        return float(np.max(self.entries))


@dataclass(frozen=True)
class SinkhornConfig:
    """Parameters of the Sinkhorn-Knopp iteration.

    ``lam`` is the inverse regularization weight (larger = closer to the
    exact distance). Convergence is declared when the max-norm relative
    change of the column scaling ``v`` between sweeps (the change of
    ``log v``, to first order) drops below ``tol``. When ``log_domain`` is
    true, an over/underflow in the scaled iteration triggers an automatic
    retry with log-sum-exp updates.
    """

    lam: float = 50.0
    max_iter: int = 1000
    tol: float = 1e-9
    log_domain: bool = True

    def __post_init__(self):
        if not self.lam > 0:
            raise InputError(f"lam must be positive, got {self.lam}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0:
            raise InputError(f"tol must be positive, got {self.tol}")


def _scaling_delta(v_new: np.ndarray, v_old: np.ndarray, support: np.ndarray) -> float:
    # Max-norm change of the column scaling measured relatively (i.e. of
    # log v): the scalings live at scale exp(+-lam * M), so an absolute
    # test can never be met in floating point at large lam. The caller
    # silences the 0/0 and x/0 warnings that np.where then discards.
    new = v_new[support]
    old = v_old[support]
    ratio = np.where(old > 0.0, new / old, np.inf)
    return float(np.abs(ratio - 1.0).max())


@dataclass
class TransportResult:
    """Outcome of a Sinkhorn run.

    ``value`` is the transport term ``<P, M>`` (the reported distance
    estimate; the entropy term is excluded). ``reg_value`` is the full
    regularized objective ``<P, M> - h(P)/lam``, which is what the dual
    gradient differentiates. ``u``/``v`` are the row/column scalings,
    nonnegative, strictly positive on the support of the marginals. Runs
    that went through the log domain also carry ``log_u``/``log_v`` (the
    exact log-scalings; ``u``/``v`` are their exponentials saturated to
    stay finite), and the gradient is extracted from ``log_v`` directly.
    """

    value: float
    u: np.ndarray
    v: np.ndarray
    iterations: int
    converged: bool
    reg_value: float
    domain: str  # "scaled" or "log"
    log_u: np.ndarray | None = None
    log_v: np.ndarray | None = None


def _check_pair(r1: np.ndarray, r2: np.ndarray, M: CostMatrix) -> None:
    if r1.shape[0] != r2.shape[0]:
        raise DimensionError(
            f"marginals disagree on K: {r1.shape[0]} vs {r2.shape[0]}"
        )
    if M.k != r1.shape[0]:
        raise DimensionError(f"cost matrix is {M.k}x{M.k} but K={r1.shape[0]}")


def _one_hot_index(r: np.ndarray) -> int | None:
    nz = np.flatnonzero(r)
    return int(nz[0]) if nz.size == 1 else None


def _singleton_value(r: np.ndarray, costs: np.ndarray, kind: CostKind, k: int) -> float:
    # With a one-hot marginal the coupling is forced, so the distance is a
    # plain inner product against one line of the cost matrix. For binary
    # costs we use 1 - r[k], which is exact on the simplex and avoids the
    # roundoff of summing K-1 terms.
    if kind is CostKind.BINARY:
        return 1.0 - float(r[k])
    return float(r @ costs)


def exact_wasserstein(r1, r2, M: CostMatrix, cap: int = LP_CAP_DEFAULT) -> float:
    """Exact transport distance ``min <P, M>`` over couplings of (r1, r2).

    One-hot marginals short-circuit to the unique feasible coupling; the
    general case solves the transportation LP and is capped at ``cap``
    classes (CapacityError beyond).
    """
    r1 = as_prob_vector(r1, "r1")
    r2 = as_prob_vector(r2, "r2")
    _check_pair(r1, r2, M)

    i = _one_hot_index(r1)
    if i is not None:
        return _singleton_value(r2, M.entries[i, :], M.kind, i)
    j = _one_hot_index(r2)
    if j is not None:
        return _singleton_value(r1, M.entries[:, j], M.kind, j)

    k = r1.shape[0]
    if k > cap:
        raise CapacityError(f"exact LP limited to K <= {cap}, got K={k}")

    # Flatten P row-major; equality rows: K row sums then K column sums.
    a_eq = np.zeros((2 * k, k * k))
    for i in range(k):
        a_eq[i, i * k : (i + 1) * k] = 1.0
    for j in range(k):
        a_eq[k + j, j::k] = 1.0
    b_eq = np.concatenate([r1, r2])
    res = linprog(M.entries.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise NumericError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise num/den with the convention 0/0 = 0.

    Positive mass over a zero denominator means the kernel underflowed and
    the scaled iteration cannot proceed.
    """
    out = np.zeros_like(num)
    pos = num > 0.0
    if (pos & (den == 0.0)).any():
        raise NumericError("positive mass divided by zero scaling (kernel underflow)")
    np.divide(num, den, out=out, where=pos)
    return out


def _finish(
    value: float,
    plogp_sum: float,
    u: np.ndarray,
    v: np.ndarray,
    iterations: int,
    converged: bool,
    lam: float,
    domain: str,
) -> TransportResult:
    if not np.isfinite(value):
        raise NumericError(f"transport value is non-finite in {domain} domain")
    return TransportResult(
        value=value,
        u=u,
        v=v,
        iterations=iterations,
        converged=converged,
        reg_value=value + plogp_sum / lam,
        domain=domain,
    )


def _plan_stats(P: np.ndarray, costs: np.ndarray) -> tuple[float, float]:
    value = float(np.sum(P * costs))
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0.0, P * np.log(P), 0.0)
    return value, float(np.sum(plogp))


def sinkhorn_scaled(r1, r2, M: CostMatrix, cfg: SinkhornConfig) -> TransportResult:
    """Sinkhorn iteration on raw scaling vectors.

    Raises NumericError if scalings overflow or the kernel underflows;
    callers that allow it should fall back to :func:`sinkhorn_log`.
    """
    r1 = as_prob_vector(r1, "r1")
    r2 = as_prob_vector(r2, "r2")
    _check_pair(r1, r2, M)

    with np.errstate(over="ignore", under="ignore"):
        kernel = np.exp(-cfg.lam * M.entries)
    support = r2 > 0.0
    v = np.where(support, 1.0, 0.0)
    u = np.zeros_like(r1)
    converged = False
    iterations = 0
    # One errstate around the whole loop: entering it on every sweep was a
    # large share of a sweep's cost at small K.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for iterations in range(1, cfg.max_iter + 1):
            u = _safe_div(r1, kernel @ v)
            v_new = _safe_div(r2, kernel.T @ u)
            if not (np.isfinite(u).all() and np.isfinite(v_new).all()):
                raise NumericError("sinkhorn scaling overflow in scaled domain")
            delta = _scaling_delta(v_new, v, support)
            v = v_new
            if delta < cfg.tol:
                converged = True
                break
    u = _safe_div(r1, kernel @ v)
    P = (u[:, None] * kernel) * v[None, :]
    value, plogp_sum = _plan_stats(P, M.entries)
    return _finish(value, plogp_sum, u, v, iterations, converged, cfg.lam, "scaled")


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


# Saturation bound so exp(log-scaling) stays finite for reporting.
_EXP_CAP = 709.0


def sinkhorn_log(r1, r2, M: CostMatrix, cfg: SinkhornConfig) -> TransportResult:
    """Log-domain Sinkhorn with per-sweep gauge normalization.

    The column log-scaling is shifted to zero mean on its support each
    sweep (compensated on the row side), pinning the otherwise free gauge
    so the scalings hover around unit scale. Convergence is the max-norm
    change of the column log-scaling over the support, the scale-natural
    counterpart of the scaled-domain test on ``v`` itself.
    """
    r1 = as_prob_vector(r1, "r1")
    r2 = as_prob_vector(r2, "r2")
    _check_pair(r1, r2, M)

    log_kernel = -cfg.lam * M.entries
    with np.errstate(divide="ignore"):
        log_r1 = np.log(r1)
        log_r2 = np.log(r2)
    support = r2 > 0.0
    if not np.any(support):
        raise NumericError("column marginal has empty support")
    log_v = np.where(support, 0.0, -np.inf)
    log_u = np.full_like(r1, -np.inf)
    prev = log_v[support]
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        log_u = log_r1 - _logsumexp(log_kernel + log_v[None, :], axis=1)
        log_v = log_r2 - _logsumexp(log_kernel + log_u[:, None], axis=0)
        shift = float(np.mean(log_v[support]))
        log_v = log_v - shift
        log_u = log_u + shift
        if not np.all(np.isfinite(log_v[support])):
            raise NumericError("log-scaling diverged in log domain")
        delta = float(np.max(np.abs(log_v[support] - prev)))
        prev = log_v[support]
        if delta < cfg.tol:
            converged = True
            break
    with np.errstate(over="ignore", under="ignore"):
        # Couplings are probabilities, so this exp cannot overflow.
        P = np.exp(log_u[:, None] + log_kernel + log_v[None, :])
        u = np.exp(np.minimum(log_u, _EXP_CAP))
        v = np.exp(np.minimum(log_v, _EXP_CAP))
    value, plogp_sum = _plan_stats(P, M.entries)
    result = _finish(value, plogp_sum, u, v, iterations, converged, cfg.lam, "log")
    result.log_u = log_u
    result.log_v = log_v
    return result


def sinkhorn_distance(r1, r2, M: CostMatrix, cfg: SinkhornConfig | None = None) -> TransportResult:
    """Entropically regularized transport distance between ``r1`` and ``r2``.

    Runs the scaled iteration first and retries in the log domain when the
    scaled iteration over/underflows (if ``cfg.log_domain`` permits).
    Non-convergence within ``max_iter`` is reported via the ``converged``
    flag, not an exception.
    """
    if cfg is None:
        cfg = SinkhornConfig()
    try:
        return sinkhorn_scaled(r1, r2, M, cfg)
    except NumericError:
        if not cfg.log_domain:
            raise
        return sinkhorn_log(r1, r2, M, cfg)


def sinkhorn_gradient(result: TransportResult, cfg: SinkhornConfig) -> np.ndarray:
    """Gradient of the regularized distance w.r.t. the second marginal.

    Recovered from the converged column scaling as ``(log v* + 1/2) / lam``.
    The gradient is defined only up to an additive constant (dual gauge);
    compare gradients after :func:`center_gradient`.
    """
    if not result.converged:
        raise NumericError(
            f"sinkhorn did not converge within {result.iterations} iterations;"
            " gradient unavailable"
        )
    if result.log_v is not None:
        log_v = np.maximum(result.log_v, np.log(LOG_FLOOR))
        return (log_v + 0.5) / cfg.lam
    v = np.asarray(result.v, dtype=np.float64)
    if np.any(v <= 0.0):
        raise NumericError("nonpositive column scaling in scaled domain")
    return (np.log(np.maximum(v, LOG_FLOOR)) + 0.5) / cfg.lam


def center_gradient(grad: np.ndarray) -> np.ndarray:
    """Project out the additive dual-gauge constant (zero-mean gradient)."""
    grad = np.asarray(grad, dtype=np.float64)
    return grad - grad.mean()


@dataclass
class MetricAxiomsReport:
    """Outcome of sampling-based metric-axiom checks."""

    n_triples: int
    violations: list[str]

    @property
    def passed(self) -> bool:
        return not self.violations


def metric_axioms_check(
    samples: list[tuple], M: CostMatrix, tol: float = 1e-9
) -> MetricAxiomsReport:
    """Check symmetry, triangle inequality and identity on sampled triples.

    Only BINARY cost matrices qualify (the dynamic family is not a metric).
    Report-only: violations are collected, never raised.
    """
    if M.kind is not CostKind.BINARY:
        raise InputError("metric axioms are only guaranteed for binary cost matrices")
    violations: list[str] = []
    for idx, (r1, r2, r3) in enumerate(samples):
        w12 = exact_wasserstein(r1, r2, M)
        w21 = exact_wasserstein(r2, r1, M)
        w13 = exact_wasserstein(r1, r3, M)
        w23 = exact_wasserstein(r2, r3, M)
        w11 = exact_wasserstein(r1, r1, M)
        if abs(w12 - w21) > tol:
            violations.append(f"triple {idx}: symmetry |{w12} - {w21}| > {tol}")
        if w13 > w12 + w23 + tol:
            violations.append(f"triple {idx}: triangle {w13} > {w12} + {w23}")
        if w11 > tol:
            violations.append(f"triple {idx}: W(r,r) = {w11} > {tol}")
        if w12 <= tol and np.max(np.abs(np.asarray(r1) - np.asarray(r2))) > 1e-6:
            violations.append(f"triple {idx}: W=0 for distinct distributions")
    return MetricAxiomsReport(n_triples=len(samples), violations=violations)
