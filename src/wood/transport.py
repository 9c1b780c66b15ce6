"""Discrete optimal transport between probability vectors.

Provides one batched solver for the entropically regularized Sinkhorn-Knopp
iteration (scaled, with a per-problem log-domain fallback) and extraction of
the distance gradient with respect to the second marginal from the converged
column scaling. The exact transportation LP lives in :mod:`wood.oracles`,
for tests only.

Orientation convention used throughout the library: for
``W(r1, r2) = min <P, M>`` the coupling ``P`` has row sums ``r1`` and column
sums ``r2``, i.e. ``P @ 1 = r1`` and ``P.T @ 1 = r2``. The Sinkhorn scaling
``u`` belongs to ``r1`` (rows) and ``v`` to ``r2`` (columns), with
``P = diag(u) @ exp(-lam * M) @ diag(v)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError, NumericError

# Absolute tolerance on sum(p) == 1 for probability vectors.
PROB_SUM_TOL = 1e-9

# The gradient's stand-in for a zero scaling entry (off the support of r2),
# and the least normal float64, below which a kernel or r2 entry keeps too
# few bits.
LOG_FLOOR = 1e-300
_TINY = np.finfo(np.float64).tiny

# ``TransportResult.domain`` entries, repeated once per problem.
_SCALED = np.array(["scaled"])
_LOG = np.array(["log"])


class CostKind(Enum):
    """Structural family of a transport cost matrix."""

    BINARY = "binary"
    DYNAMIC = "dynamic"


def as_prob_rows(values, name: str = "probs") -> np.ndarray:
    """Validate a batch ``(n, K)`` of simplex points, one per row.

    Entries must be nonnegative and finite, each row must sum to 1 within
    ``PROB_SUM_TOL``, and K must be at least 2. Zeros are allowed (one-hot
    labels). The checks run once over the whole array; the error names the
    first row that fails.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-D (n, K), got shape {arr.shape}")
    if arr.shape[1] < 2:
        raise InputError(f"{name} needs K >= 2 classes, got K={arr.shape[1]}")
    # One pass settles valid input (a NaN or infinite entry fails the sum
    # test); the row checks below only find the row to name. Counts rather
    # than np.all: this runs on every public scores call.
    totals = arr.sum(axis=1)
    summed = np.abs(totals - 1.0) <= PROB_SUM_TOL
    if not np.count_nonzero(arr < 0.0) and np.count_nonzero(summed) == len(summed):
        return arr
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise InputError(f"{name} row {int(bad.argmax())} contains non-finite entries")
    bad = (arr < 0.0).any(axis=1)
    if bad.any():
        raise InputError(f"{name} row {int(bad.argmax())} contains negative mass")
    row = int(summed.argmin())
    raise InputError(f"{name} row {row} must sum to 1, got {float(totals[row])!r}")


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
        if not 0 < self.lam < np.inf:
            raise InputError(f"lam must be finite and positive, got {self.lam}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0 < self.tol < np.inf:
            raise InputError(f"tol must be finite and positive, got {self.tol}")


@dataclass
class TransportResult:
    """Outcome of Sinkhorn runs, one entry per problem.

    Every field is an array over the B problems of a :func:`sinkhorn_batch`
    call (``log_v`` is ``(B, K)``). ``value`` is the transport term
    ``<P, M>`` (the reported distance estimate; the entropy term is
    excluded).
    ``reg_value`` is the full regularized objective ``<P, M> - h(P)/lam``,
    which is what the dual gradient differentiates. ``log_v`` is the log of
    the column scaling ``v``, -inf off the support of ``r2``; problems
    solved in the log domain carry the iterate itself, which may lie beyond
    the float range of ``v``. ``iterations`` counts the sweeps a problem ran
    (a one-hot ``r1`` settles on the second scaled sweep), and ``converged``
    says whether its last sweep met ``tol``. ``domain`` holds the strings
    ``"scaled"`` or ``"log"``: the domain the problem was last solved in.
    """

    value: np.ndarray
    log_v: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    reg_value: np.ndarray
    domain: np.ndarray


def _plan_values(plan: np.ndarray, costs: np.ndarray, lam: float):
    # Transport term and regularized objective of each (K, K) plan. Every
    # sum runs over one problem's contiguous row, so it rounds exactly as a
    # sum over that plan alone.
    n, k = plan.shape[:2]
    value = (plan * costs).reshape(n, k * k).sum(axis=1)
    plogp = np.where(plan > 0.0, plan * np.log(plan), 0.0).reshape(n, k * k).sum(axis=1)
    return value, value + plogp / lam


def _iterate(sweep, fixed: list, state: list, cfg: SinkhornConfig):
    """Run ``sweep(*fixed, *state, tol) -> (state, done, bad)`` on every
    problem until it converges (``done``), fails (``bad``) or reaches
    ``cfg.max_iter``; return the final states, iteration counts and flags.

    When every problem finishes on the same sweep, which is the usual case
    (a one-hot first marginal settles on the second sweep), that sweep's
    arrays are returned as they are; a sweep must therefore return fresh
    arrays, which the caller may update. Otherwise the problems that finish
    are copied out and the working arrays are compacted to the ones still
    iterating, so a sweep does no per-problem bookkeeping. A ``fixed`` array
    with a leading dimension of 1 is shared by all.
    """
    n = state[0].shape[0]
    final = None
    it = 0
    while True:
        it += 1
        state, done, bad = sweep(*fixed, *state, cfg.tol)
        finished = done | bad
        if it == cfg.max_iter:
            finished[:] = True
        count = np.count_nonzero(finished)
        if final is None and count == n:
            return state, np.full(n, it, dtype=np.intp), done, bad
        if not count:
            continue
        if final is None:
            final = [np.empty_like(s) for s in state]
            iterations = np.zeros(n, dtype=np.intp)
            converged = np.zeros(n, dtype=bool)
            failed = np.zeros(n, dtype=bool)
            active = np.arange(n)
        rows = active[finished]
        for out, s in zip(final, state):
            out[rows] = s[finished]
        iterations[rows] = it
        converged[rows] = done[finished]
        failed[rows] = bad[finished]
        keep = ~finished
        active = active[keep]
        if not active.size:
            return final, iterations, converged, failed
        fixed = [a if a.shape[0] == 1 else a[keep] for a in fixed]
        state = [s[keep] for s in state]


def _scaled_sweep(kernel, kernel_t, r1, r2, pos1, pos2, fill, v, tol):
    # Positive mass over an underflowed (zero) denominator shows as an
    # infinite scaling, so one finiteness test catches under- and overflow.
    # Stacked matvecs round each problem exactly as ``kernel @ v`` and,
    # through the transposed view ``kernel_t``, ``kernel.T @ u`` do.
    u = np.divide(r1, kernel @ v, out=np.zeros(r1.shape), where=pos1)
    v_new = np.divide(r2, kernel_t @ u, out=np.zeros(r2.shape), where=pos2)
    # Max-norm change of the column scaling measured relatively (i.e. of
    # log v): the scalings live at scale exp(+-lam * M), so an absolute test
    # can never be met in floating point at large lam. ``fill`` is the ratio
    # taken for a zero scaling: inf on the support, 1 off it.
    ratio = np.divide(v_new, v, out=fill.copy(), where=v > 0.0)
    ratio -= 1.0
    done = np.abs(ratio, out=ratio).max(axis=(1, 2)) < tol
    # One whole-array test: an infinite or NaN entry of u or v_new makes its
    # product, and so the dot product, non-finite. Only then, or when the
    # products of finite entries overflow, is each row tested.
    if math.isfinite(np.vdot(u, v_new)):
        return [v_new], done, np.zeros(done.shape, dtype=bool)
    bad = ~(np.isfinite(u).all(axis=(1, 2)) & np.isfinite(v_new).all(axis=(1, 2)))
    return [v_new], done & ~bad, bad


def _logsumexp(a: np.ndarray) -> np.ndarray:
    # Over the last axis, where a reduction rounds the same for any batch.
    m = a.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.log(np.exp(a - m).sum(axis=-1)) + m[..., 0]


def _log_sweep(log_k, log_kt, log_r1, log_r2, support, log_u, log_v, tol):
    # Each column log-scaling is shifted to zero mean on its support
    # (compensated on the row side), pinning the otherwise free gauge so the
    # scalings hover around unit scale. Convergence is the max-norm change
    # of the column log-scaling over the support, the scale-natural
    # counterpart of the scaled-domain test on ``v`` itself.
    log_u = log_r1 - _logsumexp(log_k + log_v[:, None, :])
    new = log_r2 - _logsumexp(log_kt + log_u[:, None, :])
    shift = (np.where(support, new, 0.0).sum(axis=1) / support.sum(axis=1))[:, None]
    new -= shift
    log_u += shift
    bad = ~(np.isfinite(new) | ~support).all(axis=1)
    done = (np.where(support, np.abs(new - log_v), 0.0).max(axis=1) < tol) & ~bad
    return [log_u, new], done, bad


def _log_domain(R1, R2, costs, cfg: SinkhornConfig, rows: np.ndarray) -> TransportResult:
    """The log-domain iteration for the problems ``rows`` of a batch, which
    the scaled one could not solve."""
    log_k = -cfg.lam * costs
    # A contiguous transpose keeps the column update's reduction on the
    # last axis as well.
    log_kt = np.ascontiguousarray(log_k.transpose(0, 2, 1))
    support = R2 > 0.0
    fixed = [log_k, log_kt, np.log(R1), np.log(R2), support]
    start = [np.full_like(R1, -np.inf), np.where(support, 0.0, -np.inf)]
    (log_u, log_v), iterations, converged, failed = _iterate(_log_sweep, fixed, start, cfg)
    # Couplings are probabilities, so this exp cannot overflow.
    value, reg_value = _plan_values(
        np.exp(log_u[:, :, None] + log_k + log_v[:, None, :]), costs, cfg.lam
    )
    failed |= ~np.isfinite(value)
    if failed.any():
        raise NumericError(f"sinkhorn diverged in log domain on problem {rows[failed.argmax()]}")
    return TransportResult(
        value=value,
        log_v=log_v,
        iterations=iterations,
        converged=converged,
        reg_value=reg_value,
        domain=_LOG.repeat(R1.shape[0]),
    )


def sinkhorn_batch(r1, r2, C, cfg: SinkhornConfig) -> TransportResult:
    """Entropically regularized transport distances of B problems at once.

    Problem ``b`` transports ``r1[b]`` to ``r2[b]`` (both ``(B, K)``) under
    the cost ``C``: one ``(K, K)`` matrix shared by all problems, or one per
    problem ``(B, K, K)``. Every problem runs the scaled iteration and keeps
    its own iteration count and convergence flag; problems are never
    coupled, so each row of the result equals a B=1 call bitwise. Problems
    whose scalings over/underflow, or whose kernel ``exp(-lam * C)`` or
    ``r2`` has a subnormal entry, are re-solved together in the log domain
    (``domain`` reads ``"log"``), or raise NumericError naming the first of
    them when ``cfg.log_domain`` is false. Non-convergence within
    ``max_iter`` is reported by ``converged``, not raised.
    """
    R1 = as_prob_rows(r1, "r1")
    R2 = as_prob_rows(r2, "r2")
    if R1.shape != R2.shape:
        raise InputError(f"marginals disagree: {R1.shape} vs {R2.shape}")
    n, k = R1.shape
    C = np.asarray(C, dtype=np.float64)
    if C.shape not in ((k, k), (n, k, k)):
        raise InputError(f"cost of shape {C.shape} does not fit {n} problems with K={k}")
    if not (np.isfinite(C).all() and (C >= 0.0).all()):
        raise InputError("cost matrix entries must be finite and nonnegative")
    return _sinkhorn_batch(R1, R2, C.reshape(-1, k, k), cfg)


@np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore")
def _sinkhorn_batch(R1, R2, C, cfg: SinkhornConfig) -> TransportResult:
    """The body of :func:`sinkhorn_batch` for marginals ``(B, K)`` that are
    already simplex rows and finite nonnegative costs ``(1, K, K)`` (shared
    by the batch) or ``(B, K, K)``."""
    n, k = R1.shape
    # The kernel and the plan are built in place: two (B, K, K) temporaries
    # fewer per solve.
    kernel = np.multiply(C, -cfg.lam)
    np.exp(kernel, out=kernel)
    # Marginals and scalings are (B, K, 1) columns, which the stacked
    # matvecs take and return as they are.
    r1, r2 = R1[:, :, None], R2[:, :, None]
    pos1, pos2 = r1 > 0.0, r2 > 0.0
    fixed = [kernel, kernel.transpose(0, 2, 1), r1, r2, pos1, pos2, np.where(pos2, np.inf, 1.0)]
    (V,), iterations, converged, failed = _iterate(
        _scaled_sweep, fixed, [pos2.astype(np.float64)], cfg
    )
    U = np.divide(r1, kernel @ V, out=np.zeros(r1.shape), where=pos1)
    plan = U * kernel
    plan *= V.transpose(0, 2, 1)
    value, reg_value = _plan_values(plan, C, cfg.lam)
    result = TransportResult(
        value=value,
        log_v=np.log(V).reshape(n, k),
        iterations=iterations,
        converged=converged,
        reg_value=reg_value,
        domain=_SCALED.repeat(n),
    )
    # A non-finite final scaling makes the value non-finite too. Values are
    # nonnegative, so a finite total proves every one finite.
    if not math.isfinite(value.sum()):
        failed |= ~np.isfinite(value)
    # A subnormal kernel entry, or a subnormal entry of r2, leaves log v too
    # few bits for the dual gradient, so its problem is re-solved in the log
    # domain too.
    if kernel.min(initial=1.0) < _TINY:
        failed |= ((kernel > 0.0) & (kernel < _TINY)).any(axis=(1, 2))
    if r2.min(initial=1.0, where=pos2) < _TINY:
        failed |= (pos2 & (r2 < _TINY)).any(axis=(1, 2))
    if np.count_nonzero(failed):
        rows = np.flatnonzero(failed)
        if not cfg.log_domain:
            raise NumericError(
                f"sinkhorn scaling over/underflow in scaled domain on problem {rows[0]}"
            )
        redo = _log_domain(R1[rows], R2[rows], C if len(C) == 1 else C[rows], cfg, rows)
        for name, values in vars(redo).items():
            getattr(result, name)[rows] = values
    return result


def sinkhorn_gradient(result: TransportResult, cfg: SinkhornConfig) -> np.ndarray:
    """Gradient of the regularized distance w.r.t. the second marginal.

    Read per problem from the converged column scaling as
    ``(log v* + 1/2) / lam``; the shape follows ``result.log_v``. Only zeros
    of ``v*`` (off the support of ``r2``) are floored, at ``LOG_FLOOR`` or the
    row's least nonzero entry if lower: a log-domain iterate's gauge may put
    entries that carry mass far below ``LOG_FLOOR``. The gradient is defined
    only up to an additive constant (dual gauge); compare gradients after
    :func:`wood.oracles.center_gradient`.
    """
    if not np.all(result.converged):
        raise NumericError(
            f"sinkhorn did not converge within {np.max(result.iterations)} iterations;"
            " gradient unavailable"
        )
    log_v = result.log_v
    low = np.where(log_v == -np.inf, np.inf, log_v).min(axis=-1, keepdims=True)
    return (np.maximum(log_v, np.minimum(low, np.log(LOG_FLOOR))) + 0.5) / cfg.lam
