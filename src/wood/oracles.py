"""Brute-force reference implementations for the test suite.

These deliberately share no computation with the production paths: the
transport solver is a classic transportation-simplex (northwest corner plus
dual-improvement pivots), a one-hot marginal gets its forced coupling in
closed form, the dynamic cost matrix is built for one row and one class,
the AUROC is an explicit double loop, the gradient oracle is central finite
differences along simplex-tangent directions, and one scaled Sinkhorn sweep
is written out entry by entry for a single problem.
Obviousness is favored over speed; hard caps keep runtimes in seconds. Not
for production use. The tests also take their one-hot vectors and the
gauge centering of gradients from here.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError, WoodError


class CapacityError(WoodError):
    """Problem size exceeds a hard cap of an oracle (the exact-LP solver)."""


LP_CAP = 16

# Marginal perturbation that makes the northwest-corner basis non-degenerate;
# it shifts the optimal value by at most ~K * eps * max(M).
_EPS = 1.3e-11


def _check_marginal(r, name: str) -> np.ndarray:
    arr = np.asarray(r, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise InputError(f"{name} must be a 1-D distribution with K >= 2")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must be nonnegative and finite")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise InputError(f"{name} must sum to 1")
    return arr


def _northwest_corner(supply: np.ndarray, demand: np.ndarray):
    k = supply.size
    s = supply.copy()
    d = demand.copy()
    alloc: dict[tuple[int, int], float] = {}
    basis: list[tuple[int, int]] = []
    i = j = 0
    while True:
        q = min(s[i], d[j])
        alloc[(i, j)] = q
        basis.append((i, j))
        s[i] -= q
        d[j] -= q
        if i == k - 1 and j == k - 1:
            break
        if s[i] <= d[j]:
            i += 1
        else:
            j += 1
    return alloc, basis


def _compute_duals(basis, costs: np.ndarray, k: int):
    u = np.full(k, np.nan)
    w = np.full(k, np.nan)
    u[0] = 0.0
    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for (i, j) in basis:
        by_row.setdefault(i, []).append(j)
        by_col.setdefault(j, []).append(i)
    frontier = [("r", 0)]
    while frontier:
        kind, idx = frontier.pop()
        if kind == "r":
            for j in by_row.get(idx, []):
                if np.isnan(w[j]):
                    w[j] = costs[idx, j] - u[idx]
                    frontier.append(("c", j))
        else:
            for i in by_col.get(idx, []):
                if np.isnan(u[i]):
                    u[i] = costs[i, idx] - w[idx]
                    frontier.append(("r", i))
    if np.any(np.isnan(u)) or np.any(np.isnan(w)):
        raise NumericError("basis graph is disconnected; duals undefined")
    return u, w


def _find_path(basis, start_row: int, end_col: int):
    # BFS over the basis tree from row node to column node; returns the
    # list of basis cells along the unique path.
    adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for (i, j) in basis:
        adj.setdefault(("r", i), []).append(("c", j))
        adj.setdefault(("c", j), []).append(("r", i))
    start = ("r", start_row)
    goal = ("c", end_col)
    parents: dict[tuple[str, int], tuple[str, int]] = {start: start}
    queue = [start]
    while queue:
        node = queue.pop(0)
        if node == goal:
            break
        for nxt in adj.get(node, []):
            if nxt not in parents:
                parents[nxt] = node
                queue.append(nxt)
    if goal not in parents:
        raise NumericError("no augmenting path in basis tree")
    nodes = [goal]
    while nodes[-1] != start:
        nodes.append(parents[nodes[-1]])
    nodes.reverse()
    cells = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        if a[0] == "r":
            cells.append((a[1], b[1]))
        else:
            cells.append((b[1], a[1]))
    return cells


def lp_transport(r1, r2, M, cap: int = LP_CAP):
    """Exact transportation optimum by the simplex (u-v) method.

    Returns ``(value, coupling)`` where the coupling has row sums ``r1``
    and column sums ``r2`` (up to a deliberate anti-degeneracy perturbation
    of about 1e-11). K is capped for sanity.
    """
    r1 = _check_marginal(r1, "r1")
    r2 = _check_marginal(r2, "r2")
    costs = np.asarray(M, dtype=np.float64)
    k = r1.size
    if r2.size != k or costs.shape != (k, k):
        raise InputError("marginals and cost matrix disagree on K")
    if k > cap:
        raise CapacityError(f"oracle limited to K <= {cap}, got K={k}")

    supply = r1 + _EPS
    demand = r2.copy()
    demand[-1] += k * _EPS

    alloc, basis = _northwest_corner(supply, demand)

    for _ in range(2000):
        u, w = _compute_duals(basis, costs, k)
        reduced = costs - u[:, None] - w[None, :]
        for (i, j) in basis:
            reduced[i, j] = 0.0
        raw_entering = np.unravel_index(np.argmin(reduced), reduced.shape)
        if reduced[raw_entering] >= -1e-10:
            break
        entering = (int(raw_entering[0]), int(raw_entering[1]))
        path_cells = _find_path(basis, entering[0], entering[1])
        minus_cells = path_cells[0::2]
        plus_cells = path_cells[1::2]
        theta = min(alloc[c] for c in minus_cells)
        leaving = next(c for c in minus_cells if alloc[c] == theta)
        alloc[entering] = theta
        basis.append(entering)
        for c in plus_cells:
            alloc[c] += theta
        for c in minus_cells:
            alloc[c] -= theta
        basis.remove(leaving)
        del alloc[leaving]
    else:
        raise NumericError("transportation simplex failed to terminate")

    coupling = np.zeros((k, k))
    for (i, j), q in alloc.items():
        coupling[i, j] = max(q, 0.0)
    value = float(np.sum(coupling * costs))
    return value, coupling


def forced_transport(label: int, f, M) -> float:
    """Exact distance from the one-hot of ``label`` (row side) to ``f``.

    A one-hot marginal admits a single coupling, row ``label`` equal to
    ``f``, so the distance is ``f @ M[label]``. Costs with the binary
    structure (zero diagonal, unit off-diagonal) give ``1 - f[label]``
    instead, which is exact on the simplex and avoids the roundoff of
    summing K-1 terms.
    """
    f = _check_marginal(f, "f")
    costs = np.asarray(M, dtype=np.float64)
    k = f.size
    if costs.shape != (k, k):
        raise InputError("marginal and cost matrix disagree on K")
    if not 0 <= label < k:
        raise IndexError(f"class index {label} out of range for K={k}")
    if np.array_equal(costs, np.ones((k, k)) - np.eye(k)):
        return 1.0 - float(f[label])
    return float(f @ costs[label])


def dynamic_matrix(f, k: int) -> np.ndarray:
    """``(K, K)`` costs of elementwise distances between ``f`` and the one-hot ``k``.

    Row ``k`` (the one-hot side under the library's row-marginal convention)
    holds ``1 - f``; every other row holds ``f``. Row ``k`` plus any other
    row is the all-ones vector. The reference for the batch of these costs
    that the Sinkhorn score builds.
    """
    f = _check_marginal(f, "f")
    n = f.size
    if not 0 <= k < n:
        raise IndexError(f"class index {k} out of range for K={n}")
    costs = np.tile(f, (n, 1))
    costs[k, :] = 1.0 - f
    return costs


def scaled_sweep(kernel, r1, r2, v, tol: float) -> tuple[np.ndarray, bool, bool]:
    """One scaled Sinkhorn sweep of a single problem, entry by entry.

    ``u = r1 / (kernel @ v)``, then ``v' = r2 / (kernel.T @ u)``, each entry
    0 where its marginal is 0. Returns ``(v', done, bad)``: ``bad`` when an
    entry of ``u`` or ``v'`` is infinite or NaN; ``done`` when it is not bad
    and every entry of ``v'`` moved by less than ``tol`` relative to ``v``.
    An entry where ``v`` is not positive counts as moved on the support of
    ``r2`` and as still off it. The matrix-vector products are the only
    array operations, so the entries round as one problem's matvecs do.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    r1, r2, v = (np.asarray(a, dtype=np.float64) for a in (r1, r2, v))
    k = r1.size
    with np.errstate(all="ignore"):
        kv = kernel @ v
        u = np.zeros(k)
        for i in range(k):
            if r1[i] > 0.0:
                u[i] = r1[i] / kv[i]
        ku = kernel.T @ u
        v_new = np.zeros(k)
        for j in range(k):
            if r2[j] > 0.0:
                v_new[j] = r2[j] / ku[j]
        bad = not all(np.isfinite(x) for x in (*u, *v_new))
        done = not bad
        for j in range(k):
            if v[j] > 0.0:
                ratio = v_new[j] / v[j]
            else:
                ratio = np.inf if r2[j] > 0.0 else 1.0
            if not abs(ratio - 1.0) < tol:
                done = False
    return v_new, done, bad


def one_hot(k: int, n_classes: int) -> np.ndarray:
    """Unit mass on class ``k`` (0-based)."""
    if not 0 <= k < n_classes:
        raise IndexError(f"class index {k} out of range for K={n_classes}")
    e = np.zeros(n_classes, dtype=np.float64)
    e[k] = 1.0
    return e


def center_gradient(grad) -> np.ndarray:
    """Project out the additive dual-gauge constant (zero-mean gradient)."""
    grad = np.asarray(grad, dtype=np.float64)
    return grad - grad.mean()


def fd_gradient(fn, point, step: float = 1e-5) -> np.ndarray:
    """Centered ambient gradient of ``fn`` on the simplex at ``point``.

    Central differences along the K-1 tangent directions ``e_i - e_K``; the
    ambient gradient is reconstructed with the zero-mean gauge. The point
    must be interior by at least ``step`` in every perturbed coordinate.
    """
    if not step > 0:
        raise InputError(f"step must be positive, got {step}")
    p = np.asarray(point, dtype=np.float64)
    k = p.size
    diffs = np.zeros(k - 1)
    for i in range(k - 1):
        t = np.zeros(k)
        t[i] = 1.0
        t[k - 1] = -1.0
        diffs[i] = (fn(p + step * t) - fn(p - step * t)) / (2.0 * step)
    last = -float(np.sum(diffs)) / k
    return np.concatenate([diffs + last, [last]])


def pairwise_auroc(ind_scores, ood_scores) -> float:
    """AUROC as (wins + ties/2) / (n_ind * n_ood) by explicit double loop."""
    ind = list(ind_scores)
    ood = list(ood_scores)
    if not ind or not ood:
        raise InputError("score lists must be non-empty")
    wins = 0
    ties = 0
    for o in ood:
        for s in ind:
            if o > s:
                wins += 1
            elif o == s:
                ties += 1
    return (wins + 0.5 * ties) / (len(ind) * len(ood))
