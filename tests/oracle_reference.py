"""Reference scans for the selector, grid and subset oracles.

These are the straightforward scans that ``blockrelax.oracle`` replaced with a
single meet-in-the-middle pass: the selector scan loops over every head of
theta - 1 blocks and vectorizes the last block; the grid scan rebuilds each
chunk of points from its mixed-radix index and multiplies it by A.  The first
pass finds the minimum, the second collects every minimizer within the tie
window, in lexicographic order.  The subset search fits each column subset
with its own ``lstsq`` call, where the oracle scores stacked SVD blocks.
Meant for differential tests only.
"""

import itertools

import numpy as np

from blockrelax.model import solver_weights
from blockrelax.oracle import GridOracleResult, OracleResult, SubsetOracleResult

TIE_REL = 1e-9


def _selector_scan(instance, p, feas_tol):
    """Yield (head, feasible_cols, objectives) per innermost-vectorized slice."""
    r, theta = instance.r, instance.theta
    cols = [instance.A.blocks[l] @ instance.X.blocks[l] for l in range(theta)]
    w = solver_weights(instance.X, p)
    y = instance.y
    last = cols[theta - 1]
    w_last = w[(theta - 1) * r : theta * r]
    for head in itertools.product(range(r), repeat=theta - 1):
        partial = y.copy()
        obj_head = 0.0
        for l, k in enumerate(head):
            partial = partial - cols[l][:, k]
            obj_head += w[l * r + k]
        resid = np.linalg.norm(partial[:, None] - last, axis=0)
        ok = np.flatnonzero(resid <= feas_tol)
        if ok.size:
            yield head, ok, obj_head + w_last[ok]


def enumerate_selectors_reference(instance, p, tol_feas=1e-8):
    feas_tol = tol_feas * (1.0 + float(np.linalg.norm(instance.y)))
    best_obj = np.inf
    feasible = 0
    for _, ok, objs in _selector_scan(instance, p, feas_tol):
        feasible += ok.size
        best_obj = min(best_obj, float(objs.min()))

    best = []
    if np.isfinite(best_obj):
        tie = best_obj + TIE_REL * (1.0 + abs(best_obj))
        for head, ok, objs in _selector_scan(instance, p, feas_tol):
            for k, obj in zip(ok, objs):
                if obj <= tie:
                    best.append(head + (int(k),))
    return OracleResult(
        best_combos=tuple(best),
        best_objective=float(best_obj),
        feasible_count=feasible,
        evaluated_count=instance.r**instance.theta,
    )


def _grid_chunks(gridv, ncols, total):
    """All grid points as (chunk, ncols) arrays, in mixed-radix index order."""
    chunk = 1 << 14
    base = len(gridv)
    for start in range(0, total, chunk):
        count = min(chunk, total - start)
        rem = np.arange(start, start + count)
        digits = np.empty((count, ncols), dtype=int)
        for j in range(ncols - 1, -1, -1):
            digits[:, j] = rem % base
            rem = rem // base
        yield gridv[digits]


def discrete_lp_oracle_reference(A, y, p, grid=(-1.0, -0.5, 0.0, 0.5, 1.0), tol=1e-8):
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    ncols = A.shape[1]
    gridv = np.asarray(grid, dtype=float)
    total = len(gridv) ** ncols
    thresh = tol * (1.0 + float(np.linalg.norm(y)))

    best_obj = np.inf
    feasible = False
    for points in _grid_chunks(gridv, ncols, total):
        ok = np.linalg.norm(points @ A.T - y, axis=1) <= thresh
        if ok.any():
            feasible = True
            best_obj = min(best_obj, float(np.sum(np.abs(points[ok]) ** p, axis=1).min()))

    witnesses = []
    if feasible:
        tie = best_obj + TIE_REL * (1.0 + abs(best_obj))
        for points in _grid_chunks(gridv, ncols, total):
            ok = np.linalg.norm(points @ A.T - y, axis=1) <= thresh
            if not ok.any():
                continue
            pts = points[ok]
            objs = np.sum(np.abs(pts) ** p, axis=1)
            for obj, pt in zip(objs, pts):
                if obj <= tie:
                    witnesses.append(tuple(float(v) for v in pt))
    return GridOracleResult(
        feasible=feasible,
        min_objective=best_obj if feasible else None,
        witnesses=tuple(witnesses),
        evaluated_count=total,
    )


def l0_min_oracle_reference(A, y, max_support, tol=1e-8):
    """One ``lstsq`` fit per column subset, sizes in increasing order."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    ncols = A.shape[1]
    thresh = tol * (1.0 + float(np.linalg.norm(y)))
    if float(np.linalg.norm(y)) <= thresh:
        return SubsetOracleResult(feasible=True, min_support=0, witnesses=((),))
    for k in range(1, min(max_support, ncols) + 1):
        witnesses = []
        for subset in itertools.combinations(range(ncols), k):
            sol, *_ = np.linalg.lstsq(A[:, subset], y, rcond=None)
            if float(np.linalg.norm(A[:, subset] @ sol - y)) <= thresh:
                witnesses.append(subset)
        if witnesses:
            return SubsetOracleResult(feasible=True, min_support=k, witnesses=tuple(witnesses))
    return SubsetOracleResult(feasible=False, min_support=None, witnesses=())
