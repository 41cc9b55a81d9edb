"""Exhaustive reference oracles.

Everything here trades speed for being obviously correct: full enumeration of
discrete selector combinations, of column subsets, or of the points whose
entries lie in ``GRID``, with no pruning.  Hard guards refuse problem sizes
where exhaustion stops being a sane idea.  The selector and grid scans evaluate every point once, meeting two
enumerated halves in the middle; minimizer ties travel with the running
minimum, so the reported set never depends on scan order.  The subset search
scores every column subset of one size in stacked SVD blocks of bounded
memory, judging rank by ``lstsq``'s own singular value cutoff.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import RelaxedInstance, solver_weights
from .solver import TOL_FEAS

__all__ = [
    "OracleResult",
    "enumerate_selectors",
    "SubsetOracleResult",
    "l0_min_oracle",
    "GridOracleResult",
    "discrete_lp_oracle",
]

ENUMERATION_GUARD = 10**6
SUBSET_GUARD = 12
GRID_GUARD = 10**7
GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)  # the values the grid oracle gives each coordinate

_TIE_REL = 1e-9
_PAIR_FLOATS = 1 << 16  # most floats one block of (head, tail) residuals or of stacked subsets may hold


@dataclass(frozen=True)
class OracleResult:
    """Best discrete selector combinations by exhaustive scan.

    ``best_combos`` lists all objective minimizers among feasible
    combinations, in lexicographic order; a tie means the instance cannot have
    a unique discrete optimum.
    """

    best_combos: tuple[tuple[int, ...], ...]
    best_objective: float
    feasible_count: int
    evaluated_count: int

    @property
    def unique(self) -> bool:
        return len(self.best_combos) == 1


def _half_sums(parts, rows: int):
    """Images (as columns) and objectives of all choice sequences, lexicographic.

    Choice k of part (cols, weights) adds ``cols[:, k]`` to the image and
    ``weights[k]`` to the objective.
    """
    img = np.zeros((rows, 1))
    obj = np.zeros(1)
    for cols, weights in parts:
        img = (img[:, :, None] + cols[:, None, :]).reshape(rows, -1)
        obj = (obj[:, None] + weights[None, :]).reshape(-1)
    return img, obj


def _scan(parts, y: np.ndarray, thresh: float):
    """Evaluate every choice sequence over ``parts`` once, with no pruning.

    A sequence is feasible when its image lies within ``thresh`` of y.  The
    parts split into a head and a tail half, each enumerated once; every
    (head, tail) pair is then evaluated in head-major order, which is the
    lexicographic order of the whole sequence, in blocks of at most
    ``_PAIR_FLOATS`` floats.  Returns the feasible count, the least feasible
    objective (inf when none is feasible) and the choice digits of every
    feasible sequence within the tie window of it, in lexicographic order.
    """
    rows = y.shape[0]
    half = len(parts) // 2
    head_img, head_obj = _half_sums(parts[:half], rows)
    tail_img, tail_obj = _half_sums(parts[half:], rows)
    tail_img -= y[:, None]
    n_tail = len(tail_obj)
    # a block spans several head rows only when it holds all their tails, so
    # row-major order within and across blocks is lexicographic order
    pairs = max(1, _PAIR_FLOATS // max(rows, 1))
    head_step, tail_step = max(1, pairs // n_tail), min(n_tail, pairs)

    feasible = 0
    best = cut = np.inf
    kept = []  # (flat index, objective) arrays of feasible pairs within the running tie window
    for h0 in range(0, len(head_obj), head_step):
        for t0 in range(0, n_tail, tail_step):
            diff = head_img[:, h0 : h0 + head_step, None] + tail_img[:, None, t0 : t0 + tail_step]
            hi, ti = np.nonzero(np.sqrt(np.einsum("kij,kij->ij", diff, diff)) <= thresh)
            if not hi.size:
                continue
            hi += h0
            ti += t0
            objs = head_obj[hi] + tail_obj[ti]
            feasible += hi.size
            low = float(objs.min())
            if low < best:
                best = low
                cut = best + _TIE_REL * (1.0 + abs(best))
                kept = [(flat[o <= cut], o[o <= cut]) for flat, o in kept]
            sel = objs <= cut
            kept.append((hi[sel] * n_tail + ti[sel], objs[sel]))

    flat = np.concatenate([f for f, _ in kept]) if kept else np.zeros(0, dtype=np.intp)
    digits = np.empty((len(flat), len(parts)), dtype=np.intp)
    for j in range(len(parts) - 1, -1, -1):
        flat, digits[:, j] = np.divmod(flat, parts[j][0].shape[1])
    return feasible, best, digits


def enumerate_selectors(instance: RelaxedInstance, p: float) -> OracleResult:
    """Scan all r**theta discrete selectors of an instance.

    A combination (k_1, ..., k_theta) is feasible when the selected columns
    reproduce y within ``TOL_FEAS * (1 + ||y||)``, the solver's rule; its
    objective is the sum of the selected columns' weights at exponent p.  All
    minimizers within a relative 1e-9 of the best objective are reported, in
    lexicographic order.
    """
    r, theta = instance.r, instance.theta
    total = r**theta
    if total > ENUMERATION_GUARD:
        raise ValueError(f"r**theta = {total} exceeds the enumeration guard {ENUMERATION_GUARD}")
    feas_tol = TOL_FEAS * (1.0 + float(np.linalg.norm(instance.y)))
    w = solver_weights(instance.X, p)
    parts = list(zip(instance.A.blocks @ instance.X.blocks, w.reshape(theta, r)))
    feasible, best_obj, combos = _scan(parts, np.asarray(instance.y, dtype=float), feas_tol)
    return OracleResult(
        best_combos=tuple(map(tuple, combos.tolist())),
        best_objective=best_obj,
        feasible_count=feasible,
        evaluated_count=total,
    )


@dataclass(frozen=True)
class SubsetOracleResult:
    feasible: bool
    min_support: int | None
    witnesses: tuple[tuple[int, ...], ...]


def _subset_blocks(ncols: int, k: int, step: int):
    """Every k-column subset, in ``itertools.combinations`` order, as index arrays of at most ``step`` rows."""
    combos = itertools.combinations(range(ncols), k)
    while True:
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, step)), dtype=np.intp)
        if not block.size:
            return
        yield block.reshape(-1, k)


def l0_min_oracle(A: np.ndarray, y: np.ndarray, max_support: int) -> SubsetOracleResult:
    """Smallest support size admitting an exact solution of A x = y.

    Scans support sizes 0, 1, ... up to ``max_support`` and within each size
    every column subset, declaring a subset feasible when y lies within
    ``TOL_FEAS * (1 + ||y||)`` of the span of its columns.  Subsets of one
    size are gathered as a (subsets, rows, k) stack, in blocks of at most
    ``_PAIR_FLOATS`` floats, and each block takes one batched SVD; singular
    values at or below ``eps * max(rows, k) * sigma_max`` count as zero, the
    cutoff ``lstsq`` applies by default, so rank-deficient subsets are judged
    as a least-squares fit would.  Returns the first (smallest) feasible size
    together with all witness subsets of that size, in lexicographic order.
    """
    if max_support > SUBSET_GUARD:
        raise ValueError(f"max_support {max_support} exceeds the subset guard {SUBSET_GUARD}")
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    rows, ncols = A.shape
    thresh = TOL_FEAS * (1.0 + float(np.linalg.norm(y)))
    if float(np.linalg.norm(y)) <= thresh:
        return SubsetOracleResult(feasible=True, min_support=0, witnesses=((),))
    eps = np.finfo(float).eps
    for k in range(1, min(max_support, ncols) + 1):
        witnesses = []
        for subsets in _subset_blocks(ncols, k, max(1, _PAIR_FLOATS // (rows * k))):
            u, sv, _ = np.linalg.svd(A[:, subsets].transpose(1, 0, 2), full_matrices=False)
            u *= (sv > eps * max(rows, k) * sv[:, :1])[:, None, :]  # drop the directions lstsq drops
            resid = y - np.einsum("bij,bj->bi", u, y @ u)
            witnesses += subsets[np.linalg.norm(resid, axis=1) <= thresh].tolist()
        if witnesses:
            return SubsetOracleResult(feasible=True, min_support=k, witnesses=tuple(map(tuple, witnesses)))
    return SubsetOracleResult(feasible=False, min_support=None, witnesses=())


@dataclass(frozen=True)
class GridOracleResult:
    feasible: bool
    min_objective: float | None
    witnesses: tuple[tuple[float, ...], ...]
    evaluated_count: int


def discrete_lp_oracle(A: np.ndarray, y: np.ndarray, p: float) -> GridOracleResult:
    """Minimize sum |x_i|**p over all x with entries in ``GRID`` and A x = y (full scan).

    Every one of len(GRID)**ncols candidate points is evaluated once;
    feasibility means residual <= TOL_FEAS * (1 + ||y||).  All minimizers
    within a 1e-9 relative tie window are returned.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    ncols = A.shape[1]
    gridv = np.asarray(GRID)
    total = len(gridv) ** ncols
    if total > GRID_GUARD:
        raise ValueError(f"len(grid)**ncols = {total} exceeds the grid guard {GRID_GUARD}")
    thresh = TOL_FEAS * (1.0 + float(np.linalg.norm(y)))

    parts = [(np.outer(A[:, j], gridv), np.abs(gridv) ** p) for j in range(ncols)]
    feasible, best_obj, digits = _scan(parts, y, thresh)
    return GridOracleResult(
        feasible=feasible > 0,
        min_objective=best_obj if feasible else None,
        witnesses=tuple(map(tuple, gridv[digits].tolist())),
        evaluated_count=total,
    )
