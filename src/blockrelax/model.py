"""Core data model: block sensing matrices, guess ensembles, and selectors.

A problem instance couples a sensing matrix split into ``theta`` blocks of
``n`` columns with a guess ensemble of ``theta`` candidate matrices, one per
block.  Exactly one column per block (the planted one) reproduces the hidden
block of the sparse vector; selecting it across all blocks reconstructs the
whole signal.  Everything downstream (solver, oracle, bounds) works on these
types.

Blocks are stored as one C-contiguous float64 stack indexed by block first:
sensing as (theta, m, n), guesses as (theta, n, r); ``blocks[l]`` is block l.
Every container checks its invariants on construction, whoever builds it:
``generate`` makes each drawn instance through these same constructors.

Indices are 0-based everywhere in memory; file formats and CLI output use
1-based labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # generate imports this module
    from .generate import GenConfig

__all__ = [
    "BlockSensingMatrix",
    "SupportPattern",
    "GuessEnsemble",
    "Selector",
    "RelaxedInstance",
    "lp_norm",
    "matvec_stack",
    "effective_matrix",
    "effective_stack",
    "solver_weights",
    "weight_stack",
    "apply_selector",
]


def _as_stack(blocks, shape: str) -> np.ndarray:
    """``blocks`` as one C-contiguous float64 stack of ``shape`` blocks, copied only when not one already."""
    try:
        a = np.asarray(blocks, dtype=float, order="C")
    except ValueError:  # ragged: the blocks do not stack
        raise ValueError(f"all blocks must share one {shape} shape") from None
    if a.ndim != 3 or not len(a):
        raise ValueError(f"need a non-empty stack of {shape} blocks, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class BlockSensingMatrix:
    """Sensing matrix stored as one (theta, m, n) stack of blocks.

    The full matrix is the horizontal concatenation of the blocks and acts on
    vectors of length ``n * theta``.
    """

    blocks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", _as_stack(self.blocks, "(m, n)"))

    @property
    def m(self) -> int:
        return self.blocks.shape[1]

    @property
    def n(self) -> int:
        return self.blocks.shape[2]

    @property
    def theta(self) -> int:
        return len(self.blocks)

    @property
    def ncols(self) -> int:
        """Total columns of the concatenated matrix, n * theta."""
        return self.n * self.theta

    def full(self) -> np.ndarray:
        """Dense (m, n*theta) concatenation of the blocks."""
        return np.hstack(self.blocks)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the concatenated matrix without forming it."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ncols,):
            raise ValueError(f"expected vector of length {self.ncols}")
        return matvec_stack(self.blocks, x)


@dataclass(frozen=True)
class SupportPattern:
    """Support of the hidden vector, global and per block.

    ``indices`` are sorted 0-based positions into the length ``n * theta``
    vector; ``block(l)`` gives the positions local to block ``l``.
    """

    indices: tuple[int, ...]
    n: int
    theta: int

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(set(idx)) != len(idx):
            raise ValueError("support indices must be distinct")
        if idx and (idx[0] < 0 or idx[-1] >= self.n * self.theta):
            raise ValueError("support index out of range")
        object.__setattr__(self, "indices", idx)

    def block(self, l: int) -> np.ndarray:
        """Sorted 0-based positions of the support inside block ``l``."""
        lo, hi = l * self.n, (l + 1) * self.n
        return np.array([i - lo for i in self.indices if lo <= i < hi], dtype=int)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class GuessEnsemble:
    """Candidate matrices stored as one (theta, n, r) stack, one block per sensing block.

    ``blocks[l][:, k]`` is guess column k of block l, and ``planted_cols[l]``
    is the column of block ``l`` that holds the hidden block verbatim.
    Columns live in [-1, 1].  All-zero columns are legal in the bare
    container (the concentration studies draw from laws that can produce
    them) but are rejected when an instance is assembled, because a zero
    column gets zero weight in every objective.
    """

    blocks: np.ndarray
    planted_cols: tuple[int, ...]

    def __post_init__(self):
        blocks = _as_stack(self.blocks, "(n, r)")
        theta, _, r = blocks.shape
        cols = tuple(int(k) for k in self.planted_cols)
        if len(cols) != theta:
            raise ValueError("one planted column index per block required")
        if min(cols) < 0 or max(cols) >= r:
            raise ValueError("planted column index out of range")
        # written so that a NaN entry fails it too
        bad = np.flatnonzero(~(np.abs(blocks).max(axis=(1, 2), initial=0.0) <= 1.0 + 1e-12))
        if bad.size:
            raise ValueError(f"guess block {bad[0]} has entries outside [-1, 1]")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "planted_cols", cols)

    def zero_columns(self) -> list[tuple[int, int]]:
        """(block, column) pairs of all-zero columns, empty when none."""
        return [(int(l), int(k)) for l, k in np.argwhere(~self.blocks.any(axis=1))]

    @property
    def n(self) -> int:
        return self.blocks.shape[1]

    @property
    def r(self) -> int:
        return self.blocks.shape[2]

    @property
    def theta(self) -> int:
        return len(self.blocks)

    @property
    def ncols(self) -> int:
        """Total selector length, r * theta."""
        return self.r * self.theta

    def planted_global_cols(self) -> np.ndarray:
        """Global (0-based) selector indices of the planted columns."""
        return np.array([l * self.r + k for l, k in enumerate(self.planted_cols)], dtype=int)

    def dense(self) -> np.ndarray:
        """Block-diagonal (n*theta, r*theta) matrix."""
        n, r = self.n, self.r
        out = np.zeros((n * self.theta, r * self.theta))
        for l, b in enumerate(self.blocks):
            out[l * n : (l + 1) * n, l * r : (l + 1) * r] = b
        return out


@dataclass(frozen=True)
class Selector:
    """Relaxed selector vector: one length-r coefficient slice per block."""

    z: np.ndarray
    r: int
    theta: int

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if z.shape != (self.r * self.theta,):
            raise ValueError(f"selector must have length r*theta = {self.r * self.theta}")
        object.__setattr__(self, "z", z)

    @classmethod
    def discrete(cls, planted_cols, r: int, theta: int) -> "Selector":
        """Hard selector: entry 1 at the given column of each block, else 0."""
        if len(planted_cols) != theta:
            raise ValueError("one column per block required")
        z = np.zeros(r * theta)
        for l, k in enumerate(planted_cols):
            if not 0 <= k < r:
                raise ValueError("column index out of range")
            z[l * r + k] = 1.0
        return cls(z=z, r=r, theta=theta)

    def block(self, l: int) -> np.ndarray:
        return self.z[l * self.r : (l + 1) * self.r]


@dataclass(frozen=True)
class RelaxedInstance:
    """A planted problem: sensing matrix, ensemble, hidden vector, observations.

    Invariants checked on construction: ``y = A x``, ``x`` vanishes off the
    support, and each planted column stores its hidden block verbatim.
    ``config`` is the generation config the instance was drawn from, None
    for an instance built by hand.
    """

    A: BlockSensingMatrix
    X: GuessEnsemble
    x: np.ndarray
    support: SupportPattern
    y: np.ndarray
    config: GenConfig | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        A, X, S = self.A, self.X, self.support
        if A.n != X.n or A.theta != X.theta:
            raise ValueError("sensing matrix and ensemble disagree on (n, theta)")
        if (S.n, S.theta) != (A.n, A.theta):
            raise ValueError("support pattern does not match (n, theta)")
        if x.shape != (A.ncols,):
            raise ValueError("hidden vector has wrong length")
        if y.shape != (A.m,):
            raise ValueError("observation vector has wrong length")
        off = np.ones(A.ncols, dtype=bool)
        off[list(S.indices)] = False
        if x[off].any():
            raise ValueError("hidden vector has mass off the declared support")
        if not X.blocks.any(axis=1).all():
            raise ValueError(f"ensemble has all-zero columns {X.zero_columns()}; every column needs weight")
        scale = 1.0 + np.abs(y).max(initial=0.0)
        if not np.abs(A.matvec(x) - y).max(initial=0.0) <= 1e-10 * scale:  # NaN fails it too
            raise ValueError("y does not equal A x")
        planted = X.blocks[np.arange(X.theta), :, X.planted_cols]  # (theta, n)
        bad = np.flatnonzero((planted != x.reshape(A.theta, A.n)).any(axis=1))
        if bad.size:
            raise ValueError(f"planted column of block {bad[0]} does not store the hidden block")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.A.m

    @property
    def n(self) -> int:
        return self.A.n

    @property
    def theta(self) -> int:
        return self.A.theta

    @property
    def r(self) -> int:
        return self.X.r


def _check_exponent(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")


def lp_norm(v: np.ndarray, p: float) -> float:
    """Sum of |v_i|**p for 0 < p <= 1 (the nonconvex sparsity surrogate)."""
    _check_exponent(p)
    v = np.asarray(v, dtype=float)
    return float(np.sum(np.abs(v) ** p))


def matvec_stack(A_blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Products (..., m) of (..., theta, m, n) sensing stacks with (..., n*theta) vectors.

    The blocks' products are summed in block order: this order fixes the
    bits of every stored y, and one product with the concatenated matrix
    moves the last bit in most random shapes.
    """
    theta, m, n = A_blocks.shape[-3:]
    parts = A_blocks @ x.reshape(*x.shape[:-1], theta, n, 1)
    out = np.zeros((*parts.shape[:-3], m))
    for l in range(theta):
        out += parts[..., l, :, 0]
    return out


def effective_matrix(A: BlockSensingMatrix, X: GuessEnsemble) -> np.ndarray:
    """Dense (m, r*theta) matrix whose column l*r+k is A_block_l @ X_block_l[:, k].

    This is the constraint matrix of the relaxed selection program: feasible
    selectors satisfy ``effective_matrix(A, X) @ z = y``.
    """
    if A.n != X.n or A.theta != X.theta:
        raise ValueError("sensing matrix and ensemble disagree on (n, theta)")
    return effective_stack(A.blocks, X.blocks)


def effective_stack(A_blocks: np.ndarray, X_blocks: np.ndarray) -> np.ndarray:
    """Effective matrices (..., m, r*theta) of (..., theta, m, n) sensing and (..., theta, n, r) guess stacks.

    One stacked product gives every block of every instance the bits it gets
    alone, so a chunk of instances shares one call with ``effective_matrix``.
    """
    prod = A_blocks @ X_blocks  # (..., theta, m, r)
    return np.swapaxes(prod, -3, -2).reshape(*prod.shape[:-3], prod.shape[-2], -1)


def solver_weights(X: GuessEnsemble, p: float) -> np.ndarray:
    """Per-column objective weights: w_k = sum_i |X_col_k[i]|**p, for 0 < p <= 1.

    Raises if any weight collapses below 1e-12 while the column itself is
    nonzero, since a zero-weight column makes the weighted objective blind to
    it.  (All-zero columns are rejected by RelaxedInstance; a bare GuessEnsemble
    allows them.)
    """
    _check_exponent(p)
    w = weight_stack(X.blocks, p)
    col_norms = np.linalg.norm(X.blocks, axis=1).reshape(-1)
    bad = np.flatnonzero((w < 1e-12) & (col_norms > 1e-12))
    if bad.size:
        raise ValueError(f"columns {bad.tolist()} have vanishing weight but nonzero norm")
    return w


def weight_stack(X_blocks: np.ndarray, p: float) -> np.ndarray:
    """Weights (..., r*theta) of (..., theta, n, r) guess stacks: each column's sum of |entry|**p."""
    w = np.sum(np.abs(X_blocks) ** p, axis=-2)
    return w.reshape(*w.shape[:-2], -1)


def apply_selector(X: GuessEnsemble, z: Selector | np.ndarray) -> np.ndarray:
    """Reconstruction X z, block by block.

    When a block slice of ``z`` is a plain coordinate vector the stored column
    is copied rather than recomputed, so a discrete selector at the planted
    columns returns the hidden vector bit for bit.
    """
    zv = z.z if isinstance(z, Selector) else np.asarray(z, dtype=float)
    if zv.shape != (X.ncols,):
        raise ValueError(f"selector must have length {X.ncols}")
    n, r = X.n, X.r
    out = np.empty(n * X.theta)
    for l, b in enumerate(X.blocks):
        zl = zv[l * r : (l + 1) * r]
        nz = np.flatnonzero(zl)
        if nz.size == 1 and zl[nz[0]] == 1.0:
            out[l * n : (l + 1) * n] = b[:, nz[0]]
        else:
            out[l * n : (l + 1) * n] = b @ zl
    return out
