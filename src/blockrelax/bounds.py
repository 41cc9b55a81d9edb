"""Closed-form quantities: ensemble norms, failure bounds, success probabilities.

These are the analytic counterparts of the Monte Carlo experiments: the
weighted norm whose square is the expected squared image of a selector, the
matrix constants entering the recovery failure bound, the bound itself
(evaluated in log space so tiny probabilities do not underflow midway), and
the small calculus of repeated-trial success probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BlockSensingMatrix, Selector, SupportPattern

__all__ = [
    "spectral_norm",
    "MatrixConstants",
    "matrix_constants",
    "ensemble_norm",
    "ensemble_norm_weights",
    "delta_from_alpha",
    "alpha_from_delta",
    "BoundInputs",
    "FailureBound",
    "recovery_failure_bound",
    "max_trials_bound",
    "success_prob_repeated_trials",
    "success_prob_block_relaxation",
    "complement_power",
    "limit_ratio",
]


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a; 0.0 for an empty array."""
    a = np.asarray(a, dtype=float)
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


@dataclass(frozen=True)
class MatrixConstants:
    """min-block support energy and max-block operator norm of a sensing matrix."""

    f_s_sq: float  # min_l ||A_l restricted to the block support||_F^2
    m_sq: float  # max_l ||A_l||^2 (spectral, squared)

    @property
    def f_s(self) -> float:
        return math.sqrt(self.f_s_sq)

    @property
    def m_norm(self) -> float:
        return math.sqrt(self.m_sq)


def matrix_constants(A: BlockSensingMatrix, support: SupportPattern) -> MatrixConstants:
    """Compute the two matrix constants of the failure bound."""
    if (support.n, support.theta) != (A.n, A.theta):
        raise ValueError("support does not match the sensing matrix")
    f_s_sq = math.inf
    m_sq = 0.0
    for l, b in enumerate(A.blocks):
        cols = support.block(l)
        f_s_sq = min(f_s_sq, float(np.sum(b[:, cols] ** 2)))
        m_sq = max(m_sq, spectral_norm(b) ** 2)
    return MatrixConstants(f_s_sq=f_s_sq, m_sq=m_sq)


def ensemble_norm_weights(
    A: BlockSensingMatrix,
    support: SupportPattern,
    planted_cols,
    r: int,
    p_x: float,
    p_X: float,
) -> np.ndarray:
    """Diagonal of the weighting that turns selector norms into expected image norms.

    Coordinate l*r+k weighs sqrt(p_x)*||A_l on the block support||_F when k is
    the planted column of block l, else sqrt(p_X)*||A_l||_F.
    """
    theta = A.theta
    if len(planted_cols) != theta:
        raise ValueError("one planted column per block required")
    wa = np.empty(r * theta)
    for l, b in enumerate(A.blocks):
        cols = support.block(l)
        planted_w = math.sqrt(p_x) * math.sqrt(float(np.sum(b[:, cols] ** 2)))
        other_w = math.sqrt(p_X) * float(np.linalg.norm(b, "fro"))
        wa[l * r : (l + 1) * r] = other_w
        wa[l * r + int(planted_cols[l])] = planted_w
    return wa


def ensemble_norm(
    u: Selector | np.ndarray,
    A: BlockSensingMatrix,
    support: SupportPattern,
    planted_cols,
    p_x: float,
    p_X: float,
    r: int | None = None,
) -> float:
    """Weighted norm of a selector whose square equals E||A X u||^2.

    The expectation is over the guess ensemble: planted entries with second
    moment p_x on the support, independent non-planted entries with second
    moment p_X.  Splitting u per block into its planted coordinate and the
    rest gives

        sum_l  p_x ||A_l on S_l||_F^2 v_l^2  +  p_X ||A_l||_F^2 ||rest_l||^2.
    """
    if isinstance(u, Selector):
        uv, rr = u.z, u.r
    else:
        uv = np.asarray(u, dtype=float)
        if r is None:
            raise ValueError("pass r when u is a bare vector")
        rr = r
    wa = ensemble_norm_weights(A, support, planted_cols, rr, p_x, p_X)
    if uv.shape != wa.shape:
        raise ValueError("selector length does not match r * theta")
    return float(np.linalg.norm(wa * uv))


def delta_from_alpha(alpha: float, t: int, s_bar: int, f_s: float, p_x: float) -> float:
    """Window half-width delta with 1 - delta = sqrt(t) * s_bar / (alpha * f_s * sqrt(p_x)).

    Values outside [0, 1] mean the requested alpha cannot yield a valid
    window; callers should treat them as out of range rather than clamp
    silently.
    """
    denom = alpha * f_s * math.sqrt(p_x)
    if denom <= 0.0:
        raise ValueError("alpha, f_s and p_x must be positive")
    return 1.0 - math.sqrt(t) * s_bar / denom


def alpha_from_delta(delta: float, t: int, s_bar: int, f_s: float, p_x: float) -> float:
    """Inverse of delta_from_alpha; undefined at delta = 1."""
    if delta >= 1.0:
        raise ValueError("delta must be below 1")
    if f_s <= 0.0 or p_x <= 0.0:
        raise ValueError("f_s and p_x must be positive")
    return math.sqrt(t) * s_bar / ((1.0 - delta) * f_s * math.sqrt(p_x))


@dataclass(frozen=True)
class BoundInputs:
    """Inputs of the recovery failure bound.

    ``c`` and ``k_subg`` are the absolute constant and the sub-gaussian norm
    proxy of the concentration step; the bound is reported for whatever the
    caller supplies, so falsifying a particular (c, K) pair is informative
    rather than an error.
    """

    alpha: float
    delta: float
    nu: float
    p_x: float
    p_X: float
    n: int
    n_cols: int  # total selector length R
    t: int  # number of blocks carrying a planted column, |T|
    constants: MatrixConstants
    c: float = 1.0
    k_subg: float = 1.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if self.c <= 0 or self.k_subg <= 0:
            raise ValueError("c and k_subg must be positive")
        if self.t > self.n_cols:
            raise ValueError("t cannot exceed the number of columns")


@dataclass(frozen=True)
class FailureBound:
    term_coherence: float
    term_rip: float
    total: float
    log_term_coherence: float
    log_term_rip: float


def recovery_failure_bound(inputs: BoundInputs) -> FailureBound:
    """Upper bound on the failure probability of unique planted recovery.

    Two additive terms: a coherence term controlling off-support dual
    correlations and a restricted-isometry term controlling the planted
    columns.  Both exponents are formed in log space; delta = 0 makes the
    second term diverge (reported as inf).
    """
    b = inputs
    m_sq = b.constants.m_sq
    log1 = math.log(2.0 * max(b.n_cols - b.t, 0)) if b.n_cols > b.t else -math.inf
    log1 += -(b.nu**2) * (b.n**2) / (b.n + 2.0 * m_sq * b.alpha**2)

    if b.delta == 0.0:
        log2 = math.inf
    else:
        ratio = b.constants.f_s_sq / m_sq if m_sq > 0 else math.inf
        arg = min(
            (b.p_x**2) * (b.delta**2) / (4.0 * b.k_subg**4),
            b.p_x * b.delta / (2.0 * b.k_subg**2),
        )
        log2 = math.log(2.0) + b.t * math.log(12.0 / b.delta) - b.c * ratio * arg

    term1 = math.exp(log1) if log1 > -math.inf else 0.0
    term2 = math.exp(log2) if log2 < math.inf else math.inf
    return FailureBound(
        term_coherence=term1,
        term_rip=term2,
        total=term1 + term2,
        log_term_coherence=log1,
        log_term_rip=log2,
    )


def max_trials_bound(s: int, n: int, theta: int) -> float:
    """Trial budget under which repeated relaxation stays worthwhile.

    min of (1/theta) e^{s/theta} and (1/theta) e^{s^2/n}, with unit constants.
    """
    if min(s, n, theta) <= 0:
        raise ValueError("s, n, theta must be positive")
    expo = min(s / theta, s * s / n)
    try:
        return math.exp(expo) / theta
    except OverflowError:
        return math.inf


def success_prob_repeated_trials(p: float, r: int) -> float:
    """1 - (1 - p)**r, stable for tiny p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if p == 1.0:
        return 1.0 if r > 0 else 0.0
    return -math.expm1(r * math.log1p(-p))


def success_prob_block_relaxation(
    p_l, r: int, theta: int, p_select: float = 1.0, taylor: bool = False
) -> float:
    """Success probability of one relaxation round over theta blocks.

    Exact form: p_select * prod_l (1 - (1 - p_l)**r).  With ``taylor`` the
    small-p_l approximation p_select * prod_l (p_l * r) is returned instead.
    ``p_l`` may be a scalar or one value per block.
    """
    pl = np.atleast_1d(np.asarray(p_l, dtype=float))
    if pl.size == 1:
        pl = np.full(theta, pl[0])
    if pl.size != theta:
        raise ValueError("p_l must be scalar or give one probability per block")
    if np.any((pl < 0) | (pl > 1)) or not 0.0 <= p_select <= 1.0:
        raise ValueError("probabilities must lie in [0, 1]")
    if taylor:
        return float(p_select * np.prod(pl * r))
    per_block = [success_prob_repeated_trials(float(q), r) for q in pl]
    return float(p_select * np.prod(per_block))


def complement_power(p: float, q: float) -> float:
    """(1 - p)**(1/q), evaluated in log space.

    This is the probability that 1/q independent trials all miss an event of
    probability p; it tends to 1 when p/q -> 0 and to 0 when p/q -> inf.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    if q <= 0.0:
        raise ValueError("q must be positive")
    return math.exp(math.log1p(-p) / q)


def limit_ratio(p: float, q: float) -> float:
    """(1 - (1-p)**(1/q)) / (p/q), the ratio that tends to 1 as p, q -> 0 together.

    Evaluated through expm1/log1p so it stays accurate when p and q underflow
    ordinary subtraction.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if q <= 0.0:
        raise ValueError("q must be positive")
    numer = -math.expm1(math.log1p(-p) / q)
    return numer / (p / q)
