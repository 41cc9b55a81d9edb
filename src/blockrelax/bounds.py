"""Closed-form quantities: ensemble norm weights, matrix constants, success probabilities.

These are the analytic counterparts of the Monte Carlo experiments: the
weights under which a selector's squared norm is its expected squared image,
the two matrix constants of the concentration checks' tail bound and window
floor, and the small calculus of repeated-trial success probabilities that
the relaxation-versus-guessing comparison holds its rates against, where one
match probability p_l serves every block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BlockSensingMatrix, SupportPattern

__all__ = [
    "spectral_norm",
    "MatrixConstants",
    "matrix_constants",
    "ensemble_norm_weights",
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


def matrix_constants(A: BlockSensingMatrix, support: SupportPattern) -> MatrixConstants:
    """Compute the two matrix constants of the concentration bounds."""
    if (support.n, support.theta) != (A.n, A.theta):
        raise ValueError("support does not match the sensing matrix")
    f_s_sq = min(float(np.sum(b[:, support.block(l)] ** 2)) for l, b in enumerate(A.blocks))
    m_sq = float(np.linalg.norm(A.blocks, 2, axis=(1, 2)).max()) ** 2
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
    p_l: float, r: int, theta: int, p_select: float = 1.0, taylor: bool = False
) -> float:
    """Success probability of one relaxation round over theta blocks.

    Exact form: p_select * (1 - (1 - p_l)**r)**theta, a product over the
    blocks.  With ``taylor`` the small-p_l approximation
    p_select * (p_l * r)**theta is returned instead.  ``p_l`` is one
    probability, the same in every block.
    """
    p_l = float(p_l)  # a list or an array of several raises TypeError
    if not (0.0 <= p_l <= 1.0 and 0.0 <= p_select <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    per_block = p_l * r if taylor else success_prob_repeated_trials(p_l, r)
    return float(p_select * np.prod(np.full(theta, per_block)))


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
