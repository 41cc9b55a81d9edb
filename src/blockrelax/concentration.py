"""Monte Carlo checks of the moment and concentration claims.

Each check redraws the random ensemble many times with fixed sensing matrix,
support and planted positions, measures an empirical statistic, and reports it
next to its analytic counterpart or tail bound.  The mean and tail checks of
||A X u||^2 draw a chunk of redraws at a time into one guess tensor and take
all their images in one pass; trial t of a chunk is exactly
``ConcentrationStudy.redraw(seed, t)``.
Statistical comparisons return z-scores or frequencies; nothing here raises on
a statistical fluctuation, that judgement belongs to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ensemble_norm_weights, matrix_constants, spectral_norm
from .generate import (
    GenConfig,
    build_instance,
    sample_guess_columns,
    sample_guess_ensemble,
    sample_planted_vector,
    substream,
)
from .model import BlockSensingMatrix, Selector, SupportPattern, apply_selector, lp_norm

__all__ = [
    "ConcentrationStudy",
    "ImageMoments",
    "empirical_image_moments",
    "TailEstimate",
    "empirical_concentration_tail",
    "WindowEstimate",
    "singular_window_check",
    "vectorization_check",
    "MomentCheck",
    "expected_sq_norm_check",
    "block_norm_bound_check",
    "inner_product_tail_check",
    "dual_norm_quantiles",
    "rademacher_law",
    "ternary_law",
    "gaussian_law",
]

# redraws per guess tensor of ``image_sq_norms``: memory stays bounded in the trial count
_CHUNK = 1024


@dataclass(frozen=True)
class ConcentrationStudy:
    """Frozen context for ensemble redraws: sensing matrix, support, planted slots.

    Built once from a config; per-trial randomness comes from labelled
    substreams of the study seed, so every trial is replayable.  ``redraw``
    and ``image_sq_norm`` replay one trial; ``image_sq_norms`` computes the
    same images for many trials, one chunk of redraws per tensor pass.
    """

    cfg: GenConfig
    A: BlockSensingMatrix
    support: SupportPattern
    planted_cols: tuple[int, ...]

    @classmethod
    def from_config(cls, cfg: GenConfig) -> "ConcentrationStudy":
        base = build_instance(cfg)
        return cls(
            cfg=cfg, A=base.A, support=base.support, planted_cols=base.X.planted_cols
        )

    def redraw(self, seed: int, trial: int):
        """Fresh (x, X) pair from the pure ensemble law (zero columns allowed)."""
        x = sample_planted_vector(self.support, self.cfg, substream(seed, "conc-x", trial))
        X = sample_guess_ensemble(
            x,
            self.support,
            self.cfg,
            substream(seed, "conc-X", trial),
            planted_cols=self.planted_cols,
            reject_zero_columns=False,
        )
        return x, X

    def image_sq_norm(self, X, u) -> float:
        img = self.A.matvec(apply_selector(X, u))
        return float(img @ img)

    def image_sq_norms(self, u: Selector, trials: int, seed: int) -> np.ndarray:
        """||A X u||^2 for the redraws X of trials 0 .. trials-1, as one array.

        Entry t equals ``image_sq_norm(redraw(seed, t)[1], u)`` up to rounding:
        each trial draws from the same substreams in the same order.  Up to
        ``_CHUNK`` trials are written into one (chunk, theta, r, n) guess
        tensor, checked as ``redraw`` checks each ensemble, and imaged at once.
        """
        cfg = self.cfg
        theta, r, n = cfg.theta, cfg.r, cfg.n
        blocks, cols = np.arange(theta), np.array(self.planted_cols)
        z = u.z.reshape(theta, r)
        A = np.hstack(self.A.blocks)
        out = np.empty(trials)
        chunk = min(_CHUNK, trials)
        X_buf, x_buf = np.empty((chunk, theta, r, n)), np.empty((chunk, theta, n))
        for start in range(0, trials, _CHUNK):
            size = min(_CHUNK, trials - start)
            X, x = X_buf[:size], x_buf[:size]
            for i in range(size):
                x[i] = sample_planted_vector(
                    self.support, cfg, substream(seed, "conc-x", start + i)
                ).reshape(theta, n)
                X[i] = sample_guess_columns(
                    cfg, substream(seed, "conc-X", start + i), (theta, r), reject_zero=False
                )
            X[:, blocks, cols] = x
            empty = np.argwhere(~x.any(axis=-1))
            if empty.size:
                raise ValueError(
                    f"block {empty[0, 1]} has empty support, so its planted column would be "
                    "all-zero; increase s or use equidistributed supports"
                )
            if X.min() < -1.0 - 1e-12 or X.max() > 1.0 + 1e-12:
                raise ValueError("guess entries outside [-1, 1]")
            img = np.einsum("clkn,lk->cln", X, z).reshape(size, -1) @ A.T
            out[start : start + size] = np.einsum("cm,cm->c", img, img)
        return out


@dataclass(frozen=True)
class ImageMoments:
    mean: float
    std_error: float
    analytic_sq: float
    trials: int

    @property
    def z_score(self) -> float:
        if self.std_error == 0.0:
            return 0.0 if self.mean == self.analytic_sq else math.inf
        return (self.mean - self.analytic_sq) / self.std_error


def empirical_image_moments(
    study: ConcentrationStudy, u: Selector, trials: int, seed: int
) -> ImageMoments:
    """Monte Carlo mean of ||A X u||^2 against its closed form.

    The closed form is the squared ensemble norm of u; the z-score uses the
    sample standard error, so |z| <= 3 is the expected regime.
    """
    vals = study.image_sq_norms(u, trials, seed)
    wa = ensemble_norm_weights(
        study.A, study.support, study.planted_cols, u.r, study.cfg.p_x, study.cfg.p_X
    )
    analytic = float(np.sum((wa * u.z) ** 2))
    se = float(np.std(vals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return ImageMoments(mean=float(vals.mean()), std_error=se, analytic_sq=analytic, trials=trials)


@dataclass(frozen=True)
class TailEstimate:
    epsilon: float
    trials: int
    exceed_count: int
    frequency: float
    bound: float


def empirical_concentration_tail(
    study: ConcentrationStudy,
    u: Selector,
    epsilon: float,
    trials: int,
    seed: int,
    c: float = 1.0,
    k_subg: float = 1.0,
) -> TailEstimate:
    """Tail frequency of |  ||A X u||^2 - E||A X u||^2  | >= epsilon * F(u)^2.

    F(u)^2 is the unweighted analogue of the ensemble norm (second moments
    replaced by 1).  The reported bound is 2 exp(-c (F_S^2/M^2) min(eps^2/K^4,
    eps/K^2)) for the supplied (c, K); an empirical frequency above it
    falsifies that constant pair, it is not an error of the estimator.
    """
    cfg = study.cfg
    wa = ensemble_norm_weights(
        study.A, study.support, study.planted_cols, u.r, cfg.p_x, cfg.p_X
    )
    analytic = float(np.sum((wa * u.z) ** 2))
    f_weights = ensemble_norm_weights(study.A, study.support, study.planted_cols, u.r, 1.0, 1.0)
    f_sq = float(np.sum((f_weights * u.z) ** 2))

    dev = np.abs(study.image_sq_norms(u, trials, seed) - analytic)
    exceed = int(np.count_nonzero(dev >= epsilon * f_sq))

    consts = matrix_constants(study.A, study.support)
    expo = c * (consts.f_s_sq / consts.m_sq) * min(epsilon**2 / k_subg**4, epsilon / k_subg**2)
    return TailEstimate(
        epsilon=epsilon,
        trials=trials,
        exceed_count=exceed,
        frequency=exceed / trials,
        bound=2.0 * math.exp(-expo),
    )


@dataclass(frozen=True)
class WindowEstimate:
    delta: float
    trials: int
    inside_count: int
    frequency: float
    bound_floor: float


def singular_window_check(
    study: ConcentrationStudy,
    delta: float,
    trials: int,
    seed: int,
    c: float = 1.0,
    k_subg: float = 1.0,
) -> WindowEstimate:
    """Frequency of all singular values of the normalized planted columns in [1-delta, 1+delta].

    Per trial the planted columns of A X are rescaled by the ensemble norm
    weighting and their singular values computed; the reported floor is
    1 - 2 (12/delta)^t exp(-c (F_S^2/M^2) min(p_x^2 delta^2/(4K^4),
    p_x delta/(2K^2))) for the supplied constants.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    cfg = study.cfg
    wa = ensemble_norm_weights(
        study.A, study.support, study.planted_cols, cfg.r, cfg.p_x, cfg.p_X
    )
    planted_global = [l * cfg.r + k for l, k in enumerate(study.planted_cols)]
    if np.any(wa == 0.0):
        raise ValueError("ensemble norm weighting is singular; empty block support?")

    inside = 0
    for t in range(trials):
        x = sample_planted_vector(study.support, cfg, substream(seed, "conc-x", t))
        cols = np.stack(
            [
                study.A.blocks[l] @ x[l * cfg.n : (l + 1) * cfg.n] / wa[g]
                for l, g in enumerate(planted_global)
            ],
            axis=1,
        )
        sig = np.linalg.svd(cols, compute_uv=False)
        if sig.size and sig.min() >= 1.0 - delta and sig.max() <= 1.0 + delta:
            inside += 1

    consts = matrix_constants(study.A, study.support)
    arg = min(cfg.p_x**2 * delta**2 / (4 * k_subg**4), cfg.p_x * delta / (2 * k_subg**2))
    fail = 2.0 * (12.0 / delta) ** cfg.theta * math.exp(-c * (consts.f_s_sq / consts.m_sq) * arg)
    return WindowEstimate(
        delta=delta,
        trials=trials,
        inside_count=inside,
        frequency=inside / trials,
        bound_floor=1.0 - fail,
    )


def vectorization_check(M: np.ndarray, R: np.ndarray, w: np.ndarray) -> float:
    """Max deviation of M R w against (M kron w^T) vec(R); an identity, so ~0.

    vec stacks rows of R.  Callers compare the deviation against
    1e-12 * (1 + ||M||_F ||R||_F ||w||).
    """
    M = np.asarray(M, dtype=float)
    R = np.asarray(R, dtype=float)
    w = np.asarray(w, dtype=float)
    direct = M @ (R @ w)
    kron = np.kron(M, w[None, :]) @ R.reshape(-1)
    return float(np.abs(direct - kron).max(initial=0.0))


def rademacher_law():
    """(draw, variance) for entries uniform on {-1, +1}."""
    return (lambda rng, shape: rng.integers(0, 2, size=shape) * 2.0 - 1.0), 1.0


def ternary_law(nu: float):
    """(draw, variance) for entries 0 w.p. 1-nu, else +-1: variance nu, E|entry| = nu."""
    def draw(rng, shape):
        return (rng.random(shape) < nu) * (rng.integers(0, 2, size=shape) * 2.0 - 1.0)

    return draw, nu


def gaussian_law(sigma: float = 1.0):
    """(draw, variance) for centered normal entries."""
    return (lambda rng, shape: sigma * rng.standard_normal(shape)), sigma**2


@dataclass(frozen=True)
class MomentCheck:
    mean: float
    std_error: float
    analytic: float
    trials: int

    @property
    def z_score(self) -> float:
        if self.std_error == 0.0:
            return 0.0 if self.mean == self.analytic else math.inf
        return (self.mean - self.analytic) / self.std_error


def expected_sq_norm_check(
    M: np.ndarray, w: np.ndarray, entry_law, variance: float, trials: int, seed: int
) -> MomentCheck:
    """Monte Carlo E||M R w||^2 against V ||M||_F^2 ||w||^2 for i.i.d. centered R.

    ``entry_law`` draws R's entries given (rng, shape); ``variance`` is their
    second moment V.
    """
    M = np.asarray(M, dtype=float)
    w = np.asarray(w, dtype=float)
    rng = substream(seed, "sqnorm")
    shape = (M.shape[1], w.size)
    vals = np.empty(trials)
    for t in range(trials):
        Rm = entry_law(rng, shape)
        img = M @ (Rm @ w)
        vals[t] = img @ img
    analytic = variance * float(np.sum(M * M)) * float(w @ w)
    se = float(np.std(vals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MomentCheck(mean=float(vals.mean()), std_error=se, analytic=analytic, trials=trials)


def block_norm_bound_check(blocks) -> tuple[float, float, float]:
    """(||C||^2, sum_l ||C_l||^2, slack) for C the horizontal concatenation.

    The bound says the concatenation's squared spectral norm is at most the
    sum of the blocks'; slack = rhs - lhs should only dip below zero by
    rounding in the singular value decompositions.
    """
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    lhs = spectral_norm(np.hstack(blocks)) ** 2
    rhs = sum(spectral_norm(b) ** 2 for b in blocks)
    return lhs, rhs, rhs - lhs


def inner_product_tail_check(
    v: np.ndarray, nu: float, p: float, trials: int, seed: int
) -> TailEstimate:
    """Tail frequency of <x, v> >= ||x||_p^p for ternary x with E|x_i| = nu.

    The reported bound is 2 exp(-nu^2 d^2 / (d + 2 ||v||^2)) with d = len(v).
    With v = 0 the event degenerates to x = 0 and the frequency approaches
    (1 - nu)^d.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    draw, _ = ternary_law(nu)
    rng = substream(seed, "iptail")
    exceed = 0
    for _ in range(trials):
        x = draw(rng, d)
        if float(x @ v) >= lp_norm(x, p):
            exceed += 1
    bound = 2.0 * math.exp(-(nu**2) * d * d / (d + 2.0 * float(v @ v)))
    return TailEstimate(
        epsilon=math.nan, trials=trials, exceed_count=exceed, frequency=exceed / trials, bound=bound
    )


def dual_norm_quantiles(
    study: ConcentrationStudy,
    p: float,
    alphas,
    trials: int,
    seed: int,
    quantiles=(0.5, 0.9, 0.99),
) -> dict:
    """Empirical distribution of the certificate dual vector's norm.

    Per trial, h solves (columns at the planted positions)^* h = weights *
    signs for the redrawn ensemble; reported are norm quantiles and, for each
    requested alpha, the frequency of ||h|| >= alpha.  Purely descriptive: no
    closed-form tail is claimed for it.
    """
    cfg = study.cfg
    norms = np.empty(trials)
    for t in range(trials):
        x, X = study.redraw(seed, t)
        cols = np.stack(
            [
                study.A.blocks[l] @ X.blocks[l][:, k]
                for l, k in enumerate(study.planted_cols)
            ],
            axis=1,
        )
        wts = np.array(
            [lp_norm(X.blocks[l][:, k], p) for l, k in enumerate(study.planted_cols)]
        )
        h = np.linalg.lstsq(cols.T, wts, rcond=None)[0]
        norms[t] = np.linalg.norm(h)
    return {
        "quantiles": {q: float(np.quantile(norms, q)) for q in quantiles},
        "exceed_frequency": {float(a): float(np.mean(norms >= a)) for a in alphas},
        "trials": trials,
    }
