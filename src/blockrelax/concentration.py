"""Monte Carlo checks of the moment and concentration claims.

Each check redraws the random ensemble many times with fixed sensing matrix,
support and planted positions, measures an empirical statistic, and reports it
next to its analytic counterpart or tail bound: the mean, the tail and the
singular window of ||A X u||^2.  Two exact identities, the vectorization of
M R w and the block norm bound, are checked beside them.  Redraw t takes
all its draws from one generator,
``instance_generator(derive_seed(seed, 'conc', t))``: first the planted
values, then the guess tensor.  One chunk pass, ``ConcentrationStudy._draw``,
makes every redraw: each redraw's generator draws its planted-value indices,
then ``generate.draw_guesses``, the package's one guess draw, fills the
chunk's guess tensor from the generators in turn and runs the guess law once
over it.  The mean, tail and window checks walk ``_CHUNK`` redraws at a time
(``ConcentrationStudy._chunks``): the mean and tail checks image a chunk in
one pass, the window check takes one batched SVD of its planted columns, and
``ConcentrationStudy.redraw(seed, t)`` is the chunk of trial t alone.
Statistical comparisons return z-scores or frequencies; nothing here raises on
a statistical fluctuation, that judgement belongs to the caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import ensemble_norm_weights, matrix_constants, spectral_norm
from .generate import GenConfig, _empty_block_error, build_instance, derive_seed, draw_guesses, instance_generator
from .model import BlockSensingMatrix, GuessEnsemble, Selector, SupportPattern, apply_selector

__all__ = [
    "ConcentrationStudy",
    "ImageMoments",
    "empirical_image_moments",
    "TailEstimate",
    "empirical_concentration_tail",
    "WindowEstimate",
    "singular_window_check",
    "vectorization_check",
    "block_norm_bound_check",
]

# redraws per chunk of ``ConcentrationStudy._chunks``: memory stays bounded in the trial count
_CHUNK = 1024


@dataclass(frozen=True)
class ConcentrationStudy:
    """Frozen context for ensemble redraws: sensing matrix, support, planted slots.

    Built once from a config; trial t draws from its own generator, keyed
    by (seed, 'conc', t), so every trial is replayable.  ``redraw``
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

    @functools.cached_property
    def _alphabet(self) -> np.ndarray:
        return np.asarray(self.cfg.planted_alphabet)

    @functools.cached_property
    def _support_indices(self) -> np.ndarray:
        return np.array(self.support.indices, dtype=int)

    def _draw(self, seed: int, start: int, X: np.ndarray, x: np.ndarray) -> None:
        """Fill X (size, theta, r, n) and x (size, theta, n) with trials start .. start+size-1.

        One ``generate.draw_guesses`` pass per chunk: trial t's generator
        draws its planted-value indices as it is yielded, so one generator is
        alive at a time, then its guess tensor into X[i] (zero columns
        allowed).  x is planted at ``planted_cols``: X[i, l, k] is column k of
        block l.
        """
        cfg, size = self.cfg, len(X)
        idx = np.empty((size, len(self._support_indices)), dtype=int)

        def generators():
            for t, row in enumerate(idx, start):
                rng = instance_generator(derive_seed(seed, "conc", t))
                row[:] = rng.integers(0, len(self._alphabet), size=len(row))
                yield rng

        draw_guesses(cfg, generators(), X)
        x[...] = 0.0
        x.reshape(size, -1)[:, self._support_indices] = self._alphabet[idx]
        empty = np.argwhere(~x.any(axis=-1))
        if empty.size:
            raise _empty_block_error(empty[0, 1])
        X[:, np.arange(cfg.theta), np.array(self.planted_cols)] = x

    def _chunks(self, seed: int, trials: int):
        """(start, X, x) of each chunk of up to ``_CHUNK`` of trials 0 .. trials-1, drawn into reused buffers."""
        cfg, chunk = self.cfg, min(_CHUNK, trials)
        X_buf, x_buf = np.empty((chunk, cfg.theta, cfg.r, cfg.n)), np.empty((chunk, cfg.theta, cfg.n))
        for start in range(0, trials, _CHUNK):
            size = min(_CHUNK, trials - start)
            X, x = X_buf[:size], x_buf[:size]
            self._draw(seed, start, X, x)
            yield start, X, x

    def redraw(self, seed: int, trial: int):
        """Fresh (x, X) pair from the pure ensemble law (zero columns allowed)."""
        cfg = self.cfg
        X, x = np.empty((1, cfg.theta, cfg.r, cfg.n)), np.empty((1, cfg.theta, cfg.n))
        self._draw(seed, trial, X, x)
        return x.reshape(-1), GuessEnsemble(blocks=X[0].transpose(0, 2, 1), planted_cols=self.planted_cols)

    def image_sq_norm(self, X, u) -> float:
        img = self.A.matvec(apply_selector(X, u))
        return float(img @ img)

    def image_sq_norms(self, u: Selector, trials: int, seed: int) -> np.ndarray:
        """||A X u||^2 for the redraws X of trials 0 .. trials-1, as one array.

        Entry t equals ``image_sq_norm(redraw(seed, t)[1], u)`` up to rounding:
        both draw through ``_draw``.  Each chunk of ``_chunks`` is imaged at
        once.
        """
        z = u.z.reshape(self.cfg.theta, self.cfg.r)
        A = self.A.full()
        out = np.empty(trials)
        for start, X, _ in self._chunks(seed, trials):
            img = np.einsum("clkn,lk->cln", X, z).reshape(len(X), -1) @ A.T
            out[start : start + len(X)] = np.einsum("cm,cm->c", img, img)
        return out


def _sq_norm(study: ConcentrationStudy, u: Selector, p_x: float, p_X: float) -> float:
    """sum (w u)^2 for the ensemble norm weights w of entry second moments (p_x, p_X)."""
    w = ensemble_norm_weights(study.A, study.support, study.planted_cols, u.r, p_x, p_X)
    return float(np.sum((w * u.z) ** 2))


def _rip_term(study: ConcentrationStudy, a: float, cover: float = 1.0) -> float:
    """2 * cover * exp(-(F_S^2/M^2) a): the restricted-isometry failure term with c = K = 1.

    ``cover`` is the size of the net a union bound runs over; the tail bound
    takes one point, the window floor a (12/delta)^theta net.
    """
    consts = matrix_constants(study.A, study.support)
    return 2.0 * cover * math.exp(-(consts.f_s_sq / consts.m_sq) * a)


@dataclass(frozen=True)
class ImageMoments:
    mean: float
    std_error: float
    analytic_sq: float
    trials: int

    @property
    def z_score(self) -> float:
        """(mean - analytic_sq) / std_error; 0 within rounding of the closed form, where std_error may be too."""
        if abs(self.mean - self.analytic_sq) <= 1e-12 * (1.0 + abs(self.analytic_sq)):
            return 0.0
        if self.std_error == 0.0:
            return math.inf
        return (self.mean - self.analytic_sq) / self.std_error


def empirical_image_moments(
    study: ConcentrationStudy, u: Selector, trials: int, seed: int
) -> ImageMoments:
    """Monte Carlo mean of ||A X u||^2 against its closed form.

    The closed form is the squared ensemble norm of u; the z-score uses the
    sample standard error, so |z| <= 3 is the expected regime; fewer than 2
    trials give no standard error and raise ValueError.
    """
    if trials < 2:
        raise ValueError(f"the mean check needs at least 2 trials for a standard error, got {trials}")
    vals = study.image_sq_norms(u, trials, seed)
    analytic = _sq_norm(study, u, study.cfg.p_x, study.cfg.p_X)
    se = float(np.std(vals, ddof=1) / math.sqrt(trials))
    return ImageMoments(mean=float(vals.mean()), std_error=se, analytic_sq=analytic, trials=trials)


@dataclass(frozen=True)
class TailEstimate:
    epsilon: float
    trials: int
    exceed_count: int
    frequency: float
    bound: float


def empirical_concentration_tail(
    study: ConcentrationStudy, u: Selector, epsilon: float, trials: int, seed: int
) -> TailEstimate:
    """Tail frequency of |  ||A X u||^2 - E||A X u||^2  | >= epsilon * F(u)^2.

    F(u)^2 is the unweighted analogue of the ensemble norm (second moments
    replaced by 1).  The reported bound is 2 exp(-(F_S^2/M^2) min(eps^2, eps)),
    the paper's bound with its absolute constant c and sub-gaussian norm K both
    set to 1; an empirical frequency above it falsifies that constant pair, it
    is not an error of the estimator.  Fewer than 1 trial raises ValueError.
    """
    if trials < 1:
        raise ValueError(f"the tail check needs at least 1 trial, got {trials}")
    analytic = _sq_norm(study, u, study.cfg.p_x, study.cfg.p_X)
    f_sq = _sq_norm(study, u, 1.0, 1.0)

    dev = np.abs(study.image_sq_norms(u, trials, seed) - analytic)
    exceed = int(np.count_nonzero(dev >= epsilon * f_sq))

    return TailEstimate(
        epsilon=epsilon,
        trials=trials,
        exceed_count=exceed,
        frequency=exceed / trials,
        bound=_rip_term(study, min(epsilon**2, epsilon)),
    )


@dataclass(frozen=True)
class WindowEstimate:
    delta: float
    trials: int
    inside_count: int
    frequency: float
    bound_floor: float


def singular_window_check(
    study: ConcentrationStudy, delta: float, trials: int, seed: int
) -> WindowEstimate:
    """Frequency of all singular values of the normalized planted columns in [1-delta, 1+delta].

    Per trial the planted columns of A X are rescaled by the ensemble norm
    weighting and their singular values computed; the reported floor is
    1 - 2 (12/delta)^t exp(-(F_S^2/M^2) min(p_x^2 delta^2/4, p_x delta/2)),
    with c = K = 1 as in ``empirical_concentration_tail``.  Fewer than 1 trial
    raises ValueError.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if trials < 1:
        raise ValueError(f"the window check needs at least 1 trial, got {trials}")
    cfg = study.cfg
    wa = ensemble_norm_weights(
        study.A, study.support, study.planted_cols, cfg.r, cfg.p_x, cfg.p_X
    )
    planted_global = [l * cfg.r + k for l, k in enumerate(study.planted_cols)]
    if np.any(wa == 0.0):
        raise ValueError("ensemble norm weighting is singular; empty block support?")

    scale = wa[planted_global][:, None]
    inside = 0
    # theta columns in R^m with m < theta have theta - m zero singular values,
    # which svd leaves out, so no trial lies inside
    for _, _, x in study._chunks(seed, trials) if cfg.m >= cfg.theta else ():
        cols = np.matmul(study.A.blocks, x[..., None])[..., 0] / scale  # (chunk, theta, m)
        sig = np.linalg.svd(cols.transpose(0, 2, 1), compute_uv=False)
        inside += int(np.count_nonzero((sig.min(axis=1) >= 1.0 - delta) & (sig.max(axis=1) <= 1.0 + delta)))

    arg = min(cfg.p_x**2 * delta**2 / 4, cfg.p_x * delta / 2)
    fail = _rip_term(study, arg, cover=(12.0 / delta) ** cfg.theta)
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
