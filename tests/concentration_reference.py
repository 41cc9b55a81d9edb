"""The concentration redraws one trial at a time.

This is the loop that ``blockrelax.concentration.ConcentrationStudy._draw``
replaced with one pass per chunk: each trial's generator makes its draws in
the same order (planted-value indices, guess uniforms, guess-value indices)
and the guess law is applied to that trial's tensor alone, through
temporaries.  Both must give the same bits on every trial.  Meant for
differential tests only.
"""

import numpy as np

from blockrelax.generate import derive_seed, instance_generator


def planted(study, seed: int, trial: int):
    """Trial ``trial``'s hidden vector x, drawn first from its generator, and that generator."""
    cfg = study.cfg
    rng = instance_generator(derive_seed(seed, "conc", trial))
    alph, idx = np.asarray(cfg.planted_alphabet), np.array(study.support.indices, dtype=int)
    x = np.zeros(cfg.n * cfg.theta)
    x[idx] = alph[rng.integers(0, len(alph), size=len(idx))]
    return x, rng


def guess_tensor(cfg, rng) -> np.ndarray:
    """One (theta, r, n) tensor of unconditioned guess entries: a mask draw, a value draw, their product."""
    size = (cfg.theta, cfg.r, cfg.n)
    mask = rng.random(size) < cfg.guess_density
    if cfg.guess_law == "ternary":
        vals = rng.integers(0, 2, size=size) * 2.0 - 1.0
    else:
        alph = np.asarray(cfg.planted_alphabet)
        vals = alph[rng.integers(0, len(alph), size=size)]
    return mask * vals


def draw(study, seed: int, start: int, size: int):
    """(X, x) of trials start .. start+size-1, shaped (size, theta, r, n) and (size, theta, n)."""
    cfg = study.cfg
    X, x = np.empty((size, cfg.theta, cfg.r, cfg.n)), np.empty((size, cfg.theta, cfg.n))
    for i in range(size):
        xi, rng = planted(study, seed, start + i)
        x[i] = xi.reshape(cfg.theta, cfg.n)
        X[i] = guess_tensor(cfg, rng)
    X[:, np.arange(cfg.theta), np.array(study.planted_cols)] = x
    empty = np.argwhere(~x.any(axis=-1))
    if empty.size:
        raise ValueError(
            f"block {empty[0, 1]} has empty support, so its planted column would be "
            "all-zero; increase s or use equidistributed supports"
        )
    return X, x


def image_sq_norms(study, u, trials: int, seed: int, chunk: int) -> np.ndarray:
    """||A X u||^2 of trials 0 .. trials-1, imaged ``chunk`` redraws at a time."""
    cfg = study.cfg
    z, A = u.z.reshape(cfg.theta, cfg.r), study.A.full()
    out = np.empty(trials)
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        X, _ = draw(study, seed, start, size)
        img = np.einsum("clkn,lk->cln", X, z).reshape(size, -1) @ A.T
        out[start : start + size] = np.einsum("cm,cm->c", img, img)
    return out
