"""Random planted instances: supports, hidden vectors, ensembles, sensing matrices.

Randomness is counter-based and splittable: every consumer derives an
independent Philox stream from (master_seed, label, index), so adding draws to
one sampler never shifts another, and any single trial of a sweep can be
replayed from its coordinates alone.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    BlockSensingMatrix,
    GuessEnsemble,
    RelaxedInstance,
    SupportPattern,
)

__all__ = [
    "GenConfig",
    "substream",
    "derive_seed",
    "sample_support",
    "sample_planted_vector",
    "sample_guess_columns",
    "sample_guess_ensemble",
    "sample_sensing_matrix",
    "build_instance",
    "SENSING_KINDS",
    "SUPPORT_MODES",
    "GUESS_LAWS",
    "SCHEMA_COMMENT",
]

SENSING_KINDS = ("orthonormal-blocks", "repeated-unitary", "gaussian")
SUPPORT_MODES = ("equidistributed", "uniform")
GUESS_LAWS = ("ternary", "alphabet")

# first line of the sweep, compare and concentration outputs.  Stream 3 draws
# all guess columns of an ensemble as one tensor and redraws only its all-zero
# columns, and stacks the sensing blocks into one Gaussian draw.
SCHEMA_COMMENT = "# schema=3"

_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=None)  # the labels are a small fixed set
def _label_key(label: str) -> int:
    # stable across runs and platforms, unlike hash()
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")


def _seed_sequence(master_seed: int, label: str, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=(int(master_seed) & _MASK64, _label_key(label), int(index) & _MASK64)
    )


def substream(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, label, index)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(master_seed, label, index)))


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Collapse (seed, label, index) to a fresh 64-bit seed for nested use."""
    return int(_seed_sequence(master_seed, label, index).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class GenConfig:
    """Parameters of the planted ensemble.

    ``guess_density`` is the probability nu that a non-planted guess entry is
    nonzero.  ``guess_law`` picks the nonzero value: 'ternary' draws +-1 (so
    the entry second moment p_X equals nu), 'alphabet' draws uniformly from
    ``planted_alphabet`` (making a random column able to match a hidden block,
    which the comparison experiments need).
    """

    m: int
    n: int
    theta: int
    r: int
    s: int
    sensing_kind: str = "orthonormal-blocks"
    planted_alphabet: tuple[float, ...] = (-1.0, -0.5, 0.5, 1.0)
    guess_density: float = 0.25
    support_mode: str = "equidistributed"
    guess_law: str = "ternary"
    master_seed: int = 0

    def __post_init__(self):
        if min(self.m, self.n, self.theta, self.r) < 1:
            raise ValueError("m, n, theta, r must be positive")
        if not 0 < self.s <= self.n:
            raise ValueError(f"need 0 < s <= n, got s={self.s}, n={self.n}")
        if self.sensing_kind not in SENSING_KINDS:
            raise ValueError(f"unknown sensing_kind {self.sensing_kind!r}")
        if self.support_mode not in SUPPORT_MODES:
            raise ValueError(f"unknown support_mode {self.support_mode!r}")
        if self.guess_law not in GUESS_LAWS:
            raise ValueError(f"unknown guess_law {self.guess_law!r}")
        if not 0.0 < self.guess_density <= 1.0:
            raise ValueError("guess_density must lie in (0, 1]")
        alph = tuple(float(a) for a in self.planted_alphabet)
        if not alph:
            raise ValueError("alphabet must be nonempty")
        if any(a == 0.0 or abs(a) > 1.0 for a in alph):
            raise ValueError("alphabet values must be nonzero and lie in [-1, 1]")
        if sorted(alph) != sorted(-a for a in alph):
            raise ValueError("alphabet must be symmetric about zero")
        if self.sensing_kind in ("orthonormal-blocks", "repeated-unitary") and self.m < self.n:
            raise ValueError(f"{self.sensing_kind} needs m >= n")
        object.__setattr__(self, "planted_alphabet", alph)

    @property
    def nu(self) -> float:
        return self.guess_density

    @property
    def p_x(self) -> float:
        """Second moment of a planted entry on the support."""
        a = np.asarray(self.planted_alphabet)
        return float(np.mean(a * a))

    @property
    def p_X(self) -> float:
        """Second moment of a non-planted guess entry."""
        if self.guess_law == "ternary":
            return self.nu
        return self.nu * self.p_x

    def with_seed(self, master_seed: int) -> "GenConfig":
        return replace(self, master_seed=master_seed)


def sample_support(cfg: GenConfig, rng: np.random.Generator) -> SupportPattern:
    """Draw the hidden support.

    'equidistributed' places exactly s indices in every block; 'uniform'
    scatters s*theta indices over all n*theta slots, so per-block counts are
    hypergeometric and may leave a block empty.
    """
    n, theta, s = cfg.n, cfg.theta, cfg.s
    if cfg.support_mode == "equidistributed":
        idx = []
        for l in range(theta):
            local = rng.choice(n, size=s, replace=False)
            idx.extend(l * n + int(i) for i in local)
    else:
        idx = [int(i) for i in rng.choice(n * theta, size=s * theta, replace=False)]
    return SupportPattern(indices=tuple(sorted(idx)), n=n, theta=theta)


def sample_planted_vector(
    support: SupportPattern, cfg: GenConfig, rng: np.random.Generator
) -> np.ndarray:
    """Hidden vector: i.i.d. uniform alphabet draws on the support, zero off it."""
    x = np.zeros(support.n * support.theta)
    alph = np.asarray(cfg.planted_alphabet)
    pos = list(support.indices)
    x[pos] = alph[rng.integers(0, len(alph), size=len(pos))]
    return x


def _draw_column(cfg: GenConfig, rng: np.random.Generator, size) -> np.ndarray:
    """Unconditioned ``guess_law`` entries of any ``size``: one mask draw, one value draw."""
    mask = rng.random(size) < cfg.guess_density
    if cfg.guess_law == "ternary":
        vals = rng.integers(0, 2, size=size) * 2.0 - 1.0
    else:
        alph = np.asarray(cfg.planted_alphabet)
        vals = alph[rng.integers(0, len(alph), size=size)]
    return mask * vals


def sample_guess_columns(
    cfg: GenConfig, rng: np.random.Generator, shape, reject_zero: bool = True
) -> np.ndarray:
    """Random guess columns of length n, one per index of ``shape``: a (*shape, n) array.

    All columns come from one tensor draw.  With ``reject_zero`` every all-zero
    column is then redrawn, all of them in one draw per round, until none is
    left, which conditions each column on being nonzero as instance
    construction requires.
    """
    cols = _draw_column(cfg, rng, (*shape, cfg.n))
    if not reject_zero:
        return cols
    for _ in range(10000):
        zero = ~cols.any(axis=-1)
        if not zero.any():
            return cols
        cols[zero] = _draw_column(cfg, rng, (int(zero.sum()), cfg.n))
    raise RuntimeError("could not draw a nonzero guess column; guess_density too small")


def sample_guess_ensemble(
    x: np.ndarray, support: SupportPattern, cfg: GenConfig, rng: np.random.Generator
) -> GuessEnsemble:
    """Guess ensemble with the hidden blocks planted.

    Planted positions are drawn first, uniformly.  Then every column comes
    from one ``sample_guess_columns`` call of shape (theta, r), whose entry
    [l, k] is column k of block l, conditioned on being nonzero, so every
    column carries positive weight.
    """
    n, r, theta = cfg.n, cfg.r, cfg.theta
    x = np.asarray(x, dtype=float)
    planted = rng.integers(0, r, size=theta)
    hidden = x.reshape(theta, n)
    empty = np.flatnonzero(~hidden.any(axis=1))
    if empty.size:
        raise ValueError(
            f"block {empty[0]} has empty support, so its planted column would be all-zero; "
            "increase s or use equidistributed supports"
        )
    cols = sample_guess_columns(cfg, rng, (theta, r))
    cols[np.arange(theta), planted] = hidden
    return GuessEnsemble(blocks=cols.transpose(0, 2, 1), planted_cols=tuple(planted))


def sample_sensing_matrix(cfg: GenConfig, rng: np.random.Generator) -> BlockSensingMatrix:
    """Draw the sensing blocks for the configured kind from one (k, m, n) Gaussian stack.

    k is theta, or 1 for 'repeated-unitary', whose one block repeats.  The
    orthonormal kinds take Haar blocks from one batched QR of the stack.
    """
    m, n, theta = cfg.m, cfg.n, cfg.theta
    k = 1 if cfg.sensing_kind == "repeated-unitary" else theta
    g = rng.standard_normal((k, m, n))
    if cfg.sensing_kind == "gaussian":
        return BlockSensingMatrix(blocks=g / np.sqrt(m))
    q = _haar_stack(g)
    return BlockSensingMatrix(blocks=q if k == theta else np.repeat(q, theta, axis=0))


def _haar_stack(g: np.ndarray) -> np.ndarray:
    """Q factors of one batched QR of the (k, a, b) Gaussian stack ``g``, each sign-fixed to be Haar."""
    q, rr = np.linalg.qr(g)
    d = np.sign(np.diagonal(rr, axis1=1, axis2=2))
    d[d == 0] = 1.0
    return q * d[:, None, :]


def build_instance(cfg: GenConfig) -> RelaxedInstance:
    """Assemble a planted instance from four independent streams.

    Streams are labelled 'support', 'planted', 'guess', 'sensing', so e.g.
    switching the sensing kind leaves the hidden vector untouched.
    """
    seed = cfg.master_seed
    support = sample_support(cfg, substream(seed, "support"))
    x = sample_planted_vector(support, cfg, substream(seed, "planted"))
    X = sample_guess_ensemble(x, support, cfg, substream(seed, "guess"))
    A = sample_sensing_matrix(cfg, substream(seed, "sensing"))
    y = A.matvec(x)
    return RelaxedInstance(
        A=A,
        X=X,
        x=x,
        support=support,
        y=y,
        config=cfg,
    )
