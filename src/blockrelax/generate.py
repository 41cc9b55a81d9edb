"""Random planted instances: supports, hidden vectors, ensembles, sensing matrices.

Randomness is counter-based, and ``instance_generator(derive_seed(seed,
label, index))`` is the package's one way to get a generator: Philox keyed
by a 64-bit seed derived from (seed, label, index), counter at zero.  Both
are computed here without NumPy's ``SeedSequence``: ``derive_seed`` runs
its hash in integer arithmetic, and ``instance_generator`` hands Philox its
key directly, so their values are bit for bit those of
``SeedSequence(entropy=...).generate_state(1, np.uint64)`` and
``Philox(key=...)``, without the OS entropy ``Philox(key=...)`` draws and
discards.  The
instance with master seed s takes every draw from ``instance_generator(s)``
in a fixed order: support keys, planted values, planted columns, guess
columns, sensing.  ``sample_instances`` draws a chunk of instances as one
``InstanceStack`` of stacked arrays, in three stages.  The first,
``draw_instances``, draws the chunk in rounds (each generator's draws before
its guess columns, one guess draw and one redraw pass for the chunk, then
each generator's sensing Gaussians) and turns them, with one support argsort
for the chunk, into its hidden vectors, nonzero on the supports, and guesses.
The second, ``sense``, turns the Gaussians and hidden vectors of the rows it
is given into sensing stacks and y = A x, with one batched QR of those rows'
blocks; the third, ``_plant``, writes the hidden blocks into their planted
columns.  Row i of every stack array is trial i's: a trial whose draw fails
(redraws that give up, a support block left empty) keeps a row that holds no
instance, and its error is in the stack's ``errors``.
``InstanceStack.instance`` is the one place a drawn ``RelaxedInstance`` is
made, through the checking constructors.
``build_instance`` is a chunk of one, so the two agree bit for bit and any
single trial of a sweep can be replayed from its seed alone.  ``compare``'s
relaxation side is ``draw_instances``, called after ``sample_instances``
over the same generators, with only the rows it solves sensed.  Every guess
tensor is drawn by ``draw_guesses``, a chunk at once (the instances', the
concentration redraws', ``compare``'s best-of side's), then conditioned to
nonzero columns by ``_condition`` or planted by ``_plant``, a chunk at once.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    BlockSensingMatrix,
    GuessEnsemble,
    RelaxedInstance,
    SupportPattern,
    matvec_stack,
)

__all__ = [
    "GenConfig",
    "derive_seed",
    "draw_guesses",
    "instance_generator",
    "InstanceStack",
    "draw_instances",
    "sense",
    "sample_instances",
    "build_instance",
    "SENSING_KINDS",
    "SUPPORT_MODES",
    "GUESS_LAWS",
    "SCHEMA_COMMENT",
]

SENSING_KINDS = ("orthonormal-blocks", "repeated-unitary", "gaussian")
SUPPORT_MODES = ("equidistributed", "uniform")
GUESS_LAWS = ("ternary", "alphabet")

# first line of the sweep, compare and concentration outputs.  Stream 4 draws
# each instance from one generator keyed by its seed, in a fixed order, and
# its support from an argsort of uniform keys; stream 5 draws the
# concentration redraws, compare's relaxation side and every other stream
# from such generators too.
SCHEMA_COMMENT = "# schema=5"

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), pool of four
# 32-bit words.  Hash i of an entropy or pool word xors it with _HASH_A[i] and
# multiplies by _HASH_A[i + 1], the running multiplier; the output words do the
# same with _HASH_B.
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _powers(init: int, mult: int, count: int) -> tuple[int, ...]:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


# 4 words hashed in, 12 mixing hashes, 4 per word past the fourth: at most 2 more for 3 64-bit ints
_HASH_A = _powers(0x43B0D7E5, 0x931E8875, 4 + 12 + 4 * 2)
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 2)
# (source, destination) of the pool's all-pairs mixing pass, hashes 4 to 15
_MIX_ORDER = tuple((src, dst) for src in range(4) for dst in range(4) if src != dst)


@functools.lru_cache(maxsize=None)  # the labels are a small fixed set
def _label_key(label: str) -> int:
    # stable across runs and platforms, unlike hash()
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")


def _words(value: int) -> tuple[int, ...]:
    """The 32-bit words SeedSequence reads from a 64-bit int: low word first, one word for 0."""
    return (value & _MASK32, value >> 32) if value >> 32 else (value,)


def _mix(pool: list[int], dst: int, word: int, i: int) -> None:
    """Mix hash i of ``word`` into pool word ``dst``."""
    h = (word ^ _HASH_A[i]) * _HASH_A[i + 1] & _MASK32
    mixed = (_MIX_L * pool[dst] - _MIX_R * (h ^ h >> 16)) & _MASK32
    pool[dst] = mixed ^ mixed >> 16


# The pool depends only on the head, the first four entropy words.  A master
# of 2**32 or more fills the head with (master, label) alone, so every index
# keyed under it (a sweep cell's trials, a study's redraws) hits; a smaller
# master puts the index's low word in the head, so a head repeats only with
# its index (a fixed index such as 0).  Bounded: a run keys under a few such
# heads at a time, and a miss costs what the uncached hash does.
@functools.lru_cache(maxsize=8)
def _mixed_pool(head: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """SeedSequence's pool after its first four entropy words are hashed in and mixed."""
    pool = []
    for i, word in enumerate(head):
        h = (word ^ _HASH_A[i]) * _HASH_A[i + 1] & _MASK32
        pool.append(h ^ h >> 16)
    for i, (src, dst) in enumerate(_MIX_ORDER, start=4):
        _mix(pool, dst, pool[src], i)
    return tuple(pool)


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Collapse (seed, label, index) to a fresh 64-bit seed, for ``instance_generator`` or nested use.

    The seed is ``SeedSequence(entropy=(master_seed & M, key, index & M))
    .generate_state(1, np.uint64)[0]``, with M = 2**64 - 1 and ``key`` the
    label's SHA-256 prefix, bit for bit; it is computed in integer
    arithmetic.  The entropy's 32-bit words, padded with zeros to four, fill
    and mix the pool; each further word is mixed into every pool word; two
    output words make the seed.
    """
    words = (*_words(int(master_seed) & _MASK64), *_words(_label_key(label)), *_words(int(index) & _MASK64))
    pool = list(_mixed_pool((words + (0, 0, 0))[:4]))
    for k, word in enumerate(words[4:]):
        for dst in range(4):
            _mix(pool, dst, word, 16 + 4 * k + dst)
    lo = (pool[0] ^ _HASH_B[0]) * _HASH_B[1] & _MASK32
    hi = (pool[1] ^ _HASH_B[1]) * _HASH_B[2] & _MASK32
    return (lo ^ lo >> 16) | (hi ^ hi >> 16) << 32


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
        if len(set(alph)) != len(alph):  # a repeated value would weigh it twice in draws and in p_l
            raise ValueError("alphabet values must be distinct")
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


def _key_shape(cfg: GenConfig) -> tuple[int, ...]:
    """Shape of one instance's support keys: a row per block, or one row over all n*theta slots."""
    return (cfg.theta, cfg.n) if cfg.support_mode == "equidistributed" else (cfg.n * cfg.theta,)


def _supports(cfg: GenConfig, keys: np.ndarray) -> np.ndarray:
    """Sorted global support indices, (chunk, s*theta), of a (chunk, *key shape) stack of uniform keys.

    The slots holding a row's smallest keys are a uniform draw without
    replacement: s per block for 'equidistributed', s*theta of all n*theta
    slots for 'uniform', whose per-block counts are hypergeometric and may
    leave a block empty.
    """
    take = cfg.s if cfg.support_mode == "equidistributed" else cfg.s * cfg.theta
    chosen = np.sort(np.argsort(keys, axis=-1)[..., :take], axis=-1)
    # each key row covers n slots of its block ('equidistributed') or all n*theta
    chosen += np.arange(0, cfg.n * cfg.theta, keys.shape[-1])[:, None]
    return chosen.reshape(len(keys), cfg.s * cfg.theta)


# entries per pass of the guess law in ``draw_guesses``: take casts narrow
# indices to an intp copy of the pass's size (and, in its default mode 'raise',
# buffers ``out`` too; the indices are in range, so 'clip' changes nothing)
_LAW_PASS = 1 << 14
_REDRAW_ROUNDS = 10000  # the rounds of all-zero guess columns ``_condition`` redraws before it gives up


def draw_guesses(cfg: GenConfig, rngs, out: np.ndarray) -> np.ndarray:
    """Unconditioned ``guess_law`` entries into the C-contiguous ``out`` (k, ...), row i from the i-th of k ``rngs``.

    The package's one guess draw.  Each generator, taken in turn (``rngs``
    may be a lazy iterator), draws its row's uniforms straight into out[i],
    then its value indices.  The law then runs over the chunk in place, no
    temporary exceeding ``_LAW_PASS`` entries: entry = (uniform <
    guess_density) * value, the value -1 or 1 ('ternary') or from the
    alphabet, a zero keeping its value's sign.  Returns ``out``.
    """
    values = np.array((-1.0, 1.0) if cfg.guess_law == "ternary" else cfg.planted_alphabet)
    rows = out.reshape(len(out), math.prod(out.shape[1:]))
    idx = np.empty(rows.shape, dtype=np.min_scalar_type(len(values) - 1))
    for i, rng in enumerate(rngs):
        rng.random(out=rows[i])
        idx[i] = rng.integers(0, len(values), size=rows.shape[1])
    flat, flat_idx = out.reshape(-1), idx.reshape(-1)
    for lo in range(0, flat.size, _LAW_PASS):
        part = flat[lo : lo + _LAW_PASS]
        mask = part < cfg.guess_density
        values.take(flat_idx[lo : lo + _LAW_PASS], out=part, mode="clip")
        part *= mask
    return out


def _condition(cfg: GenConfig, rngs, cols: np.ndarray) -> dict[int, ValueError]:
    """Redraw in place the all-zero guess columns of ``cols`` (k, ..., n); the rows that gave up, with their errors.

    One zero mask of the chunk picks the rows that hold an all-zero column.
    Row i, taken in order, redraws its zero columns from ``rngs[i]``, one
    ``draw_guesses`` row a round, and each redraw updates its mask; it gives
    up when ``_REDRAW_ROUNDS`` redraws still leave an all-zero column.
    """
    zero, errors = ~cols.any(axis=-1), {}
    for i in np.flatnonzero(zero.reshape(len(zero), -1).any(axis=1)).tolist():
        for _ in range(_REDRAW_ROUNDS):
            cols[i][zero[i]] = draw_guesses(cfg, [rngs[i]], np.empty((1, int(zero[i].sum()), cfg.n)))[0]
            zero[i] = ~cols[i].any(axis=-1)
            if not zero[i].any():
                break
        else:
            errors[i] = ValueError("could not draw a nonzero guess column; guess_density too small")
    return errors


def _sensing_shape(cfg: GenConfig) -> tuple[int, int, int]:
    """(k, m, n) of one Gaussian sensing draw; k is theta, or 1 for 'repeated-unitary', whose one block repeats."""
    return (1 if cfg.sensing_kind == "repeated-unitary" else cfg.theta, cfg.m, cfg.n)


def _sensing_stacks(cfg: GenConfig, g: np.ndarray) -> np.ndarray:
    """Sensing stacks (chunk, theta, m, n) of a (chunk, k, m, n) stack of Gaussian draws.

    The orthonormal kinds take Haar blocks from one batched QR of all the
    stack's blocks.
    """
    if cfg.sensing_kind == "gaussian":
        return g / np.sqrt(cfg.m)
    q = _haar_stack(g.reshape(-1, cfg.m, cfg.n)).reshape(g.shape)
    return q if g.shape[1] == cfg.theta else np.repeat(q, cfg.theta, axis=1)


def _haar_stack(g: np.ndarray) -> np.ndarray:
    """Q factors of one batched QR of the (k, a, b) Gaussian stack ``g``, each sign-fixed to be Haar."""
    q, rr = np.linalg.qr(g)
    d = np.sign(np.diagonal(rr, axis1=1, axis2=2))
    d[d == 0] = 1.0
    return q * d[:, None, :]


class _PhiloxKey:
    """A 64-bit Philox key posing as NumPy's seed sequence: Philox reads its key as ``generate_state(2, np.uint64)``."""

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key gives only its two 64-bit key words")
        return np.array([self.key, 0], dtype=np.uint64)


@functools.lru_cache(maxsize=None)
def _keyed_philox() -> type:
    """``np.random.Philox``, once ``_PhiloxKey`` is registered as an ``ISeedSequence``.

    Registering on first use keeps ``numpy.random``, which NumPy 2 imports
    lazily, out of the package's import.
    """
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PhiloxKey)
    return np.random.Philox


def instance_generator(seed: int) -> np.random.Generator:
    """The generator of the instance with master seed ``seed``: Philox keyed by the seed, counter at zero.

    Its state is bit for bit that of ``Philox(key=seed & (2**64 - 1))``,
    whose key words are [seed, 0]; the key goes in through ``_PhiloxKey``,
    so no ``SeedSequence`` is built.
    """
    return np.random.Generator(_keyed_philox()(_PhiloxKey(int(seed) & _MASK64)))


@dataclass(frozen=True, eq=False)
class InstanceStack:
    """A chunk of one config's trials as stacked C-contiguous arrays, row i for trial i.

    ``errors`` maps the position of each trial whose draw failed to the error
    it raised; that trial's row holds no instance.  Trial i's support is
    ``np.flatnonzero(x[i])``, sorted, since no alphabet value is zero.  In a
    stack from ``draw_instances`` ``A`` and ``y`` are None and each planted
    column of X still holds the column drawn for it; one from
    ``sample_instances`` has every row sensed and each planted column storing
    its hidden block.
    """

    config: GenConfig
    seeds: tuple[int, ...]  # each trial's master seed
    errors: dict[int, Exception]
    gauss: np.ndarray  # sensing Gaussians (k, *_sensing_shape)
    X: np.ndarray  # guess stacks (k, theta, n, r)
    x: np.ndarray  # hidden vectors (k, n*theta)
    planted: np.ndarray  # the planted column of each block (k, theta)
    A: np.ndarray | None = None  # sensing stacks (k, theta, m, n)
    y: np.ndarray | None = None  # observations A x (k, m)

    def instance(self, i: int) -> RelaxedInstance:
        """Trial i's instance, built through the checking constructors; trial i's draw error is raised."""
        if i in self.errors:
            raise self.errors[i]
        cfg, seed = self.config, self.seeds[i]
        return RelaxedInstance(
            A=BlockSensingMatrix(self.A[i]),
            X=GuessEnsemble(self.X[i], self.planted[i].tolist()),
            x=self.x[i],
            support=SupportPattern(np.flatnonzero(self.x[i]).tolist(), cfg.n, cfg.theta),
            y=self.y[i],
            config=cfg if cfg.master_seed == seed else replace(cfg, master_seed=seed),
        )


def draw_instances(cfg: GenConfig, seeds, rngs) -> InstanceStack:
    """The first stage of a chunk: trial i's draws from ``rngs[i]``, ``instance_generator(seeds[i])``, unsensed.

    The chunk is drawn in rounds, each generator in the stream-4 order:
    every trial's support keys, planted values and planted columns; one
    ``draw_guesses`` of the chunk's guess tensor; one ``_condition`` of it,
    which redraws the all-zero columns of only the trials that have one;
    then each trial's sensing Gaussians.  A trial whose redraws give up is
    an entry of ``errors``, draws no sensing and keeps its row, whose
    sensing Gaussians are zeros and whose guess block still holds an
    all-zero column.  The support argsort runs once over the chunk, and
    the supports go straight into ``x``; ``sense`` makes the sensing stacks.
    """
    t, n, k = cfg.theta, cfg.n, len(rngs)
    keys, vals, planted = np.empty((k, *_key_shape(cfg))), np.empty((k, cfg.s * t), int), np.empty((k, t), int)
    for i, rng in enumerate(rngs):
        rng.random(out=keys[i])
        vals[i] = rng.integers(0, len(cfg.planted_alphabet), size=cfg.s * t)
        planted[i] = rng.integers(0, cfg.r, size=t)
    cols = draw_guesses(cfg, rngs, np.empty((k, t, cfg.r, n)))
    errors, gauss = _condition(cfg, rngs, cols), np.zeros((k, *_sensing_shape(cfg)))
    for i, rng in enumerate(rngs):
        if i not in errors:
            rng.standard_normal(out=gauss[i])
    x = np.zeros((k, n * t))
    x[np.arange(k)[:, None], _supports(cfg, keys)] = np.asarray(cfg.planted_alphabet)[vals]
    X = np.ascontiguousarray(cols.transpose(0, 1, 3, 2))
    return InstanceStack(cfg, tuple(seeds), errors, gauss, X, x, planted)


def sense(stack: InstanceStack, rows) -> tuple[np.ndarray, np.ndarray]:
    """Sensing stacks (k, theta, m, n) and y = A x (k, m) of a drawn stack's ``rows``, an index array or a slice.

    Each row gets the bits it gets alone, as sensing the whole stack gives it.
    """
    A = _sensing_stacks(stack.config, stack.gauss[rows])
    return A, matvec_stack(A, stack.x[rows])


def _empty_block_error(block: int) -> ValueError:
    """The error of a draw whose support leaves ``block`` empty, so that its planted column would be all-zero."""
    return ValueError(
        f"block {block} has empty support, so its planted column would be all-zero; "
        "increase s or use equidistributed supports"
    )


def _plant(cols: np.ndarray, x: np.ndarray, planted: np.ndarray) -> dict[int, ValueError]:
    """The hidden blocks x (k, theta, n) written in place into the planted columns of ``cols`` (k, theta, r, n).

    ``planted`` gives each row's planted column of each block, (k, theta),
    or one column per block for every row, (theta,).  Returns the rows whose
    support leaves a block empty, so that its planted column is all-zero,
    each with the error of its first such block.
    """
    k, theta = x.shape[:2]
    cols[np.arange(k)[:, None], np.arange(theta), planted] = x
    empty = ~x.any(axis=2)  # (k, theta); argmax takes a row's first empty block
    return {i: _empty_block_error(empty[i].argmax()) for i in np.flatnonzero(empty.any(axis=1)).tolist()}


def sample_instances(cfg: GenConfig, seeds, rngs) -> InstanceStack:
    """One planted instance per trial, drawn as one chunk: ``draw_instances``, every row ``sense``d, then ``_plant``ed.

    A trial whose support leaves a block empty joins ``errors`` unless its
    draw failed.  Each stacked operation gives a row the bits it gets alone.
    """
    stack = draw_instances(cfg, seeds, rngs)
    A, y = sense(stack, slice(None))
    for i, exc in _plant(stack.X.transpose(0, 1, 3, 2), stack.x.reshape(-1, cfg.theta, cfg.n), stack.planted).items():
        stack.errors.setdefault(i, exc)  # a failed draw's error wins
    return replace(stack, A=A, y=y)


def build_instance(cfg: GenConfig) -> RelaxedInstance:
    """The planted instance of ``cfg``: a chunk of one, drawn from ``instance_generator(cfg.master_seed)``."""
    return sample_instances(cfg, [cfg.master_seed], [instance_generator(cfg.master_seed)]).instance(0)
