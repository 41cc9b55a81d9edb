"""``derive_seed`` and ``instance_generator`` against NumPy's SeedSequence and Philox(key=...), bit for bit."""

import random

import numpy as np
import pytest

import seed_reference as ref
from blockrelax.generate import derive_seed, instance_generator

# every label the package, its tests and its benchmark key generators with
LABELS = (
    "cell", "trial", "compare-cell", "conc", "cli-vec", "x3c-orthogonal",
    "u", "vec", "blocknorm", "trend-cell", "support", "planted",
    "study", "mc-call", "enum", "schedule",
)
# one and two 32-bit words, their boundaries, and negatives (masked to 64 bits)
EDGES = (0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, -1, -2, -(2**32), -(2**64) + 1, 2**64 + 5)


@pytest.mark.parametrize("label", LABELS)
def test_derive_seed_matches_seed_sequence_on_edges(label):
    for master in EDGES:
        for index in EDGES:
            assert derive_seed(master, label, index) == ref.derive_seed(master, label, index), (master, index)


def test_derive_seed_matches_seed_sequence_on_random_pairs():
    rnd = random.Random(19)
    for _ in range(2500):
        master, index = rnd.getrandbits(64), rnd.getrandbits(rnd.choice((8, 32, 64)))
        label = rnd.choice(LABELS)
        assert derive_seed(master, label, index) == ref.derive_seed(master, label, index), (master, label, index)


def test_derive_seed_nested_as_a_sweep_keys_its_trials():
    # a sweep keys trial t of cell c with derive_seed(derive_seed(seed, 'cell', c), 'trial', t)
    for seed in (0, 1, 7):
        for cell in range(3):
            ours, theirs = derive_seed(seed, "cell", cell), ref.derive_seed(seed, "cell", cell)
            assert ours == theirs
            for t in range(40):
                assert derive_seed(ours, "trial", t) == ref.derive_seed(theirs, "trial", t)


def _draws(rng):
    return (
        rng.random(5),
        rng.integers(0, 7, size=9),
        rng.integers(0, 2**62, size=3),
        rng.standard_normal((2, 3)),
        rng.random(),
    )


def test_instance_generator_matches_philox_key():
    rnd = random.Random(23)
    keys = [*EDGES, *(rnd.getrandbits(64) for _ in range(200))]
    for key in keys:
        ours, theirs = instance_generator(key), ref.instance_generator(key)
        assert repr(ours.bit_generator.state) == repr(theirs.bit_generator.state), key
        for u, v in zip(_draws(ours), _draws(theirs)):
            assert np.array_equal(u, v), key


def test_generator_seed_object_gives_only_the_key_words():
    # the generator keeps its key object as seed_seq; any request but Philox's raises
    seq = instance_generator(7).bit_generator.seed_seq
    assert seq.generate_state(2, np.uint64).tolist() == [7, 0]
    for n_words, dtype in ((1, np.uint64), (4, np.uint64), (2, np.uint32), (4, np.uint32)):
        with pytest.raises(ValueError, match="two 64-bit key words"):
            seq.generate_state(n_words, dtype)


def test_instance_generators_of_one_key_share_no_state():
    # compare keeps drawing from a trial's generator after the chunk draw
    key = derive_seed(5, "trial", 3)
    a, b, c = instance_generator(key), instance_generator(key), ref.instance_generator(key)
    first = a.standard_normal(100)
    # drawing from a leaves b at the start of the stream
    assert np.array_equal(b.standard_normal(100), first)
    c.standard_normal(100)
    # and both go on as Philox(key=...) does
    for u, v, w in zip(_draws(a), _draws(b), _draws(c)):
        assert np.array_equal(u, v) and np.array_equal(u, w)
