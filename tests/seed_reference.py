"""Generator keying through NumPy's own SeedSequence and Philox(key=...).

These are the calls that ``blockrelax.generate.derive_seed`` and
``instance_generator`` replaced with integer arithmetic and a key-holding
seed object; both must give the same bits.  Meant for differential tests
only.
"""

import numpy as np

from blockrelax.generate import _label_key

MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    entropy = (int(master_seed) & MASK64, _label_key(label), int(index) & MASK64)
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1, dtype=np.uint64)[0])


def instance_generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & MASK64))
