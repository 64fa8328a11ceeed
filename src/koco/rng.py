"""Named, counter-based random streams.

Every source of randomness in an experiment (stream generation, sampler
coins, sketch coins; the offline comparator draws none) has its own
Philox stream derived from one master seed plus a stable name, so a
single integer reproduces an entire run bit-for-bit across platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_words(name: str) -> list[int]:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def named_rng(master_seed: int, name: str) -> np.random.Generator:
    """Philox generator for stream `name` under `master_seed`."""
    seq = np.random.SeedSequence([int(master_seed) & 0xFFFFFFFF] + _name_words(name))
    return np.random.Generator(np.random.Philox(seq))


def bernoulli(rng: np.random.Generator, p: float) -> int:
    """One coin flip; always consumes exactly one uniform draw."""
    return int(rng.random() < p)
