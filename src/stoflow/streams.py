"""Deterministic derivation of independent RNG streams.

Every stochastic component draws from a stream derived from
(master seed, trajectory index, purpose tag), so ensemble results do not
depend on scheduling or thread count.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_stream"]


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def derive_stream(master_seed: int, *keys) -> np.random.Generator:
    """Generator for (master seed, key...); same inputs give the same stream."""
    entropy = [int(master_seed)] + [_key_to_int(k) for k in keys]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
