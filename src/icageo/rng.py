"""Deterministic pseudo-randomness.

A single 64-bit seed pins every random quantity in the package.  The
generator is Philox, a counter-based algorithm whose output stream is a
pure function of its key, so equal seeds give bit-identical streams
across runs and platforms.  Independent child streams are derived
by spawning, never by sharing one generator between consumers.
"""
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class Rng:
    """Seed wrapper; all randomness flows through `generator()` or `child()`."""

    seed: int

    def __post_init__(self):
        # a bool is an Integral; a float or a string would fail in generator()
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise InvalidConfig("seed must be an integer")
        if not 0 <= self.seed <= MAX_SEED:
            raise InvalidConfig("seed must fit in an unsigned 64-bit integer")

    def generator(self) -> "np.random.Generator":
        """Fresh generator for this seed; repeated calls restart the stream."""
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed)))

    def child(self, index: int) -> "Rng":
        """Deterministic derived seed, independent of other indices."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(index,))
        return Rng(int(ss.generate_state(1, np.uint64)[0]))
