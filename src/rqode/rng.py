"""Seeded, splittable random streams with draw accounting.

All stochastic components take an explicit stream, so every run is
reproducible from one non-negative root seed.  Streams are backed by the
Philox bit generator.  A solve splits its root into one stream per step
(``numpy.random.SeedSequence`` spawning, independent without coordination);
the median runs of a boosted estimate draw in turn from one stream.
"""

from __future__ import annotations

import math

import numpy as np

from .core import require_nonnegative_int


def child_seed(seed, *key) -> int:
    """The int seed of the child of ``seed`` with spawn key ``key``."""
    return int(np.random.SeedSequence(require_nonnegative_int("seed", seed),
                                      spawn_key=key).generate_state(1)[0])


class RngStream:
    """A seeded random stream that counts its draws on a ledger.

    Parameters
    ----------
    seed : int | numpy.random.SeedSequence
        Non-negative root seed or an already-spawned seed sequence.
    ledger : CostLedger | None
        If given, every variate drawn increments ``ledger.rng_draws``.
        Draws are an audit quantity, never part of the query cost.
    """

    def __init__(self, seed, ledger=None):
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(require_nonnegative_int("seed", seed))
        self._seq = seed
        self._gen = np.random.Generator(np.random.Philox(key=None, seed=self._seq))
        self.ledger = ledger

    def _count(self, size):
        """Book the number of variates a draw of shape ``size`` returns."""
        if self.ledger is not None:
            self.ledger.rng_draws += 1 if size is None else (
                math.prod(size) if isinstance(size, (tuple, list)) else int(size))

    def uniform(self, low=0.0, high=1.0, size=None):
        self._count(size)
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        self._count(size)
        return self._gen.integers(low, high, size)

    def spawn(self, k: int) -> list["RngStream"]:
        """Split off ``k`` independent child streams (same ledger)."""
        return [RngStream(s, self.ledger) for s in self._seq.spawn(k)]
