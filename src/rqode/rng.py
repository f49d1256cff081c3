"""Seeded, splittable random streams with draw accounting.

All stochastic components take an explicit stream so that every run is
reproducible from a single root seed.  Streams are backed by the Philox
counter-based bit generator and split via ``numpy.random.SeedSequence``,
which guarantees independent substreams without coordination.
"""

from __future__ import annotations

import math

import numpy as np


class RngStream:
    """A seeded random stream that counts its draws on a ledger.

    Parameters
    ----------
    seed : int | numpy.random.SeedSequence
        Root seed or an already-spawned seed sequence.
    ledger : CostLedger | None
        If given, every variate drawn increments ``ledger.rng_draws``.
        Draws are an audit quantity, never part of the query cost.
    """

    def __init__(self, seed, ledger=None):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))
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
