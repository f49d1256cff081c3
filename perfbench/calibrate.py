"""Host-speed calibration interleaved with a workload's operations.

On a shared host the speed of one CPU drifts by 20-30% over minutes, which
moves every wall-clock figure by as much.  The pacer runs a short fixed
calibration slice (interpreter work plus small and mid-size NumPy calls,
the mix the workloads run) after every operation and, from a hook after each
estimator call, at most every ``INTERVAL_S`` seconds within operations, so
the slices sample the host's speed throughout the work.  Timings exclude the
slices and are also reported rescaled to a host on which a slice takes
``REFERENCE_S``: ``t * REFERENCE_S / mean slice time``.
"""

from __future__ import annotations

import functools
from time import perf_counter

import numpy as np

from rqode import scalar, solver

INTERVAL_S = 0.05
REFERENCE_S = 2.0e-3     # about the slice time on an idle 2.1 GHz Xeon vCPU
HOOKED = ("mc_mean", "quantum_sim_mean", "full_mean")
_GRID = np.linspace(0.0, 1.0, 2048)


def calibration_slice():
    """A fixed amount of mixed interpreter and array work."""
    acc = np.zeros(3)
    for i in range(150):
        acc = acc + np.array([i, 1.0, 2.0]) * 0.5
        acc[0] += float(np.sin(_GRID).sum()) * 1e-9
    return acc


class Pacer:
    """Runs and times calibration slices.

    Slices run after every operation (``tick(force=True)``) and, once
    installed, after estimator calls at most every ``INTERVAL_S`` seconds.
    """

    def __init__(self):
        calibration_slice()      # first call pays one-time costs; not kept
        self.slices = []
        self.spent = 0.0
        self.on_slice = None     # called with each slice's duration
        self._last = 0.0
        self._saved = []

    def tick(self, force=False):
        start = perf_counter()
        if force or start - self._last >= INTERVAL_S:
            calibration_slice()
            self._last = perf_counter()
            self.slices.append(self._last - start)
            self.spent += self._last - start
            if self.on_slice is not None:
                self.on_slice(self._last - start)

    def scale(self, first_slice: int) -> float:
        """REFERENCE_S over the mean slice time since ``first_slice``."""
        recent = self.slices[first_slice:]
        return REFERENCE_S * len(recent) / sum(recent)

    def _hooked(self, fn):
        @functools.wraps(fn)
        def paced(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.tick()
            return out
        return paced

    def install(self):
        for mod in (solver, scalar):
            for name in HOOKED:
                if hasattr(mod, name):
                    fn = getattr(mod, name)
                    self._saved.append((mod, name, fn))
                    setattr(mod, name, self._hooked(fn))

    def remove(self):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()
