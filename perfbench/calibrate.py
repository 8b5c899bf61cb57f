"""A fixed reference loop that measures how fast the host runs right now.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over minutes, so the same code gives different round rates from
one run to the next. `Calibrator` runs a short slice of fixed reference
work every `every` rounds, inside the timed loop, and records how long
each slice took. The reference work imports nothing from duelbandit, so no
change to the package can change it; it mixes small numpy calls with
plain Python, as the round loop does. A batch's slices, against
`NOMINAL_SLICE_S`, give the host's speed during that batch.

Importing the package drifts too, and apart from the loop's drift: it
reads files and starts numpy. There the reference is numpy's own import,
timed in the same fresh interpreter just before duelbandit's, against
`NOMINAL_NUMPY_IMPORT_S`.
"""

from __future__ import annotations

import time

import numpy as np

SLICE_STEPS = 80
# About the median time of one slice on the 2-vCPU VM of the reference
# figures in README.md (numpy 2.4, Python 3.11). A constant, so that every
# run and every version is scaled to the same nominal host.
NOMINAL_SLICE_S = 0.85e-3
# About the median time to import numpy 2.4 with one BLAS thread in a fresh
# interpreter on the same VM.
NOMINAL_NUMPY_IMPORT_S = 0.072

_MATRIX = np.linspace(-1.0, 1.0, 25).reshape(5, 5)


def reference_slice() -> float:
    """Run the fixed reference work once; returns its duration in seconds."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(SLICE_STEPS):
        row = _MATRIX @ _MATRIX[i % 5]
        acc += float(row.max()) - float(np.sum(row))
        for j in range(20):
            table[(i * 31 + j) & 63] = acc + j
        acc = 0.5 * acc + len(table)
    return time.perf_counter() - start


def host_factor(slices: list[float]) -> float:
    """How much slower than nominal the host ran the slices (1 = nominal)."""
    return sum(slices) / len(slices) / NOMINAL_SLICE_S


class Calibrator:
    """Runs a reference slice after every `every`-th captured round."""

    def __init__(self, every: int):
        self.every = every
        self.rounds = 0
        self.slices: list[float] = []

    def wrap(self, capture):
        def calibrated(learner, joint, context, seed):
            capture(learner, joint, context, seed)
            self.rounds += 1
            if self.rounds % self.every == 0:
                self.slices.append(reference_slice())
        return calibrated

    def take(self) -> list[float]:
        """The slices since the last call; at least one, run now if none."""
        if not self.slices:
            self.slices.append(reference_slice())
        slices, self.slices = self.slices, []
        return slices
