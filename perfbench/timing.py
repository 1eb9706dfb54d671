"""Job timing, scaled to a nominal machine speed.

The machine this benchmark was built on changes speed by about ±20%, both
from one second to the next and over tens of seconds, for every kind of CPU
work, with no steal time reported. Medians inside one run do not remove the
slow part of that drift. So a repeat interleaves bursts of a fixed
calibration kernel with its jobs: at least every CALIBRATE_EVERY_S of work,
each burst taking CALIBRATION_SHARE of the work time since the last one.
A single 20 ms kernel run is itself noisy (±30%), hence bursts. The kernel
mixes an interpreted loop with the numpy work of an MC chunk: normals, a
small matmul, an exp. Every time in a repeat is then scaled by
NOMINAL_CALIBRATION_S over the repeat's median calibration, so it reads in
seconds of a machine on which the kernel takes NOMINAL_CALIBRATION_S.
Calibration runs between jobs, never inside a job's timer. Raw times are
kept next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_CALIBRATION_S = 0.022
CALIBRATE_EVERY_S = 0.25
CALIBRATION_SHARE = 0.05
FIRST_BURST_S = 1.0

_CAL_FACTOR = np.tril(np.full((16, 16), 0.1)) + np.eye(16)


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreted and numpy work."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    rng = np.random.Generator(np.random.Philox(key=7))
    for _ in range(2):
        normals = rng.standard_normal((16, 8192))
        float(np.exp(0.1 * (_CAL_FACTOR @ normals)).sum())
    return time.perf_counter() - start


class Timeline:
    """Job records of one repeat, with the calibrations made between them."""

    def __init__(self):
        self.jobs: list[dict] = []
        self.calibrations: list[float] = []
        self._last = float("-inf")

    def calibrate(self, force: bool = False) -> None:
        """Run a burst of calibrations, CALIBRATION_SHARE of the work since
        the last burst, once at least CALIBRATE_EVERY_S has passed."""
        since = time.perf_counter() - self._last if self.calibrations else FIRST_BURST_S
        if not force and since < CALIBRATE_EVERY_S:
            return
        for _ in range(max(1, round(since * CALIBRATION_SHARE / NOMINAL_CALIBRATION_S))):
            self.calibrations.append(calibration_kernel())
        self._last = time.perf_counter()

    def record(self, name: str, seconds: float, **fields) -> None:
        self.jobs.append(dict(fields, name=name, raw_s=seconds))

    def run(self, name: str, fn):
        """Time ``fn()`` as one job; an exception fails the job, not the run."""
        self.calibrate()
        start = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception as exc:
            out, error = None, repr(exc)
        self.record(name, time.perf_counter() - start, ok=error is None, error=error)
        return out

    def finish(self) -> tuple[list[dict], float]:
        """Job records with raw and scaled seconds, and the repeat's scale."""
        self.calibrate(force=True)
        scale = NOMINAL_CALIBRATION_S / statistics.median(self.calibrations)
        return [dict(job, s=job["raw_s"] * scale) for job in self.jobs], scale
