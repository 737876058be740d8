"""Machine-speed calibration for the benchmark's timings.

On a 2-vCPU cloud VM the speed of the workloads drifts by 15-30% over
minutes and switches for seconds at a time into a mode up to 1.8x faster.
A fixed loop of small numpy operations and interpreter work, like the
solvers' inner loops, follows that drift; no change to the program moves
it.  A measurement is divided by the slowdown measured right after it (the
median loop time over ``CALIBRATION_REF_S``), and a rate multiplied by it.
Over 100-140 s windows the scaled times of sgd, signal and image varied by
2-3% where the raw ones varied by 4-7%.
"""

import statistics
import time

import numpy as np

CALIBRATION_REF_S = 0.0005
# share of the measured interval spent calibrating after it
CALIBRATION_SHARE = 0.05

_X = np.ones(256)
_B = np.arange(256.0)


def calibration_loop() -> float:
    """Fixed work that does not depend on the program: copies, slice updates and dots."""
    total = 0.0
    for _ in range(60):
        y = _X.copy()
        y[10:] -= 0.5 * _B[:246]
        total += float(_B[:128] @ y[128:])
        z = y - _X
        total += float(z @ z)
    return total


def slowdown_after(seconds: float) -> float:
    """Slowdown against the reference speed, measured right after an interval of ``seconds``."""
    times = []
    for _ in range(max(5, round(CALIBRATION_SHARE * seconds / CALIBRATION_REF_S))):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / CALIBRATION_REF_S
