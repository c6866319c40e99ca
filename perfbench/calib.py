"""Machine-speed calibration for wall-clock metrics.

On a shared 2-vCPU host the same pass runs up to ±20% slower or faster
for stretches of seconds to minutes, and CPU time moves with wall time,
so the slowdown is in the machine, not in scheduling.  A fixed
micro-workload with the suite's profile (many small NumPy calls and
interpreter-bound loops; nothing from the program under test) is timed
beside every measurement, and wall times are reported scaled to
``REFERENCE_S``, the calibration's typical duration.  Over ten seeds
this brought the quartile spread of a pass's median wall time from
0.12–0.22 of the median to 0.04–0.09.  A faster program still reads
faster: the scaling cancels the machine's speed, not the program's.
"""

from __future__ import annotations

import time

import numpy as np

#: typical duration of :func:`calibrate` on the 2-vCPU container the
#: benchmark was tuned on; scaled times read as wall time there
REFERENCE_S = 0.12

_RNG = np.random.default_rng(0)
_ARRAYS = [_RNG.integers(0, 5000, 3000) for _ in range(8)]
_VALUES = _RNG.random(3000)


def calibrate() -> float:
    """Seconds one run of the fixed micro-workload takes now."""
    t0 = time.perf_counter()
    for _ in range(30):
        for a in _ARRAYS:
            np.unique(a)
            acc = np.zeros(5000)
            np.add.at(acc, a, _VALUES)
            np.cumsum(a[a > 2500])
            np.repeat(a[:100], 3)
        counts: dict = {}
        for i in range(3000):
            counts[i & 255] = counts.get(i & 255, 0) + i
    return time.perf_counter() - t0


def scale(wall_s: float, cal_s: float) -> float:
    """``wall_s`` as it would read when :func:`calibrate` takes
    :data:`REFERENCE_S`."""
    return wall_s * REFERENCE_S / cal_s
