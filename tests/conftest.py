import os

# Single-threaded BLAS, set before numpy loads: the solvers' small dense
# factorizations run faster than with threaded BLAS, and rates then do not
# depend on the thread count (they differ in the 9th digit).  A value the
# user sets still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from wpcn_traj import ScenarioConfig  # noqa: E402


def benchmark_config(device_distance=15.0, duration=10.0, num_slots=None, **kw):
    """Benchmark parameter set: 5 m altitude, -100 dBm noise, -30 dB reference
    gain, 40 dBm transmit power, 60% efficiency, 5 m/s cap, 1 m separation."""
    if num_slots is None:
        num_slots = max(1, round(duration / 0.1))
    return ScenarioConfig(device_distance=device_distance, duration=duration,
                          num_slots=num_slots, **kw)


@pytest.fixture
def cfg_v():
    return benchmark_config


def hover_positions(x1, x2, n_slots):
    """Raw slot-position array with UAV 1 parked at (x1, 0), UAV 2 at (x2, 0)."""
    pos = np.zeros((2, n_slots, 2))
    pos[0, :, 0] = x1
    pos[1, :, 0] = x2
    return pos
