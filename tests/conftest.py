import os
import sys

# Single-threaded BLAS, set before numpy loads: the solvers' small dense
# factorizations run faster than with threaded BLAS, and every run uses the
# same thread count (the results were byte-identical under 1, 2 and 4
# threads where measured; test_cli compares 1 and 2).  A value the user
# sets still wins.  Pinned after numpy has loaded, it would not take
# effect, and checks that depend on the thread count would fail or pass
# silently by it; so that stops the run.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and any(v not in os.environ for v in _BLAS_VARS):
    raise RuntimeError(
        "numpy was imported before tests/conftest.py pinned BLAS to one thread "
        "(a plugin or startup hook loaded it); set OPENBLAS_NUM_THREADS, "
        "OMP_NUM_THREADS and MKL_NUM_THREADS in the environment, e.g. to 1")
for _var in _BLAS_VARS:
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


# Noise powers of the hover sweeps, W: -100, -80 and -120 dBm.
SWEEP_NOISE = (1e-13, 1e-11, 1e-15)


def hover_sweep(noise):
    """Configs of the hover sweeps at one noise power: D in {2, 5, 15, 30,
    40} m x T in {1, 4, 50, 200} s."""
    for D in (2.0, 5.0, 15.0, 30.0, 40.0):
        for T in (1.0, 4.0, 50.0, 200.0):
            yield benchmark_config(device_distance=D, duration=T, num_slots=10,
                                   noise_power=noise)


@pytest.fixture
def cfg_v():
    return benchmark_config


def hover_positions(x1, x2, n_slots):
    """Raw slot-position array with UAV 1 parked at (x1, 0), UAV 2 at (x2, 0)."""
    pos = np.zeros((2, n_slots, 2))
    pos[0, :, 0] = x1
    pos[1, :, 0] = x2
    return pos
