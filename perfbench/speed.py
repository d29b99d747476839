"""Machine-speed probe for the timing metrics.

On a shared host the same solve runs up to ~1.9x slower while a neighbour is
busy, in spells from a fraction of a second to minutes; CPU time moves with
wall time, so the process is slowed, not descheduled.  Run medians of raw
wall time moved by up to 55% between identical runs.

`SpeedProbe` times two fixed units of work from a SIGALRM handler every
`INTERVAL_S` of wall time, so the machine's speed is sampled while each op
runs.  The small unit (20x20 solves and interpreter arithmetic) stays in the
first-level caches, like the small problems of the coordination power step;
the large one (a 400x160 Gram matrix and its Cholesky factor, ~0.5 MB) moves
data the way the dense Newton steps of the time LP and the trajectory step
do.  Contention slows the two by different factors, and the solver's ops sit
in between: with a neighbour busy, per-op times of repeated identical solves
varied by 20% (coefficient of variation), by 5% after scaling with the small
unit alone and by 3-6% after scaling with the geometric mean of both.  A
sample is that geometric mean, each unit's time over its time on the
uncontended build host.  The handler runs each unit once untimed first:
right after the op evicted it, a unit is ~1.5x slower, by an amount that
would depend on the op's own memory traffic.  `normalise` removes the
handler's time from an op and divides the rest by the trimmed mean sample
around the op: the op's time on the uncontended machine.  The handler
touches no solver state, so results stay bit-identical (the traced run
checks this).
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# Unit times on the uncontended build host (2-vCPU Intel Xeon VM, one BLAS thread).
REF_SMALL_S = 1.6e-4
REF_LARGE_S = 5.8e-4
# Ops shorter than this borrow the samples of a window this long around them.
MIN_WINDOW_S = 0.5

_RNG = np.random.default_rng(0)
_A = _RNG.random((20, 20))
_M = _A @ _A.T + 20.0 * np.eye(20)
_V = _RNG.random((12, 20))
_G = _RNG.random((400, 160))


def _small() -> float:
    acc = 0.0
    for v in _V:
        x = np.linalg.solve(_M, v)
        acc += float(x @ x)
    return acc + sum(j * 0.5 for j in range(240))


def _large() -> float:
    H = _G.T @ _G
    H[np.diag_indices_from(H)] += 1.0
    return float(np.linalg.cholesky(H)[-1, -1])


def _timed(unit) -> float:
    unit()  # warm-up: the op just evicted the unit's code and data
    t0 = time.perf_counter()
    unit()
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager sampling the slowdown factor while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []      # whole handler time, taken from the op
        self.factors: list[float] = []    # slowdown, the speed sample
        self.errors = 0
        self._previous = None

    def _handler(self, signum, frame):
        try:
            start = time.perf_counter()
            factor = math.sqrt(_timed(_small) / REF_SMALL_S * _timed(_large) / REF_LARGE_S)
            self.starts.append(start)
            self.factors.append(factor)
            self.costs.append(time.perf_counter() - start)
        except Exception:  # never let the probe raise into the op it interrupted
            self.errors += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalise(self, t0: float, t1: float) -> float:
        """Op time on the reference machine for an op that ran in [t0, t1]."""
        starts = np.asarray(self.starts)
        factors = np.asarray(self.factors)
        inside = (starts >= t0) & (starts < t1)
        net = (t1 - t0) - float(np.asarray(self.costs)[inside].sum())
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2.0)
        window = np.sort(factors[(starts >= t0 - pad) & (starts < t1 + pad)])
        if window.size == 0:
            window = np.sort(factors)
        if window.size == 0:
            return net
        cut = window.size // 10
        trimmed = window[cut:window.size - cut] if window.size > 2 * cut else window
        return net / float(trimmed.mean())

    def summary(self) -> dict:
        d = np.asarray(self.factors)
        if d.size == 0:
            return {"samples": 0, "errors": self.errors}
        return {"samples": int(d.size), "errors": self.errors,
                "slowdown_p05": float(np.quantile(d, 0.05)),
                "slowdown_p50": float(np.median(d)), "slowdown_p95": float(np.quantile(d, 0.95))}
