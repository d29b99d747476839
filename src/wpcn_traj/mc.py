"""Monte-Carlo ground truth for the stochastic joint-reception quantities.

The deterministic model works with channel magnitudes and expectations only;
this module samples the random channel phases to estimate the expected
zero-forcing uplink rate.  Estimates are reproducible per seed (fixed
reduction order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ScenarioConfig, channel_gain

# Largest condition number of an accepted channel draw.
MAX_COND = 1e12


class SingularChannel(RuntimeError):
    """Persistent ill-conditioned channel draws (probability-zero geometry)."""


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


def _estimate(values: np.ndarray, seed: int) -> McEstimate:
    n = values.size
    if n > 1 and values.min() < values.max():
        se = float(values.std(ddof=1) / np.sqrt(n))
    else:
        se = 0.0  # identical samples: zero variance exactly
    return McEstimate(mean=float(values.mean()), stderr=se, samples=n, seed=seed)


def _gains(cfg: ScenarioConfig, uav_positions, gain_override) -> np.ndarray:
    if gain_override is not None:
        g = np.asarray(gain_override, dtype=float)
        if g.shape != (2, 2):
            raise ValueError("gain_override must be a (device, uav) 2x2 array")
        return g
    pos = np.asarray(uav_positions, dtype=float)
    return np.stack([channel_gain(pos, cfg.device_positions[k], cfg) for k in range(2)])


def sample_zf_rate(cfg: ScenarioConfig, uav_positions, tx_power, samples: int,
                   seed: int, gain_override=None):
    """Expected zero-forcing uplink rate of each device, estimated by sampling
    the channel phases.

    Both devices transmit at once; the receivers invert the 2x2 channel
    matrix (rows renormalized to unit norm), which nulls the other device
    exactly.  Draws whose matrix condition number exceeds MAX_COND are
    rejected and resampled.  Returns one McEstimate per device.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    g = _gains(cfg, uav_positions, gain_override)
    amp = np.sqrt(g)  # (device, uav)
    Q = np.asarray(tx_power, dtype=float)

    inv_row_norm2 = np.empty((samples, 2))
    pending = np.arange(samples)
    for _round in range(64):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(pending.size, 2, 2))
        # Channel matrix rows = UAVs, columns = devices.
        M = (amp.T[None, :, :] * np.exp(1j * theta.transpose(0, 2, 1)))
        cond = np.linalg.cond(M)
        ok = cond <= MAX_COND
        if ok.any():
            idx = pending[ok]
            Minv = np.linalg.inv(M[ok])
            inv_row_norm2[idx] = 1.0 / (np.abs(Minv) ** 2).sum(axis=2)
        pending = pending[~ok]
        if pending.size == 0:
            break
    else:
        raise SingularChannel("channel draws persistently exceed the condition cap")

    rates = np.log2(1.0 + Q[None, :] * inv_row_norm2 / cfg.noise_power)
    return tuple(_estimate(rates[:, k], seed) for k in range(2))
