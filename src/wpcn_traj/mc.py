"""Monte-Carlo ground truth for the stochastic joint-reception quantities.

The deterministic model works with channel magnitudes and expectations only;
this module samples the random channel phases to estimate the expected
zero-forcing uplink rate.  Estimates are reproducible per seed (fixed
reduction order).  The sampler forms the phase, its cosine and |det M|^2 in
one buffer, and each device's rates as one contiguous array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ScenarioConfig, gain_matrix


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


def sample_zf_rate(cfg: ScenarioConfig, uav_positions, tx_power, samples: int, seed: int):
    """Expected zero-forcing uplink rate of each device, estimated by sampling
    the channel phases theta[device, uav].

    Both devices transmit at once; the receivers invert the 2x2 channel
    matrix M (rows renormalized to unit norm), which nulls the other device
    exactly.  By the adjugate, device k's SNR is then
    Q_k |det M|^2 / (sigma^2 (g_o1 + g_o2)), g_o being the other device's
    gains, with |det M|^2 = g11 g22 + g12 g21 - 2 sqrt(g11 g22 g12 g21) cos phi
    and phi = theta11 + theta22 - theta12 - theta21.  Returns one McEstimate
    per device.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    pos = np.asarray(uav_positions, dtype=float)
    Q = np.asarray(tx_power, dtype=float)
    if pos.shape != (2, 2) or Q.shape != (2,):
        raise ValueError("uav_positions must have shape (2, 2) and tx_power shape (2,)")
    rng = np.random.default_rng(seed)
    g = gain_matrix(pos, cfg)  # (device, uav)
    # theta[device, uav] flattened per sample: 00, 01, 10, 11.
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(samples, 4))
    det2 = theta[:, 0] + theta[:, 3]                # phi, then cos phi, then |det M|^2
    det2 -= theta[:, 1]
    det2 -= theta[:, 2]
    np.cos(det2, out=det2)
    direct, cross = g[0, 0] * g[1, 1], g[0, 1] * g[1, 0]
    det2 *= 2.0 * np.sqrt(direct * cross)
    np.subtract(direct + cross, det2, out=det2)
    scale = cfg.noise_power * g[::-1].sum(axis=1)
    out = []
    for k in range(2):
        rates = det2 * Q[k]
        rates /= scale[k]
        rates += 1.0
        out.append(_estimate(np.log2(rates, out=rates), seed))
    return tuple(out)
