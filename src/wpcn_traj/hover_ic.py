"""Infinite-horizon hovering solution for the interference-coordination mode.

With an unbounded mission the endpoint and speed constraints vanish and the
optimum decomposes into a charging phase at one symmetric hover pair and an
uplink phase at another, with the charging duration found by a 1-D search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .model import ScenarioConfig


class WitMode(Enum):
    SIMULTANEOUS = "simultaneous"
    TDMA = "tdma"


@dataclass(frozen=True)
class HoverSolutionIC:
    charge_time: float            # total downlink charging duration, s
    wpt_hover_x: float            # charging hovers at (-x, 0) and (x, 0)
    wit_mode: WitMode
    wit_hover_x: float            # uplink hovers at (-x, 0) and (x, 0)
    common_rate: float            # bps/Hz
    harvested_per_device: float   # J


def pair_gain_sum(x, D: float, H: float) -> np.ndarray:
    """Sum of inverse squared distances from a symmetric hover pair at +-x
    to a device on the axis; the common shape of both hover objectives."""
    x = np.asarray(x, dtype=float)
    return 1.0 / ((x - D / 2.0) ** 2 + H**2) + 1.0 / ((x + D / 2.0) ** 2 + H**2)


def interior_hover_x(D: float, H: float) -> float:
    """Interior maximizer of pair_gain_sum, defined for D > 2H/sqrt(3)."""
    u = -(D**2 / 4.0 + H**2) + np.sqrt(D**4 / 4.0 + H**2 * D**2)
    return float(np.sqrt(u))


def _pair_hover_x(cfg: ScenarioConfig) -> float:
    """Offset x of the symmetric hover pair (-x, 0), (x, 0) maximizing
    pair_gain_sum under the separation constraint."""
    D, H = cfg.device_distance, cfg.altitude
    if D <= 2.0 * H / np.sqrt(3.0):
        return cfg.min_separation / 2.0
    return max(interior_hover_x(D, H), cfg.min_separation / 2.0)


def wpt_hover_ic(cfg: ScenarioConfig, tau_E: float) -> tuple[float, float]:
    """Optimal symmetric charging hover offset and the per-device energy.

    The first UAV hovers at (-x, 0) next to the first device, the second at
    (x, 0); both devices harvest the same amount by symmetry.
    """
    x = _pair_hover_x(cfg)
    energy = tau_E * cfg.eh_efficiency * cfg.uav_power * cfg.ref_gain \
        * pair_gain_sum(x, cfg.device_distance, cfg.altitude)
    return x, float(energy)


def simultaneous_rate_at(cfg: ScenarioConfig, tau_E: float, energy: float, x) -> np.ndarray:
    """Common rate when both devices transmit together and each UAV hovers at
    offset |x| beyond its own device (UAV 1 at (-x, 0))."""
    x = np.abs(np.asarray(x, dtype=float))
    D, H = cfg.device_distance, cfg.altitude
    tau_I = cfg.duration - tau_E
    Q = energy / tau_I
    sig = Q * cfg.ref_gain / ((x - D / 2.0) ** 2 + H**2)
    itf = Q * cfg.ref_gain / ((x + D / 2.0) ** 2 + H**2)
    return tau_I / cfg.duration * np.log2(1.0 + sig / (itf + cfg.noise_power))


def _stationarity(x: float, D: float, H: float, snr_scale: float) -> float:
    """Simultaneous-mode hover stationarity residual at symmetric offset x."""
    return (x + D / 2.0) * ((x - D / 2.0) ** 2 + H**2) ** 2 / snr_scale \
        - D * (H**2 + (D / 2.0) ** 2 - x**2)


def wit_mode1_hover(cfg: ScenarioConfig, tau_E: float, energy: float) -> tuple[float, float]:
    """Simultaneous-transmission hover offset and common rate.

    The offset is the root of the stationarity equation inside the bracket
    [max(D/2, dmin/2), max(dmin/2, sqrt((D/2)^2 + H^2))], placed by Brent's
    method to 1e-12 m; when there is no sign change the better bracket
    endpoint is taken.
    """
    D, H = cfg.device_distance, cfg.altitude
    Q = energy / (cfg.duration - tau_E)
    c = cfg.ref_gain * Q / cfg.noise_power
    lo = max(D / 2.0, cfg.min_separation / 2.0)
    hi = max(cfg.min_separation / 2.0, float(np.sqrt((D / 2.0) ** 2 + H**2)))
    if hi - lo >= 1e-12 and _stationarity(lo, D, H, c) * _stationarity(hi, D, H, c) <= 0.0:
        # brentq returns an endpoint where the residual is exactly zero.
        x = float(brentq(_stationarity, lo, hi, args=(D, H, c),
                         xtol=1e-12, rtol=8.9e-16))
    else:  # degenerate bracket or no sign change
        r_lo, r_hi = (float(simultaneous_rate_at(cfg, tau_E, energy, e)) for e in (lo, hi))
        x = lo if r_lo >= r_hi else hi
    return x, float(simultaneous_rate_at(cfg, tau_E, energy, x))


def wit_mode2_rate(cfg: ScenarioConfig, tau_E: float, energy: float) -> float:
    """Common rate when the devices take turns at double power with their UAV
    hovering directly overhead."""
    tau_I = cfg.duration - tau_E
    Q = 2.0 * energy / tau_I
    snr = Q * cfg.ref_gain / (cfg.noise_power * cfg.altitude**2)
    return float(tau_I / (2.0 * cfg.duration) * np.log2(1.0 + snr))


def _rate_at(cfg: ScenarioConfig, tau_E: float) -> tuple[float, WitMode, float, float, float]:
    x_E, energy = wpt_hover_ic(cfg, tau_E)
    x_1, r_st = wit_mode1_hover(cfg, tau_E, energy)
    r_td = wit_mode2_rate(cfg, tau_E, energy)
    if r_st >= r_td:
        return r_st, WitMode.SIMULTANEOUS, x_1, x_E, energy
    return r_td, WitMode.TDMA, cfg.device_distance / 2.0, x_E, energy


def _best_charge_time(rate, T: float, tau_grid: int) -> float:
    """Charging duration maximizing `rate(tau)`: a uniform grid over (0, T)
    (the endpoint tau = T gives zero rate and is excluded), then a bounded
    scalar minimizer around the best cell."""
    if tau_grid < 2:
        raise ValueError("tau_grid must be at least 2")
    step = T / tau_grid
    taus = step * np.arange(1, tau_grid)
    rates = np.array([rate(t) for t in taus])
    best = int(rates.argmax())
    lo = max(taus[best] - step, step * 1e-3)
    hi = min(taus[best] + step, T - step * 1e-3)
    res = minimize_scalar(lambda t: -rate(t), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-10 * T})
    return float(res.x) if -res.fun >= rates[best] else float(taus[best])


def solve_infinite_ic(cfg: ScenarioConfig, tau_grid: int = 1000) -> HoverSolutionIC:
    """Grid-plus-refinement search of the charging duration
    (`_best_charge_time`) for the best of the two uplink modes."""
    tau = _best_charge_time(lambda t: _rate_at(cfg, t)[0], cfg.duration, tau_grid)
    rate, mode, x_I, x_E, energy = _rate_at(cfg, tau)
    return HoverSolutionIC(
        charge_time=tau,
        wpt_hover_x=x_E,
        wit_mode=mode,
        wit_hover_x=x_I,
        common_rate=rate,
        harvested_per_device=energy,
    )
