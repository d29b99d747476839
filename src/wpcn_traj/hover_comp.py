"""Infinite-horizon hovering solution for the joint transmission/reception mode.

Charging happens in two mirrored phases, one aimed at each device, with the
hover pair found by a 2-D exhaustive search; the uplink hover pair has the
same closed form as the coordination mode and sits between the devices.
The charging-time grid of the bound rate is evaluated in one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ScenarioConfig
from .hover_ic import _best_charge_time, _pair_hover_x, pair_gain_sum

# Steps of the coarse charging-pair grid and of the refinement around its
# optimum, m.
GRID_STEP = 0.25
REFINE_STEP = 0.01


class EmptyFeasibleGrid(RuntimeError):
    """Hover grid has no pair satisfying the separation constraint."""


@dataclass(frozen=True)
class HoverSolutionCoMP:
    charge_time: float             # total charging duration, split equally per device
    wpt_hover_pair: tuple          # (x1, x2) during the first device's phase
    wit_hover_x: float             # uplink hovers at (-x, 0) and (x, 0)
    tx_power: float                # common device transmit power, W
    common_rate: float             # bps/Hz (bound-rate objective)
    harvested_per_device: float    # J

    @property
    def mirror_pair(self) -> tuple:
        """Hover pair during the second device's phase."""
        x1, x2 = self.wpt_hover_pair
        return (-x2, -x1)


def charge_pair_power(x1, x2, cfg: ScenarioConfig) -> np.ndarray:
    """Received power sum delivered by hovering at (x1, 0), (x2, 0) while
    phase-aligned to the first device: coherent power there plus the
    non-coherent leakage at the second device."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    D, H, b0 = cfg.device_distance, cfg.altitude, cfg.ref_gain
    g1 = b0 / ((x1 + D / 2.0) ** 2 + H**2), b0 / ((x2 + D / 2.0) ** 2 + H**2)
    g2 = b0 / ((x1 - D / 2.0) ** 2 + H**2), b0 / ((x2 - D / 2.0) ** 2 + H**2)
    coherent = (np.sqrt(g1[0]) + np.sqrt(g1[1])) ** 2
    leakage = g2[0] + g2[1]
    return cfg.eh_efficiency * cfg.uav_power * (coherent + leakage)


def _best_pair_on(xs1: np.ndarray, xs2: np.ndarray, cfg: ScenarioConfig):
    X1, X2 = np.meshgrid(xs1, xs2, indexing="ij")
    keep = (X2 - X1) >= cfg.min_separation  # canonical order: UAV 1 left
    if not keep.any():
        raise EmptyFeasibleGrid("no hover pair satisfies min_separation")
    val = np.where(keep, charge_pair_power(X1, X2, cfg), -np.inf)
    i, j = np.unravel_index(int(val.argmax()), val.shape)
    return float(X1[i, j]), float(X2[i, j]), float(val[i, j])


def wpt_hover_comp(cfg: ScenarioConfig, tau_E_total: float):
    """Exhaustive-search charging hover pair and the per-device energy.

    Searches the box [-s, s]^2, s = D/2 + max(H, d_min), under the separation
    constraint with a coarse grid of step GRID_STEP, then refines locally
    with step REFINE_STEP; the half-width covers a pair d_min apart however
    short the device span and the altitude are.  The second charging phase
    is the mirror image, so both devices harvest the same energy.
    """
    span = cfg.device_distance / 2.0 + max(cfg.altitude, cfg.min_separation)
    coarse = np.arange(-span, span + GRID_STEP / 2.0, GRID_STEP)
    x1, x2, _ = _best_pair_on(coarse, coarse, cfg)
    fine1, fine2 = (np.clip(np.arange(x - GRID_STEP, x + GRID_STEP + REFINE_STEP / 2.0,
                                      REFINE_STEP), -span, span) for x in (x1, x2))
    x1, x2, best = _best_pair_on(fine1, fine2, cfg)
    energy = tau_E_total / 2.0 * best
    return (x1, x2), float(energy)


def wit_hover_comp(cfg: ScenarioConfig) -> float:
    """Closed-form uplink hover offset: the charging hover offset of the
    coordination mode."""
    return _pair_hover_x(cfg)


def bound_rate_at(cfg: ScenarioConfig, tau_E: float, energy: float, x_I: float) -> float:
    """Common bound-rate when both devices transmit at full power toward the
    symmetric uplink hover pair at +-x_I."""
    return float(_bound_rate(cfg, tau_E, energy, x_I))


def _bound_rate(cfg: ScenarioConfig, tau_E, energy, x_I: float) -> np.ndarray:
    """`bound_rate_at` over arrays of charging times and energies."""
    tau_I = cfg.duration - tau_E
    Q = energy / tau_I
    snr = 0.5 * Q * cfg.ref_gain / cfg.noise_power * pair_gain_sum(x_I, cfg.device_distance,
                                                                   cfg.altitude)
    return tau_I / cfg.duration * np.log2(1.0 + snr)


def solve_infinite_comp(cfg: ScenarioConfig, tau_grid: int = 400) -> HoverSolutionCoMP:
    """1-D search of the charging duration (`_best_charge_time`) on top of
    the 2-D hover search.

    The charging objective scales linearly with the charging time, so the 2-D
    hover search runs once and its per-second yield is reused on the grid,
    which is evaluated in one array pass.
    """
    T = cfg.duration
    pair, e_unit = wpt_hover_comp(cfg, 1.0)
    x_I = wit_hover_comp(cfg)

    def rate(tau: float) -> float:
        return bound_rate_at(cfg, tau, e_unit * tau, x_I)

    tau = _best_charge_time(lambda taus: _bound_rate(cfg, taus, e_unit * taus, x_I),
                            rate, T, tau_grid)
    energy = e_unit * tau
    return HoverSolutionCoMP(
        charge_time=tau,
        wpt_hover_pair=pair,
        wit_hover_x=x_I,
        tx_power=energy / (T - tau),
        common_rate=rate(tau),
        harvested_per_device=energy,
    )
