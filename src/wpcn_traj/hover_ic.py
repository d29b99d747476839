"""Infinite-horizon hovering solution for the interference-coordination mode.

With an unbounded mission the endpoint and speed constraints vanish and the
optimum decomposes into a charging phase at one symmetric hover pair and an
uplink phase at another, with the charging duration found by a 1-D search:
the whole charging-time grid is evaluated in one array pass (`_rate_grid`),
and the scalar path (`_rate_at`) refines around the best cell and gives the
returned solution.

Both paths place the simultaneous-uplink hover offset with the one Newton
root (`_stationarity_root`), so the grid equals the scalar path bit for
bit.  Offsets are squared by `np.square`, not `** 2`: numpy squares a
scalar with the C library's `pow`, which differs from x*x in the last bit
for about one value in a thousand.  The charging time's bounded refinement
is Brent's method (Algorithms for Minimization without Derivatives, 1973,
ch. 5) as package code that takes scipy's iterates (`_brent_bounded_min`,
as `minimize_scalar(method="bounded")`), so no `scipy.optimize` is
imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
    return x, float(_harvested(cfg, tau_E, x))


def _harvested(cfg: ScenarioConfig, tau_E, x: float) -> np.ndarray:
    """Per-device energy over charging time(s) tau_E from the pair at +-x."""
    return tau_E * cfg.eh_efficiency * cfg.uav_power * cfg.ref_gain \
        * pair_gain_sum(x, cfg.device_distance, cfg.altitude)


def simultaneous_rate_at(cfg: ScenarioConfig, tau_E: float, energy: float, x) -> np.ndarray:
    """Common rate when both devices transmit together and each UAV hovers at
    offset |x| beyond its own device (UAV 1 at (-x, 0))."""
    x = np.abs(np.asarray(x, dtype=float))
    D, H = cfg.device_distance, cfg.altitude
    tau_I = cfg.duration - tau_E
    Q = energy / tau_I
    sig = Q * cfg.ref_gain / (np.square(x - D / 2.0) + H**2)
    itf = Q * cfg.ref_gain / (np.square(x + D / 2.0) + H**2)
    return tau_I / cfg.duration * np.log2(1.0 + sig / (itf + cfg.noise_power))


def _stationarity(x: float, D: float, H: float, snr_scale: float) -> float:
    """Simultaneous-mode hover stationarity residual at symmetric offset x."""
    return (x + D / 2.0) * np.square(np.square(x - D / 2.0) + H**2) / snr_scale \
        - D * (H**2 + (D / 2.0) ** 2 - np.square(x))


def _mode1_bracket(cfg: ScenarioConfig) -> tuple[float, float]:
    """Bracket [max(D/2, dmin/2), max(dmin/2, sqrt((D/2)^2 + H^2))] of the
    simultaneous-transmission hover offset."""
    D, H = cfg.device_distance, cfg.altitude
    lo = max(D / 2.0, cfg.min_separation / 2.0)
    hi = max(cfg.min_separation / 2.0, float(np.sqrt((D / 2.0) ** 2 + H**2)))
    return lo, hi


def _stationarity_ends(cfg: ScenarioConfig, tau_E, energy):
    """Scale c of `_stationarity`, and whether `_mode1_bracket` holds a
    root: a sign change of the residual over a bracket at least 1e-12 m
    wide.  Scalars or arrays of tau_E."""
    D, H = cfg.device_distance, cfg.altitude
    c = cfg.ref_gain * (energy / (cfg.duration - tau_E)) / cfg.noise_power
    lo, hi = _mode1_bracket(cfg)
    f_lo, f_hi = _stationarity(lo, D, H, c), _stationarity(hi, D, H, c)
    return c, (f_lo * f_hi <= 0.0) & (hi - lo >= 1e-12)


def _stationarity_root(cfg: ScenarioConfig, c):
    """Root of `_stationarity` in `_mode1_bracket` for a scale c or an array
    of scales, each bracket holding a root (`_stationarity_ends`).

    On x >= D/2 the residual is increasing and convex, so Newton's method
    from the upper end decreases monotonically to the root and never passes
    it (Fourier's condition; Ortega & Rheinboldt, 1970); it stops once no
    offset moves left.  Each offset takes the same operations alone or in
    an array."""
    D, H = cfg.device_distance, cfg.altitude
    x = np.full(np.shape(c), _mode1_bracket(cfg)[1])
    while True:
        a = np.square(x - D / 2.0) + H**2
        slope = a * (a + 4.0 * (x + D / 2.0) * (x - D / 2.0)) / c + 2.0 * D * x
        step = x - _stationarity(x, D, H, c) / slope
        left = step < x
        if not left.any():
            return x
        x = np.where(left, step, x)


def _endpoint_x(cfg: ScenarioConfig, tau_E, energy) -> np.ndarray:
    """End of `_mode1_bracket` with the better simultaneous rate (the lower
    end on a tie): the offset taken where the bracket holds no root."""
    lo, hi = _mode1_bracket(cfg)
    return np.where(simultaneous_rate_at(cfg, tau_E, energy, lo)
                    >= simultaneous_rate_at(cfg, tau_E, energy, hi), lo, hi)


def _best_mode(r_st, r_td) -> tuple[np.ndarray, np.ndarray]:
    """The better of the simultaneous and TDMA rates, and where the
    simultaneous mode is taken (on a tie too)."""
    simultaneous = r_st >= r_td
    return np.where(simultaneous, r_st, r_td), simultaneous


def wit_mode1_hover(cfg: ScenarioConfig, tau_E: float, energy: float) -> tuple[float, float]:
    """Simultaneous-transmission hover offset and common rate.

    The offset is the root of the stationarity equation inside the bracket
    of `_mode1_bracket` (`_stationarity_root`); when there is no root
    (`_stationarity_ends`) the better bracket end is taken (`_endpoint_x`).
    """
    c, root = _stationarity_ends(cfg, tau_E, energy)
    x = float(_stationarity_root(cfg, c) if root else _endpoint_x(cfg, tau_E, energy))
    return x, float(simultaneous_rate_at(cfg, tau_E, energy, x))


def wit_mode2_rate(cfg: ScenarioConfig, tau_E: float, energy: float) -> float:
    """Common rate when the devices take turns at double power with their UAV
    hovering directly overhead."""
    return float(_tdma_rate(cfg, tau_E, energy))


def _tdma_rate(cfg: ScenarioConfig, tau_E, energy) -> np.ndarray:
    tau_I = cfg.duration - tau_E
    Q = 2.0 * energy / tau_I
    snr = Q * cfg.ref_gain / (cfg.noise_power * cfg.altitude**2)
    return tau_I / (2.0 * cfg.duration) * np.log2(1.0 + snr)


def _rate_at(cfg: ScenarioConfig, tau_E: float) -> tuple[float, WitMode, float, float, float]:
    x_E, energy = wpt_hover_ic(cfg, tau_E)
    x_1, r_st = wit_mode1_hover(cfg, tau_E, energy)
    rate, simultaneous = _best_mode(r_st, wit_mode2_rate(cfg, tau_E, energy))
    if simultaneous:
        return float(rate), WitMode.SIMULTANEOUS, x_1, x_E, energy
    return float(rate), WitMode.TDMA, cfg.device_distance / 2.0, x_E, energy


def _rate_grid(cfg: ScenarioConfig, taus: np.ndarray) -> np.ndarray:
    """`_rate_at(cfg, tau)[0]` at every tau of `taus` in one array pass.

    The root test, the root, the endpoint rule and the mode choice are the
    scalar path's own helpers over arrays, so every cell equals the scalar
    path's rate bit for bit.  The grid only picks the best cell: the scalar
    path gives every returned value."""
    energy = _harvested(cfg, taus, _pair_hover_x(cfg))
    c, root = _stationarity_ends(cfg, taus, energy)
    x = _endpoint_x(cfg, taus, energy)
    if root.any():
        x[root] = _stationarity_root(cfg, c[root])
    return _best_mode(simultaneous_rate_at(cfg, taus, energy, x),
                      _tdma_rate(cfg, taus, energy))[0]


def _best_charge_time(grid, rate, T: float, tau_grid: int) -> float:
    """Charging duration maximizing `rate(tau)`: the best cell of a uniform
    grid over (0, T) (the endpoint tau = T gives zero rate and is excluded),
    picked by `grid(taus)`, the same rate over an array, then Brent's
    bounded minimizer of -`rate` (`_brent_bounded_min`) over the cell's two
    neighbours, to 1e-10*T.  The refined point is kept only if `rate` there
    is at least `rate` at the cell."""
    if tau_grid < 2:
        raise ValueError("tau_grid must be at least 2")
    step = T / tau_grid
    taus = step * np.arange(1, tau_grid)
    best = float(taus[int(np.argmax(grid(taus)))])
    lo = max(best - step, step * 1e-3)
    hi = min(best + step, T - step * 1e-3)
    x, f = _brent_bounded_min(lambda t: -rate(t), lo, hi, 1e-10 * T)
    return x if -f >= rate(best) else best


def _brent_bounded_min(f, a: float, b: float, xatol: float) -> tuple[float, float]:
    """Minimizer of f on [a, b] and f there, by Brent's bounded method
    (golden sections and parabolic steps), iterate for iterate as scipy's
    `minimize_scalar(method="bounded")` takes it (`_minimize_scalar_bounded`):
    converged when x is within 2*tol1 - (b - a)/2 of the interval's middle,
    tol1 = sqrt(2.2e-16)*|x| + xatol/3, or after 500 evaluations."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = ffulc = fnfc = f(xf)
    for _ in range(499):              # 500 evaluations in all, as in scipy
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:             # try a parabola through the last three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (max(abs(rat), tol1) if rat >= 0.0 else -max(abs(rat), tol1))
        fu = f(x)
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    return xf, fx


def solve_infinite_ic(cfg: ScenarioConfig, tau_grid: int = 400) -> HoverSolutionIC:
    """Grid-plus-refinement search of the charging duration
    (`_best_charge_time`) for the best of the two uplink modes."""
    tau = _best_charge_time(lambda taus: _rate_grid(cfg, taus),
                            lambda t: _rate_at(cfg, t)[0], cfg.duration, tau_grid)
    rate, mode, x_I, x_E, energy = _rate_at(cfg, tau)
    return HoverSolutionIC(
        charge_time=tau,
        wpt_hover_x=x_E,
        wit_mode=mode,
        wit_hover_x=x_I,
        common_rate=rate,
        harvested_per_device=energy,
    )
