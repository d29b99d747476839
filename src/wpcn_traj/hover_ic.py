"""Infinite-horizon hovering solution for the interference-coordination mode.

With an unbounded mission the endpoint and speed constraints vanish and the
optimum decomposes into a charging phase at one symmetric hover pair and an
uplink phase at another, with the charging duration found by a 1-D search:
the whole charging-time grid is evaluated in one array pass (`_rate_grid`),
and the scalar path (`_rate_at`) refines around the best cell and gives the
returned solution.

The scalar path's two 1-D methods are Brent's (Algorithms for Minimization
without Derivatives, 1973, ch. 4-5) as package code that takes scipy's
iterates, so no `scipy.optimize` is imported: the hover offset's root
(`_brent_root`, as `brentq`) and the charging time's bounded refinement
(`_brent_bounded_min`, as `minimize_scalar(method="bounded")`).
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
    sig = Q * cfg.ref_gain / ((x - D / 2.0) ** 2 + H**2)
    itf = Q * cfg.ref_gain / ((x + D / 2.0) ** 2 + H**2)
    return tau_I / cfg.duration * np.log2(1.0 + sig / (itf + cfg.noise_power))


def _stationarity(x: float, D: float, H: float, snr_scale: float) -> float:
    """Simultaneous-mode hover stationarity residual at symmetric offset x."""
    return (x + D / 2.0) * ((x - D / 2.0) ** 2 + H**2) ** 2 / snr_scale \
        - D * (H**2 + (D / 2.0) ** 2 - x**2)


def _mode1_bracket(cfg: ScenarioConfig) -> tuple[float, float]:
    """Bracket [max(D/2, dmin/2), max(dmin/2, sqrt((D/2)^2 + H^2))] of the
    simultaneous-transmission hover offset."""
    D, H = cfg.device_distance, cfg.altitude
    lo = max(D / 2.0, cfg.min_separation / 2.0)
    hi = max(cfg.min_separation / 2.0, float(np.sqrt((D / 2.0) ** 2 + H**2)))
    return lo, hi


def _stationarity_ends(cfg: ScenarioConfig, tau_E, energy):
    """Scale c of `_stationarity` and its residuals f_lo, f_hi at the ends of
    `_mode1_bracket`, and whether the bracket holds a root: a sign change
    over a bracket at least 1e-12 m wide.  Scalars or arrays of tau_E."""
    D, H = cfg.device_distance, cfg.altitude
    c = cfg.ref_gain * (energy / (cfg.duration - tau_E)) / cfg.noise_power
    lo, hi = _mode1_bracket(cfg)
    f_lo, f_hi = _stationarity(lo, D, H, c), _stationarity(hi, D, H, c)
    return c, f_lo, f_hi, (f_lo * f_hi <= 0.0) & (hi - lo >= 1e-12)


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
    of `_mode1_bracket`, placed by the Brent-Dekker method (`_brent_root`)
    to 1e-12 m; when there is no root (`_stationarity_ends`) the better
    bracket end is taken (`_endpoint_x`).
    """
    c, _, _, root = _stationarity_ends(cfg, tau_E, energy)
    if root:
        D, H, c = cfg.device_distance, cfg.altitude, float(c)
        x = _brent_root(lambda x: _stationarity(x, D, H, c), *_mode1_bracket(cfg),
                        xtol=1e-12, rtol=8.9e-16)
    else:
        x = float(_endpoint_x(cfg, tau_E, energy))
    return x, float(simultaneous_rate_at(cfg, tau_E, energy, x))


def _brent_root(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Zero of f between xa and xb by the Brent-Dekker method, iterate for
    iterate as scipy's `brentq` (C `brentq.c`): to a bracket half-width of
    (xtol + rtol*|x|)/2, an exact zero at an end returning that end.  Ends
    of one sign or a NaN residual raise ValueError, and 100 iterations
    without convergence RuntimeError, as in brentq."""
    def residual(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the residual at x={x} is NaN")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = residual(xpre), residual(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("the residuals at the ends must differ in sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):  # a new bracket [xpre, xcur]
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):     # keep the smaller residual at xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:          # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                     # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:                         # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = residual(xcur)
    raise RuntimeError("no convergence in 100 iterations")


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

    The root test, the endpoint rule and the mode choice are the scalar
    path's own helpers over arrays; only the root is placed differently:
    all bracketed offsets by one bisection to 1e-12 m.  Bisection and
    `_brent_root` place an offset up to ~1e-12 m apart, so those cells'
    rates may differ from the scalar path's in the last digits (~1e-14
    relative); every other cell takes the same operations.  The grid only
    picks the best cell: the scalar path gives every returned value."""
    energy = _harvested(cfg, taus, _pair_hover_x(cfg))
    c, f_lo, f_hi, root = _stationarity_ends(cfg, taus, energy)
    x = _endpoint_x(cfg, taus, energy)
    if root.any():
        x[root] = _bisect_stationarity(*_mode1_bracket(cfg), cfg.device_distance,
                                       cfg.altitude, c[root], f_lo[root], f_hi[root])
    return _best_mode(simultaneous_rate_at(cfg, taus, energy, x),
                      _tdma_rate(cfg, taus, energy))[0]


def _bisect_stationarity(lo: float, hi: float, D: float, H: float, c: np.ndarray,
                         f_lo: np.ndarray, f_hi: np.ndarray) -> np.ndarray:
    """Root of `_stationarity` on [lo, hi] for each scale in c, whose
    residuals f_lo, f_hi at the ends differ in sign, by bisection to 1e-12 m.
    An exact zero at an end is the root there, as `_brent_root` returns it."""
    a, b = np.full(c.shape, lo), np.full(c.shape, hi)
    for _ in range(int(np.ceil(np.log2((hi - lo) / 1e-12)))):
        mid = 0.5 * (a + b)
        up = (_stationarity(mid, D, H, c) > 0.0) == (f_lo > 0.0)  # root above mid
        a = np.where(up, mid, a)
        b = np.where(up, b, mid)
    return np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, 0.5 * (a + b)))


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
