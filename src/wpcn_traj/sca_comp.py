"""Finite-horizon alternating solver for the joint transmission/reception mode.

This module holds the joint mode's start plans, its warm-start data and its
steps; the alternation loop, its start probe, the start and warm-start
builders, the time LP and the trajectory SCA loop are the ones in `sca_ic`,
shared by both modes.  The mode's rates and harvested energy are those of
its allocation type (`model.AllocationCoMP`): the closed-form bound on the
joint-reception rate, and coherent charging with two charging blocks per
slot, whose powers (`AllocationCoMP.charging_power`, one array for both
devices and blocks) are the time LP's harvest coefficients as they are.
That bound separates across devices, so the power step is one
water-filling per device; and the trajectory subproblem bounds that rate and
the coherent charging power, convex in the squared UAV-device distances, by
tangents in them, assembled by the shared `sca_ic._traj_program`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .hover_comp import HoverSolutionCoMP, solve_infinite_comp
from .model import (AllocationCoMP, ScenarioConfig, Trajectory, _device_dist2,
                    common_throughput)
from .sca_ic import (LOG2E, Initialization, SolveReport, _candidates, _direct_plan, _Mode,
                     _alternate, _no_worse, _power_budgets, _refine_trajectory, _time_lp,
                     _traj_program)


@dataclass(frozen=True)
class SlackState:
    """Channel amplitudes and inverse gains of a trajectory, per (device,
    UAV, slot); `optimize_traj_comp` returns them for its trajectory."""

    amp: np.ndarray       # (2 devices, 2 uavs, N); amp^2 = gain
    inv_gain: np.ndarray  # (2 devices, 2 uavs, N); 1 / (dist^2 + H^2)


def slack_at_equality(cfg: ScenarioConfig, traj) -> SlackState:
    """Amplitudes and inverse gains of a trajectory."""
    inv = 1.0 / (_device_dist2(traj, cfg) + cfg.altitude**2)
    return SlackState(amp=np.sqrt(cfg.ref_gain * inv), inv_gain=inv)


# ---------------------------------------------------------------------------
# Starts
# ---------------------------------------------------------------------------

def _plans_comp(cfg: ScenarioConfig, hover: HoverSolutionCoMP) -> list:
    """The joint mode's start plans (see `sca_ic._feasible_starts`):
    hover-and-fly, visiting in order the first device's charging pair, the
    uplink pair and the second device's charging pair; uplink pair, flying
    straight to the uplink hover pair (-x_I, 0), (x_I, 0) and charging from
    there with all the leftover time, so it never crosses the device span;
    direct flight."""
    x1, x2 = hover.wpt_hover_pair
    m1, m2 = hover.mirror_pair
    xi = hover.wit_hover_x
    tau_e = hover.charge_time
    return [(Initialization.SHF,
             np.array([[[x1, 0.0], [-xi, 0.0], [m1, 0.0]], [[x2, 0.0], [xi, 0.0], [m2, 0.0]]]),
             [tau_e / 2.0, cfg.duration - tau_e, tau_e / 2.0], (0, "uplink", 1)),
            (Initialization.UPLINK_PAIR, np.array([[[-xi, 0.0]], [[xi, 0.0]]]), [1.0], ()),
            _direct_plan()]


def _warm_comp(hover: HoverSolutionCoMP) -> tuple:
    """The joint mode's data of `sca_ic.initial_allocation`: two charging
    blocks, one beam per device, and a simultaneous uplink."""
    return AllocationCoMP, 2, hover.charge_time, False


# ---------------------------------------------------------------------------
# Subproblems
# ---------------------------------------------------------------------------

def optimize_time_comp(cfg: ScenarioConfig, traj, tx_power) -> AllocationCoMP:
    """Exact epigraph LP over beam-time, beam-time and uplink-time."""
    Q = np.asarray(tx_power, dtype=float)
    x = _time_lp(cfg, AllocationCoMP.slot_rates(Q, traj, cfg),
                 AllocationCoMP.charging_power(traj, cfg), Q)
    return AllocationCoMP(x[:2], x[2], Q.copy())


def _water_fill(floors: np.ndarray, weights: np.ndarray, budget: float) -> np.ndarray:
    """Powers q = (L - floors)^+ whose weighted spend sum(weights * q) is
    `budget`, with the level L found exactly by sorting the floors."""
    if budget <= 0.0:
        return np.zeros_like(floors)
    order = np.argsort(floors)
    f, w = floors[order], weights[order]
    # Level that fills exactly the j+1 lowest floors; it stays above f[j]
    # for every j up to the optimal count and not beyond.
    levels = (budget + np.cumsum(w * f)) / np.cumsum(w)
    level = levels[np.count_nonzero(levels > f) - 1]
    return np.maximum(level - floors, 0.0)


def optimize_power_comp(cfg: ScenarioConfig, traj, alloc: AllocationCoMP):
    """Transmit powers of the joint mode in closed form.

    The bound-rate of each device depends on its own powers only, with
    weight 1/T per unit of uplink time on every slot, so the step splits
    into one water-filling per device: on the active slots,
    q_n = (L_k - 1/c_kn)^+ with c_kn the slot's SNR per watt and the level
    L_k set so the device spends its whole budget.

    Returns the powers and the accepted throughputs: [before, after], or the
    incumbent's powers and [before] when the water-fill lowers the throughput
    (by rounding) or no slot has uplink time."""
    uplink = alloc.uplink_time
    active = np.flatnonzero(uplink > 1e-12 * cfg.slot_duration)
    Q = alloc.tx_power.copy()
    before = common_throughput(alloc, traj, cfg)
    if active.size == 0:
        return Q, [before]
    d2 = _device_dist2(traj, cfg)
    csnr = 0.5 * cfg.ref_gain / cfg.noise_power * (1.0 / (d2 + cfg.altitude**2)).sum(axis=1)
    budgets = _power_budgets(cfg, alloc, traj, active)
    for k in range(2):
        Q[k, active] = _water_fill(1.0 / csnr[k, active], uplink[active], budgets[k])
    after = common_throughput(replace(alloc, tx_power=Q), traj, cfg)
    return (Q, [before, after]) if _no_worse(after, before) else (alloc.tx_power.copy(), [before])


def _traj_subproblem_comp(cfg: ScenarioConfig, alloc: AllocationCoMP, ref: np.ndarray):
    """`_traj_program` of the joint mode at the reference `ref`.

    The bound rate log2(1 + c sum_m a_m^2) and the coherent charging power
    b0 (sum_m a_m)^2, with a_m = (H^2 + u_m)^(-1/2) and u_m the squared
    distance from UAV m to the device, are convex and decreasing in the u_m,
    so their tangents in the u_m (`_distance_tangent`) are global concave
    lower bounds."""
    b0 = cfg.ref_gain
    beam, uplink, Q = alloc.beam_time, alloc.uplink_time, alloc.tx_power
    slots = np.arange(cfg.num_slots)
    at_ref = slack_at_equality(cfg, ref[:, 1:, :])   # inv_gain = a^2

    # Rate rows: the rate at `ref` minus the value there of sum coef * a^2,
    # with coef the rate's slope in a^2, plus that sum's tangent.
    wt = uplink / cfg.duration
    rates = []
    for k in range(2):
        c = Q[k] * b0 / (2.0 * cfg.noise_power)
        gain = at_ref.inv_gain[k].sum(axis=0)
        coef = wt * LOG2E * c / (1.0 + c * gain)
        rates.append((float((wt * np.log2(1.0 + c * gain)).sum()) - float((coef * gain).sum()),
                      (coef, [0, 1], [k], slots), ()))

    # Energy rows: with coef = eta P b0 (leaked beam time + own beam time *
    # sum_m a_m / a_m), sum coef * a^2 has the harvested energy's value and
    # slope at `ref` (the amplitudes sqrt(b0) a give the same ratio).
    eta_p, amp = cfg.eh_efficiency * cfg.uav_power, at_ref.amp
    harvests = [((eta_p * b0 * (beam[1 - k] + beam[k] * amp[k].sum(axis=0) / amp[k]))[:, None, :],
                 [0, 1], [k], slots) for k in range(2)]
    return _traj_program(cfg, alloc, ref, rates, harvests)


def optimize_traj_comp(cfg: ScenarioConfig, alloc: AllocationCoMP, traj: Trajectory):
    """Iterative concave maximization of both UAV trajectories (see
    `_refine_trajectory`).  Returns the trajectory, its amplitudes and
    inverse gains (`slack_at_equality`) and the accepted throughputs."""
    traj, trace = _refine_trajectory(cfg, alloc, traj,
                                     lambda pos: _traj_subproblem_comp(cfg, alloc, pos))
    return traj, slack_at_equality(cfg, traj), trace


# ---------------------------------------------------------------------------
# Complete alternating solver
# ---------------------------------------------------------------------------

def _comp_mode() -> _Mode:
    return _Mode(
        time_step=optimize_time_comp,
        power_step=optimize_power_comp,
        traj_step=lambda cfg, alloc, traj: optimize_traj_comp(cfg, alloc, traj)[0])


def solve_p21(cfg: ScenarioConfig, hover: HoverSolutionCoMP | None = None) -> SolveReport:
    """Alternating time / power / trajectory optimization of the joint mode.

    Initialized from the hover-and-fly plan, the uplink-pair plan or direct
    flight, whichever the start probe ranks best.  The hover-and-fly plan
    crosses the whole device span twice, so it only pays off once the
    mission leaves enough hovering time; below that the uplink-pair plan,
    which charges from the uplink hover pair, wins.  A plan whose
    synchronized flight breaches the separation falls back to the staggered
    schedule (one UAV flies while the other holds); a mission that no plan
    fits raises ConfigError."""
    t0 = time.perf_counter()
    if hover is None:
        hover = solve_infinite_comp(cfg)
    return _alternate(cfg, _comp_mode(),
                      _candidates(cfg, _plans_comp(cfg, hover), _warm_comp(hover)), t0)


def solve_p21_direct(cfg: ScenarioConfig, hover: HoverSolutionCoMP | None = None) -> SolveReport:
    """Benchmark: fixed direct flight (`direct_flight_trajectory`: straight
    lines, or the staggered schedule when those breach the separation;
    ConfigError when neither fits), only time and power optimized."""
    t0 = time.perf_counter()
    if hover is None:
        hover = solve_infinite_comp(cfg)
    return _alternate(cfg, replace(_comp_mode(), traj_step=None),
                      _candidates(cfg, [_direct_plan()], _warm_comp(hover)), t0)
