"""Finite-horizon alternating solver for the joint transmission/reception mode.

This module holds the joint mode's starts and steps; the alternation loop,
its start probe, the time LP and the trajectory SCA loop are the ones in
`sca_ic`, shared by both modes.  The joint mode differs in three
places: the throughput objective uses the closed-form bound on the
joint-reception rate; that bound separates across devices, so the power step
is one water-filling per device; and the trajectory subproblem bounds that
rate and the coherent charging power, convex in the squared UAV-device
distances, by tangents in them, assembled by the shared `sca_ic._traj_program`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .hover_comp import HoverSolutionCoMP, solve_infinite_comp
from .model import (AllocationCoMP, ScenarioConfig, Trajectory, _device_dist2,
                    _positions_of, common_throughput_comp,
                    comp_coherent_power, comp_noncoherent_power,
                    comp_rate_upper_bound, harvested_energy_comp)
from .sca_ic import (LOG2E, TAU_GRID, Initialization, SolveReport, _Mode, _alternate,
                     _direct_start, _feasible_plan, _leg_time, _no_worse, _power_budgets,
                     _refine_trajectory, _sample_paths, _time_lp, _traj_program,
                     _window_masks, _within_budget, build_visit_paths)


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
# Initial trajectory
# ---------------------------------------------------------------------------

def _staggered_paths(cfg: ScenarioConfig, waypoints, dwell_weights):
    """Serialize each transition (one UAV moves while the other holds) with a
    greedy per-leg order keeping the pair farthest apart."""
    n_legs = len(waypoints[0]) - 1
    wp = [[np.asarray(p, dtype=float) for p in waypoints[m]] for m in range(2)]
    t_fly = sum(_leg_time(wp[m][i], wp[m][i + 1], cfg) for m in range(2) for i in range(n_legs))
    if t_fly > cfg.duration:
        return None
    slack = cfg.duration - t_fly
    weights = np.asarray(dwell_weights, dtype=float)
    dwells = slack * weights / weights.sum() if weights.sum() > 0 else np.zeros_like(weights)

    def min_sep_serial(first: int, cur, tgt) -> float:
        s = np.linspace(0.0, 1.0, 33)[:, None]
        second = 1 - first
        path1 = cur[first] + s * (tgt[first] - cur[first])
        sep1 = np.linalg.norm(path1 - cur[second], axis=1).min()
        path2 = cur[second] + s * (tgt[second] - cur[second])
        sep2 = np.linalg.norm(path2 - tgt[first], axis=1).min()
        return min(float(sep1), float(sep2))

    sched = {m: [(0.0, wp[m][0])] for m in range(2)}
    cur = [wp[0][0], wp[1][0]]
    t = 0.0
    windows = []
    for i in range(n_legs):
        tgt = [wp[0][i + 1], wp[1][i + 1]]
        first = 0 if min_sep_serial(0, cur, tgt) >= min_sep_serial(1, cur, tgt) else 1
        for m in (first, 1 - first):
            dur = _leg_time(cur[m], tgt[m], cfg)
            if dur > 0.0:
                sched[m].append((t, cur[m]))
                sched[m].append((t + dur, tgt[m]))
                cur[m] = tgt[m]
                t += dur
        if i < n_legs - 1:
            windows.append((t, t + float(dwells[i])))
            t += float(dwells[i])
    for m in range(2):
        sched[m].append((cfg.duration, cur[m]))
    times = [np.array([p[0] for p in sched[m]]) for m in range(2)]
    points = [np.array([p[1] for p in sched[m]]) for m in range(2)]
    return _sample_paths(cfg, times, points, wp), windows


def _shf_comp(cfg: ScenarioConfig, hover: HoverSolutionCoMP):
    """Hover-and-fly start visiting, in order, the first device's charging
    pair, the uplink pair and the second device's charging pair.  Transitions
    are serialized one UAV at a time when flying both at once would breach
    the separation.  Returns the trajectory and its dwell windows, or None
    when the mission is too short (direct flight)."""
    x1, x2 = hover.wpt_hover_pair
    m1, m2 = hover.mirror_pair
    xi = hover.wit_hover_x
    wp = [
        [cfg.uav_initial[0], np.array([x1, 0.0]), np.array([-xi, 0.0]),
         np.array([m1, 0.0]), cfg.uav_final[0]],
        [cfg.uav_initial[1], np.array([x2, 0.0]), np.array([xi, 0.0]),
         np.array([m2, 0.0]), cfg.uav_final[1]],
    ]
    tau_e = hover.charge_time
    weights = [tau_e / 2.0, cfg.duration - tau_e, tau_e / 2.0]
    return _feasible_plan(cfg, wp, weights, (build_visit_paths, _staggered_paths),
                          ("charge1", "uplink", "charge2"))


def uplink_pair_trajectory_comp(cfg: ScenarioConfig, hover: HoverSolutionCoMP):
    """Start that flies straight to the uplink hover pair (-x_I, 0), (x_I, 0),
    hovers there with all the leftover time and flies to the final locations.
    Unlike the hover-and-fly plan it never crosses the device span; None when
    the legs do not fit or breach the separation."""
    xi = hover.wit_hover_x
    wp = [[cfg.uav_initial[0], np.array([-xi, 0.0]), cfg.uav_final[0]],
          [cfg.uav_initial[1], np.array([xi, 0.0]), cfg.uav_final[1]]]
    built = _feasible_plan(cfg, wp, [1.0], (build_visit_paths,), ("uplink",))
    return None if built is None else built[0]


def initial_allocation_comp(cfg: ScenarioConfig, traj: Trajectory,
                            hover: HoverSolutionCoMP, windows=None) -> AllocationCoMP:
    N, d = cfg.num_slots, cfg.slot_duration
    beam = np.zeros((2, N))
    uplink = np.zeros(N)
    masks = _window_masks(cfg, windows)
    if masks is None:
        rho = min(max(hover.charge_time / cfg.duration, 0.05), 0.95)
        beam[:, :] = d * rho / 2.0
        uplink[:] = d * (1.0 - rho)
    else:
        c1, up, c2 = (masks[key] for key in ("charge1", "uplink", "charge2"))
        beam[0, c1] = d
        beam[1, c2] = d
        uplink[up] = d
        rest = ~(c1 | up | c2)
        beam[:, rest] = d / 2.0
    # Positive power floor on every slot: see initial_allocation_ic.
    Q = np.full((2, N), 0.05)
    Q[:, uplink > 0] = 1.0
    return _within_budget(cfg, AllocationCoMP(beam, uplink, Q), traj,
                          harvested_energy_comp)


# ---------------------------------------------------------------------------
# Subproblems
# ---------------------------------------------------------------------------

def optimize_time_comp(cfg: ScenarioConfig, traj, tx_power) -> AllocationCoMP:
    """Exact epigraph LP over beam-time, beam-time and uplink-time."""
    pos = _positions_of(traj)
    Q = np.asarray(tx_power, dtype=float)
    rate = np.stack([comp_rate_upper_bound(Q[k], pos, k, cfg) for k in range(2)])
    # Device k harvests coherently while the beam aims at it, and leaked
    # power while it aims at the other device.
    harvest = np.empty((2, 2, cfg.num_slots))
    for k in range(2):
        harvest[k, k] = comp_coherent_power(pos, k, cfg)
        harvest[k, 1 - k] = comp_noncoherent_power(pos, k, cfg)
    x = _time_lp(cfg, rate, harvest, Q)
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
    before = common_throughput_comp(alloc, traj, cfg)
    if active.size == 0:
        return Q, [before]
    d2 = _device_dist2(traj, cfg)
    csnr = 0.5 * cfg.ref_gain / cfg.noise_power * (1.0 / (d2 + cfg.altitude**2)).sum(axis=1)
    budgets = _power_budgets(cfg, alloc, traj, harvested_energy_comp, active)
    for k in range(2):
        Q[k, active] = _water_fill(1.0 / csnr[k, active], uplink[active], budgets[k])
    after = common_throughput_comp(replace(alloc, tx_power=Q), traj, cfg)
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
    traj, trace = _refine_trajectory(
        cfg, alloc, traj, lambda pos: _traj_subproblem_comp(cfg, alloc, pos),
        common_throughput_comp, harvested_energy_comp)
    return traj, slack_at_equality(cfg, traj), trace


# ---------------------------------------------------------------------------
# Complete alternating solver
# ---------------------------------------------------------------------------

def _comp_mode() -> _Mode:
    return _Mode(
        throughput=common_throughput_comp,
        time_step=optimize_time_comp,
        power_step=optimize_power_comp,
        traj_step=lambda cfg, alloc, traj: optimize_traj_comp(cfg, alloc, traj)[0])


def solve_p21(cfg: ScenarioConfig, hover: HoverSolutionCoMP | None = None) -> SolveReport:
    """Alternating time / power / trajectory optimization of the joint mode.

    Initialized from the hover-and-fly plan, the uplink-pair plan or direct
    flight, whichever the start probe ranks best.  The hover-and-fly plan
    crosses the whole device span twice, one UAV at a time, so it only pays
    off once the mission leaves enough hovering time; below that the
    uplink-pair plan, which charges from the uplink hover pair, wins."""
    t0 = time.perf_counter()
    if hover is None:
        hover = solve_infinite_comp(cfg, tau_grid=TAU_GRID)
    candidates = []
    built = _shf_comp(cfg, hover)
    if built is not None:
        traj, windows = built
        alloc = initial_allocation_comp(cfg, traj, hover, windows)
        candidates.append((traj, alloc, Initialization.SHF))
    traj = uplink_pair_trajectory_comp(cfg, hover)
    if traj is not None:
        alloc = initial_allocation_comp(cfg, traj, hover, None)
        candidates.append((traj, alloc, Initialization.UPLINK_PAIR))
    candidates.append(_direct_start(cfg, hover, initial_allocation_comp))
    return _alternate(cfg, _comp_mode(), candidates, t0)


def solve_p21_direct(cfg: ScenarioConfig, hover: HoverSolutionCoMP | None = None) -> SolveReport:
    """Benchmark: fixed straight-line flight, only time and power optimized."""
    t0 = time.perf_counter()
    if hover is None:
        hover = solve_infinite_comp(cfg, tau_grid=TAU_GRID)
    return _alternate(cfg, replace(_comp_mode(), traj_step=None),
                      [_direct_start(cfg, hover, initial_allocation_comp)], t0)
