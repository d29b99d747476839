"""Finite-horizon alternating solver for the interference-coordination mode,
and the alternation engine both cooperation modes share.

Time allocation (a linear program), device transmit powers and UAV
trajectories (both successive convex approximation) are optimized in turn.
Every subproblem contains the incumbent, so the true common throughput is
non-decreasing across accepted iterates; candidates that fail that check are
rejected, which keeps the trace monotone under solver noise.  The outer
loop (`_alternate`), its start probe, the time LP and the trajectory SCA
loop (`_refine_trajectory`) see a mode only through its steps and its
allocation type, which carries the mode's rates and harvested energy
(`model`); they score every candidate by `model.common_throughput`, so the
joint mode (`sca_comp`) reuses them as they are and no model function is
passed around.  Every start is a waypoint plan that its mode lists as data,
flown by `_feasible_starts` through one schedule builder (`_fly_plan`), with
both UAVs moving together or, for crossing paths, one at a time, and given
its warm-start allocation by one builder (`initial_allocation`), which takes
what differs by mode as data.  Both modes' trajectory programs are
assembled by `_traj_program` from tangents in the squared UAV-device
distances, all built by `_distance_tangent`; each mode supplies only their
coefficients.  Every loop ends by one stop test on the true throughput
(`_converged`) or at a fixed cap.  A step is a deterministic function of
the state it reads, so a solve reuses its result on a repeat: the start
probe's time and power steps serve the winner's first outer iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .hover_ic import HoverSolutionIC, WitMode, solve_infinite_ic
from .kernel import (LogGroup, NegLogGroup, Problem, StartInfeasible,
                     solve_concave)
from .model import (AllocationCoMP, AllocationIC, ConfigError, ScenarioConfig, Trajectory,
                    common_throughput, feasibility_report, gain_matrix)

LOG2E = float(np.log2(np.e))
_SPEED_MARGIN = 1.0 - 1e-9   # legs fly just under the cap for strict interiors


class Initialization(Enum):
    """Start a finite-horizon solve was refined from.  UPLINK_PAIR (joint mode
    only) flies straight to the uplink hover pair and charges from there."""

    SHF = "shf"
    UPLINK_PAIR = "uplink-pair"
    DIRECT_FLIGHT = "direct-flight"


GAIN_TOL = 1e-4                   # relative gain that stops every loop (`_converged`)
MAX_OUTER, MAX_INNER = 50, 30     # caps on outer iterations and on each SCA step's passes


@dataclass
class SolveReport:
    """Result of a finite-horizon solve in either cooperation mode."""

    trajectory: Trajectory
    allocation: AllocationIC | AllocationCoMP
    common_rate: float
    objective_trace: np.ndarray
    residuals: dict
    initialization: Initialization
    outer_iterations: int
    wall_seconds: float


def _no_worse(new: float, old: float) -> bool:
    """Acceptance test of every candidate: the throughput may drop by solver
    noise, no more."""
    return new >= old - 1e-12 * (1.0 + abs(old))


def _converged(trace) -> bool:
    """Stop test of every loop: the last accepted throughput of `trace`
    gained at most GAIN_TOL (relative) over the one before."""
    return trace[-1] - trace[-2] <= GAIN_TOL * (1.0 + abs(trace[-1]))


# ---------------------------------------------------------------------------
# Initial trajectories
# ---------------------------------------------------------------------------

def _fly_plan(cfg: ScenarioConfig, waypoints, dwell_weights, together: bool):
    """Slot-boundary positions, shape (2, N+1, 2), and dwell windows of both
    UAVs flying through their waypoint lists (equal lengths), or None when
    the legs alone exceed the mission duration.

    dwell_weights[i] is the share of the leftover time spent hovering at
    interior waypoint i+1.  With `together` both UAVs fly each leg at once,
    the slower one setting its duration, and the last leg ends at T.
    Otherwise one UAV flies while the other holds, in the per-leg order
    keeping the pair farthest apart, and a UAV done early holds to T."""
    wp = [np.asarray(w, dtype=float) for w in waypoints]
    n_legs = len(wp[0]) - 1
    speed = cfg.max_speed * _SPEED_MARGIN
    legs = [[float(np.linalg.norm(w[i + 1] - w[i])) / speed for i in range(n_legs)] for w in wp]
    t_fly = sum(map(max, *legs)) if together else sum(legs[0] + legs[1])
    if t_fly > cfg.duration:
        return None
    weights = np.asarray(dwell_weights, dtype=float)
    dwells = ((cfg.duration - t_fly) * weights / weights.sum() if weights.sum() > 0
              else np.zeros_like(weights))
    s = np.arange(33.0)[:, None] / 32   # 0, 1/32, ..., 1 along a leg

    def min_sep(a: int, i: int) -> float:
        """Least separation while UAV `a` flies leg i, then the other."""
        p, q = wp[a][i:i + 2], wp[1 - a][i:i + 2]
        return min(np.linalg.norm(p[0] + s * (p[1] - p[0]) - q[0], axis=1).min(),
                   np.linalg.norm(q[0] + s * (q[1] - q[0]) - p[1], axis=1).min())

    times, visits = [[0.0], [0.0]], [[0], [0]]   # breakpoints: time, waypoint index
    t, windows = 0.0, []
    for i in range(n_legs):
        if together:
            moves = [((0, 1), max(legs[0][i], legs[1][i]))]
        else:
            first = 0 if min_sep(0, i) >= min_sep(1, i) else 1
            moves = [((m,), legs[m][i]) for m in (first, 1 - first) if legs[m][i] > 0.0]
        for uavs, dur in moves:
            end = cfg.duration if together and i == n_legs - 1 else t + dur
            for m in uavs:
                times[m] += [t, end]
                visits[m] += [i, i + 1]
            t += dur
        if i < n_legs - 1:
            windows.append((t, t + float(dwells[i])))
            t += float(dwells[i])
    at = cfg.slot_duration * np.arange(cfg.num_slots + 1)
    pos = np.empty((2, cfg.num_slots + 1, 2))
    for m in range(2):
        tm, xy = np.array(times[m]), wp[m][visits[m]]
        pos[m, :, 0] = np.interp(at, tm, xy[:, 0])
        pos[m, :, 1] = np.interp(at, tm, xy[:, 1])
        pos[m, 0], pos[m, -1] = wp[m][0], wp[m][-1]
    return pos, windows


def _direct_plan():
    """Direct flight, the start plan with no stops (see `_feasible_starts`)."""
    return Initialization.DIRECT_FLIGHT, np.empty((2, 0, 2)), [], ()


def _feasible_starts(cfg: ScenarioConfig, plans) -> list:
    """The one builder of every start of both modes.

    A plan is (Initialization, stops, dwell weights, window names): UAV m
    flies from its initial location through stops[m] to its final one,
    hovering at the stops with the leftover time split by the weights, on
    the synchronized schedule or, when that is not feasible (say, crossing
    paths breach the separation), the staggered one, both flown by
    `_fly_plan`.  Returns (Initialization, trajectory, windows keyed by the
    names or None without names) of each feasible plan, in order; raises
    ConfigError when no plan is feasible."""
    starts = []
    for init, stops, weights, names in plans:
        waypoints = [np.vstack([cfg.uav_initial[m], stops[m], cfg.uav_final[m]]) for m in range(2)]
        for together in (True, False):
            built = _fly_plan(cfg, waypoints, weights, together)
            traj = None if built is None else Trajectory(built[0])
            if traj is not None and traj.is_feasible(cfg):
                starts.append((init, traj, dict(zip(names, built[1])) or None))
                break
    if not starts:
        raise ConfigError(f"no start plan ({', '.join(p[0].value for p in plans)}) flies "
                          f"within {cfg.duration:g} s, with the UAVs moving together or one "
                          f"at a time, without breaching the speed cap or the separation")
    return starts


def direct_flight_trajectory(cfg: ScenarioConfig) -> Trajectory:
    """Straight constant-speed paths from the initial to the final locations,
    or, when those breach the separation, the staggered schedule (one UAV
    flies while the other holds); raises ConfigError when neither is
    feasible."""
    return _feasible_starts(cfg, [_direct_plan()])[0][1]


def _plans_ic(cfg: ScenarioConfig, hover: HoverSolutionIC) -> list:
    """The coordination mode's start plans (see `_feasible_starts`):
    hover-and-fly (charging hover, then uplink hover, hovering with the
    leftover time) and direct flight."""
    x_e, x_i = hover.wpt_hover_x, hover.wit_hover_x
    stops = np.array([[[-x_e, 0.0], [-x_i, 0.0]], [[x_e, 0.0], [x_i, 0.0]]])
    tau_e = hover.charge_time
    return [(Initialization.SHF, stops, [tau_e, cfg.duration - tau_e], (0, "uplink")),
            _direct_plan()]


# ---------------------------------------------------------------------------
# Initial allocation
# ---------------------------------------------------------------------------

def _window_masks(cfg: ScenarioConfig, windows):
    """Mask of the slots lying inside each dwell window of a plan; None
    without windows or when the uplink window holds fewer than two slots."""
    if windows is None:
        return None
    d = cfg.slot_duration
    n = np.arange(1, cfg.num_slots + 1)
    masks = {key: ((n - 1) * d >= start - 1e-9) & (n * d <= end + 1e-9)
             for key, (start, end) in windows.items()}
    return masks if masks["uplink"].sum() >= 2 else None


def _within_budget(cfg: ScenarioConfig, alloc, traj: Trajectory):
    """`alloc` with each device's powers scaled to spend 0.999 of what it
    harvests."""
    Q = alloc.tx_power.copy()
    budget, spend = alloc.harvested(traj, cfg), alloc.spent
    for k in range(2):
        Q[k] *= 0.999 * budget[k] / spend[k] if spend[k] > 0 else 0.0
    return replace(alloc, tx_power=Q)


def initial_allocation(cfg: ScenarioConfig, traj: Trajectory, make, blocks: int,
                       charge_time: float, split: bool, windows=None):
    """Feasible warm-start allocation of either mode, `make(charging
    durations (blocks, N), uplink durations, powers)`.

    Without `windows` (or with fewer than two slots in the uplink window)
    every slot mirrors the hover solution's split: `charge_time` of T
    charging, shared evenly by the `blocks` charging blocks, the rest
    uplink.  Otherwise the slots of window j charge block j, those of the
    "uplink" window transmit, and the others charge all blocks evenly; with
    `split` the devices take turns, the first half of the uplink slots for
    device 1, the rest for device 2.  The powers are then scaled to the
    harvested energy (`_within_budget`)."""
    N, d = cfg.num_slots, cfg.slot_duration
    masks = _window_masks(cfg, windows)
    if masks is None:
        rho = min(max(charge_time / cfg.duration, 0.05), 0.95)
        charge = np.full((blocks, N), d * rho / blocks)
        uplink = np.full(N, d * (1.0 - rho))
        Q = np.ones((2, N))
    else:
        up = masks.pop("uplink")
        charge = np.zeros((blocks, N))
        for j, mask in masks.items():
            charge[j, mask] = d
        charge[:, ~np.logical_or.reduce([up, *masks.values()])] = d / blocks
        uplink = np.where(up, d, 0.0)
        # A small positive power floor everywhere keeps every slot visible to
        # the time-allocation LP, so later passes can re-activate slots the
        # warm start left idle.
        Q = np.full((2, N), 0.05)
        idx = np.flatnonzero(up)
        if split:
            Q[0, idx[:idx.size // 2]] = 1.0
            Q[1, idx[idx.size // 2:]] = 1.0
        else:
            Q[:, idx] = 1.0
    return _within_budget(cfg, make(charge, uplink, Q), traj)


def _warm_ic(hover: HoverSolutionIC) -> tuple:
    """The coordination mode's data of `initial_allocation`: one charging
    block, and turn-taking when the hover uplink takes turns."""
    return (lambda charge, uplink, Q: AllocationIC(charge[0], uplink, Q), 1,
            hover.charge_time, hover.wit_mode is WitMode.TDMA)


# ---------------------------------------------------------------------------
# Subproblems
# ---------------------------------------------------------------------------

def _time_lp(cfg: ScenarioConfig, rate: np.ndarray, harvest: np.ndarray,
             tx_power: np.ndarray) -> np.ndarray:
    """Exact epigraph LP of both modes' time steps.

    The variables are the per-slot durations of each charging block, then the
    uplink durations, then the common rate R; harvest[k, j] is device k's
    harvested power per unit time of charging block j, rate[k] its uplink
    rate.  Maximizes R subject to R <= sum(rate[k] * uplink) / T, each
    device spending at most what it harvests, each slot's durations fitting
    in the slot, and every variable >= 0.  Returns the (blocks + 1, N)
    durations, clipped at 0.

    The kernel starts from a strictly feasible point built in closed form:
    the charging blocks share half of every slot, every slot gets the same
    uplink time, small enough that each device spends at most a quarter of
    what it harvests, and R is half the smaller device rate.
    """
    N, d = cfg.num_slots, cfg.slot_duration
    nb = harvest.shape[1] + 1
    n = nb * N + 1
    up = np.arange((nb - 1) * N, nb * N)
    charge = d / (2.0 * (nb - 1))
    uplink = d / 4.0
    for k in range(2):
        spend = float(tx_power[k].sum())
        if spend > 0.0:
            uplink = min(uplink, 0.25 * charge * float(harvest[k].sum()) / spend)
    start = np.full(n, charge)
    start[up] = uplink
    start[-1] = 0.5 * uplink * min(float(rate[k].sum()) for k in range(2)) / cfg.duration
    # R = 0 here means some device has zero rate on every slot: then R = 0
    # is optimal, the LP has no interior and the start is the answer.
    if start[-1] > 0.0:
        prob = Problem(n)
        for k in range(2):
            prob.add_affine(np.append(up, n - 1),
                            np.append(-rate[k] / cfg.duration, 1.0), 0.0)
            prob.add_affine(np.arange(n - 1),
                            np.concatenate((-harvest[k].reshape(-1), tx_power[k])), 0.0)
        prob.add_affine(np.arange(n - 1).reshape(nb, N).T, 1.0, np.full(N, d))
        prob.add_bounds(np.arange(n))
        start = np.clip(solve_concave(prob, start).x, 0.0, None)
    return start[:-1].reshape(nb, N)


def optimize_time_ic(cfg: ScenarioConfig, traj, tx_power) -> AllocationIC:
    """Exact epigraph LP over the per-slot charging/uplink durations."""
    Q = np.asarray(tx_power, dtype=float)
    harvest = cfg.eh_efficiency * cfg.uav_power * gain_matrix(traj, cfg).sum(axis=1)
    x = _time_lp(cfg, AllocationIC.slot_rates(Q, traj, cfg), harvest[:, None, :], Q)
    return AllocationIC(x[0], x[1], Q.copy())


def _lift_epigraph(prob: Problem, x: np.ndarray) -> np.ndarray:
    """Set the epigraph variable (the last one) of `x` just below the smallest
    rate-row value, so every rate row is strictly feasible; returns x.  The
    rate rows are the program's first two rows, the only ones holding it."""
    x[-1] = 0.0
    floor = float(prob.slacks(x)[:2].min())
    x[-1] = floor - 1e-6 * (1.0 + abs(floor))
    return x


def _power_budgets(cfg: ScenarioConfig, alloc, traj, active: np.ndarray) -> list:
    """Energy each device may spend on the active slots: what it harvests
    minus what its frozen powers already spend on the idle slots, whose
    uplink time is tiny but not always zero."""
    idle = np.setdiff1d(np.arange(cfg.num_slots), active)
    Q, uplink = alloc.tx_power, alloc.uplink_time
    harvested = alloc.harvested(traj, cfg)
    return [float(harvested[k]) - float((Q[k, idle] * uplink[idle]).sum()) for k in range(2)]


def optimize_power_ic(cfg: ScenarioConfig, traj, alloc: AllocationIC):
    """Iterative concave maximization of the transmit powers.

    Slots with no uplink time are frozen at the incumbent; each pass solves
    the tangent surrogate of the interference term and is accepted only if
    the true common throughput does not decrease.  The step ends on the
    first rejected pass or once `_converged`.  Returns the powers and the
    throughput of every accepted iterate.
    """
    uplink, charge = alloc.uplink_time, alloc.charge_time
    active = np.flatnonzero(uplink > 1e-12 * cfg.slot_duration)
    Q = alloc.tx_power.copy()
    trace = [common_throughput(alloc, traj, cfg)]
    if active.size == 0:
        return Q, trace
    g = gain_matrix(traj, cfg)
    budgets = _power_budgets(cfg, alloc, traj, active)
    A = active.size
    for _ in range(MAX_INNER):
        prob = Problem(2 * A + 1)
        wt = uplink[active] / (cfg.duration * np.log(2.0))
        for k in range(2):
            ko = 1 - k
            ref_itf = Q[ko, active] * g[ko, k, active] + cfg.noise_power
            slope = g[ko, k, active] * LOG2E / ref_itf
            idx = np.append(ko * A + np.arange(A), prob.n - 1)
            lin = np.append(-uplink[active] / cfg.duration * slope, -1.0)
            const = float((uplink[active] / cfg.duration
                           * (-np.log2(ref_itf) + slope * Q[ko, active])).sum())
            logs = LogGroup(
                idx=np.stack([np.arange(A), A + np.arange(A)], axis=1),
                coeffs=np.stack([g[0, k, active], g[1, k, active]], axis=1),
                offsets=np.full(A, cfg.noise_power),
                weights=wt,
            )
            prob.add_concave_ge(idx=idx, lin=lin, const=const, logs=(logs,))
        # Budget rows and Q >= 0.  The start is the incumbent, lifted off zero and
        # scaled to 0.999 of a budget it spends to within rounding or beyond:
        # the kernel sums the row its own way and may find it over budget.
        start = np.zeros(prob.n)
        for k in range(2):
            prob.add_affine(k * A + np.arange(A), uplink[active], budgets[k])
            q0 = np.maximum(Q[k, active], 1e-9 * (1.0 + budgets[k] / cfg.duration))
            spend = float((q0 * uplink[active]).sum())
            if spend >= (1.0 - 1e-12) * budgets[k]:
                q0 = q0 * (0.999 * budgets[k] / spend)
            start[k * A:(k + 1) * A] = q0
        prob.add_bounds(np.arange(2 * A))
        out = solve_concave(prob, _lift_epigraph(prob, start))
        Q_new = Q.copy()
        Q_new[:, active] = np.clip(out.x[:-1], 0.0, None).reshape(2, A)
        val = common_throughput(AllocationIC(charge, uplink, Q_new), traj, cfg)
        if not _no_worse(val, trace[-1]):
            break
        Q = Q_new
        trace.append(val)
        if _converged(trace):
            break
    return Q, trace


def traj_var_base(cfg: ScenarioConfig, m, slot):
    """Index of UAV m's x-coordinate at interior slot `slot` (1..N-1) in the
    trajectory subproblem layout shared by both engines (elementwise for
    arrays)."""
    return 2 * ((cfg.num_slots - 1) * m + (slot - 1))


def _add_strict_quad(prob: Problem, idx, diag, lin, const, x_ref: np.ndarray,
                     tol: float) -> None:
    """Add the surrogate rows 0.5 diag . x[idx]^2 + lin . x[idx] + const <= 0
    ((rows, k) arrays, or (k,) for one row), each relaxed by `tol` plus
    whatever x_ref violates it by, so x_ref is strictly inside."""
    idx = np.atleast_2d(idx)
    xr = x_ref[idx]
    at_ref = 0.5 * (diag * xr * xr).sum(axis=-1) + (lin * xr).sum(axis=-1) + const
    prob.add_quad(idx, diag, lin, const - (tol + np.maximum(0.0, at_ref)))


def add_geometry_rows(prob: Problem, cfg: ScenarioConfig, ref: np.ndarray) -> None:
    """Speed and collision (affine minorant) rows, the N-1 collision rows
    last.

    Rows are relaxed just enough that the reference trajectory is strictly
    inside; the relaxations stay far below the feasibility tolerances.
    """
    N = cfg.num_slots
    slots = np.arange(1, N)
    step2 = cfg.max_step**2
    for m in range(2):
        ref_step = ((ref[m, 1:] - ref[m, :-1]) ** 2).sum(axis=-1)
        eps = 1e-8 * max(1.0, step2) + np.maximum(0.0, ref_step - step2)
        # Legs between interior positions, then the legs from the start and
        # to the end, whose far point is fixed: ||x[b:b+2] - end||^2.
        ia = traj_var_base(cfg, m, slots[:-1])
        prob.add_pair_step(np.stack([ia, ia + 1, ia + 2, ia + 3], axis=1),
                           -step2 - eps[1:N - 1])
        ends = np.stack([cfg.uav_initial[m], cfg.uav_final[m]])
        b = traj_var_base(cfg, m, np.array([1, N - 1]))
        prob.add_quad(np.stack([b, b + 1], axis=-1), 2.0, -2.0 * ends,
                      (ends**2).sum(axis=-1) - step2 - eps[[0, N - 1]])

    dmin2 = cfg.min_separation**2
    d_ref = ref[0, 1:N] - ref[1, 1:N]
    nrm2 = (d_ref**2).sum(axis=-1)
    eps = 1e-8 * max(1.0, dmin2) + np.maximum(0.0, dmin2 - nrm2)
    b0, b1 = traj_var_base(cfg, 0, slots), traj_var_base(cfg, 1, slots)
    prob.add_affine(np.stack([b0, b0 + 1, b1, b1 + 1], axis=1),
                    np.hstack([-2.0 * d_ref, 2.0 * d_ref]), -(dmin2 - eps) - nrm2)


def _distance_tangent(cfg: ScenarioConfig, ref: np.ndarray, coef: np.ndarray,
                      uavs, devs, slots: np.ndarray):
    """Minus the tangent lower bound, in the squared distances, of the sum of
    coef[m, j, slot] / (H^2 + ||q_m[n] - w_j||^2) over UAVs m in `uavs`,
    devices j in `devs` and `slots`, expanded at ref[m, n] (n = slot + 1),
    as (idx, diag, lin, const) of one `Problem.add_quad` row over the
    positions of `uavs`, summed over the devices; a fixed final position
    enters as a constant.  `coef` broadcasts to (uavs, devs, slots).  Both
    modes' one tangent builder: a function convex in the squared distances
    is bounded by it, with coef its slope in 1 / (H^2 + ||q - w||^2)."""
    H2 = cfg.altitude**2
    n = slots + 1
    uavs = np.asarray(uavs)
    w = cfg.device_positions[devs]                                        # (dev, 2)
    u_ref = ((ref[uavs][:, None, n, :] - w[:, None, :]) ** 2).sum(axis=-1)  # (uav, dev, slot)
    gamma = coef / (H2 + u_ref) ** 2
    inner = n <= cfg.num_slots - 1
    const = (float((-2.0 * coef / (H2 + u_ref)).sum())
             + float((gamma[..., inner] * ((w**2).sum(axis=-1)[:, None] + H2)).sum())
             + float((gamma[..., ~inner] * (H2 + u_ref[..., ~inner])).sum()))
    base = traj_var_base(cfg, uavs[:, None], n[inner][None, :])
    g = gamma[..., inner]
    return (np.stack([base, base + 1], axis=-1).reshape(-1),
            np.repeat(2.0 * g.sum(axis=1).reshape(-1), 2),
            (-2.0 * g[..., None] * w[:, None, :]).sum(axis=1).reshape(-1), const)


def _traj_program(cfg: ScenarioConfig, alloc, ref: np.ndarray, rates, harvests, domain=()):
    """Concave program of one trajectory SCA pass of either mode at the
    reference `ref`, and its strictly feasible start.  The variables are the
    interior positions (`traj_var_base` layout) and the common rate R.  Rows,
    in order: R <= value + tangent bound + neglogs per (value, tangent,
    neglogs) of `rates`; device k's spend <= its tangent bound `harvests[k]`;
    the affine `domain` rows (idx, coef, rhs); `add_geometry_rows`.  A
    tangent is the (coef, uavs, devs, slots) of `_distance_tangent`."""
    nv = 4 * (cfg.num_slots - 1) + 1
    prob = Problem(nv)
    x_ref = np.append(ref[:, 1:-1, :].reshape(-1), 0.0)
    for value, tangent, neglogs in rates:
        idx, diag, lin, const = _distance_tangent(cfg, ref, *tangent)
        prob.add_concave_ge(idx=np.append(idx, nv - 1), lin=np.append(-lin, -1.0),
                            diag_neg=np.append(diag, 0.0), const=value - const,
                            neglogs=neglogs)
    for spend, tangent in zip(alloc.spent, harvests):
        idx, diag, lin, const = _distance_tangent(cfg, ref, *tangent)
        _add_strict_quad(prob, idx, diag, lin, spend + const, x_ref, 1e-10 * (1.0 + spend))
    for rows in domain:
        prob.add_affine(*rows)
    add_geometry_rows(prob, cfg, ref)
    return prob, _lift_epigraph(prob, x_ref.copy())


def _traj_subproblem_ic(cfg: ScenarioConfig, alloc: AllocationIC, ref: np.ndarray):
    """`_traj_program` of the coordination mode at the reference `ref`.

    UAV k's rate is log2 S - log2 I, with S the power it receives plus noise
    and I the interference from device 1-k plus noise.  log2 S is convex in
    the squared distances; its tangent in them has the coefficient
    (tau/T) log2(e) Q_j b0 / S_ref per device j.  -log2 I is concave in the
    affine minorant of the squared distance to device 1-k (a `NegLogGroup`,
    kept in its domain by an affine row), and the constant -log2 I_ref where
    device 1-k is silent or the position is the fixed final one."""
    H2 = cfg.altitude**2
    b0 = cfg.ref_gain
    uplink, charge, Q = alloc.uplink_time, alloc.charge_time, alloc.tx_power
    w = cfg.device_positions
    slot = np.flatnonzero(uplink > 1e-6 * cfg.slot_duration)
    n = slot + 1
    wt = uplink[slot] / cfg.duration
    rates, domain = [], []
    for k in range(2):
        ko = 1 - k
        qk = ref[k, n]                                              # (slot, 2)
        u_ref = ((qk[None] - w[:, None, :]) ** 2).sum(axis=-1)      # (device, slot)
        rx = Q[:, slot] * b0 / (u_ref + H2)                       # from each device
        s_ref = rx[0] + rx[1] + cfg.noise_power
        coef = wt * LOG2E * Q[:, slot] * b0 / s_ref
        value = wt * np.log2(s_ref) - (coef / (u_ref + H2)).sum(axis=0)
        nl = (Q[ko, slot] > 0.0) & (n <= cfg.num_slots - 1)
        value[~nl] -= wt[~nl] * np.log2(rx[ko, ~nl] + cfg.noise_power)
        neglogs = ()
        if nl.any():
            grad = 2.0 * (qk[nl] - w[ko])
            off = u_ref[ko, nl] + H2 - (grad * qk[nl]).sum(axis=1)
            bn = traj_var_base(cfg, k, n[nl])
            nl_idx = np.stack([bn, bn + 1], axis=1)
            neglogs = (NegLogGroup(
                idx=nl_idx, coeffs=grad, offsets=off, weights=wt[nl] / np.log(2.0),
                bases=np.full(int(nl.sum()), cfg.noise_power),
                scales=Q[ko, slot[nl]] * b0),)
            # Keep the affine squared-distance minorant inside the domain.
            domain.append((nl_idx, -grad, off - 0.01 * H2))
        rates.append((float(value.sum()), (coef[None], [k], [0, 1], slot), neglogs))

    slots = np.flatnonzero(charge > 1e-6 * cfg.slot_duration)
    coef = cfg.eh_efficiency * cfg.uav_power * b0 * charge[slots]
    return _traj_program(cfg, alloc, ref, rates,
                         [(coef, [0, 1], [k], slots) for k in range(2)], domain)


def _refine_trajectory(cfg: ScenarioConfig, alloc, traj: Trajectory, build):
    """SCA loop of both modes' trajectory steps: one surrogate solve per pass.

    `build(positions)` returns the concave program of one pass at
    `positions` and a strictly feasible start; its leading variables are the
    interior positions (`traj_var_base` layout).  A candidate is accepted
    when it is feasible, keeps every device's energy budget and does not
    lower the common throughput.  The step ends at the incumbent on the
    first rejected candidate or failed surrogate solve, or once
    `_converged`.  Returns the trajectory and the accepted throughputs."""
    trace = [common_throughput(alloc, traj, cfg)]
    positions = traj.positions.copy()
    N = cfg.num_slots
    spend = alloc.spent
    for _ in range(MAX_INNER):
        try:
            out = solve_concave(*build(positions))
        except (StartInfeasible, np.linalg.LinAlgError):
            break
        cand = positions.copy()
        cand[:, 1:N, :] = out.x[:4 * (N - 1)].reshape(2, N - 1, 2)
        cand_traj = Trajectory(cand)
        ok = cand_traj.is_feasible(cfg) and min(alloc.harvested(cand_traj, cfg) - spend) >= -1e-9
        val = common_throughput(alloc, cand_traj, cfg)
        if not (ok and _no_worse(val, trace[-1])):
            break
        positions = cand
        trace.append(val)
        if _converged(trace):
            break
    return Trajectory(positions), trace


def optimize_traj_ic(cfg: ScenarioConfig, alloc: AllocationIC, traj: Trajectory):
    """Iterative concave maximization of both UAV trajectories; returns the
    trajectory and the accepted throughputs (see `_refine_trajectory`)."""
    return _refine_trajectory(cfg, alloc, traj, lambda pos: _traj_subproblem_ic(cfg, alloc, pos))


# ---------------------------------------------------------------------------
# Alternation engine shared by both modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Mode:
    """One cooperation mode's blocks, in the form `_alternate` calls them:
    each step takes the state it reads and nothing else.

    Each solve builds its record when called, from its module's globals, so
    steps wrapped from outside (for tracing) are the ones that run."""

    time_step: Callable    # (cfg, traj, tx_power) -> allocation
    power_step: Callable   # (cfg, traj, alloc) -> (Q, trace)
    traj_step: Callable | None   # (cfg, alloc, traj) -> trajectory, or None


def _ic_mode() -> _Mode:
    return _Mode(
        time_step=optimize_time_ic,
        power_step=optimize_power_ic,
        traj_step=lambda cfg, alloc, traj: optimize_traj_ic(cfg, alloc, traj)[0])


def _once(memo: dict, step: str, state: tuple, solve: Callable):
    """`step`'s stored result if its last solve saw equal `state` arrays (the
    ones the step reads), else `solve()`."""
    if step not in memo or not all(map(np.array_equal, memo[step][0], state)):
        memo[step] = (state, solve())
    return memo[step][1]


def _time_pass(cfg: ScenarioConfig, mode: _Mode, memo: dict, traj, alloc, value: float):
    """The time step's allocation if its throughput is no worse than `value`, else `alloc`."""
    cand = _once(memo, "time", (traj.positions, alloc.tx_power),
                 lambda: mode.time_step(cfg, traj, alloc.tx_power))
    return cand if _no_worse(common_throughput(cand, traj, cfg), value) else alloc


def _pick_start(cfg: ScenarioConfig, mode: _Mode, candidates):
    """Rank candidate starts by their time and power steps (no trajectory
    step); the raw initial objective misjudges which basin the trajectory
    step can refine.  A candidate scores its power step's last accepted
    throughput.  Returns the winner and its step memo, which holds the first
    outer iteration's time and power steps."""
    best = None
    for traj, alloc, init in candidates:
        memo = {}
        probe = _time_pass(cfg, mode, memo, traj, alloc, common_throughput(alloc, traj, cfg))
        score = _once(memo, "power", (traj.positions, *vars(probe).values()),
                      lambda: mode.power_step(cfg, traj, probe))[1][-1]
        if best is None or score > best[0]:
            best = (score, (traj, alloc, init), memo)
    return best[1], best[2]


def _alternate(cfg: ScenarioConfig, mode: _Mode, candidates, t0: float) -> SolveReport:
    """Alternate the time, power and trajectory steps of `mode` from the best
    of the (trajectory, allocation, Initialization) `candidates` until an
    outer iteration passes `_converged`.  Every step returns only what it
    accepted, so its result is taken as it is.

    A step that meets the state of its last solve again (say, a rejected
    power step after a time step that returned its input) takes that
    solve's result from `memo`, which the start probe fills for the first
    iteration.  That is exact: a step is a deterministic function of the
    arrays it reads, which key its entry (the time step reads the positions
    and powers only)."""
    (traj, alloc, init), memo = _pick_start(cfg, mode, candidates)
    trace = [common_throughput(alloc, traj, cfg)]
    outer = 0
    for outer in range(1, MAX_OUTER + 1):
        alloc = _time_pass(cfg, mode, memo, traj, alloc, trace[-1])

        Q, _ = _once(memo, "power", (traj.positions, *vars(alloc).values()),
                     lambda: mode.power_step(cfg, traj, alloc))
        alloc = replace(alloc, tx_power=Q)

        if mode.traj_step is not None and cfg.num_slots >= 2:
            traj = _once(memo, "traj", (traj.positions, *vars(alloc).values()),
                         lambda: mode.traj_step(cfg, alloc, traj))

        trace.append(common_throughput(alloc, traj, cfg))
        if _converged(trace):
            break

    return SolveReport(
        trajectory=traj,
        allocation=alloc,
        common_rate=trace[-1],
        objective_trace=np.asarray(trace),
        residuals=dict(feasibility_report(cfg, traj, alloc)),
        initialization=init,
        outer_iterations=outer,
        wall_seconds=time.perf_counter() - t0,
    )


def _candidates(cfg: ScenarioConfig, plans, warm) -> list:
    """Start-probe candidates (trajectory, allocation, Initialization) of the
    feasible `plans` (`_feasible_starts`, which raises ConfigError when there
    is none), each with its warm-start allocation (`initial_allocation` of
    the mode's data `warm`)."""
    return [(traj, initial_allocation(cfg, traj, *warm, windows), init)
            for init, traj, windows in _feasible_starts(cfg, plans)]


def solve_p1(cfg: ScenarioConfig, hover: HoverSolutionIC | None = None) -> SolveReport:
    """Alternating time / power / trajectory optimization.

    Initialized from the hover-and-fly plan or from direct flight, whichever
    the start probe ranks best (hover-and-fly can be dominated when the
    mission barely fits the visit legs).  A plan whose synchronized flight
    breaches the separation falls back to the staggered schedule; a mission
    that no plan fits raises ConfigError."""
    t0 = time.perf_counter()
    if hover is None:
        hover = solve_infinite_ic(cfg)
    return _alternate(cfg, _ic_mode(),
                      _candidates(cfg, _plans_ic(cfg, hover), _warm_ic(hover)), t0)


def solve_p1_direct(cfg: ScenarioConfig, hover: HoverSolutionIC | None = None) -> SolveReport:
    """Benchmark: fixed direct flight (`direct_flight_trajectory`: straight
    lines, or the staggered schedule when those breach the separation;
    ConfigError when neither fits), only time and power optimized."""
    t0 = time.perf_counter()
    if hover is None:
        hover = solve_infinite_ic(cfg)
    return _alternate(cfg, replace(_ic_mode(), traj_step=None),
                      _candidates(cfg, [_direct_plan()], _warm_ic(hover)), t0)
