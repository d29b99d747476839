"""Evaluation-form oracles the tests check the solvers against.

The concave global lower bounds of the successive convex approximation:
each is exact at its expansion point and valid everywhere on its domain.
The trajectory and power subproblems assemble the same surrogates as rows;
here they are plain functions, so tightness and validity can be tested
directly and each assembled row compared with its bound.  Also the sampled
received powers of joint energy beamforming, the analytic derivative of
the charging-hover objective, and scalar references of the hovering
solutions' charging-time search and of the zero-forcing sampler: one
scalar rate evaluation per grid point, and the sampler with its
temporaries, which the array forms must reproduce bit for bit.  The model's
per-device energy and rate formulas of each mode, one function per
quantity and device, which the allocations' array forms and
`common_throughput` must reproduce bit for bit; and the per-device channel
quantities they are built on (SINR, coherent and leaked charging power,
joint-reception bound), each from `channel_gain` for one device, which the
model's forms from one gain tensor for both devices (`sinr_ic`,
`AllocationCoMP.charging_power`, `slot_rates`) must reproduce bit for bit.
Last, a plain barrier method whose objective the kernel's solves are
checked against.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

from wpcn_traj.hover_comp import (HoverSolutionCoMP, bound_rate_at, wit_hover_comp,
                                  wpt_hover_comp)
from wpcn_traj.hover_ic import HoverSolutionIC, _rate_at
from wpcn_traj.mc import _estimate
from wpcn_traj.model import ScenarioConfig, _positions_of, channel_gain, gain_matrix

LOG2E = float(np.log2(np.e))


def power_rate_bound(tx_power, tx_power_ref, traj, alloc_uplink_time,
                     k: int, cfg: ScenarioConfig) -> np.ndarray:
    """Per-slot lower bound on device k's weighted rate, concave in the powers.

    The interfering device's log term is replaced by its tangent at the
    reference power; the joint received-power log term is kept exact.
    """
    g = gain_matrix(traj, cfg)
    Q = np.asarray(tx_power, dtype=float)
    Qr = np.asarray(tx_power_ref, dtype=float)
    dI = np.asarray(alloc_uplink_time, dtype=float)
    ko = 1 - k
    total = np.log2(Q[0] * g[0, k] + Q[1] * g[1, k] + cfg.noise_power)
    ref_itf = Qr[ko] * g[ko, k] + cfg.noise_power
    slope = g[ko, k] * LOG2E / ref_itf
    return dI * (total - np.log2(ref_itf) - slope * (Q[ko] - Qr[ko]))


def traj_rate_bound(pos, pos_ref, tx_power, alloc_uplink_time,
                    k: int, cfg: ScenarioConfig) -> np.ndarray:
    """Per-slot lower bound on device k's weighted rate, concave in UAV k's
    positions.

    The received-power log term is expanded to first order in the squared
    distances; inside the interference term the squared distance to the
    interfering device is replaced by its affine minorant so the whole
    expression stays concave.  Entries where that minorant leaves the model
    domain evaluate to -inf.
    """
    pos = np.asarray(pos, dtype=float)          # (2, N, 2)
    ref = np.asarray(pos_ref, dtype=float)
    Q = np.asarray(tx_power, dtype=float)
    dI = np.asarray(alloc_uplink_time, dtype=float)
    H2 = cfg.altitude**2
    b0 = cfg.ref_gain
    ko = 1 - k
    w = cfg.device_positions

    u_ref = ((ref[k][None, :, :] - w[:, None, :]) ** 2).sum(axis=-1)  # (2 dev, N)
    u_new = ((pos[k][None, :, :] - w[:, None, :]) ** 2).sum(axis=-1)
    s_ref = (Q[0] * b0 / (u_ref[0] + H2) + Q[1] * b0 / (u_ref[1] + H2)
             + cfg.noise_power)
    r_hat = np.log2(s_ref)
    alpha = (Q * b0 / (u_ref + H2) ** 2) * LOG2E / s_ref[None, :]
    taylor = r_hat - (alpha * (u_new - u_ref)).sum(axis=0)

    lin = u_ref[ko] + 2.0 * ((ref[k] - w[ko]) * (pos[k] - ref[k])).sum(axis=-1)
    dom = lin + H2 > 0.0
    itf = np.where(dom, cfg.noise_power + Q[ko] * b0 / np.where(dom, lin + H2, 1.0),
                   np.nan)
    out = dI * (taylor - np.log2(itf))
    return np.where(dom, out, -np.inf)


def harvest_bound_ic(pos, pos_ref, charge_time, k: int, cfg: ScenarioConfig) -> float:
    """Lower bound on device k's harvested energy, concave (quadratic) in the
    UAV positions."""
    pos = np.asarray(pos, dtype=float)
    ref = np.asarray(pos_ref, dtype=float)
    dE = np.asarray(charge_time, dtype=float)
    H2 = cfg.altitude**2
    w = cfg.device_positions[k]
    u_ref = ((ref - w) ** 2).sum(axis=-1)  # (2 uav, N)
    u_new = ((pos - w) ** 2).sum(axis=-1)
    coef = cfg.eh_efficiency * cfg.uav_power * cfg.ref_gain * dE
    per = coef * (2.0 / (H2 + u_ref) - (H2 + u_new) / (H2 + u_ref) ** 2)
    return float(per.sum())


def comp_traj_rate_bound(pos, pos_ref, tx_power, alloc_uplink_time,
                         k: int, cfg: ScenarioConfig) -> np.ndarray:
    """Per-slot lower bound on device k's weighted joint-reception bound rate,
    concave in both UAVs' positions.

    The rate log2(1 + c sum_m 1/(H^2 + u_m)), c = Q_k b0 / (2 sigma^2), is
    convex in the squared distances u_m = ||q_m - w_k||^2; this is its value
    at the reference plus its gradient in u times (u - u_ref).
    """
    pos = np.asarray(pos, dtype=float)          # (2 uav, N, 2)
    ref = np.asarray(pos_ref, dtype=float)
    dI = np.asarray(alloc_uplink_time, dtype=float)
    H2 = cfg.altitude**2
    w = cfg.device_positions[k]
    c = np.asarray(tx_power, dtype=float)[k] * cfg.ref_gain / (2.0 * cfg.noise_power)
    u_ref = ((ref - w) ** 2).sum(axis=-1)       # (2 uav, N)
    u_new = ((pos - w) ** 2).sum(axis=-1)
    snr_ref = c * (1.0 / (H2 + u_ref)).sum(axis=0)
    d_rate = -LOG2E * c / (1.0 + snr_ref) / (H2 + u_ref) ** 2   # d rate / d u_m
    return dI * (np.log2(1.0 + snr_ref) + (d_rate * (u_new - u_ref)).sum(axis=0))


def harvest_bound_comp(pos, pos_ref, beam_time, k: int, cfg: ScenarioConfig) -> float:
    """Lower bound on device k's harvested energy under joint energy
    beamforming, concave (quadratic) in the UAV positions.

    With a_m = (H^2 + u_m)^(-1/2), device k harvests eta P b0 per unit time
    (sum_m a_m)^2 while the beams aim at it and sum_m a_m^2 while they aim
    at the other device, both convex in the squared distances u_m; this is
    the energy at the reference plus its gradient in u times (u - u_ref).
    """
    pos = np.asarray(pos, dtype=float)
    ref = np.asarray(pos_ref, dtype=float)
    beam = np.asarray(beam_time, dtype=float)   # (2 beams, N)
    H2 = cfg.altitude**2
    w = cfg.device_positions[k]
    scale = cfg.eh_efficiency * cfg.uav_power * cfg.ref_gain
    u_ref = ((ref - w) ** 2).sum(axis=-1)       # (2 uav, N)
    u_new = ((pos - w) ** 2).sum(axis=-1)
    a = (H2 + u_ref) ** -0.5
    s = a.sum(axis=0)
    value = scale * (beam[k] * s**2 + beam[1 - k] * (a**2).sum(axis=0))
    grad = -scale * (beam[k] * s * a**3 + beam[1 - k] * a**4)   # d value / d u_m
    return float((value + (grad * (u_new - u_ref)).sum(axis=0)).sum())


def separation_bound(pos, pos_ref) -> np.ndarray:
    """Per-slot affine lower bound on the squared inter-UAV distance."""
    pos = np.asarray(pos, dtype=float)
    ref = np.asarray(pos_ref, dtype=float)
    d_ref = ref[0] - ref[1]
    d_new = pos[0] - pos[1]
    return -(d_ref**2).sum(axis=-1) + 2.0 * (d_ref * d_new).sum(axis=-1)


def amp_sum_sq_bound(a, a_ref) -> np.ndarray:
    """Affine lower bound on the squared sum of the per-UAV amplitude slacks."""
    a = np.asarray(a, dtype=float)
    a_ref = np.asarray(a_ref, dtype=float)
    s = a.sum(axis=0)
    s_ref = a_ref.sum(axis=0)
    return s_ref**2 + 2.0 * s_ref * (s - s_ref)


def reciprocal_bound(b, b_ref) -> np.ndarray:
    """Affine lower bound on 1/b around b_ref > 0."""
    b = np.asarray(b, dtype=float)
    b_ref = np.asarray(b_ref, dtype=float)
    return 1.0 / b_ref - (b - b_ref) / b_ref**2


def inv_square_bound(a, a_ref) -> np.ndarray:
    """Affine lower bound on 1/a^2 around a_ref > 0."""
    a = np.asarray(a, dtype=float)
    a_ref = np.asarray(a_ref, dtype=float)
    return 1.0 / a_ref**2 - 2.0 * (a - a_ref) / a_ref**3


def sample_received_power(cfg: ScenarioConfig, uav_positions, target: int,
                          samples: int, seed: int):
    """Received powers while both UAVs phase-align their charging signal to
    `target`: the (deterministic) coherent power there and the random leakage
    power at the other device.  Returns (coherent, leakage) estimates."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    pos = np.asarray(uav_positions, dtype=float)
    g = gain_matrix(pos, cfg)  # (device, uav)
    amp = np.sqrt(g)
    other = 1 - target
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(samples, 2, 2))  # (s, device, uav)
    beam = -theta[:, target, :]  # conjugate of the target's channel phases
    field_target = (amp[target][None, :] * np.exp(1j * (theta[:, target, :] + beam))).sum(axis=1)
    field_other = (amp[other][None, :] * np.exp(1j * (theta[:, other, :] + beam))).sum(axis=1)
    scale = cfg.eh_efficiency * cfg.uav_power
    coherent = scale * np.abs(field_target) ** 2
    leakage = scale * np.abs(field_other) ** 2
    return _estimate(coherent, seed), _estimate(leakage, seed)


def phi_derivative(x, D: float, H: float, tau_E: float,
                   eta: float, P: float, beta0: float) -> np.ndarray:
    """Derivative of the charging-hover objective tau_E*eta*P*beta0*pair_gain_sum."""
    x = np.asarray(x, dtype=float)
    a = D**2 / 4.0 + H**2
    num = x**4 + 2.0 * a * x**2 - 3.0 * D**4 / 16.0 + H**4 - H**2 * D**2 / 2.0
    den = ((x**2 + a - D * x) ** 2) * ((x**2 + a + D * x) ** 2)
    return -4.0 * eta * tau_E * beta0 * P * x * num / den


def scalar_grid_charge_time(rate, T: float, tau_grid: int) -> float:
    """Charging duration maximizing the scalar `rate(tau)`: one call per
    point of the uniform grid over (0, T), then a bounded scalar minimizer
    around the best cell."""
    step = T / tau_grid
    taus = step * np.arange(1, tau_grid)
    rates = np.array([rate(t) for t in taus])
    best = int(rates.argmax())
    lo = max(taus[best] - step, step * 1e-3)
    hi = min(taus[best] + step, T - step * 1e-3)
    res = minimize_scalar(lambda t: -rate(t), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-10 * T})
    return float(res.x) if -res.fun >= rates[best] else float(taus[best])


def reference_infinite_ic(cfg: ScenarioConfig, tau_grid: int = 1000) -> HoverSolutionIC:
    """`solve_infinite_ic` by the scalar grid search."""
    tau = scalar_grid_charge_time(lambda t: _rate_at(cfg, t)[0], cfg.duration, tau_grid)
    rate, mode, x_I, x_E, energy = _rate_at(cfg, tau)
    return HoverSolutionIC(charge_time=tau, wpt_hover_x=x_E, wit_mode=mode, wit_hover_x=x_I,
                           common_rate=rate, harvested_per_device=energy)


def reference_infinite_comp(cfg: ScenarioConfig, tau_grid: int = 1000) -> HoverSolutionCoMP:
    """`solve_infinite_comp` by the scalar grid search."""
    T = cfg.duration
    pair, e_unit = wpt_hover_comp(cfg, 1.0)
    x_I = wit_hover_comp(cfg)

    def rate(tau: float) -> float:
        return bound_rate_at(cfg, tau, e_unit * tau, x_I)

    tau = scalar_grid_charge_time(rate, T, tau_grid)
    energy = e_unit * tau
    return HoverSolutionCoMP(charge_time=tau, wpt_hover_pair=pair, wit_hover_x=x_I,
                             tx_power=energy / (T - tau), common_rate=rate(tau),
                             harvested_per_device=energy)


def reference_zf_rate(cfg: ScenarioConfig, uav_positions, tx_power, samples: int, seed: int):
    """`sample_zf_rate` from (samples, 2, 2) phase draws, with each step's
    temporaries and the rates as one (samples, 2) array."""
    pos = np.asarray(uav_positions, dtype=float)
    Q = np.asarray(tx_power, dtype=float)
    rng = np.random.default_rng(seed)
    g = gain_matrix(pos, cfg)  # (device, uav)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(samples, 2, 2))
    phi = theta[:, 0, 0] + theta[:, 1, 1] - theta[:, 0, 1] - theta[:, 1, 0]
    direct, cross = g[0, 0] * g[1, 1], g[0, 1] * g[1, 0]
    det2 = direct + cross - 2.0 * np.sqrt(direct * cross) * np.cos(phi)
    snr = Q[None, :] * det2[:, None] / (cfg.noise_power * g[::-1].sum(axis=1))
    rates = np.log2(1.0 + snr)
    return tuple(_estimate(rates[:, k], seed) for k in range(2))


def device_gains(traj, k: int, cfg: ScenarioConfig) -> np.ndarray:
    """Channel gains from both UAVs to device k, shape (2 uavs, ...)."""
    return channel_gain(_positions_of(traj), cfg.device_positions[k], cfg)


def sinr_ic_device(tx_power, traj, k: int, cfg: ScenarioConfig) -> np.ndarray:
    """Per-slot uplink SINR of device k at UAV k, device 1-k interfering."""
    pos, Q, ko = _positions_of(traj), np.asarray(tx_power, dtype=float), 1 - k
    own = channel_gain(pos[k], cfg.device_positions[k], cfg)
    itf = channel_gain(pos[k], cfg.device_positions[ko], cfg)
    return Q[k] * own / (Q[ko] * itf + cfg.noise_power)


def coherent_power(traj, k: int, cfg: ScenarioConfig) -> np.ndarray:
    """Received power at device k when both UAVs phase-align toward it."""
    amp = np.sqrt(device_gains(traj, k, cfg)).sum(axis=0)
    return cfg.eh_efficiency * cfg.uav_power * amp**2


def leaked_power(traj, k: int, cfg: ScenarioConfig) -> np.ndarray:
    """Received power at device k from beams aligned to the other device."""
    return cfg.eh_efficiency * cfg.uav_power * device_gains(traj, k, cfg).sum(axis=0)


def rate_bound_comp(tx_power, traj, k: int, cfg: ScenarioConfig) -> np.ndarray:
    """Upper bound on device k's joint-reception rate per unit uplink time."""
    g = device_gains(traj, k, cfg)
    snr = 0.5 * np.asarray(tx_power, dtype=float) / cfg.noise_power * g.sum(axis=0)
    return np.log2(1.0 + snr)


def harvested_energy_ic(alloc, traj, k: int, cfg: ScenarioConfig) -> float:
    """Energy device k collects from both UAVs' independent charging."""
    g = device_gains(traj, k, cfg)
    per_slot = cfg.eh_efficiency * cfg.uav_power * alloc.charge_time * g.sum(axis=0)
    return float(per_slot.sum())


def rates_ic(alloc, traj, cfg: ScenarioConfig) -> np.ndarray:
    """Average uplink throughput of each device when both transmit at once."""
    out = np.empty(2)
    for k in range(2):
        sinr = sinr_ic_device(alloc.tx_power, traj, k, cfg)
        out[k] = (alloc.uplink_time * np.log2(1.0 + sinr)).sum() / cfg.duration
    return out


def common_throughput_ic(alloc, traj, cfg: ScenarioConfig) -> float:
    return float(rates_ic(alloc, traj, cfg).min())


def energy_residual_ic(alloc, traj, k: int, cfg: ScenarioConfig) -> float:
    """Harvested minus spent energy of device k."""
    spent = float((alloc.tx_power[k] * alloc.uplink_time).sum())
    return harvested_energy_ic(alloc, traj, k, cfg) - spent


def harvested_energy_comp(alloc, traj, k: int, cfg: ScenarioConfig) -> float:
    """Energy device k collects under joint energy beamforming."""
    coh, non = coherent_power(traj, k, cfg), leaked_power(traj, k, cfg)
    return float((alloc.beam_time[k] * coh + alloc.beam_time[1 - k] * non).sum())


def rates_comp(alloc, traj, cfg: ScenarioConfig) -> np.ndarray:
    """Bound-rate average throughput of each device, joint reception."""
    out = np.empty(2)
    for k in range(2):
        r = rate_bound_comp(alloc.tx_power[k], traj, k, cfg)
        out[k] = (alloc.uplink_time * r).sum() / cfg.duration
    return out


def common_throughput_comp(alloc, traj, cfg: ScenarioConfig) -> float:
    return float(rates_comp(alloc, traj, cfg).min())


def energy_residual_comp(alloc, traj, k: int, cfg: ScenarioConfig) -> float:
    """Harvested minus spent energy of device k."""
    spent = float((alloc.tx_power[k] * alloc.uplink_time).sum())
    return harvested_energy_comp(alloc, traj, k, cfg) - spent


def barrier_objective(problem, start, t: float = 1.0) -> float:
    """Objective of the plain barrier method (Boyd and Vandenberghe, Convex
    Optimization, Algorithm 11.1) on a kernel `Problem` from its strictly
    feasible start: maximize the last variable R by centering
    psi = -t R - sum(ln s) at t, 10 t, 100 t, ... with damped Newton steps,
    each backtracked by halves until it stays feasible and passes the Armijo
    test with fraction 0.25, until the gap m / t is within 1e-9 (1 + |R|).
    A stage stops once the half squared Newton decrement is within 1e-8,
    after 100 steps, or when the line search finds no decrease (at psi's
    rounding).  The last stage must end in Newton's quadratic phase, at a
    decrement lambda^2 = -grad psi . d of at most ((1 - 2 * 0.25) / 4)^2
    (Boyd and Vandenberghe, 9.6.4), or this raises AssertionError: a stage
    that stalled before it, as from t = 1 on the N = 500 coordination
    trajectory programs (lambda^2 ~ 2e9, R 1.8% low), gives no reference.
    At t ~ 1e10 psi's rounding can stop a stage short of its 1e-8 (the 36
    programs of `tests/test_sca_ic.py` end at lambda^2 <= 4.7e-4).  The
    problem's compiled rows give the slacks, the barrier Hessian and its
    factorization, so programs of thousands of variables stay affordable;
    nothing else of the kernel's solver is used."""
    lay = problem._compiled()
    x = np.asarray(start, dtype=float).copy()
    s = lay.slacks(x)
    assert s.min() > 0.0, "start is not strictly feasible"
    while True:
        for _ in range(100):
            inv_s = 1.0 / s
            gv, hv = lay.derivatives(x, inv_s, inv_s)
            grad = lay.gradient(gv, inv_s)
            grad[-1] -= t
            d = lay.factor(gv, hv, inv_s)(-grad)
            slope = float(grad @ d)
            if -slope / 2.0 <= 1e-8:
                break
            psi = -t * x[-1] - np.log(s).sum()
            alpha = 1.0
            while alpha > 1e-16:
                trial = x + alpha * d
                s_try = lay.slacks(trial)
                if s_try.min() > 0.0 and \
                        -t * trial[-1] - np.log(s_try).sum() <= psi + 0.25 * alpha * slope:
                    break
                alpha /= 2.0
            else:
                break
            x, s = trial, s_try
        if lay.m / t <= 1e-9 * (1.0 + abs(x[-1])):
            assert -slope <= 0.125 ** 2, \
                f"last barrier stage (t = {t:.0e}) stalled at decrement {-slope:.2e}"
            return float(x[-1])
        t *= 10.0
