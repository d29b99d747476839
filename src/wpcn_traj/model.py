"""Physical model of the two-UAV / two-device wireless-powered network.

Everything is kept in linear SI units (W, J, m, s); dB and dBm inputs are
converted once at the configuration boundary.  Both cooperation modes pose
one problem, the common uplink throughput under each device's energy
neutrality, and differ in two quantities only: the per-slot uplink rates
and the harvested energy.  Each mode's allocation type defines those two
(`slot_rates`, `harvested`); the rates, spent energy and residuals built on
them are written once in `_Allocation`, and `common_throughput` and
`feasibility_report` serve both modes.  Every model call evaluates the
channel once, for both devices: the line-of-sight gain b0 / (d^2 + H^2) is
written once (`channel_gain`), `gain_matrix` broadcasts it over both
devices and UAVs, and the SINRs, bounds and charging powers of both devices
come from that one tensor.  Positions may be a `Trajectory` or a plain
(2, N, 2) slot-position array, so validated trajectories and synthetic
hover schedules are scored by the same code.  Channel phases are
random in the underlying physical model but never enter these
deterministic evaluations; they only matter to the Monte-Carlo oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from numbers import Integral
from typing import Mapping

import numpy as np

# Feasibility tolerances: geometric in metres, physical in seconds / joules.
GEOM_TOL = 1e-6
PHYS_TOL = 1e-9


class ConfigError(ValueError):
    """Raised when a scenario configuration violates a model invariant."""


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def watt_to_dbm(watt: float) -> float:
    return 10.0 * np.log10(watt / 1e-3)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _as_point_pair(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (2, 2):
        raise ConfigError(f"{name} must be two 2-D points, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class ScenarioConfig:
    """All physical and mission constants of one scenario instance.

    Defaults follow the benchmark setup: 5 m altitude, -100 dBm noise,
    -30 dB reference gain, 40 dBm UAV transmit power, 60% harvesting
    efficiency, 5 m/s speed cap and 1 m separation, with the UAVs flying
    from (-2,-2)/(2,-2) to (-2,2)/(2,2) and the devices at (-D/2,0), (D/2,0).
    """

    altitude: float = 5.0
    device_distance: float = 5.0
    uav_power: float = 10.0
    eh_efficiency: float = 0.6
    ref_gain: float = 1e-3
    noise_power: float = 1e-13
    max_speed: float = 5.0
    min_separation: float = 1.0
    duration: float = 10.0
    num_slots: int = 100
    uav_initial: np.ndarray = field(
        default_factory=lambda: np.array([[-2.0, -2.0], [2.0, -2.0]])
    )
    uav_final: np.ndarray = field(
        default_factory=lambda: np.array([[-2.0, 2.0], [2.0, 2.0]])
    )
    device_positions: np.ndarray = field(init=False)

    def __post_init__(self):
        half = self.device_distance / 2.0
        object.__setattr__(self, "device_positions", np.array([[-half, 0.0], [half, 0.0]]))
        for name in ("uav_initial", "uav_final"):
            object.__setattr__(self, name, _as_point_pair(getattr(self, name), name))
        for key in ("altitude", "uav_power", "ref_gain", "noise_power",
                    "max_speed", "min_separation", "duration", "device_distance"):
            if not 0.0 < getattr(self, key) < np.inf:
                raise ConfigError(f"{key} must be positive and finite")
        if not 0.0 < self.eh_efficiency <= 1.0:
            raise ConfigError("eh_efficiency must lie in (0, 1]")
        if isinstance(self.num_slots, bool) or not isinstance(self.num_slots, Integral) \
                or self.num_slots < 1:
            raise ConfigError(f"num_slots must be an integer >= 1, got {self.num_slots!r}")
        for m in range(2):
            need = float(np.linalg.norm(self.uav_initial[m] - self.uav_final[m])) / self.max_speed
            if self.duration < need - PHYS_TOL:
                raise ConfigError(
                    f"duration too short for uav {m + 1} endpoints: need >= {need:.6g} s"
                )
        for name, pts in (("uav_initial", self.uav_initial), ("uav_final", self.uav_final)):
            if np.linalg.norm(pts[0] - pts[1]) < self.min_separation - GEOM_TOL:
                raise ConfigError(f"{name} points violate min_separation")

    @property
    def slot_duration(self) -> float:
        return self.duration / self.num_slots

    @property
    def max_step(self) -> float:
        """Maximum per-slot displacement."""
        return self.max_speed * self.slot_duration


@dataclass(frozen=True)
class Trajectory:
    """Slot-boundary horizontal positions of both UAVs, shape (2, N+1, 2).

    Index 0 is the initial location and index N the final one; slot-n model
    quantities are evaluated at the right endpoint q[m][n], n = 1..N.
    """

    positions: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.positions, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != 2 or arr.shape[2] != 2:
            raise ValueError(f"positions must have shape (2, N+1, 2), got {arr.shape}")
        object.__setattr__(self, "positions", arr)

    @property
    def slot_positions(self) -> np.ndarray:
        """Positions used for slot-n model quantities, shape (2, N, 2)."""
        return self.positions[:, 1:, :]

    def residuals(self, cfg: ScenarioConfig) -> dict:
        pos = self.positions
        endpoint = max(
            float(np.abs(pos[:, 0, :] - cfg.uav_initial).max()),
            float(np.abs(pos[:, -1, :] - cfg.uav_final).max()),
        )
        steps = np.linalg.norm(np.diff(pos, axis=1), axis=2)
        speed = max(0.0, float(steps.max() - cfg.max_step)) if steps.size else 0.0
        gaps = np.linalg.norm(pos[0, 1:, :] - pos[1, 1:, :], axis=1)
        separation = max(0.0, float(cfg.min_separation - gaps.min()))
        return {"endpoint": endpoint, "speed": speed, "separation": separation}

    def is_feasible(self, cfg: ScenarioConfig) -> bool:
        return max(self.residuals(cfg).values()) <= GEOM_TOL


def _positions_of(traj) -> np.ndarray:
    """Accept a Trajectory or a raw (2, N, 2) slot-position array."""
    if isinstance(traj, Trajectory):
        return traj.slot_positions
    return np.asarray(traj, dtype=float)


@dataclass(frozen=True)
class _Allocation:
    """What both modes' allocations share: float-array fields, the slot and
    energy checks, and the quantities built on the two that each mode
    defines, its per-slot uplink rates (`slot_rates`) and each device's
    harvested energy (`harvested`).  The fields are, in order, the charging
    durations (one row per charging block, `blocks`), the uplink durations
    and the device transmit powers."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=float))

    @property
    def blocks(self) -> np.ndarray:
        """Charging durations, shape (blocks, N)."""
        return np.atleast_2d(getattr(self, fields(self)[0].name))

    @property
    def spent(self) -> np.ndarray:
        """Energy each device spends on its uplink, J, shape (2,)."""
        return (self.tx_power * self.uplink_time).sum(axis=1)

    def rates(self, traj, cfg: ScenarioConfig) -> np.ndarray:
        """Average uplink throughput of each device, bps/Hz, shape (2,)."""
        slot = self.slot_rates(self.tx_power, traj, cfg)
        return (self.uplink_time * slot).sum(axis=1) / cfg.duration

    def residuals(self, cfg: ScenarioConfig, traj) -> dict:
        """Slot budget, negativity and each device's energy shortfall
        (harvested minus spent, negated), 0 when satisfied."""
        charge, uplink, power = self.blocks, self.uplink_time, self.tx_power
        used = charge.sum(axis=0) + uplink
        budget = float((used - cfg.slot_duration).max())
        neg = -min(float(charge.min()), float(uplink.min()), float(power.min()))
        out = {"slot_budget": max(0.0, budget), "negativity": max(0.0, neg)}
        energy = self.harvested(traj, cfg) - self.spent
        for k in range(2):
            out[f"energy_dev{k + 1}"] = max(0.0, -float(energy[k]))
        return out


@dataclass(frozen=True)
class AllocationIC(_Allocation):
    """Per-slot sub-slot durations and device transmit powers, coordination mode."""

    charge_time: np.ndarray  # (N,) downlink charging sub-slot, s
    uplink_time: np.ndarray  # (N,) uplink data sub-slot, s
    tx_power: np.ndarray     # (2, N) device transmit power, W

    @staticmethod
    def slot_rates(tx_power, traj, cfg: ScenarioConfig) -> np.ndarray:
        """Per-slot uplink rate of each device when both transmit at once,
        bps/Hz, shape (2, N)."""
        return np.log2(1.0 + sinr_ic(tx_power, traj, cfg))

    def harvested(self, traj, cfg: ScenarioConfig) -> np.ndarray:
        """Energy each device collects from both UAVs' independent charging,
        J, shape (2,)."""
        g = gain_matrix(traj, cfg)
        return (cfg.eh_efficiency * cfg.uav_power * self.charge_time * g.sum(axis=1)).sum(axis=1)


@dataclass(frozen=True)
class AllocationCoMP(_Allocation):
    """Per-slot beamforming sub-sub-slots, uplink sub-slot and powers, joint mode."""

    beam_time: np.ndarray    # (2, N) charging sub-sub-slot aimed at device k, s
    uplink_time: np.ndarray  # (N,) joint-reception uplink sub-slot, s
    tx_power: np.ndarray     # (2, N) device transmit power, W

    @staticmethod
    def slot_rates(tx_power, traj, cfg: ScenarioConfig) -> np.ndarray:
        """Per-slot bound on each device's joint-reception rate, bps/Hz,
        shape (2, N): log2(1 + Q sum_m g / (2 sigma^2)), the SNR of both
        UAVs' received powers added."""
        g = gain_matrix(traj, cfg)
        return np.log2(1.0 + 0.5 * np.asarray(tx_power, dtype=float) / cfg.noise_power
                       * g.sum(axis=1))

    @staticmethod
    def charging_power(traj, cfg: ScenarioConfig) -> np.ndarray:
        """Harvested power power[k, j] of device k while both UAVs' beams aim
        at device j, W, shape (2, 2, N): coherent, eta P (sum_m sqrt g)^2,
        on the diagonal, and leaked, eta P sum_m g, off it."""
        g = gain_matrix(traj, cfg)
        eta_p = cfg.eh_efficiency * cfg.uav_power
        power = np.repeat((eta_p * g.sum(axis=1))[:, None], 2, axis=1)
        power[[0, 1], [0, 1]] = eta_p * np.sqrt(g).sum(axis=1) ** 2
        return power

    def harvested(self, traj, cfg: ScenarioConfig) -> np.ndarray:
        """Energy each device collects under joint energy beamforming, J,
        shape (2,): each beam's time weighting `charging_power`, summed over
        the beams and the slots."""
        return (self.beam_time * self.charging_power(traj, cfg)).sum(axis=1).sum(axis=1)


# ---------------------------------------------------------------------------
# Channel and link quantities
# ---------------------------------------------------------------------------

def channel_gain(q, w, cfg: ScenarioConfig) -> np.ndarray:
    """Line-of-sight channel power gain between a UAV at q and a device at w."""
    q = np.asarray(q, dtype=float)
    w = np.asarray(w, dtype=float)
    d2 = ((q - w) ** 2).sum(axis=-1)
    return cfg.ref_gain / (d2 + cfg.altitude**2)


def _device_dist2(traj, cfg: ScenarioConfig) -> np.ndarray:
    """Squared horizontal distances d2[k, m, n] from UAV m to device k over
    all slots."""
    pos = _positions_of(traj)  # (2, N, 2)
    return ((pos[None, :, :, :] - cfg.device_positions[:, None, None, :]) ** 2).sum(axis=-1)


def gain_matrix(traj, cfg: ScenarioConfig) -> np.ndarray:
    """Channel power gains g[k, m, ...] from UAV m to device k, for UAV
    positions of any shape (2, ..., 2): (2, N, 2) slots, or one (2, 2) pair."""
    pos = _positions_of(traj)
    devices = cfg.device_positions.reshape((2,) + (1,) * (pos.ndim - 1) + (2,))
    return channel_gain(pos[None], devices, cfg)


def sinr_ic(tx_power, traj, cfg: ScenarioConfig) -> np.ndarray:
    """Per-slot uplink SINR of each device when both transmit at once, shape
    (2, N): device k is received by UAV k, device 1-k interferes."""
    g = gain_matrix(traj, cfg)
    Q = np.asarray(tx_power, dtype=float)
    own, other = [0, 1], [1, 0]
    return Q * g[own, own] / (Q[other] * g[other, own] + cfg.noise_power)


def comp_rate_upper_bound(tx_power, slot_positions, k: int, cfg: ScenarioConfig) -> np.ndarray:
    """Upper bound on device k's joint-reception rate per unit uplink time:
    row k of `AllocationCoMP.slot_rates` at power `tx_power`."""
    return AllocationCoMP.slot_rates(tx_power, slot_positions, cfg)[k]


def common_throughput(alloc, traj, cfg: ScenarioConfig) -> float:
    """Minimum of the two devices' average uplink rates in either mode,
    bps/Hz."""
    return float(alloc.rates(traj, cfg).min())


def feasibility_report(cfg: ScenarioConfig, traj: Trajectory, alloc) -> Mapping[str, float]:
    """All constraint residuals of a candidate solution (0 = satisfied)."""
    return traj.residuals(cfg) | alloc.residuals(cfg, traj)


def is_feasible(cfg: ScenarioConfig, traj: Trajectory, alloc) -> bool:
    rep = feasibility_report(cfg, traj, alloc)
    geom = max(rep["endpoint"], rep["speed"], rep["separation"])
    phys = max(rep["slot_budget"], rep["negativity"],
               rep["energy_dev1"], rep["energy_dev2"])
    return geom <= GEOM_TOL and phys <= PHYS_TOL
