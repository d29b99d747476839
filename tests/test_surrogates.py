"""Both modes' trajectory subproblems assemble their surrogate rows in
`sca_ic._traj_program`, from tangents in the squared UAV-device distances
built by `sca_ic._distance_tangent`.  These tests check that builder
directly, then evaluate each assembled row at random points near the
expansion point and compare it with the reference surrogate in `oracles.py`.

Rows are read through `Problem.slacks` (slack = -g for a row g(x) <= 0), in
the order the builders add them: the two rate rows, the two energy rows,
and the N-1 collision rows last."""

import numpy as np
import pytest

from wpcn_traj import AllocationCoMP, AllocationIC, direct_flight_trajectory
from wpcn_traj.sca_comp import _traj_subproblem_comp
from wpcn_traj.sca_ic import _distance_tangent, _traj_subproblem_ic
from conftest import benchmark_config
from oracles import (comp_traj_rate_bound, harvest_bound_comp, harvest_bound_ic,
                     separation_bound, traj_rate_bound)

N = 8


def _setup(seed):
    """Config, a reference trajectory (direct flight, wiggled) and a random
    time/power split with idle slots and one silent interferer."""
    rng = np.random.default_rng(seed)
    cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=N)
    ref = direct_flight_trajectory(cfg).positions.copy()
    ref[:, 1:N, :] += rng.uniform(-0.3, 0.3, size=(2, N - 1, 2))
    share = rng.uniform(0.2, 0.8, size=N)
    share[[1, 4]] = [0.0, 1.0]            # a slot without uplink, one without charging
    Q = rng.uniform(1e-6, 1e-4, size=(2, N))
    Q[0, 5] = 0.0
    return rng, cfg, ref, share, Q


def _point(rng, ref, nv):
    """Random positions within 0.2 m of the reference, epigraph variable 0."""
    x = np.zeros(nv)
    x[:4 * (N - 1)] = (ref[:, 1:N, :]
                       + rng.uniform(-0.2, 0.2, size=(2, N - 1, 2))).reshape(-1)
    return x


def _positions(ref, x):
    pos = ref.copy()
    pos[:, 1:N, :] = x[:4 * (N - 1)].reshape(2, N - 1, 2)
    return pos


def _collision_slack(cfg, ref, pos):
    """Collision-row slack expected from `separation_bound`, with the
    relaxation `add_geometry_rows` applies."""
    dmin2 = cfg.min_separation**2
    nrm2 = ((ref[0, 1:N] - ref[1, 1:N]) ** 2).sum(axis=-1)
    eps = 1e-8 * max(1.0, dmin2) + np.maximum(0.0, dmin2 - nrm2)
    return separation_bound(pos[:, 1:N], ref[:, 1:N]) - dmin2 + eps


@pytest.mark.parametrize("uavs, devs", [([0, 1], [1]), ([1], [0, 1])])
def test_distance_tangent_is_exact_at_ref_and_below(uavs, devs):
    """Minus the builder's row is exact at `ref` and below
    sum coef / (H^2 + u) elsewhere, also with a nonzero coefficient on the
    fixed final slot."""
    rng, cfg, ref, _, _ = _setup(3)
    coef = rng.uniform(0.1, 2.0, size=(len(uavs), len(devs), N))
    idx, diag, lin, const = _distance_tangent(cfg, ref, coef, uavs, devs, np.arange(N))
    w = cfg.device_positions[devs]

    def exact(pos):
        u = ((pos[uavs][:, None, 1:, :] - w[:, None, :]) ** 2).sum(axis=-1)
        return float((coef / (cfg.altitude**2 + u)).sum())

    def bound(x):
        xi = x[idx]
        return -(0.5 * (diag * xi * xi).sum() + (lin * xi).sum() + const)

    x = np.zeros(4 * (N - 1) + 1)
    x[:-1] = ref[:, 1:N, :].reshape(-1)
    assert bound(x) == pytest.approx(exact(ref), rel=1e-12)
    for _ in range(20):
        x[:-1] = (ref[:, 1:N, :] + rng.uniform(-5.0, 5.0, size=(2, N - 1, 2))).reshape(-1)
        assert bound(x) <= exact(_positions(ref, x)) * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coordination_rows_match_bounds(seed):
    rng, cfg, ref, share, Q = _setup(seed)
    d = cfg.slot_duration
    alloc = AllocationIC(d * (1.0 - share), d * share, Q)
    prob, start = _traj_subproblem_ic(cfg, alloc, ref)
    ref_slots = ref[:, 1:, :]
    spend = (Q * alloc.uplink_time).sum(axis=1)
    for _ in range(5):
        x = _point(rng, ref, prob.n)
        pos = _positions(ref, x)[:, 1:, :]
        slacks = prob.slacks(x)
        for k in range(2):
            want = traj_rate_bound(pos, ref_slots, Q, alloc.uplink_time, k, cfg).sum()
            assert slacks[k] == pytest.approx(
                want / cfg.duration, rel=1e-10, abs=1e-12)
            # Energy row: spend - harvest bound <= 0, relaxed so that the
            # reference is strictly inside.
            at_ref = spend[k] - alloc.harvested(ref_slots, cfg)[k]
            eps = 1e-10 * (1.0 + spend[k]) + max(0.0, at_ref)
            want = spend[k] - harvest_bound_ic(pos, ref_slots, alloc.charge_time, k, cfg) - eps
            assert -slacks[2 + k] == pytest.approx(want, rel=1e-9, abs=1e-15)
        np.testing.assert_allclose(slacks[-(N - 1):],
                                   _collision_slack(cfg, ref, _positions(ref, x)),
                                   rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_joint_rows_match_bounds(seed):
    rng, cfg, ref, share, Q = _setup(seed)
    d = cfg.slot_duration
    split = rng.uniform(0.1, 0.9, size=N)
    beam = np.stack([split, 1.0 - split]) * d * (1.0 - share)
    alloc = AllocationCoMP(beam, d * share, Q)
    prob, start = _traj_subproblem_comp(cfg, alloc, ref)
    assert prob.n == 4 * (N - 1) + 1
    ref_slots = ref[:, 1:, :]
    spend = (Q * alloc.uplink_time).sum(axis=1)
    for _ in range(5):
        x = _point(rng, ref, prob.n)
        pos = _positions(ref, x)[:, 1:, :]
        slacks = prob.slacks(x)
        for k in range(2):
            want = comp_traj_rate_bound(pos, ref_slots, Q, alloc.uplink_time, k, cfg).sum()
            assert slacks[k] == pytest.approx(
                want / cfg.duration, rel=1e-10, abs=1e-12)
            # Energy row: spend - harvest bound <= 0, relaxed so that the
            # reference is strictly inside.
            at_ref = spend[k] - alloc.harvested(ref_slots, cfg)[k]
            eps = 1e-10 * (1.0 + spend[k]) + max(0.0, at_ref)
            want = spend[k] - harvest_bound_comp(pos, ref_slots, beam, k, cfg) - eps
            assert -slacks[2 + k] == pytest.approx(want, rel=1e-9, abs=1e-15)
        np.testing.assert_allclose(slacks[-(N - 1):],
                                   _collision_slack(cfg, ref, _positions(ref, x)),
                                   rtol=1e-10, atol=1e-10)
