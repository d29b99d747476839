"""The trajectory subproblems assemble their surrogate rows by hand; these
tests evaluate each assembled row at random points near the expansion point
and compare it with the reference surrogate in `oracles.py`.

Rows are read through `Problem.slacks` (slack = -g for a row g(x) <= 0), in
the order the builders add them: the two rate rows, the two energy rows, the
joint mode's slack-definition rows, and the N-1 collision rows last."""

import numpy as np
import pytest

from wpcn_traj import AllocationCoMP, AllocationIC, direct_flight_trajectory
from wpcn_traj.model import harvested_energy_ic
from wpcn_traj.sca_comp import _traj_subproblem_comp, slack_at_equality
from wpcn_traj.sca_ic import _traj_subproblem_ic
from conftest import benchmark_config
from oracles import (amp_sum_sq_bound, harvest_bound_ic, inv_square_bound,
                     reciprocal_bound, separation_bound, traj_rate_bound)

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
            at_ref = spend[k] - harvested_energy_ic(alloc, ref_slots, k, cfg)
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
    prob, start, amp_keys, inv_keys = _traj_subproblem_comp(cfg, alloc, ref)
    slack = slack_at_equality(cfg, ref[:, 1:, :])
    H2 = cfg.altitude**2
    w = cfg.device_positions
    spend = (Q * alloc.uplink_time).sum(axis=1)
    eta_p = cfg.eh_efficiency * cfg.uav_power
    for _ in range(5):
        x = _point(rng, ref, prob.n)
        amp = slack.amp * rng.uniform(0.8, 1.2, size=slack.amp.shape)
        inv = slack.inv_gain * rng.uniform(0.8, 1.2, size=slack.inv_gain.shape)
        for k, m, s, j in amp_keys:
            x[j] = amp[k, m, s]
        for k, m, s, j in inv_keys:
            x[j] = inv[k, m, s]
        pos = _positions(ref, x)[:, 1:, :]
        x_ref = start.copy()
        x_ref[-1] = 0.0

        def energy(k, pos, amp):
            """spend minus the coherent (amplitude) and leaked harvest bounds."""
            slots = sorted({s for kk, _, s, _ in amp_keys if kk == k})
            coherent = sum(eta_p * beam[k, s] * float(amp_sum_sq_bound(
                amp[k, :, s], slack.amp[k, :, s])) for s in slots)
            leaked = harvest_bound_ic(pos, ref[:, 1:, :], beam[1 - k], k, cfg)
            return spend[k] - coherent - leaked

        slacks = prob.slacks(x)
        for k in range(2):
            eps = 1e-10 * (1.0 + spend[k]) + max(0.0, energy(k, ref[:, 1:, :], slack.amp))
            assert -slacks[2 + k] == pytest.approx(
                energy(k, pos, amp) - eps, rel=1e-9, abs=1e-15)

        # Slack rows: ||q - w_k||^2 + H^2 <= b0 inv_square_bound(amp) and
        # <= reciprocal_bound(inv_gain), relaxed at the reference.
        rows = iter(-slacks[4:4 + len(amp_keys) + len(inv_keys)])
        for keys, bound, refs in (
                (amp_keys, lambda v, r: cfg.ref_gain * inv_square_bound(v, r), slack.amp),
                (inv_keys, reciprocal_bound, slack.inv_gain)):
            for k, m, s, j in keys:
                def gap(p, v):
                    return (float(((p[m, s] - w[k]) ** 2).sum()) + H2
                            - float(bound(v, refs[k, m, s])))

                eps = 1e-9 * (1.0 + H2) + max(0.0, gap(ref[:, 1:, :], x_ref[j]))
                assert next(rows) == pytest.approx(gap(pos, x[j]) - eps,
                                                             rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(slacks[-(N - 1):],
                                   _collision_slack(cfg, ref, _positions(ref, x)),
                                   rtol=1e-10, atol=1e-10)
