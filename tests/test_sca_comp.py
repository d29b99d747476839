import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from wpcn_traj import (AllocationCoMP, Initialization,
                       common_throughput, comp_rate_upper_bound,
                       direct_flight_trajectory,
                       is_feasible, optimize_power_comp, optimize_time_comp,
                       optimize_traj_comp, solve_infinite_comp,
                       solve_infinite_ic, solve_p1, solve_p21, solve_p21_direct)
from wpcn_traj import sca_comp, sca_ic
from wpcn_traj.kernel import Status
from wpcn_traj.model import gain_matrix
from wpcn_traj.sca_comp import _plans_comp, _warm_comp
from wpcn_traj.sca_ic import _feasible_starts, initial_allocation
from conftest import benchmark_config


def _starts_comp(cfg, hover):
    """{Initialization: (trajectory, windows)} of the joint mode's feasible
    start plans."""
    return {init: (traj, windows)
            for init, traj, windows in _feasible_starts(cfg, _plans_comp(cfg, hover))}


class TestShfTrajectory:
    def test_visit_order_and_feasibility(self):
        cfg = benchmark_config(device_distance=15.0, duration=20.0, num_slots=100)
        hover = solve_infinite_comp(cfg, tau_grid=150)
        traj, windows = _starts_comp(cfg, hover)[Initialization.SHF]
        assert traj.is_feasible(cfg)
        x1, x2 = hover.wpt_hover_pair
        m1, m2 = hover.mirror_pair
        stops = [
            [np.array([x1, 0.0]), np.array([-hover.wit_hover_x, 0.0]),
             np.array([m1, 0.0])],
            [np.array([x2, 0.0]), np.array([hover.wit_hover_x, 0.0]),
             np.array([m2, 0.0])],
        ]
        for m in range(2):
            arrivals = []
            for stop in stops[m]:
                d = np.linalg.norm(traj.positions[m] - stop, axis=1)
                assert d.min() <= cfg.max_step
                arrivals.append(int(d.argmin()))
            assert arrivals[0] < arrivals[1] < arrivals[2]
        assert set(windows) == {0, "uplink", 1}

    def test_uavs_revisit_similar_spots_at_different_times(self):
        cfg = benchmark_config(device_distance=15.0, duration=20.0, num_slots=100)
        hover = solve_infinite_comp(cfg, tau_grid=150)
        traj = _starts_comp(cfg, hover)[Initialization.SHF][0]
        # Each UAV passes close to where the other one hovers for charging,
        # yet the separation constraint holds throughout.
        x1, _ = hover.wpt_hover_pair
        d_other = np.linalg.norm(traj.positions[1] - np.array([x1, 0.0]), axis=1)
        assert d_other.min() < 2.0
        gaps = np.linalg.norm(traj.positions[0] - traj.positions[1], axis=1)
        assert gaps.min() >= cfg.min_separation - 1e-6

    def test_short_mission_needs_direct_flight(self):
        cfg = benchmark_config(device_distance=15.0, duration=2.0, num_slots=10)
        hover = solve_infinite_comp(cfg, tau_grid=150)
        assert Initialization.SHF not in _starts_comp(cfg, hover)

    def test_uplink_pair_start_hovers_between_devices(self):
        cfg = benchmark_config(device_distance=15.0, duration=20.0, num_slots=100)
        hover = solve_infinite_comp(cfg, tau_grid=150)
        traj, windows = _starts_comp(cfg, hover)[Initialization.UPLINK_PAIR]
        assert traj.is_feasible(cfg) and windows is None
        # Most of the mission is spent parked at the uplink pair, and no UAV
        # ever flies past a device.
        xi = hover.wit_hover_x
        for m, x in enumerate((-xi, xi)):
            d = np.linalg.norm(traj.positions[m] - np.array([x, 0.0]), axis=1)
            assert (d < 1e-9).mean() > 0.5
        assert np.abs(traj.positions[:, :, 0]).max() <= max(
            cfg.device_distance / 2.0, np.abs(cfg.uav_initial[:, 0]).max(),
            np.abs(cfg.uav_final[:, 0]).max())
        short = benchmark_config(device_distance=15.0, duration=1.0, num_slots=10)
        assert list(_starts_comp(short, hover)) == [Initialization.DIRECT_FLIGHT]


class TestOptimizeTime:
    def test_single_slot_matches_grid(self):
        cfg = benchmark_config(device_distance=15.0, duration=1.0, num_slots=1,
                               uav_initial=[[-6, -1], [6, -1]],
                               uav_final=[[-6, 1], [6, 1]])
        traj = direct_flight_trajectory(cfg)
        Q = np.full((2, 1), 3e-5)
        alloc = optimize_time_comp(cfg, traj, Q)
        got = common_throughput(alloc, traj, cfg)
        pos = traj.slot_positions
        rate = np.array([float(comp_rate_upper_bound(Q[k, 0], pos[:, 0], k, cfg))
                         for k in range(2)])
        power = AllocationCoMP.charging_power(pos[:, 0], cfg)
        coh, non = power[[0, 1], [0, 1]], power[[0, 1], [1, 0]]
        step = 1e-3
        e = np.arange(0.0, 1.0 + step / 2, step)
        E1, E2 = np.meshgrid(e, e, indexing="ij")
        UP = 1.0 - E1 - E2
        ok = UP >= 0
        for k, (ek, eo) in enumerate([(E1, E2), (E2, E1)]):
            ok &= Q[k, 0] * UP <= coh[k] * ek + non[k] * eo + 1e-18
        obj = np.where(ok, UP * rate.min(), -np.inf)
        assert got == pytest.approx(obj.max(), abs=1e-3 * (1 + obj.max()))

    def test_zero_power_trivial(self):
        cfg = benchmark_config(device_distance=15.0, duration=1.0, num_slots=3)
        traj = direct_flight_trajectory(cfg)
        alloc = optimize_time_comp(cfg, traj, np.zeros((2, 3)))
        assert common_throughput(alloc, traj, cfg) == 0.0

    def test_weakly_improves_incumbent(self):
        cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=16)
        hover = solve_infinite_comp(cfg, tau_grid=150)
        traj = direct_flight_trajectory(cfg)
        alloc0 = initial_allocation(cfg, traj, *_warm_comp(hover))
        alloc1 = optimize_time_comp(cfg, traj, alloc0.tx_power)
        assert common_throughput(alloc1, traj, cfg) >= \
            common_throughput(alloc0, traj, cfg) - 1e-12


class TestOptimizePower:
    def test_symmetric_geometry_equal_powers(self):
        cfg = benchmark_config(device_distance=15.0, duration=1.0, num_slots=2)
        traj = direct_flight_trajectory(cfg)
        beam = np.full((2, 2), 0.15)
        uplink = np.full(2, 0.2)
        alloc = AllocationCoMP(beam, uplink, np.full((2, 2), 1e-7))
        Q, _ = optimize_power_comp(cfg, traj, alloc)
        assert np.allclose(Q[0], Q[1], rtol=1e-6)

    def test_single_slot_uses_full_budget(self):
        cfg = benchmark_config(device_distance=15.0, duration=1.0, num_slots=1)
        traj = direct_flight_trajectory(cfg)
        alloc = AllocationCoMP(np.full((2, 1), 0.2), np.array([0.5]),
                               np.full((2, 1), 1e-8))
        budgets = [alloc.harvested(traj, cfg)[k] for k in range(2)]
        Q, _ = optimize_power_comp(cfg, traj, alloc)
        for k in range(2):
            assert Q[k, 0] == pytest.approx(budgets[k] / 0.5, rel=1e-4)

    def test_two_slot_grid_oracle(self):
        cfg = benchmark_config(device_distance=15.0, duration=2.0, num_slots=2,
                               uav_initial=[[-6, -1], [6, -1]],
                               uav_final=[[-6, 1], [6, 1]])
        traj = direct_flight_trajectory(cfg)
        beam = np.array([[0.4, 0.1], [0.1, 0.4]])
        uplink = np.array([0.5, 0.5])
        alloc = AllocationCoMP(beam, uplink, np.full((2, 2), 1e-8))
        budgets = [alloc.harvested(traj, cfg)[k] for k in range(2)]
        Q, _ = optimize_power_comp(cfg, traj, alloc)
        got = common_throughput(AllocationCoMP(beam, uplink, Q), traj, cfg)
        # The bound-rate decouples across devices, so sweep each device's
        # first-slot power with the energy constraint binding.
        pos = traj.slot_positions
        per_dev, c_dev = [], []
        for k in range(2):
            c = np.array([float(comp_rate_upper_bound(1.0, pos[:, n], k, cfg) * 0
                                + 0.5 * 1.0 / cfg.noise_power * cfg.ref_gain
                                * sum(1.0 / (((pos[m, n] - cfg.device_positions[k]) ** 2).sum()
                                             + cfg.altitude**2) for m in range(2)))
                          for n in range(2)])
            c_dev.append(c)
            q0 = np.linspace(0.0, budgets[k] / uplink[0], 40001)
            q1 = (budgets[k] - q0 * uplink[0]) / uplink[1]
            r = (uplink[0] * np.log2(1 + c[0] * q0)
                 + uplink[1] * np.log2(1 + c[1] * q1)) / cfg.duration
            per_dev.append(r.max())
        oracle = min(per_dev)
        assert got == pytest.approx(oracle, abs=1e-3 * (1 + oracle))
        # The devices do not interact, so each one reaches its own maximum,
        # found here by a bounded scalar search on the same energy line, and
        # spends its whole budget.
        rates = AllocationCoMP(beam, uplink, Q).rates(traj, cfg)
        for k in range(2):
            def neg_rate(q0, k=k):
                q1 = (budgets[k] - q0 * uplink[0]) / uplink[1]
                return -float(uplink[0] * np.log2(1 + c_dev[k][0] * q0)
                              + uplink[1] * np.log2(1 + c_dev[k][1] * q1)) / cfg.duration
            hi = budgets[k] / uplink[0]
            res = minimize_scalar(neg_rate, bounds=(0.0, hi), method="bounded",
                                  options={"xatol": 1e-14 * hi})
            best = -min(res.fun, neg_rate(0.0), neg_rate(hi))
            assert rates[k] == pytest.approx(best, rel=1e-9)
            assert float(Q[k] @ uplink) == pytest.approx(budgets[k], rel=1e-12)

    def test_energy_binds_at_optimum(self):
        cfg = benchmark_config(device_distance=15.0, duration=2.0, num_slots=4)
        traj = direct_flight_trajectory(cfg)
        beam = np.full((2, 4), 0.1)
        uplink = np.full(4, 0.2)
        alloc = AllocationCoMP(beam, uplink, np.full((2, 4), 1e-8))
        Q, _ = optimize_power_comp(cfg, traj, alloc)
        out = AllocationCoMP(beam, uplink, Q)
        residuals = [out.harvested(traj, cfg)[k]
                     - float((Q[k] * uplink).sum()) for k in range(2)]
        assert min(residuals) >= -1e-9
        assert min(r / out.harvested(traj, cfg)[k]
                   for k, r in enumerate(residuals)) < 1e-4

    def test_a_lowering_water_fill_returns_the_incumbent(self, monkeypatch):
        # One water-fill of this solve lowers the common throughput, by
        # rounding: the step returns the incumbent powers and a one-entry
        # trace, so it returns only what it accepted.
        step, calls = sca_comp.optimize_power_comp, []

        def recorded(cfg, traj, alloc):
            calls.append((cfg, traj, alloc, step(cfg, traj, alloc)))
            return calls[-1][-1]

        monkeypatch.setattr(sca_comp, "optimize_power_comp", recorded)
        solve_p21(benchmark_config(device_distance=5.0, duration=4.0, num_slots=12))
        kept = [call for call in calls if len(call[3][1]) == 1
                and (call[2].uplink_time > 1e-12 * call[0].slot_duration).any()]
        assert len(kept) == 1
        cfg, traj, alloc, (Q, trace) = kept[0]
        np.testing.assert_array_equal(Q, alloc.tx_power)
        assert trace == [common_throughput(alloc, traj, cfg)]
        monkeypatch.setattr(sca_comp, "_no_worse", lambda new, old: True)
        filled, (before, after) = step(cfg, traj, alloc)
        assert after < before and not np.array_equal(filled, Q)


class TestOptimizeTrajectory:
    def _prepared(self):
        cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=12)
        hover = solve_infinite_comp(cfg, tau_grid=150)
        traj = direct_flight_trajectory(cfg)
        alloc = initial_allocation(cfg, traj, *_warm_comp(hover))
        alloc = optimize_time_comp(cfg, traj, alloc.tx_power)
        Q, _ = optimize_power_comp(cfg, traj, alloc)
        alloc = AllocationCoMP(alloc.beam_time, alloc.uplink_time, Q)
        return cfg, traj, alloc

    def test_improves_and_stays_feasible(self):
        cfg, traj, alloc = self._prepared()
        before = common_throughput(alloc, traj, cfg)
        new_traj, state, trace = optimize_traj_comp(cfg, alloc, traj)
        assert np.all(np.diff(trace) >= -1e-9)
        assert common_throughput(alloc, new_traj, cfg) >= before - 1e-12
        assert new_traj.is_feasible(cfg)
        for k in range(2):
            spend = float((alloc.tx_power[k] * alloc.uplink_time).sum())
            assert alloc.harvested(new_traj, cfg)[k] - spend >= -1e-9

    def test_slacks_bind_at_convergence(self):
        cfg, traj, alloc = self._prepared()
        new_traj, state, _ = optimize_traj_comp(cfg, alloc, traj)
        d2 = ((new_traj.slot_positions[None, :, :, :]
               - cfg.device_positions[:, None, None, :]) ** 2).sum(-1)
        tol = 1e-6 * cfg.slot_duration
        for k in range(2):
            rate_slots = (alloc.uplink_time > tol) & (alloc.tx_power[k] > 0)
            rel = np.abs(state.inv_gain[k, :, rate_slots]
                         * (d2[k, :, rate_slots] + cfg.altitude**2) - 1.0)
            assert rel.max() <= 1e-6
            beam_slots = alloc.beam_time[k] > tol
            amp_target = np.sqrt(cfg.ref_gain / (d2[k, :, beam_slots]
                                                 + cfg.altitude**2))
            rel = np.abs(state.amp[k, :, beam_slots] / amp_target - 1.0)
            assert rel.max() <= 1e-6


class TestSolveP21:
    def test_monotone_feasible_below_bound(self):
        cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=12)
        bound = solve_infinite_comp(cfg, tau_grid=300).common_rate
        rep = solve_p21(cfg, solve_infinite_comp(cfg, tau_grid=150))
        assert np.all(np.diff(rep.objective_trace) >= -1e-9)
        assert max(rep.residuals.values()) <= 1e-6
        assert rep.common_rate <= bound
        assert rep.common_rate > 0

    def test_separation_wider_than_device_span_solves(self):
        # D=1, H=0.5: the charging-pair search once spanned D/2 + H = 1 m
        # either side, too narrow for a 3 m separation, and both solvers
        # raised EmptyFeasibleGrid.
        cfg = benchmark_config(device_distance=1.0, altitude=0.5, min_separation=3.0,
                               duration=10.0, num_slots=10)
        hover = solve_infinite_comp(cfg)
        x1, x2 = hover.wpt_hover_pair
        assert x2 - x1 >= cfg.min_separation - 1e-9
        for solve in (solve_p21, solve_p21_direct):
            rep = solve(cfg)
            assert is_feasible(cfg, rep.trajectory, rep.allocation)
            assert 0.0 < rep.common_rate <= hover.common_rate

    def test_longer_mission_rates_at_least_shorter(self):
        # With N fixed, the T=4 solution with every sub-slot time scaled by 5
        # and the same slot positions is feasible at T=20 (the per-slot step
        # cap grows, harvest and spend scale together) and has the same common
        # rate, so the T=20 solve must not rate lower.
        rates = {}
        for T in (4.0, 20.0):
            cfg = benchmark_config(device_distance=15.0, duration=T, num_slots=12)
            rep = solve_p21(cfg, solve_infinite_comp(cfg, tau_grid=150))
            assert rep.initialization is Initialization.UPLINK_PAIR
            rates[T] = rep.common_rate
        assert rates[20.0] >= rates[4.0] - 1e-9

    def test_beats_direct_benchmark_and_coordination(self):
        cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=12)
        rep = solve_p21(cfg, solve_infinite_comp(cfg, tau_grid=150))
        bench = solve_p21_direct(cfg, solve_infinite_comp(cfg, tau_grid=150))
        assert rep.common_rate >= bench.common_rate - 1e-9
        ic = solve_p1(cfg, solve_infinite_ic(cfg, tau_grid=150))
        assert rep.common_rate >= ic.common_rate

    def test_library_default_trajectory_solves_converge(self, monkeypatch):
        # Library default slots (N=100, T=10 s): every trajectory program
        # (n = 397) is solved to an optimal status, and the accepted steps
        # carry the rate to at least 11.64640.
        built, statuses = [], []
        build, kernel_call = sca_comp._traj_subproblem_comp, sca_ic.solve_concave

        def recorded_build(*args):
            program = build(*args)
            built.append(program[0])
            return program

        def recorded_solve(problem, start):
            out = kernel_call(problem, start)
            if any(problem is p for p in built):
                statuses.append(out.status)
            return out

        monkeypatch.setattr(sca_comp, "_traj_subproblem_comp", recorded_build)
        monkeypatch.setattr(sca_ic, "solve_concave", recorded_solve)
        cfg = benchmark_config(device_distance=15.0, duration=10.0, num_slots=100)
        rep = solve_p21(cfg)
        assert statuses
        assert statuses == [Status.OPTIMAL] * len(statuses)
        assert rep.common_rate >= 11.64640
        assert is_feasible(cfg, rep.trajectory, rep.allocation)
