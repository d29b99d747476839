import pickle
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from scipy.optimize import linprog

from wpcn_traj import (AllocationIC, ConfigError, Initialization, Trajectory,
                       common_throughput, direct_flight_trajectory, is_feasible,
                       optimize_power_ic, optimize_time_ic, optimize_traj_comp,
                       optimize_traj_ic, sinr_ic,
                       solve_infinite_comp, solve_infinite_ic, solve_p1,
                       solve_p1_direct, solve_p21, solve_p21_direct)
from wpcn_traj import kernel, sca_comp, sca_ic
from wpcn_traj.kernel import StartInfeasible, Status, solve_concave
from wpcn_traj.model import dbm_to_watt, gain_matrix
from wpcn_traj.sca_comp import _warm_comp
from wpcn_traj.sca_ic import (_converged, _feasible_starts, _no_worse, _plans_ic,
                              _power_budgets, _time_lp, _warm_ic, initial_allocation)
from conftest import benchmark_config
from oracles import barrier_objective


def _starts_ic(cfg, hover):
    """{Initialization: (trajectory, windows)} of the coordination mode's
    feasible start plans."""
    return {init: (traj, windows)
            for init, traj, windows in _feasible_starts(cfg, _plans_ic(cfg, hover))}


class TestShfTrajectory:
    def test_visits_hovers_and_dwells(self):
        cfg = benchmark_config(device_distance=15.0, duration=10.0, num_slots=100)
        hover = solve_infinite_ic(cfg, tau_grid=150)
        traj = _starts_ic(cfg, hover)[Initialization.SHF][0]
        assert traj.is_feasible(cfg)
        for m, sign in ((0, -1.0), (1, 1.0)):
            for hx in (hover.wpt_hover_x, hover.wit_hover_x):
                target = np.array([sign * hx, 0.0])
                d = np.linalg.norm(traj.positions[m] - target, axis=1).min()
                assert d <= cfg.max_step

    def test_dwell_time_bookkeeping(self):
        cfg = benchmark_config(device_distance=15.0, duration=40.0, num_slots=400)
        hover = solve_infinite_ic(cfg, tau_grid=150)
        _, windows = _starts_ic(cfg, hover)[Initialization.SHF]
        dwell = sum(w[1] - w[0] for w in windows.values())
        legs = cfg.duration - dwell
        # Flight time at full speed for this geometry is under 3 seconds.
        assert legs < 3.0
        assert dwell == pytest.approx(cfg.duration - legs)

    def test_short_mission_needs_direct_flight(self):
        cfg = benchmark_config(device_distance=15.0, duration=1.5, num_slots=15)
        hover = solve_infinite_ic(cfg, tau_grid=150)
        assert list(_starts_ic(cfg, hover)) == [Initialization.DIRECT_FLIGHT]

    def test_direct_flight_is_feasible(self):
        cfg = benchmark_config(device_distance=15.0, duration=2.0, num_slots=20)
        traj = direct_flight_trajectory(cfg)
        assert traj.is_feasible(cfg)
        assert np.allclose(traj.positions[:, 0, :], cfg.uav_initial)
        assert np.allclose(traj.positions[:, -1, :], cfg.uav_final)

    @pytest.mark.parametrize("duration, num_slots", [(2.0, 20), (4.0, 40), (10.0, 100), (50.0, 7)])
    def test_direct_flight_is_the_constant_speed_line(self, duration, num_slots):
        # Both UAVs fly their one leg together, and it ends at T.
        cfg = benchmark_config(device_distance=15.0, duration=duration, num_slots=num_slots)
        t = cfg.slot_duration * np.arange(num_slots + 1)
        line = (cfg.uav_initial[:, None, :]
                + (cfg.uav_final - cfg.uav_initial)[:, None, :] * (t / duration)[None, :, None])
        err = np.abs(direct_flight_trajectory(cfg).positions - line).max()
        assert err <= 1e-15 * np.abs(line).max()

    def test_crossing_endpoints_take_the_staggered_plan(self, monkeypatch):
        # The UAVs swap sides on the way, so flying both legs of each
        # transition of the joint hover-and-fly plan at once breaches the
        # separation: the synchronized schedule is built but infeasible, and
        # the one-UAV-at-a-time schedule is used.
        cfg = benchmark_config(device_distance=15.0, duration=20.0, num_slots=12,
                               uav_initial=[[2.0, -2.0], [-2.0, -2.0]])
        hover = solve_infinite_comp(cfg, tau_grid=150)
        plans = []

        def record(cfg, waypoints, dwell_weights, together, _builder=sca_ic._fly_plan):
            built = _builder(cfg, waypoints, dwell_weights, together)
            plans.append((together, built))
            return built
        monkeypatch.setattr(sca_ic, "_fly_plan", record)
        [(init, traj, windows)] = _feasible_starts(cfg, sca_comp._plans_comp(cfg, hover)[:1])
        assert [together for together, _ in plans] == [True, False]
        assert plans[0][1] is not None
        assert not Trajectory(plans[0][1][0]).is_feasible(cfg)
        assert init is Initialization.SHF and traj.is_feasible(cfg)
        assert set(windows) == {0, "uplink", 1}
        np.testing.assert_array_equal(traj.positions, plans[1][1][0])
        monkeypatch.undo()
        rep = solve_p21(cfg, hover=hover)
        assert is_feasible(cfg, rep.trajectory, rep.allocation)
        trace = rep.objective_trace
        assert np.all(trace[1:] >= trace[:-1] - 1e-12 * (1.0 + np.abs(trace[:-1])))


# Endpoints whose straight paths meet mid-mission: direct flight on the
# synchronized schedule puts both UAVs on one point.
CROSSING = {"uav_initial": [[2.0, -2.0], [-2.0, -2.0]], "uav_final": [[-2.0, 2.0], [2.0, 2.0]]}
SOLVERS = (solve_p1, solve_p21, solve_p1_direct, solve_p21_direct)


class TestCrossingEndpoints:
    @pytest.mark.parametrize("duration, num_slots", [(4.0, 12), (4.0, 40), (20.0, 12)])
    def test_every_solver_returns_a_feasible_report(self, duration, num_slots):
        cfg = benchmark_config(device_distance=15.0, duration=duration,
                               num_slots=num_slots, **CROSSING)
        for solve in SOLVERS:
            rep = solve(cfg)
            assert is_feasible(cfg, rep.trajectory, rep.allocation), solve.__name__

    @pytest.mark.parametrize("duration, num_slots", [(4.0, 40), (20.0, 120)])
    def test_staggered_direct_flight_holds_each_uav_after_its_leg(self, duration, num_slots):
        # One UAV flies its leg at the capped speed while the other holds at
        # its initial point; then the other flies, and each holds at its
        # final point until T.
        cfg = benchmark_config(device_distance=15.0, duration=duration,
                               num_slots=num_slots, **CROSSING)
        pos = direct_flight_trajectory(cfg).positions
        moved = np.any(pos[:, 1] != cfg.uav_initial, axis=1)
        assert moved.sum() == 1
        first = int(np.argmax(moved))
        legs = np.linalg.norm(cfg.uav_final - cfg.uav_initial, axis=1) / cfg.max_speed
        start = {first: 0.0, 1 - first: legs[first]}
        for m in (first, 1 - first):
            left = int(np.floor(start[m] / cfg.slot_duration)) + 1
            done = int(np.ceil((start[m] + legs[m]) / cfg.slot_duration))
            assert np.all(pos[m, :left] == cfg.uav_initial[m])
            assert np.all(pos[m, done - 1] != cfg.uav_final[m])
            assert np.all(pos[m, done:] == cfg.uav_final[m])
        assert np.linalg.norm(np.diff(pos, axis=1), axis=2).max() <= cfg.max_step

    def test_a_start_that_fits_no_schedule_raises(self):
        # The synchronized direct flight collides, and the staggered one
        # needs 2.26 s of serial legs.
        cfg = benchmark_config(device_distance=15.0, duration=2.0, num_slots=12, **CROSSING)
        for solve in SOLVERS:
            with pytest.raises(ConfigError, match="no start plan"):
                solve(cfg)
        with pytest.raises(ConfigError, match="no start plan"):
            direct_flight_trajectory(cfg)


class TestOptimizeTime:
    def test_single_slot_matches_line_search(self):
        cfg = benchmark_config(device_distance=15.0, duration=1.0, num_slots=1)
        traj = direct_flight_trajectory(cfg)
        Q = np.full((2, 1), 2e-5)
        alloc = optimize_time_ic(cfg, traj, Q)
        g = gain_matrix(traj, cfg)
        rate = np.array([np.log2(1 + Q[k, 0] * g[k, k, 0]
                                 / (Q[1 - k, 0] * g[1 - k, k, 0] + cfg.noise_power))
                         for k in range(2)])
        harvest = np.array([cfg.eh_efficiency * cfg.uav_power * g[k].sum()
                            for k in range(2)])
        best = -np.inf
        for up in np.arange(0.0, 1.0 + 1e-9, 1e-5):
            ch_needed = max(Q[k, 0] * up / harvest[k] for k in range(2))
            if ch_needed + up <= 1.0 + 1e-12:
                best = max(best, (up * rate.min()) / cfg.duration)
        got = common_throughput(alloc, traj, cfg)
        assert got == pytest.approx(best, abs=1e-3 * (1 + abs(best)))

    def test_zero_power_gives_zero_objective(self):
        cfg = benchmark_config(device_distance=15.0, duration=1.0, num_slots=4)
        traj = direct_flight_trajectory(cfg)
        alloc = optimize_time_ic(cfg, traj, np.zeros((2, 4)))
        assert common_throughput(alloc, traj, cfg) == 0.0
        assert max(alloc.residuals(cfg, traj).values()) <= 1e-9

    def test_weakly_improves_incumbent(self):
        cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=20)
        hover = solve_infinite_ic(cfg, tau_grid=150)
        traj = direct_flight_trajectory(cfg)
        alloc0 = initial_allocation(cfg, traj, *_warm_ic(hover))
        alloc1 = optimize_time_ic(cfg, traj, alloc0.tx_power)
        assert common_throughput(alloc1, traj, cfg) >= \
            common_throughput(alloc0, traj, cfg) - 1e-12

    def test_time_allocation_toy_vs_grid(self):
        # Two slots with different rates and harvest yields; the epigraph LP
        # against a brute-force split of each slot between charging and
        # uplink.  Slots are fully used at an optimum (more charging time
        # never hurts), so the sweep is over the two charge shares.
        cfg = benchmark_config(device_distance=15.0, duration=2.0, num_slots=2,
                               uav_initial=[[-7, -1], [7, -1]],
                               uav_final=[[-2, 1], [2, 1]])
        traj = direct_flight_trajectory(cfg)
        Q = np.array([[2e-4, 5e-5], [3e-5, 3e-4]])
        alloc = optimize_time_ic(cfg, traj, Q)
        got = common_throughput(alloc, traj, cfg)
        g = gain_matrix(traj, cfg)
        rates = np.log2(1.0 + sinr_ic(Q, traj, cfg))
        yields = np.stack([cfg.eh_efficiency * cfg.uav_power * g[k].sum(axis=0)
                           for k in range(2)])
        slot = cfg.slot_duration
        e = np.linspace(0.0, slot, 2001)
        E0, E1 = np.meshgrid(e, e, indexing="ij")
        U0, U1 = slot - E0, slot - E1
        dev_rate = []
        for k in range(2):
            feas = Q[k, 0] * U0 + Q[k, 1] * U1 <= yields[k, 0] * E0 + yields[k, 1] * E1
            dev_rate.append(np.where(feas, rates[k, 0] * U0 + rates[k, 1] * U1, -np.inf)
                            / cfg.duration)
        best = np.minimum(dev_rate[0], dev_rate[1]).max()
        assert best > 0.0
        # Every grid point is feasible for the LP, so the LP is no worse, up
        # to the barrier's stopping gap of 1e-9 + 1e-9 R.
        assert got >= best - 1e-9 * (1 + best)
        assert got == pytest.approx(best, abs=2e-3 * (1 + best))
        assert max(alloc.residuals(cfg, traj).values()) <= 1e-9
        for k in range(2):
            assert (alloc.harvested(traj, cfg) - alloc.spent)[k] >= -1e-9

    def test_deterministic(self):
        cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=12)
        traj = direct_flight_trajectory(cfg)
        Q = np.full((2, 12), 1e-4)
        a = optimize_time_ic(cfg, traj, Q)
        b = optimize_time_ic(cfg, traj, Q)
        assert np.array_equal(a.charge_time, b.charge_time)
        assert np.array_equal(a.uplink_time, b.uplink_time)


def _random_time_lps(blocks):
    """Twelve random instances (cfg, rate, harvest, tx_power) of the time step
    of either mode: one charging block in the coordination mode, two in the
    joint mode."""
    rng = np.random.default_rng(20 + blocks)
    for _ in range(12):
        N = int(rng.integers(1, 13))
        cfg = benchmark_config(device_distance=15.0, duration=float(rng.uniform(1.0, 20.0)),
                               num_slots=N)
        rate = rng.uniform(0.0, 10.0, (2, N)) * (rng.random((2, N)) < 0.8)
        rate[:, 0] += 0.1   # every device has some rate somewhere
        harvest = 10.0 ** rng.uniform(-5.0, -3.0, (2, blocks, N))
        tx_power = 10.0 ** rng.uniform(-5.0, -3.0, (2, N))
        yield cfg, rate, harvest, tx_power


@pytest.mark.parametrize("blocks", [1, 2])
def test_time_lp_matches_highs(blocks):
    # Each random instance against HiGHS on the same LP: maximize R s.t.
    # R <= rate[k].u / T, spend <= harvest, each slot's durations <= the
    # slot, every duration >= 0.
    for cfg, rate, harvest, tx_power in _random_time_lps(blocks):
        N = cfg.num_slots
        x = _time_lp(cfg, rate, harvest, tx_power)
        uplink = x[-1]
        got = min(float(rate[k] @ uplink) for k in range(2)) / cfg.duration

        n = (blocks + 1) * N + 1
        A = np.zeros((4 + N, n))
        for k in range(2):
            A[2 * k, blocks * N:-1] = -rate[k] / cfg.duration
            A[2 * k, -1] = 1.0
            A[2 * k + 1, :blocks * N] = -harvest[k].reshape(-1)
            A[2 * k + 1, blocks * N:-1] = tx_power[k]
        A[4:, :-1] = np.tile(np.eye(N), blocks + 1)
        b = np.concatenate([np.zeros(4), np.full(N, cfg.slot_duration)])
        ref = linprog(-np.eye(n)[-1], A_ub=A, b_ub=b, method="highs")
        assert ref.status == 0
        # The barrier stops once its gap is below 1e-9 + 1e-9 R.
        assert got == pytest.approx(-ref.fun, rel=1e-8, abs=1e-9)

        assert np.all(x >= 0.0)
        assert np.all(x.sum(axis=0) <= cfg.slot_duration * (1.0 + 1e-12))
        for k in range(2):
            spend = float(tx_power[k] @ uplink)
            assert spend <= float((harvest[k] * x[:-1]).sum()) + 1e-12 * spend


@pytest.mark.parametrize("blocks", [1, 2])
def test_time_lp_solves_in_few_newton_systems(blocks, monkeypatch):
    # The time LP's rows are all affine, so the kernel solves it by
    # primal-dual iterations from its start; the barrier stages alone take
    # 82-109 Newton systems on these instances.
    outcomes = []

    def kept(problem, start):
        outcomes.append(solve_concave(problem, start))
        return outcomes[-1]

    monkeypatch.setattr(sca_ic, "solve_concave", kept)
    for instance in _random_time_lps(blocks):
        _time_lp(*instance)
    assert len(outcomes) == 12
    assert [out.status for out in outcomes] == [Status.OPTIMAL] * 12
    assert max(out.iterations for out in outcomes) <= 40


def _programs(monkeypatch, solver, N, kind, durations=(20.0, 4.0)):
    """(problem, start) of every kernel call of `solver` at D = 15 m, N
    slots and each duration (s) on one kind of program, told apart by its
    rows: "time" (affine rows only, the time LPs), "power" (affine and log
    rows, the coordination power step) or "trajectory" (square or pair
    terms, both modes' trajectory programs).  How many programs one closed
    loop makes moves with its outer iterations; each config adds at least
    one outer iteration's worth, so the two fixed configs of the default
    keep the minimum counts below clear of that."""
    programs = []

    def kept(problem, start):
        lay = problem._compiled()
        if kind == ("trajectory" if lay.quad.any() else "power" if lay.groups else "time"):
            programs.append((problem, start))
        return solve_concave(problem, start)

    monkeypatch.setattr(sca_ic, "solve_concave", kept)
    for duration in durations:
        solver(benchmark_config(15.0, duration, N))
    monkeypatch.undo()
    return programs


def _assert_few_newton_systems(programs, budget):
    """Every program ends OPTIMAL in at most `budget` Newton systems, at
    the objective of the plain barrier method (`oracles.barrier_objective`)
    on the same program within 1e-9 relative."""
    for program in programs:
        out = solve_concave(*program)
        assert out.status is Status.OPTIMAL
        assert out.iterations <= budget
        assert out.objective == pytest.approx(barrier_objective(*program), rel=1e-9)


def test_coordination_time_lps_solve_in_few_newton_systems(monkeypatch):
    # The time LP's rows are all affine, so the kernel solves it by
    # primal-dual iterations from its start, which stop on their own gap
    # (7-9 Newton systems here).
    programs = _programs(monkeypatch, solve_p1, 6, "time")
    assert len(programs) >= 6
    _assert_few_newton_systems(programs, 11)


def test_power_step_solves_in_few_newton_systems(monkeypatch):
    # The coordination power step has affine and log rows only, so the
    # kernel solves it by primal-dual iterations from its start (6-17
    # Newton systems here).  Its steps stop after few passes, so a third
    # config keeps the sample.
    programs = _programs(monkeypatch, solve_p1, 6, "power", durations=(20.0, 4.0, 50.0))
    assert len(programs) >= 10
    _assert_few_newton_systems(programs, 18)


def test_trajectory_programs_solve_in_few_newton_systems(monkeypatch):
    # Both modes' trajectory programs take primal-dual iterations from
    # their start to the end (11-31 Newton systems here).
    programs = (_programs(monkeypatch, solve_p1, 6, "trajectory")
                + _programs(monkeypatch, solve_p21, 12, "trajectory"))
    assert len(programs) >= 7
    _assert_few_newton_systems(programs, 34)


def test_paper_resolution_trajectory_programs_end_optimal(monkeypatch):
    # At the paper's 0.1 s slots (D = 15 m, T = 50 s, N = 500) the two
    # coordination trajectory programs (n = 1,997) once ran out their first
    # barrier stage and ended MAX_ITER after 422 and 486 Newton systems.
    # From the start the primal-dual iterations end them in 86 and 94, at
    # or above the plain barrier method's objective.  That reference starts
    # at t = START_WEIGHT_MAX: from t = 1 its first stages walk away from
    # the warm start, and its last stage stalls 1.8% lower, which the
    # reference reports rather than return.
    programs = _programs(monkeypatch, solve_p1, 500, "trajectory", durations=(50.0,))
    assert len(programs) == 2
    for program in programs:
        out = solve_concave(*program)
        ref = barrier_objective(*program, t=kernel.START_WEIGHT_MAX)
        assert out.status is Status.OPTIMAL and out.iterations <= 120
        assert out.objective >= ref - 1e-9 * abs(ref)
    with pytest.raises(AssertionError, match="stalled"):
        barrier_objective(*programs[0])


def _refining_power_oracle(cfg, traj, uplink, budgets, rounds=3, grid=24):
    """Exhaustive 4-D search over both devices' two-slot powers, refined."""
    g = gain_matrix(traj, cfg)
    lo = np.zeros(4)
    hi = np.array([budgets[0] / uplink[0], budgets[0] / uplink[1],
                   budgets[1] / uplink[0], budgets[1] / uplink[1]])
    best, best_pt = -np.inf, None
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], grid) for i in range(4)]
        Q10, Q11, Q20, Q21 = np.meshgrid(*axes, indexing="ij", sparse=True)
        feas = ((Q10 * uplink[0] + Q11 * uplink[1] <= budgets[0] + 1e-15)
                & (Q20 * uplink[0] + Q21 * uplink[1] <= budgets[1] + 1e-15))
        r1 = (uplink[0] * np.log2(1 + Q10 * g[0, 0, 0] / (Q20 * g[1, 0, 0] + cfg.noise_power))
              + uplink[1] * np.log2(1 + Q11 * g[0, 0, 1] / (Q21 * g[1, 0, 1] + cfg.noise_power)))
        r2 = (uplink[0] * np.log2(1 + Q20 * g[1, 1, 0] / (Q10 * g[0, 1, 0] + cfg.noise_power))
              + uplink[1] * np.log2(1 + Q21 * g[1, 1, 1] / (Q11 * g[0, 1, 1] + cfg.noise_power)))
        obj = np.where(feas, np.minimum(r1, r2), -np.inf) / cfg.duration
        flat = int(np.argmax(obj))
        idx = np.unravel_index(flat, obj.shape)
        if obj[idx] > best:
            best = float(obj[idx])
            best_pt = np.array([axes[i][idx[i]] for i in range(4)])
        span = (hi - lo) / (grid - 1)
        lo = np.maximum(0.0, best_pt - 2 * span)
        hi = best_pt + 2 * span
    return best


class TestOptimizePower:
    def test_no_interference_uses_full_budget(self):
        cfg = benchmark_config(device_distance=1000.0, duration=1.0, num_slots=1,
                               uav_initial=[[-500, -2], [500, -2]],
                               uav_final=[[-500, 2], [500, 2]])
        traj = direct_flight_trajectory(cfg)
        alloc = AllocationIC([0.5], [0.5], np.full((2, 1), 1e-7))
        budgets = [alloc.harvested(traj, cfg)[k] for k in range(2)]
        Q, trace = optimize_power_ic(cfg, traj, alloc)
        for k in range(2):
            assert Q[k, 0] == pytest.approx(budgets[k] / 0.5, rel=1e-4)
        assert trace == sorted(trace)

    def test_two_slot_grid_oracle(self):
        # The power subproblem is solved by SCA, so it finds a stationary
        # point; started the way the solver starts it (each device keeps to
        # its own slot, as the turn-taking warm start does), it must match
        # the exhaustive search.
        cfg = benchmark_config(device_distance=15.0, duration=2.0, num_slots=2,
                               uav_initial=[[-6, -1], [6, -1]],
                               uav_final=[[-6, 1], [6, 1]])
        traj = direct_flight_trajectory(cfg)
        uplink = np.array([0.6, 0.4])
        charge = np.array([0.4, 0.6])
        zero = AllocationIC(charge, uplink, np.zeros((2, 2)))
        budgets = [zero.harvested(traj, cfg)[k] for k in range(2)]
        Q0 = np.array([[0.0, 0.999 * budgets[0] / uplink[1]],
                       [0.999 * budgets[1] / uplink[0], 0.0]])
        warm = AllocationIC(charge, uplink, Q0)
        Q, _ = optimize_power_ic(cfg, traj, warm)
        got = common_throughput(AllocationIC(charge, uplink, Q), traj, cfg)
        oracle = _refining_power_oracle(cfg, traj, uplink, budgets)
        assert got >= oracle - 1e-3 * (1 + abs(oracle))

    def test_start_from_a_spent_budget(self, monkeypatch):
        # Powers that spend each device's budget to within a few ulps: the
        # kernel's own sum of the budget row can then exceed the budget, and
        # an unscaled start used to raise StartInfeasible.
        monkeypatch.setattr(sca_ic, "MAX_INNER", 1)
        for D in (5.0, 15.0, 30.0):
            for T in (4.0, 20.0):
                cfg = benchmark_config(device_distance=D, duration=T, num_slots=6)
                traj = direct_flight_trajectory(cfg)
                hover = solve_infinite_ic(cfg, tau_grid=100)
                alloc = initial_allocation(cfg, traj, *_warm_ic(hover))
                alloc = optimize_time_ic(cfg, traj, alloc.tx_power)
                up = alloc.uplink_time
                active = np.flatnonzero(up > 1e-12 * cfg.slot_duration)
                budgets = _power_budgets(cfg, alloc, traj, active)
                for ulps in range(6):
                    Q = alloc.tx_power.copy()
                    for k in range(2):
                        Q[k, active] *= budgets[k] / float((Q[k, active] * up[active]).sum())
                        Q[k, active] *= 1.0 - ulps * np.finfo(float).eps / 2
                    _, trace = optimize_power_ic(cfg, traj, replace(alloc, tx_power=Q))
                    assert trace == sorted(trace)

    def test_monotone_true_objective(self):
        cfg = benchmark_config(device_distance=15.0, duration=2.0, num_slots=10)
        hover = solve_infinite_ic(cfg, tau_grid=150)
        traj = direct_flight_trajectory(cfg)
        alloc = initial_allocation(cfg, traj, *_warm_ic(hover))
        _, trace = optimize_power_ic(cfg, traj, alloc)
        assert np.all(np.diff(trace) >= -1e-9)

    def test_steps_end_at_their_first_converged_pass(self, monkeypatch):
        # Every power step of these solves stops at its first accepted pass
        # whose true gain passes `_converged`.  Stopped on the gain of its
        # surrogate optimum, 9 of these 26 steps ran on past such a pass: the
        # first one at D = 5 m, T = 4 s gained that little at pass 3 and ran
        # to pass 21.
        step, traces = sca_ic.optimize_power_ic, []

        def recorded(*args):
            out = step(*args)
            traces.append(out[1])
            return out

        monkeypatch.setattr(sca_ic, "optimize_power_ic", recorded)
        for D, T in ((5.0, 4.0), (15.0, 20.0), (30.0, 50.0)):
            solve_p1(benchmark_config(device_distance=D, duration=T, num_slots=6))
        assert len(traces) >= 20 and any(len(trace) > 2 for trace in traces)
        for trace in traces:
            assert not any(_converged(trace[:i]) for i in range(2, len(trace))), trace


class TestOptimizeTrajectory:
    def test_improves_and_stays_feasible(self):
        cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=16)
        hover = solve_infinite_ic(cfg, tau_grid=150)
        traj = direct_flight_trajectory(cfg)
        alloc = initial_allocation(cfg, traj, *_warm_ic(hover))
        times = optimize_time_ic(cfg, traj, alloc.tx_power)
        alloc = AllocationIC(times.charge_time, times.uplink_time, alloc.tx_power)
        Q, _ = optimize_power_ic(cfg, traj, alloc)
        alloc = AllocationIC(alloc.charge_time, alloc.uplink_time, Q)
        before = common_throughput(alloc, traj, cfg)
        new_traj, trace = optimize_traj_ic(cfg, alloc, traj)
        assert np.all(np.diff(trace) >= -1e-9)
        assert common_throughput(alloc, new_traj, cfg) >= before - 1e-12
        assert new_traj.is_feasible(cfg)
        for k in range(2):
            spend = float((alloc.tx_power[k] * alloc.uplink_time).sum())
            assert alloc.harvested(new_traj, cfg)[k] - spend >= -1e-9

    @pytest.mark.parametrize("error", [StartInfeasible, np.linalg.LinAlgError])
    @pytest.mark.parametrize("mode", ["ic", "comp"])
    def test_failed_surrogate_solve_ends_the_step(self, monkeypatch, mode, error):
        # Both modes' steps run one surrogate solve per pass; a failed one
        # ends the step at the incumbent, after that single kernel call.
        cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=8)
        traj = direct_flight_trajectory(cfg)
        if mode == "ic":
            warm, step = _warm_ic(solve_infinite_ic(cfg, tau_grid=100)), optimize_traj_ic
        else:
            warm, step = _warm_comp(solve_infinite_comp(cfg, tau_grid=100)), optimize_traj_comp
        alloc = initial_allocation(cfg, traj, *warm)
        calls = []

        def fail(prob, start):
            calls.append(prob.n)
            raise error("surrogate solve failed")

        monkeypatch.setattr(sca_ic, "solve_concave", fail)
        out = step(cfg, alloc, traj)
        assert len(calls) == 1
        np.testing.assert_array_equal(out[0].positions, traj.positions)
        assert out[-1] == [common_throughput(alloc, traj, cfg)]


class TestSolveP1:
    def test_monotone_and_feasible(self):
        cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=16)
        rep = solve_p1(cfg, solve_infinite_ic(cfg, tau_grid=150))
        assert np.all(np.diff(rep.objective_trace) >= -1e-9)
        assert rep.initialization in (Initialization.SHF, Initialization.DIRECT_FLIGHT)
        assert max(rep.residuals.values()) <= 1e-6
        assert rep.common_rate > 0

    def test_below_hovering_bound(self):
        cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=16)
        bound = solve_infinite_ic(cfg, tau_grid=300).common_rate
        rep = solve_p1(cfg, solve_infinite_ic(cfg, tau_grid=150))
        assert rep.common_rate <= bound

    def test_beats_direct_benchmark(self):
        cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=16)
        rep = solve_p1(cfg, solve_infinite_ic(cfg, tau_grid=150))
        bench = solve_p1_direct(cfg, solve_infinite_ic(cfg, tau_grid=150))
        assert bench.initialization is Initialization.DIRECT_FLIGHT
        assert rep.common_rate >= bench.common_rate - 1e-9

    def test_finer_slots_do_not_lower_the_rate(self):
        # The paper's 0.1 s slots at T = 50 s: a barrier started at weight 1
        # threw the warm starts away and ended N = 500 at 3.52, where N = 50
        # reaches 6.39.
        coarse = solve_p1(benchmark_config(device_distance=15.0, duration=50.0, num_slots=50))
        cfg = benchmark_config(device_distance=15.0, duration=50.0, num_slots=500)
        fine = solve_p1(cfg)
        assert fine.common_rate >= coarse.common_rate
        assert is_feasible(cfg, fine.trajectory, fine.allocation)

    def test_alternation_ends_when_an_iteration_gains_nothing(self):
        # Steps that return their input: the first outer iteration gains
        # nothing, and the solve ends there.  It used to run a second one.
        cfg = benchmark_config(device_distance=15.0, duration=4.0, num_slots=8)
        traj = direct_flight_trajectory(cfg)
        alloc = initial_allocation(cfg, traj, *_warm_ic(solve_infinite_ic(cfg, tau_grid=100)))
        mode = sca_ic._Mode(
            time_step=lambda cfg, traj, tx_power: alloc,
            power_step=lambda cfg, traj, alloc: (
                alloc.tx_power.copy(), [common_throughput(alloc, traj, cfg)]),
            traj_step=lambda cfg, alloc, traj: traj)
        rep = sca_ic._alternate(cfg, mode, [(traj, alloc, Initialization.DIRECT_FLIGHT)], 0.0)
        assert rep.outer_iterations == 1
        assert len(set(rep.objective_trace)) == 1 and len(rep.objective_trace) == 2

    def test_short_mission_falls_back(self):
        cfg = benchmark_config(device_distance=15.0, duration=1.5, num_slots=8)
        rep = solve_p1(cfg, solve_infinite_ic(cfg, tau_grid=150))
        assert rep.initialization is Initialization.DIRECT_FLIGHT
        assert np.all(np.diff(rep.objective_trace) >= -1e-9)

    def test_no_worse_than_any_start_after_its_first_steps(self, monkeypatch):
        # -80 dBm, D = 5 m, T = 2 s, N = 40: ranked by five power passes,
        # direct flight won and the solve ended at 1.4007, where hover-and-fly
        # reaches 3.68 after its time and power steps alone.
        cfg = benchmark_config(device_distance=5.0, duration=2.0, num_slots=40,
                               noise_power=dbm_to_watt(-80.0))
        starts, pick = [], sca_ic._pick_start

        def recorded(cfg, mode, candidates):
            starts.extend(candidates)
            return pick(cfg, mode, candidates)

        monkeypatch.setattr(sca_ic, "_pick_start", recorded)
        rate = solve_p1(cfg).common_rate
        assert len(starts) == 2
        for traj, alloc, _ in starts:
            timed = optimize_time_ic(cfg, traj, alloc.tx_power)
            if not _no_worse(common_throughput(timed, traj, cfg),
                             common_throughput(alloc, traj, cfg)):
                timed = alloc
            _, trace = optimize_power_ic(cfg, traj, timed)
            assert _no_worse(rate, trace[-1]), (rate, trace[-1])


def _kernel_call_key(problem, start) -> bytes:
    """A kernel call's program (every row term and log group) and start."""
    groups = [(row, type(g).__name__, [np.asarray(getattr(g, f.name)) for f in fields(g)])
              for row, g in problem._groups]
    return pickle.dumps((problem.n, problem._const, problem._lin, problem._sq,
                         problem._pair, groups, np.asarray(start)))


class TestNoStepSolvedTwice:
    """Within one solve no step is solved twice on the arrays it reads: the
    positions and powers for the time step, the positions and every
    allocation field for the power and trajectory steps.  The steps are
    wrapped as module globals, the way a tracer wraps them, and each call's
    input arrays are recorded."""

    @staticmethod
    def _record(monkeypatch, module, mode):
        calls, starts = [], []

        def wrap(kind, reads):
            name = f"optimize_{kind}_{mode}"
            step = getattr(module, name)

            def recorded(*args, **kwargs):
                calls.append((kind, tuple(np.array(a) for a in reads(*args, **kwargs))))
                return step(*args, **kwargs)
            monkeypatch.setattr(module, name, recorded)

        wrap("time", lambda cfg, traj, tx_power: (traj.positions, tx_power))
        wrap("power", lambda cfg, traj, alloc: (traj.positions, *astuple(alloc)))
        wrap("traj", lambda cfg, alloc, traj: (traj.positions, *astuple(alloc)))
        pick = sca_ic._pick_start

        def counted_pick(*args):
            starts.append(len(args[-1]))   # the candidates
            return pick(*args)
        monkeypatch.setattr(sca_ic, "_pick_start", counted_pick)
        return calls, starts

    @staticmethod
    def _assert_no_repeat(calls, candidates, outer):
        for kind in ("time", "power", "traj"):
            seen = []
            for state in (state for k, state in calls if k == kind):
                assert not any(all(map(np.array_equal, state, old)) for old in seen), kind
                seen.append(state)
        assert sum(kind == "time" for kind, _ in calls) <= candidates + outer - 1

    def test_joint_solve(self, monkeypatch):
        # The start probe's time LP and power step used to repeat in
        # iteration 1, and the trajectory step in iteration 2.
        calls, starts = self._record(monkeypatch, sca_comp, "comp")
        rep = solve_p21(benchmark_config(device_distance=15.0, duration=20.0, num_slots=12))
        assert rep.outer_iterations >= 2 and any(kind == "traj" for kind, _ in calls)
        self._assert_no_repeat(calls, starts[0], rep.outer_iterations)

    def test_direct_coordination_solve(self, monkeypatch):
        # Iteration 2's power step used to repeat iteration 1's, and so did
        # its time step, on the same positions and powers.
        calls, starts = self._record(monkeypatch, sca_ic, "ic")
        rep = solve_p1_direct(benchmark_config(device_distance=5.0, duration=20.0,
                                               num_slots=80))
        assert rep.outer_iterations >= 2
        self._assert_no_repeat(calls, starts[0], rep.outer_iterations)

    def test_coordination_solve(self, monkeypatch):
        # Iteration 1's time and power steps are the winning start probe's,
        # and its power step used to be solved again from its first pass.
        # Nor does any kernel call repeat an earlier program and start.
        calls, starts = self._record(monkeypatch, sca_ic, "ic")
        kernel_call, kernel_calls = sca_ic.solve_concave, []

        def keyed(problem, start):
            kernel_calls.append(_kernel_call_key(problem, start))
            return kernel_call(problem, start)

        monkeypatch.setattr(sca_ic, "solve_concave", keyed)
        rep = solve_p1(benchmark_config(device_distance=5.0, duration=4.0, num_slots=6))
        assert starts[0] > 1
        self._assert_no_repeat(calls, starts[0], rep.outer_iterations)
        assert len(set(kernel_calls)) == len(kernel_calls)
