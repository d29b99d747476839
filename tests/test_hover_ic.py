import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import wpcn_traj
from wpcn_traj import (AllocationIC, WitMode, common_throughput,
                       hover_ic, solve_infinite_ic, wit_mode1_hover,
                       wit_mode2_rate, wpt_hover_ic)
from wpcn_traj.hover_ic import (_brent_bounded_min, _brent_root, _mode1_bracket, _rate_at,
                                _rate_grid, _stationarity, _stationarity_ends,
                                interior_hover_x)
from conftest import SWEEP_NOISE, benchmark_config, hover_positions, hover_sweep
from oracles import phi_derivative, reference_infinite_ic


def charge_objective(x, D, H):
    """Independent evaluation of the symmetric charging-hover objective."""
    return 1.0 / ((x - D / 2.0) ** 2 + H**2) + 1.0 / ((x + D / 2.0) ** 2 + H**2)


def grid_argmax_charge(D, H, lo, step=1e-4):
    xs = np.arange(lo, D / 2.0 + 2.0 * H, step)
    return xs[np.argmax(charge_objective(xs, D, H))]


def uplink_rate_objective(x, D, H, q, beta0, sigma2):
    """Independent simultaneous-transmission rate at symmetric offset x,
    each UAV beyond its own device."""
    sig = q * beta0 / ((x - D / 2.0) ** 2 + H**2)
    itf = q * beta0 / ((x + D / 2.0) ** 2 + H**2)
    return np.log2(1.0 + sig / (itf + sigma2))


class TestPhiDerivative:
    def test_zero_at_origin(self):
        assert phi_derivative(0.0, 15.0, 5.0, 1.0, 0.6, 10.0, 1e-3) == 0.0

    def test_sign_pattern_wide(self):
        eps = interior_hover_x(15.0, 5.0)
        assert eps == pytest.approx(7.3456, abs=1e-4)
        below = np.linspace(1e-3, eps - 1e-6, 300)
        above = np.linspace(eps + 1e-6, 40.0, 300)
        assert np.all(phi_derivative(below, 15.0, 5.0, 1.0, 0.6, 10.0, 1e-3) > 0)
        assert np.all(phi_derivative(above, 15.0, 5.0, 1.0, 0.6, 10.0, 1e-3) < 0)

    def test_sign_pattern_narrow(self):
        # Devices closer than 2H/sqrt(3): the objective only decreases.
        xs = np.linspace(1e-6, 20.0, 400)
        assert np.all(phi_derivative(xs, 5.0, 5.0, 1.0, 0.6, 10.0, 1e-3) <= 0)

    def test_matches_numerical_derivative(self):
        D, H, tau, eta, P, b0 = 12.0, 4.0, 3.0, 0.6, 10.0, 1e-3
        xs = np.linspace(0.2, 15.0, 40)
        h = 1e-6
        num = (tau * eta * P * b0
               * (charge_objective(xs + h, D, H) - charge_objective(xs - h, D, H))
               / (2 * h))
        ana = phi_derivative(xs, D, H, tau, eta, P, b0)
        assert np.allclose(ana, num, rtol=1e-5, atol=1e-12)


class TestWptHover:
    def test_close_devices_sit_at_separation_limit(self):
        cfg = benchmark_config(device_distance=5.0)
        x, _ = wpt_hover_ic(cfg, 1.0)
        assert x == pytest.approx(0.5)

    def test_far_devices_use_interior_point(self):
        cfg = benchmark_config(device_distance=15.0)
        x, _ = wpt_hover_ic(cfg, 1.0)
        assert x == pytest.approx(7.3456, abs=1e-4)
        assert x == pytest.approx(grid_argmax_charge(15.0, 5.0, 0.5), abs=1e-3)

    def test_energy_matches_model_evaluation(self):
        cfg = benchmark_config(device_distance=15.0, duration=2.0, num_slots=2)
        x, energy = wpt_hover_ic(cfg, 1.0)
        pos = hover_positions(-x, x, 2)
        alloc = AllocationIC([1.0, 0.0], [0.0, 0.0], np.zeros((2, 2)))
        for k in range(2):
            assert alloc.harvested(pos, cfg)[k] == pytest.approx(
                energy, rel=1e-12)

    def test_branch_consistency_random(self):
        # Closed form against a two-stage grid argmax for random geometries.
        rng = np.random.default_rng(42)
        for _ in range(1000):
            D = rng.uniform(1.0, 40.0)
            H = rng.uniform(0.5, 25.0)
            cfg = benchmark_config(device_distance=D, altitude=H,
                                   min_separation=1e-6,
                                   uav_initial=[[-30, -30], [30, -30]],
                                   uav_final=[[-30, 30], [30, 30]],
                                   duration=100.0, num_slots=10)
            x, _ = wpt_hover_ic(cfg, 1.0)
            xs = np.arange(0.0, D / 2.0 + 2.0 * H, 1e-2)
            coarse = xs[np.argmax(charge_objective(xs, D, H))]
            fine = np.arange(max(0.0, coarse - 2e-2), coarse + 2e-2, 1e-4)
            best = fine[np.argmax(charge_objective(fine, D, H))]
            assert abs(x - best) < 1e-3, (D, H, x, best)


class TestWitMode1:
    def _solve(self, D=15.0, T=100.0, tau=50.0):
        cfg = benchmark_config(device_distance=D, duration=T, num_slots=100)
        _, energy = wpt_hover_ic(cfg, tau)
        x, rate = wit_mode1_hover(cfg, tau, energy)
        return cfg, tau, energy, x, rate

    def test_stationarity_residual(self):
        cfg, tau, energy, x, _ = self._solve()
        D, H = cfg.device_distance, cfg.altitude
        q = energy / (cfg.duration - tau)
        c = cfg.ref_gain * q / cfg.noise_power
        lhs = (x + D / 2) * ((x - D / 2) ** 2 + H**2) ** 2 / c
        rhs = cfg.device_distance * (H**2 + (D / 2) ** 2 - x**2)
        scale = abs(lhs) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-8 * scale

    def test_bracket_containment(self):
        cfg, tau, energy, x, _ = self._solve()
        D, H = cfg.device_distance, cfg.altitude
        assert max(D / 2, cfg.min_separation / 2) <= x
        assert x <= max(cfg.min_separation / 2, np.sqrt((D / 2) ** 2 + H**2)) + 1e-12

    def test_agrees_with_grid_maximization(self):
        cfg, tau, energy, x, rate = self._solve()
        D, H = cfg.device_distance, cfg.altitude
        q = energy / (cfg.duration - tau)
        xs = np.arange(cfg.min_separation / 2, np.sqrt((D / 2) ** 2 + H**2) + 2.0, 1e-4)
        vals = uplink_rate_objective(xs, D, H, q, cfg.ref_gain, cfg.noise_power)
        assert abs(x - xs[np.argmax(vals)]) <= 1e-3
        assert rate == pytest.approx((cfg.duration - tau) / cfg.duration * vals.max(),
                                     rel=1e-6)

    def test_hover_moves_out_with_power(self):
        cfg, tau, energy, x1, _ = self._solve()
        _, _, _, x2, _ = (None, None, None, *wit_mode1_hover(cfg, tau, 100.0 * energy))
        assert x2 > x1

    def test_rate_reproduced_by_model(self):
        # Discrete schedule with grid-aligned durations reproduces the rate.
        cfg = benchmark_config(device_distance=15.0, duration=100.0, num_slots=10)
        tau = 40.0
        _, energy = wpt_hover_ic(cfg, tau)
        x, rate = wit_mode1_hover(cfg, tau, energy)
        x_e, _ = wpt_hover_ic(cfg, tau)
        pos = hover_positions(-x_e, x_e, 10)
        pos[0, 4:, 0] = -x
        pos[1, 4:, 0] = x
        q = energy / (cfg.duration - tau)
        charge = np.where(np.arange(10) < 4, 10.0, 0.0)
        uplink = 10.0 - charge
        Q = np.where(uplink > 0, q, 0.0)[None, :].repeat(2, axis=0)
        alloc = AllocationIC(charge, uplink, Q)
        assert common_throughput(alloc, pos, cfg) == pytest.approx(rate, abs=1e-9)


class TestWitMode2:
    def test_vanishes_as_charge_fills_mission(self):
        cfg = benchmark_config(device_distance=15.0, duration=100.0)
        _, energy = wpt_hover_ic(cfg, 100.0 - 1e-9)
        assert wit_mode2_rate(cfg, 100.0 - 1e-9, energy) < 1e-6

    def test_positive_at_benchmark(self):
        cfg = benchmark_config(device_distance=15.0, duration=100.0)
        _, energy = wpt_hover_ic(cfg, 50.0)
        r = wit_mode2_rate(cfg, 50.0, energy)
        assert np.isfinite(r) and r > 0

    def test_noise_monotonicity(self):
        cfg = benchmark_config(device_distance=15.0, duration=100.0)
        noisy = benchmark_config(device_distance=15.0, duration=100.0,
                                 noise_power=2e-13)
        _, energy = wpt_hover_ic(cfg, 50.0)
        assert wit_mode2_rate(noisy, 50.0, energy) < wit_mode2_rate(cfg, 50.0, energy)

    def test_rate_reproduced_by_model(self):
        cfg = benchmark_config(device_distance=15.0, duration=100.0, num_slots=10)
        tau = 40.0
        _, energy = wpt_hover_ic(cfg, tau)
        rate = wit_mode2_rate(cfg, tau, energy)
        x_e, _ = wpt_hover_ic(cfg, tau)
        pos = hover_positions(-x_e, x_e, 10)
        pos[0, 4:, 0] = -7.5
        pos[1, 4:, 0] = 7.5
        q2 = 2.0 * energy / (cfg.duration - tau)
        charge = np.where(np.arange(10) < 4, 10.0, 0.0)
        uplink = 10.0 - charge
        Q = np.zeros((2, 10))
        Q[0, 4:7] = q2
        Q[1, 7:] = q2
        alloc = AllocationIC(charge, uplink, Q)
        assert common_throughput(alloc, pos, cfg) == pytest.approx(rate, abs=1e-9)


class TestSolveInfinite:
    def test_close_devices_prefer_turn_taking(self):
        cfg = benchmark_config(device_distance=5.0, duration=100.0)
        sol = solve_infinite_ic(cfg, tau_grid=300)
        assert sol.wit_mode is WitMode.TDMA

    def test_grid_refinement_stable(self):
        cfg = benchmark_config(device_distance=15.0, duration=100.0)
        r1 = solve_infinite_ic(cfg, tau_grid=500).common_rate
        r2 = solve_infinite_ic(cfg, tau_grid=1000).common_rate
        assert abs(r1 - r2) < 1e-3

    def test_best_on_grid(self):
        cfg = benchmark_config(device_distance=15.0, duration=100.0)
        sol = solve_infinite_ic(cfg, tau_grid=300)
        for tau in np.linspace(1.0, 99.0, 23):
            _, energy = wpt_hover_ic(cfg, tau)
            _, r1 = wit_mode1_hover(cfg, tau, energy)
            r2 = wit_mode2_rate(cfg, tau, energy)
            assert sol.common_rate >= max(r1, r2) - 1e-9

    @pytest.mark.parametrize("D", [5.0, 15.0, 30.0])
    def test_hover_ordering(self, D):
        cfg = benchmark_config(device_distance=D, duration=100.0)
        sol = solve_infinite_ic(cfg, tau_grid=300)
        assert sol.wpt_hover_x <= max(D / 2, cfg.min_separation / 2) + 1e-9
        _, energy = wpt_hover_ic(cfg, sol.charge_time)
        x1, _ = wit_mode1_hover(cfg, sol.charge_time, energy)
        assert x1 >= D / 2 - 1e-12

    def test_turn_taking_rate_flat_for_far_devices(self):
        # Once the devices are far apart each harvests essentially from its
        # own overhead UAV, so the turn-taking rate stops moving with D.
        rates = []
        for D in [20.0, 40.0]:
            cfg = benchmark_config(device_distance=D, duration=100.0,
                                   uav_initial=[[-30, -30], [30, -30]],
                                   uav_final=[[-30, 30], [30, 30]])
            taus = np.linspace(1.0, 99.0, 99)
            best = max(wit_mode2_rate(cfg, t, wpt_hover_ic(cfg, t)[1]) for t in taus)
            rates.append(best)
        assert abs(rates[1] - rates[0]) / rates[0] < 0.02

    def test_equal_energy_and_rates(self):
        cfg = benchmark_config(device_distance=15.0, duration=100.0, num_slots=10)
        sol = solve_infinite_ic(cfg, tau_grid=300)
        pos = hover_positions(-sol.wpt_hover_x, sol.wpt_hover_x, 10)
        alloc = AllocationIC(np.full(10, 1.0), np.zeros(10), np.zeros((2, 10)))
        e1, e2 = alloc.harvested(pos, cfg)
        assert e1 == pytest.approx(e2, rel=1e-12)


class TestArrayGrid:
    """The charging-time grid evaluated in one array pass against the
    scalar path."""

    @pytest.mark.parametrize("noise", SWEEP_NOISE)
    def test_solution_equals_scalar_grid_reference(self, noise):
        # Turn-taking wins at most points; at -80 dBm, D >= 30 takes the
        # simultaneous uplink, and there the first grid cell has no sign
        # change of the stationarity residual (test_grid_matches_scalar_rate).
        modes = set()
        for cfg in hover_sweep(noise):
            for grid in (1000, 400):
                sol, ref = solve_infinite_ic(cfg, tau_grid=grid), \
                    reference_infinite_ic(cfg, tau_grid=grid)
                assert sol == ref and repr(sol) == repr(ref), \
                    (cfg.device_distance, cfg.duration, grid)
            modes.add(sol.wit_mode)
        assert WitMode.TDMA in modes
        if noise == 1e-11:
            assert WitMode.SIMULTANEOUS in modes

    @pytest.mark.parametrize("D, T, noise", [(30.0, 50.0, 1e-11), (40.0, 4.0, 1e-11),
                                             (15.0, 50.0, 1e-11), (15.0, 100.0, 1e-13)])
    def test_grid_matches_scalar_rate(self, D, T, noise):
        cfg = benchmark_config(device_distance=D, duration=T, num_slots=10, noise_power=noise)
        taus = T / 1000 * np.arange(1, 1000)
        grid = _rate_grid(cfg, taus)
        scalar = np.array([_rate_at(cfg, t)[0] for t in taus])
        # The bisection and Brent's method place a simultaneous-mode offset
        # up to ~1e-12 m apart, and there the rate still has a slope in x of
        # up to ~0.06 per m at -80 dBm (its maximizer is not the root of the
        # stationarity residual at that noise), so those cells agree to
        # ~1e-14 relative; every other cell takes the same operations.
        assert np.allclose(grid, scalar, rtol=5e-14, atol=0.0)
        lo, hi = _mode1_bracket(cfg)
        c = cfg.ref_gain * (np.array([wpt_hover_ic(cfg, t)[1] for t in taus]) / (T - taus)) \
            / cfg.noise_power
        solved = (_stationarity(lo, D, cfg.altitude, c)
                  * _stationarity(hi, D, cfg.altitude, c) <= 0.0)
        tdma = np.array([_rate_at(cfg, t)[1] is WitMode.TDMA for t in taus])
        same_ops = tdma | ~solved
        np.testing.assert_array_max_ulp(grid[same_ops], scalar[same_ops], maxulp=2)
        if (D, noise) == (30.0, 1e-11):
            # The sweep's no-sign-change cell: the better bracket endpoint.
            assert not solved.all() and not tdma[~solved].all()


class TestBrentMethods:
    """The package's Brent root and bounded minimizer take scipy's iterates,
    so the package imports no `scipy.optimize`; the tests use it as the
    oracle."""

    def test_package_imports_no_scipy_optimize(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (
            str(Path(wpcn_traj.__file__).resolve().parents[1]), env.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, wpcn_traj, wpcn_traj.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[:2] == ['scipy', 'optimize']))"],
            env=env, check=True, capture_output=True, text=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("noise", [1e-13, 1e-11])
    def test_root_matches_brentq(self, noise):
        # 200 random brackets of the stationarity residual, all with a root.
        rng = np.random.default_rng(7)
        for _ in range(200):
            D, T = rng.uniform(2.0, 40.0), rng.uniform(1.0, 200.0)
            tau = rng.uniform(0.01, 0.99) * T
            cfg = benchmark_config(device_distance=D, duration=T, num_slots=10,
                                   noise_power=noise)
            c, _, _, root = _stationarity_ends(cfg, tau, wpt_hover_ic(cfg, tau)[1])
            assert root
            args = (D, cfg.altitude, c)
            ref = brentq(_stationarity, *_mode1_bracket(cfg), args=args,
                         xtol=1e-12, rtol=8.9e-16)
            x = _brent_root(lambda x: _stationarity(x, *args), *_mode1_bracket(cfg),
                            xtol=1e-12, rtol=8.9e-16)
            assert repr(x) == repr(ref), (D, T, tau)

    @pytest.mark.parametrize("noise", [1e-13, 1e-11])
    def test_refinement_matches_minimize_scalar(self, noise, monkeypatch):
        # Every window `_best_charge_time` refines, over random configs and grids.
        calls = []

        def recorded(f, a, b, xatol):
            calls.append((f, a, b, xatol, _brent_bounded_min(f, a, b, xatol)))
            return calls[-1][-1]

        monkeypatch.setattr(hover_ic, "_brent_bounded_min", recorded)
        rng = np.random.default_rng(11)
        for _ in range(20):
            cfg = benchmark_config(device_distance=rng.uniform(2.0, 40.0),
                                   duration=rng.uniform(1.0, 200.0), num_slots=10,
                                   noise_power=noise)
            solve_infinite_ic(cfg, tau_grid=int(rng.choice([57, 400, 1000])))
        assert len(calls) == 20
        for f, a, b, xatol, (x, fx) in calls:
            res = minimize_scalar(f, bounds=(a, b), method="bounded",
                                  options={"xatol": xatol})
            assert [repr(float(v)) for v in (x, fx)] == [repr(float(v)) for v in (res.x, res.fun)]

    def test_both_match_scipy_on_generic_functions(self):
        # Cubics, sines and exponentials over random brackets and tolerances:
        # secant, interpolation and bisection steps, parabolic and golden ones.
        rng = np.random.default_rng(3)
        for _ in range(300):
            c = rng.normal(size=3).tolist()
            f = [lambda x: ((c[0] * x + c[1]) * x + c[2]) * x - 0.3,
                 lambda x: math.sin(5.0 * c[0] * x) + 0.5 * c[1],
                 lambda x: math.exp(c[0] * x) - 1.5 + c[1] * x][rng.integers(3)]
            a, b = sorted(float(v) for v in rng.uniform(-3.0, 3.0, 2))
            tol = {"xtol": float(10.0 ** rng.uniform(-14, -2)), "rtol": 8.9e-16}
            if (f(a) < 0.0) != (f(b) < 0.0):
                assert repr(_brent_root(f, a, b, **tol)) == repr(brentq(f, a, b, **tol))
            g = lambda x: f(x) ** 2 + c[2] * x
            res = minimize_scalar(g, bounds=(a, b), method="bounded",
                                  options={"xatol": tol["xtol"]})
            assert [repr(float(v)) for v in _brent_bounded_min(g, a, b, tol["xtol"])] \
                == [repr(float(v)) for v in (res.x, res.fun)]

    def test_minimizer_stops_after_500_evaluations(self):
        # |x| at xatol=1e-300: the tolerance shrinks with |x|, so only the cap
        # ends the search.
        calls = []

        def f(x):
            calls.append(x)
            return abs(x)

        x, fx = _brent_bounded_min(f, -1.0, 2.0, 1e-300)
        res = minimize_scalar(abs, bounds=(-1.0, 2.0), method="bounded",
                              options={"xatol": 1e-300})
        assert len(calls) == res.nfev == 500 and res.status == 1
        assert (x, fx) == (res.x, res.fun)

    @pytest.mark.parametrize("f, a, b, error", [
        (lambda x: x - 1.0, 1.0, 3.0, None),             # exact zero at the lower end
        (lambda x: x - 1.0, -2.0, 1.0, None),            # ... and at the upper end
        (lambda x: x * x + 1.0, -1.0, 2.0, ValueError),  # ends of one sign
        (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, ValueError),
        # A residual too flat near its root for 100 iterations at xtol=1e-300.
        (lambda x: math.copysign(abs(x) ** 1e-3, x), -1.0, 2.0, RuntimeError),
    ])
    def test_root_edge_cases_as_brentq(self, f, a, b, error):
        tol = {"xtol": 1e-300 if error is RuntimeError else 1e-12, "rtol": 8.9e-16}
        if error is None:
            assert _brent_root(f, a, b, **tol) == brentq(f, a, b, **tol) == 1.0
        else:
            for solver in (brentq, _brent_root):
                with pytest.raises(error):
                    solver(f, a, b, **tol)
