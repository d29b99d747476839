import numpy as np
import pytest

from wpcn_traj import (AllocationCoMP, EmptyFeasibleGrid, common_throughput,
                       comp_rate_upper_bound, solve_infinite_comp,
                       wit_hover_comp, wpt_hover_comp, wpt_hover_ic,
                       solve_infinite_ic)
from wpcn_traj.hover_comp import _best_pair_on, _bound_rate, bound_rate_at, charge_pair_power
from conftest import SWEEP_NOISE, benchmark_config, hover_positions, hover_sweep
from oracles import reference_infinite_comp


def charge_pair_oracle(x1, x2, cfg):
    """Independent evaluation of the charging-pair objective."""
    D, H = cfg.device_distance, cfg.altitude
    g = lambda x, xd: cfg.ref_gain / ((x - xd) ** 2 + H**2)
    coherent = (np.sqrt(g(x1, -D / 2)) + np.sqrt(g(x2, -D / 2))) ** 2
    leak = g(x1, D / 2) + g(x2, D / 2)
    return cfg.eh_efficiency * cfg.uav_power * (coherent + leak)


class TestWitHover:
    def test_close_devices(self):
        cfg = benchmark_config(device_distance=5.0)
        assert wit_hover_comp(cfg) == pytest.approx(0.5)

    def test_far_devices(self):
        cfg = benchmark_config(device_distance=15.0)
        assert wit_hover_comp(cfg) == pytest.approx(7.3456, abs=1e-4)

    def test_same_formula_as_charging_hover(self):
        for D, H in [(15.0, 5.0), (10.0, 3.0), (25.0, 7.0)]:
            cfg = benchmark_config(device_distance=D, altitude=H)
            assert wit_hover_comp(cfg) == wpt_hover_ic(cfg, 1.0)[0]

    def test_matches_grid_search_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            D = rng.uniform(1.0, 40.0)
            H = rng.uniform(0.5, 20.0)
            dmin = rng.uniform(0.05, 2.0)
            cfg = benchmark_config(device_distance=D, altitude=H,
                                   min_separation=dmin,
                                   uav_initial=[[-30, -30], [30, -30]],
                                   uav_final=[[-30, 30], [30, 30]],
                                   duration=100.0, num_slots=10)
            x = wit_hover_comp(cfg)
            xs = np.arange(dmin / 2.0, D / 2.0 + 2.0 * H, 1e-2)
            obj = (1.0 / ((xs - D / 2) ** 2 + H**2)
                   + 1.0 / ((xs + D / 2) ** 2 + H**2))
            coarse = xs[np.argmax(obj)]
            fine = np.arange(max(dmin / 2.0, coarse - 2e-2), coarse + 2e-2, 1e-4)
            objf = (1.0 / ((fine - D / 2) ** 2 + H**2)
                    + 1.0 / ((fine + D / 2) ** 2 + H**2))
            assert abs(x - fine[np.argmax(objf)]) < 1e-3

    def test_stays_between_devices(self):
        for D in [3.0, 8.0, 20.0, 40.0]:
            cfg = benchmark_config(device_distance=D)
            assert wit_hover_comp(cfg) <= max(D / 2, cfg.min_separation / 2) + 1e-9


class TestWptHoverPair:
    def test_clusters_at_charged_device_when_unconstrained(self):
        cfg = benchmark_config(device_distance=15.0, min_separation=1e-3,
                               uav_initial=[[-2, -2], [2, -2]],
                               uav_final=[[-2, 2], [2, 2]])
        (x1, x2), _ = wpt_hover_comp(cfg, 1.0)
        assert abs(x1 + 7.5) < 1.0
        assert abs(x2 + 7.5) < 1.0

    def test_separation_constraint_respected(self):
        cfg = benchmark_config(device_distance=15.0)
        (x1, x2), _ = wpt_hover_comp(cfg, 1.0)
        assert x2 - x1 >= cfg.min_separation - 1e-9

    def test_mirror_pair(self):
        cfg = benchmark_config(device_distance=15.0)
        sol = solve_infinite_comp(cfg, tau_grid=100)
        x1, x2 = sol.wpt_hover_pair
        assert sol.mirror_pair == (-x2, -x1)

    def test_beats_any_coarse_grid_pair(self):
        cfg = benchmark_config(device_distance=12.0)
        (x1, x2), energy = wpt_hover_comp(cfg, 2.0)
        best = charge_pair_oracle(x1, x2, cfg)
        span = cfg.device_distance / 2 + cfg.altitude
        xs = np.linspace(-span, span, 41)
        X1, X2 = np.meshgrid(xs, xs)
        ok = np.abs(X1 - X2) >= cfg.min_separation
        oracle = np.where(ok, charge_pair_oracle(X1, X2, cfg), -np.inf).max()
        assert best >= oracle - 1e-9
        assert energy == pytest.approx(1.0 * best, rel=1e-12)

    def test_coherent_charging_beats_independent(self):
        cfg = benchmark_config(device_distance=15.0)
        _, e_ic = wpt_hover_ic(cfg, 10.0)
        _, e_comp = wpt_hover_comp(cfg, 10.0)
        assert e_comp >= e_ic

    def test_empty_grid_raises(self):
        # A grid [-0.3, 0.3] m cannot hold a 1 m separation.
        cfg = benchmark_config(device_distance=0.2, altitude=0.2,
                               min_separation=1.0, num_slots=10)
        xs = np.array([-0.3, 0.0, 0.3])
        with pytest.raises(EmptyFeasibleGrid):
            _best_pair_on(xs, xs, cfg)

    @pytest.mark.parametrize("D, H, d_min", [(0.2, 0.2, 1.0), (1.0, 0.5, 3.0)])
    def test_search_box_holds_the_separation(self, D, H, d_min):
        # The box [-(D/2 + H), D/2 + H]^2 is narrower than d_min here and
        # once held no feasible pair.
        cfg = benchmark_config(device_distance=D, altitude=H, min_separation=d_min,
                               num_slots=10)
        (x1, x2), energy = wpt_hover_comp(cfg, 1.0)
        assert x2 - x1 >= d_min - 1e-9
        assert energy > 0.0

    @pytest.mark.parametrize("D, H, d_min", [(1.0, 0.5, 3.0), (2.0, 1.0, 3.5)])
    def test_pair_not_clipped_by_the_search_box(self, D, H, d_min):
        # The narrow box pinned the D=2 pair to its edge at (-1.5, 2.0),
        # 2.2% below the best pair.  The pair found is within 0.1% (the
        # refinement step's resolution on the separation boundary) of every
        # pair of a grid on the wider box [-(D/2 + H + d_min), D/2 + H + d_min]^2.
        cfg = benchmark_config(device_distance=D, altitude=H, min_separation=d_min,
                               num_slots=10)
        (x1, x2), _ = wpt_hover_comp(cfg, 1.0)
        span = D / 2.0 + H + d_min
        X1, X2 = np.meshgrid(*[np.linspace(-span, span, 81)] * 2)
        oracle = np.where(X2 - X1 >= d_min, charge_pair_oracle(X1, X2, cfg), -np.inf).max()
        assert charge_pair_oracle(x1, x2, cfg) >= (1.0 - 1e-3) * oracle


class TestSolveInfiniteCoMP:
    def test_beats_interference_coordination(self):
        cfg = benchmark_config(device_distance=15.0, duration=100.0)
        comp = solve_infinite_comp(cfg, tau_grid=300)
        ic = solve_infinite_ic(cfg, tau_grid=300)
        assert comp.common_rate >= ic.common_rate

    def test_grid_refinement_stable(self):
        cfg = benchmark_config(device_distance=15.0, duration=100.0)
        r1 = solve_infinite_comp(cfg, tau_grid=500).common_rate
        r2 = solve_infinite_comp(cfg, tau_grid=1000).common_rate
        assert abs(r1 - r2) < 1e-3

    def test_gap_to_coordination_shrinks_with_distance(self):
        rel = []
        for D in [10.0, 40.0]:
            cfg = benchmark_config(device_distance=D, duration=100.0)
            comp = solve_infinite_comp(cfg, tau_grid=300).common_rate
            ic = solve_infinite_ic(cfg, tau_grid=300).common_rate
            rel.append((comp - ic) / ic)
        assert rel[1] < rel[0]

    def test_rate_and_energy_reproduced_by_model(self):
        cfg = benchmark_config(device_distance=15.0, duration=100.0, num_slots=10)
        tau = 40.0
        pair, energy = wpt_hover_comp(cfg, tau)
        x_i = wit_hover_comp(cfg)
        rate = bound_rate_at(cfg, tau, energy, x_i)

        pos = np.zeros((2, 10, 2))
        pos[0, :2, 0], pos[1, :2, 0] = pair            # charge device 1
        pos[0, 2:4, 0], pos[1, 2:4, 0] = -pair[1], -pair[0]  # charge device 2
        pos[0, 4:, 0], pos[1, 4:, 0] = -x_i, x_i       # joint uplink
        beam = np.zeros((2, 10))
        beam[0, :2] = 10.0
        beam[1, 2:4] = 10.0
        uplink = np.zeros(10)
        uplink[4:] = 10.0
        q = energy / 60.0
        Q = np.where(uplink > 0, q, 0.0)[None, :].repeat(2, axis=0)
        alloc = AllocationCoMP(beam, uplink, Q)
        for k in range(2):
            assert alloc.harvested(pos, cfg)[k] == pytest.approx(
                energy, rel=1e-9)
            assert (alloc.harvested(pos, cfg) - alloc.spent)[k] == pytest.approx(
                0.0, abs=1e-9)
        assert common_throughput(alloc, pos, cfg) == pytest.approx(rate, abs=1e-9)

    def test_full_power_neutrality_binds(self):
        cfg = benchmark_config(device_distance=15.0, duration=100.0)
        sol = solve_infinite_comp(cfg, tau_grid=300)
        spend = sol.tx_power * (cfg.duration - sol.charge_time)
        assert spend == pytest.approx(sol.harvested_per_device, rel=1e-12)


class TestArrayGrid:
    @pytest.mark.parametrize("noise", SWEEP_NOISE)
    def test_solution_equals_scalar_grid_reference(self, noise):
        for cfg in hover_sweep(noise):
            for grid in (1000, 400):
                sol, ref = solve_infinite_comp(cfg, tau_grid=grid), \
                    reference_infinite_comp(cfg, tau_grid=grid)
                assert sol == ref and repr(sol) == repr(ref), \
                    (cfg.device_distance, cfg.duration, grid)

    @pytest.mark.parametrize("D, T, noise", [(15.0, 50.0, 1e-13), (30.0, 4.0, 1e-11)])
    def test_grid_matches_scalar_rate(self, D, T, noise):
        cfg = benchmark_config(device_distance=D, duration=T, num_slots=10, noise_power=noise)
        _, e_unit = wpt_hover_comp(cfg, 1.0)
        x_i = wit_hover_comp(cfg)
        taus = T / 1000 * np.arange(1, 1000)
        grid = _bound_rate(cfg, taus, e_unit * taus, x_i)
        scalar = np.array([bound_rate_at(cfg, t, e_unit * t, x_i) for t in taus])
        np.testing.assert_array_max_ulp(grid, scalar, maxulp=2)
