import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcn_traj import (AllocationCoMP, AllocationIC, ConfigError,
                       ScenarioConfig, Trajectory, channel_gain,
                       common_throughput, comp_rate_upper_bound,
                       db_to_linear, dbm_to_watt, feasibility_report, gain_matrix,
                       sinr_ic, watt_to_dbm)
from conftest import benchmark_config, hover_positions
from oracles import (coherent_power, common_throughput_comp, common_throughput_ic,
                     energy_residual_comp, energy_residual_ic, harvested_energy_comp,
                     harvested_energy_ic, leaked_power, rate_bound_comp, rates_comp,
                     rates_ic, sinr_ic_device)

charging_power = AllocationCoMP.charging_power

# Per-device evaluation forms of each mode: harvested energy, energy
# residual, rates and common throughput.
FORMULAS = {"ic": (harvested_energy_ic, energy_residual_ic, rates_ic, common_throughput_ic),
            "comp": (harvested_energy_comp, energy_residual_comp, rates_comp,
                     common_throughput_comp)}


def test_unit_conversions_exact():
    assert dbm_to_watt(40.0) == pytest.approx(10.0, rel=1e-14)
    assert dbm_to_watt(-100.0) == pytest.approx(1e-13, rel=1e-14)
    assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-14)
    assert watt_to_dbm(10.0) == pytest.approx(40.0, abs=1e-12)


class TestChannelGain:
    def test_zero_offset(self):
        cfg = benchmark_config(device_distance=5.0)
        g = channel_gain(np.array([-2.5, 0.0]), np.array([-2.5, 0.0]), cfg)
        assert g == pytest.approx(4.0e-5, rel=1e-12)

    def test_hand_value(self):
        # distance^2 = 2.5^2, plus altitude^2 = 25 -> 31.25
        cfg = benchmark_config(device_distance=5.0)
        g = channel_gain(np.array([0.0, 0.0]), np.array([-2.5, 0.0]), cfg)
        assert g == pytest.approx(1e-3 / 31.25, rel=1e-12)

    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20),
           st.floats(-20, 20))
    def test_reflection_symmetry(self, qx, qy, wx, wy):
        cfg = benchmark_config()
        a = channel_gain(np.array([qx, qy]), np.array([wx, wy]), cfg)
        b = channel_gain(np.array([-qx, -qy]), np.array([-wx, -wy]), cfg)
        assert a == pytest.approx(b, rel=1e-12)

    def test_bounded_by_overhead_gain(self):
        cfg = benchmark_config()
        rng = np.random.default_rng(7)
        q = rng.uniform(-30, 30, size=(100, 2))
        g = channel_gain(q, np.array([1.0, -2.0]), cfg)
        assert np.all(g > 0)
        assert np.all(g <= cfg.ref_gain / cfg.altitude**2 + 1e-18)


class TestHarvestedEnergyIC:
    def _setup(self):
        cfg = benchmark_config(device_distance=5.0, duration=2.0, num_slots=2)
        pos = hover_positions(-0.5, 0.5, 2)
        alloc = AllocationIC(charge_time=[1.0, 0.0], uplink_time=[0.0, 0.0],
                             tx_power=np.zeros((2, 2)))
        return cfg, pos, alloc

    def test_hand_value(self):
        cfg, pos, alloc = self._setup()
        expected = 0.6 * 10.0 * 1e-3 * (1.0 / 29.0 + 1.0 / 34.0)
        assert alloc.harvested(pos, cfg)[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_charge_time(self):
        cfg, pos, _ = self._setup()
        alloc = AllocationIC(np.zeros(2), np.zeros(2), np.zeros((2, 2)))
        assert alloc.harvested(pos, cfg)[0] == 0.0

    def test_linear_in_power(self):
        cfg, pos, alloc = self._setup()
        doubled = benchmark_config(device_distance=5.0, duration=2.0, num_slots=2,
                                   uav_power=20.0)
        assert alloc.harvested(pos, doubled)[0] == pytest.approx(
            2.0 * alloc.harvested(pos, cfg)[0], rel=1e-12)

    def test_linear_in_charge_time(self):
        cfg, pos, alloc = self._setup()
        alloc2 = AllocationIC(2.0 * alloc.charge_time, alloc.uplink_time, alloc.tx_power)
        assert alloc2.harvested(pos, cfg)[0] == pytest.approx(
            2.0 * alloc.harvested(pos, cfg)[0], rel=1e-12)


class TestSinrIC:
    def test_no_interference_reduces_to_snr(self):
        cfg = benchmark_config(device_distance=5.0, duration=1.0, num_slots=1)
        pos = hover_positions(-2.5, 2.5, 1)
        Q = np.array([[1e-4], [0.0]])
        snr = 1e-4 * channel_gain(pos[0, 0], cfg.device_positions[0], cfg) / cfg.noise_power
        assert sinr_ic(Q, pos, cfg)[0, 0] == pytest.approx(snr, rel=1e-12)

    def test_zero_power_zero_sinr(self):
        cfg = benchmark_config(device_distance=5.0, duration=1.0, num_slots=1)
        pos = hover_positions(-2.5, 2.5, 1)
        Q = np.array([[0.0], [1e-4]])
        assert sinr_ic(Q, pos, cfg)[0, 0] == 0.0

    def test_mirror_symmetry(self):
        cfg = benchmark_config(device_distance=8.0, duration=1.0, num_slots=1)
        pos = hover_positions(-3.0, 3.0, 1)
        Q = np.full((2, 1), 2e-5)
        assert sinr_ic(Q, pos, cfg)[0, 0] == pytest.approx(
            sinr_ic(Q, pos, cfg)[1, 0], rel=1e-12)


class TestCommonThroughputIC:
    def test_zero_uplink_time(self):
        cfg = benchmark_config(device_distance=5.0, duration=1.0, num_slots=1)
        pos = hover_positions(-2.5, 2.5, 1)
        alloc = AllocationIC([0.5], [0.0], np.full((2, 1), 1e-4))
        assert common_throughput(alloc, pos, cfg) == 0.0

    def test_unit_sinr_gives_one_bit(self):
        # Choose the power that makes the SINR exactly one for both devices.
        cfg = benchmark_config(device_distance=5.0, duration=1.0, num_slots=1)
        pos = hover_positions(-2.5, 2.5, 1)
        g_own = cfg.ref_gain / cfg.altitude**2
        g_cross = cfg.ref_gain / (cfg.device_distance**2 + cfg.altitude**2)
        q = cfg.noise_power / (g_own - g_cross)
        alloc = AllocationIC([0.0], [1.0], np.full((2, 1), q))
        assert common_throughput(alloc, pos, cfg) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_own_power_without_interference(self):
        cfg = benchmark_config(device_distance=5.0, duration=1.0, num_slots=1)
        pos = hover_positions(-2.5, 2.5, 1)
        rates = []
        for q in [1e-6, 1e-5, 1e-4]:
            alloc = AllocationIC([0.0], [1.0], np.array([[q], [0.0]]))
            rates.append(alloc.rates(pos, cfg)[0])
        assert rates[0] < rates[1] < rates[2]


class TestEnergyResidualIC:
    def test_zero_spend_equals_harvest(self):
        cfg = benchmark_config(device_distance=5.0, duration=2.0, num_slots=2)
        pos = hover_positions(-0.5, 0.5, 2)
        alloc = AllocationIC([1.0, 0.0], [0.0, 1.0], np.zeros((2, 2)))
        assert (alloc.harvested(pos, cfg) - alloc.spent)[0] == pytest.approx(
            alloc.harvested(pos, cfg)[0], rel=1e-12)

    def test_overspending_sign(self):
        cfg = benchmark_config(device_distance=5.0, duration=2.0, num_slots=2)
        pos = hover_positions(-0.5, 0.5, 2)
        alloc0 = AllocationIC([1.0, 0.0], [0.0, 1.0], np.zeros((2, 2)))
        budget = alloc0.harvested(pos, cfg)[0]
        q = 1.1 * budget  # spends 10% beyond the harvested energy in 1 s
        alloc = AllocationIC([1.0, 0.0], [0.0, 1.0], np.array([[0.0, q], [0.0, 0.0]]))
        assert (alloc.harvested(pos, cfg) - alloc.spent)[0] == pytest.approx(
            -0.1 * budget, rel=1e-9)

    def test_symmetric_layout_equal_residuals(self):
        cfg = benchmark_config(device_distance=5.0, duration=2.0, num_slots=2)
        pos = hover_positions(-0.5, 0.5, 2)
        alloc = AllocationIC([1.0, 0.0], [0.0, 1.0], np.full((2, 2), 1e-5))
        assert (alloc.harvested(pos, cfg) - alloc.spent)[0] == pytest.approx(
            (alloc.harvested(pos, cfg) - alloc.spent)[1], rel=1e-12)


class TestCompPowers:
    def test_colocated_quadruples_single_gain(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = hover_positions(-2.5, -2.5, 1)  # both directly above device 1
        expected = 4.0 * 0.6 * 10.0 * 1e-3 / 25.0
        assert charging_power(pos[:, 0], cfg)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_far_uav_limit(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = hover_positions(-2.5, 1e9, 1)
        near_only = 0.6 * 10.0 * 1e-3 / 25.0
        assert charging_power(pos[:, 0], cfg)[0, 0] == pytest.approx(
            near_only, rel=1e-6)

    def test_coherent_hand_value(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = hover_positions(-0.5, 0.5, 1)
        expected = 6.0 * (np.sqrt(1e-3 / 29.0) + np.sqrt(1e-3 / 34.0)) ** 2
        assert charging_power(pos[:, 0], cfg)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_noncoherent_hand_value(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = hover_positions(-0.5, 0.5, 1)
        expected = 6e-3 * (1.0 / 29.0 + 1.0 / 34.0)
        assert charging_power(pos[:, 0], cfg)[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_coherent_dominates_noncoherent(self):
        cfg = benchmark_config(device_distance=12.0)
        rng = np.random.default_rng(3)
        pos = rng.uniform(-15, 15, size=(2, 100, 2))
        power = charging_power(pos, cfg)
        assert np.all(power[0, 0] >= power[0, 1])

    def test_equal_distance_gives_factor_two(self):
        cfg = benchmark_config(device_distance=6.0)
        pos = hover_positions(-4.0, -2.0, 1)  # both 1 m from device 1 horizontally
        power = charging_power(pos[:, 0], cfg)
        assert power[0, 0] == pytest.approx(2.0 * power[0, 1], rel=1e-12)


class TestHarvestedEnergyCoMP:
    def test_zero_time(self):
        cfg = benchmark_config(device_distance=5.0, duration=1.0, num_slots=1)
        pos = hover_positions(-0.5, 0.5, 1)
        alloc = AllocationCoMP(np.zeros((2, 1)), np.zeros(1), np.zeros((2, 1)))
        assert alloc.harvested(pos, cfg)[0] == 0.0

    def test_single_slot_hand_value(self):
        cfg = benchmark_config(device_distance=5.0, duration=1.0, num_slots=1)
        pos = hover_positions(-0.5, 0.5, 1)
        alloc = AllocationCoMP(np.array([[0.3], [0.5]]), np.zeros(1), np.zeros((2, 1)))
        coh = 6.0 * (np.sqrt(1e-3 / 29.0) + np.sqrt(1e-3 / 34.0)) ** 2
        non = 6e-3 * (1.0 / 29.0 + 1.0 / 34.0)
        assert alloc.harvested(pos, cfg)[0] == pytest.approx(
            0.3 * coh + 0.5 * non, rel=1e-12)

    def test_linear_in_beam_time(self):
        cfg = benchmark_config(device_distance=5.0, duration=1.0, num_slots=1)
        pos = hover_positions(-0.5, 0.5, 1)
        a1 = AllocationCoMP(np.array([[0.2], [0.1]]), np.zeros(1), np.zeros((2, 1)))
        a2 = AllocationCoMP(np.array([[0.4], [0.2]]), np.zeros(1), np.zeros((2, 1)))
        assert a2.harvested(pos, cfg)[0] == pytest.approx(
            2.0 * a1.harvested(pos, cfg)[0], rel=1e-12)


class TestCompRateBound:
    def test_zero_power(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = hover_positions(-0.5, 0.5, 1)
        assert comp_rate_upper_bound(0.0, pos[:, 0], 0, cfg)[()] == 0.0

    def test_hand_value(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = hover_positions(-0.5, 0.5, 1)
        expected = np.log2(1.0 + 0.5 * 1e-6 * 1e10 * (1.0 / 29.0 + 1.0 / 34.0))
        assert comp_rate_upper_bound(1e-6, pos[:, 0], 0, cfg)[()] == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(8.32, abs=0.01)


class TestMirrorSymmetry:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_reflection_swaps_devices(self, seed):
        rng = np.random.default_rng(seed)
        cfg = benchmark_config(device_distance=9.0, duration=1.0, num_slots=4)
        pos = rng.uniform(-10, 10, size=(2, 4, 2))
        mirrored = -pos[::-1]  # reflect through origin and swap the two UAVs
        charge = rng.uniform(0, 0.02, size=4)
        uplink = rng.uniform(0, 0.02, size=4)
        Q = rng.uniform(0, 1e-4, size=(2, 4))
        alloc = AllocationIC(charge, uplink, Q)
        alloc_m = AllocationIC(charge, uplink, Q[::-1])
        for k in range(2):
            assert alloc.harvested(pos, cfg)[k] == pytest.approx(
                alloc_m.harvested(mirrored, cfg)[1 - k], rel=1e-10)
            comp = AllocationCoMP(np.stack([charge, uplink]), uplink, Q)
            comp_m = AllocationCoMP(np.stack([uplink, charge]), uplink, Q[::-1])
            assert comp.harvested(pos, cfg)[k] == pytest.approx(
                comp_m.harvested(mirrored, cfg)[1 - k], rel=1e-10)
        r = alloc.rates(pos, cfg)
        r_m = alloc_m.rates(mirrored, cfg)
        assert r[0] == pytest.approx(r_m[1], rel=1e-10)
        assert r[1] == pytest.approx(r_m[0], rel=1e-10)


class TestAllocationOracles:
    @pytest.mark.parametrize("N", [1, 6, 80])
    @pytest.mark.parametrize("seed", range(5))
    def test_methods_reproduce_the_per_device_formulas(self, N, seed):
        # Both modes' rates, harvested energy, energy residuals and common
        # throughput equal the per-device evaluation forms bit for bit.
        rng = np.random.default_rng([seed, N])
        cfg = benchmark_config(device_distance=rng.uniform(2.0, 30.0), duration=4.0,
                               num_slots=N, noise_power=10.0 ** rng.uniform(-14.0, -10.0))
        d = cfg.slot_duration
        traj = Trajectory(rng.uniform(-20.0, 20.0, size=(2, N + 1, 2)))
        Q = rng.uniform(0.0, 1e-3, size=(2, N)) * (rng.random((2, N)) < 0.8)
        uplink = rng.uniform(0.0, d, N)
        for alloc, mode in ((AllocationIC(rng.uniform(0.0, d, N), uplink, Q), "ic"),
                            (AllocationCoMP(rng.uniform(0.0, d / 2, (2, N)), uplink, Q), "comp")):
            harvested, residual, rates, common = FORMULAS[mode]
            for pos in (traj, traj.slot_positions):
                energy = [residual(alloc, pos, k, cfg) for k in range(2)]
                assert alloc.harvested(pos, cfg).tolist() == \
                    [harvested(alloc, pos, k, cfg) for k in range(2)]
                assert (alloc.harvested(pos, cfg) - alloc.spent).tolist() == energy
                assert alloc.rates(pos, cfg).tolist() == rates(alloc, pos, cfg).tolist()
                assert common_throughput(alloc, pos, cfg) == common(alloc, pos, cfg)
                report = feasibility_report(cfg, traj, alloc)
                assert [report["energy_dev1"], report["energy_dev2"]] == \
                    [max(0.0, -e) for e in energy]

    @pytest.mark.parametrize("N", [1, 6, 80, None])
    @pytest.mark.parametrize("seed", range(5))
    def test_one_gain_tensor_reproduces_the_per_device_formulas(self, N, seed):
        # The SINRs, charging powers, both modes' slot rates, the rate bound
        # and the gain matrix, each evaluated for both devices at once, equal
        # the per-device forms bit for bit.  N=None is one raw (2, 2)
        # position pair, with a scalar power for the bound.
        rng = np.random.default_rng([seed, N or 0])
        cfg = benchmark_config(device_distance=rng.uniform(2.0, 30.0), duration=4.0,
                               num_slots=N or 1, altitude=rng.uniform(0.5, 10.0),
                               noise_power=10.0 ** rng.uniform(-14.0, -10.0))
        slots = () if N is None else (N,)
        pos = rng.uniform(-20.0, 20.0, size=(2, *slots, 2))
        Q = rng.uniform(0.0, 1e-3, size=(2, *slots)) * (rng.random((2, *slots)) < 0.8)
        sinr, power = sinr_ic(Q, pos, cfg), charging_power(pos, cfg)
        ic_rates, comp_rates = (mode.slot_rates(Q, pos, cfg)
                                for mode in (AllocationIC, AllocationCoMP))
        g = gain_matrix(pos, cfg)
        q = Q[:, 0] if N else Q
        for k in range(2):
            own = sinr_ic_device(Q, pos, k, cfg)
            assert sinr[k].tolist() == own.tolist()
            assert ic_rates[k].tolist() == np.log2(1.0 + own).tolist()
            assert power[k, k].tolist() == coherent_power(pos, k, cfg).tolist()
            assert power[k, 1 - k].tolist() == leaked_power(pos, k, cfg).tolist()
            assert comp_rates[k].tolist() == rate_bound_comp(Q[k], pos, k, cfg).tolist()
            assert comp_rate_upper_bound(Q[k], pos, k, cfg).tolist() == comp_rates[k].tolist()
            assert comp_rate_upper_bound(float(q[k]), pos, k, cfg).tolist() == \
                rate_bound_comp(float(q[k]), pos, k, cfg).tolist()
            for m in range(2):
                assert g[k, m].tolist() == \
                    channel_gain(pos[m], cfg.device_positions[k], cfg).tolist()


class TestConfigValidation:
    def test_bad_efficiency(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(eh_efficiency=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(eh_efficiency=1.5)

    def test_endpoints_too_far_for_duration(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(duration=0.1, num_slots=1,
                           uav_initial=[[-2, -2], [2, -2]],
                           uav_final=[[-2, 2], [2, 2]])

    def test_endpoint_separation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(uav_initial=[[0, 0], [0.5, 0]],
                           uav_final=[[-2, 2], [2, 2]])

    @pytest.mark.parametrize("kw", [
        {"duration": np.inf}, {"noise_power": np.nan}, {"altitude": np.nan},
        {"max_speed": np.inf}, {"device_distance": np.nan},
        {"uav_initial": [[-2.0, -2.0], [np.nan, -2.0]]}])
    def test_non_finite_values(self, kw):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kw)

    @pytest.mark.parametrize("num_slots", [2.5, 6.0, True, 0, np.int64(0), "6"])
    def test_num_slots_must_be_a_positive_integer(self, num_slots):
        with pytest.raises(ConfigError):
            ScenarioConfig(num_slots=num_slots)

    def test_numpy_integer_num_slots(self):
        assert ScenarioConfig(num_slots=np.int64(6)).slot_duration == pytest.approx(10.0 / 6)

    def test_device_positions_derived_from_distance(self):
        cfg = ScenarioConfig(device_distance=15.0)
        assert np.array_equal(cfg.device_positions, [[-7.5, 0.0], [7.5, 0.0]])
        with pytest.raises(TypeError):
            ScenarioConfig(device_positions=[[-7.5, 0.0], [7.5, 0.0]])

    def test_slot_duration(self):
        cfg = ScenarioConfig(duration=7.0, num_slots=70)
        assert cfg.slot_duration == pytest.approx(0.1)
        assert cfg.max_step == pytest.approx(0.5)


class TestTrajectoryInvariants:
    def test_endpoint_residual(self):
        cfg = benchmark_config(duration=10.0, num_slots=10)
        pos = np.zeros((2, 11, 2))
        pos[:, 0] = cfg.uav_initial
        pos[:, -1] = cfg.uav_final + 0.5
        pos[0, :, 0] -= 3.0
        traj = Trajectory(pos)
        assert traj.residuals(cfg)["endpoint"] >= 0.5

    def test_speed_and_separation(self):
        cfg = benchmark_config(duration=10.0, num_slots=10)
        frac = np.linspace(0, 1, 11)[None, :, None]
        pos = cfg.uav_initial[:, None, :] * (1 - frac) + cfg.uav_final[:, None, :] * frac
        traj = Trajectory(pos)
        res = traj.residuals(cfg)
        assert res["speed"] == 0.0
        assert res["separation"] == 0.0
        assert traj.is_feasible(cfg)
        bad = pos.copy()
        bad[0, 5] = bad[1, 5]  # collide mid-flight
        assert Trajectory(bad).residuals(cfg)["separation"] == pytest.approx(
            cfg.min_separation)
        fast = pos.copy()
        fast[0, 5] += np.array([30.0, 0.0])  # 30 m jump in one 1 s slot
        assert Trajectory(fast).residuals(cfg)["speed"] > 20.0
