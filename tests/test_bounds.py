import numpy as np
import pytest

from wpcn_traj import AllocationCoMP, AllocationIC, comp_rate_upper_bound, sinr_ic
from conftest import benchmark_config
from oracles import (amp_sum_sq_bound, comp_traj_rate_bound, harvest_bound_comp,
                     harvest_bound_ic, inv_square_bound, power_rate_bound,
                     reciprocal_bound, separation_bound, traj_rate_bound)

N = 8
RNG = np.random.default_rng(2024)


def _cfg():
    return benchmark_config(device_distance=15.0, duration=0.8, num_slots=N)


def _random_positions(rng, n=N):
    return rng.uniform(-12.0, 12.0, size=(2, n, 2))


def _true_rate(cfg, Q, pos, uplink, k):
    return uplink * np.log2(1.0 + sinr_ic(Q, pos, cfg)[k])


class TestPowerRateBound:
    def test_exact_at_expansion(self):
        cfg = _cfg()
        rng = np.random.default_rng(0)
        pos = _random_positions(rng)
        Q = rng.uniform(0.0, 1e-4, size=(2, N))
        uplink = rng.uniform(0.0, 0.1, size=N)
        for k in range(2):
            b = power_rate_bound(Q, Q, pos, uplink, k, cfg)
            t = _true_rate(cfg, Q, pos, uplink, k)
            assert np.all(np.abs(b - t) <= 1e-10 * (1.0 + np.abs(t)))

    def test_valid_everywhere(self):
        cfg = _cfg()
        rng = np.random.default_rng(1)
        pos = _random_positions(rng)
        uplink = rng.uniform(0.0, 0.1, size=N)
        Q_ref = rng.uniform(0.0, 1e-4, size=(2, N))
        for _ in range(1000 // N):
            Q = rng.uniform(0.0, 2e-4, size=(2, N))
            for k in range(2):
                b = power_rate_bound(Q, Q_ref, pos, uplink, k, cfg)
                t = _true_rate(cfg, Q, pos, uplink, k)
                assert np.all(b <= t + 1e-12)


class TestTrajRateBound:
    def test_exact_at_expansion(self):
        cfg = _cfg()
        rng = np.random.default_rng(2)
        pos = _random_positions(rng)
        Q = rng.uniform(0.0, 1e-4, size=(2, N))
        uplink = rng.uniform(0.0, 0.1, size=N)
        for k in range(2):
            b = traj_rate_bound(pos, pos, Q, uplink, k, cfg)
            t = _true_rate(cfg, Q, pos, uplink, k)
            assert np.all(np.abs(b - t) <= 1e-10 * (1.0 + np.abs(t)))

    def test_valid_on_random_perturbations(self):
        cfg = _cfg()
        rng = np.random.default_rng(3)
        ref = _random_positions(rng)
        Q = rng.uniform(0.0, 1e-4, size=(2, N))
        uplink = rng.uniform(0.0, 0.1, size=N)
        checked = 0
        while checked < 1000:
            pos = ref + rng.uniform(-3.0, 3.0, size=ref.shape)
            for k in range(2):
                b = traj_rate_bound(pos, ref, Q, uplink, k, cfg)
                t = _true_rate(cfg, Q, pos, uplink, k)
                ok = np.isfinite(b)
                assert np.all(b[ok] <= t[ok] + 1e-12)
                checked += int(ok.sum())


class TestHarvestBound:
    def test_exact_at_expansion(self):
        cfg = _cfg()
        rng = np.random.default_rng(4)
        pos = _random_positions(rng)
        charge = rng.uniform(0.0, 0.1, size=N)
        alloc = AllocationIC(charge, np.zeros(N), np.zeros((2, N)))
        for k in range(2):
            b = harvest_bound_ic(pos, pos, charge, k, cfg)
            t = alloc.harvested(pos, cfg)[k]
            assert b == pytest.approx(t, rel=1e-10)

    def test_valid_on_random_perturbations(self):
        cfg = _cfg()
        rng = np.random.default_rng(5)
        ref = _random_positions(rng)
        charge = rng.uniform(0.0, 0.1, size=N)
        alloc = AllocationIC(charge, np.zeros(N), np.zeros((2, N)))
        for _ in range(1000):
            pos = ref + rng.uniform(-5.0, 5.0, size=ref.shape)
            for k in range(2):
                b = harvest_bound_ic(pos, ref, charge, k, cfg)
                t = alloc.harvested(pos, cfg)[k]
                assert b <= t + 1e-12


def _true_rate_comp(cfg, Q, pos, uplink, k):
    """Device k's per-slot terms of `AllocationCoMP.rates`, before the 1/T."""
    return uplink * comp_rate_upper_bound(Q[k], pos, k, cfg)


class TestCompTrajRateBound:
    def test_exact_at_expansion(self):
        cfg = _cfg()
        rng = np.random.default_rng(11)
        pos = _random_positions(rng)
        Q = rng.uniform(0.0, 1e-4, size=(2, N))
        uplink = rng.uniform(0.0, 0.1, size=N)
        for k in range(2):
            b = comp_traj_rate_bound(pos, pos, Q, uplink, k, cfg)
            t = _true_rate_comp(cfg, Q, pos, uplink, k)
            assert np.all(np.abs(b - t) <= 1e-10 * (1.0 + np.abs(t)))

    def test_valid_on_random_perturbations(self):
        cfg = _cfg()
        rng = np.random.default_rng(12)
        ref = _random_positions(rng)
        Q = rng.uniform(0.0, 1e-4, size=(2, N))
        uplink = rng.uniform(0.0, 0.1, size=N)
        for _ in range(1000 // N):
            pos = ref + rng.uniform(-5.0, 5.0, size=ref.shape)
            for k in range(2):
                b = comp_traj_rate_bound(pos, ref, Q, uplink, k, cfg)
                t = _true_rate_comp(cfg, Q, pos, uplink, k)
                assert np.all(b <= t + 1e-12)


class TestCompHarvestBound:
    def _alloc(self, rng):
        beam = rng.uniform(0.0, 0.1, size=(2, N))
        return AllocationCoMP(beam, np.zeros(N), np.zeros((2, N)))

    def test_exact_at_expansion(self):
        cfg = _cfg()
        rng = np.random.default_rng(13)
        pos = _random_positions(rng)
        alloc = self._alloc(rng)
        for k in range(2):
            b = harvest_bound_comp(pos, pos, alloc.beam_time, k, cfg)
            t = alloc.harvested(pos, cfg)[k]
            assert b == pytest.approx(t, rel=1e-10)

    def test_valid_on_random_perturbations(self):
        cfg = _cfg()
        rng = np.random.default_rng(14)
        ref = _random_positions(rng)
        alloc = self._alloc(rng)
        for _ in range(1000):
            pos = ref + rng.uniform(-5.0, 5.0, size=ref.shape)
            for k in range(2):
                b = harvest_bound_comp(pos, ref, alloc.beam_time, k, cfg)
                t = alloc.harvested(pos, cfg)[k]
                assert b <= t + 1e-12


class TestSeparationBound:
    def test_exact_at_expansion(self):
        rng = np.random.default_rng(6)
        ref = _random_positions(rng)
        b = separation_bound(ref, ref)
        t = ((ref[0] - ref[1]) ** 2).sum(axis=-1)
        assert np.allclose(b, t, rtol=1e-12, atol=1e-12)

    def test_valid_everywhere(self):
        rng = np.random.default_rng(7)
        ref = _random_positions(rng)
        for _ in range(1000):
            pos = ref + rng.uniform(-5.0, 5.0, size=ref.shape)
            b = separation_bound(pos, ref)
            t = ((pos[0] - pos[1]) ** 2).sum(axis=-1)
            assert np.all(b <= t + 1e-12)


class TestSlackBounds:
    def test_amp_sum_sq(self):
        rng = np.random.default_rng(8)
        a_ref = rng.uniform(0.0, 0.1, size=(2, N))
        assert np.allclose(amp_sum_sq_bound(a_ref, a_ref),
                           a_ref.sum(axis=0) ** 2, rtol=1e-12)
        for _ in range(1000):
            a = rng.uniform(0.0, 0.2, size=(2, N))
            assert np.all(amp_sum_sq_bound(a, a_ref) <= a.sum(axis=0) ** 2 + 1e-12)

    def test_reciprocal(self):
        rng = np.random.default_rng(9)
        b_ref = rng.uniform(1e-3, 0.05, size=N)
        assert np.allclose(reciprocal_bound(b_ref, b_ref), 1.0 / b_ref, rtol=1e-12)
        for _ in range(1000):
            b = rng.uniform(1e-4, 0.1, size=N)
            assert np.all(reciprocal_bound(b, b_ref) <= 1.0 / b + 1e-12)

    def test_inv_square(self):
        rng = np.random.default_rng(10)
        a_ref = rng.uniform(1e-3, 0.05, size=N)
        assert np.allclose(inv_square_bound(a_ref, a_ref), 1.0 / a_ref**2, rtol=1e-12)
        for _ in range(1000):
            a = rng.uniform(1e-4, 0.1, size=N)
            assert np.all(inv_square_bound(a, a_ref) <= 1.0 / a**2 + 1e-12)
