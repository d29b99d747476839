import numpy as np
import pytest

from wpcn_traj import (AllocationCoMP, channel_gain, comp_rate_upper_bound,
                       sample_zf_rate)
from conftest import benchmark_config, hover_positions
from oracles import reference_zf_rate, sample_received_power


class TestZfRate:
    def test_orthogonal_channels_exact(self):
        # Each UAV hovers over its own device, 1e4 m from the other one: the
        # cross gains are ~2.5e-7 of the direct ones, so zero forcing costs
        # nothing and every draw gives the interference-free rate.
        cfg = benchmark_config(device_distance=1e4)
        pos = cfg.device_positions.copy()
        own = cfg.ref_gain / cfg.altitude**2
        q = 1e-6
        est = sample_zf_rate(cfg, pos, [q, q], samples=200, seed=5)
        expected = np.log2(1.0 + q * own / cfg.noise_power)
        for k in range(2):
            assert est[k].stderr <= 1e-6 * est[k].mean
            assert est[k].mean == pytest.approx(expected, rel=1e-6)

    def test_rejects_wrong_shapes(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = np.array([[-2.5, 0.0], [2.5, 0.0]])
        with pytest.raises(ValueError):
            sample_zf_rate(cfg, np.vstack([pos, [[0.0, 1.0]]]), [1e-6, 1e-6],
                           samples=16, seed=1)
        with pytest.raises(ValueError):
            sample_zf_rate(cfg, pos, [1e-6, 1e-6, 1e-6], samples=16, seed=1)
        with pytest.raises(ValueError):
            sample_zf_rate(cfg, pos, 1e-6, samples=16, seed=1)

    def test_mean_below_closed_form_bound(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = hover_positions(-0.5, 0.5, 1)[:, 0]
        q = 1e-6
        est = sample_zf_rate(cfg, pos, [q, q], samples=100000, seed=9)
        for k in range(2):
            bound = float(comp_rate_upper_bound(q, pos, k, cfg))
            assert est[k].mean <= bound + 3.0 * est[k].stderr
        assert float(comp_rate_upper_bound(q, pos, 0, cfg)) == pytest.approx(8.32, abs=0.01)

    def test_seed_determinism(self):
        cfg = benchmark_config(device_distance=8.0)
        pos = np.array([[-3.0, 1.0], [2.0, -1.0]])
        a = sample_zf_rate(cfg, pos, [1e-6, 2e-6], samples=500, seed=77)
        b = sample_zf_rate(cfg, pos, [1e-6, 2e-6], samples=500, seed=77)
        assert a == b
        c = sample_zf_rate(cfg, pos, [1e-6, 2e-6], samples=500, seed=78)
        assert c[0].mean != a[0].mean

    def test_standard_error_scaling(self):
        cfg = benchmark_config(device_distance=8.0)
        pos = np.array([[-3.0, 0.0], [3.0, 0.0]])
        small = sample_zf_rate(cfg, pos, [1e-6, 1e-6], samples=20000, seed=3)
        large = sample_zf_rate(cfg, pos, [1e-6, 1e-6], samples=80000, seed=3)
        for k in range(2):
            ratio = small[k].stderr / large[k].stderr
            assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    def test_jensen_bound_holds_over_random_geometries(self):
        # The exact mean of the zero-forcing SNR under uniform phases is
        # Q (g11 g22 + g12 g21) / (sigma^2 (g_other,1 + g_other,2)), so by
        # Jensen the mean rate never exceeds log2(1 + that).
        cfg = benchmark_config(device_distance=10.0)
        rng = np.random.default_rng(123)
        for _ in range(10):
            pos = rng.uniform(-10, 10, size=(2, 2))
            q = 10.0 ** rng.uniform(-7, -4)
            est = sample_zf_rate(cfg, pos, [q, q], samples=20000,
                                 seed=int(rng.integers(2**63)))
            g = np.array([[float(channel_gain(pos[m], cfg.device_positions[k], cfg))
                           for m in range(2)] for k in range(2)])
            det2 = g[0, 0] * g[1, 1] + g[0, 1] * g[1, 0]
            for k in range(2):
                mean_snr = q * det2 / (cfg.noise_power * g[1 - k].sum())
                assert est[k].mean <= np.log2(1.0 + mean_snr) + 3.0 * est[k].stderr

    def test_mean_matches_exact_phase_average(self):
        # The rate is log2(alpha - beta cos phi) with phi uniform, and
        # int_0^2pi ln(a - b cos phi) dphi = 2 pi ln((a + sqrt(a^2 - b^2)) / 2)
        # for a >= |b| (Gradshteyn & Ryzhik 4.224), which gives the exact mean.
        # Geometries as in acceptance criterion 7 (D=15) and at D=8.
        rng = np.random.default_rng(2024)
        for D, span in ((15.0, 12.5), (8.0, 10.0)):
            cfg = benchmark_config(device_distance=D)
            for _ in range(20):
                pos = rng.uniform(-span, span, size=(2, 2))
                q = 10.0 ** rng.uniform(-7.0, -4.0, size=2)
                est = sample_zf_rate(cfg, pos, q, samples=20000,
                                     seed=int(rng.integers(2**63)))
                g = np.array([[float(channel_gain(pos[m], cfg.device_positions[k], cfg))
                               for m in range(2)] for k in range(2)])
                direct, cross = g[0, 0] * g[1, 1], g[0, 1] * g[1, 0]
                for k in range(2):
                    c = q[k] / (cfg.noise_power * g[1 - k].sum())
                    alpha = 1.0 + c * (direct + cross)
                    beta = 2.0 * c * np.sqrt(direct * cross)
                    exact = np.log2((alpha + np.sqrt((alpha - beta) * (alpha + beta))) / 2.0)
                    assert abs(est[k].mean - exact) <= 4.0 * est[k].stderr

    def test_matches_library_inverse_of_the_same_draws(self):
        # Same seed, same draws: rebuild the estimate by inverting each
        # channel matrix with the library inverse instead of the closed-form
        # determinant.
        cfg = benchmark_config(device_distance=7.0)
        pos = np.array([[-2.0, 1.5], [3.5, -0.5]])
        q = np.array([2e-6, 5e-7])
        seed, n = 424242, 4000
        est = sample_zf_rate(cfg, pos, q, samples=n, seed=seed)
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(n, 2, 2))  # (s, device, uav)
        amp = np.sqrt(np.array(
            [[float(channel_gain(pos[m], cfg.device_positions[k], cfg))
              for m in range(2)] for k in range(2)]))
        # Channel matrix rows = UAVs, columns = devices.
        M = amp.T[None] * np.exp(1j * theta.transpose(0, 2, 1))
        inv_row_norm2 = 1.0 / (np.abs(np.linalg.inv(M)) ** 2).sum(axis=2)
        for k in range(2):
            rate = np.log2(1.0 + q[k] * inv_row_norm2[:, k] / cfg.noise_power)
            assert est[k].mean == pytest.approx(float(rate.mean()), rel=1e-10)

    @pytest.mark.parametrize("pos, q, samples, seed", [
        ([[-2.0, 1.5], [3.5, -0.5]], [2e-6, 5e-7], 4000, 424242),
        ([[-2.0, 1.5], [3.5, -0.5]], [2e-6, 5e-7], 4000, 7),
        ([[-6.0, 3.0], [9.0, -4.0]], [1e-6, 1e-6], 100000, 2**61 + 5),
        ([[-3.5, 0.0], [3.5, 0.0]], [1e-6, 1e-6], 2048, 11),    # symmetric geometry
        ([[-1.0, -2.0], [4.0, 2.5]], [3e-7, 8e-6], 1001, 99),    # odd sample count
        ([[-1.0, -2.0], [4.0, 2.5]], [3e-7, 8e-6], 1, 12),       # zero-stderr branch
    ])
    def test_equals_reference_sampler(self, pos, q, samples, seed):
        cfg = benchmark_config(device_distance=7.0)
        est = sample_zf_rate(cfg, np.array(pos), q, samples=samples, seed=seed)
        ref = reference_zf_rate(cfg, np.array(pos), q, samples=samples, seed=seed)
        assert est == ref and repr(est) == repr(ref)
        if samples == 1:
            assert all(e.stderr == 0.0 for e in est)


class TestReceivedPower:
    def test_coherent_is_deterministic_and_exact(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = hover_positions(-0.5, 0.5, 1)[:, 0]
        coh, _ = sample_received_power(cfg, pos, target=0, samples=4000, seed=21)
        assert coh.stderr == 0.0
        expected = float(AllocationCoMP.charging_power(pos, cfg)[0, 0])
        assert coh.mean == pytest.approx(expected, rel=1e-12)

    def test_leakage_matches_expectation(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = hover_positions(-0.5, 0.5, 1)[:, 0]
        _, leak = sample_received_power(cfg, pos, target=0, samples=100000, seed=22)
        expected = float(AllocationCoMP.charging_power(pos, cfg)[1, 0])
        assert abs(leak.mean - expected) <= 3.0 * leak.stderr
        assert leak.stderr > 0.0

    def test_leakage_varies_at_generic_geometry(self):
        cfg = benchmark_config(device_distance=9.0)
        pos = np.array([[-1.0, 2.0], [3.0, -1.0]])
        _, leak = sample_received_power(cfg, pos, target=1, samples=2000, seed=4)
        assert leak.stderr > 0.0
