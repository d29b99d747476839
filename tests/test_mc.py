import numpy as np
import pytest

from wpcn_traj import (SingularChannel, channel_gain, comp_coherent_power,
                       comp_noncoherent_power, comp_rate_upper_bound,
                       sample_zf_rate)
from conftest import benchmark_config, hover_positions
from oracles import sample_received_power


class TestZfRate:
    def test_orthogonal_channels_exact(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = np.array([[-2.5, 0.0], [2.5, 0.0]])
        own = cfg.ref_gain / cfg.altitude**2
        override = np.array([[own, 0.0], [0.0, own]])
        q = 1e-6
        est = sample_zf_rate(cfg, pos, [q, q], samples=200, seed=5,
                             gain_override=override)
        expected = np.log2(1.0 + q * own / cfg.noise_power)
        for k in range(2):
            # |e^{j theta}|^2 rounds at machine precision, so "zero variance"
            # means float-level jitter here.
            assert est[k].stderr <= 1e-12 * est[k].mean
            assert est[k].mean == pytest.approx(expected, rel=1e-12)

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

    def test_persistently_singular_raises(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = np.array([[-2.5, 0.0], [2.5, 0.0]])
        override = np.array([[0.0, 0.0], [1e-5, 1e-5]])  # dead device-1 channel
        with pytest.raises(SingularChannel):
            sample_zf_rate(cfg, pos, [1e-6, 1e-6], samples=16, seed=1,
                           gain_override=override)

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

    def test_matches_independent_adjugate_reconstruction(self):
        # Same seed, same draws: rebuild the estimate through the explicit
        # 2x2 adjugate instead of the library inverse.
        cfg = benchmark_config(device_distance=7.0)
        pos = np.array([[-2.0, 1.5], [3.5, -0.5]])
        q = np.array([2e-6, 5e-7])
        seed, n = 424242, 4000
        est = sample_zf_rate(cfg, pos, q, samples=n, seed=seed)
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(n, 2, 2))
        amp = np.sqrt(np.array(
            [[float(channel_gain(pos[m], cfg.device_positions[k], cfg))
              for m in range(2)] for k in range(2)]))
        M = amp.T[None] * np.exp(1j * theta.transpose(0, 2, 1))
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        rows2 = np.stack([np.abs(M[:, 0, 1]) ** 2 + np.abs(M[:, 1, 1]) ** 2,
                          np.abs(M[:, 0, 0]) ** 2 + np.abs(M[:, 1, 0]) ** 2])
        for k in range(2):
            snr = q[k] * np.abs(det) ** 2 / (cfg.noise_power * rows2[k])
            rate = np.log2(1.0 + snr)
            assert est[k].mean == pytest.approx(float(rate.mean()), rel=1e-10)


class TestReceivedPower:
    def test_coherent_is_deterministic_and_exact(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = hover_positions(-0.5, 0.5, 1)[:, 0]
        coh, _ = sample_received_power(cfg, pos, target=0, samples=4000, seed=21)
        assert coh.stderr == 0.0
        assert coh.mean == pytest.approx(float(comp_coherent_power(pos, 0, cfg)),
                                         rel=1e-12)

    def test_leakage_matches_expectation(self):
        cfg = benchmark_config(device_distance=5.0)
        pos = hover_positions(-0.5, 0.5, 1)[:, 0]
        _, leak = sample_received_power(cfg, pos, target=0, samples=100000, seed=22)
        expected = float(comp_noncoherent_power(pos, 1, cfg))
        assert abs(leak.mean - expected) <= 3.0 * leak.stderr
        assert leak.stderr > 0.0

    def test_leakage_varies_at_generic_geometry(self):
        cfg = benchmark_config(device_distance=9.0)
        pos = np.array([[-1.0, 2.0], [3.0, -1.0]])
        _, leak = sample_received_power(cfg, pos, target=1, samples=2000, seed=4)
        assert leak.stderr > 0.0
