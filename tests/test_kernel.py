import warnings

import numpy as np
import pytest

from wpcn_traj import Problem, StartInfeasible, Status, kernel, solve_concave
from wpcn_traj.kernel import LogGroup, NegLogGroup


def _toy_epigraph(weighted=False):
    # maximize min(ln(1+x), ln(1+y)) s.t. x + y <= 2, x, y >= 0
    prob = Problem(3)
    for i in range(2):
        lin = np.zeros(3)
        lin[2] = -1.0
        prob.add_concave_ge(lin=lin, logs=(LogGroup(
            idx=[[i]], coeffs=[[1.0]], offsets=[1.0], weights=[1.0]),))
    prob.add_affine([1.0, 1.0, 0.0], 2.0)
    prob.add_affine([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], [0.0, 0.0])
    return prob


class TestSolveConcave:
    def test_monotone_log_hits_upper_bound(self):
        prob = Problem(2)  # [x, R]
        prob.add_concave_ge(lin=np.array([0.0, -1.0]), logs=(LogGroup(
            idx=[[0]], coeffs=[[1.0]], offsets=[1.0], weights=[1.0]),))
        prob.add_affine([[1.0, 0.0], [-1.0, 0.0]], [3.0, 0.0])
        out = solve_concave(prob, np.array([1.0, 0.1]))
        assert out.status is Status.OPTIMAL
        assert out.x[0] == pytest.approx(3.0, abs=1e-6)
        assert out.objective == pytest.approx(np.log(4.0), abs=1e-7)

    def test_symmetric_max_min(self):
        out = solve_concave(_toy_epigraph(), np.array([0.5, 0.7, 0.1]))
        assert out.x[0] == pytest.approx(1.0, abs=1e-6)
        assert out.x[1] == pytest.approx(1.0, abs=1e-6)
        assert out.objective == pytest.approx(np.log(2.0), abs=1e-8)

    def test_start_infeasible_raises(self):
        prob = Problem(1)
        prob.add_affine([1.0], 1.0)
        with pytest.raises(StartInfeasible):
            solve_concave(prob, np.array([2.0]))

    def test_deterministic(self):
        prob1 = _toy_epigraph()
        prob2 = _toy_epigraph()
        a = solve_concave(prob1, np.array([0.5, 0.7, 0.1]))
        b = solve_concave(prob2, np.array([0.5, 0.7, 0.1]))
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations

    def test_weak_duality_and_contracts(self):
        out = solve_concave(_toy_epigraph(), np.array([0.5, 0.7, 0.1]))
        assert out.objective <= out.residuals["dual_bound"] + 1e-12
        assert out.residuals["feasibility"] <= 1e-8
        assert out.residuals["gap"] <= 1e-8 * (1 + abs(out.objective))
        assert out.residuals["stationarity"] <= 1e-6 * (1 + 1.0)

    def test_trajectory_surrogate_instance_vs_grid(self):
        # Two-slot, one-UAV reduction: quadratic pull toward two anchor points,
        # a log-of-affine reward, a separation-style pair constraint and a
        # radius cap.  The instance is symmetric in y, so the oracle sweeps the
        # x coordinates on a fine grid with y = 0.
        nv = 5  # [x1, y1, x2, y2, R]
        prob = Problem(nv)
        diag = np.array([0.8, 0.8, 1.2, 1.2, 0.0])
        lin = np.array([0.8, 0.0, -1.2, 0.0, -1.0])  # from expanding the squares
        const = -0.4 - 0.6
        logs = (LogGroup(idx=[[0, 2]], coeffs=[[2.0, -1.0]], offsets=[3.0],
                         weights=[1.2]),)
        prob.add_concave_ge(const=const, lin=lin, diag_neg=diag, logs=logs)
        prob.add_pair_step(np.array([0, 1, 2, 3]), const=-2.25)
        d = np.zeros(nv)
        d[:2] = 2.0
        l2 = np.zeros(nv)
        l2[0] = -1.0
        prob.add_quad(diag=d, lin=l2, const=0.25 - 4.0)
        out = solve_concave(prob, np.array([0.5, 0.05, -0.5, 0.05, -5.0]))

        xs = np.arange(-1.7, 2.6, 1e-3)
        X1, X2 = np.meshgrid(xs, xs, indexing="ij")
        arg = 3.0 + 2.0 * X1 - X2
        f = np.where(arg > 0,
                     -0.4 * (X1 - 1.0) ** 2 - 0.6 * (X2 + 1.0) ** 2
                     + 1.2 * np.log(np.maximum(arg, 1e-300)), -np.inf)
        feas = ((X1 - X2) ** 2 <= 2.25) & ((X1 - 0.5) ** 2 <= 4.0)
        oracle = np.where(feas, f, -np.inf).max()
        assert out.objective == pytest.approx(oracle, abs=1e-4)
        assert abs(out.x[1]) < 1e-5 and abs(out.x[3]) < 1e-5

    def test_neglog_group_matches_reference(self):
        # -w ln(base + scale / v): value, gradient and curvature sanity.
        grp = NegLogGroup(idx=[[0, 1]], coeffs=[[1.0, 2.0]], offsets=[0.5],
                          weights=[0.7], bases=[0.3], scales=[1.5])
        x = np.array([0.4, 0.3])
        v = 0.5 + 0.4 + 0.6
        assert grp.value(x) == pytest.approx(-0.7 * np.log(0.3 + 1.5 / v), rel=1e-12)
        g = np.zeros(2)
        grp.add_grad(x, g)
        h = 1e-7
        for i in range(2):
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            num = (grp.value(xp) - grp.value(xm)) / (2 * h)
            assert g[i] == pytest.approx(num, rel=1e-5)

    def test_step_cap_reports_max_iter(self, monkeypatch):
        monkeypatch.setattr(kernel, "MAX_STAGE_STEPS", 1)
        out = solve_concave(_toy_epigraph(), np.array([0.5, 0.7, 0.1]))
        assert out.status is Status.MAX_ITER
        # An uncentered iterate certifies no gap and no dual bound.
        assert out.residuals["gap"] == np.inf
        assert out.residuals["dual_bound"] == np.inf

    def test_step_cap_ignores_far_rows_without_overflow(self):
        # The second row's slack is 1e10 while the Newton step moves it by
        # ~1e-300: its slack ratio would overflow, yet it can never bind.
        prob = Problem(1)
        prob.add_affine([[1.0], [1e-300]], [1.0, 1e10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = solve_concave(prob, np.array([0.0]))
        assert out.status is Status.OPTIMAL
        assert out.x[0] == pytest.approx(1.0, abs=1e-7)

    def test_domain_violation_is_minus_inf(self):
        grp = LogGroup(idx=[[0]], coeffs=[[1.0]], offsets=[0.0], weights=[1.0])
        assert grp.value(np.array([-1.0])) == -np.inf
