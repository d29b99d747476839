import math
import pickle
import warnings
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from conftest import benchmark_config
from oracles import barrier_objective
from wpcn_traj import (AllocationIC, Problem, StartInfeasible, Status, direct_flight_trajectory,
                       kernel, sca_ic, solve_concave, solve_infinite_comp,
                       solve_infinite_ic, solve_p1, solve_p21)
from wpcn_traj.kernel import LogGroup, NegLogGroup
from wpcn_traj.model import dbm_to_watt
from wpcn_traj.sca_comp import (_traj_subproblem_comp, _warm_comp,
                                optimize_time_comp)
from wpcn_traj.sca_ic import (_traj_subproblem_ic, _warm_ic, initial_allocation,
                              optimize_power_ic, optimize_time_ic)


def _toy_epigraph(square_row=False):
    # maximize min(ln(1+x), ln(1+y)) s.t. x + y <= 2, x, y >= 0; with
    # square_row, also x^2 <= 4, never active, which puts the program on
    # the path of programs with square terms: floored start duals and the
    # exact quadratic step.  Either way the primal-dual iterations from the
    # start stop on their gap and their dual residual, in 9 systems.
    prob = Problem(3)
    for i in range(2):
        prob.add_concave_ge(idx=[2], lin=[-1.0], logs=(LogGroup(
            idx=[[i]], coeffs=[[1.0]], offsets=[1.0], weights=[1.0]),))
    prob.add_affine([0, 1], [1.0, 1.0], 2.0)
    prob.add_bounds([0, 1])
    if square_row:
        prob.add_quad(idx=[0], diag=[2.0], lin=[0.0], const=-4.0)
    return prob


class TestSolveConcave:
    def test_monotone_log_hits_upper_bound(self):
        prob = Problem(2)  # [x, R]
        prob.add_concave_ge(idx=[1], lin=[-1.0], logs=(LogGroup(
            idx=[[0]], coeffs=[[1.0]], offsets=[1.0], weights=[1.0]),))
        prob.add_affine([[0], [0]], [[1.0], [-1.0]], [3.0, 0.0])
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
        prob.add_affine([0], [1.0], 1.0)
        with pytest.raises(StartInfeasible):
            solve_concave(prob, np.array([2.0]))

    def test_nan_start_raises(self):
        # A NaN slack is not positive; it used to pass the start check, and
        # both primal-dual runs went to the cap from the NaN point.
        prob = Problem(2)  # [x, R]
        prob.add_concave_ge(idx=[1], lin=[-1.0], logs=(LogGroup(
            idx=[[0]], coeffs=[[1.0]], offsets=[1.0], weights=[1.0]),))
        prob.add_affine([[0], [0]], [[1.0], [-1.0]], [3.0, 0.0])
        with pytest.raises(StartInfeasible):
            solve_concave(prob, np.array([np.nan, 0.0]))

    def test_deterministic(self):
        prob1 = _toy_epigraph()
        prob2 = _toy_epigraph()
        a = solve_concave(prob1, np.array([0.5, 0.7, 0.1]))
        b = solve_concave(prob2, np.array([0.5, 0.7, 0.1]))
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations

    def test_weak_duality_and_contracts(self):
        prob = _toy_epigraph()
        out = solve_concave(prob, np.array([0.5, 0.7, 0.1]))
        assert prob.slacks(out.x).min() > 0.0
        assert 0.0 <= out.residuals["gap"] <= 1e-8 * (1 + abs(out.objective))
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
        prob.add_concave_ge(idx=np.arange(nv), lin=lin, diag_neg=diag, const=const,
                            logs=logs)
        prob.add_pair_step(np.array([0, 1, 2, 3]), const=-2.25)
        prob.add_quad(idx=[0, 1], diag=[2.0, 2.0], lin=[-1.0, 0.0], const=0.25 - 4.0)
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
        np.add.at(g, grp.idx, grp.slopes(grp.args(x))[0][:, None] * grp.coeffs)
        h = 1e-7
        for i in range(2):
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            num = (grp.value(xp) - grp.value(xm)) / (2 * h)
            assert g[i] == pytest.approx(num, rel=1e-5)

    def test_step_cap_reports_max_iter(self, monkeypatch):
        # Capped at one iteration, the primal-dual iterations lose their way
        # on the toy, and so does their restart: the solve returns its
        # start, which certifies no gap and no stationarity.  Neither run
        # factors a system, as each first iteration solves with the start
        # weight's.
        monkeypatch.setattr(kernel, "MAX_PD_ITER", 1)
        calls = _pd_calls(monkeypatch)
        start = np.array([0.5, 0.7, 0.1])
        out = solve_concave(_toy_epigraph(), start)
        assert calls == [True, True]
        assert out.status is Status.MAX_ITER and out.iterations == 0
        assert np.array_equal(out.x, start)
        assert out.residuals["gap"] == np.inf
        assert out.residuals["stationarity"] == np.inf

    def test_step_cap_ignores_far_rows_without_overflow(self):
        # The second row's slack is 1e10 while the Newton step moves it by
        # ~1e-300: its slack ratio would overflow, yet it can never bind.
        prob = Problem(1)
        prob.add_affine([[0], [0]], [[1.0], [1e-300]], [1.0, 1e10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = solve_concave(prob, np.array([0.0]))
        assert out.status is Status.OPTIMAL
        assert out.x[0] == pytest.approx(1.0, abs=1e-7)

    def test_lost_iterations_hand_over_to_the_restart(self, monkeypatch):
        # maximize min(3 u1 + u2, u1 + 2 u2) s.t. u1 + u2 <= 1, u >= 0: the
        # optimum is u = (1/3, 2/3), R = 5/3.  Its rows are all affine, and
        # the iterations from its start end it; so do they on the log toy,
        # at R = ln 2 in 9 systems.  On the power-step pass of
        # `_lost_power_pass` they lose their way, and the restart from the
        # start ends the solve OPTIMAL; the systems of both runs are counted.
        lost_prob, lost_start = _lost_power_pass(monkeypatch)
        prob = Problem(3)
        prob.add_affine([[0, 1, 2], [0, 1, 2]], [[-3.0, -1.0, 1.0], [-1.0, -2.0, 1.0]], [0.0, 0.0])
        prob.add_affine([0, 1], [1.0, 1.0], 1.0)
        prob.add_bounds([0, 1])
        runs = []
        predictor_corrector = kernel._predictor_corrector

        def recorded(lay, x, *args):
            out = predictor_corrector(lay, x, *args)
            runs.append((out[0] is x, out[3]))
            return out

        monkeypatch.setattr(kernel, "_predictor_corrector", recorded)
        out = solve_concave(prob, np.array([0.2, 0.2, 0.1]))
        assert [lost for lost, _ in runs] == [False]
        assert out.status is Status.OPTIMAL
        assert out.objective == pytest.approx(5.0 / 3.0, abs=1e-8)
        assert out.x[:2] == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-7)
        runs.clear()
        out = solve_concave(_toy_epigraph(), np.array([0.5, 0.7, 0.1]))
        assert runs == [(False, 9)]
        assert out.status is Status.OPTIMAL and out.iterations == 9
        assert out.objective == pytest.approx(np.log(2.0), abs=1e-8)
        runs.clear()
        out = solve_concave(lost_prob, lost_start)
        assert [lost for lost, _ in runs] == [True, False]
        assert out.status is Status.OPTIMAL
        assert out.iterations == sum(systems for _, systems in runs)
        assert out.residuals["stationarity"] <= kernel.DUAL_RESIDUAL_TOL

    def test_scalar_group_fields_apply_to_every_term(self):
        def solve(offsets, weights, bases, scales):
            prob = Problem(3)
            prob.add_concave_ge(idx=[2], lin=[-1.0], logs=(LogGroup(
                idx=[[0], [1]], coeffs=[[1.0], [2.0]], offsets=offsets, weights=weights),),
                neglogs=(NegLogGroup(idx=[[0], [1]], coeffs=[[1.0], [1.0]], offsets=offsets,
                                     weights=weights, bases=bases, scales=scales),))
            prob.add_affine([0, 1], [1.0, 1.0], 2.0)
            prob.add_bounds([0, 1])
            return solve_concave(prob, np.array([0.5, 0.5, -5.0]))

        scalar, per_term = solve(1.0, 0.5, 0.8, 0.3), solve([1.0] * 2, [0.5] * 2, [0.8] * 2,
                                                            [0.3] * 2)
        assert scalar.status is Status.OPTIMAL
        assert np.array_equal(scalar.x, per_term.x)

    def test_domain_violation_is_minus_inf(self):
        grp = LogGroup(idx=[[0]], coeffs=[[1.0]], offsets=[0.0], weights=[1.0])
        assert grp.value(np.array([-1.0])) == -np.inf


# ---------------------------------------------------------------------------
# Trial points
# ---------------------------------------------------------------------------

def test_one_slack_evaluation_per_trial_point(monkeypatch):
    # Slacks are evaluated at the start and once per primal-dual trial;
    # the restart and the final residuals take those of the point's own
    # evaluation.  On the log toy, with or without a square row, the
    # primal-dual iterations from the start end the solve; on the
    # power-step pass of `_lost_power_pass` they lose their way and restart
    # from the start.
    lost = _lost_power_pass(monkeypatch)
    points = []
    slacks = kernel._Layout.slacks

    def recorded(layout, x):
        points.append(x.copy())
        return slacks(layout, x)

    monkeypatch.setattr(kernel._Layout, "slacks", recorded)
    calls = _pd_calls(monkeypatch)
    toy_start = np.array([0.5, 0.7, 0.1])
    assert _toy_epigraph(square_row=True)._compiled().quad.any()
    assert not _toy_epigraph()._compiled().quad.any()
    for (prob, start), restarts in (((_toy_epigraph(), toy_start), False),
                                    ((_toy_epigraph(square_row=True), toy_start), False),
                                    (lost, True)):
        points.clear()
        calls.clear()
        out = solve_concave(prob, start)
        assert out.status is Status.OPTIMAL
        assert calls == ([True, False] if restarts else [False])
        # Every trial point is new, and each factored system takes at least
        # one trial step: a run stops before factoring.
        trials = len({p.tobytes() for p in points}) - 1
        assert np.array_equal(points[0], start) and np.array_equal(points[-1], out.x)
        assert trials >= out.iterations
        assert len(points) == trials + 1


def test_coordination_solve_converges_below_the_rounding_floor(monkeypatch):
    # The primal-dual iterations stop on their own gap, s^T lambda <= m /
    # t_f with t_f ~ 1e10, where the barrier function's rounding exceeds
    # its Newton decrement and an Armijo test on it would compare noise.
    # Every kernel call of the solve ends OPTIMAL, at few slack evaluations
    # per Newton system.
    outcomes, evaluations, in_kernel = [], [0], [False]
    kernel_call, slacks = sca_ic.solve_concave, kernel._Layout.slacks

    def recorded(problem, start):
        in_kernel[0] = True
        try:
            outcomes.append(kernel_call(problem, start))
        finally:
            in_kernel[0] = False
        return outcomes[-1]

    def counted(layout, x):
        evaluations[0] += in_kernel[0]
        return slacks(layout, x)

    monkeypatch.setattr(sca_ic, "solve_concave", recorded)
    monkeypatch.setattr(kernel._Layout, "slacks", counted)
    sca_ic.solve_p1(benchmark_config(15.0, 4.0, num_slots=6))
    assert outcomes
    assert [out.status for out in outcomes] == [Status.OPTIMAL] * len(outcomes)
    assert evaluations[0] <= 1.5 * sum(out.iterations for out in outcomes)


def test_curved_programs_end_optimal_at_stationarity(monkeypatch):
    # Every run on a program with log, square or pair rows stops on its gap
    # and on its dual residual, so each OPTIMAL outcome has the largest
    # residual entry within DUAL_RESIDUAL_TOL: on `scripts/grid_rates.py`'s
    # N = 6 coordination and N = 12 joint grids and its -80 dBm N = 6
    # block, where a residual neighborhood alone left 22 and 5 log-program
    # outcomes above it (worst 1.55e-5).
    stationarity = []

    def kept(prob, start):
        out = solve_concave(prob, start)
        lay = prob._compiled()
        if out.status is Status.OPTIMAL and (lay.stacks or lay.quad.any()):
            stationarity.append(out.residuals["stationarity"])
        return out

    monkeypatch.setattr(sca_ic, "solve_concave", kept)
    for solve, N, noise, distances in ((sca_ic.solve_p1, 6, -100.0, (5.0, 15.0, 30.0)),
                                       (solve_p21, 12, -100.0, (5.0, 15.0, 30.0)),
                                       (sca_ic.solve_p1, 6, -80.0, (15.0, 30.0))):
        for D in distances:
            for T in (4.0, 20.0, 50.0):
                solve(benchmark_config(D, T, num_slots=N, noise_power=dbm_to_watt(noise)))
    assert stationarity and max(stationarity) <= kernel.DUAL_RESIDUAL_TOL


# ---------------------------------------------------------------------------
# The Newton step against a dense reference
# ---------------------------------------------------------------------------

def _dense_reference(prob, x, rhs, weights=None, curvature=None):
    """Newton matrix at x assembled densely, (G w)^T (G w) plus every row's
    curvature times c, with the rows weighted by w = `weights` and c =
    `curvature` (both 1/s, the barrier Hessian, by default; sqrt(lambda/s)
    and lambda for a primal-dual system); the step solved by one
    Jacobi-scaled dense Cholesky factorization, shifted until it
    factorizes, and that step after one round of iterative refinement."""
    lay = prob._compiled()
    s = prob.slacks(x)
    weights = 1.0 / s if weights is None else weights
    curvature = 1.0 / s if curvature is None else curvature
    gv, _ = lay.derivatives(x, weights, curvature)
    G = np.zeros((lay.m, lay.n))
    G[lay.pat_row, lay.pat_col] = gv
    Gs = G * weights[:, None]
    H = Gs.T @ Gs
    np.add.at(H, (lay.sq_c, lay.sq_c), 2.0 * lay.sq_v * curvature[lay.sq_r])
    w = 2.0 * curvature[lay.pr_r]
    for a, b, sign in ((lay.pr_a, lay.pr_a, 1), (lay.pr_b, lay.pr_b, 1),
                       (lay.pr_a, lay.pr_b, -1), (lay.pr_b, lay.pr_a, -1)):
        np.add.at(H, (a, b), sign * w)
    for row, grp in lay.groups:
        c = grp.slopes(grp.args(x))[1] * curvature[row]
        np.add.at(H, (grp.idx[:, :, None], grp.idx[:, None, :]),
                  c[:, None, None] * grp.coeffs[:, :, None] * grp.coeffs[:, None, :])
    inv = 1.0 / np.sqrt(np.maximum(H.diagonal(), 1e-300))
    Hs = H * inv[:, None] * inv[None, :]
    damp = 0.0
    while True:
        try:
            cf = cho_factor(Hs + damp * np.eye(lay.n), lower=True)
            d = cho_solve(cf, rhs * inv) * inv
            return H, d, d + cho_solve(cf, (rhs - H @ d) * inv) * inv
        except np.linalg.LinAlgError:
            damp = 1e-12 if damp == 0.0 else 10.0 * damp


def _barrier_gradient(prob, x):
    """Gradient of -sum(ln s) at x, G^T (1/s) from the dense row gradients."""
    lay = prob._compiled()
    s = prob.slacks(x)
    G = np.zeros((lay.m, lay.n))
    G[lay.pat_row, lay.pat_col] = lay.derivatives(x, 1.0 / s, 1.0 / s)[0]
    return G.T @ (1.0 / s)


def _t_star(prob, x):
    """e^T H^-1 grad / e^T H^-1 e at x, with H the dense barrier Hessian and
    e the epigraph column."""
    e = np.zeros(prob.n)
    e[-1] = 1.0
    w = np.linalg.solve(_dense_reference(prob, x, e)[0], e)
    return float(w @ _barrier_gradient(prob, x) / w[-1])


def test_first_centering_runs_at_the_start_weight(monkeypatch):
    # The first stage's weight minimizes the start's Newton decrement,
    # ||grad - t e|| in the H^-1 norm (Boyd and Vandenberghe, Convex
    # Optimization, 11.3.1), clipped to [1, START_WEIGHT_MAX]: a warm-started
    # power step and the toy program, both with t* inside that range.  The
    # power step's Hessian has condition number ~1e21 at its start, where
    # plain, Jacobi-scaled and refined dense solves give t* = 15.07757 to
    # 15.07767; 1e-4 relative still tells t* from 1 and from the cap.  Every
    # program takes primal-dual iterations, whose duals start at the
    # central ones of that weight, lambda = 1/(t s), and so does the
    # restart of iterations that lose their way (those of
    # `_lost_power_pass`).
    lost_prob, lost_start = _lost_power_pass(monkeypatch)
    calls = []

    def keep(prob, start):
        calls.append((prob, start))
        return solve_concave(prob, start)

    monkeypatch.setattr(sca_ic, "solve_concave", keep)
    sca_ic.solve_p1(benchmark_config(15.0, 20.0, num_slots=6))
    monkeypatch.undo()
    weights = []
    predictor_corrector = kernel._predictor_corrector

    def recorded(lay, x, s, t0, *args):
        weights.append(t0)
        return predictor_corrector(lay, x, s, t0, *args)

    monkeypatch.setattr(kernel, "_predictor_corrector", recorded)
    start = np.array([0.5, 0.7, 0.1])
    # The start probe's time LP, then its power step from that LP's optimum.
    for (prob, x0), rel in ((calls[1], 1e-4), ((_toy_epigraph(), start), 1e-12),
                            ((_toy_epigraph(square_row=True), start), 1e-12)):
        t_star = _t_star(prob, x0)
        assert 1.0 < t_star < kernel.START_WEIGHT_MAX
        solve_concave(prob, x0)
        t, *restart = weights
        assert restart == [t] * len(restart)
        assert t == pytest.approx(np.clip(t_star, 1.0, kernel.START_WEIGHT_MAX), rel=rel)
        weights.clear()
    # The start weight's system solves at the start only: system 0, its own
    # solve with rhs e, then once in each run's first iteration.  The
    # power-step pass's first run loses its way; the restart opens with
    # pure centering, whose first solve is the barrier's Newton step at t
    # from the start: t rhs = t e - grad.
    at_start = [rhs for x, _, _, rhs, _ in _newton_systems(lost_prob, lost_start)
                if np.array_equal(x, lost_start)]
    t, t_restart = weights
    assert len(at_start) == 3 and t_restart == t
    e = np.zeros(lost_prob.n)
    e[-1] = 1.0
    assert at_start[0] == pytest.approx(e, rel=1e-12)
    assert t * at_start[2] == pytest.approx(
        t * e - _barrier_gradient(lost_prob, lost_start), rel=1e-12)


def _captured_subproblems(monkeypatch):
    """One subproblem of every kind, built from warm starts below (N=6) and
    above the crossover: both time LPs (the joint one from equal powers on a
    symmetric path, so its two rate rows coincide) and the coordination
    power step at N=80, both trajectory steps at N=40."""
    probs = []

    def keep(prob, start):
        probs.append((prob, start))
        return solve_concave(prob, start)

    for n_slots in (6, 40, 80):
        cfg = benchmark_config(device_distance=15.0, duration=20.0, num_slots=n_slots)
        traj = direct_flight_trajectory(cfg)
        a_ic = initial_allocation(cfg, traj, *_warm_ic(solve_infinite_ic(cfg, tau_grid=100)))
        a_comp = initial_allocation(cfg, traj, *_warm_comp(solve_infinite_comp(cfg, tau_grid=100)))
        if n_slots != 40:
            monkeypatch.setattr(sca_ic, "solve_concave", keep)
            monkeypatch.setattr(sca_ic, "MAX_INNER", 1)
            a_ic = optimize_time_ic(cfg, traj, a_ic.tx_power)
            optimize_time_comp(cfg, traj, a_comp.tx_power)
            optimize_power_ic(cfg, traj, a_ic)
            monkeypatch.undo()
        if n_slots != 80:
            probs.append(_traj_subproblem_ic(cfg, a_ic, traj.positions))
            probs.append(_traj_subproblem_comp(cfg, a_comp, traj.positions)[:2])
    return probs


def _newton_systems(prob, start):
    """Every Newton system of one solve, as (x, row weights, curvature
    weights, right-hand side, step).  The barrier weights the rows and
    their curvature by 1/s; the primal-dual iterations weight the rows by
    sqrt(lambda/s) and the curvature by lambda, and solve once or twice
    with each factorization; each solve is one entry."""
    lay = prob._compiled()
    seen, systems = [], []
    derivatives, factor = lay.derivatives, lay.factor

    def record_x(x, w, c):
        seen.append((x.copy(), c.copy()))
        return derivatives(x, w, c)

    def record_factor(gv, hv, w):
        solve, (x, c), w = factor(gv, hv, w), seen[-1], w.copy()

        def record_solve(rhs):
            d = solve(rhs)
            systems.append((x, w, c, rhs.copy(), d))
            return d
        return record_solve

    lay.derivatives, lay.factor = record_x, record_factor
    solve_concave(prob, start)
    return systems


def _coordination_trajectory_program():
    """The coordination trajectory program (log, square and pair rows, n =
    21) at the direct flight of D = 15 m, T = 20 s, N = 6, after one time
    LP, and its start."""
    cfg = benchmark_config(device_distance=15.0, duration=20.0, num_slots=6)
    traj = direct_flight_trajectory(cfg)
    alloc = initial_allocation(cfg, traj, *_warm_ic(solve_infinite_ic(cfg, tau_grid=100)))
    return _traj_subproblem_ic(cfg, optimize_time_ic(cfg, traj, alloc.tx_power), traj.positions)


def _pd_calls(monkeypatch):
    """Whether each `_predictor_corrector` call lost its way (returned its x
    argument), in call order."""
    calls = []
    predictor_corrector = kernel._predictor_corrector

    def recorded(lay, x, *args):
        out = predictor_corrector(lay, x, *args)
        calls.append(out[0] is x)
        return out

    monkeypatch.setattr(kernel, "_predictor_corrector", recorded)
    return calls


def test_lost_iterations_restart_from_the_start(monkeypatch):
    # Iterations that lose their way run once more from the caller's start:
    # the same x and slacks, the same start weight and its system, opening
    # with RESTART_CENTERING pure centering iterations.  Capped at one
    # iteration, both runs on the trajectory program lose their way, and
    # the one system each factored (a floor applies at this start) is
    # counted.
    prob, start = _coordination_trajectory_program()
    args = []
    predictor_corrector = kernel._predictor_corrector

    def recorded(*call):
        args.append(call)
        return predictor_corrector(*call)

    monkeypatch.setattr(kernel, "_predictor_corrector", recorded)
    full = solve_concave(prob, start)
    monkeypatch.setattr(kernel, "MAX_PD_ITER", 1)
    capped = solve_concave(prob, start)
    assert [call[-1] for call in args] == [0, 0, kernel.RESTART_CENTERING]
    first, restart = args[1:]
    assert all(a is b for a, b in zip(first[:-1], restart[:-1]))
    assert np.array_equal(first[1], start)
    assert full.status is Status.OPTIMAL and capped.status is Status.MAX_ITER
    assert np.array_equal(capped.x, start) and capped.iterations == 2


def _first_power_step(monkeypatch, cfg):
    """(cfg, trajectory, allocation) of the first coordination power step
    `solve_p1(cfg)` takes: the start probe's, after its time LP."""
    steps = []

    class Captured(Exception):
        pass

    def capture(cfg, traj, alloc):
        steps.append((cfg, traj, alloc))
        raise Captured

    monkeypatch.setattr(sca_ic, "optimize_power_ic", capture)
    with pytest.raises(Captured):
        sca_ic.solve_p1(cfg)
    monkeypatch.undo()
    return steps[0]


def _lost_power_pass(monkeypatch):
    """(problem, start) of the first pass of the first coordination power
    step at -80 dBm, D = 30 m, T = 20 s, N = 6, whose primal-dual iterations
    from the start lose their way."""
    cfg, traj, alloc = _first_power_step(monkeypatch, benchmark_config(
        30.0, 20.0, num_slots=6, noise_power=dbm_to_watt(-80.0)))
    passes = []

    def kept(prob, start):
        passes.append((prob, start))
        return solve_concave(prob, start)

    monkeypatch.setattr(sca_ic, "solve_concave", kept)
    monkeypatch.setattr(sca_ic, "MAX_INNER", 1)
    optimize_power_ic(cfg, traj, alloc)
    monkeypatch.undo()
    return passes[0]


def test_power_step_restart_ends_optimal(monkeypatch):
    # At -80 dBm, D = 30 m, T = 20 s, N = 6 the first pass of the first
    # power step loses its way from the start: a curved rate row's true
    # slack falls far below its linearization.  The restart from the start
    # ends it OPTIMAL at the plain barrier method's objective.  Capped at
    # one iteration, both runs of every pass lose their way: each returns
    # its start, certifying nothing, and the power step keeps its incumbent.
    cfg, traj, alloc = _first_power_step(monkeypatch, benchmark_config(
        30.0, 20.0, num_slots=6, noise_power=dbm_to_watt(-80.0)))
    solves = []

    def kept(prob, start):
        solves.append((prob, start, solve_concave(prob, start)))
        return solves[-1][2]

    monkeypatch.setattr(sca_ic, "solve_concave", kept)
    calls = _pd_calls(monkeypatch)
    with monkeypatch.context() as one_pass:
        one_pass.setattr(sca_ic, "MAX_INNER", 1)
        optimize_power_ic(cfg, traj, alloc)
    (prob, start, out), = solves
    assert calls == [True, False]
    assert out.status is Status.OPTIMAL
    assert out.objective == pytest.approx(barrier_objective(prob, start), rel=1e-9)
    monkeypatch.setattr(kernel, "MAX_PD_ITER", 1)
    solves.clear()
    calls.clear()
    Q, trace = optimize_power_ic(cfg, traj, alloc)
    assert solves and calls == [True, True] * len(solves)
    for prob, start, out in solves:
        assert out.status is Status.MAX_ITER and np.array_equal(out.x, start)
        assert out.residuals["gap"] == out.residuals["stationarity"] == np.inf
    assert np.array_equal(Q, alloc.tx_power)
    assert trace == [trace[0]] * len(trace)


def test_restart_ends_optimal_only_at_the_optimum(monkeypatch):
    # A restart keeps no residual neighborhood, so it stops only once its
    # dual residual is within DUAL_RESIDUAL_TOL as well, and its dual steps
    # are no longer than its primal ones.  On the one-slot power step of
    # `test_no_interference_uses_full_budget` the first run of the first
    # pass loses its way; with full dual steps and a stop on its gap alone,
    # the restart ended that pass OPTIMAL at R = 4.854711, stationarity
    # 1.4e5, 29% below the optimum 6.816230.  Every restarted solve here,
    # and that of `_lost_power_pass`, ends OPTIMAL within the tolerance at
    # the plain barrier method's objective.
    lost = _lost_power_pass(monkeypatch)
    cfg = benchmark_config(device_distance=1000.0, duration=1.0, num_slots=1,
                           uav_initial=[[-500, -2], [500, -2]],
                           uav_final=[[-500, 2], [500, 2]])
    calls = _pd_calls(monkeypatch)
    solves = []

    def kept(prob, start):
        first = len(calls)
        out = solve_concave(prob, start)
        solves.append((prob, start, out, calls[first:]))
        return out

    monkeypatch.setattr(sca_ic, "solve_concave", kept)
    optimize_power_ic(cfg, direct_flight_trajectory(cfg),
                      AllocationIC([0.5], [0.5], np.full((2, 1), 1e-7)))
    assert solves[0][3] == [True, False]
    kept(*lost)
    restarted = [solve for solve in solves if solve[3][0]]
    assert len(restarted) >= 2
    for prob, start, out, _ in restarted:
        assert out.status is Status.OPTIMAL
        assert out.residuals["stationarity"] <= kernel.DUAL_RESIDUAL_TOL
        assert out.objective == pytest.approx(barrier_objective(prob, start), rel=1e-9)


def test_square_and_pair_rows_start_at_floored_duals():
    # The start duals are lambda = 1/(t0 s), except on rows with square or
    # pair terms, where the slack is floored at DUAL_FLOOR times the median
    # slack.  The trajectory program's energy rows start at slacks near
    # 1e-10, so a floor applies, and the first iteration factors its own
    # system (system 1, after the start weight's) with lambda as the
    # curvature weights.
    prob, start = _coordination_trajectory_program()
    lay, s = prob._compiled(), prob.slacks(start)
    floor = kernel.DUAL_FLOOR * np.median(s)
    assert (lay.quad & (s < floor)).any() and (~lay.quad).any()
    x, w, lam, *_ = _newton_systems(prob, start)[1]
    assert np.array_equal(x, start)
    inv_t0 = lam[~lay.quad][0] * s[~lay.quad][0]
    assert lam == pytest.approx(np.where(lay.quad, np.maximum(s, floor), s) ** -1 * inv_t0,
                                rel=1e-12)
    assert w == pytest.approx(np.sqrt(lam / s), rel=1e-12)


def test_primal_dual_ending_certifies_its_last_iterate(monkeypatch):
    # A solve that the primal-dual iterations end returns their last
    # iterate, certified by its own (s, lambda): the gap s^T lambda, within
    # the barrier's last gap, and the largest entry of the dual residual
    # sum_i lambda_i grad g_i - e as stationarity.  Both the log toy and
    # the trajectory program take the iterations from their start.
    ends = []
    predictor_corrector = kernel._predictor_corrector

    def recorded(*args):
        ends.append(predictor_corrector(*args))
        return ends[-1]

    monkeypatch.setattr(kernel, "_predictor_corrector", recorded)
    for prob, start in ((_toy_epigraph(), np.array([0.5, 0.7, -1.0])),
                        _coordination_trajectory_program()):
        ends.clear()
        out = solve_concave(prob, start)
        (x, s, (lam, _), _), = ends
        assert out.status is Status.OPTIMAL and np.array_equal(out.x, x)
        assert np.array_equal(s, prob.slacks(x))
        lay = prob._compiled()
        G = np.zeros((lay.m, lay.n))
        G[lay.pat_row, lay.pat_col] = lay.derivatives(x, 1.0 / s, 1.0 / s)[0]
        r = G.T @ lam
        r[-1] -= 1.0
        res = out.residuals
        assert res["gap"] == float(s @ lam)
        assert 0.0 <= res["gap"] <= kernel.GAP_ABS + kernel.GAP_REL * abs(out.objective)
        assert prob.slacks(out.x).min() > 0.0
        assert res["stationarity"] == pytest.approx(
            np.abs(r).max(), rel=1e-9, abs=1e-12 * float((np.abs(G.T) @ lam).max()))


def test_quadratic_rows_take_the_exact_step(monkeypatch):
    # Along a step, the slack of a row with square or pair terms falls
    # below its linearization by a^2 q exactly, and the primal step takes
    # its fraction to the boundary from that root.  The joint trajectory
    # program has no log rows, so no trial point leaves the domain: the
    # slacks are evaluated at the start and once per iteration.  From the
    # linearized slacks (q = 0), trials overshoot and backtrack.
    cfg = benchmark_config(device_distance=15.0, duration=20.0, num_slots=12)
    traj = direct_flight_trajectory(cfg)
    alloc = initial_allocation(cfg, traj, *_warm_comp(solve_infinite_comp(cfg, tau_grid=100)))
    prob, start = _traj_subproblem_comp(cfg, optimize_time_comp(cfg, traj, alloc.tx_power),
                                        traj.positions)[:2]
    assert prob._compiled().quad.any() and not prob._compiled().groups
    evaluations = []
    slacks = kernel._Layout.slacks

    def counted(layout, x):
        s = slacks(layout, x)
        evaluations.append(s.min() > 0.0)
        return s

    monkeypatch.setattr(kernel._Layout, "slacks", counted)
    outcomes = []
    for linearized in (False, True):
        if linearized:
            monkeypatch.setattr(kernel._Layout, "curvature", lambda layout, d: np.zeros(layout.m))
        evaluations.clear()
        outcomes.append(solve_concave(prob, start))
        assert outcomes[-1].status is Status.OPTIMAL
        rejected = evaluations.count(False)
        assert (rejected > 0) if linearized else (
            rejected == 0 and len(evaluations) == outcomes[-1].iterations + 1)
    assert outcomes[1].objective == pytest.approx(outcomes[0].objective, rel=1e-9)


def test_newton_step_matches_dense_reference(monkeypatch):
    # Every kind of program takes primal-dual systems, whose weights are not
    # the inverse slacks, besides barrier systems: the time LPs (affine
    # rows), the power steps (log rows' curvature at lambda) and the
    # trajectory programs (square and pair rows' curvature at lambda), each
    # on both Newton paths (trajectory programs: n = 21 dense, n = 157
    # structured).
    sides, pd_sides = set(), set()
    for prob, start in _captured_subproblems(monkeypatch):
        lay = prob._compiled()
        sides.add(lay.structured)
        kind = "square" if lay.quad.any() else "log" if lay.groups else "affine"
        for i, (x, w, c, rhs, d) in enumerate(_newton_systems(prob, start)):
            if not np.array_equal(w, 1.0 / prob.slacks(x)):
                pd_sides.add((kind, lay.structured))
            H, d_ref, d_refined = _dense_reference(prob, x, rhs, w, c)
            r, r_ref = np.linalg.norm(H @ d - rhs), np.linalg.norm(H @ d_refined - rhs)
            assert r <= 10.0 * np.linalg.norm(H @ d_ref - rhs) + 1e-12 * np.linalg.norm(rhs), \
                (prob.n, i)
            # Decrements agree to 1e-8 relative, beyond what the two
            # residuals let any two solutions d, d' of this system differ
            # by: rhs.(d - d') = d'.(H d - rhs) - d.(H d' - rhs), so
            # |rhs.(d - d')| <= |d'| |r| + |d| |r'|.  The reference d' is
            # the refined dense step, since on ill-conditioned time-LP
            # systems the plain dense step is the less accurate one.
            dec, dec_ref = rhs @ d, rhs @ d_refined
            assert abs(dec - dec_ref) <= 1e-8 * abs(dec_ref) \
                + np.linalg.norm(d_refined) * r + np.linalg.norm(d) * r_ref, (prob.n, i)
    assert sides == {True, False}
    assert pd_sides == {(kind, structured) for kind in ("affine", "log", "square")
                        for structured in (False, True)}


# ---------------------------------------------------------------------------
# The stacked log-group evaluation against the per-group form
# ---------------------------------------------------------------------------

def _group(cls, rng, terms, *extra):
    """A random group of `cls` over x[0..5], with each field named in
    `extra` drawn per term."""
    return cls(idx=rng.integers(0, 6, size=(terms, 2)), coeffs=rng.uniform(0.2, 2.0, (terms, 2)),
               offsets=rng.uniform(0.5, 1.5, terms), weights=rng.uniform(0.1, 1.0, terms),
               **{name: rng.uniform(0.5, 2.0, terms) for name in extra})


def _mixed_group_program(with_groups=True):
    """Seven variables and the epigraph column.  Row 0 holds two log groups
    and a negated one, rows 1 and 2 one group each, with 3 and 12 terms (on
    both sides of numpy's 8-term pairwise-sum block) and shared variables;
    in group order the kinds run L L N N L, so two stacks hold two groups.
    Square, pair and affine rows come after them.  Only the first term of
    the 3-term negated group reads x[6]."""
    rng = np.random.default_rng(11)
    la, lb, lc = (_group(LogGroup, rng, terms) for terms in (3, 12, 12))
    na, nb = (_group(NegLogGroup, rng, terms, "bases", "scales") for terms in (12, 3))
    nb.idx[0] = 6                           # x[6] is in no other group
    groups = [((la, lb), (na,)), ((), (nb,)), ((lc,), ())] if with_groups else [((), ())] * 3
    prob = Problem(8)
    prob.add_concave_ge(idx=[7], lin=[-1.0], const=20.0, logs=groups[0][0], neglogs=groups[0][1])
    prob.add_concave_ge(idx=[7], lin=[-1.0], const=20.0, logs=groups[1][0], neglogs=groups[1][1])
    prob.add_concave_ge(idx=[0, 1, 7], lin=[0.5, 0.2, -1.0], diag_neg=[1.0, 0.5, 0.0],
                        const=20.0, logs=groups[2][0], neglogs=groups[2][1])
    prob.add_pair_step(np.array([0, 1, 2, 3]), const=-4.0)
    prob.add_quad(idx=[4, 5], diag=[2.0, 1.0], lin=[-1.0, 0.0], const=-3.0)
    prob.add_affine(np.arange(7), np.ones(7), 6.0)
    prob.add_bounds(np.arange(7))
    return prob


def _per_group_reference(prob, x):
    """Slacks with each group's value added to its row in group order, and
    row-gradient and Hessian values with each group evaluated on its own, as
    the kernel computed them before the groups were stacked."""
    lay = prob._compiled()
    s = _mixed_group_program(with_groups=False).slacks(x)
    for row, grp in lay.groups:
        s[row] += grp.value(x)
    inv_s = 1.0 / s
    diff = 2.0 * (x[lay.pr_a] - x[lay.pr_b])
    slopes = [grp.slopes(grp.offsets + np.einsum("jk,jk->j", grp.coeffs, x[grp.idx]))
              for _, grp in lay.groups]
    gv = np.bincount(lay.g_slot, np.concatenate(
        [lay.lin_v, 2.0 * lay.sq_v * x[lay.sq_c], diff, -diff]
        + [-(d1[:, None] * grp.coeffs).ravel()
           for (_, grp), (d1, _) in zip(lay.groups, slopes)]), minlength=lay.nnz)
    c = 2.0 * inv_s[lay.pr_r]
    hv = np.concatenate(
        [inv_s[lay.op_row] ** 2 * gv[lay.op_a] * gv[lay.op_b],
         2.0 * lay.sq_v * inv_s[lay.sq_r], c, c, -c, -c]
        + [((inv_s[row] * d2)[:, None]
            * (grp.coeffs[:, :, None] * grp.coeffs[:, None, :]).reshape(d2.size, -1)).ravel()
           for (row, grp), (_, d2) in zip(lay.groups, slopes)])
    return s, gv, hv


def test_stacked_groups_match_per_group_form():
    prob = _mixed_group_program()
    lay = prob._compiled()
    assert [len(spans) for _, _, spans, _ in lay.stacks] == [2, 2, 1]
    for x in np.random.default_rng(5).uniform(0.0, 0.8, (20, 8)):
        s, gv, hv = _per_group_reference(prob, x)
        assert (s > 0.0).all()
        assert np.array_equal(prob.slacks(x), s)
        gv_new, hv_new = lay.derivatives(x, 1.0 / s, 1.0 / s)
        assert np.array_equal(gv_new, gv)
        assert np.array_equal(hv_new, hv)


def test_group_off_its_domain_makes_only_its_row_infinite():
    prob = _mixed_group_program()
    lay = prob._compiled()
    x = np.full(8, 0.3)
    grp = lay.groups[3][1]                  # the 3-term negated group, row 1
    x[6] = -(grp.offsets[0] + 0.1) / grp.coeffs[0].sum()
    assert grp.args(x)[0] < 0.0
    assert all((g.args(x) > 0.0).all() for i, (_, g) in enumerate(lay.groups) if i != 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = prob.slacks(x)
    assert s[1] == -np.inf
    assert np.isfinite(np.delete(s, 1)).all()
    assert np.array_equal(np.delete(s, 1), np.delete(_per_group_reference(prob, x)[0], 1))


def _fsum_slacks(prob, x):
    """Every row's slack -g(x), the `math.fsum` of its stored terms: its
    constant, each c x[j], c x[j]^2 and (x[a] - x[b])^2, and each log term
    w ln(v) or -w ln(base + scale / v) at its argument v, itself a `math.fsum`;
    and the sum of the terms' magnitudes."""
    terms = [[-c] for c in np.concatenate(prob._const)]
    for rows, cols, coefs in prob._lin:
        for r, j, c in zip(rows, cols, coefs):
            terms[r].append(-c * x[j])
    for rows, cols, coefs in prob._sq:
        for r, j, c in zip(rows, cols, coefs):
            terms[r].append(-c * x[j] ** 2)
    for rows, a, b in prob._pair:
        for r, i, j in zip(rows, a, b):
            terms[r].append(-(x[i] - x[j]) ** 2)
    for row, grp in prob._groups:
        for j, w in enumerate(grp.weights):
            v = math.fsum([grp.offsets[j], *(grp.coeffs[j] * x[grp.idx[j]])])
            terms[row].append(-w * math.log(grp.bases[j] + grp.scales[j] / v)
                              if isinstance(grp, NegLogGroup) else w * math.log(v))
    return (np.array([math.fsum(t) for t in terms]),
            np.array([math.fsum(np.abs(t)) for t in terms]), np.array([len(t) for t in terms]))


def test_slacks_match_an_exact_sum_of_each_rows_terms():
    # One row of every kind, on the structured path: affine rows (one dense
    # over all 1,200 variables, as a budget row), bounds, a quadratic row, a
    # pair row, and a concave rate row as large as the N = 500 power step's,
    # with the epigraph column, square terms and 1,000-term log and negated
    # log groups.  Each slack is within the error bound of a sequential sum
    # of its terms, (terms + 8) eps times the sum of their magnitudes; the 8
    # covers the rounding of each term's own product or log argument.
    n, terms = 1201, 1000
    rng = np.random.default_rng(3)
    prob = Problem(n)
    prob.add_affine(np.arange(n - 1), rng.uniform(0.1, 2.0, n - 1), 300.0)
    prob.add_affine([[0, 1], [2, 3]], rng.uniform(-1.0, 1.0, (2, 2)), [1.0, 2.0])
    prob.add_bounds(np.arange(5))
    prob.add_quad(idx=[4, 5], diag=[2.0, 1.0], lin=[-1.0, 0.5], const=-3.0)
    prob.add_pair_step(np.array([6, 7, 8, 9]), const=-4.0)
    cols = rng.integers(0, n - 1, (terms, 2))
    prob.add_concave_ge(
        idx=[10, 11, n - 1], lin=[0.5, 0.2, -1.0], diag_neg=[1.0, 0.5, 0.0], const=5.0,
        logs=(LogGroup(idx=cols, coeffs=rng.uniform(0.2, 2.0, (terms, 2)),
                       offsets=rng.uniform(2.0, 3.0, terms), weights=rng.uniform(0.1, 1.0, terms)),),
        neglogs=(NegLogGroup(idx=cols[:, ::-1], coeffs=rng.uniform(0.2, 2.0, (terms, 2)),
                             offsets=rng.uniform(0.5, 1.5, terms),
                             weights=rng.uniform(0.1, 1.0, terms),
                             bases=rng.uniform(0.5, 2.0, terms),
                             scales=rng.uniform(0.5, 2.0, terms)),))
    lay = prob._compiled()
    assert lay.structured and lay.k == 2 and prob.num_rows == 11
    for x in rng.uniform(0.0, 1.0, (5, n)):
        exact, size, count = _fsum_slacks(prob, x)
        err = np.abs(prob.slacks(x) - exact)
        assert (err <= (count + 8) * np.finfo(float).eps * size).all()


def test_spd_solve_equals_cho_solve():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((9, 9))
    H = A @ A.T + np.diag(rng.uniform(0.1, 100.0, 9))
    g = rng.standard_normal(9)
    inv_d = 1.0 / np.sqrt(H.diagonal())
    ref = cho_solve(cho_factor(H * inv_d[:, None] * inv_d[None, :], lower=True), g * inv_d)
    assert np.array_equal(kernel._factor_spd(H)(g), ref * inv_d)


def test_spd_solve_damps_a_singular_matrix(monkeypatch):
    # Rank 3 of 6, one variable with no curvature at all: the undamped
    # factorization breaks down and a shifted one gives the step.
    rng = np.random.default_rng(4)
    B = rng.standard_normal((6, 3))
    B[2] = 0.0
    H = B @ B.T
    g = H @ rng.standard_normal(6)
    infos = []
    dpotrf = kernel.dpotrf

    def counted(*args, **kw):
        out = dpotrf(*args, **kw)
        infos.append(out[1])
        return out

    monkeypatch.setattr(kernel, "dpotrf", counted)
    d = kernel._factor_spd(H)(g)
    assert infos[0] > 0 and infos[-1] == 0
    assert np.isfinite(d).all()
    assert np.linalg.norm(H @ d - g) <= 1e-6 * np.linalg.norm(g)


def _band_storage(B, band):
    """Lower band storage of symmetric B, ab[r, j] = B[j + r, j], zero past
    the last row."""
    n = B.shape[0]
    ab = np.zeros((band + 1, n))
    for r in range(band + 1):
        ab[r, :n - r] = B.diagonal(-r)
    return ab


def _bandwidth_two(rng, n):
    """Random positive definite C C^T, C lower bidiagonal."""
    C = np.diag(rng.uniform(0.5, 2.0, n)) + np.diag(rng.standard_normal(n - 1), -1)
    return C @ C.T


def test_band_solve_matches_dense_solve():
    # Bandwidth 2 and four dense rows, two of them identical, as the joint
    # time LP's two rate rows are on a symmetric path.  Bandwidths 0 and
    # n - 1 are the two ends of the solve's loops over the diagonals.
    rng = np.random.default_rng(6)
    n = 200
    draws = [(2, _bandwidth_two),
             (0, lambda rng, n: np.diag(rng.uniform(0.5, 2.0, n))),
             (n - 1, lambda rng, n: np.cov(rng.standard_normal((n, 2 * n))) + np.eye(n))]
    for band, draw in draws:
        B = draw(rng, n)
        Z = rng.standard_normal((4, n))
        Z[3] = Z[1]
        g = rng.standard_normal(n)
        d = kernel._factor_band_updates(_band_storage(B, band), Z)(g)
        ref = np.linalg.solve(B + Z.T @ Z, g)
        assert np.linalg.norm(d - ref) <= 1e-10 * np.linalg.norm(ref)


def test_band_solve_damps_a_singular_band(monkeypatch):
    # One variable with no band curvature at all: the band part's own
    # factorization breaks down on it, and a shifted one gives the step,
    # which the dense rows and the refinement step make exact.
    rng = np.random.default_rng(8)
    n = 30
    B = _bandwidth_two(rng, n)
    B[5], B[:, 5] = 0.0, 0.0
    Z = rng.standard_normal((4, n))
    g = rng.standard_normal(n)
    infos = []
    dpbtrf = kernel.dpbtrf

    def counted(*args, **kw):
        out = dpbtrf(*args, **kw)
        infos.append(out[1])
        return out

    monkeypatch.setattr(kernel, "dpbtrf", counted)
    d = kernel._factor_band_updates(_band_storage(B, 2), Z)(g)
    assert infos[0] > 0 and infos[-1] == 0
    assert np.linalg.norm((B + Z.T @ Z) @ d - g) <= 1e-6 * np.linalg.norm(g)


def test_structured_program_without_dense_rows(monkeypatch):
    # With no dense row there is nothing to forward-solve for the updates,
    # and LAPACK's dtbtrs corrupts the heap when given no right-hand sides.
    dtbtrs = kernel.dtbtrs

    def checked(ab, b, **kw):
        assert b.size, "dtbtrs called without right-hand sides"
        return dtbtrs(ab, b, **kw)

    monkeypatch.setattr(kernel, "dtbtrs", checked)
    n = kernel.STRUCTURED_MIN_N
    prob = Problem(n)
    prob.add_affine(np.arange(n - 1)[:, None], np.ones((n - 1, 1)), np.ones(n - 1))
    prob.add_bounds(np.arange(n - 1))
    prob.add_affine([n - 1], [1.0], 1.0)
    lay = prob._compiled()
    assert lay.structured and lay.k == 0
    out = solve_concave(prob, np.r_[np.full(n - 1, 0.5), 0.0])
    assert out.status is Status.OPTIMAL
    assert out.objective == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# The shape cache
# ---------------------------------------------------------------------------

def _built_shapes(monkeypatch):
    """Start an empty shape cache; the list that each `_Shape` built is
    appended to."""
    monkeypatch.setattr(kernel, "_SHAPES", OrderedDict())
    built, shape = [], kernel._Shape

    def counted(*args):
        built.append(shape(*args))
        return built[-1]
    monkeypatch.setattr(kernel, "_Shape", counted)
    return built


def test_cached_shapes_leave_a_solve_bit_identical(monkeypatch):
    # The same solve with no cache, from an empty one, and after solves of
    # both modes and another config have filled it.
    cfg = benchmark_config(device_distance=5.0, duration=4.0, num_slots=6)

    def report():
        return pickle.dumps(replace(solve_p1(cfg), wall_seconds=0.0))

    uncached_builds = _built_shapes(monkeypatch)
    monkeypatch.setattr(kernel, "_SHAPES_KEPT", 0)
    uncached = report()
    monkeypatch.undo()
    built = _built_shapes(monkeypatch)
    cold = report()
    cold_builds = len(built)
    solve_p1(benchmark_config(device_distance=30.0, duration=20.0, num_slots=6))
    solve_p21(benchmark_config(device_distance=15.0, duration=20.0, num_slots=12))
    warm_start = len(built)
    warm = report()
    assert cold_builds < len(uncached_builds) and len(built) - warm_start < cold_builds
    assert uncached == cold == warm


def test_a_zero_coefficient_makes_its_own_shape(monkeypatch):
    built = _built_shapes(monkeypatch)

    def program(coef):
        prob = Problem(4)
        prob.add_affine([0, 1, 2, 3], [1.0, coef, 1.0, 1.0], 2.0)
        prob.add_bounds([0, 1, 2])
        return prob

    two, zero, three, zero_again = (program(c) for c in (2.0, 0.0, 3.0, 0.0))
    layouts = [p._compiled() for p in (two, zero, three, zero_again)]
    assert len(built) == 2
    assert layouts[2].g_slot is layouts[0].g_slot and layouts[3].g_slot is layouts[1].g_slot
    assert 1 in layouts[0].pat_col[layouts[0].pat_row == 0]
    assert 1 not in layouts[1].pat_col[layouts[1].pat_row == 0]
    x = np.array([0.1, 0.2, 0.3, 0.4])
    for prob, coef in ((two, 2.0), (zero, 0.0), (three, 3.0)):
        assert prob.slacks(x)[0] == pytest.approx(2.0 - 0.8 - coef * 0.2, abs=1e-15)


def test_structured_threshold_applies_to_a_cached_shape(monkeypatch):
    _built_shapes(monkeypatch)
    start, threshold = np.array([0.5, 0.7, 0.1]), kernel.STRUCTURED_MIN_N
    dense = solve_concave(_toy_epigraph(), start)
    assert not _toy_epigraph()._compiled().structured
    monkeypatch.setattr(kernel, "STRUCTURED_MIN_N", 0)
    prob = _toy_epigraph()
    assert prob._compiled().structured
    out = solve_concave(prob, start)
    assert out.status is Status.OPTIMAL
    assert out.objective == pytest.approx(dense.objective, abs=1e-8)
    monkeypatch.setattr(kernel, "STRUCTURED_MIN_N", threshold)
    assert not _toy_epigraph()._compiled().structured


def test_shape_cache_keeps_the_shapes_used_last(monkeypatch):
    built = _built_shapes(monkeypatch)
    kept = kernel._SHAPES_KEPT

    def shape(n):
        prob = Problem(n)
        prob.add_bounds(np.arange(n))
        return prob._compiled().g_slot

    first = shape(2)
    for n in range(3, 2 + kept):
        shape(n)
    assert len(kernel._SHAPES) == kept
    assert shape(2) is first          # used again, so kept past the next one
    shape(2 + kept)
    assert shape(2) is first and len(built) == kept + 1
    shape(3)                          # the least recently used, dropped
    assert len(built) == kept + 2
    for n in range(100, 100 + 3 * kept):
        shape(n)
        assert len(kernel._SHAPES) == kept
