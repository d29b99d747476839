"""Workload definitions: seeded op passes, op execution and output checks.

An op is one library call on inputs generated here from the run's seed.  A
run is a whole number of passes; one pass is the workload's design, every
point once, with every op kind of the workload.  Device distance D always
spans [5, 30] m.

Every workload uses a fixed design whose order the seed shuffles each pass.
Solver op cost is chaotic in (D, T): moving D by 0.1 m moves a coordination
solve at N=6 between 1.4 s and 4.5 s, so points drawn from the seed moved
the median op time by ~35% between seeds, and a steady median would need
~250 ops per run.  The solver grid holds the configurations the roadmap
names: D=15/T=4 (acceptance config), D=15/T=20 vs D=15/T=50 (the joint
mode's T=50 stall at N=40, see STALL.md) and D=30/T=4 (the coordination
outer-loop creep at N=40).  The bounds audit's 16 points (D, UAV positions,
power) are a fixed Halton sample, because seed-drawn geometries moved the
minimum sampled / closed-form rate ratio by 8% between seeds; its
Monte-Carlo sampling seeds come from the run's seed.

Problem sizes are scaled down from the roadmap's N=40 / N=200 so that one
pass takes about 10 s on one uncontended core; `WORKLOADS` names the layer
share each size keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

D_RANGE = (5.0, 30.0)
GRID = tuple((D, T, None) for D in (5.0, 15.0, 30.0) for T in (4.0, 20.0, 50.0))
MC_SAMPLES = 100_000
# Engines accept a step when the throughput drops by at most 1e-12 relative;
# one outer iteration chains three such steps.
TRACE_SLACK = 3e-12
BOUND_SLACK = 1e-9


def _halton(i: int, base: int) -> float:
    f, out = 1.0, 0.0
    while i:
        f /= base
        out += f * (i % base)
        i //= base
    return out


def _audit_design(n: int = 16) -> tuple:
    """(D, T=50, (UAV positions, power)) points of the verify-bound recipe:
    UAVs anywhere within half the device span plus the altitude, power
    log-uniform in [1e-7, 1e-4] W."""
    points = []
    for i in range(1, n + 1):
        u = np.array([_halton(i, b) for b in (2, 3, 5, 7, 11, 13)])
        D = round(float(D_RANGE[0] + (D_RANGE[1] - D_RANGE[0]) * u[0]), 3)
        span = D / 2.0 + 5.0
        pos = (-span + 2.0 * span * u[1:5]).reshape(2, 2).round(4).tolist()
        points.append((D, 50.0, (pos, float(10.0 ** (-7.0 + 3.0 * u[5])))))
    return tuple(points)


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in BENCHMARK.json and README.md."""
    name: str
    kinds: tuple            # op kinds run at every design point
    num_slots: int | None
    points: tuple           # (D, T, Monte-Carlo inputs or None), shuffled per pass


WORKLOADS = {w.name: w for w in (
    Workload("coord-traj", ("p1",), 6, GRID),
    Workload("joint-traj", ("p21",), 12, GRID),
    Workload("direct-lp", ("p1_direct", "p21_direct"), 80,
             tuple((D, 20.0, None) for D in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0))),
    Workload("bounds-audit", ("hover_ic", "hover_comp", "mc"), None, _audit_design()),
)}


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    D: float
    T: float
    N: int | None
    mc: dict | None = None   # positions (2x2), power (W), mc_seed

    def inputs(self) -> dict:
        out = {"kind": self.kind, "D": self.D, "T": self.T, "N": self.N}
        if self.mc is not None:
            out.update(self.mc)
        return out


def passes(workload: Workload, seed: int):
    """Endless, seed-determined sequence of passes (lists of ops)."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    index = 0
    while True:
        batch = []
        for i in rng.permutation(len(workload.points)):
            D, T, audit = workload.points[i]
            for kind in workload.kinds:
                mc = None
                if kind == "mc":
                    mc = {"positions": audit[0], "power": audit[1],
                          "mc_seed": int(rng.integers(2**62))}
                batch.append(Op(index, kind, D, T, workload.num_slots, mc))
                index += 1
        yield batch


class Library:
    """The solver package's modules, called through their attributes so that
    a tracer installed on them sees every call."""

    def __init__(self, pkg):
        from wpcn_traj import hover_comp, hover_ic, kernel, mc, model, sca_comp, sca_ic
        self.pkg = pkg
        self.hover_ic, self.hover_comp, self.kernel = hover_ic, hover_comp, kernel
        self.sca_ic, self.sca_comp, self.model, self.mc = sca_ic, sca_comp, model, mc

    @property
    def traced_modules(self):
        return (self.hover_ic, self.hover_comp, self.kernel, self.sca_ic,
                self.sca_comp, self.model, self.mc)

    def config(self, op: Op):
        kw = {"device_distance": op.D, "duration": op.T}
        if op.N is not None:
            kw["num_slots"] = op.N
        return self.pkg.ScenarioConfig(**kw)

    def call(self, op: Op, cfg):
        """Run one op; returns the library's result object."""
        if op.kind == "p1":
            return self.sca_ic.solve_p1(cfg)
        if op.kind == "p21":
            return self.sca_comp.solve_p21(cfg)
        if op.kind == "p1_direct":
            return self.sca_ic.solve_p1_direct(cfg)
        if op.kind == "p21_direct":
            return self.sca_comp.solve_p21_direct(cfg)
        if op.kind == "hover_ic":
            return self.hover_ic.solve_infinite_ic(cfg, tau_grid=1000)
        if op.kind == "hover_comp":
            return self.hover_comp.solve_infinite_comp(cfg, tau_grid=1000)
        if op.kind == "mc":
            p = op.mc["power"]
            return self.mc.sample_zf_rate(cfg, np.asarray(op.mc["positions"]), [p, p],
                                          MC_SAMPLES, seed=op.mc["mc_seed"])
        raise ValueError(f"unknown op kind {op.kind}")

    # -- output checks --------------------------------------------------------
    def check(self, op: Op, cfg, result) -> dict:
        """Rate, bound and the first failed check (None when all pass).

        Runs outside any op, so an installed tracer records none of it."""
        if isinstance(result, BaseException):
            return {"rate": None, "bound": None,
                    "failure": f"raised {type(result).__name__}: {result}"}
        if op.kind in ("hover_ic", "hover_comp"):
            rate = float(result.common_rate)
            failure = None
            if not math.isfinite(rate) or rate <= 0.0:
                failure = f"hover rate {rate!r} is not finite and positive"
            elif not 0.0 < result.charge_time < cfg.duration:
                failure = f"charge time {result.charge_time!r} outside (0, T)"
            return {"rate": rate, "bound": rate, "failure": failure}
        if op.kind == "mc":
            means = [e.mean for e in result]
            errs = [e.stderr for e in result]
            pos = np.asarray(op.mc["positions"])
            bound = min(float(self.model.comp_rate_upper_bound(op.mc["power"], pos, k, cfg))
                        for k in range(2))
            failure = None
            if not all(math.isfinite(v) for v in means + errs):
                failure = f"non-finite MC estimate: means {means}, stderrs {errs}"
            return {"rate": float(min(means)), "bound": bound, "failure": failure}
        hover = (self.hover_ic.solve_infinite_ic if op.kind.startswith("p1")
                 else self.hover_comp.solve_infinite_comp)
        bound = float(hover(cfg).common_rate)
        rate = float(result.common_rate)
        trace = np.asarray(result.objective_trace, dtype=float)
        failure = None
        if not math.isfinite(rate):
            failure = f"rate {rate!r} is not finite"
        elif not self.model.is_feasible(cfg, result.trajectory, result.allocation):
            failure = f"infeasible: {dict(result.residuals)}"
        elif np.any(np.diff(trace) < -TRACE_SLACK * (1.0 + np.abs(trace[:-1]))):
            failure = f"objective trace decreases: {trace.tolist()}"
        elif rate > bound * (1.0 + BOUND_SLACK):
            failure = f"rate {rate!r} exceeds the hover bound {bound!r}"
        return {"rate": rate, "bound": bound, "failure": failure}
