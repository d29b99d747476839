#!/usr/bin/env python3
"""Time the finite-horizon solvers at the roadmap's fixed configs.

For each config it records the wall time, the common rate, whether the
solution passes `is_feasible`, whether its objective trace is monotone (by
`grid_rates.py`'s rule) and, per kind of subproblem (time LP, power step,
trajectory step), the kernel calls, Newton steps, busy time,
milliseconds per Newton step, slack evaluations per Newton step, structured
Newton systems with milliseconds and minor page faults per system, kernel
statuses and the largest `stationarity` (dual residual entry) of its
OPTIMAL calls; and the calls and busy time of the hovering-solution search the
starts are built from.  The hover search is timed by wrapping
`sca_ic.solve_infinite_ic` and `sca_comp.solve_infinite_comp`, the names
through which the engines call it.  The kernel calls are counted by wrapping
`sca_ic.solve_concave`, the name through which both engines call the kernel,
and a call's kind is named after the function that made it (`KINDS`); a
call from a function `KINDS` does not list stops the run, naming it, so a
renamed or moved caller cannot file its counts under a wrong kind.  Slack
evaluations are counted by wrapping `kernel._Layout.slacks`: one per
primal-dual trial and one per call (the start check).  Runs of primal-dual
iterations are counted by wrapping `kernel._predictor_corrector`: a kernel
call's first run counts in `pd_calls`, and a second one, the restart from
the start after the first lost its way, in `pd_restarts`.  A run that
loses its way returns its `x` argument unchanged, and the Newton systems
such runs factored are `pd_lost_systems`.  Structured Newton systems are
counted and timed by wrapping `kernel._factor_band_updates`, which
programs of at least `kernel.STRUCTURED_MIN_N` variables call once per
factored Newton system, and the solve function it returns: a system's
time and faults are its factorization's and those of every solve with it.
A primal-dual iteration solves twice with its system, once when it takes
pure centering.  The start weight's system also serves the first iteration
of each run, unless the start duals of square or pair rows are floored.
The configs (D = 15 m) are:

- coordination (`solve_p1`) and joint (`solve_p21`) at N=40, T=4 s;
- both direct-flight solvers at N=80, T=20 s;
- coordination and joint at N=100, T=10 s;
- coordination and joint at N=500, T=50 s (the paper's 0.1 s slots).

Results are merged into the `--out` file under `--label`, so one file
holds a before/after pair measured on the same host:

    PYTHONPATH=<checkout>/src python3 scripts/bench_configs.py --label parent --out B.json
    PYTHONPATH=src python3 scripts/bench_configs.py --label change --out B.json

`--only NAME` (repeatable) runs just the named configs and merges them
into that label's earlier results:

    PYTHONPATH=src python3 scripts/bench_configs.py --label change --out B.json \
        --only "coordination N=500 T=50"

Each run also records the cost of `import wpcn_traj` under `import`: the
median wall time of the import over 9 fresh interpreters (the import
alone, timed inside each; all nine times are kept), and the sorted public
`scipy.*` subpackages it loads.

BLAS is pinned to one thread before numpy loads (a value set in the
environment wins); the thread count in effect is recorded with the results.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import wpcn_traj  # noqa: E402
from grid_rates import TRACE_SLACK  # noqa: E402
from wpcn_traj import ScenarioConfig, is_feasible, kernel, sca_comp, sca_ic  # noqa: E402

CONFIGS = (
    ("coordination N=40 T=4", "solve_p1", 40, 4.0),
    ("joint N=40 T=4", "solve_p21", 40, 4.0),
    ("coordination direct N=80 T=20", "solve_p1_direct", 80, 20.0),
    ("joint direct N=80 T=20", "solve_p21_direct", 80, 20.0),
    ("coordination N=100 T=10", "solve_p1", 100, 10.0),
    ("joint N=100 T=10", "solve_p21", 100, 10.0),
    ("coordination N=500 T=50", "solve_p1", 500, 50.0),
    ("joint N=500 T=50", "solve_p21", 500, 50.0),
)

# Function that calls the kernel -> subproblem kind.
KINDS = {"_time_lp": "time_lp", "optimize_power_ic": "power_step",
         "_refine_trajectory": "trajectory_step"}


def blas_threads() -> dict:
    """Thread count reported by every OpenBLAS loaded into this process."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {"unknown": None}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out[Path(path).name] = int(getter())
                break
    return out


def source_digest() -> str:
    """Digest of the imported package's sources, naming the code measured."""
    h = hashlib.sha256()
    src = Path(wpcn_traj.__file__).resolve().parent
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def import_cost(runs: int = 9) -> dict:
    """Median wall time of `import wpcn_traj` over `runs` fresh interpreters,
    importing the package measured here, and the public scipy subpackages
    that the import loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(Path(wpcn_traj.__file__).resolve().parents[1]), env.get("PYTHONPATH"))))
    code = ("import json, sys, time; t0 = time.perf_counter(); import wpcn_traj; "
            "t = time.perf_counter() - t0; print(json.dumps([t, sorted({'.'.join(m.split('.')[:2]) "
            "for m in sys.modules if m.startswith('scipy.') and m.split('.')[1][0] != '_'})]))")
    out = [json.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                     capture_output=True, text=True).stdout)
           for _ in range(runs)]
    return {"runs": runs, "median_s": round(statistics.median(t for t, _ in out), 4),
            "times_s": sorted(round(t, 4) for t, _ in out), "scipy_subpackages": out[-1][1]}


def run_config(solver_name: str, N: int, T: float) -> dict:
    stats = defaultdict(lambda: {"calls": 0, "newton_steps": 0, "busy_s": 0.0, "slacks": 0,
                                 "band_solves": 0, "band_s": 0.0, "band_minflt": 0,
                                 "pd_calls": 0, "pd_restarts": 0, "pd_lost_systems": 0,
                                 "max_stationarity": None, "statuses": defaultdict(int)})
    kernel_call, slacks_call = sca_ic.solve_concave, kernel._Layout.slacks
    pd_call = kernel._predictor_corrector
    band_call = kernel._factor_band_updates
    hover_calls = {(sca_ic, "solve_infinite_ic"): sca_ic.solve_infinite_ic,
                   (sca_comp, "solve_infinite_comp"): sca_comp.solve_infinite_comp}
    hover = {"calls": 0, "busy_s": 0.0}
    current = []

    def counted(problem, start):
        caller = sys._getframe(1).f_code.co_name
        if caller not in KINDS:
            raise RuntimeError(f"kernel called from {caller}, which KINDS does not list: "
                               "add it there so its counts are filed under a kind")
        kind = KINDS[caller]
        current.append([kind, 0])    # the call's kind and its primal-dual runs
        t0 = time.perf_counter()
        try:
            out = kernel_call(problem, start)
        finally:
            current.pop()
        rec = stats[kind]
        rec["busy_s"] += time.perf_counter() - t0
        rec["calls"] += 1
        rec["newton_steps"] += int(out.iterations)
        rec["statuses"][out.status.value] += 1
        if out.status is kernel.Status.OPTIMAL:
            rec["max_stationarity"] = max(rec["max_stationarity"] or 0.0,
                                          out.residuals["stationarity"])
        return out

    def counted_pd(lay, x, *args):
        out = pd_call(lay, x, *args)
        if current:
            rec = stats[current[-1][0]]
            rec["pd_restarts" if current[-1][1] else "pd_calls"] += 1
            rec["pd_lost_systems"] += out[3] if out[0] is x else 0
            current[-1][1] += 1
        return out

    def counted_slacks(layout, x):
        if current:
            stats[current[-1][0]]["slacks"] += 1
        return slacks_call(layout, x)

    def timed(call, systems):
        def run(*args):
            flt0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
            try:
                return call(*args)
            finally:
                if current:
                    rec = stats[current[-1][0]]
                    rec["band_solves"] += systems
                    rec["band_s"] += time.perf_counter() - t0
                    rec["band_minflt"] += \
                        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
        return run

    def timed_band(*args):
        return timed(timed(band_call, 1)(*args), 0)

    def timed_hover(call):
        def timed(*args, **kw):
            t0 = time.perf_counter()
            try:
                return call(*args, **kw)
            finally:
                hover["calls"] += 1
                hover["busy_s"] += time.perf_counter() - t0
        return timed

    cfg = ScenarioConfig(device_distance=15.0, duration=T, num_slots=N)
    sca_ic.solve_concave, kernel._Layout.slacks = counted, counted_slacks
    kernel._factor_band_updates, kernel._predictor_corrector = timed_band, counted_pd
    for (module, name), call in hover_calls.items():
        setattr(module, name, timed_hover(call))
    try:
        t0 = time.perf_counter()
        rep = getattr(wpcn_traj, solver_name)(cfg)
        wall = time.perf_counter() - t0
    finally:
        sca_ic.solve_concave, kernel._Layout.slacks = kernel_call, slacks_call
        kernel._factor_band_updates, kernel._predictor_corrector = band_call, pd_call
        for (module, name), call in hover_calls.items():
            setattr(module, name, call)
    kinds = {}
    for kind, rec in sorted(stats.items()):
        steps = rec["newton_steps"]
        kinds[kind] = {"calls": rec["calls"], "newton_steps": steps,
                       "busy_s": round(rec["busy_s"], 4),
                       "ms_per_step": round(1e3 * rec["busy_s"] / steps, 4) if steps else None,
                       "slacks_per_step": round(rec["slacks"] / steps, 3) if steps else None,
                       "band_solves": rec["band_solves"],
                       "ms_per_band_solve": (round(1e3 * rec["band_s"] / rec["band_solves"], 4)
                                             if rec["band_solves"] else None),
                       "minflt_per_band_solve": (round(rec["band_minflt"] / rec["band_solves"], 1)
                                                 if rec["band_solves"] else None),
                       "pd_calls": rec["pd_calls"], "pd_restarts": rec["pd_restarts"],
                       "pd_lost_systems": rec["pd_lost_systems"],
                       "max_stationarity": rec["max_stationarity"],
                       "statuses": dict(rec["statuses"])}
    trace = np.asarray(rep.objective_trace, dtype=float)
    return {"solver": solver_name, "D": 15.0, "N": N, "T": T,
            "wall_s": round(wall, 3), "common_rate": repr(float(rep.common_rate)),
            "is_feasible": bool(is_feasible(cfg, rep.trajectory, rep.allocation)),
            "monotone": bool(np.all(np.diff(trace) >= -TRACE_SLACK * (1.0 + np.abs(trace[:-1])))),
            "outer_iterations": int(rep.outer_iterations),
            "hover_calls": hover["calls"], "hover_s": round(hover["busy_s"], 4),
            "newton_steps": sum(k["newton_steps"] for k in kinds.values()),
            "kinds": kinds}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", required=True, help="JSON file the run is merged into")
    ap.add_argument("--only", action="append", choices=[c[0] for c in CONFIGS],
                    metavar="NAME", help="run only this config (repeatable)")
    args = ap.parse_args()

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    runs = doc.get(args.label, {}).get("configs", {}) if args.only else {}
    for name, solver, N, T in CONFIGS:
        if not args.only or name in args.only:
            runs[name] = run_config(solver, N, T)
            print(json.dumps({name: runs[name]}), flush=True)

    doc[args.label] = {
        "src_sha256": source_digest(),
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "import": import_cost(),
        "configs": {name: runs[name] for name, *_ in CONFIGS if name in runs},
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
