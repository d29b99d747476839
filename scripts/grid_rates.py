#!/usr/bin/env python3
"""Print the common rate of both finite-horizon solvers on a fixed grid.

One JSON line per config: mode, noise power (dBm), D, T, N,
repr(common_rate), initialization, outer iterations, whether the solution is
feasible, whether its objective trace is monotone, and the repr of every
trace entry.  The grid is `solve_p1` at N=6 and `solve_p21` at N=12 on D in
{5, 15, 30} x T in {4, 20, 50}, plus both direct-flight solvers at N=80,
T=20, D in {5, 10, ..., 30}, all at the default -100 dBm noise.  Then one
line per infinite-horizon mode on the same (D, T) points, with the repr of
the charging time, common rate and hover offsets of
`solve_infinite_*(cfg, tau_grid=1000)`, and the coordination mode's uplink
mode.  At -100 dBm turn-taking wins the uplink on every D of the grid, so a
-80 dBm block follows, `solve_p1` (N=6) and `solve_infinite_ic` on D in
{15, 30} x T in {4, 20, 50}: there D=30 takes the simultaneous uplink.
Two short missions follow, `solve_p1` at D=5, T=2 with N=50 at -100 dBm
and N=40 at -80 dBm, where the hover-and-fly start wins only after its
first power step has run to its end.  The acceptance config follows:
`solve_p1` at D=15, T=4, N=40, -100 dBm.  Three lines with crossing
endpoints close the solver lines, `solve_p1` (N=6 and N=12) and `solve_p21`
(N=12) at D=15, T=4, -100 dBm, with the UAVs flying (2,-2) to (-2,2) and
(-2,-2) to (2,2): their straight paths meet mid-mission, so a start must
take the staggered schedule.  These lines carry `"endpoints": "crossing"`,
the others no `endpoints` key.  Last, one `zf_mc` line per D in
{5, 10, ..., 30} (T=50 in the label only) with the Monte-Carlo zero-forcing
oracle `sample_zf_rate` at a fixed asymmetric UAV pair, 1e5 samples and a
fixed seed: the repr of each device's mean and standard error, and the
smaller mean as `common_rate`.

Running it against two checkouts and diffing the outputs shows whether a
change moved any rate or trace:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<checkout>/src python3 scripts/grid_rates.py > a.jsonl

`--against REV` does that in one command: it checks REV out into a
temporary `git worktree` (local, no fetch), prints this grid for REV and for
the working tree this script sits in (one BLAS thread each), prints the
differing lines, then one line per differing config with the relative move
of its rate and the keys that changed, removes the worktree and exits 1 on
any difference:

    python3 scripts/grid_rates.py --against HEAD~1

`--spread` runs the grid of the working tree twice, as it is and with every
kernel program on the structured factorization (`kernel.STRUCTURED_MIN_N =
0`, set in the child process), and prints each line's relative rate spread
between the two runs, largest first, with the outer iterations of each.  A
grid diff that moves a line by less than its spread cannot be told from
rounding:

    python3 scripts/grid_rates.py --spread
"""

import os

# One BLAS thread before numpy loads, as the package and the tests pin it
# (the grid was byte-identical under one and two threads when last checked).
# A value the user sets still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import difflib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Engines accept a step when the throughput drops by at most 1e-12 relative;
# one outer iteration chains three such steps.
TRACE_SLACK = 3e-12

# Endpoints of the crossing lines: the straight paths meet at the origin.
CROSSING = {"uav_initial": [[2.0, -2.0], [-2.0, -2.0]], "uav_final": [[-2.0, 2.0], [2.0, 2.0]]}


def configs():
    """(mode, noise dBm, D, T, N, endpoints) of every solver line;
    endpoints is None (the defaults) or "crossing"."""
    for mode, N in (("p1", 6), ("p21", 12)):
        for D in (5.0, 15.0, 30.0):
            for T in (4.0, 20.0, 50.0):
                yield mode, -100.0, D, T, N, None
    for mode in ("p1_direct", "p21_direct"):
        for D in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
            yield mode, -100.0, D, 20.0, 80, None
    for D in (15.0, 30.0):
        for T in (4.0, 20.0, 50.0):
            yield "p1", -80.0, D, T, 6, None
    for noise, N in ((-100.0, 50), (-80.0, 40)):
        yield "p1", noise, 5.0, 2.0, N, None
    yield "p1", -100.0, 15.0, 4.0, 40, None
    for mode, N in (("p1", 6), ("p1", 12), ("p21", 12)):
        yield mode, -100.0, 15.0, 4.0, N, "crossing"


def hover_configs():
    """(mode, noise dBm, D, T) of every infinite-horizon line."""
    for mode in ("infinite_ic", "infinite_comp"):
        for D in (5.0, 15.0, 30.0):
            for T in (4.0, 20.0, 50.0):
                yield mode, -100.0, D, T
    for D in (15.0, 30.0):
        for T in (4.0, 20.0, 50.0):
            yield "infinite_ic", -80.0, D, T


def zf_configs():
    """(noise dBm, D, T, UAV positions, transmit power, samples, seed) of
    every Monte-Carlo line; T labels the line and enters no computation."""
    for D in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        yield -100.0, D, 50.0, [[-0.3 * D, 0.2 * D], [0.45 * D, -0.1 * D]], 1e-6, 100000, 7


def print_grid() -> None:
    from wpcn_traj import (ScenarioConfig, is_feasible, sample_zf_rate,
                           solve_infinite_comp, solve_infinite_ic, solve_p1,
                           solve_p1_direct, solve_p21, solve_p21_direct)
    from wpcn_traj.model import dbm_to_watt

    solvers = {"p1": solve_p1, "p21": solve_p21, "p1_direct": solve_p1_direct,
               "p21_direct": solve_p21_direct}
    for mode, noise, D, T, N, endpoints in configs():
        cfg = ScenarioConfig(device_distance=D, duration=T, num_slots=N,
                             noise_power=dbm_to_watt(noise),
                             **(CROSSING if endpoints else {}))
        rep = solvers[mode](cfg)
        trace = np.asarray(rep.objective_trace, dtype=float)
        monotone = bool(np.all(np.diff(trace) >= -TRACE_SLACK * (1.0 + np.abs(trace[:-1]))))
        print(json.dumps({
            "mode": mode, "noise_dbm": noise, "D": D, "T": T, "N": N,
            **({"endpoints": endpoints} if endpoints else {}),
            "common_rate": repr(float(rep.common_rate)),
            "initialization": rep.initialization.value,
            "outer_iterations": int(rep.outer_iterations),
            "is_feasible": bool(is_feasible(cfg, rep.trajectory, rep.allocation)),
            "monotone": monotone,
            "trace": [repr(float(v)) for v in trace],
        }), flush=True)
    hover_solvers = {"infinite_ic": solve_infinite_ic, "infinite_comp": solve_infinite_comp}
    for mode, noise, D, T in hover_configs():
        cfg = ScenarioConfig(device_distance=D, duration=T, noise_power=dbm_to_watt(noise))
        hover = hover_solvers[mode](cfg, tau_grid=1000)
        line = {"mode": mode, "noise_dbm": noise, "D": D, "T": T,
                "charge_time": repr(float(hover.charge_time)),
                "common_rate": repr(float(hover.common_rate))}
        if mode == "infinite_ic":
            line.update(wit_mode=hover.wit_mode.value,
                        wpt_hover_x=repr(float(hover.wpt_hover_x)))
        else:
            line.update(wpt_hover_pair=[repr(float(x)) for x in hover.wpt_hover_pair])
        line["wit_hover_x"] = repr(float(hover.wit_hover_x))
        print(json.dumps(line), flush=True)
    for noise, D, T, pos, power, samples, seed in zf_configs():
        cfg = ScenarioConfig(device_distance=D, noise_power=dbm_to_watt(noise))
        est = sample_zf_rate(cfg, np.array(pos), [power, power], samples, seed)
        print(json.dumps({
            "mode": "zf_mc", "noise_dbm": noise, "D": D, "T": T,
            "mean": [repr(e.mean) for e in est],
            "stderr": [repr(e.stderr) for e in est],
            "common_rate": repr(min(e.mean for e in est)),
        }), flush=True)


def grid_of(checkout: Path, structured: bool = False) -> list:
    """The grid lines of the package in `checkout`, one BLAS thread; with
    `structured`, every kernel program takes the structured factorization."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    script = Path(__file__).resolve()
    cmd = [sys.executable, str(script)]
    if structured:
        cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(script.parent)!r}); "
               "from wpcn_traj import kernel; kernel.STRUCTURED_MIN_N = 0; "
               "import grid_rates; grid_rates.print_grid()"]
    run = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return run.stdout.splitlines()


def _label(line: dict) -> str:
    """The config a grid line belongs to, e.g. "p1 -80 dBm D=30 T=50 N=6"
    or "p21 -100 dBm D=15 T=4 N=12 crossing"."""
    return " ".join([line["mode"], f"{line['noise_dbm']:g} dBm"]
                    + [f"{k}={line[k]:g}" for k in ("D", "T", "N") if k in line]
                    + ([line["endpoints"]] if "endpoints" in line else []))


def moves(base: list, head: list, rev: str) -> list:
    """One line per config whose grid line differs between `base` (at `rev`)
    and `head`: the relative move of its rate and the keys that changed."""
    old = {_label(line): line for line in map(json.loads, base)}
    out = []
    for new in map(json.loads, head):
        was = old.pop(_label(new), None)
        if was is None:
            out.append(f"{_label(new)}: only in the working tree")
        elif was != new:
            a, b = float(was["common_rate"]), float(new["common_rate"])
            changed = [k for k in {**was, **new} if was.get(k) != new.get(k)]
            out.append(f"{_label(new)}: rate {(b - a) / (abs(a) or 1.0):+.2e} relative; "
                       f"changed: {', '.join(changed)}")
    return out + [f"{label}: only at {rev}" for label in old]


def against(rev: str) -> int:
    """Diff the grid of `rev` against that of the working tree; 1 if any
    line differs."""
    tmp = Path(tempfile.mkdtemp(prefix="grid-rates-"))
    tree = tmp / "tree"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                    str(tree), rev], check=True)
    try:
        base = grid_of(tree)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                       check=True)
        shutil.rmtree(tmp, ignore_errors=True)
    head = grid_of(ROOT)
    diff = list(difflib.unified_diff(base, head, rev, "working tree", lineterm="", n=0))
    print("\n".join(diff + moves(base, head, rev)))
    print(f"{len(base)} lines at {rev}, {len(head)} in the working tree: "
          + ("identical" if not diff else "DIFFERENT"))
    return 1 if diff else 0


def spread() -> int:
    """Print each grid line's relative rate spread between the two
    factorization paths, largest first."""
    runs = [{_label(line): line for line in map(json.loads, grid_of(ROOT, structured))}
            for structured in (False, True)]
    rows = []
    for label, a in runs[0].items():
        b = runs[1][label]
        ra, rb = float(a["common_rate"]), float(b["common_rate"])
        iters = (f" (outer iterations {a['outer_iterations']} -> {b['outer_iterations']})"
                 if "outer_iterations" in a else "")
        rows.append(((rb - ra) / (abs(ra) or 1.0), label, iters))
    rows.sort(key=lambda row: -abs(row[0]))
    for rel, label, iters in rows:
        print(f"{label}: {rel:+.2e}{iters}")
    print(f"{sum(rel != 0.0 for rel, _, _ in rows)} of {len(rows)} rates differ between "
          "the default and the all-structured factorization")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--against", metavar="REV",
                       help="diff this grid between git revision REV and the working tree")
    group.add_argument("--spread", action="store_true",
                       help="print each line's rate spread across the two factorization paths")
    args = parser.parse_args()
    if args.spread:
        return spread()
    if args.against is None:
        print_grid()
        return 0
    return against(args.against)


if __name__ == "__main__":
    sys.exit(main())
