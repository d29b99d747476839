"""Closed-loop benchmark of the wpcn-traj solvers.

    python3 perfbench/run.py --workload coord-traj --seed 1 --seconds 15 --trace 0

Runs one workload (see `workloads.py`) in this process with one caller: the
next op starts when the previous one returns, in whole passes over the
workload's design until `--seconds` have passed.  Every op's output is
checked after the loop; failures are listed with the op's inputs.  Op times
are wall times normalised by the machine-speed probe of `speed.py`.  The last
stdout line is a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
from a traced run with `--trace 1`.  The traced run also replays its first
pass untraced, requires bit-identical rates, repeats its first op to compare
Newton-step counts, and reports the tracing overhead.  Run metadata, per-op
records and the span file go to `perfbench/out/`.

Must be run from the root of a source checkout (it imports `src/wpcn_traj`);
elsewhere it exits with status 2 and prints no result.
"""

import os
import sys

# Pin BLAS to one thread before numpy is first imported: dense kernels on
# this problem size only lose time to threading, and rates move in the last
# digits with the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
if "numpy" in sys.modules:
    raise SystemExit("numpy was imported before the BLAS thread pin")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from layers import LAYER_METRICS, layer_metrics, op_fingerprint  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Library, passes  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

END_TO_END = {
    "ops_per_min": "1/min",
    "op_s_p50": "s",
    "common_rate_mean": "bps/Hz",
    "bound_ratio_mean": "ratio",
    "bound_ratio_min": "ratio",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import wpcn_traj from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import wpcn_traj
    except ImportError as exc:
        print(f"cannot import wpcn_traj from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in Path(wpcn_traj.__file__).resolve().parents:
        print(f"wpcn_traj resolved to {wpcn_traj.__file__}, not under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return wpcn_traj


def blas_threads() -> dict:
    """Thread count reported by every OpenBLAS loaded into this process."""
    import ctypes
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
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def metadata(args) -> dict:
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }


def measure_setup(args) -> list:
    """Set-up times of `SETUP_REPEATS` fresh interpreters that import the
    package and build the workload's inputs.  Each is timed from just before
    the interpreter is spawned to the end of its set-up, by the child itself
    (perf_counter is the system-wide monotonic clock), and normalised like
    the op times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = subprocess.run(cmd + [repr(t0)], cwd=ROOT, check=True, capture_output=True,
                             text=True, timeout=120)
        times.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return times


def setup_probe(t0: float, first_pass) -> int:
    """Child side of `measure_setup`: import, build the inputs, report."""
    with SpeedProbe() as probe:
        lib = Library(import_library())
        for op in first_pass:
            lib.config(op)
    t1 = time.perf_counter()
    print(json.dumps({"wall_s": t1 - t0, "setup_s": probe.normalise(t0, t1)}))
    return 0


def call_timed(lib, op, cfg, tracer=None) -> tuple:
    """One op: (op, cfg, result or exception, start, end)."""
    if tracer is not None:
        tracer.op = op.index
    t0 = time.perf_counter()
    try:
        result = lib.call(op, cfg)
    except Exception as exc:  # an op that raises is a counted failure
        result = exc
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.op = None
    return op, cfg, result, t0, t1


def run_loop(lib, workload, seed: int, seconds: float, probe, tracer=None) -> list:
    """Closed loop over whole passes until `seconds` have passed.  Passes are
    never cut, so every run times the same mix of design points."""
    records = []
    start = time.perf_counter()
    with probe:
        for batch in passes(workload, seed):
            records.extend(call_timed(lib, op, lib.config(op), tracer) for op in batch)
            if time.perf_counter() - start >= seconds:
                return records


def rate_bits(result) -> list:
    """The op's rates as exact hex strings (the determinism fingerprint)."""
    if isinstance(result, BaseException):
        return [repr(result)]
    if isinstance(result, tuple):  # Monte-Carlo estimates
        return [float(e.mean).hex() for e in result]
    return [float(result.common_rate).hex()]


def check_all(lib, records, probe) -> list:
    rows = []
    for op, cfg, result, t0, t1 in records:
        row = {"op": op.index, "inputs": op.inputs(), "wall_s": t1 - t0,
               "op_s": probe.normalise(t0, t1), "rate_bits": rate_bits(result)}
        row.update(lib.check(op, cfg, result))
        rows.append(row)
    return rows


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: the mean of the order statistics
    weighted by Beta((n+1)/2, (n+1)/2) over their quantile intervals.  A run
    holds 9-24 solver ops of distinct cost, so the plain sample median is the
    time of one or two ops; this is a steadier estimate of the same median."""
    from scipy.special import betainc  # already loaded by the package

    x = np.sort(np.asarray(values, dtype=float))
    a = (x.size + 1) / 2.0
    return float(np.diff(betainc(a, a, np.arange(x.size + 1) / x.size)) @ x)


def end_to_end(pass_len: int, rows, setup_times, peak_rss_mb: float) -> dict:
    """End-to-end metrics; rate metrics use the first pass only, so they do
    not depend on how many passes the time budget admits."""
    times = [r["op_s"] for r in rows]
    quality = [r for r in rows[:pass_len] if r["failure"] is None]
    ratios = [r["rate"] / r["bound"] for r in quality
              if r["inputs"]["kind"] not in ("hover_ic", "hover_comp")]
    failed = sum(r["failure"] is not None for r in rows)
    values = {
        "ops_per_min": 60.0 * len(times) / sum(times),
        "op_s_p50": hd_median(times),
        "common_rate_mean": statistics.fmean(r["rate"] for r in quality) if quality else 0.0,
        "bound_ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
        "bound_ratio_min": min(ratios) if ratios else 0.0,
        "ok_frac": 1.0 - failed / len(rows),
        "setup_s": statistics.median(t["setup_s"] for t in setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced_run(lib, workload, args, pass_len: int, info: dict) -> tuple:
    """Traced loop, a traced repeat of op 0 and an untraced replay of the
    first pass.

    Returns (rows of every traced op, per-layer metrics, determinism problems)."""
    tracer = Tracer(lib.traced_modules, "wpcn_traj")
    tracer.install()
    try:
        probe_traced = SpeedProbe()
        traced = run_loop(lib, workload, args.seed, args.seconds, probe_traced, tracer)
        first_op, first_cfg = traced[0][0], traced[0][1]
        tracer.op = "repeat"
        try:
            repeat = lib.call(first_op, first_cfg)
        except Exception as exc:
            repeat = exc
        tracer.op = None
    finally:
        tracer.uninstall()

    problems = []
    fp_first = op_fingerprint(tracer.spans, first_op.index)
    fp_repeat = op_fingerprint(tracer.spans, "repeat")
    if fp_first != fp_repeat or rate_bits(repeat) != rate_bits(traced[0][2]):
        problems.append(f"op {first_op.index} repeated in-process gave different "
                        f"steps or rates: {fp_first['newton_steps']} vs "
                        f"{fp_repeat['newton_steps']} steps")
    probe = SpeedProbe()
    with probe:
        untraced = [call_timed(lib, op, cfg) for op, cfg, *_ in traced[:pass_len]]
    for (op, _cfg, result, *_), again in zip(traced, untraced):
        if rate_bits(again[2]) != rate_bits(result):
            problems.append(f"op {op.index}: traced rates {rate_bits(result)} != "
                            f"untraced {rate_bits(again[2])}")

    rows = check_all(lib, traced, probe_traced)
    main_spans = [s for s in tracer.spans if isinstance(s[5], int)]
    for row in rows:
        row["fingerprint"] = op_fingerprint(main_spans, row["op"])
    t_traced = sum(r["op_s"] for r in rows[:pass_len])
    t_plain = sum(probe.normalise(r[3], r[4]) for r in untraced)
    metrics = layer_metrics(main_spans, len(traced))
    metrics["trace.overhead_s"] = (t_traced - t_plain) / pass_len
    metrics["trace.overhead_frac"] = t_traced / t_plain - 1.0
    metrics["wall.op_s_p50"] = hd_median([r[4] - r[3] for r in untraced])
    info["untraced_op_s"] = [probe.normalise(r[3], r[4]) for r in untraced]
    info["speed_probe"] = {"traced": probe_traced.summary(), "untraced": probe.summary()}
    info["spans_file"] = str(span_path(args).relative_to(ROOT))
    OUT.mkdir(exist_ok=True)
    tracer.write(span_path(args))
    layer = {k: {"value": metrics[k], "unit": LAYER_METRICS[k]} for k in LAYER_METRICS}
    return rows, layer, problems


def span_path(args) -> Path:
    return OUT / f"spans-{args.workload}-s{args.seed}.jsonl"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, metavar="T0", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    first_pass = next(passes(workload, args.seed))
    if args.setup_probe is not None:
        return setup_probe(args.setup_probe, first_pass)

    pkg = import_library()
    setup_times = measure_setup(args)
    lib = Library(pkg)
    info = metadata(args)
    info["setup_s"] = setup_times
    print("meta " + json.dumps(info))
    problems = []
    if args.trace:
        rows, metrics, problems = traced_run(lib, workload, args, len(first_pass), info)
    else:
        probe = SpeedProbe()
        records = run_loop(lib, workload, args.seed, args.seconds, probe)
        # Peak memory of the timed loop, before the checks solve the hover bounds.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows = check_all(lib, records, probe)
        info["speed_probe"] = probe.summary()
        metrics = end_to_end(len(first_pass), rows, setup_times, peak_rss_mb)

    failures = [r for r in rows if r["failure"] is not None]
    for r in failures:
        print(f"FAILED op {r['op']} {json.dumps(r['inputs'])}: {r['failure']}")
    for p in problems:
        print(f"DETERMINISM {p}")
    print(f"{args.workload}: {len(rows)} ops, {len(failures)} failed, "
          f"op_wall_s_p50 {hd_median([r['wall_s'] for r in rows]):.4f} s (raw wall time)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump({"meta": info, "metrics": metrics, "ops": rows,
                   "determinism_problems": problems}, fh, indent=1, default=str)
    print(json.dumps({"correct": not failures and not problems, "attempted": len(rows),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
