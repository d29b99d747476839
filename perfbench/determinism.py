"""Cross-process determinism check of the benchmark.

    python3 perfbench/determinism.py --seed 7 --seconds 5 coord-traj joint-traj

Runs `run.py --trace 1` twice per workload with the same seed and compares,
op by op over the ops both runs completed, the rates (exact float bits) and
the Newton-step / pass / outer-iteration sequence read from the spans.  Each
traced run also checks itself: its rates must match an untraced replay bit
for bit, and a traced repeat of its first op must take the same steps.
Exits 1 on any mismatch.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_rows(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    subprocess.run(cmd, cwd=HERE.parent, check=True, capture_output=True, timeout=600)
    with open(HERE / "out" / f"{workload}-s{seed}-t1.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="+")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=5.0)
    args = p.parse_args(argv)
    bad = 0
    for w in args.workloads:
        first, second = (traced_rows(w, args.seed, args.seconds) for _ in range(2))
        a = {r["op"]: r for r in first["ops"]}
        b = {r["op"]: r for r in second["ops"]}
        common = sorted(a.keys() & b.keys())
        diffs = [op for op in common
                 if a[op]["rate_bits"] != b[op]["rate_bits"]
                 or a[op]["fingerprint"] != b[op]["fingerprint"]]
        inner = first["determinism_problems"] + second["determinism_problems"]
        steps = sum(a[op]["fingerprint"]["newton_steps"] for op in common)
        print(f"{w}: {len(common)} ops compared, {steps} Newton steps, "
              f"{len(diffs)} differ between processes, {len(inner)} in-run problems; "
              f"trace overhead {first['metrics']['trace.overhead_frac']['value']:+.1%} "
              f"/ {second['metrics']['trace.overhead_frac']['value']:+.1%}")
        for op in diffs:
            print(f"  op {op}: {a[op]['rate_bits']} vs {b[op]['rate_bits']}")
        for problem in inner:
            print(f"  {problem}")
        bad += len(diffs) + len(inner)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
