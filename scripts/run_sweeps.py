#!/usr/bin/env python3
"""Reproduce the headline experiments: throughput versus mission duration,
throughput versus device distance, and the sampled-rate bound audit.

Writes CSV results and JSON manifests under results/ (one directory per
experiment).  Expect the duration sweep to take tens of minutes at full
resolution; pass --quick for a coarse smoke run.
"""

import argparse
import sys
from pathlib import Path

from click.testing import CliRunner

from wpcn_traj.cli import main as cli


def run(args):
    """Run one `wpcn-traj` command; stop on a failure.  Exit code 2 means a
    solver failure, except from `verify-bound`, where it reports a bound
    violated beyond 3 standard errors (criterion 7's known violation), so
    only there is it accepted."""
    result = CliRunner().invoke(cli, args)
    accepted = (0, 2) if args[0] == "verify-bound" else (0,)
    if result.exit_code not in accepted:
        print(result.output, file=sys.stderr)
        raise SystemExit(result.exit_code)
    print(f"$ wpcn-traj {' '.join(args)}\n{result.output}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--jobs", default="2")
    parser.add_argument("--quick", action="store_true",
                        help="coarse slots and fewer sweep points")
    opts = parser.parse_args()
    root = Path(opts.out)
    root.mkdir(parents=True, exist_ok=True)

    slots = ["--set", "num_slots=20"] if opts.quick else ["--set", "num_slots=50"]
    t_values = "4,10,20" if opts.quick else "2,4,6,8,10,14,20,30,50"
    d_values = "5,15,30" if opts.quick else "5,10,15,20,25,30"

    run(["sweep-T", "--values", t_values, "--out", str(root / "duration"),
         "--jobs", opts.jobs, "--set", "device_distance_m=15"] + slots)
    run(["sweep-D", "--values", d_values, "--out", str(root / "distance"),
         "--jobs", opts.jobs, "--set", "mission_s=50"] + slots)
    run(["verify-bound", "--out", str(root / "bound_audit"), "--seed", "0",
         "--set", "mc_cases=50", "--set", "mc_samples=100000"])
