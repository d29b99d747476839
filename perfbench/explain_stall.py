"""Explain a joint-mode solve from its span file alone.

    python3 perfbench/explain_stall.py --D 15 --T 50 --slots 12

Runs one traced `solve_p21`, writes its spans to `perfbench/out/` and reads
them back.  The report is built from the spans only: the start probes, then
for every outer iteration the trajectory step's accepted passes, kernel
calls, statuses, retries and the fate of the first candidate it did not
accept.
"""

import run  # pins BLAS before numpy loads  # noqa: I001

import argparse
import sys
from collections import defaultdict

from tracer import Tracer, load_spans
from workloads import Library

STEP_KINDS = ("optimize_time", "optimize_power", "optimize_traj")


def _kind(name: str):
    for kind in STEP_KINDS:
        if name.split(".")[-1].startswith(kind):
            return kind
    return None


def _is(name: str, stem: str) -> bool:
    return name.split(".")[-1].startswith(stem)


def explain(spans) -> str:
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s[2])
    roots = [s for s in children[None] if s[1] == "sca_comp.solve_p21"]
    if not roots:
        raise SystemExit("the span file has no sca_comp.solve_p21 span")
    root = roots[0]
    top = children[root[0]]
    lines = [f"{root[1]}: rate {root[6]['ret']:.6f}, {root[6]['outer']} outer "
             f"iterations, {root[3] - root[2]:.2f} s"]

    steps = [s for s in top if _kind(s[1])]
    traj_at = [i for i, s in enumerate(steps) if _kind(s[1]) == "optimize_traj"]
    first_outer = traj_at[0] - 2 if traj_at else len(steps)
    probes = [s for s in steps[:first_outer] if _kind(s[1]) == "optimize_power"]
    if probes:
        values = []
        for p in probes:
            after = [s for s in top if s[2] > p[3] and _is(s[1], "common_throughput")]
            values.append(after[0][6]["ret"])
        labels = ["hover-and-fly", "direct flight"][-len(values):]
        best = max(range(len(values)), key=lambda i: (values[i], -i))
        lines.append("start probes (time + power pass): " + ", ".join(
            f"{lab} {v:.6f}" for lab, v in zip(labels, values))
            + f" -> start from {labels[best]}")
    lines.append("")
    lines.append("| outer | traj passes | solve_concave calls | accept_ratio | retries "
                 "| statuses (Newton steps) | warnings | rate before -> after | gain "
                 "| first candidate not accepted |")
    lines.append("|---|---|---|---|---|---|---|---|---|---|")
    for k, i in enumerate(traj_at, start=1):
        traj = steps[i]
        kids = children[traj[0]]
        rates = [s[6]["ret"] for s in kids if _is(s[1], "common_throughput")]
        solves = [s for s in kids if s[1].endswith("solve_concave")]
        passes = traj[6]["passes"]
        retries = sum(1 for s in solves if "raised" in (s[6] or {}))
        statuses = ", ".join(
            f"{s[6]['raised']}" if "raised" in s[6] else f"{s[6]['status']} ({s[6]['steps']})"
            for s in solves)
        warns = sum(len((s[6] or {}).get("warnings", ())) for s in solves)
        fate = _first_rejection(kids, passes)
        ratio = passes / len(solves) if solves else 0.0
        gain = rates[passes] - rates[0]
        lines.append(f"| {k} | {passes} | {len(solves)} | {ratio:.2f} | {retries} | "
                     f"{statuses} | {warns} | {rates[0]:.6f} -> {rates[passes]:.6f} | "
                     f"{gain:.2e} | {fate} |")
    return "\n".join(lines)


def _first_rejection(kids, passes: int) -> str:
    """What happened to the first returned candidate after the accepted ones."""
    incumbent = None
    returned = 0
    i = 0
    while i < len(kids):
        s = kids[i]
        if _is(s[1], "common_throughput") and incumbent is None:
            incumbent = s[6]["ret"]
        if s[1].endswith("solve_concave") and "raised" not in s[6]:
            follow = []
            j = i + 1
            while j < len(kids) and not kids[j][1].endswith("solve_concave"):
                follow.append(kids[j])
                j += 1
            val = next(f[6]["ret"] for f in follow if _is(f[1], "common_throughput"))
            energy = [f for f in follow if _is(f[1], "harvested_energy")]
            if returned == passes:
                if not energy:
                    return (f"geometry check failed (no energy evaluation); "
                            f"candidate rate {val:.6f}")
                if val < incumbent - 1e-12 * (1.0 + abs(incumbent)):
                    return f"rate fell {incumbent:.6f} -> {val:.6f}"
                return f"energy budget check failed; candidate rate {val:.6f}"
            incumbent = val
            returned += 1
            i = j
            continue
        i += 1
    if returned == 0:
        return "none returned: every retry raised"
    return "none: the last accepted pass gained less than the tolerance (or hit the pass cap)"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--D", type=float, default=15.0)
    p.add_argument("--T", type=float, default=50.0)
    p.add_argument("--slots", type=int, default=12)
    args = p.parse_args(argv)
    pkg = run.import_library()
    lib = Library(pkg)
    cfg = pkg.ScenarioConfig(device_distance=args.D, duration=args.T, num_slots=args.slots)
    tracer = Tracer(lib.traced_modules, "wpcn_traj")
    tracer.install()
    try:
        tracer.op = 0
        lib.sca_comp.solve_p21(cfg)
        tracer.op = None
    finally:
        tracer.uninstall()
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / f"stall-spans-D{args.D:g}-T{args.T:g}-N{args.slots}.jsonl"
    tracer.write(path)
    print(f"D={args.D:g} m, T={args.T:g} s, N={args.slots} ({path.name})")
    print(explain(load_spans(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
