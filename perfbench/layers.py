"""Per-layer metrics derived from a span list (see `tracer.py`).

Every metric is normalised per traced op, so runs that complete different
numbers of ops stay comparable.  `busy_s` is a span's whole duration,
`self_s` its duration minus that of its child spans.  Kernel calls made
inside `kernel.solve_lp` (its phase-1 and phase-2 barrier solves) belong to
the LP: their calls, steps and time are left out of the
`kernel.solve_concave` figures, but their outcomes (MAX_ITER, exceptions,
warnings) still count in the `kernel.*` outcome counters.  An exception is
counted once, at the innermost kernel span that raised it.
"""

from __future__ import annotations

from collections import defaultdict

# name -> unit; the order is the order of BENCHMARK.json.
LAYER_METRICS: dict[str, str] = {}


def _metric(name, unit):
    LAYER_METRICS[name] = unit


for _f in ("solve_concave", "solve_lp"):
    _metric(f"kernel.{_f}.calls", "count/op")
    _metric(f"kernel.{_f}.newton_steps", "count/op")
    _metric(f"kernel.{_f}.busy_s", "s/op")
_metric("kernel.solve_concave.ms_per_step", "ms")
for _c in ("max_iter", "lp_not_optimal", "start_infeasible", "linalg_error",
           "runtime_warnings"):
    _metric(f"kernel.{_c}", "count/op")
STEPS = {"sca_ic": ("optimize_time_ic", "optimize_power_ic", "optimize_traj_ic"),
         "sca_comp": ("optimize_time_comp", "optimize_power_comp", "optimize_traj_comp")}
SCA_PASSES = ("sca_ic.optimize_power_ic", "sca_ic.optimize_traj_ic",
              "sca_comp.optimize_traj_comp")
for _mod, _steps in STEPS.items():
    for _s in _steps:
        _metric(f"{_mod}.{_s}.calls", "count/op")
        _metric(f"{_mod}.{_s}.busy_s", "s/op")
        _metric(f"{_mod}.{_s}.self_s", "s/op")
for _p in SCA_PASSES:
    _metric(f"{_p}.passes", "count/op")
    _metric(f"{_p}.accept_ratio", "ratio")
_metric("sca_ic.outer_iterations", "count/op")
_metric("sca_comp.outer_iterations", "count/op")
for _f in ("hover_ic.solve_infinite_ic", "hover_comp.solve_infinite_comp",
           "mc.sample_zf_rate", "model.common_throughput", "model.feasibility_report"):
    _metric(f"{_f}.calls", "count/op")
    _metric(f"{_f}.busy_s", "s/op")
_metric("mc.sample_zf_rate.samples_per_s", "1/s")
_metric("trace.spans", "count/op")
_metric("trace.overhead_s", "s/op")
_metric("trace.overhead_frac", "ratio")
_metric("wall.op_s_p50", "s")

# Span names aggregated under one metric prefix.
ALIASES = {"model.common_throughput_ic": "model.common_throughput",
           "model.common_throughput_comp": "model.common_throughput"}
ENGINE_SOLVES = {"sca_ic": ("sca_ic.solve_p1", "sca_ic.solve_p1_direct"),
                 "sca_comp": ("sca_comp.solve_p21", "sca_comp.solve_p21_direct")}


def _nearest(spans_by_id, span, names):
    """Closest ancestor of `span` whose name is in `names`, or None."""
    parent = span[4]
    while parent is not None:
        anc = spans_by_id[parent]
        if anc[1] in names:
            return anc
        parent = anc[4]
    return None


def layer_metrics(spans, num_ops: int) -> dict:
    """Every metric of `LAYER_METRICS` except those `run.py` times itself
    (the trace overhead and the raw wall-time median), per op."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] += s[3] - s[2]
    # Kernel spans that raised only because a nested kernel call raised.
    passed_on = {s[4] for s in spans
                 if s[1].startswith("kernel.") and "raised" in (s[6] or {})
                 and s[4] is not None and by_id[s[4]][1].startswith("kernel.")}
    calls, busy, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    counts = defaultdict(float)
    solves_in_step = defaultdict(int)
    for s in spans:
        sid, name, start, end, _parent, _op, attrs = s
        attrs = attrs or {}
        if name.startswith("kernel."):
            counts["kernel.runtime_warnings"] += sum(
                w.startswith("RuntimeWarning") for w in attrs.get("warnings", ()))
            raised = None if sid in passed_on else attrs.get("raised")
            counts["kernel.start_infeasible"] += raised == "StartInfeasible"
            counts["kernel.linalg_error"] += raised == "LinAlgError"
            status = attrs.get("status")
            if name == "kernel.solve_concave":
                counts["kernel.max_iter"] += status == "max_iter"
            elif status is not None:
                counts["kernel.lp_not_optimal"] += status != "optimal"
        if name == "kernel.solve_concave" and _nearest(by_id, s, ("kernel.solve_lp",)):
            continue
        key = ALIASES.get(name, name)
        calls[key] += 1
        busy[key] += end - start
        self_s[key] += end - start - child_time[sid]
        if name.startswith("kernel."):
            counts[f"{key}.newton_steps"] += attrs.get("steps", 0)
            if name == "kernel.solve_concave":
                step = _nearest(by_id, s, SCA_PASSES)
                if step is not None:
                    solves_in_step[step[1]] += 1
        if name in SCA_PASSES:
            counts[f"{name}.passes"] += attrs.get("passes", 0)
        for mod, names in ENGINE_SOLVES.items():
            if name in names:
                counts[f"{mod}.outer_iterations"] += attrs.get("outer", 0)
        if name == "mc.sample_zf_rate":
            counts["mc.samples"] += attrs.get("samples", 0)

    per_op = 1.0 / max(num_ops, 1)
    out = {}
    for metric in LAYER_METRICS:
        if metric.startswith(("trace.overhead", "wall.")):
            continue
        base, _, field = metric.rpartition(".")
        if field == "calls":
            value = calls[base] * per_op
        elif field == "busy_s":
            value = busy[base] * per_op
        elif field == "self_s":
            value = self_s[base] * per_op
        elif field == "ms_per_step":
            steps = counts[f"{base}.newton_steps"]
            value = 1e3 * busy[base] / steps if steps else 0.0
        elif field == "accept_ratio":
            tries = solves_in_step[base]
            value = counts[f"{base}.passes"] / tries if tries else 0.0
        elif field == "samples_per_s":
            value = counts["mc.samples"] / busy[base] if busy[base] else 0.0
        elif metric == "trace.spans":
            value = len(spans) * per_op
        else:
            value = counts[metric] * per_op
        out[metric] = float(value)
    return out


def op_fingerprint(spans, op) -> dict:
    """Newton-step and pass sequence of one op, for determinism checks."""
    seq = []
    for s in sorted((s for s in spans if s[5] == op), key=lambda s: s[2]):
        attrs = s[6] or {}
        if "steps" in attrs or "passes" in attrs or "outer" in attrs:
            seq.append([s[1], attrs.get("steps"), attrs.get("passes"), attrs.get("outer")])
    return {"sequence": seq,
            "newton_steps": sum(a[1] or 0 for a in seq if a[0].startswith("kernel."))}
