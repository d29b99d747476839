"""Command-line front end: config ingestion, single solves, experiment sweeps
and bound verification, with deterministic CSV output plus a JSON manifest.

Config files are flat ``key = value`` text (units in the key names, dB/dBm
converted at ingestion); ``--set key=value`` overrides file values.  Result
CSVs are byte-identical across reruns of the same config and seed; wall-clock
timings go to the manifest instead.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import __version__
from .hover_comp import solve_infinite_comp
from .hover_ic import solve_infinite_ic
from .mc import sample_zf_rate
from .model import (ConfigError, ScenarioConfig, comp_rate_upper_bound, db_to_linear,
                    dbm_to_watt)
from .sca_comp import solve_p21, solve_p21_direct
from .sca_ic import solve_p1, solve_p1_direct

SCHEMA_VERSION = 1

# key -> (type, default, help); None default means "derived".
CONFIG_KEYS = {
    "altitude_m": (float, 5.0, "UAV flight altitude"),
    "device_distance_m": (float, 15.0, "distance between the two devices"),
    "uav_power_dbm": (float, 40.0, "per-UAV transmit power"),
    "noise_dbm": (float, -100.0, "receiver noise power"),
    "ref_gain_db": (float, -30.0, "channel power gain at 1 m"),
    "eh_efficiency": (float, 0.6, "RF-to-DC conversion efficiency"),
    "max_speed_mps": (float, 5.0, "UAV speed cap"),
    "min_separation_m": (float, 1.0, "collision-avoidance distance"),
    "mission_s": (float, 10.0, "mission duration"),
    "slot_s": (float, 0.1, "target slot length when num_slots is derived"),
    "num_slots": (int, None, "slot count (default: mission_s / slot_s)"),
    "uav1_initial_x_m": (float, -2.0, ""),
    "uav1_initial_y_m": (float, -2.0, ""),
    "uav1_final_x_m": (float, -2.0, ""),
    "uav1_final_y_m": (float, 2.0, ""),
    "uav2_initial_x_m": (float, 2.0, ""),
    "uav2_initial_y_m": (float, -2.0, ""),
    "uav2_final_x_m": (float, 2.0, ""),
    "uav2_final_y_m": (float, 2.0, ""),
    "tau_grid": (int, 400, "grid size of the 1-D charge-duration search"),
    "mc_samples": (int, 100000, "Monte-Carlo samples per bound check"),
    "mc_cases": (int, 50, "random geometries in verify-bound"),
}

RESULT_HEADER = ("sweep_value", "scenario", "common_rate_bps_hz", "mode",
                 "charge_time_s", "iterations", "max_residual")
# Trajectory-CSV names of the charging and uplink durations, by the number
# of charging blocks: one in the coordination mode, one per device jointly.
TIME_COLUMNS = {1: ("delta_E", "delta_I"), 2: ("rho_E1", "rho_E2", "rho_I")}


def _parse_value(key: str, raw: str):
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key '{key}'")
    typ = CONFIG_KEYS[key][0]
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': cannot parse '{raw}'") from exc
    if not np.isfinite(value) or (typ is int and not value.is_integer()):
        raise ConfigError(f"config key '{key}': '{raw}' is not a finite {typ.__name__}")
    return typ(value)


def load_settings(config_path: str | None, overrides) -> dict:
    values = {k: v[1] for k, v in CONFIG_KEYS.items()}
    if config_path:
        text = Path(config_path).read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{config_path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = _parse_value(key, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got '{item}'")
        key, raw = (part.strip() for part in item.split("=", 1))
        values[key] = _parse_value(key, raw)
    for key, ok, need in (("slot_s", values["slot_s"] > 0, "> 0"),
                          ("tau_grid", values["tau_grid"] >= 2, ">= 2"),
                          ("mc_samples", values["mc_samples"] >= 1, ">= 1"),
                          ("mc_cases", values["mc_cases"] >= 1, ">= 1")):
        if not ok:
            raise ConfigError(f"config key '{key}' must be {need}, got {values[key]}")
    return values


def scenario_from_settings(values: dict) -> ScenarioConfig:
    num_slots = values["num_slots"]
    if num_slots is None:
        num_slots = max(1, round(values["mission_s"] / values["slot_s"]))
    return ScenarioConfig(
        altitude=values["altitude_m"],
        device_distance=values["device_distance_m"],
        uav_power=dbm_to_watt(values["uav_power_dbm"]),
        eh_efficiency=values["eh_efficiency"],
        ref_gain=db_to_linear(values["ref_gain_db"]),
        noise_power=dbm_to_watt(values["noise_dbm"]),
        max_speed=values["max_speed_mps"],
        min_separation=values["min_separation_m"],
        duration=values["mission_s"],
        num_slots=int(num_slots),
        uav_initial=[[values["uav1_initial_x_m"], values["uav1_initial_y_m"]],
                     [values["uav2_initial_x_m"], values["uav2_initial_y_m"]]],
        uav_final=[[values["uav1_final_x_m"], values["uav1_final_y_m"]],
                   [values["uav2_final_x_m"], values["uav2_final_y_m"]]],
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_manifest(out_dir: Path, command: str, values: dict, seed: int,
                   extra: dict) -> None:
    import scipy
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": {k: values[k] for k in sorted(values)},
        "seed": seed,
        "versions": {"wpcn_traj": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__, "python": sys.version.split()[0]},
    }
    manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def write_trajectory_csv(path: Path, cfg: ScenarioConfig, report) -> None:
    pos = report.trajectory.positions
    alloc = report.allocation
    per_slot = np.vstack([alloc.blocks, alloc.uplink_time, alloc.tx_power])  # (columns, N)
    rows = []
    for n in range(cfg.num_slots + 1):
        row = [n, n * cfg.slot_duration,
               pos[0, n, 0], pos[0, n, 1], pos[1, n, 0], pos[1, n, 1]]
        row.extend(per_slot[:, n - 1] if n else [0.0] * len(per_slot))
        rows.append(row)
    write_csv(path, ["n", "t", "x1", "y1", "x2", "y2", *TIME_COLUMNS[len(alloc.blocks)],
                     "Q1", "Q2"], rows)


# ---------------------------------------------------------------------------
# Sweep tasks (module level so process pools can pickle them)
# ---------------------------------------------------------------------------

_SOLVERS = {"ic-proposed": solve_p1, "comp-proposed": solve_p21,
            "ic-direct": solve_p1_direct, "comp-direct": solve_p21_direct}


def _result_row(label, sweep_value, cfg: ScenarioConfig, tau_grid: int):
    """Solve the design named by `label`, from the hovering solution of its
    mode on a `tau_grid` charge-duration grid; returns its RESULT_HEADER
    row, its wall time and its solve report (None for the hovering bounds)."""
    comp = label.startswith("comp-")
    hover = (solve_infinite_comp if comp else solve_infinite_ic)(cfg, tau_grid=tau_grid)
    if label.endswith("-bound"):
        mode = "zero-forcing" if comp else hover.wit_mode.value
        return (sweep_value, label, hover.common_rate, mode, hover.charge_time, 0, 0.0), 0.0, None
    rep = _SOLVERS[label](cfg, hover)
    return (sweep_value, label, rep.common_rate, rep.initialization.value,
            float(rep.allocation.blocks.sum()), rep.outer_iterations,
            max(rep.residuals.values())), rep.wall_seconds, rep


def _run_label(args):
    row, wall, _ = _result_row(*args)
    return row, wall


def _run_tasks(tasks, jobs: int):
    if jobs <= 1:
        return [_run_label(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_label, tasks))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True),
                      default=None, help="flat key=value config file")(fn)
    fn = click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                      help="override a config key")(fn)
    fn = click.option("--out", "out_dir", required=True,
                      type=click.Path(file_okay=False), help="output directory")(fn)
    fn = click.option("--seed", default=0, show_default=True)(fn)
    return fn


_jobs_option = click.option("--jobs", default=1, show_default=True,
                            type=click.IntRange(min=1), help="concurrent sweep points")


def _guarded(command, fn):
    try:
        fn()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    except Exception as exc:  # solver or I/O failure
        click.echo(f"{command} failed: {exc}", err=True)
        sys.exit(2)
    sys.exit(0)


def _prepare(config_path, overrides, out_dir):
    values = load_settings(config_path, overrides)
    cfg = scenario_from_settings(values)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return values, cfg, out


def _parse_values_list(text: str) -> list:
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep values '{text}'") from exc
    if not vals or any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError("sweep values must be non-empty and increasing")
    return vals


@click.group()
@click.version_option(__version__)
def main():
    """Two-UAV wireless-powered network trajectory/allocation solver."""


def _solve_labels(command, labels, config_path, overrides, out_dir, seed):
    """Solve each design in `labels` at one config: one results.csv row per
    design, a trajectory CSV per finite-horizon design, and the manifest."""
    def body():
        values, cfg, out = _prepare(config_path, overrides, out_dir)
        rows, timings, files = [], {}, ["results.csv"]
        for label in labels:
            row, wall, rep = _result_row(label, cfg.device_distance, cfg, values["tau_grid"])
            rows.append(row)
            if rep is not None:
                timings[label] = wall
                name = f"trajectory_{label}.csv"
                write_trajectory_csv(out / name, cfg, rep)
                files.append(name)
        write_csv(out / "results.csv", RESULT_HEADER, rows)
        extra = {"files": files}
        if timings:
            extra["runtime_s"] = timings
        write_manifest(out, command, values, seed, extra)
    _guarded(command, body)


def _single_design_command(command: str, label: str, doc: str) -> None:
    """Register `command`, which solves the one design `label`."""
    @main.command(command, help=doc)
    @_common_options
    def cmd(config_path, overrides, out_dir, seed):
        _solve_labels(command, [label], config_path, overrides, out_dir, seed)


for _args in (
        ("solve-ic", "ic-proposed", "Finite-horizon solve, interference coordination."),
        ("solve-comp", "comp-proposed", "Finite-horizon solve, joint transmission/reception."),
        ("infinite-ic", "ic-bound", "Infinite-horizon hovering bound, interference coordination."),
        ("infinite-comp", "comp-bound",
         "Infinite-horizon hovering bound, joint transmission/reception.")):
    _single_design_command(*_args)


@main.command("benchmark-direct")
@_common_options
@click.option("--scenario", type=click.Choice(["both", "ic", "comp"]),
              default="both", show_default=True)
def benchmark_direct_cmd(config_path, overrides, out_dir, seed, scenario):
    """Straight-flight benchmark (time/power optimization only)."""
    labels = {"both": ["ic-direct", "comp-direct"], "ic": ["ic-direct"],
              "comp": ["comp-direct"]}[scenario]
    _solve_labels("benchmark-direct", labels, config_path, overrides, out_dir, seed)


def _sweep(command, key, labels, config_path, overrides, out_dir, jobs, seed,
           values_text):
    def body():
        values, _, out = _prepare(config_path, overrides, out_dir)
        points = _parse_values_list(values_text)
        tasks = []
        for point in points:
            pv = dict(values)
            pv[key] = point
            cfg = scenario_from_settings(pv)
            tasks.extend((label, point, cfg, pv["tau_grid"]) for label in labels)
        raw = _run_tasks(tasks, jobs)   # in task order: point by point, labels as listed
        write_csv(out / "results.csv", RESULT_HEADER, [row for row, _ in raw])
        write_manifest(out, command, values, seed,
                       {"sweep_key": key, "sweep_values": points,
                        "runtime_s": {f"{row[1]}@{_fmt(row[0])}": wall for row, wall in raw},
                        "files": ["results.csv"]})
    _guarded(command, body)


@main.command("sweep-D")
@_common_options
@_jobs_option
@click.option("--values", "values_text", required=True,
              help="comma-separated device distances, metres")
def sweep_d_cmd(config_path, overrides, out_dir, jobs, seed, values_text):
    """Throughput versus device distance for all four designs."""
    _sweep("sweep-D", "device_distance_m",
           ["ic-proposed", "comp-proposed", "ic-direct", "comp-direct"],
           config_path, overrides, out_dir, jobs, seed, values_text)


@main.command("sweep-T")
@_common_options
@_jobs_option
@click.option("--values", "values_text", required=True,
              help="comma-separated mission durations, seconds")
def sweep_t_cmd(config_path, overrides, out_dir, jobs, seed, values_text):
    """Throughput versus mission duration, including the hovering bounds."""
    _sweep("sweep-T", "mission_s",
           ["ic-proposed", "comp-proposed", "ic-direct", "comp-direct",
            "ic-bound", "comp-bound"],
           config_path, overrides, out_dir, jobs, seed, values_text)


@main.command("verify-bound")
@_common_options
def verify_bound_cmd(config_path, overrides, out_dir, seed):
    """Monte-Carlo check that the joint-reception rate bound dominates."""
    def body():
        values, cfg, out = _prepare(config_path, overrides, out_dir)
        rng = np.random.default_rng(seed)
        header = ["case", "x1", "y1", "x2", "y2", "tx_power_w", "device",
                  "mc_mean", "mc_stderr", "bound", "ok"]
        rows = []
        span = cfg.device_distance / 2.0 + cfg.altitude
        for case in range(values["mc_cases"]):
            pos = rng.uniform(-span, span, size=(2, 2))
            power = 10.0 ** rng.uniform(-7.0, -4.0)
            est = sample_zf_rate(cfg, pos, [power, power], values["mc_samples"],
                                 seed=int(rng.integers(2**63)))
            for k in range(2):
                bound = float(comp_rate_upper_bound(power, pos, k, cfg))
                ok = est[k].mean <= bound + 3.0 * est[k].stderr
                rows.append([case, pos[0, 0], pos[0, 1], pos[1, 0], pos[1, 1],
                             power, k + 1, est[k].mean, est[k].stderr, bound,
                             int(ok)])
        write_csv(out / "verify_bound.csv", header, rows)
        write_manifest(out, "verify-bound", values, seed,
                       {"files": ["verify_bound.csv"],
                        "all_ok": bool(all(r[-1] for r in rows))})
        if not all(r[-1] for r in rows):
            raise RuntimeError("bound violated beyond 3 standard errors")
    _guarded("verify-bound", body)


if __name__ == "__main__":
    main()
