import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from wpcn_traj.cli import main

FAST = ["--set", "mission_s=2", "--set", "num_slots=6", "--set", "tau_grid=80"]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False,
                              standalone_mode=False)


def invoke(args):
    runner = CliRunner()
    return runner.invoke(main, args)


class TestConfigHandling:
    def test_unknown_key_exits_one(self, tmp_path):
        # The solver's caps and tolerances are fixed, not config keys.
        for item in ("bogus=1", "max_outer=0", "outer_tol=1e-3"):
            res = invoke(["infinite-ic", "--out", str(tmp_path), "--set", item])
            assert res.exit_code == 1
            assert item.split("=")[0] in res.output

    def test_mission_that_no_start_fits_exits_one(self, tmp_path):
        # Crossing endpoints: the straight paths meet mid-mission, and the
        # staggered schedule's serial legs need 2.26 s.
        crossing = ["uav1_initial_x_m=2", "uav2_initial_x_m=-2",
                    "uav1_final_x_m=-2", "uav2_final_x_m=2"]
        res = invoke(["benchmark-direct", "--out", str(tmp_path)] + FAST
                     + [a for item in crossing for a in ("--set", item)])
        assert res.exit_code == 1
        assert "config error: no start plan" in res.output
        assert not (tmp_path / "results.csv").exists()

    def test_bad_value_exits_one(self, tmp_path):
        res = invoke(["infinite-ic", "--out", str(tmp_path),
                      "--set", "altitude_m=tall"])
        assert res.exit_code == 1

    @pytest.mark.parametrize("item", ["altitude_m=nan", "mission_s=inf",
                                      "num_slots=6.7", "mc_cases=2.5"])
    def test_non_finite_or_non_integral_value_exits_one(self, tmp_path, item):
        res = invoke(["infinite-ic", "--out", str(tmp_path), "--set", item])
        assert res.exit_code == 1
        assert item.split("=")[0] in res.output
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("cmd, item", [("infinite-ic", "slot_s=-0.1"),
                                           ("infinite-ic", "slot_s=0"),
                                           ("infinite-ic", "tau_grid=1"),
                                           ("verify-bound", "mc_samples=0"),
                                           ("verify-bound", "mc_cases=0")])
    def test_out_of_range_value_exits_one(self, tmp_path, cmd, item):
        res = invoke([cmd, "--out", str(tmp_path), "--set", item])
        assert res.exit_code == 1
        assert "config error" in res.output
        assert item.split("=")[0] in res.output
        assert not any(tmp_path.iterdir())

    def test_integral_value_of_int_key_accepted(self, tmp_path):
        res = invoke(["infinite-ic", "--out", str(tmp_path), "--set", "tau_grid=1e2"])
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["tau_grid"] == 100

    def test_config_file_and_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# benchmark geometry\n"
            "device_distance_m = 5\n"
            "mission_s = 50\n"
        )
        out = tmp_path / "out"
        res = invoke(["infinite-ic", "--config", str(cfgfile), "--out", str(out),
                      "--set", "device_distance_m=15", "--set", "tau_grid=100"])
        assert res.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["device_distance_m"] == 15.0
        assert manifest["config"]["mission_s"] == 50.0
        assert manifest["schema_version"] == 1
        assert "numpy" in manifest["versions"]

    def test_malformed_config_line(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("altitude_m 5\n")
        res = invoke(["infinite-ic", "--config", str(cfgfile),
                      "--out", str(tmp_path / "o")])
        assert res.exit_code == 1

    @pytest.mark.parametrize("cmd", ["solve-ic", "solve-comp", "infinite-ic",
                                     "infinite-comp", "benchmark-direct",
                                     "verify-bound"])
    def test_jobs_is_a_sweep_option_only(self, tmp_path, cmd):
        res = invoke([cmd, "--out", str(tmp_path), "--jobs", "2"])
        assert res.exit_code == 2
        assert "No such option" in res.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("cmd", ["sweep-D", "sweep-T"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, cmd, jobs):
        res = invoke([cmd, "--out", str(tmp_path), "--values", "2", "--jobs", jobs] + FAST)
        assert res.exit_code == 2
        assert "--jobs" in res.output
        assert not any(tmp_path.iterdir())


class TestCommands:
    def test_infinite_commands(self, tmp_path):
        for cmd, label in [("infinite-ic", "ic-bound"), ("infinite-comp", "comp-bound")]:
            out = tmp_path / cmd
            res = invoke([cmd, "--out", str(out), "--set", "tau_grid=100",
                          "--set", "mission_s=50"])
            assert res.exit_code == 0, res.output
            lines = (out / "results.csv").read_text().strip().splitlines()
            assert lines[0].startswith("sweep_value,scenario,common_rate_bps_hz")
            assert label in lines[1]

    def test_solve_ic_writes_trajectory(self, tmp_path):
        out = tmp_path / "solve"
        res = invoke(["solve-ic", "--out", str(out)] + FAST)
        assert res.exit_code == 0, res.output
        dump = (out / "trajectory_ic-proposed.csv").read_text().splitlines()
        assert dump[0] == "n,t,x1,y1,x2,y2,delta_E,delta_I,Q1,Q2"
        assert len(dump) == 2 + 6  # header + N+1 rows
        first = dump[1].split(",")
        assert first[0] == "0" and float(first[2]) == -2.0

    def test_solve_comp_writes_trajectory(self, tmp_path):
        out = tmp_path / "solvec"
        res = invoke(["solve-comp", "--out", str(out)] + FAST)
        assert res.exit_code == 0, res.output
        dump = (out / "trajectory_comp-proposed.csv").read_text().splitlines()
        assert dump[0] == "n,t,x1,y1,x2,y2,rho_E1,rho_E2,rho_I,Q1,Q2"

    def test_solve_comp_separation_wider_than_device_span(self, tmp_path):
        # The joint charging-pair search once spanned D/2 + H = 1 m either
        # side, too narrow for a 3 m separation: the command exited 2.
        res = invoke(["solve-comp", "--out", str(tmp_path / "wide"),
                      "--set", "device_distance_m=1", "--set", "altitude_m=0.5",
                      "--set", "min_separation_m=3", "--set", "num_slots=10"])
        assert res.exit_code == 0, res.output

    def test_benchmark_direct_both(self, tmp_path):
        out = tmp_path / "bench"
        res = invoke(["benchmark-direct", "--out", str(out)] + FAST)
        assert res.exit_code == 0, res.output
        body = (out / "results.csv").read_text()
        assert "ic-direct" in body and "comp-direct" in body

    def test_sweep_t_rows_ordered(self, tmp_path):
        out = tmp_path / "sweep"
        res = invoke(["sweep-T", "--values", "2,3", "--out", str(out)] + FAST[2:])
        assert res.exit_code == 0, res.output
        rows = (out / "results.csv").read_text().strip().splitlines()[1:]
        sweep_vals = [float(r.split(",")[0]) for r in rows]
        assert sweep_vals == sorted(sweep_vals)
        assert len(rows) == 2 * 6  # six designs per point
        labels = [r.split(",")[1] for r in rows]
        assert labels == 2 * ["ic-proposed", "comp-proposed", "ic-direct",
                              "comp-direct", "ic-bound", "comp-bound"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sweep_key"] == "mission_s"

    def test_sweep_values_must_increase(self, tmp_path):
        res = invoke(["sweep-D", "--values", "10,5", "--out", str(tmp_path / "x")])
        assert res.exit_code == 1

    def test_csv_bytes_reproducible(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = invoke(["sweep-T", "--values", "2,2.5", "--out", str(out),
                          "--seed", "3"] + FAST[2:])
            assert res.exit_code == 0, res.output
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_parallel_jobs_reproduce_serial_csv(self, tmp_path):
        outs = []
        for name, jobs in (("serial", "1"), ("parallel", "2")):
            out = tmp_path / name
            res = invoke(["sweep-T", "--values", "2,2.5", "--out", str(out),
                          "--jobs", jobs] + FAST[2:])
            assert res.exit_code == 0, res.output
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_fresh_processes_pin_blas_and_reproduce_serial_csv(self, tmp_path):
        # With no BLAS thread count in the environment, the command's process
        # pins one thread before numpy loads, and so do its pool workers: a
        # sweep writes the same results.csv serially and on two workers.
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        probe = subprocess.run(
            [sys.executable, "-c", "import os, wpcn_traj; "
             f"print(*(os.environ[v] for v in {BLAS_VARS!r}))"],
            env=env, check=True, capture_output=True, text=True)
        assert probe.stdout.split() == ["1", "1", "1"]
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            subprocess.run([sys.executable, "-m", "wpcn_traj.cli", "sweep-T", "--values", "2,2.5",
                            "--out", str(out), "--jobs", jobs] + FAST[2:],
                           env=env, check=True, capture_output=True)
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_results_do_not_depend_on_blas_threads(self, tmp_path):
        # The same sweep under one and under two BLAS threads writes the same
        # results.csv, byte for byte.
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, **dict.fromkeys(BLAS_VARS, threads))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
            out = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-m", "wpcn_traj.cli", "sweep-T", "--values",
                            "2,4,10", "--out", str(out), "--set", "num_slots=40",
                            "--set", "tau_grid=80"], env=env, check=True, capture_output=True)
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_verify_bound_emits_rows(self, tmp_path):
        out = tmp_path / "vb"
        res = invoke(["verify-bound", "--out", str(out), "--seed", "1",
                      "--set", "mc_cases=4", "--set", "mc_samples=4000"])
        # The closed-form expression is not a true bound at asymmetric
        # geometries, so a nonzero exit (solver-failure code) is legitimate;
        # the rows must exist and be honest either way.
        assert res.exit_code in (0, 2), res.output
        lines = (out / "verify_bound.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["case", "x1", "y1"]
        assert len(lines) == 1 + 2 * 4
        flags = {r.split(",")[-1] for r in lines[1:]}
        assert flags <= {"0", "1"}
