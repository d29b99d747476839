"""Solvers for a two-UAV, two-device wireless-powered communication network:
closed-form infinite-horizon hovering solutions and finite-horizon alternating
optimization of trajectories, time allocation and transmit powers, for both
the interference-coordination and the joint transmission/reception modes.

Imported before numpy, as the `wpcn-traj` command imports it, the package
pins BLAS to one thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS, each unless the environment sets it), so the command and
its pool workers run alike for any `--jobs`, and the solvers' small
factorizations run faster on one thread.  The results did not depend on the
thread count where it was measured: `results.csv` of `sweep-T` and
`sweep-D` runs came out byte-identical under 1, 2 and 4 threads (a test
compares 1 and 2)."""

import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from .model import (AllocationCoMP, AllocationIC, ConfigError, ScenarioConfig,
                    Trajectory, channel_gain, common_throughput,
                    comp_rate_upper_bound, db_to_linear, dbm_to_watt,
                    feasibility_report, gain_matrix, is_feasible, sinr_ic,
                    watt_to_dbm)
from .hover_ic import (HoverSolutionIC, WitMode, solve_infinite_ic,
                       wit_mode1_hover, wit_mode2_rate, wpt_hover_ic)
from .hover_comp import (EmptyFeasibleGrid, HoverSolutionCoMP,
                         solve_infinite_comp, wit_hover_comp, wpt_hover_comp)
from .kernel import Problem, SolveOutcome, StartInfeasible, Status, solve_concave
from .mc import McEstimate, sample_zf_rate
from .sca_ic import (Initialization, SolveReport,
                     direct_flight_trajectory, optimize_power_ic,
                     optimize_time_ic, optimize_traj_ic, solve_p1,
                     solve_p1_direct)
from .sca_comp import (SlackState, optimize_power_comp, optimize_time_comp,
                       optimize_traj_comp, solve_p21, solve_p21_direct)

__version__ = "0.1.0"
