"""Property test of the whole pipeline, both cooperation modes, over small
random valid scenarios: every emitted solution is feasible, the objective
trace is monotone and the rate stays below the hovering bound."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpcn_traj import (is_feasible, solve_infinite_comp, solve_infinite_ic,
                       solve_p1, solve_p21)
from conftest import benchmark_config


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
# The separation stays below the 4 m between the default endpoints, and
# every duration covers their 0.8 s legs, so each draw is a valid config.
@given(num_slots=st.integers(1, 8), distance=st.floats(5.0, 30.0),
       duration=st.floats(2.0, 50.0), altitude=st.floats(0.3, 20.0),
       min_separation=st.floats(0.1, 3.9))
# Once emitted an energy shortfall of 1.5e-7 J in the coordination mode: the
# power step budgeted the active slots only, while a frozen power of 7.5e5 W
# on a slot with 1.8e-13 s of uplink still spent energy.
@example(num_slots=8, distance=10.0, duration=10.0, altitude=5.0, min_separation=1.0)
# Once raised EmptyFeasibleGrid in the joint mode: its charging-pair search
# spanned D/2 + H = 1 m either side, too narrow for the 3 m separation.
@example(num_slots=6, distance=1.0, duration=10.0, altitude=0.5, min_separation=3.0)
def test_solutions_feasible_monotone_below_hover_bound(num_slots, distance, duration,
                                                       altitude, min_separation):
    cfg = benchmark_config(device_distance=distance, duration=duration,
                           num_slots=num_slots, altitude=altitude,
                           min_separation=min_separation)
    for solve, solve_hover in ((solve_p1, solve_infinite_ic),
                               (solve_p21, solve_infinite_comp)):
        hover = solve_hover(cfg, tau_grid=150)
        rep = solve(cfg, hover=hover)
        assert is_feasible(cfg, rep.trajectory, rep.allocation)
        trace = rep.objective_trace
        assert np.all(trace[1:] >= trace[:-1] - 1e-12 * (1.0 + np.abs(trace[:-1])))
        assert rep.common_rate <= hover.common_rate
