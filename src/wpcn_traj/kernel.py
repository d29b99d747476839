"""Structured interior-point solver for the per-iteration subproblems.

One Newton engine serves the subproblems the alternating solvers emit.
Every one is a max-min in epigraph form: maximize the last variable, the
common rate R, subject to concave rate rows, energy rows and convex
quadratic geometry rows.  The time allocation is such a program with affine
rows only.  Each is solved from a strictly feasible start its caller
supplies, with the fixed settings below, and everything is deterministic:
identical problem and start give bit-identical outcomes.

A solve ends once its gap is within GAP_ABS + GAP_REL |R|.  It gets there by
Mehrotra predictor-corrector iterations (Mehrotra, SIAM J. Optim. 1992;
Wright, Primal-Dual Interior-Point Methods, 1997) from the caller's start,
each factoring the Newton matrix sum_i lambda_i grad^2 g_i + G^T
diag(lambda/s) G once, with Mehrotra's sigma safeguarded on curved rows
(Salahi, Peng and Terlaky, SIAM J. Optim. 2007).  On rows with square or
pair terms the start duals are floored and the primal step is cut at the
exact quadratic slack (`_predictor_corrector`).  The iterations stop on
one test: their own gap, s^T lambda <= m / t_f with t_f the first weight
t0 MU^k at which the barrier's gap m / t_f is within that tolerance, and,
on programs with log, square or pair rows, the largest entry of their dual
residual within DUAL_RESIDUAL_TOL.  The iterate they stop at is the
outcome, certified by that test: a time LP, every row affine, by its gap
alone.  Iterations that lose their way run once more from the start,
opening with pure centering; a solve whose restart loses its way too
returns its start as MAX_ITER.

Rows are stored sparsely, and every subproblem is slot-structured: each
slot's rows couple only its own few variables, while a handful of dense rows
(the rate rows and the energy or budget rows) couple everything.  The Newton
step uses that.  A row is dense when its k nonzeros exceed sqrt(n), or
when it holds the epigraph column beside another variable; the other rows
and every row's curvature form a banded matrix once the variables are put
in reverse Cuthill-McKee order.  That matrix is factored by LAPACK's
banded Cholesky `dpbtrf`, and each dense row is added to the factor as a
positive rank-one update kept in product form (method C1 of Gill, Golub,
Murray and Saunders, "Methods for modifying matrix factorizations", Math.
Comp. 1974; its use for dense rows of interior-point systems is Goldfarb
and Scheinberg, Math. Prog. 2004), whose vectors are stored once per
factorization, the back sweep's reversed.  A step then costs O(n) for a
bounded bandwidth.  Below a crossover in n the one dense factorization of
the whole Hessian is faster, and that is used instead.  On both paths the
log groups of all rows are evaluated at once, in one stacked evaluation per
kind.

Compiling a program (`_Layout`) splits it in two.  Its shape, which rows
hold which terms once zero coefficients are dropped and which path its n
takes, fixes the gradient pattern, the band and dense split and the
variable order (`_Shape`).  The alternating solvers emit the same few
shapes pass after pass, so a shape is compiled once and kept in a small
cache of the shapes used last; each program then only lays its constants,
coefficients and log groups on it.  A shape is a function of its cache key
alone, so the cache changes no result.

The duals start central for the weight t0 = clip(t*, 1, START_WEIGHT_MAX),
lambda = 1/(t0 s), where t* = e^T H^-1 grad phi / e^T H^-1 e (phi =
-sum(ln s), H its Hessian, e the epigraph column) minimizes the start's
Newton decrement ||grad phi - t e|| in the H^-1 norm (Boyd and
Vandenberghe, Convex Optimization, 11.3.1): the weight at which the start
is most nearly central.  The callers' starts are warm, and a weight of 1
walks away from them; cold starts keep t = 1.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from enum import Enum
from itertools import groupby

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpotrf, dpotrs, dtbtrs
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee


class Status(Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"


class StartInfeasible(RuntimeError):
    """The supplied start point is not strictly feasible."""


# Interior-point settings, read when `solve_concave` runs.
MU = 10.0               # growth factor from the start weight to t_f
# Cap of the start weight: uncapped, the -100 dBm N = 6 coordination and
# N = 12 joint grids take 3,535 Newton systems instead of 3,628, all calls
# OPTIMAL, but coordination rates move by up to 3.4e-4 relative.
START_WEIGHT_MAX = 1e3
BACKTRACK = 0.5         # step shrink factor
GAP_ABS = 1e-9
GAP_REL = 1e-9
# Primal-dual iterations per run.  At 50, the first N = 500 coordination
# power step ran out at R = 3.9111380, a gap of 1.5e-8 short of its t_f.
MAX_PD_ITER = 100
# Pure centering iterations that open the run after one that lost its way.
# On the -80 dBm N = 6 grid block, 1 to 10 end all 186 kernel calls OPTIMAL,
# with rates within 5e-9 relative of one another.  At 1 both runs of the
# one-slot power step of `test_no_interference_uses_full_budget` lose their
# way, and its power stays at the start.
RESTART_CENTERING = 5
# Start duals of rows with square or pair terms use slacks of at least this
# fraction of the median slack; floors of 1e-3 and 1e-2 left one or both
# N = 500 coordination trajectory programs past MAX_PD_ITER.
DUAL_FLOOR = 0.1
DUAL_RESIDUAL_TOL = 1e-6  # largest entry of r at which runs on curved programs stop
SIGMA_MIN = 0.1         # least centering of a primal-dual iteration on log rows
RECENTER_STEP = 0.9     # a shorter primal step on log rows is followed by pure centering
# Pure centering iterations in a row from which those of a program with square
# or pair terms take a second-order correction.  On the N = 6 and 12 grids,
# the short missions and the bench configs, two trajectory programs reach it:
# one of `solve_p21` at D = 30, T = 4, N = 12 (40 in a row, 1 correction)
# and one of `solve_p1` at -80 dBm, D = 5, T = 2, N = 40 (42, 3 corrections).
CORRECT_AFTER = 40
STEP_FRACTION = 0.99    # first-order cap: fraction of the step to the boundary
# Programs with fewer variables take the dense factorization.  With one BLAS
# thread, a structured primal-dual system costs 1.6 dense ones at n = 81
# (the acceptance config's time LPs and power steps), 1.11 for the time LPs
# and 1.00 for the power steps at n = 161 (direct flight, N = 80), 0.56 at
# n = 241 (the joint time LPs there) and 0.31 at n = 201 and 397
# (coordination, N = 100); forced on every program, it took the N = 6
# coordination grid from 0.59 to 1.31 s per pass and the N = 12 joint grid
# from 0.16 to 0.29 s.
STRUCTURED_MIN_N = 150


@dataclass(frozen=True)
class SolveOutcome:
    x: np.ndarray
    objective: float
    status: Status
    iterations: int
    residuals: dict


# ---------------------------------------------------------------------------
# Structured expression pieces
# ---------------------------------------------------------------------------

@dataclass
class LogGroup:
    """sum_j w_j * ln(off_j + C[j] . x[idx[j]]) with w_j > 0."""

    idx: np.ndarray      # (J, k) int
    coeffs: np.ndarray   # (J, k)
    offsets: np.ndarray  # (J,)
    weights: np.ndarray  # (J,)

    def __post_init__(self):
        self.idx = np.atleast_2d(np.asarray(self.idx, dtype=int))
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        self.offsets = np.broadcast_to(self.offsets, len(self.idx)).astype(float)
        self.weights = np.broadcast_to(self.weights, len(self.idx)).astype(float)
        if np.any(self.weights <= 0.0):
            raise ValueError("log weights must be positive")

    def args(self, x: np.ndarray) -> np.ndarray:
        return self.offsets + (self.coeffs * x[self.idx]).sum(axis=1)

    def value(self, x: np.ndarray) -> float:
        v = self.args(x)
        if np.any(v <= 0.0):
            return -np.inf
        return float(self.terms(v).sum())

    def terms(self, v: np.ndarray) -> np.ndarray:
        """Each term at its argument v > 0."""
        return self.weights * np.log(v)

    def slopes(self, v: np.ndarray):
        """First derivative and negated second derivative of each term in its
        argument v."""
        d1 = self.weights / v
        return d1, d1 / v


@dataclass
class NegLogGroup(LogGroup):
    """sum_j -w_j * ln(base_j + scale_j / v_j),  v_j = off_j + C[j] . x[idx[j]].

    Concave and increasing in each v_j for v_j > 0 (base > 0, scale >= 0);
    the standard interference-rate term of the trajectory surrogates.
    """

    bases: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.bases = np.broadcast_to(self.bases, len(self.idx)).astype(float)
        self.scales = np.broadcast_to(self.scales, len(self.idx)).astype(float)
        if np.any(self.bases <= 0.0) or np.any(self.scales < 0.0):
            raise ValueError("need bases > 0, scales >= 0")

    def terms(self, v: np.ndarray) -> np.ndarray:
        return -(self.weights * np.log(self.bases + self.scales / v))

    def slopes(self, v: np.ndarray):
        """First derivative and negated second derivative of each term in its
        argument v."""
        p = self.bases * v**2 + self.scales * v
        ws = self.weights * self.scales
        return ws / p, ws * (2.0 * self.bases * v + self.scales) / p**2


def _rows_of(idx, *values):
    """Row-major (rows, k) int index array and float arrays of the same shape;
    a 1-D idx is one row."""
    idx = np.atleast_2d(np.asarray(idx, dtype=int))
    return (idx,) + tuple(np.broadcast_to(np.asarray(v, dtype=float), idx.shape)
                          for v in values)


class Problem:
    """Maximize the last of n variables (the epigraph variable) over affine,
    convex-quadratic and concave-form rows, each stored by its nonzeros.

    Every row is kept in the form g(x) <= 0 as a constant plus linear terms
    c * x[j], square terms c * x[j]^2 and pair terms (x[a] - x[b])^2, and a
    concave row also carries log groups.  `slacks` lists the rows in the
    order they were added.
    """

    def __init__(self, n: int):
        self.n = n
        self.num_rows = 0
        self._const: list = []
        self._lin: list = []     # (rows, cols, coefs): g += coef * x[col]
        self._sq: list = []      # (rows, cols, coefs): g += coef * x[col]^2
        self._pair: list = []    # (rows, a, b):        g += (x[a] - x[b])^2
        self._groups: list = []  # (row, group):        g -= group.value(x)
        self._layout = None

    # -- construction -------------------------------------------------------
    def _new_rows(self, g_const) -> np.ndarray:
        g_const = np.atleast_1d(np.asarray(g_const, dtype=float))
        rows = self.num_rows + np.arange(g_const.size)
        self.num_rows += g_const.size
        self._const.append(g_const)
        self._layout = None
        return rows

    def _terms(self, store: list, rows, idx, coef) -> None:
        keep = coef != 0.0
        store.append((np.broadcast_to(rows[:, None], idx.shape)[keep], idx[keep], coef[keep]))

    def add_affine(self, idx, coef, rhs) -> None:
        """Add rows coef[r] . x[idx[r]] <= rhs[r] (idx and coef (rows, k), or
        (k,) for one row)."""
        idx, coef = _rows_of(idx, coef)
        self._terms(self._lin, self._new_rows(-np.asarray(rhs, dtype=float)), idx, coef)

    def add_bounds(self, idx) -> None:
        """Add rows x[idx] >= 0."""
        idx = np.atleast_1d(np.asarray(idx, dtype=int))
        rows = self._new_rows(np.zeros(idx.size))
        self._lin.append((rows, idx, np.full(idx.size, -1.0)))

    def add_quad(self, idx, diag, lin, const) -> None:
        """Add diagonal convex quadratic rows
        0.5 diag[r] . x[idx[r]]^2 + lin[r] . x[idx[r]] + const[r] <= 0
        (diag >= 0; idx, diag and lin (rows, k), or (k,) for one row)."""
        idx, diag, lin = _rows_of(idx, diag, lin)
        rows = self._new_rows(const)
        self._terms(self._sq, rows, idx, 0.5 * diag)
        self._terms(self._lin, rows, idx, lin)

    def add_pair_step(self, idx, const) -> None:
        """Add squared pair-difference rows
        ||x[idx[r, :2]] - x[idx[r, 2:]]||^2 + const[r] <= 0 (idx (rows, 4))."""
        idx = np.atleast_2d(np.asarray(idx, dtype=int))
        rows = np.repeat(self._new_rows(const), 2)
        self._pair.append((rows, idx[:, :2].reshape(-1), idx[:, 2:].reshape(-1)))

    def add_concave_ge(self, idx=(), lin=(), diag_neg=None, const: float = 0.0,
                       logs=(), neglogs=()) -> None:
        """Add one concave row F(x) >= 0 with F = const + lin . x[idx]
        - 0.5 diag_neg . x[idx]^2 + sum(logs) + sum(neglogs), diag_neg >= 0."""
        row = self._new_rows(-const)
        idx = np.asarray(idx, dtype=int)[None, :]
        self._terms(self._lin, row, idx, -np.asarray(lin, dtype=float)[None, :])
        if diag_neg is not None:
            self._terms(self._sq, row, idx, 0.5 * np.asarray(diag_neg, dtype=float)[None, :])
        self._groups.extend((int(row[0]), grp) for grp in (*logs, *neglogs))

    # -- evaluation ---------------------------------------------------------
    def _compiled(self) -> "_Layout":
        if self._layout is None:
            self._layout = _Layout(self)
        return self._layout

    def slacks(self, x: np.ndarray) -> np.ndarray:
        """Slack -g(x) of every row, in the order the rows were added; any
        non-positive entry means infeasible."""
        return self._compiled().slacks(x)


def _columns(parts: list, dtypes) -> tuple:
    """Each column of a list of array tuples, concatenated."""
    return tuple(np.concatenate([p[i] for p in parts]) if parts else np.zeros(0, t)
                 for i, t in enumerate(dtypes))


class _Shape:
    """What compiling a `Problem` computes from its shape alone: which
    terms each row holds once zero coefficients are dropped, and which
    factorization path its n takes.  That is the sparsity pattern of the
    row gradients and the Newton system's split into a band part and dense
    rows, with the variable order and storage positions of each Hessian
    entry.  Its arrays are read-only: one shape serves every program that
    has it (`_shape_of`)."""

    def __init__(self, n, m, structured, lin_r, lin_c, sq_r, sq_c, pr_r, pr_a, pr_b, groups):
        self.n, self.m, self.structured = n, m, structured
        self.lin_c, self.sq_r, self.sq_c = lin_c, sq_r, sq_c
        self.pr_r, self.pr_a, self.pr_b = pr_r, pr_a, pr_b
        # The row of every linear, square and pair term, in the order
        # `slacks` lists their values.
        self.term_rows = np.concatenate((lin_r, sq_r, pr_r))

        # Each run of consecutive log groups of one kind (class and term width)
        # is stacked into one group, evaluated with one gather and one `args`;
        # rows and shared Hessian entries sum the values in group order.  A
        # run is (class, its first and end group, its terms' rows, each
        # group's span of terms, the stacked idx).
        self.grp_rows = np.array([r for r, _ in groups], int)
        self.runs = []
        first = 0
        for (cls, _), run in groupby(groups, lambda rg: (type(rg[1]), rg[1].idx.shape[1])):
            rows, gs = zip(*run)
            terms = [g.idx.shape[0] for g in gs]
            ends = np.cumsum(terms)
            spans = list(zip((ends - terms).tolist(), ends.tolist()))
            self.runs.append((cls, first, first + len(gs), np.repeat(rows, terms), spans,
                              np.concatenate([g.idx for g in gs])))
            first += len(gs)
        stacked = [run[-1] for run in self.runs]

        # Gradient pattern: one slot per distinct (row, column), rows in order.
        rows = np.concatenate([lin_r, sq_r, pr_r, pr_r]
                              + [np.repeat(r, idx.shape[1]) for *_, r, _, idx in self.runs])
        cols = np.concatenate([lin_c, sq_c, pr_a, pr_b] + [idx.ravel() for idx in stacked])
        keys, self.g_slot = np.unique(rows * n + cols, return_inverse=True)
        self.pat_row, self.pat_col = np.divmod(keys, n)
        self.nnz = keys.size
        support = np.bincount(self.pat_row, minlength=m)
        starts = np.cumsum(support) - support

        # Curvature entries (i, j), in the order `derivatives` lists their
        # values: square terms, pair terms, then each log group's blocks.
        ci = np.concatenate([sq_c, pr_a, pr_b, pr_a, pr_b]
                            + [np.repeat(idx, idx.shape[1], axis=1).ravel() for idx in stacked])
        cj = np.concatenate([sq_c, pr_a, pr_b, pr_b, pr_a]
                            + [np.tile(idx, (1, idx.shape[1])).ravel() for idx in stacked])

        # A row with more than sqrt(n) nonzeros, or holding the epigraph
        # column beside another variable, is a dense row, added as a
        # rank-one term; the band part holds every curvature and the other
        # rows.  On the structured path the variables are in reverse
        # Cuthill-McKee order of that band, the epigraph column last, where a
        # zero pivot needs no special case in the updates.
        on_epigraph = np.zeros(m, bool)
        on_epigraph[self.pat_row[self.pat_col == n - 1]] = True
        dense = (support**2 > n) | (on_epigraph & (support > 1))
        a, b = self._row_pairs(~dense, support, starts)
        self.op_a, self.op_b, self.op_row = a, b, self.pat_row[a]
        hi = np.concatenate((self.pat_col[a], ci))
        hj = np.concatenate((self.pat_col[b], cj))

        dense_rows = np.flatnonzero(dense)
        self.k = dense_rows.size
        rank = np.zeros(m, int)
        rank[dense_rows] = np.arange(self.k)
        self.dz = np.flatnonzero(dense[self.pat_row])
        self.dz_row = self.pat_row[self.dz]
        if structured:
            pos = self._order(hi, hj)
            self.band = int(np.abs(pos[hi] - pos[hj]).max()) if hi.size else 0
            self.keep = np.flatnonzero(pos[hi] >= pos[hj])
            self.h_target = (pos[hi] - pos[hj])[self.keep] * n + pos[hj][self.keep]
            self.z_target = rank[self.dz_row] * n + pos[self.pat_col[self.dz]]
            self.pos, self.perm = pos, np.argsort(pos)
        else:
            self.keep = None
            self.h_target = hi * n + hj
            self.z_target = rank[self.dz_row] * n + self.pat_col[self.dz]

        # Rows with square or pair terms: their slacks along a step are
        # quadratic, and their start duals are floored.
        self.quad = np.zeros(m, bool)
        self.quad[sq_r] = self.quad[pr_r] = True
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    @staticmethod
    def _row_pairs(select, support, starts):
        """Pattern-slot pairs (a, b) covering every ordered pair of nonzeros
        within each selected row."""
        rows = np.flatnonzero(select)
        k = support[rows]
        first = np.repeat(starts[rows], k)
        slots = first + np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
        reps = np.repeat(k, k)
        a = np.repeat(slots, reps)
        b = np.repeat(first, reps) + (np.arange(reps.sum())
                                      - np.repeat(np.cumsum(reps) - reps, reps))
        return a, b

    def _order(self, hi, hj) -> np.ndarray:
        """Position of every variable: reverse Cuthill-McKee order of the
        graph of (hi, hj) over all variables but the last, which comes last."""
        n = self.n
        pos = np.arange(n)
        inner = (hi < n - 1) & (hj < n - 1) & (hi != hj)
        if n > 2 and inner.any():
            graph = coo_matrix((np.ones(int(inner.sum())), (hi[inner], hj[inner])),
                               shape=(n - 1, n - 1)).tocsr()
            order = reverse_cuthill_mckee(graph, symmetric_mode=True)
            pos[order] = np.arange(n - 1)
        return pos


# Shapes compiled last, least recently used first.  An alternating solve
# emits the same few shapes pass after pass (about 20 distinct ones in a
# coordination solve's pass), and 8 of them serve 91% of its kernel calls.
_SHAPES: OrderedDict = OrderedDict()
_SHAPES_KEPT = 8


def _shape_of(n, m, lin_r, lin_c, sq_r, sq_c, pr_r, pr_a, pr_b, groups) -> _Shape:
    """The `_Shape` of these terms, from the cache when a program of equal
    term arrays, group rows, classes and index arrays and the same
    factorization path was compiled lately."""
    structured = n >= STRUCTURED_MIN_N
    ints = (lin_r, lin_c, sq_r, sq_c, pr_r, pr_a, pr_b)
    key = (n, m, structured, *(a.tobytes() for a in ints),
           tuple((r, type(g), g.idx.shape, g.idx.tobytes()) for r, g in groups))
    shape = _SHAPES.pop(key, None)
    if shape is None:
        shape = _Shape(n, m, structured, *ints, groups)
    _SHAPES[key] = shape
    if len(_SHAPES) > _SHAPES_KEPT:
        _SHAPES.popitem(last=False)
    return shape


class _Layout:
    """A `Problem` compiled for evaluation: its `_Shape`, whose attributes
    are the layout's too, and its values laid out on it: the constants,
    the term coefficients and the stacked log groups."""

    def __init__(self, p: Problem):
        lin_r, lin_c, self.lin_v = _columns(p._lin, (int, int, float))
        sq_r, sq_c, self.sq_v = _columns(p._sq, (int, int, float))
        shape = _shape_of(p.n, p.num_rows, lin_r, lin_c, sq_r, sq_c,
                          *_columns(p._pair, (int, int, int)), p._groups)
        vars(self).update(vars(shape))
        self.neg_const = -(np.concatenate(p._const) if p._const else np.zeros(0))
        self.groups = p._groups
        self.stacks = []
        for cls, first, end, rows, spans, idx in shape.runs:
            gs = [g for _, g in self.groups[first:end]]   # each validated when built
            vars(grp := object.__new__(cls)).update(idx=idx, **{f.name: np.concatenate(
                [getattr(g, f.name) for g in gs]) for f in fields(cls) if f.name != "idx"})
            k = idx.shape[1]
            outer = (grp.coeffs[:, :, None] * grp.coeffs[:, None, :]).reshape(-1, k * k)
            self.stacks.append((grp, rows, spans, outer))

    # -- per-step evaluation --------------------------------------------------
    def slacks(self, x: np.ndarray) -> np.ndarray:
        vals = np.concatenate((self.lin_v * x[self.lin_c], self.sq_v * x[self.sq_c] ** 2,
                               (x[self.pr_a] - x[self.pr_b]) ** 2))
        s = self.neg_const - np.bincount(self.term_rows, vals, minlength=self.m)
        if self.stacks:
            # Each group's sum as `LogGroup.value` takes it, -inf off its domain.
            sums = []
            for grp, _, spans, _ in self.stacks:
                v = grp.args(x)
                bad = v <= 0.0
                t = grp.terms(np.where(bad, 1.0, v))
                t[bad] = -np.inf
                sums += [t[a:b].sum() for a, b in spans]
            np.add.at(s, self.grp_rows, sums)
        return s

    def derivatives(self, x: np.ndarray, w: np.ndarray, c: np.ndarray):
        """Row-gradient values on the pattern, and the values of the band
        part of the Newton matrix sum_i c_i grad^2 g_i + G^T diag(w^2) G at
        each of its storage entries: the barrier Hessian for w = c = 1/s,
        the primal-dual matrix for w = sqrt(lambda/s) and c = lambda."""
        gvals, curv = [self.lin_v], []
        if self.sq_c.size:
            gvals.append(2.0 * self.sq_v * x[self.sq_c])
            curv.append(2.0 * self.sq_v * c[self.sq_r])
        if self.pr_r.size:
            diff, cp = 2.0 * (x[self.pr_a] - x[self.pr_b]), 2.0 * c[self.pr_r]
            gvals += [diff, -diff]
            curv += [cp, cp, -cp, -cp]
        for grp, rows, _, outer in self.stacks:
            d1, d2 = grp.slopes(grp.args(x))
            gvals.append(-(d1[:, None] * grp.coeffs).ravel())
            curv.append(((c[rows] * d2)[:, None] * outer).ravel())
        gv = np.bincount(self.g_slot, np.concatenate(gvals), minlength=self.nnz)
        hv = np.concatenate([w[self.op_row] ** 2 * gv[self.op_a] * gv[self.op_b]] + curv)
        return gv, (hv if self.keep is None else hv[self.keep])

    def gradient(self, gv: np.ndarray, inv_s: np.ndarray) -> np.ndarray:
        """Gradient of -sum(log s)."""
        return np.bincount(self.pat_col, gv * inv_s[self.pat_row], minlength=self.n)

    def row_dot(self, gv: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Directional derivative of every row, G d."""
        return np.bincount(self.pat_row, gv * d[self.pat_col], minlength=self.m)

    def curvature(self, d: np.ndarray) -> np.ndarray:
        """Every row's q with g(x + a d) = g(x) + a G d + a^2 q on rows of
        square, pair and affine terms: sum sq_v d_c^2 + sum (d_a - d_b)^2."""
        return np.bincount(np.concatenate((self.sq_r, self.pr_r)),
                           np.concatenate((self.sq_v * d[self.sq_c] ** 2,
                                           (d[self.pr_a] - d[self.pr_b]) ** 2)), minlength=self.m)

    def factor(self, gv: np.ndarray, hv: np.ndarray, w: np.ndarray):
        """Factor the band part plus the dense rows' z z^T, z a dense row's
        gradient times its weight w, and return the function that solves
        with it.  The start weight's barrier Hessian weights rows by 1/s,
        the primal-dual iterations by sqrt(lambda/s)."""
        n, k = self.n, self.k
        Z = np.bincount(self.z_target, gv[self.dz] * w[self.dz_row],
                        minlength=k * n).reshape(k, n)
        if not self.structured:
            H = np.bincount(self.h_target, hv, minlength=n * n).reshape(n, n)
            if k:
                H += Z.T @ Z
            return _factor_spd(H)
        ab = np.bincount(self.h_target, hv, minlength=(self.band + 1) * n).reshape(-1, n)
        solve = _factor_band_updates(ab, Z)
        return lambda rhs: solve(rhs[self.perm])[self.pos]


# ---------------------------------------------------------------------------
# Newton systems
# ---------------------------------------------------------------------------

def _damped(solve):
    """Call solve(damp) with damp = 0, then with a growing diagonal shift of
    the equilibrated matrix until it factorizes."""
    damp = 0.0
    for _ in range(40):
        try:
            return solve(damp)
        except np.linalg.LinAlgError:
            damp = 1e-12 if damp == 0.0 else damp * 10.0
    raise np.linalg.LinAlgError("Newton matrix could not be factorized")


def _factor_spd(H: np.ndarray):
    """Factor H and return the function that solves with it."""
    # Jacobi equilibration keeps the factorization well-scaled; the Newton
    # matrix mixes position, slack and epigraph blocks of wildly different
    # magnitudes.
    d = np.sqrt(np.maximum(H.diagonal(), 1e-300))
    inv_d = 1.0 / d
    Hs = H * inv_d[:, None] * inv_d[None, :]

    def factor(damp):
        M = Hs if damp == 0.0 else Hs + damp * np.eye(Hs.shape[0])
        L, info = dpotrf(M, lower=1, clean=0)
        if info:
            raise np.linalg.LinAlgError("Newton matrix is not positive definite")
        return L

    L = _damped(factor)
    return lambda g: dpotrs(L, g * inv_d, lower=1)[0] * inv_d


def _factor_band_updates(ab: np.ndarray, Z: np.ndarray):
    """Factor B + Z^T Z, B symmetric banded in lower storage (ab[r, j] =
    B[j + r, j], zero past the last row), with the same Jacobi equilibration
    and damping as `_factor_spd`, and return the function that solves with
    it.  Each solve takes one step of iterative refinement against the
    undamped matrix: with the dense rows dominating B, the product form
    alone left residuals up to ~500 times the dense factorization's on
    captured time-LP steps, and one refinement step removes that gap.  The
    scaling and the refinement's B x run over the diagonals r = 0, 1, ...
    in turn, on slices of ab.  ab is scaled in place."""
    rows, n = ab.shape
    diag = ab[0] + np.einsum("kn,kn->n", Z, Z)
    inv_d = 1.0 / np.sqrt(np.maximum(diag, 1e-300))
    Bs = ab
    Bs *= inv_d
    for r in range(rows):
        Bs[r, :n - r] *= inv_d[r:]
    Zs = Z * inv_d
    solve = _damped(lambda damp: _band_factor(Bs, Zs, damp))

    def solve_refined(g: np.ndarray) -> np.ndarray:
        gs = g * inv_d
        x = solve(gs)
        # B x = lower + strict upper part, each entry summed over r in order.
        lower, upper = Bs[0] * x, np.zeros(n)
        for r in range(1, rows):
            lower[r:] += Bs[r, :n - r] * x[:n - r]
            upper[:n - r] += Bs[r, :n - r] * x[r:]
        res = gs - lower - upper - Zs.T @ (Zs @ x)
        return (x + solve(res)) * inv_d

    return solve_refined


def _band_factor(B: np.ndarray, Z: np.ndarray, damp: float):
    """Factor B + damp I + Z^T Z and return the function that solves with it.

    B + damp I = L D L^T is factored by LAPACK's `dpbtrf` (L unit lower).
    Each row z of Z then updates D + p p^T = Lt Dbar Lt^T, with p the
    forward-solved z and Lt = I + tril(p beta^T, -1), beta_j = p_j/(d_j t_j),
    t_j = 1 + sum_{i<=j} p_i^2 / d_i (method C1).  Lt is never formed: a
    solve with it is a prefix sum, and the back sweep's vectors are stored
    reversed once per factorization.  Only the last pivot may be zero (an
    epigraph column no band row touches), and the recurrences never divide
    by it."""
    k, n = Z.shape
    M = np.array(B, order="F")
    M[0] += damp
    cut = n - 1 if M[0, -1] == 0.0 else n
    L, info = dpbtrf(M[:, :cut], lower=1, overwrite_ab=1)
    if info:
        raise np.linalg.LinAlgError("band part is not positive definite")
    d = np.zeros(n)
    d[:cut] = L[0] ** 2
    L[1:] /= L[0]           # dtbtrs with diag="U" never reads L[0]
    # Row i of P is the i-th update's p once the updates before it apply.
    # (dtbtrs corrupts the heap when given no right-hand sides.)
    P = Z.copy()
    if k:
        P[:, :cut] = dtbtrs(L, P[:, :cut].T, uplo="L", diag="U")[0].T
    PD, PT, T = np.empty((k, n - 1)), np.empty((k, n - 1)), np.ones((k, n))
    for i, (p, pd, pt, t) in enumerate(zip(P, PD, PT, T)):
        np.divide(p[:-1], d[:-1], out=pd)
        np.add.accumulate(p[:-1] * pd, out=t[1:])
        t[1:] += 1.0
        d += p * p / t
        np.divide(p[1:], t[1:], out=pt)
        if i + 1 < k:
            P[i + 1:, 1:] -= pt * np.add.accumulate(pd * P[i + 1:, :-1], axis=1)
    if not d[-1] > 0.0:
        raise np.linalg.LinAlgError("singular Newton matrix")
    # The back sweep runs the updates last to first, each from the end.
    back = (PD[::-1], P[::-1, :0:-1].copy(), 1.0 / T[::-1, :0:-1])

    def solve(g: np.ndarray) -> np.ndarray:
        y = g.copy()
        y[:cut] = dtbtrs(L, y[:cut], uplo="L", diag="U")[0]
        head, tail, tail_rev = y[:-1], y[1:], y[:0:-1]
        for pd, pt in zip(PD, PT):
            tail -= pt * np.add.accumulate(pd * head)
        y /= d
        for pd, p_rev, inv_t_rev in zip(*back):
            head -= pd * np.add.accumulate(p_rev * tail_rev * inv_t_rev)[::-1]
        y[:cut] = dtbtrs(L, y[:cut], uplo="L", trans="T", diag="U")[0]
        return y

    return solve


# ---------------------------------------------------------------------------
# Primal-dual engine
# ---------------------------------------------------------------------------

def _last_weight(t: float, m: int, R: float) -> float:
    """t_f from t: the first t MU^k whose barrier gap m / t_f is within
    GAP_ABS + GAP_REL |R|."""
    while m / t > GAP_ABS + GAP_REL * abs(R):
        t *= MU
    return t


def _boundary_step(v: np.ndarray, dv: np.ndarray, frac: float, curv=None) -> float:
    """frac times the step to the boundary of v + a dv - a^2 curv > 0
    (curv >= 0, zero if None), at most 1.  Only entries that the step
    1 / frac takes past the boundary can bind (with curv None, the test
    keeps all that the full step uses up by more than half); skipping the
    others keeps v / dv from overflowing.  The root
    2 v / (sqrt(dv^2 + 4 curv v) - dv) is taken without cancellation."""
    if curv is None:
        # The largest v / dv over those entries is minus their least v / -dv.
        ratio = np.divide(v, dv, out=np.full(v.size, -np.inf), where=dv < -0.5 * v)
        return min(1.0, -frac * float(ratio.max(initial=-np.inf)))
    near = v + dv / frac - curv / frac**2 <= 0.0
    if not near.any():
        return 1.0
    v, dv, c = v[near], dv[near], curv[near]
    p = np.sqrt(dv * dv + 4.0 * c * v) + np.abs(dv)
    return min(1.0, frac * float((2.0 * v / np.where(dv > 0.0, 4.0 * c * v / p, p)).min()))


def _predictor_corrector(lay: _Layout, x: np.ndarray, s: np.ndarray, t0: float,
                         gv: np.ndarray, solve0, w: np.ndarray, centering: int):
    """Mehrotra predictor-corrector iterations on the rows g(x) + s = 0
    (Wright, Primal-Dual Interior-Point Methods, 1997, ch. 10) from the
    caller's strictly feasible start x, with slacks s and the duals
    lambda = 1/(t0 s), on rows with square or pair terms
    1/(t0 max(s, DUAL_FLOOR median(s))).  Each iteration factors the Newton
    matrix sum_i lambda_i grad^2 g_i + G^T diag(lambda/s) G once and solves
    with it twice: the affine-scaling predictor H^-1 e, then the corrector
    H^-1 (e - G^T (target/s)) toward sigma mu with sigma = (mu_aff/mu)^3,
    though not past the central point at t_f = `_last_weight`(t0, m, R) at
    the current R.  The primal iterate stays feasible; the duals may start
    infeasible.  With no floor applied, the matrix at the start duals is the
    barrier Hessian over t0, so the first iteration solves with its
    factorization `solve0` (gv its row gradients, w = solve0(e)) and
    factors nothing.

    A warm start leaves the trajectory programs' energy and speed rows at
    slacks of 1e-10 to 5e-7, where lambda_i = 1/(t0 s_i) makes
    lambda_i grad^2 g_i swamp the matrix and freeze the step.  Along dx
    such a row's slack is s + a ds - a^2 q, q from `_Layout.curvature` (an
    upper bound where the row also holds log groups), and the primal step
    takes its fraction to the boundary from that root, as s + a ds
    overshoots.  The 73 trajectory programs of the N = 6 coordination and
    N = 12 joint grids take 1,240 systems so.  Without the floor and the
    residual test below one ended 9.2e-4 below its optimum; flooring log
    and affine rows too made the power steps take 2,501 systems, not 1,680.
    Near an active speed row a centering direction can run along the row's
    tangent, where q cuts each step to about ds / q: one joint N = 12
    program took 96 pure centering iterations at steps near 0.006 and lost
    its way (175 systems).
    From the CORRECT_AFTER-th pure centering iteration in a row, each
    solves once more with the target raised by lambda q, aiming at the
    exact slacks s + ds - q (a second-order correction, Nocedal and Wright,
    Numerical Optimization, 2006, 15.4): that program ends in 47.  From the
    first one on, corrections moved the closed-loop rates by up to 3.5e-4.

    On curved rows the linearized slack change overshoots, so Mehrotra's
    sigma is safeguarded (Salahi, Peng and Terlaky, SIAM J. Optim. 2007):
    it is at least SIGMA_MIN, and an iteration whose accepted primal step
    was below RECENTER_STEP is followed by a pure centering one, sigma = 1.
    Without them the 123 power steps of the N = 6 coordination grid took
    9,771 Newton systems, not 2,149, and 3 ended MAX_ITER.  The time LPs go
    without them, which there cost 30% more systems.

    The iterations stop on one test: s^T lambda <= m / t_f, or a full step
    aimed at the central point at t_f, and on curved rows or a restart the
    largest entry of the dual residual r = e - sum_i lambda_i grad g_i at
    most DUAL_RESIDUAL_TOL besides, as a full dual step does not zero r
    there; r is evaluated once the gap test passes.  Time LPs stop on their
    gap alone, so they are certified by their gap, and ||r|| is reported but
    not bounded: with the residual test, one time LP of the N = 100, T = 10
    coordination solve passed its gap test at r = 1.2e-6, then took 43 full
    steps among 72 while r drifted to 3.2e-6, ran out of MAX_PD_ITER and
    restarted (126 systems, not 26).  They return (x, s, (lambda, ||r||),
    systems factored), ||r|| the largest entry of r there: the solve ends
    at that iterate.  When MAX_PD_ITER runs out first or the primal step
    collapses, they have lost their way and return their x and s arguments
    themselves and None.

    The caller then runs them once more from its start with `centering` =
    RESTART_CENTERING: the first `centering` iterations are pure centering
    ones (with no floor, the first is the barrier's Newton step at t0).
    Its dual step is never longer than its primal one: on the one-slot
    power step of `test_no_interference_uses_full_budget` full dual steps
    close the gap while backtracking cuts the primal ones to 1e-4, at R =
    4.854711, r = 1.4e5, short of the optimum 6.816230.  On the -80 dBm
    N = 6 block of `scripts/grid_rates.py` 31 of the 146 kernel calls, all
    power steps, lose their way, and every restart ends OPTIMAL."""
    m = lay.m
    x0, s0 = x, s
    quad = bool(lay.quad.any())
    safeguarded = bool(lay.stacks) or quad
    residual_stop = safeguarded or bool(centering)
    floor = DUAL_FLOOR * float(np.median(s)) if quad else 0.0
    floored = bool((lay.quad & (s < floor)).any())
    lam = 1.0 / (t0 * np.maximum(s, floor, where=lay.quad, out=s.copy()))
    e = np.zeros(lay.n)
    e[-1] = 1.0
    centered = False
    systems = recentered = 0
    for it in range(MAX_PD_ITER):
        own = it or floored
        t_f = _last_weight(t0, m, float(x[-1]))
        gap = float(s @ lam)
        if own:
            v = np.sqrt(lam / s)
            gv, hv = lay.derivatives(x, v, lam)
        if gap <= m / t_f or centered:
            residual = lay.gradient(gv, lam)
            residual[-1] -= 1.0
            r_max = float(np.abs(residual).max())
            if not residual_stop or r_max <= DUAL_RESIDUAL_TOL:
                return x, s, (lam, r_max), systems
        if own:
            solve = lay.factor(gv, hv, v)
            systems += 1
        else:
            def solve(rhs):
                return t0 * solve0(rhs)
        if recentered or it < centering:
            mu = target = max(gap / m, 1.0 / t_f)
        else:
            # Predictor: the affine-scaling direction, sigma = 0.
            dx = solve(e) if own else t0 * w
            ds = -lay.row_dot(gv, dx)
            dlam = -lam - lam / s * ds
            a_p, a_d = _boundary_step(s, ds, 1.0), _boundary_step(lam, dlam, 1.0)
            sigma = (float((s + a_p * ds) @ (lam + a_d * dlam)) / gap) ** 3
            if safeguarded:
                sigma = max(sigma, SIGMA_MIN)
            # Corrector, with the predictor's second-order term.
            mu = max(sigma * gap / m, 1.0 / t_f)
            target = mu - ds * dlam
        dx = solve(e - lay.gradient(gv, target / s))
        if quad and recentered >= CORRECT_AFTER:
            # Second-order correction: aim at the exact slacks s + ds - q.
            target = target + lam * lay.curvature(dx)
            dx = solve(e - lay.gradient(gv, target / s))
        ds = -lay.row_dot(gv, dx)
        dlam = (target - lam * ds) / s - lam
        a_p = _boundary_step(s, ds, STEP_FRACTION, lay.curvature(dx) if quad else None)
        a_d = _boundary_step(lam, dlam, STEP_FRACTION)
        while True:
            trial = x + a_p * dx
            s_try = lay.slacks(trial)
            if s_try.min() > 0.0:
                break
            a_p *= BACKTRACK
            if a_p < 1e-16:
                return x0, s0, None, systems
        if centering:
            a_d = min(a_d, a_p)    # a restart's duals follow x
        centered = mu == 1.0 / t_f and a_p == a_d == 1.0
        recentered = recentered + 1 if safeguarded and a_p < RECENTER_STEP else 0
        x, s, lam = trial, s_try, lam + a_d * dlam
    return x0, s0, None, systems


def _outcome(x: np.ndarray, status: Status, iterations: int, gap: float,
             stationarity: float) -> SolveOutcome:
    return SolveOutcome(x=x, objective=float(x[-1]), status=status, iterations=iterations,
                        residuals={"gap": gap, "stationarity": stationarity})


def solve_concave(problem: Problem, start) -> SolveOutcome:
    """Interior-point maximization of the last variable from a strictly
    feasible start.

    Primal-dual iterations (`_predictor_corrector`) from the start end the
    solve at a strictly feasible iterate.  Their outcome is OPTIMAL, with
    the gap s^T lambda and the largest entry of the dual residual
    e - sum_i lambda_i grad g_i as stationarity.  A program with log, square
    or pair rows, and any restarted solve, is certified by both: its gap
    and its stationarity within DUAL_RESIDUAL_TOL.  A time LP, every row
    affine, is certified by its gap alone; its stationarity is reported but
    not bounded.  When the iterations lose their way they run once more
    from the start, with the same start weight and its system, opening with
    RESTART_CENTERING pure centering iterations; when those lose their way
    too, the outcome is the start, MAX_ITER, with gap and stationarity inf.
    Slacks are evaluated at the start and once per primal-dual trial point.
    `iterations` counts the Newton systems factored after the start
    weight's, lost ones too.

    Raises StartInfeasible if any row slack at the start is not positive
    (NaN included).
    """
    x = np.asarray(start, dtype=float).copy()
    if x.shape != (problem.n,):
        raise ValueError(f"start must have shape ({problem.n},)")
    lay = problem._compiled()
    s = lay.slacks(x)
    bad = ~(s > 0.0)   # NaN slacks too
    if bad.any():
        raise StartInfeasible(f"start violates {int(bad.sum())} row(s); "
                              f"worst slack {s.min():.3e}")
    # Start weight t0 (module docstring): one Newton solve, w = H^-1 e.  Its
    # system serves the first iteration of both runs from the start.
    inv_s = 1.0 / s
    gv, hv = lay.derivatives(x, inv_s, inv_s)
    e = np.zeros(problem.n)
    e[-1] = 1.0
    solve = lay.factor(gv, hv, inv_s)
    w = solve(e)
    grad0 = lay.gradient(gv, inv_s)
    t = min(START_WEIGHT_MAX, max(1.0, float(w @ grad0) / float(w[-1])))
    systems = 0
    for centering in (0, RESTART_CENTERING):
        x_pd, s_pd, ended, used = _predictor_corrector(lay, x, s, t, gv, solve, w, centering)
        systems += used
        if ended:
            return _outcome(x_pd, Status.OPTIMAL, systems, float(s_pd @ ended[0]), ended[1])
    return _outcome(x, Status.MAX_ITER, systems, np.inf, np.inf)
