"""Small dense structured convex solver for the per-iteration subproblems.

One log-barrier Newton engine serves the subproblems the alternating solvers
emit.  Every one is a max-min in epigraph form: maximize the last variable,
the common rate R, subject to concave rate rows, energy rows and convex
quadratic geometry rows.  The time allocation is such a program with affine
rows only.  Each is solved from a strictly feasible start its caller
supplies, with the fixed settings below.  Instances stay small (tens to a
few hundred variables), so dense factorizations are adequate, and everything
is deterministic: identical problem and start give bit-identical outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import cho_factor, cho_solve


class Status(Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"


class StartInfeasible(RuntimeError):
    """The supplied start point is not strictly feasible."""


# Barrier settings, read when `solve_concave` runs.
MU = 10.0               # barrier parameter growth per stage
ARMIJO = 0.25           # sufficient-decrease fraction
BACKTRACK = 0.5         # step shrink factor
GAP_ABS = 1e-9
GAP_REL = 1e-9
NEWTON_TOL = 1e-8       # half squared Newton decrement
MAX_STAGE_STEPS = 100
MAX_STAGES = 64


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
        self.offsets = np.asarray(self.offsets, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights <= 0.0):
            raise ValueError("log weights must be positive")

    def args(self, x: np.ndarray) -> np.ndarray:
        return self.offsets + np.einsum("jk,jk->j", self.coeffs, x[self.idx])

    def value(self, x: np.ndarray) -> float:
        v = self.args(x)
        if np.any(v <= 0.0):
            return -np.inf
        return float((self.weights * np.log(v)).sum())

    def add_grad(self, x: np.ndarray, out: np.ndarray) -> None:
        v = self.args(x)
        coef = self.weights / v
        np.add.at(out, self.idx, coef[:, None] * self.coeffs)

    def add_curvature(self, x: np.ndarray, H: np.ndarray, coef: float) -> None:
        """H += coef * (-d2/dx2 of this group), PSD for coef > 0."""
        v = self.args(x)
        w = coef * self.weights / v**2
        block = w[:, None, None] * self.coeffs[:, :, None] * self.coeffs[:, None, :]
        np.add.at(H, (self.idx[:, :, None], self.idx[:, None, :]), block)


@dataclass
class NegLogGroup:
    """sum_j -w_j * ln(base_j + scale_j / v_j),  v_j = off_j + C[j] . x[idx[j]].

    Concave and increasing in each v_j for v_j > 0 (base > 0, scale >= 0);
    the standard interference-rate term of the trajectory surrogates.
    """

    idx: np.ndarray
    coeffs: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    bases: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        self.idx = np.atleast_2d(np.asarray(self.idx, dtype=int))
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        self.offsets = np.asarray(self.offsets, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.bases = np.asarray(self.bases, dtype=float)
        self.scales = np.asarray(self.scales, dtype=float)
        if np.any(self.weights <= 0.0) or np.any(self.bases <= 0.0) or np.any(self.scales < 0.0):
            raise ValueError("need weights > 0, bases > 0, scales >= 0")

    def args(self, x: np.ndarray) -> np.ndarray:
        return self.offsets + np.einsum("jk,jk->j", self.coeffs, x[self.idx])

    def value(self, x: np.ndarray) -> float:
        v = self.args(x)
        if np.any(v <= 0.0):
            return -np.inf
        return float(-(self.weights * np.log(self.bases + self.scales / v)).sum())

    def add_grad(self, x: np.ndarray, out: np.ndarray) -> None:
        v = self.args(x)
        p = self.bases * v**2 + self.scales * v
        coef = self.weights * self.scales / p
        np.add.at(out, self.idx, coef[:, None] * self.coeffs)

    def add_curvature(self, x: np.ndarray, H: np.ndarray, coef: float) -> None:
        v = self.args(x)
        p = self.bases * v**2 + self.scales * v
        t2 = self.weights * self.scales * (2.0 * self.bases * v + self.scales) / p**2
        w = coef * t2
        block = w[:, None, None] * self.coeffs[:, :, None] * self.coeffs[:, None, :]
        np.add.at(H, (self.idx[:, :, None], self.idx[:, None, :]), block)


@dataclass
class ConcaveRow:
    """Concave row F(x) >= 0 with
    F = const + lin.x - 0.5 x'diag(dneg)x + sum(logs) + sum(neglogs)."""

    n: int
    const: float = 0.0
    lin: np.ndarray | None = None
    diag_neg: np.ndarray | None = None   # entries >= 0
    logs: tuple = ()
    neglogs: tuple = ()

    def value(self, x: np.ndarray) -> float:
        v = self.const
        if self.lin is not None:
            v += float(self.lin @ x)
        if self.diag_neg is not None:
            v -= 0.5 * float(self.diag_neg @ (x * x))
        for grp in self.logs:
            v += grp.value(x)
        for grp in self.neglogs:
            v += grp.value(x)
        return v  # -inf on domain violation

    def grad_neg(self, x: np.ndarray) -> np.ndarray:
        """Gradient of g = -F (the <= 0 form)."""
        gF = np.zeros(self.n)
        if self.lin is not None:
            gF += self.lin
        if self.diag_neg is not None:
            gF -= self.diag_neg * x
        for grp in self.logs:
            grp.add_grad(x, gF)
        for grp in self.neglogs:
            grp.add_grad(x, gF)
        return -gF

    def add_curvature(self, x: np.ndarray, H: np.ndarray, coef: float) -> None:
        """H += coef * (d2 of -F), which is PSD."""
        if self.diag_neg is not None:
            H[np.diag_indices_from(H)] += coef * self.diag_neg
        for grp in self.logs:
            grp.add_curvature(x, H, coef)
        for grp in self.neglogs:
            grp.add_curvature(x, H, coef)


class Problem:
    """Maximize the last of n variables (the epigraph variable) over affine,
    convex-quadratic and concave-form rows.

    Quadratic rows are either diagonal (0.5 x'diag(d)x + lin.x + c <= 0) or
    squared pair differences (||x[a] - x[b]||^2 + c <= 0); both batch cleanly.
    """

    def __init__(self, n: int):
        self.n = n
        self._aff_rows: list = []
        self._aff_rhs: list = []
        self._diag_rows: list = []   # (diag, lin, const)
        self._pair_rows: list = []   # (idx4, const)
        self.conc_rows: list[ConcaveRow] = []
        self._compiled = None
        self._gbuf = None

    # -- construction -------------------------------------------------------
    def add_affine(self, a, b) -> None:
        """Add rows a.x <= b."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        for row, rhs in zip(a, b):
            self._aff_rows.append(row)
            self._aff_rhs.append(float(rhs))
        self._compiled = None

    def add_quad(self, diag=None, lin=None, const: float = 0.0) -> None:
        """Add one diagonal convex quadratic row
        0.5 x'diag(diag)x + lin.x + const <= 0."""
        d = np.zeros(self.n) if diag is None else np.asarray(diag, dtype=float)
        l = np.zeros(self.n) if lin is None else np.asarray(lin, dtype=float)
        self._diag_rows.append((d, l, float(const)))
        self._compiled = None

    def add_pair_step(self, idx, const: float) -> None:
        """Add one squared pair-difference row
        ||x[idx[:2]] - x[idx[2:]]||^2 + const <= 0 (idx holds 4 indices)."""
        self._pair_rows.append((np.asarray(idx, dtype=int), float(const)))
        self._compiled = None

    def add_concave_ge(self, **kw) -> None:
        self.conc_rows.append(ConcaveRow(n=self.n, **kw))
        self._compiled = None

    # -- compiled evaluation --------------------------------------------------
    @property
    def num_rows(self) -> int:
        return (len(self._aff_rows) + len(self._diag_rows) + len(self._pair_rows)
                + len(self.conc_rows))

    def _parts(self):
        if self._compiled is None:
            self._gbuf = None
            A = np.vstack(self._aff_rows) if self._aff_rows else np.zeros((0, self.n))
            b = np.asarray(self._aff_rhs) if self._aff_rhs else np.zeros(0)
            if self._diag_rows:
                D = np.stack([r[0] for r in self._diag_rows])
                L = np.stack([r[1] for r in self._diag_rows])
                dc = np.array([r[2] for r in self._diag_rows])
            else:
                D = np.zeros((0, self.n))
                L = np.zeros((0, self.n))
                dc = np.zeros(0)
            if self._pair_rows:
                PI = np.stack([r[0] for r in self._pair_rows])  # (r, 4)
                pc = np.array([r[1] for r in self._pair_rows])
            else:
                PI = np.zeros((0, 4), dtype=int)
                pc = np.zeros(0)
            self._compiled = (A, b, D, L, dc, PI, pc)
        return self._compiled

    def slacks(self, x: np.ndarray) -> np.ndarray:
        """All row slacks (-g_i); any non-positive entry means infeasible.
        Order: affine, diagonal-quadratic, pair-quadratic, concave."""
        A, b, D, L, dc, PI, pc = self._parts()
        parts = [b - A @ x]
        parts.append(-(0.5 * (D @ (x * x)) + L @ x + dc))
        if PI.shape[0]:
            diff = x[PI[:, :2]] - x[PI[:, 2:]]
            parts.append(-((diff**2).sum(axis=1) + pc))
        else:
            parts.append(np.zeros(0))
        parts.append(np.array([row.value(x) for row in self.conc_rows]))
        return np.concatenate(parts)

    def row_grads(self, x: np.ndarray) -> np.ndarray:
        A, b, D, L, dc, PI, pc = self._parts()
        if self._gbuf is None or self._gbuf.shape != (self.num_rows, self.n):
            self._gbuf = np.zeros((self.num_rows, self.n))
            self._gbuf[:A.shape[0]] = A
        G = self._gbuf
        off = A.shape[0]
        nd = D.shape[0]
        if nd:
            np.multiply(D, x[None, :], out=G[off:off + nd])
            G[off:off + nd] += L
        off += nd
        if PI.shape[0]:
            blk = G[off:off + PI.shape[0]]
            blk[:] = 0.0
            diff = 2.0 * (x[PI[:, :2]] - x[PI[:, 2:]])
            rows = np.arange(PI.shape[0])[:, None]
            np.add.at(blk, (rows, PI[:, :2]), diff)
            np.add.at(blk, (rows, PI[:, 2:]), -diff)
            off += PI.shape[0]
        for i, row in enumerate(self.conc_rows):
            G[off + i] = row.grad_neg(x)
        return G

    def add_row_curvatures(self, x: np.ndarray, H: np.ndarray, inv_s: np.ndarray) -> None:
        A, b, D, L, dc, PI, pc = self._parts()
        off = A.shape[0]
        nd = D.shape[0]
        if nd:
            H[np.diag_indices_from(H)] += inv_s[off:off + nd] @ D
        off += nd
        npair = PI.shape[0]
        if npair:
            w = 2.0 * inv_s[off:off + npair]
            for c in range(2):
                a_i, b_i = PI[:, c], PI[:, 2 + c]
                np.add.at(H, (a_i, a_i), w)
                np.add.at(H, (b_i, b_i), w)
                np.add.at(H, (a_i, b_i), -w)
                np.add.at(H, (b_i, a_i), -w)
        off += npair
        for i, row in enumerate(self.conc_rows):
            row.add_curvature(x, H, inv_s[off + i])


# ---------------------------------------------------------------------------
# Barrier engine
# ---------------------------------------------------------------------------

def _solve_spd(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Jacobi equilibration keeps the factorization well-scaled; the barrier
    # Hessian mixes position, slack and epigraph blocks of wildly different
    # magnitudes.
    d = np.sqrt(np.maximum(H.diagonal(), 1e-300))
    inv_d = 1.0 / d
    Hs = H * inv_d[:, None] * inv_d[None, :]
    gs = g * inv_d
    damp = 0.0
    for _ in range(40):
        try:
            M = Hs if damp == 0.0 else Hs + damp * np.eye(Hs.shape[0])
            cf = cho_factor(M, lower=True, check_finite=False)
            return cho_solve(cf, gs, check_finite=False) * inv_d
        except np.linalg.LinAlgError:
            damp = 1e-12 if damp == 0.0 else damp * 10.0
    raise np.linalg.LinAlgError("barrier Hessian could not be factorized")


def solve_concave(problem: Problem, start) -> SolveOutcome:
    """Log-barrier maximization of the last variable from a strictly feasible
    start.

    Raises StartInfeasible if any row slack at the start is non-positive.
    """
    x = np.asarray(start, dtype=float).copy()
    if x.shape != (problem.n,):
        raise ValueError(f"start must have shape ({problem.n},)")
    s0 = problem.slacks(x)
    if s0.size and s0.min() <= 0.0:
        raise StartInfeasible(f"start violates {int((s0 <= 0).sum())} row(s); "
                              f"worst slack {s0.min():.3e}")
    m = problem.num_rows
    # Start with the barrier term dominant (objective weight O(1) per unit of
    # gradient) so the first centering is cheap even from near the boundary.
    t = 1.0

    def center(t: float, x: np.ndarray, tol: float):
        """Damped Newton centering; also returns the step count and the half
        squared Newton decrement it stopped at (above tol when the step cap
        ran out or the line search collapsed)."""
        count = 0
        dec = np.inf
        for _it in range(MAX_STAGE_STEPS):
            s = problem.slacks(x)
            G = problem.row_grads(x)
            inv_s = 1.0 / s
            grad = G.T @ inv_s
            grad[-1] -= t
            Gs = G * inv_s[:, None]
            H = Gs.T @ Gs
            problem.add_row_curvatures(x, H, inv_s)
            d = _solve_spd(H, -grad)
            dec = float(-grad @ d) / 2.0
            count += 1
            if dec <= tol:
                break
            # First-order cap on the step keeps most trials inside the domain.
            # Only rows whose slack the full step uses up by more than half
            # can bind (elsewhere 0.99 * s/g >= 1.98); skipping the others
            # keeps s/g from overflowing.
            gd_rows = G @ d
            near = gd_rows > 0.5 * s
            alpha = 1.0
            if near.any():
                alpha = min(1.0, 0.99 * float((s[near] / gd_rows[near]).min()))
            f0 = -t * float(x[-1]) - float(np.log(s).sum())
            gd = float(grad @ d)

            def psi(xx: np.ndarray) -> float:
                ss = problem.slacks(xx)
                if ss.min() <= 0.0:
                    return np.inf
                return -t * float(xx[-1]) - float(np.log(ss).sum())

            while psi(x + alpha * d) > f0 + ARMIJO * alpha * gd:
                alpha *= BACKTRACK
                if alpha < 1e-16:
                    break
            if alpha < 1e-16:
                break
            x = x + alpha * d
        return x, count, dec

    total_steps = 0
    gap = np.inf
    dec = np.inf
    # Intermediate stages are centered loosely (long-step style); the final
    # stage is polished to the tight Newton tolerance.
    loose = max(1e-6, NEWTON_TOL)
    for _stage in range(MAX_STAGES):
        gap = m / t
        last = gap <= GAP_ABS + GAP_REL * abs(x[-1])
        x, took, dec = center(t, x, NEWTON_TOL if last else loose)
        total_steps += took
        gap = m / t
        if gap <= GAP_ABS + GAP_REL * abs(x[-1]):
            break
        t *= MU
    obj = float(x[-1])
    # m/t bounds the suboptimality only on the central path, so an iterate
    # whose final centering stopped short of the Newton tolerance certifies
    # no gap and no dual bound.
    converged = dec <= NEWTON_TOL and gap <= GAP_ABS + GAP_REL * abs(obj)
    if not converged:
        gap = np.inf
    s = problem.slacks(x)
    G = problem.row_grads(x)
    residual = (G.T @ (1.0 / s)) / t
    residual[-1] -= 1.0
    return SolveOutcome(
        x=x,
        objective=obj,
        status=Status.OPTIMAL if converged else Status.MAX_ITER,
        iterations=total_steps,
        residuals={
            "feasibility": max(0.0, float(-s.min())),
            "gap": gap,
            "stationarity": float(np.abs(residual).max()),
            "dual_bound": obj + gap,
        },
    )
