"""Accelerated gradient method for nonconvex composite problems.

Minimizes Psi(x) + chi(x) where Psi = f + h is L-smooth (f the loss, h the
concave part of a SCAD/MCP penalty) and chi = lambda*||.||_1.  That split is
built once, by make_composite, and shared by ag_solve, pg_solve, pcg_solve and
the q-Gaussian theta step.  One iteration:

    x_md = (1 - alpha_k) * x_ag + alpha_k * x
    x    = P(x,    grad Psi(x_md), delta_k)
    x_ag = P(x_md, grad Psi(x_md), omega_k)

with P the scaled soft-threshold prox.  The damping schedule must satisfy
alpha_k*delta_k <= omega_k < 1/L and alpha_k/(delta_k*Gamma_k) nonincreasing;
two ready-made schedules are provided (the optimal one and the classical
2/(k+1) one) plus a checker and the theoretical complexity bound.  The plain
proximal-gradient baseline, pg_solve, is the constant schedule alpha_k = 1,
delta_k = omega_k = step: then x_md = x and the two prox steps are one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import penalty as _penalty
from .penalty import PenaltySpec, lipschitz_h, prox_scaled_l1

__all__ = [
    "SmoothObjective",
    "CompositeProblem",
    "make_composite",
    "AGSchedule",
    "SolveReport",
    "schedule_optimal",
    "schedule_original",
    "verify_schedule",
    "grad_mapping",
    "ag_solve",
    "ag_solve_many",
    "pg_solve",
    "damping_lower_bound",
    "admissible_ab",
    "optimal_ab",
    "complexity_bound",
    "power_iteration_lmax",
    "least_squares_loss",
    "logistic_loss",
    "make_linear_objective",
    "make_logistic_objective",
]


@dataclass(frozen=True)
class SmoothObjective:
    """Smooth part of the composite objective: value, gradient, Lipschitz L.

    curvature, when given, is the constant Hessian-vector product d -> H d of
    a quadratic loss; it lets a line search move the gradient along d without
    a matvec per step.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    dimension: int
    curvature: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class CompositeProblem:
    """f = g + h with g = loss + smooth penalty part (value/grad/L) and h
    convex with a prox; make_composite builds it.

    h_prox(v, rho) must return argmin_u h(u) + ||u - v||^2 / (2 rho).
    g_grad(x) forms the loss gradient itself; g_grad(x, lg) takes a known
    lg = loss_grad(x) instead.  curvature is the loss's constant Hessian-vector
    product (SmoothObjective.curvature, None unless the loss is quadratic): with
    it the gradient at x + alpha d is g_grad(x + alpha d, lg + alpha * H d).
    """

    g_value: Callable[[np.ndarray], float]
    g_grad: Callable[..., np.ndarray]
    lipschitz_g: float
    h_value: Callable[[np.ndarray], float]
    h_prox: Callable[[np.ndarray, float], np.ndarray]
    dimension: int
    loss_grad: Callable[[np.ndarray], np.ndarray]
    curvature: Callable[[np.ndarray], np.ndarray] | None


def make_composite(obj: SmoothObjective, penalty: PenaltySpec, skip=()) -> CompositeProblem:
    """Composite problem with g = loss + concave penalty part, h = lambda*l1.

    Coordinates in skip (the intercept, typically) carry no penalty at all.
    h_value and h_grad are looked up on the penalty module at each call, so a
    wrapper installed there (as perfbench's tracer does) sees every call.
    Each also takes a (k, p) block, a point per row (h_prox a (k, 1) column of scales).
    """
    skip_idx = np.asarray(list(skip), dtype=int)
    mask = None
    if skip_idx.size:
        mask = np.ones(obj.dimension, dtype=bool)
        mask[skip_idx] = False
    lam = penalty.lam


    def g_value(x):
        h = _penalty.h_value(penalty, x if mask is None else np.where(mask, x, 0.0))
        return obj.value(x) + h.sum(axis=-1)

    def g_grad(x, loss_grad=None):
        hg = _penalty.h_grad(penalty, x)
        if mask is not None:
            hg.T[skip_idx] = 0.0  # .T: a block's columns
        hg += obj.grad(x) if loss_grad is None else loss_grad
        return hg

    def h_value(x):
        return lam * np.abs(x.T if mask is None else x.T[mask]).sum(axis=0)

    return CompositeProblem(
        g_value=g_value,
        g_grad=g_grad,
        lipschitz_g=obj.lipschitz,
        h_value=h_value,
        # prox of lam*||.||_1 is the scaled soft threshold at a zero gradient
        h_prox=lambda v, rho: prox_scaled_l1(v, 0.0, rho, lam, skip_idx),
        dimension=obj.dimension,
        loss_grad=obj.grad,
        curvature=obj.curvature,
    )


@dataclass(frozen=True)
class AGSchedule:
    """The (alpha, delta, omega) sequences plus the Gamma bookkeeping.

    1-indexed in the math; alphas[i] is alpha_{i+1} here.  gammas is derived
    from the alphas: Gamma_1 = 1, Gamma_k = (1 - alpha_k) Gamma_{k-1}.
    """

    alphas: np.ndarray
    deltas: np.ndarray
    omegas: np.ndarray
    gammas: np.ndarray = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        d = np.asarray(self.deltas, dtype=float)
        w = np.asarray(self.omegas, dtype=float)
        if not (len(a) == len(d) == len(w)) or len(a) == 0:
            raise ValueError("alpha/delta/omega must share a positive length")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "deltas", d)
        object.__setattr__(self, "omegas", w)
        object.__setattr__(self, "gammas", np.concatenate(([1.0], np.cumprod(1.0 - a[1:]))))

    def __len__(self) -> int:
        return len(self.alphas)


@dataclass
class SolveReport:
    estimate: np.ndarray
    iterations: int
    objective_trace: np.ndarray
    grad_map_trace: np.ndarray
    converged: bool
    wall_time: float


def optimal_alphas(N: int) -> np.ndarray:
    """alpha_1 = 1, alpha_{k+1} = 2/(1 + sqrt(1 + 4/alpha_k^2))."""
    a = np.empty(N)
    prev = a[0] = 1.0
    for k in range(1, N):
        # plain-float math keeps the million-step recurrence cheap
        prev = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (prev * prev)))
        a[k] = prev
    return a


def schedule_optimal(L: float, N: int) -> AGSchedule:
    """The optimal damping schedule: omega = 2/(3L), delta_k = omega/alpha_k."""
    if L <= 0 or N < 1:
        raise ValueError("need L > 0 and N >= 1")
    a = optimal_alphas(N)
    w = np.full(N, 2.0 / (3.0 * L))
    d = w / a  # delta_1 = omega since alpha_1 = 1
    return AGSchedule(a, d, w)


def schedule_original(L: float, N: int) -> AGSchedule:
    """Classical settings: alpha_k = 2/(k+1), omega = 1/(2L), delta_k = k*omega/2."""
    if L <= 0 or N < 1:
        raise ValueError("need L > 0 and N >= 1")
    k = np.arange(1, N + 1, dtype=float)
    a = 2.0 / (k + 1.0)
    w = np.full(N, 1.0 / (2.0 * L))
    d = k * w / 2.0
    s = AGSchedule(a, d, w)
    ok, why = verify_schedule(s, L)
    if not ok:
        raise ValueError(f"original schedule failed verification: {why}")
    return s


def verify_schedule(s: AGSchedule, L: float) -> tuple[bool, str | None]:
    """Check both convergence conditions; returns (ok, first violation or None)."""
    rtol = 1e-9     # slack for rounding in the schedule's own arithmetic
    a, d, w, g = s.alphas, s.deltas, s.omegas, s.gammas
    if abs(a[0] - 1.0) > rtol:
        return False, "alpha_1 != 1"
    for k in range(len(s)):
        # condition 1: alpha_k * delta_k <= omega_k < 1/L
        if a[k] * d[k] > w[k] * (1 + rtol):
            return False, f"convcond1 (alpha*delta <= omega) violated at k={k + 1}"
        if not w[k] < 1.0 / L:
            return False, f"convcond1 (omega < 1/L) violated at k={k + 1}"
    r = a / (d * g)
    for k in range(1, len(s)):
        # condition 2: alpha_k/(delta_k*Gamma_k) nonincreasing
        if r[k] > r[k - 1] * (1 + rtol):
            return False, f"convcond2 (monotonicity) violated at k={k + 1}"
    return True, None


def grad_mapping(x, y, c: float, penalty: PenaltySpec, skip=()) -> np.ndarray:
    """Composite gradient analogue G(x,y,c) = (x - P(x,y,c))/c."""
    return (np.asarray(x, float) - prox_scaled_l1(x, y, c, penalty.lam, skip)) / c


def ag_solve(obj: SmoothObjective, penalty: PenaltySpec, s: AGSchedule, x0, tol: float = 1e-4,
             max_iter: int = 2000, skip=()) -> SolveReport:
    """Run the accelerated scheme; stops when the sup-norm step falls below tol.

    The method is not monotone, so it returns the best iterate seen.  A
    schedule with every alpha_k = 1 and delta_k = omega_k is proximal gradient,
    a descent method for steps up to 1/L: there every step must not raise the
    objective (else FloatingPointError) and the last iterate is returned.
    The schedule must have at least max_iter steps.
    """
    return ag_solve_many(obj, penalty, [s], x0, tol, max_iter, skip)[0]


def ag_solve_many(obj: SmoothObjective, penalty: PenaltySpec, schedules, x0, tol: float = 1e-4,
                  max_iter: int = 2000, skip=()) -> list[SolveReport]:
    """ag_solve on k schedules in lockstep: row i of a (k, p) block follows schedules[i].

    A step forms one block product for the gradient and one for the value,
    not k of each.  Each row keeps ag_solve's descent check, best iterate and
    stopping test; a stopped row is frozen, its wall_time the block's until
    then.  x0 is one start or a (k, p) block.  Block products round
    differently, so rows match ag_solve to rounding; one schedule and a vector
    x0 is ag_solve.
    """
    for s in schedules:
        if len(s) < max_iter:
            raise ValueError(f"schedule has {len(s)} steps, fewer than max_iter={max_iter}")
    t0 = time.perf_counter()
    p = make_composite(obj, penalty, skip)
    x = np.asarray(x0, dtype=float)
    # per-row values are floats on a vector, (k,) arrays on a block
    block = len(schedules) > 1 or x.ndim == 2
    x = x_ag = np.broadcast_to(x, (len(schedules), obj.dimension)).copy() if block else x.copy()
    sched = np.stack([[s.alphas[:max_iter], s.deltas[:max_iter], s.omegas[:max_iter]]
                      for s in schedules], axis=1)  # (alpha, delta, omega) x row x step
    pg = (sched[0] == 1.0) & (sched[1] == sched[2])  # x_md = x and one prox step
    mixed, two_prox = (sched[0] != 1.0).any(axis=0).tolist(), (~pg).any(axis=0).tolist()
    # proximal gradient rows descend: no step may raise their objective
    descent = pg.all(axis=1)
    alphas, deltas, omegas = sched.transpose(0, 2, 1)[..., None] if block else sched[:, 0].tolist()
    finite = (lambda v: bool(np.isfinite(v).all())) if block else math.isfinite
    rows = np.arange(len(schedules)) if block else 0  # the rows still running
    best_val, best_x = np.full(len(schedules), np.inf) if block else np.inf, x
    # the descent rows' last value (inf on the other rows of a block)
    prev = p.g_value(x) + p.h_value(x) if descent.any() else None
    prev = np.where(descent, np.inf if prev is None else prev, np.inf) if block else prev
    obj_tr, gap2_tr = np.empty((2, max_iter, len(schedules)))
    reports, it = [None] * len(schedules), 0

    def finish(done, converged):
        for j in np.flatnonzero(done):
            r = rows[j] if block else 0
            est = x_ag if descent[r] else best_x
            reports[r] = SolveReport(
                est[j].copy() if block else est, it, obj_tr[:it, r].copy(),
                np.sqrt(gap2_tr[:it, r]) / sched[2, r, :it], converged, time.perf_counter() - t0)

    for i in range(max_iter):
        a, d, w = alphas[i], deltas[i], omegas[i]
        # alpha weights the plain sequence; the aggregated sequence carries
        # the rest (this is what makes the momentum identity hold)
        x_md = (1.0 - a) * x_ag + a * x if mixed[i] else x
        g = p.g_grad(x_md)
        x_new = p.h_prox(x - d * g, d)
        # with x_md = x and delta = omega both prox steps take the same point
        x_ag = p.h_prox(x_md - w * g, w) if two_prox[i] else x_new
        gap = x_md - x_ag
        gap2 = _sumsq(gap)
        # a non-finite entry of g makes that entry of x_ag, and so gap2,
        # non-finite; only then does g itself need a scan
        if not finite(gap2) and not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient at iteration {i + 1}")
        val = p.g_value(x_ag) + p.h_value(x_ag)
        if not finite(val):
            raise FloatingPointError(f"non-finite objective at iteration {i + 1}")
        if prev is not None:
            rise = val > prev + 1e-10
            if rise.any() if block else rise:
                raise FloatingPointError(
                    f"objective increased at iteration {i + 1}; Lipschitz constant too small?"
                )
            prev = np.where(prev < np.inf, val, prev) if block else val
        obj_tr[i, rows], gap2_tr[i, rows] = val, gap2
        if block:
            better = val < best_val
            best_val = np.where(better, val, best_val)
            best_x = np.where(better[:, None], x_ag, best_x)
        elif val < best_val:  # x_ag is a fresh array that no later step writes to
            best_val, best_x = val, x_ag
        step = np.abs(x_new - x if two_prox[i] else gap).max(axis=-1)  # gap = x - x_new there
        x, it = x_new, i + 1
        stop = step < tol
        if stop.any() if block else stop:
            finish(stop, True)
            if not block or stop.all():
                break
            rows, x, x_ag, best_x, best_val, prev = (  # the stopped rows leave the block
                v[~stop] for v in (rows, x, x_ag, best_x, best_val, prev))
            alphas, deltas, omegas = (v[:, ~stop] for v in (alphas, deltas, omegas))
    else:
        finish(np.ones(np.size(rows), dtype=bool), False)
    return reports


def pg_solve(obj: SmoothObjective, penalty: PenaltySpec, step: float, x0, tol: float = 1e-4,
             max_iter: int = 2000, skip=()) -> SolveReport:
    """Plain proximal gradient with fixed step <= 1/L; monotone descent baseline.

    This is ag_solve on the constant schedule alpha_k = 1, delta_k = omega_k =
    step, which is not passed through verify_schedule: its omega < 1/L is
    strict, while proximal gradient descends for any step up to 1/L.
    """
    if step > 1.0 / obj.lipschitz + 1e-15:
        raise ValueError("step must be <= 1/L")
    ones = np.ones(max(max_iter, 1))
    return ag_solve(obj, penalty, AGSchedule(ones, ones * step, ones * step),
                    x0, tol, max_iter, skip)


def damping_lower_bound(k, a: float, b: float):
    """Lower envelope 2/((1 + a*k^(-b))k + 1); meaningful for admissible (a,b)."""
    k = np.asarray(k, dtype=float)
    out = 2.0 / ((1.0 + a * k ** (-b)) * k + 1.0)
    return out if out.ndim else float(out)


def admissible_ab(a: float, b: float) -> bool:
    """(a,b) with a>0, 0<b<1 is admissible iff a(1-b)2^(2-b) - ab(1-b)2^(-b) - 1 >= 0."""
    if not (a > 0 and 0 < b < 1):
        return False
    return a * (1 - b) * 2 ** (2 - b) - a * b * (1 - b) * 2 ** (-b) - 1 >= 0


def optimal_ab(k: int) -> tuple[float, float]:
    """Tightest admissible (a_k, b_k) at index k >= 8."""
    if k < 8:
        raise ValueError("optimal_ab requires k >= 8")
    t = np.log(2.0 / k)  # negative for k > 2
    b = (2.0 + 5.0 * t + np.sqrt(9.0 * t**2 + 4.0)) / (2.0 * t)
    a = 2.0**b / ((1.0 - b) * (4.0 - b))
    return a, b


def complexity_bound(s: AGSchedule, L_psi: float, L_h: float, x0, x_star, M: float) -> float:
    """Theoretical upper bound on min_k ||G(x_md_k)||^2 after running schedule s."""
    w, g, d = s.omegas, s.gammas, s.deltas
    if np.any(w >= 1.0 / L_psi):
        raise ValueError("bound invalid: some omega_k >= 1/L_psi")
    denom = np.sum(w * (1.0 - L_psi * w) / g)
    x0 = np.asarray(x0, float)
    xs = np.asarray(x_star, float)
    num = np.dot(x0 - xs, x0 - xs) / d[0] + (2.0 * L_h / g[-1]) * (np.dot(xs, xs) + M**2)
    return num / denom


def power_iteration_lmax(X: np.ndarray) -> float:
    """Largest eigenvalue of X'X via power iteration on v -> X'(Xv), stopped
    at a relative change of 1e-8 or after 1000 steps."""
    rng = np.random.default_rng(0)
    v = rng.normal(size=X.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(1000):
        w = X.T @ (X @ v)
        nl = np.linalg.norm(w)
        if nl == 0:
            return 0.0
        v_new = w / nl
        if abs(nl - lam) <= 1e-8 * max(nl, 1.0):
            return nl
        lam, v = nl, v_new
    return lam


def _sumsq(v):
    # v @ v, one per row of a (k, m) block v
    return v @ v if v.ndim == 1 else np.einsum("ij,ij->i", v, v)


def least_squares_loss(X: np.ndarray, y: np.ndarray, b) -> float | np.ndarray:
    """1/(2n)||Xb - y||^2, the value of make_linear_objective; one per row of
    a (k, p) block b."""
    return _sumsq(np.asarray(b) @ X.T - y) * (0.5 / X.shape[0])


def logistic_loss(X: np.ndarray, y: np.ndarray, b) -> float | np.ndarray:
    """Mean negative Bernoulli log-likelihood, the value of
    make_logistic_objective; one per row of a (k, p) block b."""
    z = np.asarray(b) @ X.T
    # log(1 + e^z) via logaddexp keeps large z finite
    return np.mean(np.logaddexp(0.0, z) - y * z, axis=-1)


def make_linear_objective(X: np.ndarray, y: np.ndarray,
                          penalty: PenaltySpec | None = None) -> SmoothObjective:
    """Least squares 1/(2n)||Xb - y||^2; L folds in the penalty's concave part.

    value and grad also take a (k, p) block, one point per row; for a vector
    b, numpy sends b @ X.T and r @ X to the gemv calls of X @ b and X.T @ r.
    """
    X = np.asarray(X, float)
    y = np.asarray(y, float).ravel()
    n = X.shape[0]
    lip_h = 0.0 if penalty is None else lipschitz_h(penalty)
    L = power_iteration_lmax(X) / n + lip_h
    return SmoothObjective(
        value=lambda b: least_squares_loss(X, y, b),
        grad=lambda b: (b @ X.T - y) @ X / n,
        lipschitz=L,
        dimension=X.shape[1],
        curvature=lambda d: X.T @ (X @ d) / n,
    )


def make_logistic_objective(X: np.ndarray, y: np.ndarray,
                            penalty: PenaltySpec | None = None) -> SmoothObjective:
    """Mean negative Bernoulli log-likelihood with logit link; blocks as for least squares."""
    X = np.asarray(X, float)
    y = np.asarray(y, float).ravel()
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("logistic objective requires a 0/1 response")
    n = X.shape[0]
    lip_h = 0.0 if penalty is None else lipschitz_h(penalty)
    L = power_iteration_lmax(X) / (4.0 * n) + lip_h
    # scipy's expit, whose last bits no numpy form matches, loads on first use
    from scipy.special import expit

    return SmoothObjective(value=lambda b: logistic_loss(X, y, b),
                           grad=lambda b: (expit(b @ X.T) - y) @ X / n,
                           lipschitz=L, dimension=X.shape[1])
