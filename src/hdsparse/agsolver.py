"""Accelerated gradient method for nonconvex composite problems.

Minimizes Psi(x) + chi(x) where Psi = f + h is L-smooth (f the loss, h the
concave part of a SCAD/MCP penalty) and chi = lambda*||.||_1.  That split, the
loss with its penalty and penalized set, is one CompositeProblem, built by
make_composite; ag_solve, pg_solve, ag_traces and pcg_solve each take it as
their first argument and make the same entry checks.  One iteration:

    x_md = (1 - alpha_k) * x_ag + alpha_k * x
    x    = P(x,    grad Psi(x_md), delta_k)
    x_ag = P(x_md, grad Psi(x_md), omega_k)

with P the scaled soft-threshold prox, and the traced objective the loss plus
the penalty's sum at x_ag.  The loss sees x only through z = x X', so a step
streams X twice: one forward product [x_ag; next x_md] X' gives x_ag's z and
the next gradient's, and the gradient's X' r is the other.  A step stores
x_ag's predictor z and x_ag itself; one call of the composite's value values
a chunk of up to 64 steps, and its checks name the failed step.
The damping schedule must satisfy alpha_k*delta_k <= omega_k < 1/L and
alpha_k/(delta_k*Gamma_k) nonincreasing; two ready-made schedules are provided
(the optimal one and the classical 2/(k+1) one) plus a checker and the
theoretical complexity bound.  Every schedule stops once the prox step
max|x_md - x_ag| = omega_k ||G(x_md)||_inf (Ghadimi & Lan's gradient mapping)
falls below tol.  ag_solve's restart (O'Donoghue & Candes's gradient scheme,
off by default) starts the schedule again when momentum runs against the prox
step.  pg_solve, the proximal-gradient baseline, is the constant schedule
alpha_k = 1, delta_k = omega_k = step: x_md = x, one prox step.  ag_traces
runs k schedules in lockstep on a (k, p) block, for the objective traces
alone, in a loop of its own: a one-row block would slow ag_solve.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
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
    "ag_solve",
    "ag_traces",
    "pg_solve",
    "damping_lower_bound",
    "admissible_ab",
    "optimal_ab",
    "complexity_bound",
    "least_squares_loss",
    "logistic_loss",
    "make_linear_objective",
    "make_logistic_objective",
]


@dataclass(frozen=True)
class SmoothObjective:
    """Smooth part of the composite objective: value, gradient, Lipschitz L.

    forward, when given, is the linear predictor z = b X' (a row per row of a
    block b); value(b, z) and grad(b, z) read a known z, b then unused, and
    form it when z is None.  Without it value(b) and grad(b) see b as z.
    curvature, when given, is the constant Hessian-vector product d -> H d of
    a quadratic loss; it lets a line search move the gradient along d without
    a matvec per step.
    """

    value: Callable[..., float]
    grad: Callable[..., np.ndarray]
    lipschitz: float
    dimension: int
    curvature: Callable[[np.ndarray], np.ndarray] | None = None
    forward: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class CompositeProblem:
    """f = g + h, g = loss + smooth penalty part, h convex with a prox; built
    by make_composite.  obj is the loss, with forward and (x, z)-taking value
    and grad, penalty the spec of g's concave part and of h = lambda*l1, and
    skip the unpenalized coordinates.  value(x, z=None) = g + h, the loss
    plus sum_j p(x_j) over the penalized coordinates; g_grad(x, lg) takes a
    known lg = obj.grad(x), or forms it; h_prox(v, rho) returns
    argmin_u h(u) + ||u - v||^2 / (2 rho).
    """

    obj: SmoothObjective
    penalty: PenaltySpec
    skip: np.ndarray
    value: Callable[..., float]
    g_grad: Callable[..., np.ndarray]
    h_prox: Callable[[np.ndarray, float], np.ndarray]


def make_composite(obj: SmoothObjective, penalty: PenaltySpec, skip=()) -> CompositeProblem:
    """Composite problem with g = loss + concave penalty part, h = lambda*l1.

    Coordinates in skip (the intercept, typically) carry no penalty at all;
    one outside [0, p) raises ValueError.  An objective without forward gets
    the identity predictor.  penalty_sum and h_grad are looked up on the
    penalty module at each call, so a wrapper installed there (as perfbench's
    tracer does on h_grad) sees every call.  Each also takes a (k, p) block, a
    point per row (h_prox a (k, 1) column of scales).
    """
    skip = np.asarray(list(skip), dtype=int)
    if skip.size and not (0 <= skip.min() and skip.max() < obj.dimension):
        raise ValueError(f"skip indices must lie in [0, {obj.dimension}), got {skip.tolist()}")
    if obj.forward is None:  # value(b) and grad(b) only: the point is its own predictor
        def rows(f):  # f on a (k, p) block's rows one by one, as it knows only vectors
            return lambda b, z=None: (f(u) if (u := b if z is None else z).ndim == 1
                                      else np.array([f(r) for r in u]))
        obj = replace(obj, forward=lambda b: b, value=rows(obj.value), grad=rows(obj.grad))
    loss_value, loss_grad = obj.value, obj.grad

    def value(x, z=None):
        loss = loss_value(x, z)
        if skip.size:
            x = np.array(x, dtype=float)
            x.T[skip] = 0.0  # .T: a block's columns
        return loss + _penalty.penalty_sum(penalty, x)

    def g_grad(x, lg=None):
        hg = _penalty.h_grad(penalty, x)
        if skip.size:
            hg.T[skip] = 0.0
        hg += loss_grad(x) if lg is None else lg
        return hg

    # prox of lam*||.||_1 is the scaled soft threshold at a zero gradient
    return CompositeProblem(obj, penalty, skip, value, g_grad,
                            lambda v, rho: prox_scaled_l1(v, 0.0, rho, penalty.lam, skip))


def _solver_start(p: CompositeProblem, x0, max_iter: int, tol: float = 0.0) -> np.ndarray:
    """A fresh float copy of x0 after every solver's entry checks: tol >= 0,
    max_iter >= 0 and x0 of shape (p,); ValueError if one fails."""
    if not tol >= 0:  # NaN included
        raise ValueError(f"tol must be >= 0, got {tol}")
    if not max_iter >= 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    x = np.array(x0, dtype=float)
    if x.shape != (p.obj.dimension,):
        raise ValueError(f"x0 has shape {x.shape}; need ({p.obj.dimension},)")
    return x


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
        for name, v in (("deltas", d), ("omegas", w)):  # fail here, not at a step's prox
            if not ((v > 0) & (v < np.inf)).all():  # NaN included
                raise ValueError(f"{name} must be finite and positive")
        if not ((a > 0) & (a <= 1)).all():
            raise ValueError("alphas must lie in (0, 1]")
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
    restarts: int  # ag_solve's momentum restarts; 0 without restart, and for pcg


@functools.lru_cache(maxsize=4)
def optimal_alphas(N: int) -> np.ndarray:
    """alpha_1 = 1, alpha_{k+1} = 2/(1 + sqrt(1 + 4/alpha_k^2)); free of L, so cached."""
    a = np.empty(N)
    prev = a[0] = 1.0
    for k in range(1, N):
        # plain-float math keeps the million-step recurrence cheap
        prev = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (prev * prev)))
        a[k] = prev
    a.flags.writeable = False
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
    # verify_schedule holds at any L: alpha_k delta_k <= omega, alpha_k/(delta_k Gamma_k) = 2/omega
    return AGSchedule(a, d, w)


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


_CHUNK_STEPS, _CHUNK_BYTES = 64, 1 << 21  # a chunk's steps at most, and its buffers' size


def _chunk_buffers(*rows) -> list[np.ndarray]:
    """Empty buffers, one per row shape, for a chunk of steps: at most
    _CHUNK_STEPS and about _CHUNK_BYTES in all, but at least one step."""
    steps = _CHUNK_BYTES // (8 * sum(math.prod(r) for r in rows))
    return [np.empty((max(1, min(_CHUNK_STEPS, steps)), *r)) for r in rows]


def _chunk_values(p: CompositeProblem, Z, XA, m: int, start: int, prev, descent) -> np.ndarray:
    """p.value at the x_ag of steps start+1 .. start+m, from their rows Z[:m]
    (predictors) and XA[:m] (x_ag), each bit for bit as valued alone.
    FloatingPointError names the first step with a value not finite or, in a
    descent row, above the step before's (prev before the chunk) + 1e-10."""
    val = p.value(XA[:m].reshape(-1, XA.shape[-1]),  # the loss reads the known z alone
                  Z[:m].reshape(-1, Z.shape[-1])).reshape(m, *Z.shape[1:-1])
    bad = ~np.isfinite(val)
    rise = (val > np.concatenate(([prev], val))[:-1] + 1e-10) & descent
    if (steps := (bad | rise).reshape(m, -1).any(axis=1)).any():
        j = steps.argmax()
        if bad[j].any():
            raise FloatingPointError(f"non-finite objective at iteration {start + j + 1}")
        raise FloatingPointError(f"objective increased at iteration {start + j + 1}; "
                                 "Lipschitz constant too small?")
    return val


# no overflow warnings: a non-finite value in the AG loops always ends in their
# FloatingPointError, after the steps that run on to the end of its chunk
@np.errstate(over="ignore", invalid="ignore")
def ag_solve(p: CompositeProblem, s: AGSchedule, x0, tol: float = 1e-4,
             max_iter: int = 2000, restart: bool = False) -> SolveReport:
    """Run the accelerated scheme on p from x0, shape (p,), until the prox
    step max|x_md - x_ag| < tol; the schedule needs at least max_iter steps.

    The method is not monotone, so it returns the best iterate seen.  A
    schedule with every alpha_k = 1 and delta_k = omega_k is proximal gradient,
    a descent method for steps up to 1/L: there every step must not raise the
    objective (else FloatingPointError) and the last iterate is returned.
    The objective is valued by chunks of steps (_chunk_values) when one fills,
    on the stop, on the last step and before a non-finite gradient raises.
    With restart (off by default), a step that does not stop and has
    (x_md - x_ag) . (x_ag - previous x_ag) > 0 sets x = x_ag and starts the
    schedule again at its first entry; report.restarts counts these.
    """
    if len(s) < max_iter:
        raise ValueError(f"schedule has {len(s)} steps, fewer than max_iter={max_iter}")
    t0 = time.perf_counter()
    x = _solver_start(p, x0, max_iter, tol)
    forward, loss_grad, skip = p.obj.forward, p.obj.grad, p.skip
    soft, lam = _penalty._soft, p.penalty.lam  # the soft threshold behind prox_scaled_l1's checks
    alphas, deltas, omegas = s.alphas[:max_iter], s.deltas[:max_iter], s.omegas[:max_iter]
    # read step by step, so a solve that stops early pays nothing for the rest
    mixed = alphas != 1.0
    two_prox = mixed | (deltas != omegas)  # else x_md = x and one prox step
    descent = not two_prox.any()  # proximal gradient: no step may raise the objective
    x_ag = best_x = x_md = x  # the first x_md is the start, as x_ag = x there
    best_val, it, converged, z_md = math.inf, 0, False, forward(x)
    prev = p.value(x_md, z_md) if descent else math.inf
    obj_tr, gap2_tr, w_tr = np.empty((3, max_iter))
    Z, XA = _chunk_buffers(z_md.shape, x.shape)
    m = j = restarts = 0  # j: step i's schedule entry, i itself until a restart
    for i in range(max_iter):
        d, w = deltas.item(j), omegas.item(j)  # Python floats: cheaper, the same bits
        g = p.g_grad(x_md, loss_grad(x_md, z_md))
        x_new = soft(x - d * g, d * lam, skip)
        x_old = x_ag
        # with x_md = x and delta = omega both prox steps take the same point
        x_ag = soft(x_md - w * g, w * lam, skip) if two_prox[j] else x_new
        gap = x_md - x_ag
        gap2 = gap @ gap
        # a non-finite entry of g makes that entry of x_ag, and so gap2,
        # non-finite; only then does g itself need a scan
        if not math.isfinite(gap2) and not np.isfinite(g).all():
            if m:  # an earlier step's fault comes first
                _chunk_values(p, Z, XA, m, i - m, prev, descent)
            raise FloatingPointError(f"non-finite gradient at iteration {i + 1}")
        stop = np.maximum.reduce(np.abs(gap)) < tol
        k = j + 1  # the next step's schedule entry
        if restart and not stop and gap @ (x_ag - x_old) > 0:  # momentum against the prox step
            k, x_new, restarts = 0, x_ag, restarts + 1
        if i + 1 == max_iter or stop or k == 0 or not (mixed[k] or two_prox[j]):
            x_md, z_md = x_ag, forward(x_ag)  # no next step, or its x_md is x_ag
            z_ag = z_md
        else:  # the next x_md: alpha on the plain sequence, the rest on the aggregated one
            a = alphas.item(k)
            x_md = (1.0 - a) * x_ag + a * x_new if mixed[k] else x_new
            z_ag, z_md = forward(np.array((x_ag, x_md)))
        Z[m], XA[m], gap2_tr[i], w_tr[i] = z_ag, x_ag, gap2, w
        x, it, m, j = x_new, i + 1, m + 1, k
        if m == len(Z) or stop or it == max_iter:
            val = obj_tr[it - m:it] = _chunk_values(p, Z, XA, m, it - m, prev, descent)
            first = val.argmin()  # the chunk's first least value: the first to beat best_val
            if val[first] < best_val:
                best_val, best_x = val[first], XA[first].copy()
            prev, m = val[-1], 0
        if stop:
            converged = True
            break
    return SolveReport(x_ag if descent else best_x, it, obj_tr[:it].copy(),
                       np.sqrt(gap2_tr[:it]) / w_tr[:it], converged, time.perf_counter() - t0,
                       restarts)


@np.errstate(over="ignore", invalid="ignore")  # as ag_solve
def ag_traces(p: CompositeProblem, schedules, x0, max_iter: int) -> np.ndarray:
    """The (k, max_iter) objective traces of k schedules run in lockstep on p
    from one start x0, shape (p,): row i of a (k, p) block follows schedules[i].

    Row i is ag_solve's trace at tol = 0 to rounding (block products round
    differently), and a proximal-gradient row keeps pg_solve's descent check.
    A step's forward product [x_ag; next x_md] X' has 2k rows (k when no row
    mixes, and on the last step).  The traces are valued by chunks of steps.
    """
    if not schedules:
        raise ValueError("ag_traces needs at least one schedule")
    for s in schedules:
        if len(s) < max_iter:
            raise ValueError(f"schedule has {len(s)} steps, fewer than max_iter={max_iter}")
    x = _solver_start(p, x0, max_iter)
    forward, loss_grad, skip = p.obj.forward, p.obj.grad, p.skip
    soft, lam, k = _penalty._soft, p.penalty.lam, len(schedules)
    # (alpha, delta, omega) x step x row x 1: a step's values scale the block's rows
    alphas, deltas, omegas = np.stack([[s.alphas[:max_iter], s.deltas[:max_iter],
                                        s.omegas[:max_iter]] for s in schedules], axis=2)[..., None]
    pg = (alphas == 1.0) & (deltas == omegas)  # x_md = x and one prox step
    mixed, two_prox = (alphas != 1.0).any(axis=(1, 2)), (~pg).any(axis=(1, 2))
    descent = pg.all(axis=0)[:, 0]  # proximal gradient rows: no step may raise their objective
    x = x_md = np.tile(x, (k, 1))  # the first x_md is the start, as x_ag = x there
    z_md = forward(x)
    prev = p.value(x, z_md)
    traces = np.empty((k, max_iter))
    (Z, XA), m = _chunk_buffers(z_md.shape, x.shape), 0
    for i in range(max_iter):
        d, w = deltas[i], omegas[i]
        g = p.g_grad(x_md, loss_grad(x_md, z_md))
        x_new = soft(x - d * g, d * lam, skip)
        x_ag = soft(x_md - w * g, w * lam, skip) if two_prox[i] else x_new
        if i + 1 == max_iter or not (mixed[i + 1] or two_prox[i]):
            x_md, z_md = x_ag, forward(x_ag)
            z_ag = z_md
        else:
            a = alphas[i + 1]
            x_md = (1.0 - a) * x_ag + a * x_new if mixed[i + 1] else x_new
            z = forward(np.concatenate((x_ag, x_md)))
            z_ag, z_md = z.reshape(2, k, z.shape[-1])
        Z[m], XA[m] = z_ag, x_ag
        x, m = x_new, m + 1
        if m == len(Z) or i + 1 == max_iter:
            val = _chunk_values(p, Z, XA, m, i + 1 - m, prev, descent)
            traces[:, i + 1 - m:i + 1], prev, m = val.T, val[-1], 0
    return traces


def pg_solve(p: CompositeProblem, step: float, x0, tol: float = 1e-4,
             max_iter: int = 2000) -> SolveReport:
    """Plain proximal gradient on p with fixed step <= 1/L; monotone descent baseline.

    This is ag_solve on the constant schedule alpha_k = 1, delta_k = omega_k =
    step; it descends for any step up to 1/L, where AG needs omega < 1/L.
    """
    if not (step > 0 and step * p.obj.lipschitz <= 1 + 1e-12):  # NaN included
        raise ValueError(f"step must lie in (0, 1/L], got {step}")
    ones = np.ones(max(max_iter, 1))
    return ag_solve(p, AGSchedule(ones, ones * step, ones * step), x0, tol, max_iter)


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


def _lipschitz(X: np.ndarray, c: float, penalty: PenaltySpec | None) -> float:
    """lambda_max(X'X)/(c n) plus the penalty's concave part: the loss's
    Hessian is at most X'X/(c n), with c = 1 for least squares and 4 for
    logistic.  lambda_max is exact, from the smaller Gram matrix.  L = 0 raises."""
    if not np.isfinite(X).all():
        raise ValueError("the design holds NaN or inf")
    n, p = X.shape
    lmax = np.linalg.eigvalsh(X.T @ X if p <= n else X @ X.T)[-1]
    L = float(lmax) / (c * n) + (0.0 if penalty is None else lipschitz_h(penalty))
    if not L > 0:
        raise ValueError("L = 0: the design has no nonzero entry and the penalty no concave part")
    return L


def least_squares_loss(X: np.ndarray, y: np.ndarray, b: np.ndarray, z=None) -> float | np.ndarray:
    """1/(2n)||Xb - y||^2, the value of make_linear_objective; one per row of
    a (k, p) block b.  z = b X', if known."""
    r = (np.dot(b, X.T) if z is None else z) - y
    return np.add.reduce(r * r, axis=-1) * (0.5 / X.shape[0])  # a block's row as the vector


def logistic_loss(X: np.ndarray, y: np.ndarray, b: np.ndarray, z=None) -> float | np.ndarray:
    """Mean negative Bernoulli log-likelihood, the value of
    make_logistic_objective; one per row of a (k, p) block b.  z = b X', if known."""
    z = np.dot(b, X.T) if z is None else z
    # log(1 + e^z) via logaddexp keeps large z finite
    return np.mean(np.logaddexp(0.0, z) - y * z, axis=-1)


def make_linear_objective(X: np.ndarray, y: np.ndarray,
                          penalty: PenaltySpec | None = None) -> SmoothObjective:
    """Least squares 1/(2n)||Xb - y||^2; L = lambda_max(X'X)/n, exact (see
    _lipschitz), plus the penalty's concave part.

    value, grad and forward also take a (k, p) block, one point per row.
    np.dot sends a vector b to the gemv calls of X @ b and X.T @ r, with less
    dispatch than matmul and the same bits.
    """
    X = np.asarray(X, float)
    y = np.asarray(y, float).ravel()
    n, XT = X.shape[0], X.T
    return SmoothObjective(
        value=functools.partial(least_squares_loss, X, y),
        grad=lambda b, z=None: np.dot((np.dot(b, XT) if z is None else z) - y, X) / n,
        lipschitz=_lipschitz(X, 1.0, penalty), dimension=X.shape[1],
        curvature=lambda d: X.T @ (X @ d) / n, forward=lambda b: np.dot(b, XT))


def make_logistic_objective(X: np.ndarray, y: np.ndarray,
                            penalty: PenaltySpec | None = None) -> SmoothObjective:
    """Mean negative Bernoulli log-likelihood with logit link; L =
    lambda_max(X'X)/(4n), exact, plus the penalty's concave part; blocks as
    for least squares."""
    X = np.asarray(X, float)
    y = np.asarray(y, float).ravel()
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("logistic objective requires a 0/1 response")
    n, XT = X.shape[0], X.T
    # scipy's expit, whose last bits no numpy form matches, loads on first use
    from scipy.special import expit

    return SmoothObjective(
        value=functools.partial(logistic_loss, X, y),
        grad=lambda b, z=None: np.dot(expit(np.dot(b, XT) if z is None else z) - y, X) / n,
        lipschitz=_lipschitz(X, 4.0, penalty), dimension=X.shape[1],
        forward=lambda b: np.dot(b, XT))
