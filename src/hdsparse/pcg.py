"""Proximal Hager-Zhang conjugate gradient via the Moreau-envelope gradient.

The composite objective f = g + h (g smooth, possibly nonconvex; h convex,
nonsmooth with a cheap prox) is attacked through the linearized envelope
gradient

    s(x) = (x - prox_{rho h}(x - rho*grad g(x))) / rho

which vanishes exactly at Clarke-stationary points for rho < 1/L_g.  The
nonlinear CG machinery (Hager-Zhang beta with truncation, Wolfe / exact /
backtracking line searches) then runs on s as if it were a gradient.  The
composite problem itself is the one the AG solver uses (agsolver.make_composite).
A plain linear CG for SPD systems lives here too since the q-Gaussian model
needs it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .agsolver import CompositeProblem, SolveReport, make_composite
from .penalty import prox_scaled_l1  # noqa: F401 - re-exported, looked up on this module

__all__ = [
    "CompositeProblem",
    "PCGConfig",
    "StationarityCertificate",
    "make_composite",
    "linearized_moreau_grad",
    "hz_direction",
    "surrogate_objective",
    "line_search",
    "pcg_solve",
    "linear_cg",
]


@dataclass(frozen=True)
class PCGConfig:
    rho: float | None = None       # default 0.5/L_g, must stay below 1/L_g
    line_search: str = "brent"     # {"wolfe", "brent", "backtrack"}
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if self.line_search not in ("wolfe", "brent", "backtrack"):
            raise ValueError(f"unknown line search {self.line_search!r}")


@dataclass(frozen=True)
class StationarityCertificate:
    x_hat: np.ndarray
    moreau_grad_norm: float
    rho_used: float


def linearized_moreau_grad(p: CompositeProblem, x, rho: float, g=None) -> np.ndarray:
    """s(x) = (x - prox_{rho h}(x - rho*grad g(x)))/rho; g is grad g(x) if known."""
    x = np.asarray(x, float)
    if g is None:
        g = p.g_grad(x)
    return (x - p.h_prox(x - rho * g, rho)) / rho


def hz_direction(s_next, s_prev, d_prev, eta: float = 0.01) -> np.ndarray:
    """Hager-Zhang update d = -s_next + max(beta, eta_k) * d_prev."""
    s_next = np.asarray(s_next, float)
    y = s_next - np.asarray(s_prev, float)
    d = np.asarray(d_prev, float)
    eta_k = -1.0 / (np.linalg.norm(d) * min(eta, np.linalg.norm(s_prev)))
    dy = np.dot(d, y)
    if dy == 0.0:
        beta_bar = eta_k
    else:
        beta = np.dot(y - 2.0 * (np.dot(y, y) / dy) * d, s_next) / dy
        beta_bar = max(beta, eta_k)
    return -s_next + beta_bar * d


def surrogate_objective(p: CompositeProblem, x, rho: float) -> float:
    """Quadratic-model objective used by the Wolfe search.

    g(x) + <grad g(x), u - x> + ||u - x||^2/(2 rho) + h(u) with u the prox of
    the forward step; a smooth stand-in for f that shares its stationary
    points.
    """
    x = np.asarray(x, float)
    g = p.g_grad(x)
    u = p.h_prox(x - rho * g, rho)
    diff = u - x
    return float(p.g_value(x) + np.dot(g, diff) + np.dot(diff, diff) / (2 * rho) + p.h_value(u))


def _grad_parts(p: CompositeProblem, x):
    # grad g(x), and the loss's share of it when p splits it off (else None)
    if p.loss_grad is None:
        return p.g_grad(x), None
    loss_grad = p.loss_grad(x)
    return p.g_grad(x, loss_grad), loss_grad


def _phi_grad(p, x, d, rho, loss_grad):
    # directional derivative surrogate: <s(x + alpha d), d>, with the gradient
    # along d built once (no matvec per step for a quadratic loss); a known
    # loss gradient is handed on only to a problem that splits it off
    if loss_grad is None:
        grad_along = p.g_grad_along(x, d)
    else:
        grad_along = p.g_grad_along(x, d, loss_grad)

    def phi(alpha):
        s = linearized_moreau_grad(p, x + alpha * d, rho, grad_along(alpha))
        return float(s @ d)

    return phi


def line_search(p: CompositeProblem, x, d, mode: str, config: PCGConfig, rho: float,
                loss_grad=None) -> float:
    """Pick a step along the descent direction d.  Three flavors:

    - "brent": root of <s(x + alpha d), d> = 0, bracket found by doubling;
    - "wolfe": Armijo + curvature on the surrogate objective;
    - "backtrack": halve alpha until -<s(x + c1 alpha d), d> >= c1 c2 alpha ||d||^2.

    loss_grad is p.loss_grad(x), if the caller has it already.  config is
    not read; the Wolfe constants c1 and c2 are fixed.
    """
    x = np.asarray(x, float)
    d = np.asarray(d, float)
    phi = _phi_grad(p, x, d, rho, loss_grad)
    d0 = phi(0.0)
    if d0 >= 0:
        raise ValueError("line search needs a descent direction")

    if mode == "brent":
        a_hi = rho
        for _ in range(60):
            if phi(a_hi) > 0:
                return float(brentq(phi, 0.0, a_hi, xtol=1e-14, maxiter=200))
            a_hi *= 2.0
        raise RuntimeError(f"brent bracket not found; last derivative {phi(a_hi / 2):.3e}")

    c1, c2 = 1e-4, 0.9     # Wolfe constants, 0 < c1 < c2 < 1
    if mode == "backtrack":
        dd = float(np.dot(d, d))
        # start at the step the map's own curvature suggests (-d0/||d||^2 is
        # the exact step for an identity-curvature s), capped at rho
        alpha = min(rho, -d0 / dd)
        for _ in range(60):
            if -phi(c1 * alpha) >= c1 * c2 * alpha * dd:
                return alpha
            alpha *= 0.5
        raise RuntimeError("backtracking exhausted 60 halvings")

    # Wolfe conditions on the surrogate (bracket + bisection zoom)
    f = lambda a: surrogate_objective(p, x + a * d, rho)
    f0 = f(0.0)
    lo, hi = 0.0, None
    alpha = rho
    flo, dlo = f0, d0
    for _ in range(100):
        fa = f(alpha)
        if fa > f0 + c1 * alpha * d0 or (hi is None and fa >= flo and lo > 0):
            hi = alpha
        else:
            da = phi(alpha)
            if abs(da) <= -c2 * d0:
                return alpha
            if da >= 0:
                hi = alpha
            else:
                lo, flo, dlo = alpha, fa, da
                if hi is None:
                    alpha *= 2.0
                    continue
        alpha = 0.5 * (lo + hi)
        if hi - lo < 1e-16:
            return max(alpha, 1e-16)
    raise RuntimeError("Wolfe line search failed to converge")


def pcg_solve(
    p: CompositeProblem,
    config: PCGConfig | None = None,
    x0=None,
) -> tuple[SolveReport, StationarityCertificate]:
    """Run proximal Hager-Zhang CG until ||s||_inf <= tol or max_iter."""
    t0 = time.perf_counter()
    config = config or PCGConfig()
    rho = config.rho if config.rho is not None else 0.5 / p.lipschitz_g
    if rho * p.lipschitz_g >= 1:
        raise ValueError("rho must satisfy rho * L_g < 1")
    x = np.zeros(p.dimension) if x0 is None else np.asarray(x0, float).copy()
    # the loss gradient at each iterate is formed once, for s, and handed on
    # to the line search that starts there
    g, loss_grad = _grad_parts(p, x)
    s = linearized_moreau_grad(p, x, rho, g)
    d = -s
    obj_trace, gm_trace = [], []
    converged = False
    it = 0
    for k in range(config.max_iter):
        sn = np.max(np.abs(s))
        obj_trace.append(p.g_value(x) + p.h_value(x))
        gm_trace.append(float(np.linalg.norm(s)))
        if sn <= config.tol:
            converged = True
            break
        # hard restart periodically and whenever d stops being a descent dir
        if k % p.dimension == 0 or np.dot(d, s) >= 0:
            d = -s
        alpha = line_search(p, x, d, config.line_search, config, rho, loss_grad=loss_grad)
        x_new = x + alpha * d
        if not np.all(np.isfinite(x_new)):
            raise FloatingPointError(f"non-finite iterate at iteration {k + 1}")
        g, loss_grad = _grad_parts(p, x_new)
        s_new = linearized_moreau_grad(p, x_new, rho, g)
        d = hz_direction(s_new, s, d)
        x, s = x_new, s_new
        it = k + 1
    cert = StationarityCertificate(
        x_hat=x.copy(),
        moreau_grad_norm=float(np.max(np.abs(linearized_moreau_grad(p, x, rho)))),
        rho_used=rho,
    )
    report = SolveReport(
        estimate=x,
        iterations=it,
        objective_trace=np.asarray(obj_trace),
        grad_map_trace=np.asarray(gm_trace),
        converged=converged,
        wall_time=time.perf_counter() - t0,
    )
    return report, cert


def linear_cg(A_apply, b, tol: float = 1e-10, max_iter: int | None = None,
              collect_residuals: bool = False):
    """Textbook conjugate gradient for SPD systems, x0 = 0.

    A_apply may be a matrix or a callable v -> Av.  Stops at
    ||Ax - b|| <= tol*||b||; raises if max_iter runs out.
    """
    b = np.asarray(b, float)
    if not callable(A_apply):
        A = np.asarray(A_apply, float)
        A_apply = lambda v: A @ v
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    x = np.zeros(n)
    r = b.copy()
    p_dir = r.copy()
    rs = np.dot(r, r)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return (x, []) if collect_residuals else x
    residuals = [r.copy()]
    for _ in range(max_iter):
        if np.sqrt(rs) <= tol * bnorm:
            return (x, residuals) if collect_residuals else x
        Ap = A_apply(p_dir)
        alpha = rs / np.dot(p_dir, Ap)
        x = x + alpha * p_dir
        r = r - alpha * Ap
        rs_new = np.dot(r, r)
        if collect_residuals:
            residuals.append(r.copy())
        p_dir = r + (rs_new / rs) * p_dir
        rs = rs_new
    if np.sqrt(rs) <= tol * bnorm:
        return (x, residuals) if collect_residuals else x
    raise RuntimeError(f"linear_cg: max_iter exceeded, residual {np.sqrt(rs):.3e}")
