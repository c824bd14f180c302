"""Proximal Hager-Zhang conjugate gradient via the Moreau-envelope gradient.

The composite objective f = g + h (g smooth, possibly nonconvex; h convex,
nonsmooth with a cheap prox) is attacked through the linearized envelope
gradient

    s(x) = (x - prox_{rho h}(x - rho*grad g(x))) / rho

which vanishes exactly at Clarke-stationary points for rho < 1/L_g; pcg_solve
takes rho = 0.5/L_g.  The nonlinear CG machinery (Hager-Zhang beta with
truncation, which keeps d a descent direction whatever the step) then runs on
s as if it were a gradient, and each step is the exact Brent root of
<s(x + alpha d), d> = 0.  The line search finds it with _brentq, a port of
scipy's brentq that takes the same steps, so its roots are bitwise scipy's
and importing pcg loads no scipy.  Each line search evaluates that
derivative only at new points: its value at 0 is <s, d>, which the solver
holds, and _brentq starts from the bracket's two known values.  pcg_solve
takes the composite problem (agsolver.make_composite) first, as ag_solve,
pg_solve and ag_traces do, then x0, tol and max_iter, and returns its
SolveReport with ||s||_inf at the estimate as a float.  pcg forms the loss's
forward product z and the loss gradient lg = p.obj.grad(x, z) once per
iterate, values the iterate from that z for the trace, and calls g_grad(x,
lg); the line search moves lg along d as lg + alpha * H d when the loss
carries its curvature H (p.obj.curvature), so a quadratic loss costs no
matvec per step.
A textbook linear CG for SPD systems (linear_cg) sits here too; no solver
calls it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .agsolver import CompositeProblem, SolveReport, _solver_start
from .penalty import prox_scaled_l1  # noqa: F401 - re-exported, looked up on this module

__all__ = [
    "linearized_moreau_grad",
    "hz_direction",
    "line_search",
    "pcg_solve",
    "linear_cg",
]


def linearized_moreau_grad(p: CompositeProblem, x, rho: float, g=None) -> np.ndarray:
    """s(x) = (x - prox_{rho h}(x - rho*grad g(x)))/rho; g is grad g(x) if known."""
    x = np.asarray(x, float)
    if g is None:
        g = p.g_grad(x)
    return (x - p.h_prox(x - rho * g, rho)) / rho


# Hager and Zhang's truncation constant eta, and the least den whose -1/den is finite
_HZ_ETA = 0.01
_TINY = 1.0 / np.finfo(float).max


def hz_direction(s_next, s_prev, d_prev) -> np.ndarray:
    """Hager-Zhang update d = -s_next + max(beta, eta_k) * d_prev."""
    s_next = np.asarray(s_next, float)
    y = s_next - np.asarray(s_prev, float)
    d = np.asarray(d_prev, float)
    den = np.linalg.norm(d) * min(_HZ_ETA, np.linalg.norm(s_prev))
    # -1/den overflows, with a RuntimeWarning, for den below 1/DBL_MAX; -inf is its limit
    eta_k = -1.0 / den if den > _TINY else -math.inf
    dy = np.dot(d, y)
    if dy == 0.0:
        beta_bar = eta_k
    else:
        beta = np.dot(y - 2.0 * (np.dot(y, y) / dy) * d, s_next) / dy
        beta_bar = max(beta, eta_k)
    return -s_next + beta_bar * d


def _phi_grad(p, x, d, rho, loss_grad):
    # directional derivative surrogate: <s(x + alpha d), d>; with the loss's
    # curvature the gradient along d is lg + alpha * H d, no matvec per step
    if p.obj.curvature is None:
        grad = lambda alpha: p.g_grad(x + alpha * d)
    else:
        hd = p.obj.curvature(d)
        grad = lambda alpha: p.g_grad(x + alpha * d, loss_grad + alpha * hd)

    def phi(alpha):
        s = linearized_moreau_grad(p, x + alpha * d, rho, grad(alpha))
        return float(s @ d)

    return phi


# the line search's absolute tolerance on the step, and scipy.optimize.brentq's
# relative one (its default and its floor)
_BRENT_XTOL = 1e-14
_BRENT_RTOL = 4 * math.ulp(1.0)


def _brentq(f, xa: float, xb: float, fa: float, fb: float, maxiter: int = 200) -> float:
    """A root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4), given
    fa = f(xa) < 0 < fb = f(xb).

    This follows scipy.optimize.brentq (its Zeros/brentq.c) step for step, so
    it returns brentq(f, xa, xb, xtol=1e-14, maxiter=maxiter)'s root bitwise,
    after the same evaluations of f past the two endpoints.  As scipy does, it
    raises ValueError when f returns NaN and RuntimeError after maxiter steps.
    """
    def fval(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur, fpre, fcur = float(xa), float(xb), float(fa), float(fb)
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)  # may underflow; C then bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fval(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def line_search(p: CompositeProblem, x, d, rho: float, loss_grad, slope: float) -> float:
    """Step along the descent direction d: the root of <s(x + alpha d), d> = 0,
    bracketed by doubling alpha from rho and found by Brent's method.

    loss_grad is p.obj.grad(x) and slope is <s(x), d>, which the caller holds.
    """
    if not slope < 0:
        raise ValueError("line search needs a descent direction")
    x = np.asarray(x, float)
    d = np.asarray(d, float)
    phi = _phi_grad(p, x, d, rho, loss_grad)
    a_hi = rho
    for _ in range(60):
        f_hi = phi(a_hi)
        if f_hi > 0:
            return _brentq(phi, 0.0, a_hi, slope, f_hi)
        a_hi *= 2.0
    raise RuntimeError(f"brent bracket not found; last derivative {f_hi:.3e}")


def pcg_solve(p: CompositeProblem, x0=None, tol: float = 1e-6,
              max_iter: int = 1000) -> tuple[SolveReport, float]:
    """Run proximal Hager-Zhang CG from x0, shape (p,) (zeros if None), until
    ||s||_inf <= tol or max_iter steps, with rho = 0.5/L.

    Returns the report and ||s||_inf at the estimate, its stationarity
    certificate.  A map s whose s @ s underflows to 0 is zero to working
    precision: no line search can descend along -s, so the solve stops there
    as converged, and the certificate is that map's sup-norm.
    """
    t0 = time.perf_counter()
    obj = p.obj
    x = _solver_start(p, np.zeros(obj.dimension) if x0 is None else x0, max_iter, tol)
    if not 0 < obj.lipschitz < np.inf:  # rho = 0.5/L is every prox step's scale
        raise ValueError(f"pcg needs a finite Lipschitz constant > 0, got {obj.lipschitz}")
    rho = 0.5 / obj.lipschitz
    # the loss gradient at each iterate is formed once, for s, and handed on
    # to the line search that starts there; its forward product z also gives
    # the iterate's traced value
    z = obj.forward(x)
    lg = obj.grad(x, z)
    s = linearized_moreau_grad(p, x, rho, p.g_grad(x, lg))
    d = -s
    obj_trace, gm_trace = [], []
    converged = False
    it = 0
    for k in range(max_iter):
        sn = np.max(np.abs(s))
        obj_trace.append(p.value(x, z))
        gn = float(np.linalg.norm(s))
        if gn == 0.0 and sn > 0.0:  # s @ s underflows: scale s by its sup-norm first
            gn = float(sn * np.linalg.norm(s / sn))
        gm_trace.append(gn)
        if sn <= tol:
            converged = True
            break
        # hard restart periodically and whenever d stops being a descent dir
        slope = float(s @ d)
        if k % obj.dimension == 0 or slope >= 0:
            d = -s
            slope = float(s @ d)
            if slope == 0.0:  # s @ s underflows: s is zero to working precision
                converged = True
                break
        alpha = line_search(p, x, d, rho, lg, slope)
        x_new = x + alpha * d
        if not np.all(np.isfinite(x_new)):
            raise FloatingPointError(f"non-finite iterate at iteration {k + 1}")
        z = obj.forward(x_new)
        lg = obj.grad(x_new, z)
        s_new = linearized_moreau_grad(p, x_new, rho, p.g_grad(x_new, lg))
        d = hz_direction(s_new, s, d)
        x, s = x_new, s_new
        it = k + 1
    # s is the map at the estimate x, so the certificate forms no new one
    return (SolveReport(x, it, np.asarray(obj_trace), np.asarray(gm_trace), converged,
                        time.perf_counter() - t0, 0), float(np.max(np.abs(s))))


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
