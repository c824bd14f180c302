"""SCAD / MCP / l1 penalties and their difference-of-convex split.

Each nonconvex penalty decomposes as  p(b) = lambda*|b| + h(b)  with h smooth
and concave; h has an L-Lipschitz gradient (1/(a-1) for SCAD, 1/gamma for MCP)
which is what the composite solvers consume.

Every kernel is in closed "clip" form, with no piecewise branches.  With
t = min(|b|, a*lambda) for SCAD and t = min(|b|, gamma*lambda) for MCP:

    SCAD  p = lambda*t - (t - lambda)_+^2 / (2(a-1))
    MCP   p = lambda*t - t^2 / (2 gamma)
    h = p - lambda*|b|
    SCAD  h' = -copysign(clip(|b| - lambda, 0, (a-1) lambda), b) / (a-1)
    MCP   h' = -copysign(min(|b|, gamma lambda), b) / gamma = clip(-b/gamma, +-lambda)

and the soft threshold is copysign(max(|z| - c*lambda, 0), z).  The solvers'
objective takes the penalty's sum over coordinates in one pass of reductions,
lambda*sum(t) - sum(q) (penalty_sum), without forming p elementwise.

prox_scaled_l1 is input handling in front of a private kernel, _soft, which
the AG step calls itself.  Every objective value goes through penalty_sum;
an AG step stores x_ag's predictor and x_ag, whose abs penalty_sum takes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "PenaltySpec",
    "penalty_value",
    "penalty_sum",
    "h_value",
    "h_grad",
    "lipschitz_h",
    "prox_scaled_l1",
]


@dataclass(frozen=True)
class PenaltySpec:
    """kind in {'l1','scad','mcp'}; lambda >= 0, a > 2 (SCAD), gamma > 1 (MCP)."""

    kind: str
    lam: float
    a: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("l1", "scad", "mcp"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        for name, value in (("lambda", self.lam), ("a", self.a), ("gamma", self.gamma)):
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.kind == "scad":
            if self.a is None or self.a <= 2:
                raise ValueError("SCAD requires a > 2")
        if self.kind == "mcp":
            if self.gamma is None or self.gamma <= 1:
                raise ValueError("MCP requires gamma > 1")

    def with_lambda(self, lam: float) -> "PenaltySpec":
        return replace(self, lam=lam)

    def to_config(self) -> dict:
        d = {"kind": self.kind, "lambda": self.lam}
        if self.kind == "scad":
            d["a"] = self.a
        if self.kind == "mcp":
            d["gamma"] = self.gamma
        return d


def _clip(spec: PenaltySpec, b):
    """(t, u, c) at b = |beta| for SCAD/MCP: q = u^2/c, p = lam*t - q and h = p - lam*b."""
    lam = spec.lam
    if spec.kind == "scad":
        t = np.minimum(b, spec.a * lam)
        u = np.maximum(t, lam)  # (t - lam)_+ with one block-sized temporary fewer
        u -= lam
        return t, u, 2.0 * (spec.a - 1.0)
    t = np.minimum(b, spec.gamma * lam)
    return t, t, 2.0 * spec.gamma


def penalty_value(spec: PenaltySpec, beta):
    """Elementwise penalty p(beta); even in beta."""
    b = np.abs(np.asarray(beta, dtype=float))
    if spec.kind == "l1":
        out = spec.lam * b
    else:
        t, u, c = _clip(spec, b)
        out = spec.lam * t - u * u / c
    return out if out.ndim else float(out)


def penalty_sum(spec: PenaltySpec, beta):
    """sum_j p(beta_j) over the last axis, one value per row of a (k, p) block:
    lam*sum(t) - u.u/c, no elementwise p formed.  Its sums are add.reduce's
    over the last axis, so a block's row sums as that vector alone, bit for bit."""
    if spec.kind == "l1":
        return spec.lam * np.add.reduce(np.abs(beta), axis=-1)
    t, u, c = _clip(spec, np.abs(beta))  # |beta| freed before u*u is formed
    return spec.lam * np.add.reduce(t, axis=-1) - np.add.reduce(u * u, axis=-1) / c


def h_value(spec: PenaltySpec, beta):
    """Elementwise concave part h(beta) = p(beta) - lam*|beta|."""
    b = np.abs(np.asarray(beta, dtype=float))
    if spec.kind == "l1":
        out = np.zeros_like(b)
    else:
        t, u, c = _clip(spec, b)
        out = spec.lam * (t - b) - u * u / c
    return out if out.ndim else float(out)


def h_grad(spec: PenaltySpec, beta) -> np.ndarray:
    """Elementwise gradient of the concave part (zeros for l1)."""
    b = np.asarray(beta, dtype=float)
    if spec.kind == "l1":
        return np.zeros_like(b)
    lam = spec.lam
    if spec.kind == "scad":
        g = np.minimum(np.maximum(np.abs(b) - lam, 0.0), (spec.a - 1.0) * lam)
        return np.copysign(g, b) / (1.0 - spec.a)
    return np.minimum(np.maximum(b / -spec.gamma, -lam), lam)


def lipschitz_h(spec: PenaltySpec) -> float:
    """Lipschitz constant of h_grad: 1/(a-1) SCAD, 1/gamma MCP, 0 for l1."""
    if spec.kind == "scad":
        return 1.0 / (spec.a - 1.0)
    if spec.kind == "mcp":
        return 1.0 / spec.gamma
    return 0.0


def prox_scaled_l1(x, y, c: float, lam: float, skip=()) -> np.ndarray:
    """argmin_u <y,u> + ||u-x||^2/(2c) + lam*sum_{j not in skip} |u_j|.

    Soft thresholding of the gradient step x - c*y; skipped components (the
    intercept, typically) just take the plain step.  y may be the scalar 0.0,
    then z is x itself.  Over a (k, p) block x, c may be a (k, 1) column of
    scales, one per row.
    """
    if not ((c > 0).all() if isinstance(c, np.ndarray) else c > 0):  # NaN included
        raise ValueError("c must be positive")
    z = np.asarray(x, dtype=float)
    if not (isinstance(y, float) and y == 0.0):  # h_prox's zero gradient: z is x
        z = z - c * np.asarray(y, dtype=float)
    if not isinstance(skip, np.ndarray):  # make_composite passes a built index
        skip = np.asarray(list(skip), dtype=int)
    return _soft(z, c * lam, skip)


def _soft(z: np.ndarray, t, skip: np.ndarray) -> np.ndarray:
    """prox_scaled_l1's kernel: the soft threshold of z at t, with the columns
    in skip passed through."""
    out = np.copysign(np.maximum(np.abs(z) - t, 0.0), z)
    if skip.size:
        out.T[skip] = z.T[skip]  # .T: a block's columns
    return out
