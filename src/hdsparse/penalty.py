"""SCAD / MCP / l1 penalties and their difference-of-convex split.

Each nonconvex penalty decomposes as  p(b) = lambda*|b| + h(b)  with h smooth
and concave; h has an L-Lipschitz gradient (1/(a-1) for SCAD, 1/gamma for MCP)
which is what the composite solvers consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "PenaltySpec",
    "penalty_value",
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
    penalize_intercept: bool = False

    def __post_init__(self):
        if self.kind not in ("l1", "scad", "mcp"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
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
        if self.penalize_intercept:
            d["penalize_intercept"] = True
        return d

    @staticmethod
    def from_config(cfg: dict | str) -> "PenaltySpec":
        if isinstance(cfg, str):
            cfg = json.loads(cfg)
        return PenaltySpec(
            kind=cfg["kind"],
            lam=cfg["lambda"],
            a=cfg.get("a"),
            gamma=cfg.get("gamma"),
            penalize_intercept=cfg.get("penalize_intercept", False),
        )


def _h_scad(b, lam, a):
    # concave part of SCAD: zero near 0, quadratic in the middle, affine tail
    b = np.abs(b)
    mid = (2 * lam * b - b**2 - lam**2) / (2 * (a - 1))
    tail = (a + 1) * lam**2 / 2 - lam * b
    return np.where(b < lam, 0.0, np.where(b < a * lam, mid, tail))


def _h_scad_grad(b, lam, a):
    s = np.sign(b)
    b = np.abs(b)
    mid = (lam - b) / (a - 1)
    return s * np.where(b < lam, 0.0, np.where(b < a * lam, mid, -lam))


def _h_mcp(b, lam, gamma):
    b = np.abs(b)
    return np.where(b < gamma * lam, -(b**2) / (2 * gamma), gamma * lam**2 / 2 - lam * b)


def _h_mcp_grad(b, lam, gamma):
    s = np.sign(b)
    b = np.abs(b)
    return s * np.where(b < gamma * lam, -b / gamma, -lam)


def penalty_value(spec: PenaltySpec, beta):
    """Elementwise penalty p(beta); even in beta."""
    b = np.abs(np.asarray(beta, dtype=float))
    lam = spec.lam
    if spec.kind == "l1":
        out = lam * b
    elif spec.kind == "scad":
        out = lam * b + _h_scad(b, lam, spec.a)
    else:
        out = lam * b + _h_mcp(b, lam, spec.gamma)
    return out if out.ndim else float(out)


def h_value(spec: PenaltySpec, beta):
    """Elementwise concave part h(beta)."""
    b = np.asarray(beta, dtype=float)
    if spec.kind == "l1":
        out = np.zeros_like(b)
    elif spec.kind == "scad":
        out = _h_scad(b, spec.lam, spec.a)
    else:
        out = _h_mcp(b, spec.lam, spec.gamma)
    return out if out.ndim else float(out)


def h_grad(spec: PenaltySpec, beta) -> np.ndarray:
    """Elementwise gradient of the concave part (zeros for l1)."""
    b = np.asarray(beta, dtype=float)
    if spec.kind == "l1":
        return np.zeros_like(b)
    if spec.kind == "scad":
        return _h_scad_grad(b, spec.lam, spec.a)
    return _h_mcp_grad(b, spec.lam, spec.gamma)


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
    intercept, typically) just take the plain step.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    z = np.asarray(x, dtype=float)
    if not (isinstance(y, float) and y == 0.0):  # h_prox's zero gradient: z is x
        z = z - c * np.asarray(y, dtype=float)
    out = np.sign(z) * np.maximum(np.abs(z) - c * lam, 0.0)
    if not isinstance(skip, np.ndarray):  # make_composite passes a built index
        skip = np.asarray(list(skip), dtype=int)
    if skip.size:
        out[skip] = z[skip]
    return out
