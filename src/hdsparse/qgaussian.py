"""q-Gaussian (heavy-tailed, Tsallis-type) distribution and regression model.

For q in (1, 1+2/n) the n-dimensional q-Gaussian with characterization matrix
Sigma = sigma^2 * Psi coincides with a multivariate t with m = 2/(q-1) - n
degrees of freedom and scale Sigma, which is the form everything here reduces
to.  The regression model treats the training outcome vector as one draw from
an n_train-dimensional q-Gaussian centered at X*theta.  It is fitted in one
pass, with no alternation: theta by a penalized least-squares subproblem (it
does not depend on q or sigma^2), then sigma^2 = Q/n (the minimizer for every
q), then q.  With sigma^2 profiled out, Q/(m sigma^2) = n/m, so the objective
is (n/2) log(Q/n) plus a function of u = 1/(q-1) alone, and that function
decreases in u for every n (see q_update): the shape of one draw is not
identifiable, and q is the near-Gaussian boundary of the u range.

Every operation with Psi (the quadratic form, the log determinant, the
whitened theta subproblem) goes through one Cholesky factor Psi = C C',
which a model computes once and keeps; Psi is never inverted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .agsolver import (
    SmoothObjective,
    ag_solve,
    make_composite,
    make_linear_objective,
    schedule_optimal,
)
# unused here; perfbench's tracer patches the name on this module
from .pcg import linear_cg, pcg_solve  # noqa: F401
from .penalty import PenaltySpec, penalty_sum

__all__ = [
    "QShape",
    "QGaussianParams",
    "QGaussianModel",
    "q_exp",
    "q_log",
    "dof_from_q",
    "q_from_dof",
    "logpdf",
    "q_covariance",
    "covariance",
    "neg_penalized_loglik",
    "sigma2_update",
    "q_update",
    "theta_update",
    "fit",
    "recover_q_subset",
    "predict",
]


def q_exp(x, q: float):
    """(1 + (1-q)x)^(1/(1-q)) on its support, 0 outside; q != 1."""
    if q == 1:
        raise ValueError("q_exp is the classical exponential at q = 1; pass q != 1")
    x = np.asarray(x, float)
    base = 1.0 + (1.0 - q) * x
    with np.errstate(over="ignore"):
        # the masked branch can overflow harmlessly before where() discards it
        out = np.where(base > 0, np.maximum(base, 1e-300) ** (1.0 / (1.0 - q)), 0.0)
    return out if out.ndim else float(out)


def q_log(x, q: float):
    """(x^(1-q) - 1)/(1-q) for x > 0; inverse of q_exp on its bijective range."""
    if q == 1:
        raise ValueError("q_log is the classical logarithm at q = 1; pass q != 1")
    x = np.asarray(x, float)
    if np.any(x <= 0):
        raise ValueError("q_log requires x > 0")
    out = (x ** (1.0 - q) - 1.0) / (1.0 - q)
    return out if out.ndim else float(out)


def dof_from_q(q: float, n: int) -> float:
    """m = 2/(q-1) - n; positive exactly on the feasible strip 1 < q < 1+2/n."""
    if not 1 < q < 1 + 2 / n:
        raise ValueError(f"q = {q} infeasible for dimension {n}")
    return 2.0 / (q - 1.0) - n


def q_from_dof(m: float, n: int) -> float:
    if m <= 0:
        raise ValueError("degrees of freedom must be positive")
    return 1.0 + 2.0 / (m + n)


@dataclass(frozen=True)
class QShape:
    q: float
    n: int

    def __post_init__(self):
        if not self.n >= 1:
            raise ValueError(f"dimension n must be at least 1, got {self.n}")
        dof_from_q(self.q, self.n)  # validates

    @property
    def m(self) -> float:
        return dof_from_q(self.q, self.n)

    @property
    def u(self) -> float:
        # u = 1/(q-1) = (m+n)/2, the exponent of the density
        return 1.0 / (self.q - 1.0)


@dataclass(frozen=True)
class QGaussianParams:
    mu: np.ndarray
    sigma2: float
    psi: np.ndarray | None  # None means identity
    shape: QShape

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        n = self.shape.n
        object.__setattr__(self, "mu", np.asarray(self.mu, float).ravel())
        if self.mu.size != n:
            raise ValueError(f"mu has {self.mu.size} entries; need {n}")
        if self.psi is not None:
            object.__setattr__(self, "psi", _checked_psi(self.psi, n))


def _checked_psi(psi, n: int, name: str = "psi") -> np.ndarray:
    """psi as a float array; ValueError unless it is (n, n) and symmetric."""
    psi = np.asarray(psi, float)
    if psi.shape != (n, n):
        raise ValueError(f"{name} must be ({n}, {n}) for {n} rows, got {psi.shape}")
    if not np.allclose(psi, psi.T):
        raise ValueError(f"{name} must be symmetric")
    return psi


def _psi_cholesky(psi: np.ndarray | None) -> np.ndarray | None:
    """Lower Cholesky factor C of Psi = C C' (None for psi=None, the identity)."""
    if psi is None:
        return None
    try:
        return np.linalg.cholesky(psi)
    except np.linalg.LinAlgError:
        raise ValueError("psi must be positive definite") from None


def _whiten(C: np.ndarray | None, v: np.ndarray) -> np.ndarray:
    """C^{-1} v, so that <v, Psi^{-1} v> = ||C^{-1} v||^2."""
    if C is None:
        return v
    from scipy.linalg import solve_triangular

    return solve_triangular(C, v, lower=True)


def _logdet(C: np.ndarray | None) -> float:
    """log det Psi = 2 sum log diag(C)."""
    return 0.0 if C is None else 2.0 * float(np.sum(np.log(np.diag(C))))


def logpdf(x, params: QGaussianParams) -> float:
    """Log density: the multivariate t's with m degrees of freedom and scale
    Sigma = sigma2*Psi.  In Lambda = m*Sigma, the q-Gaussian's own
    parameterization, its -(n/2) log m term folds into -log det(pi Lambda)/2."""
    from scipy.special import gammaln

    sh = params.shape
    n, m, u = sh.n, sh.m, sh.u
    C = _psi_cholesky(params.psi)
    w = _whiten(C, np.asarray(x, float).ravel() - params.mu)
    quad = float(w @ w) / params.sigma2
    logdet_sigma = n * np.log(params.sigma2) + _logdet(C)
    return float(
        -0.5 * (n * np.log(np.pi) + logdet_sigma)
        + gammaln(u) - gammaln(u - n / 2)
        - (n / 2) * np.log(m)
        - u * np.log1p(quad / m)
    )


def q_covariance(params: QGaussianParams) -> np.ndarray:
    """Closed-form q-covariance integral int x x' p(x)^q dx (about mu)."""
    from scipy.special import gammaln

    sh = params.shape
    n, m, u, q = sh.n, sh.m, sh.u, sh.q
    sigma = params.sigma2 * (params.psi if params.psi is not None else np.eye(n))
    logdet_lam = n * np.log(np.pi) + n * np.log(m) + n * np.log(params.sigma2) \
        + _logdet(_psi_cholesky(params.psi))
    # |pi Lambda|^{(1-q)/2} * [G(u+1-n/2)/G(u-n/2)^q] / [G(u+1)/G(u)^q]
    logc = (
        0.5 * (1 - q) * logdet_lam
        + gammaln(u + 1 - n / 2) - q * gammaln(u - n / 2)
        - gammaln(u + 1) + q * gammaln(u)
    )
    return np.exp(logc) * sigma


def covariance(params: QGaussianParams) -> np.ndarray | None:
    """Ordinary covariance m/(m-2) * Sigma; None when m <= 2 (undefined)."""
    sh = params.shape
    if sh.m <= 2:
        return None
    sigma = params.sigma2 * (params.psi if params.psi is not None else np.eye(sh.n))
    return sh.m / (sh.m - 2) * sigma


# ---------------------------------------------------------------------------
# penalized regression model


@dataclass
class QGaussianModel:
    theta: np.ndarray              # length p+1, intercept first
    sigma2: float
    q_train: float
    n_train: int
    psi_train: np.ndarray | None
    penalty: PenaltySpec
    fit_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    # (psi_train, its Cholesky factor), so that the blocks of one fit factor once
    _psi_factor: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def to_config(self) -> dict:
        return {
            "theta": self.theta.tolist(),
            "sigma2": self.sigma2,
            "q_train": self.q_train,
            "n_train": self.n_train,
            "penalty": self.penalty.to_config(),
        }


def _model_cholesky(model: QGaussianModel) -> np.ndarray | None:
    """Cholesky factor of model.psi_train, computed once per psi_train array."""
    if model._psi_factor[0] is not model.psi_train:
        model._psi_factor = (model.psi_train, _psi_cholesky(model.psi_train))
    return model._psi_factor[1]


def _design(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, float)
    return np.column_stack([np.ones(X.shape[0]), X])


def _quad_Q(model: QGaussianModel, X: np.ndarray, y: np.ndarray) -> float:
    """Q = <r, Psi^{-1} r> + 2 n sum_j w(theta_j), the pooled quadratic behind
    sigma^2 = Q/n and the objective."""
    Xd = _design(X)
    w = _whiten(_model_cholesky(model), np.asarray(y, float).ravel() - Xd @ model.theta)
    quad = float(w @ w)
    pen = float(penalty_sum(model.penalty, model.theta[1:]))
    return quad + 2.0 * model.n_train * pen


def neg_penalized_loglik(model: QGaussianModel, X, y) -> float:
    """The blockwise objective: up to constants, the negative penalized
    q-Gaussian log-likelihood of the training vector."""
    from scipy.special import gammaln

    n = model.n_train
    u = 1.0 / (model.q_train - 1.0)
    m = 2.0 * u - n
    if m <= 0:
        raise ValueError("infeasible q for this sample size")
    Q = _quad_Q(model, X, y)
    return float(
        (n / 2) * np.log(model.sigma2)
        - gammaln(u) + gammaln(u - n / 2) + (n / 2) * np.log(m)
        + u * np.log1p(Q / (m * model.sigma2))
    )


def sigma2_update(model: QGaussianModel, X, y) -> float:
    """Closed-form minimizer of the sigma^2 block: Q/n, whatever q is."""
    Q = _quad_Q(model, X, y)
    if Q <= 0:
        raise ValueError("quadratic-plus-penalty term must be positive")
    return float(Q / model.n_train)


def q_update(model: QGaussianModel, X, y) -> float:
    """Minimizer of the objective over u = 1/(q-1) in (n/2, 1e8], with
    sigma^2 profiled out at Q/n.

    That profile is (n/2) log(Q/n) plus a function of u alone whose
    derivative, [log u - digamma(u)] - [log(u - n/2) - digamma(u - n/2)], is
    negative because log x - digamma(x) decreases in x.  So the minimizer is
    the near-Gaussian boundary u = 1e8 whatever the data (X and y are not
    read); it is returned with a warning.
    """
    n = model.n_train
    warnings.warn(
        "the profiled q objective decreases in u = 1/(q-1) for every n and Q; "
        "returning the near-Gaussian boundary", stacklevel=2)
    return q_from_dof(2.0 * 1e8 - n, n)


def _whitened_objective(X, y, C: np.ndarray | None, penalty: PenaltySpec) -> SmoothObjective:
    """(1/2n) <r, Psi^{-1} r> with r = y - [1 X] theta: least squares on the
    design and y whitened once by Psi's Cholesky factor C (None: identity)."""
    return make_linear_objective(
        _whiten(C, _design(X)), _whiten(C, np.asarray(y, float).ravel()), penalty)


def theta_update(model: QGaussianModel, X, y, solver: str = "pcg", tol: float = 1e-6,
                 max_iter: int = 5000) -> np.ndarray:
    """Solve the central-trend subproblem (independent of q and sigma^2) from
    model.theta by solver "pcg" or "ag", each with its own stop test at tol
    and at most max_iter steps; RuntimeError if it does not converge."""
    obj = _whitened_objective(X, y, _model_cholesky(model), model.penalty)
    comp = make_composite(obj, model.penalty, skip=(0,))  # the intercept is never penalized
    if solver == "pcg":
        report, stationarity = pcg_solve(comp, model.theta, tol=tol, max_iter=max_iter)
        detail = f"stationarity {stationarity:.3e}"
    elif solver == "ag":
        report = ag_solve(comp, schedule_optimal(obj.lipschitz, max_iter), model.theta,
                          tol=tol, max_iter=max_iter)
        detail = f"{report.iterations} iterations"
    else:
        raise ValueError(f"unknown solver {solver!r}")
    if not report.converged:
        raise RuntimeError(f"theta subproblem did not converge; {detail}")
    return report.estimate


def fit(X, y, psi=None, penalty: PenaltySpec | None = None, solver: str = "pcg",
        tol: float = 1e-6, max_iter: int = 5000) -> QGaussianModel:
    """One blockwise pass: theta (theta_update with solver, tol and
    max_iter), then sigma^2 = Q/n, then the boundary q (q_update warns
    once).  fit_trace holds the one final objective.

    A Psi that is not (n, n), not symmetric or not positive definite raises
    ValueError before any solve.
    """
    penalty = penalty or PenaltySpec("l1", 0.0)
    X = np.asarray(X, float)
    y = np.asarray(y, float).ravel()
    n = X.shape[0]
    if y.size != n:
        raise ValueError("X and y length mismatch")
    if psi is not None:  # positive definiteness: theta_update factors psi before any solve
        psi = _checked_psi(psi, n)
    model = QGaussianModel(np.zeros(X.shape[1] + 1), 1.0, 1.0 + 1.0 / n, n, psi, penalty)
    model.theta = theta_update(model, X, y, solver, tol, max_iter)
    model.sigma2 = sigma2_update(model, X, y)
    model.q_train = q_update(model, X, y)
    model.fit_trace = np.array([neg_penalized_loglik(model, X, y)])
    return model


def recover_q_subset(q_train: float, n_train: int, n_subset: int) -> float:
    """Shape transfer to a subset of coordinates: the marginal of an
    n-dimensional q-Gaussian on n_subset coordinates has
    u' = u - (n - n_subset), with u = 1/(q-1)."""
    u = 1.0 / (q_train - 1.0) - n_train + n_subset
    if u <= n_subset / 2:
        raise ValueError("recovered q infeasible for the subset size")
    return 1.0 + 1.0 / u


def predict(model: QGaussianModel, X_new, psi_new_block=None):
    """(mean, q_new, covariance-or-None) on the rows of X_new; the covariance
    is m/(m-2) sigma^2 Psi_new (identity if None), and a Psi_new block that
    is not (rows, rows) or not symmetric raises ValueError."""
    X_new = np.asarray(X_new, float)
    if X_new.shape[1] + 1 != model.theta.size:
        raise ValueError("X_new has the wrong number of columns")
    n = X_new.shape[0]
    psi = np.eye(n) if psi_new_block is None else _checked_psi(psi_new_block, n, "psi_new_block")
    mean = _design(X_new) @ model.theta
    q_new = recover_q_subset(model.q_train, model.n_train, n)
    m_new = dof_from_q(q_new, n)
    if m_new > 2:
        return mean, q_new, m_new / (m_new - 2) * model.sigma2 * psi
    return mean, q_new, None
