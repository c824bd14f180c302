"""Simulation generators, recovery metrics, the lambda path, and the
benchmark harness.

The generators reproduce two experimental protocols at a configurable scale:
Toeplitz-correlated Gaussian designs with fixed or block signals for the
penalized-regression experiments, and the screening recipe (random true
support, correlated coefficients, optional element-wise squaring for
nonlinearity, continuous / original-binary / translated-binary outcomes).

Signal recovery fits a warm-started lambda path on strong sets of columns,
each fit checked against the KKT conditions on all columns (_fit_path).

Replications run in index order, each on a seed spawned from the master seed
by its index; worker count sets screen_all's column threads only, so it never
changes results.
"""

from __future__ import annotations

import contextlib
import csv
import json
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .agsolver import (  # noqa: F401 - pg_solve stays for perfbench's tracer to patch
    AGSchedule,
    ag_solve,
    ag_traces,
    least_squares_loss,
    logistic_loss,
    make_composite,
    make_linear_objective,
    make_logistic_objective,
    pg_solve,
    schedule_optimal,
    schedule_original,
)
from .data import FeatureMatrix, ResponseVector
from .penalty import PenaltySpec
from .screen import screen_all, selection_auroc, toeplitz

__all__ = [
    "SimSpec",
    "BenchReport",
    "gen_design",
    "gen_signal",
    "gen_outcome",
    "gen_dataset",
    "ppv_npv",
    "scaled_estimation_error",
    "lambda_path",
    "run_benchmark",
]

KINDS = ("screening_auroc", "ag_convergence", "signal_recovery", "qgaussian_recovery")
SIGNALS = ("four_fixed", "five_blocks", "screening_recipe")
OUTCOMES = (
    "linear",
    "logistic",
    "screening_continuous",
    "screening_binary_original",
    "screening_binary_translated",
)


@dataclass(frozen=True)
class SimSpec:
    n: int = 200
    p: int = 400
    tau: float = 0.5
    snr: float = 3.0
    signal: str = "five_blocks"
    outcome: str = "linear"
    seed: int = 0
    p_true: int = 10          # screening recipe only
    nonlinear: bool = True    # screening recipe step 4 (element-wise square)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if not 0 <= self.tau < 1:
            raise ValueError("tau must lie in [0, 1)")
        if not self.snr > 0:
            raise ValueError("snr must be positive (inf for a noiseless outcome)")
        if self.signal not in SIGNALS:
            raise ValueError(f"unknown signal {self.signal!r}")
        if self.outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.n < 3 and self.nonlinear and self.outcome.startswith("screening_"):
            # two standardized values are +-1/sqrt(2), so every squared column is constant
            raise ValueError("n must be at least 3 for the nonlinear screening outcomes")
        if self.signal == "screening_recipe" and not 1 <= self.p_true <= self.p:
            raise ValueError("p_true must lie in [1, p] for the screening_recipe signal")
        least = {"four_fixed": 4, "five_blocks": 50}.get(self.signal, 1)
        if self.p < least:
            raise ValueError(f"p must be at least {least} for the {self.signal} signal")


@dataclass
class BenchReport:
    kind: str
    rows: list          # one dict of metrics per replication
    summary: dict       # metric -> {"mean": ..., "se": ...}
    config: dict
    wall_time: float
    warnings: list      # {"rep", "category", "message"}: each a replication raised


@contextlib.contextmanager
def _recorded_warnings():
    """Record, and show none of, the warnings raised in the block, its threads'
    too: on exit the list yielded holds {"category", "message"} of each."""
    recorded = []
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        yield recorded
    recorded += [{"category": w.category.__name__, "message": str(w.message)} for w in seen]


def _toeplitz_chol(tau: float, p: int) -> np.ndarray | None:
    if tau == 0:
        return None
    # scipy's LAPACK call: numpy's cholesky differs in the last bit
    from scipy.linalg import cholesky

    return cholesky(toeplitz(tau ** np.arange(p)), lower=True)


def gen_design(spec: SimSpec, rng: np.random.Generator | None = None) -> FeatureMatrix:
    """Rows i.i.d. N(0, Sigma) with Sigma_{jk} = tau^|j-k|, columns to mean 0, sd 1."""
    rng = rng or np.random.default_rng(spec.seed)
    z = rng.standard_normal((spec.n, spec.p))
    L = _toeplitz_chol(spec.tau, spec.p)
    x = z if L is None else z @ L.T
    return FeatureMatrix(_standardize_matrix(x))


def gen_signal(spec: SimSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """Sparse true coefficient vector of length p."""
    rng = rng or np.random.default_rng(spec.seed)
    beta = np.zeros(spec.p)
    if spec.signal == "four_fixed":
        vals = (0.5, -0.5, 0.8, -0.8) if spec.outcome == "logistic" else (2.0, -2.0, 8.0, -8.0)
        gap = (spec.p - 4) // 4
        for j, v in enumerate(vals):
            beta[j * (gap + 1)] = v
    elif spec.signal == "five_blocks":
        if spec.outcome == "logistic":
            blocks = [(0.5, 1), (0.5, 1), (-0.5, 1), (-0.5, 1), (1, 1)]
        else:
            blocks = [(0.5, 1), (5, 2), (10, 3), (20, 4), (50, 5)]
        gap = (spec.p - 50) // 5
        for j, (mean, var) in enumerate(blocks):
            start = j * (10 + gap)
            beta[start : start + 10] = rng.normal(mean, np.sqrt(var), size=10)
    else:  # screening_recipe: random support, coefficients N(1, 0.6-Toeplitz)
        support = np.sort(rng.choice(spec.p, size=spec.p_true, replace=False))
        L = _toeplitz_chol(0.6, spec.p_true)
        z = rng.standard_normal(spec.p_true)
        beta[support] = 1.0 + (z if L is None else L @ z)
    return beta


def _standardize_matrix(x: np.ndarray) -> np.ndarray:
    # no column is constant: the draws are continuous, and SimSpec rejects n = 2 squared ones
    return (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


def gen_outcome(spec: SimSpec, X: FeatureMatrix, beta_true: np.ndarray,
                rng: np.random.Generator | None = None) -> ResponseVector:
    """Simulate the outcome for the given design and true coefficients."""
    rng = rng or np.random.default_rng(spec.seed)
    xv = X.values
    if spec.outcome in ("linear", "logistic"):
        sigma_cov = toeplitz(spec.tau ** np.arange(spec.p))
        signal_sd = float(np.sqrt(beta_true @ sigma_cov @ beta_true))
        sigma = signal_sd / spec.snr if np.isfinite(spec.snr) else 0.0
        eta = xv @ beta_true + rng.normal(0.0, sigma, size=spec.n)
        if spec.outcome == "linear":
            return ResponseVector(eta, "continuous")
        return _two_class(rng, eta, "logistic")

    # screening recipe: build X_true,2 from the support
    support = np.nonzero(beta_true)[0]
    b = beta_true[support]
    x1 = _standardize_matrix(xv[:, support])
    x2 = _standardize_matrix(x1**2) if spec.nonlinear else x1
    eta = x2 @ b
    if spec.outcome == "screening_continuous":
        sigma = float(np.sqrt(b @ x2.T @ x2 @ b / spec.snr))
        return ResponseVector(eta + rng.normal(0.0, sigma, size=spec.n), "continuous")
    tau_p = (eta - eta.mean()) / eta.std(ddof=1)
    if spec.outcome == "screening_binary_translated":
        tau_p = tau_p + np.arctanh(np.sqrt(1.0 / 3.0))
    return _two_class(rng, tau_p, "binary")


def _two_class(rng: np.random.Generator, logit: np.ndarray, what: str) -> ResponseVector:
    """Bernoulli(expit(logit)) draws, redrawn up to 10 times until both classes occur."""
    from scipy.special import expit

    prob = expit(logit)
    for _ in range(10):
        y = rng.binomial(1, prob).astype(float)
        if 0 < y.sum() < y.size:
            return ResponseVector(y, "binary")
        warnings.warn(f"degenerate {what} sample; resampling", stacklevel=3)
    raise ValueError("could not simulate a two-class outcome in 10 attempts")


def gen_dataset(spec: SimSpec, rng: np.random.Generator | None = None):
    """(design, outcome, beta_true) from one seeded pass."""
    rng = rng or np.random.default_rng(spec.seed)
    X = gen_design(spec, rng)
    beta = gen_signal(spec, rng)
    y = gen_outcome(spec, X, beta, rng)
    return X, y, beta


def ppv_npv(selected, truth) -> tuple[float | None, float | None]:
    """Positive / negative predictive value of a support guess."""
    sel, tru = np.asarray(selected, bool).ravel(), np.asarray(truth, bool).ravel()
    if sel.size != tru.size:  # broadcasting would hide it
        raise ValueError(f"lengths differ: {sel.size} and {tru.size}")
    ppv = float((sel & tru).sum() / sel.sum()) if sel.any() else None
    npv = float((~sel & ~tru).sum() / (~sel).sum()) if (~sel).any() else None
    return ppv, npv


def scaled_estimation_error(beta_true, beta_hat) -> float:
    """||beta_true - beta_hat||^2 / ||beta_true||^2."""
    bt, bh = np.asarray(beta_true, float).ravel(), np.asarray(beta_hat, float).ravel()
    if bt.size != bh.size:
        raise ValueError(f"lengths differ: {bt.size} and {bh.size}")
    denom = float(bt @ bt)
    if denom == 0:
        raise ValueError("beta_true must be nonzero")
    d = bt - bh
    return float(d @ d) / denom


def lambda_path(X, y, count: int = 50) -> np.ndarray:
    """Equally spaced penalty levels from lambda_max down to 0.

    lambda_max is the null-model gradient sup-norm, which zeroes all penalized
    coefficients for l1, SCAD, and MCP alike (they share the soft threshold
    near the origin).
    """
    xv = np.asarray(X, float)
    yv = np.asarray(y, float).ravel()
    n = xv.shape[0]
    lam_max = float(np.max(np.abs(xv.T @ (yv - yv.mean()) / n)))
    return np.linspace(lam_max, 0.0, count)


# ---------------------------------------------------------------------------
# benchmark kinds

E3 = float(np.exp(3.0))


def _iters_to_threshold(trace: np.ndarray, target: float) -> int:
    hits = np.nonzero(np.minimum.accumulate(trace) <= target)[0]
    return int(hits[0]) + 1 if hits.size else len(trace)


def _rep_screening(spec: SimSpec, rng, workers: int) -> dict:
    X, y, beta = gen_dataset(spec, rng)
    truth = beta != 0
    out = {}
    for method in ("fftkde", "binning", "knn", "pearson"):
        ranked = screen_all(X, y, method=method, workers=workers)
        scores = np.empty(spec.p)
        for j, s in ranked.ranking:
            scores[j] = s
        out[f"auroc_{method}"] = selection_auroc(scores, truth)
    return out


def _rep_ag(spec: SimSpec, rng, penalty: PenaltySpec, threshold: float, max_iter: int) -> dict:
    X, y, beta = gen_dataset(spec, rng)
    make = make_logistic_objective if spec.outcome == "logistic" else make_linear_objective
    obj = make(X.values, y.values, penalty)
    L, ones = obj.lipschitz, np.ones(max_iter)  # pg is the constant schedule 1, 1/L, 1/L
    scheds = [schedule_optimal(L, max_iter), schedule_original(L, max_iter),
              AGSchedule(ones, ones / L, ones / L)]
    traces = ag_traces(make_composite(obj, penalty), scheds, np.zeros(spec.p), max_iter)
    gstar = traces.min()
    return {f"iters_{k}": _iters_to_threshold(t, gstar + threshold)
            for k, t in zip(("ag_opt", "ag_orig", "pg"), traces)}


def _fit_path(make, X, y, penalty, lams, tol, max_iter, counts=None):
    # warm-started path, strongest penalty first, each lambda solved on a
    # strong set S (Tibshirani et al. 2012): the support so far and every
    # column whose loss gradient reaches 2 lambda_k - lambda_{k-1}.  ag_solve
    # runs on X[:, S] with that objective's own L.  A column off S with
    # |grad_j loss| > lambda (SCAD's and MCP's slope at 0) breaks the KKT
    # conditions: it joins S and the lambda is solved again.  An empty S needs
    # no solve, as every |grad_j| < 2 lambda_k - lambda_{k-1} <= lambda_k.
    # Every solve restarts AG's momentum.  counts, if given, gains the solves,
    # their iterations and restarts, and the unconverged ones.
    counts = {} if counts is None else counts
    counts.update(path_solves=0, path_iterations=0, path_restarts=0, path_unconverged=0)
    full = make(X, y, penalty)
    x = np.zeros(X.shape[1])
    grad, fits, built = full.grad(x), [], np.zeros(0, bool)
    for lam, lam_prev in zip(lams, [lams[0], *lams[:-1]]):
        pen = penalty.with_lambda(float(lam))
        S = new = (x != 0) | (np.abs(grad) >= 2 * lam - lam_prev)
        while new.any():
            if not np.array_equal(S, built):  # obj and sched, and so L, depend on S alone
                built, obj = S, full if S.all() else make(X[:, S], y, penalty)
                sched = schedule_optimal(obj.lipschitz, max_iter)
            rep = ag_solve(make_composite(obj, pen), sched, x[S], tol=tol, max_iter=max_iter,
                           restart=True)
            counts["path_solves"] += 1
            counts["path_iterations"] += rep.iterations
            counts["path_restarts"] += rep.restarts
            counts["path_unconverged"] += not rep.converged
            x = np.zeros(X.shape[1])
            x[S] = rep.estimate
            grad = full.grad(x)
            new = ~S & (np.abs(grad) > lam)
            S = S | new
        fits.append(x)
    return fits


def _rep_signal(spec: SimSpec, rng, penalty: PenaltySpec, path_len: int, max_iter: int) -> dict:
    X, y, beta = gen_dataset(spec, rng)
    # a fresh validation draw from the same model: a new design, the same beta
    Xv = gen_design(spec, rng)
    yv = gen_outcome(spec, Xv, beta, rng)
    make = make_logistic_objective if spec.outcome == "logistic" else make_linear_objective
    lams = lambda_path(X.values, y.values, path_len)
    counts = {}
    fits = _fit_path(make, X.values, y.values, penalty, lams, 1e-4, max_iter, counts)
    # the validation loss alone: an objective would also compute a Lipschitz constant
    loss = logistic_loss if spec.outcome == "logistic" else least_squares_loss
    losses = [loss(Xv.values, yv.values, b) for b in fits]
    best = int(np.argmin(losses))
    bhat = fits[best]
    ppv, npv = ppv_npv(bhat != 0, beta != 0)
    return {
        "lambda": float(lams[best]),
        "ppv": np.nan if ppv is None else ppv,
        "npv": np.nan if npv is None else npv,
        "scaled_error": scaled_estimation_error(beta, bhat),
        **counts,
    }


def _rep_qgaussian(spec: SimSpec, rng) -> dict:
    from .qgaussian import fit

    X, _, beta = gen_dataset(spec, rng)
    eta = X.values @ beta
    scale = max(float(np.std(eta)), 1.0) / spec.snr
    y = eta + rng.normal(0.0, scale, size=spec.n)
    model = fit(X.values, y, penalty=PenaltySpec("l1", 0.0), solver="pcg", tol=1e-5)
    m_hat = 2.0 / (model.q_train - 1.0) - model.n_train
    return {"m_hat": m_hat, "sigma2_hat": model.sigma2, "q_hat": model.q_train}


def run_benchmark(
    kind: str,
    spec: SimSpec,
    replications: int = 20,
    workers: int = 1,
    out_dir=None,
    penalty: PenaltySpec | None = None,
    threshold: float = E3,
    max_iter: int = 2000,
    path_len: int = 50,
) -> BenchReport:
    """Run one benchmark protocol; optionally write metrics.csv + report.json.

    Replications run in index order in the calling thread.  workers is the
    number of column threads screen_all uses in screening_auroc; the solver
    kinds run in one thread whatever it is.  Bad arguments raise ValueError
    before any replication runs.  A replication that raises becomes an error
    row; the summary is built from the rows that succeeded.  Every warning a
    replication raises is recorded in the report, none reaches the caller.
    """
    t0 = time.perf_counter()
    penalty = penalty or PenaltySpec("scad", 0.5, a=3.7)
    protocols = {
        "screening_auroc": lambda rng: _rep_screening(spec, rng, workers),
        "ag_convergence": lambda rng: _rep_ag(spec, rng, penalty, threshold, max_iter),
        "signal_recovery": lambda rng: _rep_signal(spec, rng, penalty, path_len, max_iter),
        "qgaussian_recovery": lambda rng: _rep_qgaussian(spec, rng),
    }
    if kind not in KINDS:
        raise ValueError(f"unknown benchmark kind {kind!r}")
    protocol = protocols[kind]
    sizes = dict(replications=replications, workers=workers, max_iter=max_iter, path_len=path_len)
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    if not 0 <= threshold < np.inf:  # NaN included
        raise ValueError(f"threshold must be finite and at least 0, got {threshold}")

    rows, caught = [], []
    for rep in range(replications):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(rep,)))
        with _recorded_warnings() as seen:
            try:
                rows.append({"rep": rep, **protocol(rng)})
            except Exception as exc:  # noqa: BLE001 - keep the run going
                rows.append({"rep": rep, "error": str(exc)})
        caught += [{"rep": rep, **w} for w in seen]

    ok = [r for r in rows if "error" not in r]
    keys = list(dict.fromkeys(k for r in ok for k in r if k != "rep"))
    summary = {}
    for k in keys:
        vals = np.asarray([r[k] for r in ok if k in r], float)
        vals = vals[np.isfinite(vals)]
        summary[k] = {
            "mean": float(vals.mean()) if vals.size else None,
            "se": float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else None,
        }
    report = BenchReport(
        kind=kind,
        rows=rows,
        summary=summary,
        config={"spec": asdict(spec), "replications": replications,
                "penalty": penalty.to_config(), "threshold": threshold,
                "max_iter": max_iter, "path_len": path_len},
        wall_time=time.perf_counter() - t0,
        warnings=caught,
    )
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def write_report(report: BenchReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fields = sorted({k for row in report.rows for k in row}, key=lambda k: (k != "rep", k))
    with open(out / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        for row in report.rows:
            w.writerow({k: (f"{v:.17g}" if isinstance(v, float) else v)
                        for k, v in row.items()})
    payload = {
        "kind": report.kind,
        "summary": report.summary,
        "config": report.config,
        "wall_time": report.wall_time,
        "warnings": report.warnings,
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
