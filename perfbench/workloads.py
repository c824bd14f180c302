"""The three workloads: their seeded inputs, the CLI commands they time, and
the checks each command's output must pass.

A workload's ``build(seed, instance, work)`` writes its input CSVs under
``work`` and returns its operations.  An operation is one end-to-end timing
(``fit.ag_s``, ...) made of one or more ``hdsparse`` commands run in order.
The program sees only the CSVs and its argv; the checks compare its output
files with what the benchmark computes from its own copy of the data.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz

from hdsparse import (
    FeatureMatrix,
    PenaltySpec,
    ResponseVector,
    SimSpec,
    gen_dataset,
    gen_design,
    gen_outcome,
    gen_signal,
    linearized_moreau_grad,
    make_composite,
    make_linear_objective,
    make_logistic_objective,
    write_table,
)

# ||s(x_hat)||_inf a fit must reach, recomputed here with rho = 0.5/L.  The
# solvers stop on their own criteria at tol=1e-6; at the first benchmarked
# commit the worst fit (pg) reached 8e-6.
STATIONARITY_TOL = 1e-4
# relative distance of the q-Gaussian theta from a dense GLS / OLS solve
# (2e-7 at worst at the first benchmarked commit)
THETA_RTOL = 1e-5
# every screening method must rank each planted column within this many
PLANTED_TOP_K = 10


class CheckFailed(Exception):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


@dataclass
class Command:
    argv: list[str]
    out_dir: Path
    check: Callable[[Path], None]


@dataclass
class Op:
    name: str
    commands: list[Command]


def _write(path: Path, X: np.ndarray, y: np.ndarray, kind: str) -> None:
    names = tuple(f"x{j}" for j in range(X.shape[1]))
    write_table(path, FeatureMatrix(X, names), ResponseVector(y, kind))


# ---------------------------------------------------------------------------
# screen: per-column estimator kernels, no solver code


def build_screen(seed: int, instance: int, work: Path) -> list[Op]:
    """n=500, p=250 Toeplitz(0.5) design with the screening recipe's 10 true
    columns, plus 3 planted columns that are noisy monotone transforms of y."""
    spec = SimSpec(n=500, p=250, tau=0.5, signal="screening_recipe",
                   outcome="screening_continuous", seed=seed, p_true=10)
    X, y, _ = gen_dataset(spec)
    rng = np.random.default_rng([seed, 1])
    ys = (y.values - y.values.mean()) / y.values.std()
    planted = []
    for f in (ys, np.tanh(ys), np.exp(ys / 2)):
        planted.append(f + 0.3 * f.std() * rng.standard_normal(spec.n))
    p_all = spec.p + len(planted)
    where = np.sort(rng.choice(p_all, size=len(planted), replace=False))
    keep = np.setdiff1d(np.arange(p_all), where)
    values = np.empty((spec.n, p_all))
    values[:, keep] = X.values
    values[:, where] = np.column_stack(planted)
    data = work / "screen.csv"
    _write(data, values, y.values, "continuous")
    planted_names = {f"x{j}" for j in where}

    def check(method):
        def run(out: Path) -> None:
            with open(out / "screen.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            _require(len(rows) == p_all, f"{len(rows)} rows for {p_all} columns")
            _require({r["feature"] for r in rows} == {f"x{j}" for j in range(p_all)},
                     "screen.csv does not list every column once")
            _require(all(math.isfinite(float(r["score"])) for r in rows),
                     "non-finite score")
            _require(all(r["method"] == method for r in rows), "wrong method column")
            top = {r["feature"] for r in rows[:PLANTED_TOP_K]}
            _require(planted_names <= top,
                     f"{method}: planted {sorted(planted_names - top)} not in top {PLANTED_TOP_K}")
        return run

    ops = []
    for method in ("fftkde", "binning", "knn", "pearson"):
        out = work / "out" / method
        argv = ["screen", "--data", str(data), "--outcome", "y", "--method", method,
                "--workers", "1", "--out-dir", str(out)]
        ops.append(Op(f"screen.{method}_s", [Command(argv, out, check(method))]))
    return ops


# ---------------------------------------------------------------------------
# regress: long cold-started solves and the q-Gaussian fit


FIT_PROBLEMS = (
    # (data set, penalty flags, PenaltySpec)
    ("linear", ["--penalty", "scad", "--lambda", "0.5", "--a", "3.7"],
     PenaltySpec("scad", 0.5, a=3.7)),
    ("linear", ["--penalty", "mcp", "--lambda", "0.5", "--gamma", "3"],
     PenaltySpec("mcp", 0.5, gamma=3.0)),
    ("logistic", ["--penalty", "scad", "--lambda", "0.05", "--a", "3.7"],
     PenaltySpec("scad", 0.05, a=3.7)),
)


def build_regress(seed: int, instance: int, work: Path) -> list[Op]:
    """One n=200, p=400 five_blocks design with a linear and a logistic
    outcome, and an n=200, p=20 regression with t5 noise plus a Toeplitz(0.5)
    Psi.  ``instance`` draws the problems; ``seed`` permutes rows and columns
    and flips column signs, which changes every input byte but not the
    problems, so solver iteration counts (which vary by about 30% between
    random instances of this size) stay put and the timings stay comparable.
    """
    rng = np.random.default_rng(instance)
    lin = SimSpec(n=200, p=400, tau=0.5, signal="five_blocks", outcome="linear")
    log = replace(lin, outcome="logistic")
    X = gen_design(lin, rng).values
    outcomes = {}
    for spec in (lin, log):
        y = gen_outcome(spec, FeatureMatrix(X), gen_signal(spec, rng), rng)
        outcomes[spec.outcome] = y
    tspec = SimSpec(n=200, p=20, tau=0.5, signal="four_fixed", outcome="linear")
    Xt = gen_design(tspec, rng).values
    yt = Xt @ gen_signal(tspec, rng) + rng.standard_t(5, size=tspec.n)
    psi = toeplitz(0.5 ** np.arange(tspec.n))

    prng = np.random.default_rng(seed)
    rows, cols = prng.permutation(lin.n), prng.permutation(lin.p)
    X = X[rows][:, cols] * prng.choice([-1.0, 1.0], size=lin.p)
    data = {}
    for name, y in outcomes.items():
        data[name] = (X, y.values[rows], work / f"{name}.csv")
        _write(data[name][2], X, y.values[rows], y.kind)
    rows, cols = prng.permutation(tspec.n), prng.permutation(tspec.p)
    Xt = Xt[rows][:, cols] * prng.choice([-1.0, 1.0], size=tspec.p)
    yt, psi = yt[rows], psi[np.ix_(rows, rows)]
    t_csv, psi_csv = work / "heavy.csv", work / "psi.csv"
    _write(t_csv, Xt, yt, "continuous")
    write_table(psi_csv, FeatureMatrix(psi, tuple(f"r{i}" for i in range(tspec.n))))

    def fit_check(X, y, penalty):
        # the CLI picks the logistic loss for an all-0/1 outcome column
        binary = np.all(np.isin(y, (0.0, 1.0)))
        make = make_logistic_objective if binary else make_linear_objective

        def run(out: Path) -> None:
            obj = make(X, y, penalty)
            comp = make_composite(obj, penalty)
            rep = json.loads((out / "fit.json").read_text())
            _require(rep["converged"] is True, f"not converged after {rep['iterations']} iterations")
            x_hat = np.asarray(rep["estimate"], float)
            _require(x_hat.shape == (X.shape[1],), "estimate has the wrong length")
            s = np.max(np.abs(linearized_moreau_grad(comp, x_hat, 0.5 / obj.lipschitz)))
            _require(s <= STATIONARITY_TOL, f"stationarity {s:.3e} > {STATIONARITY_TOL:g}")
        return run

    def qfit_check(Psi):
        def run(out: Path) -> None:
            Xd = np.column_stack([np.ones(tspec.n), Xt])
            if Psi is None:
                theta_ref = np.linalg.lstsq(Xd, yt, rcond=None)[0]
            else:
                c = cho_factor(Psi)
                theta_ref = np.linalg.solve(Xd.T @ cho_solve(c, Xd), Xd.T @ cho_solve(c, yt))
            rep = json.loads((out / "qfit.json").read_text())
            theta = np.asarray(rep["theta"], float)
            err = np.linalg.norm(theta - theta_ref) / np.linalg.norm(theta_ref)
            _require(err <= THETA_RTOL, f"theta off the dense solve by {err:.3e} (relative)")
            _require(rep["sigma2"] > 0, "sigma2 <= 0")
            q, n = rep["q_train"], rep["n_train"]
            _require(1 < q < 1 + 2 / n, f"q={q!r} outside (1, 1 + 2/n)")
        return run

    ops = []
    for solver in ("ag", "pg", "pcg"):
        cmds = []
        for i, (name, flags, penalty) in enumerate(FIT_PROBLEMS):
            Xi, yi, path = data[name]
            out = work / "out" / f"fit-{solver}-{i}"
            argv = ["fit", "--data", str(path), "--outcome", "y", "--solver", solver,
                    *flags, "--tol", "1e-6", "--max-iter", "20000", "--out-dir", str(out)]
            cmds.append(Command(argv, out, fit_check(Xi, yi, penalty)))
        ops.append(Op(f"fit.{solver}_s", cmds))
    for label, Psi in (("psi", psi), ("iid", None)):
        cmds = []
        for solver in ("pcg", "ag"):
            out = work / "out" / f"qfit-{label}-{solver}"
            argv = ["qfit", "--data", str(t_csv), "--outcome", "y", "--penalty", "l1",
                    "--lambda", "0", "--solver", solver, "--out-dir", str(out)]
            if Psi is not None:
                argv[5:5] = ["--psi", str(psi_csv)]
            cmds.append(Command(argv, out, qfit_check(Psi)))
        ops.append(Op(f"qfit.{label}_s", cmds))
    return ops


# ---------------------------------------------------------------------------
# simulate: the paper-reproduction harness, data generated inside the program


def build_simulate(seed: int, instance: int, work: Path) -> list[Op]:
    """``hdsparse bench`` at n=200, p=400, default SCAD, as one-replication
    commands with program seeds 4*seed, 4*seed + 1, ...: four of
    signal_recovery, whose work varies by about 10% between seeds, and two of
    ag_convergence, whose work is fixed.  Short commands let the reference
    kernel run between them, which tracks the machine's speed more closely."""

    first_body = {}

    def check(out: Path) -> None:
        body = (out / "metrics.csv").read_bytes()
        with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) == 1, f"{len(rows)} replication rows, expected 1")
        _require(not any(r.get("error") for r in rows), "error rows in metrics.csv")
        summary = json.loads((out / "report.json").read_text())["summary"]
        _require(bool(summary), "empty summary")
        _require(all(v["mean"] is not None for v in summary.values()), "null summary mean")
        _require(first_body.setdefault(out, body) == body,
                 "metrics.csv differs between passes with the same seed")

    ops = []
    for kind, copies in (("signal_recovery", 4), ("ag_convergence", 2)):
        cmds = []
        for program_seed in range(4 * seed, 4 * seed + copies):
            out = work / "out" / f"{kind}-{program_seed}"
            argv = ["bench", "--kind", kind, "--n", "200", "--p", "400", "--replications", "1",
                    "--workers", "1", "--seed", str(program_seed), "--out-dir", str(out)]
            cmds.append(Command(argv, out, check))
        ops.append(Op(f"bench.{kind}_s", cmds))
    return ops


WORKLOADS = {"screen": build_screen, "regress": build_regress, "simulate": build_simulate}
