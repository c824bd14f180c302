"""Command-line entry point: hdsparse screen|fit|qfit|simulate|bench.

Option precedence is flags > environment (HDSL_ prefix) > --config JSON file >
built-in defaults.  All outputs are CSV/JSON files under --out-dir.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .agsolver import (
    ag_solve,
    make_composite,
    make_linear_objective,
    make_logistic_objective,
    pg_solve,
    schedule_optimal,
    schedule_original,
)
from .bench import SimSpec, gen_dataset, run_benchmark
from .data import read_table, write_table
from .pcg import PCGConfig, pcg_solve
from .penalty import PenaltySpec
from .qgaussian import QGaussianFitConfig, fit as qfit_model
from .screen import screen_all


def _resolve(args: argparse.Namespace, config: dict, key: str, default):
    """flags > HDSL_<KEY> environment > config file > default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    env = os.environ.get(f"HDSL_{key.upper()}")
    if env is not None:
        return type(default)(env) if default is not None else env
    if key in config:
        return config[key]
    return default


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            return json.load(fh)
    return {}


def _penalty_from(args, config) -> PenaltySpec:
    kind = _resolve(args, config, "penalty", "scad")
    lam = float(_resolve(args, config, "lam", 0.5))
    a = float(_resolve(args, config, "a", 3.7))
    gamma = float(_resolve(args, config, "gamma", 3.0))
    return PenaltySpec(kind, lam,
                       a=a if kind == "scad" else None,
                       gamma=gamma if kind == "mcp" else None)


def _out_dir(args, config) -> Path:
    out = Path(_resolve(args, config, "out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--config", default=None, help="JSON file with defaults")


def _add_penalty(p: argparse.ArgumentParser):
    p.add_argument("--penalty", choices=("l1", "scad", "mcp"), default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)


def cmd_screen(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    workers = int(_resolve(args, config, "workers", 1))
    method = _resolve(args, config, "method", "fftkde")
    X, y = read_table(args.data, outcome=args.outcome)
    if y is None:
        print("screen: an --outcome column is required", file=sys.stderr)
        return 2
    ranked = screen_all(X, y, method=method, workers=workers)
    with open(out / "screen.csv", "w", encoding="utf-8") as fh:
        fh.write("feature,score,rank,method\n")
        names = X.column_names or tuple(f"x{j}" for j in range(X.p))
        for rank, (j, score) in enumerate(ranked.ranking, start=1):
            fh.write(f"{names[j]},{score:.17g},{rank},{method}\n")
    diag = {"method": method, "failures": list(ranked.failures), "workers": workers}
    (out / "screen_diagnostics.json").write_text(json.dumps(diag, indent=2))
    print(out / "screen.csv")
    return 0


def _report_json(report, extra=None) -> dict:
    d = {
        "estimate": report.estimate.tolist(),
        "iterations": report.iterations,
        "converged": report.converged,
        "wall_time": report.wall_time,
        "objective_trace": report.objective_trace.tolist(),
        "grad_map_trace": report.grad_map_trace.tolist(),
    }
    if extra:
        d.update(extra)
    return d


def cmd_fit(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    penalty = _penalty_from(args, config)
    solver = _resolve(args, config, "solver", "ag")
    tol = float(_resolve(args, config, "tol", 1e-4))
    max_iter = int(_resolve(args, config, "max_iter", 2000))
    X, y = read_table(args.data, outcome=args.outcome)
    make = make_logistic_objective if y.kind == "binary" else make_linear_objective
    obj = make(X.values, y.values, penalty)
    x0 = np.zeros(X.p)
    if solver == "pcg":
        rho = _resolve(args, config, "rho", None)
        ls = _resolve(args, config, "line_search", "brent")
        comp = make_composite(obj, penalty)
        report, cert = pcg_solve(
            comp, PCGConfig(rho=None if rho is None else float(rho),
                            line_search=ls, tol=tol, max_iter=max_iter), x0)
        extra = {"moreau_grad_norm": cert.moreau_grad_norm, "rho": cert.rho_used}
    else:
        if solver == "pg":
            report = pg_solve(obj, penalty, 1.0 / obj.lipschitz, x0, tol, max_iter)
        else:
            sched_fn = schedule_original if solver == "ag-orig" else schedule_optimal
            report = ag_solve(obj, penalty, sched_fn(obj.lipschitz, max_iter),
                              x0, tol, max_iter)
        extra = {"solver": solver}
    extra["penalty"] = penalty.to_config()
    (out / "fit.json").write_text(json.dumps(_report_json(report, extra), indent=2))
    print(out / "fit.json")
    return 0


def cmd_qfit(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    penalty = _penalty_from(args, config)
    X, y = read_table(args.data, outcome=args.outcome)
    psi = None
    if args.psi and args.psi != "identity":
        psi_fm, _ = read_table(args.psi)
        psi = psi_fm.values
    cfg = QGaussianFitConfig(solver=_resolve(args, config, "solver", "pcg"))
    model = qfit_model(X.values, y.values, psi=psi, penalty=penalty, config=cfg)
    payload = model.to_config()
    payload["fit_trace"] = model.fit_trace.tolist()
    (out / "qfit.json").write_text(json.dumps(payload, indent=2))
    print(out / "qfit.json")
    return 0


def _spec_from(args, config) -> SimSpec:
    return SimSpec(
        n=int(_resolve(args, config, "n", 200)),
        p=int(_resolve(args, config, "p", 400)),
        tau=float(_resolve(args, config, "tau", 0.5)),
        snr=float(_resolve(args, config, "snr", 3.0)),
        signal=_resolve(args, config, "signal", "five_blocks"),
        outcome=_resolve(args, config, "outcome", "linear"),
        seed=int(_resolve(args, config, "seed", 0)),
        p_true=int(_resolve(args, config, "p_true", 10)),
    )


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    spec = _spec_from(args, config)
    X, y, beta = gen_dataset(spec)
    write_table(out / "simulated.csv", X, y)
    truth = {"beta_true": beta.tolist(), "spec": spec.__dict__}
    (out / "truth.json").write_text(json.dumps(truth, indent=2))
    print(out / "simulated.csv")
    return 0


def cmd_bench(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    spec = _spec_from(args, config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_benchmark(
            args.kind,
            spec,
            replications=int(_resolve(args, config, "replications", 20)),
            workers=int(_resolve(args, config, "workers", 1)),
            out_dir=out,
            penalty=_penalty_from(args, config),
            threshold=float(_resolve(args, config, "threshold", float(np.exp(3)))),
        )
    print(out / "report.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hdsparse",
                                     description="sparse learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("screen", help="rank features by association with the outcome")
    p.add_argument("--data", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--method", choices=("fftkde", "binning", "knn", "pearson"),
                   default=None)
    _add_common(p)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("fit", help="penalized linear/logistic regression")
    p.add_argument("--data", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--solver", choices=("ag", "ag-orig", "pg", "pcg"), default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--line-search", dest="line_search",
                   choices=("wolfe", "brent", "backtrack"), default=None)
    _add_penalty(p)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("qfit", help="penalized q-Gaussian regression")
    p.add_argument("--data", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--psi", default="identity")
    p.add_argument("--solver", choices=("pcg", "ag"), default=None)
    _add_penalty(p)
    _add_common(p)
    p.set_defaults(func=cmd_qfit)

    for name, fn in (("simulate", cmd_simulate), ("bench", cmd_bench)):
        p = sub.add_parser(name, help=f"{name} synthetic data / protocols")
        if name == "bench":
            p.add_argument("--kind", required=True,
                           choices=("screening_auroc", "ag_convergence",
                                    "signal_recovery", "qgaussian_recovery"))
            p.add_argument("--replications", type=int, default=None)
            p.add_argument("--threshold", type=float, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--snr", type=float, default=None)
        p.add_argument("--signal", choices=("four_fixed", "five_blocks",
                                            "screening_recipe"), default=None)
        p.add_argument("--outcome", default=None)
        p.add_argument("--p-true", dest="p_true", type=int, default=None)
        _add_penalty(p)
        _add_common(p)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
