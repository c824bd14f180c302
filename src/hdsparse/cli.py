"""Command-line entry point: hdsparse screen|fit|qfit|simulate|bench.

Every option's built-in default sits beside its flag in build_parser().  A
--config JSON file and HDSL_ environment variables can set options too: the
key of an option is its long flag with hyphens turned into underscores
(--max-iter: max_iter), and its variable is HDSL_ plus the key in upper case
(HDSL_MAX_ITER).  main() splices those values in as flags ahead of the command
line's own, so argparse checks them like flags and, since the last value wins,
flags > environment > config file > defaults.  A key that is no option of any
command raises ValueError; one of another command is ignored.  All outputs are
CSV/JSON files under --out-dir.
"""

from __future__ import annotations

import argparse
import csv
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
from .bench import E3, SimSpec, gen_dataset, run_benchmark
from .data import read_table, write_table
from .pcg import PCGConfig, pcg_solve
from .penalty import PenaltySpec
from .qgaussian import QGaussianFitConfig, fit as qfit_model
from .screen import screen_all


def _penalty_from(args) -> PenaltySpec:
    return PenaltySpec(args.penalty, args.lam,
                       a=args.a if args.penalty == "scad" else None,
                       gamma=args.gamma if args.penalty == "mcp" else None)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_common(p: argparse.ArgumentParser):
    # every command's options; --seed and --workers go only where they are read
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.add_argument("--config", help="JSON file of option values")


def _add_penalty(p: argparse.ArgumentParser):
    p.add_argument("--penalty", choices=("l1", "scad", "mcp"), default="scad")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--a", type=float, default=3.7)
    p.add_argument("--gamma", type=float, default=3.0)


def cmd_screen(args) -> int:
    out = _out_dir(args)
    X, y = read_table(args.data, outcome=args.outcome)
    ranked = screen_all(X, y, method=args.method, workers=args.workers)
    with open(out / "screen.csv", "w", newline="", encoding="utf-8") as fh:
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow(("feature", "score", "rank", "method"))
        names = X.column_names or tuple(f"x{j}" for j in range(X.p))
        for rank, (j, score) in enumerate(ranked.ranking, start=1):
            rows.writerow((names[j], f"{score:.17g}", rank, args.method))
    diag = {"method": args.method, "failures": list(ranked.failures), "workers": args.workers}
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
    out = _out_dir(args)
    penalty = _penalty_from(args)
    X, y = read_table(args.data, outcome=args.outcome)
    make = make_logistic_objective if y.kind == "binary" else make_linear_objective
    obj = make(X.values, y.values, penalty)
    x0 = np.zeros(X.p)
    if args.solver == "pcg":
        report, cert = pcg_solve(
            make_composite(obj, penalty),
            PCGConfig(rho=args.rho, line_search=args.line_search, tol=args.tol,
                      max_iter=args.max_iter), x0)
        extra = {"moreau_grad_norm": cert.moreau_grad_norm, "rho": cert.rho_used}
    else:
        if args.solver == "pg":
            report = pg_solve(obj, penalty, 1.0 / obj.lipschitz, x0, args.tol, args.max_iter)
        else:
            sched_fn = schedule_original if args.solver == "ag-orig" else schedule_optimal
            report = ag_solve(obj, penalty, sched_fn(obj.lipschitz, args.max_iter),
                              x0, args.tol, args.max_iter)
        extra = {"solver": args.solver}
    extra["penalty"] = penalty.to_config()
    (out / "fit.json").write_text(json.dumps(_report_json(report, extra), indent=2))
    print(out / "fit.json")
    return 0


def cmd_qfit(args) -> int:
    out = _out_dir(args)
    X, y = read_table(args.data, outcome=args.outcome)
    psi = None if args.psi == "identity" else read_table(args.psi)[0].values
    model = qfit_model(X.values, y.values, psi=psi, penalty=_penalty_from(args),
                       config=QGaussianFitConfig(solver=args.solver))
    payload = model.to_config()
    payload["fit_trace"] = model.fit_trace.tolist()
    (out / "qfit.json").write_text(json.dumps(payload, indent=2))
    print(out / "qfit.json")
    return 0


def _spec_from(args) -> SimSpec:
    return SimSpec(n=args.n, p=args.p, tau=args.tau, snr=args.snr, signal=args.signal,
                   outcome=args.outcome, seed=args.seed, p_true=args.p_true)


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    spec = _spec_from(args)
    X, y, beta = gen_dataset(spec)
    write_table(out / "simulated.csv", X, y)
    truth = {"beta_true": beta.tolist(), "spec": spec.__dict__}
    (out / "truth.json").write_text(json.dumps(truth, indent=2))
    print(out / "simulated.csv")
    return 0


def cmd_bench(args) -> int:
    out = _out_dir(args)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_benchmark(args.kind, _spec_from(args), replications=args.replications,
                      workers=args.workers, out_dir=out, penalty=_penalty_from(args),
                      threshold=args.threshold)
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
                   default="fftkde")
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("fit", help="penalized linear/logistic regression")
    p.add_argument("--data", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--solver", choices=("ag", "ag-orig", "pg", "pcg"), default="ag")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=2000)
    p.add_argument("--rho", type=float, help="pcg step (default: 0.5/L)")
    p.add_argument("--line-search", dest="line_search",
                   choices=("wolfe", "brent", "backtrack"), default="brent")
    _add_penalty(p)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("qfit", help="penalized q-Gaussian regression")
    p.add_argument("--data", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--psi", default="identity", help="'identity' or a CSV of the n x n Psi")
    p.add_argument("--solver", choices=("pcg", "ag"), default="pcg")
    _add_penalty(p)
    _add_common(p)
    p.set_defaults(func=cmd_qfit)

    for name, fn in (("simulate", cmd_simulate), ("bench", cmd_bench)):
        p = sub.add_parser(name, help=f"{name} synthetic data / protocols")
        if name == "bench":
            p.add_argument("--kind", required=True,
                           choices=("screening_auroc", "ag_convergence",
                                    "signal_recovery", "qgaussian_recovery"))
            p.add_argument("--replications", type=int, default=20)
            p.add_argument("--threshold", type=float, default=E3)
        p.add_argument("--n", type=int, default=200)
        p.add_argument("--p", type=int, default=400)
        p.add_argument("--tau", type=float, default=0.5)
        p.add_argument("--snr", type=float, default=3.0)
        p.add_argument("--signal", choices=("four_fixed", "five_blocks",
                                            "screening_recipe"), default="five_blocks")
        p.add_argument("--outcome", default="linear")
        p.add_argument("--p-true", dest="p_true", type=int, default=10)
        p.add_argument("--seed", type=int, default=0)
        if name == "bench":
            p.add_argument("--workers", type=int, default=1)
            _add_penalty(p)
        _add_common(p)
        p.set_defaults(func=fn)
    for p in sub.choices.values():       # --help lists every default
        for action in p._actions:
            if action.help is None and not action.required:
                action.help = "default: %(default)s"
    return parser


def _option_keys(p: argparse.ArgumentParser) -> dict:
    """Config key -> long flag of every option of one command but --config."""
    return {s[2:].replace("-", "_"): s for a in p._actions for s in a.option_strings
            if s.startswith("--") and s not in ("--help", "--config")}


def _layered_flags(parser: argparse.ArgumentParser, args) -> list[str]:
    """--flag=value tokens from the config file, then from HDSL_ variables."""
    commands = next(a for a in parser._actions if a.dest == "command").choices
    ours = _option_keys(commands[args.command])
    every = set().union(*map(_option_keys, commands.values()))
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    named = [(f"config key {key!r}", key, value) for key, value in config.items()]
    named += [(f"environment variable {name}", name[5:].lower(), value)
              for name, value in os.environ.items() if name.startswith("HDSL_")]
    sub = commands[args.command]
    tokens = []
    for what, key, value in named:
        if key not in every:
            raise ValueError(f"{what} names no option of any hdsparse command")
        if key in ours:
            # argparse's own type and choices check, run here so that its
            # error can say where the value came from
            try:
                sub._get_values(sub._option_string_actions[ours[key]], [str(value)])
            except argparse.ArgumentError as exc:
                sub.error(f"{exc} (from {what}={value})")
            tokens.append(f"{ours[key]}={value}")
    return tokens


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    layered = _layered_flags(parser, args)
    if layered:
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + layered + argv[at:])
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
