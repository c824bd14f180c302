"""The benchmark's tracer wraps hdsparse functions by attribute name.

A renamed or deleted attribute makes every traced benchmark run crash in
Tracer.install(); a call that no longer goes through the patched name silently
drops out of the per-layer counts.  Both are checked here.
"""

import importlib
from pathlib import Path

import numpy as np

from hdsparse.agsolver import ag_solve, make_composite, make_linear_objective, schedule_optimal
from hdsparse.data import FeatureMatrix, ResponseVector
from hdsparse.pcg import pcg_solve
from hdsparse.penalty import PenaltySpec
from hdsparse.screen import screen_all

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_patches_exist_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched
        for owner, attr, orig in patched:
            assert _current(owner, attr).__wrapped__ is orig, attr
        # the solvers reach the concave part, the prox and the pcg internals
        # through the patched names
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 6))
        y = rng.normal(size=30)
        pen = PenaltySpec("scad", 0.1, a=3.7)
        obj = make_linear_objective(X, y, pen)
        comp = make_composite(obj, pen)
        ag_solve(comp, schedule_optimal(obj.lipschitz, 20), np.zeros(6), max_iter=20)
        pcg_solve(comp, np.zeros(6), max_iter=5)
        # screen_all reaches every estimator and both kernels through the
        # dispatch table and the module names
        for method in ("fftkde", "binning", "knn", "pearson"):
            screen_all(FeatureMatrix(X), ResponseVector(y), method=method)
        calls = {name: n for name, (n, _, _) in tracer.totals().items()}
    finally:
        tracer.uninstall()
    # penalty.h_value is patched but no solver calls it: the composite's value
    # sums the penalty through penalty.penalty_sum
    for name in ("penalty.h_grad", "penalty.prox_scaled_l1",
                 "pcg.line_search", "pcg.moreau_grad",
                 "screen.mi_fftkde", "screen.mi_binning", "screen.mi_knn",
                 "screen.pearson_abs", "screen.fft_kde_2d", "screen.bin_count"):
        assert calls.get(name, 0) > 0, name
    for owner, attr, orig in patched:
        assert _current(owner, attr) is orig, attr


def test_pg_solve_counts_only_as_pg_under_the_tracer(monkeypatch):
    # pg_solve runs ag_solve on a constant schedule; that nested call goes
    # through agsolver's own name, so it must not add AG iterations
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    import hdsparse.bench

    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 6))
    y = rng.normal(size=30)
    pen = PenaltySpec("scad", 0.1, a=3.7)
    obj = make_linear_objective(X, y, pen)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        rep = hdsparse.bench.pg_solve(make_composite(obj, pen), 1 / obj.lipschitz, np.zeros(6),
                                      max_iter=40)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert rep.iterations > 0
    assert metrics["agsolver.pg_iterations"] == rep.iterations
    assert metrics["agsolver.ag_iterations"] == 0
    assert metrics["agsolver.solves"] == 1


def test_traced_ag_convergence_runs_the_lockstep_solve(monkeypatch):
    # the tracer's solve counts read .iterations from what bench.ag_solve and
    # bench.pg_solve return; the lockstep solve must leave those names alone
    # and still reach the traced loss
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    import hdsparse.bench
    from hdsparse.bench import SimSpec

    spec = SimSpec(n=40, p=60, signal="five_blocks", seed=2)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        rep = hdsparse.bench.run_benchmark("ag_convergence", spec, replications=1, max_iter=50)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert "error" not in rep.rows[0]
    assert metrics["agsolver.loss_grad_calls"] > 0
