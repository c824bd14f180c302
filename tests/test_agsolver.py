import functools
import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hdsparse.agsolver import (
    AGSchedule,
    SmoothObjective,
    admissible_ab,
    ag_solve,
    ag_traces,
    complexity_bound,
    damping_lower_bound,
    least_squares_loss,
    logistic_loss,
    make_composite,
    make_linear_objective,
    make_logistic_objective,
    optimal_ab,
    pg_solve,
    schedule_optimal,
    schedule_original,
    verify_schedule,
)
from hdsparse.pcg import linearized_moreau_grad, pcg_solve
from hdsparse.penalty import PenaltySpec, lipschitz_h, penalty_value


def test_schedule_optimal_exact_heads():
    s = schedule_optimal(1.5, 10)
    assert s.alphas[0] == 1.0
    assert abs(s.alphas[1] - (np.sqrt(5) - 1) / 2) <= 1e-12
    assert np.allclose(s.omegas, 4 / 9)          # 2/(3L) at L = 1.5
    assert s.deltas[0] == s.omegas[0]
    assert np.allclose(s.deltas, s.omegas / s.alphas)


def test_schedule_optimal_shares_its_alphas_across_l():
    # the alphas do not depend on L: a lambda path with one L per strong set
    # runs their recurrence once, and no caller can write to the shared copy
    a, b = schedule_optimal(1.5, 300), schedule_optimal(7.0, 300)
    assert a.alphas is b.alphas and not a.alphas.flags.writeable
    assert np.array_equal(b.deltas, b.omegas / b.alphas) and b.omegas[0] == 2 / 21


def test_schedule_optimal_verifies_and_alpha_bound():
    L = 2.3
    s = schedule_optimal(L, 10_000)
    ok, why = verify_schedule(s, L)
    assert ok, why
    k = np.arange(1, 10_001)
    assert np.all(s.alphas <= 2 / (k + 1) + 1e-15)


def test_schedule_original():
    s = schedule_original(1.5, 50)
    assert s.alphas[2] == 0.5                    # 2/(k+1) at k = 3
    assert np.all(s.omegas == s.omegas[0])
    ok, why = verify_schedule(s, 1.5)
    assert ok, why


@pytest.mark.parametrize("L", [1e-3, 1.0, 1e3])
def test_schedule_original_passes_verify_schedule(L):
    # schedule_original does not check itself: alpha_k delta_k = k omega/(k+1)
    # <= omega < 1/L and alpha_k/(delta_k Gamma_k) = 2/omega for every L
    for N in (1, 2, 50, 20_000):
        ok, why = verify_schedule(schedule_original(L, N), L)
        assert ok, (N, why)


def test_verify_schedule_rejects_violations():
    L = 1.0
    s = schedule_optimal(L, 20)
    # omega at 1/L breaks strictness of convcond1
    bad1 = AGSchedule(s.alphas, s.deltas, np.full(20, 1.0 / L))
    ok, why = verify_schedule(bad1, L)
    assert not ok and "convcond1" in why
    # delta_2 halved breaks the alpha*delta <= omega inequality
    d = s.deltas.copy()
    d[1] /= 2
    ok, why = verify_schedule(AGSchedule(s.alphas, d, s.omegas), L)
    assert not ok and "k=2" in why
    # delta_3 shrunk breaks convcond2 monotonicity at k=3
    d = s.deltas.copy()
    d[2] /= 2
    ok, why = verify_schedule(AGSchedule(s.alphas, d, s.omegas), L)
    assert not ok and "convcond2" in why and "k=3" in why
    # alpha_1 != 1
    a = s.alphas.copy()
    a[0] = 0.9
    ok, why = verify_schedule(AGSchedule(a, s.deltas, s.omegas), L)
    assert not ok


def test_gamma_recursion():
    s = schedule_optimal(1.0, 30)
    g = np.empty(30)
    g[0] = 1.0
    for k in range(1, 30):
        g[k] = (1 - s.alphas[k]) * g[k - 1]
    assert np.allclose(s.gammas, g)
    # for this recursion Gamma_k = alpha_k^2
    assert np.allclose(s.gammas, s.alphas**2)


def test_grad_mapping():
    # Ghadimi and Lan's G(x, y, c) = (x - P(x, y, c))/c is the linearized
    # Moreau map at rho = c with y as the gradient
    obj = make_linear_objective(np.eye(2), np.zeros(2))
    x, y = np.array([1.0, -2.0]), np.array([0.3, 0.4])
    assert np.allclose(linearized_moreau_grad(make_composite(obj, PenaltySpec("l1", 0.0)),
                                              x, 0.7, y), y)
    # fixed point of the prox has zero mapping
    xf = np.zeros(2)
    assert np.allclose(linearized_moreau_grad(make_composite(obj, PenaltySpec("l1", 1.0)),
                                              xf, 1.0, np.zeros(2)), 0.0)


def _quad_obj(L=2.0, target=3.0):
    return SmoothObjective(
        value=lambda x: float(0.5 * L * np.sum((x - target) ** 2)),
        grad=lambda x: L * (x - target),
        lipschitz=L,
        dimension=1,
    )


def test_ag_solve_quadratic():
    obj = _quad_obj()
    rep = ag_solve(make_composite(obj, PenaltySpec("l1", 0.0)), schedule_optimal(2.0, 1000),
                   np.zeros(1), tol=1e-8, max_iter=1000)
    assert rep.converged
    assert abs(rep.estimate[0] - 3.0) <= 1e-6
    assert len(rep.objective_trace) == rep.iterations


def test_ag_solve_lambda_max_dead_zone():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 10))
    X = (X - X.mean(0)) / X.std(0, ddof=1)
    y = rng.normal(size=50)
    lam = float(np.max(np.abs(X.T @ y / 50))) * 1.001
    obj = make_linear_objective(X, y)
    rep = ag_solve(make_composite(obj, PenaltySpec("l1", lam)),
                   schedule_optimal(obj.lipschitz, 500), np.zeros(10), tol=1e-10, max_iter=500)
    assert np.all(rep.estimate == 0.0)


def test_momentum_identity_smooth():
    # the md iterate computed by the mixing step equals the momentum form
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 6))
    y = rng.normal(size=30)
    obj = make_linear_objective(X, y)
    s = schedule_optimal(obj.lipschitz, 60)
    x = np.zeros(6)
    x_ag = x.copy()
    worst = 0.0
    for k in range(59):
        a, d, w = s.alphas[k], s.deltas[k], s.omegas[k]
        x_md = (1 - a) * x_ag + a * x
        g = obj.grad(x_md)
        x = x - d * g
        x_ag_new = x_md - w * g
        a2 = s.alphas[k + 1]
        # coefficient of the gradient-correction term is nonnegative
        assert a2 * (1 / a - d / w) >= -1e-12
        mom = (x_ag_new + a2 * (1 / a - d / w) * (w * g)
               + a2 * (1 / a - 1) * (x_ag_new - x_ag))
        mix = (1 - a2) * x_ag_new + a2 * x
        worst = max(worst, float(np.max(np.abs(mom - mix))))
        x_ag = x_ag_new
    assert worst <= 1e-10


def test_pg_solve_monotone_and_quadratic():
    obj = _quad_obj()
    rep = pg_solve(make_composite(obj, PenaltySpec("l1", 0.0)), 1 / 2.0, np.zeros(1),
                   tol=1e-10, max_iter=200)
    assert abs(rep.estimate[0] - 3.0) <= 1e-8
    assert np.all(np.diff(rep.objective_trace) <= 1e-10)


def test_pg_solve_lambda_max_one_step():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 8))
    y = rng.normal(size=40)
    lam = float(np.max(np.abs(X.T @ y / 40))) * 1.01
    obj = make_linear_objective(X, y)
    rep = pg_solve(make_composite(obj, PenaltySpec("l1", lam)), 1 / obj.lipschitz, np.zeros(8),
                   tol=1e-12, max_iter=10)
    assert np.all(rep.estimate == 0.0)
    assert rep.iterations == 1


def test_ag_solve_rejects_a_schedule_shorter_than_max_iter():
    # it used to stop silently at the end of the schedule, unconverged
    obj = _quad_obj()
    with pytest.raises(ValueError, match=r"^schedule has 5 steps, fewer than max_iter=2000$"):
        ag_solve(make_composite(obj, PenaltySpec("l1", 0.0)), schedule_optimal(obj.lipschitz, 5),
                 np.zeros(1), tol=1e-8, max_iter=2000)
    rep = ag_solve(make_composite(obj, PenaltySpec("l1", 0.0)), schedule_optimal(obj.lipschitz, 5),
                   np.zeros(1), tol=0.0, max_iter=5)
    assert rep.iterations == 5


def test_pg_step_validation():
    obj = _quad_obj()
    with pytest.raises(ValueError):
        pg_solve(make_composite(obj, PenaltySpec("l1", 0.0)), 1.0, np.zeros(1))


def test_pg_step_bound_is_relative_to_one_over_l():
    # an absolute slack of 1e-15 on 1/L let any step through once 1/L was
    # far below it: here L is about 1.5e16, and 3/L passed
    X = np.random.default_rng(0).normal(size=(50, 5)) * 1e8
    obj = make_linear_objective(X, X[:, 0])
    comp = make_composite(obj, PenaltySpec("l1", 0.0))
    with pytest.raises(ValueError, match=r"^step must lie in \(0, 1/L\], got "):
        pg_solve(comp, 3 / obj.lipschitz, np.zeros(5), max_iter=5)
    assert pg_solve(comp, 1 / obj.lipschitz, np.zeros(5), max_iter=5).iterations >= 1


@pytest.mark.parametrize("step", [np.nan, 0.0, -0.1])
def test_pg_solve_rejects_a_step_that_is_not_positive(step):
    # a NaN step used to pass `step > 1/L` and die as a non-finite objective;
    # zero and negative steps failed only inside the first prox call
    with pytest.raises(ValueError, match=r"^step must lie in \(0, 1/L\], got "):
        pg_solve(make_composite(_quad_obj(), PenaltySpec("l1", 0.0)), step, np.zeros(1), max_iter=5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["deltas", "omegas"])
def test_ag_schedule_rejects_steps_that_are_not_finite_and_positive(name, bad):
    # a NaN delta used to die as "non-finite gradient at iteration 2", a
    # negative omega inside the first prox call
    s = schedule_optimal(1.0, 5)
    steps = dict(alphas=s.alphas, deltas=s.deltas, omegas=s.omegas)
    steps[name] = steps[name].copy()
    steps[name][1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive$"):
        AGSchedule(**steps)


@pytest.mark.parametrize("bad", [np.nan, 0.0, -0.5, 1.5])
def test_ag_schedule_rejects_alphas_outside_the_unit_interval(bad):
    s = schedule_optimal(1.0, 5)
    a = s.alphas.copy()
    a[2] = bad
    with pytest.raises(ValueError, match=r"^alphas must lie in \(0, 1\]$"):
        AGSchedule(a, s.deltas, s.omegas)


def test_ag_solve_and_ag_traces_reject_a_mis_shaped_start():
    # a wrong length used to surface as numpy's matmul error; both take one
    # (p,) start, the lockstep too, and ag_solve no longer a (1, p) block
    obj, pen = _regression("linear", "scad")
    comp = make_composite(obj, pen)
    p, s = obj.dimension, schedule_optimal(obj.lipschitz, 10)
    for x0 in (np.zeros(p + 1), np.zeros((1, p)), np.zeros((3, p)), np.zeros((p, 1))):
        msg = f"x0 has shape {x0.shape}; need ({p},)"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            ag_traces(comp, [s, s, s], x0, max_iter=10)
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            ag_solve(comp, s, x0, max_iter=10)


@pytest.mark.parametrize("tol", [np.nan, -1e-6])
def test_ag_solve_rejects_a_tol_that_is_nan_or_negative(tol):
    # a NaN tol used to run every iteration and report not converged
    obj, pen = _regression("linear", "scad")
    comp, s = make_composite(obj, pen), schedule_optimal(obj.lipschitz, 10)
    with pytest.raises(ValueError, match=r"^tol must be >= 0, got "):
        ag_solve(comp, s, np.zeros(obj.dimension), tol=tol, max_iter=10)
    with pytest.raises(ValueError, match=r"^tol must be >= 0, got "):
        pg_solve(comp, 1 / obj.lipschitz, np.zeros(obj.dimension), tol=tol, max_iter=10)


def _solve(solver, comp, x0, max_iter):
    # one solver on comp from x0: ag, pg and pcg give their report, the lockstep its traces
    L = comp.obj.lipschitz
    if solver == "ag":
        return ag_solve(comp, schedule_optimal(L, max(max_iter, 1)), x0, max_iter=max_iter)
    if solver == "pg":
        return pg_solve(comp, 1 / L, x0, max_iter=max_iter)
    if solver == "pcg":
        return pcg_solve(comp, x0, max_iter=max_iter)[0]
    return ag_traces(comp, _schedules(L, max(max_iter, 1)), x0, max_iter)


@pytest.mark.parametrize("solver", ["ag", "pg", "pcg", "traces"])
def test_a_solve_of_no_steps_returns_the_start(solver):
    # the estimate is bound before the first step, to a copy of the start;
    # the lockstep gives one empty trace per schedule
    obj, pen = _regression("linear", "scad")
    x0 = np.linspace(-1.0, 1.0, obj.dimension)
    rep = _solve(solver, make_composite(obj, pen), x0, 0)
    if solver == "traces":
        assert rep.shape == (3, 0)
        return
    assert rep.estimate.tobytes() == x0.tobytes() and rep.estimate is not x0
    assert (rep.iterations, rep.converged) == (0, False)
    assert rep.objective_trace.size == rep.grad_map_trace.size == 0


@pytest.mark.parametrize("solver", ["ag", "pg", "pcg", "traces"])
def test_every_solver_rejects_a_negative_max_iter(solver):
    # -1 used to die in ag, pg and the lockstep with numpy's "negative
    # dimensions are not allowed", and pcg returned the start unconverged
    obj, pen = _regression("linear", "scad")
    with pytest.raises(ValueError, match=r"^max_iter must be >= 0, got -1$"):
        _solve(solver, make_composite(obj, pen), np.zeros(obj.dimension), -1)


def test_one_problem_serves_every_solver():
    # one composite with an unpenalized intercept, handed to all four solvers
    rng = np.random.default_rng(21)
    n, p, tol = 200, 20, 1e-6
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = 0.05 + X[:, 1:4] @ np.array([1.5, -1.0, 0.8]) + 0.5 * rng.normal(size=n)
    pen = PenaltySpec("scad", 0.1, a=3.7)
    obj = make_linear_objective(X, y, pen)
    comp, L, x0 = make_composite(obj, pen, skip=(0,)), obj.lipschitz, np.zeros(p)
    reps = {"ag": ag_solve(comp, schedule_optimal(L, 20000), x0, tol, 20000),
            "pg": pg_solve(comp, 1 / L, x0, tol, 20000),
            "pcg": pcg_solve(comp, x0, tol, 20000)[0]}
    for name, rep in reps.items():
        assert rep.converged, name
        est = rep.estimate
        s = np.max(np.abs(linearized_moreau_grad(comp, est, 0.5 / L)))
        assert s <= 10 * tol, (name, s)
        # the intercept sits inside SCAD's linear piece (0 < |b| < lambda),
        # where a penalized coordinate would need |grad| = lambda: it is not
        assert 0 < abs(est[0]) < pen.lam, (name, est[0])
        assert abs(obj.grad(est)[0]) <= 10 * tol, name
    traces = ag_traces(comp, _schedules(L, 300), x0, 300)
    np.testing.assert_allclose(traces[0], ag_solve(comp, schedule_optimal(L, 300), x0, 0.0,
                                                   300).objective_trace, rtol=1e-12)


def _regression(loss, kind):
    rng = np.random.default_rng(11)
    n, p = 60, 90
    X = rng.normal(size=(n, p))
    eta = X[:, :4] @ np.array([1.5, -1.0, 1.0, -0.8])
    if loss == "linear":
        y, make, lam = eta + rng.normal(size=n), make_linear_objective, 0.1
    else:
        y = (rng.uniform(size=n) < 1 / (1 + np.exp(-eta))).astype(float)
        make, lam = make_logistic_objective, 0.03
    pen = PenaltySpec(kind, lam, a=3.7 if kind == "scad" else None,
                      gamma=3.0 if kind == "mcp" else None)
    return make(X, y, pen), pen


def _pg_reference(obj, penalty, step, x0, tol, max_iter, skip):
    """Proximal gradient written out as its own loop, for pg_solve to match."""
    p = make_composite(obj, penalty, skip)
    x = np.asarray(x0, dtype=float).copy()
    obj_trace, gm_trace = [], []
    prev = p.value(x)
    converged = False
    it = 0
    for k in range(max_iter):
        x_new = p.h_prox(x - step * p.g_grad(x), step)
        val = p.value(x_new)
        assert val <= prev + 1e-10
        obj_trace.append(val)
        moved = x - x_new
        gm_trace.append(math.sqrt(moved @ moved) / step)
        diff = np.abs(moved).max()
        x, prev = x_new, val
        it = k + 1
        if diff < tol:
            converged = True
            break
    return x, it, np.asarray(obj_trace), np.asarray(gm_trace), converged


@pytest.mark.parametrize("tol", [0.0, 1e-6])
@pytest.mark.parametrize("skip", [(), (0,)])
@pytest.mark.parametrize("kind", ["l1", "scad", "mcp"])
@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_pg_solve_is_the_plain_loop_bitwise(loss, kind, skip, tol):
    obj, pen = _regression(loss, kind)
    p = obj.dimension
    max_iter = 300 if tol == 0.0 else 2000
    rep = pg_solve(make_composite(obj, pen, skip), 1 / obj.lipschitz, np.zeros(p), tol, max_iter)
    est, it, objs, gms, conv = _pg_reference(obj, pen, 1 / obj.lipschitz, np.zeros(p),
                                             tol, max_iter, skip)
    assert rep.estimate.tobytes() == est.tobytes()
    assert rep.objective_trace.tobytes() == objs.tobytes()
    assert rep.grad_map_trace.tobytes() == gms.tobytes()
    assert (rep.iterations, rep.converged) == (it, conv)


def _ag_reference(obj, penalty, s, x0, tol, max_iter, skip):
    """The accelerated scheme written out as its own loop, for ag_solve to match.

    One forward product [x_ag; next x_md] X' a step gives the value at x_ag
    and the next step's gradient; the last step forms x_ag's alone.
    """
    p = make_composite(obj, penalty, skip)
    x = np.asarray(x0, dtype=float).copy()
    x_ag = x.copy()
    obj_trace, gm_trace = [], []
    best_val, best_x = np.inf, x.copy()
    converged = False
    it = 0
    x_md, z_md = x, p.obj.forward(x)  # x_ag = x at the start, so x_md is x
    for k in range(max_iter):
        d, w = s.deltas[k], s.omegas[k]
        g = p.g_grad(x_md, p.obj.grad(x_md, z_md))
        x_new = p.h_prox(x - d * g, d)
        x_ag = p.h_prox(x_md - w * g, w)
        gap = x_md - x_ag
        diff = np.abs(gap).max()
        if k + 1 < max_iter and not diff < tol:
            a = s.alphas[k + 1]
            x_md = (1.0 - a) * x_ag + a * x_new
            z_ag, z_md = p.obj.forward(np.stack((x_ag, x_md)))
        else:
            z_ag = p.obj.forward(x_ag)
        val = p.value(x_ag, z_ag)
        obj_trace.append(val)
        gm_trace.append(math.sqrt(gap @ gap) / w)
        if val < best_val:
            best_val, best_x = val, x_ag
        x = x_new
        it = k + 1
        if diff < tol:
            converged = True
            break
    return best_x, it, np.asarray(obj_trace), np.asarray(gm_trace), converged


@pytest.mark.parametrize("tol", [0.0, 1e-6])
@pytest.mark.parametrize("skip", [(), (0,)])
@pytest.mark.parametrize("kind", ["l1", "scad", "mcp"])
@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_ag_solve_is_the_plain_loop_bitwise(loss, kind, skip, tol):
    obj, pen = _regression(loss, kind)
    max_iter = 300 if tol == 0.0 else 2000
    s = schedule_optimal(obj.lipschitz, max_iter)
    x0 = np.zeros(obj.dimension)
    rep = ag_solve(make_composite(obj, pen, skip), s, x0, tol, max_iter)
    est, it, objs, gms, conv = _ag_reference(obj, pen, s, x0, tol, max_iter, skip)
    assert rep.estimate.tobytes() == est.tobytes()
    assert rep.objective_trace.tobytes() == objs.tobytes()
    assert rep.grad_map_trace.tobytes() == gms.tobytes()
    assert (rep.iterations, rep.converged) == (it, conv)


@pytest.mark.parametrize("kind", ["l1", "scad", "mcp"])
@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_restart_never_fires_on_proximal_gradient(loss, kind):
    # there x_md is the last x_ag, so the restart product is -||step||^2 <= 0
    obj, pen = _regression(loss, kind)
    comp, step, ones = make_composite(obj, pen), 1 / obj.lipschitz, np.ones(2000)
    x0 = np.zeros(obj.dimension)
    rep = ag_solve(comp, AGSchedule(ones, ones * step, ones * step), x0, 1e-6, 2000, restart=True)
    ref = pg_solve(comp, step, x0, 1e-6, 2000)
    for f in ("estimate", "objective_trace", "grad_map_trace"):
        assert getattr(rep, f).tobytes() == getattr(ref, f).tobytes()
    assert (rep.iterations, rep.converged, rep.restarts) == (ref.iterations, ref.converged, 0)


@pytest.mark.parametrize("loss, kind", [("linear", "l1"), ("linear", "scad"),
                                        ("linear", "mcp"), ("logistic", "l1")])
def test_ag_and_pg_stop_at_one_stationarity(loss, kind):
    # one tol, one stop rule: ag_solve stops on its prox step max|x_md - x_ag|,
    # as pg_solve does, so their estimates' Moreau stationarity agrees to a
    # factor of 10.  A stop on the plain sequence's step, whose scale delta_k
    # grows like k omega / 2, solved 176 to 1527 times further here.
    obj, pen = _regression(loss, kind)
    L, x0, comp = obj.lipschitz, np.zeros(obj.dimension), make_composite(obj, pen)
    ag = ag_solve(comp, schedule_optimal(L, 20000), x0, 1e-6, 20000)
    pg = pg_solve(comp, 1 / L, x0, 1e-6, 20000)
    assert ag.converged and pg.converged
    s_ag, s_pg = (np.max(np.abs(linearized_moreau_grad(comp, r.estimate, 0.5 / L)))
                  for r in (ag, pg))
    assert s_pg / 10 <= s_ag <= 10 * s_pg, (s_ag, s_pg)


@pytest.mark.parametrize("skip", [(), (0,)])
def test_a_value_and_grad_objective_runs_the_same_loop(skip):
    # an objective with no forward product is its own predictor, z = x, so
    # ag_solve and pg_solve run it through the one loop, as the plain loops do
    obj, pen = _regression("linear", "scad")
    bare = SmoothObjective(value=lambda b: obj.value(b), grad=lambda b: obj.grad(b),
                           lipschitz=obj.lipschitz, dimension=obj.dimension)
    s, x0 = schedule_optimal(obj.lipschitz, 300), np.zeros(obj.dimension)
    comp = make_composite(bare, pen, skip)
    rep = ag_solve(comp, s, x0, 1e-6, 300)
    est, it, objs, gms, conv = _ag_reference(bare, pen, s, x0, 1e-6, 300, skip)
    assert rep.estimate.tobytes() == est.tobytes()
    assert rep.objective_trace.tobytes() == objs.tobytes()
    assert rep.grad_map_trace.tobytes() == gms.tobytes()
    assert (rep.iterations, rep.converged) == (it, conv)
    rep = pg_solve(comp, 1 / obj.lipschitz, x0, 1e-6, 300)
    est, it, objs, gms, conv = _pg_reference(bare, pen, 1 / obj.lipschitz, x0, 1e-6, 300, skip)
    assert rep.estimate.tobytes() == est.tobytes()
    assert rep.objective_trace.tobytes() == objs.tobytes()
    assert (rep.iterations, rep.converged) == (it, conv)


@pytest.mark.parametrize("skip", [(), (0,)])
@pytest.mark.parametrize("kind", ["l1", "scad", "mcp"])
@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_composite_value_is_the_loss_plus_the_penalty_sum(loss, kind, skip):
    # one value: the loss plus p summed over the penalized coordinates, its
    # entries spread over every piece of SCAD and MCP
    obj, pen = _regression(loss, kind)
    comp = make_composite(obj, pen, skip)
    penalized = np.ones(obj.dimension, dtype=bool)
    penalized[list(skip)] = False
    B = np.random.default_rng(7).normal(scale=0.5, size=(4, obj.dimension))
    for x in B:
        want = obj.value(x) + penalty_value(pen, x)[penalized].sum()
        assert comp.value(x) == pytest.approx(want, rel=1e-13, abs=0)
    # one value per row of a block, each the vector's to rounding
    rows = comp.value(B)
    assert rows.shape == (4,)
    np.testing.assert_allclose(rows, [comp.value(x) for x in B], rtol=1e-13, atol=0)


@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_a_blocks_values_are_each_rows_bitwise(loss):
    # ag_solve values a chunk of up to 64 steps in one call from their known
    # predictors, so each row of a (64, p) block must take the bits of that
    # vector alone: the loss, and the composite for every penalty, with and
    # without skip (a block's product z = B X' rounds unlike a row's)
    obj, pen = _regression(loss, "scad")
    X, y = obj.value.args
    B = np.random.default_rng(8).normal(scale=0.5, size=(64, obj.dimension))
    Z = np.dot(B, X.T)
    calls = [functools.partial(least_squares_loss if loss == "linear" else logistic_loss, X, y)]
    for kind in ("l1", "scad", "mcp"):
        spec = replace(pen, kind=kind, a=3.7 if kind == "scad" else None,
                       gamma=3.0 if kind == "mcp" else None)
        calls += [make_composite(obj, spec, skip).value for skip in ((), (0,))]
    for call in calls:
        rows = call(B, Z)
        assert rows.shape == (64,)
        assert rows.tobytes() == np.array([call(b, z) for b, z in zip(B, Z)]).tobytes()


@pytest.mark.parametrize("skip", [(-1,), (3,), (0, 3)])
def test_skip_indices_outside_the_columns_raise(skip):
    # a negative index used to be half-applied (the prox skipped the last
    # coordinate, the value still penalized it) and one past the end to die
    # with numpy's IndexError; make_composite checks once for every solver
    obj = SmoothObjective(value=lambda x: float(x @ x), grad=lambda x: 2.0 * x,
                          lipschitz=2.0, dimension=3)
    pen, x0 = PenaltySpec("l1", 1.0), np.array([1.0, -2.0, 1.5])
    with pytest.raises(ValueError, match=r"^skip indices must lie in \[0, 3\), got "):
        make_composite(obj, pen, skip)
    # the last coordinate skipped by its own index: value and prox agree
    comp = make_composite(obj, pen, (2,))
    assert comp.value(x0) == 7.25 + 3.0
    assert comp.h_prox(x0, 0.5).tolist() == [0.5, -1.5, 1.5]


def test_an_ag_step_does_a_fixed_amount_of_work(monkeypatch, design_products):
    # X is streamed twice a step: one transpose product for the gradient and
    # one forward product [x_ag; next x_md] X', 2 rows on a mixed step, 1 on
    # a pg step and on the last step.  The start's product serves the first
    # gradient and pg's descent check.  Each step makes one loss gradient and
    # one h_grad, and each chunk of up to 64 steps one loss value and one
    # penalty_sum, plus one of each at pg's start: every value goes through
    # the composite's, so a wrapper on penalty_sum sees AG's penalty work.
    # The public prox and h_value are not called.  The lockstep of
    # k rows does the same with k rows where a solve has one.
    import hdsparse.agsolver as ag
    import hdsparse.penalty as pen_mod

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    rng = np.random.default_rng(11)
    X, y, pen = rng.normal(size=(60, 90)), rng.normal(size=60), PenaltySpec("scad", 0.1, a=3.7)
    base = make_linear_objective(X, y, pen)
    obj = replace(base, value=counted("value", base.value), grad=counted("grad", base.grad))
    for name in ("h_grad", "h_value", "penalty_sum"):
        monkeypatch.setattr(pen_mod, name, counted(name, getattr(pen_mod, name)))
    monkeypatch.setattr(ag, "prox_scaled_l1", counted("prox", ag.prox_scaled_l1))
    products = design_products(X)
    x0, L = np.zeros(obj.dimension), obj.lipschitz

    def count(solve, n):
        calls.clear()
        products.clear()
        assert solve(n).iterations == n
        return dict(calls), products

    comp = make_composite(obj, pen)
    ag_run = lambda n: ag_solve(comp, schedule_optimal(L, 150), x0, tol=0.0, max_iter=n)
    pg_run = lambda n: pg_solve(comp, 1 / L, x0, tol=0.0, max_iter=n)
    # the optimal schedule's first step is a pg step, then every step mixes
    # (so n starts at 2)
    for n in (2, 7, 40, 150):
        chunks = -(-n // 64)
        assert count(ag_run, n) == (
            dict(value=chunks, grad=n, h_grad=n, penalty_sum=chunks),
            [("fwd", 1)] + [("t", 1), ("fwd", 2)] * (n - 1) + [("t", 1), ("fwd", 1)])
        assert count(pg_run, n) == (
            dict(value=chunks + 1, grad=n, h_grad=n, penalty_sum=chunks + 1),
            [("fwd", 1)] + [("t", 1), ("fwd", 1)] * n)
    # ag_convergence's three rows: after the pg step every step has a mixing row
    for n in (1, 2, 7, 40, 150):
        calls.clear()
        products.clear()
        assert ag_traces(comp, _schedules(L, n), x0, n).shape == (3, n)
        assert (dict(calls), products) == (
            dict(value=-(-n // 64) + 1, grad=n, h_grad=n, penalty_sum=-(-n // 64) + 1),
            [("fwd", 3)] + [("t", 1), ("fwd", 6)] * (n - 1) + [("t", 1), ("fwd", 3)])


def _schedules(L, max_iter):
    # ag_convergence's rows: ag_opt, ag_orig and pg (the constant schedule 1, 1/L, 1/L)
    steps = np.full(max_iter, 1 / L)
    return [schedule_optimal(L, max_iter), schedule_original(L, max_iter),
            AGSchedule(np.ones(max_iter), steps, steps)]


@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_ag_traces_equals_sequential_solves(loss):
    obj, pen = _regression(loss, "scad")
    L, x0, comp = obj.lipschitz, np.zeros(obj.dimension), make_composite(obj, pen)
    ag_opt, ag_orig, _ = scheds = _schedules(L, 400)
    seq = [ag_solve(comp, ag_opt, x0, 0.0, 400), ag_solve(comp, ag_orig, x0, 0.0, 400),
           pg_solve(comp, 1 / L, x0, 0.0, 400)]
    traces = ag_traces(comp, scheds, x0, 400)
    assert traces.shape == (3, 400)
    for t, r in zip(traces, seq):
        assert r.iterations == 400
        np.testing.assert_allclose(t, r.objective_trace, rtol=1e-12)


def test_ag_traces_pg_row_raises_like_pg_solve():
    # with L understated 4x the PG row's first step overshoots 3 to 12
    comp = make_composite(replace(_quad_obj(L=2.0), lipschitz=0.5), PenaltySpec("l1", 0.0))
    with pytest.raises(FloatingPointError) as seq:
        pg_solve(comp, 2.0, np.zeros(1), max_iter=50)
    steps = np.full(50, 2.0)
    scheds = [schedule_optimal(2.0, 50), AGSchedule(np.ones(50), steps, steps)]
    with pytest.raises(FloatingPointError) as many:
        ag_traces(comp, scheds, np.zeros(1), 50)
    assert str(many.value) == str(seq.value)
    assert str(seq.value).startswith("objective increased at iteration 1;")


def test_ag_traces_values_a_value_and_grad_objective_row_by_row():
    # an objective without forward knows only vectors: its value summed a
    # (3, 1) block, and every row read 3.25 = 1 + 2.25 + 0 from the start on
    comp = make_composite(_quad_obj(), PenaltySpec("l1", 0.0))
    ag_opt, ag_orig, _ = scheds = _schedules(2.0, 20)
    traces = ag_traces(comp, scheds, np.zeros(1), 20)
    seq = [ag_solve(comp, ag_opt, np.zeros(1), 0.0, 20),
           ag_solve(comp, ag_orig, np.zeros(1), 0.0, 20),
           pg_solve(comp, 1 / 2.0, np.zeros(1), 0.0, 20)]
    for t, r in zip(traces, seq):
        np.testing.assert_allclose(t, r.objective_trace, rtol=1e-12)


def _diverging_pg():
    # f = x1^2/4 + 1.1 x2^2 with L stated as 1: a unit step halves x1 but
    # multiplies x2 by -1.2, so f falls at first and rises from some step
    # on; the plain loop gives the iterates and the first rise's iteration
    obj = SmoothObjective(value=lambda x: float(0.25 * x[0] ** 2 + 1.1 * x[1] ** 2),
                          grad=lambda x: np.array([0.5, 2.2]) * x, lipschitz=1.0, dimension=2)
    xs = [np.array([1.0, 1e-12])]
    vals = [obj.value(xs[0])]
    while vals[-1] <= (vals[-2] if len(vals) > 1 else np.inf) + 1e-10:
        xs.append(xs[-1] - obj.grad(xs[-1]))
        vals.append(obj.value(xs[-1]))
    return obj, xs, len(vals) - 1


def test_pg_solve_raises_at_a_rise_inside_a_chunk():
    # the objective is valued once per chunk of steps, and the rise is still
    # reported at the step that made it, as the step-by-step check did
    obj, xs, rise = _diverging_pg()
    assert 64 < rise < 127  # inside the second chunk
    comp = make_composite(obj, PenaltySpec("l1", 0.0))
    msg = f"objective increased at iteration {rise}; Lipschitz constant too small?"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the steps run past the rise warn of nothing
        with pytest.raises(FloatingPointError, match=f"^{re.escape(msg)}$"):
            pg_solve(comp, 1.0, xs[0], 0.0, 2000)


def test_a_non_finite_gradient_after_a_pending_rise_reports_the_rise():
    # the gradient turns NaN three steps after the rise, before the rise's
    # chunk is valued: the earlier fault is the one reported
    obj, xs, rise = _diverging_pg()
    assert rise + 3 <= 128  # both in the second chunk
    bound = abs(xs[rise][1]) * 1.2**3 * 0.99
    grad = obj.grad
    nan_far = replace(obj, grad=lambda x: grad(x) if abs(x[1]) < bound else np.full(2, np.nan))
    with pytest.raises(FloatingPointError, match=f"^objective increased at iteration {rise};"):
        pg_solve(make_composite(nan_far, PenaltySpec("l1", 0.0)), 1.0, xs[0], 0.0, 2000)
    # on a flat objective, with no rise before it, the NaN gradient is reported
    flat = make_composite(replace(nan_far, value=lambda x: 0.0), PenaltySpec("l1", 0.0))
    with pytest.raises(FloatingPointError, match=f"^non-finite gradient at iteration {rise + 4}$"):
        pg_solve(flat, 1.0, xs[0], 0.0, 2000)


@pytest.mark.parametrize("solver", ["ag", "traces"])
def test_a_non_finite_objective_inside_a_chunk_raises_at_its_step(solver):
    # the loss reads NaN once it falls to its 110th step's value: the steps
    # run on to the chunk's end, and the fault is reported at its own step
    obj, pen = _regression("linear", "l1")
    comp, L, x0 = make_composite(obj, pen.with_lambda(0.0)), obj.lipschitz, np.zeros(90)
    if solver == "ag":
        run = lambda c: ag_solve(c, schedule_optimal(L, 300), x0, 0.0, 300).objective_trace
    else:
        run = lambda c: ag_traces(c, _schedules(L, 300), x0, 300).min(axis=0)
    trace = run(comp)
    cut = trace[109]
    first = int(np.argmax(trace <= cut)) + 1
    assert 64 < first <= 110
    loss = obj.value
    nan_low = replace(obj, value=lambda b, z=None: np.where((v := loss(b, z)) > cut, v, np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the steps run past the fault warn of nothing
        with pytest.raises(FloatingPointError,
                           match=f"^non-finite objective at iteration {first}$"):
            run(make_composite(nan_low, pen.with_lambda(0.0)))


def test_ag_traces_checks_every_schedule_length():
    obj = _quad_obj()
    scheds = [schedule_optimal(obj.lipschitz, 50), schedule_optimal(obj.lipschitz, 5)]
    with pytest.raises(ValueError, match=r"^schedule has 5 steps, fewer than max_iter=50$"):
        ag_traces(make_composite(obj, PenaltySpec("l1", 0.0)), scheds, np.zeros(1), 50)


def test_ag_traces_rejects_an_empty_schedule_list():
    # it used to fail in np.stack with "need at least one array to stack"
    with pytest.raises(ValueError, match=r"^ag_traces needs at least one schedule$"):
        ag_traces(make_composite(_quad_obj(), PenaltySpec("l1", 0.0)), [], np.zeros(1), 50)


def test_ag_traces_rejects_a_nan_response():
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(30, 5)), rng.normal(size=30)
    y[4] = np.nan
    obj, pen = make_linear_objective(X, y), PenaltySpec("l1", 0.1)
    with pytest.raises(FloatingPointError, match=r"^non-finite objective at iteration 1$"):
        ag_traces(make_composite(obj, pen), _schedules(obj.lipschitz, 20), np.zeros(5), 20)


def test_pg_solve_rejects_nan_response():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 5))
    y = rng.normal(size=30)
    y[4] = np.nan
    obj = make_linear_objective(X, y)
    with pytest.raises(FloatingPointError, match="non-finite gradient at iteration 1"):
        pg_solve(make_composite(obj, PenaltySpec("l1", 0.1)), 1 / obj.lipschitz, np.zeros(5),
                 max_iter=300)


@pytest.mark.parametrize("max_iter", [50, 2000])
def test_pg_solve_raises_at_first_rise_with_understated_lipschitz(max_iter):
    # with L understated 4x the first step overshoots 3 to 12
    obj = replace(_quad_obj(L=2.0), lipschitz=0.5)
    with pytest.raises(FloatingPointError, match="objective increased at iteration 1;"):
        pg_solve(make_composite(obj, PenaltySpec("l1", 0.0)), 2.0, np.zeros(1), max_iter=max_iter)


def _overflowing_solves():
    # (name, solve, message): a proximal-gradient schedule with a step 1e3x or
    # 1e10x too large, and AG from a start of 1e300, each by ag_solve and by
    # ag_traces; the steps that run on to the chunk's end overflow
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(50, 8)), rng.normal(size=50)
    pen = PenaltySpec("scad", 0.1, a=3.7)
    obj = make_linear_objective(X, y, pen)
    comp, L, ones = make_composite(obj, pen), obj.lipschitz, np.ones(100)
    rise = "objective increased at iteration 1; Lipschitz constant too small?"
    for k in (1e3, 1e10):
        pg = AGSchedule(ones, ones * k / L, ones * k / L)
        yield f"pg {k:g}", lambda: ag_solve(comp, pg, np.zeros(8), 1e-4, 100), rise
        yield f"pg {k:g} traces", lambda: ag_traces(comp, [pg], np.zeros(8), 100), rise
    ag, far = schedule_optimal(L, 100), np.full(8, 1e300)
    yield "ag 1e300", lambda: ag_solve(comp, ag, far, 1e-4, 100), \
        "non-finite objective at iteration 1"
    yield "ag 1e300 traces", lambda: ag_traces(comp, [ag], far, 100), \
        "non-finite objective at iteration 1"


def test_a_failed_solve_raises_without_numpy_warnings():
    # the fault is raised when its chunk is valued, after the overflow of the
    # steps that ran on; those printed up to 65 RuntimeWarnings
    for name, solve, message in _overflowing_solves():
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
                solve()
        assert [str(w.message) for w in seen] == [], name


def test_damping_bounds_and_optimal_ab():
    val = 1 * 0.5 * 2**1.5 - 1 * 0.5 * 0.5 * 2 ** (-0.5) - 1
    assert admissible_ab(1.0, 0.5) == (val >= 0) == True  # noqa: E712
    assert not admissible_ab(0.01, 0.5)
    a8, b8 = optimal_ab(8)
    assert admissible_ab(a8, b8) or abs(
        a8 * (1 - b8) * 2 ** (2 - b8) - a8 * b8 * (1 - b8) * 2 ** (-b8) - 1) <= 1e-9
    with pytest.raises(ValueError):
        optimal_ab(7)
    # b_k creeps toward 1 but stays below it even at 10^6
    _, b = optimal_ab(10**6)
    assert 0 < b < 1


def test_sandwich_on_alphas():
    s = schedule_optimal(1.0, 2000)
    ks = np.arange(8, 2001)
    al = s.alphas[7:]
    lower = np.array([damping_lower_bound(k, *optimal_ab(int(k))) for k in ks])
    assert np.all(lower < al)
    assert np.all(al <= 2 / (ks + 1) + 1e-15)


def test_complexity_bound():
    L = 2.0
    s = schedule_optimal(L, 1)
    x0, xs = np.array([1.0]), np.array([0.0])
    w = 2 / (3 * L)
    expected = (1.0 / w) / (w * (1 - L * w))
    assert complexity_bound(s, L, 0.0, x0, xs, 1.0) == pytest.approx(expected)
    # invalid when omega >= 1/L
    bad = AGSchedule(s.alphas, s.deltas, np.array([1.0 / L]))
    with pytest.raises(ValueError):
        complexity_bound(bad, L, 0.0, x0, xs, 1.0)


def test_complexity_bound_dominates_observed():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    obj = make_linear_objective(X, y)
    pen = PenaltySpec("l1", 0.05)
    N = 200
    s = schedule_optimal(obj.lipschitz, N)
    comp = make_composite(obj, pen)
    rep = ag_solve(comp, s, np.zeros(5), tol=0.0, max_iter=N)
    xs = pg_solve(comp, 1 / obj.lipschitz, np.zeros(5), tol=1e-12,
                  max_iter=20_000).estimate
    M = float(np.linalg.norm(rep.estimate)) + 1.0
    bound = complexity_bound(s, obj.lipschitz, 0.0, np.zeros(5), xs, M)
    assert np.min(rep.grad_map_trace) ** 2 <= bound


def test_objectives_and_gradients():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 7))
    y = rng.normal(size=60)
    lin = make_linear_objective(X, y)
    assert np.allclose(lin.grad(np.zeros(7)), -X.T @ y / 60)
    yb = (rng.uniform(size=60) < 0.5).astype(float)
    logi = make_logistic_objective(X, yb)
    assert logi.value(np.zeros(7)) == pytest.approx(np.log(2))
    with pytest.raises(ValueError):
        make_logistic_objective(X, y)
    # exact Lipschitz constants; the 5-row design takes the XX' route
    lmax = np.linalg.svd(X, compute_uv=False)[0] ** 2
    assert lin.lipschitz == pytest.approx(lmax / 60, rel=1e-12)
    assert logi.lipschitz == pytest.approx(lmax / 240, rel=1e-12)
    wide = np.linalg.svd(X[:5], compute_uv=False)[0] ** 2
    assert make_linear_objective(X[:5], y[:5]).lipschitz == pytest.approx(wide / 5, rel=1e-12)
    # a non-finite design fails in the builder, not later in a solver
    for bad in (np.nan, np.inf):
        Z = X.copy()
        Z[4, 2] = bad
        for make, resp in ((make_linear_objective, y), (make_logistic_objective, yb)):
            with pytest.raises(ValueError, match="NaN or inf"):
                make(Z, resp)


def test_zero_design_has_no_step_size_without_a_concave_part():
    # an all-zero design gives lambda_max(X'X) = 0: with l1 (or no penalty)
    # L = 0 and 1/L has no meaning, so the builders refuse it; SCAD and MCP
    # add L_h > 0 and still build
    X, y, yb = np.zeros((4, 2)), np.array([1.0, 2.0, 3.0, 5.0]), np.array([0.0, 1, 1, 0])
    for make, resp in ((make_linear_objective, y), (make_logistic_objective, yb)):
        for pen in (None, PenaltySpec("l1", 0.1)):
            with pytest.raises(ValueError, match="^L = 0: the design has no nonzero entry"):
                make(X, resp, pen)
        scad = PenaltySpec("scad", 0.1, a=3.7)
        assert make(X, resp, scad).lipschitz == lipschitz_h(scad) > 0


def test_converged_point_has_small_mapping():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 6))
    y = rng.normal(size=50)
    obj = make_linear_objective(X, y)
    pen = PenaltySpec("l1", 0.1)
    tol = 1e-7
    comp = make_composite(obj, pen)
    rep = pg_solve(comp, 1 / obj.lipschitz, np.zeros(6), tol=tol, max_iter=50_000)
    assert rep.converged
    g = linearized_moreau_grad(comp, rep.estimate, 1 / obj.lipschitz, obj.grad(rep.estimate))
    assert np.max(np.abs(g)) <= 10 * tol * max(1.0, obj.lipschitz)
