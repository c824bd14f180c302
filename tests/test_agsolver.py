import math
from dataclasses import replace

import numpy as np
import pytest

from hdsparse.agsolver import (
    AGSchedule,
    SmoothObjective,
    admissible_ab,
    ag_solve,
    ag_solve_many,
    complexity_bound,
    damping_lower_bound,
    grad_mapping,
    make_composite,
    make_linear_objective,
    make_logistic_objective,
    optimal_ab,
    pg_solve,
    power_iteration_lmax,
    schedule_optimal,
    schedule_original,
    verify_schedule,
)
from hdsparse.penalty import PenaltySpec


def test_schedule_optimal_exact_heads():
    s = schedule_optimal(1.5, 10)
    assert s.alphas[0] == 1.0
    assert abs(s.alphas[1] - (np.sqrt(5) - 1) / 2) <= 1e-12
    assert np.allclose(s.omegas, 4 / 9)          # 2/(3L) at L = 1.5
    assert s.deltas[0] == s.omegas[0]
    assert np.allclose(s.deltas, s.omegas / s.alphas)


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
    pen = PenaltySpec("l1", 0.0)
    x, y = np.array([1.0, -2.0]), np.array([0.3, 0.4])
    assert np.allclose(grad_mapping(x, y, 0.7, pen), y)
    pen1 = PenaltySpec("l1", 1.0)
    # fixed point of the prox has zero mapping
    xf = prox = np.zeros(2)
    assert np.allclose(grad_mapping(xf, np.zeros(2), 1.0, pen1), 0.0)


def _quad_obj(L=2.0, target=3.0):
    return SmoothObjective(
        value=lambda x: float(0.5 * L * np.sum((x - target) ** 2)),
        grad=lambda x: L * (x - target),
        lipschitz=L,
        dimension=1,
    )


def test_ag_solve_quadratic():
    obj = _quad_obj()
    rep = ag_solve(obj, PenaltySpec("l1", 0.0), schedule_optimal(2.0, 1000),
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
    rep = ag_solve(obj, PenaltySpec("l1", lam), schedule_optimal(obj.lipschitz, 500),
                   np.zeros(10), tol=1e-10, max_iter=500)
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
    rep = pg_solve(obj, PenaltySpec("l1", 0.0), 1 / 2.0, np.zeros(1),
                   tol=1e-10, max_iter=200)
    assert abs(rep.estimate[0] - 3.0) <= 1e-8
    assert np.all(np.diff(rep.objective_trace) <= 1e-10)


def test_pg_solve_lambda_max_one_step():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 8))
    y = rng.normal(size=40)
    lam = float(np.max(np.abs(X.T @ y / 40))) * 1.01
    obj = make_linear_objective(X, y)
    rep = pg_solve(obj, PenaltySpec("l1", lam), 1 / obj.lipschitz, np.zeros(8),
                   tol=1e-12, max_iter=10)
    assert np.all(rep.estimate == 0.0)
    assert rep.iterations == 1


def test_ag_solve_rejects_a_schedule_shorter_than_max_iter():
    # it used to stop silently at the end of the schedule, unconverged
    obj = _quad_obj()
    with pytest.raises(ValueError, match=r"^schedule has 5 steps, fewer than max_iter=2000$"):
        ag_solve(obj, PenaltySpec("l1", 0.0), schedule_optimal(obj.lipschitz, 5),
                 np.zeros(1), tol=1e-8, max_iter=2000)
    rep = ag_solve(obj, PenaltySpec("l1", 0.0), schedule_optimal(obj.lipschitz, 5),
                   np.zeros(1), tol=0.0, max_iter=5)
    assert rep.iterations == 5


def test_pg_step_validation():
    obj = _quad_obj()
    with pytest.raises(ValueError):
        pg_solve(obj, PenaltySpec("l1", 0.0), 1.0, np.zeros(1))


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
    prev = p.g_value(x) + p.h_value(x)
    converged = False
    it = 0
    for k in range(max_iter):
        x_new = p.h_prox(x - step * p.g_grad(x), step)
        val = p.g_value(x_new) + p.h_value(x_new)
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
    rep = pg_solve(obj, pen, 1 / obj.lipschitz, np.zeros(p), tol, max_iter, skip)
    est, it, objs, gms, conv = _pg_reference(obj, pen, 1 / obj.lipschitz, np.zeros(p),
                                             tol, max_iter, skip)
    assert rep.estimate.tobytes() == est.tobytes()
    assert rep.objective_trace.tobytes() == objs.tobytes()
    assert rep.grad_map_trace.tobytes() == gms.tobytes()
    assert (rep.iterations, rep.converged) == (it, conv)


def _ag_reference(obj, penalty, s, x0, tol, max_iter, skip):
    """The accelerated scheme written out as its own loop, for ag_solve to match."""
    p = make_composite(obj, penalty, skip)
    x = np.asarray(x0, dtype=float).copy()
    x_ag = x.copy()
    obj_trace, gm_trace = [], []
    best_val, best_x = np.inf, x.copy()
    converged = False
    it = 0
    for k in range(max_iter):
        a, d, w = s.alphas[k], s.deltas[k], s.omegas[k]
        x_md = (1.0 - a) * x_ag + a * x
        g = p.g_grad(x_md)
        x_new = p.h_prox(x - d * g, d)
        x_ag = p.h_prox(x_md - w * g, w)
        gap = x_md - x_ag
        val = p.g_value(x_ag) + p.h_value(x_ag)
        obj_trace.append(val)
        gm_trace.append(math.sqrt(gap @ gap) / w)
        if val < best_val:
            best_val, best_x = val, x_ag
        diff = np.abs(x_new - x).max()
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
    rep = ag_solve(obj, pen, s, x0, tol, max_iter, skip)
    est, it, objs, gms, conv = _ag_reference(obj, pen, s, x0, tol, max_iter, skip)
    assert rep.estimate.tobytes() == est.tobytes()
    assert rep.objective_trace.tobytes() == objs.tobytes()
    assert rep.grad_map_trace.tobytes() == gms.tobytes()
    assert (rep.iterations, rep.converged) == (it, conv)


def _sequential(obj, pen, max_iter, tol, skip, step=None):
    # ag_opt, ag_orig and pg one at a time, and their schedules
    L = obj.lipschitz
    step = 1 / L if step is None else step
    steps = np.full(max_iter, step)
    scheds = [schedule_optimal(L, max_iter), schedule_original(L, max_iter),
              AGSchedule(np.ones(max_iter), steps, steps)]
    x0 = np.zeros(obj.dimension)
    reps = [ag_solve(obj, pen, s, x0, tol, max_iter, skip) for s in scheds[:2]]
    reps.append(pg_solve(obj, pen, step, x0, tol, max_iter, skip))
    return scheds, reps


@pytest.mark.parametrize("tol", [0.0, 1e-5])
@pytest.mark.parametrize("skip", [(), (0,)])
@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_ag_solve_many_equals_sequential_solves(loss, skip, tol):
    obj, pen = _regression(loss, "scad")
    if loss == "logistic":
        pen = pen.with_lambda(0.2)   # so that every row converges at tol > 0
    max_iter = 400 if tol == 0.0 else 5000
    scheds, seq = _sequential(obj, pen, max_iter, tol, skip)
    many = ag_solve_many(obj, pen, scheds, np.zeros(obj.dimension), tol, max_iter, skip)
    assert len(many) == 3
    for m, r in zip(many, seq):
        assert (m.iterations, m.converged) == (r.iterations, r.converged)
        np.testing.assert_allclose(m.objective_trace, r.objective_trace, rtol=1e-12)
        # the gap is a difference of near-equal iterates: rounding shows late
        gm = r.grad_map_trace
        np.testing.assert_allclose(m.grad_map_trace, gm, rtol=1e-9, atol=1e-9 * gm[0])
        np.testing.assert_allclose(m.estimate, r.estimate, rtol=1e-9, atol=1e-12)
    if tol > 0:
        # the rows stop at different steps, and each stays where it stopped
        assert all(r.converged for r in seq)
        assert len({r.iterations for r in seq}) == 3
        assert max(r.iterations for r in seq) < max_iter


def test_ag_solve_many_pg_row_raises_like_pg_solve():
    # with L understated 4x the PG row's first step overshoots 3 to 12
    obj = replace(_quad_obj(L=2.0), lipschitz=0.5)
    pen = PenaltySpec("l1", 0.0)
    with pytest.raises(FloatingPointError) as seq:
        pg_solve(obj, pen, 2.0, np.zeros(1), max_iter=50)
    steps = np.full(50, 2.0)
    scheds = [schedule_optimal(2.0, 50), AGSchedule(np.ones(50), steps, steps)]
    with pytest.raises(FloatingPointError) as many:
        ag_solve_many(obj, pen, scheds, np.zeros(1), max_iter=50)
    assert str(many.value) == str(seq.value)
    assert str(seq.value).startswith("objective increased at iteration 1;")


def test_ag_solve_many_checks_every_schedule_length():
    obj = _quad_obj()
    scheds = [schedule_optimal(obj.lipschitz, 50), schedule_optimal(obj.lipschitz, 5)]
    with pytest.raises(ValueError, match=r"^schedule has 5 steps, fewer than max_iter=50$"):
        ag_solve_many(obj, PenaltySpec("l1", 0.0), scheds, np.zeros(1), max_iter=50)


def test_pg_solve_rejects_nan_response():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 5))
    y = rng.normal(size=30)
    y[4] = np.nan
    obj = make_linear_objective(X, y)
    with pytest.raises(FloatingPointError, match="non-finite gradient at iteration 1"):
        pg_solve(obj, PenaltySpec("l1", 0.1), 1 / obj.lipschitz, np.zeros(5), max_iter=300)


@pytest.mark.parametrize("max_iter", [50, 2000])
def test_pg_solve_raises_at_first_rise_with_understated_lipschitz(max_iter):
    # with L understated 4x the first step overshoots 3 to 12
    obj = replace(_quad_obj(L=2.0), lipschitz=0.5)
    with pytest.raises(FloatingPointError, match="objective increased at iteration 1;"):
        pg_solve(obj, PenaltySpec("l1", 0.0), 2.0, np.zeros(1), max_iter=max_iter)


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
    rep = ag_solve(obj, pen, s, np.zeros(5), tol=0.0, max_iter=N)
    xs = pg_solve(obj, pen, 1 / obj.lipschitz, np.zeros(5), tol=1e-12,
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
    # Lipschitz constants from the power iteration
    lmax = np.linalg.eigvalsh(X.T @ X).max()
    assert power_iteration_lmax(X) == pytest.approx(lmax, rel=1e-6)
    assert lin.lipschitz == pytest.approx(lmax / 60, rel=1e-6)
    assert logi.lipschitz == pytest.approx(lmax / 240, rel=1e-6)


def test_converged_point_has_small_mapping():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 6))
    y = rng.normal(size=50)
    obj = make_linear_objective(X, y)
    pen = PenaltySpec("l1", 0.1)
    tol = 1e-7
    rep = pg_solve(obj, pen, 1 / obj.lipschitz, np.zeros(6), tol=tol, max_iter=50_000)
    assert rep.converged
    g = grad_mapping(rep.estimate, obj.grad(rep.estimate), 1 / obj.lipschitz, pen)
    assert np.max(np.abs(g)) <= 10 * tol * max(1.0, obj.lipschitz)
