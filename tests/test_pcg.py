import math
import re
from dataclasses import replace

import numpy as np
import pytest

from hdsparse import pcg
from hdsparse.agsolver import (
    SmoothObjective,
    make_composite,
    make_linear_objective,
    make_logistic_objective,
    pg_solve,
)
from hdsparse.pcg import (
    _brentq,
    _phi_grad,
    hz_direction,
    line_search,
    linear_cg,
    linearized_moreau_grad,
    pcg_solve,
)
from hdsparse.penalty import PenaltySpec, prox_scaled_l1
from hdsparse.qgaussian import fit


def _quad_problem(A, b, h_lam=0.0):
    obj = SmoothObjective(
        value=lambda x: float(0.5 * x @ A @ x - b @ x),
        grad=lambda x: A @ x - b,
        lipschitz=float(np.linalg.eigvalsh(A).max()),
        dimension=b.size,
        curvature=lambda d: A @ d,
    )
    return make_composite(obj, PenaltySpec("l1", h_lam))


def _spd(rng, n, cond=10.0):
    A = rng.normal(size=(n, n))
    A = A @ A.T
    return A + np.eye(n) * np.linalg.eigvalsh(A).max() / cond


def test_moreau_grad_two_form_identity():
    rng = np.random.default_rng(0)
    A = _spd(rng, 4)
    b = rng.normal(size=4)
    p = _quad_problem(A, b, h_lam=0.3)
    rho = 0.5 / p.obj.lipschitz
    for _ in range(50):
        x = rng.normal(size=4) * 2
        s = linearized_moreau_grad(p, x, rho)
        g = p.g_grad(x)
        # decomposition form: grad g + (envelope gradient of h at the forward map)
        fwd = x - rho * g
        env = (fwd - p.h_prox(fwd, rho)) / rho
        assert np.max(np.abs(s - (g + env))) <= 1e-12


def test_moreau_grad_h_zero_and_stationary():
    rng = np.random.default_rng(1)
    A = _spd(rng, 3)
    b = rng.normal(size=3)
    p = _quad_problem(A, b, h_lam=0.0)
    rho = 0.4 / p.obj.lipschitz
    x = rng.normal(size=3)
    assert np.allclose(linearized_moreau_grad(p, x, rho), p.g_grad(x), atol=1e-12)
    xstar = np.linalg.solve(A, b)
    assert np.max(np.abs(linearized_moreau_grad(p, xstar, rho))) <= 1e-10


def test_linearized_lipschitz_empirical():
    rng = np.random.default_rng(2)
    A = _spd(rng, 4)
    b = rng.normal(size=4)
    p = _quad_problem(A, b, h_lam=0.5)
    rho = 0.3 / p.obj.lipschitz
    L_lin = p.obj.lipschitz + 1 / rho  # crude but always-valid bound
    u = rng.normal(size=(2000, 4))
    v = rng.normal(size=(2000, 4))
    for uu, vv in zip(u[:200], v[:200]):
        num = np.linalg.norm(linearized_moreau_grad(p, uu, rho)
                             - linearized_moreau_grad(p, vv, rho))
        assert num <= L_lin * np.linalg.norm(uu - vv) + 1e-10


def test_hz_direction_hand_case():
    d = np.array([1.0, 0.0])
    s_prev = np.array([-1.0, 0.0])    # y = s_next - s_prev = (1, 1)
    s_next = np.array([0.0, 1.0])
    out = hz_direction(s_next, s_prev, d)
    assert np.allclose(out, [1.0, -1.0])


def test_hz_direction_degenerate_and_descent():
    rng = np.random.default_rng(4)
    s = rng.normal(size=3)
    d = rng.normal(size=3)
    out = hz_direction(s, s, d)   # y = 0 -> fallback branch
    eta_k = -1 / (np.linalg.norm(d) * min(0.01, np.linalg.norm(s)))
    assert np.allclose(out, -s + eta_k * d)
    # the truncation guarantees descent on random instances
    for _ in range(10_000):
        s0, s1, dd = rng.normal(size=(3, 4))
        out = hz_direction(s1, s0, dd)
        assert np.dot(out, s1) < 0


def test_moreau_monotone_and_affine_addition():
    # M_rho t <= t, and the affine-shift identity for t = l1
    rng = np.random.default_rng(6)
    lam, rho = 0.7, 0.4
    t = lambda x: lam * np.abs(x).sum()
    prox = lambda v, r: prox_scaled_l1(v, np.zeros_like(v), r, lam)

    def envelope(x, shift=None, bias=0.0):
        # M_rho (t + <a,.> + b)(x) evaluated through the prox of t
        a = np.zeros_like(x) if shift is None else shift
        u = prox(x - rho * a, rho)
        return t(u) + a @ u + bias + np.dot(u - x, u - x) / (2 * rho)

    for _ in range(50):
        x = rng.normal(size=3) * 2
        assert envelope(x) <= t(x) + 1e-12
        a = rng.normal(size=3)
        b = rng.normal()
        lhs = envelope(x, shift=a, bias=b)
        rhs = envelope(x - rho * a) + a @ x + b - rho / 2 * np.dot(a, a)
        assert abs(lhs - rhs) <= 1e-10


def test_line_search_exact_step():
    rng = np.random.default_rng(7)
    A = _spd(rng, 2)
    b = rng.normal(size=2)
    p = _quad_problem(A, b, h_lam=0.0)
    rho = 0.5 / p.obj.lipschitz
    x = rng.normal(size=2)
    s = linearized_moreau_grad(p, x, rho)
    d = -s
    lg = p.obj.grad(x)
    # exact search on a quadratic with steepest descent: <G(x+ad), d> = 0
    a = line_search(p, x, d, rho, lg, float(s @ d))
    assert a > 0
    assert abs(np.dot(linearized_moreau_grad(p, x + a * d, rho), d)) <= 1e-9
    with pytest.raises(ValueError):
        line_search(p, x, s, rho, lg, float(s @ s))  # ascent direction


@pytest.mark.parametrize("L", [0.0, -1.0, np.nan, np.inf])
def test_pcg_solve_rejects_a_lipschitz_constant_that_gives_no_step(L):
    # rho = 0.5/L scales every prox: L = 0 would divide by zero, a NaN L reach the prox
    obj = SmoothObjective(value=lambda x: float(x @ x), grad=lambda x: 2.0 * x,
                          lipschitz=L, dimension=3)
    with pytest.raises(ValueError, match="^pcg needs a finite Lipschitz constant > 0, got "):
        pcg_solve(make_composite(obj, PenaltySpec("l1", 0.1)), np.ones(3), max_iter=5)


@pytest.mark.parametrize("built", [False, True])
def test_pcg_solve_rejects_a_start_of_the_wrong_shape(built):
    # a length-5 start on a 3-dimensional objective used to run to a
    # "converged" (5,) estimate, or die in numpy's shape check when built
    if built:
        obj = make_linear_objective(np.eye(3), np.ones(3))
    else:
        obj = SmoothObjective(value=lambda x: float(x @ x), grad=lambda x: 2.0 * x,
                              lipschitz=2.0, dimension=3)
    comp = make_composite(obj, PenaltySpec("l1", 0.1))
    for x0, shape in ((np.ones(5), "(5,)"), (np.ones((1, 3)), "(1, 3)")):
        with pytest.raises(ValueError, match=re.escape(f"x0 has shape {shape}; need (3,)")):
            pcg_solve(comp, x0, max_iter=5)



@pytest.mark.parametrize("tol", [np.nan, -1.0])
def test_pcg_solve_rejects_a_nan_or_negative_tol(tol):
    # a NaN tol used to run to "converged" on a small problem, and fit's pcg
    # path then raised RuntimeError where its ag path raised ValueError
    obj = make_linear_objective(np.eye(3), np.ones(3))
    msg = f"^tol must be >= 0, got {tol}$"
    with pytest.raises(ValueError, match=msg):
        pcg_solve(make_composite(obj, PenaltySpec("l1", 0.1)), tol=tol)
    with pytest.raises(ValueError, match=msg):
        fit(np.eye(3)[:, :2], np.ones(3), solver="pcg", tol=tol)

def test_line_search_reports_a_missing_bracket():
    # a linear loss c.x with no penalty has no root of <s(x + a d), d> along
    # d = -c: the derivative stays at -||c||^2 through all 60 doublings
    c = np.array([1.0, -2.0, 0.5])
    obj = SmoothObjective(value=lambda x: float(c @ x), grad=lambda x: c.copy(),
                          lipschitz=1.0, dimension=3, curvature=lambda d: np.zeros_like(d))
    p = make_composite(obj, PenaltySpec("l1", 0.0))
    with pytest.raises(RuntimeError, match="^brent bracket not found; last derivative"):
        line_search(p, np.zeros(3), -c, 0.5 / p.obj.lipschitz, c, float(-c @ c))


def _bracketed_functions():
    # smooth, flat, steep and kinked roots at scales from 1e-8 to 1e8
    rng = np.random.default_rng(7)
    for i in range(600):
        a, r, s = rng.uniform(0.1, 5.0), rng.uniform(-3, 3), 10 ** rng.uniform(-8, 8)
        lo, hi = r - rng.uniform(0.01, 10), r + rng.uniform(0.01, 10)
        f = [lambda x: s * (x - r),
             lambda x: s * (x - r) ** 3,
             lambda x: s * math.tanh(a * (x - r)),
             lambda x: math.expm1(a * (x - r)),
             lambda x: s * (x - r) * (1 + a * (x - r) ** 2),
             lambda x: s * math.atan(a * (x - r)) if x < r else s * (x - r) ** 5][i % 6]
        yield f, lo, hi
    # tiny values: the extrapolation's denominator underflows to 0, and scipy
    # bisects on the inf or NaN step this gives in C
    for s in (1e-110, 1e-150, 1e-200, 1e-300, 1e-305):
        yield (lambda x, s=s: s * (x**3 - 0.1)), 0.0, 1.0


def test_brentq_equals_scipy_bitwise():
    from scipy.optimize import brentq

    for f, lo, hi in _bracketed_functions():
        seen, ref_seen = [], []
        root = _brentq(lambda x: seen.append(x) or f(x), lo, hi, f(lo), f(hi))
        ref = brentq(lambda x: ref_seen.append(x) or f(x), lo, hi, xtol=1e-14, maxiter=200)
        assert root == ref and type(root) is float
        # the same evaluations past scipy's two at the endpoints, in the same order
        assert seen == ref_seen[2:]


def test_brentq_raises_like_scipy():
    from scipy.optimize import brentq

    cases = [(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, {}, ValueError),
             (lambda x: x**3 - 0.3, {"maxiter": 3}, RuntimeError)]  # out of steps
    for f, kw, error in cases:
        with pytest.raises(error) as ref:
            brentq(f, 0.0, 2.0, xtol=1e-14, **{"maxiter": 200, **kw})
        with pytest.raises(error, match=re.escape(str(ref.value))):
            _brentq(f, 0.0, 2.0, f(0.0), f(2.0), **kw)


def test_pcg_solve_quadratic():
    rng = np.random.default_rng(8)
    A = _spd(rng, 5)
    b = rng.normal(size=5)
    p = _quad_problem(A, b)
    rep, cert = pcg_solve(p, tol=1e-10, max_iter=100)
    assert rep.converged and rep.iterations <= 25
    assert np.max(np.abs(rep.estimate - np.linalg.solve(A, b))) <= 1e-8
    assert cert <= 1e-10


def test_pcg_converges_on_lasso():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(120, 30))
    beta = np.zeros(30)
    beta[[3, 11, 19]] = [2.0, -1.5, 1.0]
    y = X @ beta + 0.3 * rng.normal(size=120)
    obj = make_linear_objective(X, y)
    comp = make_composite(obj, PenaltySpec("l1", 0.05))
    rep, cert = pcg_solve(comp, tol=1e-8, max_iter=500)
    assert rep.converged
    assert cert <= 1e-8


def test_pcg_matches_pg_on_lasso():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    obj = make_linear_objective(X, y)
    pen = PenaltySpec("l1", 0.2)
    comp = make_composite(obj, pen)
    rep, _ = pcg_solve(comp, tol=1e-10, max_iter=500)
    ref = pg_solve(comp, 1 / obj.lipschitz, np.zeros(2), tol=1e-12, max_iter=100_000)
    f = lambda bta: obj.value(bta) + pen.lam * np.abs(bta).sum()
    assert abs(f(rep.estimate) - f(ref.estimate)) <= 1e-6


def test_pcg_scad_clarke_certificate():
    rng = np.random.default_rng(10)
    n, p_dim = 200, 50
    X = rng.normal(size=(n, p_dim))
    beta = np.zeros(p_dim)
    beta[:5] = [3, -3, 2, -2, 4]
    y = X @ beta + rng.normal(0, 0.5, n)
    pen = PenaltySpec("scad", 0.1, a=3.7)
    obj = make_linear_objective(X, y, pen)
    comp = make_composite(obj, pen)
    rep, cert = pcg_solve(comp, tol=1e-6, max_iter=2000)
    assert rep.converged
    assert cert <= 1e-6
    xhat = rep.estimate
    g = comp.g_grad(xhat)
    zero = np.abs(xhat) <= 1e-6
    assert np.all(np.abs(g[zero]) <= pen.lam + 1e-5)
    if (~zero).any():
        assert np.max(np.abs(g[~zero] + pen.lam * np.sign(xhat[~zero]))) <= 1e-5


def test_pcg_trace_keeps_a_map_whose_square_underflows():
    # a quadratic scaled by c = 1e-170: the map s = c x has s @ s = 0 in
    # floating point, so the solve stops at once as stationary to working
    # precision; its certificate max|s| and its trace's norm are both not 0
    c = 1e-170
    obj = SmoothObjective(value=lambda x: c * 0.5 * float(x @ x), grad=lambda x: c * x,
                          lipschitz=c, dimension=3)
    p = make_composite(obj, PenaltySpec("l1", 0.0))
    rep, cert = pcg_solve(p, np.array([1.0, -2.0, 3.0]), tol=0.0)
    s = linearized_moreau_grad(p, rep.estimate, 0.5 / obj.lipschitz)  # pcg_solve's rho
    assert rep.converged and rep.iterations == 0
    assert cert == np.max(np.abs(s)) and float(s @ s) == 0.0
    assert rep.grad_map_trace[-1] >= cert > 0.0


def test_linear_cg_identity_and_dense():
    rng = np.random.default_rng(11)
    b = rng.normal(size=6)
    assert np.allclose(linear_cg(np.eye(6), b), b)
    A = _spd(rng, 10)
    x = linear_cg(A, rng.normal(size=10), tol=1e-12)


def test_linear_cg_residual_orthogonality():
    rng = np.random.default_rng(12)
    A = _spd(rng, 8)
    b = rng.normal(size=8)
    x, res = linear_cg(A, b, tol=1e-12, collect_residuals=True)
    for i in range(len(res)):
        for j in range(i + 1, len(res)):
            denom = max(np.linalg.norm(res[i]) * np.linalg.norm(res[j]), 1e-30)
            if np.linalg.norm(res[i]) > 1e-10 and np.linalg.norm(res[j]) > 1e-10:
                assert abs(np.dot(res[i], res[j])) / denom <= 1e-8


def test_linear_cg_max_iter_error():
    rng = np.random.default_rng(13)
    A = _spd(rng, 30, cond=1e6)
    with pytest.raises(RuntimeError, match="residual"):
        linear_cg(A, rng.normal(size=30), tol=1e-14, max_iter=2)


@pytest.mark.parametrize("loss", ["linear", "logistic"])
@pytest.mark.parametrize("skip", [(), (0, 5)])
def test_gradient_along_d_matches_gradient_at_the_point(loss, skip):
    rng = np.random.default_rng(15)
    X = rng.normal(size=(60, 12))
    y = X[:, 0] - X[:, 1] + 0.2 * rng.normal(size=60)
    pen = PenaltySpec("scad", 0.2, a=3.7)
    if loss == "linear":
        obj = make_linear_objective(X, y, pen)
        assert obj.curvature is not None
    else:
        obj = make_logistic_objective(X, (y > 0).astype(float), pen)
        assert obj.curvature is None
    comp = make_composite(obj, pen, skip)
    assert comp.obj.curvature is obj.curvature
    x, d = rng.normal(size=(2, 12))
    rho = 0.5 / comp.obj.lipschitz
    lg = comp.obj.grad(x)
    phi = _phi_grad(comp, x, d, rho, lg)
    if comp.obj.curvature is not None:  # the loss gradient moved along d by alpha * H d
        hd = comp.obj.curvature(d)
    for alpha in (0.0, 1e-3, 0.3, 1.0, 7.5):
        want = comp.g_grad(x + alpha * d)
        if comp.obj.curvature is not None:
            along = comp.g_grad(x + alpha * d, lg + alpha * hd)
            assert np.max(np.abs(along - want)) <= 1e-12 * np.max(np.abs(want)), alpha
        s = linearized_moreau_grad(comp, x + alpha * d, rho)
        assert abs(phi(alpha) - s @ d) <= 1e-12 * np.abs(s) @ np.abs(d), alpha
    if skip:  # the skipped coordinates get no concave part along d either
        idx = list(skip)
        got = comp.g_grad(x + 0.3 * d, comp.obj.grad(x + 0.3 * d))
        assert np.allclose(got[idx], obj.grad(x + 0.3 * d)[idx], rtol=1e-12, atol=0)


def test_brent_line_search_takes_one_loss_gradient():
    # the least-squares gradient is affine along d, so the one at x, which the
    # caller forms, is the only one the search needs
    rng = np.random.default_rng(16)
    X = rng.normal(size=(80, 20))
    y = X[:, :3].sum(axis=1) + 0.3 * rng.normal(size=80)
    pen = PenaltySpec("scad", 0.1, a=3.7)
    obj = make_linear_objective(X, y, pen)
    calls = []
    counted = replace(obj, grad=lambda b: calls.append(1) or obj.grad(b))
    comp = make_composite(counted, pen)
    rho = 0.5 / comp.obj.lipschitz
    x = rng.normal(size=20)
    d = -linearized_moreau_grad(comp, x, rho)
    calls.clear()
    alpha = line_search(comp, x, d, rho, comp.obj.grad(x), float(-d @ d))
    assert alpha > 0 and len(calls) == 1
    assert abs(np.dot(linearized_moreau_grad(comp, x + alpha * d, rho), d)) <= 1e-9


def test_pcg_forms_each_loss_gradient_once():
    # one loss gradient at x0 and one per iterate, shared by s, the next line
    # search and, at the last iterate, the certificate
    rng = np.random.default_rng(17)
    X = rng.normal(size=(100, 30))
    y = X[:, :3].sum(axis=1) + 0.3 * rng.normal(size=100)
    pen = PenaltySpec("scad", 0.1, a=3.7)
    obj = make_linear_objective(X, y, pen)
    calls = []
    counted = replace(obj, grad=lambda b, z=None: calls.append(1) or obj.grad(b, z))
    rep, _ = pcg_solve(make_composite(counted, pen), np.zeros(30), tol=1e-8)
    assert rep.converged and rep.iterations > 5
    assert len(calls) == rep.iterations + 1


def test_pcg_forms_x_times_each_iterate_once(design_products):
    # the forward product X x that the loss gradient at an iterate forms also
    # gives that iterate's traced value; the line search moves the
    # least-squares gradient along d through the curvature, with no product x X'
    rng = np.random.default_rng(17)
    X = rng.normal(size=(100, 30))
    y = X[:, :3].sum(axis=1) + 0.3 * rng.normal(size=100)
    pen = PenaltySpec("scad", 0.1, a=3.7)
    comp = make_composite(make_linear_objective(X, y, pen), pen)
    products = design_products(X)
    rep, _ = pcg_solve(comp, np.zeros(30), tol=1e-8)
    assert rep.converged and rep.iterations > 5
    forward = [rows for kind, rows in products if kind == "fwd"]
    assert forward == [1] * (rep.iterations + 1) and len(rep.objective_trace) == len(forward)


@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_line_search_evaluates_each_step_once(loss, monkeypatch):
    # phi(0) is <s, d>, which the solver holds, and Brent starts from the
    # bracket's two known values, so no search evaluates phi at 0 or twice at a step
    rng = np.random.default_rng(18)
    X = rng.normal(size=(80, 25))
    y = X[:, :3].sum(axis=1) + 0.3 * rng.normal(size=80)
    pen = PenaltySpec("scad", 0.1, a=3.7)
    obj = (make_linear_objective(X, y, pen) if loss == "linear"
           else make_logistic_objective(X, (y > 0).astype(float), pen))
    searches = []
    phi_grad = pcg._phi_grad

    def recorded_phi_grad(*args):
        phi, steps = phi_grad(*args), []
        searches.append(steps)
        return lambda alpha: steps.append(alpha) or phi(alpha)

    monkeypatch.setattr(pcg, "_phi_grad", recorded_phi_grad)
    rep, _ = pcg_solve(make_composite(obj, pen), tol=1e-8, max_iter=200)
    assert rep.iterations > 5 and len(searches) == rep.iterations
    for steps in searches:
        assert 0.0 not in steps and len(set(steps)) == len(steps)


@pytest.mark.parametrize("slope", [math.nan, 0.0, 1.0])
def test_line_search_rejects_a_non_descent_slope_unevaluated(slope, monkeypatch):
    rng = np.random.default_rng(19)
    A = _spd(rng, 3)
    p = _quad_problem(A, rng.normal(size=3))
    x = rng.normal(size=3)
    calls = []
    moreau = pcg.linearized_moreau_grad
    monkeypatch.setattr(pcg, "linearized_moreau_grad",
                        lambda *a: calls.append(1) or moreau(*a))
    with pytest.raises(ValueError, match="descent direction"):
        line_search(p, x, -x, 0.5 / p.obj.lipschitz, p.obj.grad(x), slope)
    assert calls == []
