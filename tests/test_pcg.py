from dataclasses import replace

import numpy as np
import pytest

from hdsparse.agsolver import make_linear_objective, make_logistic_objective, pg_solve
from hdsparse.pcg import (
    CompositeProblem,
    PCGConfig,
    hz_direction,
    line_search,
    linear_cg,
    linearized_moreau_grad,
    make_composite,
    pcg_solve,
    surrogate_objective,
)
from hdsparse.penalty import PenaltySpec, prox_scaled_l1


def _quad_problem(A, b, h_lam=0.0):
    L = float(np.linalg.eigvalsh(A).max())
    return CompositeProblem(
        g_value=lambda x: float(0.5 * x @ A @ x - b @ x),
        g_grad=lambda x: A @ x - b,
        lipschitz_g=L,
        h_value=lambda x: float(h_lam * np.abs(x).sum()),
        h_prox=lambda v, rho: prox_scaled_l1(v, np.zeros_like(v), rho, h_lam),
        dimension=b.size,
    )


def _spd(rng, n, cond=10.0):
    A = rng.normal(size=(n, n))
    A = A @ A.T
    return A + np.eye(n) * np.linalg.eigvalsh(A).max() / cond


def test_moreau_grad_two_form_identity():
    rng = np.random.default_rng(0)
    A = _spd(rng, 4)
    b = rng.normal(size=4)
    p = _quad_problem(A, b, h_lam=0.3)
    rho = 0.5 / p.lipschitz_g
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
    rho = 0.4 / p.lipschitz_g
    x = rng.normal(size=3)
    assert np.allclose(linearized_moreau_grad(p, x, rho), p.g_grad(x), atol=1e-12)
    xstar = np.linalg.solve(A, b)
    assert np.max(np.abs(linearized_moreau_grad(p, xstar, rho))) <= 1e-10


def test_linearized_lipschitz_empirical():
    rng = np.random.default_rng(2)
    A = _spd(rng, 4)
    b = rng.normal(size=4)
    p = _quad_problem(A, b, h_lam=0.5)
    rho = 0.3 / p.lipschitz_g
    L_lin = p.lipschitz_g + 1 / rho  # crude but always-valid bound
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
    out = hz_direction(s_next, s_prev, d, eta=0.01)
    assert np.allclose(out, [1.0, -1.0])


def test_hz_direction_degenerate_and_descent():
    rng = np.random.default_rng(4)
    s = rng.normal(size=3)
    d = rng.normal(size=3)
    out = hz_direction(s, s, d, eta=0.01)   # y = 0 -> fallback branch
    eta_k = -1 / (np.linalg.norm(d) * min(0.01, np.linalg.norm(s)))
    assert np.allclose(out, -s + eta_k * d)
    # the truncation guarantees descent on random instances
    for _ in range(10_000):
        s0, s1, dd = rng.normal(size=(3, 4))
        out = hz_direction(s1, s0, dd, eta=0.01)
        assert np.dot(out, s1) < 0


def test_surrogate_objective():
    rng = np.random.default_rng(5)
    A = _spd(rng, 3)
    b = rng.normal(size=3)
    p0 = _quad_problem(A, b, h_lam=0.0)
    rho = 0.5 / p0.lipschitz_g
    x = rng.normal(size=3)
    # h = 0: surrogate collapses to g(x) - rho/2 ||grad g||^2
    expected = p0.g_value(x) - rho / 2 * np.dot(p0.g_grad(x), p0.g_grad(x))
    assert surrogate_objective(p0, x, rho) == pytest.approx(expected)
    # at a stationary point of g + h it equals g + h
    xstar = np.linalg.solve(A, b)
    assert surrogate_objective(p0, xstar, rho) == pytest.approx(
        p0.g_value(xstar), abs=1e-10)


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


def test_line_search_modes():
    rng = np.random.default_rng(7)
    A = _spd(rng, 2)
    b = rng.normal(size=2)
    p = _quad_problem(A, b, h_lam=0.0)
    rho = 0.5 / p.lipschitz_g
    x = rng.normal(size=2)
    s = linearized_moreau_grad(p, x, rho)
    d = -s
    cfg = PCGConfig()
    for mode in ("brent", "wolfe", "backtrack"):
        alpha = line_search(p, x, d, mode, cfg, rho)
        assert alpha > 0
    # exact search on a quadratic with steepest descent: <G(x+ad), d> = 0
    a = line_search(p, x, d, "brent", cfg, rho)
    assert abs(np.dot(linearized_moreau_grad(p, x + a * d, rho), d)) <= 1e-9
    with pytest.raises(ValueError):
        line_search(p, x, s, "brent", cfg, rho)  # ascent direction


def test_pcg_solve_quadratic():
    rng = np.random.default_rng(8)
    A = _spd(rng, 5)
    b = rng.normal(size=5)
    p = _quad_problem(A, b)
    rep, cert = pcg_solve(p, PCGConfig(tol=1e-10, max_iter=100))
    assert rep.converged and rep.iterations <= 25
    assert np.max(np.abs(rep.estimate - np.linalg.solve(A, b))) <= 1e-8
    assert cert.moreau_grad_norm <= 1e-10


def test_pcg_all_line_searches_converge():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(120, 30))
    beta = np.zeros(30)
    beta[[3, 11, 19]] = [2.0, -1.5, 1.0]
    y = X @ beta + 0.3 * rng.normal(size=120)
    obj = make_linear_objective(X, y)
    comp = make_composite(obj, PenaltySpec("l1", 0.05))
    for ls in ("brent", "wolfe", "backtrack"):
        rep, cert = pcg_solve(comp, PCGConfig(line_search=ls, tol=1e-8,
                                              max_iter=500))
        assert rep.converged, ls
        assert cert.moreau_grad_norm <= 1e-8, ls


def test_pcg_matches_pg_on_lasso():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    obj = make_linear_objective(X, y)
    pen = PenaltySpec("l1", 0.2)
    comp = make_composite(obj, pen)
    rep, _ = pcg_solve(comp, PCGConfig(tol=1e-10, max_iter=500))
    ref = pg_solve(obj, pen, 1 / obj.lipschitz, np.zeros(2), tol=1e-12,
                   max_iter=100_000)
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
    rep, cert = pcg_solve(comp, PCGConfig(tol=1e-6, max_iter=2000))
    assert rep.converged
    assert cert.moreau_grad_norm <= 1e-6
    xhat = rep.estimate
    g = comp.g_grad(xhat)
    zero = np.abs(xhat) <= 1e-6
    assert np.all(np.abs(g[zero]) <= pen.lam + 1e-5)
    if (~zero).any():
        assert np.max(np.abs(g[~zero] + pen.lam * np.sign(xhat[~zero]))) <= 1e-5


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
    x, d = rng.normal(size=(2, 12))
    along = comp.g_grad_along(x, d)
    for alpha in (0.0, 1e-3, 0.3, 1.0, 7.5):
        want = comp.g_grad(x + alpha * d)
        assert np.max(np.abs(along(alpha) - want)) <= 1e-12 * np.max(np.abs(want)), alpha
    if skip:  # the skipped coordinates get no concave part along d either
        idx = list(skip)
        assert np.allclose(along(0.3)[idx], obj.grad(x + 0.3 * d)[idx], rtol=1e-12, atol=0)


def test_brent_line_search_takes_one_loss_gradient():
    # the least-squares gradient is affine along d, so the search forms it once
    rng = np.random.default_rng(16)
    X = rng.normal(size=(80, 20))
    y = X[:, :3].sum(axis=1) + 0.3 * rng.normal(size=80)
    pen = PenaltySpec("scad", 0.1, a=3.7)
    obj = make_linear_objective(X, y, pen)
    calls = []
    counted = replace(obj, grad=lambda b: calls.append(1) or obj.grad(b))
    comp = make_composite(counted, pen)
    rho = 0.5 / comp.lipschitz_g
    x = rng.normal(size=20)
    d = -linearized_moreau_grad(comp, x, rho)
    calls.clear()
    alpha = line_search(comp, x, d, "brent", PCGConfig(), rho)
    assert alpha > 0 and len(calls) == 1
    assert abs(np.dot(linearized_moreau_grad(comp, x + alpha * d, rho), d)) <= 1e-9


def test_pcg_forms_each_loss_gradient_once():
    # one loss gradient at x0, one per iterate (shared by s and the next line
    # search), one for the certificate; the search used to form it again
    rng = np.random.default_rng(17)
    X = rng.normal(size=(100, 30))
    y = X[:, :3].sum(axis=1) + 0.3 * rng.normal(size=100)
    pen = PenaltySpec("scad", 0.1, a=3.7)
    obj = make_linear_objective(X, y, pen)
    calls = []
    counted = replace(obj, grad=lambda b: calls.append(1) or obj.grad(b))
    rep, cert = pcg_solve(make_composite(counted, pen), PCGConfig(tol=1e-8), np.zeros(30))
    assert rep.converged and rep.iterations > 5
    assert len(calls) == rep.iterations + 2
    # the iterates are those of a search that forms the gradient itself
    plain = replace(make_composite(obj, pen), loss_grad=None)
    rep0, cert0 = pcg_solve(plain, PCGConfig(tol=1e-8), np.zeros(30))
    assert rep0.estimate.tobytes() == rep.estimate.tobytes()
    assert rep0.objective_trace.tobytes() == rep.objective_trace.tobytes()
    assert cert0.moreau_grad_norm == cert.moreau_grad_norm


@pytest.mark.parametrize("mode", ["brent", "wolfe", "backtrack"])
def test_hand_built_problem_with_two_argument_gradient_along(mode):
    # a problem without loss_grad keeps the documented g_grad_along(x, d)
    rng = np.random.default_rng(18)
    A = _spd(rng, 8)
    b = rng.normal(size=8)
    p = _quad_problem(A, b, h_lam=0.05)
    along = replace(p, g_grad_along=lambda x, d: lambda alpha: A @ (x + alpha * d) - b)
    cfg = PCGConfig(tol=1e-10, max_iter=200, line_search=mode)
    rep, cert = pcg_solve(along, cfg)
    want, _ = pcg_solve(p, cfg)
    assert rep.converged and cert.moreau_grad_norm <= 1e-10
    assert rep.estimate.tobytes() == want.estimate.tobytes()
