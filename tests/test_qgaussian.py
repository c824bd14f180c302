import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import toeplitz
from scipy.special import gammaln
from scipy.stats import multivariate_t

from hdsparse.penalty import PenaltySpec, penalty_value
from hdsparse.qgaussian import (
    QGaussianModel,
    QGaussianParams,
    QShape,
    covariance,
    dof_from_q,
    fit,
    logpdf,
    neg_penalized_loglik,
    predict,
    q_covariance,
    q_exp,
    q_from_dof,
    q_log,
    q_update,
    recover_q_subset,
    _psi_cholesky,
    _quad_Q,
    _whitened_objective,
    sigma2_update,
    theta_update,
)


def test_q_exp_log_basics():
    assert q_exp(0.5, 2.0) == pytest.approx(2.0)     # 1/(1-0.5)
    assert q_exp(0.0, 1.5) == 1.0
    assert q_exp(-10.0, 0.5) == 0.0                  # outside the support
    with pytest.raises(ValueError):
        q_exp(1.0, 1.0)
    with pytest.raises(ValueError):
        q_log(1.0, 1.0)
    with pytest.raises(ValueError):
        q_log(-1.0, 1.5)


def test_q_exp_log_roundtrip_and_limit():
    rng = np.random.default_rng(0)
    for q in (0.5, 1.5, 1.9):
        # stay inside the support 1 + (1-q)x > 0
        x = rng.uniform(-0.4, 1.0, size=50)
        assert np.allclose(q_log(q_exp(x, q), q), x, atol=1e-10)
    # q -> 1 recovers exp/log
    x = np.linspace(-1, 1, 21)
    assert np.max(np.abs(q_exp(x, 1 + 1e-9) - np.exp(x))) <= 1e-6
    assert np.max(np.abs(q_log(np.exp(x), 1 + 1e-9) - x)) <= 1e-6


def test_dof_conversions():
    assert dof_from_q(1.5, 1) == pytest.approx(3.0)
    assert q_from_dof(3.0, 1) == pytest.approx(1.5)
    for n in (1, 5, 100):
        for m in (0.5, 2.0, 30.0):
            assert dof_from_q(q_from_dof(m, n), n) == pytest.approx(m)
    with pytest.raises(ValueError):
        dof_from_q(1.0, 4)
    with pytest.raises(ValueError):
        dof_from_q(1.6, 4)     # beyond 1 + 2/n
    with pytest.raises(ValueError):
        q_from_dof(0.0, 4)
    sh = QShape(1.2, 5)
    assert sh.u == pytest.approx(5.0) and sh.m == pytest.approx(5.0)


def test_shape_and_params_check_their_dimension():
    with pytest.raises(ValueError, match="^dimension n must be at least 1, got 0$"):
        QShape(1.5, 0)  # was a ZeroDivisionError from 2/n
    # a 5-dimensional q-Gaussian with a 3x3 Psi used to be accepted, and its
    # q_covariance came back 3x3
    sh = QShape(q_from_dof(4.0, 5), 5)
    with pytest.raises(ValueError, match=r"^psi must be \(5, 5\) for 5 rows, got \(3, 3\)$"):
        QGaussianParams(np.zeros(5), 1.0, np.eye(3), sh)
    with pytest.raises(ValueError, match=r"^mu has 3 entries; need 5$"):
        QGaussianParams(np.zeros(3), 1.0, None, sh)
    psi = np.eye(5)
    psi[0, 4] = 0.3
    with pytest.raises(ValueError, match=r"^psi must be symmetric$"):
        QGaussianParams(np.zeros(5), 1.0, psi, sh)
    assert q_covariance(QGaussianParams(np.zeros(5), 1.0, np.eye(5), sh)).shape == (5, 5)


def test_logpdf_matches_multivariate_t():
    rng = np.random.default_rng(1)
    n = 3
    a = rng.normal(size=(n, n))
    psi = a @ a.T + n * np.eye(n)
    psi /= np.exp(np.linalg.slogdet(psi)[1] / n)     # normalize the det
    mu = rng.normal(size=n)
    sigma2 = 1.7
    for m in (0.5, 2.0, 11.0):
        params = QGaussianParams(mu, sigma2, psi, QShape(q_from_dof(m, n), n))
        ref = multivariate_t(loc=mu, shape=sigma2 * psi, df=m)
        for _ in range(5):
            x = mu + rng.normal(size=n) * 2
            assert logpdf(x, params) == pytest.approx(ref.logpdf(x), abs=1e-12)
            # the same density in the q-Gaussian's Lambda = m*Sigma form
            lam, u = m * sigma2 * psi, (m + n) / 2
            d = x - mu
            lp_lambda = (-0.5 * np.linalg.slogdet(np.pi * lam)[1] + gammaln(u)
                         - gammaln(u - n / 2) - u * np.log1p(d @ np.linalg.solve(lam, d)))
            assert logpdf(x, params) == pytest.approx(lp_lambda, abs=1e-12)


def test_logpdf_cauchy_and_gaussian_limit():
    # n=1, m=1 is the standard Cauchy: p(0) = 1/pi
    p = QGaussianParams(np.zeros(1), 1.0, None, QShape(q_from_dof(1.0, 1), 1))
    assert logpdf(np.zeros(1), p) == pytest.approx(-np.log(np.pi), abs=1e-12)
    # large m approaches the standard normal
    pg = QGaussianParams(np.zeros(1), 1.0, None, QShape(q_from_dof(1e6, 1), 1))
    assert logpdf(np.array([0.7]), pg) == pytest.approx(
        -0.5 * np.log(2 * np.pi) - 0.245, abs=1e-4)


def test_logpdf_normalization_quadrature():
    for q in (1.1, 1.5):
        p = QGaussianParams(np.zeros(1), 0.8, None, QShape(q, 1))
        total, _ = integrate.quad(
            lambda x: np.exp(logpdf(np.array([x]), p)), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_q_covariance_quadrature():
    # n = 1: q-covariance = int x^2 p(x)^q dx, checked by quadrature
    for q, s2 in ((1.3, 0.7), (1.05, 2.0)):
        p = QGaussianParams(np.zeros(1), s2, None, QShape(q, 1))
        got = q_covariance(p)[0, 0]
        ref, _ = integrate.quad(
            lambda x: x**2 * np.exp(q * logpdf(np.array([x]), p)),
            -np.inf, np.inf)
        assert got == pytest.approx(ref, rel=1e-6)


def test_covariance():
    psi = np.array([[2.0, 0.5], [0.5, 1.0]])
    p = QGaussianParams(np.zeros(2), 1.5, psi, QShape(q_from_dof(5.0, 2), 2))
    assert np.allclose(covariance(p), 5 / 3 * 1.5 * psi)
    heavy = QGaussianParams(np.zeros(2), 1.5, psi, QShape(q_from_dof(1.5, 2), 2))
    assert covariance(heavy) is None


def _toy_fit_data(rng, n=60, p=4):
    X = rng.normal(size=(n, p))
    beta = np.array([1.0, -2.0, 0.0, 0.5])
    y = 0.3 + X @ beta + rng.normal(scale=0.5, size=n)
    return X, y, beta


def test_theta_update_ols_recovery():
    rng = np.random.default_rng(2)
    X, y, _ = _toy_fit_data(rng, n=300)
    model = QGaussianModel(np.zeros(5), 1.0, 1 + 1 / 300, 300, None,
                           PenaltySpec("l1", 0.0))
    theta = theta_update(model, X, y, tol=1e-9)
    Xd = np.column_stack([np.ones(300), X])
    ols = np.linalg.lstsq(Xd, y, rcond=None)[0]
    assert np.max(np.abs(theta - ols)) <= 1e-5
    # ag solver path agrees
    theta_ag = theta_update(model, X, y, solver="ag", tol=1e-9, max_iter=20_000)
    assert np.max(np.abs(theta_ag - ols)) <= 1e-4


@pytest.mark.parametrize("solver", ["pcg", "ag"])
def test_theta_update_raises_when_unconverged(solver):
    rng = np.random.default_rng(2)
    X, y, _ = _toy_fit_data(rng, n=300)
    model = QGaussianModel(np.zeros(5), 1.0, 1 + 1 / 300, 300, None,
                           PenaltySpec("l1", 0.0))
    with pytest.raises(RuntimeError, match="^theta subproblem did not converge; "):
        theta_update(model, X, y, solver=solver, tol=1e-9, max_iter=3)


def test_theta_independent_of_q_sigma():
    rng = np.random.default_rng(3)
    X, y, _ = _toy_fit_data(rng)
    pen = PenaltySpec("l1", 0.05)
    t1 = theta_update(QGaussianModel(np.zeros(5), 1.0, 1 + 1 / 60, 60, None, pen),
                      X, y, tol=1e-10)
    t2 = theta_update(QGaussianModel(np.zeros(5), 9.0, 1 + 1.5 / 60, 60, None, pen),
                      X, y, tol=1e-10)
    assert np.max(np.abs(t1 - t2)) <= 1e-6


def test_intercept_not_penalized():
    rng = np.random.default_rng(4)
    n = 80
    X = rng.normal(size=(n, 3))
    y = 10.0 + rng.normal(scale=0.1, size=n)     # big intercept, no signal
    lam = float(np.max(np.abs(X.T @ (y - y.mean()) / n))) * 1.5
    with pytest.warns(UserWarning, match="near-Gaussian boundary"):
        model = fit(X, y, penalty=PenaltySpec("l1", lam))
    assert abs(model.theta[0] - 10.0) <= 0.1     # intercept survives
    assert np.max(np.abs(model.theta[1:])) <= 1e-6


def test_theta_lipschitz_adds_concave_part():
    # L of loss + h is the sum of the two constants, not the larger one; with
    # the max, AG's omega = 2/(3L) breaks omega < 1/L for a small MCP gamma
    rng = np.random.default_rng(8)
    n = 80
    X = rng.normal(size=(n, 5))
    y = rng.normal(size=n)
    obj = _whitened_objective(X, y, _psi_cholesky(None), PenaltySpec("mcp", 0.1, gamma=1.5))
    Xd = np.column_stack([np.ones(n), X])
    l_loss = np.linalg.eigvalsh(Xd.T @ Xd / n).max()
    assert obj.lipschitz == pytest.approx(l_loss + 1 / 1.5, rel=1e-6)
    assert 2 / (3 * obj.lipschitz) < 1 / (l_loss + 1 / 1.5)


def test_sigma2_update_stationarity():
    rng = np.random.default_rng(5)
    X, y, _ = _toy_fit_data(rng)
    model = QGaussianModel(np.zeros(5), 1.0, 1 + 1 / 120, 60, None,
                           PenaltySpec("scad", 0.1, a=3.7))
    model.theta = theta_update(model, X, y)
    s2 = sigma2_update(model, X, y)
    assert s2 > 0
    model.sigma2 = s2

    def f(s):
        m2 = QGaussianModel(model.theta, s, model.q_train, model.n_train,
                            None, model.penalty)
        return neg_penalized_loglik(m2, X, y)

    h = 1e-4 * s2
    deriv = (f(s2 + h) - f(s2 - h)) / (2 * h)
    curv = (f(s2 + h) - 2 * f(s2) + f(s2 - h)) / h**2
    assert abs(deriv) <= 1e-6 * abs(curv * s2) + 1e-8
    # and it is a minimum, not merely stationary
    assert f(1.5 * s2) > f(s2) and f(0.5 * s2) > f(s2)


@pytest.mark.parametrize("pen", [PenaltySpec("l1", 0.3), PenaltySpec("scad", 0.3, a=3.7),
                                 PenaltySpec("mcp", 0.3, gamma=3.0)])
def test_quad_q_sums_the_penalty_elementwise(pen):
    # Q sums the penalty with the solvers' one-pass kernel; the intercept is
    # not penalized, and theta spans every piece of SCAD and MCP
    rng = np.random.default_rng(9)
    X, y, _ = _toy_fit_data(rng)
    theta = np.array([5.0, -1.5, -0.2, 0.5, 1.5])
    model = QGaussianModel(theta, 1.0, 1 + 1 / 120, 60, None, pen)
    r = y - theta[0] - X @ theta[1:]
    want = r @ r + 2 * 60 * penalty_value(pen, theta[1:]).sum()
    assert _quad_Q(model, X, y) == pytest.approx(want, rel=1e-13, abs=0)


def test_q_update_near_gaussian_boundary():
    rng = np.random.default_rng(6)
    X, y, _ = _toy_fit_data(rng)
    model = QGaussianModel(np.zeros(5), 1.0, 1 + 1 / 60, 60, None,
                           PenaltySpec("l1", 0.0))
    model.theta = theta_update(model, X, y)
    model.sigma2 = sigma2_update(model, X, y)
    with pytest.warns(UserWarning, match="boundary"):
        q = q_update(model, X, y)
    assert q == pytest.approx(q_from_dof(2e8 - 60, 60))


@pytest.mark.parametrize("n, s", [(3, 1.0), (50, 1e-3), (60, 1e3)])
def test_q_update_boundary_is_exact(n, s):
    # the profiled objective falls in u for every n and Q, so q is the cap
    # exactly, also where float64 rounding flattens the objective's tail
    model = QGaussianModel(np.zeros(2), 1.0, 1 + 1 / n, n, None, PenaltySpec("l1", 0.0))
    X = np.zeros((n, 1))
    y = np.random.default_rng(0).normal(scale=s, size=n)
    with pytest.warns(UserWarning, match="boundary") as record:
        q = q_update(model, X, y)
    assert len(record) == 1
    assert q == q_from_dof(2e8 - n, n)


def test_theta_update_with_psi_matches_gls():
    rng = np.random.default_rng(9)
    n = 120
    X = rng.normal(size=(n, 4))
    psi = toeplitz(0.5 ** np.arange(n))
    y = 0.3 + X @ np.array([1.0, -2.0, 0.0, 0.5]) + np.linalg.cholesky(psi) @ rng.normal(size=n)
    Xd = np.column_stack([np.ones(n), X])
    gls = np.linalg.solve(Xd.T @ np.linalg.solve(psi, Xd), Xd.T @ np.linalg.solve(psi, y))
    model = QGaussianModel(np.zeros(5), 1.0, 1 + 1 / n, n, psi, PenaltySpec("l1", 0.0))
    for solver in ("pcg", "ag"):
        theta = theta_update(model, X, y, solver=solver, tol=1e-9, max_iter=20_000)
        assert np.max(np.abs(theta - gls)) <= 1e-6, solver
    with pytest.warns(UserWarning, match="boundary"):
        fitted = fit(X, y, psi=psi)
    r = y - Xd @ fitted.theta
    assert fitted.sigma2 == pytest.approx(float(r @ np.linalg.solve(psi, r)) / n, rel=1e-12)
    assert fitted.fit_trace.size == 1


@pytest.mark.parametrize("bad, match", [
    ("nonpd", "positive definite"),
    ("shape", r"psi must be \(40, 40\)"),
    ("asymmetric", "symmetric"),
])
def test_fit_rejects_bad_psi(bad, match):
    rng = np.random.default_rng(10)
    n = 40
    X = rng.normal(size=(n, 3))
    y = X[:, 0] + rng.normal(size=n)
    psi = {"nonpd": np.diag([1.0] * (n - 1) + [-1.0]),
           "shape": np.eye(n + 1),
           "asymmetric": np.eye(n) + np.triu(np.full((n, n), 0.3), 1)}[bad]
    with pytest.raises(ValueError, match=match):
        fit(X, y, psi=psi)


def test_fit_factors_psi_once(monkeypatch):
    rng = np.random.default_rng(11)
    n = 50
    X = rng.normal(size=(n, 3))
    y = X[:, 0] + rng.normal(size=n)
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    with pytest.warns(UserWarning, match="boundary"):
        model = fit(X, y, psi=toeplitz(0.5 ** np.arange(n)))
    assert len(calls) == 1
    assert model.sigma2 > 0 and model.fit_trace.size == 1
    # a Psi assigned later is the one the model reads, not the old factor
    model.psi_train = np.eye(n)
    identity = sigma2_update(replace(model, psi_train=None), X, y)
    assert sigma2_update(model, X, y) == pytest.approx(identity, rel=1e-12)


def test_fit_trace_monotone_and_converges():
    rng = np.random.default_rng(7)
    X, y, _ = _toy_fit_data(rng, n=50)
    with pytest.warns(UserWarning, match="near-Gaussian boundary"):
        model = fit(X, y, penalty=PenaltySpec("mcp", 0.05, gamma=3.0))
    assert np.all(np.diff(model.fit_trace) <= 1e-8)
    assert model.fit_trace.size <= 51
    assert model.sigma2 > 0
    cfg_dict = model.to_config()
    assert cfg_dict["n_train"] == 50 and len(cfg_dict["theta"]) == 5


def test_recover_q_subset():
    assert recover_q_subset(1.009, 100, 50) == pytest.approx(
        1 + 1 / (1 / 0.009 - 50), abs=1e-12)
    assert recover_q_subset(1.01, 100, 100) == pytest.approx(1.01)
    with pytest.raises(ValueError):
        recover_q_subset(1 + 1 / 51, 100, 4)   # u' = 51 - 96 < 0, infeasible


def test_predict():
    rng = np.random.default_rng(8)
    X, y, _ = _toy_fit_data(rng, n=100)
    with pytest.warns(UserWarning):
        model = fit(X, y)
    Xn = rng.normal(size=(5, 4))
    mean, q_new, cov = predict(model, Xn)
    Xd = np.column_stack([np.ones(5), Xn])
    assert np.allclose(mean, Xd @ model.theta)
    assert q_new == pytest.approx(recover_q_subset(model.q_train, 100, 5))
    m_new = dof_from_q(q_new, 5)
    if m_new > 2:
        assert np.allclose(cov, m_new / (m_new - 2) * model.sigma2 * np.eye(5))
    with pytest.raises(ValueError):
        predict(model, rng.normal(size=(5, 7)))
    # a Psi block scales the same factor; one not (5, 5) is refused, where it
    # used to come back as a covariance of its own size
    psi_new = toeplitz(0.5 ** np.arange(5))
    mean_psi, q_psi, cov = predict(model, Xn, psi_new)
    assert np.array_equal(mean_psi, mean) and q_psi == q_new and m_new > 2
    assert np.array_equal(cov, m_new / (m_new - 2) * model.sigma2 * psi_new)
    with pytest.raises(ValueError, match=r"psi_new_block must be \(5, 5\) for 5 rows"):
        predict(model, Xn, np.eye(3))
    # as fit and QGaussianParams refuse a Psi that is not symmetric, where it
    # used to come back scaled as a covariance
    psi_new[0, 4] += 0.1
    with pytest.raises(ValueError, match=r"^psi_new_block must be symmetric$"):
        predict(model, Xn, psi_new)


@pytest.mark.parametrize("shape", [(40,), (40, 3, 1), ()])
def test_fit_and_predict_reject_a_design_that_is_not_2d(shape):
    # both used to raise IndexError: tuple index out of range on a 1-D X
    X = np.ones(shape)
    with pytest.raises(ValueError, match=rf"^X must be 2-D .*shape {re.escape(str(shape))}$"):
        fit(X, np.ones(40))
    model = QGaussianModel(np.zeros(4), 1.0, 1 + 1 / 60, 60, None, PenaltySpec("l1", 0.0))
    with pytest.raises(ValueError, match=rf"^X_new must be 2-D .*shape {re.escape(str(shape))}$"):
        predict(model, X)
