import re

import numpy as np
import pytest

from hdsparse.data import FeatureMatrix, ResponseVector
from hdsparse.screen import (
    Grid2D,
    _kernel_1d,
    bin_count,
    fft_kde_2d,
    make_grid,
    mi_binning,
    mi_fftkde,
    mi_knn,
    next_fast_len,
    pearson_abs,
    screen_all,
    selection_auroc,
    silverman_bandwidth,
    toeplitz,
)


def gaussian_mi(rho):
    # closed form for a bivariate normal with correlation rho
    return -0.5 * np.log(1 - rho**2)


def _bvn(rng, n, rho):
    z = rng.normal(size=(n, 2))
    x = z[:, 0]
    y = rho * z[:, 0] + np.sqrt(1 - rho**2) * z[:, 1]
    return x, y


def test_silverman_bandwidth():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1000)
    h = silverman_bandwidth(x)
    sd = x.std(ddof=1)
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    assert h == pytest.approx(0.9 * min(sd, iqr / 1.34) * 1000 ** (-0.2))
    # heavy tails: the IQR branch wins
    xt = rng.standard_t(2, size=500)
    assert silverman_bandwidth(xt) == pytest.approx(
        0.9 * np.subtract(*np.percentile(xt, [75, 25])) / 1.34 * 500 ** (-0.2))
    with pytest.raises(ValueError):
        silverman_bandwidth(np.ones(50))
    with pytest.raises(ValueError):
        silverman_bandwidth([1.0])


def test_grid2d_validation():
    with pytest.raises(ValueError, match="powers of two"):
        Grid2D(0, 1, 0, 1, nx=100, ny=128)
    with pytest.raises(ValueError, match="powers of two"):
        Grid2D(0, 1, 0, 1, nx=32, ny=128)
    with pytest.raises(ValueError, match="ordered"):
        Grid2D(1, 0, 0, 1)
    g = Grid2D(0.0, 2.0, 0.0, 1.0, nx=128, ny=64)
    assert g.dx == pytest.approx(2.0 / 127)
    assert g.xs[0] == 0.0 and g.xs[-1] == 2.0 and g.xs.size == 128


def test_make_grid_padding():
    x = np.array([0.0, 1.0])
    y = np.array([-1.0, 2.0])
    g = make_grid(x, y, hx=0.1, hy=0.2)
    assert g.x_min == pytest.approx(-0.6) and g.x_max == pytest.approx(1.6)
    assert g.y_min == pytest.approx(-1.6) and g.y_max == pytest.approx(2.6)


def test_fft_kde_matches_direct_sum():
    # points exactly on grid nodes: linear binning is exact, so the FFT-KDE
    # must agree with the brute-force kernel sum to roundoff
    rng = np.random.default_rng(1)
    g = Grid2D(-4.0, 4.0, -4.0, 4.0, nx=128, ny=128)
    ii = rng.integers(30, 98, size=40)
    jj = rng.integers(30, 98, size=40)
    x = g.xs[ii]
    y = g.ys[jj]
    h = 0.35
    dens = fft_kde_2d(x, y, h, h, g)
    XX, YY = np.meshgrid(g.xs, g.ys, indexing="ij")
    direct = np.zeros_like(XX)
    for xi, yi in zip(x, y):
        direct += (np.exp(-0.5 * ((XX - xi) / h) ** 2) / (np.sqrt(2 * np.pi) * h)
                   * np.exp(-0.5 * ((YY - yi) / h) ** 2) / (np.sqrt(2 * np.pi) * h))
    direct /= x.size
    direct /= direct.sum() * g.dx * g.dy    # same Euler-sum normalization
    assert np.max(np.abs(dens - direct)) <= 1e-6


@pytest.mark.parametrize("size", [1, 2, 256])
def test_toeplitz_equals_scipy(size):
    from scipy.linalg import toeplitz as scipy_toeplitz

    c = np.random.default_rng(size).normal(size=size)
    ours, ref = toeplitz(c), scipy_toeplitz(c)
    assert ours.shape == ref.shape and ours.flags.c_contiguous
    assert ours.tobytes() == ref.tobytes()


def test_next_fast_len_equals_scipy():
    from scipy.fft import next_fast_len as scipy_next_fast_len

    targets = range(1, 30001)
    assert [next_fast_len(t) for t in targets] == \
        [scipy_next_fast_len(t, real=True) for t in targets]


def test_fft_kde_matches_2d_fftconvolve():
    # off-grid data: the two 1-D passes against one 2-D FFT convolution of
    # the linearly binned weights with the outer-product kernel
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(13)
    x, y = _bvn(rng, 300, 0.6)
    y = y**3 + 0.1 * rng.normal(size=300)
    hx, hy = silverman_bandwidth(x), silverman_bandwidth(y)
    g = make_grid(x, y, hx, hy, nx=128, ny=256)
    fx, fy = (x - g.x_min) / g.dx, (y - g.y_min) / g.dy
    ix, iy = fx.astype(int), fy.astype(int)
    wx, wy = fx - ix, fy - iy
    w = np.zeros((g.nx, g.ny))
    np.add.at(w, (ix, iy), (1 - wx) * (1 - wy))
    np.add.at(w, (ix + 1, iy), wx * (1 - wy))
    np.add.at(w, (ix, iy + 1), (1 - wx) * wy)
    np.add.at(w, (ix + 1, iy + 1), wx * wy)
    rx = int(np.ceil(8.0 * hx / g.dx)) + 1
    ry = int(np.ceil(8.0 * hy / g.dy)) + 1
    kx, ky = (_kernel_1d(np.arange(-r, r + 1) * step, h)
              for r, step, h in ((rx, g.dx, hx), (ry, g.dy, hy)))
    ref = np.clip(fftconvolve(w / x.size, np.outer(kx, ky), mode="same"), 0.0, None)
    ref /= ref.sum() * g.dx * g.dy
    got = fft_kde_2d(x, y, hx, hy, g)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


def test_fft_kde_properties():
    rng = np.random.default_rng(2)
    x, y = _bvn(rng, 400, 0.3)
    h = silverman_bandwidth(x)
    g = make_grid(x, y, h, h)
    dens = fft_kde_2d(x, y, h, h, g)
    assert np.all(dens >= 0)
    assert dens.sum() * g.dx * g.dy == pytest.approx(1.0)
    # swapping the roles of x and y transposes the density
    gt = Grid2D(g.y_min, g.y_max, g.x_min, g.x_max, g.ny, g.nx)
    assert np.allclose(fft_kde_2d(y, x, h, h, gt),
                       fft_kde_2d(x, y, h, h, g).T, atol=1e-12)
    # a grid that fails to cover data + 3h is rejected
    tight = Grid2D(float(x.min()), float(x.max()), float(y.min()), float(y.max()))
    with pytest.raises(ValueError, match="cover"):
        fft_kde_2d(x, y, h, h, tight)
    with pytest.raises(ValueError):
        fft_kde_2d(x, y, -0.1, h, g)


def test_mi_fftkde_calibration():
    rng = np.random.default_rng(3)
    x, y = _bvn(rng, 2000, 0.5)
    got = mi_fftkde(x, y).value
    assert abs(got - gaussian_mi(0.5)) <= 0.03
    # independent pair is near zero (plug-in bias keeps it slightly positive)
    xi = rng.normal(size=2000)
    yi = rng.normal(size=2000)
    assert 0 <= mi_fftkde(xi, yi).value <= 0.03
    r = mi_fftkde(x, y)
    assert r.method == "fftkde" and r.diagnostics["kernel"] == "gaussian"


def test_bin_count_matches_bruteforce():
    rng = np.random.default_rng(4)
    lognormal = rng.lognormal(size=300)
    lognormal[7] = 1e4                             # one far outlier
    for x in (rng.normal(size=200), rng.uniform(size=500), rng.exponential(size=80),
              np.round(rng.normal(size=400), 1),   # ties on bin edges
              lognormal, rng.standard_t(3, size=2000)):
        n = x.size
        d_max = int(np.ceil(n / np.log(n)))
        vals = []
        for d in range(2, d_max + 1):
            c, _ = np.histogram(x, bins=d)
            nz = c[c > 0]
            vals.append(np.sum(nz * np.log(d * nz / n)) - (d - 1 + np.log(d) ** 2.5))
        assert bin_count(x) == 2 + int(np.argmax(vals))
    with pytest.raises(ValueError):
        bin_count(np.arange(5.0))
    with pytest.warns(UserWarning, match="constant"):
        assert bin_count(np.zeros(50)) == 1
    with pytest.raises(ValueError, match=r"^autodetected range of \[inf, inf\] is not finite$"):
        bin_count(np.full(10, np.inf))          # not a constant vector


def test_mi_binning_discrete_cases():
    rng = np.random.default_rng(5)
    # identical 4-symbol variables: MI -> ln 4 (entropy), plug-in is exact here
    x = rng.integers(0, 4, size=4000).astype(float)
    got = mi_binning(x, x.copy()).value
    # the data-driven bin count may merge nothing; H(x) ~ ln 4 for uniform symbols
    assert abs(got - np.log(4)) <= 0.05
    # independent discrete pair: plug-in bias ~ (Dx-1)(Dy-1)/(2n), tiny
    y = rng.integers(0, 4, size=4000).astype(float)
    assert 0 <= mi_binning(x, y).value <= 0.01
    r = mi_binning(x, y)
    assert r.method == "binning" and r.diagnostics["bins_x"] >= 2


def _binning_reference(x, y):
    """Histogram plug-in MI from np.histogram2d's joint counts, for mi_binning
    (which counts the joint from prepared bin indices) to match bitwise."""
    joint, _, _ = np.histogram2d(x, y, bins=(bin_count(x), bin_count(y)))
    pij = joint / x.size
    pi = pij.sum(axis=1, keepdims=True)
    pj = pij.sum(axis=0, keepdims=True)
    nz = pij > 0
    return max(float(np.sum(pij[nz] * np.log(pij[nz] / (pi @ pj)[nz]))), 0.0)


@pytest.mark.filterwarnings("ignore:constant vector")
def test_mi_binning_counts_are_histogram2d_counts():
    rng = np.random.default_rng(8)
    x, y = _bvn(rng, 500, 0.5)
    cases = [(x, y), (x, y**3), (np.round(x, 1), y),          # ties on bin edges
             (rng.integers(0, 4, 300).astype(float), rng.normal(size=300)),
             (np.full(50, 2.5), rng.normal(size=50)), (x[:40], np.full(40, -1.0))]
    for xs, ys in cases:
        assert mi_binning(xs, ys).value == _binning_reference(xs, ys)


def test_mi_binning_exchangeable():
    rng = np.random.default_rng(6)
    x, y = _bvn(rng, 800, 0.6)
    assert mi_binning(x, y).value == pytest.approx(mi_binning(y, x).value)


def test_mi_knn_calibration():
    rng = np.random.default_rng(7)
    x, y = _bvn(rng, 2000, 0.9)
    assert abs(mi_knn(x, y).value - gaussian_mi(0.9)) <= 0.08
    x2, y2 = _bvn(rng, 2000, 0.5)
    assert abs(mi_knn(x2, y2).value - gaussian_mi(0.5)) <= 0.05
    xi, yi = rng.normal(size=(2, 2000))
    assert 0 <= mi_knn(xi, yi).value <= 0.01
    with pytest.raises(ValueError):
        mi_knn(x[:10], y[:10], k=10)


def test_mi_knn_monotone_invariance():
    # KSG is (approximately) invariant to strictly monotone maps of each margin
    rng = np.random.default_rng(8)
    x, y = _bvn(rng, 1500, 0.7)
    base = mi_knn(x, y).value
    assert abs(mi_knn(np.exp(x), y**3 + 2 * y).value - base) <= 0.05


def test_mi_knn_handles_ties():
    rng = np.random.default_rng(9)
    x = np.round(rng.normal(size=500), 1)   # heavy duplication
    y = np.round(x + rng.normal(scale=0.5, size=500), 1)
    r = mi_knn(x, y)
    assert np.isfinite(r.value) and r.value > 0.1


def test_pearson_abs():
    x = np.arange(10.0)
    assert pearson_abs(x, -3 * x + 1).value == pytest.approx(1.0)
    rng = np.random.default_rng(10)
    a, b = rng.normal(size=(2, 2000))
    assert pearson_abs(a, b).value <= 0.06
    r = np.corrcoef(a, 0.4 * a + b)[0, 1]
    assert pearson_abs(a, 0.4 * a + b).value == pytest.approx(abs(r))
    with pytest.raises(ValueError):
        pearson_abs(np.ones(5), np.arange(5.0))


def _signal_matrix(rng, n=300, p=12):
    y = rng.normal(size=n)
    cols = rng.normal(size=(n, p))
    cols[:, 0] = y + 0.2 * rng.normal(size=n)     # strong linear
    cols[:, 1] = y**2 + 0.3 * rng.normal(size=n)  # nonlinear
    return FeatureMatrix(cols), ResponseVector(y)


def test_screen_all_ranks_signal_first():
    rng = np.random.default_rng(11)
    m, y = _signal_matrix(rng)
    for method in ("fftkde", "binning", "knn", "pearson"):
        rk = screen_all(m, y, method=method)
        top = rk.indices()[:2]
        assert 0 in top, method
        if method != "pearson":        # correlation misses the pure-square column
            assert 1 in top, method
    assert screen_all(m, y, method="pearson").indices()[0] == 0


def test_screen_all_worker_invariance_and_failures():
    rng = np.random.default_rng(12)
    m, y = _signal_matrix(rng, n=120, p=8)
    vals = m.values.copy()
    vals[:, 5] = 2.0                               # constant column must fail
    m = FeatureMatrix(vals)
    r1 = screen_all(m, y, method="pearson", workers=1)
    r4 = screen_all(m, y, method="pearson", workers=4)
    assert r1.ranking == r4.ranking
    assert r1.failures and r1.failures[0][0] == 5
    assert r1.ranking[-1] == (5, -np.inf)
    with pytest.raises(ValueError):
        screen_all(m, y, method="mutualinfo")


def test_screen_all_tie_order():
    # identical columns tie; the ranking breaks ties by ascending index
    y = ResponseVector(np.arange(20.0))
    col = np.arange(20.0)
    m = FeatureMatrix(np.column_stack([col, col, col]))
    rk = screen_all(m, y, method="pearson")
    assert rk.indices() == [0, 1, 2]


def test_selection_auroc():
    truth = np.array([True, True, False, False])
    assert selection_auroc([4, 3, 2, 1], truth) == 1.0
    assert selection_auroc([1, 2, 3, 4], truth) == 0.0
    assert selection_auroc([1, 3, 2, 4], truth) == 0.25
    # ties handled with midranks
    assert selection_auroc([1, 1, 1, 1], truth) == 0.5
    with pytest.raises(ValueError):
        selection_auroc([1, 2], [True, True])


def test_selection_auroc_matches_rankdata_midranks():
    from scipy.stats import rankdata

    rng = np.random.default_rng(14)
    for n in (5, 60, 1000):
        scores = rng.integers(0, 4, size=n).astype(float)   # heavy ties
        scores[: n // 5] = -np.inf                            # failed columns
        truth = rng.random(n) < 0.3
        truth[:2] = (True, False)
        n_pos = truth.sum()
        ranks = rankdata(scores)
        want = (ranks[truth].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * (n - n_pos))
        assert selection_auroc(scores, truth) == want
    assert np.isnan(selection_auroc([1.0, np.nan, 2.0], [True, False, True]))


_PER_PAIR = {"fftkde": mi_fftkde, "binning": mi_binning, "knn": mi_knn,
             "pearson": pearson_abs}


def _scores(ranked):
    out = np.empty(len(ranked.ranking))
    for j, s in ranked.ranking:
        out[j] = s
    return out


@pytest.mark.parametrize("method", sorted(_PER_PAIR))
def test_screen_all_matches_per_pair_function_bitwise(method):
    # the outcome is prepared once per block, yet every score is the one the
    # public per-pair function gives, whatever the worker count
    rng = np.random.default_rng(21)
    m, y = _signal_matrix(rng, n=150, p=9)
    want = np.array([_PER_PAIR[method](m.values[:, j], y.values).value for j in range(m.p)])
    for workers in (1, 2, 4):
        got = _scores(screen_all(m, y, method=method, workers=workers))
        assert got.tobytes() == want.tobytes(), workers


@pytest.mark.parametrize("method", ["fftkde", "pearson"])
def test_constant_column_mid_block_fails_alone(method):
    rng = np.random.default_rng(22)
    m, y = _signal_matrix(rng, n=150, p=9)
    base = _scores(screen_all(m, y, method=method, workers=2))
    vals = m.values.copy()
    vals[:, 2] = 1.5                  # inside the first of two blocks
    ranked = screen_all(FeatureMatrix(vals), y, method=method, workers=2)
    got = _scores(ranked)
    with pytest.raises(ValueError) as exc:
        _PER_PAIR[method](vals[:, 2], y.values)
    assert got[2] == -np.inf
    assert ranked.failures == ((2, str(exc.value)),)
    keep = np.arange(m.p) != 2
    assert got[keep].tobytes() == base[keep].tobytes()


@pytest.mark.parametrize("method, y, message", [
    ("fftkde", np.full(40, 3.0), "constant vector has no bandwidth"),
    ("pearson", np.full(40, 3.0), "constant vector has no correlation"),
    ("binning", np.arange(9.0), "bin_count needs n >= 10"),
    ("knn", np.arange(3.0), "need 1 <= k < n"),
    ("fftkde", np.array([1.0]), "bandwidth needs n >= 2"),
])
def test_bad_outcome_fails_every_column(method, y, message):
    rng = np.random.default_rng(23)
    m = FeatureMatrix(rng.normal(size=(y.size, 5)))
    for workers in (1, 2):
        ranked = screen_all(m, ResponseVector(y), method=method, workers=workers)
        assert ranked.failures == tuple((j, message) for j in range(5))
        assert all(s == -np.inf for _, s in ranked.ranking)
    with pytest.raises(ValueError, match=message):
        _PER_PAIR[method](m.values[:, 0], y)


@pytest.mark.parametrize("method, y, message", [
    ("fftkde", np.full(30, 3.0), r"constant vector has no bandwidth"),
    ("binning", np.r_[np.inf, np.arange(29.0)], r"non-finite values"),
    ("knn", np.arange(3.0), r"need 1 <= k < n"),
    ("pearson", np.full(30, 3.0), r"constant vector has no correlation"),
], ids=["fftkde", "binning", "knn", "pearson"])
def test_outcome_error_comes_before_a_column_error(method, y, message):
    # the outcome is prepared before any column is scored, in screen_all as in
    # the per-pair function, so a bad outcome names every column's failure
    rng = np.random.default_rng(24)
    vals = rng.normal(size=(y.size, 3))
    vals[1, 1] = -np.inf                  # a column that fails on its own too
    ranked = screen_all(FeatureMatrix(vals), ResponseVector(y), method=method)
    for j in range(3):
        with pytest.raises(ValueError) as exc:
            _PER_PAIR[method](vals[:, j], y)
        assert re.fullmatch(message, str(exc.value))
        assert ranked.failures[j] == (j, str(exc.value))
    assert len(ranked.failures) == 3


@pytest.mark.parametrize("where", ["column", "outcome"])
@pytest.mark.parametrize("method", sorted(_PER_PAIR))
def test_non_finite_input_fails_like_any_bad_column(method, where):
    # pearson used to score a NaN or inf column nan with no failure, and the
    # MI methods failed it with their own messages
    rng = np.random.default_rng(26)
    m, y = _signal_matrix(rng, n=150, p=6)
    vals, yv = m.values.copy(), y.values.copy()
    if where == "column":
        vals[4, 1], vals[7, 3], vals[0, 4] = np.nan, np.inf, -np.inf
        bad = (1, 3, 4)
    else:
        yv[5], yv[9] = np.nan, -np.inf
        bad = tuple(range(m.p))
    ranked = screen_all(FeatureMatrix(vals), ResponseVector(yv), method=method)
    assert ranked.failures == tuple((j, "non-finite values") for j in bad)
    got = _scores(ranked)
    assert np.all(got[list(bad)] == -np.inf)
    for j in range(m.p):
        if j in bad:
            with pytest.raises(ValueError, match="^non-finite values$"):
                _PER_PAIR[method](vals[:, j], yv)
        else:
            assert got[j] == _PER_PAIR[method](vals[:, j], yv).value


@pytest.mark.parametrize("workers", [0, -3])
def test_screen_all_rejects_workers_below_one(workers):
    m, y = _signal_matrix(np.random.default_rng(25), n=40, p=3)
    with pytest.raises(ValueError, match=f"^workers must be at least 1, got {workers}$"):
        screen_all(m, y, method="pearson", workers=workers)
