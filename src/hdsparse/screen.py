"""Univariate association screening: FFT-KDE mutual information, histogram
(binning) MI, KSG k-nearest-neighbor MI, and absolute Pearson correlation,
plus a parallel whole-matrix screener and the selection-AUROC metric.

All MI values are in nats.  The FFT estimator linearly bins the sample onto a
power-of-two grid and convolves with a separable kernel (zero-padded, so no
wrap-around), which is what makes screening thousands of columns tractable.
Separability turns the 2-D convolution into two 1-D passes (Wand 1994): a
sparse product of the binned weights with the banded y-kernel matrix, then an
FFT convolution along x.  Both passes cover only the window of grid nodes the
kernels reach from the binned data, and the density is exactly zero outside
it: the grid pads both axes by the larger bandwidth, so when one bandwidth
dwarfs the other, most of the narrow axis lies beyond its kernel's reach.

Each estimator is split into the outcome's share (its bandwidth and range, bin
count, jittered and sorted copy, or centred copy), prepared once, and the
column's share, run per column.  screen_all prepares the outcome once per
call; each public per-pair function is the same two steps on one pair, so a
bad outcome is reported before a bad column.  Both return the score alone, a
Python float, which is all that screen_all ranks.

Importing this module loads numpy only: the FFTs are numpy's, and the
Toeplitz matrix and FFT length are built here, bitwise as scipy builds them.
scipy.sparse (fftkde's binning) and scipy.spatial and scipy.special (knn) are
imported on first use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .data import FeatureMatrix, ResponseVector

__all__ = [
    "Grid2D",
    "RankedFeatures",
    "silverman_bandwidth",
    "make_grid",
    "fft_kde_2d",
    "mi_fftkde",
    "bin_count",
    "mi_binning",
    "mi_knn",
    "pearson_abs",
    "screen_all",
    "selection_auroc",
]

# the KDE grid's nodes per axis, and how many bandwidths beyond the data it
# reaches on every side
GRID_NODES = 256
PAD_BANDWIDTHS = 3.0
# mi_fftkde's estimator: a Gaussian product kernel with Silverman bandwidths on
# make_grid's GRID_NODES x GRID_NODES grid, summing only the cells where the
# joint and the product of the marginals exceed the floor
KDE_FLOOR = 1e-12
# mi_knn's estimator: Kraskov's k neighbours
KNN_K = 3


@dataclass(frozen=True)
class Grid2D:
    """GRID_NODES equally spaced nodes per axis over [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid bounds must be strictly ordered")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (GRID_NODES - 1)

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / (GRID_NODES - 1)


@dataclass(frozen=True)
class RankedFeatures:
    """(column index, score) pairs, descending score, ties by ascending index."""

    ranking: tuple[tuple[int, float], ...]
    failures: tuple[tuple[int, str], ...] = ()

    def indices(self) -> list[int]:
        return [i for i, _ in self.ranking]


def silverman_bandwidth(x) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5); the workhorse default."""
    x = np.asarray(x, float).ravel()
    n = x.size
    if n < 2:
        raise ValueError("bandwidth needs n >= 2")
    sd = x.std(ddof=1)
    if sd == 0:
        raise ValueError("constant vector has no bandwidth")
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * n ** (-0.2)


def _kernel_1d(offsets: np.ndarray, h: float) -> np.ndarray:
    # the Gaussian kernel with bandwidth h
    u = offsets / h
    return np.exp(-0.5 * u**2) / (np.sqrt(2 * np.pi) * h)


def _kernel_half(h: float, step: float) -> np.ndarray:
    # kernel at offsets 0, step, ..., reach*step: 8 sigma of the tail, capped
    # at the grid's GRID_NODES - 1 steps
    reach = min(GRID_NODES - 1, int(np.ceil(8 * h / step)) + 1)
    return _kernel_1d(np.arange(reach + 1) * step, h)


def toeplitz(c) -> np.ndarray:
    """The symmetric Toeplitz matrix with first column c, equal to
    scipy.linalg.toeplitz(c): a copy of a strided view of (c reversed, c)."""
    c = np.asarray(c, float).ravel()
    vals = np.concatenate((c[:0:-1], c))
    step = vals.strides[0]
    return np.lib.stride_tricks.as_strided(
        vals[c.size - 1:], shape=(c.size, c.size), strides=(-step, step)).copy()


def next_fast_len(target: int) -> int:
    """The least 2^a 3^b 5^c >= target: scipy.fft.next_fast_len(target, real=True)."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def make_grid(x, y, hx: float, hy: float) -> Grid2D:
    """Grid2D's nodes over the data plus PAD_BANDWIDTHS*max(h) per side."""
    pad = PAD_BANDWIDTHS * max(hx, hy)
    return Grid2D(
        float(np.min(x) - pad), float(np.max(x) + pad),
        float(np.min(y) - pad), float(np.max(y) + pad),
    )


def _cloud_in_cell(v, lo: float, step: float):
    # each value's left node, clipped so that its right node is on the grid,
    # and the share of its mass that goes to the right node; int32 nodes are
    # coo_matrix's own index type, so it keeps them without a copy
    f = (v - lo) / step
    i = np.clip(f.astype(np.int32), 0, GRID_NODES - 2)
    return i, f - i


def _linear_bin_2d(ix, wx, iy, wy, shape):
    # cloud-in-cell assignment, as a scipy.sparse COO matrix: each sample
    # spreads over its 4 surrounding nodes; entries that land on the same
    # node are summed by any product
    from scipy.sparse import coo_matrix

    rows = np.concatenate((ix, ix + 1, ix, ix + 1))
    cols = np.concatenate((iy, iy, iy + 1, iy + 1))
    mass = np.concatenate(((1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy))
    return coo_matrix((mass / ix.size, (rows, cols)), shape=shape)


def fft_kde_2d(x, y, hx: float, hy: float, grid: Grid2D) -> np.ndarray:
    """Bivariate Gaussian KDE on the grid via linear binning + separable convolution.

    The product kernel is applied in two 1-D passes: the binned weights (a
    sparse matrix with at most 4n entries) times the banded Toeplitz matrix of
    the y kernel, then an FFT convolution of every column with the x kernel.
    Both passes run only on the window the kernels reach: the rows within
    the x kernel's reach of the occupied x nodes and the columns within the
    y kernel's reach of the occupied y nodes, clipped to the grid.  Every
    node outside the window is exactly 0.0.  Both passes are zero-padded
    (linear) convolutions, so there is no wrap-around, even where the window
    is clipped at a grid edge; tiny negative FFT artifacts are clipped and
    the density renormalized to unit Euler sum.  When the bandwidths are on
    one scale, the window is the whole grid.
    """
    x = np.asarray(x, float).ravel()
    y = np.asarray(y, float).ravel()
    if x.size != y.size or x.size < 2:
        raise ValueError("x and y must share length n >= 2")
    if hx <= 0 or hy <= 0:
        raise ValueError("bandwidths must be positive")
    px, py = PAD_BANDWIDTHS * hx, PAD_BANDWIDTHS * hy
    if (x.min() - px < grid.x_min or x.max() + px > grid.x_max
            or y.min() - py < grid.y_min or y.max() + py > grid.y_max):
        raise ValueError(f"grid does not cover the data plus {PAD_BANDWIDTHS:g} bandwidths")
    kx, ky = _kernel_half(hx, grid.dx), _kernel_half(hy, grid.dy)
    ix, wx = _cloud_in_cell(x, grid.x_min, grid.dx)
    iy, wy = _cloud_in_cell(y, grid.y_min, grid.dy)
    # the window: the occupied nodes [min i, max i + 1] widened by the reach
    r0 = max(int(ix.min()) - (kx.size - 1), 0)
    r1 = min(int(ix.max()) + 1 + kx.size, GRID_NODES)
    c0 = max(int(iy.min()) - (ky.size - 1), 0)
    c1 = min(int(iy.max()) + 1 + ky.size, GRID_NODES)
    m = r1 - r0
    # y pass: row i of the product sums ky(y_node - y_j) over row i's weights;
    # it is stored transposed so that the x pass runs along contiguous rows
    # (an FFT along the strided axis does not scale across threads)
    col = np.zeros(GRID_NODES)
    col[:ky.size] = ky
    binned = _linear_bin_2d(ix - r0, wx, iy, wy, (m, GRID_NODES))   # the window's rows
    smooth_t = (binned @ toeplitz(col)[:, c0:c1]).T.copy()
    # x pass: a circular convolution of length >= m + reach, with the kernel
    # centred on index 0, equals the linear one on the first m nodes
    size = next_fast_len(m + kx.size - 1)
    kc = np.zeros(size)
    kc[:kx.size] = kx
    kc[size - kx.size + 1:] = kx[:0:-1]
    spec = rfft(smooth_t, size)
    spec *= rfft(kc).real                   # an even kernel has a real spectrum
    dens = irfft(spec, size)[:, :m].T
    np.clip(dens, 0.0, None, out=dens)
    total = dens.sum() * grid.dx * grid.dy
    if total <= 0:
        raise ValueError("degenerate density")
    out = np.zeros((GRID_NODES, GRID_NODES))  # C order
    np.divide(dens, total, out=out[r0:r1, c0:c1])
    return out


# Each method's prepared outcome is a plain tuple, built by _prepare_<method>
# and unpacked by the per-column kernel _<method>_column(x, prepared).

def _finite(v) -> np.ndarray:
    # every estimator's input check: a NaN or inf fails the column (or the
    # outcome) with one message, whichever method scores it
    v = np.asarray(v, float).ravel()
    if not np.isfinite(v).all():
        raise ValueError("non-finite values")
    return v


def _prepare_fftkde(y):
    # y, h_y and [min y, max y]: with h_y, all that make_grid reads of y
    y = _finite(y)
    return y, silverman_bandwidth(y), np.array([y.min(), y.max()])


def _nonzero_span(v) -> slice:
    # the indices from v's first nonzero entry to its last
    nz = np.flatnonzero(v)
    return slice(nz[0], nz[-1] + 1)


def _fftkde_column(x, prep) -> float:
    x = _finite(x)
    y, hy, y_range = prep
    hx = silverman_bandwidth(x)
    grid = make_grid(x, y_range, hx, hy)
    pxy = fft_kde_2d(x, y, hx, hy, grid)
    # a row or column with a zero marginal holds no cell above the floor, so
    # the span of the nonzero ones keeps the full grid's cells in C order;
    # the rows outside the span add only zeros to py
    px = pxy.sum(axis=1) * grid.dy
    rows = _nonzero_span(px)
    py = pxy[rows].sum(axis=0) * grid.dx
    cols = _nonzero_span(py)
    pxy, outer = pxy[rows, cols], np.outer(px[rows], py[cols])
    ok = (pxy > KDE_FLOOR) & (outer > KDE_FLOOR)
    p = pxy[ok]
    return float(np.sum(p * np.log(p / outer[ok])) * grid.dx * grid.dy)


def mi_fftkde(x, y) -> float:
    """Plug-in MI in nats from the FFT-KDE joint; marginals are joint sums, so
    the three densities are consistent by construction."""
    return _fftkde_column(x, _prepare_fftkde(y))


def bin_count(x) -> int:
    """Penalized-likelihood choice of the number of equal-width histogram bins.

    Maximizes sum_i N_i ln(D N_i / n) - (D - 1 + (ln D)^2.5) over
    D in [2, ceil(n/ln n)].  The bins are np.histogram's: edges from
    np.linspace over [min, max], every bin half-open except the last.
    """
    x = np.asarray(x, float).ravel()
    n = x.size
    if n < 10:
        raise ValueError("bin_count needs n >= 10")
    lo, hi = x.min(), x.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"autodetected range of [{lo}, {hi}] is not finite")
    if hi == lo:
        warnings.warn("constant vector: one bin", stacklevel=2)
        return 1
    xs = np.sort(x)
    ds = np.arange(2, int(np.ceil(n / np.log(n))) + 1)
    # blocks of about 2^20 edges keep the memory flat for large n
    blocks = np.array_split(ds, 1 + ds.size * (ds[-1] + 1) // 2**20)
    loglik = np.concatenate([_histogram_loglik(xs, lo, hi, b) for b in blocks])
    return int(ds[np.argmax(loglik - (ds - 1 + np.log(ds) ** 2.5))])


def _histogram_loglik(xs, lo, hi, ds) -> np.ndarray:
    # sum_i N_i ln(D N_i / n) over the nonempty bins, for each D in ds, from
    # the sorted sample xs.  Every D's edges are laid end to end and built
    # with np.linspace's arithmetic, lo + k*((hi - lo)/D) with the last edge
    # set to hi, so the counts are np.histogram's.
    n = xs.size
    d_of = np.repeat(ds, ds + 1)
    k = np.arange(d_of.size) - np.repeat(np.cumsum(ds + 1) - (ds + 1), ds + 1)
    edges = lo + k * ((hi - lo) / d_of)
    last = k == d_of
    edges[last] = hi
    below = np.searchsorted(xs, edges)      # samples left of each edge
    below[last] = n                         # the last bin is closed
    inner = ~last[:-1]
    counts = (below[1:] - below[:-1])[inner]
    d = d_of[:-1][inner]
    nz = counts > 0
    counts, d = counts[nz], d[nz]
    return np.bincount(d - ds[0], weights=counts * np.log(d * counts / n), minlength=ds.size)


def _bin_index(v, bins) -> np.ndarray:
    # np.histogram2d's bin of each value: np.histogram's edges, the last bin
    # closed, so a value's bin is the number of inner edges at or below it
    return np.searchsorted(np.histogram_bin_edges(v, bins)[1:-1], v, side="right")


def _prepare_binning(y):
    # the bin of each y value, and y's bin count
    y = _finite(y)
    return _bin_index(y, dy_bins := bin_count(y)), dy_bins


def _binning_column(x, prep) -> float:
    x = _finite(x)
    iy, dy_bins = prep
    dx_bins = bin_count(x)
    joint = np.bincount(_bin_index(x, dx_bins) * dy_bins + iy, minlength=dx_bins * dy_bins)
    pij = joint.reshape(dx_bins, dy_bins) / x.size
    pi = pij.sum(axis=1, keepdims=True)
    pj = pij.sum(axis=0, keepdims=True)
    nz = pij > 0
    return max(float(np.sum(pij[nz] * np.log(pij[nz] / (pi @ pj)[nz]))), 0.0)


def mi_binning(x, y) -> float:
    """Histogram plug-in MI in nats, at least 0, with data-driven equal-width
    bin counts (bin_count)."""
    return _binning_column(x, _prepare_binning(y))


def _dedupe_jitter(v: np.ndarray) -> np.ndarray:
    # deterministic 1e-10-scale perturbation of exact ties so kNN distances
    # are unambiguous
    order = np.argsort(v, kind="stable")
    out = v.copy()
    scale = 1e-10 * max(v.std(), 1.0)
    sorted_v = v[order]
    dup = np.concatenate(([False], sorted_v[1:] == sorted_v[:-1]))
    # position within the run of ties: distance to the run's first element
    pos = np.arange(v.size)
    run = pos - np.maximum.accumulate(np.where(dup, 0, pos))
    out[order] = sorted_v + run * scale
    return out


def _prepare_knn(y):
    # the jittered y and its sorted copy, digamma(k) + digamma(n), and the
    # table digamma(1), ..., digamma(n) that the neighbour counts index
    from scipy.special import digamma

    y = _finite(y)
    n = y.size
    if n <= KNN_K:
        raise ValueError("need 1 <= k < n")
    yj = _dedupe_jitter(y)
    return yj, np.sort(yj), digamma(KNN_K) + digamma(n), digamma(np.arange(1, n + 1))


def _knn_column(x, prep) -> float:
    from scipy.spatial import cKDTree

    yj, ys, psi_kn, psi = prep
    xj = _dedupe_jitter(_finite(x))
    z = np.column_stack([xj, yj])
    tree = cKDTree(z)
    dist, _ = tree.query(z, k=KNN_K + 1, p=np.inf)
    eps = dist[:, -1]
    xs = np.sort(xj)
    # strict counts within the open max-norm ball; they include the point
    # itself, so psi[nx - 1] = digamma(nx) is Kraskov's psi(n_x + 1)
    nx = (np.searchsorted(xs, xj + eps, side="left")
          - np.searchsorted(xs, xj - eps, side="right"))
    ny = (np.searchsorted(ys, yj + eps, side="left")
          - np.searchsorted(ys, yj - eps, side="right"))
    return max(float(psi_kn - np.mean(psi[nx - 1] + psi[ny - 1])), 0.0)


def mi_knn(x, y) -> float:
    """KSG estimator (variant 1) in nats, k = 3, max-norm neighborhoods,
    clamped at 0; needs n > 3."""
    return _knn_column(x, _prepare_knn(y))


def _prepare_pearson(y):
    # the centred y and its norm
    y = _finite(y)
    yc = y - y.mean()
    ny_ = np.linalg.norm(yc)
    if ny_ == 0:
        raise ValueError("constant vector has no correlation")
    return yc, ny_


def _pearson_column(x, prep) -> float:
    x = _finite(x)
    yc, ny_ = prep
    xc = x - x.mean()
    nx_ = np.linalg.norm(xc)
    if nx_ == 0:
        raise ValueError("constant vector has no correlation")
    return min(abs(float(np.dot(xc, yc) / (nx_ * ny_))), 1.0)


def pearson_abs(x, y) -> float:
    """Absolute Pearson correlation, in [0, 1], as a (linear-only) association score."""
    return _pearson_column(x, _prepare_pearson(y))


# per method: the outcome's preparation, and the per-column kernel that
# takes (x, prepared outcome)
_PREPARE = {
    "fftkde": _prepare_fftkde,
    "binning": _prepare_binning,
    "knn": _prepare_knn,
    "pearson": _prepare_pearson,
}
_METHODS = {
    "fftkde": _fftkde_column,
    "binning": _binning_column,
    "knn": _knn_column,
    "pearson": _pearson_column,
}


def screen_all(m: FeatureMatrix, y: ResponseVector, method: str = "fftkde",
               workers: int = 1) -> RankedFeatures:
    """Score every column against the outcome; failed columns get -inf.

    The outcome's share of the estimator is prepared once per call.  With
    workers > 1 the columns split into one contiguous block per worker; the
    threads only read the prepared outcome.  If the outcome cannot be
    prepared, every column fails with the outcome's error, as the per-pair
    function would.  Pure function of the data and method: the worker count
    only affects speed.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown screening method {method!r}")
    if m.n != y.n:
        raise ValueError("feature matrix and response length mismatch")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    column, X = _METHODS[method], m.values

    def score_block(cols):
        results = []
        for j in cols:
            try:
                results.append((column(X[:, j], outcome), None))
            except Exception as exc:  # noqa: BLE001 - per-column failures are data issues
                results.append((-np.inf, str(exc)))
        return results

    try:
        outcome = _PREPARE[method](y.values)
    except Exception as exc:  # noqa: BLE001 - a bad outcome fails every column
        results = [(-np.inf, str(exc))] * m.p
    else:
        if workers > 1:
            # imported here: it loads logging, queue and traceback, which one thread never needs
            from concurrent.futures import ThreadPoolExecutor
            blocks = np.array_split(np.arange(m.p), min(workers, m.p))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = [r for block in pool.map(score_block, blocks) for r in block]
        else:
            results = score_block(range(m.p))
    scores = np.asarray([r[0] for r in results])
    failures = tuple((j, r[1]) for j, r in enumerate(results) if r[1] is not None)
    # descending score, ascending index on ties
    order = np.lexsort((np.arange(m.p), -scores))
    ranking = tuple((int(j), float(scores[j])) for j in order)
    return RankedFeatures(ranking, failures)


def selection_auroc(scores, truth) -> float:
    """AUROC of the score ranking against boolean truth labels (midranks)."""
    scores = np.asarray(scores, float).ravel()
    truth = np.asarray(truth, bool).ravel()
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one true and one false label")
    if np.isnan(scores).any():     # a NaN score has no rank
        return float("nan")
    # midranks: a tie group holding sorted positions s+1 .. e has rank (s+1+e)/2
    ordered = np.sort(scores)
    ranks = (np.searchsorted(ordered, scores, "left")
             + np.searchsorted(ordered, scores, "right") + 1) / 2
    return float((ranks[truth].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))
