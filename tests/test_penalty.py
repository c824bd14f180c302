import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdsparse.penalty import (
    PenaltySpec,
    h_grad,
    h_value,
    lipschitz_h,
    penalty_value,
    prox_scaled_l1,
)

SCAD = PenaltySpec("scad", 0.5, a=3.7)
MCP = PenaltySpec("mcp", 0.5, gamma=3.0)
L1 = PenaltySpec("l1", 0.5)
SPECS = (SCAD, MCP, L1)


def test_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec("scad", 0.5, a=2.0)
    with pytest.raises(ValueError):
        PenaltySpec("mcp", 0.5, gamma=1.0)
    with pytest.raises(ValueError):
        PenaltySpec("l1", -0.1)
    with pytest.raises(ValueError):
        PenaltySpec("ridge", 0.5)


@pytest.mark.parametrize("kwargs, field", [
    ({"kind": "l1", "lam": np.nan}, "lambda"),
    ({"kind": "scad", "lam": np.inf, "a": 3.7}, "lambda"),
    ({"kind": "scad", "lam": 0.5, "a": np.nan}, "a"),
    ({"kind": "scad", "lam": 0.5, "a": np.inf}, "a"),
    ({"kind": "mcp", "lam": 0.5, "gamma": np.nan}, "gamma"),
    ({"kind": "mcp", "lam": 0.5, "gamma": np.inf}, "gamma"),
])
def test_spec_rejects_non_finite_values(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        PenaltySpec(**kwargs)


def test_config_roundtrip():
    for spec in SPECS:
        assert PenaltySpec.from_config(spec.to_config()) == spec
    assert PenaltySpec.from_config('{"kind":"scad","lambda":0.5,"a":3.7}') == SCAD


def test_penalty_point_values():
    # piecewise evaluations at hand-checked points
    assert penalty_value(SCAD, 0.3) == pytest.approx(0.15, abs=1e-12)
    assert penalty_value(SCAD, 3.0) == pytest.approx((3.7 + 1) * 0.25 / 2, abs=1e-12)
    assert penalty_value(MCP, 2.0) == pytest.approx(3.0 * 0.25 / 2, abs=1e-12)
    for spec in SPECS:
        assert penalty_value(spec, 0.0) == 0.0


def test_penalty_even_and_nonnegative():
    b = np.linspace(-5, 5, 401)
    for spec in SPECS:
        v = penalty_value(spec, b)
        assert np.all(v >= 0)
        assert np.allclose(v, penalty_value(spec, -b))


@given(st.floats(-10, 10))
@settings(max_examples=200, deadline=None)
def test_dc_identity(beta):
    for spec in (SCAD, MCP):
        chi = spec.lam * abs(beta)
        assert abs(chi + h_value(spec, beta) - penalty_value(spec, beta)) <= 1e-12


def test_h_grad_pieces():
    lam, a, gam = 0.5, 3.7, 3.0
    assert h_grad(MCP, 0.7) == pytest.approx(-0.7 / gam)
    assert h_grad(SCAD, 0.2) == 0.0
    assert h_grad(SCAD, 5.0) == pytest.approx(-lam)
    assert h_grad(SCAD, -5.0) == pytest.approx(lam)
    assert np.all(h_grad(L1, np.array([1.0, -2.0])) == 0.0)


def test_h_grad_continuity_at_breakpoints():
    lam, a, gam = 0.5, 3.7, 3.0
    eps = 1e-9
    for spec, pts in ((SCAD, (lam, a * lam)), (MCP, (gam * lam,))):
        for p in pts:
            lo, hi = h_grad(spec, p - eps), h_grad(spec, p + eps)
            assert abs(lo - hi) <= 1e-8


def test_h_grad_finite_difference():
    rng = np.random.default_rng(0)
    lam, a, gam = 0.5, 3.7, 3.0
    breaks = {(id(SCAD)): [lam, a * lam], (id(MCP)): [gam * lam]}
    for spec in (SCAD, MCP):
        pts = rng.uniform(-6, 6, size=1000)
        # keep clear of the kinks where the derivative genuinely jumps slope
        for b in breaks[id(spec)]:
            pts = pts[np.abs(np.abs(pts) - b) > 1e-4]
        fd = (h_value(spec, pts + 1e-6) - h_value(spec, pts - 1e-6)) / 2e-6
        assert np.max(np.abs(h_grad(spec, pts) - fd)) <= 1e-6


@given(st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=200, deadline=None)
def test_h_concavity(x, y):
    for spec in (SCAD, MCP):
        lhs = h_value(spec, y)
        rhs = h_value(spec, x) + h_grad(spec, x) * (y - x)
        assert lhs <= rhs + 1e-10


def test_h_lipschitz_constants():
    assert lipschitz_h(SCAD) == pytest.approx(1 / 2.7)
    assert lipschitz_h(MCP) == pytest.approx(1 / 3.0)
    assert lipschitz_h(L1) == 0.0
    rng = np.random.default_rng(1)
    for spec in (SCAD, MCP):
        u, v = rng.uniform(-5, 5, (2, 500))
        num = np.abs(h_grad(spec, u) - h_grad(spec, v))
        assert np.all(num <= lipschitz_h(spec) * np.abs(u - v) + 1e-12)


def test_unbiasedness_region():
    # flat penalty beyond the clipping point: derivative 0
    for spec, edge in ((SCAD, 3.7 * 0.5), (MCP, 3.0 * 0.5)):
        pts = np.linspace(edge + 0.01, edge + 5, 50)
        fd = (penalty_value(spec, pts + 1e-7) - penalty_value(spec, pts - 1e-7)) / 2e-7
        assert np.max(np.abs(fd)) <= 1e-6


def _prox_bruteforce(x, y, c, lam):
    grid = np.arange(-10, 10, 1e-4)
    vals = y * grid + (grid - x) ** 2 / (2 * c) + lam * np.abs(grid)
    return grid[np.argmin(vals)]


def test_prox_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x, y = rng.uniform(-3, 3, 2)
        c = rng.uniform(0.1, 2.0)
        lam = rng.uniform(0.0, 2.0)
        got = prox_scaled_l1(np.array([x]), np.array([y]), c, lam)[0]
        assert abs(got - _prox_bruteforce(x, y, c, lam)) <= 2e-4


def test_prox_special_cases():
    assert prox_scaled_l1(np.array([1.0]), np.array([0.0]), 0.5, 1.0)[0] == pytest.approx(0.5)
    x, y = np.array([2.0, -1.0]), np.array([0.3, 0.7])
    assert np.allclose(prox_scaled_l1(x, y, 0.4, 0.0), x - 0.4 * y)
    assert prox_scaled_l1(np.array([0.1]), np.array([0.0]), 1.0, 1.0)[0] == 0.0


def test_prox_zero_gradient_is_bitwise_the_plain_step():
    # h_prox passes the scalar 0.0 and skips the subtraction; the result
    # must equal the general path's x - c*0
    rng = np.random.default_rng(4)
    x = rng.normal(size=50)
    x[:3] = (-0.0, 0.0, 0.25)
    for skip in ((), np.array([0, 7])):
        want = prox_scaled_l1(x, np.zeros(50), 0.5, 0.5, skip)
        got = prox_scaled_l1(x, 0.0, 0.5, 0.5, skip)
        assert got.tobytes() == want.tobytes()
    assert x[0] == 0.0 and np.signbit(x[0])     # the input is not modified


def test_prox_skip_set():
    x = np.array([0.1, 0.1])
    y = np.zeros(2)
    out = prox_scaled_l1(x, y, 1.0, 1.0, skip=(0,))
    assert out[0] == 0.1 and out[1] == 0.0


# The piecewise SCAD/MCP formulas the clip-form kernels replaced, kept as the
# reference: h(b) and h'(b), with |b| split at lam and a*lam (SCAD) or gamma*lam.
def _ref_h(spec, b):
    lam, s, b = spec.lam, np.sign(b), np.abs(b)
    if spec.kind == "scad":
        a = spec.a
        mid = (2 * lam * b - b**2 - lam**2) / (2 * (a - 1))
        tail = (a + 1) * lam**2 / 2 - lam * b
        h = np.where(b < lam, 0.0, np.where(b < a * lam, mid, tail))
        g = s * np.where(b < lam, 0.0, np.where(b < a * lam, (lam - b) / (a - 1), -lam))
        return h, g
    gam = spec.gamma
    h = np.where(b < gam * lam, -(b**2) / (2 * gam), gam * lam**2 / 2 - lam * b)
    return h, s * np.where(b < gam * lam, -b / gam, -lam)


@st.composite
def _spec_and_values(draw):
    lam = draw(st.sampled_from([0.0, 1e-3, 0.5, 2.0]) | st.floats(0.0, 10.0))
    kind = draw(st.sampled_from(["scad", "mcp", "l1"]))
    spec = PenaltySpec(kind, lam, a=draw(st.floats(2.01, 10.0)) if kind == "scad" else None,
                       gamma=draw(st.floats(1.01, 10.0)) if kind == "mcp" else None)
    edges = [lam, (spec.a or 0.0) * lam, (spec.gamma or 0.0) * lam, 1e6, 3.7e9]
    special = st.sampled_from([0.0, -0.0] + edges + [-e for e in edges])
    values = st.lists(special | st.floats(-1e12, 1e12), min_size=1, max_size=20)
    return spec, np.asarray(draw(values), dtype=float)


@given(_spec_and_values())
@settings(max_examples=500, deadline=None)
def test_clip_kernels_match_piecewise_reference(case):
    spec, b = case
    tol = 1e-13 * np.maximum(np.maximum(1.0, np.abs(b)), spec.lam**2)
    h, hg, p = h_value(spec, b), h_grad(spec, b), penalty_value(spec, b)
    if spec.kind == "l1":
        # exact zeros, not rounding noise
        assert np.all(h == 0.0) and np.all(hg == 0.0)
        assert np.array_equal(p, spec.lam * np.abs(b))
        return
    ref_h, ref_g = _ref_h(spec, b)
    assert np.all(np.abs(h - ref_h) <= tol)
    assert np.all(np.abs(hg - ref_g) <= 1e-13 * max(1.0, spec.lam))  # |h'| <= lam
    assert np.all(np.abs(p - (spec.lam * np.abs(b) + ref_h)) <= tol)
    assert np.all(np.abs(p - (spec.lam * np.abs(b) + h)) <= tol)
