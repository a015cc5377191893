"""The coefficient map behind ``GridFunction``: one array of per-cell cubic
coefficients, read by the evaluation in 1-D and 2-D and by the operator's
near-field models.  scipy's ``CubicSpline`` (along each axis in 2-D) and
FITPACK's interpolating bicubic are the independent references."""

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RectBivariateSpline

import nldp.grid
from nldp.grid import GridFunction
from nldp.operator import QuadratureSpec, _directional_model, _plan, _taylor
from nldp.params import model_params


def _grid_2d(N, seed=3):
    return GridFunction(n=2, R=1.0, values=np.random.default_rng(seed)
                        .uniform(-0.5, 0.5, (N, N)))


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _assert_rows_match(c, ref):
    """Each coefficient row (power) within 1e-13 of its largest |ref|; a row
    that is zero in exact arithmetic (the cubic term at N = 3) must be
    exactly zero, where scipy leaves rounding noise."""
    rows, refs = c.reshape(len(c), -1), ref.reshape(len(ref), -1)
    for a, (row, want) in enumerate(zip(rows, refs)):
        if not row.any():
            assert np.max(np.abs(want)) <= 1e-14, a
        else:
            assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want)), a


@pytest.mark.parametrize("N", [3, 4, 65, 1025])
def test_1d_coeffs_are_cubic_spline_coeffs(N):
    u = GridFunction(n=1, R=2.0, values=np.random.default_rng(N)
                     .uniform(-0.5, 0.5, N))
    ref = CubicSpline(u.nodes, u.values, bc_type="not-a-knot")
    assert u.coeffs().shape == (4, N - 1)
    _assert_rows_match(u.coeffs(), ref.c)
    assert np.array_equal(u.coeffs()[3], u.values[:-1])
    if N == 3:  # the two not-a-knot conditions coincide: the parabola
        assert not u.coeffs()[0].any()
    x = np.linspace(-2.0, 2.0, 1001)
    assert _rel(u(x), ref(x)) <= 1e-13


@pytest.mark.parametrize("N", [3, 4, 13])
def test_2d_coeffs_are_cubic_spline_coeffs_along_both_axes(N):
    u = _grid_2d(N)
    xs = u.nodes
    along_x = CubicSpline(xs, u.values, bc_type="not-a-knot").c
    ref = CubicSpline(xs, along_x, axis=2, bc_type="not-a-knot").c
    ref = ref.transpose(2, 0, 3, 1)
    assert u.coeffs().shape == (4, 4, N - 1, N - 1)
    _assert_rows_match(u.coeffs().reshape(16, -1), ref.reshape(16, -1))
    if N == 3:
        assert not u.coeffs()[0].any() and not u.coeffs()[:, 0].any()


@pytest.mark.parametrize("n, N", [(1, 3), (1, 17), (2, 3), (2, 9)])
def test_constant_has_exactly_zero_slope_rows(n, N):
    # The map acts on first differences, so a constant gives no rounding
    # noise at all: only the constant term survives.
    u = GridFunction(n=n, R=1.5, values=np.full((N,) * n, 0.3))
    c = u.coeffs().reshape(4 ** n, -1)
    assert np.all(c[-1] == 0.3)
    assert not c[:-1].any()
    x = np.random.default_rng(n).uniform(-1.5, 1.5, (200, n))
    assert np.all(u(x[:, 0] if n == 1 else x) == 0.3)


@pytest.mark.parametrize("N", [4, 9, 13])
def test_2d_matches_fitpack(N):
    u = _grid_2d(N)
    xs = u.nodes
    spl = RectBivariateSpline(xs, xs, u.values, kx=3, ky=3)
    assert u.coeffs().shape == (4, 4, N - 1, N - 1)
    # random points, then every node, the cell edges and the box edges
    rng = np.random.default_rng(N)
    on_edges = np.repeat(np.concatenate([xs, [-1.0, 1.0]]), 50)
    free = rng.uniform(-1.0, 1.0, len(on_edges))
    pts = np.concatenate([
        rng.uniform(-1.0, 1.0, (2000, 2)),
        np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2),
        np.stack([on_edges, free], -1), np.stack([free, on_edges], -1),
    ])
    assert _rel(u(pts), spl.ev(pts[:, 0], pts[:, 1])) <= 1e-13
    # the five derivatives at the nodes, read off the coefficients as the
    # near block of the grid apply reads them
    i = np.indices((N, N)).reshape(2, -1)
    T = _taylor(u, np.minimum(i, N - 2), np.where(i == N - 1, u.h, 0.0))
    px, py = xs[i[0]], xs[i[1]]
    for got, (dx, dy) in ((T[2, 3], (1, 0)), (T[3, 2], (0, 1)),
                          (2 * T[1, 3], (2, 0)), (2 * T[3, 1], (0, 2)),
                          (T[2, 2], (1, 1))):
        assert _rel(got, spl.ev(px, py, dx=dx, dy=dy)) <= 1e-13, (dx, dy)


def test_2d_directional_model_matches_fitpack():
    u = _grid_2d(13)
    spl = RectBivariateSpline(u.nodes, u.nodes, u.values, kx=3, ky=3)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-0.9, 0.9, (20, 2)):
        ang = rng.uniform(0.0, np.pi)
        d = np.array([np.cos(ang), np.sin(ang)])
        g = [spl.ev(*x, dx=dx, dy=dy) for dx, dy in
             ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
        b_ref = g[0] * d[0] + g[1] * d[1]
        c_ref = 0.5 * (g[2] * d[0] ** 2 + 2 * g[3] * d[0] * d[1]
                       + g[4] * d[1] ** 2)
        b, c = _directional_model(u, x, d)
        assert b == pytest.approx(b_ref, rel=1e-12, abs=1e-12)
        assert c == pytest.approx(c_ref, rel=1e-12, abs=1e-11)


def test_2d_three_nodes_reproduce_biquadratics():
    # At N = 3 the not-a-knot cubic is the parabola through the nodes, so
    # every polynomial of degree <= 2 in each variable is reproduced
    # (FITPACK refuses three nodes for a cubic).
    def f(z):
        x, y = z[..., 0], z[..., 1]
        return 1.0 + x - 2.0 * y + 3.0 * x * y + x * x * y - x * y * y

    xs = np.linspace(-1.0, 1.0, 3)
    u = GridFunction(n=2, R=1.0, values=f(np.stack(
        np.meshgrid(xs, xs, indexing="ij"), -1)))
    z = np.random.default_rng(0).uniform(-1.0, 1.0, (500, 2))
    assert np.max(np.abs(u(z) - f(z))) <= 1e-14


def test_2d_chunks_join():
    u = _grid_2d(9)
    chunk = nldp.grid._CHUNK
    z = np.random.default_rng(1).uniform(-1.0, 1.0, (2 * chunk + 17, 2))
    whole = u(z)
    parts = [u(z[lo:lo + chunk]) for lo in range(0, len(z), chunk)]
    assert np.array_equal(whole, np.concatenate(parts))


def test_2d_evaluation_memory():
    # One evaluation over the 329,276 in-box points of the N = 13 plan
    # holds its output and chunk-sized temporaries, never plan-sized ones.
    P = model_params(n=2, s=0.6, t=0.5, p=2.0, q=2.2)
    u = _grid_2d(13)
    Z = _plan(P, QuadratureSpec(), u.R, u.N, u.exterior).Z
    tracemalloc.start()
    try:
        out = u(Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * 2 ** 20, (peak, out.nbytes)
