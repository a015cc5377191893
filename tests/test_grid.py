"""The coefficient map behind ``GridFunction``: one array of per-cell cubic
coefficients, read by the evaluation in 1-D and 2-D and by the operator's
near-field models.  scipy's ``CubicSpline`` (along each axis in 2-D) and
FITPACK's interpolating bicubic are the independent references.  Points
located once (``LocatedPoints``, the grid apply's in-box points) are checked
against the evaluation at the points themselves."""

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RectBivariateSpline

import nldp.grid
from nldp.grid import GridFunction, Locator, constant_exterior, in_box
from nldp.operator import (QuadratureSpec, _directional_model, _exterior_growth,
                           _geometry_1d, _geometry_2d, _plan, _tail_decays,
                           _taylor)
from nldp.params import model_params


def _grid_2d(N, seed=3):
    return GridFunction(n=2, R=1.0, values=np.random.default_rng(seed)
                        .uniform(-0.5, 0.5, (N, N)))


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _plan_and_points(n, R, N):
    """The grid apply's plan (desk exponents, default quadrature, exterior 0)
    and its in-box points in its entry order, rebuilt from the same geometry:
    per block and sign, the points x + y in the box, stably sorted by node."""
    P = model_params(n=n, s=0.6, t=0.5, p=2.0, q=2.2)
    Q, ext = QuadratureSpec(), constant_exterior(0.0)
    dp, dq = _tail_decays(P, _exterior_growth(ext, R, n))
    X, blocks, _ = (_geometry_1d if n == 1 else _geometry_2d)(P, Q, R, N,
                                                               dp, dq)
    Z, node = [], []
    for ids, Y, cp, _ in blocks():
        for sign in (1.0, -1.0):
            Zc = X[ids][:, None] + sign * Y
            inside = in_box(Zc, R, n) & (cp > 0)
            Z.append(Zc[inside])
            node.append(np.broadcast_to(ids[:, None], inside.shape)[inside])
    order = np.argsort(np.concatenate(node), kind="stable")
    return _plan(P, Q, R, N, ext), np.concatenate(Z)[order]


def _smooth(n, R, N):
    """A smooth, non-polynomial grid function on [-R, R]^n."""
    x = np.stack(np.meshgrid(*[np.linspace(-R, R, N)] * n, indexing="ij"), -1)
    return GridFunction(n=n, R=R, values=np.exp(-np.sum((x - 0.3) ** 2, -1))
                        + 0.3 * np.sin(2.0 * x[..., 0] - x[..., -1]))


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
    # holds its output and chunk-sized temporaries, never plan-sized ones;
    # at the located points, its output and the (cells, positions) table.
    u = _grid_2d(13)
    plan, Z = _plan_and_points(2, u.R, u.N)
    table = plan.points.index.max() + 1
    for pts, extra in ((Z, 0), (plan.points, 8 * table)):
        tracemalloc.start()
        try:
            out = u(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + extra + 4 * 2 ** 20, (peak, out.nbytes)


@pytest.mark.parametrize("n, R, N", [(1, 2.0, 513), (2, 1.0, 13)])
def test_located_points_match_direct_evaluation(n, R, N):
    # The grid apply's in-box points (desk grid in 1-D, N = 13 in 2-D),
    # located once and grouped by in-cell position, against the evaluation
    # at the points themselves; then with the box's right edge (t = 1) and
    # the cells at the box edges, where the 1-D seam sub-panels lie, added.
    # In 1-D every position keeps its exact t, so random node values, whose
    # cubic moves by max|u| across a cell, agree to rounding.  In 2-D a
    # position merges t values a few units of 2^-49 apart, and random
    # values agree to about 1e-14 (as u(Z) agrees with the exact point);
    # smooth values, as an iterate has, see the grouping at 1e-15 there.
    u = (GridFunction(n=1, R=R, values=np.random.default_rng(N).uniform(
        -0.5, 0.5, N)) if n == 1 else _smooth(n, R, N))
    plan, Z = _plan_and_points(n, R, N)
    assert plan.points.size == Z.size
    assert _rel(u(plan.points), u(Z)) <= 1e-14
    rng = np.random.default_rng(N)
    edge = R - u.h * np.concatenate([[0.0], rng.uniform(0.0, 1.0, 200)])
    if n == 1:
        extra = np.concatenate([edge, -edge])
    else:
        free = rng.uniform(-R, R, len(edge))
        extra = np.concatenate([np.stack(c, -1) for c in
                                ((edge, free), (free, edge), (edge, edge),
                                 (-edge, free), (free, -edge))])
    pts = np.concatenate([Z, extra])
    loc = Locator(n, R, N)
    loc.observe(pts)
    assert _rel(u(loc.located(loc.codes(pts))), u(pts)) <= 1e-14
    # the right edge is cell N - 2 at t = 1, where its table column is read
    j, t = u.locate(np.full((1, n), R))
    assert np.all(j == N - 2) and np.all(t == 1.0)


def test_2d_plan_bytes_per_entry():
    # Per in-box entry the plan keeps its node, its table index and its two
    # weights: 24 bytes, where the points themselves took 16 more.
    plan, Z = _plan_and_points(2, 1.0, 13)
    M = len(Z)
    per_entry = (plan.node, plan.points.index, plan.wp, plan.wq)
    assert all(len(a) == M for a in per_entry)
    assert sum(a.nbytes for a in per_entry) <= 24 * M
    # nothing else grows with the entries: the monomials are per position
    # (3,540 of them, 1.4 bytes per entry)
    others = [a for a in vars(plan).values() if isinstance(a, np.ndarray)
              and a is not plan.node and a is not plan.wp and a is not plan.wq]
    assert all(len(a) < M / 10 for a in others)
    assert plan.points.mono.nbytes <= 2 * M
