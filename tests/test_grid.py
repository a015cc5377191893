"""The coefficient map behind ``GridFunction``: one array of per-cell cubic
coefficients, read by the evaluation in 1-D and 2-D and by the operator's
near-field models.  scipy's ``CubicSpline`` (along each axis in 2-D) and
FITPACK's interpolating bicubic are the independent references.  Points
located from the geometry (``LocatedPoints``, the grid apply's in-box
points: whole cells and exact in-cell positions) are checked against the
evaluation at the points themselves."""

import itertools

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RectBivariateSpline

import nldp.grid
from nldp.grid import (GridFunction, LocatedPoints, callable_exterior,
                       constant_exterior, dyadic_exterior, edge_positions,
                       edge_shifts, flat_cells, growth_exterior, monomials,
                       ray_prefix)
from nldp.operator import (QuadratureSpec, _directional_model, _exterior_growth,
                           _geometry_1d, _geometry_2d, _plan, _tail_decays,
                           _taylor)
from nldp.params import halfspace_coefficient, model_params
from nldp.quadrature import panel_nodes_weights
from oracles import box_cells, plan_split_brute


def _grid_2d(N, seed=3):
    return GridFunction(n=2, R=1.0, values=np.random.default_rng(seed)
                        .uniform(-0.5, 0.5, (N, N)))


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _in_box(z, R, n):
    """|z|_inf <= R: the interpolant's points, split in floating point."""
    return np.all(np.abs(z) <= R, axis=-1) if n == 2 else np.abs(z) <= R


def _plan_and_points(n, R, N):
    """The grid apply's plan (desk exponents, default quadrature, exterior 0)
    and its in-box points in its entry order, rebuilt from the same geometry:
    per block and sign, the points x + y in the box, stably sorted by node."""
    P = model_params(n=n, s=0.6, t=0.5, p=2.0, q=2.2)
    Q, ext = QuadratureSpec(), constant_exterior(0.0)
    dp, dq = _tail_decays(P, _exterior_growth(ext, R, n))
    X, blocks = (_geometry_1d if n == 1 else _geometry_2d)(
        P, Q, R, N, dp, dq)[:2]
    Z, node = [], []
    for ids, Y, cp, _, _ in blocks():
        for sign in (1.0, -1.0):
            Zc = X[ids][:, None] + sign * Y
            inside = _in_box(Zc, R, n) & (cp > 0)
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


def _horner(u, j, x):
    """The interpolant in cells j (M, n) at offsets x (M, n) into them, by
    a per-point Horner over each cell's coefficients, as ``_cubic`` runs it
    on the cells and offsets it locates."""
    n = u.n
    c = u.coeffs().reshape(4 ** n, -1)
    cell = np.ravel_multi_index(tuple(j.T), (u.N - 1,) * n)
    g = c.take(cell, axis=1).reshape((4,) * n + (-1,))
    for k in reversed(range(n)):
        q = g[..., 0, :]
        for b in (1, 2, 3):
            q = q * x[:, k] + g[..., b, :]
        g = q
    return g


@pytest.mark.parametrize("n, R, N", [(1, 2.0, 513), (2, 1.0, 13)])
def test_located_points_match_direct_evaluation(n, R, N):
    # The grid apply's in-box points (desk grid in 1-D, N = 13 in 2-D),
    # located from the geometry as whole cells and exact in-cell positions.
    # Each entry's cell and position against the point itself (rebuilt as
    # x + y and split at the box in floating point: the same entries): z =
    # x + y rounds to ulp(R), so they agree to 2 ulp(R) / h of a cell.  On
    # smooth values, as an iterate has, the evaluation there agrees with
    # the evaluation at the points, also on the entries in the first and
    # last cell of an axis alone, where the 1-D seam sub-panels lie.  On
    # random values, whose cubic moves by max|u| across a cell, the table
    # product agrees with a per-point Horner at the same cells and offsets.
    u = _smooth(n, R, N)
    plan, Z = _plan_and_points(n, R, N)
    assert plan.points.size == Z.size
    cell, pos = np.divmod(plan.points.index, plan.points.mono.shape[1])
    j = np.stack(np.unravel_index(cell, (N - 1,) * n), axis=-1)
    # the monomial rows linear in one axis, constant in the others: x = t h
    x = plan.points.mono[[sum((2 if b == a else 3) * 4 ** (n - 1 - b)
                              for b in range(n)) for a in range(n)]][:, pos].T
    s = (Z.reshape(-1, n) + R) / u.h
    assert np.max(np.abs(j + x / u.h - s)) <= 2 * np.spacing(R) / u.h
    got, ref = u(plan.points), u(Z)
    assert _rel(got, ref) <= 1e-14
    edge = np.any((j == 0) | (j == N - 2), axis=1)
    assert np.count_nonzero(edge) > 1000
    assert _rel(got[edge], ref[edge]) <= 1e-14
    u = u.with_values(np.random.default_rng(N).uniform(-0.5, 0.5, (N,) * n))
    assert _rel(u(plan.points), _horner(u, j, x)) <= 1e-14


@pytest.mark.parametrize("n, N, positions", [(1, 129, 758), (1, 513, 1724),
                                             (2, 9, 3204), (2, 13, 3540)])
def test_plan_positions(n, N, positions):
    # Bands written before the run, from the geometry's offsets.  2-D: a
    # position per column (sign, direction, radius) that some node sees in
    # the box.  1-D: at most one per (panel length L, GK15 node k) of the
    # panels some node sees in the box, -y folded onto +y; the centres
    # (t = 0 for even L, 0.5 for odd) coincide, so 14 per L plus 2.  The
    # counts, pinned as well, were measured before the test was written.
    R = 2.0 if n == 1 else 1.0
    plan, _ = _plan_and_points(n, R, N)
    P = model_params(n=n, s=0.6, t=0.5, p=2.0, q=2.2)
    X, blocks = (_geometry_1d if n == 1 else _geometry_2d)(
        P, QuadratureSpec(), R, N, 1.0, 1.0)[:2]
    if n == 2:
        columns = sum(np.count_nonzero(np.any(_in_box(X[:, None] + s * Y, R, 2),
                                              axis=0))
                      for _, Y, _, _, _ in blocks() for s in (1.0, -1.0))
        assert columns == positions
    else:
        x01 = panel_nodes_weights(np.array([0.0, 1.0]))[0]
        h = 2.0 * R / (N - 1)
        lengths = set()
        for ids, Y, cp, _, _ in blocks():
            panels = Y[:, :-1].reshape(len(ids), -1, 15)
            L = (panels[..., -1] - panels[..., 0]) / (x01[-1] - x01[0]) / h
            seen = np.any([_in_box(X[ids][:, None, None] + s * panels, R, 1)
                           for s in (1.0, -1.0)], axis=(0, 3))
            seen &= cp[:, :-1].reshape(panels.shape)[..., 0] > 0
            lengths.update(np.rint(L[seen]).astype(int).tolist())
        assert positions <= 14 * len(lengths) + 2
    assert plan.points.mono.shape[1] == positions


@pytest.mark.parametrize("n", [1, 2])
def test_points_on_the_box_edges(n):
    # No entry of the plan lies on the box's edge: the 1-D seams are panel
    # edges and GK15 nodes are interior.  The centres of the 1-D geometry's
    # even-length panels lie on nodes, at t = 0; moved onto node N - 1 of an
    # axis (both, in 2-D), they read cell N - 2 at t = 1, where u(R) reads;
    # onto node 0, cell 0 at t = 0; at any t > 0 of cell N - 1, or in cell
    # -1 or N, they are outside (``box_cells``, the oracle).  The plan's
    # ``flat_cells`` gives the same cells and positions to those inside.
    N, R = 13, 1.0
    P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2)
    t1 = _geometry_1d(P, QuadratureSpec(), R, N, 1.0, 1.0)[2][0]
    assert np.count_nonzero(t1 == 0.0) == 1
    t0 = np.array(list(itertools.product([0.0, t1[-1]], repeat=n))).T
    cells = np.array(list(itertools.product([-1, 0, N - 2, N - 1, N],
                                            repeat=n))).T[:, :, None]
    shape = (cells.shape[1], t0.shape[1])       # every cell, every position
    located = (list(np.broadcast_to(cells, (n,) + shape)),
               np.arange(shape[1]), t0, N)
    inside, cell, pos = box_cells(*located, np.ones(shape, dtype=bool))
    flat, at = flat_cells(*located, inside)
    assert np.array_equal(flat, cell) and np.array_equal(at, pos)
    on = (cells >= 0) & (cells <= N - 2) | (cells == N - 1) & (t0[:, None] == 0)
    assert np.array_equal(inside, np.all(on, axis=0))
    assert np.count_nonzero(inside) == 5 ** n
    u = _smooth(n, R, N)
    nodes = np.linspace(-R, R, N)
    z = (nodes[np.minimum(cells, N - 1)] + t0[:, None] * u.h)[:, inside]
    t = edge_positions(t0)
    got = u(LocatedPoints(n, R, N, (cell * t.shape[1] + pos).astype(np.int32),
                          monomials(t, u.h)))
    assert _rel(got, u(z.T if n == 2 else z[0])) <= 1e-14
    # on node N - 1 of every axis: that node's value, read where locate
    # reads the box's right edge, cell N - 2 at t = 1
    last = np.all(cells == N - 1, axis=0) & np.all(t0 == 0.0, axis=0)
    assert got[last[inside]] == pytest.approx(u.values[(-1,) * n], abs=1e-15)
    j, t = u.locate(np.full((1, n), R))
    assert np.all(j == N - 2) and np.all(t == 1.0)


def test_edge_shifts_follow_box_cells():
    # A point on the box's upper edge of an axis reads cell N - 2 at t = 1
    # (``box_cells``, the oracle, and the plan's ``flat_cells`` alike): its
    # position's shift from the node is one cell less there
    # (``edge_shifts``), so node + shift is its cell at every position.
    N = 5
    t0 = np.array([[0.0, 0.0, 0.25, 0.5], [0.0, 0.75, 0.0, 0.5]])
    shift = np.array([[-2, 1, 3, 0], [4, -1, 0, 2]])
    node = np.indices((N, N)).reshape(2, -1, 1)
    keep = np.ones((N * N, t0.shape[1]), dtype=bool)
    located = (list(node + shift[:, None, :]), np.arange(t0.shape[1]), t0, N)
    inside, cell, pos = box_cells(*located, keep)
    flat, at_pos = flat_cells(*located, inside)
    assert np.array_equal(flat, cell) and np.array_equal(at_pos, pos)
    at = node[:, :, 0][:, np.nonzero(inside)[0]] + edge_shifts(shift)[:, pos]
    assert np.array_equal(cell, at[0] * (N - 1) + at[1])
    assert np.count_nonzero(pos >= t0.shape[1]) == 8   # edge positions read


def test_2d_plan_bytes_per_entry():
    # Per in-box entry the plan keeps its table index and its two weights:
    # 20 bytes, where the points themselves took 16 more; the nodes' entries
    # are given by their offsets.
    plan, Z = _plan_and_points(2, 1.0, 13)
    M = len(Z)
    per_entry = (plan.points.index, plan.wp, plan.wq)
    assert all(len(a) == M for a in per_entry)
    assert sum(a.nbytes for a in per_entry) <= 20 * M
    # nothing else grows with the entries: the monomials are per position
    # (3,540 of them, 1.4 bytes per entry)
    others = [a for a in vars(plan).values() if isinstance(a, np.ndarray)
              and a is not plan.wp and a is not plan.wq]
    assert all(len(a) < M / 10 for a in others)
    assert plan.points.mono.nbytes <= 2 * M


def _recording_exterior(record):
    """A callable exterior that keeps a copy of every argument it sees."""
    def fn(x):
        record.append(np.array(x))
        x = np.asarray(x)
        return np.cos(3.0 * (x if x.ndim == 1 else x[:, 0] - 0.5 * x[:, 1]))
    return callable_exterior(fn)


_EXTERIORS = {"constant": lambda _: constant_exterior(0.25),
              "dyadic": lambda _: dyadic_exterior((0.0, 0.5, 1.0)),
              "growth": lambda _: growth_exterior(0.1),
              "callable": _recording_exterior}


@pytest.mark.parametrize("ext", list(_EXTERIORS))
@pytest.mark.parametrize("n, N", [(1, 3), (1, 4), (1, 5), (1, 9), (1, 33),
                                  (2, 3), (2, 4), (2, 5), (2, 9)])
def test_plan_split_matches_box_cells(n, N, ext):
    # The plan reads each node's in-box entries and the positions they take
    # from where its rays leave the box; ``box_cells`` (the oracle) over
    # every entry of every block splits them the same: the same entries per
    # node, in the same order, at the same cells and positions, and the
    # same exterior groups, whose points reach the exterior in the same
    # order.
    P = model_params(n=n, s=0.6, t=0.5, p=2.0, q=2.2,
                     coefficient=halfspace_coefficient(n, 1.0))
    Q, R = QuadratureSpec(), 2.0 if n == 1 else 1.0
    seen, seen_brute = [], []
    _plan.cache_clear()
    plan = _plan(P, Q, R, N, _EXTERIORS[ext](seen))
    start, index, used, groups = plan_split_brute(
        P, Q, R, N, _EXTERIORS[ext](seen_brute))
    t = (_geometry_1d if n == 1 else _geometry_2d)(P, Q, R, N, 1.0, 1.0)[2]
    assert np.array_equal(plan.start, start)
    assert np.array_equal(plan.points.index, index)
    assert np.array_equal(plan.points.mono,
                          monomials(edge_positions(t)[:, used],
                                    2.0 * R / (N - 1)))
    for got, ref in zip((plan.ext_node, plan.ext_val, plan.ext_wp,
                         plan.ext_wq), groups):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert len(seen) == len(seen_brute)
    assert all(a.shape == b.shape and np.array_equal(a, b)
               for a, b in zip(seen, seen_brute))
    if ext == "callable":
        assert sum(len(a) for a in seen) > len(plan.ext_node) > 0


@pytest.mark.parametrize("d", [(1.0,), (-1.0,), (0.75,), (1.0, 0.0),
                               (0.5, 1.0), (-1.0, 0.5), (1.0, -0.25),
                               (0.0, -1.0), (0.75, 0.75)])
def test_ray_prefix_matches_box_cells(d):
    # Rays r d, r = 0.25, 0.5, ..., 7 cells, of exact binary offsets, with
    # points at t = 0 on whole cells and in cell N - 1, where a point is in
    # the box at t = 0 only (it reads cell N - 2 at t = 1): each node's
    # prefix is the count ``box_cells`` (the oracle) keeps, those are its
    # leading points, and the positions taken, their edge copies included,
    # are those ``box_cells`` gives; ``flat_cells`` on the prefixes gives
    # its cells and positions.
    n, N = len(d), 5
    u = np.arange(1, 29)[None, :] * 0.25 * np.asarray(d)[:, None]
    shift = np.floor(u).astype(np.int32)
    pos, t = np.arange(u.shape[1]), u - shift
    length, taken = ray_prefix(shift, pos, t, N)
    node = np.indices((N,) * n).reshape(n, -1, 1)
    cells = list(node + shift[:, None, :])
    keep = np.ones((N ** n, len(pos)), dtype=bool)
    inside, cell, kept = box_cells(cells, pos, t, N, keep)
    assert np.array_equal(inside, np.arange(len(pos)) < length[:, None])
    flat, at = flat_cells(cells, pos, t, N, inside)
    assert np.array_equal(flat, cell) and np.array_equal(at, kept)
    assert np.array_equal(np.sort(taken), np.unique(kept))
    # some ray's last in-box point lies on the box's upper edge at t = 0,
    # on an axis along which the ray goes up
    last = np.maximum(length - 1, 0)
    up = np.asarray(d) > 0
    on_edge = [(np.take_along_axis(c, last[:, None], 1)[:, 0] == N - 1)
               & (t[a, last] == 0.0) & up[a] & (length < len(pos))
               for a, c in enumerate(np.broadcast_arrays(*cells))]
    assert np.any(on_edge) == bool(np.any(up))
