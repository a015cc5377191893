"""Principal-value evaluation of the nonlocal double phase operator.

The operator value at x is

    L u(x) = int [ phi_p(u(x) - u(x+y)) K_sp(x,y)
                   + c_hat a(x,y) phi_q(u(x) - u(x+y)) K_tq(x,y) ] dy

with phi_r(v) = |v|^(r-2) v.  All evaluation happens in the symmetrised
delta form, which pairs +y with -y and cancels the odd part of the
singularity exactly, so no explicit epsilon-exclusion is needed: for a C^2
interpolant the paired integrand is absolutely integrable under the
standing exponent assumptions.

Quadrature is split into a substituted near field (0, 4h), panel
mid field out to the far radius, and an analytic power-law remainder fed
by the exterior.  ``evaluate`` is the adaptive single-point entry;
``apply_grid`` is the batched evaluator the solver iterates: it runs from a
plan of fixed panels built once per geometry, in 1-D and 2-D alike
(validated against ``evaluate`` in the test suite).  Its geometry places
each in-box point exactly, as a cell and an in-cell position shared by
offsets whole cells apart (``grid.LocatedPoints``), so a sweep reads the
interpolant from one (cells, positions) table product and one gather per
entry, and the Jacobian scatters onto the same cells and monomials: in 2-D
by one small matrix product per whole-cell shift of the positions, in 1-D
by one bincount per monomial.  Both go through the entries by runs of
whole nodes (``_runs``, from the nodes' entry offsets), so no temporary of
a pass is the size of the plan, and no node's sum depends on the runs.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NldpError, NonIntegrableNearField, TailDivergence
from .grid import (GridFunction, LocatedPoints, coeffs_T, edge_positions,
                   edge_shifts, flat_cells, grid_points, monomials,
                   ray_prefix, shift_groups)
from .params import CoefficientField, ProblemParams
from .quadrature import (QuadratureSpec, adaptive_quad,
                         geometric_tail_quad_rows, near_singular_quad_rows,
                         panel_nodes_weights, substitution_power)

__all__ = [
    "QuadratureSpec", "delta", "evaluate", "apply_grid",
    "kernel_mass_matrix", "near_field_exponent",
]

logger = logging.getLogger(__name__)


def phi(v, r: float):
    """The monotone map |v|^(r-2) v, extended by 0 at v = 0.

    ``r`` may be an array of exponents broadcasting against ``v``.  At
    r = 2 the map is the identity and returns ``v`` itself, not a copy, so
    a caller must not write into the result while it still needs ``v``.
    """
    v = np.asarray(v, dtype=float)
    if np.ndim(r) == 0 and r == 2.0:
        return v
    return np.sign(v) * np.abs(v) ** (r - 1.0)


def delta(u, x, y, r: float, coeff: CoefficientField | None = None):
    """Symmetrised difference quotient delta_r(u, x, y).

    Returns (|u(x)-u(x+y)|^(r-2)(u(x)-u(x+y)) + same at x-y) / 2; when a
    coefficient is supplied the two halves carry a(x, y) and a(x, -y)
    respectively (the q-phase form).
    """
    if r <= 1.0:
        raise ValueError("delta requires exponent r > 1")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ux = u(x)
    plus = phi(ux - u(x + y), r)
    minus = phi(ux - u(x - y), r)
    if coeff is None:
        return 0.5 * (plus + minus)
    return 0.5 * (coeff.eval(x, y) * plus + coeff.eval(x, -y) * minus)


# --------------------------------------------------------------------------
# Near-field integrability bookkeeping.

def near_field_exponent(P: ProblemParams) -> float:
    """Worst radial exponent of the paired near-field integrand (n folded in).

    The paired p-integrand decays like |y|^alpha with alpha = min(p, 2(p-1))
    for a C^2 interpolant; a merely bounded offset-dependent coefficient
    caps the q-phase at alpha = q - 1.
    """
    e = P.exponents
    alpha_p = min(e.p, 2.0 * (e.p - 1.0))
    alpha_q = (e.q - 1.0) if P.a.depends_on_offset else min(e.q, 2.0 * (e.q - 1.0))
    worst = min(alpha_p - e.sp, alpha_q - e.tq) - 1.0
    if worst <= -1.0:
        raise NonIntegrableNearField(
            "near-field integrand not absolutely integrable for these exponents")
    return worst


def _tail_decays(P: ProblemParams, growth_exp: float) -> tuple[float, float]:
    """Decays sr - growth_exp (r - 1) of the two phases' remainders, phi_r(d)
    against an exterior growing like |x|^growth_exp."""
    e = P.exponents
    dp = e.sp - growth_exp * (e.p - 1.0)
    dq = e.tq - growth_exp * (e.q - 1.0)
    if min(dp, dq) <= 0.0:
        thr = min(e.sp / (e.p - 1.0), e.tq / (e.q - 1.0))
        raise TailDivergence(
            f"exterior growth exponent {growth_exp:.6g} reaches the convergence "
            f"threshold min(sp/(p-1), tq/(q-1)) = {thr:.6g}")
    return dp, dq


def _exterior_growth(ext, R: float, n: int) -> float:
    if ext.tag in ("constant", "dyadic"):
        return 0.0
    if ext.tag == "growth":
        return ext.eta
    # Opaque callable: probe dyadic radii and fit the observed growth.
    rr = R * 2.0 ** np.arange(2, 22)
    if n == 1:
        vals = np.maximum(np.abs(ext(rr, 1)), 1e-300)
    else:
        vals = np.maximum(np.abs(ext(np.stack([rr, np.zeros_like(rr)], -1), 2)), 1e-300)
    slope = np.polyfit(np.log(rr), np.log(vals), 1)[0]
    return max(0.0, float(slope))


# --------------------------------------------------------------------------
# Numerically stable near-field differences.
#
# Direct subtraction u(x) - u(x +/- y) loses all significant digits once
# |y| drops below ~1e-8, and the singular kernel amplifies that rounding
# garbage without bound.  Near zero the differences are therefore formed
# from the local polynomial of the interpolant, read off its coefficients,
# where the odd part cancels analytically.

def _poly_switch_radius(h: float, tol: float, max_kernel_exp: float) -> float:
    # Below this offset, rounding noise (~4 eps) integrated against the
    # kernel would exceed a 5% share of the tolerance budget.
    safe = (1e-14 / (0.05 * tol)) ** (1.0 / max(max_kernel_exp, 0.5))
    return min(0.5 * h, max(safe, 1e-12))


def _taylor(u: GridFunction, j, t):
    """Taylor coefficients, (4,)*n + (M,) and highest power first, of the
    interpolant about the points x_j + t (cells j and offsets t, (n, M)
    each): the cell's cubic from ``u.coeffs()`` re-expanded per axis."""
    T = u.coeffs()[(slice(None),) * u.n + tuple(j)]
    for k, tk in enumerate(t):
        a, b, c, d = np.moveaxis(T, k, 0)
        T = np.moveaxis(np.stack([a, 3.0 * a * tk + b,
                                  3.0 * a * tk * tk + 2.0 * b * tk + c,
                                  ((a * tk + b) * tk + c) * tk + d]), 0, k)
    return T


def _line(T, dirs):
    """(b, c), each (M, D): the coefficients of r and r^2 of the Taylor
    polynomials T along the directions ``dirs`` (D, n)."""
    if dirs.shape[1] == 1:
        return T[2][:, None] * dirs[:, 0], T[1][:, None] * dirs[:, 0] ** 2
    d0, d1 = dirs[:, 0], dirs[:, 1]
    return (T[2, 3][:, None] * d0 + T[3, 2][:, None] * d1,
            T[1, 3][:, None] * d0 * d0 + T[2, 2][:, None] * d0 * d1
            + T[3, 1][:, None] * d1 * d1)


def _near(u: GridFunction, plan):
    """(Delta+, Delta-) = u(x_i) - u(x_i +- r d) on the near block, from
    u(x_i +- r d) = v_i +- b r + c r^2 +- d+- r^3 at each node and direction:
    the exact cubics of the cells on either side in 1-D, d+- = 0 in 2-D."""
    i = np.indices((u.N,) * u.n).reshape(u.n, -1)
    T = _taylor(u, np.minimum(i, u.N - 2), np.where(i == u.N - 1, u.h, 0.0))
    b, c = (m[:, :, None] for m in _line(T, plan.dirs))
    dp = dm = 0.0
    if u.n == 1:
        dp, dm = T[0][:, None, None], T[0][np.maximum(i[0] - 1, 0), None, None]
    Y = plan.near_r
    return -(b * Y + c * Y ** 2 + dp * Y ** 3), b * Y - c * Y ** 2 + dm * Y ** 3


def _directional_model(u: GridFunction, pts, dirs):
    """(b, c), each (m, D), with u(x + r d) ~ u(x) + b r + c r^2 near each
    of the points ``pts`` (m, n) along each direction ``dirs`` (D, n),
    read off the interpolant's coefficients."""
    j, t = u.locate(pts.T)
    return _line(_taylor(u, j, t * u.h), dirs)


def _differences(u, x, ux, d, r, model, r_switch: float):
    """Offsets r d and the differences u(x) - u(x +- r d) at the radii r,
    with x, u(x), d (a scalar in 1-D) and the local model (b, c) one each or
    one per radius: formed directly from ``r_switch`` on, from u(x + r d) ~
    u(x) + b r + c r^2 below it."""
    offs = r * d if np.ndim(d) == 0 else r[:, None] * d
    dplus = ux - np.asarray(u(x + offs), dtype=float)
    dminus = ux - np.asarray(u(x - offs), dtype=float)
    tiny = r < r_switch
    if np.any(tiny):
        b, c = (np.broadcast_to(m, r.shape)[tiny] for m in model)
        rt = r[tiny]
        dplus[tiny] = -(b * rt + c * rt * rt)
        dminus[tiny] = b * rt - c * rt * rt
    return offs, dplus, dminus


# --------------------------------------------------------------------------
# The paired integrand.

def _paired(P: ProblemParams, x, y, dplus, dminus):
    """The paired integrand at offsets +y and -y of the points x:

        (phi_p(d+) + phi_p(d-)) K_sp
            + c_hat (a(x, y) phi_q(d+) + a(x, -y) phi_q(d-)) K_tq

    with d+- = u(x) - u(x +- y); x, y and the differences broadcast.
    """
    e = P.exponents
    ksp = P.Ksp.eval(x, y)
    ktq = P.Ktq.eval(x, y)
    ap = P.a.eval(x, y)
    am = P.a.eval(x, -y)
    g = (phi(dplus, e.p) + phi(dminus, e.p)) * ksp
    g += P.c_hat * (ap * phi(dplus, e.q) + am * phi(dminus, e.q)) * ktq
    return g


# --------------------------------------------------------------------------
# Single-point adaptive evaluation.

# Directions of the pointwise integral in 2-D: Gauss-Legendre angles on a
# half turn.
_POLAR_DIRECTIONS = 24


def _polar_dirs(D: int):
    # Gauss-Legendre on [0, pi): the delta pairing covers the other half.
    t, w = np.polynomial.legendre.leggauss(D)
    ang = 0.5 * math.pi * (t + 1.0)
    wts = 0.5 * math.pi * w
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1), wts


def _box_seams(x, d, R: float):
    """Offsets r > 0 where x + r d and x - r d leave the box [-R, R]^n."""
    x, d = np.atleast_1d(x), np.atleast_1d(d)
    with np.errstate(divide="ignore"):
        return [float(np.min((R - np.sign(s * d) * x) / np.abs(d)))
                for s in (1.0, -1.0)]


def _sphere_crossings(x, d, radii):
    """Offsets r > 0 where |x + r d| or |x - r d| (d a unit direction)
    meets one of the radii; a line that misses a sphere adds none."""
    b = float(np.dot(x, d))
    c = float(np.dot(x, x))
    out = []
    for rad in radii:
        disc = b * b - c + rad * rad
        if disc >= 0.0:
            root = math.sqrt(disc)
            out += [r for r in (root - b, -root - b, root + b, b - root)
                    if r > 0.0]
    return out


def evaluate(u: GridFunction, x, P: ProblemParams,
             Q: QuadratureSpec | None = None):
    """Operator value and error estimate at one interior point x (a scalar
    in 1-D, a pair in 2-D), as floats, or at a batch, (m,) in 1-D or (m, 2)
    in 2-D, as (m,) arrays.

    The integral runs along directions d through x, the paired integrand
    at x +- r d times the polar measure r^(n-1): the axis in 1-D,
    ``_POLAR_DIRECTIONS`` Gauss-Legendre angles in 2-D.  Each (point,
    direction) pair is a row: a substituted near field (0, 4h) at 0.1 tol,
    adaptive mid-field panels out to the far radius at tol, and the
    geometric tail against the kernel envelope at 0.1 tol max(1, |near +
    mid|), in one ``near_singular_quad_rows`` call, one ``adaptive_quad``
    call per row and one ``geometric_tail_quad_rows`` call.  A row gives
    what it gives alone and a point sums its directions in order, so no
    value depends on the batch.  The breaks of the integrand are panel
    edges: the Taylor switch of the differences, the box seams and the
    jumps of the exterior.
    """
    Q = Q or QuadratureSpec()
    n, h, R = u.n, u.h, u.R
    pts = np.asarray(x, dtype=float)
    single, pts = pts.ndim == n - 1, pts.reshape(-1, n)
    rho_near = Q.near_radius(h)
    off = np.max(np.abs(pts), axis=1) > R - rho_near
    if np.any(off):
        bad = pts[np.argmax(off)]
        raise ValueError(f"evaluation point {bad[0] if n == 1 else bad} "
                         f"violates the interior margin {rho_near:.3g}")
    worst = near_field_exponent(P)
    e = P.exponents
    dp, dq = _tail_decays(P, _exterior_growth(u.exterior, R, n))
    r_far = Q.far_radius(R)
    # 1-D switches at the kernel exponent 1 + max(sp, tq).  2-D keeps
    # max(sp, tq): at 1 + max(sp, tq) its switch radius is larger, and the
    # quadratic model's truncation error moves the value by more than tol.
    y_poly = _poly_switch_radius(h, Q.tol,
                                 max(e.sp, e.tq) + (1.0 if n == 1 else 0.0))
    dirs, weights = (np.ones((1, 1)), np.ones(1)) if n == 1 \
        else _polar_dirs(_POLAR_DIRECTIONS)
    # Row k is point k // D along direction k % D.
    D, m = len(weights), len(pts)
    if m == 0:
        return np.zeros(0), np.zeros(0)
    b, c = (v.ravel() for v in _directional_model(u, pts, dirs))
    rx, rd = np.repeat(pts, D, axis=0), np.tile(dirs, (m, 1))
    if n == 1:   # the points and directions as scalars
        rx, rd = rx[:, 0], rd[:, 0]
    ux = u(rx)

    def paired(r, k):
        xk, dk = rx[k], 1.0 if n == 1 else rd[k]
        offs, dplus, dminus = _differences(u, xk, ux[k], dk, r, (b[k], c[k]),
                                           y_poly)
        return _paired(P, xk, offs, dplus, dminus) * r ** (n - 1)

    rows = m * D
    vn, en = near_singular_quad_rows(paired, np.full(rows, rho_near), worst,
                                     0.1 * Q.tol, np.full((rows, 1), y_poly))
    shared = ({kh * h for kh in range(int(rho_near / h) + 1, 9)}
              | {rho_near * 2.0 ** j for j in range(1, 30)})
    vm, em = np.empty(rows), np.empty(rows)
    for k in range(rows):
        cuts = (shared | set(_box_seams(rx[k], rd[k], R))
                | set(_sphere_crossings(rx[k], rd[k], u.exterior.jump_radii)))
        edges = sorted({rho_near, r_far} | {y for y in cuts
                                            if rho_near < y < r_far})
        vm[k], em[k] = adaptive_quad(lambda r, k=k: paired(r, k), rho_near,
                                     r_far, tol=Q.tol, initial_edges=edges)
    vt, et = geometric_tail_quad_rows(
        paired, np.full(rows, r_far), min(dp, dq),
        0.1 * Q.tol * np.maximum(1.0, np.abs(vn + vm)))
    parts, total = np.reshape([vn + vm + vt, en + em + et], (2, m, D)), 0.0
    for k, wd in enumerate(weights):
        total += wd * parts[..., k]
    return (float(total[0, 0]), float(total[1, 0])) if single else tuple(total)


# --------------------------------------------------------------------------
# The grid apply: one plan of everything that does not depend on the iterate.

@dataclass(frozen=True)
class _Plan:
    """The iterate-independent part of the grid apply, in 1-D and 2-D.

    In-box entries are the offsets whose points the interpolant covers,
    stably sorted by node, so node k's are the slice [start[k],
    start[k + 1]) and a run of whole nodes is one slice of them;
    the geometry locates the points (``grid.LocatedPoints``), so each sweep
    evaluates the interpolant there as one table product and one gather per
    entry.  Exterior entries
    (out-of-box offsets and both ends of the analytic remainder) see fixed
    data, so they are summed per (node, exterior value).  The near block
    keeps a model of the interpolant at the nodes: the exact cell cubic in
    1-D, the directional Taylor model in 2-D.
    """

    start: np.ndarray      # (K + 1,) offset of each node's in-box entries
    points: LocatedPoints  # the M in-box points: cell and in-cell position
    wp: np.ndarray         # (M,) p-weights w K_sp
    wq: np.ndarray         # (M,) q-weights w c_hat a K_tq
    ext_node: np.ndarray   # (G,) int32 node of each exterior group
    ext_val: np.ndarray    # (G,) exterior value of the group
    ext_wp: np.ndarray     # (G,) summed p-weights
    ext_wq: np.ndarray     # (G,) summed q-weights
    dirs: np.ndarray       # (D, n) directions of the near block
    near_r: np.ndarray     # (T,) radii of the near block
    near_wp: np.ndarray    # (nodes, D, T) p-weights, shared by both signs
    near_wq: np.ndarray    # (2, nodes, D, T) q-weights at +r d and -r d


def _near_rule(h: float, m_sub: int, t_edges):
    """Offsets h t^m and weights on GK15 panels of t over ``t_edges``."""
    t_pts, t_wts = panel_nodes_weights(np.asarray(t_edges, dtype=float))
    return h * t_pts ** m_sub, t_wts * h * m_sub * t_pts ** (m_sub - 1)


_MAX_EDGES_1D = 300      # panel edges of the 1-D apply, at most
_BLOCK_NODES_1D = 16     # nodes per block of the 1-D plan build
_PLAN_DIRECTIONS = 12    # directions of the 2-D apply's offsets


def _edges_1d(near: float, far: float, N: int) -> np.ndarray:
    """Panel edges of the 1-D apply in units of h: unit cells past ``near``
    and to 32 (each panel in one spline piece), knot-aligned geometric
    panels of whole cells across the box span to N + 1, then geometric ones
    out to ``far`` and beyond, where the analytic remainder takes over."""
    edges = [1]
    while edges[-1] < near - 1e-12 or edges[-1] < min(32, N - 1):
        edges.append(edges[-1] + 1)
    step = edges[-1]
    while edges[-1] < N + 1:
        step = max(step + 1, math.ceil(step * 1.3))
        edges.append(edges[-1] + step)
    while edges[-1] < far and len(edges) < _MAX_EDGES_1D:
        edges.append(edges[-1] * 1.6)
    while edges[-1] < far * 2.0 ** 12 and len(edges) < _MAX_EDGES_1D:
        edges.append(edges[-1] * 2.0)
    return np.asarray(edges, dtype=float)


def _geometry_1d(P, Q, R, N, dp, dq):
    """Offsets of the 1-D apply: the shared panels, cut per node at its two
    seam offsets R -+ x (where x +- y crosses the box edge), so the glued
    function is smooth on every panel; then the remainder end.

    Across the box span the panels, seam cuts included, run between whole
    cells (node i's seams are cells N-1-i and i), so the GK15 node k of a
    panel [a, a + L] from node i lies in cell i + a + floor(v), at the
    in-cell position frac(v), v = L x_k with x_k node k of [0, 1]; at -y it
    lies L x_{14-k} past -(a + L), x_{14-k} = 1 - x_k.  Farther panels
    leave the box."""
    xs = grid_points(1, R, N)
    h = 2.0 * R / (N - 1)
    edges = _edges_1d(Q.near_radius(h) / h, Q.far_radius(R) / h, N)
    whole = edges[:np.searchsorted(edges, N + 1) + 1].astype(np.int32)
    # Each node's seams; one on a panel edge or before the panels cuts
    # nothing: it moves onto the first edge, an empty sub-panel.
    i = np.arange(N, dtype=np.int32)
    exits = np.stack([N - 1 - i, i], axis=-1)
    seams = exits.copy()
    seams[np.isin(seams, whole) | (seams < whole[0])] = whole[0]
    E = np.sort(np.concatenate([np.broadcast_to(whole, (N, len(whole))),
                                seams], axis=1), axis=1)
    L = np.diff(E, axis=1)
    v = np.arange(L.max() + 1)[:, None] * panel_nodes_weights(
        np.array([0.0, 1.0]))[0]
    t, pos = np.unique(v - np.floor(v), return_inverse=True)
    pos, whole_v = (pos.reshape(v.shape).astype(np.int32),
                    np.floor(v).astype(np.int32))
    # A ray leaves the box at its seam, a panel edge, and no in-box point
    # lies in cell N - 1 (a GK15 node is interior to its panel): node i's
    # in-box entries are the nodes of its panels that end by its unmoved
    # seam, N - 1 - i at +y and i at -y (one below whole[0] ends none),
    # bar the empty ones, at the positions of their lengths.
    ends = E[:, 1:, None] <= exits[:, None, :]
    runs = ends & (L > 0)[..., None]
    count = 15 * np.count_nonzero(runs, axis=(1, 2))
    lengths = np.zeros(len(pos), dtype=bool)
    lengths[L[np.any(runs, axis=-1)]] = True
    # Per sign: the whole cells and positions of node k of [0, L] (+y) or
    # of 14 - k (-y), the cell each panel starts from, and the prefix.
    sides = [(whole_v, pos, i[:, None] + E[:, :-1]),
             (whole_v[:, ::-1], pos[:, ::-1], i[:, None] - E[:, 1:])]
    prefix = 15 * np.count_nonzero(ends, axis=1)
    used = np.zeros(2 * len(t), dtype=bool)
    used[pos[lengths]] = True
    # The panels past the box span and the remainder end, shared by all.
    y_far, w_far = panel_nodes_weights(edges[len(whole) - 1:] * h)
    far = [np.append(y_far, edges[-1] * h),
           np.append(w_far, edges[-1] * h / dp),
           np.append(w_far, edges[-1] * h / dq)]

    def blocks():
        for lo in range(0, N, _BLOCK_NODES_1D):
            ids = np.arange(lo, min(lo + _BLOCK_NODES_1D, N))
            y, w = panel_nodes_weights(E[ids] * h)
            Y, cp, cq = (np.concatenate(
                [own, np.broadcast_to(f, (len(ids), len(f)))], axis=1)
                for own, f in zip((y, w, w), far))
            Lb, cols = L[ids], (len(ids), -1)
            located = [([(start[ids][..., None] + cells[Lb]).reshape(cols)],
                        at[Lb].reshape(cols), prefix[ids, k])
                       for k, (cells, at, start) in enumerate(sides)]
            yield ids, Y, cp, cq, located

    y_near, w_near = _near_rule(h, substitution_power(near_field_exponent(P)),
                                [0.0, 0.25, 0.5, 0.75, 1.0])
    return xs, blocks, t[None, :], None, (count, used), (
        np.ones((1, 1)), y_near, y_near[None, :], w_near[None, :])


def _geometry_2d(P, Q, R, N, dp, dq):
    """Offsets of the 2-D apply: polar radii along ``_PLAN_DIRECTIONS``
    directions, those below the Taylor switch set apart as the near block.
    A column (sign s, direction d, radius r) lies floor(s r d / h) whole
    cells from every node, at the in-cell position frac(s r d / h): one
    position per column, so the per-position shifts go with the positions
    (for ``grid.shift_groups``)."""
    pts = grid_points(2, R, N).reshape(-1, 2)
    e = P.exponents
    h = 2.0 * R / (N - 1)
    r_near, w_near = _near_rule(h, substitution_power(near_field_exponent(P)),
                                [0.0, 0.5, 1.0])
    r_far = Q.far_radius(R)
    edges = [h]
    while edges[-1] < 8 * h:
        edges.append(edges[-1] + h)
    while edges[-1] < r_far * 2 ** 8 and len(edges) < 140:
        edges.append(edges[-1] * 1.5)
    r_mid, w_mid = panel_nodes_weights(np.asarray(edges))
    rr = np.concatenate([r_near, r_mid])
    ww = np.concatenate([w_near, w_mid])
    dirs, dw = _polar_dirs(_PLAN_DIRECTIONS)
    r_end = edges[-1]
    tiny = rr < _poly_switch_radius(h, Q.tol, max(e.sp, e.tq))
    # Radii past the Taylor switch, then the remainder end; the remainder
    # weighs each phase by its own decay.
    rad = np.append(rr[~tiny], r_end)
    fp = np.append(rr[~tiny] * ww[~tiny], r_end ** 2 / dp)
    fq = np.append(rr[~tiny] * ww[~tiny], r_end ** 2 / dq)
    Y = rad[None, :, None] * dirs[:, None, :]          # (D, radii, 2)
    u = np.stack([Y, -Y]) / h                          # in cells, per sign
    shift = np.floor(u)
    t = (u - shift).reshape(-1, 2).T
    pos = np.arange(t.shape[1], dtype=np.int32).reshape(u.shape[:-1])
    shifts = shift.reshape(-1, 2).T.astype(np.int32)
    shift = np.moveaxis(shift, -1, 2).astype(np.int32)   # (2, D, 2, radii)
    # Past N cells on an axis, a radius leaves the box from every node.
    w = np.count_nonzero(np.max(np.abs(u[0]), axis=-1) < N, axis=-1)
    # Every weight is positive, so a node's in-box entries are its rays'
    # in-box prefixes.
    prefix = np.zeros((2, len(dw), len(pts)), dtype=np.int64)
    used = np.zeros(4 * t.shape[1], dtype=bool)
    for s, k in np.ndindex(2, len(dw)):
        prefix[s, k], taken = ray_prefix(shift[s, k, :, :w[k]],
                                         pos[s, k, :w[k]], t, N)
        used[taken] = True
    ids = np.arange(len(pts))
    cells = np.indices((N, N), dtype=np.int32).reshape(2, -1, 1)

    def blocks():
        for k, wd in enumerate(dw):
            yield (ids, Y[k], wd * fp, wd * fq,
                   [(cells + shift[s, k, :, None, :w[k]], pos[s, k, :w[k]],
                     prefix[s, k]) for s in (0, 1)])

    rt = rr[tiny]
    count = prefix.sum(axis=(0, 1))
    return pts, blocks, t, shifts, (count, used), (dirs, rt,
                                    rt[None, :, None] * dirs[:, None, :],
                                    dw[:, None] * rt * ww[tiny])


def _masked_sum(X, Y, mask):
    """(X + Y)[mask] for a mask over all but the last axis of 2-D points:
    one axis at a time, as one (nodes, offsets, n) mask takes numpy's slow
    path."""
    if X.ndim == mask.ndim:
        return (X + Y)[mask]
    return np.stack([(X[..., a] + Y[..., a])[mask]
                     for a in range(X.shape[-1])], axis=-1)


def _group_exterior(node, val, wp, wq):
    """Sum the weights of the entries that share (node, exterior value)."""
    order = np.lexsort((val, node))
    if np.any(order[1:] < order[:-1]):   # a constant exterior's are in order
        node, val, wp, wq = node[order], val[order], wp[order], wq[order]
    new = np.ones(len(node), dtype=bool)
    new[1:] = (node[1:] != node[:-1]) | (val[1:] != val[:-1])
    starts = np.flatnonzero(new)
    return (node[starts], val[starts], np.add.reduceat(wp, starts),
            np.add.reduceat(wq, starts))


@lru_cache(maxsize=1)
def _plan(P: ProblemParams, Q: QuadratureSpec, R: float, N: int,
          exterior) -> _Plan:
    """The plan of the grid apply on the N^n grid of [-R, R]^n with this
    exterior, its remainder weighed by the decays of ``_tail_decays``;
    cached, because nothing in it depends on the iterate.  The cache holds
    the last plan only: a solve's sweeps and its residual checks share it,
    and it is dropped once another geometry is asked for (plans are
    megabytes, and a problem built anew, with new kernel functions, never
    hits).

    A geometry gives in-cell positions t (n, P), in 2-D their whole-cell
    shifts from the node (None in 1-D), each node's count of in-box entries
    and the positions they take (2^n P flags, the edge copies of
    ``grid.edge_positions`` included), both read from where each ray leaves
    the box, and yields blocks ``(ids, Y, cp, cq, located)``: nodes,
    offsets, the two phases' radial factors and, for +Y and -Y, the points'
    cells per axis, their positions and each node's prefix length.  The box
    is convex and a ray starts at a node, so a node's in-box entries of a
    block and sign are its first ``length``, bar the zero-weight ones (1-D
    empty seam sub-panels), which are dropped; the rest are exterior.  The
    in-box points' cells and positions are ``grid.flat_cells``'; used
    positions are kept, in 2-D grouped by shift for the Jacobian's scatter.
    """
    t0 = time.perf_counter()
    n = P.n
    dp, dq = _tail_decays(P, _exterior_growth(exterior, R, n))
    geometry = _geometry_1d if n == 1 else _geometry_2d
    X, blocks, t, shifts, (count, used), near = geometry(P, Q, R, N, dp, dq)
    dirs, near_r, near_offs, near_w = near
    signs = (1.0, -1.0)
    npos = int(np.count_nonzero(used))
    if (N - 1) ** n * npos >= 2 ** 31:
        raise NldpError(f"{npos} in-cell positions of the N = {N} grid "
                        "overflow an int32 table index")
    renumber = np.cumsum(used) - 1
    start = np.concatenate([[0], np.cumsum(count)])
    M = int(start[-1])
    # One pass fills the arrays in place, each node's entries in one run in
    # the order the blocks yield them.
    fill = start[:-1].copy()              # the next free slot of each node
    index = np.empty(M, dtype=np.int32)
    wp = np.empty(M)
    wq = np.empty(M)
    groups = []
    n_ext = 0
    for ids, Y, cp, cq, located in blocks():
        Xb = X[ids][:, None]
        shape = (len(ids), cp.shape[-1])
        idb = np.broadcast_to(ids.astype(np.int32)[:, None], shape)
        keep = np.broadcast_to(cp > 0, shape)
        ktq = P.Ktq.eval(Xb, Y)
        bp = np.broadcast_to(cp * P.Ksp.eval(Xb, Y), shape)
        column = np.arange(shape[1])
        bq = None
        for sign, (cells, pos, length) in zip(signs, located):
            y = sign * Y
            if bq is None or P.a.depends_on_offset:
                bq = np.broadcast_to(cq * P.c_hat * P.a.eval(Xb, y) * ktq,
                                     shape)
            inside = keep & (column < length[:, None])
            cell, pos = flat_cells(cells, pos, t, N, inside)
            out = ~inside & keep
            per = np.count_nonzero(inside, axis=1)
            to = (np.repeat(fill[ids] - (np.cumsum(per) - per), per)
                  + np.arange(per.sum()))
            fill[ids] += per
            index[to] = cell * npos + renumber[pos]
            wp[to], wq[to] = bp[inside], bq[inside]
            n_ext += int(np.count_nonzero(out))
            groups.append(_group_exterior(idb[out],
                                          exterior(_masked_sum(Xb, y, out), n),
                                          bp[out], bq[out]))
    mono = monomials(edge_positions(t)[:, used], 2.0 * R / (N - 1))
    points = LocatedPoints(n, R, N, index, mono, None if shifts is None else
                           shift_groups(edge_shifts(shifts)[:, used], mono))
    ext = _group_exterior(*(np.concatenate(c) for c in zip(*groups)))
    Xn = X[:, None, None]
    ktq = P.Ktq.eval(Xn, near_offs)
    shape = (len(X),) + near_w.shape
    near_wp = np.broadcast_to(near_w * P.Ksp.eval(Xn, near_offs), shape)
    near_wq = np.stack([np.broadcast_to(near_w * P.c_hat
                                        * P.a.eval(Xn, sign * near_offs) * ktq,
                                        shape) for sign in signs])
    plan = _Plan(start=start, points=points, wp=wp, wq=wq, ext_node=ext[0],
                 ext_val=ext[1], ext_wp=ext[2], ext_wq=ext[3], dirs=dirs,
                 near_r=near_r, near_wp=near_wp, near_wq=near_wq)
    logger.debug("%d-D plan: N=%d, %d in-box entries at %d in-cell positions, "
                 "%d exterior entries -> %d groups, %d bytes, %.3f s", n, N, M,
                 points.mono.shape[1], n_ext, len(ext[0]),
                 sum(a.nbytes for a in vars(plan).values()),
                 time.perf_counter() - t0)
    return plan


# In-box entries per pass: a sweep and the Jacobian work through the plan by
# runs of whole nodes of about this many entries, so that no temporary of a
# pass is the size of the plan.
_CHUNK_ENTRIES = 1 << 16


def _runs(start, ids):
    """Runs [r0, r1) of the nodes ``ids`` (increasing) of a plan whose node
    k's in-box entries are [start[k], start[k + 1]), of about
    ``_CHUNK_ENTRIES`` entries, one node at least, each with the slices of
    its entries, one per stretch of consecutive nodes (the interior part of
    a grid row in 2-D), and the run's row of each of those entries."""
    count = np.diff(start)[ids]
    ends = np.concatenate([[0], np.cumsum(count)])
    r0 = 0
    while r0 < len(ids):
        r1 = max(r0 + 1, int(np.searchsorted(ends, ends[r0] + _CHUNK_ENTRIES,
                                             side="right")) - 1)
        nodes = ids[r0:r1]
        segs = np.split(nodes, np.flatnonzero(np.diff(nodes) != 1) + 1)
        yield (r0, r1, [slice(start[g[0]], start[g[-1] + 1]) for g in segs],
               np.repeat(np.arange(r1 - r0, dtype=np.int32), count[r0:r1]))
        r0 = r1


def _entry_weights(plan: _Plan, P: ProblemParams, f, v, rows, ux, segs):
    """f(d, p) w_p + f(d, q) w_q of the in-box entries of the slices
    ``segs`` in turn, from the values v of a run's nodes, the run's row of
    each entry and ux = ``u(plan.points)``: d = u(x) - u(x + y) is formed in
    place in ux[s] when one slice s holds them all, in a copy otherwise."""
    def entries(a):
        return (a[segs[0]] if len(segs) == 1
                else np.concatenate([a[s] for s in segs]))

    e = P.exponents
    d = entries(ux)
    np.subtract(v[rows], d, out=d)
    return f(d, e.p) * entries(plan.wp) + f(d, e.q) * entries(plan.wq)


def _fixed_weights(u: GridFunction, plan: _Plan, P: ProblemParams, f):
    """f(d, p) w_p + f(d, q) w_q of the exterior groups, (G,), and of the near
    block, (2, nodes, D, T) one per sign of the offset."""
    e = P.exponents
    d = u.values.ravel()[plan.ext_node] - plan.ext_val
    g_ext = f(d, e.p) * plan.ext_wp + f(d, e.q) * plan.ext_wq
    g_near = np.stack([f(d, e.p) * plan.near_wp + f(d, e.q) * wq
                       for d, wq in zip(_near(u, plan), plan.near_wq)])
    return g_ext, g_near


def apply_grid(u: GridFunction, P: ProblemParams, Q: QuadratureSpec):
    """Evaluate the operator at every grid node, from the plan of (P, Q, box,
    grid, exterior).

    A sweep evaluates the interpolant once at the plan's in-box points,
    then, by runs of whole nodes (``_runs``), forms the differences,
    applies ``phi`` and writes each node's sum, one bincount over its own
    entries in order; then it adds the exterior groups and the near block.
    The boundary nodes see the glue seam inside their near field and are
    only approximate; the solver keeps them frozen.
    """
    plan = _plan(P, Q, u.R, u.N, u.exterior)
    v = u.values.ravel()
    ux = u(plan.points)
    out = np.empty(v.size)
    for r0, r1, segs, rows in _runs(plan.start, np.arange(v.size)):
        out[r0:r1] = np.bincount(rows, _entry_weights(plan, P, phi, v[r0:r1],
                                                      rows, ux, segs),
                                 minlength=r1 - r0)
    del ux
    g_ext, g_near = _fixed_weights(u, plan, P, phi)
    out += np.bincount(plan.ext_node, g_ext, minlength=v.size)
    out += np.sum(g_near[0] + g_near[1], axis=(1, 2))
    return out.reshape(u.values.shape)


def _secant(d, r: float):
    """phi'_r at the difference d, regularised at d = 0: (r-1)(|d| + eps_r)^
    (r-2), the relaxed Kacanov weight; exactly 1 at r = 2.  The shift is
    per phase: 1e-12 for r < 2, where phi' is singular at 0 and a larger
    shift, not the operator, would set J on flat data; 1e-6 for r > 2, where
    phi'(0) = 0 and the shift keeps J invertible where the iterate is flat."""
    if r == 2.0:
        return 1.0
    return (r - 1.0) * (np.abs(d) + (1e-12 if r < 2.0 else 1e-6)) ** (r - 2.0)


def _near_rows(plan: _Plan, c_near):
    """The near block's rows in coefficient space: the gradient of its sum of
    c+- d+- with respect to the cell coefficients of ``_taylor`` at each
    interior node (c_near (2, nodes, D, T) of those), (nodes, 4^n), and
    (nodes,) to the cubic one of the 1-D cell on its left.  An interior node
    is its own cell's first corner, so ``_taylor`` re-expands nothing."""
    n = plan.dirs.shape[1]
    S = c_near @ plan.near_r[:, None] ** np.arange(1, 4)   # (2, nodes, D, 3)
    Bb, Bc = _line(np.eye(4 ** n).reshape((4,) * n + (-1,)), plan.dirs)
    g = (S[1, ..., 0] - S[0, ..., 0]) @ Bb.T - (S[0, ..., 1] + S[1, ..., 1]) @ Bc.T
    if n == 1:
        g[:, 0] -= S[0, :, 0, 2]
    return g, S[1, :, 0, 2]


def kernel_mass_matrix(u: GridFunction, P: ProblemParams,
                       Q: QuadratureSpec) -> np.ndarray:
    """J_II, the (K_I, K_I) Jacobian of ``apply_grid`` at the iterate u on
    its K_I = (N - 2)^n interior nodes, in C order, as ``solve`` inverts it
    with the boundary nodes frozen.

    Each difference of the sweep is linear in the node values v through the
    cell coefficients C v of ``u.coeffs()``: an in-box entry's is v_i - B C v,
    B the monomials of its cell at its point, and the near block's b, c and
    d+- are entries of C v.  With c = wp phi'_p(d) + wq phi'_q(d) per entry
    (``_secant``), J = diag(in-box and exterior c) + H C, H holding -c B per
    (node, monomial, cell) and the near rows.  Only the interior nodes'
    entries are read: their c, diagonal and H are formed by runs of
    interior nodes (``_runs``; ``scatter``'s sums do not depend on
    which slices hold a node's entries), and H is contracted with C
    transposed (``grid.coeffs_T``), of whose rows the interior ones are
    kept.  In 2-D ``scatter`` forms H by one product per cell shift of the
    plan's positions (``grid.ShiftGroups``), in 1-D by 16 bincounts.  J_II
    is bit for bit the interior block of the whole J; neither c nor H for
    all nodes nor C is held.  Not an M-matrix: cubic cardinal functions
    have negative lobes.
    """
    t0 = time.perf_counter()
    plan = _plan(P, Q, u.R, u.N, u.exterior)
    n, N, h = u.n, u.N, u.h
    K, cells, m4 = N ** n, (N - 1) ** n, 4 ** n
    interior = (slice(1, N - 1),) * n
    ids = np.arange(K).reshape((N,) * n)[interior].ravel()
    own = np.arange(cells).reshape((N - 1,) * n)[interior].ravel()
    v = u.values.ravel()
    ux = u(plan.points)
    c_ext, c_near = _fixed_weights(u, plan, P, _secant)
    diag_ext = np.bincount(plan.ext_node, c_ext, minlength=K)[ids]
    g_near, g_left = _near_rows(plan, c_near[:, ids])
    J = np.zeros((len(ids), len(ids)))
    scattered = 0
    for r0, r1, segs, rows in _runs(plan.start, ids):
        nb = r1 - r0
        c = _entry_weights(plan, P, _secant, v[ids[r0:r1]], rows, ux, segs)
        scattered += len(c)
        run = np.arange(nb)
        J[r0 + run, r0 + run] = (np.bincount(rows, c, minlength=nb)
                                 + diag_ext[r0:r1])
        H = plan.points.scatter(np.negative(c, out=c), segs, rows,
                                ids[r0:r1]).reshape(m4, cells, nb)
        H[:, own[r0:r1], run] += g_near[r0:r1].T
        if n == 1:
            H[0, own[r0:r1] - 1, run] += g_left[r0:r1]
        J[r0:r1] += coeffs_T(H.reshape((4,) * n + (N - 1,) * n + (nb,)),
                             n, h).reshape(K, nb)[ids].T
    groups = plan.points.groups
    logger.debug("%d-D Jacobian: N=%d, %d interior rows, %d of %d in-box "
                 "entries scattered, %s%.3f s", n, N, len(ids), scattered,
                 plan.start[-1], "" if groups is None
                 else f"{groups.shift.shape[1]} shift groups, ",
                 time.perf_counter() - t0)
    return J
