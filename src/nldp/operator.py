"""Principal-value evaluation of the nonlocal double phase operator.

The operator value at x is

    L u(x) = int [ phi_p(u(x) - u(x+y)) K_sp(x,y)
                   + c_hat a(x,y) phi_q(u(x) - u(x+y)) K_tq(x,y) ] dy

with phi_r(v) = |v|^(r-2) v.  All evaluation happens in the symmetrised
delta form, which pairs +y with -y and cancels the odd part of the
singularity exactly, so no explicit epsilon-exclusion is needed: for a C^2
interpolant the paired integrand is absolutely integrable under the
standing exponent assumptions.

Quadrature is split into a substituted near field (0, rho_near), panel
mid field out to the far radius, and an analytic power-law remainder fed
by the exterior.  ``evaluate`` is the adaptive single-point entry;
``apply_grid`` is the batched evaluator the solver iterates: it runs from a
plan of fixed panels built once per geometry, in 1-D and 2-D alike
(validated against ``evaluate`` in the test suite).  ``energy`` is the same
sweep with |d|^r in place of phi, summed over the nodes on three nested
grids, whose spread is its error estimate and its divergence test.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonIntegrableNearField, TailDivergence, TouchViolation
from .grid import GridFunction, in_box, sample
from .params import CoefficientField, ProblemParams
from .quadrature import (QuadratureSpec, adaptive_quad, geometric_tail_quad,
                         near_singular_quad, panel_nodes_weights,
                         substitution_power)

__all__ = [
    "QuadratureSpec", "delta", "evaluate", "evaluate_truncated",
    "apply_grid", "kernel_mass_matrix", "energy", "near_field_exponent",
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


def _tail_decays(P: ProblemParams, growth_exp: float,
                 lift: float = 0.0) -> tuple[float, float]:
    """Decays sr - growth_exp (r - 1 + lift) of the two phases' remainders
    against an exterior growing like |x|^growth_exp: lift 0 for phi_r(d)
    (the operator), 1 for |d|^r (the energy)."""
    e, m = P.exponents, 1.0 - lift
    dp = e.sp - growth_exp * (e.p - m)
    dq = e.tq - growth_exp * (e.q - m)
    if min(dp, dq) <= 0.0:
        thr = min(e.sp / (e.p - m), e.tq / (e.q - m))
        raise TailDivergence(
            f"exterior growth exponent {growth_exp:.6g} reaches the convergence "
            f"threshold min(sp/(p-{m:g}), tq/(q-{m:g})) = {thr:.6g}")
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
# from the local polynomial of the interpolant (read off its coefficients,
# a fitted 2nd-order model for opaque callables), where the odd part
# cancels analytically.

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


def _directional_model(u, x, d):
    """(b, c) with u(x + r d) ~ u(x) + b r + c r^2 near a single point x:
    read off the coefficients for a grid function, central differences for
    an opaque callable."""
    if isinstance(u, GridFunction):
        j, t = u.locate(np.reshape(x, (-1, 1)))
        b, c = _line(_taylor(u, j, t * u.h), np.reshape(d, (1, -1)))
        return float(b[0, 0]), float(c[0, 0])
    e = 1e-4
    x = np.asarray(x, dtype=float)
    f0 = float(u(x))
    fp = float(u(x + e * d))
    fm = float(u(x - e * d))
    return (fp - fm) / (2 * e), (fp - 2 * f0 + fm) / (2 * e * e)


def _differences(u, x, ux: float, d, r, model, r_switch: float):
    """Offsets r d and the differences u(x) - u(x +- r d) at the radii r:
    formed directly from ``r_switch`` on, from the local model (b, c) of
    ``_directional_model`` below it."""
    offs = np.multiply.outer(r, d)
    dplus = ux - np.asarray(u(x + offs), dtype=float)
    dminus = ux - np.asarray(u(x - offs), dtype=float)
    tiny = r < r_switch
    if np.any(tiny):
        b, c = model
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

class _GluedField:
    """phi inside B_rho(x0), u outside; the viscosity test function."""

    def __init__(self, u: GridFunction, phi_fn, x0, rho):
        self.u = u
        self.phi_fn = phi_fn
        self.x0 = np.asarray(x0, dtype=float)
        self.rho = float(rho)
        self.n = u.n
        self.R = u.R
        self.h = u.h
        self.exterior = u.exterior

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        if self.n == 1:
            inside = np.abs(z - self.x0) < self.rho
        else:
            inside = np.sqrt(np.sum((z - self.x0) ** 2, axis=-1)) < self.rho
        out = np.asarray(self.u(z), dtype=float)
        if np.any(inside):
            out = np.where(inside, np.asarray(self.phi_fn(z), dtype=float), out)
        return out


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


def evaluate(u, x, P: ProblemParams, Q: QuadratureSpec | None = None,
             extra_kinks=()):
    """Operator value at a single interior point, with an error estimate.

    The integral runs along directions d through x, the paired integrand
    at x +- r d times the polar measure r^(n-1): the axis in 1-D,
    ``_POLAR_DIRECTIONS`` Gauss-Legendre angles in 2-D.  Along each one,
    a substituted near field (0, rho_near) at 0.1 tol, adaptive mid-field
    panels out to the far radius at tol, and the geometric tail against the
    kernel envelope at 0.1 tol max(1, |near + mid|).  The breaks of the
    integrand are panel edges: the Taylor switch of the differences, the
    box seams, the jumps of the exterior and ``extra_kinks``.
    Returns ``(value, error_estimate)``.
    """
    Q = Q or QuadratureSpec()
    n = u.n
    x = float(x) if n == 1 else np.asarray(x, dtype=float)
    h, R = u.h, u.R
    rho_near = Q.near_radius(h)
    if np.max(np.abs(x)) > R - rho_near:
        raise ValueError(
            f"evaluation point {x} violates the interior margin {rho_near:.3g}")
    worst = near_field_exponent(P)
    e = P.exponents
    dp, dq = _tail_decays(P, _exterior_growth(u.exterior, R, n))
    r_far = Q.far_radius(R)
    ux = float(u(x))
    # 1-D switches at the kernel exponent 1 + max(sp, tq).  2-D keeps
    # max(sp, tq): at 1 + max(sp, tq) its switch radius is larger, and the
    # quadratic model's truncation error moves the value by more than tol.
    y_poly = _poly_switch_radius(h, Q.tol,
                                 max(e.sp, e.tq) + (1.0 if n == 1 else 0.0))
    shared = ({float(k) for k in extra_kinks}
              | {kh * h for kh in range(int(rho_near / h) + 1, 9)}
              | {rho_near * 2.0 ** j for j in range(1, 30)})
    dirs, weights = (np.ones(1), np.ones(1)) if n == 1 \
        else _polar_dirs(_POLAR_DIRECTIONS)
    total = err = 0.0
    for d, wd in zip(dirs, weights):
        model = _directional_model(u, x, d)

        def paired(r, d=d, model=model):
            offs, dplus, dminus = _differences(u, x, ux, d, r, model, y_poly)
            return _paired(P, x, offs, dplus, dminus) * r ** (n - 1)

        cuts = (shared | set(_box_seams(x, d, R))
                | set(_sphere_crossings(x, d, u.exterior.jump_radii)))
        edges = sorted({rho_near, r_far} | {k for k in cuts
                                            if rho_near < k < r_far})
        vn, en = near_singular_quad(paired, rho_near, worst,
                                    tol=0.1 * Q.tol, breaks=(y_poly,))
        vm, em = adaptive_quad(paired, rho_near, r_far, tol=Q.tol,
                               initial_edges=edges)
        vt, et = geometric_tail_quad(paired, r_far, min(dp, dq),
                                     tol=0.1 * Q.tol * max(1.0, abs(vn + vm)))
        total += wd * (vn + vm + vt)
        err += wd * (en + em + et)
    return float(total), float(err)


def evaluate_truncated(u: GridFunction, phi_fn, x0, rho: float,
                       P: ProblemParams, Q: QuadratureSpec | None = None):
    """Operator applied to the glued function (phi in B_rho(x0), u outside).

    Preconditions: phi touches u at x0 (within 1e-10) and phi >= u on grid
    probes of the ball; violation raises TouchViolation.
    """
    Q = Q or QuadratureSpec()
    x0f = float(x0) if u.n == 1 else np.asarray(x0, dtype=float)
    pu = float(u(x0f))
    pp = float(np.asarray(phi_fn(np.atleast_1d(x0f) if u.n == 1 else x0f)).ravel()[0])
    if abs(pu - pp) > 1e-10:
        raise TouchViolation(f"phi(x0)={pp!r} does not touch u(x0)={pu!r}")
    probes = _ball_probes(u, x0f, rho)
    if len(probes):
        pv = np.asarray(phi_fn(probes), dtype=float)
        uv = np.asarray(u(probes), dtype=float)
        bad = pv < uv - 1e-10
        if np.any(bad):
            where = probes[bad][0]
            raise TouchViolation(f"phi < u - 1e-10 at probe {where!r}")
    glued = _GluedField(u, phi_fn, x0f, rho)
    val, err = evaluate(glued, x0f, P, Q, extra_kinks=(rho,))
    return val, err


def _ball_probes(u: GridFunction, x0, rho):
    if u.n == 1:
        xs = u.nodes
        sel = np.abs(xs - x0) < rho
        extra = x0 + rho * (np.arange(1, 64) / 64.0 * 2.0 - 1.0)
        pts = np.concatenate([xs[sel], extra])
        return pts[np.abs(pts - x0) < rho]
    xs = u.nodes
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    d = np.sqrt(np.sum((pts - x0) ** 2, axis=-1))
    return pts[d < rho]


# --------------------------------------------------------------------------
# The grid apply: one plan of everything that does not depend on the iterate.

@dataclass(frozen=True)
class _Plan:
    """The iterate-independent part of the grid apply, in 1-D and 2-D.

    In-box entries are the offsets whose points the interpolant covers;
    each sweep evaluates it there.  Exterior entries (out-of-box offsets and
    both ends of the analytic remainder) see fixed data, so they are summed
    per (node, exterior value).  The near block keeps a model of the
    interpolant at the nodes: the exact cell cubic in 1-D, the directional
    Taylor model in 2-D.
    """

    node: np.ndarray       # (M,) int32 node of each in-box entry
    Z: np.ndarray          # (M,) or (M, 2) in-box evaluation points
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


def _edges_1d(h: float, R: float, rho_near: float, r_far: float,
              max_panels: int = 300) -> np.ndarray:
    # Whole cells from h to rho_near, knot-aligned geometric panels across
    # the box span, smooth geometric panels far out.
    edges = [h]
    k = 1
    while edges[-1] < rho_near - 1e-12 * h:
        k += 1
        edges.append(k * h)
    # Unit cells to 32h keep panels inside single spline pieces.
    while k < 32 and k * h < 2.0 * R:
        k += 1
        edges.append(k * h)
    # Knot-aligned geometric panels across the remaining box span.
    step = max(1, k)
    while edges[-1] < 2.0 * R + 2.0 * h:
        step = max(step + 1, int(math.ceil(step * 1.3)))
        edges.append(edges[-1] + step * h)
    # Smooth exterior region: plain geometric growth out to the far radius
    # and beyond (the analytic remainder covers the rest).
    while edges[-1] < r_far and len(edges) < max_panels:
        edges.append(edges[-1] * 1.6)
    while edges[-1] < r_far * 2.0 ** 12 and len(edges) < max_panels:
        edges.append(edges[-1] * 2.0)
    return np.asarray(edges)


def _geometry_1d(P, Q, R, N, dp, dq, chunk: int = 16):
    """Offsets of the 1-D apply: the shared panels, cut per node at its two
    seam offsets R -+ x (where x +- y crosses the box edge), so the glued
    function is smooth on every panel; then the remainder end."""
    xs = np.linspace(-R, R, N)
    h = 2.0 * R / (N - 1)
    edges = _edges_1d(h, R, Q.near_radius(h), Q.far_radius(R))
    r_end = edges[-1]

    def blocks():
        for lo in range(0, N, chunk):
            ids = np.arange(lo, min(lo + chunk, N))
            x = xs[ids]
            seams = np.stack([R - x, R + x], axis=-1)
            # A seam on a panel edge (to rounding) or outside the panels cuts
            # nothing: it moves onto the first edge, an empty sub-panel.
            j = np.clip(np.searchsorted(edges, seams), 1, len(edges) - 1)
            cuts = ((seams - edges[j - 1] > 1e-6 * h)
                    & (edges[j] - seams > 1e-6 * h))
            seams = np.where(cuts, seams, edges[0])
            E = np.sort(np.concatenate(
                [np.broadcast_to(edges, (len(ids), len(edges))), seams], axis=1),
                axis=1)
            y, w = panel_nodes_weights(E)
            end = np.full((len(ids), 1), r_end)
            yield (ids, np.concatenate([y, end], axis=1),
                   np.concatenate([w, end / dp], axis=1),
                   np.concatenate([w, end / dq], axis=1))

    y_near, w_near = _near_rule(h, substitution_power(near_field_exponent(P)),
                                [0.0, 0.25, 0.5, 0.75, 1.0])
    return xs, blocks, (np.ones((1, 1)), y_near, y_near[None, :],
                        w_near[None, :])


def _geometry_2d(P, Q, R, N, dp, dq, D: int = 12):
    """Offsets of the 2-D apply: polar radii along D directions, the radii
    below the Taylor switch set apart as the near block."""
    xs = np.linspace(-R, R, N)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
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
    dirs, dw = _polar_dirs(D)
    r_end = edges[-1]
    tiny = rr < _poly_switch_radius(h, Q.tol, max(e.sp, e.tq))
    # Radii past the Taylor switch, then the remainder end; the remainder
    # weighs each phase by its own decay.
    rad = np.append(rr[~tiny], r_end)
    fp = np.append(rr[~tiny] * ww[~tiny], r_end ** 2 / dp)
    fq = np.append(rr[~tiny] * ww[~tiny], r_end ** 2 / dq)
    ids = np.arange(len(pts))
    blocks = [(ids, rad[:, None] * d[None, :], wd * fp, wd * fq)
              for d, wd in zip(dirs, dw)]
    rt = rr[tiny]
    return pts, lambda: blocks, (dirs, rt, rt[None, :, None] * dirs[:, None, :],
                                 dw[:, None] * rt * ww[tiny])


def _group_exterior(node, val, wp, wq):
    """Sum the weights of the entries that share (node, exterior value)."""
    order = np.lexsort((val, node))
    node, val = node[order], val[order]
    new = np.ones(len(node), dtype=bool)
    new[1:] = (node[1:] != node[:-1]) | (val[1:] != val[:-1])
    starts = np.flatnonzero(new)
    return (node[starts], val[starts], np.add.reduceat(wp[order], starts),
            np.add.reduceat(wq[order], starts))


@lru_cache(maxsize=1)
def _plan(P: ProblemParams, Q: QuadratureSpec, R: float, N: int,
          exterior, lift: float = 0.0) -> _Plan:
    """The plan of the grid apply on the N^n grid of [-R, R]^n with this
    exterior, its remainder weighed by the decays of ``_tail_decays`` at
    ``lift`` (0 for the operator, 1 for the energy); cached, because nothing
    in it depends on the iterate.  The cache holds the last plan only: a
    solve's sweeps and its residual checks share it, and it is dropped once
    another geometry is asked for (plans are megabytes, and a problem built
    anew, with new kernel functions, never hits).

    A geometry yields blocks ``(ids, Y, cp, cq)``: nodes, their offsets and
    the radial quadrature factors of the two phases.  Every block is split
    at the box for both signs of the offset; entries of zero weight (the
    empty sub-panels of the 1-D seam cut) are dropped.
    """
    t0 = time.perf_counter()
    n = P.n
    dp, dq = _tail_decays(P, _exterior_growth(exterior, R, n), lift)
    geometry = _geometry_1d if n == 1 else _geometry_2d
    X, blocks, (dirs, near_r, near_offs, near_w) = geometry(P, Q, R, N, dp, dq)
    signs = (1.0, -1.0)
    # Size the in-box arrays first, so they are filled in place.  The 2-D
    # points are column-major: the interpolant reads each coordinate of a
    # chunk in one run, about 5% faster than row-major at N = 9 to 17.
    M = sum(int(np.count_nonzero(in_box(X[ids][:, None] + sign * Y, R, n)
                                 & (cp > 0)))
            for ids, Y, cp, _ in blocks() for sign in signs)
    node = np.empty(M, dtype=np.int32)
    Z = np.empty((M,) + X.shape[1:], order="F")
    wp = np.empty(M)
    wq = np.empty(M)
    groups = []
    at = n_ext = 0
    for ids, Y, cp, cq in blocks():
        Xb = X[ids][:, None]
        shape = (len(ids), cp.shape[-1])
        idb = np.broadcast_to(ids.astype(np.int32)[:, None], shape)
        keep = cp > 0
        ktq = P.Ktq.eval(Xb, Y)
        bp = np.broadcast_to(cp * P.Ksp.eval(Xb, Y), shape)
        for sign in signs:
            y = sign * Y
            bq = np.broadcast_to(cq * P.c_hat * P.a.eval(Xb, y) * ktq, shape)
            Zc = Xb + y
            inside = in_box(Zc, R, n)
            out = ~inside & keep
            inside &= keep
            k = at + int(np.count_nonzero(inside))
            node[at:k], Z[at:k], wp[at:k], wq[at:k] = (
                idb[inside], Zc[inside], bp[inside], bq[inside])
            at = k
            n_ext += int(np.count_nonzero(out))
            groups.append(_group_exterior(idb[out], exterior(Zc[out], n),
                                          bp[out], bq[out]))
    ext = _group_exterior(*(np.concatenate(c) for c in zip(*groups)))
    Xn = X[:, None, None]
    ktq = P.Ktq.eval(Xn, near_offs)
    shape = (len(X),) + near_w.shape
    near_wp = np.broadcast_to(near_w * P.Ksp.eval(Xn, near_offs), shape)
    near_wq = np.stack([np.broadcast_to(near_w * P.c_hat
                                        * P.a.eval(Xn, sign * near_offs) * ktq,
                                        shape) for sign in signs])
    plan = _Plan(node=node, Z=Z, wp=wp, wq=wq, ext_node=ext[0], ext_val=ext[1],
                 ext_wp=ext[2], ext_wq=ext[3], dirs=dirs, near_r=near_r,
                 near_wp=near_wp, near_wq=near_wq)
    logger.debug("%d-D plan: N=%d, %d in-box entries, %d exterior entries "
                 "-> %d groups, %d bytes, %.3f s", n, N, M, n_ext, len(ext[0]),
                 sum(a.nbytes for a in vars(plan).values()),
                 time.perf_counter() - t0)
    return plan


def _sweep(u: GridFunction, plan: _Plan, P: ProblemParams, f):
    """Per-node sums, shaped like ``u.values``, of f(d, p) w_p + f(d, q) w_q
    over the plan's in-box entries, exterior groups and near block, d the
    difference u(x) - u(x + y) of each entry."""
    e = P.exponents
    v = u.values.ravel()
    # The in-box arrays are the size of the plan: work in place and drop
    # each one before the next, so a sweep adds little to peak memory.
    # f may return its argument, so each phase is formed into a new array.
    d = u(plan.Z)
    np.subtract(v[plan.node], d, out=d)
    g = f(d, e.p) * plan.wp
    g += f(d, e.q) * plan.wq
    del d
    out = np.bincount(plan.node, g, minlength=v.size)
    del g
    d = v[plan.ext_node] - plan.ext_val
    out += np.bincount(plan.ext_node,
                       f(d, e.p) * plan.ext_wp + f(d, e.q) * plan.ext_wq,
                       minlength=v.size)
    dpl, dmi = _near(u, plan)
    g = (f(dpl, e.p) + f(dmi, e.p)) * plan.near_wp
    g += f(dpl, e.q) * plan.near_wq[0] + f(dmi, e.q) * plan.near_wq[1]
    out += np.sum(g, axis=(1, 2))
    return out.reshape(u.values.shape)


def apply_grid(u: GridFunction, P: ProblemParams, Q: QuadratureSpec):
    """Evaluate the operator at every grid node, from the plan of (P, Q, box,
    grid, exterior).

    A sweep evaluates the interpolant once at the plan's in-box points,
    applies ``phi`` and reduces per node.  The boundary nodes see the glue
    seam inside their near field and are only approximate; the solver keeps
    them frozen.
    """
    return _sweep(u, _plan(P, Q, u.R, u.N, u.exterior), P, phi)


def energy(u: GridFunction, P: ProblemParams, Q: QuadratureSpec | None = None):
    """Double phase energy over box x R^n, by grid refinement:

        E(u) = int_box int |d|^p K_sp + c_hat a |d|^q K_tq dy dx,

    d = u(x) - u(x+y): the sweep of ``apply_grid`` with |d|^r for phi (its
    remainder decaying like |d|^r), summed with trapezoid node weights, on
    u's grid and on u resampled onto the (N-1)//2+1 and (N-1)//4+1 grids.
    Returns ``(E_h, err, report)`` with err = |E_h - E_2h|.  When that fine
    increment is not below 0.98 times the coarse one |E_2h - E_4h| (and not
    at rounding level), e.g. for jump data with sp >= 1, the value and err
    are +inf and the report has ``diverged`` set and ``offending_scale`` the
    grid spacing h.  The grids nest at spacings h, 2h, 4h with 5 nodes or
    more on the coarsest (on 3, smooth data reads as divergent), so N must
    be 4k + 1 >= 17, else ValueError; an exterior growing like |x|^eta with
    eta >= min(sp/p, tq/q) raises TailDivergence.
    """
    Q = Q or QuadratureSpec()
    if u.N < 17 or (u.N - 1) % 4:
        raise ValueError("energy needs N = 4k + 1 >= 17 nodes per axis for "
                         f"three nested grids, got {u.N}")
    E = []
    for N in (u.N, (u.N - 1) // 2 + 1, (u.N - 1) // 4 + 1):
        v = u if N == u.N else sample(u, u.n, u.R, N, exterior=u.exterior)
        t = _sweep(v, _plan(P, Q, u.R, N, u.exterior, 1.0), P,
                   lambda d, r: np.abs(d) ** r)
        w = np.full(N, v.h)
        w[[0, -1]] *= 0.5
        for _ in range(u.n):  # the trapezoid rule along each axis
            t = w @ t
        E.append(float(t))
    fine, coarse = abs(E[0] - E[1]), abs(E[1] - E[2])
    if fine >= 0.98 * coarse and fine > 1e-12 * abs(E[0]):
        return math.inf, math.inf, {"diverged": True, "offending_scale": u.h}
    return E[0], fine, {"diverged": False, "offending_scale": None}


def _secant(d, r: float):
    """The secant weight (r-1)(|d| + 1e-6)^(r-2) of phi_r at the difference
    d (the relaxed Kacanov weight); exactly 1 at r = 2."""
    return (r - 1.0) * (np.abs(d) + 1e-6) ** (r - 2.0)


def _scatter_add(flat, idx, w):
    """flat[idx] += w with repeated indices summed, over the span of idx."""
    first = idx.min()
    b = np.bincount(idx - first, w)
    flat[first:first + len(b)] += b


def kernel_mass_matrix(u: GridFunction, P: ProblemParams,
                       Q: QuadratureSpec) -> np.ndarray:
    """The (K, K) kernel-mass matrix of the operator at the iterate u,
    K = N^n, read off the plan of ``apply_grid``.

    Each plan weight enters with the secant weight of its phase at its
    difference d: an in-box entry adds c = wp phi'_p(d) + wq phi'_q(d) to its
    node's diagonal and subtracts c times the hat weights of its point from
    the nodes of the cell that holds it (linear in 1-D, bilinear in 2-D).
    An exterior group adds to the diagonal only.  The near block, where the
    pair of differences is -r^2 d^T H d, enters as a centred second
    difference along each grid axis.  So at p = q = 2 with an
    offset-symmetric coefficient, A v is ``apply_grid`` for affine node
    values v.  Positive diagonal, non-positive off-diagonal, row sums the
    exterior mass: an M-matrix.  The solver's step, never its residual.
    """
    plan = _plan(P, Q, u.R, u.N, u.exterior)
    e = P.exponents
    n, N, h = u.n, u.N, u.h
    v = u.values.ravel()
    K = v.size
    A = np.zeros((K, K))
    flat = A.reshape(-1)
    strides = N ** np.arange(n - 1, -1, -1)
    corners = np.indices((2,) * n).reshape(n, -1).T
    # One interpolant call; the gather of the node values and the scatter into
    # A go by chunks, so the build holds one array the size of the plan.
    d = u(plan.Z)
    chunk = 1 << 15
    for lo in range(0, len(d), chunk):
        part = slice(lo, lo + chunk)
        node = plan.node[part].astype(np.intp)
        dc = v[node] - d[part]
        c = plan.wp[part] * _secant(dc, e.p) + plan.wq[part] * _secant(dc, e.q)
        j, t = u.locate(plan.Z[part].reshape(len(dc), n))
        row0 = node * K
        _scatter_add(flat, row0 + node, c)
        for k in corners:
            _scatter_add(flat, row0 + (j + k) @ strides,
                         -c * np.prod(np.where(k, t, 1.0 - t), axis=1))
    del d
    dx = v[plan.ext_node] - plan.ext_val
    flat[::K + 1] += np.bincount(
        plan.ext_node,
        plan.ext_wp * _secant(dx, e.p) + plan.ext_wq * _secant(dx, e.q),
        minlength=K)
    dpl, dmi = _near(u, plan)
    g = (_secant(dpl, e.p) + _secant(dmi, e.p)) * plan.near_wp
    g += (_secant(dpl, e.q) * plan.near_wq[0]
          + _secant(dmi, e.q) * plan.near_wq[1])
    W = 0.5 * np.einsum("idt,t,dk->ik", g, plan.near_r ** 2,
                        plan.dirs ** 2) / (h * h)
    index = np.indices((N,) * n).reshape(n, K)
    for k in range(n):
        rows = np.flatnonzero((index[k] > 0) & (index[k] < N - 1))
        w = W[rows, k]
        A[rows, rows] += 2.0 * w
        A[rows, rows - strides[k]] -= w
        A[rows, rows + strides[k]] -= w
    return A
