"""Independent brute-force oracles for the test suite.

The analytic oracles integrate closed-form integrands with QUADPACK
(scipy.quad), never the production panel machinery, so each DERIVED
expectation is checked through two unrelated quadrature paths.  The
exceptions are ``apply_grid_1d_direct`` and ``apply_grid_2d_direct``, the
direct sums that the planned ``apply_grid`` regroups, kept to check that
regrouping; ``adaptive_quad_depth_first`` and
``geometric_tail_quad_sequential``, the one-panel-per-call loops that the
batched quadrature engine replaced, kept to check that batching;
``term_Ip_signed_per_probe``, ``term_I_abs_per_probe``,
``term_II_per_probe`` and ``term_III_per_probe``, the one-probe-at-a-time
bundle terms that the row-batched selection terms replaced, kept to check
that batching; and ``pv_eval_oneside``, the unsymmetrised integral with an
exclusion ball, kept to check the symmetrisation of ``evaluate``.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import RectBivariateSpline

from nldp.constants import _beta_diff
from nldp.errors import NldpError
from nldp.operator import (QuadratureSpec, _exterior_growth, _paired,
                           _polar_dirs, _poly_switch_radius, _tail_decays,
                           adaptive_quad, geometric_tail_quad,
                           near_field_exponent, panel_nodes_weights, phi)
from nldp.params import ProblemParams, barrier_eval
from nldp.quadrature import _G_IDX, _WG, _WK, _XK, near_singular_quad


def beta(x):
    x = np.asarray(x, dtype=float)
    return np.maximum(0.0, 1.0 - x * x) ** 2


def operator_beta_p2_oracle(x: float, s: float, tol: float = 1e-12) -> float:
    """L beta(x) for n=1, p=2, a=0, Gagliardo kernel: full symmetrised
    integral of (beta(x) - (beta(x+y)+beta(x-y))/2) |y|^(-1-2s)."""

    def g(y):
        return (float(beta(x)) - 0.5 * (float(beta(x + y)) + float(beta(x - y)))) \
            * y ** (-1.0 - 2.0 * s)

    kinks = sorted({abs(1.0 - x), 1.0 + abs(x), 2.0})
    total = 0.0
    lo = 0.0
    for hi in kinks:
        if hi > lo:
            total += quad(g, lo, hi, limit=400, points=None)[0]
            lo = hi
    total += quad(g, lo, np.inf, limit=400)[0]
    return 2.0 * total


def sigma_oracle(eta: float, s: float, t: float, p: float, q: float,
                 omega_n: float = 2.0) -> float:
    """Radial brute-force of the source-smallness threshold integral.

    The algebraic tail is integrated under r = 8 exp(v), which QUADPACK
    handles robustly even when the residual decay exponent is small.  For
    each phase (r_exp, k) = (p - 1, sp) or (q - 1, tq) the transformed
    integrand is formed in log space: with w = eta (ln 64 + v),

        ((8r)^eta - 1)^r_exp r^(-k) = exp(r_exp w - k (ln 8 + v)) (1 - e^(-w))^r_exp.

    QUADPACK samples v far out on the infinite interval, where exp(v)
    overflows and the direct form turns into inf * 0 = NaN.  The net
    exponent eta r_exp - k is negative for every admissible eta, so the
    log-space form underflows to 0 there instead.
    """
    total = 0.0
    for (r_exp, kexp) in ((p - 1.0, s * p), (q - 1.0, t * q)):
        def f(r):
            return ((8.0 * r) ** eta - 1.0) ** r_exp * r ** (-1.0 - kexp)

        def f_log(v):
            w = eta * (np.log(64.0) + v)
            return (np.exp(r_exp * w - kexp * (np.log(8.0) + v))
                    * (-np.expm1(-w)) ** r_exp)

        total += quad(f, 0.25, 8.0, limit=400)[0]
        total += quad(f_log, 0.0, np.inf, limit=400)[0]
    return 2.0 ** (q - 1.0) * omega_n * total


def energy_beta_oracle(s: float, n_outer: int = 801, R: float = 2.0,
                       exterior=None) -> float:
    """Tensor-grid oracle for the (s,2) energy of beta on [-R, R] glued to
    ``exterior`` (0 when None) outside it: outer midpoint grid at (at least)
    4x production resolution, inner QUADPACK sweeps split at the support
    kinks and the box seams."""
    xs = (np.arange(n_outer) + 0.5) / n_outer * 2.0 * R - R
    hx = 2.0 * R / n_outer

    def glued(z):
        if abs(z) <= R or exterior is None:
            return float(beta(z))
        return float(exterior(z))

    total = 0.0
    for x in xs:
        bx = float(beta(x))

        def g(y):
            d = bx - glued(x + y)
            return d * d * abs(y) ** (-1.0 - 2.0 * s)

        kinks = sorted({abs(-1.0 - x), abs(1.0 - x), R - x, R + x} - {0.0})
        acc = 0.0
        for sgn in (1.0, -1.0):
            lo = 0.0
            for hi in [k for k in kinks if k > 0] + [4.0]:
                if hi > lo:
                    acc += quad(lambda yy: g(sgn * yy), lo, hi, limit=200)[0]
                    lo = hi
            acc += quad(lambda yy: g(sgn * yy), lo, np.inf, limit=200)[0]
        total += acc * hx
    return total


def truncated_touch_oracle(s: float) -> float:
    """Oracle for the barrier touched at 0 by (1 - |x|^2)^2 glued over
    B_1/2: the glued function is the barrier itself, so the value is the
    p=2 operator at the origin."""
    return operator_beta_p2_oracle(0.0, s)


def pv_eval_oneside(u, x, P, eps: float, Q=None):
    """One-sided PV evaluation with an explicit eps-exclusion ball.

    Integrates the raw (unsymmetrised) integrand over eps < |y| < R_far plus
    the analytic tail, through the production quadrature engines: the
    symmetrisation-consistency check compares it with the delta form that
    ``evaluate`` uses.
    """
    Q = Q or QuadratureSpec()
    if u.n != 1:
        raise NldpError("one-sided PV check is 1-D only")
    x = float(x)
    e = P.exponents

    def raw(yv):
        yv = np.asarray(yv, dtype=float)
        ksp = P.Ksp.eval(x, yv)
        ktq = P.Ktq.eval(x, yv)
        a = P.a.eval(x, yv)
        ux = u(x)
        d = ux - u(x + yv)
        return phi(d, e.p) * ksp + P.c_hat * a * phi(d, e.q) * ktq

    r_far = Q.far_radius(u.R)
    sides = [lambda yv, s=sgn: raw(s * np.asarray(yv)) for sgn in (+1.0, -1.0)]
    edges = sorted({eps, u.R - x, u.R + x, r_far} | {eps * 2.0 ** j for j in range(1, 40)})
    edges = [t for t in edges if eps <= t <= r_far]
    total, err = 0.0, 0.0
    for side in sides:
        v, er = adaptive_quad(side, eps, r_far, tol=Q.tol, initial_edges=edges)
        total += v
        err += er
    dp, dq = _tail_decays(P, _exterior_growth(u.exterior, u.R, u.n))
    for side in sides:
        v, er = geometric_tail_quad(side, r_far, min(dp, dq),
                                    tol=0.1 * Q.tol * max(1.0, abs(total)),
                                    max_panels=120)
        total += v
        err += er
    return total, err


def apply_grid_1d_direct(u, P, Q):
    """The 1-D grid apply as a direct sum, node by node: the shared panels
    with each panel that straddles a seam offset R -+ x split once there,
    u at x +- y, the paired integrand, the cell-cubic near block on (0, h)
    and the analytic remainder at both ends."""
    x, v, h, R = u.nodes, u.values, u.h, u.R
    worst = near_field_exponent(P)
    m_sub = int(np.clip(math.ceil(3.0 / (1.0 + worst)), 4, 48))
    t_pts, t_wts = panel_nodes_weights(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    y_near = h * t_pts ** m_sub
    w_near = t_wts * h * m_sub * t_pts ** (m_sub - 1)
    rho_near, r_far = Q.near_radius(h), Q.far_radius(R)
    edges = [h]
    k = 1
    while edges[-1] < rho_near - 1e-12 * h:
        k += 1
        edges.append(k * h)
    while k < 32 and k * h < 2.0 * R:
        k += 1
        edges.append(k * h)
    step = max(1, k)
    while edges[-1] < 2.0 * R + 2.0 * h:
        step = max(step + 1, int(math.ceil(step * 1.3)))
        edges.append(edges[-1] + step * h)
    while edges[-1] < r_far and len(edges) < 300:
        edges.append(edges[-1] * 1.6)
    while edges[-1] < r_far * 2.0 ** 12 and len(edges) < 300:
        edges.append(edges[-1] * 2.0)
    r_end = edges[-1]
    panels = list(zip(edges[:-1], edges[1:]))
    dp, dq = _tail_decays(P, _exterior_growth(u.exterior, R, 1))
    e = P.exponents
    cc = u.coeffs()
    out = np.empty(len(x))
    for i, (xi, vi) in enumerate(zip(x, v)):
        # the cubic of the cell right of x_i for +y, left of it for -y
        right = cc[:, min(i, len(x) - 2)]
        left = cc[:, max(i - 1, 0)]
        if i == len(x) - 1:  # the last cell's cubic re-expanded at x_i
            b = 3.0 * right[0] * h * h + 2.0 * right[1] * h + right[2]
            c = 3.0 * right[0] * h + right[1]
        else:
            b, c = right[2], right[1]
        dpl = -(b * y_near + c * y_near ** 2 + right[0] * y_near ** 3)
        dmi = b * y_near - c * y_near ** 2 + left[0] * y_near ** 3
        total = _paired(P, xi, y_near, dpl, dmi) @ w_near
        cuts = {s for s in (R - xi, R + xi)
                for lo, hi in panels if lo + 1e-6 * h < s < hi - 1e-6 * h}
        y, w = panel_nodes_weights(np.array(sorted(set(edges) | cuts)))
        total += _paired(P, xi, y, vi - u(xi + y), vi - u(xi - y)) @ w
        for sign in (1.0, -1.0):
            d = vi - u.exterior(np.array([xi + sign * r_end]), 1)[0]
            y_end = sign * r_end
            total += (phi(d, e.p) * P.Ksp.eval(xi, y_end) * r_end / dp
                      + P.c_hat * P.a.eval(xi, y_end) * phi(d, e.q)
                      * P.Ktq.eval(xi, y_end) * r_end / dq)
        out[i] = total
    return out


def apply_grid_2d_direct(u, P, Q, D: int = 12):
    """The 2-D grid apply as a direct sum: per direction, u at every offset
    point of every node, the paired integrand, the Taylor model of a FITPACK
    bicubic through the node values below the switch radius, and the
    analytic remainder at both ends (with the coefficient a(x, +r_end d) on
    both)."""
    xs = u.nodes
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    vals = u.values.ravel()
    e = P.exponents
    worst = near_field_exponent(P)
    m_sub = int(np.clip(math.ceil(3.0 / (1.0 + worst)), 4, 48))
    h = u.h
    t_pts, t_wts = panel_nodes_weights(np.array([0.0, 0.5, 1.0]))
    r_near = h * t_pts ** m_sub
    w_near = t_wts * h * m_sub * t_pts ** (m_sub - 1)
    r_far = Q.far_radius(u.R)
    edges = [h]
    while edges[-1] < 8 * h:
        edges.append(edges[-1] + h)
    while edges[-1] < r_far * 2 ** 8 and len(edges) < 140:
        edges.append(edges[-1] * 1.5)
    r_mid, w_mid = panel_nodes_weights(np.asarray(edges))
    rr = np.concatenate([r_near, r_mid])
    ww = np.concatenate([w_near, w_mid])
    dirs, dw = _polar_dirs(D)
    growth = _exterior_growth(u.exterior, u.R, u.n)
    dp, dq = _tail_decays(P, growth)
    out = np.zeros(len(pts))
    r_end = edges[-1]
    y_poly = _poly_switch_radius(h, Q.tol, max(e.sp, e.tq))
    # FITPACK's interpolating bicubic, independent of the grid's own
    # coefficient map.
    spl = RectBivariateSpline(xs, xs, u.values, kx=3, ky=3)
    gx1 = spl.ev(pts[:, 0], pts[:, 1], dx=1)
    gy1 = spl.ev(pts[:, 0], pts[:, 1], dy=1)
    hxx = spl.ev(pts[:, 0], pts[:, 1], dx=2)
    hyy = spl.ev(pts[:, 0], pts[:, 1], dy=2)
    hxy = spl.ev(pts[:, 0], pts[:, 1], dx=1, dy=1)
    tiny = rr < y_poly
    for d, wd in zip(dirs, dw):
        offs = rr[:, None] * d[None, :]
        Zp = pts[:, None, :] + offs[None, :, :]
        Zm = pts[:, None, :] - offs[None, :, :]
        Up = u(Zp)
        Um = u(Zm)
        dpl = vals[:, None] - Up
        dmi = vals[:, None] - Um
        if np.any(tiny):
            bdir = gx1 * d[0] + gy1 * d[1]
            cdir = 0.5 * (hxx * d[0] ** 2 + 2 * hxy * d[0] * d[1] + hyy * d[1] ** 2)
            rt = rr[tiny][None, :]
            dpl[:, tiny] = -(bdir[:, None] * rt + cdir[:, None] * rt * rt)
            dmi[:, tiny] = bdir[:, None] * rt - cdir[:, None] * rt * rt
        rows = _paired(P, pts[:, None, :], offs[None, :, :], dpl, dmi)
        out += wd * ((rows * rr[None, :]) @ ww)
        # analytic remainder along this direction
        zend_p = pts + r_end * d[None, :]
        zend_m = pts - r_end * d[None, :]
        ue_p = u(zend_p)
        ue_m = u(zend_m)
        kspe = P.Ksp.eval(pts, r_end * d[None, :])
        ktqe = P.Ktq.eval(pts, r_end * d[None, :])
        ae = P.a.eval(pts, r_end * d[None, :])
        rem = (phi(vals - ue_p, e.p) + phi(vals - ue_m, e.p)) * kspe * r_end ** 2 / dp
        rem += P.c_hat * ae * (phi(vals - ue_p, e.q) + phi(vals - ue_m, e.q)) * ktqe * r_end ** 2 / dq
        out += wd * rem
    return out.reshape(u.values.shape)


def adaptive_quad_depth_first(f, a: float, b: float, tol: float = 1e-10,
                              max_depth: int = 48, initial_edges=None,
                              max_total_panels: int = 4000):
    """The one-panel-per-call, depth-first ``adaptive_quad`` that the
    breadth-first engine replaced, with its ``gk_panel`` inlined."""
    if initial_edges is None:
        edges = np.array([a, b], dtype=float)
    else:
        edges = np.unique(np.clip(np.asarray(initial_edges, dtype=float), a, b))
        if edges[0] > a:
            edges = np.insert(edges, 0, a)
        if edges[-1] < b:
            edges = np.append(edges, b)
    panels = [(edges[i], edges[i + 1], 0) for i in range(len(edges) - 1)]
    done = []
    spent = 0
    while panels:
        lo, hi, depth = panels.pop()
        v, e = _gk_panel(f, lo, hi)
        spent += 1
        budget = tol * max(1.0, abs(v)) * (hi - lo) / max(b - a, 1e-300)
        if (e <= budget or depth >= max_depth or spent >= max_total_panels
                or (hi - lo) < 1e-15 * max(abs(lo), abs(hi), 1.0)):
            done.append((v, e))
        else:
            mid = 0.5 * (lo + hi)
            panels.append((lo, mid, depth + 1))
            panels.append((mid, hi, depth + 1))
    total = sum(v for v, _ in done)
    err = sum(e for _, e in done)
    return total, err


def geometric_tail_quad_sequential(f, a: float, decay: float, tol: float = 1e-11,
                                   growth: float = 2.0, max_panels: int = 200):
    """The panel-by-panel ``geometric_tail_quad`` that the chunked engine
    replaced, with its ``gk_panel`` inlined."""
    if decay <= 0:
        raise ValueError("tail decay exponent must be positive")
    total = 0.0
    err = 0.0
    lo = a
    for _ in range(max_panels):
        hi = lo * growth
        v, e = _gk_panel(f, lo, hi)
        total += v
        err += e
        lo = hi
        tail_val = float(f(np.array([lo]))[0]) * lo / decay
        if abs(tail_val) <= tol * max(1.0, abs(total)):
            return total + tail_val, err + abs(tail_val)
    return total + tail_val, err + 2.0 * abs(tail_val)


def _gk_panel(f, a: float, b: float):
    """One GK15 panel on [a, b]; returns (value, error_estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.asarray(f(mid + half * _XK), dtype=float)
    kron = half * float(fx @ _WK)
    gauss = half * float(fx[_G_IDX] @ _WG)
    err = (200.0 * abs(kron - gauss)) ** 1.5 if kron != gauss else 0.0
    # Classic QUADPACK-style sharpening, floored by the raw difference.
    return kron, max(min(err, abs(kron - gauss) * 200.0), abs(kron - gauss))


def term_Ip_signed_per_probe(x: float, P: ProblemParams, tol: float) -> float:
    """PV integral over {x+y in B1} of phi_p(beta(x)-beta(x+y)) K_sp."""
    e = P.exponents
    r0 = 1.0 - abs(x)

    def paired(yv):
        yv = np.asarray(yv, dtype=float)
        ksp = P.Ksp.eval(x, yv)
        return (phi(_beta_diff(x, yv), e.p) + phi(_beta_diff(x, -yv), e.p)) * ksp

    worst = min(e.p, 2.0 * (e.p - 1.0)) - e.sp - 1.0
    val, _ = near_singular_quad(paired, min(r0, 0.25), worst, tol=tol)
    if r0 > 0.25:
        v2, _ = adaptive_quad(paired, 0.25, r0, tol=tol)
        val += v2
    # Leftover one-sided strip: |y| in (r0, other-side exit).
    lo, hi = r0, 1.0 + abs(x)
    if hi > lo + 1e-15:
        sgn = -1.0 if x >= 0 else 1.0  # the far side of the ball

        def single(yv):
            yv = np.asarray(yv, dtype=float)
            return phi(_beta_diff(x, sgn * yv), e.p) * P.Ksp.eval(x, yv)

        v3, _ = adaptive_quad(single, lo, hi, tol=tol, initial_edges=[lo, 0.5 * (lo + hi), hi])
        val += v3
    return val


def term_I_abs_per_probe(x: float, P: ProblemParams, r_exp: float, kernel,
                         coeff, tol: float) -> float:
    """Integral over {x+y in B1} of w(x,y) |beta(x)-beta(x+y)|^(r-1) K."""
    frac = kernel.exponent - P.n  # sp or tq
    near_exp = (r_exp - 1.0) - frac - 1.0

    def one_side(sgn):
        hi = 1.0 - sgn * x

        def f(yv):
            yv = np.asarray(yv, dtype=float)
            w = coeff(x, sgn * yv) if coeff is not None else 1.0
            return w * np.abs(_beta_diff(x, sgn * yv)) ** (r_exp - 1.0) \
                * kernel(x, yv)

        v, _ = near_singular_quad(f, min(hi, 0.25), near_exp, tol=tol)
        if hi > 0.25:
            v2, _ = adaptive_quad(f, 0.25, hi, tol=tol)
            v += v2
        return v

    return one_side(+1.0) + one_side(-1.0)


def term_II_per_probe(x: float, P: ProblemParams, kappa: float, eta: float,
                      r_exp: float, kernel, coeff, tol: float) -> float:
    """Integral over {x+y not in B1} of w |kappa beta(x) + 2(|2(x+y)|^eta - 1)|^(r-1) K.

    (beta vanishes outside the unit ball, so only beta(x) survives.)
    """
    bx = kappa * float(barrier_eval(x))
    decay = (kernel.exponent - P.n) - eta * (r_exp - 1.0)

    def side(sgn):
        lo = 1.0 - sgn * x

        def f(yv):
            yv = np.asarray(yv, dtype=float)
            z = np.abs(x + sgn * yv)
            w = coeff(x, sgn * yv) if coeff is not None else 1.0
            env = np.abs(bx + 2.0 * ((2.0 * z) ** eta - 1.0)) ** (r_exp - 1.0)
            return w * env * kernel(x, yv)

        body, _ = adaptive_quad(f, lo, lo + 63.0, tol=tol,
                                initial_edges=np.geomspace(lo, lo + 63.0, 16))
        tail, _ = geometric_tail_quad(f, lo + 63.0, decay, tol=tol)
        return body + tail

    return side(+1.0) + side(-1.0)


def term_III_per_probe(x: float, P: ProblemParams, eta: float, regime: int,
                       tol: float) -> float:
    """The radial tail term over {|y| > 1/4}, with the regime's weights."""
    e = P.exponents
    cM = P.c_hat * P.a.bound
    if regime == 1:
        front = (2.0 + cM) * 2.0 ** (e.q - 1.0)
    elif regime == 2:
        front = 2.0 ** (e.q - 1.0) * (2.0 ** (e.q - 2.0) + cM)
    else:
        front = 2.0 ** (e.q - 1.0) * (1.0 + cM)

    def make(r_exp, kernel, wfun):
        def f(yv):
            yv = np.asarray(yv, dtype=float)
            w = wfun(x, yv) + wfun(x, -yv) if wfun is not None else 2.0
            return 0.5 * w * ((8.0 * yv) ** eta - 1.0) ** (r_exp - 1.0) \
                * (kernel(x, yv) + kernel(x, -yv))
        return f

    # Regime 1 weighs the q-tail with the constant 1; regimes 2 and 3 keep
    # the modulating coefficient inside (regime 3 with the dilation factor).
    if regime == 1:
        q_weight = None
    elif regime == 2:
        q_weight = P.a.eval
    else:
        def q_weight(xx, yy):
            return P.c_hat * P.a.eval(xx, yy)

    total = 0.0
    for (r_exp, kern, wsel) in ((e.p, P.Ksp, None), (e.q, P.Ktq, q_weight)):
        f = make(r_exp, kern, wsel)
        decay = (kern.exponent - P.n) - eta * (r_exp - 1.0)
        body, _ = adaptive_quad(f, 0.25, 64.0, tol=tol,
                                initial_edges=np.geomspace(0.25, 64.0, 16))
        tail, _ = geometric_tail_quad(f, 64.0, decay, tol=tol)
        total += body + tail
    return front * total
