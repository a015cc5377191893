"""Empirical replay of the regularity machinery.

The chain: normalise the solved function, then at each dyadic level blow
the oscillation window up to the unit ball, verify the growth-lemma
hypotheses numerically (source smallness, interior bound, exterior growth
envelope, fat sublevel set), assert the one-step drop, and tighten the
envelope pair (b_i, c_i) by the decay rule c - b = 2^(-i gamma).  The
recorded trace is then fitted for an empirical Holder exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import ConstantsBundle, build_bundle, vdc
from .errors import DegenerateFit, NldpError
from .grid import GridFunction, grid_points, growth_exterior
from .operator import QuadratureSpec, evaluate
from .params import ProblemParams
from .scaling import ScalingContext, blowup_step, rescale_problem
from .solver import SolveConfig, solve

__all__ = [
    "OscillationTrace", "GrowthLemmaInstance", "oscillation", "holder_fit",
    "sublevel_measure", "growth_lemma_check", "dyadic_iteration",
    "run_pipeline",
]


def _ball_probe_points(u: GridFunction, center, radius: float) -> np.ndarray:
    # Closed ball: include the boundary, where radial extrema often sit.
    # 1000 probes (in 2-D, the first 1000 of 1999 that fall in the ball).
    if u.n == 1:
        off = vdc(1000)
        pts = center + (2.0 * off - 1.0) * radius
        nodes = u.nodes
        sel = nodes[np.abs(nodes - center) <= radius * (1.0 + 1e-12)]
        return np.concatenate([pts, sel, [center, center - radius, center + radius]])
    off = np.stack([vdc(1999, 2), vdc(1999, 3)], axis=-1)
    pts = center + (2.0 * off - 1.0) * radius
    keep = np.sqrt(np.sum((pts - center) ** 2, axis=-1)) <= radius
    ang = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    ring = np.asarray(center, dtype=float) + radius * np.stack(
        [np.cos(ang), np.sin(ang)], axis=-1)
    return np.concatenate([pts[keep][:1000], ring,
                           [np.asarray(center, dtype=float)]])


def oscillation(u: GridFunction, center, radius: float):
    """(sup, inf, osc) of the glued function over the ball, from grid nodes
    plus low-discrepancy interpolant probes (and exterior where the ball
    leaves the box)."""
    pts = _ball_probe_points(u, center, radius)
    vals = np.asarray(u(pts), dtype=float)
    sup = float(np.max(vals))
    inf = float(np.min(vals))
    return sup, inf, sup - inf


def sublevel_measure(u: GridFunction, level: float = 0.0, center=0.0,
                     radius: float = 1.0) -> float:
    """|{u <= level} intersected with the ball|, by node counting with
    boundary-cell half-weighting.  In 2-D a scalar ``center`` is taken on
    both coordinates (0 is the origin)."""
    if u.n == 1:
        xs, le = u.nodes, (u.values <= level).astype(float)
        ov = np.minimum(xs[1:], center + radius) \
            - np.maximum(xs[:-1], center - radius)
        # cumsum keeps the left-to-right order of a running sum
        return float(np.cumsum(np.maximum(ov, 0.0)
                               * ((le[:-1] + le[1:]) / 2))[-1])
    h = u.h
    c = np.broadcast_to(np.asarray(center, dtype=float), (2,))
    inside = np.sum((grid_points(2, u.R, u.N) - c) ** 2, axis=-1) < radius ** 2
    le = u.values <= level
    w = np.where(le, 1.0, 0.0)
    # half-weight cells whose 4-neighbourhood straddles the level set
    edge = np.zeros_like(w)
    edge[1:, :] += (le[1:, :] != le[:-1, :])
    edge[:-1, :] += (le[1:, :] != le[:-1, :])
    edge[:, 1:] += (le[:, 1:] != le[:, :-1])
    edge[:, :-1] += (le[:, 1:] != le[:, :-1])
    w = np.where((edge > 0), 0.5 * np.ones_like(w), w)
    w = np.where(le | (edge > 0), w, 0.0)
    return float(np.sum(w[inside]) * h * h)


def holder_fit(u: GridFunction, center, i_min: int, i_max: int):
    """Least-squares exponent fit of log osc against log radius over the
    dyadic range 2^-i, i = i_min..i_max.

    Returns (gamma_hat, prefactor, fit_residual).  Requires at least three
    resolvable levels (2^-i_max >= 4h); raises DegenerateFit when the
    oscillations sit at the interpolation-error floor.
    """
    if i_max - i_min < 3:
        raise ValueError("need at least three dyadic levels")
    if 2.0 ** (-i_max) < 4.0 * u.h - 1e-12:
        raise ValueError("finest level below the resolvable scale 4h")
    radii = 2.0 ** (-np.arange(i_min, i_max + 1))
    oscs = np.array([oscillation(u, center, r)[2] for r in radii])
    floor = 100.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(u.values))))
    if np.max(oscs) < 10.0 * floor:
        raise DegenerateFit("oscillation at the interpolation-error floor")
    good = oscs > floor
    if np.count_nonzero(good) < 3:
        raise DegenerateFit("too few levels above the error floor")
    lx = np.log(radii[good])
    ly = np.log(oscs[good])
    slope, it = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + it)) ** 2)))
    return float(slope), float(math.exp(it)), resid


# --------------------------------------------------------------------------
# Growth lemma.

@dataclass
class GrowthLemmaInstance:
    sigma: float
    eta: float
    epsilon: float
    theta: float
    hypotheses: dict          # name -> {"ok": bool, ...detail}
    conclusion: dict          # {"checked": bool, "ok": bool, "sup": float, "margin": float}

    @property
    def hypotheses_ok(self) -> bool:
        return all(h["ok"] for h in self.hypotheses.values())

    @property
    def ok(self) -> bool:
        return self.hypotheses_ok and self.conclusion.get("ok", False)


def growth_lemma_check(u: GridFunction, bundle: ConstantsBundle,
                       P: ProblemParams,
                       Q: QuadratureSpec | None = None) -> GrowthLemmaInstance:
    """Verify the growth-lemma hypotheses on u and, if they hold, assert
    the drop u <= 1 - theta on the half ball.

    The operator inequality is conservative: a probe verifies only when
    value + quadrature error <= sigma.  Hypotheses are reported, never
    assumed; the conclusion is only checked when all four hold.
    """
    Q = Q or QuadratureSpec()
    if u.n != 1:
        raise NldpError("the growth-lemma replay is implemented for n = 1")
    sig, eta, eps, th = bundle.sigma, bundle.eta, bundle.epsilon, bundle.theta
    hyp: dict = {}

    margin = Q.near_radius(u.h) * 1.05 + u.h
    span = 1.0 - margin
    # Twelve operator probes: eleven van der Corput points and the centre.
    xs = np.append((vdc(11) * 2.0 - 1.0) * span, 0.0)
    worst_val, worst_err, worst_x = -math.inf, 0.0, 0.0
    ok1 = True
    for x in xs:
        val, err = evaluate(u, float(x), P, Q)
        if val + err > sig:
            ok1 = False
        if val + err > worst_val + worst_err:
            worst_val, worst_err, worst_x = val, err, float(x)
    hyp["operator_leq_sigma"] = {
        "ok": ok1, "worst_value": worst_val, "worst_error": worst_err,
        "worst_x": worst_x, "sigma": sig, "probes": len(xs)}

    sup1, _, _ = oscillation(u, 0.0, 1.0)
    tol_sup = 1e-9 + 4.0 * np.finfo(float).eps
    hyp["bounded_by_one"] = {"ok": sup1 <= 1.0 + tol_sup, "sup": sup1}

    shells = np.concatenate([2.0 ** np.arange(0, 12),
                             1.0 + vdc(39, 3) * 30.0])
    ext_pts = np.concatenate([shells, -shells])
    ext_vals = np.asarray(u.exterior(ext_pts, 1), dtype=float)
    rad = np.abs(ext_pts)
    env = growth_exterior(eta)(rad)
    bad = ext_vals > env + 1e-9
    hyp["exterior_growth"] = {
        "ok": not bool(np.any(bad)),
        "witness": float(rad[bad][0]) if np.any(bad) else None}

    meas = sublevel_measure(u, 0.0, 0.0, 1.0)
    hyp["sublevel_measure"] = {"ok": meas >= eps * (1.0 - 1e-12), "measure": meas,
                               "epsilon": eps}

    conclusion = {"checked": False, "ok": False, "sup": None, "margin": None}
    if all(h["ok"] for h in hyp.values()):
        sup_half, _, _ = oscillation(u, 0.0, 0.5)
        tol = 1e-8 + 4.0 * np.finfo(float).eps
        conclusion = {"checked": True, "ok": sup_half <= 1.0 - th + tol,
                      "sup": sup_half, "margin": (1.0 - th) - sup_half}
    return GrowthLemmaInstance(sigma=sig, eta=eta, epsilon=eps, theta=th,
                               hypotheses=hyp, conclusion=conclusion)


# --------------------------------------------------------------------------
# Dyadic induction.

@dataclass
class OscillationTrace:
    center: float
    radii: list[float] = field(default_factory=list)
    sup_i: list[float] = field(default_factory=list)
    inf_i: list[float] = field(default_factory=list)
    osc_i: list[float] = field(default_factory=list)
    bound_i: list[float] = field(default_factory=list)
    bound_held: list[bool] = field(default_factory=list)
    lower_env: list[float] = field(default_factory=list)
    upper_env: list[float] = field(default_factory=list)
    fitted_gamma: float | None = None
    fit_residual: float | None = None
    breakdown_level: int | None = None
    breakdown_reason: str | None = None

    def rows(self):
        for i in range(len(self.radii)):
            yield (i, self.radii[i], self.sup_i[i], self.inf_i[i],
                   self.osc_i[i], self.bound_i[i], self.bound_held[i])


def dyadic_iteration(u_tilde: GridFunction, x0: float,
                     bundle: ConstantsBundle, P_tilde: ProblemParams,
                     levels: int, Q: QuadratureSpec | None = None,
                     N_level: int = 513, M_bar: float | None = None):
    """Run the oscillation induction for the given number of levels.

    Returns (trace, level_reports).  Each level blows the window up to the
    unit ball (choosing u or -u by whichever sublevel set is larger), runs
    the growth-lemma check, and updates the envelope pair by the decay
    rule.  The first unverifiable level stops the loop; the partial trace
    is returned with the breakdown recorded.
    """
    Q = Q or QuadratureSpec()
    if u_tilde.n != 1:
        raise NldpError("the dyadic induction replay is implemented for n = 1")
    gam = bundle.gamma
    eta = bundle.eta
    # Seed envelopes: the infimum over R^n from grid values and declared
    # exterior, gap exactly one (the normalisation guarantees osc <= 1).
    ext_inf = _exterior_inf(u_tilde)
    b0 = min(float(np.min(u_tilde.values)), ext_inf)
    lower = [b0]
    upper = [b0 + 1.0]
    osc_glob = float(np.max(u_tilde.values)) - b0
    if osc_glob > 1.0 + 1e-9:
        raise NldpError("normalisation violated: global oscillation exceeds 1")
    trace = OscillationTrace(center=x0)
    reports = []
    interp_tol = 1e-9

    for j in range(levels + 1):
        r_j = 2.0 ** (-j)
        sup_m, inf_m, osc_m = oscillation(u_tilde, x0, r_j)
        trace.radii.append(r_j)
        trace.sup_i.append(sup_m)
        trace.inf_i.append(inf_m)
        trace.osc_i.append(osc_m)
        trace.bound_i.append(2.0 ** (-j * gam))
        trace.bound_held.append(osc_m <= 2.0 ** (-j * gam) + interp_tol)
        trace.lower_env.append(lower[j] if j < len(lower) else lower[-1])
        trace.upper_env.append(upper[j] if j < len(upper) else upper[-1])
        if j == levels:
            break
        # envelope consistency at this level
        if not (lower[j] - interp_tol <= inf_m and sup_m <= upper[j] + interp_tol):
            trace.breakdown_level = j
            trace.breakdown_reason = (
                f"envelope violated: [{inf_m:.6g}, {sup_m:.6g}] outside "
                f"[{lower[j]:.6g}, {upper[j]:.6g}]")
            break
        m = 0.5 * (lower[j] + upper[j])
        meas_le = sublevel_measure(u_tilde, m, x0, r_j)
        ball = 2.0 * r_j
        sign = 1.0 if meas_le >= 0.5 * ball else -1.0
        u_bar, P_bar, rep = blowup_step(
            u_tilde, j, gam, m, x0, P_tilde, sign=sign, upper_chain=upper,
            lower_chain=lower, sigma_val=bundle.sigma, eta=eta, N=N_level,
            M_bar=M_bar)
        gl = growth_lemma_check(u_bar, bundle, P_bar, Q)
        reports.append({"level": j, "sign": sign, "blowup": rep, "lemma": gl})
        if not rep.ok:
            trace.breakdown_level = j
            trace.breakdown_reason = "; ".join(rep.failures)
            break
        if not gl.ok:
            trace.breakdown_level = j
            trace.breakdown_reason = _lemma_failure_reason(gl)
            break
        gap = 2.0 ** (-gam * (j + 1))
        if sign > 0:
            lower.append(lower[j])
            upper.append(lower[j] + gap)
        else:
            upper.append(upper[j])
            lower.append(upper[j] - gap)
    try:
        resolvable = int(math.floor(-math.log2(4.0 * u_tilde.h) + 1e-12))
        i_max = min(len(trace.radii) - 1, resolvable)
        gamma_hat, pref, resid = holder_fit(u_tilde, x0, 0, i_max)
        trace.fitted_gamma = gamma_hat
        trace.fit_residual = resid
    except (DegenerateFit, ValueError):
        pass
    return trace, reports


def _lemma_failure_reason(gl: GrowthLemmaInstance) -> str:
    for name, h in gl.hypotheses.items():
        if not h["ok"]:
            return f"hypothesis {name} failed: {h}"
    if gl.conclusion.get("checked") and not gl.conclusion.get("ok"):
        return f"conclusion failed: sup = {gl.conclusion['sup']:.6g}"
    return "unknown"


def _exterior_inf(u: GridFunction) -> float:
    rr = np.geomspace(u.R * 1.0001, u.R * 1e6, 256)
    return float(np.min(np.asarray(u.exterior(np.concatenate([rr, -rr]), 1),
                                   dtype=float)))


# --------------------------------------------------------------------------
# End-to-end pipeline: solve -> constants -> normalise -> induction.

def _inflate_coefficient_bound(P: ProblemParams, bound: float) -> ProblemParams:
    return replace(P, a=replace(P.a, bound=bound))


def _m_bar(P: ProblemParams, u_sup: float, f_sup: float, sigma_val: float) -> float:
    e = P.exponents
    return 2.0 ** (e.q - e.p) * P.a.bound * (
        u_sup + (f_sup / sigma_val) ** (1.0 / (e.p - 1.0))) ** (e.q - e.p)


def run_pipeline(P: ProblemParams, solve_cfg: SolveConfig, levels: int = 6,
                 x0: float = 0.0, epsilon: float | None = None,
                 bundle: ConstantsBundle | None = None):
    """Solve L u = f, build the constant chain, normalise, and run the
    dyadic induction around x0.  Returns a dict with every stage.

    The rescale inflates the coefficient bound by lambda^(p-q); when the
    induced bound exceeds the declared one, the constant chain is rebuilt
    for the inflated bound so the selected (eta, kappa) cover every level's
    problem (the dilation constant is always carried explicitly and never
    folded into the coefficient)."""
    u, rep = solve(P, solve_cfg)
    if not rep.converged:
        raise NldpError(f"solve did not converge: {rep.flags}")
    u_sup = float(np.max(np.abs(u.values)))
    f_sup = P.f.sup
    if bundle is None:
        # The second selection differs only in the coefficient bound, so it
        # reuses every integral of the first.
        cache: dict = {}
        bundle = build_bundle(P, u_sup=u_sup, f_sup=f_sup, epsilon=epsilon,
                              cache=cache)
        M_bar = _m_bar(P, u_sup, f_sup, bundle.sigma)
        if M_bar > P.M_hat * (1.0 + 1e-9):
            P_eff = _inflate_coefficient_bound(P, M_bar / max(P.c_hat, 1e-300))
            bundle = build_bundle(P_eff, u_sup=u_sup, f_sup=f_sup,
                                  epsilon=epsilon, cache=cache)
    M_bar = _m_bar(P, u_sup, f_sup, bundle.sigma)
    ctx = ScalingContext(lam=bundle.lam, mu=1.0, x0=0.0)
    P_tilde = rescale_problem(P, ctx)
    from .scaling import rescale_gridfunction
    u_tilde = rescale_gridfunction(u, ctx)
    trace, reports = dyadic_iteration(u_tilde, x0, bundle, P_tilde, levels,
                                      Q=solve_cfg.quadrature, M_bar=M_bar)
    return {
        "u": u, "solve_report": rep, "bundle": bundle, "u_tilde": u_tilde,
        "P_tilde": P_tilde, "trace": trace, "level_reports": reports,
        "M_bar": M_bar,
    }
