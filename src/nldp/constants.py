"""The explicit constant chain of the regularity machinery.

Pipeline: pick the measure threshold epsilon, select (eta, kappa) so the
barrier-perturbation estimate bundles hold at every probe point, integrate
sigma (the source-smallness threshold), then derive theta = 95 kappa / 256,
the decay exponent gamma, and the normalisation lambda.

The three estimate bundles mirror the degenerate/singular case split of the
underlying proof:

  regime 1:  q >= p >= 2
  regime 2:  q >= 2 >= p > 1/(1-s)
  regime 3:  2 >= q >= p > 1/(1-s)

Each bundle sums five quantities (the barrier terms I_p, I_q inside the
unit ball, the exterior-envelope terms II_p, II_q outside it, and the
radial tail III) and must stay below eps / (Lambda 2^(n+sp+q)) for every
probe x in B_{3/4}.  Per regime, one halving search picks eta (it controls
II and III), then kappa (it controls I); the minimum pair over the regimes
is capped by the competition estimate and halved jointly until all hold.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScaling, DivergentSigma, SelectionFailed
from .operator import phi
from .params import (OMEGA_N, ProblemParams, barrier_eval)
from .quadrature import (adaptive_quad, adaptive_quad_rows, geometric_tail_quad,
                         geometric_tail_quad_rows, near_singular_quad_rows)

logger = logging.getLogger(__name__)

__all__ = [
    "ConstantsBundle", "SelectionCertificate", "sigma", "sigma_bounds",
    "choose_eta_kappa", "theta", "gamma_exponent", "lambda_rescale",
    "build_bundle", "unit_ball_volume", "vdc",
]


def unit_ball_volume(n: int) -> float:
    return {1: 2.0, 2: math.pi}[n]


# --------------------------------------------------------------------------
# sigma and its closed-form band.

def sigma(eta: float, P: ProblemParams, tol: float = 1e-12) -> float:
    """The source-smallness threshold: 2^(q-1) times the integral over the
    complement of B_{1/4} of (|8y|^eta - 1)^(p-1) |y|^(-n-sp) plus the same
    expression in the (t, q) pair.

    Radial quadrature with an analytic algebraic-tail remainder; relative
    accuracy ~1e-10 or better for admissible eta.
    """
    e = P.exponents
    thresh = e.eta_threshold()
    if not 0.0 < eta < thresh:
        raise DivergentSigma(
            f"eta={eta!r} outside (0, {thresh:.6g}); the defining integral diverges")
    om = OMEGA_N[e.n]
    total = 0.0
    for (r_exp, kexp) in ((e.p - 1.0, e.sp), (e.q - 1.0, e.tq)):
        def f(r):
            r = np.asarray(r, dtype=float)
            return ((8.0 * r) ** eta - 1.0) ** r_exp * r ** (-1.0 - kexp)

        body, _ = adaptive_quad(f, 0.25, 64.0, tol=tol,
                                initial_edges=np.geomspace(0.25, 64.0, 24))
        tail, _ = geometric_tail_quad(f, 64.0, kexp - eta * r_exp, tol=tol)
        total += body + tail
    return 2.0 ** (e.q - 1.0) * om * total


def sigma_bounds(eta: float, P: ProblemParams) -> tuple[float, float]:
    """Closed-form band [sigma_lo, sigma_hi] for sigma (no quadrature).

    The published upper bound carries an evident brace typo in its second
    numerator (4^{tq} - eta(q-1) for 4^{tq - eta(q-1)}); the corrected form,
    which is the one the two-phase derivation actually produces, is used
    here.  The band is a soft diagnostic either way.
    """
    e = P.exponents
    om = OMEGA_N[e.n]
    lo = om * 2.0 ** (e.q - 1.0 + 2.0 * e.sp) * (2.0 ** eta - 1.0) / e.sp
    dp = e.sp - eta * (e.p - 1.0)
    dq = e.tq - eta * (e.q - 1.0)
    if min(dp, dq) <= 0:
        return lo, math.inf
    hi = om * 2.0 ** (e.q + 3.0 * eta * (e.q - 1.0)) * max(
        4.0 ** dp / dp, 4.0 ** dq / dq)
    return lo, hi


# --------------------------------------------------------------------------
# theta, gamma, lambda.

def theta(kappa: float) -> float:
    """theta = kappa * (beta(1/2) - beta(3/4)) = 95 kappa / 256."""
    if not 0.0 < kappa <= 0.5:
        raise ValueError("kappa must lie in (0, 1/2]")
    return 95.0 * kappa / 256.0


def gamma_exponent(theta_val: float, eta: float) -> float:
    """Largest gamma in (0, 1) with (2 - theta)/2 <= 2^-gamma and gamma <= eta."""
    if not 0.0 < theta_val < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    g = min(eta, math.log2(2.0 / (2.0 - theta_val)))
    return min(max(g, 1e-300), 1.0 - 1e-12)


def lambda_rescale(u_sup: float, f_sup: float, sigma_val: float, p: float) -> float:
    """Normalisation lambda = 1 / (2 (||u|| + (||f||/sigma)^(1/(p-1))))."""
    if u_sup < 0 or f_sup < 0:
        raise ValueError("sup norms must be nonnegative")
    if u_sup == 0.0 and f_sup == 0.0:
        raise DegenerateScaling("cannot normalise identically-zero data")
    if sigma_val <= 0:
        raise ValueError("sigma must be positive")
    return 0.5 / (u_sup + (f_sup / sigma_val) ** (1.0 / (p - 1.0)))


# --------------------------------------------------------------------------
# Probe sets in B_{3/4}.

def vdc(count: int, base: int = 2) -> np.ndarray:
    """Points k = 1..count of the van der Corput sequence in ``base``, in
    [0, 1): the base-``base`` digits of k mirrored about the radix point,
    added lowest digit first."""
    k = np.arange(1, count + 1)
    v = np.zeros(count)
    denom = 1.0
    while k.any():
        denom *= base
        k, rem = np.divmod(k, base)
        v += rem / denom
    return v


def probe_points(count: int = 32) -> np.ndarray:
    """Low-discrepancy 1-D probes in B_{3/4} plus the origin (first entry)."""
    return np.concatenate([[0.0], (2.0 * vdc(count) - 1.0) * 0.74])


# --------------------------------------------------------------------------
# Bundle terms, one row per probe (beta is the closed-form barrier).

def _beta_diff(x: float, y):
    """beta(x) - beta(x+y) for x in the open unit ball, without cancellation.

    Inside the ball the difference is A^2 - B^2 = (A - B)(A + B) with
    A = 1 - x^2 and B = 1 - (x+y)^2, and A - B = y (2x + y) is exact in
    relative terms however small y is; subtracting the two O(1) barrier
    values instead leaves only rounding noise once |y| falls below ~1e-8.
    """
    y = np.asarray(y, dtype=float)
    z = x + y
    return np.where(np.abs(z) < 1.0,
                    y * (2.0 * x + y) * (2.0 - x * x - z * z),
                    (1.0 - x * x) ** 2)


def _term_I(xs, P: ProblemParams, r_exp: float, kernel, coeff, signed: bool,
            tol: float):
    """Integral over {x+y in B1} of w(x,y) m(beta(x)-beta(x+y)) K at each
    probe x of ``xs`` (a scalar or an array; one row each), with m = phi_r
    (``signed``) or |.|^(r-1).

    A row runs over y in (0, 1+|x|) and sums the offsets y and -y that stay
    in the ball: both below 1-|x|, where the signed form keeps the
    cancellation of the pair, and only the far side above it.  That offset
    is the row's one break.
    """
    x = np.ravel(xs)
    frac = kernel.exponent - P.n  # sp or tq
    worst = (min(r_exp, 2.0 * (r_exp - 1.0)) if signed else r_exp - 1.0) \
        - frac - 1.0

    def f(yv, row):
        xr = x[row]
        total = 0.0
        for sy in (yv, -yv):
            d = _beta_diff(xr, sy)
            m = phi(d, r_exp) if signed else np.abs(d) ** (r_exp - 1.0)
            w = coeff(xr, sy) if coeff is not None else 1.0
            total = total + np.where(np.abs(xr + sy) < 1.0, w * m, 0.0)
        return total * kernel(xr, yv)

    val, _ = near_singular_quad_rows(f, 1.0 + np.abs(x), worst, tol,
                                     (1.0 - np.abs(x))[:, None])
    return val.reshape(np.shape(xs))[()]


def _term_II(xs, P: ProblemParams, kappa: float, eta: float,
             r_exp: float, kernel, coeff, tol: float):
    """Integral over {x+y not in B1} of w |kappa beta(x) + 2(|2(x+y)|^eta - 1)|^(r-1) K
    at each probe x of ``xs`` (a scalar or an array), one row per side and x.

    (beta vanishes outside the unit ball, so only beta(x) survives.)
    """
    x, sgn = np.tile(np.ravel(xs), 2), np.repeat([1.0, -1.0], np.size(xs))
    bx = kappa * barrier_eval(x)
    decay = (kernel.exponent - P.n) - eta * (r_exp - 1.0)
    lo = 1.0 - sgn * x

    def f(yv, row):
        xr, sy = x[row], sgn[row] * yv
        z = np.abs(xr + sy)
        w = coeff(xr, sy) if coeff is not None else 1.0
        env = np.abs(bx[row] + 2.0 * ((2.0 * z) ** eta - 1.0)) ** (r_exp - 1.0)
        return w * env * kernel(xr, yv)

    body, _ = adaptive_quad_rows(f, np.geomspace(lo, lo + 63.0, 16, axis=1),
                                 tol=tol)
    tail, _ = geometric_tail_quad_rows(f, lo + 63.0, decay, tol=tol)
    return np.add(*(body + tail).reshape(2, -1)).reshape(np.shape(xs))[()]


def _term_III(xs, P: ProblemParams, eta: float, regime: int, tol: float):
    """The radial tail term over {|y| > 1/4}, with the regime's weights, at
    every probe x of ``xs`` (a scalar or an array; one row each)."""
    e = P.exponents
    _, front, q_tail, _ = _regime(P, regime)
    x = np.ravel(xs)

    def make(r_exp, kernel, c):
        def f(yv, row):
            xr = x[row]
            w = 2.0 if c is None else c * P.a.eval(xr, yv) + c * P.a.eval(xr, -yv)
            return 0.5 * w * ((8.0 * yv) ** eta - 1.0) ** (r_exp - 1.0) \
                * (kernel(xr, yv) + kernel(xr, -yv))
        return f

    edges = np.broadcast_to(np.geomspace(0.25, 64.0, 16), (x.size, 16))
    total = 0.0
    for (r_exp, kern, c) in ((e.p, P.Ksp, None), (e.q, P.Ktq, q_tail)):
        f = make(r_exp, kern, c)
        decay = (kern.exponent - P.n) - eta * (r_exp - 1.0)
        body, _ = adaptive_quad_rows(f, edges, tol=tol)
        tail, _ = geometric_tail_quad_rows(f, np.full(x.size, 64.0), decay,
                                           tol=tol)
        total += body + tail
    return (front * total).reshape(np.shape(xs))[()]


def _regime(P: ProblemParams, regime: int):
    """One row of the regime table: the fronts of (I_p, I_q, II_p, II_q),
    the front of III, the factor on a(x, y) in III's q-tail (None: the
    constant weight 1) and whether I_p keeps its sign."""
    q = P.exponents.q
    cM = P.c_hat * P.a.bound
    c_deg = 2.0 ** (q - 2.0)
    if regime == 1:
        return (c_deg,) * 4, (2.0 + cM) * 2.0 ** (q - 1.0), None, True
    if regime == 2:
        c_mix = 6.0 ** (q - 1.0) + 2.0 ** (2.0 * q - 3.0)
        return ((c_mix, c_deg, c_mix, c_deg),
                2.0 ** (q - 1.0) * (c_deg + cM), 1.0, False)
    c_sing = 3.0 ** (q - 1.0) + 2.0 ** (q - 1.0)
    return (c_sing,) * 4, 2.0 ** (q - 1.0) * (1.0 + cM), P.c_hat, False


def applicable_regimes(P: ProblemParams) -> list[int]:
    """Case split of the estimate bundles.  Regimes 2 and 3 treat the
    p-phase by the one-sided Lagrange rate and need p > 1/(1-s) on top of
    the ordering (that is their stated hypothesis; it is also exactly the
    absolute integrability threshold of their barrier term)."""
    e = P.exponents
    p, q = e.p, e.q
    p_sing_ok = p > 1.0 / (1.0 - e.s)
    out = []
    if q >= p >= 2.0:
        out.append(1)
    if q >= 2.0 >= p and p_sing_ok:
        out.append(2)
    if 2.0 >= q >= p and p_sing_ok:
        out.append(3)
    return out


def _bundle_terms(xs, P: ProblemParams, kappa: float, eta: float,
                  regime: int, tol: float, base_cache: dict) -> dict:
    """All five bundle terms at the probes ``xs`` (a scalar or an array, and
    each term in its shape) for (kappa, eta) in one regime.

    ``base_cache`` memoises the raw terms across calls by what each one
    depends on besides the probes: the I bases on the regime (kappa enters
    only as a power), the II pair on (kappa, eta) (its regime front factor
    is applied here) and III on (eta, regime), so the kappa bisection
    reuses III.  Each key also carries the probe set, so one cache may
    serve several.
    """
    e = P.exponents
    (f_ip, f_iq, f_iip, f_iiq), _, _, signed_ip = _regime(P, regime)
    xs = np.asarray(xs, dtype=float)
    probes = (xs.shape, xs.tobytes())

    def cached(key, compute):
        if key not in base_cache:
            base_cache[key] = compute()
        return base_cache[key]

    def coeff_q(xx, yy):
        return P.c_hat * P.a.eval(xx, yy)

    ip_base, iq_base = cached(("I", probes, regime), lambda: (
        _term_I(xs, P, e.p, P.Ksp, None, signed_ip, tol),
        _term_I(xs, P, e.q, P.Ktq, coeff_q, False, tol)))
    iip, iiq = cached(("II", probes, kappa, eta), lambda: (
        _term_II(xs, P, kappa, eta, e.p, P.Ksp, None, tol),
        _term_II(xs, P, kappa, eta, e.q, P.Ktq, coeff_q, tol)))
    terms = {
        "I_p": f_ip * kappa ** (e.p - 1.0) * ip_base,
        "I_q": f_iq * kappa ** (e.q - 1.0) * iq_base,
        "II_p": f_iip * iip,
        "II_q": f_iiq * iiq,
        "III": cached(("III", probes, eta, regime),
                      lambda: _term_III(xs, P, eta, regime, tol)),
    }
    terms["total"] = sum(terms.values())
    return terms


# --------------------------------------------------------------------------
# Selection.

@dataclass
class SelectionCertificate:
    epsilon: float
    target: float
    regimes: list[int]
    eta_per_regime: dict
    kappa_per_regime: dict
    eta: float
    kappa: float
    worst_terms: dict          # term name -> (value, probe x)
    worst_total: float
    com2_constant: float       # measured constant of the kappa-term bound
    kappa_cap: float           # (sigma / 2c)^(1/(p-1)) at the selected eta
    sigma_at_eta: float
    probes: int


def _halve(x: float, ok, max_halvings: int, message: str) -> float:
    """The first of x, x/2, x/4, ... (``max_halvings`` of them) that passes
    ``ok``; SelectionFailed(message) when none does."""
    for _ in range(max_halvings):
        if ok(x):
            return x
        x *= 0.5
    raise SelectionFailed(message)


def choose_eta_kappa(epsilon: float, P: ProblemParams, tol: float = 1e-9,
                     max_halvings: int = 60, probes: int = 32,
                     homogeneous: bool = False) -> tuple[float, float, SelectionCertificate]:
    """Select (eta, kappa) so every applicable bundle stays below
    eps / (Lambda 2^(n+sp+q)) at all probe x in B_{3/4}.

    Each step is one halving search: per regime eta against the kappa-free
    part of the bundle (II at kappa=0 plus III), then kappa against the
    full one; the competition cap on the minimum pair; and the joint
    re-verification of all bundles.  The certificate records the worst
    probe margins per term and the measured competition constant and cap.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if P.n != 1:
        raise NotImplementedError("constant selection is implemented for n = 1")
    bad = P.validation_report()
    if bad and not homogeneous:
        raise SelectionFailed("invalid exponents: " + "; ".join(bad))
    e = P.exponents
    target = epsilon / (max(P.Ksp.lam, P.Ktq.lam) * 2.0 ** (P.n + e.sp + e.q))
    regimes = applicable_regimes(P)
    if not regimes:
        raise SelectionFailed("no regime matches these exponents")
    xs = probe_points(probes)
    cache: dict = {}
    safety = 0.9

    def terms(kappa, eta, regime):
        return _bundle_terms(xs, P, kappa, eta, regime, tol, cache)

    def worst(kappa, eta, among):
        return max(float(np.max(terms(kappa, eta, r)["total"])) for r in among)

    eta_sel, kappa_sel = {}, {}
    for r in regimes:
        msg = f"bisection exhausted {max_halvings} halvings in regime {r}"
        eta_sel[r] = _halve(0.49 * e.eta_threshold(), lambda eta: worst(
            0.0, eta, [r]) <= 0.5 * safety * target, max_halvings, "eta " + msg)
        kappa_sel[r] = _halve(0.5, lambda kappa: worst(
            kappa, eta_sel[r], [r]) <= safety * target, max_halvings,
            "kappa " + msg)
    eta_fin, kappa_fin = min(eta_sel.values()), min(kappa_sel.values())

    def competition(kappa, eta, sig):
        """The measured constant c with (kappa-terms) <= c (kappa^(p-1) +
        sigma^(-(q-p)/(p-1)) kappa^(q-1)), the competition-estimate shape,
        and the cap (sigma / 2c)^(1/(p-1)) it puts on kappa."""
        full, base0 = terms(kappa, eta, regimes[0]), terms(0.0, eta, regimes[0])
        knum = (full["I_p"] + full["I_q"]
                + np.maximum(full["II_p"] - base0["II_p"], 0.0)
                + np.maximum(full["II_q"] - base0["II_q"], 0.0))
        denom = kappa ** (e.p - 1.0) \
            + sig ** (-(e.q - e.p) / (e.p - 1.0)) * kappa ** (e.q - 1.0)
        c = max(0.0, float(np.max(knum / denom)))
        return c, (sig / (2.0 * c)) ** (1.0 / (e.p - 1.0)) if c > 0 else 0.5

    sig = sigma(eta_fin, P)
    kappa_fin = _halve(
        kappa_fin, lambda kappa: kappa <= competition(kappa, eta_fin, sig)[1],
        max_halvings, "kappa cap bisection exhausted")
    # Re-verify every bundle, halving eta and kappa together by 2^-k.
    scale = _halve(
        1.0, lambda f: worst(f * kappa_fin, f * eta_fin, regimes) <= target,
        max_halvings, "final re-verification could not close")
    if scale < 1.0:
        eta_fin, kappa_fin = scale * eta_fin, scale * kappa_fin
        sig = sigma(eta_fin, P)

    final = [terms(kappa_fin, eta_fin, r) for r in regimes]
    worst_terms = {}
    for name in ("I_p", "I_q", "II_p", "II_q", "III"):
        vals = np.array([t[name] for t in final])   # (regimes, probes)
        r, i = divmod(int(np.argmax(vals)), xs.size)
        worst_terms[name] = (float(vals[r, i]), float(xs[i]))
    c_meas, cap = competition(kappa_fin, eta_fin, sig)
    cert = SelectionCertificate(
        epsilon=epsilon, target=target, regimes=regimes,
        eta_per_regime=eta_sel, kappa_per_regime=kappa_sel,
        eta=eta_fin, kappa=kappa_fin, worst_terms=worst_terms,
        worst_total=worst(kappa_fin, eta_fin, regimes), com2_constant=c_meas,
        kappa_cap=cap, sigma_at_eta=sig, probes=len(xs))
    return eta_fin, kappa_fin, cert


# --------------------------------------------------------------------------
# Bundle assembly.

@dataclass
class ConstantsBundle:
    """The full constant chain (epsilon, eta, kappa, sigma, theta, gamma,
    lambda) with the relations tying them together."""

    epsilon: float
    eta: float
    kappa: float
    sigma: float
    sigma_lo: float
    sigma_hi: float
    theta: float
    gamma: float
    lam: float
    omega_n: float
    certificate: SelectionCertificate | None = None

    def __post_init__(self):
        if not 0.0 < self.kappa <= 0.5:
            raise ValueError("kappa must lie in (0, 1/2]")
        if abs(self.theta - 95.0 * self.kappa / 256.0) > 1e-15 * max(1.0, self.theta):
            raise ValueError("theta must equal 95 kappa / 256")
        if (2.0 - self.theta) / 2.0 > 2.0 ** (-self.gamma) + 1e-15:
            raise ValueError("gamma violates (2-theta)/2 <= 2^-gamma")
        if self.gamma > self.eta + 1e-15:
            raise ValueError("gamma must not exceed eta")
        if not (self.sigma_lo - 1e-12 <= self.sigma <= self.sigma_hi + 1e-12):
            warnings.warn(
                f"sigma={self.sigma:.6g} escapes the closed-form band "
                f"[{self.sigma_lo:.6g}, {self.sigma_hi:.6g}] under the "
                "documented omega_n convention (soft check)", RuntimeWarning)


def build_bundle(P: ProblemParams, u_sup: float, f_sup: float,
                 epsilon: float | None = None, tol: float = 1e-9,
                 probes: int = 32) -> ConstantsBundle:
    """Run the whole chain for one problem: selection, sigma, theta, gamma,
    lambda.  epsilon defaults to |B_1| / 2."""
    eps = epsilon if epsilon is not None else 0.5 * unit_ball_volume(P.n)
    eta, kappa, cert = choose_eta_kappa(eps, P, tol=tol, probes=probes)
    sig = cert.sigma_at_eta
    lo, hi = sigma_bounds(eta, P)
    th = theta(kappa)
    gam = gamma_exponent(th, eta)
    lam = lambda_rescale(u_sup, f_sup, sig, P.exponents.p)
    return ConstantsBundle(epsilon=eps, eta=eta, kappa=kappa, sigma=sig,
                           sigma_lo=lo, sigma_hi=hi, theta=th, gamma=gam,
                           lam=lam, omega_n=OMEGA_N[P.n], certificate=cert)
