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
import time
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScaling, DivergentSigma, SelectionFailed
from .operator import phi
from .params import OMEGA_N, ProblemParams, barrier_eval, validate_exponents
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
    accuracy ~1e-10 or better for admissible eta.  Here and in the II and
    III terms, a power minus one, (8y)^eta - 1, is taken as
    expm1(eta log 8y): the difference cancels at small eta (2^eta - 1 has
    relative error 1.6e-9 at eta = 1e-8), the expm1 form does not.
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
            return np.expm1(eta * np.log(8.0 * r)) ** r_exp * r ** (-1.0 - kexp)

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
    here.  The lower bound keeps the (s, p) term alone, whose integrand is
    at least (2^eta - 1)^(p-1) |y|^(-n-sp) on |y| >= 1/4.  The band is a
    soft diagnostic either way.
    """
    e = P.exponents
    om = OMEGA_N[e.n]
    lo = (om * 2.0 ** (e.q - 1.0 + 2.0 * e.sp)
          * math.expm1(eta * math.log(2.0)) ** (e.p - 1.0) / e.sp)
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
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    g = min(eta, math.log2(2.0 / (2.0 - theta_val)))
    return min(max(g, 1e-300), 1.0 - 1e-12)


def lambda_rescale(u_sup: float, f_sup: float, sigma_val: float, p: float) -> float:
    """Normalisation lambda = 1 / (2 (||u|| + (||f||/sigma)^(1/(p-1))))."""
    if not (u_sup >= 0 and f_sup >= 0):
        raise ValueError("sup norms must be nonnegative")
    if u_sup == 0.0 and f_sup == 0.0:
        raise DegenerateScaling("cannot normalise identically-zero data")
    if not sigma_val > 0:
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
        env = np.abs(bx[row] + 2.0 * np.expm1(eta * np.log(2.0 * z))) \
            ** (r_exp - 1.0)
        return w * env * kernel(xr, yv)

    body, _ = adaptive_quad_rows(f, np.geomspace(lo, lo + 63.0, 16, axis=1),
                                 tol=tol)
    tail, _ = geometric_tail_quad_rows(f, lo + 63.0, decay, tol=tol)
    return np.add(*(body + tail).reshape(2, -1)).reshape(np.shape(xs))[()]


def _term_III(xs, P: ProblemParams, eta, regime: int, tol: float):
    """The radial tail integral over {|y| > 1/4}, with the regime's weights,
    at every pair of probe x of ``xs`` and ``eta`` (scalars or arrays,
    broadcast together; one row each), without the regime's front factor:
    that one depends on the coefficient bound, the integral does not."""
    e = P.exponents
    q_tail = _regime(P, regime)[2]
    shape = np.broadcast(xs, eta).shape
    x, eta = (np.broadcast_to(v, shape).ravel() for v in (xs, eta))

    def make(r_exp, kernel, c):
        def f(yv, row):
            xr = x[row]
            w = 2.0 if c is None else c * P.a.eval(xr, yv) + c * P.a.eval(xr, -yv)
            return 0.5 * w * np.expm1(eta[row] * np.log(8.0 * yv)) \
                ** (r_exp - 1.0) * (kernel(xr, yv) + kernel(xr, -yv))
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
    return total.reshape(shape)[()]


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


# Halving candidates whose one-row III one ``_term_III`` call integrates.
_III_BLOCK = 16


def _bundle_terms(xs, P: ProblemParams, kappa: float, eta: float,
                  regime: int, tol: float, base_cache: dict,
                  bound: float = math.inf, ahead: int = 1) -> dict | None:
    """All five bundle terms at the probes ``xs`` (a scalar or an array, and
    each term in its shape) for (kappa, eta) in one regime, or None when
    (I_p + I_q) + III already exceeds ``bound`` at some probe.

    ``base_cache`` memoises the raw terms across calls by what each one
    depends on besides the probes: the I bases on the regime (kappa enters
    only as a power), the II pair on (kappa, eta) and III's integral on
    (eta, regime), so the kappa bisection reuses III.  The regime front
    factors are applied here, so no cached value depends on the
    coefficient bound, and one cache may serve problems that differ only
    in it.  Each key also carries the probe set, so one cache may serve
    several.  Under "counts" a Counter keeps, by (regime, kind), the work
    done here: the "I" bases, "II" pairs and full-row "III" integrated,
    the "one-row" III calls and the "rows" they integrated, the candidates
    "judged" on one row, and the rejections "on one row" and "on all
    rows".

    With a finite ``bound`` and no III cached at (eta, regime), III comes
    first on row 0, the origin, and the candidate is rejected when
    (I_p + I_q) + III exceeds ``bound`` there; only a candidate that
    passes on that row integrates III on all rows, which are cached.  The
    verdict is the one of all rows: a row's result does not depend on the
    rows that share its call, so the one-row III is bit for bit that row
    of the full call, and a rejection on any row is a rejection.
    ``ahead`` is how many of eta, eta/2, eta/4, ... the caller's halving
    search may still try: when row 0 holds no III at eta, one call
    integrates it there at the first ``_III_BLOCK`` of them (at most
    ``ahead``), cached under ("III row", probes, eta', regime) each.

    The II pair comes last, and only for a candidate whose (I_p + I_q) +
    III stays at or below ``bound`` at every probe; a rejected candidate
    skips II's two integrals.  The rejection is exact: II_p and II_q
    integrate |.|^(r-1) times c_hat a >= 0 (``CoefficientField``'s
    contract 0 <= a <= M) times K > 0, with positive GK15 weights and a
    nonnegative tail remainder, so they are >= 0, and rounding to nearest
    is monotone, so the total (((I_p + I_q) + II_p) + II_q) + III is never
    below (I_p + I_q) + III.  A NaN in that partial sum compares false and
    falls through to the full evaluation.
    """
    e = P.exponents
    (f_ip, f_iq, f_iip, f_iiq), front, _, signed_ip = _regime(P, regime)
    xs = np.asarray(xs, dtype=float)
    probes = (xs.shape, xs.tobytes())
    counts = base_cache.setdefault("counts", Counter())

    def cached(key, kind, compute):
        if key not in base_cache:
            base_cache[key] = compute()
            counts[regime, kind] += 1
        return base_cache[key]

    def coeff_q(xx, yy):
        return P.c_hat * P.a.eval(xx, yy)

    ip_base, iq_base = cached(("I", probes, regime), "I", lambda: (
        _term_I(xs, P, e.p, P.Ksp, None, signed_ip, tol),
        _term_I(xs, P, e.q, P.Ktq, coeff_q, False, tol)))
    i_p = f_ip * kappa ** (e.p - 1.0) * ip_base
    i_q = f_iq * kappa ** (e.q - 1.0) * iq_base
    iii_key = ("III", probes, eta, regime)
    if bound < math.inf and iii_key not in base_cache:
        counts[regime, "judged"] += 1
        row = ("III row", probes, eta, regime)
        if row not in base_cache:
            etas = np.ldexp(eta, -np.arange(min(_III_BLOCK, ahead)))
            vals = _term_III(xs.flat[0], P, etas, regime, tol)
            base_cache.update({("III row", probes, float(h), regime): v
                               for h, v in zip(etas, vals)})
            counts[regime, "one-row"] += 1
            counts[regime, "rows"] += etas.size
        if (i_p.flat[0] + i_q.flat[0]) + front * base_cache[row] > bound:
            counts[regime, "on one row"] += 1
            return None
    iii = front * cached(iii_key, "III",
                         lambda: _term_III(xs, P, eta, regime, tol))
    if np.max(i_p + i_q + iii) > bound:
        counts[regime, "on all rows"] += 1
        return None
    iip, iiq = cached(("II", probes, kappa, eta), "II", lambda: (
        _term_II(xs, P, kappa, eta, e.p, P.Ksp, None, tol),
        _term_II(xs, P, kappa, eta, e.q, P.Ktq, coeff_q, tol)))
    terms = {"I_p": i_p, "I_q": i_q, "II_p": f_iip * iip,
             "II_q": f_iiq * iiq, "III": iii}
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


# Halvings each search of ``choose_eta_kappa`` may take.
_MAX_HALVINGS = 60


def _halve(x: float, ok, message: str) -> float:
    """The first of x, x/2, x/4, ... (``_MAX_HALVINGS`` of them) that passes
    ``ok``; SelectionFailed(message) when none does."""
    for _ in range(_MAX_HALVINGS):
        if ok(x):
            return x
        x *= 0.5
    raise SelectionFailed(message)


def choose_eta_kappa(epsilon: float, P: ProblemParams, tol: float = 1e-9,
                     probes: int = 32, homogeneous: bool = False,
                     cache: dict | None = None
                     ) -> tuple[float, float, SelectionCertificate]:
    """Select (eta, kappa) so every applicable bundle stays below
    eps / (Lambda 2^(n+sp+q)) at all probe x in B_{3/4}.

    Each step is one halving search: per regime eta against the kappa-free
    part of the bundle (II at kappa=0 plus III), then kappa against the
    full one; the competition cap on the minimum pair; and the joint
    re-verification of all bundles.  The certificate records the worst
    probe margins per term and the measured competition constant and cap.

    The eta and kappa searches pass their bounds to ``_bundle_terms``,
    which rejects a candidate whose (I_p + I_q) + III already exceeds the
    bound without evaluating the II pair, and judges a new eta on the
    origin's row of III before it integrates all rows; both are exact (see
    there).  The eta search tells it how many halvings it has left, so
    that one call integrates that row for a block of the candidates ahead.
    The cap bisection and the re-verification evaluate all five terms.
    One DEBUG line per call gives, per regime, the candidates each search
    tried, those rejected on I + III alone and how many of them on one
    probe row, the one-row III calls and their rows, the candidates judged
    on one row, and the II pairs and full-row III evaluations; then the
    call's II pairs, full-row III evaluations and wall time.

    ``cache`` (a dict, filled here) keeps the integrals of the bundle
    terms for a later selection on the same probes and tolerance whose
    problem differs only in the coefficient bound: no cached value depends
    on it (see ``_bundle_terms``).  Each call starts the cache's counts
    afresh, so they are the call's own.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if P.n != 1:
        raise NotImplementedError("constant selection is implemented for n = 1")
    bad = validate_exponents(P.exponents, homogeneous=homogeneous,
                             pure_p=P.a.bound == 0.0)
    if bad:
        raise SelectionFailed("invalid exponents: " + "; ".join(bad))
    e = P.exponents
    target = epsilon / (max(P.Ksp.lam, P.Ktq.lam) * 2.0 ** (P.n + e.sp + e.q))
    regimes = applicable_regimes(P)
    if not regimes:
        raise SelectionFailed("no regime matches these exponents")
    xs = probe_points(probes)
    cache = {} if cache is None else cache
    counts = cache["counts"] = Counter()
    safety = 0.9
    start = time.perf_counter()

    def terms(kappa, eta, regime):
        return _bundle_terms(xs, P, kappa, eta, regime, tol, cache)

    def worst(kappa, eta, among):
        return max(float(np.max(terms(kappa, eta, r)["total"])) for r in among)

    # ``_bundle_terms`` counts its integrals and rejections; this counts
    # the candidates each search tried under (regime, "eta" | "kappa").
    def passes(kappa, eta, r, bound, search):
        t = _bundle_terms(xs, P, kappa, eta, r, tol, cache, bound,
                          _MAX_HALVINGS - counts[r, search])
        counts[r, search] += 1
        return t is not None and float(np.max(t["total"])) <= bound

    eta_sel, kappa_sel = {}, {}
    for r in regimes:
        msg = f"bisection exhausted {_MAX_HALVINGS} halvings in regime {r}"
        eta_sel[r] = _halve(0.49 * e.eta_threshold(), lambda eta: passes(
            0.0, eta, r, 0.5 * safety * target, "eta"), "eta " + msg)
        kappa_sel[r] = _halve(0.5, lambda kappa: passes(
            kappa, eta_sel[r], r, safety * target, "kappa"), "kappa " + msg)
    seen = Counter(counts)     # the searches' counts
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
        "kappa cap bisection exhausted")
    # Re-verify every bundle, halving eta and kappa together by 2^-k.
    scale = _halve(
        1.0, lambda f: worst(f * kappa_fin, f * eta_fin, regimes) <= target,
        "final re-verification could not close")
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
    logger.debug(
        "choose_eta_kappa: %s; %d II pairs in all, %d full-row III, %.3f s",
        "; ".join(
            f"regime {r}: {seen[r, 'eta']} eta and {seen[r, 'kappa']} kappa "
            f"candidates, {seen[r, 'on one row'] + seen[r, 'on all rows']} "
            f"rejected on I + III alone, {seen[r, 'on one row']} of them on "
            f"one probe row, {seen[r, 'one-row']} one-row III calls of "
            f"{seen[r, 'rows']} rows, {seen[r, 'judged']} candidates judged "
            f"on one row, {seen[r, 'II']} II pairs, {seen[r, 'III']} "
            f"full-row III" for r in regimes),
        sum(counts[r, "II"] for r in regimes),
        sum(counts[r, "III"] for r in regimes), time.perf_counter() - start)
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
                 epsilon: float | None = None,
                 cache: dict | None = None) -> ConstantsBundle:
    """Run the whole chain for one problem: selection, sigma, theta, gamma,
    lambda.  epsilon defaults to |B_1| / 2; ``cache`` goes to
    ``choose_eta_kappa``."""
    eps = epsilon if epsilon is not None else 0.5 * unit_ball_volume(P.n)
    eta, kappa, cert = choose_eta_kappa(eps, P, cache=cache)
    sig = cert.sigma_at_eta
    lo, hi = sigma_bounds(eta, P)
    th = theta(kappa)
    gam = gamma_exponent(th, eta)
    lam = lambda_rescale(u_sup, f_sup, sig, P.exponents.p)
    return ConstantsBundle(epsilon=eps, eta=eta, kappa=kappa, sigma=sig,
                           sigma_lo=lo, sigma_hi=hi, theta=th, gamma=gam,
                           lam=lam, omega_n=OMEGA_N[P.n], certificate=cert)
