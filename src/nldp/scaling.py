"""Rescale and blow-up transformations of the double phase problem.

A context (lambda, mu, x0) sends u to lambda * u(mu x + x0).  The operator
keeps its form with transformed kernels, coefficient, and source:

    K_hat(x, y)  = mu^(n+sp) K(mu x + x0, mu y)
    a_hat(x, y)  = lambda^(p-q) mu^(sp-tq) a(mu x + x0, mu y)
    f_hat(x)     = lambda^(p-1) mu^sp f(mu x + x0)

so the covariance L_hat(lambda u(mu . + x0))(x) = lambda^(p-1) mu^sp
(L u)(mu x + x0) holds; the dilation constant c_hat rides along unchanged
and is never folded into the coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (GridFunction, callable_exterior, dyadic_exterior,
                   growth_exterior, sample)
from .params import (CoefficientField, KernelField, ProblemParams, SourceTerm)
from .operator import evaluate, QuadratureSpec

__all__ = ["ScalingContext", "rescale_problem", "rescale_gridfunction",
           "scaling_identity_check", "blowup_step", "BlowupReport"]


@dataclass(frozen=True)
class ScalingContext:
    """One rescale/blow-up step: amplitude lambda, dilation mu, center x0."""

    lam: float
    mu: float
    x0: float | np.ndarray = 0.0

    def __post_init__(self):
        if not (self.lam > 0 and self.mu > 0):
            raise ValueError("lambda and mu must be positive")

    def compose(self, inner: "ScalingContext") -> "ScalingContext":
        """Context of applying ``inner`` first, then self: amplitudes and
        dilations multiply, centers compose affinely
        (u2(x) = lam_o lam_i u(mu_i mu_o x + mu_i x0_o + x0_i))."""
        x0 = np.asarray(inner.mu, dtype=float) * np.asarray(self.x0, dtype=float) \
            + np.asarray(inner.x0, dtype=float)
        return ScalingContext(lam=self.lam * inner.lam, mu=self.mu * inner.mu,
                              x0=float(x0) if np.ndim(x0) == 0 else x0)


def rescale_problem(P: ProblemParams, ctx: ScalingContext) -> ProblemParams:
    """Transformed problem data (kernels, coefficient, source, same c_hat)."""
    e = P.exponents
    lam, mu = ctx.lam, ctx.mu
    x0 = ctx.x0

    def wrap_kernel(K: KernelField) -> KernelField:
        so = K.exponent  # n + (order product)
        fac = mu ** so

        def ev(x, y, _K=K.eval, _fac=fac):
            return _fac * _K(_sh(x, mu, x0), mu * np.asarray(y, dtype=float))

        return KernelField(n=K.n, order=K.order, lam=K.lam, eval=ev,
                           tag=K.tag)

    a_fac = lam ** (e.p - e.q) * mu ** (e.sp - e.tq)

    def a_ev(x, y, _a=P.a.eval, _fac=a_fac):
        return _fac * _a(_sh(x, mu, x0), mu * np.asarray(y, dtype=float))

    a_new = CoefficientField(n=P.n, bound=a_fac * P.a.bound, eval=a_ev,
                             tag=P.a.tag, depends_on_offset=P.a.depends_on_offset)

    f_fac = lam ** (e.p - 1.0) * mu ** e.sp

    def f_ev(x, _f=P.f.eval, _fac=f_fac):
        return _fac * _f(_sh(x, mu, x0))

    f_new = SourceTerm(eval=f_ev, sup=f_fac * P.f.sup, tag=P.f.tag)
    return ProblemParams(exponents=e, Ksp=wrap_kernel(P.Ksp),
                         Ktq=wrap_kernel(P.Ktq), a=a_new, c_hat=P.c_hat,
                         f=f_new)


def _sh(x, mu, x0):
    return mu * np.asarray(x, dtype=float) + x0


def rescale_gridfunction(u: GridFunction, ctx: ScalingContext) -> GridFunction:
    """Resample lambda * u(mu x + x0) onto the box (box - x0)/mu, on u's
    number of nodes.  The exterior wraps u's own glued evaluator, so the
    transform is exact (lazily composed) outside the new box.
    """
    def rescaled(z):
        return ctx.lam * np.asarray(u(_sh(z, ctx.mu, ctx.x0)), dtype=float)

    return sample(rescaled, u.n, u.R / ctx.mu, u.N, callable_exterior(rescaled))


def scaling_identity_check(u: GridFunction, P: ProblemParams,
                           ctx: ScalingContext,
                           Q: QuadratureSpec | None = None) -> float:
    """Max relative discrepancy of the scaling covariance at 8 probe points.

    Evaluates L_hat(lambda u(mu . + x0)) and lambda^(p-1) mu^sp (L u)(mu x + x0)
    by independent quadratures and compares.
    """
    Q = Q or QuadratureSpec()
    e = P.exponents
    P_hat = rescale_problem(P, ctx)
    w = rescale_gridfunction(u, ctx)
    margin_w = Q.near_radius(w.h) * 1.01 + w.h
    margin_u = Q.near_radius(u.h) * 1.01 + u.h
    span_w = w.R - margin_w
    span_u = (u.R - margin_u - abs(np.max(np.abs(np.asarray(ctx.x0))))) / ctx.mu
    span = 0.9 * min(span_w, span_u)
    if span <= 0:
        raise ValueError("no probe window: transform pushes probes out of the box")
    if u.n == 1:
        xs = np.linspace(-span, span, 8)
    else:
        xs = np.stack([np.linspace(-span, span, 8),
                       np.linspace(span, -span, 8)], axis=-1) / math.sqrt(2.0)
    fac = ctx.lam ** (e.p - 1.0) * ctx.mu ** e.sp
    worst = 0.0
    for x in xs:
        lhs, el = evaluate(w, x, P_hat, Q)
        rhs_val, er = evaluate(u, _sh(x, ctx.mu, ctx.x0), P, Q)
        rhs = fac * rhs_val
        scale = max(abs(lhs), abs(rhs), 1e-12)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


# --------------------------------------------------------------------------
# Blow-up step of the dyadic induction.

@dataclass
class BlowupReport:
    sup_interior: float
    sup_ok: bool
    f_sup: float
    f_ok: bool
    a_sup_probe: float
    a_bound_formula: float
    a_ok: bool
    exterior_ok: bool
    exterior_witness: float | None
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def blowup_step(u_tilde: GridFunction, j: int, gamma: float, m: float,
                x0: float, P_tilde: ProblemParams, sign: float = 1.0,
                upper_chain=None, lower_chain=None, sigma_val: float | None = None,
                eta: float | None = None, N: int = 513,
                M_bar: float | None = None):
    """One dyadic blow-up: u_bar(x) = sign * 2^(gamma j + 1) (u~(2^-j x + x0) - m).

    Returns (u_bar, P_bar, report).  The exterior of u_bar is the analytic
    dyadic envelope built from the induction chains (not resampled data);
    the report verifies the interior bound, the source bound against sigma,
    the coefficient bound, and the exterior-growth chain, naming each
    failure instead of asserting.
    """
    lam_j = 2.0 ** (gamma * j + 1.0)
    mu_j = 2.0 ** (-float(j))
    # Envelope shells: on 2^l <= |y| < 2^(l+1) the chain value at level
    # i = j - l - 1 bounds u_bar; the last shell covers all i <= 0.
    shells = []
    for ell in range(j + 1):
        i = j - ell - 1
        if sign > 0:
            ci = _chain_at(upper_chain, i)
            shells.append(lam_j * (ci - m))
        else:
            bi = _chain_at(lower_chain, i)
            shells.append(lam_j * (m - bi))
    ext = dyadic_exterior(shells)
    R_bar = 1.0
    xs = np.linspace(-R_bar, R_bar, N)
    vals = sign * lam_j * (u_tilde(mu_j * xs + x0) - m)
    u_bar = GridFunction(n=1, R=R_bar, values=vals, exterior=ext)
    P_bar = rescale_problem(P_tilde, ScalingContext(lam=lam_j, mu=mu_j, x0=x0))

    failures = []
    sup_int = float(np.max(np.abs(vals)))
    sup_ok = sup_int <= 1.0 + 1e-9
    if not sup_ok:
        failures.append(f"interior bound: sup |u_bar| = {sup_int:.6g} > 1")
    f_probe = np.linspace(-1.0, 1.0, 257)
    f_sup = float(np.max(np.abs(np.asarray(P_bar.f(f_probe), dtype=float))))
    f_ok = sigma_val is None or f_sup <= sigma_val * (1 + 1e-9)
    if not f_ok:
        failures.append(f"source bound: ||f_bar|| = {f_sup:.6g} > sigma = {sigma_val:.6g}")
    rng = np.random.default_rng(1234)
    ax = rng.uniform(-1.0, 1.0, 10_000)
    ay = rng.uniform(-8.0, 8.0, 10_000)
    a_sup = float(np.max(np.asarray(P_bar.a.eval(ax, ay), dtype=float)))
    a_formula = P_bar.a.bound
    a_ok = a_sup <= a_formula + 1e-12
    if M_bar is not None and a_sup > M_bar + 1e-12:
        a_ok = False
        failures.append(f"coefficient bound: sup a_bar = {a_sup:.6g} > M_bar = {M_bar:.6g}")
    elif not a_ok:
        failures.append(f"coefficient bound: sup a_bar = {a_sup:.6g} > formula = {a_formula:.6g}")
    ext_ok, witness = _exterior_chain_ok(ext, gamma, eta)
    if not ext_ok:
        failures.append(f"exterior growth: envelope exceeds 2|2y|^gamma - 1 at |y| = {witness:.6g}")
    report = BlowupReport(sup_interior=sup_int, sup_ok=sup_ok, f_sup=f_sup,
                          f_ok=f_ok, a_sup_probe=a_sup,
                          a_bound_formula=a_formula, a_ok=a_ok,
                          exterior_ok=ext_ok, exterior_witness=witness,
                          failures=failures)
    return u_bar, P_bar, report


def _chain_at(chain, i: int) -> float:
    """Chain value at level i; levels i <= 0 share the seed entry."""
    if chain is None:
        raise ValueError("blow-up needs the induction chains")
    if i < 0:
        return float(chain[0])
    if i >= len(chain):
        return float(chain[-1])
    return float(chain[i])


def _exterior_chain_ok(ext, gamma: float, eta: float | None):
    # check at shell left edges (the envelope is piecewise constant)
    radii = 2.0 ** np.arange(0, len(ext.shells) + 2) * 1.0
    vals = ext(radii, 1)
    bad = np.zeros(len(radii), dtype=bool)
    for e in (gamma, eta):
        if e is not None:
            bad |= vals > growth_exterior(e)(radii) + 1e-9
    return (False, float(radii[bad][0])) if bad.any() else (True, None)
