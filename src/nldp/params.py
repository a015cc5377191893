"""Structural data of the problem: exponents, kernels, coefficient, barrier.

Everything here is immutable after construction and evaluator callables are
pure, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NldpError

# Surface measure of the unit sphere for the supported dimensions.  The
# source text never fixes its omega_n convention, so it is pinned here and
# every consumer of it treats derived closed-form bands as soft checks.
OMEGA_N = {1: 2.0, 2: 2.0 * math.pi}


@dataclass(frozen=True)
class Exponents:
    """Differentiability orders (s, t) and summability exponents (p, q)."""

    n: int
    s: float
    t: float
    p: float
    q: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only n in {1, 2} is supported")

    @property
    def sp(self) -> float:
        return self.s * self.p

    @property
    def tq(self) -> float:
        return self.t * self.q

    def eta_threshold(self) -> float:
        """Largest admissible exterior-growth exponent: min{sp/(p-1), tq/(q-1)}."""
        return min(self.sp / (self.p - 1.0), self.tq / (self.q - 1.0))


def validate_exponents(e: Exponents, homogeneous: bool = False,
                       pure_p: bool = False) -> list[str]:
    """Check the standing exponent assumptions.

    Returns a list of violated conditions (empty means ok).  Violations are
    data, not failures.  ``homogeneous=True`` relaxes the upper bound on q/p
    from min{s/t, 1+s} to s/t, the improvement available for zero sources;
    that relaxed mode is experimental and only alters this one bound.
    ``pure_p=True`` (coefficient identically zero, so no q-phase exists)
    waives the q-conditions, which are only there for the modulated term.
    """
    bad: list[str] = []
    for name in ("s", "t", "p", "q"):
        if not math.isfinite(getattr(e, name)):
            bad.append(f"{name} not finite")
    if bad:
        return bad
    if not 0.0 < e.s < 1.0:
        bad.append(f"s={e.s} outside (0,1)")
    if not 0.0 < e.t < 1.0:
        bad.append(f"t={e.t} outside (0,1)")
    if not 1.0 < e.p:
        bad.append(f"p={e.p} must exceed 1")
    if not e.p <= e.q:
        bad.append(f"q={e.q} < p={e.p}")
    if bad:
        return bad
    if e.p < 2.0 and e.p <= 1.0 / (1.0 - e.s):
        bad.append(f"p={e.p} < 2 requires p > 1/(1-s) = {1.0 / (1.0 - e.s):.6g}")
    if pure_p:
        return bad
    if e.q <= 1.0 / (1.0 - e.t):
        bad.append(f"q={e.q} must exceed 1/(1-t) = {1.0 / (1.0 - e.t):.6g}")
    ratio_cap = e.s / e.t if homogeneous else min(e.s / e.t, 1.0 + e.s)
    if e.q / e.p > ratio_cap + 1e-15:
        cap_desc = "s/t" if homogeneous else "min{s/t, 1+s}"
        bad.append(f"q/p={e.q / e.p:.6g} > {cap_desc} = {ratio_cap:.6g}")
    return bad


class BoundViolation(NldpError):
    """A declared field bound failed at a construction-time probe."""


def _probe_points(n: int, count: int, seed: int = 0) -> np.ndarray:
    # 1-D points are plain scalars; 2-D points carry a trailing axis of 2.
    rng = np.random.default_rng(seed)
    if n == 1:
        return rng.uniform(-2.0, 2.0, size=count)
    return rng.uniform(-2.0, 2.0, size=(count, n))


@dataclass(frozen=True)
class KernelField:
    """Measurable kernel comparable to the Gagliardo kernel |y|^(-n-sp).

    ``eval(x, y)`` must be vectorised: x with shape (..., n) or scalar-like,
    y with shape (..., n); returns positive reals.  The ellipticity constant
    ``lam`` bounds K between lam^-1 and lam multiples of the model kernel.
    """

    n: int
    order: tuple[float, float]  # (differentiability, summability)
    lam: float
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tag: str = "custom"

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("ellipticity constant must be positive")
        self._probe_bounds()

    @property
    def exponent(self) -> float:
        s, p = self.order
        return self.n + s * p

    def __call__(self, x, y):
        return self.eval(x, y)

    def model(self, y: np.ndarray) -> np.ndarray:
        r = _norm(y, self.n)
        return r ** (-self.exponent)

    def _probe_bounds(self):
        pts = _probe_points(self.n, 1000, seed=7)
        offs = _probe_points(self.n, 1000, seed=11)
        keep = _norm(offs, self.n) > 1e-9
        offs, pts = offs[keep], pts[keep]
        vals = np.asarray(self.eval(pts, offs), dtype=float)
        ref = self.model(offs)
        tol = 1e-9
        if np.any(vals < ref / self.lam * (1 - tol)) or np.any(vals > ref * self.lam * (1 + tol)):
            raise BoundViolation("kernel escapes its declared Lambda-band at a probe point")
        sym = np.asarray(self.eval(pts, -offs), dtype=float)
        if np.any(np.abs(sym - vals) > 1e-12 * np.maximum(vals, 1.0)):
            raise BoundViolation("kernel is not symmetric in y at a probe point")


def _norm(y: np.ndarray, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if n == 1:
        return np.abs(y)
    return np.sqrt(np.sum(y * y, axis=-1))


def gagliardo_kernel(n: int, s: float, p: float) -> KernelField:
    """The model kernel |y|^(-n-sp) with Lambda = 1."""
    expo = n + s * p

    def ev(x, y):
        r = _norm(y, n)
        return r ** (-expo)

    return KernelField(n=n, order=(s, p), lam=1.0, eval=ev, tag="gagliardo")


def scaled_kernel(n: int, s: float, p: float, lam: float) -> KernelField:
    """Gagliardo kernel modulated by a smooth x-dependent factor in the
    Lambda-band.  Artifact plumbing: the source text fixes no non-model
    kernel, so this provides a concrete in-band example."""
    if not lam >= 1.0:
        raise ValueError("lam must be >= 1")
    amp = math.log(lam)
    expo = n + s * p

    def ev(x, y):
        x = np.asarray(x, dtype=float)
        x1 = x if n == 1 else x[..., 0]
        r = _norm(y, n)
        return np.exp(amp * np.sin(3.0 * x1)) * r ** (-expo)

    return KernelField(n=n, order=(s, p), lam=lam, eval=ev, tag="scaled")


def table_kernel(n: int, s: float, p: float, lam: float,
                 radii: np.ndarray, factors: np.ndarray) -> KernelField:
    """Kernel |y|^(-n-sp) times a tabulated radial factor (log-interpolated)."""
    radii = np.asarray(radii, dtype=float)
    factors = np.asarray(factors, dtype=float)
    if np.any(factors < 1.0 / lam) or np.any(factors > lam):
        raise BoundViolation("table factors escape the Lambda-band")
    expo = n + s * p

    def ev(x, y):
        r = _norm(y, n)
        fac = np.interp(np.log(np.maximum(r, 1e-300)), np.log(radii), factors)
        return fac * r ** (-expo)

    return KernelField(n=n, order=(s, p), lam=lam, eval=ev, tag="custom-table")


@dataclass(frozen=True)
class CoefficientField:
    """Modulating coefficient a(x, y), measurable with 0 <= a <= M.

    ``depends_on_offset`` declares whether a genuinely varies with the sign
    of y; offset-independent coefficients admit the stronger near-field
    cancellation (the symmetric-coefficient bound), which the quadrature
    layer exploits when grading panels.
    """

    n: int
    bound: float
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tag: str = "custom"
    depends_on_offset: bool = True

    def __post_init__(self):
        if not self.bound >= 0:
            raise ValueError("coefficient bound must be nonnegative")
        pts = _probe_points(self.n, 1000, seed=23)
        offs = _probe_points(self.n, 1000, seed=29)
        vals = np.asarray(self.eval(pts, offs), dtype=float)
        if np.any(vals < -1e-12) or np.any(vals > self.bound + 1e-12 * max(self.bound, 1.0)):
            raise BoundViolation("coefficient escapes [0, M] at a probe point")


def _points_shape(y, n: int) -> tuple:
    """The shape of an array of points in R^n: that of |y|."""
    return np.shape(y) if n == 1 else np.shape(y)[:-1]


def constant_coefficient(n: int, value: float) -> CoefficientField:
    def ev(x, y):
        shape = np.broadcast_shapes(_points_shape(x, n), _points_shape(y, n))
        return np.full(shape, value, dtype=float)

    return CoefficientField(n=n, bound=value, eval=ev, tag="constant",
                            depends_on_offset=False)


def halfspace_coefficient(n: int, value: float) -> CoefficientField:
    """a(x, y) = value on {x_1 > 0}, zero elsewhere (frozen x-dependence)."""

    def ev(x, y):
        x = np.asarray(x, dtype=float)
        x1 = x if n == 1 else x[..., 0]
        out = np.where(x1 > 0.0, value, 0.0)
        return np.broadcast_to(out, np.broadcast_shapes(
            np.shape(out), _points_shape(y, n))).copy()

    return CoefficientField(n=n, bound=value, eval=ev, tag="indicator-of-halfspace",
                            depends_on_offset=False)


def checkerboard_coefficient(n: int, value: float, cell: float = 0.5) -> CoefficientField:
    def ev(x, y):
        x = np.asarray(x, dtype=float)
        if n == 1:
            idx = np.floor(x / cell)
        else:
            idx = np.floor(x[..., 0] / cell) + np.floor(x[..., 1] / cell)
        out = np.where(np.mod(idx, 2) == 0, value, 0.0)
        return np.broadcast_to(out, np.broadcast_shapes(
            np.shape(out), _points_shape(y, n))).copy()

    return CoefficientField(n=n, bound=value, eval=ev, tag="checkerboard",
                            depends_on_offset=False)


def holder_coefficient(n: int, value: float, alpha: float) -> CoefficientField:
    """a(x, y) = min(|x - y|^alpha, M): Holder-continuous in the pair."""

    def ev(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = np.abs(x - y) if n == 1 else _norm(x - y, n)
        return np.minimum(d ** alpha, value)

    return CoefficientField(n=n, bound=value, eval=ev, tag="holder",
                            depends_on_offset=True)


@dataclass(frozen=True)
class SourceTerm:
    """Right-hand side carried with an explicitly declared sup bound."""

    eval: Callable[[np.ndarray], np.ndarray]
    sup: float
    tag: str = "custom"

    def __call__(self, x):
        return self.eval(x)


def constant_source(value: float) -> SourceTerm:
    def ev(x):
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1] if x.ndim > 1 else x.shape
        return np.full(shape if shape else (), value, dtype=float)

    return SourceTerm(eval=ev, sup=abs(value), tag="constant")


def gaussian_source(amplitude: float, width: float = 1.0) -> SourceTerm:
    def ev(x):
        x = np.asarray(x, dtype=float)
        r2 = x * x if x.ndim <= 1 else np.sum(x * x, axis=-1)
        return amplitude * np.exp(-r2 / (width * width))

    return SourceTerm(eval=ev, sup=abs(amplitude), tag="gaussian")


@dataclass(frozen=True)
class ProblemParams:
    """The full data tuple: exponents, kernels, coefficient, dilation, source."""

    exponents: Exponents
    Ksp: KernelField
    Ktq: KernelField
    a: CoefficientField
    c_hat: float = 1.0
    f: SourceTerm = field(default_factory=lambda: constant_source(0.0))

    def __post_init__(self):
        if not self.c_hat > 0:
            raise ValueError("dilation constant c_hat must be positive")
        e = self.exponents
        if self.Ksp.n != e.n or self.Ktq.n != e.n or self.a.n != e.n:
            raise ValueError("dimension mismatch between exponents and fields")

    @property
    def n(self) -> int:
        return self.exponents.n

    @property
    def M_hat(self) -> float:
        """Effective coefficient bound c_hat * M of the dilated operator."""
        return self.c_hat * self.a.bound

    def validation_report(self) -> list[str]:
        return validate_exponents(self.exponents, pure_p=self.a.bound == 0.0)


def model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2, lam=1.0, M=1.0,
                 c_hat=1.0, f: SourceTerm | None = None,
                 coefficient: CoefficientField | None = None) -> ProblemParams:
    """Desk-scale model problem: Gagliardo kernels, constant coefficient."""
    e = Exponents(n=n, s=s, t=t, p=p, q=q)
    ksp = gagliardo_kernel(n, s, p) if lam == 1.0 else scaled_kernel(n, s, p, lam)
    ktq = gagliardo_kernel(n, t, q) if lam == 1.0 else scaled_kernel(n, t, q, lam)
    coeff = coefficient if coefficient is not None else constant_coefficient(n, M)
    return ProblemParams(exponents=e, Ksp=ksp, Ktq=ktq, a=coeff, c_hat=c_hat,
                         f=f if f is not None else constant_source(0.0))


# --------------------------------------------------------------------------
# Barrier: the fixed radial bump ((1 - |x|^2)+)^2.

def barrier_eval(x) -> np.ndarray:
    """beta(x) = ((1 - |x|^2)+)^2, radial, C^2, supported in the unit ball."""
    x = np.asarray(x, dtype=float)
    r2 = x * x if x.ndim <= 1 else np.sum(x * x, axis=-1)
    core = np.maximum(0.0, 1.0 - r2)
    return core * core


def barrier_grad(x) -> np.ndarray:
    """Gradient of the barrier: -4 x (1 - |x|^2)+ componentwise."""
    x = np.asarray(x, dtype=float)
    r2 = x * x if x.ndim <= 1 else np.sum(x * x, axis=-1)
    core = np.maximum(0.0, 1.0 - r2)
    if x.ndim <= 1:
        return -4.0 * x * core
    return -4.0 * x * core[..., None]


def barrier_hess(x) -> np.ndarray:
    """Hessian of the barrier; zero (like the function) outside the ball."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim == 1:
        pts = x[None, :]
        squeeze = True
    else:
        pts = x
        squeeze = False
    n = pts.shape[-1]
    r2 = np.sum(pts * pts, axis=-1)
    inside = r2 < 1.0
    out = np.zeros(pts.shape[:-1] + (n, n))
    eye = np.eye(n)
    out[inside] = (8.0 * pts[inside, :, None] * pts[inside, None, :]
                   - 4.0 * (1.0 - r2[inside])[..., None, None] * eye)
    return out[0] if squeeze else out


# Paper-declared C1/C2 bounds for the barrier (loose; true maxima are
# ~1.5396 and 8).
BARRIER_C1 = 8.0
BARRIER_C2 = 16.0
