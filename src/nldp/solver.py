"""Desk-scale solver for L u = f on a box with prescribed exterior data.

The scheme is damped pseudo-time fixed-point iteration on the discretised
operator: u <- u - tau * B(L u - f) at interior nodes with the exterior
(and the boundary pair of nodes) frozen, tau adapted by residual
backtracking (halve on increase, grow 1.1x on decrease).

The fractional stiffness of the operator scales like h^-sp, so plain
scalar damping (B the identity) needs O(h^-sp log 1/tol) sweeps and
becomes impractical at fine grids.  In 1-D at p = 2, where the p-phase is
linear, B is therefore the inverse of the assembled kernel-mass matrix
(the p-phase mass plus the secant-linearised q-phase mass), which cuts
desk-scale solves to a few dozen sweeps.  Every other case uses scalar
damping; in 2-D it starts from the step 1/diag given by the diagonal
kernel mass.  The update rule, backtracking, stopping tests, and report
contract are the same either way, and continuation stages apply in both
dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from .errors import ConfigError
from .grid import Exterior, GridFunction, constant_exterior
from .operator import QuadratureSpec, apply_grid
from .params import ProblemParams

__all__ = ["SolveConfig", "SolveReport", "solve", "residual",
           "kernel_mass_matrix"]


@dataclass(frozen=True)
class SolveConfig:
    R: float = 2.0
    N: int = 257
    exterior: Exterior = field(default_factory=constant_exterior)
    tau0: float = 0.5
    residual_tol: float = 1e-8
    max_iters: int = 50_000
    continuation: tuple[tuple[float, float], ...] | None = None
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if self.residual_tol <= 0 or self.tau0 <= 0:
            raise ValueError("residual_tol and tau0 must be positive")


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    residual_history: list[float]
    flags: str  # "converged" | "stalled" | "diverged" | "max_iters"

    @property
    def converged(self) -> bool:
        return self.flags == "converged"


def kernel_mass_matrix(P: ProblemParams, R: float, N: int,
                       values: np.ndarray) -> np.ndarray:
    """Matrix of the linearised kernel mass of the operator on the N nodes.

    The solver factors its interior block.  Exact for the p = 2 phase up to quadrature-layout differences (cell
    integrals of the kernel plus the near-field second-difference weight).
    The q phase is secant-linearised around the iterate ``values``: its
    weights carry (q-1) |du|^(q-2), which is exactly 1 at q = 2 and is what
    makes the preconditioned sweep contract at O(1) data amplitudes.
    Positive-definite M-matrix; used as the preconditioner only, never as
    the residual's definition.
    """
    if P.n != 1:
        raise ConfigError("matrix preconditioning is 1-D only")
    e = P.exponents
    xs = np.linspace(-R, R, N)
    h = xs[1] - xs[0]
    A = np.zeros((N, N))
    kk = np.arange(1, N)
    mid = kk * h
    diag = np.arange(N)
    rows = diag[:, None]
    inner = diag[1:-1]
    # Per side: the offsets y = +-mid broadcast against the nodes, |du|
    # across them (offsets past the box read the boundary node), and the
    # in-box entries with the matrix cells they land on.
    sides = []
    for sign in (1, -1):
        x, y = np.broadcast_arrays(xs[:, None], sign * mid)
        cols = rows + sign * kk
        dv = np.abs(values[:, None] - values[np.clip(cols, 0, N - 1)])
        ok = (cols >= 0) & (cols < N)
        sides.append((x, y, dv, ok, (np.nonzero(ok)[0], cols[ok])))

    def add_phase(kexp: float, kernel, coeff, scale: float, q: float):
        lo = (kk - 0.5) * h
        hi = (kk + 0.5) * h
        cell = (lo ** (-kexp) - hi ** (-kexp)) / kexp
        ws = [scale * coeff(x, y) * (kernel.eval(x, y) * mid ** (1.0 + kexp))
              * cell * (q - 1.0) * (dv + 1e-6) ** (q - 2.0)
              for x, y, dv, _, _ in sides]
        A[diag, diag] += np.sum(ws[0], axis=1) + np.sum(ws[1], axis=1)
        for w, (_, _, _, ok, cells) in zip(ws, sides):
            A[cells] -= w[ok]
        # near field (0, h/2): pair ~ -u'' y^2 maps onto a second difference
        w0 = (h / 2.0) ** (2.0 - kexp) / (2.0 - kexp) / (h * h)
        x0 = xs[inner]
        w = scale * coeff(x0, h / 4.0) * (kernel.eval(x0, np.asarray([h / 4.0]))
                                          * (h / 4.0) ** (1.0 + kexp)) * w0
        A[inner, inner] += 2.0 * w
        A[inner, inner - 1] -= w
        A[inner, inner + 1] -= w

    # The p-phase enters at secant exponent 2, i.e. linearly: exact at p = 2,
    # the only case the solver builds this matrix for.
    add_phase(e.sp, P.Ksp, lambda x, y: 1.0, 1.0, 2.0)
    add_phase(e.tq, P.Ktq, P.a.eval, P.c_hat, e.q)
    return A


def _node_points(n: int, R: float, N: int) -> np.ndarray:
    """Grid node coordinates: the (N,) nodes in 1-D, the (N, N, 2) stack in 2-D."""
    xs = np.linspace(-R, R, N)
    if n == 1:
        return xs
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return np.stack([gx, gy], axis=-1)


def _initial_values(cfg: SolveConfig, pts: np.ndarray, n: int) -> np.ndarray:
    try:
        vals = np.asarray(cfg.exterior(pts, n), dtype=float)
        if vals.shape != pts.shape[:n] or not np.all(np.isfinite(vals)):
            raise ValueError
        return vals
    except Exception:
        return np.zeros(pts.shape[:n])


def residual(u: GridFunction, P: ProblemParams,
             Q: QuadratureSpec | None = None) -> float:
    """Max-norm of L u - f over interior nodes."""
    r = _residual_vec(u, P, Q or QuadratureSpec())
    return float(np.max(np.abs(r[(slice(1, u.N - 1),) * u.n])))


def _residual_vec(u: GridFunction, P: ProblemParams, Q: QuadratureSpec):
    vals = apply_grid(u, P, Q)
    fv = np.asarray(P.f(_node_points(u.n, u.R, u.N)), dtype=float)
    return vals - fv


def solve(P: ProblemParams, cfg: SolveConfig):
    """Solve L u = f; returns (GridFunction, SolveReport).

    Exterior data stays frozen (including the boundary node pair, which
    pins the glue seam).  Optional continuation warm-starts the target
    exponents from easier ones.
    """
    bad = P.validation_report()
    if bad:
        raise ConfigError("exponent assumptions violated: " + "; ".join(bad))
    stages = list(cfg.continuation) if cfg.continuation else []
    stages.append((P.exponents.p, P.exponents.q))
    pts = _node_points(P.n, cfg.R, cfg.N)
    u = GridFunction(n=P.n, R=cfg.R, values=_initial_values(cfg, pts, P.n),
                     exterior=cfg.exterior)
    report = None
    for (p_stage, q_stage) in stages:
        e = replace(P.exponents, p=float(p_stage), q=float(q_stage))
        P_stage = replace(P, exponents=e)
        loose = (p_stage, q_stage) != stages[-1]
        tol = max(cfg.residual_tol, 1e-4) if loose else cfg.residual_tol
        u, report = _solve_stage(P_stage, cfg, u, tol)
        if report.flags == "diverged":
            break
    return u, report


def _solve_stage(P: ProblemParams, cfg: SolveConfig, u: GridFunction,
                 tol: float):
    Q = cfg.quadrature
    inner = slice(1, u.N - 1)
    interior = (inner,) * u.n
    r = _residual_vec(u, P, Q)
    rnorm = float(np.max(np.abs(r[interior])))
    history = [rnorm]
    if rnorm <= tol:
        return u, SolveReport(iterations=0, final_residual=rnorm,
                              residual_history=history, flags="converged")

    use_matrix = u.n == 1 and P.exponents.p == 2.0
    lu = None
    tau = cfg.tau0
    tau_max = math.inf
    rebuild_every = 60
    if use_matrix:
        A = kernel_mass_matrix(P, cfg.R, cfg.N, values=u.values)
        lu = sla.lu_factor(A[inner, inner])
        tau_max = 1.0
        tau = min(tau, tau_max)
    elif u.n == 2:
        # Scalar stiffness bound: the diagonal kernel mass.
        e = P.exponents
        xs = u.nodes
        h = xs[1] - xs[0]
        diag = 4.0 * (h / 2.0) ** (-e.sp) / e.sp + \
            4.0 * P.c_hat * P.a.bound * (h / 2.0) ** (-e.tq) / e.tq
        tau = min(tau, 1.0 / diag)
    # Backtracking monitors the l2 residual (the max norm is not monotone
    # under the sweep: single near-seam components rise transiently while
    # the energy norm contracts); the stopping test stays in the max norm.
    rnorm2 = float(np.linalg.norm(r[interior]))
    r0 = rnorm
    halvings = 0
    iters = 0
    values = u.values.copy()
    while iters < cfg.max_iters:
        iters += 1
        if lu is not None:
            if iters % rebuild_every == 0 and P.exponents.q != 2.0:
                A = kernel_mass_matrix(P, cfg.R, cfg.N, values=values)
                lu = sla.lu_factor(A[inner, inner])
            direction = sla.lu_solve(lu, r[interior])
        else:
            direction = r[interior]
        trial = values.copy()
        trial[interior] = values[interior] - tau * direction
        u_trial = u.with_values(trial)
        r_trial = _residual_vec(u_trial, P, Q)
        rnorm2_trial = float(np.linalg.norm(r_trial[interior]))
        if rnorm2_trial > rnorm2 * (1.0 + 1e-12):
            tau *= 0.5
            halvings += 1
            if halvings >= 200:
                return u, SolveReport(iterations=iters, final_residual=rnorm,
                                      residual_history=history, flags="stalled")
            continue
        halvings = 0
        values = trial
        u = u_trial
        r = r_trial
        rnorm2 = rnorm2_trial
        rnorm = float(np.max(np.abs(r[interior])))
        history.append(rnorm)
        tau = min(tau * 1.1, tau_max)
        if rnorm <= tol:
            return u, SolveReport(iterations=iters, final_residual=rnorm,
                                  residual_history=history, flags="converged")
        if rnorm > 1e6 * max(r0, 1e-30):
            return u, SolveReport(iterations=iters, final_residual=rnorm,
                                  residual_history=history, flags="diverged")
    return u, SolveReport(iterations=iters, final_residual=rnorm,
                          residual_history=history, flags="max_iters")
