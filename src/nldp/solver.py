"""Desk-scale solver for L u = f on a box with prescribed exterior data.

The scheme is damped pseudo-time fixed-point iteration on the discretised
operator: u <- u - tau * A^-1 (L u - f) at interior nodes with the exterior
(and the boundary pair of nodes) frozen, tau adapted by residual
backtracking (start at 0.5, halve on increase, grow 1.1x on decrease).

The fractional stiffness of the operator scales like h^-sp, so a scalar
step would need O(h^-sp log 1/tol) sweeps.  A is therefore the
kernel-mass matrix of the operator (``operator.kernel_mass_matrix``),
read off the plan of the grid apply with both phases secant-linearised at
the stage's first iterate, and its interior block is inverted once per
stage, so a step is one matrix-vector product.  One step rule serves every
n, p and q; continuation stages warm start the target exponents from
easier ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .grid import Exterior, GridFunction, constant_exterior, grid_points
from .operator import QuadratureSpec, apply_grid, kernel_mass_matrix
from .params import ProblemParams

__all__ = ["SolveConfig", "SolveReport", "solve", "residual",
           "kernel_mass_matrix"]


@dataclass(frozen=True)
class SolveConfig:
    R: float = 2.0
    N: int = 257
    exterior: Exterior = field(default_factory=constant_exterior)
    residual_tol: float = 1e-8
    max_iters: int = 50_000
    continuation: tuple[tuple[float, float], ...] | None = None
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.N < 3:
            raise ValueError(f"solve.N = {self.N}: need 3 or more nodes")


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    residual_history: list[float]
    flags: str  # "converged" | "stalled" | "diverged" | "max_iters"

    @property
    def converged(self) -> bool:
        return self.flags == "converged"


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
    fv = np.asarray(P.f(grid_points(u.n, u.R, u.N)), dtype=float)
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
    pts = grid_points(P.n, cfg.R, cfg.N)
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
    interior = (slice(1, u.N - 1),) * u.n
    r = _residual_vec(u, P, Q)
    rnorm = float(np.max(np.abs(r[interior])))
    history = [rnorm]
    if rnorm <= tol:
        return u, SolveReport(iterations=0, final_residual=rnorm,
                              residual_history=history, flags="converged")

    # The step: the kernel-mass matrix at this iterate, interior block
    # inverted once for the stage.
    ids = np.arange(r.size).reshape(r.shape)[interior].ravel()
    A_inv = np.linalg.inv(kernel_mass_matrix(u, P, Q)[np.ix_(ids, ids)])
    tau = 0.5
    # Backtracking monitors the l2 residual (the max norm is not monotone
    # under the sweep: single near-seam components rise transiently while
    # the energy norm contracts); the stopping test stays in the max norm.
    rnorm2 = float(np.linalg.norm(r[interior]))
    r0 = rnorm
    halvings = 0
    iters = 0
    while iters < cfg.max_iters:
        iters += 1
        direction = A_inv @ r[interior].ravel()
        trial = u.values.copy()
        trial[interior] -= tau * direction.reshape(r[interior].shape)
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
        u = u_trial
        r = r_trial
        rnorm2 = rnorm2_trial
        rnorm = float(np.max(np.abs(r[interior])))
        history.append(rnorm)
        tau *= 1.1
        if rnorm <= tol:
            return u, SolveReport(iterations=iters, final_residual=rnorm,
                                  residual_history=history, flags="converged")
        if rnorm > 1e6 * max(r0, 1e-30):
            return u, SolveReport(iterations=iters, final_residual=rnorm,
                                  residual_history=history, flags="diverged")
    return u, SolveReport(iterations=iters, final_residual=rnorm,
                          residual_history=history, flags="max_iters")
