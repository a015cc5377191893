"""Desk-scale solver for L u = f on a box with prescribed exterior data.

``solve`` is one damped Newton loop on the discretised operator at the
interior nodes, from the exterior data at the target exponents, with the
exterior (and the boundary pair of nodes) frozen.  A step solves
J_II g = r_I, J_II the Jacobian of the planned operator on the interior
nodes alone, built from their entries only
(``operator.kernel_mass_matrix``, with phi' shifted at d = 0 by 1e-12 in a
phase r < 2 and by 1e-6 in a phase r > 2), tries u - lam g from lam = 1
and halves lam while the l2 residual does not fall (Deuflhard, *Newton
Methods for Nonlinear Problems*, 2004).  The inverse of J_II is kept after a
full step that cut the l2 residual fourfold, and rebuilt at the new iterate
otherwise.  On flat data J at p > 2 is only its regularisation, so there the
halving takes the residual ratio to the power 1/(p-1) when that is smaller.

On a kept inverse the steps are a fixed-point iteration x -> x - g(x) that
converges linearly, so from the third step on one inverse a type-II
Anderson candidate (Walker & Ni, *SIAM J. Numer. Anal.* 49, 2011) is tried
first: x - g + (dG - dX) gamma, gamma the least-squares fit of g on the
differences dG of the last ``ANDERSON_DEPTH`` + 1 pairs (x, g) taken on
that inverse, dX those of their iterates.  It is accepted when it lowers
the l2 residual, and the damped step runs otherwise; the pairs are dropped
at every rebuild.  Flat data (a constant exterior equal to every value) has
L u = 0 exactly, so its residual is -f with no sweep.  One step rule serves
every n, p and q.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import Exterior, GridFunction, constant_exterior, grid_points
from .operator import QuadratureSpec, apply_grid, kernel_mass_matrix
from .params import ProblemParams

__all__ = ["SolveConfig", "SolveReport", "solve", "residual"]

logger = logging.getLogger(__name__)

ANDERSON_DEPTH = 3   # difference columns of an Anderson candidate, at most
ANDERSON_START = 3   # the first step on one inverse that tries a candidate


@dataclass(frozen=True)
class SolveConfig:
    R: float = 2.0
    N: int = 257
    exterior: Exterior = field(default_factory=constant_exterior)
    residual_tol: float = 1e-8
    max_iters: int = 50_000
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive")
        if not self.R > 0:
            raise ValueError(f"solve.R = {self.R}: need a positive box radius")
        if self.N < 3:
            raise ValueError(f"solve.N = {self.N}: need 3 or more nodes")
        if not self.max_iters >= 1:
            raise ValueError(
                f"solve.max_iters = {self.max_iters}: need 1 or more")


@dataclass
class SolveReport:
    iterations: int                 # trial sweeps, rejected ones included
    final_residual: float
    residual_history: list[float]   # max-norm residual of accepted iterates
    flags: str                      # "converged" | "stalled" | "max_iters"
    jacobians: int = 0              # Jacobian builds
    halvings: int = 0               # rejected damped trials
    accelerated: int = 0            # accepted Anderson candidates
    algebraic_error: float = 0.0    # |J_II^-1 r_I|_inf at the last iterate

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


def _is_flat(u: GridFunction) -> bool:
    return (u.exterior.tag == "constant"
            and bool(np.all(u.values == u.exterior.value)))


def residual(u: GridFunction, P: ProblemParams,
             Q: QuadratureSpec | None = None) -> float:
    """Max-norm of L u - f over interior nodes."""
    r = (apply_grid(u, P, Q or QuadratureSpec())
         - np.asarray(P.f(grid_points(u.n, u.R, u.N))))
    return float(np.max(np.abs(r[(slice(1, u.N - 1),) * u.n])))


def solve(P: ProblemParams, cfg: SolveConfig):
    """Solve L u = f; returns (GridFunction, SolveReport).

    Exterior data stays frozen (including the boundary node pair, which
    pins the glue seam).  Newton starts from the exterior data, or from
    zero where that is undefined, and runs at the exponents of P to
    ``cfg.residual_tol``.
    """
    bad = P.validation_report()
    if bad:
        raise ConfigError("exponent assumptions violated: " + "; ".join(bad))
    t0 = time.perf_counter()
    pts = grid_points(P.n, cfg.R, cfg.N)
    u = GridFunction(n=P.n, R=cfg.R, values=_initial_values(cfg, pts, P.n),
                     exterior=cfg.exterior)
    Q = cfg.quadrature
    f = np.asarray(P.f(pts))
    interior = (slice(1, u.N - 1),) * u.n
    # Every difference of flat data is 0, so its L u is +0.0 at every node.
    Lu = np.zeros_like(u.values) if _is_flat(u) else apply_grid(u, P, Q)
    r = (Lu - f)[interior]
    rnorm = float(np.max(np.abs(r)))
    rep = SolveReport(iterations=0, final_residual=rnorm,
                      residual_history=[rnorm], flags="converged")
    J_inv, rebuild = None, True
    while rep.final_residual > cfg.residual_tol and rep.flags == "converged":
        if rebuild:
            J_inv = np.linalg.inv(kernel_mass_matrix(u, P, Q))
            rep.jacobians += 1
            xs, gs = [], []
        g = J_inv @ r.ravel()
        xs = xs[-ANDERSON_DEPTH:] + [u.values[interior].ravel()]
        gs = gs[-ANDERSON_DEPTH:] + [g]
        step = np.zeros_like(u.values)
        step[interior] = g.reshape(r.shape)
        accel = None
        if len(xs) >= ANDERSON_START:
            dX, dG = np.diff(xs, axis=0).T, np.diff(gs, axis=0).T
            gamma = np.linalg.lstsq(dG, g, rcond=None)[0]
            accel = np.zeros_like(u.values)
            accel[interior] = (g - (dG - dX) @ gamma).reshape(r.shape)
        # Flat data: every difference is 0, and the rescale is exact for a
        # single phase, homogeneous of degree p - 1.
        flat = _is_flat(u)
        rnorm2, lam = float(np.linalg.norm(r)), 1.0
        # The l2 residual must fall, not the max norm: single near-seam
        # components may rise while the whole contracts.  A rejected
        # Anderson candidate is a trial but not a halving.
        for halved in range(0 if accel is None else -1, 40):
            if rep.iterations >= cfg.max_iters:
                rep.flags = "max_iters"
                break
            u_trial = u.with_values(
                u.values - (accel if halved < 0 else lam * step))
            r_trial = (apply_grid(u_trial, P, Q) - f)[interior]
            rep.iterations += 1
            rnorm2_trial = float(np.linalg.norm(r_trial))
            if rnorm2_trial < rnorm2:
                u, r = u_trial, r_trial
                rep.final_residual = float(np.max(np.abs(r)))
                rep.residual_history.append(rep.final_residual)
                rep.accelerated += halved < 0
                rebuild = halved > 0 or rnorm2_trial > 0.25 * rnorm2
                break
            if halved >= 0:
                rep.halvings += 1
                lam *= min(0.5, (rnorm2 / rnorm2_trial)
                           ** (1.0 / (P.exponents.p - 1.0))) if flat else 0.5
        else:
            rep.flags = "stalled"
    if J_inv is not None:
        rep.algebraic_error = float(np.max(np.abs(J_inv @ r.ravel())))
    logger.debug("solve: N=%d, %d trials, %d Jacobians, %d halvings, %d "
                 "accelerated, residual %.3e, %s, %.3f s", cfg.N,
                 rep.iterations, rep.jacobians, rep.halvings, rep.accelerated,
                 rep.final_residual, rep.flags, time.perf_counter() - t0)
    return u, rep
