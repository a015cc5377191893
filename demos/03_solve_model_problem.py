"""Solving L u = f on a box with frozen exterior data.

Damped Newton steps on the Jacobian of the discretised operator.  Solves
the desk-scale double phase instance, cross-checks the p = q = 2 case
against a dense linear solve, and demonstrates the comparison behaviour of
the converged solutions.
"""

import numpy as np

from nldp import (QuadratureSpec, SolveConfig, apply_grid, constant_source,
                  constant_coefficient, constant_exterior, GridFunction,
                  halfspace_coefficient, model_params, residual, solve)

Q = QuadratureSpec()
cfg = SolveConfig(R=2.0, N=257, exterior=constant_exterior(0.0),
                  residual_tol=1e-9, max_iters=500)

# -------------------------------------------------- linear cross-check
P_lin = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.0,
                     coefficient=constant_coefficient(1, 0.0),
                     f=constant_source(1.0))
u_lin, rep = solve(P_lin, cfg)
print(f"p = q = 2 solve: {rep.flags} in {rep.iterations} sweeps, "
      f"residual {rep.final_residual:.2e}")

N = cfg.N
base = GridFunction(n=1, R=2.0, values=np.zeros(N),
                    exterior=constant_exterior(0.0))
b0 = apply_grid(base, P_lin, Q)
A = np.empty((N, N))
for j in range(N):
    e = np.zeros(N)
    e[j] = 1.0
    A[:, j] = apply_grid(base.with_values(e), P_lin, Q) - b0
inner = slice(1, N - 1)
dense = np.zeros(N)
dense[inner] = np.linalg.solve(A[inner, inner], (np.ones(N) - b0)[inner])
print(f"  dense linear-solve cross-check: max deviation "
      f"{np.max(np.abs(dense - u_lin.values)):.2e}")
print()

# -------------------------------------------------- double phase instance
P_dp = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                    coefficient=halfspace_coefficient(1, 1.0),
                    f=constant_source(1.0))
u_dp, rep = solve(P_dp, cfg)
print(f"double phase solve: {rep.flags} in {rep.iterations} sweeps, "
      f"residual {rep.final_residual:.2e}")
print(f"  residual() recomputed: {residual(u_dp, P_dp, Q):.2e}")
print(f"  solution range [{u_dp.values.min():.4f}, {u_dp.values.max():.4f}]")
print()

# -------------------------------------------------- comparison behaviour
P_small = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                       coefficient=halfspace_coefficient(1, 1.0),
                       f=constant_source(0.2))
u_small, _ = solve(P_small, cfg)
print("comparison: raising the source raises the solution everywhere")
print(f"  min over nodes of u(f=1) - u(f=0.2): "
      f"{np.min(u_dp.values - u_small.values):.3e}  (>= 0)")
