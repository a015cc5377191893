"""Evaluating the nonlocal double phase operator on the barrier bump.

Walks through the principal-value evaluation of

    L u(x) = PV int |u(x)-u(x+y)|^(p-2)(u(x)-u(x+y)) K_sp(x,y) dy
           + PV int a(x,y) |u(x)-u(x+y)|^(q-2)(u(x)-u(x+y)) K_tq(x,y) dy

for the bump u(x) = ((1 - x^2)+)^2 sampled onto a grid, first in the pure
p-phase (where a closed-form anchor exists at the origin), then with the
indicator coefficient switching the q-phase on over half the line.
"""

import numpy as np

from nldp import (QuadratureSpec, barrier_eval, constant_coefficient,
                  constant_exterior, delta, evaluate,
                  halfspace_coefficient, model_params, sample)

Q = QuadratureSpec()

# ---------------------------------------------------------------- pure p
# p = q = 2, a = 0, s = 0.6: the operator at the origin has the closed form
# 2 * (2/(0.8) - 1/2.8 + 1/1.2) = 5.95238...
P_pure = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.0,
                      coefficient=constant_coefficient(1, 0.0))
u = sample(barrier_eval, n=1, R=2.0, N=1025, exterior=constant_exterior(0.0))

val, err = evaluate(u, 0.0, P_pure, Q)
print("pure p-phase at the origin")
print(f"  L u(0)        = {val:.12f}  (+- {err:.1e})")
print(f"  closed form   = {2.0 * (2.5 - 1/2.8 + 1/1.2):.12f}")
print()

# The symmetrised difference quotient behind the evaluation: at the peak it
# reduces to 1 - beta(y).
for y in (0.25, 0.5, 1.0):
    print(f"  delta_2(u, 0, {y:4.2f}) = {delta(u, 0.0, y, 2.0):.6f}"
          f"   1 - beta(y) = {1.0 - barrier_eval(y):.6f}")
print()

# ------------------------------------------------------------ double phase
# Switch on the q-phase over {x > 0} with q = 2.2: the operator picks up
# the modulated term only where the coefficient is active.
P_dp = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                    coefficient=halfspace_coefficient(1, 1.0))
print("double phase (indicator coefficient on {x > 0})")
for x in (-0.5, 0.0, 0.5):
    v_pure, _ = evaluate(u, x, P_pure, Q)
    v_dp, _ = evaluate(u, x, P_dp, Q)
    tag = "q-phase on" if x > 0 else ("switching point" if x == 0 else "q-phase off")
    print(f"  x = {x:+.1f}: p-only {v_pure:+.6f}   double {v_dp:+.6f}   ({tag})")
