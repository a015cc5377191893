"""nldp: numerics for the nonlocal double phase operator.

Principal-value evaluation of the mixed (s,p)/(t,q) fractional operator
with a bounded modulating coefficient, the explicit constant chain of its
Holder-regularity machinery, a desk-scale solver, and empirical
verification tools (growth lemma, scaling identities, dyadic oscillation
decay).
"""

__version__ = "0.1.0"

from .params import (Exponents, KernelField, CoefficientField, ProblemParams,
                     SourceTerm, validate_exponents, gagliardo_kernel,
                     scaled_kernel, table_kernel, constant_coefficient,
                     halfspace_coefficient, checkerboard_coefficient,
                     holder_coefficient, constant_source, gaussian_source,
                     barrier_eval, barrier_grad, barrier_hess, model_params)
from .grid import (GridFunction, Exterior, constant_exterior, growth_exterior,
                   dyadic_exterior, callable_exterior, sample)
from .quadrature import QuadratureSpec
from .operator import delta, evaluate, apply_grid
from .constants import (ConstantsBundle, SelectionCertificate, sigma,
                        sigma_bounds, choose_eta_kappa, theta, gamma_exponent,
                        lambda_rescale, build_bundle)
from .scaling import (ScalingContext, rescale_problem, rescale_gridfunction,
                      scaling_identity_check, blowup_step)
from .inequalities import (IneqReport, check_revL1, check_superlinear,
                           check_singular, check_C2_bounds,
                           check_local_integrability, fuzz_revL1,
                           fuzz_superlinear, fuzz_singular, fuzz_C2_bounds)
from .solver import SolveConfig, SolveReport, solve, residual
from .reglab import (OscillationTrace, GrowthLemmaInstance, oscillation,
                     holder_fit, sublevel_measure, growth_lemma_check,
                     dyadic_iteration, run_pipeline)
from . import errors
