"""The benchmark tracer (perfbench/tracing.py) wraps nldp functions by the
module attribute their callers look them up by.  Installing it fails when a
refactor deletes or renames one of those names, and closing it must leave
every module as it was."""

import importlib.util
from pathlib import Path

import nldp.cli
import nldp.constants
import nldp.grid
import nldp.operator
import nldp.quadrature
import nldp.reglab
import nldp.scaling
import nldp.solver
from nldp.grid import constant_exterior
from nldp.params import constant_source, model_params
from nldp.solver import SolveConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OWNERS = (nldp.cli, nldp.constants, nldp.grid, nldp.operator,
          nldp.quadrature, nldp.reglab, nldp.scaling, nldp.solver,
          nldp.grid.GridFunction)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def test_tracer_installs_counts_and_closes():
    before = _snapshot()
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                         f=constant_source(0.5))
        _, rep = tracer.run(nldp.solver.solve, P,
                            SolveConfig(N=33, residual_tol=1e-6))
    finally:
        tracer.close()
    assert rep.converged
    assert tracer.counts["solver:solve"] == 1
    assert tracer.counts["solver:kernel_mass_matrix"] == rep.jacobians
    # one sweep per trial: the flat start's residual is -f, with no sweep
    assert tracer.counts["operator:apply_grid"] == rep.iterations
    # every sweep reads the interpolant through GridFunction.__call__, the
    # grid layer's only span in a solve
    assert tracer.counts["grid:call"] >= 1
    assert _snapshot() == before


def test_tracer_sees_the_grid_in_a_2d_solve():
    # The 2-D N = 9 solve of the benchmark's solve-2d: its --trace 1
    # self-check needs the grid span, and the point count sees the plan's
    # located points (their size) at every sweep.
    before = _snapshot()
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        P = model_params(n=2, s=0.6, t=0.5, p=2.0, q=2.2,
                         f=constant_source(0.5))
        _, rep = tracer.run(nldp.solver.solve, P, SolveConfig(
            R=1.0, N=9, exterior=constant_exterior(0.0), residual_tol=1e-6))
    finally:
        tracer.close()
    assert rep.converged
    assert tracer.counts["grid:call"] >= 1
    plan = nldp.operator._plan(P, nldp.operator.QuadratureSpec(), 1.0, 9,
                               constant_exterior(0.0))
    assert tracer.counts["grid.points"] >= rep.iterations * len(plan.wp)
    assert _snapshot() == before


def test_tracer_counts_the_constant_selection(desk_params):
    # All five selection terms are row-batched and go through names the
    # tracer does not wrap; only sigma, a scalar quadrature, still reaches
    # the wrapped adaptive_quad with a one-argument integrand.
    before = _snapshot()
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        eta, kappa, cert = tracer.run(nldp.constants.choose_eta_kappa, 1.0,
                                      desk_params, probes=4)
    finally:
        tracer.close()
    assert cert.probes == 5 and eta > 0 and kappa > 0
    assert tracer.counts["constants:choose_eta_kappa"] == 1
    assert tracer.counts["quadrature:adaptive_quad"] >= 1
    assert tracer.counts["constants:sigma"] >= 1
    assert tracer.counts["quad.panels"] > 0
    assert _snapshot() == before
