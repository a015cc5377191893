"""The four benchmark workloads.

Each is a closed loop with one caller: the next operation starts only after
the previous one returned.  A workload has three parts:

- ``setup(seed, tmp)`` builds the inputs from the seed and warms up the
  code the operation runs; it is what ``setup_s`` times;
- ``run(state)`` is the timed operation;
- ``check(state, result)`` verifies the result outside the timed region and
  returns ``None`` or the reason it failed.

``layers`` lists the layers an operation must reach; a traced run that
records no call in one of them fails its self-check.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import nldp.cli
import nldp.reglab
import nldp.solver
from nldp.config import build_problem, build_quadrature, load_config
from nldp.constants import (ConstantsBundle, gamma_exponent, lambda_rescale,
                            sigma, sigma_bounds, theta)
from nldp.grid import GridFunction, constant_exterior
from nldp.params import OMEGA_N, constant_source, model_params
from nldp.quadrature import QuadratureSpec
from nldp.solver import SolveConfig, residual

# The timed operations call nldp.cli.main, nldp.reglab.run_pipeline and
# nldp.solver.solve through their modules, so a traced run's wrappers apply.

REPO = Path(__file__).resolve().parent.parent
DESK = REPO / "demos" / "configs" / "desk.json"

# The dyadic (eta, kappa) pair the desk selection certifies at the seed
# commit.  A change to the selection is a change of result, not of speed.
DESK_ETA = 0.00010965983072916666
DESK_KAPPA = 0.000244140625

# solve-p25 converges to this max-norm residual.  The desk value 1e-9 takes
# about 1900 sweeps (over 30 s) at N=129; 2e-4 keeps the scalar-damped
# regime (hundreds of sweeps) within a few seconds per operation.
P25_TOL = 2e-4
SOLVE2D_TOL = 3e-4
REPLAY_LEVELS = 5


def _amplitude_factor(seed: int) -> float:
    """Seeded +-2% perturbation of a Gaussian or constant source amplitude:
    small enough to keep the solve in its regime (sweep counts move by a
    few), large enough that every seed is a different input."""
    return 1.0 + 0.02 * (2.0 * np.random.default_rng(seed).random() - 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    layers: tuple[str, ...]
    setup: Callable
    run: Callable
    check: Callable


# -- constants-desk --------------------------------------------------------

def _constants_setup(seed, tmp):
    argv = ["constants", "--config", str(DESK), "--out", str(tmp)]
    P = build_problem(load_config(str(DESK)))
    sigma(DESK_ETA, P)     # warms the quadrature path the selection uses
    return {"argv": argv, "out": tmp}


def _cli_run(state):
    with contextlib.redirect_stdout(io.StringIO()):
        return nldp.cli.main(state["argv"])


def _constants_check(state, rc):
    if rc != 0:
        return f"exit code {rc}"
    with open(state["out"] / "constants.json") as fh:
        b = json.load(fh)["bundle"]
    cert = b["certificate"]
    if not cert["worst_total"] <= cert["target"]:
        return f"worst_total {cert['worst_total']} > target {cert['target']}"
    try:
        ConstantsBundle(epsilon=b["epsilon"], eta=b["eta"], kappa=b["kappa"],
                        sigma=b["sigma"], sigma_lo=b["sigma_lo"],
                        sigma_hi=b["sigma_hi"], theta=b["theta"],
                        gamma=b["gamma"], lam=b["lambda"],
                        omega_n=b["omega_n"])
    except ValueError as ex:
        return f"bundle relations: {ex}"
    if (b["eta"], b["kappa"]) != (DESK_ETA, DESK_KAPPA):
        return f"selected (eta, kappa) = ({b['eta']!r}, {b['kappa']!r})"
    return None


# -- solve-p25 -------------------------------------------------------------

def _p25_setup(seed, tmp):
    amp = 0.002 * _amplitude_factor(seed)
    sets = ["problem.p=2.5", "problem.q=2.8", "solve.N=129",
            f"solve.residual_tol={P25_TOL!r}",
            f"problem.f.amplitude={amp!r}"]
    cfg = load_config(str(DESK), sets)
    P, Q = build_problem(cfg), build_quadrature(cfg)
    u0 = GridFunction(n=1, R=2.0, values=np.zeros(129))
    residual(u0, P, Q)     # one apply_grid at N=129
    argv = ["solve", "--config", str(DESK), "--out", str(tmp)]
    for s in sets:
        argv += ["--set", s]
    return {"argv": argv, "out": tmp, "P": P, "Q": Q}


def _p25_check(state, rc):
    if rc != 0:
        return f"exit code {rc}"
    with open(state["out"] / "solve_report.json") as fh:
        flags = json.load(fh)["flags"]
    if flags != "converged":
        return f"solve flags {flags!r}"
    u = GridFunction.load(str(state["out"] / "solution"))
    r = residual(u, state["P"], state["Q"])
    return None if r <= P25_TOL else f"independent residual {r:.3e}"


# -- replay-desk -----------------------------------------------------------

def _replay_setup(seed, tmp):
    amp = 0.002 * _amplitude_factor(seed)
    P = build_problem(load_config(
        str(DESK), [f"problem.f.amplitude={amp!r}"]))
    cfg = SolveConfig(N=513, residual_tol=1e-9)
    # The pipeline normalises by lambda, which needs sup |u|; this solve is
    # also the warm-up of the operator and the preconditioner.
    u, rep = nldp.solver.solve(P, cfg)
    if not rep.converged:
        raise RuntimeError(f"set-up solve: {rep.flags}")
    sig = sigma(DESK_ETA, P)
    lo, hi = sigma_bounds(DESK_ETA, P)
    th = theta(DESK_KAPPA)
    bundle = ConstantsBundle(
        epsilon=1.0, eta=DESK_ETA, kappa=DESK_KAPPA, sigma=sig,
        sigma_lo=lo, sigma_hi=hi, theta=th,
        gamma=gamma_exponent(th, DESK_ETA),
        lam=lambda_rescale(float(np.max(np.abs(u.values))), P.f.sup, sig,
                           P.exponents.p),
        omega_n=OMEGA_N[P.n])
    return {"P": P, "cfg": cfg, "bundle": bundle}


def _replay_run(state):
    return nldp.reglab.run_pipeline(state["P"], state["cfg"],
                                    levels=REPLAY_LEVELS, x0=0.0,
                                    bundle=state["bundle"])


def _replay_check(state, out):
    tr = out["trace"]
    if tr.breakdown_level is not None:
        return f"breakdown at level {tr.breakdown_level}: {tr.breakdown_reason}"
    if len(out["level_reports"]) != REPLAY_LEVELS:
        return f"{len(out['level_reports'])} levels passed"
    return None


# -- solve-2d --------------------------------------------------------------

def _solve2d_setup(seed, tmp):
    P = model_params(n=2, s=0.6, t=0.5, p=2.0, q=2.2,
                     f=constant_source(0.5 * _amplitude_factor(seed)))
    cfg = SolveConfig(R=1.0, N=9, exterior=constant_exterior(0.0),
                      residual_tol=SOLVE2D_TOL, max_iters=4000)
    residual(GridFunction(n=2, R=1.0, values=np.zeros((9, 9))), P,
             QuadratureSpec())     # one 2-D apply_grid
    return {"P": P, "cfg": cfg}


def _solve2d_run(state):
    return nldp.solver.solve(state["P"], state["cfg"])


def _solve2d_check(state, out):
    u, rep = out
    if not rep.converged:
        return f"solve flags {rep.flags!r}"
    r = residual(u, state["P"], state["cfg"].quadrature)
    if not r <= SOLVE2D_TOL:
        return f"independent residual {r:.3e}"
    c = u.N // 2
    return None if u.values[c, c] > 0.0 else "centre value not positive"


WORKLOADS = {w.name: w for w in (
    Workload("constants-desk",
             ("cli", "constants", "quadrature"),
             _constants_setup, _cli_run, _constants_check),
    Workload("solve-p25",
             ("cli", "solver", "operator", "grid"),
             _p25_setup, _cli_run, _p25_check),
    Workload("replay-desk",
             ("reglab", "scaling", "solver", "operator", "grid", "quadrature"),
             _replay_setup, _replay_run, _replay_check),
    Workload("solve-2d",
             ("solver", "operator", "grid"),
             _solve2d_setup, _solve2d_run, _solve2d_check),
)}

