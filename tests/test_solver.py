import functools
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from nldp.config import build_problem, build_solve_config, load_config
from nldp.errors import ConfigError
from nldp.grid import GridFunction, constant_exterior, growth_exterior, sample
from nldp.operator import QuadratureSpec, apply_grid
from nldp.params import (constant_coefficient, constant_source,
                         gaussian_source, halfspace_coefficient, model_params)
import nldp.operator
import nldp.solver
from oracles import jacobian_full_oracle
from nldp.solver import SolveConfig, kernel_mass_matrix, residual, solve

Q = QuadratureSpec()
DESK = Path(__file__).resolve().parents[1] / "demos" / "configs" / "desk.json"


def linear_problem(f=1.0):
    return model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.0,
                        coefficient=constant_coefficient(1, 0.0),
                        f=constant_source(f))


def dense_solve(P, cfg):
    """Independent direct-solve oracle: assemble the exact linear operator
    column by column and solve the interior block densely."""
    N = cfg.N
    base = GridFunction(n=1, R=cfg.R, values=np.zeros(N),
                        exterior=cfg.exterior)
    b0 = apply_grid(base, P, cfg.quadrature)
    A = np.empty((N, N))
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        A[:, j] = apply_grid(base.with_values(e), P, cfg.quadrature) - b0
    xs = np.linspace(-cfg.R, cfg.R, N)
    fv = np.asarray(P.f(xs), dtype=float)
    interior = slice(1, N - 1)
    vals = np.asarray(cfg.exterior(xs, 1), dtype=float)
    rhs = fv - b0 - A[:, [0, N - 1]] @ (vals[[0, N - 1]] - 0.0)
    out = vals.copy()
    out[interior] = np.linalg.solve(A[interior, interior], rhs[interior])
    return out


@pytest.mark.parametrize("field, value", [
    ("max_iters", 0), ("max_iters", -3), ("max_iters", float("nan")),
    ("N", 2), ("R", float("nan")), ("residual_tol", 0.0)])
def test_solve_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        SolveConfig(**{field: value})


class TestSolve:
    def test_constant_data_immediate(self):
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                         f=constant_source(0.0))
        cfg = SolveConfig(R=2.0, N=129, exterior=constant_exterior(1.5),
                          residual_tol=1e-7)
        u, rep = solve(P, cfg)
        assert rep.converged and rep.iterations == 0
        assert np.max(np.abs(u.values - 1.5)) == 0.0

    def test_linear_matches_dense_oracle(self):
        P = linear_problem()
        cfg = SolveConfig(R=2.0, N=129, exterior=constant_exterior(0.0),
                          residual_tol=1e-9, max_iters=500)
        u, rep = solve(P, cfg)
        assert rep.converged
        oracle = dense_solve(P, cfg)
        assert np.max(np.abs(u.values - oracle)) < 1e-6

    def test_double_phase_converges_and_residual_contract(self, desk_params):
        from dataclasses import replace
        P = replace(desk_params, f=constant_source(1.0))
        cfg = SolveConfig(R=2.0, N=129, exterior=constant_exterior(0.0),
                          residual_tol=1e-8, max_iters=500)
        u, rep = solve(P, cfg)
        assert rep.converged
        assert residual(u, P, Q) <= cfg.residual_tol * 1.01

    def test_invalid_exponents_rejected(self):
        P = model_params(n=1, s=0.5, t=0.5, p=2.0, q=3.0,
                         f=constant_source(1.0))
        with pytest.raises(ConfigError):
            solve(P, SolveConfig(N=65))

    def test_singular_p_from_zero_data(self):
        # Newton reaches the singular phase p < 2 from zero data at the
        # target exponents: 6 trials measured.
        P = model_params(n=1, s=0.45, t=0.4, p=1.9, q=2.1,
                         coefficient=halfspace_coefficient(1, 1.0),
                         f=constant_source(0.5))
        cfg = SolveConfig(R=2.0, N=65, exterior=constant_exterior(0.0),
                          residual_tol=1e-6, max_iters=20_000)
        u, rep = solve(P, cfg)
        assert rep.converged and rep.iterations <= 10
        assert rep.final_residual <= 1e-6
        assert residual(u, P, cfg.quadrature) <= 1e-6

    def test_2d_small_solve(self):
        P = model_params(n=2, s=0.6, t=0.5, p=2.0, q=2.2,
                         f=constant_source(0.5))
        cfg = SolveConfig(R=1.0, N=13, exterior=constant_exterior(0.0),
                          residual_tol=3e-4, max_iters=4000)
        u, rep = solve(P, cfg)
        assert rep.converged and rep.iterations <= 5
        assert u.values[6, 6] > 0.0

    def test_2d_runs_continuation_stages(self):
        # There is no continuation option: a solve is one Newton loop at the
        # target exponents (``_count_plan_builds`` checks that it runs once).
        with pytest.raises(TypeError):
            SolveConfig(N=9, continuation=((2.0, 2.1),))

    @staticmethod
    def _count_plan_builds(monkeypatch, n, N):
        # Count the builds of the operator plan through a fresh cache of the
        # same size around the undecorated builder: a solve builds one plan,
        # at its target exponents, and a following residual builds none.
        builds = []
        raw = nldp.operator._plan.__wrapped__

        def counted(*args):
            builds.append(args[0].exponents)
            return raw(*args)

        monkeypatch.setattr(nldp.operator, "_plan",
                            functools.lru_cache(maxsize=1)(counted))
        P = model_params(n=n, s=0.6, t=0.5, p=2.0, q=2.2,
                         f=constant_source(0.5))
        cfg = SolveConfig(R=1.0, N=N, exterior=constant_exterior(0.0),
                          residual_tol=1e-2, max_iters=200)
        u, _ = solve(P, cfg)
        assert [(e.p, e.q) for e in builds] == [(2.0, 2.2)]
        residual(u, P, cfg.quadrature)
        assert len(builds) == 1

    def test_2d_plan_built_once_per_solve(self, monkeypatch):
        self._count_plan_builds(monkeypatch, 2, 9)

    def test_1d_plan_built_once_per_solve(self, monkeypatch):
        self._count_plan_builds(monkeypatch, 1, 65)


def _problem(n, p, q, coefficient):
    return model_params(n=n, s=0.6, t=0.5, p=p, q=q,
                        coefficient=coefficient, f=constant_source(0.5))


def _interior(n, N):
    """The interior nodes' indices, in C order, as ``solve`` takes them."""
    return np.arange(N ** n).reshape((N,) * n)[(slice(1, N - 1),) * n].ravel()


class TestKernelMassMatrix:
    # kernel_mass_matrix is J_II, the Jacobian of apply_grid on the interior
    # nodes, with phi'_r(d) regularised as (r-1)(|d| + eps_r)^(r-2), eps_r =
    # 1e-12 for r < 2 and 1e-6 for r > 2 (operator._secant).  It is not an
    # M-matrix, because the cubic cardinal functions have negative lobes.
    # A direction w that is 0 on the boundary nodes moves the interior rows
    # of the apply by J_II w_I.  At p = q = 2 the operator is linear, so
    # J_II w_I is their increment up to rounding.  Otherwise the band bounds
    # |J_II w_I - central difference| at step 1e-4 on the interior rows, and
    # the regularisation is what separates the two.  With the exact phi' in
    # its place, the gap falls to the difference's own error.  Gaps are
    # relative to the largest increment over all K rows: the 2-D interior
    # rows carry about 1e-9 of the rounding of the boundary-scale weights,
    # 5e-12 of their own largest increment at p = q = 2.
    CASES = [(1, 65, 2.0, 2.0, 1e-12), (2, 9, 2.0, 2.0, 1e-12),
             (1, 65, 2.0, 2.2, 1e-2), (1, 65, 2.5, 2.8, 1e-2),
             (2, 9, 2.0, 2.2, 1e-4)]
    IDS = ["1d-linear", "2d-linear", "1d-desk", "1d-p25", "2d-desk"]

    @staticmethod
    def _gap(n, N, p, q, e):
        rng = np.random.default_rng(5)
        P = _problem(n, p, q, halfspace_coefficient(n, 1.0))
        u = GridFunction(n=n, R=2.0 if n == 1 else 1.0,
                         values=0.1 * rng.standard_normal((N,) * n))
        w = np.zeros((N,) * n)
        interior = (slice(1, N - 1),) * n
        w[interior] = rng.standard_normal((N,) * n)[interior]
        Jw = kernel_mass_matrix(u, P, Q) @ w[interior].ravel()
        if p == q == 2.0:
            diff = apply_grid(u.with_values(u.values + w), P, Q) \
                - apply_grid(u, P, Q)
        else:
            diff = (apply_grid(u.with_values(u.values + e * w), P, Q)
                    - apply_grid(u.with_values(u.values - e * w), P, Q)) / (2 * e)
        return np.max(np.abs(Jw - diff[interior].ravel())) / np.max(np.abs(diff))

    @pytest.mark.parametrize("n, N, p, q, band", CASES, ids=IDS)
    def test_matches_central_difference(self, n, N, p, q, band):
        assert self._gap(n, N, p, q, 1e-4) <= band

    @pytest.mark.parametrize("n, N, p, q", [c[:4] for c in CASES[2:]],
                             ids=IDS[2:])
    def test_exact_derivative_matches(self, monkeypatch, n, N, p, q):
        monkeypatch.setattr(nldp.operator, "_secant",
                            lambda d, r: (r - 1.0) * np.abs(d) ** (r - 2.0))
        assert self._gap(n, N, p, q, 1e-6) <= 1e-6

    @pytest.mark.parametrize("n, N", [(1, 65), (2, 9)])
    def test_matches_apply_for_affine_values(self, n, N):
        # At p = q = 2 with a zero exterior the operator is linear, and its
        # Jacobian is the operator: J_II v_I is the increment of the apply's
        # interior rows from the boundary values alone.  For affine interior
        # values on a zero boundary that is the apply's interior rows; for
        # random values everywhere, the boundary is held.  Relative to the
        # largest value over all K rows, as in the gaps above.
        P = _problem(n, 2.0, 2.0, constant_coefficient(n, 1.0))
        if n == 1:
            u = sample(lambda x: 0.3 * x + 0.1, 1, 2.0, N)
        else:
            u = sample(lambda z: 0.3 * z[..., 0] - 0.2 * z[..., 1] + 0.1,
                       2, 1.0, N)
        A = kernel_mass_matrix(u, P, Q)
        assert A.shape == ((N - 2) ** n, (N - 2) ** n)
        interior = (slice(1, N - 1),) * n
        boundary = np.ones(u.values.shape, dtype=bool)
        boundary[interior] = False
        rng = np.random.default_rng(7)
        for vals in (np.where(boundary, 0.0, u.values),
                     rng.standard_normal(u.values.shape)):
            Lv = apply_grid(u.with_values(vals), P, Q)
            Lv_I = (Lv - apply_grid(u.with_values(np.where(boundary, vals, 0.0)),
                                    P, Q))[interior]
            err = np.max(np.abs(A @ vals[interior].ravel() - Lv_I.ravel()))
            assert err <= 1e-12 * np.max(np.abs(Lv))

    @pytest.mark.parametrize("n, N", [(1, 65), (2, 9)], ids=["1d", "2d"])
    def test_is_the_interior_block_of_the_whole_jacobian(self, n, N):
        # Built from the interior nodes' entries alone, J_II keeps every bit
        # of the whole Jacobian's interior block: each sum runs over the
        # same entries in the same order.
        P = _problem(n, 2.0, 2.2, halfspace_coefficient(n, 1.0))
        u = GridFunction(n=n, R=2.0 if n == 1 else 1.0,
                         values=np.random.default_rng(N).uniform(
                             -0.5, 0.5, (N,) * n))
        ids = _interior(n, N)
        assert np.array_equal(kernel_mass_matrix(u, P, Q),
                              jacobian_full_oracle(u, P, Q)[np.ix_(ids, ids)])


    def test_logs_one_line_per_build(self, caplog):
        # n, N, the interior rows, the entries scattered out of the plan's
        # in-box entries, in 2-D the shift groups of the scatter's products
        # (184 at N = 9), and the seconds of the build.
        P = _problem(2, 2.0, 2.2, halfspace_coefficient(2, 1.0))
        u = GridFunction(n=2, R=1.0, values=np.zeros((9, 9)))
        apply_grid(u, P, Q)                   # builds the plan
        start = nldp.operator._plan(P, Q, u.R, 9, u.exterior).start
        with caplog.at_level(logging.DEBUG, logger="nldp.operator"):
            kernel_mass_matrix(u, P, Q)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "nldp.operator"]
        assert len(lines) == 1 and lines[0].startswith(
            f"2-D Jacobian: N=9, 49 interior rows, "
            f"{np.diff(start)[_interior(2, 9)].sum()} of "
            f"{start[-1]} in-box entries scattered, 184 shift groups, ")


class TestSweepCounts:
    # Bands on the sweeps (trial steps, rejected ones included) of the
    # damped Newton step, just above the measured counts, trials / Jacobians:
    # 5 / 1 (desk, N = 513, 3 of the trials accepted Anderson candidates),
    # 4 / 3 (desk.json at p = 2.5, q = 2.8, N = 129, tol 2e-4), 10 / 3 and
    # 11 / 4 (p = 2.5, q = 2.8 and p = 3, q = 3.5 at N = 129, tol 1e-9),
    # 5 / 2 (2-D, N = 13, tol 1e-8), 3 / 2 (2-D, N = 9, tol 3e-4) and
    # 12 / 7 (p = 1.5 in 1-D and 2-D; 13 / 7 in 2-D on two BLAS threads).
    # The 2-D p = 1.5 trial band is the spread of rounding-level moves of J
    # (test_singular_phase).
    def test_desk_n513(self, desk_params):
        # A chord iteration on the one Jacobian built at flat data: the
        # Anderson candidates cut its linear tail.
        u, rep = solve(desk_params, SolveConfig(N=513, residual_tol=1e-9))
        assert rep.converged and rep.iterations <= 6
        assert rep.jacobians == 1 and rep.accelerated >= 1

    def test_p25_config(self):
        # The Jacobian is rebuilt before any third step on one inverse, so
        # no Anderson candidate is tried.
        cfg = load_config(str(DESK), ["problem.p=2.5", "problem.q=2.8",
                                      "solve.N=129",
                                      "solve.residual_tol=2e-4"])
        u, rep = solve(build_problem(cfg), build_solve_config(cfg))
        assert rep.converged and rep.iterations <= 4
        assert rep.jacobians <= 3 and rep.accelerated == 0

    def test_2d_n9(self):
        # The benchmark's solve-2d: no third step on one inverse either.
        P = model_params(n=2, s=0.6, t=0.5, p=2.0, q=2.2,
                         f=constant_source(0.5))
        u, rep = solve(P, SolveConfig(R=1.0, N=9,
                                      exterior=constant_exterior(0.0),
                                      residual_tol=3e-4))
        assert rep.converged and rep.iterations <= 3
        assert rep.jacobians <= 2 and rep.accelerated == 0

    @pytest.mark.parametrize("n, p, q, N, tol, most", [
        (1, 2.5, 2.8, 129, 1e-9, 12), (1, 3.0, 3.5, 129, 1e-9, 13),
        (2, 2.0, 2.2, 13, 1e-8, 6)], ids=["p25", "p3", "2d"])
    def test_tight_tolerance(self, n, p, q, N, tol, most):
        # From zero data, with no continuation stage.
        if n == 1:
            cfg = load_config(str(DESK), [
                f"problem.p={p}", f"problem.q={q}", f"solve.N={N}",
                f"solve.residual_tol={tol}"])
            P, sc = build_problem(cfg), build_solve_config(cfg)
        else:
            P = model_params(n=2, s=0.6, t=0.5, p=p, q=q,
                             f=constant_source(0.5))
            sc = SolveConfig(R=1.0, N=N, exterior=constant_exterior(0.0),
                             residual_tol=tol)
        u, rep = solve(P, sc)
        assert rep.converged and rep.iterations <= most
        assert residual(u, P, sc.quadrature) <= tol

    @pytest.mark.parametrize("n, N, most, jacobians",
                             [(1, 129, 13, 7), (2, 13, 15, 7)],
                             ids=["1d", "2d"])
    def test_singular_phase(self, n, N, most, jacobians):
        # p = 1.5, q = 1.7 from zero data: phi' is singular at d = 0, so the
        # Jacobian's shift there must be tiny (operator._secant).  12 trials
        # and 7 Jacobians measured in 1-D, and 12 / 7 and 13 / 7 in 2-D on
        # one and on two BLAS threads.  The 2-D trials follow the rounding
        # of J and of its inverse: with half of J's entries moved 1 ulp in
        # random directions, 16 seeds on one and on two BLAS threads, the
        # scatter by bincount per monomial took 11-15 trials, and the trial
        # band is that spread.
        P = model_params(n=n, s=0.3, t=0.25, p=1.5, q=1.7,
                         coefficient=halfspace_coefficient(n, 1.0),
                         f=constant_source(0.5))
        sc = SolveConfig(R=2.0 if n == 1 else 1.0, N=N,
                         exterior=constant_exterior(0.0), residual_tol=1e-8)
        u, rep = solve(P, sc)
        assert rep.converged and rep.iterations <= most
        assert rep.jacobians <= jacobians
        assert residual(u, P, sc.quadrature) <= 1e-8

    def test_report_counts(self, caplog):
        # Every trial is accepted or halved (no Anderson candidate is
        # rejected here), and the algebraic error |J^-1 r| of the last
        # iterate is reported beside its residual.  The counts go to one
        # DEBUG line per solve.
        P = model_params(n=1, s=0.6, t=0.5, p=2.5, q=2.8,
                         f=constant_source(0.5))
        with caplog.at_level(logging.DEBUG, logger="nldp.solver"):
            u, rep = solve(P, SolveConfig(N=65, residual_tol=1e-9))
        assert rep.converged
        assert rep.iterations == len(rep.residual_history) - 1 + rep.halvings
        assert rep.halvings >= 1 and 1 <= rep.jacobians <= rep.iterations
        assert 1 <= rep.accelerated < rep.iterations
        assert 0.0 < rep.algebraic_error < 1e-6
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "nldp.solver"]
        assert len(lines) == 1 and lines[0].startswith(
            f"solve: N=65, {rep.iterations} trials, {rep.jacobians} "
            f"Jacobians, {rep.halvings} halvings, {rep.accelerated} "
            f"accelerated, residual {rep.final_residual:.3e}")

    def test_rejected_candidate_is_a_trial(self, desk_params, monkeypatch):
        # A candidate that raises the residual costs one trial, not a
        # halving, and forces no rebuild: the damped step follows on the
        # same inverse, so the iterates are those of the plain chord steps.
        cfg = SolveConfig(N=129, residual_tol=1e-9)
        monkeypatch.setattr(nldp.solver, "ANDERSON_START", 10**9)
        plain, plain_rep = solve(desk_params, cfg)
        monkeypatch.undo()
        monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond=None: (
            np.full(a.shape[1], 1e3), None, None, None))
        u, rep = solve(desk_params, cfg)
        assert rep.converged and rep.accelerated == 0 and rep.halvings == 0
        assert rep.jacobians == plain_rep.jacobians == 1
        steps = len(rep.residual_history) - 1
        assert rep.iterations == 2 * steps - (nldp.solver.ANDERSON_START - 1)
        assert np.array_equal(u.values, plain.values)


class TestFlatStart:
    # solve takes the residual of flat data (a constant exterior equal to
    # every value) as -f with no sweep: every in-box difference, exterior
    # group and near-block term is 0, so the operator is +0.0 everywhere.
    @pytest.mark.parametrize("n, N, R", [(1, 33, 2.0), (2, 9, 1.0)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("p, q", [(1.5, 1.7), (2.5, 2.8)],
                             ids=["singular", "degenerate"])
    @pytest.mark.parametrize("c", [0.0, 0.3])
    def test_operator_of_flat_data_is_zero(self, n, N, R, p, q, c):
        P = model_params(n=n, s=0.6, t=0.5, p=p, q=q,
                         coefficient=halfspace_coefficient(n, 1.0),
                         f=constant_source(0.5))
        u = GridFunction(n=n, R=R, values=np.full((N,) * n, c),
                         exterior=constant_exterior(c))
        Lu = apply_grid(u, P, Q)
        assert np.all(Lu == 0.0) and not np.any(np.signbit(Lu))


class TestResidual:
    def test_zero_for_exact_constant(self):
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                         f=constant_source(0.0))
        u = sample(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                   1, 2.0, 129, exterior=constant_exterior(0.0))
        assert residual(u, P, Q) <= 1e-10

    def test_single_node_perturbation_increases_residual(self):
        P = linear_problem()
        cfg = SolveConfig(R=2.0, N=129, exterior=constant_exterior(0.0),
                          residual_tol=1e-9, max_iters=500)
        u, rep = solve(P, cfg)
        base = residual(u, P, Q)
        bumped = u.values.copy()
        bumped[64] += 0.1
        assert residual(u.with_values(bumped), P, Q) > base + 1e-3

    def test_2d_source_taken_at_node_points(self):
        # A non-constant source must be evaluated on the (N, N, 2) node
        # stack, not on the 1-D node vector broadcast across the grid.  The
        # exterior makes L u vary over the grid, so the two maxima differ.
        P = model_params(n=2, s=0.6, t=0.5, p=2.0, q=2.2,
                         f=gaussian_source(0.5, 0.5))
        u = GridFunction(n=2, R=1.0, values=np.zeros((9, 9)),
                         exterior=constant_exterior(1.0))
        gx, gy = np.meshgrid(u.nodes, u.nodes, indexing="ij")
        fv = P.f(np.stack([gx, gy], axis=-1))
        expected = np.max(np.abs(apply_grid(u, P, Q) - fv)[1:-1, 1:-1])
        assert residual(u, P, Q) == expected


class TestComparisonAndBounds:
    def test_comparison_principle_correct_direction(self):
        # f1 <= f2 with the same exterior: the larger source lifts the
        # solution (operator monotonicity makes the discrete map an
        # M-matrix-like contraction).  Why the transposed order cannot
        # hold: docs/decisions.md.
        P1 = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                          coefficient=halfspace_coefficient(1, 1.0),
                          f=constant_source(0.2))
        P2 = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                          coefficient=halfspace_coefficient(1, 1.0),
                          f=constant_source(1.0))
        cfg = SolveConfig(R=2.0, N=97, exterior=constant_exterior(0.0),
                          residual_tol=1e-8, max_iters=500)
        u1, r1 = solve(P1, cfg)
        u2, r2 = solve(P2, cfg)
        assert r1.converged and r2.converged
        tol = 10 * (r1.final_residual + r2.final_residual)
        assert np.all(u2.values >= u1.values - tol)

    def test_exterior_monotonicity(self):
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                         coefficient=halfspace_coefficient(1, 1.0),
                         f=constant_source(0.5))
        cfg_lo = SolveConfig(R=2.0, N=97, exterior=constant_exterior(0.0),
                             residual_tol=1e-8, max_iters=500)
        cfg_hi = SolveConfig(R=2.0, N=97, exterior=constant_exterior(0.3),
                             residual_tol=1e-8, max_iters=500)
        u_lo, r_lo = solve(P, cfg_lo)
        u_hi, r_hi = solve(P, cfg_hi)
        assert r_lo.converged and r_hi.converged
        tol = 10 * (r_lo.final_residual + r_hi.final_residual)
        assert np.all(u_hi.values >= u_lo.values - tol)

    def test_boundedness_estimate(self):
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                         coefficient=halfspace_coefficient(1, 1.0),
                         f=gaussian_source(1.0))
        cfg = SolveConfig(R=2.0, N=129, exterior=constant_exterior(0.1),
                          residual_tol=1e-8, max_iters=500)
        u, rep = solve(P, cfg)
        assert rep.converged
        # inf exterior and a source-scaled band must sandwich the solution
        C = 4.0  # measured stability prefactor of the desk instance
        f_scale = P.f.sup ** (1.0 / (P.exponents.p - 1.0))
        assert np.all(u.values >= min(0.1, -C * f_scale) - 1e-8)
        assert np.all(u.values <= max(0.1, C * f_scale) + 1e-8)


class TestDiscretisationOrder:
    """The solved torsion problem against its exact solution: p = q = 2,
    a = 0, f = 1 on [-1, 1] with exterior 0, whose solution is
    sin(pi s) / pi (1 - x^2)_+^s.  The solution is only C^s at the box's
    edge, so the max-norm error over the whole box falls at order s, and
    at first order on |x| <= 1/2, away from the edge.  Bands written
    before the first run."""

    S = 0.6

    @pytest.fixture(scope="class")
    def errors(self):
        P = model_params(n=1, s=self.S, t=0.5, p=2.0, q=2.0,
                         coefficient=constant_coefficient(1, 0.0),
                         f=constant_source(1.0))
        whole, inner = [], []
        for N in (129, 257, 513):
            u, rep = solve(P, SolveConfig(R=1.0, N=N, residual_tol=1e-9,
                                          exterior=constant_exterior(0.0)))
            assert rep.converged
            x = u.nodes
            err = np.abs(u.values - math.sin(math.pi * self.S) / math.pi
                         * np.maximum(1.0 - x * x, 0.0) ** self.S)
            whole.append(float(np.max(err)))
            inner.append(float(np.max(err[np.abs(x) <= 0.5])))
        return np.array(whole), np.array(inner)

    def test_order_s_on_the_whole_box(self, errors):
        whole, _ = errors
        order = np.log2(whole[:-1] / whole[1:])
        assert np.all((order >= self.S - 0.05) & (order <= self.S + 0.05)), \
            (whole, order)
        assert whole[-1] <= 2e-3, whole

    def test_first_order_away_from_the_edge(self, errors):
        _, inner = errors
        order = np.log2(inner[:-1] / inner[1:])
        assert np.all((order >= 0.9) & (order <= 1.1)), (inner, order)
        assert inner[-1] <= 3e-4, inner
