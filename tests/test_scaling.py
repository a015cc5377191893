import numpy as np
import pytest

from nldp.grid import constant_exterior, sample
from nldp.operator import QuadratureSpec
from nldp.params import barrier_eval, constant_coefficient, model_params
from nldp.scaling import (ScalingContext, blowup_step, rescale_gridfunction,
                          rescale_problem, scaling_identity_check)

Q = QuadratureSpec()


def beta_grid(N=513):
    return sample(barrier_eval, 1, 2.0, N, exterior=constant_exterior(0.0))


@pytest.mark.parametrize("lam, mu", [
    (float("nan"), 1.0), (1.0, float("nan")), (0.0, 1.0), (1.0, -2.0)])
def test_context_rejects_nan_or_nonpositive(lam, mu):
    with pytest.raises(ValueError, match="must be positive"):
        ScalingContext(lam=lam, mu=mu)


class TestRescaleProblem:
    def test_identity_context(self, desk_params):
        Pr = rescale_problem(desk_params, ScalingContext(1.0, 1.0, 0.0))
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1.5, 1.5, 200)
        ys = rng.uniform(-2.0, 2.0, 200)
        assert np.array_equal(Pr.Ksp.eval(xs, ys), desk_params.Ksp.eval(xs, ys))
        assert np.array_equal(Pr.a.eval(xs, ys), desk_params.a.eval(xs, ys))
        assert np.array_equal(np.asarray(Pr.f(xs)), np.asarray(desk_params.f(xs)))
        assert Pr.a.bound == desk_params.a.bound

    def test_equal_exponents_shift_only(self):
        P = model_params(n=1, s=0.5, t=0.5, p=2.0, q=2.0)
        ctx = ScalingContext(3.0, 0.7, 0.2)
        Pr = rescale_problem(P, ctx)
        xs = np.linspace(-1, 1, 11)
        ys = np.linspace(-2, 2, 11)
        assert np.allclose(Pr.a.eval(xs, ys),
                           P.a.eval(0.7 * xs + 0.2, 0.7 * ys))
        assert Pr.a.bound == pytest.approx(P.a.bound)

    def test_transformed_kernels_keep_the_band(self, desk_params):
        ctx = ScalingContext(2.0, 0.5, 0.3)
        Pr = rescale_problem(desk_params, ctx)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-1.5, 1.5, 1000)
        ys = rng.uniform(0.01, 4.0, 1000) * rng.choice([-1, 1], 1000)
        for K in (Pr.Ksp, Pr.Ktq):
            ratio = K.eval(xs, ys) * np.abs(ys) ** K.exponent
            assert np.all(ratio <= K.lam * (1 + 1e-12))
            assert np.all(ratio >= (1 + 1e-12) ** -1 / K.lam)
            assert np.array_equal(K.eval(xs, ys), K.eval(xs, -ys))

    def test_coefficient_bound_formula(self, desk_params):
        e = desk_params.exponents
        ctx = ScalingContext(2.0, 0.5, 0.1)
        Pr = rescale_problem(desk_params, ctx)
        expect = 2.0 ** (e.p - e.q) * 0.5 ** (e.sp - e.tq) * desk_params.a.bound
        assert Pr.a.bound == pytest.approx(expect, rel=1e-15)
        rng = np.random.default_rng(5)
        xs = rng.uniform(-2, 2, 10_000)
        ys = rng.uniform(-4, 4, 10_000)
        assert float(np.max(Pr.a.eval(xs, ys))) <= Pr.a.bound + 1e-12

    def test_source_transform(self, desk_params):
        e = desk_params.exponents
        ctx = ScalingContext(2.0, 0.5, 0.1)
        Pr = rescale_problem(desk_params, ctx)
        xs = np.linspace(-1, 1, 7)
        fac = 2.0 ** (e.p - 1.0) * 0.5 ** e.sp
        assert np.allclose(np.asarray(Pr.f(xs)),
                           fac * np.asarray(desk_params.f(0.5 * xs + 0.1)))
        assert Pr.f.sup == pytest.approx(fac * desk_params.f.sup)

    def test_composition(self, desk_params):
        c1 = ScalingContext(2.0, 0.5, 0.3)
        c2 = ScalingContext(1.5, 0.25, -0.1)
        P12 = rescale_problem(rescale_problem(desk_params, c1), c2)
        Pc = rescale_problem(desk_params, c2.compose(c1))
        rng = np.random.default_rng(6)
        xs = rng.uniform(-1, 1, 100)
        ys = rng.uniform(-2, 2, 100)
        assert np.allclose(P12.Ksp.eval(xs, ys), Pc.Ksp.eval(xs, ys), rtol=1e-13)
        assert np.allclose(P12.a.eval(xs, ys), Pc.a.eval(xs, ys), rtol=1e-13)
        assert np.allclose(np.asarray(P12.f(xs)), np.asarray(Pc.f(xs)), rtol=1e-13)


class TestScalingIdentity:
    def test_identity_context_is_exact(self, desk_params):
        u = beta_grid()
        assert scaling_identity_check(u, desk_params,
                                      ScalingContext(1.0, 1.0, 0.0), Q) == 0.0

    @pytest.mark.parametrize("lam,mu", [(2.0, 0.5), (0.5, 2.0)])
    def test_model_instance(self, lam, mu):
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2, M=1.0)
        u = beta_grid()
        d = scaling_identity_check(u, P, ScalingContext(lam, mu, 0.0), Q)
        assert d <= 1e-5

    def test_linear_case_homogeneity(self):
        # p = q = 2, a = 0: exact lambda-homogeneity, quadrature noise only
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.0,
                         coefficient=constant_coefficient(1, 0.0))
        u = beta_grid()
        d = scaling_identity_check(u, P, ScalingContext(7.3, 1.0, 0.0), Q)
        assert d <= 1e-9


class TestBlowup:
    def test_first_level_doubling(self, desk_params):
        # j=0, m=0: u_bar = 2 u~(x + x0); bounds hold iff sup |u~| <= 1/2
        u = sample(lambda x: 0.4 * barrier_eval(x), 1, 2.0, 513,
                   exterior=constant_exterior(0.0))
        ub, Pb, rep = blowup_step(u, 0, 0.01, 0.0, 0.0, desk_params,
                                  sign=1.0, upper_chain=[0.5],
                                  lower_chain=[-0.5])
        assert rep.sup_ok
        xs = np.linspace(-1, 1, 33)
        assert np.allclose(ub(xs), 2.0 * np.asarray(u(xs)), atol=1e-9)
        big = sample(lambda x: 0.8 * barrier_eval(x), 1, 2.0, 513,
                     exterior=constant_exterior(0.0))
        _, _, rep_bad = blowup_step(big, 0, 0.01, 0.0, 0.0, desk_params,
                                    sign=1.0, upper_chain=[0.5],
                                    lower_chain=[-0.5])
        assert not rep_bad.sup_ok

    def test_gamma_above_eta_fails_exterior_check(self, desk_params):
        u = sample(lambda x: 0.3 * barrier_eval(x), 1, 2.0, 257,
                   exterior=constant_exterior(0.0))
        eta = 0.01
        # envelope built from a chain decaying like the doubled gamma
        gamma_big = 0.8
        upper = [0.0, 2.0 ** -gamma_big, 2.0 ** (-2 * gamma_big)]
        upper = [v + 0.4 for v in upper]
        _, _, rep = blowup_step(u, 2, gamma_big, 0.0, 0.0, desk_params,
                                sign=1.0, upper_chain=[3.0, 2.0, 1.4],
                                lower_chain=[-1.0, -1.0, -1.0],
                                eta=eta)
        assert not rep.exterior_ok
        assert rep.exterior_witness is not None

    def test_resample_matches_lazy_composition(self, desk_params):
        u = beta_grid()
        ctx = ScalingContext(2.0, 0.5, 0.25)
        w = rescale_gridfunction(u, ctx)
        zs = np.linspace(-w.R * 0.9, w.R * 0.9, 17)
        lazy = ctx.lam * np.asarray(u(ctx.mu * zs + ctx.x0))
        assert np.max(np.abs(np.asarray(w(zs)) - lazy)) < 1e-9
