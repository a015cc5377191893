import numpy as np
import pytest

from nldp.errors import DivergenceDetected
from nldp.inequalities import (check_C2_bounds, check_local_integrability,
                               check_revL1, check_singular, check_superlinear,
                               fuzz_C2_bounds, fuzz_revL1, fuzz_singular,
                               fuzz_superlinear)
from nldp.params import (barrier_eval, constant_coefficient,
                         holder_coefficient, model_params)


class TestDifferenceBound:
    def test_quadratic_equality(self):
        # r = 2: both sides equal |b|
        rng = np.random.default_rng(0)
        a = rng.uniform(-5, 5, 100)
        b = rng.uniform(-5, 5, 100)
        assert np.max(np.abs(check_revL1(a, b, 2.0))) < 1e-12

    def test_zero_increment(self):
        assert check_revL1(1.0, 0.0, 3.0) == 0.0

    def test_rejects_singular_range(self):
        with pytest.raises(ValueError):
            check_revL1(1.0, 1.0, 1.5)

    def test_fuzz_campaign(self):
        rep = fuzz_revL1(100_000, seed=0)
        assert rep.violations == 0


class TestSuperlinearBound:
    def test_symmetric_equality_point(self):
        assert check_superlinear(1.0, 1.0, 2.0, 2.0) == 0.0

    def test_cancellation_point(self):
        assert check_superlinear(1.0, -1.0, 2.0, 2.0) == 0.0

    def test_rejects_negative_sum(self):
        with pytest.raises(ValueError):
            check_superlinear(1.0, -2.0, 2.0, 2.0)

    def test_fuzz_campaign(self):
        rep = fuzz_superlinear(100_000, seed=1)
        assert rep.violations == 0


class TestSingularBound:
    def test_worked_example(self):
        slack = check_singular(0.0, 1.0, 1.5, 1.5)
        assert slack == pytest.approx(3.0 ** 0.5 + 2.0 ** 0.5 - 1.0, rel=1e-12)

    def test_zero_increment(self):
        assert check_singular(2.3, 0.0, 1.7, 2.0) == 0.0

    def test_fuzz_campaign_and_tightness(self):
        rep = fuzz_singular(100_000, seed=2)
        assert rep.violations == 0
        # the envelope constant is not claimed sharp
        assert rep.extras["max_lhs_over_envelope"] <= 1.0


class TestC2Bounds:
    def test_barrier_second_order(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, 1000)
        y = rng.uniform(-1, 1, 1000)
        slack = check_C2_bounds(barrier_eval, x, y, "second-order", 2.0)
        assert np.all(slack >= -1e-12)

    def test_zero_offset(self):
        s = check_C2_bounds(barrier_eval, np.array([0.3]), np.array([0.0]),
                            "second-order", 2.0)
        assert s[0] == 0.0

    def test_affine_function_vanishes(self):
        lin = lambda z: 0.7 * np.asarray(z, dtype=float) + 0.2
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, 200)
        y = rng.uniform(-1, 1, 200)
        slack = check_C2_bounds(lin, x, y, "second-order", 2.5, c1=0.7, c2=0.0)
        # LHS vanishes identically for affine maps, so slack = RHS = 0
        assert np.allclose(slack, 0.0, atol=1e-14)

    def test_all_modes_fuzz(self):
        reports = fuzz_C2_bounds(10_000, seed=5)
        for name, rep in reports.items():
            assert rep.violations == 0, name


class TestLocalIntegrability:
    def test_barrier_second_order_mode(self, desk_params):
        v = check_local_integrability(barrier_eval, desk_params, "p-second")
        assert np.isfinite(v) and v > 0

    def test_constant_function_zero(self, desk_params):
        const = lambda z: np.full(np.shape(np.asarray(z)), 0.7)
        v = check_local_integrability(const, desk_params, "p-second")
        assert v == 0.0

    def test_first_order_mode(self):
        P = model_params(n=1, s=0.45, t=0.4, p=1.9, q=2.1)
        v = check_local_integrability(barrier_eval, P, "p-first")
        assert np.isfinite(v) and v > 0

    def test_bounded_coefficient_mode(self, desk_params):
        v = check_local_integrability(barrier_eval, desk_params, "q-bounded",
                                      coeff=constant_coefficient(1, 1.0))
        assert np.isfinite(v) and v > 0

    def test_holder_coefficient_mode(self, desk_params):
        # q = 2.2 >= 2 and q > (1-alpha)/(1-t) = 1 for alpha = 0.5, t = 0.5
        a = holder_coefficient(1, 1.0, 0.5)
        v = check_local_integrability(barrier_eval, desk_params, "q-holder",
                                      coeff=a, alpha=0.5)
        assert np.isfinite(v) and v > 0

    def test_symmetric_coefficient_mode(self, desk_params):
        v = check_local_integrability(barrier_eval, desk_params, "q-symmetric",
                                      coeff=constant_coefficient(1, 1.0))
        assert np.isfinite(v) and v > 0

    def test_refinement_stability(self, desk_params):
        v1 = check_local_integrability(barrier_eval, desk_params, "p-second")
        v2 = check_local_integrability(barrier_eval, desk_params, "p-second",
                                       shells_per_octave=2)
        assert abs(v1 - v2) <= 1e-3 * abs(v1)

    def test_divergence_detected_for_corner(self, desk_params):
        # At the corner of |z - 0.1| the paired p-integrand is 2|y| K_sp,
        # |y|^-1.2 at s = 0.6, p = 2: its shell increments grow.
        corner = lambda z: np.abs(np.asarray(z, dtype=float) - 0.1)
        with pytest.raises(DivergenceDetected, match="at scale 0.0625"):
            check_local_integrability(corner, desk_params, "p-second", x=0.1)

    def test_mode_condition_enforced(self, desk_params):
        with pytest.raises(ValueError):
            check_local_integrability(barrier_eval, desk_params, "q-holder",
                                      coeff=holder_coefficient(1, 1.0, 0.5))


class TestHypothesisSpotChecks:
    """Small randomized spot checks in the hypothesis style: generate until
    falsified or budget spent (these lemmas admit no counterexample)."""

    def test_difference_bound_near_degenerate(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(-1e-8, 1e-8, 5000)
        b = rng.uniform(-1e-8, 1e-8, 5000)
        r = rng.uniform(2.0, 4.0, 5000)
        assert np.all(check_revL1(a, b, r) >= -1e-30)

    def test_singular_bound_huge_base(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1e8, 1e8, 5000)
        b = rng.uniform(-1.0, 1.0, 5000)
        r = rng.uniform(1.01, 2.0, 5000)
        assert np.all(check_singular(a, b, r, r + 1.0) >= -1e-9)
