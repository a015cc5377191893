import numpy as np
import pytest

from nldp.errors import NldpError
from nldp.params import (BARRIER_C1, BARRIER_C2, BoundViolation, Exponents,
                         CoefficientField, KernelField, barrier_eval,
                         barrier_grad, barrier_hess, checkerboard_coefficient,
                         constant_coefficient, gagliardo_kernel,
                         halfspace_coefficient, scaled_kernel,
                         validate_exponents)


class TestValidateExponents:
    def test_valid_desk_params(self):
        e = Exponents(n=1, s=0.6, t=0.5, p=2.0, q=2.2)
        assert validate_exponents(e) == []

    def test_ratio_cap_violated(self):
        # q/p = 1.5 exceeds min{s/t, 1+s} = min{1, 1.5} = 1
        e = Exponents(n=1, s=0.5, t=0.5, p=2.0, q=3.0)
        report = validate_exponents(e)
        assert len(report) == 1 and "q/p" in report[0]

    def test_singular_p_needs_room(self):
        # p < 2 with p <= 1/(1-s) = 10
        e = Exponents(n=1, s=0.9, t=0.3, p=1.5, q=1.6)
        report = validate_exponents(e)
        assert any("1/(1-s)" in r for r in report)

    def test_homogeneous_mode_relaxes_only_ratio(self):
        # s/t >= q/p > 1+s: rejected normally, admitted in homogeneous mode
        e = Exponents(n=1, s=0.3, t=0.2, p=2.0, q=2.8)
        assert any("q/p" in r for r in validate_exponents(e))
        assert validate_exponents(e, homogeneous=True) == []

    def test_violations_are_data_not_errors(self):
        e = Exponents(n=1, s=0.5, t=0.5, p=0.5, q=0.4)
        assert validate_exponents(e)  # reported, no raise


class TestGagliardoKernel:
    def test_pointwise_values(self):
        k = gagliardo_kernel(1, 0.5, 2.0)
        assert k.eval(0.0, 1.0) == pytest.approx(1.0)
        assert k.eval(0.3, 2.0) == pytest.approx(0.25)

    def test_symmetry_and_bounds_random(self):
        k = gagliardo_kernel(1, 0.6, 2.0)
        rng = np.random.default_rng(5)
        x = rng.uniform(-3, 3, 10_000)
        y = rng.uniform(-3, 3, 10_000)
        y[np.abs(y) < 1e-6] = 0.5
        v = k.eval(x, y)
        assert np.array_equal(v, k.eval(x, -y))
        model = np.abs(y) ** (-k.exponent)
        assert np.all(v <= model * (1 + 1e-12))
        assert np.all(v >= model * (1 - 1e-12))

    def test_2d_kernel(self):
        k = gagliardo_kernel(2, 0.5, 2.0)
        assert k.eval(np.zeros(2), np.array([0.0, 2.0])) == pytest.approx(2.0 ** -3)

    def test_bad_kernel_rejected_at_construction(self):
        with pytest.raises(BoundViolation):
            KernelField(n=1, order=(0.5, 2.0), lam=1.0,
                        eval=lambda x, y: 2.0 * np.abs(y) ** -2.0)

    def test_asymmetric_kernel_rejected(self):
        def ev(x, y):
            return np.abs(y) ** -2.0 * np.where(np.asarray(y) > 0, 1.0, 0.999)
        with pytest.raises(BoundViolation):
            KernelField(n=1, order=(0.5, 2.0), lam=1.01, eval=ev)

    def test_scaled_kernel_stays_in_band(self):
        k = scaled_kernel(1, 0.6, 2.0, lam=1.5)
        rng = np.random.default_rng(6)
        x = rng.uniform(-3, 3, 5000)
        y = rng.uniform(0.01, 3, 5000)
        ratio = k.eval(x, y) * np.abs(y) ** k.exponent
        assert np.all(ratio <= 1.5 + 1e-12) and np.all(ratio >= 1 / 1.5 - 1e-12)


class TestCoefficient:
    def test_halfspace_values(self):
        a = halfspace_coefficient(1, 1.0)
        assert a.eval(0.5, 0.1) == 1.0
        assert a.eval(-0.5, 0.1) == 0.0

    def test_bound_violation_detected(self):
        with pytest.raises(BoundViolation):
            CoefficientField(n=1, bound=1.0,
                             eval=lambda x, y: np.full(np.shape(x), 1.5))


class TestBarrier:
    def test_exact_values(self):
        assert barrier_eval(0.0) == 1.0
        assert barrier_eval(0.5) == 9.0 / 16.0
        assert barrier_eval(0.75) == 49.0 / 256.0
        assert barrier_eval(1.3) == 0.0

    def test_range_and_radial_monotonicity(self):
        r = np.linspace(0.0, 1.0, 1000)
        v = barrier_eval(r)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert np.all(np.diff(v) <= 1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-1.5, 1.5, 1000)
        eps = 1e-6
        fd = (barrier_eval(xs + eps) - barrier_eval(xs - eps)) / (2 * eps)
        assert np.max(np.abs(fd - barrier_grad(xs))) < 1e-6

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        xs = rng.uniform(-1.5, 1.5, 1000)
        xs = xs[np.abs(np.abs(xs) - 1.0) > 1e-3]  # C2 kink at |x| = 1
        eps = 1e-4
        fd = (barrier_eval(xs + eps) - 2 * barrier_eval(xs)
              + barrier_eval(xs - eps)) / eps ** 2
        hess = np.array([float(np.atleast_2d(barrier_hess(x))[0, 0]) for x in xs])
        assert np.max(np.abs(fd - hess)) < 1e-4

    def test_declared_norms_hold_and_true_maxima_below(self):
        r = np.linspace(0.0, 1.0, 100_001)
        grad_max = np.max(np.abs(-4.0 * r * (1 - r * r)))
        hess_max = np.max(np.abs(12.0 * r * r - 4.0))
        assert grad_max <= BARRIER_C1 and hess_max <= BARRIER_C2
        assert grad_max == pytest.approx(1.5396007, abs=1e-5)

    def test_zero_derivatives_outside_support(self):
        assert barrier_grad(1.7) == 0.0
        assert np.all(barrier_hess(np.array([1.7])) == 0.0)

    def test_2d_barrier_radial(self):
        pt = np.array([[0.3, 0.4]])  # |x| = 0.5
        assert barrier_eval(pt)[0] == pytest.approx(9.0 / 16.0)


def _norm_shape(z, n):
    """The shape of |z|, formed: the coefficients' shapes before they read
    it off their arguments."""
    z = np.asarray(z, dtype=float)
    return np.shape(np.abs(z) if n == 1 else np.sqrt(np.sum(z * z, axis=-1)))


_M, _K = 5, 3
_SHAPES = {1: [((), ()), ((), (_M,)), ((_M,), ()), ((_M,), (_M,)),
               ((_M, 1), (_M, _K)), ((_M, _K), (_M, _K))],
           2: [((2,), (_M, 2)), ((_M, 2), (_M, 2)), ((_M, 1, 2), (_M, _K, 2)),
               ((_M, _K, 2), (_K, 2))]}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "halfspace", "checkerboard"])
def test_coefficient_shapes_without_norms(kind, n):
    # The coefficients that ignore y take the shape of |x| and |y| from
    # their arguments' shapes: the same values, dtype, shape and a fresh
    # writeable array as when they formed the norms, on scalar, (M,) and
    # (M, K) arguments in 1-D and (M, 2) and (M, K, 2) ones in 2-D.
    a = {"constant": constant_coefficient, "halfspace": halfspace_coefficient,
         "checkerboard": checkerboard_coefficient}[kind](n, 0.75)
    rng = np.random.default_rng(7)
    for xs, ys in _SHAPES[n]:
        x, y = rng.uniform(-1.0, 1.0, xs), rng.uniform(-1.0, 1.0, ys)
        got = a.eval(x, y)
        shape = np.broadcast_shapes(_norm_shape(x, n), _norm_shape(y, n))
        x1 = x if n == 1 else x[..., 0]
        if kind == "constant":
            ref = np.full(shape, 0.75)
        elif kind == "halfspace":
            ref = np.broadcast_to(np.where(x1 > 0.0, 0.75, 0.0), shape)
        else:
            idx = np.floor(x / 0.5) if n == 1 else (
                np.floor(x[..., 0] / 0.5) + np.floor(x[..., 1] / 0.5))
            ref = np.broadcast_to(np.where(np.mod(idx, 2) == 0, 0.75, 0.0),
                                  shape)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == shape and np.array_equal(got, ref)
        assert got.flags.writeable and got.flags.owndata
