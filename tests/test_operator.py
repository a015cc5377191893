import dataclasses
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest

import nldp.operator
import nldp.quadrature
from oracles import (apply_grid_1d_direct, apply_grid_2d_direct,
                     operator_beta_p2_oracle, pv_eval_oneside,
                     scatter_bincount)

from nldp.errors import NldpError, TailDivergence
from nldp.grid import (GridFunction, callable_exterior, constant_exterior,
                       dyadic_exterior, growth_exterior, sample)
from nldp.operator import QuadratureSpec, apply_grid, delta, evaluate
from nldp.params import (barrier_eval, checkerboard_coefficient,
                         constant_coefficient, halfspace_coefficient,
                         holder_coefficient, model_params, table_kernel)

Q = QuadratureSpec()


def beta_grid(N=1025, R=2.0):
    return sample(barrier_eval, 1, R, N, exterior=constant_exterior(0.0))


def pure_p_params(s=0.6, p=2.0, n=1):
    return model_params(n=n, s=s, t=0.5, p=p, q=max(p, 2.0),
                        coefficient=constant_coefficient(n, 0.0))


class TestDelta:
    def test_even_function_at_origin(self):
        u = beta_grid()
        for y in (0.1, 0.35, 0.8):
            expect = 1.0 - barrier_eval(y)
            assert delta(u, 0.0, y, 2.0) == pytest.approx(expect, abs=1e-8)

    def test_constant_is_annihilated(self):
        u = sample(lambda x: np.full_like(np.asarray(x, dtype=float), 2.5),
                   1, 2.0, 129, exterior=constant_exterior(2.5))
        for r in (1.5, 2.0, 3.0):
            assert delta(u, 0.3, 0.7, r) == 0.0

    def test_nonnegative_at_global_max(self):
        u = beta_grid()
        rng = np.random.default_rng(0)
        for y in rng.uniform(0.01, 3.0, 50):
            for r in (1.5, 2.0, 2.7):
                assert delta(u, 0.0, y, r) >= -1e-12

    def test_rejects_sublinear_exponent(self):
        u = beta_grid(129)
        with pytest.raises(ValueError):
            delta(u, 0.0, 0.5, 1.0)

    def test_coefficient_weighted_form(self):
        u = beta_grid(257)
        a = halfspace_coefficient(1, 1.0)
        # at x > 0 the indicator is on for both halves
        v = delta(u, 0.3, 0.2, 2.2, coeff=a)
        w = delta(u, 0.3, 0.2, 2.2)
        assert v == pytest.approx(w, rel=1e-12)
        assert delta(u, -0.3, 0.2, 2.2, coeff=a) == 0.0


class TestEvaluate:
    def test_constant_gives_zero(self):
        u = sample(lambda x: np.full_like(np.asarray(x, dtype=float), 3.0),
                   1, 2.0, 257, exterior=constant_exterior(3.0))
        v, err = evaluate(u, 0.4, pure_p_params(), Q)
        assert abs(v) <= max(err, 1e-10)

    def test_barrier_anchor_and_oracle_match(self):
        # frozen analytic anchor at the origin plus the 9-probe oracle sweep
        u = sample(barrier_eval, 1, 2.0, 2049, exterior=constant_exterior(0.0))
        P = pure_p_params()
        v, _ = evaluate(u, 0.0, P, Q)
        assert v == pytest.approx(5.952380952380952, rel=5e-7)
        for x in (0.0, 0.4, -0.6, 0.8):
            val, _ = evaluate(u, x, P, Q)
            oracle = operator_beta_p2_oracle(x, 0.6)
            assert val == pytest.approx(oracle, rel=1e-6)

    def test_odd_function_cancels_at_origin(self):
        u = sample(np.tanh, 1, 2.0, 257, exterior=callable_exterior(np.tanh))
        v, err = evaluate(u, 0.0, pure_p_params(), Q)
        assert abs(v) <= max(10 * err, 1e-9)

    def test_touching_monotonicity(self):
        # u <= v with equality at the probe: evaluate(u) >= evaluate(v)
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                         coefficient=halfspace_coefficient(1, 1.0))
        v_fn = barrier_eval
        u = sample(lambda x: v_fn(x) - np.minimum((np.asarray(x) - 0.25) ** 2, 1.0),
                   1, 2.0, 513, exterior=constant_exterior(-1.0))
        v = sample(v_fn, 1, 2.0, 513, exterior=constant_exterior(0.0))
        lu, eu = evaluate(u, 0.25, P, Q)
        lv, ev = evaluate(v, 0.25, P, Q)
        assert lu >= lv - (eu + ev)

    def test_translation_covariance(self):
        P = pure_p_params()
        u = beta_grid(513)
        z = 0.5
        w = sample(lambda x: barrier_eval(np.asarray(x) - z), 1, 2.0, 513,
                   exterior=callable_exterior(
                       lambda x: barrier_eval(np.asarray(x) - z)))
        v1, e1 = evaluate(u, 0.2, P, Q)
        v2, e2 = evaluate(w, 0.2 + z, P, Q)
        assert v2 == pytest.approx(v1, abs=max(2e-6, 2 * (e1 + e2)))

    def test_symmetrisation_consistency(self):
        # delta form vs one-sided PV with shrinking exclusion balls: the
        # discrepancy is the excluded symmetric mass ~ eps^(2-sp) and must
        # vanish at that rate along eps = 2^-k
        P = pure_p_params()
        u = beta_grid(513)
        ref, eref = evaluate(u, 0.3, P, Q)
        ks = np.array([4, 6, 8, 10, 12])
        errs = np.array([abs(pv_eval_oneside(u, 0.3, P, eps=2.0 ** -k, Q=Q)[0]
                             - ref) for k in ks])
        assert np.all(np.diff(errs) < 0.0)
        rate = np.polyfit(-ks * np.log(2.0), np.log(errs), 1)[0]
        assert rate >= (2.0 - P.exponents.sp) - 0.15
        assert errs[-1] <= 5.0 * 2.0 ** (-12 * (2.0 - P.exponents.sp))

    def test_margin_precondition(self):
        u = beta_grid(257)
        with pytest.raises(ValueError):
            evaluate(u, 1.999, pure_p_params(), Q)

    def test_tail_divergence_guard(self):
        # sp/(p-1) = 1.2 and tq/(q-1) = 1: the q-phase's remainder sets the
        # threshold even where a = 0, and the grid apply shares the rule.
        P = pure_p_params()
        u = sample(barrier_eval, 1, 2.0, 257, exterior=growth_exterior(1.3))
        for run in (lambda: evaluate(u, 0.0, P, Q),
                    lambda: apply_grid(u, P, Q)):
            with pytest.raises(TailDivergence,
                               match=r"min\(sp/\(p-1\), tq/\(q-1\)\) = 1$"):
                run()

    def test_growth_envelope_exterior_converges(self):
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                         coefficient=halfspace_coefficient(1, 1.0))
        u = sample(barrier_eval, 1, 2.0, 257, exterior=growth_exterior(0.05))
        v, err = evaluate(u, 0.0, P, Q)
        assert np.isfinite(v) and err < 1e-5


class TestExactTorsion:
    """L u = 1 for the fractional torsion function u = c (1 - |x|^2)_+^s
    at p = q = 2, a = 0, with c = sin(pi s) / pi^n for the Gagliardo
    kernel.  The box lies inside the support and the exterior is u itself,
    so the only error left is the spline's: about 6e-7 in 1-D at N = 65,
    and 5e-6 in 2-D at N = 33."""

    @pytest.mark.parametrize("n, N, x, band", [
        (1, 65, 0.0, 2e-6),
        (2, 33, (0.0, 0.0), 2e-5),
        (2, 33, (0.2, -0.1), 2e-5),
    ])
    def test_evaluate_gives_one(self, n, N, x, band):
        s = 0.6
        c = math.sin(math.pi * s) / math.pi ** n

        def torsion(z):
            z = np.asarray(z, dtype=float)
            r2 = z * z if n == 1 else np.sum(z * z, axis=-1)
            return c * np.maximum(1.0 - r2, 0.0) ** s

        P = model_params(n=n, s=s, t=0.5, p=2.0, q=2.0,
                         coefficient=constant_coefficient(n, 0.0))
        u = sample(torsion, n, 0.6, N, exterior=callable_exterior(torsion))
        v, err = evaluate(u, x if n == 1 else np.asarray(x), P,
                          QuadratureSpec(tol=1e-7))
        assert abs(v - 1.0) <= band
        assert err <= 1e-7


class TestBreaksAreEdges:
    """Where the integrand of ``evaluate`` is known to change form, a panel
    edge sits, so bisection never chases the break to the depth cap."""

    def test_taylor_switch_is_a_near_field_edge(self, desk_params,
                                                monkeypatch):
        # With the switch left to bisection, the near field took 49
        # integrand calls, one per level down to the cap.
        calls = []
        near = nldp.operator.near_singular_quad_rows

        def counting(f, *args, **kwargs):
            def g(y, rows):
                calls.append(np.size(y))
                return f(y, rows)
            return near(g, *args, **kwargs)

        monkeypatch.setattr(nldp.operator, "near_singular_quad_rows", counting)
        evaluate(beta_grid(513), 0.37, desk_params, Q)
        assert 0 < len(calls) <= 8

    def test_exterior_jumps_are_mid_field_edges(self, desk_params,
                                                monkeypatch):
        # A dyadic exterior jumps at |z| = 2, 4, 8 and 16; chased by
        # bisection, these took 180 GK15 batches at the three points.
        assert dyadic_exterior([0.2, -0.1]).jump_radii == (2.0,)
        assert constant_exterior(1.0).jump_radii == ()
        ext = dyadic_exterior([0.2, -0.1, 0.3, 0.05, 0.7])
        assert ext.jump_radii == (2.0, 4.0, 8.0, 16.0)
        u = sample(lambda x: 0.5 * np.cos(np.asarray(x)), 1, 1.0, 513,
                   exterior=ext)
        batches = []
        gk_panels = nldp.quadrature.gk_panels

        def counting(*args, **kwargs):
            batches.append(1)
            return gk_panels(*args, **kwargs)

        monkeypatch.setattr(nldp.quadrature, "gk_panels", counting)
        for x in (-0.6, 0.3, 0.45):
            evaluate(u, x, desk_params, Q)
        assert len(batches) <= 60

    def test_2d_rays_that_miss_a_jump(self, caplog):
        # At (1.9, 1.9) some lines through x never meet |z| = 2; the box
        # seams of R = 3 are edges too, so no quadrature runs out.
        P = model_params(n=2, s=0.6, t=0.5, p=2.0, q=2.2)
        u = sample(lambda p: np.cos(np.sum(np.asarray(p) ** 2, axis=-1)),
                   2, 3.0, 33, exterior=dyadic_exterior([0.0, 0.5, -0.5]))
        with caplog.at_level(logging.WARNING, logger="nldp"):
            v, err = evaluate(u, np.array([1.9, 1.9]), P, Q)
        assert np.isfinite(v) and err < 1e-6
        assert not caplog.records


class TestBatchedEvaluate:
    """``evaluate`` over a batch of points runs every (point, direction) row
    through one near-field and one tail call, and gives each point the bits
    of its own one-point call."""

    @staticmethod
    def assert_batch_is_pointwise(u, xs, P):
        vals, errs = evaluate(u, xs, P, Q)
        assert vals.shape == errs.shape == (len(xs),)
        for x, v, e in zip(xs, vals, errs):
            assert (v, e) == evaluate(u, x, P, Q)

    def test_1d_with_sphere_crossing_cuts(self, desk_params):
        # The dyadic exterior jumps at |z| = 2, 4, 8, 16, so the rows carry
        # their own sphere-crossing cuts; 0.9375 = R - 4h is on the margin.
        u = sample(lambda x: 0.5 * np.cos(np.asarray(x)), 1, 1.0, 129,
                   exterior=dyadic_exterior([0.2, -0.1, 0.3, 0.05, 0.7]))
        assert 1.0 - Q.near_radius(u.h) == 0.9375
        self.assert_batch_is_pointwise(
            u, np.array([0.0, -0.6, 0.3, 0.45, 0.9375]), desk_params)

    def test_2d_three_points(self):
        P = model_params(n=2, s=0.6, t=0.5, p=2.0, q=2.2)
        u = sample(lambda p: np.cos(np.sum(np.asarray(p) ** 2, axis=-1)),
                   2, 1.0, 17, exterior=dyadic_exterior([0.0, 0.5, -0.5]))
        self.assert_batch_is_pointwise(
            u, np.array([[0.0, 0.0], [0.3, -0.2], [-0.5, 0.45]]), P)

    def test_growth_lemma_makes_one_call_of_each(self, desk_params,
                                                 desk_bundle, monkeypatch):
        from nldp.reglab import growth_lemma_check

        calls = []
        for name in ("near_singular_quad_rows", "geometric_tail_quad_rows"):
            def counting(*args, _orig=getattr(nldp.operator, name),
                         _name=name, **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(nldp.operator, name, counting)
        u = sample(lambda x: 0.5 * barrier_eval(np.asarray(x)), 1, 1.0, 257,
                   exterior=constant_exterior(0.0))
        gl = growth_lemma_check(u, desk_bundle, desk_params, Q)
        assert gl.hypotheses["operator_leq_sigma"]["probes"] == 12
        assert sorted(calls) == ["geometric_tail_quad_rows",
                                 "near_singular_quad_rows"]


class TestNearFieldSlopes:
    """Integrand decay at the barrier peak against the delta-level
    envelopes (log-log slope over dyadic offsets)."""

    def _slope(self, P, u, ks, lo=3, hi=20):
        vals = []
        for k in range(lo, hi + 1):
            y = 2.0 ** -k
            d = delta(u, 0.0, y, P.exponents.p)
            vals.append(abs(d) * ks(y))
        vals = np.array(vals)
        kk = np.arange(lo, hi + 1)
        good = vals > 0
        slope = np.polyfit(-kk[good] * np.log(2.0), np.log(vals[good]), 1)[0]
        return slope

    def test_degenerate_slope(self):
        P = pure_p_params(s=0.6, p=2.0)
        u = sample(barrier_eval, 1, 2.0, 4097, exterior=constant_exterior(0.0))
        e = P.exponents
        slope = self._slope(P, u, lambda y: y ** (-1.0 - e.sp))
        assert slope >= 2.0 * (e.p - 1.0) - 1.0 - e.sp - 0.1

    def test_singular_slope(self):
        P = model_params(n=1, s=0.45, t=0.4, p=1.9, q=2.1,
                         coefficient=constant_coefficient(1, 0.0))
        u = sample(barrier_eval, 1, 2.0, 4097, exterior=constant_exterior(0.0))
        e = P.exponents
        vals = []
        for k in range(3, 21):
            y = 2.0 ** -k
            vals.append(abs(delta(u, 0.0, y, e.p)) * y ** (-1.0 - e.sp))
        kk = np.arange(3, 21)
        slope = np.polyfit(-kk * np.log(2.0), np.log(vals), 1)[0]
        assert slope >= (e.p - 1.0) - 1.0 - e.sp - 0.1

    def test_q_term_slope_with_bounded_coefficient(self):
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                         coefficient=halfspace_coefficient(1, 1.0))
        u = sample(barrier_eval, 1, 2.0, 4097, exterior=constant_exterior(0.0))
        e = P.exponents
        vals = []
        for k in range(3, 21):
            y = 2.0 ** -k
            d = delta(u, 0.3, y, e.q, coeff=P.a)
            vals.append(abs(d) * y ** (-1.0 - e.tq))
        kk = np.arange(3, 21)
        slope = np.polyfit(-kk * np.log(2.0), np.log(vals), 1)[0]
        assert slope >= (e.q - 1.0) - 1.0 - e.tq - 0.1


class TestBatchedApply:
    def test_matches_single_point_evaluate(self, desk_params):
        u = sample(barrier_eval, 1, 2.0, 513, exterior=constant_exterior(0.0))
        vals = apply_grid(u, desk_params, Q)
        for i in (80, 256, 400):
            v, e = evaluate(u, u.nodes[i], desk_params, Q)
            assert vals[i] == pytest.approx(v, abs=max(2e-5, 10 * e))

    def test_matches_evaluate_across_the_seam(self):
        # u has a kink where it meets the zero exterior, at offsets R -+ x
        # from x; both fall in one panel at the central nodes.
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.0,
                         coefficient=halfspace_coefficient(1, 1.0))
        u = sample(lambda x: (4.0 - np.asarray(x) ** 2) / 4.0, 1, 2.0, 129,
                   exterior=constant_exterior(0.0))
        vals = apply_grid(u, P, Q)
        inner = np.abs(u.nodes) <= u.R - 1.01 * Q.near_radius(u.h)
        for i in np.flatnonzero(inner):
            v, err = evaluate(u, u.nodes[i], P, Q)
            assert abs(vals[i] - v) <= 1e-8 + 10 * err, (i, vals[i], v)

    def test_torsion_function_consistency(self):
        # L[(R^2 - x^2)_+^s] = pi / sin(pi s) for the Gagliardo kernel at
        # p = q = 2, a = 0: the grid apply of the torsion function must
        # approach 1 inside, at first order in h.
        s = 0.6
        P = model_params(n=1, s=s, t=0.5, p=2.0, q=2.0,
                         coefficient=constant_coefficient(1, 0.0))

        def torsion(x):
            x = np.asarray(x, dtype=float)
            return (math.sin(math.pi * s) / math.pi
                    * np.maximum(4.0 - x * x, 0.0) ** s)

        errs = []
        for N in (129, 257, 513):
            u = sample(torsion, 1, 2.0, N, exterior=constant_exterior(0.0))
            vals = apply_grid(u, P, Q)
            errs.append(float(np.max(np.abs(vals - 1.0)[np.abs(u.nodes) <= 1.0])))
        assert errs[0] > errs[1] > errs[2], errs
        assert all(e <= b for e, b in zip(errs, [3e-4, 1e-4, 4e-5])), errs

    def test_2d_apply_matches_evaluate(self):
        P = model_params(n=2, s=0.6, t=0.5, p=2.0, q=2.2)

        def bump(pts):
            pts = np.asarray(pts, dtype=float)
            r2 = np.sum(pts * pts, axis=-1)
            return np.maximum(0.0, 1.0 - r2) ** 2

        u = sample(bump, 2, 2.0, 33, exterior=constant_exterior(0.0))
        vals = apply_grid(u, P, Q)
        v, err = evaluate(u, np.zeros(2), P, Q)
        assert vals[16, 16] == pytest.approx(v, rel=2e-3)


EXTERIORS_2D = {
    "constant-0": constant_exterior(0.0),
    "constant-1": constant_exterior(1.0),
    "growth": growth_exterior(0.1),
    "dyadic": dyadic_exterior([0.2, -0.1, 0.3, 0.05]),
    "callable": callable_exterior(
        lambda z: 0.5 * np.tanh(np.asarray(z, dtype=float)[..., 0])),
}
COEFFICIENTS_2D = {
    "constant": constant_coefficient(2, 1.0),
    "halfspace": halfspace_coefficient(2, 1.0),
    "checkerboard": checkerboard_coefficient(2, 1.0),
    "holder": holder_coefficient(2, 1.0, 0.5),
}
EXTERIORS_1D = {**EXTERIORS_2D, "callable": callable_exterior(
    lambda z: 0.5 * np.tanh(np.asarray(z, dtype=float)))}
COEFFICIENTS_1D = {
    "constant": constant_coefficient(1, 1.0),
    "halfspace": halfspace_coefficient(1, 1.0),
    "checkerboard": checkerboard_coefficient(1, 1.0),
    "holder": holder_coefficient(1, 1.0, 0.5),
}
# (coefficient, (p, q)) pairs; the Hoelder coefficient depends on the offset,
# which leaves no near-field decay at q = 2, t = 0.5 (apply_grid refuses it).
PQ_IDS = {(2.0, 2.2): "p2-q2.2", (2.5, 2.8): "p2.5-q2.8", (2.0, 2.0): "p2-q2"}
COEF_PQ = pytest.mark.parametrize(
    "coef, pq", [(c, pq) for c in sorted(COEFFICIENTS_2D) for pq in PQ_IDS
                 if not (c == "holder" and pq[1] == 2.0)],
    ids=lambda v: PQ_IDS.get(v, v))


def _check_regrouping(n, N, ext, pq, coef):
    """The planned apply against the direct sum it regroups, at a seeded
    random iterate."""
    coefficients = COEFFICIENTS_1D if n == 1 else COEFFICIENTS_2D
    exteriors = EXTERIORS_1D if n == 1 else EXTERIORS_2D
    P = model_params(n=n, s=0.6, t=0.5, p=pq[0], q=pq[1],
                     coefficient=coefficients[coef])
    vals = np.random.default_rng(11).uniform(-0.5, 0.5, (N,) * n)
    u = GridFunction(n=n, R=1.0, values=vals, exterior=exteriors[ext])
    direct = apply_grid_1d_direct if n == 1 else apply_grid_2d_direct
    ref = direct(u, P, Q)
    got = apply_grid(u, P, Q)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _check_build_logged_once(n, N, caplog):
    P = model_params(n=n, s=0.6, t=0.5, p=2.0, q=2.2)
    u = GridFunction(n=n, R=1.0, values=np.zeros((N,) * n))
    with caplog.at_level(logging.DEBUG, logger="nldp.operator"):
        apply_grid(u, P, Q)
        apply_grid(u.with_values(np.ones((N,) * n)), P, Q)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "nldp.operator"]
    assert len(lines) == 1
    # a constant exterior leaves one exterior group per node
    for part in (f"{n}-D plan", f"N={N}", "in-box entries",
                 f"exterior entries -> {N ** n} groups", "bytes"):
        assert part in lines[0]


class TestPlannedApply2D:
    """The 2-D apply regroups the direct per-direction sum through a plan
    built once per (P, Q, R, N, exterior)."""

    @pytest.mark.parametrize("ext", sorted(EXTERIORS_2D))
    @COEF_PQ
    def test_matches_direct_sum(self, ext, pq, coef):
        _check_regrouping(2, 9, ext, pq, coef)

    def test_plan_build_logged_once(self, caplog):
        _check_build_logged_once(2, 9, caplog)


class TestPlannedApply1D:
    """The 1-D apply regroups the direct sum, with each node's seam offsets
    made panel edges, through the same plan engine."""

    @pytest.mark.parametrize("ext", sorted(EXTERIORS_1D))
    @COEF_PQ
    def test_matches_direct_sum(self, ext, pq, coef):
        _check_regrouping(1, 33, ext, pq, coef)

    def test_plan_build_logged_once(self, caplog):
        _check_build_logged_once(1, 33, caplog)

    def test_apply_keeps_the_cached_plan(self):
        # The one-slot plan cache: three applies to the same geometry build
        # the plan once and hit it twice.
        P, u = pure_p_params(), beta_grid(129)
        nldp.operator._plan.cache_clear()
        for _ in range(3):
            apply_grid(u, P, Q)
        info = nldp.operator._plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestApplyReadsTheProblem:
    """The plan weighs each phase by the problem's own kernels and by
    c_hat, in 1-D and 2-D."""

    @pytest.mark.parametrize("n, N", [(1, 129), (2, 9)], ids=["1d", "2d"])
    def test_kernels_scale_the_apply(self, n, N):
        # Both kernels 1.5 times the Gagliardo model: the apply scales by
        # 1.5 up to rounding.
        radii, factors = np.array([1e-300, 1e300]), np.array([1.5, 1.5])
        P = model_params(n=n, s=0.6, t=0.5, p=2.5, q=2.8,
                         coefficient=halfspace_coefficient(n, 1.0))
        scaled = dataclasses.replace(
            P, Ksp=table_kernel(n, 0.6, 2.5, 1.5, radii, factors),
            Ktq=table_kernel(n, 0.5, 2.8, 1.5, radii, factors))
        u = sample(barrier_eval, n, 2.0, N, exterior=constant_exterior(0.0))
        ref = 1.5 * apply_grid(u, P, Q)
        assert apply_grid(u, scaled, Q) == pytest.approx(
            ref, rel=1e-12, abs=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("n, N", [(1, 129), (2, 9)], ids=["1d", "2d"])
    def test_c_hat_weighs_the_q_phase(self, n, N):
        # p = q, s = t and a = 1: the q-phase equals the p-phase, so the
        # apply is (1 + c_hat) times the p-phase's.
        def P(c_hat):
            return model_params(n=n, s=0.6, t=0.6, p=2.0, q=2.0, c_hat=c_hat,
                                coefficient=constant_coefficient(n, 1.0))
        u = sample(barrier_eval, n, 2.0, N, exterior=constant_exterior(0.0))
        ref = 1.5 * apply_grid(u, P(1.0), Q)
        assert apply_grid(u, P(2.0), Q) == pytest.approx(
            ref, rel=1e-12, abs=1e-12 * np.max(np.abs(ref)))


class TestChunkedSweep:
    """A sweep and the Jacobian go through the plan by runs of whole nodes
    (``operator._runs``); each node's sum is one bincount over its own
    entries in order, and the 2-D Jacobian's scatter sums each row's
    products alone, in column order, so the results do not depend on where
    the runs end."""

    @pytest.mark.parametrize("n, N", [(1, 65), (2, 9)], ids=["1d", "2d"])
    def test_chunk_length_leaves_the_bits(self, monkeypatch, n, N):
        P = model_params(n=n, s=0.6, t=0.5, p=2.5, q=2.8,
                         coefficient=halfspace_coefficient(n, 1.0))
        u = GridFunction(n=n, R=2.0 if n == 1 else 1.0,
                         values=np.random.default_rng(N).uniform(
                             -0.5, 0.5, (N,) * n))
        plan = nldp.operator._plan(P, Q, u.R, N, u.exterior)
        M, K = plan.start[-1], N ** n

        def passes():
            return [apply_grid(u, P, Q),
                    nldp.operator.kernel_mass_matrix(u, P, Q)]

        ref = passes()
        # Runs of about three nodes, then one run over the whole plan.
        for length, fewest, most in ((3 * M // K, K // 6, K), (M, 1, 1)):
            monkeypatch.setattr(nldp.operator, "_CHUNK_ENTRIES", length)
            runs = len(list(nldp.operator._runs(plan.start, np.arange(K))))
            assert fewest <= runs <= most
            assert all(np.array_equal(a, b) for a, b in zip(ref, passes()))

    @pytest.mark.parametrize("n, N", [(1, 513), (2, 13)], ids=["1d", "2d"])
    def test_sweep_peak_memory(self, n, N):
        # Band written before the run: the interpolant's (cells, positions)
        # table and its values at the M in-box points (8 bytes each) are the
        # only arrays of the plan's scale a sweep may hold, plus 2 MB.
        # Measured 15.5 and 7.8 MB against bands of 16.6 and 8.8 MB; a sweep
        # that forms each step for the whole plan peaks at 21.0 and 13.2 MB.
        P = model_params(n=n, s=0.6, t=0.5, p=2.0, q=2.2,
                         coefficient=halfspace_coefficient(n, 1.0))
        u = GridFunction(n=n, R=2.0 if n == 1 else 1.0,
                         values=np.random.default_rng(N).uniform(
                             -0.5, 0.5, (N,) * n))
        apply_grid(u, P, Q)                   # builds the plan
        plan = nldp.operator._plan(P, Q, u.R, N, u.exterior)
        table = 8 * (N - 1) ** n * plan.points.mono.shape[1]
        u = u.with_values(u.values + 0.01)
        tracemalloc.start()
        try:
            apply_grid(u, P, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table + 8 * plan.start[-1] + 2 * 2 ** 20, peak


class TestScatterByShift:
    """The 2-D Jacobian's scatter (``LocatedPoints._products``): one product
    per cell shift, on the plan's positions grouped by shift."""

    @staticmethod
    def _plan(N, p=2.0, q=2.2, s=0.6, t=0.5):
        P = model_params(n=2, s=s, t=t, p=p, q=q,
                         coefficient=halfspace_coefficient(2, 1.0))
        return P, nldp.operator._plan(P, Q, 1.0, N, constant_exterior(0.0))

    @pytest.mark.parametrize("N", [9, 13, 17])
    @pytest.mark.parametrize("exps", [(2.0, 2.2, 0.6, 0.5),
                                      (1.5, 1.7, 0.3, 0.25)],
                             ids=["desk", "singular"])
    def test_shift_table_places_every_entry(self, N, exps):
        # Every in-box entry lies in its node's cell shifted by its
        # position's group shift, and a node has one entry at most per
        # position: what lets a product per shift stand for the scatter.
        plan = self._plan(N, *exps)[1]
        points, start, g = plan.points, plan.start, plan.points.groups
        npos = points.mono.shape[1]
        group = np.searchsorted(g.start, g.rank, side="right") - 1
        node = np.repeat(np.arange(N * N), np.diff(start))
        cell, pos = np.divmod(points.index.astype(np.int64), npos)
        for a, (c, k) in enumerate(zip(np.divmod(cell, N - 1),
                                       np.divmod(node, N))):
            assert np.array_equal(c, k + g.shift[a, group[pos]])
        assert len(np.unique(node * npos + pos)) == len(node)

    @pytest.mark.parametrize("N", [9, 13])
    def test_matches_bincount_reference(self, N):
        # Band: 1e-14 of the largest |H|, room for the rounding of sums of
        # up to 164 terms in another order.  Measured 1.0e-15 (N = 9) and
        # 6.7e-16 (N = 13).  The products add their terms rounded and in
        # order, as the bincount does, so nearly all of H is the same bits:
        # 99.2% of the nonzero entries at N = 9 and 13 (71-75% when a
        # BLAS product fuses and regroups them), held to 98%.
        P, plan = self._plan(N)
        u = GridFunction(n=2, R=1.0, values=np.random.default_rng(N).uniform(
            -0.5, 0.5, (N, N)))
        ux = u(plan.points)
        ids = np.arange(N * N).reshape(N, N)[1:-1, 1:-1].ravel()
        runs = same = total = 0
        for r0, r1, segs, rows in nldp.operator._runs(plan.start, ids):
            w = nldp.operator._entry_weights(plan, P, nldp.operator._secant,
                                             u.values.ravel()[ids[r0:r1]],
                                             rows, ux, segs)
            got = plan.points.scatter(w, segs, rows, ids[r0:r1])
            ref = scatter_bincount(plan.points, w, segs, rows, r1 - r0)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            same += np.count_nonzero(got[ref != 0] == ref[ref != 0])
            total += np.count_nonzero(ref)
            runs += 1
        assert runs >= 2 and same >= 0.98 * total


class TestGridFunctionIO:
    def test_roundtrip(self, tmp_path):
        u = sample(barrier_eval, 1, 1.5, 65, exterior=growth_exterior(0.1))
        prefix = str(tmp_path / "u")
        u.save(prefix)
        v = GridFunction.load(prefix)
        assert np.array_equal(u.values, v.values)
        assert v.R == u.R and v.exterior.tag == "growth"
        assert float(v(2.5)) == pytest.approx(float(u(2.5)))
        # Older sidecars carry a sup_bound key, which load ignores.
        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        with open(prefix + ".json", "w") as fh:
            json.dump({**meta, "sup_bound": None}, fh)
        assert np.array_equal(GridFunction.load(prefix).values, u.values)

    @pytest.mark.parametrize("key, value, ok", [
        ("amp", 2.0, True), ("scale", 2, True), ("offset", -1.0, True),
        ("amp", 3.0, False), ("scale", 1.0, False), ("offset", 0.0, False)])
    def test_older_envelope_keys(self, tmp_path, key, value, ok):
        # Older sidecars carry the growth envelope's amp, scale and offset.
        # At the envelope's 2, 2 and -1 load ignores them; any other value
        # named an envelope that no longer exists, and load says so.
        u = sample(barrier_eval, 1, 1.5, 65, exterior=growth_exterior(0.1))
        prefix = str(tmp_path / "u")
        u.save(prefix)
        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        assert not {"amp", "scale", "offset"} & set(meta["exterior"])
        meta["exterior"][key] = value
        with open(prefix + ".json", "w") as fh:
            json.dump(meta, fh)
        if ok:
            assert GridFunction.load(prefix).exterior == u.exterior
        else:
            with pytest.raises(NldpError, match="growth envelope"):
                GridFunction.load(prefix)

    def test_linear_sidecar_rejected_on_load(self, tmp_path):
        u = sample(barrier_eval, 1, 1.5, 65)
        prefix = str(tmp_path / "u")
        u.save(prefix)
        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        assert meta["interp"] == "cubic"
        meta["interp"] = "linear"
        with open(prefix + ".json", "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(NldpError, match="'linear'"):
            GridFunction.load(prefix)

    def test_callable_exterior_rejected_before_any_write(self, tmp_path):
        u = sample(barrier_eval, 1, 1.5, 65,
                   exterior=callable_exterior(lambda x: np.zeros(np.shape(x))))
        prefix = tmp_path / "u"
        with pytest.raises(NldpError, match="callable"):
            u.save(str(prefix))
        assert not (tmp_path / "u.csv").exists()
        assert not (tmp_path / "u.json").exists()
