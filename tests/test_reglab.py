import numpy as np
import pytest

import nldp.constants
import nldp.reglab
from nldp.constants import ConstantsBundle, gamma_exponent, sigma as sigma_fn, \
    sigma_bounds, theta as theta_fn
from nldp.errors import DegenerateFit
from nldp.grid import constant_exterior, sample
from nldp.operator import QuadratureSpec
from nldp.params import OMEGA_N, barrier_eval, model_params
from nldp.reglab import (dyadic_iteration, growth_lemma_check, holder_fit,
                         oscillation, run_pipeline, sublevel_measure)
from nldp.solver import SolveConfig

Q = QuadratureSpec()


def small_bundle(P, eta=1e-4, kappa=2e-4):
    sig = sigma_fn(eta, P)
    lo, hi = sigma_bounds(eta, P)
    th = theta_fn(kappa)
    return ConstantsBundle(epsilon=1.0, eta=eta, kappa=kappa, sigma=sig,
                           sigma_lo=lo, sigma_hi=hi, theta=th,
                           gamma=gamma_exponent(th, eta), lam=0.5,
                           omega_n=OMEGA_N[P.n])


class TestOscillation:
    def test_constant(self):
        u = sample(lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
                   1, 2.0, 129, exterior=constant_exterior(2.0))
        assert oscillation(u, 0.0, 0.7)[2] == 0.0

    def test_barrier_unit_ball(self):
        u = sample(barrier_eval, 1, 2.0, 1025, exterior=constant_exterior(0.0))
        sup, inf, osc = oscillation(u, 0.0, 1.0)
        assert sup == pytest.approx(1.0, abs=1e-12)
        assert inf == pytest.approx(0.0, abs=1e-9)
        assert osc == pytest.approx(1.0, abs=1e-9)

    def test_barrier_half_ball(self):
        u = sample(barrier_eval, 1, 2.0, 1025, exterior=constant_exterior(0.0))
        _, _, osc = oscillation(u, 0.0, 0.5)
        assert osc == pytest.approx(7.0 / 16.0, abs=1e-9)


class TestHolderFit:
    def test_sqrt_profile(self):
        u = sample(lambda x: np.sqrt(np.abs(x)), 1, 2.0, 4097,
                   exterior=constant_exterior(np.sqrt(2.0)))
        gamma_hat, _, _ = holder_fit(u, 0.0, 0, 7)
        assert gamma_hat == pytest.approx(0.5, abs=0.05)

    def test_affine_profile(self):
        u = sample(lambda x: 0.3 * np.asarray(x, dtype=float) + 0.1,
                   1, 2.0, 1025, exterior=constant_exterior(0.0))
        gamma_hat, _, _ = holder_fit(u, 0.0, 0, 6)
        assert gamma_hat == pytest.approx(1.0, abs=0.05)

    def test_constant_degenerates(self):
        u = sample(lambda x: np.full_like(np.asarray(x, dtype=float), 0.7),
                   1, 2.0, 1025, exterior=constant_exterior(0.7))
        with pytest.raises(DegenerateFit):
            holder_fit(u, 0.0, 0, 6)

    def test_needs_resolvable_levels(self):
        u = sample(lambda x: np.abs(x) ** 0.5, 1, 2.0, 65,
                   exterior=constant_exterior(np.sqrt(2.0)))
        with pytest.raises(ValueError):
            holder_fit(u, 0.0, 0, 8)  # 2^-8 < 4h at N=65


class TestSublevelMeasure:
    def test_halfspace_measure(self):
        u = sample(lambda x: np.asarray(x, dtype=float), 1, 2.0, 257,
                   exterior=constant_exterior(0.0))
        m = sublevel_measure(u, 0.0, 0.0, 1.0)
        assert m == pytest.approx(1.0, abs=2 * u.h)

    def test_refinement_convergence_on_lipschitz_data(self):
        # halving h changes the measure by at most ~4h per crossing
        vals = []
        for N in (129, 257, 513):
            u = sample(lambda x: np.sin(3.0 * np.asarray(x, dtype=float)),
                       1, 2.0, N, exterior=constant_exterior(0.0))
            vals.append(sublevel_measure(u, 0.0, 0.0, 1.0))
        h1 = 4.0 / 128
        assert abs(vals[1] - vals[0]) <= 4.0 * h1 * 2.0
        assert abs(vals[2] - vals[1]) <= 4.0 * h1

    def test_matches_running_cell_sum(self):
        # Each cell adds its overlap with the ball times the share of its
        # two nodes at or below the level, summed left to right.
        rng = np.random.default_rng(3)
        for N in (33, 130, 1025):
            u = sample(lambda x: np.sin(5.0 * np.asarray(x, dtype=float)),
                       1, 2.0, N, exterior=constant_exterior(0.0))
            for level, c, r in rng.uniform((-1, -2, 0.01), (1, 2, 3), (8, 3)):
                le = u.values <= level
                meas = 0.0
                for i in range(N - 1):
                    ov = min(u.nodes[i + 1], c + r) - max(u.nodes[i], c - r)
                    if ov > 0:
                        meas += ov * (int(le[i]) + int(le[i + 1])) / 2
                assert sublevel_measure(u, level, c, r) == meas

    def test_2d_scalar_center(self):
        # {x <= 0} in the unit disc: half the disc about the origin, the
        # segment acos(d) - d sqrt(1 - d^2) at distance d = 0.5 from the
        # centre (0.5, 0.5).  A scalar centre is taken on both coordinates.
        u = sample(lambda z: z[..., 0], 2, 2.0, 129)
        assert sublevel_measure(u) == pytest.approx(np.pi / 2, abs=2 * u.h)
        assert sublevel_measure(u) == sublevel_measure(u, 0.0, (0.0, 0.0))
        seg = np.arccos(0.5) - 0.5 * np.sqrt(0.75)
        assert sublevel_measure(u, 0.0, 0.5) == pytest.approx(seg, abs=2 * u.h)
        assert (sublevel_measure(u, 0.0, 0.5)
                == sublevel_measure(u, 0.0, (0.5, 0.5)))


class TestGrowthLemma:
    def test_zero_function_trivially_passes(self, desk_params):
        bundle = small_bundle(desk_params)
        u0 = sample(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                    1, 1.0, 257, exterior=constant_exterior(0.0))
        gl = growth_lemma_check(u0, bundle, desk_params, Q)
        assert gl.hypotheses_ok
        assert gl.conclusion["checked"] and gl.conclusion["ok"]
        assert gl.conclusion["margin"] > 0

    def test_unit_function_fails_measure_hypothesis(self, desk_params):
        bundle = small_bundle(desk_params)
        u1 = sample(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                    1, 1.0, 257, exterior=constant_exterior(1.0))
        gl = growth_lemma_check(u1, bundle, desk_params, Q)
        assert not gl.hypotheses["sublevel_measure"]["ok"]
        assert not gl.conclusion["checked"]  # no conclusion asserted

    def test_large_source_fails_operator_hypothesis(self, desk_params):
        bundle = small_bundle(desk_params)
        # a steep bump makes L u large positive at the peak
        u = sample(lambda x: 0.9 * barrier_eval(2.0 * np.asarray(x)),
                   1, 1.0, 513, exterior=constant_exterior(0.0))
        gl = growth_lemma_check(u, bundle, desk_params, Q)
        assert not gl.hypotheses["operator_leq_sigma"]["ok"]


class TestDyadicIteration:
    def test_zero_function_all_levels(self):
        from nldp.params import constant_source, halfspace_coefficient
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                         coefficient=halfspace_coefficient(1, 1.0),
                         f=constant_source(0.0))
        bundle = small_bundle(P)
        u0 = sample(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                    1, 2.0, 513, exterior=constant_exterior(0.0))
        trace, reports = dyadic_iteration(u0, 0.0, bundle, P,
                                          levels=3, Q=Q, N_level=257)
        assert trace.breakdown_level is None
        assert all(trace.bound_held)
        assert all(o == 0.0 for o in trace.osc_i)
        assert len(reports) == 3

    def test_aggressive_gamma_breaks_decay(self):
        # a legal bundle with a large decay exponent (kappa at its cap)
        # demands per-level drops that steep-but-admissible data cannot
        # deliver: the run must surface the violation, not assert through it
        from nldp.params import constant_source, halfspace_coefficient
        P = model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2,
                         coefficient=halfspace_coefficient(1, 1.0),
                         f=constant_source(0.0))
        bundle = small_bundle(P, eta=0.15, kappa=0.5)
        assert bundle.gamma > 0.1
        u = sample(lambda x: 0.5 * np.tanh(8.0 * np.asarray(x)), 1, 2.0, 513,
                   exterior=constant_exterior(0.5))
        trace, reports = dyadic_iteration(u, 0.0, bundle, P,
                                          levels=4, Q=Q, N_level=257)
        assert (trace.breakdown_level is not None) or not all(trace.bound_held)


class TestPipeline:
    def test_pipeline_segments(self, pipeline_result):
        out = pipeline_result
        tr = out["trace"]
        assert out["solve_report"].converged
        assert tr.breakdown_level is None
        assert len(out["level_reports"]) >= 5
        for rep in out["level_reports"]:
            assert rep["blowup"].ok
            gl = rep["lemma"]
            assert gl.hypotheses_ok
            assert gl.conclusion["ok"] and gl.conclusion["margin"] > 0
        assert all(tr.bound_held)

    def test_envelope_consistency(self, pipeline_result):
        tr = pipeline_result["trace"]
        # measured oscillation always within the theoretical envelope gap
        for i, osc, bound in zip(range(len(tr.osc_i)), tr.osc_i, tr.bound_i):
            assert osc <= bound + 1e-9
        # data stays inside the envelopes, the gap follows the decay rule,
        # and consecutive envelopes nest
        tol = 1e-9
        for i in range(len(tr.lower_env)):
            assert tr.lower_env[i] - tol <= tr.inf_i[i]
            assert tr.sup_i[i] <= tr.upper_env[i] + tol
            gap = tr.upper_env[i] - tr.lower_env[i]
            assert gap == pytest.approx(tr.bound_i[i], rel=1e-12)
            if i:
                assert tr.lower_env[i] >= tr.lower_env[i - 1] - tol
                assert tr.upper_env[i] <= tr.upper_env[i - 1] + tol

    def test_m_bar_report(self, pipeline_result):
        for rep in pipeline_result["level_reports"]:
            assert rep["blowup"].a_sup_probe <= pipeline_result["M_bar"] + 1e-9

    def test_second_selection_reuses_the_first(self, desk_params,
                                               monkeypatch):
        # On desk the inflated coefficient bound asks for a second
        # selection.  The bound moves only III's front factor, so with the
        # first selection's cache the second integrates no (kappa, eta)
        # pair of II and no full-row III that the first one integrated,
        # and makes no one-row III call: both judge new etas on the
        # origin's row, which the first one's batch already holds.
        term_II, term_III = nldp.constants._term_II, nldp.constants._term_III
        build_bundle = nldp.reglab.build_bundle
        selections = []

        def selecting(*args, **kwargs):
            selections.append(set())
            return build_bundle(*args, **kwargs)

        def pair(xs, P, kappa, eta, *rest):
            selections[-1].add(("II", kappa, eta))
            return term_II(xs, P, kappa, eta, *rest)

        def tail(xs, P, eta, regime, tol):
            if np.ndim(eta) == 0 and np.size(xs) > 1:
                selections[-1].add(("III", eta, regime))
            else:
                selections[-1].add(("III row", np.size(eta), regime))
            return term_III(xs, P, eta, regime, tol)

        monkeypatch.setattr(nldp.reglab, "build_bundle", selecting)
        monkeypatch.setattr(nldp.constants, "_term_II", pair)
        monkeypatch.setattr(nldp.constants, "_term_III", tail)
        cfg = SolveConfig(R=2.0, N=513, exterior=constant_exterior(0.0),
                          residual_tol=1e-9, max_iters=3000)
        run_pipeline(desk_params, cfg, levels=2)
        first, second = selections
        assert first and not first & second
        assert ("III row", 16, 1) in first
        assert not {key for key in second if key[0] == "III row"}
