import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from oracles import (sigma_oracle, term_I_abs_per_probe, term_II_per_probe,
                     term_III_per_probe, term_Ip_signed_per_probe)

import nldp.constants
import nldp.quadrature
from nldp.constants import (applicable_regimes, build_bundle,
                            choose_eta_kappa, gamma_exponent, lambda_rescale,
                            sigma, sigma_bounds, theta, _beta_diff,
                            _bundle_terms, _halve, _term_I, _term_II,
                            _term_III, probe_points)
from nldp.errors import DegenerateScaling, DivergentSigma, SelectionFailed
from nldp.params import (barrier_eval, barrier_grad, barrier_hess,
                         holder_coefficient, model_params)


# Golden selections, every field bit for bit.  The worst_terms key order is
# part of the certificate: demo 02 prints the terms in it.
DESK_BUNDLE = {
    "epsilon": 1.0, "eta": 0.00010965983072916666, "kappa": 0.000244140625,
    "sigma": 0.0040014029166936214, "sigma_lo": 0.0015361947330784778,
    "sigma_hi": 40.427718789521734, "theta": 9.059906005859375e-05,
    "gamma": 6.535488761199965e-05, "lam": 0.9963638758544732,
    "omega_n": 2.0}
DESK_CERTIFICATE = {
    "epsilon": 1.0, "target": 0.04736614270344992, "regimes": [1],
    "eta_per_regime": {1: 0.00010965983072916666},
    "kappa_per_regime": {1: 0.001953125},
    "eta": 0.00010965983072916666, "kappa": 0.000244140625,
    "worst_terms": {
        "I_p": (0.0012019025756804878, 0.0),
        "I_q": (0.0016447535156298505, 0.5549999999999999),
        "II_p": (0.0015102872838298636, -0.716875),
        "II_q": (0.00031072456290397274, 0.69375),
        "III": (0.012004207962263428, 0.0)},
    "worst_total": 0.01534873989207744, "com2_constant": 6.427186322081911,
    "kappa_cap": 0.00031128729712922627,
    "sigma_at_eta": 0.0040014029166936214, "probes": 33}
SINGULAR_CERTIFICATES = {
    2.2: {
        "epsilon": 1.0, "target": 0.06606362753508625, "regimes": [2],
        "eta_per_regime": {2: 1.6448974609374998e-05},
        "kappa_per_regime": {2: 7.62939453125e-06},
        "eta": 1.6448974609374998e-05, "kappa": 2.384185791015625e-07,
        "worst_terms": {
            "I_p": (0.0018887842998496212, -0.5549999999999999),
            "I_q": (5.448766068359119e-08, -0.5549999999999999),
            "II_p": (0.01867815650656105, -0.716875),
            "II_q": (4.662013144056797e-05, -0.716875),
            "III": (0.00985814580415082, 0.0)},
        "worst_total": 0.030327612724067213,
        "com2_constant": 368.2491883466727,
        "kappa_cap": 3.112146439904764e-07,
        "sigma_at_eta": 0.0045879620122201885, "probes": 33},
    1.95: {
        "epsilon": 1.0, "target": 0.07856333590761427, "regimes": [3],
        "eta_per_regime": {3: 1.8416555304276318e-05},
        "kappa_per_regime": {3: 3.0517578125e-05},
        "eta": 1.8416555304276318e-05, "kappa": 9.5367431640625e-07,
        "worst_terms": {
            "I_p": (0.002433928342414673, -0.5549999999999999),
            "I_q": (5.871732612987295e-05, -0.5549999999999999),
            "II_p": (0.008710677971531036, -0.716875),
            "II_q": (0.0026943418144229937, -0.716875),
            "III": (0.010438097439841292, 0.0)},
        "worst_total": 0.02414549497343064,
        "com2_constant": 125.17373400105821,
        "kappa_cap": 1.4086730300807374e-06,
        "sigma_at_eta": 0.005219048866349905, "probes": 33},
}
# s = 0.4, t = 0.3, p = 2, q = 2.2: regimes 1 and 2 both apply, so eta and
# the worst terms are taken across two bundles.
TWO_REGIME_CERTIFICATE = {
    "epsilon": 1.0, "target": 0.0625, "regimes": [1, 2],
    "eta_per_regime": {1: 0.00013159179687499998, 2: 6.579589843749999e-05},
    "kappa_per_regime": {1: 0.00390625, 2: 0.000244140625},
    "eta": 6.579589843749999e-05, "kappa": 0.000244140625,
    "worst_terms": {
        "I_p": (0.03652075130483548, -0.5549999999999999),
        "I_q": (0.0002231814581599898, -0.5549999999999999),
        "II_p": (0.014027275782923725, 0.0),
        "II_q": (0.0004186391942592612, 0.0),
        "III": (0.008034554344655227, 0.0)},
    "worst_total": 0.055441677067280974, "com2_constant": 4.48686081950939,
    "kappa_cap": 0.0002984475265222815,
    "sigma_at_eta": 0.0026781850268646286, "probes": 33}


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def assert_certificate(cert, want):
    assert _fields(cert) == want
    assert list(cert.worst_terms) == list(want["worst_terms"])


class TestSigma:
    def test_monotone_in_eta(self, desk_params):
        s1 = sigma(1e-4, desk_params)
        s2 = sigma(1e-3, desk_params)
        s3 = sigma(1e-2, desk_params)
        assert 0 < s1 < s2 < s3

    def test_oracle_match_desk(self, desk_params):
        val = sigma(0.01, desk_params)
        oracle = sigma_oracle(0.01, 0.6, 0.5, 2.0, 2.2)
        assert val == pytest.approx(oracle, rel=1e-10)
        assert val == pytest.approx(0.45244400335, rel=1e-9)

    def test_divergent_eta_rejected(self, desk_params):
        thresh = desk_params.exponents.eta_threshold()
        with pytest.raises(DivergentSigma):
            sigma(thresh, desk_params)
        with pytest.raises(DivergentSigma):
            sigma(thresh * 1.5, desk_params)

    def test_band_soft_check_desk(self, desk_params):
        for eta in (1e-3, 1e-2, 5e-2):
            lo, hi = sigma_bounds(eta, desk_params)
            val = sigma(eta, desk_params)
            assert lo <= val <= hi

    def test_strictly_increasing_on_grid(self, desk_params):
        thresh = desk_params.exponents.eta_threshold()
        etas = np.linspace(0.02, 0.9, 20) * thresh
        vals = np.array([sigma(e, desk_params) for e in etas])
        assert np.all(np.diff(vals) > 0)
        # continuity proxy: no jumps beyond the local secant scale.  sigma
        # itself blows up like C / (thresh - eta) as eta nears thresh, so its
        # largest true secant is ~16x the median on this grid.  The proxy is
        # taken on the blow-up-free factor g = sigma (thresh - eta) instead,
        # whose largest secant is within ~7% of the median.
        g = vals * (thresh - etas)
        secants = np.diff(g) / np.diff(etas)
        assert np.max(secants) <= 10.0 * np.median(secants)


class TestSigmaBounds:
    def test_zero_eta_lower_bound_vanishes(self, desk_params):
        lo, hi = sigma_bounds(0.0, desk_params)
        assert lo == 0.0

    def test_desk_closed_form(self, desk_params):
        lo, _ = sigma_bounds(0.01, desk_params)
        expect = 2.0 * 2.0 ** (2.2 - 1.0 + 2.0 * 1.2) * (2.0 ** 0.01 - 1.0) / 1.2
        assert lo == pytest.approx(expect, rel=1e-15)

    def test_hi_dominates_lo_random(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 100:
            s = rng.uniform(0.3, 0.8)
            t = rng.uniform(0.2, s)
            p = rng.uniform(2.0, 2.5)
            q = p * rng.uniform(1.0, min(s / t, 1 + s))
            P = model_params(n=1, s=s, t=t, p=p, q=q)
            if P.validation_report():
                continue
            eta = rng.uniform(0.0, 0.5) * P.exponents.eta_threshold()
            lo, hi = sigma_bounds(eta, P)
            assert hi >= lo
            count += 1


class TestTheta:
    def test_example_value(self):
        assert theta(0.1) == 0.037109375

    def test_limit_to_zero(self):
        assert theta(1e-300) == pytest.approx(0.0, abs=1e-290)

    def test_barrier_consistency_bit_for_bit(self):
        rng = np.random.default_rng(12)
        gap = float(barrier_eval(0.5) - barrier_eval(0.75))
        for kappa in rng.uniform(1e-6, 0.5, 100):
            assert theta(kappa) == kappa * gap

    def test_linear_in_kappa(self):
        rng = np.random.default_rng(14)
        k = rng.uniform(1e-6, 0.25, 50)
        assert np.allclose([theta(2.0 * v) for v in k],
                           [2.0 * theta(v) for v in k], rtol=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            theta(0.6)
        with pytest.raises(ValueError):
            theta(0.0)


class TestGamma:
    def test_example_value(self):
        g = gamma_exponent(0.037109375, 0.5)
        assert g == pytest.approx(0.027020213933709, rel=1e-12)

    def test_tiny_eta_branch(self):
        assert gamma_exponent(0.2, 1e-6) == 1e-6

    def test_both_inequalities_hold(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            th = rng.uniform(1e-6, 0.9)
            eta = rng.uniform(1e-6, 1.5)
            g = gamma_exponent(th, eta)
            assert 0.0 < g < 1.0
            assert (2.0 - th) / 2.0 <= 2.0 ** -g + 1e-15
            assert g <= eta

    def test_monotone_in_theta_and_eta(self):
        assert gamma_exponent(0.2, 0.5) >= gamma_exponent(0.1, 0.5)
        assert gamma_exponent(0.2, 0.5) >= gamma_exponent(0.2, 0.05)


class TestLambda:
    def test_pure_solution_scale(self):
        assert lambda_rescale(1.0, 0.0, 0.37, 2.0) == 0.5

    def test_pure_source_scale(self):
        assert lambda_rescale(0.0, 0.37, 0.37, 2.0) == 0.5

    def test_mixed(self):
        # (f/sigma)^(1/(p-1)) = 4 at p = 2 and sqrt(4) = 2 at p = 3
        s = 0.1
        assert lambda_rescale(1.0, 4.0 * s, s, 2.0) == pytest.approx(0.1)
        assert lambda_rescale(1.0, 4.0 * s, s, 3.0) == pytest.approx(1.0 / 6.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateScaling):
            lambda_rescale(0.0, 0.0, 0.3, 2.0)


class TestBarrierTerms:
    def test_beta_diff_matches_direct_difference(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-0.74, 0.74, 200)
        y = rng.uniform(1e-3, 1.0, 200) * rng.choice([-1.0, 1.0], 200)
        inside = np.abs(x + y) < 1.0
        x, y = x[inside], y[inside]
        direct = barrier_eval(x) - barrier_eval(x + y)
        exact = np.array([_beta_diff(float(a), b) for a, b in zip(x, y)])
        assert np.allclose(exact, direct, rtol=1e-13, atol=0.0)

    def test_beta_diff_small_offsets_follow_taylor(self):
        # The direct difference is pure rounding noise at these offsets.
        for x in (0.0, 0.37, -0.6475):
            d1 = float(barrier_grad(x))
            d2 = float(barrier_hess(x)[0, 0])
            for y in (1e-9, -1e-9, 1e-12, -1e-12):
                taylor = -(d1 * y + 0.5 * d2 * y * y)
                assert float(_beta_diff(x, y)) == pytest.approx(taylor, rel=1e-6)

    def test_beta_diff_outside_ball_is_beta(self):
        for x, y in ((0.3, 0.7), (0.3, 1.2), (-0.5, -0.6), (0.0, -1.0)):
            assert float(_beta_diff(x, y)) == float(barrier_eval(x))

    def test_Ip_signed_closed_form_at_origin(self, desk_params):
        # At x = 0 with p = 2 and K = |y|^(-1-sp), sp = 1.2, the paired
        # integrand is 2 (2 y^2 - y^4) y^(-2.2), so the term is
        # 2 int_0^1 (2 y^(-0.2) - y^(1.8)) dy = 2 (2.5 - 1/2.8) = 30/7.
        P = desk_params
        val = _term_I(0.0, P, P.exponents.p, P.Ksp, None, True, 1e-9)
        assert np.ndim(val) == 0
        assert val == pytest.approx(30.0 / 7.0, rel=1e-12)

    def test_near_field_terms_within_panel_budget(self, desk_params,
                                                  monkeypatch):
        # Probes where the barrier difference, formed by subtraction, once
        # stalled bisection on rounding noise until the budget ran out.
        # Each probe is one row of the row engine, and its panels are
        # counted from the rows of the abscissae, 15 to a GK15 panel.  A
        # row that runs out stops with one or no panel of its budget left
        # unspent.
        orig = nldp.quadrature.adaptive_quad_rows
        sig = inspect.signature(orig)
        runs = []

        def counting(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            f = bound.arguments["f"]
            panels = np.zeros(len(bound.arguments["edges"]), dtype=int)

            def counted(y, rows):
                panels[:] += np.bincount(rows, minlength=panels.size) // 15
                return f(y, rows)

            bound.arguments["f"] = counted
            out = orig(*bound.args, **bound.kwargs)
            runs.append((panels, bound.arguments["max_total_panels"]))
            return out

        monkeypatch.setattr(nldp.quadrature, "adaptive_quad_rows", counting)
        P = desk_params
        xs = np.array([0.37, 0.555, -0.6475])
        _term_I(xs, P, P.exponents.q, P.Ktq,
                lambda xx, yy: P.c_hat * P.a.eval(xx, yy), False, 1e-9)
        _term_I(xs, P, P.exponents.p, P.Ksp, None, True, 1e-9)
        assert len(runs) == 2
        for panels, budget in runs:
            assert panels.shape == xs.shape and np.all(panels >= 5)
            assert np.all(panels < budget - 1)


class TestBatchedTermsMatchPerProbe:
    """The bundle terms of all probes, integrated as rows of one
    row-batched call per phase, against the one-probe-at-a-time code."""

    XS = probe_points(32)
    ETAS = (0.00010965983072916666, 0.01)

    @staticmethod
    def cases(desk_params):
        # desk; kernels that depend on x (lam > 1); a coefficient that
        # depends on the offset.
        return (desk_params,
                model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2, lam=1.5,
                             coefficient=holder_coefficient(1, 1.0, 0.5)))

    def test_term_I(self, desk_params):
        # The signed p form of regime 1 and the absolute q form on desk and
        # on the x-dependent kernel with a Hoelder coefficient, whose kinks
        # inside panels leave differences at the scale of tol; the absolute
        # p and q forms of regimes 2 and 3 on a problem with p > 1/(1-s).
        desk, holder = self.cases(desk_params)
        regime2 = model_params(n=1, s=0.4, t=0.3, p=1.8, q=2.2)
        for P, signed_p, rtol in ((desk, True, 1e-10), (holder, True, 1e-8),
                                  (regime2, False, 1e-10)):
            e = P.exponents

            def coeff(x, y, P=P):
                return P.c_hat * P.a.eval(x, y)

            got = _term_I(self.XS, P, e.q, P.Ktq, coeff, False, 1e-9)
            want = [term_I_abs_per_probe(float(x), P, e.q, P.Ktq, coeff, 1e-9)
                    for x in self.XS]
            assert got.shape == self.XS.shape
            assert np.allclose(got, want, rtol=rtol, atol=0.0)
            got = _term_I(self.XS, P, e.p, P.Ksp, None, signed_p, 1e-9)
            if signed_p:
                want = [term_Ip_signed_per_probe(float(x), P, 1e-9)
                        for x in self.XS]
            else:
                want = [term_I_abs_per_probe(float(x), P, e.p, P.Ksp, None,
                                             1e-9) for x in self.XS]
            assert np.allclose(got, want, rtol=rtol, atol=0.0)

    def test_term_II(self, desk_params):
        for P in self.cases(desk_params):
            e = P.exponents
            phases = ((e.p, P.Ksp, None),
                      (e.q, P.Ktq, lambda x, y: P.c_hat * P.a.eval(x, y)))
            for eta in self.ETAS:
                for kappa in (0.0, 2.0 ** -12, 0.5):
                    for r_exp, kern, coeff in phases:
                        got = _term_II(self.XS, P, kappa, eta, r_exp, kern,
                                       coeff, 1e-9)
                        want = [term_II_per_probe(float(x), P, kappa, eta,
                                                  r_exp, kern, coeff, 1e-9)
                                for x in self.XS]
                        assert got.shape == self.XS.shape
                        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_term_III_all_regimes(self, desk_params):
        for P in self.cases(desk_params):
            for eta in self.ETAS:
                for regime in (1, 2, 3):
                    got = _term_III(self.XS, P, eta, regime, 1e-9)
                    want = [term_III_per_probe(float(x), P, eta, regime, 1e-9)
                            for x in self.XS]
                    assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_scalar_probe(self, desk_params):
        P = desk_params
        got = _term_III(0.37, P, 0.01, 1, 1e-9)
        assert np.ndim(got) == 0
        assert got == pytest.approx(term_III_per_probe(0.37, P, 0.01, 1, 1e-9),
                                    rel=1e-13)
        cache = {}
        one = _bundle_terms(0.37, P, 2.0 ** -12, 0.01, 1, 1e-9, cache)
        # A cache shared across probe sets keeps them apart.
        other = _bundle_terms(-0.5, P, 2.0 ** -12, 0.01, 1, 1e-9, cache)
        both = _bundle_terms(np.array([0.37, -0.5]), P, 2.0 ** -12, 0.01, 1,
                             1e-9, cache)
        for name in one:
            assert np.ndim(one[name]) == 0
            assert [one[name], other[name]] == pytest.approx(
                list(both[name]), rel=1e-13)


class TestSelection:
    def test_regime_routing(self):
        assert applicable_regimes(model_params(n=1, s=0.6, t=0.5, p=2.0, q=2.2)) == [1]
        P2 = model_params(n=1, s=0.45, t=0.40, p=1.9, q=2.1)
        assert P2.validation_report() == []
        assert applicable_regimes(P2) == [2]
        P3 = model_params(n=1, s=0.42, t=0.39, p=1.8, q=1.9)
        assert P3.validation_report() == []
        assert applicable_regimes(P3) == [3]

    @pytest.mark.parametrize("q, pair", [
        (2.2, (1.6448974609374998e-05, 2.384185791015625e-07)),    # regime 2
        (1.95, (1.8416555304276318e-05, 9.5367431640625e-07)),     # regime 3
    ])
    def test_singular_regime_selection_pinned(self, q, pair):
        P = model_params(n=1, s=0.4, t=0.3, p=1.8, q=q)
        assert applicable_regimes(P) == [2 if q > 2.0 else 3]
        eta, kappa, cert = choose_eta_kappa(1.0, P)
        assert (eta, kappa) == pair
        assert_certificate(cert, SINGULAR_CERTIFICATES[q])

    def test_two_regime_selection_pinned(self):
        P = model_params(n=1, s=0.4, t=0.3, p=2.0, q=2.2)
        assert P.validation_report() == []
        _, _, cert = choose_eta_kappa(1.0, P)
        assert_certificate(cert, TWO_REGIME_CERTIFICATE)

    def test_desk_bundle_pinned(self, desk_bundle):
        fields = _fields(desk_bundle)
        cert = fields.pop("certificate")
        assert fields == DESK_BUNDLE
        assert_certificate(cert, DESK_CERTIFICATE)

    def test_one_sigma_per_bundle(self, desk_params, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return sigma(*args, **kwargs)

        monkeypatch.setattr(nldp.constants, "sigma", counting)
        b = build_bundle(desk_params, u_sup=0.002, f_sup=desk_params.f.sup)
        assert len(calls) == 1
        assert b.sigma == b.certificate.sigma_at_eta == DESK_BUNDLE["sigma"]

    def test_halve(self):
        seen = []

        def ok(x):
            seen.append(x)
            return x <= 0.1

        assert _halve(1.0, ok, 60, "unused") == 0.0625
        assert seen == [1.0, 0.5, 0.25, 0.125, 0.0625]
        with pytest.raises(SelectionFailed, match="^no luck$"):
            _halve(1.0, ok, 4, "no luck")

    def test_tail_term_monotone_in_eta(self, desk_params):
        vals = [_term_III(0.0, desk_params, eta, 1, 1e-9)
                for eta in (0.02, 0.01, 0.005)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_desk_selection_certificate(self, desk_bundle):
        cert = desk_bundle.certificate
        assert cert is not None
        assert cert.worst_total <= cert.target
        assert 0 < desk_bundle.kappa <= 0.5
        assert 0 < desk_bundle.eta < 0.5
        # competition cap of the kappa-terms
        assert desk_bundle.kappa <= cert.kappa_cap

    def test_fresh_probe_reverification(self, desk_params, desk_bundle):
        cert = desk_bundle.certificate
        rng = np.random.default_rng(99)
        cache = {}
        worst = 0.0
        for x in rng.uniform(-0.75, 0.75, 16):
            terms = _bundle_terms(float(x), desk_params, desk_bundle.kappa,
                                  desk_bundle.eta, 1, 1e-9, cache)
            worst = max(worst, terms["total"])
        assert worst <= cert.target * 1.001 + 1e-12

    def test_homogeneous_mode_selection(self):
        # s/t >= q/p > 1+s: valid only in homogeneous mode; selection still
        # succeeds (experimental relaxation)
        P = model_params(n=1, s=0.3, t=0.2, p=2.0, q=2.8)
        assert P.validation_report()  # rejected by the inhomogeneous rules
        eta, kappa, cert = choose_eta_kappa(1.0, P, tol=1e-8, probes=8,
                                            homogeneous=True)
        assert eta > 0 and kappa > 0


class TestBundle:
    def test_relations(self, desk_bundle):
        b = desk_bundle
        assert b.theta == 95.0 * b.kappa / 256.0
        assert (2.0 - b.theta) / 2.0 <= 2.0 ** (-b.gamma) + 1e-15
        assert b.gamma <= b.eta
        assert b.sigma_lo <= b.sigma <= b.sigma_hi
        assert b.omega_n == 2.0
