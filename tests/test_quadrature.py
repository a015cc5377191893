"""The batched GK15 engine against the one-panel-per-call loops it replaced.

``adaptive_quad`` refines breadth first and ``geometric_tail_quad`` takes
its geometric panels a chunk at a time; neither may change which panels
are accepted or where the tail stops.  The oracles in ``oracles.py`` are
the previous loops, so a panel count here is compared exactly and a value
to the last few bits (the batched kernel sums each panel's 15 products in
a different order).
"""

import logging

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import adaptive_quad_depth_first, geometric_tail_quad_sequential

import nldp.constants
import nldp.quadrature
from nldp.constants import _term_II
from nldp.quadrature import (_TAIL_CHUNK, adaptive_quad, geometric_tail_quad,
                             near_singular_quad)

DESK_KAPPA = 2.0 ** -12
DESK_ETA = 0.00010965983072916666


def counted(f):
    """Wrap ``f`` to count the GK15 panels it is called on (15 points
    each); single points, such as tail right ends, count as none."""
    def g(x):
        g.panels += np.size(x) // 15
        return f(x)
    g.panels = 0
    return g


def assert_matches_depth_first(f, a, b, **kwargs):
    """Engine and oracle agree in value and in the number of panels.

    Every evaluated panel is either accepted or bisected into two, so with
    the same initial panels equal evaluated counts mean equal accepted
    counts.  A converged error estimate is rounding noise of the value
    (Kronrod minus Gauss), so it is compared to the value's tolerance.
    """
    fe, fo = counted(f), counted(f)
    v, e = adaptive_quad(fe, a, b, **kwargs)
    vo, eo = adaptive_quad_depth_first(fo, a, b, **kwargs)
    assert fe.panels == fo.panels
    assert v == pytest.approx(vo, rel=1e-13, abs=1e-300)
    assert e == pytest.approx(eo, rel=1e-6, abs=1e-13 * abs(vo))
    return fe.panels


def recording(monkeypatch, module):
    """Route ``module.adaptive_quad`` through the engine, keeping every
    call's arguments so they can be replayed against the oracle."""
    calls = []

    def rec(f, a, b, **kwargs):
        calls.append((f, a, b, kwargs))
        return adaptive_quad(f, a, b, **kwargs)

    monkeypatch.setattr(module, "adaptive_quad", rec)
    return calls


class TestAdaptiveMatchesDepthFirst:
    def test_smooth(self):
        panels = assert_matches_depth_first(
            lambda x: np.exp(-x) * np.sin(5.0 * x), 0.0, 4.0, tol=1e-13)
        assert panels > 1

    def test_kink_seeded_by_initial_edges(self):
        panels = assert_matches_depth_first(
            lambda x: np.abs(x - 0.3) ** 1.5, 0.0, 1.0, tol=1e-12,
            initial_edges=[0.0, 0.3, 1.0])
        assert panels > 2

    def test_depth_cap(self):
        # Never converges at this tol: every panel is bisected down to the
        # cap, a full binary tree of 2^5 - 1 panels.
        panels = assert_matches_depth_first(
            lambda x: np.abs(x - 1.0 / 3.0) ** 0.2, 0.0, 1.0, tol=1e-15,
            max_depth=4)
        assert panels == 31

    def test_near_singular_substitution(self, monkeypatch):
        calls = recording(monkeypatch, nldp.quadrature)
        v, _ = near_singular_quad(lambda y: y ** -0.6, 0.5, -0.6, tol=1e-11)
        assert v == pytest.approx(0.5 ** 0.4 / 0.4, rel=1e-10)
        assert len(calls) == 1
        f, a, b, kwargs = calls[0]
        assert assert_matches_depth_first(f, a, b, **kwargs) > 4

    def test_desk_term_II_integrand(self, desk_params, monkeypatch):
        calls = recording(monkeypatch, nldp.constants)
        P = desk_params
        _term_II(0.37, P, DESK_KAPPA, DESK_ETA, P.exponents.q, P.Ktq,
                 lambda xx, yy: P.c_hat * P.a.eval(xx, yy), 1e-9)
        assert len(calls) == 2  # one body per side
        for f, a, b, kwargs in calls:
            assert assert_matches_depth_first(f, a, b, **kwargs) >= 15


class TestTailStopsWithSequentialLoop:
    # f(r) = r^-2 + r^-3 from 1 with decay 1: the remainder estimate at
    # r = 2^k is 2^-k + 4^-k while the true remainder is 2^-k + 4^-k / 2,
    # so the returned value tells which panel the loop stopped at.
    @staticmethod
    def f(r):
        r = np.asarray(r, dtype=float)
        return r ** -2.0 + r ** -3.0

    @classmethod
    def tol_stopping_at(cls, k):
        """A tol halfway (in ratio) between the stop tests of panels k-1
        and k, so the loop stops at panel k."""
        def ratio(j):
            r = 2.0 ** j
            total = 1.5 - 1.0 / r - 0.5 / r ** 2
            return (1.0 / r + 1.0 / r ** 2) / max(1.0, total)
        return np.sqrt(ratio(k) * ratio(k - 1)) if k > 1 else ratio(1) * 1.5

    def compare(self, tol, max_panels=200):
        fo = counted(self.f)
        vo, eo = geometric_tail_quad_sequential(fo, 1.0, 1.0, tol=tol,
                                                max_panels=max_panels)
        v, e = geometric_tail_quad(self.f, 1.0, 1.0, tol=tol,
                                   max_panels=max_panels)
        assert v == pytest.approx(vo, rel=1e-13)
        assert e == pytest.approx(eo, rel=1e-6)
        return fo.panels

    @pytest.mark.parametrize("k", [1, _TAIL_CHUNK, _TAIL_CHUNK + 1])
    def test_stop_panel(self, k):
        assert self.compare(self.tol_stopping_at(k)) == k

    def test_neighbouring_stops_are_told_apart(self):
        k = _TAIL_CHUNK + 1
        v, _ = geometric_tail_quad(self.f, 1.0, 1.0, tol=self.tol_stopping_at(k))
        for j in (k - 1, k + 1):
            vj, _ = geometric_tail_quad_sequential(
                self.f, 1.0, 1.0, tol=self.tol_stopping_at(j))
            assert abs(v - vj) > 100 * 1e-13 * abs(v)

    def test_max_panels_exhausted(self):
        # 20 panels: one full chunk and a short one, then the 2x remainder.
        assert self.compare(1e-300, max_panels=_TAIL_CHUNK + 4) == _TAIL_CHUNK + 4


class TestAgainstQuadpack:
    @pytest.mark.parametrize("a, d", [(1.0, 0.5), (3.0, 1.2), (0.25, 0.3)])
    def test_power_law_tail(self, a, d):
        def f(r):
            return np.asarray(r, dtype=float) ** (-1.0 - d)

        body, _ = adaptive_quad(f, a, 8.0 * a, tol=1e-13)
        tail, _ = geometric_tail_quad(f, 8.0 * a, d, tol=1e-13)
        ref, _ = quad(lambda r: r ** (-1.0 - d), a, np.inf, epsabs=0.0,
                      epsrel=1e-12, limit=200)
        assert body + tail == pytest.approx(ref, rel=1e-10)
        assert body + tail == pytest.approx(a ** -d / d, rel=1e-10)


class TestPanelBudget:
    @staticmethod
    def rough(x):
        return np.abs(x - 1.0 / 3.0) ** 0.2

    @pytest.mark.parametrize("budget", [7, 100])
    def test_exhausted_call_stays_within_budget_and_warns_once(self, budget,
                                                               caplog):
        f = counted(self.rough)
        with caplog.at_level(logging.WARNING, logger="nldp.quadrature"):
            v, _ = adaptive_quad(f, 0.0, 1.0, tol=1e-15,
                                 max_total_panels=budget)
        assert budget - 1 <= f.panels <= budget
        warnings = [r for r in caplog.records
                    if r.name == "nldp.quadrature" and r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert f"{f.panels} of {budget} panels" in warnings[0].getMessage()
        exact = 1.2 ** -1 * ((2.0 / 3.0) ** 1.2 + (1.0 / 3.0) ** 1.2)
        assert v == pytest.approx(exact, rel=1e-2)

    def test_call_within_budget_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="nldp.quadrature"):
            adaptive_quad(self.rough, 0.0, 1.0, tol=1e-8,
                          initial_edges=[0.0, 1.0 / 3.0, 1.0])
        assert not [r for r in caplog.records if r.name == "nldp.quadrature"]

    def test_initial_panels_over_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            adaptive_quad(self.rough, 0.0, 1.0,
                          initial_edges=np.linspace(0.0, 1.0, 10),
                          max_total_panels=8)
