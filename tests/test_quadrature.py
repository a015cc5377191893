"""The batched GK15 engine against the one-panel-per-call loops it replaced.

``adaptive_quad_rows`` refines a stack of rows breadth first and
``geometric_tail_quad_rows`` takes their geometric panels a chunk at a
time (``adaptive_quad``, ``near_singular_quad`` and ``geometric_tail_quad``
are one-row calls); neither may change which panels a row accepts or where
its tail stops, whatever the other rows do.  The oracles in ``oracles.py``
are the previous loops, so a panel count here is compared exactly and a value
to the last few bits (the batched kernel sums each panel's 15 products in
a different order).
"""

import logging
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import adaptive_quad_depth_first, geometric_tail_quad_sequential

import nldp.constants
import nldp.quadrature
from nldp.constants import _term_II
from nldp.quadrature import (_PASS_POINTS, _TAIL_CHUNK, adaptive_quad,
                             adaptive_quad_rows,
                             geometric_tail_quad, geometric_tail_quad_rows,
                             gk_panels, near_singular_quad,
                             near_singular_quad_rows)

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


def counted_rows(f, m, per_panel=15):
    """Wrap a row integrand ``f(y, rows)`` to count each row's panels:
    ``per_panel`` abscissae each (15 GK15 points, 16 with a tail panel's
    right end)."""
    def g(y, rows):
        g.panels += np.bincount(rows, minlength=m) // per_panel
        return f(y, rows)
    g.panels = np.zeros(m, dtype=int)
    return g


def stacked(funcs):
    """One row integrand that evaluates ``funcs[i]`` on the points of row i."""
    def f(y, rows):
        out = np.empty_like(y)
        for i, fi in enumerate(funcs):
            on = rows == i
            out[on] = fi(y[on])
        return out
    return f


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
        # near_singular_quad is one row of one row-batched call in the
        # substituted variable; that row is replayed alone.
        calls = []

        def rec(f, edges, tol):
            calls.append((f, edges, tol))
            return adaptive_quad_rows(f, edges, tol)

        monkeypatch.setattr(nldp.quadrature, "adaptive_quad_rows", rec)
        v, _ = near_singular_quad(lambda y: y ** -0.6, 0.5, -0.6, tol=1e-11)
        monkeypatch.undo()
        assert v == pytest.approx(0.5 ** 0.4 / 0.4, rel=1e-10)
        assert len(calls) == 1
        f, edges, tol = calls[0]
        assert len(edges) == 1
        assert assert_matches_depth_first(
            lambda t: f(t, np.zeros(np.shape(t), dtype=int)), edges[0][0],
            edges[0][-1], tol=tol, initial_edges=edges[0]) > 4

    def test_desk_term_II_integrand(self, desk_params, monkeypatch):
        # _term_II integrates both sides of a probe as two rows of one
        # row-batched call; each row is replayed alone against the oracle.
        calls = []

        def rec(f, edges, **kwargs):
            g = counted_rows(f, len(edges))
            val, err = adaptive_quad_rows(g, edges, **kwargs)
            calls.append((f, edges, kwargs, g.panels, val, err))
            return val, err

        monkeypatch.setattr(nldp.constants, "adaptive_quad_rows", rec)
        P = desk_params
        _term_II(0.37, P, DESK_KAPPA, DESK_ETA, P.exponents.q, P.Ktq,
                 lambda xx, yy: P.c_hat * P.a.eval(xx, yy), 1e-9)
        assert len(calls) == 1
        f, edges, kwargs, panels, val, err = calls[0]
        assert len(edges) == 2  # one body per side
        for i, row_edges in enumerate(edges):
            fo = counted(lambda y, i=i: f(y, np.full(np.shape(y), i)))
            vo, eo = adaptive_quad_depth_first(
                fo, row_edges[0], row_edges[-1], initial_edges=row_edges,
                **kwargs)
            assert panels[i] == fo.panels >= 15
            assert val[i] == pytest.approx(vo, rel=1e-13, abs=1e-300)
            assert err[i] == pytest.approx(eo, rel=1e-6, abs=1e-13 * abs(vo))


class TestRowsMatchOneRowRuns:
    """A stack of rows is integrated as each row would be alone: same
    accepted panels, same tail stop, whatever the other rows do."""

    ROUGH = staticmethod(lambda x: np.abs(x - 1.0 / 3.0) ** 0.2)
    FUNCS = (lambda x: np.exp(-x) * np.sin(5.0 * x),   # smooth, span 4
             lambda x: np.abs(x - 0.3) ** 1.5,          # kink at an edge
             ROUGH,                                     # to the depth cap
             ROUGH,                                     # budget of 7
             lambda x: np.cos(40.0 * x))                # span 0.2
    EDGES = np.array([[0.0, 1.0, 2.0, 4.0],
                      [0.0, 0.3, 0.6, 1.0],
                      [0.0, 0.25, 0.5, 1.0],
                      [0.0, 0.1, 0.5, 1.0],
                      [1.0, 1.05, 1.1, 1.2]])
    TOLS = np.array([1e-13, 1e-12, 1e-15, 1e-15, 1e-12])
    BUDGETS = np.array([4000, 4000, 4000, 7, 4000])
    DEPTH = 6

    def run_stack(self, caplog):
        f = counted_rows(stacked(self.FUNCS), len(self.FUNCS))
        with caplog.at_level(logging.WARNING, logger="nldp.quadrature"):
            val, err = adaptive_quad_rows(f, self.EDGES, tol=self.TOLS,
                                          max_depth=self.DEPTH,
                                          max_total_panels=self.BUDGETS)
        return val, err, f.panels

    def test_rows_match_depth_first_alone(self, caplog):
        val, err, panels = self.run_stack(caplog)
        for i in (0, 1, 2, 4):
            fo = counted(self.FUNCS[i])
            edges = self.EDGES[i]
            vo, eo = adaptive_quad_depth_first(
                fo, edges[0], edges[-1], tol=self.TOLS[i],
                max_depth=self.DEPTH, initial_edges=edges)
            assert panels[i] == fo.panels
            assert val[i] == pytest.approx(vo, rel=1e-13, abs=1e-300)
            assert err[i] == pytest.approx(eo, rel=1e-6,
                                           abs=1e-13 * abs(vo))
        # The depth-capped row is a full binary tree below each of its
        # three initial panels.
        assert panels[2] == 3 * (2 ** (self.DEPTH + 1) - 1)

    def test_row_out_of_budget_is_its_one_row_run(self, caplog):
        # The depth-first loop spends a budget differently (it evaluates
        # every panel left on its stack), so the reference of a row that
        # runs out is the one-row call; the other rows' panels are those
        # of their runs alone, checked above with this row in the stack.
        val, err, panels = self.run_stack(caplog)
        fo = counted(self.ROUGH)
        with caplog.at_level(logging.WARNING, logger="nldp.quadrature"):
            vo, eo = adaptive_quad(fo, 0.0, 1.0, tol=1e-15,
                                   max_depth=self.DEPTH,
                                   initial_edges=self.EDGES[3],
                                   max_total_panels=7)
        assert panels[3] == fo.panels and 6 <= fo.panels <= 7
        assert val[3] == pytest.approx(vo, rel=1e-13)
        assert err[3] == pytest.approx(eo, rel=1e-6)
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "nldp.quadrature"
                    and r.levelno == logging.WARNING]
        assert len(warnings) == 2  # one for the stack, one for the row alone
        assert warnings[0].startswith("adaptive_quad: 1 of 5 rows ran out")
        assert f"row 3 on [0, 1]: {fo.panels} of 7 panels" in warnings[0]

    def test_tail_rows_stop_as_sequential_loops(self):
        # Rows of TestTailStopsWithSequentialLoop stopping at panels 1, 16
        # and 17, one that never stops, and a row with another start,
        # decay and integrand.
        tail = TestTailStopsWithSequentialLoop
        funcs = [tail.f] * 4 + [lambda r: np.asarray(r) ** -1.5]
        starts = np.array([1.0, 1.0, 1.0, 1.0, 3.0])
        decays = np.array([1.0, 1.0, 1.0, 1.0, 0.5])
        tols = np.array([tail.tol_stopping_at(1),
                         tail.tol_stopping_at(_TAIL_CHUNK),
                         tail.tol_stopping_at(_TAIL_CHUNK + 1), 1e-300, 1e-9])
        max_panels = _TAIL_CHUNK + 4
        f = counted_rows(stacked(funcs), len(funcs), per_panel=16)
        val, err = geometric_tail_quad_rows(f, starts, decays, tol=tols,
                                            max_panels=max_panels)
        stops = []
        for i, fi in enumerate(funcs):
            fo = counted(fi)
            vo, eo = geometric_tail_quad_sequential(
                fo, starts[i], decays[i], tol=tols[i], max_panels=max_panels)
            stops.append(fo.panels)
            # The value tells the stop panel apart; a row is evaluated a
            # chunk at a time up to the chunk holding its stop, no further.
            chunks = -(-fo.panels // _TAIL_CHUNK)
            assert f.panels[i] == min(chunks * _TAIL_CHUNK, max_panels)
            assert val[i] == pytest.approx(vo, rel=1e-13)
            assert err[i] == pytest.approx(eo, rel=1e-6)
        assert stops[:4] == [1, _TAIL_CHUNK, _TAIL_CHUNK + 1, max_panels]


class TestNearSingularRows:
    """Rows of ``near_singular_quad_rows`` with their own radius and break
    return the one-row ``near_singular_quad`` of each, bit for bit."""

    @staticmethod
    def f(y, rows):
        # y^-0.6, doubled beyond a jump at c = 0.2 (rows 0, 1) or 0.05
        # (row 2); row 3 has no jump in its range.
        c = np.where(rows == 2, 0.05, 0.2)
        return np.where(y < c, 1.0, 2.0) * y ** -0.6

    RHO = np.array([0.5, 1.7, 0.3, 0.1])
    BREAKS = np.array([[0.2], [0.2], [0.05], [0.2]])

    def test_rows_equal_one_row_runs(self):
        val, err = near_singular_quad_rows(self.f, self.RHO, -0.6, 1e-11,
                                           self.BREAKS)
        for i, (rho, (b,)) in enumerate(zip(self.RHO, self.BREAKS)):
            vo, eo = near_singular_quad(
                lambda y, i=i: self.f(y, np.full(np.shape(y), i)), rho, -0.6,
                tol=1e-11, breaks=(b,))
            assert (val[i], err[i]) == (vo, eo)

    def test_break_is_an_edge(self):
        # Left to bisection, the jump costs panels down to the depth cap.
        def count(breaks):
            g = counted_rows(self.f, 1)
            val, _ = near_singular_quad_rows(g, self.RHO[:1], -0.6, 1e-11,
                                             breaks)
            return val[0], g.panels[0]
        v, panels = count(self.BREAKS[:1])
        assert 4 * panels < count(())[1]
        # 0.2^0.4 / 0.4 + 2 (0.5^0.4 - 0.2^0.4) / 0.4
        exact = (2.0 * 0.5 ** 0.4 - 0.2 ** 0.4) / 0.4
        assert v == pytest.approx(exact, rel=1e-10)


class TestPanelSumsIndependentOfBatch:
    def test_one_call_equals_one_panel_calls(self):
        # A row's result must not depend on the rows that share its pass,
        # so a panel's GK15 sums may not depend on the panels beside it.
        def f(y, rows):
            return np.abs(y - 1.0 / 3.0) ** 0.2 * np.exp(-y)

        edges = np.linspace(0.0, 1.0, 41)
        v, e, _ = gk_panels(f, edges[:-1], edges[1:], np.zeros(40, dtype=int))
        for i in range(40):
            vi, ei, _ = gk_panels(f, edges[i:i + 1], edges[i + 1:i + 2],
                                  np.zeros(1, dtype=int))
            assert (vi[0], ei[0]) == (v[i], e[i])

    def test_blocked_pass_equals_one_panel_calls(self):
        # A pass of more than three blocks of _PASS_POINTS abscissae, on
        # rows of their own, with the right ends riding along: each call
        # gets whole panels with their ends, and no more abscissae than a
        # block holds, and every panel's sums are those of a call alone.
        n = 4 * (_PASS_POINTS // 15) + 7
        edges = np.linspace(0.0, 3.0, n + 1)
        row = np.arange(n) % 5
        sizes = []

        def f(y, rows):
            sizes.append(y.size)
            return np.abs(y - 1.0 / 3.0) ** 0.2 * np.exp(-y) * (1.0 + rows)

        v, e, fe = gk_panels(f, edges[:-1], edges[1:], row, ends=True)
        assert len(sizes) == 5 and sum(sizes) == 16 * n
        assert all(k % 16 == 0 and k - k // 16 <= _PASS_POINTS for k in sizes)
        for i in range(n):
            vi, ei, fi = gk_panels(f, edges[i:i + 1], edges[i + 1:i + 2],
                                   row[i:i + 1], ends=True)
            assert (vi[0], ei[0], fi[0]) == (v[i], e[i], fe[i])


class TestPassMemory:
    # 2,000 rows of 16 panels: a first pass of 32,000 panels, 480,000
    # abscissae (512,000 with the tail's right ends).  Band, set before
    # the run: a tracemalloc peak of at most 200 bytes per panel of that
    # pass (6.4 MB), less than two floats per abscissa.  Evaluated in one
    # call, the pass's abscissae, rows and values alone would exceed it.
    ROWS, PANELS = 2000, 16
    BAND = 200 * ROWS * PANELS

    @staticmethod
    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_adaptive_pass(self):
        edges = np.linspace(0.0, 1.0, self.PANELS + 1) + np.zeros((self.ROWS, 1))

        def f(y, rows):
            return np.cos(y + rows)

        assert self.peak(lambda: adaptive_quad_rows(f, edges, 1e-10)) <= self.BAND

    def test_tail_pass(self):
        # r^-2 from 1 stops at r = 2^30 at tol 1e-9: two passes of 16.
        a = np.ones(self.ROWS)

        def f(r, rows):
            return r ** -2.0

        assert self.peak(lambda: geometric_tail_quad_rows(f, a, 1.0, 1e-9)) \
            <= self.BAND


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

    def test_debug_lines_count_what_the_integrand_sees(self, caplog):
        # 300 rows of 16 panels, one of them rough on a budget of 20: several
        # integrand calls per pass, several passes, one row out of budget.
        edges = np.linspace(0.0, 1.0, 17) + np.zeros((300, 1))
        budget = np.full(300, 4000)
        budget[0] = 20
        seen = {"calls": 0, "points": 0}

        def f(y, rows):
            seen["calls"] += 1
            seen["points"] += y.size
            return np.where(rows == 0, self.rough(y), np.exp(-y * rows))

        pattern = (r"(\d+) rows, (\d+) passes, (\d+) panels, (\d+) integrand "
                   r"calls, (\d+) rows out of")
        with caplog.at_level(logging.DEBUG, logger="nldp.quadrature"):
            adaptive_quad_rows(f, edges, 1e-12, max_total_panels=budget)
            counts = [int(x) for x in re.search(
                pattern, caplog.records[-1].getMessage()).groups()]
            assert counts[0] == 300 and counts[1] > 1 and counts[4] == 1
            assert counts[2:4] == [seen["points"] // 15, seen["calls"]]
            assert seen["calls"] > counts[1]

            # r^-2 stops near r = 2^30 at tol 1e-9; the last 200 rows never
            # stop and run out of their 48 panels.
            seen.update(calls=0, points=0)
            tol = np.where(np.arange(300) < 100, 1e-9, 1e-300)

            def g(r, rows):
                seen["calls"] += 1
                seen["points"] += r.size
                return (1.0 + rows) * r ** -2.0

            geometric_tail_quad_rows(g, np.ones(300), 1.0, tol, max_panels=48)
            counts = [int(x) for x in re.search(
                pattern, caplog.records[-1].getMessage()).groups()]
            assert counts[0] == 300 and counts[1] == 3 and counts[4] == 200
            assert counts[2:4] == [seen["points"] // 16, seen["calls"]]
            assert seen["calls"] > counts[1]
        messages = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.DEBUG]
        assert [m.split(":")[0] for m in messages] == [
            "adaptive_quad_rows", "geometric_tail_quad_rows"]

    def test_initial_panels_over_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            adaptive_quad(self.rough, 0.0, 1.0,
                          initial_edges=np.linspace(0.0, 1.0, 10),
                          max_total_panels=8)
