"""Adaptive panel quadrature built on nested Gauss-Kronrod 7/15 rules.

All integrands are expected to be vectorised over numpy arrays of
abscissae.  Every routine returns ``(value, error_estimate)`` so callers
can propagate quadrature error budgets; the estimates are the usual
Kronrod-minus-Gauss heuristics summed over panels plus any analytic
remainder attached to unbounded domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 weights aligned with every other Kronrod node (indices 1,3,...,13).
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_G_IDX = np.arange(1, 15, 2)


@dataclass(frozen=True)
class PanelRule:
    """Adaptive-subdivision parameters: bisection depth cap and panel order."""

    max_depth: int = 48
    order: int = 15

    def __post_init__(self):
        if self.order != 15:
            raise ValueError("only the GK7/15 pair is implemented")


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature policy for operator evaluation.

    ``rho_near`` and ``R_far`` default to the grid-aware values 4h and
    max(8R, 64); ``None`` means "derive from the grid at hand".
    """

    rho_near: float | None = None
    R_far: float | None = None
    tol: float = 1e-8
    rule: PanelRule = field(default_factory=PanelRule)

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.rho_near is not None and self.R_far is not None:
            if not 0 < self.rho_near < self.R_far:
                raise ValueError("need 0 < rho_near < R_far")

    def near_radius(self, h: float) -> float:
        return self.rho_near if self.rho_near is not None else 4.0 * h

    def far_radius(self, box_radius: float) -> float:
        if self.R_far is not None:
            return self.R_far
        return max(8.0 * box_radius, 64.0)


def gk_panel(f, a: float, b: float):
    """One GK15 panel on [a, b]; returns (value, error_estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.asarray(f(mid + half * _XK), dtype=float)
    kron = half * float(fx @ _WK)
    gauss = half * float(fx[_G_IDX] @ _WG)
    err = (200.0 * abs(kron - gauss)) ** 1.5 if kron != gauss else 0.0
    # Classic QUADPACK-style sharpening, floored by the raw difference.
    return kron, max(min(err, abs(kron - gauss) * 200.0), abs(kron - gauss))


def gk_panels(f, edges: np.ndarray):
    """GK15 on every [edges[i], edges[i+1]] panel at once (vectorised).

    Returns per-panel values and error estimates as arrays.
    """
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    pts = mids[:, None] + halves[:, None] * _XK[None, :]
    fx = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    kron = halves * (fx @ _WK)
    gauss = halves * (fx[:, _G_IDX] @ _WG)
    diff = np.abs(kron - gauss)
    err = np.minimum((200.0 * diff) ** 1.5, 200.0 * diff)
    return kron, np.maximum(err, diff)


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10,
                  rule: PanelRule = PanelRule(),
                  initial_edges=None, max_total_panels: int = 4000):
    """Adaptive bisection GK15 over a finite interval.

    ``initial_edges`` seeds the panel decomposition (useful to align panels
    with known kinks of the integrand); the list is refined until the summed
    error estimate meets ``tol`` (absolute + relative mix), the depth cap,
    or a hard total-panel budget (roughness floors, e.g. rounding noise,
    must not stall the evaluation).
    """
    if initial_edges is None:
        edges = np.array([a, b], dtype=float)
    else:
        edges = np.unique(np.clip(np.asarray(initial_edges, dtype=float), a, b))
        if edges[0] > a:
            edges = np.insert(edges, 0, a)
        if edges[-1] < b:
            edges = np.append(edges, b)
    panels = [(edges[i], edges[i + 1], 0) for i in range(len(edges) - 1)]
    done = []
    spent = 0
    while panels:
        lo, hi, depth = panels.pop()
        v, e = gk_panel(f, lo, hi)
        spent += 1
        budget = tol * max(1.0, abs(v)) * (hi - lo) / max(b - a, 1e-300)
        if (e <= budget or depth >= rule.max_depth or spent >= max_total_panels
                or (hi - lo) < 1e-15 * max(abs(lo), abs(hi), 1.0)):
            done.append((v, e))
        else:
            mid = 0.5 * (lo + hi)
            panels.append((lo, mid, depth + 1))
            panels.append((mid, hi, depth + 1))
    total = sum(v for v, _ in done)
    err = sum(e for _, e in done)
    return total, err


def near_singular_quad(f, rho: float, worst_exponent: float,
                       tol: float = 1e-11, rule: PanelRule = PanelRule()):
    """Integrate f over (0, rho) when f ~ y**e near 0 with e > -1.

    Uses the power substitution y = rho * t**m with m chosen so the
    transformed integrand vanishes at t = 0, then adapts.
    """
    e = worst_exponent
    if e <= -1.0:
        raise ValueError("near-field exponent must exceed -1")
    m = int(np.clip(np.ceil(3.0 / (1.0 + e)), 4, 48))

    def g(t):
        t = np.asarray(t, dtype=float)
        y = rho * t ** m
        out = np.zeros_like(t)
        pos = y > 0
        if np.any(pos):
            out[pos] = f(y[pos]) * rho * m * t[pos] ** (m - 1)
        return out

    return adaptive_quad(g, 0.0, 1.0, tol=tol, rule=rule,
                         initial_edges=[0.25, 0.5, 0.75])


def geometric_tail_quad(f, a: float, decay: float, tol: float = 1e-11,
                        growth: float = 2.0, max_panels: int = 200):
    """Integrate f over (a, inf) with f ~ c * r**(-1-decay), decay > 0.

    Geometric panels until the analytic remainder estimate
    f(r) * r / decay drops below tolerance; the remainder is added to the
    value and doubled into the error budget.
    """
    if decay <= 0:
        raise ValueError("tail decay exponent must be positive")
    total = 0.0
    err = 0.0
    lo = a
    for _ in range(max_panels):
        hi = lo * growth
        v, e = gk_panel(f, lo, hi)
        total += v
        err += e
        lo = hi
        tail_val = float(f(np.array([lo]))[0]) * lo / decay
        if abs(tail_val) <= tol * max(1.0, abs(total)):
            return total + tail_val, err + abs(tail_val)
    return total + tail_val, err + 2.0 * abs(tail_val)


def panel_nodes_weights(edges: np.ndarray):
    """Concatenated GK15 abscissae/weights for a batch of panels.

    ``edges`` may carry leading axes: each row of edges along the last axis
    gives its own row of abscissae/weights.
    """
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[..., :-1] + edges[..., 1:])
    halves = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = edges.shape[:-1] + (-1,)
    pts = (mids[..., None] + halves[..., None] * _XK).reshape(shape)
    wts = (halves[..., None] * _WK).reshape(shape)
    return pts, wts
