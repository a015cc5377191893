"""Adaptive panel quadrature built on nested Gauss-Kronrod 7/15 rules.

All integrands are expected to be vectorised over numpy arrays of
abscissae: one integrand call covers many panels (every active panel of a
bisection pass, or a chunk of geometric tail panels).  Every routine
returns ``(value, error_estimate)`` so callers can propagate quadrature
error budgets; the estimates are the usual Kronrod-minus-Gauss heuristics
summed over panels plus any analytic remainder attached to unbounded
domains.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

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
# Geometric tail panels evaluated per integrand call.
_TAIL_CHUNK = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature policy for operator evaluation.

    ``rho_near`` and ``R_far`` default to the grid-aware values 4h and
    max(8R, 64); ``None`` means "derive from the grid at hand".
    """

    rho_near: float | None = None
    R_far: float | None = None
    tol: float = 1e-8

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


def gk_panels(f, lo, hi, extra=()):
    """GK15 on every panel [lo[i], hi[i]] with one call of ``f``.

    Returns per-panel values and error estimates as arrays (the QUADPACK
    sharpening of the Kronrod-minus-Gauss difference, floored by the raw
    difference), and the values of ``f`` at the ``extra`` points, which
    ride along in the same call.
    """
    mids = 0.5 * (lo + hi)
    halves = 0.5 * (hi - lo)
    pts = mids[:, None] + halves[:, None] * _XK
    fx = np.asarray(f(np.concatenate([pts.ravel(), extra])), dtype=float)
    fe = fx[pts.size:]
    fx = fx[:pts.size].reshape(pts.shape)
    kron = halves * (fx @ _WK)
    gauss = halves * (fx[:, _G_IDX] @ _WG)
    diff = np.abs(kron - gauss)
    err = np.minimum((200.0 * diff) ** 1.5, 200.0 * diff)
    return kron, np.maximum(err, diff), fe


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10,
                  max_depth: int = 48, initial_edges=None,
                  max_total_panels: int = 4000):
    """Adaptive bisection GK15 over a finite interval, breadth first.

    ``initial_edges`` seeds the panel decomposition (useful to align panels
    with known kinks of the integrand).  Each pass evaluates every active
    panel with one call of ``f`` and accepts a panel when its error
    estimate meets its share of ``tol`` (absolute + relative mix, by
    width), at the depth cap, or when it is too narrow to bisect; the rest
    are bisected.  These are per-panel rules, so the accepted panels are
    those of one-panel-at-a-time bisection.  A panel is bisected only if
    both halves fit in what is left of ``max_total_panels`` (roughness
    floors, e.g. rounding noise, must not stall the evaluation), so a call
    never evaluates more panels than that; a call that runs out keeps the
    estimates of its unsplit panels and logs one WARNING.
    """
    if initial_edges is None:
        edges = np.array([a, b], dtype=float)
    else:
        edges = np.unique(np.clip(np.asarray(initial_edges, dtype=float), a, b))
        if edges[0] > a:
            edges = np.insert(edges, 0, a)
        if edges[-1] < b:
            edges = np.append(edges, b)
    lo, hi = edges[:-1], edges[1:]
    if lo.size > max_total_panels:
        raise ValueError(f"{lo.size} initial panels exceed the budget "
                         f"max_total_panels={max_total_panels}")
    span = max(b - a, 1e-300)
    vals, errs = [], []
    spent, depth, starved = 0, 0, False
    while lo.size:
        v, e, _ = gk_panels(f, lo, hi)
        spent += lo.size
        width = hi - lo
        split = ~((e <= tol * np.maximum(1.0, np.abs(v)) * width / span)
                  | (width < 1e-15 * np.maximum(np.maximum(np.abs(lo),
                                                           np.abs(hi)), 1.0)))
        if depth >= max_depth:
            split[:] = False
        fits = 2 * np.cumsum(split) <= max_total_panels - spent
        starved |= bool(np.any(split & ~fits))
        split &= fits
        vals.append(v[~split])
        errs.append(e[~split])
        lo, hi = lo[split], hi[split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        depth += 1
    total = float(np.sum(np.concatenate(vals)))
    err = float(np.sum(np.concatenate(errs)))
    if starved:
        logger.warning("adaptive_quad on [%.6g, %.6g] ran out of its panel "
                       "budget: %d of %d panels, err %.3g against tol %.3g",
                       a, b, spent, max_total_panels, err, tol)
    return total, err


def substitution_power(worst_exponent: float) -> int:
    """Power m of the substitution y = rho t^m that smooths an integrand
    f ~ y^e (e > -1) at 0: the transformed integrand vanishes at t = 0."""
    return int(np.clip(math.ceil(3.0 / (1.0 + worst_exponent)), 4, 48))


def near_singular_quad(f, rho: float, worst_exponent: float,
                       tol: float = 1e-11, breaks=()):
    """Integrate f over (0, rho) when f ~ y**e near 0 with e > -1.

    Uses the power substitution y = rho * t**m of ``substitution_power``,
    then adapts.  ``breaks`` are offsets in (0, rho) where f changes form;
    their images in t become panel edges, so bisection need not find them.
    """
    e = worst_exponent
    if e <= -1.0:
        raise ValueError("near-field exponent must exceed -1")
    m = substitution_power(e)

    def g(t):
        t = np.asarray(t, dtype=float)
        y = rho * t ** m
        out = np.zeros_like(t)
        pos = y > 0
        if np.any(pos):
            out[pos] = f(y[pos]) * rho * m * t[pos] ** (m - 1)
        return out

    t_breaks = [(b / rho) ** (1.0 / m) for b in breaks if 0.0 < b < rho]
    return adaptive_quad(g, 0.0, 1.0, tol=tol,
                         initial_edges=[0.25, 0.5, 0.75] + t_breaks)


def geometric_tail_quad(f, a: float, decay: float, tol: float = 1e-11,
                        growth: float = 2.0, max_panels: int = 200):
    """Integrate f over (a, inf) with f ~ c * r**(-1-decay), decay > 0.

    Geometric panels until the analytic remainder estimate
    f(r) * r / decay at the right end r of the last panel drops below
    tol * max(1, |sum so far|); the remainder is added to the value and
    into the error budget (doubled if ``max_panels`` run out first).
    ``_TAIL_CHUNK`` panels and their right ends share one call of ``f``;
    edges and running sums accumulate sequentially, in the order of a
    panel-by-panel loop, so the call stops at the same panel.
    """
    if decay <= 0:
        raise ValueError("tail decay exponent must be positive")
    total = err = 0.0
    lo = a
    done = 0
    while done < max_panels:
        n = min(_TAIL_CHUNK, max_panels - done)
        edges = np.cumprod(np.r_[lo, np.full(n, growth)])
        v, e, f_hi = gk_panels(f, edges[:-1], edges[1:], extra=edges[1:])
        totals = np.cumsum(np.r_[total, v])[1:]
        errs = np.cumsum(np.r_[err, e])[1:]
        tails = f_hi * edges[1:] / decay
        stop = np.abs(tails) <= tol * np.maximum(1.0, np.abs(totals))
        if stop.any():
            k = int(np.argmax(stop))
            return float(totals[k] + tails[k]), float(errs[k] + abs(tails[k]))
        total, err, tail_val, lo = totals[-1], errs[-1], tails[-1], edges[-1]
        done += n
    return float(total + tail_val), float(err + 2.0 * abs(tail_val))


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
