"""Adaptive panel quadrature built on nested Gauss-Kronrod 7/15 rules.

All integrands are expected to be vectorised over numpy arrays of
abscissae: one integrand call covers many panels.  A pass (every active
panel of a bisection pass, or a chunk of geometric tail panels of every
unfinished row) goes to the integrand in blocks of whole panels of at most
``_PASS_POINTS`` abscissae, so its temporaries stay small enough for the
malloc heap to keep them between passes.  Every routine
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
# A slice, not an index array: it keeps the Gauss columns a row-major view.
_G_IDX = slice(1, 15, 2)
# Abscissae per integrand call of ``gk_panels``: a pass larger than this
# runs in blocks of whole panels.  At 4,096 a desk selection keeps its heap
# (under 20 minor faults per operation, against 16,000 at 8,192 and 27,000
# for whole passes); at 2,048 the extra calls cost more than they save.
_PASS_POINTS = 4096
_BLOCK_PANELS = _PASS_POINTS // _XK.size
# Geometric tail panels of a row per pass of ``geometric_tail_quad_rows``.
_TAIL_CHUNK = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature policy for operator evaluation: the tolerance ``tol``.

    The near radius is 4h on a grid of spacing h, the far radius
    max(8R, 64) for the box [-R, R]^n.
    """

    tol: float = 1e-8

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")

    def near_radius(self, h: float) -> float:
        return 4.0 * h

    def far_radius(self, box_radius: float) -> float:
        return max(8.0 * box_radius, 64.0)


def gk_panels(f, lo, hi, row, ends=False):
    """GK15 on every panel [lo[i], hi[i]] of row ``row[i]``, through calls
    ``f(y, rows)``, ``rows`` giving the row of each abscissa.  Returns
    per-panel values and error estimates as arrays (the QUADPACK sharpening
    of the Kronrod-minus-Gauss difference, floored by the raw difference),
    and, with ``ends``, the values of ``f`` at the panels' right ends.

    The panels go to ``f`` in blocks of whole panels, each of at most
    ``_PASS_POINTS`` abscissae (with its right ends riding along), and each
    block's sums are written into the per-panel arrays, so no temporary
    grows with the abscissae of a pass (pass-sized temporaries made glibc
    grow and trim its heap on every pass, and fault the pages in again).
    Each panel's sums run along its own row of a row-major array, in an
    order the panel count does not change (a matrix product through BLAS
    blocks by it), so neither a panel's result nor a row's depends on what
    is batched with it.
    """
    n = lo.size
    kron, gauss, fe = np.empty(n), np.empty(n), np.empty(n if ends else 0)
    for a in range(0, n, _BLOCK_PANELS):
        b = min(a + _BLOCK_PANELS, n)
        halves = 0.5 * (hi[a:b] - lo[a:b])
        pts = (0.5 * (lo[a:b] + hi[a:b]))[:, None] + halves[:, None] * _XK
        y, rows = pts.ravel(), np.repeat(row[a:b], _XK.size)
        if ends:
            y = np.concatenate([y, hi[a:b]])
            rows = np.concatenate([rows, row[a:b]])
        fx = np.asarray(f(y, rows), dtype=float)
        fe[a:b] = fx[pts.size:]
        fx = fx[:pts.size].reshape(pts.shape)
        kron[a:b] = halves * np.einsum("ij,j->i", fx, _WK)
        gauss[a:b] = halves * np.einsum("ij,j->i", fx[:, _G_IDX], _WG)
    diff = np.abs(kron - gauss)
    err = np.minimum((200.0 * diff) ** 1.5, 200.0 * diff)
    return kron, np.maximum(err, diff), fe


def _calls(panels: int) -> int:
    """Integrand calls of one ``gk_panels`` pass over ``panels`` panels."""
    return -(-panels // _BLOCK_PANELS)


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10,
                  max_depth: int = 48, initial_edges=None,
                  max_total_panels: int = 4000):
    """``adaptive_quad_rows`` of ``f`` over [a, b] as one row; ``initial_edges``
    seed the panels (useful to align them with known kinks of ``f``)."""
    # np.unique without return_inverse imports numpy.ma (numpy 2.4).
    edges = np.array([a, b], dtype=float) if initial_edges is None else \
        np.unique(np.concatenate([[a], np.clip(initial_edges, a, b), [b]]),
                  return_inverse=True)[0]
    val, err = adaptive_quad_rows(lambda y, row: f(y), edges[None, :], tol,
                                  max_depth, max_total_panels)
    return float(val[0]), float(err[0])


def adaptive_quad_rows(f, edges, tol=1e-10, max_depth: int = 48,
                       max_total_panels=4000):
    """Adaptive bisection GK15, breadth first, of ``f(y, i)`` for every row
    i from the panels between the increasing ``edges[i]``; ``tol`` and
    ``max_total_panels`` may be per row.  Returns per-row (value, error).

    Each pass evaluates every active panel (``gk_panels``: blocks of at
    most ``_PASS_POINTS`` abscissae per call of ``f``) and accepts a panel
    when its error estimate meets its share of its row's ``tol`` (absolute
    + relative mix, by width), at the depth cap, or when it is too narrow
    to bisect; the rest are bisected.  These are per-panel
    rules, so each row accepts the panels of one-panel-at-a-time bisection.
    A panel is bisected only if both halves fit in what is left of its
    row's ``max_total_panels`` (roughness floors, e.g. rounding noise, must
    not stall the evaluation); a row that runs out keeps the estimates of
    its unsplit panels, and the call logs one WARNING.  Every call logs one
    DEBUG line with its rows, passes, panels, integrand calls and rows out
    of budget.
    """
    edges = np.asarray(edges, dtype=float)
    m, k = edges.shape
    tol, budget = np.zeros(m) + tol, np.zeros(m, dtype=int) + max_total_panels
    if k - 1 > budget.min():
        raise ValueError(f"{k - 1} initial panels exceed the budget "
                         f"max_total_panels={budget.min()}")
    span = np.maximum(edges[:, -1] - edges[:, 0], 1e-300)
    # The panels of each row stay in the order of its one-row run.
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    row = np.repeat(np.arange(m), k - 1)
    done, spent, depth, calls = [], np.zeros(m, dtype=int), 0, 0
    starved = np.zeros(m, dtype=bool)
    while lo.size:
        v, e, _ = gk_panels(f, lo, hi, row)
        calls += _calls(lo.size)
        spent += np.bincount(row, minlength=m)
        width = hi - lo
        split = ~((e <= tol[row] * np.maximum(1.0, np.abs(v)) * width / span[row])
                  | (width < 1e-15 * np.maximum(np.maximum(np.abs(lo),
                                                           np.abs(hi)), 1.0)))
        if depth >= max_depth:
            split[:] = False
        if np.any(2 * np.bincount(row, split, minlength=m) > budget - spent):
            # Some row cannot bisect all its panels: it bisects its first
            # ones that fit, counted in row order.
            by_row = np.argsort(row, kind="stable")
            r, s = row[by_row], split[by_row]
            upto = np.cumsum(s)
            upto -= (upto - s)[np.searchsorted(r, r)]  # splits so far in the row
            fits = np.empty_like(split)
            fits[by_row] = 2 * upto <= (budget - spent)[r]
            starved[row[split & ~fits]] = True
            split &= fits
        keep = ~split
        done.append((row[keep], v[keep], e[keep]))
        lo, hi, row = lo[split], hi[split], row[split]
        mid = 0.5 * (lo + hi)
        lo, hi, row = (np.concatenate(p) for p in ((lo, mid), (mid, hi), (row, row)))
        depth += 1
    row, v, e = (np.concatenate(parts) for parts in zip(*done))
    val = np.bincount(row, weights=v, minlength=m)
    err = np.bincount(row, weights=e, minlength=m)
    if starved.any():
        i = int(np.argmax(starved))
        logger.warning("adaptive_quad: %d of %d rows ran out of their panel "
                       "budget; row %d on [%.6g, %.6g]: %d of %d panels, err "
                       "%.3g against tol %.3g", starved.sum(), m, i, *edges[i, [0, -1]],
                       spent[i], budget[i], err[i], tol[i])
    logger.debug("adaptive_quad_rows: %d rows, %d passes, %d panels, %d "
                 "integrand calls, %d rows out of budget", m, depth,
                 spent.sum(), calls, starved.sum())
    return val, err


def substitution_power(worst_exponent: float) -> int:
    """Power m of the substitution y = rho t^m that smooths an integrand
    f ~ y^e (e > -1) at 0: the transformed integrand vanishes at t = 0."""
    return int(np.clip(math.ceil(3.0 / (1.0 + worst_exponent)), 4, 48))


def near_singular_quad(f, rho: float, worst_exponent: float,
                       tol: float = 1e-11, breaks=()):
    """``near_singular_quad_rows`` of ``f`` over (0, rho) as one row."""
    val, err = near_singular_quad_rows(lambda y, row: f(y), [rho],
                                       worst_exponent, tol, [list(breaks)])
    return float(val[0]), float(err[0])


def near_singular_quad_rows(f, rho, worst_exponent: float, tol=1e-11,
                            breaks=()):
    """Integrate ``f(y, i)`` over (0, rho[i]) for every row i when f ~ y**e
    near 0 with e > -1.  Returns per-row (value, error).

    Uses the power substitution y = rho t**m of ``substitution_power``,
    then adapts all rows in one ``adaptive_quad_rows`` from the t-edges
    0, 1/4, 1/2, 3/4, 1.  ``breaks[i]`` are offsets where row i changes
    form; their images in t become panel edges too, so bisection need not
    find them (a break outside (0, rho[i]) leaves an empty panel).

    The substituted integrand is C t^(k-1) near 0, k = m (1 + e), so the
    piece below t* is t*^k of the row's int_0^1 C t^(k-1) dt, within tol
    of it below t* = tol^(1/k).  Deep in the first panel y is subnormal or
    nearly, and a kernel y^-(1+sp) may overflow before the difference
    cancels it: a point below t* whose value is not finite is dropped.
    Finite values are always kept.
    """
    e = worst_exponent
    if e <= -1.0:
        raise ValueError("near-field exponent must exceed -1")
    m = substitution_power(e)
    rho = np.asarray(rho, dtype=float)
    t_cut = (np.zeros(rho.size) + tol) ** (1.0 / (m * (1.0 + e)))

    def g(t, row):
        y = rho[row] * t ** m
        out = np.zeros_like(t)
        pos = y > 0  # t ** m underflows deep in the first panel
        if np.any(pos):
            with np.errstate(over="ignore", invalid="ignore"):
                # dy/dt = m y / t
                out[pos] = f(y[pos], row[pos]) * m * y[pos] / t[pos]
            out[~np.isfinite(out) & (t < t_cut[row])] = 0.0
        return out

    breaks = np.asarray(breaks, dtype=float)
    edges = np.empty((rho.size, 5 + breaks.shape[-1]))
    edges[:, :5] = 0.0, 0.25, 0.5, 0.75, 1.0
    edges[:, 5:] = np.clip(breaks / rho[:, None], 0.0, 1.0) ** (1.0 / m)
    edges.sort(axis=1)
    return adaptive_quad_rows(g, edges, tol)


def geometric_tail_quad(f, a: float, decay: float, tol: float = 1e-11,
                        max_panels: int = 200):
    """``geometric_tail_quad_rows`` of ``f`` from ``a`` as one row."""
    val, err = geometric_tail_quad_rows(lambda y, row: f(y), [a], decay, tol,
                                        max_panels)
    return float(val[0]), float(err[0])


def geometric_tail_quad_rows(f, a, decay, tol=1e-11, max_panels: int = 200):
    """Integrate ``f(r, i)`` ~ c * r**(-1-decay), decay > 0, over (a[i], inf)
    for every row i (``decay`` and ``tol`` may be per row).  Geometric
    panels, each twice as long as the last, until the analytic remainder
    estimate f(r) * r / decay at the right end r of a row's last panel
    drops below tol * max(1, |sum so far|); the remainder is added to the
    value and into the error budget (doubled if ``max_panels`` run out
    first).  A pass takes ``_TAIL_CHUNK`` panels of every unfinished row,
    and ``gk_panels`` evaluates them with their right ends in blocks of at
    most ``_PASS_POINTS`` abscissae per call of ``f``; edges and running
    sums accumulate in the order of a panel-by-panel loop, so a row stops
    where it would alone.  Every call logs one DEBUG line with its rows,
    passes, panels, integrand calls and rows that ran out of ``max_panels``.
    """
    a = np.asarray(a, dtype=float)
    decay, tol = np.zeros(a.shape) + decay, np.zeros(a.shape) + tol
    if np.any(decay <= 0):
        raise ValueError("tail decay exponent must be positive")
    # Per row: sum, error sum, remainder estimate, right end of its panels.
    state = np.zeros((4, a.size))
    state[3] = a
    live, done, passes, panels, calls = np.arange(a.size), 0, 0, 0, 0
    while done < max_panels and live.size:
        n = min(_TAIL_CHUNK, max_panels - done)
        passes += 1
        panels += live.size * n
        calls += _calls(live.size * n)
        edges = np.cumprod(np.concatenate(
            [state[3, live, None], np.full((live.size, n), 2.0)], 1), axis=1)
        v, e, f_hi = (x.reshape(live.size, n) for x in gk_panels(
            f, edges[:, :-1].ravel(), edges[:, 1:].ravel(),
            np.repeat(live, n), ends=True))
        sums = np.cumsum(np.concatenate([state[:2, live, None], [v, e]], 2), 2)[..., 1:]
        tails = f_hi * edges[:, 1:] / decay[live, None]
        stop = np.abs(tails) <= tol[live, None] * np.maximum(1.0, np.abs(sums[0]))
        hit = stop.any(axis=1)
        at = np.arange(live.size), np.where(hit, np.argmax(stop, axis=1), n - 1)
        state[:, live] = sums[0][at], sums[1][at], tails[at], edges[:, 1:][at]
        live = live[~hit]
        done += n
    rem = np.abs(state[2])
    rem[live] *= 2.0
    logger.debug("geometric_tail_quad_rows: %d rows, %d passes, %d panels, "
                 "%d integrand calls, %d rows out of max_panels", a.size,
                 passes, panels, calls, live.size)
    return state[0] + state[2], state[1] + rem


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
