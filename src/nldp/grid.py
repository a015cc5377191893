"""Grid functions: values on a uniform box grid plus an analytic exterior.

A :class:`GridFunction` is the numerical stand-in for a bounded function on
all of R^n.  Inside the box it is a C^2 piecewise-cubic interpolant of the
node values; outside it delegates to a closed-form exterior.  Instances are
immutable; ``with_values`` produces an updated copy (the solver's iteration
primitive).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import NldpError

# Points per chunk of the evaluation.  Its temporaries take about 1.5 MB at
# this size in 2-D; chunks of 65,536 points raised a 2-D solve's peak RSS by
# 18%, and one unchunked 1-D pass over the N = 513 plan took twice as long.
_CHUNK = 8192


# The larger root of z^2 - 4 z + 1: the pivots of tridiag(1, 4, 1) tend to it.
_RHO = 2.0 + np.sqrt(3.0)


def _recurrence(a, y):
    """y[i] += a[i] y[i-1] for i = 1, 2, ... in turn, in place along axis 0:
    a first-order linear recurrence in log2(len(y)) doubling passes.  a[0]
    never reaches y."""
    a = a.copy()
    k = 1
    while k < len(y):
        y[k:] += a[k:] * y[:-k]
        a[k:] *= a[:-k]
        k *= 2
    return y


def _solve_141(b):
    """x with x[i-1] + 4 x[i] + x[i+1] = b[i] along axis 0 (x is 0 past the
    ends): LU without pivoting, whose pivots u[i] = 4 - 1/u[i-1] have a
    closed form, and whose two substitutions are recurrences."""
    k = np.arange(len(b)).reshape((-1,) + (1,) * (b.ndim - 1))
    q = _RHO ** -2.0
    w = (1.0 - q ** (k + 1)) / (_RHO * (1.0 - q ** (k + 2)))  # 1 / u[k]
    # y[i] = b[i] - w[i-1] y[i-1], then x[i] = w[i] (y[i] - x[i+1])
    y = _recurrence(-np.roll(w, 1, axis=0), b)
    return _recurrence(-w[::-1], (w * y)[::-1])[::-1]


def _curvature(dv: np.ndarray) -> np.ndarray:
    """h^2 times the second derivatives M at the N nodes of the not-a-knot
    cubic through values whose first differences along axis 0 are dv.

    With d2 = diff(dv), rows 1..N-2 are the C^2 conditions M[i-1] + 4 M[i]
    + M[i+1] = 6 d2[i-1].  Not-a-knot, M[0] = 2 M[1] - M[2] and M[-1] =
    2 M[-2] - M[-3], turns the first and last of them into M[1] = d2[0]
    and M[-2] = d2[-1], and leaves tridiag(1, 4, 1) between.  At N = 3 the
    two conditions coincide: the parabola; at N = 2, the line.  Linear in
    dv, so a constant has exactly zero curvature.
    """
    N = len(dv) + 1
    M = np.zeros((N,) + dv.shape[1:])
    if N < 3:
        return M
    d2 = np.diff(dv, axis=0)
    M[1], M[-2] = d2[0], d2[-1]
    if N == 3:
        M[0] = M[2] = M[1]
        return M
    if N > 4:
        b = 6.0 * d2[1:-1]
        b[0] -= M[1]
        b[-1] -= M[-2]
        M[2:-2] = _solve_141(b)
    M[0] = 2.0 * M[1] - M[2]
    M[-1] = 2.0 * M[-2] - M[-3]
    return M


def _curvature_T(gM: np.ndarray) -> np.ndarray:
    """The transpose of ``_curvature``: (N, ...) -> (N-1, ...), its steps
    taken backwards (tridiag(1, 4, 1) is symmetric)."""
    N = len(gM)
    gd2 = np.zeros((max(N - 2, 0),) + gM.shape[1:])
    if N == 3:
        gd2[0] = gM.sum(axis=0)
    elif N > 3:
        g = gM.copy()
        g[[1, 2]] += [2.0 * g[0], -g[0]]
        g[[-2, -3]] += [2.0 * g[-1], -g[-1]]
        if N > 4:
            gb = _solve_141(g[2:-2].copy())
            g[1] -= gb[0]
            g[-2] -= gb[-1]
            gd2[1:-1] = 6.0 * gb
        gd2[0] += g[1]
        gd2[-1] += g[-2]
    return _diff_T(gd2)


def _diff_T(g: np.ndarray) -> np.ndarray:
    """The transpose of ``np.diff`` along axis 0."""
    z = np.zeros((1,) + g.shape[1:])
    return np.concatenate([z, g]) - np.concatenate([g, z])


def _axis_coeffs(v: np.ndarray, h: float) -> np.ndarray:
    """Not-a-knot cubic coefficients along axis 0 of v, highest power first:
    (4, N-1, ...), v(x) = sum_a c[a, i] (x - x_i)^(3-a) on cell i."""
    dv = np.diff(v, axis=0)
    M = _curvature(dv) / (h * h)
    return np.stack([(M[1:] - M[:-1]) / (6.0 * h), 0.5 * M[:-1],
                     dv / h - h * (2.0 * M[:-1] + M[1:]) / 6.0, v[:-1]])


def _axis_coeffs_T(g: np.ndarray, h: float) -> np.ndarray:
    """The transpose of ``_axis_coeffs``: (4, N-1, ...) -> (N, ...)."""
    z = np.zeros((1,) + g.shape[2:])
    gM = (_diff_T(g[0]) / (6.0 * h) + np.concatenate([0.5 * g[1], z])
          - h / 6.0 * (np.concatenate([2.0 * g[2], z])
                       + np.concatenate([z, g[2]])))
    gv = _diff_T(g[2] / h + _curvature_T(gM) / (h * h))
    return gv + np.concatenate([g[3], z])


def coeffs_T(g: np.ndarray, n: int, h: float) -> np.ndarray:
    """The transpose of the linear map from node values to ``coeffs()``:
    (4,)*n + (N-1,)*n + (...) -> (N,)*n + (...), axis by axis."""
    if n == 1:
        return _axis_coeffs_T(g, h)
    # coeffs() runs [x, y] -> [a, x-cell, y] -> [b, y-cell, a, x-cell]
    # -> [a, b, x-cell, y-cell]; back the same way.
    g = _axis_coeffs_T(np.moveaxis(g, (1, 3), (0, 1)), h)   # [y, a, x-cell]
    return _axis_coeffs_T(np.moveaxis(g, 0, 2), h)


@dataclass(frozen=True)
class Exterior:
    """Closed-form extension of a grid function outside its box.

    Tags double as the serialisation schema: ``constant`` carries ``value``;
    ``growth`` is the proof's envelope 2|2x|^eta - 1, whose one parameter is
    ``eta``; ``dyadic`` is a piecewise-constant shell envelope; ``callable``
    wraps an arbitrary function and cannot be serialised.
    """

    tag: str
    value: float = 0.0
    eta: float = 0.0
    shells: tuple[float, ...] = ()
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x, n: int = 1):
        x = np.asarray(x, dtype=float)
        if self.tag == "constant":
            return np.full(x.shape if n == 1 else x.shape[:-1], self.value,
                           dtype=float)
        r = np.abs(x) if n == 1 else np.sqrt(np.sum(x * x, axis=-1))
        if self.tag == "growth":
            return 2.0 * (2.0 * r) ** self.eta - 1.0
        if self.tag == "dyadic":
            lev = np.clip(np.floor(np.log2(np.maximum(r, 1.0))).astype(int),
                          0, len(self.shells) - 1)
            return np.asarray(self.shells, dtype=float)[lev]
        if self.tag == "callable":
            return np.asarray(self.fn(x), dtype=float)
        raise NldpError(f"unknown exterior tag {self.tag!r}")

    @property
    def jump_radii(self) -> tuple[float, ...]:
        """Radii |x| where the exterior jumps: the shell edges 2^l, l >= 1,
        of a dyadic envelope; none for the other tags."""
        if self.tag != "dyadic":
            return ()
        return tuple(2.0 ** l for l in range(1, len(self.shells)))


def constant_exterior(value: float = 0.0) -> Exterior:
    return Exterior(tag="constant", value=value)


def growth_exterior(eta: float) -> Exterior:
    """The proof's exterior envelope 2|2x|^eta - 1."""
    return Exterior(tag="growth", eta=eta)


def dyadic_exterior(shells) -> Exterior:
    return Exterior(tag="dyadic", shells=tuple(float(v) for v in shells))


def callable_exterior(fn) -> Exterior:
    return Exterior(tag="callable", fn=fn)


def grid_points(n: int, R: float, N: int) -> np.ndarray:
    """The nodes of the N^n grid of [-R, R]^n: (N,) in 1-D, the (N, N, 2)
    stack of coordinates in 2-D."""
    xs = np.linspace(-R, R, N)
    if n == 1:
        return xs
    return np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)


@dataclass(frozen=True, eq=False)
class LocatedPoints:
    """Points of the box of the N^n grid of [-R, R]^n, each a cell and an
    in-cell position, shared by the points that differ by whole cells; the
    grid apply's plan takes both, exactly, from its geometry
    (``flat_cells``).
    ``GridFunction.__call__`` evaluates any grid function on that grid here
    as one (cells, positions) table product and one gather per point;
    ``scatter`` is the transpose."""

    n: int
    R: float
    N: int
    index: np.ndarray   # (M,) int32 cell * positions + position
    mono: np.ndarray    # (4^n, positions) ``monomials``, in coeffs()'s order
    groups: ShiftGroups | None = None   # the positions by cell shift, 2-D

    @property
    def size(self) -> int:
        """The coordinates of the points, as ``np.size`` of an (M, n) array
        of them would count."""
        return self.index.size * self.n

    @property
    def nbytes(self) -> int:
        return self.index.nbytes + self.mono.nbytes + (
            0 if self.groups is None else self.groups.nbytes)

    def values(self, c: np.ndarray) -> np.ndarray:
        """The interpolant with coefficients c (``coeffs()``) at the points:
        its table over cells and positions, gathered by chunks of ``_CHUNK``
        indices (``take`` copies each chunk's to intp).  The indices are in
        range by construction, so ``mode="wrap"`` changes no value; it lets
        ``take`` write straight into ``out``, which the default ``"raise"``
        buffers.  Both keep the call's peak low (2.7 MB at 2-D N = 9, the
        table and ``out``; 3.6 MB with a buffered 65,536-index chunk): a
        peak past glibc's trim threshold is returned to the system after
        each call and faulted back in at the next."""
        table = (c.reshape(len(self.mono), -1).T @ self.mono).ravel()
        out = np.empty(len(self.index))
        for lo in range(0, len(out), _CHUNK):
            table.take(self.index[lo:lo + _CHUNK], out=out[lo:lo + _CHUNK],
                       mode="wrap")
        return out

    def scatter(self, w, entries, rows, nodes) -> np.ndarray:
        """The transpose of ``values`` on some of the points, per row:
        sum_e w_e mono[:, position_e] over the points e of each (cell, row),
        the points those of the increasing slices ``entries`` in turn, w and
        rows[e] in [0, len(nodes)) given per point of them, row r the node
        ``nodes[r]`` (flat, C order) of its points; (4,)*n + (N-1,)*n +
        (rows,), the layout of ``coeffs_T``'s argument.  With ``groups`` (the
        2-D plan) by one product per cell shift (``_products``); otherwise
        one bincount per monomial, by pieces, each the points of the slices
        in one run of ``_CHUNK`` among all the points, so the temporaries
        stay small.  Either way no sum over a row's points depends on which
        slices or rows the call holds besides its own."""
        nrows = len(nodes)
        if self.groups is not None:
            out = self._products(w, entries, rows, nodes)
        else:
            size = (self.N - 1) ** self.n * nrows
            out = np.zeros((len(self.mono), size))
            for part, index in _pieces(self.index, entries):
                cell, pos = np.divmod(index, self.mono.shape[1])
                pos = pos.astype(np.intp)   # take would convert it per monomial
                idx = cell * nrows + rows[part]
                for m, mono in enumerate(self.mono):
                    out[m] += np.bincount(idx, w[part] * mono.take(pos),
                                          minlength=size)
        return out.reshape((4,) * self.n + (self.N - 1,) * self.n + (nrows,))

    def _products(self, w, entries, rows, nodes) -> np.ndarray:
        """``scatter`` by cell shifts: w goes into a dense (rows, positions)
        array W at each point's row and its position's column of
        ``groups``.  A node's points at the positions P_g of a group lie in
        one cell, its own shifted by the group's shift, one point per
        position, so that cell's sum for each row is W[row, P_g] @
        mono[:, P_g].T.  One batched ``einsum`` per size of group
        (``ShiftGroups.runs``) forms those products for every group and
        row; a (group, row) whose shifted cell leaves the box holds no
        point and is dropped.  ``einsum`` rounds each product and adds them
        in column order, as the bincount adds its points, where BLAS would
        fuse and regroup them; a row's sums do not depend on the other
        rows."""
        g, m4, npos = self.groups, len(self.mono), self.mono.shape[1]
        N, nrows = self.N, len(nodes)
        # The cell of each (group, row); a group with no point of a row
        # may shift that row's node out of the box.
        at = [c + s[:, None] for c, s in
              zip(np.unravel_index(nodes, (N,) * self.n), g.shift)]
        inside = np.logical_and.reduce([(c >= 0) & (c < N - 1) for c in at])
        to = (np.ravel_multi_index(at, (N - 1,) * self.n, mode="clip")
              * nrows + np.arange(nrows))
        index = np.concatenate([self.index[s] for s in entries])
        # index % npos, at a quarter of the time
        col = g.rank.take(index - index // npos * npos)
        W = np.zeros((nrows, npos))
        W.reshape(-1)[rows * npos + col] = w
        prod = np.empty((g.shift.shape[1], nrows, m4))
        for a, b, c0, c1, mono in g.runs:
            np.einsum("rgk,gkm->grm", W[:, c0:c1].reshape(nrows, b - a, -1),
                      mono, out=prod[a:b])
        # Written with the monomials last, a row of 4^n per (cell, row).
        out = np.zeros(((N - 1) ** self.n * nrows, m4))
        out[to[inside]] = prod[inside]
        return out.T


@dataclass(frozen=True, eq=False)
class ShiftGroups:
    """The in-cell positions of ``LocatedPoints`` grouped by their cell's
    whole-cell shift from the node of each point: the 2-D plan's geometry
    places a position the same shift from every node, with at most one
    point of a node there, so a node's points at a group's positions all
    lie in one cell (``LocatedPoints._products``).  A group's positions
    take consecutive columns, and the groups go by size, then by shift: one
    batched product serves all the groups of a size (25 sizes for 184
    groups at N = 9)."""

    rank: np.ndarray     # (positions,) int32 column of each position
    mono_T: np.ndarray   # (positions, 4^n) the monomials of each column
    start: np.ndarray    # (G + 1,) the first column of each group, and P
    shift: np.ndarray    # (n, G) int32 each group's shift, per axis
    # Per size: the groups [a, b), their columns [c0, c1) and a (b - a,
    # size, 4^n) view of mono_T on them.
    runs: tuple

    @property
    def nbytes(self) -> int:
        return (self.rank.nbytes + self.mono_T.nbytes + self.start.nbytes
                + self.shift.nbytes)


def shift_groups(shift, mono) -> ShiftGroups:
    """``ShiftGroups`` of the positions with whole-cell shifts ``shift``
    (n, P) and monomials ``mono`` (4^n, P); in a group, the positions keep
    their order."""
    order = np.lexsort(shift[::-1])
    s = shift[:, order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(s[:, 1:] != s[:, :-1], axis=0)
    starts = np.flatnonzero(new)
    size = np.diff(np.append(starts, len(order)))
    by = np.argsort(size, kind="stable")
    first = np.empty(len(by), dtype=np.int64)
    first[by] = np.cumsum(size[by]) - size[by]
    group = np.repeat(np.arange(len(size)), size)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = first[group] + np.arange(len(order)) - starts[group]
    mono_T = np.empty((len(order), len(mono)))
    mono_T[rank] = mono.T
    shift, size = s[:, starts[by]], size[by]
    start = np.append(first[by], len(order))
    edges = np.flatnonzero(np.diff(size)) + 1
    return ShiftGroups(rank, mono_T, start, shift, tuple(
        (a, b, start[a], start[b],
         mono_T[start[a]:start[b]].reshape(b - a, size[a], -1))
        for a, b in zip(np.append(0, edges), np.append(edges, len(size)))))


def _pieces(index, entries):
    """(part, index[...]) per run [k, k + ``_CHUNK``) of ``index``, k a
    multiple of ``_CHUNK``, that the increasing slices ``entries`` reach:
    their entries in it, at ``part`` of the slices taken in turn."""
    held, k, lo, at = [], None, 0, 0
    for s in entries:
        for c0 in range(s.start - s.start % _CHUNK, s.stop, _CHUNK):
            if c0 != k and held:
                yield slice(lo, at), (held[0] if len(held) == 1
                                      else np.concatenate(held))
                held, lo = [], at
            k, a, b = c0, max(c0, s.start), min(c0 + _CHUNK, s.stop)
            held.append(index[a:b])
            at += b - a
    if held:
        yield slice(lo, at), held[0] if len(held) == 1 else np.concatenate(held)


def monomials(t, h: float) -> np.ndarray:
    """The (4^n, P) monomials x^3, x^2, x, 1 per axis of in-cell positions
    t (n, P), x = t h, axis 0 outermost as in ``GridFunction.coeffs``."""
    mono = np.ones((1, t.shape[1]))
    for x in t * h:
        mono = (mono[:, None] * np.vander(x, 4).T).reshape(-1, t.shape[1])
    return np.ascontiguousarray(mono)


def edge_positions(t):
    """t (n, P), then its copies with t = 1 on each nonempty set S of axes,
    p's at p + P sum_{a in S} 2^a: on the box's upper edge of an axis a
    point reads cell N - 2 at t = 1, as ``GridFunction.locate`` has it."""
    on = (np.arange(2 ** len(t))[:, None] >> np.arange(len(t))) & 1
    return np.concatenate([np.where(m[:, None], 1.0, t) for m in on], axis=1)


def edge_shifts(shift):
    """The whole-cell shifts of ``edge_positions``' positions from a node,
    those of t being ``shift`` (n, P): one cell less on the axes at t = 1."""
    on = (np.arange(2 ** len(shift))[:, None] >> np.arange(len(shift))) & 1
    return np.concatenate([shift - m[:, None] for m in on], axis=1)


def ray_prefix(shift, pos, t, N: int):
    """The box split of the rays from every node of the N^n grid whose
    points lie ``shift`` (n, J) whole cells from the node at positions
    ``pos`` (J,) of t (n, P), in order of distance: how many of each node's
    points are in the box, and the positions they take.  The box is convex
    and a ray starts at a node, so its in-box points are a prefix of its
    points.  A point is in the box when its cell on every axis is 0 to
    N - 2, or N - 1 at t = 0 (the box's upper edge), so a node coordinate
    i on an axis keeps point j while -shift_k <= i <= N - 2 - shift_k +
    [t_k = 0] at every k <= j, the running bounds give each coordinate's
    prefix by one ``searchsorted``, and a node's is the least over its
    axes.  Returns the prefix lengths (N^n,) in C order, and the positions
    p + P sum_{a in S} 2^a of the in-box points, S the axes on which some
    node reaching the point has it in cell N - 1, once per such S."""
    i = np.arange(N)
    length, sides = np.array(len(pos)), []
    for s, ta in zip(shift, t):
        lo = np.maximum.accumulate(-s)
        hi = np.minimum.accumulate(N - 2 - s + (ta[pos] == 0.0))
        length = np.minimum.outer(length, np.minimum(
            np.searchsorted(lo, i, side="right"),
            np.searchsorted(-hi, -i, side="right")))
        # The coordinates [a, b] reach point j; at N - 1 - s_j it lies in
        # cell N - 1, below that it does not.
        a, b, edge = np.maximum(lo, 0), np.minimum(hi, N - 1), N - 1 - s
        sides.append((a <= np.minimum(b, edge - 1), (a <= edge) & (edge <= b)))
    on = (np.arange(2 ** len(t))[:, None] >> np.arange(len(t))) & 1
    return length.ravel(), np.concatenate(
        [pos[np.logical_and.reduce([sd[e] for sd, e in zip(sides, m)])]
         + t.shape[1] * k for k, m in enumerate(on)])


def flat_cells(cell, pos, t, N: int, inside):
    """The flat (N-1)^n cell, in C order, and the position of the points of
    a block at ``inside``, the block given by cells per axis (over the
    leading columns of ``inside``) and positions ``pos`` of t (n, P): a
    point in the box in cell N - 1 of an axis (at t = 0 there) reads cell
    N - 2 at t = 1, the position p + P 2^a of ``edge_positions``."""
    inside = inside[..., :cell[0].shape[-1]]
    pos = np.broadcast_to(pos, inside.shape)[inside]
    flat = 0
    for a, c in enumerate(cell):
        c = c[inside]
        edge = c == N - 1
        pos[edge] += t.shape[1] << a
        c[edge] = N - 2
        flat = flat * (N - 1) + c
    return flat, pos


@dataclass(frozen=True)
class GridFunction:
    """Values on [-R, R]^n at spacing h, glued to an exterior on the rest.

    Inside the box the values are interpolated by the C^2 not-a-knot cubic
    spline, axis by axis in 2-D (``coeffs``).
    """

    n: int
    R: float
    values: np.ndarray
    exterior: Exterior = field(default_factory=constant_exterior)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise NldpError("grid values must be finite")
        if self.n == 1 and vals.ndim != 1:
            raise NldpError("1-D grid functions need a 1-D value array")
        if self.n == 2 and (vals.ndim != 2 or vals.shape[0] != vals.shape[1]):
            raise NldpError("2-D grid functions need a square value array")
        object.__setattr__(self, "_cache", {})

    # -- geometry ----------------------------------------------------------
    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def h(self) -> float:
        return 2.0 * self.R / (self.N - 1)

    @property
    def nodes(self) -> np.ndarray:
        return grid_points(1, self.R, self.N)

    # -- evaluation --------------------------------------------------------
    def coeffs(self) -> np.ndarray:
        """Per-cell coefficients of the not-a-knot cubic interpolant, highest
        power first.  1-D: (4, N-1), u(x) = sum_a c[a, i] (x - x_i)^(3-a) on
        cell i.  2-D: the same map along each axis, (4, 4, N-1, N-1),
        u(x, y) = sum_ab c[a, b, i, j] (x - x_i)^(3-a) (y - x_j)^(3-b).
        Along an axis the map is linear in the first differences of the
        values (``_curvature``), so a constant has exactly zero slope
        rows."""
        cache = self.__dict__["_cache"]
        if "coeffs" not in cache:
            c = _axis_coeffs(self.values, self.h)
            if self.n == 2:  # c is (4, N-1, N): the x-cells of every column
                c = _axis_coeffs(np.moveaxis(c, 2, 0), self.h)
                c = np.ascontiguousarray(c.transpose(2, 0, 3, 1))
            cache["coeffs"] = c
        return cache["coeffs"]

    def locate(self, pts):
        """The cell of each coordinate of points of the box and the offset
        into it in units of h: pts = -R + (j + t) h, 0 <= j <= N - 2."""
        s = (pts + self.R) / self.h
        j = np.minimum(s.astype(np.intp), self.N - 2)
        return j, s - j

    def _cubic(self, pts):
        """The interpolant at points of the box: a Horner over the cells
        ``locate`` finds, by chunks of ``_CHUNK`` points; in 2-D along y
        first, for the four powers of x at once, then along x."""
        n = self.n
        c = self.coeffs().reshape(4 ** n, -1)
        pts = pts.reshape(-1, n)
        out = np.empty(len(pts))
        for lo in range(0, len(pts), _CHUNK):
            j, t = self.locate(pts[lo:lo + _CHUNK])
            t *= self.h
            cell = j[:, 0] if n == 1 else j[:, 0] * (self.N - 1) + j[:, 1]
            g = c.take(cell, axis=1).reshape((4,) * n + (-1,))
            for k in reversed(range(n)):
                q = g[..., 0, :]
                for b in (1, 2, 3):
                    q = q * t[:, k] + g[..., b, :]
                g = q
            out[lo:lo + _CHUNK] = g
        return out

    def __call__(self, x):
        """Evaluate the glued function anywhere in R^n (vectorised), or at
        ``LocatedPoints`` of its grid."""
        if isinstance(x, LocatedPoints):
            if (x.n, x.R, x.N) != (self.n, self.R, self.N):
                raise NldpError(f"points located on the {x.n}-D N = {x.N} "
                                f"grid of radius {x.R}, not on this one")
            return x.values(self.coeffs())
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0 if self.n == 1 else x.ndim == 1
        pts = np.atleast_1d(x).ravel() if self.n == 1 else x.reshape(-1, 2)
        # Every point in the box: the interpolant reads them in place, no mask.
        if len(pts) == 0 or (pts.min() >= -self.R and pts.max() <= self.R):
            out = self._cubic(pts)
        else:
            # the glue rule: the interpolant covers |z|_inf <= R
            inside = np.abs(pts) <= self.R
            inside = inside if self.n == 1 else inside[:, 0] & inside[:, 1]
            out = np.empty(len(pts))
            out[inside] = self._cubic(pts[inside])
            out[~inside] = np.ravel(self.exterior(pts[~inside], self.n))
        if scalar:
            return float(out[0])
        return out.reshape(x.shape if self.n == 1 else x.shape[:-1])

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return replace(self, values=np.asarray(values, dtype=float))

    # -- io ------------------------------------------------------------
    def save(self, path_prefix: str, extra_meta: dict | None = None):
        """Write <prefix>.csv (coordinates + values) and <prefix>.json sidecar."""
        ext = self.exterior
        if ext.tag == "callable":
            raise NldpError("callable exteriors cannot be serialised")
        table = np.column_stack([grid_points(self.n, self.R, self.N)
                                 .reshape(-1, self.n), self.values.ravel()])
        header = "x,value" if self.n == 1 else "x,y,value"
        _atomic_write(path_prefix + ".csv", _csv_text(table, header))
        meta = {
            "schema": "nldp-gridfunction-1",
            "n": self.n,
            "R": self.R,
            "h": self.h,
            "N": self.N,
            "interp": "cubic",
            "exterior": {
                "tag": ext.tag, "value": ext.value, "eta": ext.eta,
                "shells": list(ext.shells),
            },
        }
        if extra_meta:
            meta.update(extra_meta)
        _atomic_write(path_prefix + ".json", json.dumps(meta, indent=2) + "\n")

    @staticmethod
    def load(path_prefix: str) -> "GridFunction":
        with open(path_prefix + ".json") as fh:
            meta = json.load(fh)
        if meta.get("interp") != "cubic":
            raise NldpError(f"unsupported interpolation {meta.get('interp')!r}: "
                            "grid functions are cubic")
        raw = np.loadtxt(path_prefix + ".csv", delimiter=",", skiprows=1)
        n = int(meta["n"])
        if n == 1:
            values = raw[:, 1]
        else:
            N = int(meta["N"])
            values = raw[:, 2].reshape(N, N)
        e = meta["exterior"]
        # Older sidecars carry the growth envelope's constants 2, 2 and -1.
        if (e.get("amp", 2.0), e.get("scale", 2.0), e.get("offset", -1.0)) \
                != (2.0, 2.0, -1.0):
            raise NldpError("unsupported exterior: the growth envelope is "
                            "2|2x|^eta - 1")
        ext = Exterior(tag=e["tag"], value=e["value"], eta=e["eta"],
                       shells=tuple(e["shells"]))
        return GridFunction(n=n, R=float(meta["R"]), values=values, exterior=ext)


def sample(fn, n: int, R: float, N: int,
           exterior: Exterior | None = None) -> GridFunction:
    """Sample a callable onto a grid function."""
    vals = np.asarray(fn(grid_points(n, R, N)), dtype=float)
    ext = exterior if exterior is not None else constant_exterior(0.0)
    return GridFunction(n=n, R=R, values=vals, exterior=ext)


def _csv_text(table: np.ndarray, header: str) -> str:
    lines = [header]
    for row in np.atleast_2d(table):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
