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
from scipy.interpolate import CubicSpline, RectBivariateSpline

from .errors import NldpError


@dataclass(frozen=True)
class Exterior:
    """Closed-form extension of a grid function outside its box.

    Tags double as the serialisation schema: ``constant`` carries ``value``;
    ``growth`` is the envelope amp*|scale*x|^eta + offset (the proof's
    2|2x|^eta - 1 shape); ``dyadic`` is a piecewise-constant shell envelope;
    ``callable`` wraps an arbitrary function and cannot be serialised.
    """

    tag: str
    value: float = 0.0
    eta: float = 0.0
    amp: float = 2.0
    scale: float = 2.0
    offset: float = -1.0
    shells: tuple[float, ...] = ()
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    sup: float | None = None  # declared sup bound over the exterior, if any

    def __call__(self, x, n: int = 1):
        r = _radius(x, n)
        if self.tag == "constant":
            return np.full(np.shape(r), self.value, dtype=float)
        if self.tag == "growth":
            return self.amp * (self.scale * r) ** self.eta + self.offset
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

    def sup_bound(self, n: int, r_lo: float, r_hi: float) -> float:
        """Upper bound for |exterior| on the shell r_lo <= |x| <= r_hi."""
        if self.tag == "constant":
            return abs(self.value)
        if self.tag == "growth":
            vals = [abs(self.amp * (self.scale * r) ** self.eta + self.offset)
                    for r in (r_lo, r_hi)]
            return max(vals)
        if self.tag == "dyadic":
            return max(abs(v) for v in self.shells)
        if self.sup is not None:
            return self.sup
        # Probe fallback for opaque callables.
        rr = np.geomspace(max(r_lo, 1e-6), min(r_hi, 1e12), 64)
        if n == 1:
            cand = np.concatenate([rr, -rr])
        else:
            cand = np.stack([rr, np.zeros_like(rr)], axis=-1)
        return float(np.max(np.abs(self(cand, n))))


def constant_exterior(value: float = 0.0) -> Exterior:
    return Exterior(tag="constant", value=value, sup=abs(value))


def growth_exterior(eta: float, amp: float = 2.0, scale: float = 2.0,
                    offset: float = -1.0) -> Exterior:
    """The proof's exterior envelope amp*|scale*x|^eta + offset."""
    return Exterior(tag="growth", eta=eta, amp=amp, scale=scale, offset=offset)


def dyadic_exterior(shells) -> Exterior:
    return Exterior(tag="dyadic", shells=tuple(float(v) for v in shells),
                    sup=max(abs(float(v)) for v in shells))


def callable_exterior(fn, sup: float | None = None) -> Exterior:
    return Exterior(tag="callable", fn=fn, sup=sup)


def _radius(x, n: int):
    x = np.asarray(x, dtype=float)
    if n == 1:
        return np.abs(x)
    return np.sqrt(np.sum(x * x, axis=-1))


@dataclass(frozen=True)
class GridFunction:
    """Values on [-R, R]^n at spacing h, glued to an exterior on the rest.

    Inside the box the values are interpolated by a C^2 cubic spline.
    ``sup_bound`` is the declared global bound when the bounded-solution
    flag is set.
    """

    n: int
    R: float
    values: np.ndarray
    exterior: Exterior = field(default_factory=constant_exterior)
    sup_bound: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise NldpError("grid values must be finite")
        if self.n == 1 and vals.ndim != 1:
            raise NldpError("1-D grid functions need a 1-D value array")
        if self.n == 2 and (vals.ndim != 2 or vals.shape[0] != vals.shape[1]):
            raise NldpError("2-D grid functions need a square value array")
        if self.sup_bound is not None:
            if float(np.max(np.abs(vals))) > self.sup_bound * (1 + 1e-12):
                raise NldpError("node values exceed the declared sup bound")
            probe = np.geomspace(self.R * 1.001, self.R * 1e6, 128)
            if self.n == 1:
                pts = np.concatenate([probe, -probe])
            else:
                pts = np.stack([probe, np.zeros_like(probe)], axis=-1)
            if float(np.max(np.abs(self.exterior(pts, self.n)))) > self.sup_bound * (1 + 1e-9):
                raise NldpError("exterior exceeds the declared sup bound on probes")
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
        return np.linspace(-self.R, self.R, self.N)

    # -- evaluation --------------------------------------------------------
    def _interpolant(self):
        cache = self.__dict__["_cache"]
        if "spline" not in cache:
            xs = self.nodes
            if self.n == 1:
                cache["spline"] = CubicSpline(xs, self.values, bc_type="not-a-knot")
            else:
                spl = RectBivariateSpline(xs, xs, self.values, kx=3, ky=3)
                cache["spline_obj"] = spl
                cache["spline"] = lambda z: spl.ev(z[..., 0], z[..., 1])
        return cache["spline"]

    def _spline2d(self):
        self._interpolant()
        return self.__dict__["_cache"].get("spline_obj")

    def __call__(self, x):
        """Evaluate the glued function anywhere in R^n (vectorised)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0 if self.n == 1 else x.ndim == 1
        pts = np.atleast_1d(x).ravel() if self.n == 1 else x.reshape(-1, 2)
        spl = self._interpolant()
        # Every point in the box: the spline reads them in place, no mask.
        if len(pts) == 0 or (pts.min() >= -self.R and pts.max() <= self.R):
            out = np.asarray(spl(pts), dtype=float).ravel()
        else:
            if self.n == 1:
                inside = np.abs(pts) <= self.R
            else:
                inside = np.all(np.abs(pts) <= self.R, axis=-1)
            out = np.empty(len(pts), dtype=float)
            if np.any(inside):
                out[inside] = np.asarray(spl(pts[inside]), dtype=float).ravel()
            out[~inside] = np.asarray(self.exterior(pts[~inside], self.n),
                                      dtype=float).ravel()
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
        xs = self.nodes
        csv_path = path_prefix + ".csv"
        if self.n == 1:
            table = np.column_stack([xs, self.values])
            header = "x,value"
        else:
            gx, gy = np.meshgrid(xs, xs, indexing="ij")
            table = np.column_stack([gx.ravel(), gy.ravel(), self.values.ravel()])
            header = "x,y,value"
        _atomic_write(csv_path, _csv_text(table, header))
        meta = {
            "schema": "nldp-gridfunction-1",
            "n": self.n,
            "R": self.R,
            "h": self.h,
            "N": self.N,
            "interp": "cubic",
            "sup_bound": self.sup_bound,
            "exterior": {
                "tag": ext.tag, "value": ext.value, "eta": ext.eta,
                "amp": ext.amp, "scale": ext.scale, "offset": ext.offset,
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
        ext = Exterior(tag=e["tag"], value=e["value"], eta=e["eta"], amp=e["amp"],
                       scale=e["scale"], offset=e["offset"], shells=tuple(e["shells"]))
        return GridFunction(n=n, R=float(meta["R"]), values=values, exterior=ext,
                            sup_bound=meta["sup_bound"])


def sample(fn, n: int, R: float, N: int, exterior: Exterior | None = None,
           sup_bound: float | None = None) -> GridFunction:
    """Sample a callable onto a grid function."""
    xs = np.linspace(-R, R, N)
    if n == 1:
        vals = np.asarray(fn(xs), dtype=float)
    else:
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([gx, gy], axis=-1)
        vals = np.asarray(fn(pts), dtype=float)
    ext = exterior if exterior is not None else constant_exterior(0.0)
    return GridFunction(n=n, R=R, values=vals, exterior=ext,
                        sup_bound=sup_bound)


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
