"""Experiment configuration: JSON schema, overrides, object construction.

The schema (all floats IEEE doubles):

{
  "schema_version": 1,
  "seed": 0,                                    # a non-negative integer
  "problem": {
    "n": 1, "s": 0.6, "t": 0.5, "p": 2.0, "q": 2.2,
    "Lambda": 1.0, "c_hat": 1.0,
    "kernel": {"type": "gagliardo"},            # | scaled
    "coefficient": {"type": "constant", "M": 1.0},
        # | indicator-of-halfspace | checkerboard (+"cell") | holder (+"alpha")
    "f": {"type": "constant", "value": 0.0}
        # | gaussian (+"amplitude", "width")
  },
  "quadrature": {"tol": 1e-8},
  "solve": {"R": 2.0, "N": 257,
            "exterior": {"tag": "constant", "value": 0.0},  # | growth (+"eta")
            "residual_tol": 1e-8, "max_iters": 50000},
  "constants": {"epsilon": null},
  "reglab": {"center": 0.0, "levels": 5},
  "eval": {"points": [0.0]}
}

seed, problem.n, solve.N (>= 3), solve.max_iters (>= 1) and reglab.levels
(>= 1) are JSON integers, not floats or booleans, so none is truncated on
the way in.

Unknown keys are rejected so typos fail loudly.  The four polymorphic
objects (kernel, coefficient, f, exterior) accept the keys their builders
read for any of their types; where files go is the CLI's ``--out``, not a
part of the config or of its hash.
"""

from __future__ import annotations

import copy
import hashlib
import json

from .errors import ConfigError
from .grid import Exterior, constant_exterior, growth_exterior
from .params import (Exponents, ProblemParams, checkerboard_coefficient,
                     constant_coefficient, constant_source, gagliardo_kernel,
                     gaussian_source, halfspace_coefficient,
                     holder_coefficient, scaled_kernel)
from .quadrature import QuadratureSpec
from .solver import SolveConfig

SCHEMA_VERSION = 1

_DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "problem": {
        "n": 1, "s": 0.6, "t": 0.5, "p": 2.0, "q": 2.2,
        "Lambda": 1.0, "c_hat": 1.0,
        "kernel": {"type": "gagliardo"},
        "coefficient": {"type": "constant", "M": 1.0},
        "f": {"type": "constant", "value": 0.0},
    },
    "quadrature": {"tol": 1e-8},
    "solve": {"R": 2.0, "N": 257,
              "exterior": {"tag": "constant", "value": 0.0},
              "residual_tol": 1e-8, "max_iters": 50_000},
    "constants": {"epsilon": None},
    "reglab": {"center": 0.0, "levels": 5},
    "eval": {"points": [0.0]},
}


# Polymorphic sub-objects: the keys their builders read, over all types.
# Defaults merge into them key by key, so keys of another type may stay.
_FREE_FORM = {"problem.kernel": {"type"},
              "problem.coefficient": {"type", "M", "cell", "alpha"},
              "problem.f": {"type", "value", "amplitude", "width"},
              "solve.exterior": {"tag", "value", "eta"}}


def _merge(base: dict, extra: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for k, v in extra.items():
        if k not in base:
            raise ConfigError(f"unknown config key {path + k!r}")
        if (path + k) in _FREE_FORM and isinstance(v, dict):
            merged = copy.deepcopy(base[k])
            merged.update(v)
            out[k] = merged
        elif isinstance(v, dict) and isinstance(base[k], dict):
            out[k] = _merge(base[k], v, path + k + ".")
        else:
            out[k] = v
    return out


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    """Read a config file, apply --set overrides, fill defaults."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError as ex:
            raise ConfigError(f"config file not found: {path}") from ex
        except json.JSONDecodeError as ex:
            raise ConfigError(f"config is not valid JSON: {ex}") from ex
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if raw.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {raw.get('schema_version')!r}")
    cfg = _merge(_DEFAULTS, raw)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, val = item.split("=", 1)
        try:
            parsed = json.loads(val)
        except json.JSONDecodeError:
            parsed = val
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config path {key!r}")
            node = node[part]
        if parts[-1] not in node and ".".join(parts[:-1]) not in _FREE_FORM:
            raise ConfigError(f"unknown config key {key!r}")
        node[parts[-1]] = parsed
    _check(cfg)
    return cfg


# Integer settings and the least value each may take.
_INTEGERS = {"seed": 0, "problem.n": 1, "solve.N": 3, "solve.max_iters": 1,
             "reglab.levels": 1}


def _at(cfg: dict, path: str):
    for part in path.split("."):
        cfg = cfg[part]
    return cfg


def _check(cfg: dict):
    sections = [k for k, v in _DEFAULTS.items() if isinstance(v, dict)]
    for path in sections + list(_FREE_FORM):
        node = _at(cfg, path)
        if not isinstance(node, dict):
            raise ConfigError(f"{path} {node!r}: need a JSON object")
        extra = sorted(set(node) - _FREE_FORM.get(path, set(node)))
        if extra:
            raise ConfigError(f"unknown config key {path + '.' + extra[0]!r}")
    for path, least in _INTEGERS.items():
        value = _at(cfg, path)
        if not (type(value) is int and value >= least):
            raise ConfigError(f"{path} {value!r}: need an integer >= {least}")


def config_hash(cfg: dict) -> str:
    text = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def build_problem(cfg: dict) -> ProblemParams:
    pc = cfg["problem"]
    n = pc["n"]
    e = Exponents(n=n, s=float(pc["s"]), t=float(pc["t"]),
                  p=float(pc["p"]), q=float(pc["q"]))
    lam = float(pc["Lambda"])
    kspec = pc["kernel"]
    ktype = kspec.get("type", "gagliardo")
    if ktype == "gagliardo":
        if lam != 1.0:
            raise ConfigError("gagliardo kernel has Lambda = 1")
        ksp = gagliardo_kernel(n, e.s, e.p)
        ktq = gagliardo_kernel(n, e.t, e.q)
    elif ktype == "scaled":
        ksp = scaled_kernel(n, e.s, e.p, lam)
        ktq = scaled_kernel(n, e.t, e.q, lam)
    else:
        raise ConfigError(f"unknown kernel type {ktype!r}")

    cc = pc["coefficient"]
    M = float(cc.get("M", 1.0))
    ctype = cc.get("type", "constant")
    if ctype == "constant":
        coeff = constant_coefficient(n, M)
    elif ctype == "indicator-of-halfspace":
        coeff = halfspace_coefficient(n, M)
    elif ctype == "checkerboard":
        coeff = checkerboard_coefficient(n, M, cell=float(cc.get("cell", 0.5)))
    elif ctype == "holder":
        coeff = holder_coefficient(n, M, alpha=float(cc.get("alpha", 0.5)))
    else:
        raise ConfigError(f"unknown coefficient type {ctype!r}")

    fc = pc["f"]
    ftype = fc.get("type", "constant")
    if ftype == "constant":
        f = constant_source(float(fc.get("value", 0.0)))
    elif ftype == "gaussian":
        f = gaussian_source(float(fc.get("amplitude", 1.0)),
                            width=float(fc.get("width", 1.0)))
    else:
        raise ConfigError(f"unknown source type {ftype!r}")

    return ProblemParams(exponents=e, Ksp=ksp, Ktq=ktq, a=coeff,
                         c_hat=float(pc["c_hat"]), f=f)


def build_quadrature(cfg: dict) -> QuadratureSpec:
    return QuadratureSpec(tol=float(cfg["quadrature"]["tol"]))


def build_exterior(spec: dict) -> Exterior:
    tag = spec.get("tag", "constant")
    if tag == "constant":
        return constant_exterior(float(spec.get("value", 0.0)))
    if tag == "growth":
        return growth_exterior(eta=float(spec["eta"]))
    raise ConfigError(f"unknown exterior tag {tag!r} in config")


def build_solve_config(cfg: dict) -> SolveConfig:
    sc = cfg["solve"]
    return SolveConfig(
        R=float(sc["R"]), N=sc["N"],
        exterior=build_exterior(sc["exterior"]),
        residual_tol=float(sc["residual_tol"]),
        max_iters=sc["max_iters"],
        quadrature=build_quadrature(cfg))
