"""Executable oracles for the algebraic inequalities behind every
quadrature bound, plus vectorised fuzz campaigns.

Conventions: phi_r(v) = |v|^(r-2) v with phi_r(0) = 0 (the 0^(r-2) with
zero base convention needed for r < 2), and slack = RHS - LHS, so a
nonnegative slack certifies the inequality at that sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected
from .params import (BARRIER_C1, BARRIER_C2, CoefficientField, ProblemParams,
                     barrier_eval, constant_coefficient)
from .operator import _differences, phi
from .quadrature import adaptive_quad_rows, near_singular_quad_rows

__all__ = [
    "IneqReport", "check_revL1", "check_superlinear", "check_singular",
    "check_C2_bounds", "check_local_integrability",
    "fuzz_revL1", "fuzz_superlinear", "fuzz_singular", "fuzz_C2_bounds",
]


@dataclass
class IneqReport:
    lemma: str
    samples: int
    violations: int
    worst_slack: float
    witness: dict
    extras: dict | None = None


# --------------------------------------------------------------------------
# Scalar oracles.

def check_revL1(a, b, r):
    """| |a+b|^(r-2)(a+b) - |a|^(r-2) a | <= (r-1) |b| (|a|+|b|)^(r-2), r >= 2."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 2.0):
        raise ValueError("the difference bound needs r >= 2")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lhs = np.abs(phi(a + b, r) - phi(a, r))
    rhs = (r - 1.0) * np.abs(b) * (np.abs(a) + np.abs(b)) ** (r - 2.0)
    return rhs - lhs


def check_superlinear(a, b, r, q):
    """|a+b|^(r-2)(a+b) <= 2^(q-2) (|a|^(r-2) a + |b|^(r-2) b) for a+b >= 0,
    q >= r >= 2."""
    r = np.asarray(r, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(q < r) or np.any(r < 2.0):
        raise ValueError("needs q >= r >= 2")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a + b < 0):
        raise ValueError("needs a + b >= 0")
    lhs = phi(a + b, r)
    rhs = 2.0 ** (q - 2.0) * (phi(a, r) + phi(b, r))
    return rhs - lhs


def check_singular(a, b, r, q):
    """| |a+b|^(r-2)(a+b) - |a|^(r-2) a | <= (3^(q-1) + 2^(q-1)) |b|^(r-1)
    for 1 < r <= 2, q >= r (the singular-range difference bound)."""
    r = np.asarray(r, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(r <= 1.0) or np.any(r > 2.0):
        raise ValueError("the singular bound covers 1 < r <= 2")
    if np.any(q < r):
        raise ValueError("needs q >= r")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lhs = np.abs(phi(a + b, r) - phi(a, r))
    rhs = (3.0 ** (q - 1.0) + 2.0 ** (q - 1.0)) * np.abs(b) ** (r - 1.0)
    return rhs - lhs


# --------------------------------------------------------------------------
# C^2 envelope bounds (the delta-level decay rates).

def _pair(phi_fn, x, y, r):
    px = np.asarray(phi_fn(x), dtype=float)
    return phi(px - phi_fn(x + y), r) + phi(px - phi_fn(x - y), r)


def check_C2_bounds(phi_fn, x, y, mode: str, r: float,
                    c1: float = BARRIER_C1, c2: float = BARRIER_C2,
                    coeff: CoefficientField | None = None):
    """Slack of the delta-level envelope for a C^2 function with declared
    C^1/C^2 norms (c1, c2).  Valid for |y| <= 1.

    Modes (r is the active exponent):
      "second-order":   pair <= (r-1) c2 (c1 + c2)^(r-2) |y|^r,  r >= 2
      "first-order":    pair <= 2 c1^(r-1) |y|^(r-1),            1 < r < 2
      "coeff-bounded":  a-weighted pair <= 2 M c1^(r-1) |y|^(r-1), any r > 1
      "coeff-symmetric": a(x,y)=a(x,-y):
                        <= M (r-1) c2 (c1 + c2)^(r-2) |y|^r,     r >= 2
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    if mode == "second-order":
        if r < 2.0:
            raise ValueError("second-order mode needs r >= 2")
        lhs = np.abs(_pair(phi_fn, x, y, r))
        rhs = (r - 1.0) * c2 * (c1 + c2) ** (r - 2.0) * ay ** r
    elif mode == "first-order":
        if not 1.0 < r < 2.0:
            raise ValueError("first-order mode covers 1 < r < 2")
        lhs = np.abs(_pair(phi_fn, x, y, r))
        rhs = 2.0 * c1 ** (r - 1.0) * ay ** (r - 1.0)
    elif mode == "coeff-bounded":
        if coeff is None:
            raise ValueError("coefficient modes need a coefficient field")
        px = np.asarray(phi_fn(x), dtype=float)
        lhs = np.abs(coeff.eval(x, y) * phi(px - phi_fn(x + y), r)
                     + coeff.eval(x, -y) * phi(px - phi_fn(x - y), r))
        rhs = 2.0 * coeff.bound * c1 ** (r - 1.0) * ay ** (r - 1.0)
    elif mode == "coeff-symmetric":
        if coeff is None:
            raise ValueError("coefficient modes need a coefficient field")
        if r < 2.0:
            raise ValueError("symmetric-coefficient mode needs r >= 2")
        sym = coeff.eval(x, y)
        lhs = np.abs(sym * _pair(phi_fn, x, y, r))
        rhs = coeff.bound * (r - 1.0) * c2 * (c1 + c2) ** (r - 2.0) * ay ** r
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return rhs - lhs


# --------------------------------------------------------------------------
# Local integrability of the near field (the five finite-integral checks).

def check_local_integrability(phi_fn, P: ProblemParams, mode: str,
                              x: float = 0.1,
                              coeff: CoefficientField | None = None,
                              alpha: float | None = None,
                              shells_per_octave: int = 1):
    """Adaptive quadrature of the near-field integral over B_1; the value
    must be finite and stable under one mesh refinement.

    Modes: "p-second" (p >= 2), "p-first" (1/(1-s) < p < 2),
    "q-bounded" (bounded coefficient, q > 1/(1-t)),
    "q-holder" (Holder coefficient: q >= 2 and q > (1-alpha)/(1-t); the
    companion statement's printed form 'q >= max{2, (1-alpha)(1-t)}' drops
    a fraction bar, so the remark-form condition is enforced),
    "q-symmetric" (symmetric coefficient, q >= 2).

    Divergent integrands (three successive non-decaying Cauchy increments)
    raise DivergenceDetected.
    """
    e = P.exponents
    if mode == "p-second":
        r, kern = e.p, P.Ksp
        if e.p < 2.0:
            raise ValueError("p-second mode needs p >= 2")
        worst = min(e.p, 2.0 * (e.p - 1.0)) - e.sp - 1.0
    elif mode == "p-first":
        r, kern = e.p, P.Ksp
        if not 1.0 / (1.0 - e.s) < e.p < 2.0:
            raise ValueError("p-first mode needs 1/(1-s) < p < 2")
        worst = 2.0 * (e.p - 1.0) - e.sp - 1.0
    elif mode in ("q-bounded", "q-holder", "q-symmetric"):
        r, kern = e.q, P.Ktq
        if coeff is None:
            raise ValueError("q modes need a coefficient field")
        if mode == "q-holder":
            if alpha is None:
                raise ValueError("q-holder mode needs the Holder exponent alpha")
            if e.q < 2.0 or e.q <= (1.0 - alpha) / (1.0 - e.t):
                raise ValueError("q-holder mode needs q >= 2 and q > (1-alpha)/(1-t)")
        if mode == "q-symmetric":
            if e.q < 2.0 or coeff.depends_on_offset:
                raise ValueError("q-symmetric mode needs q >= 2 and a symmetric coefficient")
        worst = (e.q - 1.0) - e.tq - 1.0
        if mode == "q-symmetric":
            worst = min(e.q, 2.0 * (e.q - 1.0)) - e.tq - 1.0
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # Below 1e-5 the differences come from the local 2nd-order model, out
    # of rounding noise (direct subtraction is garbage below ~1e-8 and the
    # kernel amplifies it): central differences of phi at step 1e-4.
    px = float(np.asarray(phi_fn(np.asarray(x)), dtype=float))
    step = 1e-4
    fp, fm = (float(phi_fn(np.asarray(x, dtype=float) + k))
              for k in (step, -step))
    model = ((fp - fm) / (2 * step), (fp - 2 * px + fm) / (2 * step * step))

    def integrand(yv, _rows):
        yv = np.asarray(yv, dtype=float)
        _, dplus, dminus = _differences(phi_fn, x, px, 1.0, yv, model, 1e-5)
        dp = phi(dplus, r)
        dm = phi(dminus, r)
        if coeff is not None and mode in ("q-bounded", "q-holder",
                                          "q-symmetric"):
            core = np.abs(coeff.eval(x, yv) * dp + coeff.eval(x, -yv) * dm)
        else:
            core = np.abs(dp + dm)
        return core * (kern.eval(x, yv) + kern.eval(x, -yv)) * 0.5 * 2.0

    # Cauchy test on dyadic shells: increments must eventually decay.
    # shells_per_octave > 1 refines the shell mesh (stability probing).
    m_oct = max(1, int(shells_per_octave))
    shells = [2.0 ** (-k / m_oct) for k in range(0, 26 * m_oct)]
    increments = adaptive_quad_rows(
        integrand, np.stack([shells[1:], shells[:-1]], 1), 1e-9)[0].tolist()
    bad_run = 0
    for lo, prev, v in zip(shells[2:], increments, increments[1:]):
        if v >= 0.98 ** (1.0 / m_oct) * prev and v > 1e-13:
            bad_run += 1
            if bad_run >= 3 * m_oct:
                raise DivergenceDetected(
                    f"near-field Cauchy test failed at scale {lo:.3g}")
        else:
            bad_run = 0
    head = sum(increments)
    # Remaining mass below the last shell: grade by the measured decay rate
    # when it beats the conservative mode-derived exponent (a smooth phi at
    # a generic point cancels better than the worst-case envelope).
    tail_inc = [v for v in increments[-4:] if v > 0.0]
    e_eff = worst
    if len(tail_inc) >= 2 and tail_inc[-1] < tail_inc[-2]:
        e_eff = max(e_eff, math.log2(tail_inc[-2] / tail_inc[-1]) - 1.0)
    if increments[-1] <= 1e-15:
        return head
    if e_eff <= -1.0:
        raise DivergenceDetected("near-field exponent at or below -1")
    tail, _ = near_singular_quad_rows(integrand, [shells[-1]], e_eff, 1e-11)
    return head + float(tail[0])


# --------------------------------------------------------------------------
# Fuzz campaigns (vectorised; a mixture of uniform, log-uniform, and
# near-degenerate draws -- sign/power bugs live near |b| ~ 0).

def _draws(rng, count):
    k = count // 3
    u = rng.uniform(-10.0, 10.0, size=count - 2 * k)
    logu = np.exp(rng.uniform(-18.0, 2.3, size=k)) * rng.choice([-1.0, 1.0], size=k)
    tiny = rng.uniform(-1e-8, 1e-8, size=k)
    return np.concatenate([u, logu, tiny])


def _report(lemma, slack, witness_inputs, extras=None) -> IneqReport:
    # Tolerate only exact-arithmetic rounding at the equality cases.
    floor = -1e-12 * np.maximum(1.0, np.abs(slack))
    bad = slack < floor
    worst = int(np.argmin(slack))
    witness = {k: float(v[worst]) for k, v in witness_inputs.items()}
    return IneqReport(lemma=lemma, samples=int(slack.size),
                      violations=int(np.count_nonzero(bad)),
                      worst_slack=float(slack[worst]), witness=witness,
                      extras=extras)


_FUZZ_CHUNKS = 8  # fixed stream layout


def _run_chunked(chunk_fn, lemma: str, count: int, seed: int) -> IneqReport:
    """Run a campaign in a fixed number of seed streams and merge them (the
    merge is associative); the chunk layout is pinned so identical
    (count, seed) reproduce identical reports."""
    base = count // _FUZZ_CHUNKS
    counts = [base] * (_FUZZ_CHUNKS - 1) + [count - base * (_FUZZ_CHUNKS - 1)]
    seeds = [seed + 7919 * i for i in range(_FUZZ_CHUNKS)]
    parts = [chunk_fn(counts[i], seeds[i]) for i in range(_FUZZ_CHUNKS)]
    best = min(parts, key=lambda r: r.worst_slack)
    extras = None
    if any(p.extras for p in parts):
        keys = {k for p in parts if p.extras for k in p.extras}
        extras = {k: max(p.extras[k] for p in parts if p.extras and k in p.extras)
                  for k in keys}
    return IneqReport(lemma=lemma, samples=sum(p.samples for p in parts),
                      violations=sum(p.violations for p in parts),
                      worst_slack=best.worst_slack, witness=best.witness,
                      extras=extras)


def _revL1_chunk(count, seed):
    rng = np.random.default_rng(seed)
    a = _draws(rng, count)
    b = _draws(rng, count)
    r = rng.uniform(2.0, 4.0, size=count)
    return _report("difference-bound", check_revL1(a, b, r),
                   {"a": a, "b": b, "r": r})


def fuzz_revL1(count: int = 1_000_000, seed: int = 0) -> IneqReport:
    return _run_chunked(_revL1_chunk, "difference-bound", count, seed)


def _superlinear_chunk(count, seed):
    rng = np.random.default_rng(seed)
    a = _draws(rng, count)
    b = _draws(rng, count)
    neg = a + b < 0
    b[neg] = -a[neg] + np.abs(b[neg])  # fold onto a+b >= 0
    q = rng.uniform(2.0, 5.0, size=count)
    r = 2.0 + (q - 2.0) * rng.uniform(size=count)  # r in [2, q], both phases
    return _report("superlinear-bound", check_superlinear(a, b, r, q),
                   {"a": a, "b": b, "r": r, "q": q})


def fuzz_superlinear(count: int = 1_000_000, seed: int = 1) -> IneqReport:
    return _run_chunked(_superlinear_chunk, "superlinear-bound", count, seed)


def _singular_chunk(count, seed):
    rng = np.random.default_rng(seed)
    a = _draws(rng, count)
    b = _draws(rng, count)
    r = rng.uniform(1.0 + 1e-6, 2.0, size=count)
    q = r + rng.uniform(0.0, 3.0, size=count)
    slack = check_singular(a, b, r, q)
    lhs = np.abs(phi(a + b, r) - phi(a, r))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(b) > 0, lhs / np.abs(b) ** (r - 1.0), 0.0)
    tight = float(np.nanmax(ratio / (3.0 ** (q - 1.0) + 2.0 ** (q - 1.0))))
    return _report("singular-bound", slack, {"a": a, "b": b, "r": r, "q": q},
                   extras={"max_lhs_over_envelope": tight})


def fuzz_singular(count: int = 1_000_000, seed: int = 2) -> IneqReport:
    return _run_chunked(_singular_chunk, "singular-bound", count, seed)


def fuzz_C2_bounds(count: int = 10_000, seed: int = 3, p: float = 2.0,
                   q: float = 2.2) -> dict:
    """Barrier-driven fuzz of all four C^2 envelope modes, the coefficient
    modes at a = 1; |y| <= 1."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=count)
    y = rng.uniform(-1.0, 1.0, size=count)
    y[np.abs(y) < 1e-12] = 1e-12
    coeff = constant_coefficient(1, 1.0)
    out = {}
    out["second-order"] = _report(
        "c2-second-order",
        check_C2_bounds(barrier_eval, x, y, "second-order", max(p, 2.0)),
        {"x": x, "y": y})
    out["first-order"] = _report(
        "c2-first-order",
        check_C2_bounds(barrier_eval, x, y, "first-order", 1.9),
        {"x": x, "y": y})
    out["coeff-bounded"] = _report(
        "c2-coeff-bounded",
        check_C2_bounds(barrier_eval, x, y, "coeff-bounded", q, coeff=coeff),
        {"x": x, "y": y})
    out["coeff-symmetric"] = _report(
        "c2-coeff-symmetric",
        check_C2_bounds(barrier_eval, x, y, "coeff-symmetric", max(q, 2.0),
                        coeff=coeff),
        {"x": x, "y": y})
    return out
