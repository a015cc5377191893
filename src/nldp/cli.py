"""Command-line entry point for experiments.

Subcommands: validate, eval, constants, scaling-test, check-inequalities,
solve, holder, pipeline.  Artifacts are written atomically into the output
directory ``--out`` (default ``out``), every one stamped with the toolkit
version and the hash of the effective config; the same config (seed
included) reproduces bit-identical artifacts, wherever they are written.

Exit codes: 0 success, 1 config/assumption error, 2 numerical failure
(divergence, failed selection).  A machine-readable error.json is written
in every failure case.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import __version__
from ._jsonfmt import dumps_fixed
from .config import (build_problem, build_quadrature, build_solve_config,
                     config_hash, load_config)
from .constants import build_bundle
from .errors import ConfigError, NldpError, SelectionFailed
from .grid import _atomic_write, constant_exterior, sample
from .inequalities import (check_local_integrability, fuzz_C2_bounds,
                           fuzz_revL1, fuzz_singular, fuzz_superlinear)
from .operator import evaluate
from .params import barrier_eval
from .reglab import holder_fit, oscillation, run_pipeline
from .scaling import ScalingContext, scaling_identity_check
from .solver import solve

logger = logging.getLogger("nldp")


def _setup_logging():
    level = os.environ.get("NLDP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _stamp(cfg: dict, payload: dict) -> dict:
    return {"toolkit_version": __version__, "config_sha256": config_hash(cfg),
            "seed": cfg["seed"], **payload}


def _write_json(out_dir: str, name: str, cfg: dict, payload: dict):
    _atomic_write(os.path.join(out_dir, name),
                  dumps_fixed(_stamp(cfg, payload)))


def _write_csv(out_dir: str, name: str, header: str, rows, cfg: dict):
    lines = [f"# toolkit_version={__version__} config_sha256={config_hash(cfg)}",
             header]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row))
    _atomic_write(os.path.join(out_dir, name), "\n".join(lines) + "\n")


def main(argv=None) -> int:
    _setup_logging()
    ap = argparse.ArgumentParser(
        prog="nldp",
        description="nonlocal double phase operator toolkit")
    ap.add_argument("command", choices=[
        "validate", "eval", "constants", "scaling-test", "check-inequalities",
        "solve", "holder", "pipeline"])
    ap.add_argument("--config", default=None, help="JSON config path")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="config override (repeatable, dotted keys)")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config, args.set)
        os.makedirs(args.out, exist_ok=True)
        return _dispatch(args.command, cfg, args.out)
    except (ConfigError, ValueError) as ex:
        _emit_error(args.out, str(ex), kind="config")
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except (SelectionFailed, NldpError) as ex:
        _emit_error(args.out, str(ex), kind="numerical")
        print(f"numerical failure: {ex}", file=sys.stderr)
        return 2


def _emit_error(out_dir: str, message: str, kind: str):
    try:
        os.makedirs(out_dir, exist_ok=True)
        _atomic_write(os.path.join(out_dir, "error.json"),
                      dumps_fixed({"error": message, "kind": kind,
                                   "toolkit_version": __version__}))
    except OSError:
        pass


def _dispatch(command: str, cfg: dict, out_dir: str) -> int:
    P = build_problem(cfg)
    Q = build_quadrature(cfg)

    if command == "validate":
        build_solve_config(cfg)   # rejects what ``solve`` would reject
        report = P.validation_report()
        _write_json(out_dir, "validate.json", cfg, {
            "ok": not report, "violations": report,
            "exponents": {"n": P.n, "s": P.exponents.s, "t": P.exponents.t,
                          "p": P.exponents.p, "q": P.exponents.q},
            "M_hat": P.M_hat})
        print("ok" if not report else "violated: " + "; ".join(report))
        return 0

    if command == "eval":
        points = cfg["eval"]["points"]
        if not isinstance(points, list):
            raise ConfigError(f"eval.points {points!r}: need a list")
        xs = [_eval_point(x, P.n) for x in points]
        u, rep = solve(P, build_solve_config(cfg))
        if not rep.converged:
            raise NldpError(f"solve did not converge: {rep.flags}")
        # Raises ValueError for a point off the interior margin.
        vals, errs = evaluate(u, np.reshape(xs, (-1, P.n)), P, Q)
        rows = [{"x": x, "value": float(val), "error": float(err)}
                for x, val, err in zip(points, vals, errs)]
        _write_json(out_dir, "eval.json", cfg, {"points": rows})
        for xa, r in zip(xs, rows):
            where = ", ".join(f"{v:+.6g}" for v in np.atleast_1d(xa))
            print(f"L u({where}) = {r['value']:.12g} +- {r['error']:.3g}")
        return 0

    if command == "constants":
        bundle = build_bundle(P, u_sup=1.0, f_sup=P.f.sup,
                              epsilon=cfg["constants"]["epsilon"])
        _write_json(out_dir, "constants.json", cfg, {
            "bundle": _bundle_dict(bundle)})
        print(f"eta={bundle.eta:.6g} kappa={bundle.kappa:.6g} "
              f"sigma={bundle.sigma:.6g} theta={bundle.theta:.6g} "
              f"gamma={bundle.gamma:.6g}")
        return 0

    if command == "scaling-test":
        u = sample(barrier_eval, P.n, 2.0, 513 if P.n == 1 else 33,
                   exterior=constant_exterior(0.0))
        results = []
        for lam, mu in ((2.0, 0.5), (0.5, 2.0), (1.0, 1.0)):
            d = scaling_identity_check(u, P, ScalingContext(lam, mu, 0.0), Q)
            results.append({"lambda": lam, "mu": mu, "max_rel_discrepancy": d})
            print(f"(lambda={lam}, mu={mu}): {d:.3e}")
        _write_json(out_dir, "scaling.json", cfg, {"checks": results})
        return 0

    if command == "check-inequalities":
        seed = cfg["seed"]
        reports = {
            "difference_bound": fuzz_revL1(seed=seed),
            "superlinear_bound": fuzz_superlinear(seed=seed + 1),
            "singular_bound": fuzz_singular(seed=seed + 2),
        }
        c2 = fuzz_C2_bounds(seed=seed + 3, p=max(P.exponents.p, 2.0),
                            q=P.exponents.q)
        payload = {}
        violations = 0
        for name, rep in {**reports, **c2}.items():
            payload[name] = {"samples": rep.samples,
                             "violations": rep.violations,
                             "worst_slack": rep.worst_slack,
                             "witness": rep.witness, "extras": rep.extras}
            violations += rep.violations
            print(f"{name}: {rep.violations} violations / {rep.samples} draws "
                  f"(worst slack {rep.worst_slack:.3g})")
        integ = check_local_integrability(
            barrier_eval, P, "p-second" if P.exponents.p >= 2 else "p-first")
        payload["near_field_integral"] = {"value": integ}
        print(f"near-field integral finite: {integ:.6g}")
        _write_json(out_dir, "inequalities.json", cfg, payload)
        return 0 if violations == 0 else 2

    if command == "solve":
        sc = build_solve_config(cfg)
        u, rep = solve(P, sc)
        u.save(os.path.join(out_dir, "solution"),
               extra_meta={"toolkit_version": __version__,
                           "config_sha256": config_hash(cfg),
                           "algebraic_error": rep.algebraic_error})
        _write_json(out_dir, "solve_report.json", cfg, _report_dict(rep))
        _write_csv(out_dir, "residual_history.csv", "iteration,residual",
                   [(i, float(r)) for i, r in enumerate(rep.residual_history)],
                   cfg)
        print(f"{rep.flags}: {rep.iterations} iterations, "
              f"residual {rep.final_residual:.3e}")
        return 0 if rep.converged else 2

    if command == "holder":
        sc = build_solve_config(cfg)
        u, rep = solve(P, sc)
        if not rep.converged:
            raise NldpError(f"solve did not converge: {rep.flags}")
        center = float(cfg["reglab"]["center"])
        levels = cfg["reglab"]["levels"]
        gamma_hat, pref, resid = holder_fit(u, center, 0, levels)
        rows = []
        for i in range(levels + 1):
            r = 2.0 ** (-i)
            sup, inf, osc = oscillation(u, center, r)
            rows.append((i, r, sup, inf, osc, pref * r ** gamma_hat))
        _write_csv(out_dir, "oscillation.csv",
                   "level,radius,sup,inf,osc,bound", rows, cfg)
        _write_json(out_dir, "holder.json", cfg, {
            "gamma_hat": gamma_hat, "prefactor": pref,
            "fit_residual": resid, "levels": levels})
        print(f"gamma_hat = {gamma_hat:.4f} (prefactor {pref:.4g}, "
              f"fit residual {resid:.3g})")
        return 0

    if command == "pipeline":
        sc = build_solve_config(cfg)
        out = run_pipeline(P, sc, levels=cfg["reglab"]["levels"],
                           x0=float(cfg["reglab"]["center"]),
                           epsilon=cfg["constants"]["epsilon"])
        out["u"].save(os.path.join(out_dir, "solution"),
                      extra_meta={"toolkit_version": __version__,
                                  "config_sha256": config_hash(cfg),
                                  "algebraic_error":
                                      out["solve_report"].algebraic_error})
        _write_json(out_dir, "constants.json", cfg,
                    {"bundle": _bundle_dict(out["bundle"])})
        tr = out["trace"]
        _write_csv(out_dir, "trace.csv",
                   "level,radius,sup,inf,osc,bound,bound_held",
                   [(i, r, s, m, o, b, int(h))
                    for (i, r, s, m, o, b, h) in tr.rows()], cfg)
        _write_json(out_dir, "summary.json", cfg, {
            "solve": _report_dict(out["solve_report"]),
            "levels_passed": len(out["level_reports"]),
            "breakdown_level": tr.breakdown_level,
            "breakdown_reason": tr.breakdown_reason,
            "fitted_gamma": tr.fitted_gamma,
            "M_bar": out["M_bar"],
            "conclusion_margins": [
                rep["lemma"].conclusion.get("margin")
                for rep in out["level_reports"]],
        })
        print(f"pipeline: {len(out['level_reports'])} levels verified; "
              f"breakdown={tr.breakdown_level}; "
              f"fitted gamma={tr.fitted_gamma}")
        return 0 if tr.breakdown_level is None else 2

    raise ConfigError(f"unknown command {command!r}")


def _eval_point(x, n: int):
    """A scalar in 1-D, an [x, y] pair in 2-D, as the evaluation point."""
    try:
        xa = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        xa = None
    if xa is None or xa.shape != ((n,) if n > 1 else ()) \
            or not np.all(np.isfinite(xa)):
        kind = "a number" if n == 1 else f"a list of {n} numbers"
        raise ConfigError(f"eval point {x!r}: need {kind} in {n}-D")
    return float(xa) if n == 1 else xa


def _report_dict(rep) -> dict:
    return {"iterations": rep.iterations, "final_residual": rep.final_residual,
            "flags": rep.flags, "jacobians": rep.jacobians,
            "halvings": rep.halvings, "accelerated": rep.accelerated,
            "algebraic_error": rep.algebraic_error}


def _bundle_dict(bundle) -> dict:
    d = {"epsilon": bundle.epsilon, "eta": bundle.eta, "kappa": bundle.kappa,
         "sigma": bundle.sigma, "sigma_lo": bundle.sigma_lo,
         "sigma_hi": bundle.sigma_hi, "theta": bundle.theta,
         "gamma": bundle.gamma, "lambda": bundle.lam,
         "omega_n": bundle.omega_n}
    if bundle.certificate is not None:
        c = bundle.certificate
        d["certificate"] = {
            "epsilon": c.epsilon, "target": c.target, "regimes": c.regimes,
            "eta": c.eta, "kappa": c.kappa,
            "worst_terms": {k: {"value": v[0], "x": v[1]}
                            for k, v in c.worst_terms.items()},
            "worst_total": c.worst_total, "com2_constant": c.com2_constant,
            "kappa_cap": c.kappa_cap, "sigma_at_eta": c.sigma_at_eta,
            "probes": c.probes}
    return d


if __name__ == "__main__":
    sys.exit(main())
