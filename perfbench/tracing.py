"""Spans and counters at the nldp layer boundaries, recorded from outside.

Every wrapper is installed at the module attribute its callers look the
function up by.  ``from .quadrature import adaptive_quad`` copies the
function into the importing module, so wrapping only the defining module
would miss those calls and their counts would silently read zero.  Each
alias is wrapped around the original function, never around another
wrapper, so no call is counted twice.

Spans stay in memory (name, start, end, parent index) and are reduced to
per-layer numbers when the traced operations end.  A span's self time is
its duration minus the durations of its direct children; nothing runs
concurrently, so the children never overlap.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict

import numpy as np

# Layer (module) -> prefix of its metric names.
LAYERS = {"cli": "cli", "constants": "constants", "quadrature": "quad",
          "operator": "op", "grid": "grid", "solver": "solver",
          "scaling": "scaling", "reglab": "reglab"}

ROOT = "bench:operation"   # the benchmark's own span around one operation


class Tracer:
    """Installs the layer wrappers, records spans and counts, and undoes
    the installation on ``close``."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` under the root span of one benchmark operation."""
        rec = self._open(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- installation ------------------------------------------------------
    def _install(self, owner, attr: str, name: str, before=None, after=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        def wrapped(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer.counts[name] += 1
            rec = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def _count_panels(self, orig):
        """``before`` hook for adaptive_quad: counts integrand calls (one
        per GK15 panel) and flags the call when they reach its budget."""
        sig = inspect.signature(orig)
        counts = self.counts

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            f = bound.arguments["f"]
            budget = bound.arguments["max_total_panels"]
            calls = 0

            def counted(x):
                nonlocal calls
                calls += 1
                counts["quad.panels"] += 1
                if calls == budget:
                    counts["quad.budget_hits"] += 1
                return f(x)

            bound.arguments["f"] = counted
            return bound.args, bound.kwargs

        return before

    def install(self):
        import nldp.cli
        import nldp.constants
        import nldp.grid
        import nldp.operator
        import nldp.quadrature
        import nldp.reglab
        import nldp.scaling
        import nldp.solver

        counts = self.counts

        def after_solve(rep_pair, args, kwargs):
            rep = rep_pair[1]
            counts["solver.trials"] += rep.iterations
            counts["solver.accepted"] += len(rep.residual_history) - 1

        def after_grid_call(result, args, kwargs):
            u, x = args[0], args[1]
            counts["grid.points"] += int(np.size(x)) // u.n

        self._install(nldp.cli, "main", "cli:main")

        for mod in (nldp.cli, nldp.reglab):
            self._install(mod, "build_bundle", "constants:build_bundle")
        self._install(nldp.constants, "choose_eta_kappa",
                      "constants:choose_eta_kappa")
        self._install(nldp.constants, "sigma", "constants:sigma")

        for mod in (nldp.constants, nldp.operator, nldp.quadrature):
            orig = mod.adaptive_quad
            self._install(mod, "adaptive_quad", "quadrature:adaptive_quad",
                          before=self._count_panels(orig))
        self._install(nldp.constants, "geometric_tail_quad",
                      "quadrature:geometric_tail_quad")

        self._install(nldp.solver, "apply_grid", "operator:apply_grid")
        for mod in (nldp.reglab, nldp.cli, nldp.scaling):
            self._install(mod, "evaluate", "operator:evaluate")

        self._install(nldp.grid.GridFunction, "__call__", "grid:call",
                      after=after_grid_call)
        self._install(nldp.grid.GridFunction, "save", "grid:save")

        for mod in (nldp.cli, nldp.reglab, nldp.solver):
            self._install(mod, "solve", "solver:solve", after=after_solve)
        self._install(nldp.solver, "kernel_mass_matrix",
                      "solver:kernel_mass_matrix")

        self._install(nldp.reglab, "blowup_step", "scaling:blowup_step")
        # run_pipeline imports rescale_gridfunction lazily, at call time,
        # from the scaling module itself.
        self._install(nldp.scaling, "rescale_gridfunction",
                      "scaling:rescale_gridfunction")

        self._install(nldp.reglab, "run_pipeline", "reglab:run_pipeline")
        self._install(nldp.reglab, "dyadic_iteration",
                      "reglab:dyadic_iteration")
        self._install(nldp.reglab, "growth_lemma_check",
                      "reglab:growth_lemma_check")

    def close(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reduction ---------------------------------------------------------
    def summary(self) -> dict:
        """Per-span-name totals and per-layer self times of what was
        recorded since the last ``reset``."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total: dict = defaultdict(float)
        self_by_layer: dict = defaultdict(float)
        wall = 0.0
        for (name, t0, t1, parent), inner in zip(self.spans, child):
            dur = t1 - t0
            total[name] += dur
            self_by_layer[name.split(":")[0]] += dur - inner
            if name == ROOT:
                wall += dur
        return {"total": dict(total), "self": dict(self_by_layer),
                "wall": wall, "counts": dict(self.counts)}


def layer_metrics(s: dict) -> dict:
    """The per-layer metrics of one traced operation, by metric name.

    Counts are per operation.  Time spent in a layer is given as a share of
    the operation's traced wall time: a layer the workload never reaches
    then reads 0 as a share, not as a time, and the self shares of the
    eight layers plus the unattributed share add up to 1.
    """
    tot, cnt, own, wall = s["total"], s["counts"], s["self"], s["wall"]
    m = {
        "quad.adaptive_calls": cnt.get("quadrature:adaptive_quad", 0),
        "quad.panels": cnt.get("quad.panels", 0),
        "quad.budget_hits": cnt.get("quad.budget_hits", 0),
        "quad.tail_calls": cnt.get("quadrature:geometric_tail_quad", 0),
        "constants.sigma_calls": cnt.get("constants:sigma", 0),
        "op.apply_grid_calls": cnt.get("operator:apply_grid", 0),
        "op.evaluate_calls": cnt.get("operator:evaluate", 0),
        "grid.call_count": cnt.get("grid:call", 0),
        "grid.points": cnt.get("grid.points", 0),
        "solver.trials": cnt.get("solver.trials", 0),
        "solver.accepted": cnt.get("solver.accepted", 0),
        "solver.rejected": (cnt.get("solver.trials", 0)
                            - cnt.get("solver.accepted", 0)),
        "solver.kmm_builds": cnt.get("solver:kernel_mass_matrix", 0),
        "scaling.blowup_calls": cnt.get("scaling:blowup_step", 0),
        "reglab.growth_lemma_calls": cnt.get("reglab:growth_lemma_check", 0),
    }
    for metric, span in SHARES.items():
        m[metric] = tot.get(span, 0.0) / wall
    for layer, prefix in LAYERS.items():
        m[prefix + ".self_share"] = own.get(layer, 0.0) / wall
    m["trace.unattributed_share"] = own.get("bench", 0.0) / wall
    m["trace.wall_s"] = wall
    return m


# Share metrics: the time inside one wrapped function, over the wall time.
SHARES = {
    "quad.adaptive_share": "quadrature:adaptive_quad",
    "constants.build_bundle_share": "constants:build_bundle",
    "constants.choose_share": "constants:choose_eta_kappa",
    "op.apply_grid_share": "operator:apply_grid",
    "op.evaluate_share": "operator:evaluate",
    "grid.call_share": "grid:call",
    "grid.save_share": "grid:save",
    "solver.kmm_share": "solver:kernel_mass_matrix",
    "scaling.rescale_share": "scaling:rescale_gridfunction",
    "reglab.growth_lemma_share": "reglab:growth_lemma_check",
    "reglab.dyadic_share": "reglab:dyadic_iteration",
    "cli.main_share": "cli:main",
}


def layer_calls(s: dict) -> dict:
    """Number of spans recorded per layer."""
    calls: Counter = Counter()
    for name, n in s["counts"].items():
        if ":" in name:
            calls[name.split(":")[0]] += n
    return dict(calls)
