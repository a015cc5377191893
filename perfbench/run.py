"""nldp benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload constants-desk --seed 1 --seconds 14 --trace 0

Run from the root of a checkout; the toolkit is imported from its ``src/``.
``--trace 0`` times operations with nothing wrapped and prints the
end-to-end metrics, in reference seconds (see ``hostcal.py``); ``--trace 1``
alternates untraced and traced operations, in pairs, and prints the
per-layer metrics.  The last line of standard output is ``{"correct",
"attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up time counts the imports below

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# One BLAS thread: the load is one process, and a single thread keeps the
# run-to-run spread down on a small shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import hostcal   # noqa: E402  (imports numpy, after the thread pinning)

SETUPS = 3              # set-ups per run (this process + fresh children)
TRACED_PAIRS = 2        # least (untraced, traced) pairs in a traced run
MAX_UNATTRIBUTED = 0.05  # share of traced wall time outside every layer

E2E_UNITS = {"time_to_solution_s": "s", "cpu_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}


def _die(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_toolkit():
    if not (SRC / "nldp" / "__init__.py").is_file():
        _die(f"no toolkit sources at {SRC}; run from a checkout of the repo")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import nldp
    if Path(nldp.__file__).resolve().parent != SRC / "nldp":
        _die(f"imported nldp from {nldp.__file__}, not from {SRC}")
    import workloads
    import tracing
    return workloads, tracing


def _setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                          timeout=120, check=False)
    if done.returncode != 0:
        _die(f"set-up child failed: {done.stderr.strip()[-2000:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _measure(w, state, seconds: float, tracer=None, per_op=None,
             sampler=None):
    """Closed loop: run operations back to back until ``seconds`` have
    passed (at least one).  Returns (walls, cpus, failures); with a
    ``sampler`` the times are in reference seconds."""
    walls, cpus, failures, spans = [], [], [], []
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = tracer.run(w.run, state) if tracer else w.run(state)
            err = None
        except Exception as ex:   # a failed operation is counted, not fatal
            result, err = None, f"{type(ex).__name__}: {ex}"
        w1, c1 = time.perf_counter(), time.process_time()
        spans.append((w0, w1))
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        if tracer is not None:
            per_op.append(tracer.summary())
        if err is None:
            err = w.check(state, result)
        if err is not None:
            failures.append(err)
        if time.perf_counter() - t0 >= seconds:
            break
    if sampler is not None:
        time.sleep(2 * hostcal.PERIOD_S)   # a sample after the last one
        walls = [sampler.scaled(a, b, t) for (a, b), t in zip(spans, walls)]
        cpus = [sampler.scaled(a, b, t) for (a, b), t in zip(spans, cpus)]
    return walls, cpus, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=14.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # Set-up is scaled by the samples from here on; every way out of the
    # run stops the timer, so no SIGALRM reaches a process on its way out.
    sampler = hostcal.Sampler()
    if args.trace == 0:
        sampler.start()
    try:
        return _run(args, sampler)
    finally:
        sampler.stop()


def _run(args, sampler) -> int:
    workloads, tracing = _import_toolkit()
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    # CLI artifacts go here, never to the tracked out/ directory.
    tmp = REPO / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        state = w.setup(args.seed, tmp)
        t_setup = time.perf_counter()
        if args.trace == 0:
            time.sleep(2 * hostcal.PERIOD_S)   # a sample after set-up
            sampler.stop()
            setup_main = sampler.scaled(T_START, t_setup, t_setup - T_START)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        if args.trace == 0:
            # Half the cold set-ups before the timed loop and half after,
            # so the median samples the host over the whole run.
            half = (SETUPS - 1) // 2
            setups = [setup_main] + [_setup_in_child(args)
                                     for _ in range(half)]
            sampler.start()
            walls, cpus, failures = _measure(w, state, args.seconds,
                                             sampler=sampler)
            sampler.stop()
            setups += [_setup_in_child(args)
                       for _ in range(SETUPS - 1 - half)]
            metrics = {
                "time_to_solution_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = E2E_UNITS
            problems = []
        else:
            sampler.start()
            metrics, units, walls, failures, problems = _traced(
                w, state, args.seconds, tracing, sampler)
            sampler.stop()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    for reason in failures + problems:
        print(f"perfbench: {args.workload}: {reason}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"operations={len(walls)} fail_rate={len(failures) / len(walls):g} "
          f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()}"
          + (f" host_speed={sampler.speed():.3g}" if sampler.samples else ""))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(walls),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def _traced(w, state, seconds, tracing, sampler):
    """Untraced and traced operations in pairs, the order flipped from one
    pair to the next, until ``seconds`` have passed and at least
    ``TRACED_PAIRS`` pairs have run.  Per-layer medians over the traced
    operations, ``trace.overhead_s`` as the median difference within a
    pair in reference seconds, and the self-checks of the trace."""
    tracer = tracing.Tracer()
    walls0, walls1, failures, per_op = [], [], [], []

    def untraced():
        wl, _, fl = _measure(w, state, 0.0, sampler=sampler)
        walls0.extend(wl)
        failures.extend(fl)

    def traced():
        tracer.install()
        try:
            wl, _, fl = _measure(w, state, 0.0, tracer, per_op, sampler)
        finally:
            tracer.close()
        walls1.extend(wl)
        failures.extend(fl)

    t0 = time.perf_counter()
    while len(walls1) < TRACED_PAIRS or time.perf_counter() - t0 < seconds:
        for step in ((untraced, traced) if len(walls1) % 2 == 0
                     else (traced, untraced)):
            step()

    ops = [tracing.layer_metrics(s) for s in per_op]
    units = {k: ("count" if isinstance(ops[0][k], int) else
                 "s" if k.endswith("_s") else "share") for k in ops[0]}
    # Counts must agree between operations (checked below); shares vary.
    metrics = {k: ops[0][k] if units[k] == "count"
               else statistics.median(op[k] for op in ops) for k in ops[0]}
    metrics["trace.overhead_s"] = statistics.median(
        b - a for a, b in zip(walls0, walls1))
    units["trace.overhead_s"] = "s"

    problems = []
    calls = tracing.layer_calls(per_op[0])
    for layer in w.layers:
        if not calls.get(layer):
            problems.append(f"self-check: no call recorded in layer {layer}")
    counts = [{k: v for k, v in op.items() if units[k] == "count"}
              for op in ops]
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"self-check: counts differ between operations: "
                        f"{counts}")
    for op in ops:
        if op["trace.unattributed_share"] > MAX_UNATTRIBUTED:
            problems.append(
                f"self-check: {op['trace.unattributed_share']:.3g} of "
                f"{op['trace.wall_s']:.3g} s fall outside every layer")
    return metrics, units, walls0 + walls1, failures, problems


if __name__ == "__main__":
    sys.exit(main())
