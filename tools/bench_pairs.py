"""Paired benchmark runs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --bench BENCH_solver.json \\
        --change "what the change does" replay-desk:1-10 solve-2d:1-3

Exports ``HEAD``, the parent of the uncommitted change, with
``git archive`` into a temporary directory, and the change next to it: the
working tree's files that git tracks or would track (``git ls-files -co
--exclude-standard``), so that neither side carries ignored bytecode
caches and both compile every module alike.  It runs each side's own
``perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s ``run_seconds`` on
every workload and seed given, one pair per seed, alternating which side
runs first (the parent on odd seeds).  Workloads run in the order given,
each with its seeds (``W:1-10``, ``W:1,4,7``; ``W`` alone is seeds 1-10).
Each side then makes one ``--trace 1`` run per workload on its first seed.
A run that exits non-zero, takes over 900 s or reports ``correct: false``
stops the series, so every run in an entry is correct.

The runs are appended as one entry to the ``entries`` list of ``--bench``,
in the schema of the existing entries: per workload and end-to-end metric
of ``BENCHMARK.json``, each side's runs, median and quartiles
(``statistics.quantiles(n=4)``, as in ``perfbench/prove.py``), the pairs
the change wins (reads better, ties counting for neither) and the
relative change of the medians; then the seeds, which side ran first,
and the operations attempted and failed; then the nonzero metrics of the
traced runs.  At the end it prints, per workload, every end-to-end
metric's parent and change medians and the pairs the change wins.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(commit: str, dest: Path):
    """The committed tree of ``commit``, as ``git archive`` writes it."""
    tar = subprocess.run(["git", "archive", commit], cwd=REPO, check=True,
                         capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def _export_tree(dest: Path):
    """The working tree's tracked and untracked files that are not ignored,
    copied as they are (one deleted but still tracked is skipped)."""
    names = _git("ls-files", "-co", "--exclude-standard", "-z")
    for name in names.split("\0"):
        if name and (REPO / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(REPO / name, dest / name)


def _seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _run(root: Path, workload: str, seed: int, seconds: float,
         trace: int) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {root} failed:\n"
                 f"{done.stderr.strip()[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {root} is incorrect:\n"
                 f"{done.stderr.strip()[-2000:]}")
    return result


def _stats(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            "runs": runs}


def _compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    out = {"parent": _stats(parent), "change": _stats(change),
           "change_wins": wins, "pairs": len(parent)}
    out["median_change"] = (out["change"]["median"]
                            / out["parent"]["median"] - 1.0)
    return out


def _pairs(sides: dict, workload: str, seeds: list[int], seconds: float,
           metrics: list[dict]) -> dict:
    runs = {side: [] for side in sides}
    first = []
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        first.append(order[0])
        for side in order:
            res = _run(sides[side], workload, seed, seconds, 0)
            runs[side].append(res)
            print(f"{workload} seed {seed} {side}: " + ", ".join(
                f"{m['name']} {res['metrics'][m['name']]['value']:.4g}"
                for m in metrics), file=sys.stderr, flush=True)
    out = {m["name"]: _compare(
        [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
        [r["metrics"][m["name"]]["value"] for r in runs["change"]],
        m["better"]) for m in metrics}
    out["seeds"] = seeds
    out["first"] = first
    for key in ("attempted", "failed"):
        out[key] = {side: sum(r[key] for r in runs[side]) for side in sides}
    return out


def _traced(sides: dict, workload: str, seed: int, seconds: float) -> dict:
    out = {}
    for side, root in sides.items():
        res = _run(root, workload, seed, seconds, 1)
        out[side] = {k: v["value"] for k, v in res["metrics"].items()
                     if v["value"]}
    return out


def _machine() -> dict:
    import numpy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "blas_threads": 1,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="+", metavar="WORKLOAD[:SEEDS]")
    ap.add_argument("--bench", required=True,
                    help="the BENCH_*.json file to append the entry to")
    ap.add_argument("--change", required=True,
                    help="what the change does, for the entry")
    ap.add_argument("--claim", help="the gain the change claims, if any")
    args = ap.parse_args(argv)

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    specs = [(name, seeds or "1-10") for name, _, seeds in
             (spec.partition(":") for spec in args.runs)]
    plan = [(name, _seeds(seeds)) for name, seeds in specs]
    if any(len(seeds) < 2 for _, seeds in plan):
        ap.error("quartiles need two or more seeds per workload")
    path = Path(args.bench)
    doc = (json.loads(path.read_text()) if path.exists() else
           {"topic": args.change, "machine": _machine(), "entries": []})
    parent = _git("rev-parse", "--short", "HEAD")
    seconds = bench["run_seconds"]

    entry = {"change": args.change, "parent_commit": parent}
    if args.claim:
        entry["claim"] = args.claim
    entry["method"] = (
        f"python3 tools/bench_pairs.py: python3 perfbench/run.py --workload W "
        f"--seed K --seconds {seconds:g} --trace 0, the parent from git "
        f"archive of {parent} with its own perfbench/, the change from a copy "
        f"of the working tree's files (git ls-files -co --exclude-standard), "
        f"neither with bytecode caches, alternating which side runs first "
        f"(parent first on odd seeds); " + ", then ".join(
            f"seeds {seeds} on {name}" for name, seeds in specs) +
        ". Values are the runs' metrics in reference seconds (hostcal.py) "
        "and MB. Quartiles are statistics.quantiles(n=4), as in prove.py. "
        "change_wins counts the pairs in which the change reads better. "
        "Every run reported correct: true (the series stops on any that "
        "does not). Traced: one --trace 1 run per side and workload on its "
        "first seed; only the nonzero metrics are kept.")
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        _export("HEAD", sides["parent"])
        _export_tree(sides["change"])
        for name, seeds in plan:
            entry[name] = _pairs(sides, name, seeds, seconds, metrics)
        entry["traced"] = {name: _traced(sides, name, seeds[0], seconds)
                           for name, seeds in plan}
    doc["entries"].append(entry)
    path.write_text(json.dumps(doc, indent=1, ensure_ascii=False))
    for name, _ in plan:
        print(f"{name}:")
        for m in metrics:
            t = entry[name][m["name"]]
            print(f"  {m['name']} {t['parent']['median']:.4g} -> "
                  f"{t['change']['median']:.4g} {m['unit']}, change wins "
                  f"{t['change_wins']}/{t['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
