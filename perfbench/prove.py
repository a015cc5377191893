"""Run-to-run spread and count repeatability of the benchmark.

    python3 perfbench/prove.py --seeds 1-10 --seconds 14 [--workloads a,b] [--out runs.json]
    python3 perfbench/prove.py --counts --seconds 14 [--workloads a,b]
    python3 perfbench/prove.py --compare first.json second.json

The first form runs every workload once per seed (``--trace 0``) and prints,
for each end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median next to the bound in BENCHMARK.json; it fails if any
spread, ``setup_s`` included, is over its bound.  The second runs
``--trace 1`` twice with one seed and checks that every count metric
repeats exactly.  The third reads two ``--out`` files of the first form,
made on the same code, and prints every workload and metric whose median
moved by more than its bound between them as ``unresolved``: at that bound
the benchmark cannot tell a change of the code from one of the host there,
and it fails if any did.  Runs are sequential, from the root of the
checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_once(command: list, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{done.stderr}")
    return result


def compare(bench: dict, first: dict, second: dict) -> bool:
    """Median of each end-to-end metric in ``second`` against ``first``."""
    ok = True
    for name in first:
        print(f"{name}:")
        for m in bench["end_to_end"]:
            a, b = (statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in runs)
                    for runs in (first[name], second[name]))
            change = b / a - 1.0
            resolved = abs(change) <= m["bound"]
            ok &= resolved
            print(f"    {m['name']:20s} {a:.4g} -> {b:.4g}  "
                  f"change {change:+.3f}  bound {m['bound']}  "
                  f"{'ok' if resolved else 'unresolved'}")
    return ok


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--counts", action="store_true")
    ap.add_argument("--out", default=None, help="write every result here")
    ap.add_argument("--compare", nargs=2, metavar="OUT",
                    help="compare the medians of two --out files")
    args = ap.parse_args()
    if args.compare:
        first, second = (json.loads(Path(f).read_text())
                         for f in args.compare)
        return 0 if compare(bench, first, second) else 1
    names = args.workloads.split(",")
    record: dict = {}
    ok = True

    if args.counts:
        seed = _seeds(args.seeds)[0]
        for name in names:
            a, b = (run_once(bench["command"], name, seed, args.seconds, 1)
                    for _ in range(2))
            counts = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"])
                      for k in a["metrics"]
                      if a["metrics"][k]["unit"] == "count"}
            differ = {k: v for k, v in counts.items() if v[0] != v[1]}
            ok &= not differ
            record[name] = [a, b]
            print(f"{name}: {'counts repeat' if not differ else differ}")
            for k, (v, _) in counts.items():
                if v:
                    print(f"    {k} {v}")
    else:
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        for name in names:
            runs = [run_once(bench["command"], name, s, args.seconds, 0)
                    for s in _seeds(args.seeds)]
            record[name] = runs
            print(f"{name}: {len(runs)} runs, "
                  f"{sum(r['attempted'] for r in runs)} operations")
            for metric, bound in bounds.items():
                vals = [r["metrics"][metric]["value"] for r in runs]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                flag = "ok" if spread < bound / 3.0 else \
                    "WIDE" if spread > bound else "over a third"
                ok &= spread <= bound
                print(f"    {metric:20s} median {med:.4g}  q1 {q1:.4g}  "
                      f"q3 {q3:.4g}  spread {spread:.3f}  bound {bound}  "
                      f"{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
