"""Golden desk artifacts: rewrite them and print how far they moved.

    python3 tools/golden.py

Runs the eight ``nldp`` subcommands on ``demos/configs/desk.json``, each
into a fresh directory, and replaces ``tests/golden/desk/`` with what they
wrote: ``<command>/<artifact>`` per subcommand.  Likewise ``solve`` on
desk.json in 2-D (``DESK_2D``: N = 9 on [-1, 1]^2, the grid of perfbench's
solve-2d) replaces ``tests/golden/desk2d/``.  All nine run in one child
process with ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1`` set
before numpy loads (``PINNED``): the bits depend on the thread count, as
``np.linalg.inv`` rounds differently on one and on two OpenBLAS threads,
so the pin makes them the same whatever the caller's setting.
``tests/golden/desk/environment.json`` records the child's numpy version,
BLAS build and thread setting.  Then prints, per artifact, every JSON key
and CSV column whose value moved, with the largest relative move
``|new - old| / max(|new|, |old|)`` over its entries; a key that is not a
number reads ``changed``, and a key or file that appears or goes away
reads ``added`` or ``removed``.  ``tests/test_golden.py`` runs the same
child and compares what it writes with these files byte for byte, and
prints the same listing on a mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DESK = REPO / "demos" / "configs" / "desk.json"
GOLDEN = REPO / "tests" / "golden" / "desk"
COMMANDS = ("validate", "eval", "constants", "scaling-test",
            "check-inequalities", "solve", "holder", "pipeline")
GOLDEN_2D = REPO / "tests" / "golden" / "desk2d"
COMMANDS_2D = ("solve",)
DESK_2D = ("problem.n=2", "solve.N=9", "solve.R=1.0")


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
PINNED = {v: "1" for v in THREAD_VARIABLES}


def environment() -> dict:
    """The numpy version, BLAS build and thread setting of this process:
    the thread variables (their value, or "unset") and the CPU count."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            **{v: os.environ.get(v, "unset") for v in THREAD_VARIABLES},
            "cpu_count": os.cpu_count()}


def run_desk(root: Path, commands=COMMANDS, sets=()) -> dict[str, int]:
    """Run the subcommands on desk.json, with the ``--set`` overrides
    ``sets``, into ``root/<command>`` and return the exit codes."""
    from nldp.cli import main
    extra = [a for kv in sets for a in ("--set", kv)]
    codes = {}
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            codes[command] = main([command, "--config", str(DESK),
                                   "--out", str(root / command)] + extra)
    return codes


def run_pinned(root: Path) -> dict[str, dict[str, int]]:
    """Every run of ``RUNS`` in one child process with the ``PINNED``
    thread setting, into ``root/<golden directory name>``; returns their
    exit codes by that name.  The child writes its ``environment()`` to
    ``root/environment.json``."""
    code = (f"import sys; sys.path[:0] = [{str(REPO / 'tools')!r}, "
            f"{str(REPO / 'src')!r}]\n"
            f"import golden; golden.run_all(golden.Path({str(root)!r}))")
    done = subprocess.run([sys.executable, "-c", code], timeout=900,
                          env=dict(os.environ, **PINNED), capture_output=True,
                          text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"golden runs failed:\n{done.stderr[-2000:]}")
    return json.loads((root / "codes.json").read_text())


def run_all(root: Path):
    """``run_pinned``'s child: the runs, their exit codes and the
    environment."""
    codes = {golden.name: run_desk(root / golden.name, commands, sets)
             for golden, commands, sets in RUNS}
    (root / "codes.json").write_text(json.dumps(codes))
    (root / "environment.json").write_text(
        json.dumps(environment(), indent=2, sort_keys=True) + "\n")


def artifacts(root: Path, commands=COMMANDS) -> dict[str, Path]:
    """The artifacts of one desk run, or the golden files, by
    ``<command>/<name>``."""
    return {f"{c}/{p.name}": p for c in commands
            for p in sorted((root / c).glob("*"))}


def _flat_json(obj, key="") -> dict[str, list]:
    """Leaf values by dotted key; list entries share their list's key."""
    out: dict[str, list] = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            for kk, vv in _flat_json(v, f"{key}.{k}" if key else k).items():
                out.setdefault(kk, []).extend(vv)
    elif isinstance(obj, list):
        for v in obj:
            for kk, vv in _flat_json(v, key + "[]").items():
                out.setdefault(kk, []).extend(vv)
    else:
        out[key] = [obj]
    return out


def _flat_csv(text: str) -> dict[str, list]:
    """Values by column, and the ``key=value`` pairs of ``#`` lines."""
    out: dict[str, list] = {}
    lines = text.splitlines()
    while lines and lines[0].startswith("#"):
        for pair in lines.pop(0)[1:].split():
            k, _, v = pair.partition("=")
            out["#" + k] = [v]
    header = lines.pop(0).split(",") if lines else []
    for line in lines:
        for k, v in zip(header, line.split(",")):
            out.setdefault(k, []).append(_cell(v))
    return out


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _flat(path: Path) -> dict[str, list]:
    text = path.read_text()
    return _flat_json(json.loads(text)) if path.suffix == ".json" \
        else _flat_csv(text)


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _move(old: list, new: list):
    """The largest relative move between two entry lists, 0.0 for none,
    or "changed" when they differ otherwise than in numbers."""
    if len(old) != len(new):
        return "changed"
    worst = 0.0
    for a, b in zip(old, new):
        if a == b or (_number(a) and _number(b)
                      and math.isnan(a) and math.isnan(b)):
            continue
        if not (_number(a) and _number(b)):
            return "changed"
        worst = max(worst, abs(b - a) / max(abs(a), abs(b)))
    return worst


def moves(old: dict[str, Path], new: dict[str, Path]) -> list[str]:
    """One line per moved key or column, per file that appeared or went
    away, of the artifacts ``new`` against ``old``."""
    lines = []
    for name in sorted(set(old) | set(new)):
        if name not in new or name not in old:
            lines.append(f"{name}: {'removed' if name in old else 'added'}")
            continue
        if old[name].read_bytes() == new[name].read_bytes():
            continue
        a, b = _flat(old[name]), _flat(new[name])
        before = len(lines)
        for key in sorted(set(a) | set(b)):
            if key not in b or key not in a:
                m = "removed" if key in a else "added"
            else:
                m = _move(a[key], b[key])
                if m == 0.0:
                    continue
                if not isinstance(m, str):
                    m = f"{m:.3g}"
            lines.append(f"{name} {key}: {m}")
        if len(lines) == before:
            lines.append(f"{name}: bytes differ, values equal")
    return lines


def environment_note(recorded: dict, here: dict | None = None) -> str:
    """Which of numpy, BLAS and the thread setting of ``here`` (this
    process's by default) differ from the recorded environment, if any."""
    here = here or environment()
    differ = [f"{k} {here[k]!r} here, {recorded.get(k)!r} recorded"
              for k in here if here[k] != recorded.get(k)]
    return ("; ".join(differ) if differ
            else "numpy, BLAS and the thread setting are as recorded")


RUNS = ((GOLDEN, COMMANDS, ()), (GOLDEN_2D, COMMANDS_2D, DESK_2D))


def main() -> int:
    listing = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        codes = run_pinned(root)
        for name, run in codes.items():
            failed = {c: rc for c, rc in run.items() if rc}
            if failed:
                print(f"golden: {name} subcommands failed, nothing "
                      f"written: {failed}", file=sys.stderr)
                return 1
        for golden, commands, _ in RUNS:
            new = artifacts(root / golden.name, commands)
            listing += [f"{golden.name}/{line}" for line in
                        moves(artifacts(golden, commands), new)]
            if golden.exists():
                shutil.rmtree(golden)
            for name, path in new.items():
                (golden / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, golden / name)
        shutil.copyfile(root / "environment.json",
                        GOLDEN / "environment.json")
    print("\n".join(listing) if listing else "no moves")
    return 0


if __name__ == "__main__":
    sys.exit(main())
