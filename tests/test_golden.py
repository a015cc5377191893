"""The desk artifacts, byte for byte.

Every subcommand runs on ``demos/configs/desk.json`` and must write exactly
the files under ``tests/golden/desk/``; ``solve`` on desk.json in 2-D (N =
9 on [-1, 1]^2) must write those under ``tests/golden/desk2d/``.  All nine
run in one child process pinned to one BLAS thread (``golden.run_pinned``),
so the bits do not depend on this process's thread setting.  A change that
moves a bit on purpose rewrites them with ``python3 tools/golden.py`` and
states the moves that tool prints.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden",
                                               ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, golden.run_pinned(root)


def _assert_golden(root, where, commands):
    # Bits depend on the numpy and BLAS build and the thread setting: a
    # mismatch first says whether the child's differ from those that wrote
    # the golden files.
    old = golden.artifacts(where, commands)
    new = golden.artifacts(root / where.name, commands)
    assert old, "no golden files; write them with tools/golden.py"
    if set(old) == set(new) and all(
            old[k].read_bytes() == new[k].read_bytes() for k in old):
        return
    recorded = json.loads((golden.GOLDEN / "environment.json").read_text())
    child = json.loads((root / "environment.json").read_text())
    pytest.fail(f"{where.name} artifacts differ from tests/golden/"
                f"{where.name} (" + golden.environment_note(recorded, child)
                + "); largest relative moves:\n"
                + "\n".join(golden.moves(old, new)))


def test_every_subcommand_exits_0(pinned_run):
    _, codes = pinned_run
    assert codes["desk"] == {c: 0 for c in golden.COMMANDS}


def test_artifacts_match_the_golden_files(pinned_run):
    _assert_golden(pinned_run[0], golden.GOLDEN, golden.COMMANDS)


def test_2d_solve_exits_0(pinned_run):
    _, codes = pinned_run
    assert codes["desk2d"] == {"solve": 0}


def test_2d_solve_matches_the_golden_files(pinned_run):
    # The 2-D plan's bits (its in-box entries, exterior groups and near
    # block) reach the solution, its residual history and the report.
    _assert_golden(pinned_run[0], golden.GOLDEN_2D, golden.COMMANDS_2D)


def test_the_runs_pin_one_thread(pinned_run):
    # The child's thread setting is the pin, whatever this process's is,
    # and the golden files were written under it.
    child = json.loads((pinned_run[0] / "environment.json").read_text())
    recorded = json.loads((golden.GOLDEN / "environment.json").read_text())
    for key, value in golden.PINNED.items():
        assert child[key] == recorded[key] == value


@pytest.mark.parametrize("key", golden.THREAD_VARIABLES + ("cpu_count",))
def test_environment_note_names_the_threads(key):
    # A record that differs from this process only in the thread setting
    # says so, and names nothing else.
    here = golden.environment()
    assert golden.environment_note(here) == (
        "numpy, BLAS and the thread setting are as recorded")
    recorded = dict(here, **{key: 3 if here[key] == 2 else 2})
    note = golden.environment_note(recorded)
    assert note == f"{key} {here[key]!r} here, {recorded[key]!r} recorded"
