import json
import os
from pathlib import Path

import numpy as np
import pytest

from nldp.cli import main
from nldp.config import build_problem, build_solve_config, load_config
from nldp.grid import growth_exterior
from nldp.params import (checkerboard_coefficient, holder_coefficient,
                         scaled_kernel)


@pytest.fixture
def desk_config(tmp_path):
    cfg = {
        "seed": 42,
        "problem": {
            "s": 0.6, "t": 0.5, "p": 2.0, "q": 2.2,
            "coefficient": {"type": "indicator-of-halfspace", "M": 1.0},
            "f": {"type": "gaussian", "amplitude": 0.002},
        },
        "solve": {"N": 97, "residual_tol": 1e-7},
        "eval": {"points": [0.0, 0.5]},
    }
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(cfg))
    return str(path), str(tmp_path / "out")


def test_validate_ok(desk_config):
    path, out = desk_config
    assert main(["validate", "--config", path, "--out", out]) == 0
    with open(os.path.join(out, "validate.json")) as fh:
        rep = json.load(fh)
    assert rep["ok"] is True
    assert "config_sha256" in rep and "toolkit_version" in rep


def test_validate_reports_violations(desk_config):
    path, out = desk_config
    rc = main(["validate", "--config", path, "--set", "problem.q=3.0",
               "--out", out])
    assert rc == 0  # violations are data, not failures
    with open(os.path.join(out, "validate.json")) as fh:
        rep = json.load(fh)
    assert rep["ok"] is False and rep["violations"]


def test_eval_inside_and_outside_margin(desk_config):
    path, out = desk_config
    assert main(["eval", "--config", path, "--out", out]) == 0
    rc = main(["eval", "--config", path, "--set", "eval.points=[1.999]",
               "--out", out])
    assert rc == 1
    with open(os.path.join(out, "error.json")) as fh:
        err = json.load(fh)
    assert err["kind"] == "config"


def test_eval_2d_points(desk_config):
    # In 2-D a point is an [x, y] pair, written to eval.json as given.  At
    # N = 9, L u(0, 0) is 0.4998 against f = 0.5.
    path, out = desk_config
    two_d = ["--set", "problem.n=2", "--set", "solve.N=9",
             "--set", "solve.R=1", "--set", "problem.f.type=constant",
             "--set", "problem.f.value=0.5"]
    assert main(["eval", "--config", path, *two_d,
                 "--set", "eval.points=[[0.0,0.0]]", "--out", out]) == 0
    with open(os.path.join(out, "eval.json")) as fh:
        (row,) = json.load(fh)["points"]
    assert row["x"] == [0.0, 0.0]
    assert abs(row["value"] - 0.5) < 1e-3


@pytest.mark.parametrize("dims, points", [
    (["--set", "problem.n=2"], "[0.0]"),
    (["--set", "problem.n=2"], "[[0.0]]"),
    ([], "[[0.0,0.0]]"),
    ([], "[NaN]"),
    ([], "0.0")],
    ids=["2d-scalar", "2d-short", "1d-pair", "1d-nan", "not-a-list"])
def test_eval_point_shape_rejected(desk_config, dims, points):
    # A point of the wrong shape for the dimension, or not finite, is a
    # config error.
    path, out = desk_config
    assert main(["eval", "--config", path, *dims,
                 "--set", f"eval.points={points}", "--out", out]) == 1
    with open(os.path.join(out, "error.json")) as fh:
        assert json.load(fh)["kind"] == "config"


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["validate", "--config", str(bad),
                 "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("command, items", [
    ("solve", ["solve.residual_tol=NaN"]), ("solve", ["quadrature.tol=NaN"]),
    ("constants", ["constants.epsilon=NaN"]), ("solve", ["solve.R=-1"]),
    ("solve", ["problem.c_hat=NaN"]), ("solve", ["problem.coefficient.M=NaN"]),
    ("solve", ["problem.Lambda=NaN", "problem.kernel.type=scaled"]),
    ("solve", ["solve.max_iters=0"]), ("solve", ["solve.max_iters=-3"]),
    ("solve", ["solve.max_iters=1.5"]), ("solve", ["solve.max_iters=true"]),
    ("solve", ["solve.N=129.5"]), ("solve", ["solve.N=257.0"]),
    ("pipeline", ["reglab.levels=4.9"]), ("pipeline", ["reglab.levels=0"]),
    ("validate", ["problem.n=1.9"]), ("validate", ["problem.n=true"])],
    ids=["residual-tol-nan", "quadrature-tol-nan", "epsilon-nan", "R-negative",
         "c-hat-nan", "M-nan", "Lambda-nan", "max-iters-zero",
         "max-iters-negative", "max-iters-float", "max-iters-bool",
         "N-fraction", "N-float", "levels-float", "levels-zero",
         "n-fraction", "n-bool"])
def test_nan_or_negative_setting_rejected(desk_config, command, items):
    # A NaN fails every comparison, so each positivity check is written to
    # reject it, and an integer setting is a JSON integer in its range, not
    # a float or a bool truncated on the way in: the command exits 1 with a
    # config error before any work.
    path, out = desk_config
    sets = [arg for item in items for arg in ("--set", item)]
    assert main([command, "--config", path, *sets, "--out", out]) == 1
    with open(os.path.join(out, "error.json")) as fh:
        assert json.load(fh)["kind"] == "config"


@pytest.mark.parametrize("item", [
    "problem.f.amplitdue=0.5", "problem.f.sup=1.0",
    "problem.kernel.radii=[0.5]", "problem.coefficient.values=[1.0]",
    "solve.exterior.amp=3.0", "problem.f=0.5", "quadrature=5",
    "seed=-1", "seed=1.5", 'seed="7"', "seed=true"],
    ids=["f-typo", "f-sup", "kernel-radii", "coefficient-values",
         "exterior-amp", "f-not-object", "section-not-object",
         "seed-negative", "seed-float", "seed-string", "seed-bool"])
def test_object_typo_or_bad_seed_rejected(desk_config, item):
    # The kernel, coefficient, f and exterior objects take the keys their
    # builders read and no other, so a typo there fails like one elsewhere,
    # and each object of the schema stays an object rather than reaching a
    # builder as a number; the seed is a non-negative integer.
    path, out = desk_config
    assert main(["validate", "--config", path, "--set", item,
                 "--out", out]) == 1
    with open(os.path.join(out, "error.json")) as fh:
        assert json.load(fh)["kind"] == "config"


_XS = np.linspace(-1.9, 1.9, 17)
_YS = np.linspace(0.05, 1.0, 17)


@pytest.mark.parametrize("sets, built, direct", [
    (["problem.coefficient.type=checkerboard",
      "problem.coefficient.cell=0.25"],
     lambda P, sc: P.a, checkerboard_coefficient(1, 1.0, cell=0.25)),
    (["problem.coefficient.type=holder", "problem.coefficient.alpha=0.3"],
     lambda P, sc: P.a, holder_coefficient(1, 1.0, alpha=0.3)),
    (["problem.kernel.type=scaled", "problem.Lambda=2.0"],
     lambda P, sc: P.Ktq, scaled_kernel(1, 0.5, 2.2, 2.0))],
    ids=["checkerboard", "holder", "scaled"])
def test_config_builds_each_field_type(sets, built, direct):
    cfg = load_config(None, sets)
    got = built(build_problem(cfg), build_solve_config(cfg))
    assert got.tag == direct.tag
    np.testing.assert_array_equal(got.eval(_XS, _YS), direct.eval(_XS, _YS))


def test_config_builds_the_growth_exterior():
    cfg = load_config(None, ["solve.exterior.tag=growth",
                             "solve.exterior.eta=0.1"])
    ext = build_solve_config(cfg).exterior
    assert ext == growth_exterior(0.1)
    np.testing.assert_array_equal(ext(_XS), 2.0 * (2.0 * np.abs(_XS)) ** 0.1
                                  - 1.0)


def test_unknown_key_rejected(desk_config, tmp_path):
    # quadrature.rho_near, quadrature.R_far, solve.tau0, solve.continuation
    # and output_dir are not options: set from --set or from a file, they
    # fail like a typo.  --out is the one place files go, and --set seed=N
    # the one way to set the seed.
    path, out = desk_config
    err = Path(out) / "error.json"

    def rejected(*args):
        err.unlink(missing_ok=True)
        return (main(["validate", *args, "--out", out]) == 1
                and json.loads(err.read_text())["kind"] == "config")

    for item in ("problem.zz=1", "quadrature.rho_near=0.1",
                 "quadrature.R_far=100", "solve.tau0=0.5",
                 "solve.continuation=[[2.0,2.1]]", "output_dir=elsewhere"):
        assert rejected("--config", path, "--set", item)
    old = tmp_path / "old.json"
    for text in ('{"quadrature": {"rho_near": null, "tol": 1e-8}}',
                 '{"solve": {"continuation": null}}', '{"output_dir": "out"}',
                 '{"problem": {"f": {"type": "gaussian", "amplitdue": 1}}}'):
        old.write_text(text)
        assert rejected("--config", str(old))
    with pytest.raises(SystemExit):
        main(["validate", "--seed", "7", "--out", out])


def test_config_error_goes_to_out(tmp_path, monkeypatch):
    # A config that fails to load writes its error.json into --out, not
    # into ./out of the working directory.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "elsewhere"
    assert main(["validate", "--set", "problem.zz=1", "--out", str(out)]) == 1
    assert json.loads((out / "error.json").read_text())["kind"] == "config"
    assert not (tmp_path / "out").exists()


def test_too_small_grid_rejected(desk_config):
    # N = 2 leaves no interior node: a config error with error.json, not a
    # traceback from the operator.
    path, out = desk_config
    assert main(["solve", "--config", path, "--set", "solve.N=2",
                 "--out", out]) == 1
    with open(os.path.join(out, "error.json")) as fh:
        err = json.load(fh)
    assert err["kind"] == "config" and "solve.N" in err["error"]


def test_validate_rejects_what_solve_rejects(desk_config):
    # validate builds the solve settings too, so a config that solve
    # rejects is not reported ok: exit 1, kind config, no validate.json.
    path, out = desk_config
    assert main(["validate", "--config", path, "--set", "solve.N=2",
                 "--out", out]) == 1
    with open(os.path.join(out, "error.json")) as fh:
        err = json.load(fh)
    assert err["kind"] == "config" and "solve.N" in err["error"]
    assert not os.path.exists(os.path.join(out, "validate.json"))


def test_2d_solve_on_three_nodes(tmp_path):
    # N = 3 passes SolveConfig; the axis-by-axis cubic is then a parabola.
    # FITPACK's bicubic needed four nodes per axis and died with a traceback.
    desk = Path(__file__).resolve().parents[1] / "demos/configs/desk.json"
    out = str(tmp_path / "out")
    assert main(["solve", "--config", str(desk), "--set", "problem.n=2",
                 "--set", "solve.N=3", "--set", "solve.R=1.0",
                 "--out", out]) == 0
    with open(os.path.join(out, "solve_report.json")) as fh:
        assert json.load(fh)["flags"] == "converged"


def test_solve_artifacts(desk_config):
    path, out = desk_config
    assert main(["solve", "--config", path, "--out", out]) == 0
    for name in ("solution.csv", "solution.json", "solve_report.json",
                 "residual_history.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "solve_report.json")) as fh:
        rep = json.load(fh)
    assert rep["flags"] == "converged"
    assert 1 <= rep["jacobians"] <= rep["iterations"]
    assert rep["halvings"] >= 0 and 0.0 < rep["algebraic_error"] < 1e-6
    # the grid file's sidecar carries the same algebraic error
    with open(os.path.join(out, "solution.json")) as fh:
        assert json.load(fh)["algebraic_error"] == rep["algebraic_error"]


def test_pipeline_summary_carries_solve_report(desk_config, tmp_path):
    # The solve block of summary.json is the solve report, the seven fields
    # of solve_report.json, from the same solve.
    path, out = desk_config
    two = ["--config", path, "--set", "reglab.levels=2"]
    assert main(["pipeline", *two, "--out", out]) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["levels_passed"] == 2
    solo = str(tmp_path / "solo")
    assert main(["solve", *two, "--out", solo]) == 0
    with open(os.path.join(solo, "solve_report.json")) as fh:
        rep = json.load(fh)
    fields = {"iterations", "final_residual", "flags", "jacobians",
              "halvings", "accelerated", "algebraic_error"}
    assert set(summary["solve"]) == fields
    assert summary["solve"] == {k: rep[k] for k in fields}
    with open(os.path.join(out, "solution.json")) as fh:
        assert (json.load(fh)["algebraic_error"]
                == summary["solve"]["algebraic_error"])


def test_check_inequalities_artifact(desk_config, tmp_path):
    path, out = desk_config
    rc = main(["check-inequalities", "--config", path,
               "--set", "seed=7", "--out", out])
    assert rc == 0
    with open(os.path.join(out, "inequalities.json")) as fh:
        rep = json.load(fh)
    for key in ("difference_bound", "superlinear_bound", "singular_bound"):
        assert rep[key]["violations"] == 0


def test_scaling_subcommand(desk_config):
    path, out = desk_config
    assert main(["scaling-test", "--config", path, "--out", out]) == 0
    with open(os.path.join(out, "scaling.json")) as fh:
        rep = json.load(fh)
    by_ctx = {(c["lambda"], c["mu"]): c["max_rel_discrepancy"]
              for c in rep["checks"]}
    assert by_ctx[(1.0, 1.0)] == 0.0
    assert all(v <= 1e-5 for v in by_ctx.values())


def test_holder_subcommand(desk_config):
    path, out = desk_config
    rc = main(["holder", "--config", path, "--set", "reglab.levels=4",
               "--set", "solve.N=257", "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "oscillation.csv"))
    with open(os.path.join(out, "holder.json")) as fh:
        rep = json.load(fh)
    assert 0.0 < rep["gamma_hat"] <= 1.5


def test_reproducibility_bit_identical(desk_config, tmp_path):
    # Where a run writes is not part of what it computes: two runs of one
    # config into different directories write the same bytes, hash included.
    path, _ = desk_config
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["solve", "--config", path, "--set", "seed=7",
                     "--out", str(out)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert {"solve_report.json", "residual_history.csv", "solution.csv",
            "solution.json"} <= set(names)
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
