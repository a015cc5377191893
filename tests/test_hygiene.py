"""Hygiene of the package: its source, checked with ``ast``, and its imports.

Every name a module imports must be used in its body or re-exported
through its ``__all__``; ``__init__.py`` is skipped, since its imports are
the package's re-exports.  Every module-level private (``_name``) function,
class or constant must be referenced somewhere in the package outside its
own definition.  Every parameter with a default of a module-level private
function or of a private method must be passed, by position or by keyword,
by at least one call in the package: a default that no call overrides is a
knob without a caller, and belongs in the body as the value it always
takes (the tests do not count as callers).  Every default of a public
function or method must be passed by some call in the package, its tests,
demos, tools or benchmark.  Every error type is raised somewhere in the
package.
Importing the package loads no scipy module, and selecting the desk
constants no ``numpy.ma``.  The config defaults list
exactly the fields of the objects they build, and every type or tag the
config builders accept is set by some config or ``--set`` outside the
package.
"""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nldp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name in ("annotations", "*"):
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _defined_name(stmt) -> str:
    """The name a top-level statement defines: a def's or a class's, or the
    single target of an assignment; "" for the others."""
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            return targets[0].id
    return getattr(stmt, "name", "")


def _references(path: Path) -> dict[str, set[str]]:
    """Per top-level statement, keyed by the name it defines ("" for
    statements that define none), the names and attributes referenced
    inside it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    refs: dict[str, set[str]] = {}
    for stmt in tree.body:
        seen = refs.setdefault(_defined_name(stmt), set())
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                seen.update(alias.name for alias in node.names)
    return refs


def _orphans(path: Path, refs, kinds) -> list[str]:
    """The private names that top-level statements of these kinds define in
    the module and that no other statement of the package references."""
    tree = ast.parse(path.read_text(), filename=str(path))
    orphans = []
    for stmt in tree.body:
        name = _defined_name(stmt)
        if (not isinstance(stmt, kinds) or not name.startswith("_")
                or name.startswith("__")):
            continue
        used = any(name in names
                   for p, by_stmt in refs.items()
                   for own, names in by_stmt.items()
                   if not (p == path and own == name))
        if not used:
            orphans.append(f"{path.name}:{stmt.lineno} {name}")
    return orphans


@pytest.fixture(scope="module")
def package_refs():
    return {p: _references(p) for p in SRC.glob("*.py")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_orphan_private_helpers(path, package_refs):
    assert _orphans(path, package_refs, (ast.FunctionDef, ast.ClassDef)) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_orphan_private_constants(path, package_refs):
    assert _orphans(path, package_refs, (ast.Assign, ast.AnnAssign)) == []


def _defs(tree, public: bool):
    """(function, is_method) for the module-level functions and the methods
    of the module's classes whose names are public, or private (``_name``)
    when not ``public``; dunder methods are neither."""
    for stmt in tree.body:
        method = isinstance(stmt, ast.ClassDef)
        for node in (stmt.body if method else [stmt]):
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("__")
                    and node.name.startswith("_") != public):
                yield node, method


def _defaulted(fn, method: bool):
    """(name, position) of each parameter with a default, its position
    counted among the arguments a call passes (a method's call passes no
    self), None for keyword-only."""
    args = fn.args.posonlyargs + fn.args.args
    first = len(args) - len(fn.args.defaults)
    out = [(a.arg, i - int(method)) for i, a in enumerate(args)
           if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                          fn.args.kw_defaults)
            if d is not None]
    return out


def _passes(call: ast.Call, name: str, position) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def _unpassed(public: bool, callers) -> list[str]:
    """The defaults of the package's public or private functions and
    methods that no call in the files ``callers`` passes, matched by the
    called name."""
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    return [f"{path.name}:{fn.lineno} {fn.name}({arg})"
            for path, tree in trees.items()
            for fn, method in _defs(tree, public)
            for arg, position in _defaulted(fn, method)
            if not any(_passes(c, arg, position)
                       for c in calls.get(fn.name, []))]


def test_every_default_is_passed_by_some_call():
    assert _unpassed(False, sorted(SRC.glob("*.py"))) == []


def test_every_public_default_is_passed_by_some_call():
    # A public default may be passed from outside the package: by the tests,
    # the demos, the tools or the benchmark.
    callers = sorted(p for d in ("src", "tests", "demos", "tools", "perfbench")
                     for p in (ROOT / d).rglob("*.py"))
    assert _unpassed(True, callers) == []


def _raised_names(path: Path) -> set[str]:
    """Names of the exceptions a module raises, called or bare, by name or
    as an attribute (``errors.ConfigError``)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                out.add(exc.attr)
    return out


def test_every_error_type_is_raised():
    # An error type outlives its last raiser unless something checks: each
    # subclass of NldpError must be raised by some module of the package.
    tree = ast.parse((SRC / "errors.py").read_text())
    types = [c.name for c in tree.body if isinstance(c, ast.ClassDef)
             and c.name != "NldpError"]
    assert types
    raised = set().union(*(_raised_names(p) for p in SRC.glob("*.py")))
    assert [t for t in types if t not in raised] == []


def test_package_imports_no_scipy():
    # scipy is a test dependency only: the tests use it as an independent
    # oracle, and importing it would dominate the toolkit's cold start.
    code = ("import sys, nldp, nldp.cli\n"
            + "".join(f"import nldp.{p.stem}\n" for p in MODULES)
            + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "[]", done.stdout


def test_desk_selection_leaves_numpy_ma_unloaded(tmp_path):
    # Under numpy 2.4, np.unique without return_inverse imports numpy.ma,
    # about 1 MB held for the life of every process that integrates.
    desk = ROOT / "demos" / "configs" / "desk.json"
    code = ("import sys\nfrom nldp.cli import main\n"
            f"rc = main(['constants', '--config', {str(desk)!r}, "
            f"'--out', {str(tmp_path)!r}])\n"
            "print(rc, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip().splitlines()[-1] == "0 False", done.stdout


def test_config_sections_match_their_dataclasses():
    # Each option has one list: a config key per field, and no other.
    from nldp.config import _DEFAULTS
    from nldp.quadrature import QuadratureSpec
    from nldp.solver import SolveConfig

    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert set(_DEFAULTS["quadrature"]) == names(QuadratureSpec)
    assert set(_DEFAULTS["solve"]) == names(SolveConfig) - {"quadrature"}


_OBJECT_OF = {"ktype": "problem.kernel.type",
              "ctype": "problem.coefficient.type",
              "ftype": "problem.f.type", "tag": "solve.exterior.tag"}


def _config_branches() -> set[str]:
    """``<object>.<type|tag>=<value>`` for each string that ``build_problem``
    or ``build_exterior`` compares a type or tag against."""
    tree = ast.parse((SRC / "config.py").read_text())
    out = set()
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name in ("build_problem", "build_exterior")):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Compare)
                    and isinstance(node.left, ast.Name)
                    and isinstance(node.comparators[0], ast.Constant)
                    and isinstance(node.comparators[0].value, str)):
                assert node.left.id in _OBJECT_OF, node.left.id
                out.add(f"{_OBJECT_OF[node.left.id]}="
                        f"{node.comparators[0].value}")
    return out


def _config_settings() -> set[str]:
    """The same strings as set by a ``--set`` or by a JSON config (a file, or
    a dict literal a test writes as one) in the tests, demos or benchmark,
    and by the defaults, which every config that names no type takes; the
    golden artifacts are output, not config."""
    from nldp.config import _DEFAULTS
    q = "[\"']"
    setting = {s.split(".")[1]: s for s in _OBJECT_OF.values()}
    out = set()
    for full in setting.values():
        section, name, key = full.split(".")
        out.add(f"{full}={_DEFAULTS[section][name][key]}")
    for d in ("tests", "demos", "perfbench"):
        for path in (ROOT / d).rglob("*"):
            if path.suffix not in (".py", ".json") or "golden" in path.parts:
                continue
            text = path.read_text()
            out.update(m.group(1) for m in re.finditer(
                r"((?:problem\.(?:kernel|coefficient|f)\.type"
                r"|solve\.exterior\.tag)=[\w-]+)", text))
            for m in re.finditer(
                    rf"{q}(kernel|coefficient|f|exterior){q}:\s*\{{[^{{}}]*?"
                    rf"{q}(?:type|tag){q}:\s*{q}([\w-]+){q}", text):
                out.add(f"{setting[m.group(1)]}={m.group(2)}")
    return out


def test_every_config_branch_has_a_caller():
    # A type or tag that no run sets is an input without a caller.
    branches = _config_branches()
    assert len(branches) >= 10
    assert sorted(branches - _config_settings()) == []
