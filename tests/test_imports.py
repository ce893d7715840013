"""Every name a module of the package imports is used in that module, and
each command loads only the modules it reads."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quasilie"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        (1, "os"), (2, "b")]


# -- what each command loads --------------------------------------------------

def imported_modules(source, top_level_only=False):
    """The modules a source imports, by full name; a relative import
    `from . import x` or `from .x import y` names quasilie.x."""
    tree = ast.parse(source)
    out = set()
    for node in tree.body if top_level_only else ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(f"quasilie.{node.module}")
            else:
                out.update(f"quasilie.{alias.name}" for alias in node.names)
    return out


def test_the_import_scan_tells_top_level_from_deferred():
    source = ("import csv\nfrom collections import namedtuple\n"
              "from .eta import x\nfrom . import lie, trees\n"
              "def f():\n    from . import quadratic\n    import random\n")
    assert imported_modules(source, top_level_only=True) == {
        "csv", "collections", "quasilie.eta", "quasilie.lie",
        "quasilie.trees"}
    assert imported_modules(source) - imported_modules(
        source, top_level_only=True) == {"quasilie.quadratic", "random"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_typing(path):
    # dataclasses loads inspect; a cold run would compile and run both
    assert not imported_modules(path.read_text()) & {"dataclasses", "typing"}


@pytest.mark.parametrize("name", ["cli", "quadratic"])
def test_eta_and_quadratic_load_only_in_their_readers(name):
    top = imported_modules((SRC / f"{name}.py").read_text(),
                           top_level_only=True)
    assert not top & {"quasilie.eta", "quasilie.quadratic"}


_LOADED = """
import io, json, sys
from contextlib import redirect_stdout
from quasilie import cli
with redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(sys.modules)]))
"""
_GROUP_SKIPS = {"quasilie.eta", "quasilie.quadratic", "dataclasses",
                "inspect", "typing", "random", "csv"}


def loaded_by(*argv):
    """The exit code of `quasilie ARGV` run in a fresh interpreter with no
    site module, and every module loaded by its end."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", _LOADED, *argv],
                         env=env, capture_output=True, text=True, check=True)
    rc, modules = json.loads(out.stdout)
    return rc, set(modules)


# each command: the modules it must load, and those it must not
COMMANDS = {
    "group L --order 3 --labels 2": ({"quasilie.lie"}, _GROUP_SKIPS),
    "group Lq --order 3 --labels 2": ({"quasilie.lie"}, _GROUP_SKIPS),
    "group T --order 2 --labels 2": ({"quasilie.treegroups"}, _GROUP_SKIPS),
    "verify all --max-order 1 --labels 1": (
        {"quasilie.eta"}, {"quasilie.quadratic", "dataclasses"}),
    "quadratic bridge --order 2 --labels 1": (
        {"quasilie.quadratic"}, {"quasilie.eta"}),
}


@pytest.mark.parametrize("argv", COMMANDS)
def test_each_command_loads_only_what_it_reads(argv):
    needs, skips = COMMANDS[argv]
    rc, modules = loaded_by(*argv.split())
    assert rc == 0
    assert needs <= modules
    assert not modules & skips
