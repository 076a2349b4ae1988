"""Start-up: ``import texcas`` loads only the lexicon, every other public name
is imported on first access, and each subcommand loads only its stages.

The import sets are read from ``sys.modules`` in fresh interpreters, since
this process has long since imported every module."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import texcas
from texcas import backward, cli, corpus, evaluator, forward, inert, lexicon, scanner, verify
from texcas.lexicon import seed_path

SRC = str(Path(texcas.__file__).resolve().parent.parent)

# each public name and the module it comes from
HOME = {
    "MAPLE": lexicon, "MATHEMATICA": lexicon, "Lexicon": lexicon,
    "backward_string": backward, "check_equivalence": verify,
    "compile_lexicon": lexicon, "load_default": lexicon,
    "parse_maple": inert, "preprocess": inert, "round_trip": verify,
    "scan": scanner, "serialize": scanner, "simplify_light": verify,
    "translate_backward": backward, "translate_forward": forward,
    "translate_string": forward,
}


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports texcas from this
    checkout; return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


# The CLI run as ``python -m texcas.cli`` would, then the texcas modules
# loaded, as the last line of stdout.
CLI_PROBE = """
import json, runpy, sys
sys.argv = ["texcas", *json.loads(sys.argv[1])]
code = 0
try:
    runpy.run_module("texcas.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def cli_modules(*argv):
    """Every module loaded by a run of ``texcas argv``, which must succeed."""
    code, modules = json.loads(run_fresh(CLI_PROBE, json.dumps(argv)).splitlines()[-1])
    assert code == 0
    return set(modules)


# --- the lazy package API -----------------------------------------------------

def test_all_is_the_public_names():
    assert sorted(texcas.__all__) == sorted([*HOME, "__version__"])


@pytest.mark.parametrize("name", sorted(HOME))
def test_each_name_is_its_home_modules_object(name):
    assert getattr(texcas, name) is getattr(HOME[name], name)


def test_dir_lists_every_public_name():
    assert set(texcas.__all__) <= set(dir(texcas))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        texcas.no_such_name  # noqa: B018
    assert not hasattr(texcas, "no_such_name")


def test_star_import_in_a_fresh_interpreter():
    out = run_fresh("from texcas import *\n"
                    "print(round_trip.__module__, translate_string.__module__, __version__)")
    assert out.split() == ["texcas.verify", "texcas.forward", texcas.__version__]


def test_submodule_import_in_a_fresh_interpreter():
    out = run_fresh("from texcas import cli, forward, verify\n"
                    "print(cli.__name__, forward.__name__, verify.__name__)")
    assert out.split() == ["texcas.cli", "texcas.forward", "texcas.verify"]


def test_bindings_read_through_cli_and_verify_resolve():
    assert cli.CorpusRecord is corpus.CorpusRecord
    assert cli.read_corpus is corpus.read_corpus
    assert cli.run_corpus is corpus.run_corpus
    assert cli.translate_string is forward.translate_string
    assert verify.evaluate is evaluator.evaluate
    assert verify.translate_string is forward.translate_string
    assert verify.backward_string is backward.backward_string
    with pytest.raises(AttributeError):
        cli.no_such_name  # noqa: B018


# --- the import set of each entry point ----------------------------------------

def test_import_texcas_loads_only_the_lexicon():
    out = run_fresh("import sys, texcas\n"
                    "texcas.load_default()\n"
                    "print(*sorted(m for m in sys.modules if m.startswith('texcas')))")
    assert out.split() == ["texcas", "texcas.errors", "texcas.lexicon"]


NOT_FORWARD = {"texcas.inert", "texcas.backward", "texcas.verify",
               "texcas.evaluator", "texcas.corpus"}
NOT_MAPLE_SIDE = {"texcas.verify", "texcas.evaluator", "texcas.corpus"}


@pytest.mark.parametrize("argv", [
    ["translate", "--", r"\sin@{z}"],
    ["translate", "--dialect", "mathematica", "--", r"\sin@@{z}"],
])
def test_translate_loads_no_later_stage(argv):
    assert not cli_modules(*argv) & NOT_FORWARD


@pytest.mark.parametrize("argv", [
    ["translate", "--backward", "--", "sin(x)^2/3"],
    ["inert", "--preprocess", "--", "sin(x)^2/3"],
])
def test_the_maple_side_loads_no_checker(argv):
    modules = cli_modules(*argv)
    assert "texcas.inert" in modules
    assert not modules & NOT_MAPLE_SIDE


# Standard-library modules no entry point may load: records are slotted
# classes, and ``dataclasses`` alone would bring in ``inspect``, ``ast``,
# ``dis`` and ``tokenize`` on every start.
HEAVY = {"dataclasses", "inspect"}


@pytest.fixture(scope="module")
def heavy_unless_bare():
    """The heavy modules that a bare interpreter does not load already."""
    return HEAVY - set(run_fresh("import sys; print(*sys.modules)").split())


def test_import_texcas_loads_no_heavy_module(heavy_unless_bare):
    out = run_fresh("import sys, texcas\n"
                    "texcas.load_default()\n"
                    "print(*sys.modules)")
    assert not set(out.split()) & heavy_unless_bare


@pytest.mark.parametrize("argv", [
    ["translate", "--", r"\sin@{z}"],
    ["translate", "--backward", "--", "sin(x)^2/3"],
    ["inert", "--", "sin(x)^2/3"],
    ["roundtrip", "--", r"\sin@{z}"],
    ["corpus", str(seed_path("seed_corpus.tsv"))],
    ["compile-lexicon", "--out", os.devnull],
], ids=["translate", "translate-backward", "inert", "roundtrip", "corpus",
        "compile-lexicon"])
def test_no_subcommand_loads_a_heavy_module(argv, heavy_unless_bare):
    assert not cli_modules(*argv) & heavy_unless_bare


# --- unused imports --------------------------------------------------------------

def unused_imports(source: str, exported) -> list:
    """(line, name) for each name bound by a module-level import that the
    module never reads, that ``exported`` (its ``__all__``) does not list and
    whose import statement carries no ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__" \
                or not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line
               for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in read and bound not in exported:
                found.append((stmt.lineno, bound))
    return found


@pytest.mark.parametrize("path", sorted(Path(texcas.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_module_import_is_read(path):
    name = "texcas" if path.stem == "__init__" else f"texcas.{path.stem}"
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert unused_imports(path.read_text(encoding="utf-8"), exported) == []


def test_guard_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from operator import itemgetter\n"
              "from math import (pi,\n"
              "                  tau)  # noqa: F401\n"
              "from json import dumps, loads as read_json\n"
              "__all__ = ['dumps']\n"
              "x = os.path.join\n")
    assert unused_imports(source, ["dumps"]) == [(3, "itemgetter"),
                                                 (6, "read_json")]


# --- scan trees ------------------------------------------------------------------

def scan_node_calls(source: str) -> list:
    """(line, name) for each call of ``MathTerm`` or ``PomTree``, by bare or
    dotted name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if called in ("MathTerm", "PomTree"):
                found.append((node.lineno, called))
    return found


@pytest.mark.parametrize("path", sorted(Path(texcas.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_scanner_builds_scan_trees(path):
    calls = scan_node_calls(path.read_text(encoding="utf-8"))
    assert bool(calls) == (path.name == "scanner.py"), calls


def test_guard_sees_scan_tree_calls():
    source = ("from texcas import scanner\n"
              "from texcas.scanner import MathTerm, PomTree\n"
              "leaf = MathTerm('x', None)\n"
              "tree = scanner.PomTree(children=[leaf])\n"
              "kind = PomTree.is_leaf\n")
    assert sorted(scan_node_calls(source)) == [(3, "MathTerm"), (4, "PomTree")]
