"""Which modules load when: public names resolve on first use to their
home module's objects, a bare ``import splittree`` loads no submodule, and
each CLI command loads only the modules it runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splittree
from conftest import REFERENCE_DEPTHS, REFERENCE_K

SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
HOME = {
    "Decision": "solver", "InputError": "errors", "LeafSignature": "signature",
    "LevelSet": "solver", "LimitError": "errors", "MergeRecord": "solver",
    "OracleConfig": "oracle", "SolverConfig": "solver", "SolverStats": "solver",
    "SplitTree": "treebuild", "TreeNode": "treebuild", "ValidationReport": "treebuild",
    "canonicalize": "signature", "child_edge_lengths": "treebuild", "decide": "solver",
    "export_tree": "treebuild", "generate_children_fast": "solver",
    "generate_children_naive": "solver", "is_dominated": "signature",
    "kraft_check": "oracle", "merge_reduce": "signature", "omega": "signature",
    "oracle_enumerate_trees": "oracle", "oracle_recursive": "oracle",
    "parse_tree": "treebuild", "prune_level": "solver", "reconstruct": "treebuild",
    "relabel": "treebuild", "run_oracle": "oracle", "trace_levels": "solver",
    "truncate": "signature", "validate": "treebuild",
}


def test_all_is_the_pinned_names_in_order():
    assert splittree.__all__ == sorted(HOME)
    assert len(splittree.__all__) == 32


@pytest.mark.parametrize("name", sorted(HOME))
def test_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"splittree.{HOME[name]}")
    value = getattr(splittree, name)
    assert value is getattr(home, name)
    assert value.__module__ == home.__name__


def test_submodules_resolve_as_attributes():
    for module in ("cli", "errors", "oracle", "signature", "solver", "treebuild"):
        assert getattr(splittree, module) is importlib.import_module(f"splittree.{module}")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from splittree import *", namespace)
    assert {name: namespace[name] for name in HOME} == {
        name: getattr(importlib.import_module(f"splittree.{home}"), name)
        for name, home in HOME.items()}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        splittree.no_such_name
    assert not hasattr(splittree, "_run_levels")


def _fresh(script: str) -> str:
    """The last line ``script`` writes to stderr in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script], env=SRC_ENV, capture_output=True,
                          text=True, timeout=60, check=False)
    return proc.stderr.splitlines()[-1]


LOADED = "*sorted(m for m in sys.modules if m.partition('.')[0] == 'splittree'), file=sys.stderr"


def test_bare_import_loads_no_submodule():
    assert _fresh(f"import sys, splittree\nprint({LOADED})\n") == "splittree"


LOADED_BY_EVERY_COMMAND = {"splittree", "splittree.cli", "splittree.errors",
                           "splittree.signature", "splittree.solver"}


@pytest.mark.parametrize("argv,extra,uses_json", [
    (["decide"], set(), False),
    (["decide", "--format", "json"], set(), True),
    (["trace"], set(), False),
    (["trace", "--format", "json"], set(), True),
    (["build", "--format", "dot"], {"splittree.treebuild"}, False),
    (["oracle"], {"splittree.oracle"}, False),
    (["selftest", "--max-n", "2", "--max-value", "3", "--ks", "2,3"], {"splittree.oracle"},
     False),
    (["build"], {"splittree.treebuild"}, False),
])
def test_modules_each_command_loads(argv, extra, uses_json):
    # decide and trace never load the tree builder or the oracles
    if argv[0] != "selftest":
        argv = argv[:1] + ["--k", str(REFERENCE_K), "--depths",
                           ",".join(map(str, REFERENCE_DEPTHS))] + argv[1:]
    watched = ("json", "dataclasses", "inspect")
    line = _fresh("import sys\n"
                  f"before = [m in sys.modules for m in {watched!r}]\n"
                  "import splittree.cli as cli\n"
                  f"code = cli.main({argv!r})\n"
                  f"print(code, *before, *[m in sys.modules for m in {watched!r}], {LOADED})\n")
    code, *words = line.split()
    before, after, loaded = words[:3], words[3:6], words[6:]
    assert code == "0", line
    assert loaded == sorted(LOADED_BY_EVERY_COMMAND | extra)
    # json loads only for decide's and trace's JSON formats (build writes its
    # own), dataclasses and inspect for no command, unless the interpreter had
    # them already
    assert after == [str(had == "True" or needed)
                     for had, needed in zip(before, (uses_json, False, False))], line
