import argparse
import ast
import configparser
import importlib
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import wellprob as wp
from wellprob import cli, config
from wellprob.config import TaskOptions, parse_text

# Load one module under a bare package (so the package __init__, which
# imports everything, does not run) and use it; classical must stay unloaded.
_ALONE = """
import sys, types
pkg = types.ModuleType("wellprob")
pkg.__path__ = [{path!r}]
sys.modules["wellprob"] = pkg
import wellprob.model as model
import wellprob.{module}
{use}
print(sorted(name for name in sys.modules if name.startswith("wellprob")))
"""

_USES = {
    "model": "assert model.classical_state(model.closed_court(a=25.0, v0=10.0), 10.066).tau > 0.0",
    "quantum": "assert wellprob.quantum.nearest_level("
               "model.closed_court(a=25.0, v0=10.0), 10.066).n == 34",
}


@pytest.mark.parametrize("module", sorted(_USES))
def test_model_does_not_import_classical(module):
    code = _ALONE.format(path=str(Path(wp.__file__).parent), module=module, use=_USES[module])
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert "wellprob.classical" not in cp.stdout
    assert f"wellprob.{module}" in cp.stdout


def test_public_surface_has_no_airy_cross():
    assert "airy_cross" not in wp.__all__
    assert not hasattr(wp.airy, "airy_cross")


def test_public_surface_has_no_scalar_airy_eval():
    # airy_eval_many is the one Airy entry point; the scalar wrapper and its
    # NamedTuple had no caller in the package.
    for name in ("airy_eval", "AiryValues"):
        assert name not in wp.__all__
        assert not hasattr(wp.airy, name)


# Import the package with scipy and mpmath made unimportable: the only
# declared runtime dependency is numpy, and the Airy anchors are derived at
# import rather than computed with mpmath.
_WITHOUT_TEST_DEPS = """
import sys
class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "mpmath"):
            raise ImportError("blocked: " + name)
sys.meta_path.insert(0, Block())
import numpy as np
import wellprob
ai, bi, aip, bip = wellprob.airy_eval_many(np.array([-50.0, -9.5, -3.0, 0.0, 3.0, 9.5, 50.0]))
assert np.all(np.isfinite([ai, bi, aip, bip]))
print(sorted(name for name in sys.modules if name.split(".")[0] in ("scipy", "mpmath")))
"""


def test_package_runs_without_scipy_and_mpmath():
    cp = subprocess.run([sys.executable, "-c", _WITHOUT_TEST_DEPS],
                        capture_output=True, text=True,
                        env={**os.environ, "PYTHONPATH": str(Path(wp.__file__).parents[1])})
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "[]"


def test_every_task_option_is_read_by_the_cli():
    # A [task] key that no command reads would be accepted and then silently
    # ignored; every field must be read as t.<field> or <...>.task.<field>.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and (
                (isinstance(node.value, ast.Name) and node.value.id == "t")
                or (isinstance(node.value, ast.Attribute) and node.value.attr == "task"))}
    unread = {f.name for f in fields(TaskOptions)} - read
    assert not unread, f"TaskOptions fields no command reads: {sorted(unread)}"


def test_classical_layer_never_reads_the_potential_kind():
    # the arc decides band or delta pair and scales each edge test; the kind only builds it
    tree = ast.parse(Path(wp.classical.__file__).read_text(encoding="utf-8"))
    names = {getattr(node, field) for node in ast.walk(tree)
             for field in ("id", "attr", "name") if isinstance(getattr(node, field, None), str)}
    assert "PotentialKind" not in names and "kind" not in names


def _names_used_in_src() -> set[str]:
    """Names read anywhere in the package, except inside the top-level def or
    class that defines the name itself."""
    used = set()
    for path in Path(wp.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    return used


def _readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README's ``heading``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_every_public_name_is_used_or_documented():
    # a public name that the package never calls and the README does not
    # show is surface kept alive by tests alone
    used = _names_used_in_src()
    block = _readme_block("## Library surface", "python")
    orphans = [name for name in wp.__all__
               if name not in used and not re.search(rf"\b{name}\b", block)]
    assert not orphans, f"public names neither used in src/ nor in the README: {orphans}"


def test_readme_config_example_parses_and_sets_every_key():
    block = _readme_block("### Config format", "ini")
    parse_text(block)  # a bad key or value raises ConfigError
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    keys = {(section, key) for section in parser.sections() for key in parser[section]}
    schema = {(section, f.name) for section, cls in config._SECTIONS.items()
              for f in fields(cls)}
    assert keys == schema


def test_readme_synopsis_lists_every_command_option():
    synopsis = _readme_block("## Command line", "sh")
    flags = set(re.findall(r"--[a-z][a-z-]*", synopsis))
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert set(commands) == set(cli._COMMANDS)
    for name, sub in commands.items():
        options = {opt for action in sub._actions for opt in action.option_strings
                   if opt.startswith("--")} - {"--help"}
        assert options == flags, name


PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_benchmark_hooks_resolve(monkeypatch):
    # perfbench/spans.py wraps these package names and perfbench/run.py reads
    # quantum.SkippedRootWarning for every op: a rename fails every traced op
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    originals = [(owner, name, getattr(owner, name, None)) for owner, name, *_ in spans.TARGETS]
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, fn in originals if not callable(fn)]
    assert not missing, f"benchmark targets that no longer resolve: {missing}"
    with spans.Installed(spans.Tracer()):
        assert all(getattr(owner, name) is not fn for owner, name, fn in originals)
    assert all(getattr(owner, name) is fn for owner, name, fn in originals)
    assert issubclass(wp.quantum.SkippedRootWarning, Warning)
