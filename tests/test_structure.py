import ast
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import wellprob as wp
from wellprob import cli
from wellprob.config import TaskOptions

# Load wellprob.model under a bare package (so the package __init__, which
# imports everything, does not run) and use it; classical must stay unloaded.
_MODEL_ALONE = """
import sys, types
pkg = types.ModuleType("wellprob")
pkg.__path__ = [{path!r}]
sys.modules["wellprob"] = pkg
import wellprob.model as model
state = model.classical_state(model.closed_court(a=25.0, v0=10.0), 10.066)
assert state.tau > 0.0
print(sorted(name for name in sys.modules if name.startswith("wellprob")))
"""


def test_model_does_not_import_classical():
    code = _MODEL_ALONE.format(path=str(Path(wp.__file__).parent))
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert "wellprob.classical" not in cp.stdout
    assert "wellprob.model" in cp.stdout


def test_public_surface_has_no_airy_cross():
    assert "airy_cross" not in wp.__all__
    assert not hasattr(wp.airy, "airy_cross")


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
