"""CSV drift between two versions of wellprob.

Runs one fixed matrix of CLI cases (``MATRIX``) in each of two source trees
and compares every file the two runs wrote.  For each file the report
says whether it is byte-identical, whether the header, the row count and
the text cells are equal, and, for each numeric column, max |delta| /
max |column| (the column as the older tree wrote it).  A difference column
``dev_X`` is scaled by max |X| instead, the quantity it is a difference
of, and a ``residual`` column, noise on both sides, is reported as its
max |column| in each tree: {"old": ..., "new": ...}.  A ``key,value``
table is compared key by key, each key as a column of its own.

    python tools/drift.py --parent REV [--out drift.json]
    python tools/drift.py --trees OLD NEW [--out drift.json]

``--parent`` checks REV out with a local ``git worktree`` (removed again
afterwards; no network) and compares it with the tree that holds this
script.  ``--trees`` compares two directories that each hold
``src/wellprob``.  Each tree runs the whole matrix in one interpreter of
its own, with PYTHONPATH set to its ``src``.  The JSON report goes to
``--out``, or to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_CC = ("potential.kind=closed_court",)
_IW = ("potential.kind=infinite_well", "potential.a=25")
_SLOW = ("constants.mass=0.7", "constants.hbar=0.5")
_HISTOGRAMS = ("task.n_bins=20", "task.n_draws=500")

# case name -> (command, --set overrides)
MATRIX = {
    "table1": ("table1", ()),
    "sweep-default": ("sweep", ()),
    "sweep-10-6-2": ("sweep", ("task.v0_list=10,6,2", "task.energy=10")),
    "sweep-12-8-4-1": ("sweep", ("task.v0_list=12,8,4,1", "task.energy=12.5", "potential.a=17")),
    # down to V0 = 1e-8, the infinite-well end of the sweep
    "sweep-to-1e-8": ("sweep", ("task.v0_list=10,1,0.01,0.0001,1e-06,1e-08", "task.energy=10")),
    # V0 = 0 and V0 = 30 > E: rows of long flag text and nan cells, written value by value
    "sweep-flagged": ("sweep", ("task.v0_list=10,0,30", "task.energy=10")),
    "eigensolve-25-10": ("eigensolve", (*_CC, "potential.a=25", "potential.v0=10",
                                        "task.e_max=12", "task.energy=10.066")),
    "eigensolve-17-3": ("eigensolve", (*_CC, "potential.a=17", "potential.v0=3",
                                       "task.e_max=9", "task.index=5", "task.parity=odd")),
    "eigensolve-40-12": ("eigensolve", (*_CC, "potential.a=40", "potential.v0=12", *_SLOW,
                                        "task.e_max=20", "task.energy=15")),
    # origin arguments down to -230, as deep as the benchmark's levels
    "eigensolve-15.3-4.06-deep": ("eigensolve", (*_CC, "potential.a=15.3", "potential.v0=4.06",
                                                 "task.e_max=100", "task.energy=57.92")),
    # V0 = 0.01: zeta at the origin near 3e3, the approach to the infinite well
    "eigensolve-25-0.01": ("eigensolve", (*_CC, "potential.a=25", "potential.v0=0.01",
                                          "task.e_max=11", "task.energy=10")),
    # an even-only listing: the state is the listed even level nearest E, not the odd n = 34
    "eigensolve-25-10-even-by-energy": ("eigensolve", (*_CC, "potential.a=25", "potential.v0=10",
                                                       "task.e_max=12", "task.parity=even",
                                                       "task.energy=10.066")),
    "eigensolve-infinite-well": ("eigensolve", (*_IW, "task.index=3", "task.parity=odd")),
    # a = 3.7: nodes from linspace(-a, a, 101) put the centre at 4.4e-16, not 0
    "eigensolve-infinite-well-3.7": ("eigensolve", ("potential.kind=infinite_well",
                                                    "potential.a=3.7", "task.n_grid=101",
                                                    "task.index=1", "task.parity=odd")),
    "momentum-25-10": ("momentum", (*_CC, "potential.a=25", "potential.v0=10",
                                    "task.energy=10.066")),
    # an even n_points: a symmetric p grid with no p = 0 point
    "momentum-25-10-even": ("momentum", (*_CC, "potential.a=25", "potential.v0=10",
                                         "task.energy=10.066", "task.n_points=4000")),
    # n_grid = 6003: 3001 intervals on x >= 0, so x = 0 is a panel centre
    "momentum-25-10-6003": ("momentum", (*_CC, "potential.a=25", "potential.v0=10",
                                         "task.energy=10.066", "task.n_grid=6003")),
    "momentum-25-2": ("momentum", (*_CC, "potential.a=25", "potential.v0=2",
                                   "task.energy=10.105")),
    "momentum-17-3": ("momentum", (*_CC, "potential.a=17", "potential.v0=3", *_SLOW,
                                   "task.energy=7.3")),
    "momentum-22-5": ("momentum", (*_CC, "potential.a=22", "potential.v0=5",
                                   "task.energy=8.146")),
    # V0 = 0.001: the state's start values from an origin argument near -8.6e3
    "momentum-25-0.001": ("momentum", (*_CC, "potential.a=25", "potential.v0=0.001",
                                       "task.energy=10")),
    "momentum-infinite-well": ("momentum", (*_IW, "task.index=3", "task.parity=even")),
    # p_plus = 4.5e-15: the band's edge tests in the arc's own units
    "momentum-small-units": ("momentum", (*_CC, "potential.a=25", "potential.v0=10",
                                          "task.energy=10.066", "constants.hbar=1e-15",
                                          "constants.mass=1e-30")),
    "classical-bouncer": ("classical", ("potential.kind=bouncer", "task.energy=2",
                                        *_HISTOGRAMS)),
    "classical-infinite-well": ("classical", (*_IW, "task.energy=4", *_HISTOGRAMS)),
    "classical-closed-court": ("classical", (*_CC, "potential.a=25", "potential.v0=10",
                                             "task.energy=10.5", *_HISTOGRAMS)),
    # V0 = 0: the infinite well's arc; V0 = 1e-17 at E = 10: a band of zero width
    "classical-closed-court-v0-0": ("classical", (*_CC, "potential.a=25", "potential.v0=0",
                                                  "task.energy=4", *_HISTOGRAMS)),
    "classical-closed-court-below-rounding": ("classical", (*_CC, "potential.a=25",
                                                            "potential.v0=1e-17",
                                                            "task.energy=10", *_HISTOGRAMS)),
    # E just above V0: P(x) peaks at the walls, where E - F |x| cancels
    "classical-closed-court-near-v0": ("classical", (*_CC, "potential.a=25", "potential.v0=10",
                                                     "task.energy=10.000001", *_HISTOGRAMS)),
    # histograms with no draws asked for: no draws table, and no sample drawn
    "classical-histograms-no-draws": ("classical", (*_CC, "potential.a=25", "potential.v0=10",
                                                    "task.energy=10.5", "task.n_bins=20")),
    # the benchmark's largest sizes: 8001 = 7 * 1024 + 833 rows end in a partial block
    "classical-closed-court-8001": ("classical", (*_CC, "potential.a=25", "potential.v0=10",
                                                  "task.energy=10.5", "task.n_points=8001",
                                                  "task.n_bins=97", "task.n_draws=5000")),
    "bounce-sim-default": ("bounce-sim", ()),
    "bounce-sim-seeded": ("bounce-sim", ("task.seed=7", "task.energy=3", "task.n_draws=2000")),
}

# Runs in the child interpreter: every case in-process, stdout discarded,
# exit code and stderr kept.
_RUNNER = """
import contextlib, io, json, sys
from wellprob import cli
cases, out = json.loads(sys.argv[1]), sys.argv[2]
result = {}
for name, (command, sets) in cases.items():
    argv = [command, "--out", f"{out}/{name}"]
    for s in sets:
        argv += ["--set", s]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    result[name] = {"exit": code, "stderr": err.getvalue()}
print(json.dumps(result))
"""


def run_matrix(tree: Path, out: Path, matrix: dict) -> dict:
    """Every case of ``matrix`` in one interpreter on ``tree``'s package,
    each writing into ``out/<case>``: {case: {"exit", "stderr"}}."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree, "src").resolve())}
    cp = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(matrix), str(out)],
                        capture_output=True, text=True, env=env, cwd=out.parent, check=True)
    return json.loads(cp.stdout)


def _columns(text: str) -> tuple[list, int, dict]:
    """(header, row count, {column: cells}) of a CSV text; a key,value table
    becomes one column per key."""
    lines = text.splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if header == ["key", "value"]:
        return header, len(rows), {key: [value] for key, value in rows}
    return header, len(rows), {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _peak(cells: list) -> float:
    """max |cell| over the finite numbers of a column."""
    numbers = (_number(cell) for cell in cells)
    return max((abs(v) for v in numbers if v is not None and math.isfinite(v)), default=0.0)


def _column_drift(old: list, new: list, scale_by: list):
    """max |new - old| / max |scale_by| over a numeric column (NaN equal to
    NaN, inf where only one side is NaN); None for a column with text."""
    pairs = [(_number(a), _number(b)) for a, b in zip(old, new)]
    if any(a is None or b is None for a, b in pairs):
        return None
    delta = max((0.0 if math.isnan(a) and math.isnan(b)
                 else math.inf if math.isnan(a) or math.isnan(b) else abs(b - a)
                 for a, b in pairs), default=0.0)
    scale = _peak(scale_by)
    return delta / scale if scale > 0.0 else delta


def compare_file(old: Path, new: Path) -> dict:
    a, b = old.read_text(encoding="utf-8"), new.read_text(encoding="utf-8")
    header_a, rows_a, cols_a = _columns(a)
    header_b, rows_b, cols_b = _columns(b)
    drift, text_equal = {}, True
    for name in cols_a:
        if name not in cols_b or len(cols_a[name]) != len(cols_b[name]):
            continue
        if name == "residual":
            drift[name] = {"old": _peak(cols_a[name]), "new": _peak(cols_b[name])}
            continue
        scale_by = cols_a.get(name.removeprefix("dev_"), cols_a[name])
        drift[name] = _column_drift(cols_a[name], cols_b[name], scale_by)
        if drift[name] is None:
            text_equal &= cols_a[name] == cols_b[name]
    return {"byte_identical": a == b, "header_equal": header_a == header_b,
            "rows_equal": rows_a == rows_b, "text_equal": text_equal,
            "only_old": sorted(cols_a.keys() - cols_b.keys()),
            "only_new": sorted(cols_b.keys() - cols_a.keys()),
            "column_drift": drift}


def compare_trees(old: Path, new: Path, matrix: dict = MATRIX) -> dict:
    """Run ``matrix`` on both trees and compare what they wrote, case by case."""
    with tempfile.TemporaryDirectory(prefix="drift-") as tmp:
        outs = [Path(tmp, side, "out") for side in ("old", "new")]
        for out in outs:
            out.parent.mkdir()
        runs = [run_matrix(tree, out, matrix) for tree, out in zip((old, new), outs)]
        report = {}
        for case in matrix:
            dirs = [out / case for out in outs]
            names = [{p.name for p in d.iterdir()} if d.is_dir() else set() for d in dirs]
            report[case] = {
                "exit": [run[case]["exit"] for run in runs],
                "stderr_equal": runs[0][case]["stderr"] == runs[1][case]["stderr"],
                "only_old": sorted(names[0] - names[1]), "only_new": sorted(names[1] - names[0]),
                "files": {name: compare_file(dirs[0] / name, dirs[1] / name)
                          for name in sorted(names[0] & names[1])}}
    return report


@contextlib.contextmanager
def parent_worktree(repo: Path, rev: str):
    """A detached ``git worktree`` of ``rev``, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="drift-parent-") as tmp:
        path = Path(tmp, "tree")
        subprocess.run(["git", "-C", str(repo), "worktree", "add", "--detach", "--quiet",
                        str(path), rev], check=True)
        try:
            yield path
        finally:
            subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force", str(path)],
                           check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--parent", metavar="REV", help="compare REV with this tree")
    which.add_argument("--trees", nargs=2, metavar=("OLD", "NEW"), help="compare two trees")
    parser.add_argument("--out", metavar="PATH", help="write the JSON report here")
    args = parser.parse_args(argv)
    if args.parent:
        here = Path(__file__).resolve().parents[1]
        with parent_worktree(here, args.parent) as parent:
            report = {"old": args.parent, "new": str(here), "cases": compare_trees(parent, here)}
    else:
        old, new = args.trees
        report = {"old": old, "new": new, "cases": compare_trees(Path(old), Path(new))}
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
