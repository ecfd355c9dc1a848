"""The four workloads: seeded inputs, one op each, and the op's contract check.

Every workload matches a CLI command and loads one layer heavily:

* ``level-search``  -- ``quantum.nearest_level``: many small Airy calls
  (per-call overhead, redundant scans);
* ``spectrum``      -- ``quantum.spectrum``: bisection vectorised over many
  roots plus one residual call per level;
* ``momentum``      -- ``compare.compare_state`` and the infinite-well
  transform: few but large Airy calls and the dense Filon transform;
* ``classical-cli`` -- in-process ``cli.main`` runs of ``classical``,
  ``bounce-sim`` and infinite-well ``eigensolve``: config, classical,
  model and the CSV writer, with no Airy call and no transform.

Inputs are drawn from ``random.Random`` keyed by the workload and the seed,
and cycle through fixed strata so that every run sees the same mix of input
kinds; that keeps the per-run medians steady across seeds.  Ops look up the
package functions as module attributes at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import wellprob.cli as cli
import wellprob.compare as compare
import wellprob.model as model
import wellprob.quantum as quantum

DATA_FILE = Path(__file__).resolve().parent / "data.json"

# Contracts (the package's own numerical budgets).
RESIDUAL_TOL = 1e-6
PIN_REL_TOL = 1e-12
PARSEVAL_TOL = 1e-4
CLOSED_FORM_TOL = 1e-6
HISTOGRAM_SUM_TOL = 1e-9

# CLI defaults used by the transform workload.
N_GRID = 12001
N_POINTS = 4001
SEARCH_WIDTH = 1.0

# Documented input regimes.
A_RANGE = (10.0, 40.0)
V0_RANGE = (1.0, 12.0)
E_ABOVE_V0 = (0.5, 4.0)
SPECTRUM_LEVELS = (8.0, 100.0)
IW_N_MAX = 20


def load_data() -> dict:
    with open(DATA_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def stratified(rng: random.Random, ranges, cells: int, count: int) -> list:
    """``count`` points that cycle through a fixed Latin-hypercube design.

    Each range is cut into ``cells`` equal bins; cell j of every cycle takes
    bin ``order[d][j]`` in dimension d, and the seed only places the point
    inside its bin.  A run of a few ops therefore covers the same corners of
    the input space whatever the seed, which keeps per-run medians steady
    while the inputs themselves still change with the seed.
    """
    design = random.Random("perfbench-design")
    order = [design.sample(range(cells), cells) for _ in ranges]
    points = []
    for i in range(count):
        j = i % cells
        points.append(tuple(lo + (order[d][j] + rng.random()) * (hi - lo) / cells
                            for d, (lo, hi) in enumerate(ranges)))
    return points


@dataclass
class Context:
    data: dict
    scratch: Path  # CLI output directory, emptied before each op


@dataclass
class Workload:
    name: str
    make_inputs: Callable[[random.Random, dict], list]
    run: Callable[[Context, dict], object]
    check: Callable[[Context, dict, object], tuple]  # -> (failure or None, diag)
    warm_up: Callable[[Context], None]
    levels_returned: Callable[[object], int]
    min_ops: int       # ops every run completes, whatever --seconds says
    counted_ops: int   # traced ops whose counters are reported
    expected: tuple    # per-layer counters that must be > 0 in a traced run
    repeat_files: bool = False  # re-run one sampled op and compare its files


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# level-search

def _level_inputs(rng: random.Random, data: dict) -> list:
    items = [{"a": r["a"], "v0": r["v0"], "e_target": r["e_target"],
              "pinned": r["energy"], "pinned_parity": r["parity"]}
             for r in data["table1"]]
    for a, v0, gap in stratified(rng, (A_RANGE, V0_RANGE, E_ABOVE_V0), 6, 61):
        items.append({"a": a, "v0": v0, "e_target": v0 + gap})
    return items


def _level_run(ctx: Context, item: dict):
    spec = model.closed_court(item["a"], item["v0"])
    return quantum.nearest_level(spec, item["e_target"], search_width=SEARCH_WIDTH)


def _level_check(ctx: Context, item: dict, level) -> tuple:
    spec = model.closed_court(item["a"], item["v0"])
    residual = quantum.eigencondition_residual(spec, level.energy, level.parity)
    if not residual <= RESIDUAL_TOL:
        return f"residual {residual:.3g} > {RESIDUAL_TOL}", {}
    lo = max(item["v0"], item["e_target"] - SEARCH_WIDTH)
    if not lo < level.energy <= item["e_target"] + SEARCH_WIDTH:
        return f"level {level.energy!r} outside the search window", {}
    if "pinned" in item:
        if level.parity != item["pinned_parity"]:
            return f"parity {level.parity} != pinned {item['pinned_parity']}", {}
        if _rel(level.energy, item["pinned"]) > PIN_REL_TOL:
            return f"energy {level.energy!r} != pinned {item['pinned']!r}", {}
    return None, {}


def _warm_eigen(ctx: Context) -> None:
    row = ctx.data["table1"][0]
    spec = model.closed_court(row["a"], row["v0"])
    quantum.eigencondition_residual(spec, row["energy"], row["parity"])


# ---------------------------------------------------------------------------
# spectrum

def level_count(a: float, v0: float, energy: float) -> float:
    """Semiclassical count of levels in (V0, E], both parities, hbar = 2m = 1."""
    def below(e):
        return (8.0 * a / (3.0 * v0)) * (e ** 1.5 - (e - v0) ** 1.5) / (2.0 * math.pi)
    return below(energy) - below(v0)


def e_max_for_count(a: float, v0: float, count: float) -> float:
    lo, hi = v0, v0 + 1.0
    while level_count(a, v0, hi) < count:
        hi = v0 + 2.0 * (hi - v0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if level_count(a, v0, mid) < count else (lo, mid)
    return hi


def _spectrum_inputs(rng: random.Random, data: dict) -> list:
    items = [{"a": 25.0, "v0": 10.0, "e_max": 12.0,
              "pinned": data["spectrum_25_10_12"]}]
    for a, v0, count in stratified(rng, (A_RANGE, V0_RANGE, SPECTRUM_LEVELS), 8, 63):
        items.append({"a": a, "v0": v0, "e_max": e_max_for_count(a, v0, count),
                      "sample": rng.random()})
    return items


def _spectrum_run(ctx: Context, item: dict):
    spec = model.closed_court(item["a"], item["v0"])
    return quantum.spectrum(spec, item["e_max"])


def _spectrum_check(ctx: Context, item: dict, levels) -> tuple:
    if not levels:
        return "no levels found", {}
    energies = [lv.energy for lv in levels]
    if energies != sorted(energies):
        return "levels not sorted by energy", {}
    if not (item["v0"] < energies[0] and energies[-1] <= item["e_max"]):
        return "a level lies outside (V0, e_max]", {}
    worst = max(lv.residual for lv in levels)
    if not worst <= RESIDUAL_TOL:
        return f"reported residual {worst:.3g} > {RESIDUAL_TOL}", {}
    # Recompute one level's residual independently (all of them would cost
    # more than the op itself on the 100-level inputs).
    spec = model.closed_court(item["a"], item["v0"])
    lv = levels[int(item.get("sample", 0.0) * len(levels))]
    residual = quantum.eigencondition_residual(spec, lv.energy, lv.parity)
    if not residual <= RESIDUAL_TOL:
        return f"recomputed residual {residual:.3g} > {RESIDUAL_TOL}", {}
    pinned = item.get("pinned")
    if pinned is not None:
        if [lv.parity for lv in levels] != [p["parity"] for p in pinned]:
            return "level parities differ from the pinned spectrum", {}
        worst_rel = max(_rel(e, p["energy"]) for e, p in zip(energies, pinned))
        if worst_rel > PIN_REL_TOL:
            return f"energies differ from the pinned spectrum by {worst_rel:.3g}", {}
    return None, {}


# ---------------------------------------------------------------------------
# momentum

def _momentum_inputs(rng: random.Random, data: dict) -> list:
    items = []
    for i in range(256):
        if i % 4 == 3:
            items.append({"kind": "infinite_well", "a": rng.uniform(*A_RANGE),
                          "n": rng.randint(1, IW_N_MAX),
                          "parity": rng.choice(("even", "odd"))})
        else:
            items.append({"kind": "closed_court", **rng.choice(data["momentum_pool"])})
    return items


def _momentum_run(ctx: Context, item: dict):
    if item["kind"] == "infinite_well":
        spec = model.infinite_well(item["a"])
        state = quantum.eigenstate_infinite_well(spec, item["n"], item["parity"],
                                                 n_grid=N_GRID)
        return None, quantum.momentum_transform(state, n_points=N_POINTS)
    # compare_state discards its transform; capture it for the Parseval check.
    waves = []
    transform = compare.momentum_transform

    def capture(*args, **kwargs):
        waves.append(transform(*args, **kwargs))
        return waves[-1]

    compare.momentum_transform = capture
    try:
        spec = model.closed_court(item["a"], item["v0"])
        report = compare.compare_state(spec, item["energy"], item["parity"], item["index"])
    finally:
        compare.momentum_transform = transform
    return report, waves[0]


def _momentum_check(ctx: Context, item: dict, result) -> tuple:
    report, wave = result
    deficit = 1.0 - wave.norm_mass()
    diag = {"parseval_deficit": deficit}
    if not abs(deficit) <= PARSEVAL_TOL:
        return f"Parseval deficit {deficit:.3g} beyond {PARSEVAL_TOL}", diag
    if item["kind"] == "infinite_well":
        spec = model.infinite_well(item["a"])
        closed = quantum.infinite_well_momentum(spec, item["n"], item["parity"], wave.grid)
        err = float(abs(wave.phi - closed).max())
        diag["closed_form_err"] = err
        if not err <= CLOSED_FORM_TOL:
            return f"transform {err:.3g} from the closed form > {CLOSED_FORM_TOL}", diag
        return None, diag
    if report.energy != item["energy"] or report.parity != item["parity"]:
        return "report does not describe the requested level", diag
    if not 0.0 < report.support_mass_momentum <= 1.0:
        return f"support mass {report.support_mass_momentum!r} outside (0, 1]", diag
    if not math.isfinite(report.l2_gap_position):
        return "position gap is not finite", diag
    return None, diag


def _warm_momentum(ctx: Context) -> None:
    # 256 momenta make one full chunk of the dense transform: the same
    # allocations as a full op at a sixteenth of its cost.
    state = quantum.eigenstate_infinite_well(model.infinite_well(25.0), 1, "even",
                                             n_grid=N_GRID)
    quantum.momentum_transform(state, p_grid=[0.01 * k for k in range(256)])


# ---------------------------------------------------------------------------
# classical-cli

_CLI_KINDS = ("classical-bouncer", "classical-infinite_well", "classical-closed_court",
              "bounce-sim", "eigensolve")


def _cli_inputs(rng: random.Random, data: dict) -> list:
    items = []
    for i in range(4000):
        kind = _CLI_KINDS[i % len(_CLI_KINDS)]
        n_bins, n_draws = rng.randint(10, 100), rng.randint(100, 5000)
        sets = [f"task.seed={rng.randint(1, 2 ** 31)}"]
        if kind.startswith("classical-"):
            potential = kind.split("-", 1)[1]
            sets += [f"potential.kind={potential}", f"task.n_points={rng.randint(1001, 8001)}",
                     f"task.n_bins={n_bins}", f"task.n_draws={n_draws}"]
            if potential == "bouncer":
                energy = rng.uniform(0.5, 5.0)
            elif potential == "infinite_well":
                energy = rng.uniform(1.0, 20.0)
                sets.append(f"potential.a={rng.uniform(*A_RANGE)!r}")
            else:
                v0 = rng.uniform(*V0_RANGE)
                energy = v0 + rng.uniform(*E_ABOVE_V0)
                sets += [f"potential.a={rng.uniform(*A_RANGE)!r}", f"potential.v0={v0!r}"]
            sets.append(f"task.energy={energy!r}")
            command = "classical"
        elif kind == "bounce-sim":
            sets += [f"task.energy={rng.uniform(0.5, 5.0)!r}", f"task.n_bins={n_bins}",
                     f"task.n_draws={n_draws}"]
            command = "bounce-sim"
        else:
            sets += ["potential.kind=infinite_well", f"potential.a={rng.uniform(*A_RANGE)!r}",
                     f"task.e_max={rng.uniform(1.0, 10.0)!r}",
                     f"task.index={rng.randint(1, IW_N_MAX)}",
                     f"task.parity={rng.choice(('even', 'odd'))}"]
            command = "eigensolve"
        argv = [command]
        for s in sets:
            argv += ["--set", s]
        items.append({"kind": kind, "argv": argv})
    return items


def _cli_run(ctx: Context, item: dict):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(item["argv"] + ["--out", str(ctx.scratch)])


def _expected_files(kind: str) -> tuple:
    if kind == "eigensolve":
        return ("eigenvalues.csv", "wavefunction.csv")
    if kind == "bounce-sim":
        return ("bounce_trajectory.csv", "bounce_histogram_position.csv",
                "bounce_histogram_momentum.csv", "bounce_draws.csv")
    momentum = ("classical_momentum_delta.csv" if kind == "classical-infinite_well"
                else "classical_momentum.csv")
    return ("classical_position.csv", "classical_meta.csv", momentum,
            "histogram_position.csv", "histogram_momentum.csv", "draws.csv")


def _cli_check(ctx: Context, item: dict, code) -> tuple:
    if code != 0:
        return f"exit code {code}", {}
    for name in _expected_files(item["kind"]):
        path = ctx.scratch / name
        if not path.is_file():
            return f"{name} not written", {}
        if "histogram" in name:
            lines = path.read_text(encoding="utf-8").splitlines()[1:]
            total = math.fsum(float(line.rsplit(",", 1)[1]) for line in lines)
            if not abs(total - 1.0) <= HISTOGRAM_SUM_TOL:
                return f"{name} masses sum to {total!r}", {}
    return None, {}


def clear_scratch(ctx: Context) -> None:
    if ctx.scratch.exists():
        shutil.rmtree(ctx.scratch)
    ctx.scratch.mkdir(parents=True)


def snapshot(ctx: Context) -> dict:
    """Bytes of every file the last CLI op wrote."""
    return {p.name: p.read_bytes() for p in sorted(ctx.scratch.iterdir())}


def _warm_cli(ctx: Context) -> None:
    for item in _cli_inputs(rng_for("classical-cli-warm-up", 0), ctx.data)[:len(_CLI_KINDS)]:
        clear_scratch(ctx)
        _cli_run(ctx, item)


# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload("level-search", _level_inputs, _level_run, _level_check, _warm_eigen,
             levels_returned=lambda level: 1, min_ops=3, counted_ops=3,
             expected=("airy.calls", "quantum.scans")),
    Workload("spectrum", _spectrum_inputs, _spectrum_run, _spectrum_check, _warm_eigen,
             levels_returned=len, min_ops=1, counted_ops=3,
             expected=("airy.calls", "quantum.scans")),
    Workload("momentum", _momentum_inputs, _momentum_run, _momentum_check, _warm_momentum,
             levels_returned=lambda result: 0, min_ops=1, counted_ops=4,
             expected=("airy.calls", "quantum.eigenstate.calls",
                       "quantum.transform.panel_products", "compare.calls")),
    Workload("classical-cli", _cli_inputs, _cli_run, _cli_check, _warm_cli,
             levels_returned=lambda code: 0, min_ops=20, counted_ops=10,
             expected=("cli.calls", "config.calls", "classical.calls",
                       "model.classical_state.calls", "cli.files_written"),
             repeat_files=True),
)}
