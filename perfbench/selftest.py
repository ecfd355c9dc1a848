"""Self-test of the benchmark itself (inputs, regimes, pinned data, counters).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It takes about fifteen seconds: the counter test runs one traced op of every
workload twice.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import unittest
from pathlib import Path

import run  # sets the BLAS thread count and the import path first
import spans
import workloads

from wellprob import cli, config, model, quantum
from wellprob.errors import RegimeError, ResolutionError

SEEDS = (1, 2, 3)


def _inputs(name: str, seed: int) -> list:
    workload = workloads.WORKLOADS[name]
    return workload.make_inputs(workloads.rng_for(name, seed), workloads.load_data())


def _resolution_ok(a: float, energy: float) -> bool:
    """momentum_transform's 20-panels-per-oscillation rule at the CLI defaults."""
    p_plus = math.sqrt(energy)  # hbar = 2m = 1
    q_max = max(8.0 * p_plus, p_plus + 40.0 / a)
    oscillations = q_max * 2.0 * a / (2.0 * math.pi)
    return workloads.N_GRID - 1 >= math.ceil(20.0 * oscillations)


class Inputs(unittest.TestCase):

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                self.assertEqual(_inputs(name, seed), _inputs(name, seed), name)

    def test_other_seed_other_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(_inputs(name, 1), _inputs(name, 2), name)

    def test_level_search_regime(self):
        lo_a, hi_a = workloads.A_RANGE
        for seed in SEEDS:
            for item in _inputs("level-search", seed):
                spec = model.closed_court(item["a"], item["v0"])
                state = model.classical_state(spec, item["e_target"])  # E > V0
                if "pinned" not in item:
                    self.assertTrue(lo_a <= item["a"] <= hi_a)
                    self.assertTrue(workloads.V0_RANGE[0] <= item["v0"] <= workloads.V0_RANGE[1])
                    gap = item["e_target"] - item["v0"]
                    self.assertTrue(workloads.E_ABOVE_V0[0] <= gap <= workloads.E_ABOVE_V0[1])
                # Semiclassical spacing pi hbar / tau: a level lies within the window.
                self.assertLess(math.pi / state.tau, workloads.SEARCH_WIDTH)

    def test_spectrum_regime(self):
        lo, hi = workloads.SPECTRUM_LEVELS
        for seed in SEEDS:
            for item in _inputs("spectrum", seed)[1:]:
                count = workloads.level_count(item["a"], item["v0"], item["e_max"])
                self.assertTrue(lo - 1e-6 <= count <= hi + 1e-6, count)

    def test_momentum_regime(self):
        for seed in SEEDS:
            for item in _inputs("momentum", seed):
                if item["kind"] == "infinite_well":
                    spec = model.infinite_well(item["a"])
                    energy = quantum.infinite_well_energy(spec, item["n"], item["parity"])
                else:
                    spec = model.closed_court(item["a"], item["v0"])
                    energy = item["energy"]
                model.classical_state(spec, energy)
                self.assertTrue(_resolution_ok(item["a"], energy), item)

    def test_cli_regime(self):
        parser = cli.build_parser()
        for item in _inputs("classical-cli", 1)[:200]:
            args = parser.parse_args(item["argv"])
            cfg = config.apply_overrides(config.RunConfig(), args.set)
            if cfg.potential.kind is None:  # bounce-sim's default bouncer
                continue
            spec = cfg.spec()
            energy = cfg.task.energy
            if energy is None:  # eigensolve: analytic levels only
                continue
            try:
                model.classical_state(spec, energy)
            except (RegimeError, ResolutionError) as exc:
                self.fail(f"{item['argv']}: {exc}")


class PinnedData(unittest.TestCase):

    def test_momentum_pool_levels_are_eigenvalues(self):
        for entry in workloads.load_data()["momentum_pool"]:
            spec = model.closed_court(entry["a"], entry["v0"])
            residual = quantum.eigencondition_residual(spec, entry["energy"], entry["parity"])
            self.assertLessEqual(residual, workloads.RESIDUAL_TOL, entry)

    def test_benchmark_json_matches_catalogue(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         {k: v[0] for k, v in run.END_TO_END.items()})
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         {k: v[0] for k, v in run.PER_LAYER.items()})
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(workloads.WORKLOADS))


class Counters(unittest.TestCase):

    def test_same_seed_same_counters(self):
        scratch = Path(tempfile.mkdtemp(dir=run.OUT_DIR))
        try:
            for name, workload in workloads.WORKLOADS.items():
                ctx = workloads.Context(data=workloads.load_data(), scratch=scratch)
                item = _inputs(name, 7)[0]
                counts = []
                for _ in range(2):
                    sample = run.run_op(workload, ctx, item, spans.Tracer())
                    self.assertIsNone(sample["failure"], name)
                    counts.append(sample["trace"]["counts"])
                self.assertEqual(counts[0], counts[1], name)
                self.assertTrue(counts[0], name)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    run.OUT_DIR.mkdir(exist_ok=True)
    unittest.main()
