"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Criterion 1 note: the reference parameter table's (V0=6, a=25) row quotes
p- = 2.108, which contradicts the same row's p+ = 3.174 and dp = 1.156
(p+ - dp = 2.018) as well as the identity p+^2 - p-^2 = 2 m V0.  No
implementation can satisfy all three cells of that row at +-0.002
simultaneously.  The computed value matches the self-consistent 2.018; the
quoted 2.108 cell is kept as a strict xfail so the discrepancy stays
visible (and the suite alarms if it ever starts "passing").
"""

import math
import time

import numpy as np
import pytest

import wellprob as wp
from wellprob.cli import cmd_table1
from wellprob.config import RunConfig, apply_overrides
from conftest import TABLE1, record_acceptance
from oracles import fd_eigenvalues, half_period_quadrature

CHI2_9_Q99 = 21.666


# ---------------------------------------------------------------------------
# criterion 1: reference table reproduction via the CLI command

@pytest.fixture(scope="module")
def table1_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    cfg = apply_overrides(RunConfig(), [f"output.directory={out}"])
    t0 = time.perf_counter()
    (path,) = cmd_table1(cfg)
    elapsed = time.perf_counter() - t0
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return rows, elapsed


def test_criterion_1_table1_reproduction(table1_rows):
    rows, elapsed = table1_rows
    assert elapsed < 10.0
    assert len(rows) == 3
    for row, (v0, a, e_ref, pm_ref, pp_ref, dp_ref) in zip(rows, TABLE1):
        assert float(row["v0"]) == v0
        assert abs(float(row["energy"]) - e_ref) <= 0.001
        assert abs(float(row["p_plus"]) - pp_ref) <= 0.002
        assert abs(float(row["delta_p"]) - dp_ref) <= 0.002
        assert float(row["hbar_over_a"]) == 0.04
        if v0 != 6.0:
            assert abs(float(row["p_minus"]) - pm_ref) <= 0.002
    record_acceptance(
        f"ACCEPTANCE 1 table1: PASS (energies +-0.001, p columns +-0.002 for all "
        f"self-consistent cells; V0=6 p- cell is a documented reference "
        f"inconsistency, see xfail; runtime {elapsed:.1f}s < 10s)")


@pytest.mark.xfail(strict=True, reason=(
    "quoted (V0=6) p- = 2.108 contradicts the same row's p+ - dp = 2.018 and "
    "p+^2 - p-^2 = 2 m V0; physically consistent reproduction cannot match it"))
def test_criterion_1_row2_p_minus_as_printed(table1_rows):
    rows, _ = table1_rows
    assert abs(float(rows[1]["p_minus"]) - 2.108) <= 0.002


def test_criterion_1_row2_p_minus_self_consistent(table1_rows):
    rows, _ = table1_rows
    _, _, _, _, pp_ref, dp_ref = TABLE1[1]
    assert abs(float(rows[1]["p_minus"]) - (pp_ref - dp_ref)) <= 0.002
    record_acceptance(
        "ACCEPTANCE 1b table1 V0=6 p-: PASS against the row's own p+ - dp = 2.018")


# ---------------------------------------------------------------------------
# criterion 2: classical oracle equivalence

def test_criterion_2_classical_oracle_equivalence():
    for v0, e in ((10.0, 10.066), (2.0, 10.105)):
        spec = wp.closed_court(a=25.0, v0=v0)
        s = wp.classical_state(spec, e)
        assert s.tau == pytest.approx(half_period_quadrature(spec, e), rel=1e-12)
        grid = np.linspace(-s.p_plus, s.p_plus, 1000)
        mom = wp.classical_momentum_density(spec, e, grid=grid)
        on = (np.abs(grid) >= s.p_minus) & (np.abs(grid) <= s.p_plus)
        assert np.max(np.abs(mom.values[on] * 2.0 * s.delta_p - 1.0)) < 1e-8
        assert np.all(mom.values[~on] == 0.0)

        x = np.linspace(-24.99, 24.99, 1000)
        pos = wp.classical_position_density(spec, e, grid=x)
        closed = v0 / (4.0 * 25.0 * (math.sqrt(e) - math.sqrt(e - v0))
                       * np.sqrt(e - v0 * np.abs(x) / 25.0))
        assert np.max(np.abs(pos.values / closed - 1.0)) < 1e-10
    record_acceptance(
        "ACCEPTANCE 2 classical oracles: PASS (branch-summed momentum = 1/(2 dp) "
        "to 1e-8; 1/(tau v) = closed form to 1e-10; closed-form tau = "
        "quadrature tau to 1e-12)")


# ---------------------------------------------------------------------------
# criterion 3: normalization / Parseval for every emitted density

def test_criterion_3_normalization_and_parseval(table1_states, table1_waves):
    worst_pos = worst_mom = worst_phi = 0.0
    for spec, level, state in table1_states:
        pos = wp.classical_position_density(spec, level.energy)
        mom = wp.classical_momentum_density(spec, level.energy)
        worst_pos = max(worst_pos, abs(pos.trapezoid_mass() - 1.0),
                        abs(np.trapezoid(state.psi ** 2, state.grid) - 1.0))
        worst_mom = max(worst_mom, abs(mom.trapezoid_mass() - 1.0))
    bounce = wp.bouncer()
    worst_pos = max(worst_pos, abs(
        wp.classical_position_density(bounce, 2.0).trapezoid_mass() - 1.0))
    worst_mom = max(worst_mom, abs(
        wp.classical_momentum_density(bounce, 2.0).trapezoid_mass() - 1.0))
    iw = wp.infinite_well(a=25.0)
    worst_pos = max(worst_pos, abs(
        wp.classical_position_density(iw, 10.0).trapezoid_mass() - 1.0))
    assert worst_pos < 1e-6 and worst_mom < 1e-6

    for spec, level, state, wave in table1_waves:
        worst_phi = max(worst_phi, abs(wave.norm_mass() - 1.0))
    for n in range(1, 21):
        for parity in ("even", "odd"):
            st = wp.eigenstate_infinite_well(iw, n, parity, n_grid=4801)
            wave = wp.momentum_transform(st)
            worst_phi = max(worst_phi, abs(wave.norm_mass() - 1.0))
    assert worst_phi < 1e-4
    record_acceptance(
        f"ACCEPTANCE 3 normalization: PASS (position/momentum curves within "
        f"{worst_pos:.1e}/{worst_mom:.1e} of 1 (budget 1e-6); |phi|^2 within "
        f"{worst_phi:.1e} (budget 1e-4) over the reference states and "
        f"infinite-well n <= 20, both parities)")


# ---------------------------------------------------------------------------
# criterion 4: infinite-well transform vs two-sinc closed form

def test_criterion_4_infinite_well_transform():
    iw = wp.infinite_well(a=25.0)
    worst = 0.0
    for n in (1, 5, 10):
        st = wp.eigenstate_infinite_well(iw, n, "even")
        wave = wp.momentum_transform(st)
        closed = wp.infinite_well_momentum(iw, n, "even", wave.grid)
        worst = max(worst, float(np.max(np.abs(wave.phi - closed))))
    assert worst < 1e-6
    record_acceptance(
        f"ACCEPTANCE 4 infinite-well transform: PASS (max |phi - closed form| "
        f"= {worst:.1e} < 1e-6 for n in {{1, 5, 10}})")


# ---------------------------------------------------------------------------
# criterion 5: bouncer measurement statistics

def test_criterion_5_bouncer_statistics():
    spec = wp.bouncer()
    draws = wp.sample_measurements(spec, 2.0, 1000, seed=12345)
    counts, _ = np.histogram(draws.momenta, bins=10, range=(-2.0, 2.0))
    chi2 = float(np.sum((counts - 100.0) ** 2 / 100.0))
    assert chi2 < CHI2_9_Q99
    z = draws.positions
    last_decile = np.count_nonzero(z >= 0.9 * 2.0) / 1000.0
    first_decile = np.count_nonzero(z < 0.1 * 2.0) / 1000.0
    assert last_decile > first_decile
    record_acceptance(
        f"ACCEPTANCE 5 bouncer statistics: PASS (chi2 = {chi2:.2f} < {CHI2_9_Q99}; "
        f"apex decile {last_decile:.3f} > floor decile {first_decile:.3f})")


# ---------------------------------------------------------------------------
# criterion 6: delta-function limit trend along the V0 sweep

def test_criterion_6_delta_limit_trend():
    reports = wp.v0_sweep(a=25.0, hbar=1.0, mass=0.5, e_target=10.0,
                          v0_list=[10.0, 6.0, 2.0])
    plateaus = [wp.plateau_height(r) for r in reports]
    refs = [1.0 / (2.0 * dp) for dp in (2.916, 1.156, 0.332)]  # 0.171, 0.433, 1.506
    assert plateaus[0] < plateaus[1] < plateaus[2]
    for got, ref in zip(plateaus, refs):
        assert got == pytest.approx(ref, rel=0.01)
    fractions = [r.support_mass_momentum for r in reports]
    assert all(f > 0.9 for f in fractions)
    assert all(not r.classical_unreliable for r in reports)
    assert min(r.delta_p_classical for r in reports) > 2.0 * 0.04
    record_acceptance(
        f"ACCEPTANCE 6 delta-limit sweep: PASS (plateaus "
        f"{plateaus[0]:.3f} -> {plateaus[1]:.3f} -> {plateaus[2]:.3f} monotone, "
        f"each within 1% of the reference; support fractions "
        f"{', '.join(f'{f:.3f}' for f in fractions)} all > 0.9; breakdown flag off, "
        f"min dp = 0.332 > 2 hbar/a = 0.08)")


# ---------------------------------------------------------------------------
# criterion 7: solver cross-validation and Airy Wronskian

def test_criterion_7_solver_cross_validation():
    worst = 0.0
    for v0 in (10.0, 6.0, 2.0):
        spec = wp.closed_court(a=25.0, v0=v0)
        ours = np.array([lv.energy for lv in wp.spectrum(spec, 12.0)])
        oracle = fd_eigenvalues(25.0, v0, 12.0)
        oracle = oracle[oracle > v0]
        assert len(ours) == len(oracle)
        worst = max(worst, float(np.max(np.abs(ours - oracle) / oracle)))
    assert worst < 1e-4

    rng = np.random.default_rng(11)
    z = rng.uniform(-40.0, 40.0, 10_000)
    ai, bi, aip, bip = wp.airy_eval_many(z)
    wron = float(np.max(np.abs((ai * bip - aip * bi) - 1.0 / math.pi)) * math.pi)
    assert wron < 1e-10
    record_acceptance(
        f"ACCEPTANCE 7 cross-validation: PASS (eigenvalues below 12 match the "
        f"finite-difference oracle to {worst:.1e} (budget 1e-4); Airy Wronskian "
        f"within {wron:.1e} of 1/pi on [-40, 40])")
