import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wellprob as wp
from oracles import boxcar_average_bruteforce, position_gap_full_grid, support_mass_full_grid

IW = wp.infinite_well(a=25.0)
CC2 = wp.closed_court(a=25.0, v0=2.0)


@pytest.fixture(scope="module")
def sweep_reports():
    return wp.v0_sweep(a=25.0, hbar=1.0, mass=0.5, e_target=10.0,
                       v0_list=[10.0, 6.0, 2.0])


def test_minimal_window_formulas(sweep_reports):
    # one de Broglie wavelength 2 pi hbar / p_minus, p_minus = sqrt(2m (E - V0))
    rep = sweep_reports[2]
    assert rep.window == pytest.approx(2.0 * math.pi / math.sqrt(rep.energy - 2.0), rel=1e-12)


def test_moving_average_matches_bruteforce_oracle():
    # the average takes the even |psi|^2 on x >= 0 only; the points lie on both sides
    st = wp.eigenstate_infinite_well(IW, 7, "even", n_grid=4001)
    pts = np.linspace(-15.0, 15.0, 21)
    fast = wp.compare.moving_average(st.grid[len(st.half) - 1:], st.half ** 2, 4.0, pts)
    slow = boxcar_average_bruteforce(st.grid, st.psi ** 2, 4.0, pts)
    assert np.max(np.abs(fast - slow)) < 1e-6


def test_position_gap_matches_the_full_grid_oracle(table1_states):
    for spec, lv, st in table1_states:
        rep = wp.compare.compare_state(spec, lv.energy, lv.parity, lv.index)
        assert rep.l2_gap_position == pytest.approx(position_gap_full_grid(st), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(10.0, 40.0), v0=st.floats(1.0, 12.0), gap=st.floats(1.5, 4.0))
def test_position_gap_matches_the_full_grid_oracle_on_any_court(a, v0, gap):
    # the level lies at least 0.5 above V0, so the window 2 pi / p_minus < 9 < a
    spec = wp.closed_court(a=a, v0=v0)
    lv = wp.nearest_level(spec, v0 + gap)
    rep = wp.compare.compare_state(spec, lv.energy, lv.parity, lv.index)
    st = wp.eigenstate_closed_court(spec, lv.energy, lv.parity, index=lv.index)
    assert rep.l2_gap_position == pytest.approx(position_gap_full_grid(st), rel=1e-12)


def test_closed_court_row3_gap(sweep_reports):
    assert sweep_reports[2].l2_gap_position < 0.1


def test_support_mass_of_classical_curve_is_one():
    # the classical plateau sampled on an evenly spaced grid: every band edge
    # falls inside a cell, whose part outside the band is a triangle
    state = wp.classical_state(CC2, 10.105)
    grid = np.linspace(-4.0, 4.0, 801)
    h = grid[1] - grid[0]
    plateau = 1.0 / (2.0 * state.delta_p)
    inside = (np.abs(grid) >= state.p_minus) & (np.abs(grid) <= state.p_plus)
    density = np.where(inside, plateau, 0.0)
    wave = wp.MomentumWavefunction(grid=grid, phi=np.sqrt(density) + 0.0j, density=density)
    assert wp.momentum_support_mass(wave, state, widen=2.0 / 25.0) == 1.0
    # an edge a fraction t of a cell from the last inside point leaves the
    # triangle 0.5 h plateau (1 - t)^2 of that cell outside the band
    band = grid[inside & (grid > 0.0)]
    t_edges = ((band[0] - state.p_minus) / h, (state.p_plus - band[-1]) / h)
    outside = 2.0 * sum(0.5 * h * plateau * (1.0 - t) ** 2 for t in t_edges)
    total = np.trapezoid(density, grid)
    assert wp.momentum_support_mass(wave, state, widen=0.0) == pytest.approx(
        1.0 - outside / total, rel=1e-12)


def test_support_mass_bounds(table1_waves):
    for spec, level, st, wave in table1_waves:
        cl = wp.classical_state(spec, level.energy)
        frac = wp.momentum_support_mass(wave, cl, widen=2.0 * spec.constants.hbar / spec.a)
        assert 0.9 < frac <= 1.0


@pytest.mark.parametrize("n_points", [801, 800])
def test_support_mass_on_the_half_grid_is_the_full_grids(n_points, table1_waves):
    # |phi|^2 is even on a symmetric grid, so p >= 0 carries half of band and
    # total alike; an even count has no p = 0 node, and the half starts at the
    # midpoint of the two middle nodes
    state = wp.classical_state(CC2, 10.105)
    grid = np.linspace(-4.0, 4.0, n_points)
    density = np.exp(-((np.abs(grid) - 3.0) / 0.2) ** 2)
    wave = wp.MomentumWavefunction(grid=grid, phi=np.sqrt(density) + 0.0j, density=density)
    cases = [(wave, state, 0.08)] + [
        (w, wp.classical_state(spec, lv.energy), 2.0 / spec.a) for spec, lv, _, w in table1_waves]
    for w, cl, widen in cases:
        for wide in (0.0, widen, 10.0):
            assert wp.momentum_support_mass(w, cl, wide) == pytest.approx(
                support_mass_full_grid(w, cl, wide), rel=1e-14, abs=0.0)


def test_descending_p_grid_gives_the_same_masses():
    # a p grid may run either way: the norm and the support mass must not
    # change sign or reject the grid
    level = wp.nearest_level(CC2, 10.105)
    state = wp.eigenstate_closed_court(CC2, level.energy, level.parity, index=level.index)
    cl = wp.classical_state(CC2, level.energy)
    up, down = (wp.momentum_transform(state, np.linspace(lo, -lo, 2001)) for lo in (-20.0, 20.0))
    assert down.norm_mass() == pytest.approx(up.norm_mass(), rel=1e-14)
    assert 0.999 < up.norm_mass() < 1.0
    for widen in (0.0, 0.08):
        assert wp.momentum_support_mass(down, cl, widen) == pytest.approx(
            wp.momentum_support_mass(up, cl, widen), rel=1e-14)


def test_support_mass_rejects_a_grid_not_symmetric_about_zero():
    state = wp.classical_state(CC2, 10.105)
    grid = np.linspace(-4.0, 5.0, 801)
    wave = wp.MomentumWavefunction(grid=grid, phi=np.ones(801) + 0.0j, density=np.ones(801))
    with pytest.raises(ValueError, match="symmetric"):
        wp.momentum_support_mass(wave, state, 0.0)


def test_sweep_delta_p_matches_reference(sweep_reports):
    for rep, dp_ref in zip(sweep_reports, (2.916, 1.156, 0.332)):
        assert rep.delta_p_classical == pytest.approx(dp_ref, abs=2e-3)
        assert rep.flag == ""
    assert [round(r.energy, 3) for r in sweep_reports] == [10.066, 10.073, 10.105]


def test_sweep_plateau_monotone_and_values(sweep_reports):
    plateaus = [wp.plateau_height(r) for r in sweep_reports]
    assert plateaus[0] < plateaus[1] < plateaus[2]
    for got, ref in zip(plateaus, (1.0 / (2 * 2.916), 1.0 / (2 * 1.156), 1.0 / (2 * 0.332))):
        assert got == pytest.approx(ref, rel=0.01)


def test_sweep_intrinsic_width_and_flags(sweep_reports):
    for rep in sweep_reports:
        assert rep.delta_p_intrinsic == 0.04
        assert not rep.classical_unreliable
    assert min(r.delta_p_classical for r in sweep_reports) > 2.0 * 0.04


def test_sweep_delta_p_strictly_decreasing(sweep_reports):
    dps = [r.delta_p_classical for r in sweep_reports]
    assert dps[0] > dps[1] > dps[2]


def test_sweep_flags_entry_without_nearby_eigenvalue():
    # the level of a = 3, V0 = 1 nearest 10 lies 3.7% away, past the 2% target tolerance
    reports = wp.v0_sweep(a=3.0, hbar=1.0, mass=0.5, e_target=10.0, v0_list=[1.0])
    assert len(reports) == 1
    assert reports[0].flag.startswith("nearest-eigenvalue-off-target")
    assert math.isnan(reports[0].l2_gap_position)


def test_sweep_reproducible(sweep_reports):
    again = wp.v0_sweep(a=25.0, hbar=1.0, mass=0.5, e_target=10.0, v0_list=[6.0])
    ref = sweep_reports[1]
    assert again[0] == ref


def test_breakdown_flag_turns_on_for_narrow_band():
    # delta_p ~ v0 / (2 sqrt(E)) = 0.063 < 2 hbar/a = 0.08
    spec = wp.closed_court(a=25.0, v0=0.4)
    level = wp.nearest_level(spec, 10.0)
    rep = wp.compare.compare_state(spec, level.energy, level.parity, level.index)
    assert rep.delta_p_classical < 0.08
    assert rep.classical_unreliable


def test_window_check_precedes_the_eigenstate(monkeypatch):
    # p_minus = 0.25 at V0 = 10.01 puts the window past a = 25: the report is
    # flagged before any state is synthesised
    synthesised = []
    synthesise = wp.compare.eigenstate_closed_court

    def spy(*args, **kwargs):
        synthesised.append(args)
        return synthesise(*args, **kwargs)

    monkeypatch.setattr(wp.compare, "eigenstate_closed_court", spy)
    reports = wp.v0_sweep(a=25.0, hbar=1.0, mass=0.5, e_target=10.07, v0_list=[10.01])
    assert reports[0].flag == "window-exceeds-well: window leaves no interior to compare on"
    assert synthesised == []
