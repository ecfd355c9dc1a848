import math
import re
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq

import wellprob as wp
from wellprob import quantum
from oracles import (airy_cross, closed_court_determinant, eigenstate_pointwise,
                     fd_eigenvalues, filon_transform_full, infinite_well_levels_loop,
                     mismatch_modulus_phase,
                     nearest_level_one_parity_at_a_time, potential_by_kind,
                     roots_one_parity,
                     simpson_transform, spectrum_one_parity_at_a_time)

CC10 = wp.closed_court(a=25.0, v0=10.0)
CC6 = wp.closed_court(a=25.0, v0=6.0)
CC2 = wp.closed_court(a=25.0, v0=2.0)
IW = wp.infinite_well(a=25.0)


# ---------------------------------------------------------------------------
# eigenvalues

def test_airy_scales():
    s = wp.AiryScales.from_spec(CC10, 10.066)
    assert s.rho == pytest.approx(2.5 ** (1.0 / 3.0), rel=1e-14)
    assert s.sigma == pytest.approx(2.5 * 10.066, rel=1e-14)


@pytest.mark.parametrize("spec,e_ref", [(CC10, 10.066), (CC6, 10.073), (CC2, 10.105)])
def test_reference_eigenvalues(spec, e_ref, table1_levels):
    level = next(lv for s, lv in table1_levels if s == spec)
    assert abs(level.energy - e_ref) <= 0.001


def test_eigenvalues_sorted_and_residuals_small():
    for parity in ("even", "odd"):
        roots = wp.eigenvalues_closed_court(CC10, 12.0, parity)
        assert np.all(np.diff(roots) > 0)
        for e in roots:
            assert wp.quantum.eigencondition_residual(CC10, float(e), parity) < 1e-9


def test_spectrum_interlaces():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no skipped-root warnings expected
        levels = wp.spectrum(CC6, 12.0)
    parities = [lv.parity for lv in levels]
    assert all(a != b for a, b in zip(parities, parities[1:]))


@pytest.mark.parametrize("v0", [10.0, 6.0, 2.0])
def test_cross_validation_against_finite_difference(v0):
    spec = wp.closed_court(a=25.0, v0=v0)
    ours = np.array([lv.energy for lv in wp.spectrum(spec, 12.0)])
    oracle = fd_eigenvalues(25.0, v0, 12.0)
    oracle = oracle[oracle > v0]
    assert len(oracle) == len(ours)
    assert np.max(np.abs(ours - oracle) / oracle) < 1e-4


def test_small_v0_limit_approaches_infinite_well():
    # first-order shift is <V> = V0/2, so the gap must close like V0
    v0 = 1e-3
    spec = wp.closed_court(a=25.0, v0=v0)
    levels = wp.spectrum(spec, 0.11)
    iw_values = [(j * math.pi / 50.0) ** 2 for j in range(1, len(levels) + 1)]
    for lv, e_iw in zip(levels, iw_values):
        assert abs(lv.energy - e_iw) < v0
    # parity order matches the well: even ground state first
    assert levels[0].parity == "even" and levels[1].parity == "odd"
    oracle = fd_eigenvalues(25.0, v0, 0.11, n=6000)
    assert np.max(np.abs(np.array([lv.energy for lv in levels]) - oracle[:len(levels)])
                  / oracle[:len(levels)]) < 1e-4


def test_eigenvalues_empty_below_regime():
    assert len(wp.eigenvalues_closed_court(CC10, 9.0, "odd")) == 0


def test_eigencondition_changes_sign_across_root(table1_levels):
    for spec, level in table1_levels:
        rho = (spec.a / spec.v0) ** (1.0 / 3.0)  # hbar = 2m = 1
        def det(e):
            sigma = e * spec.a / spec.v0
            return airy_cross(-sigma / rho, (spec.a - sigma) / rho)
        assert det(level.energy - 0.01) * det(level.energy + 0.01) < 0.0


def test_nearest_level_reports_parity_and_index(table1_levels):
    spec, level = table1_levels[0]
    assert level.parity == "odd"
    assert level.index == 1  # first odd level above V0 = 10
    assert level.n == 34  # above the 33 levels that lie below V0
    assert level.residual < 1e-9


@settings(max_examples=30, deadline=None)
@given(a=st.floats(10.0, 40.0), v0=st.floats(1.0, 12.0), gap=st.floats(0.5, 4.0))
def test_roots_match_scipy_oracle_and_fd_count(a, v0, gap):
    spec = wp.closed_court(a=a, v0=v0)
    e_max = v0 + gap
    count = 0
    for parity in ("even", "odd"):
        roots = wp.eigenvalues_closed_court(spec, e_max, parity)
        count += len(roots)
        for e in roots:
            ref = brentq(lambda x: closed_court_determinant(spec, x, parity),
                         e * (1.0 - 1e-9), e * (1.0 + 1e-9), xtol=1e-15)
            assert abs(e - ref) <= 1e-12 * ref, (parity, e, ref)
    # Levels of the h^4-accurate oracle closer than `tol` to either end of
    # (V0, e_max] may fall on either side of it.
    fd = fd_eigenvalues(a, v0, e_max + 1.0)
    tol = 1e-5 * e_max
    assert np.sum((fd > v0 + tol) & (fd <= e_max - tol)) <= count
    assert count <= np.sum((fd > v0 - tol) & (fd <= e_max + tol))


def _count_airy_calls(monkeypatch):
    # the points of each call into the Airy layer: its values (eigenstates)
    # and its phases (the level solve and the eigenvalue gate)
    calls = []
    for name in ("airy_eval_many", "_phases"):
        def counted(z, evaluate=getattr(wp.quantum, name)):
            calls.append(len(z))
            return evaluate(z)

        monkeypatch.setattr(wp.quantum, name, counted)
    return calls


@pytest.mark.parametrize("v0,e_ref", [(10.0, 10.066), (6.0, 10.073), (2.0, 10.105)])
def test_nearest_level_airy_call_budget(monkeypatch, v0, e_ref):
    # A fixed-iteration refinement or a rescan for the index would exceed
    # this budget; counting calls keeps the check free of wall-clock noise.
    calls = _count_airy_calls(monkeypatch)
    wp.nearest_level(wp.closed_court(a=25.0, v0=v0), e_ref)
    assert len(calls) <= 40


def test_spectrum_airy_call_budget(monkeypatch):
    calls = _count_airy_calls(monkeypatch)
    wp.spectrum(CC10, 12.0)
    assert len(calls) <= 40


@pytest.mark.parametrize("v0,e_ref", [(10.0, 10.066), (6.0, 10.073), (2.0, 10.105)])
def test_nearest_level_one_airy_call_per_evaluation(monkeypatch, v0, e_ref):
    # one call for both parities' phase counts (two points per energy), then
    # one per Newton step on the window's roots, two points per root
    calls = _count_airy_calls(monkeypatch)
    wp.nearest_level(wp.closed_court(a=25.0, v0=v0), e_ref)
    assert len(calls) == 3
    assert calls == {10.0: [34, 8, 8], 6.0: [54, 12, 12], 2.0: [54, 10, 10]}[v0]


def test_spectrum_one_airy_call_per_evaluation(monkeypatch):
    calls = _count_airy_calls(monkeypatch)
    wp.spectrum(CC10, 12.0)
    assert len(calls) == 3
    assert calls == [52, 16, 16]


def test_nearest_level_refines_only_in_window_brackets(monkeypatch):
    # 35 levels lie in (V0, 11.105], 5 of them in the window (9.105, 11.105];
    # only those are solved, two Airy points per root per Newton step
    n_window = sum(lv.energy > 9.105 for lv in wp.spectrum(CC2, 11.105))
    calls = _count_airy_calls(monkeypatch)
    wp.nearest_level(CC2, 10.105)
    assert len(calls) > 1 and max(calls[1:]) <= 2 * n_window + 2


@settings(max_examples=40, deadline=None)
@given(a=st.floats(10.0, 40.0), v0=st.floats(1.0, 12.0), gap=st.floats(0.5, 6.0),
       width=st.floats(0.05, 2.0))
def test_levels_equal_the_one_parity_reference_exactly(a, v0, gap, width):
    # the scan oracle brackets sign changes of each parity's determinant; the
    # phase solve must find the same levels, with parity and index exactly
    # equal and energies within 1e-13 relative (both sit at their noise floor)
    spec = wp.closed_court(a=a, v0=v0)
    e_max = v0 + gap

    def agree(ours, ref):
        assert [(lv.parity, lv.index) for lv in ours] == [lv[1:] for lv in ref]
        for lv, (energy, _, _) in zip(ours, ref):
            assert abs(lv.energy - energy) <= 1e-13 * energy

    agree(wp.spectrum(spec, e_max), spectrum_one_parity_at_a_time(spec, e_max))
    for parity in ("even", "odd"):
        roots = wp.eigenvalues_closed_court(spec, e_max, parity)
        ref = roots_one_parity(spec, e_max, parity)
        assert len(roots) == len(ref)
        assert np.all(np.abs(roots - ref) <= 1e-13 * ref)
    ref = nearest_level_one_parity_at_a_time(spec, e_max, width)
    try:
        agree([wp.nearest_level(spec, e_max, width)], [ref])
    except wp.NumericalError:
        assert ref is None


@pytest.mark.parametrize("e_max", [math.inf, -math.inf, math.nan])
def test_scan_rejects_non_finite_e_max(e_max):
    with pytest.raises(ValueError, match="e_max"):
        wp.spectrum(CC10, e_max)
    with pytest.raises(ValueError, match="e_target"):
        wp.nearest_level(CC10, e_max)


@pytest.mark.parametrize("e_target,search_width,name", [
    (math.nan, 1.0, "e_target"), (math.inf, 1.0, "e_target"), (-math.inf, 1.0, "e_target"),
    (10.066, math.nan, "search_width"), (10.066, math.inf, "search_width"),
    (10.066, -1.0, "search_width"), (10.066, 0.0, "search_width"),
    (1e308, 1e308, "e_target + search_width"),
])
def test_nearest_level_names_the_bad_argument(monkeypatch, e_target, search_width, name):
    # each argument is checked on entry, before any Airy call, under its own name
    calls = _count_airy_calls(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite"):
        wp.nearest_level(CC10, e_target, search_width)
    assert not calls


def test_scan_past_the_airy_range_fails_fast():
    # no origin argument is too deep for the phase solve: at (25, 10),
    # e_max = 6000 (origin argument -1.1e4) lists its levels, and windows
    # holding more than 1e5 levels (about 5e5 below 1e9) fail before any
    # Airy call
    assert len(wp.spectrum(CC10, 6000.0)) == 1199
    start = time.perf_counter()
    for e_max in (1e9, 1e12):
        with pytest.raises(wp.RegimeError, match="levels"):
            wp.spectrum(CC10, e_max)
    with pytest.raises(wp.RegimeError, match="levels") as info:
        wp.nearest_level(CC10, 1e9, 1e9)
    assert time.perf_counter() - start < 1.0
    # nearest_level takes no e_max: the message names the window's top
    assert "e_max" not in str(info.value)


@pytest.mark.parametrize("v0", [1e-16, 1e-30, 1e-300])
def test_v0_below_the_slope_floor_fails_fast(monkeypatch, v0):
    # dDelta/dE is good to about 2 eps E / V0 relative; below V0 = 1e-13 E
    # the solve stops before any Airy call, not in divisions by a zero slope
    calls = _count_airy_calls(monkeypatch)
    spec = wp.closed_court(25.0, v0)
    for call in (lambda: wp.spectrum(spec, 12.0), lambda: wp.nearest_level(spec, 10.0)):
        with pytest.raises(wp.RegimeError, match="slope"):
            call()
    assert not calls


def test_scales_out_of_double_range_are_named():
    # rho and sigma are both inf at any e_max; the Airy-range message would
    # blame an e_max that plays no part
    spec = wp.closed_court(a=1e200, v0=1e-300)
    for call in (lambda: wp.spectrum(spec, 12.0), lambda: wp.nearest_level(spec, 10.5)):
        with pytest.raises(wp.RegimeError, match=r"rho=inf and sigma=inf .* leave double"):
            call()
    # hbar^2 overflows: once an OverflowError traceback
    with pytest.raises(wp.RegimeError, match=r"rho=inf and sigma=30 .* leave double"):
        wp.spectrum(wp.closed_court(a=25.0, v0=10.0, hbar=1e200), 12.0)


def test_scan_level_count_is_capped():
    # about 1.1e5 levels, though the origin argument stays above -1e4
    spec = wp.closed_court(a=1e4, v0=1000.0)
    start = time.perf_counter()
    with pytest.raises(wp.RegimeError, match="levels"):
        wp.spectrum(spec, 2000.0)
    assert time.perf_counter() - start < 1.0


def _iw_level_energy(spec, k):
    """Energy of level k = 1, 2, ... of the infinite well (even, odd, even, ...)."""
    return wp.infinite_well_energy(spec, (k + 1) // 2, "even" if k % 2 else "odd")


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.05, 50.0), hbar=st.floats(0.2, 5.0), mass=st.floats(0.01, 10.0),
       e_max=st.floats(-1.0, 100.0), on_level=st.none() | st.integers(1, 60))
@example(a=25.0, hbar=1.0, mass=0.5, e_max=0.1, on_level=None)
@example(a=25.0, hbar=1.0, mass=0.5, e_max=0.0, on_level=None)
@example(a=25.0, hbar=1.0, mass=0.5, e_max=0.0, on_level=13)
@example(a=3.7, hbar=0.8, mass=1.3, e_max=0.0, on_level=1)
def test_infinite_well_listing_equals_the_loop_reference(a, hbar, mass, e_max, on_level):
    # one infinite_well_energy call per level in both, so every field is equal
    spec = wp.infinite_well(a, hbar=hbar, mass=mass)
    if on_level is not None:  # e_max equal to a level's energy keeps that level
        e_max = _iw_level_energy(spec, on_level)
    levels = wp.spectrum(spec, e_max)
    assert levels == infinite_well_levels_loop(spec, e_max)
    if on_level is not None:
        assert len(levels) == on_level and levels[-1].energy == e_max


def test_infinite_well_listing_is_in_energy_order():
    levels = wp.spectrum(IW, 2.0)
    assert [(lv.parity, lv.index) for lv in levels[:4]] == [
        ("even", 1), ("odd", 1), ("even", 2), ("odd", 2)]
    assert all(lo.energy < hi.energy for lo, hi in zip(levels, levels[1:]))
    assert wp.spectrum(IW, 0.0) == [] and wp.spectrum(IW, -math.inf) == []


@pytest.mark.parametrize("e_max", [1e8, 1e300, math.inf, math.nan])
def test_infinite_well_level_count_is_capped(e_max):
    # at a = 25, e_max = 1e8 holds about 1.6e5 levels
    start = time.perf_counter()
    with pytest.raises(wp.RegimeError, match="levels"):
        wp.spectrum(IW, e_max)
    assert time.perf_counter() - start < 0.1


def test_eigenvalues_closed_court_rejects_other_kinds():
    for spec in (IW, wp.bouncer()):
        with pytest.raises(wp.RegimeError, match="closed-court"):
            wp.eigenvalues_closed_court(spec, 1.0, "even")


BOTH = np.array([[False], [True]])  # the mismatch rows: even, odd


def test_levels_below_v0_are_the_airy_zeros():
    # Deep below V0 the wall at |x| = a is far outside the classical region,
    # so odd levels lie at E = -a_k F rho (Ai(z_0) = 0) and even ones at
    # -a'_{k+1} F rho (Ai'(z_0) = 0); the wall moves the eighth odd level,
    # whose wall argument is only 7.4, by 2.8e-14 of E.
    spec = CC10
    grid = np.linspace(1e-300, 6.2, 65)
    delta, slope = quantum._mismatch(spec, grid, BOTH)
    odd, k, energies, residuals = quantum._solve(spec, delta[:, [0, -1]], grid, delta, slope)
    assert k[~odd].tolist() == list(range(8)) and k[odd].tolist() == list(range(1, 9))
    f_rho = spec.v0 / spec.a * (spec.a / spec.v0) ** (1.0 / 3.0)  # hbar = 2m = 1
    for o, j, e in zip(odd, k, energies):
        zero = mpmath.airyaizero(int(j)) if o else mpmath.airyaizero(int(j) + 1, derivative=1)
        ref = float(-zero) * f_rho
        assert abs(e - ref) <= 1e-13 * ref, (o, j, e, ref)
    assert np.all(residuals <= 1e-12)


@st.composite
def _courts(draw):
    """Closed courts whose wall argument at E -> 0+ keeps Bi^2 in range."""
    spec = wp.closed_court(draw(st.floats(1.0, 40.0)), draw(st.floats(0.1, 20.0)),
                           hbar=draw(st.floats(0.3, 1.5)), mass=draw(st.floats(0.3, 2.0)))
    assume(spec.a / wp.AiryScales.from_spec(spec, 1.0).rho < 60.0)
    return spec


@settings(max_examples=100, deadline=None)
@given(spec=_courts(), top=st.floats(0.01, 3.0),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60))
def test_phase_counts_grow_with_energy_and_interlace(spec, top, fractions):
    # floor(Delta / pi) counts the levels of a parity below E (Sturm), from
    # E -> 0+ through V0: it never decreases, and with N_odd = floor and
    # N_even = floor + 1 the ground state is even and the parities alternate
    energies = np.sort(np.concatenate([[1e-300], top * spec.v0 * np.array(fractions)]))
    count = np.floor(quantum._mismatch(spec, energies, BOTH)[0] / math.pi)
    n_even, n_odd = count[0] + 1, count[1]
    assert n_even[0] == 0 and n_odd[0] == 0
    assert np.all(np.diff(count, axis=1) >= 0)
    assert np.all((n_odd <= n_even) & (n_even <= n_odd + 1))


def _mp_phase(z, derivative):
    """theta (derivative 0) or phi (1) at z, and M^2 or N^2, at the working
    precision: the atan2 unwrapped against pi/4 - (2/3) max(-z, 0)^1.5, and on
    z > 0 taken as pi/2 - atan(Ai / Bi), whose Bi may pass the double range."""
    z = mpmath.mpf(z)
    ai, bi = mpmath.airyai(z, derivative), mpmath.airybi(z, derivative)
    ref = mpmath.pi / 4 - mpmath.mpf(2) / 3 * max(-z, 0) ** 1.5 + derivative * mpmath.pi / 2
    if z > 0:
        return mpmath.pi / 2 - mpmath.atan(ai / bi), ai * ai + bi * bi
    phase = mpmath.atan2(bi, ai)
    return phase + 2 * mpmath.pi * mpmath.nint((ref - phase) / (2 * mpmath.pi)), ai * ai + bi * bi


def test_mismatch_is_finite_where_bi_overflows():
    # at (200, 50) and E = 1 the wall argument is 123.5, past Bi's double
    # range (103.9): the wall phase comes from the scaled ratio Ai / Bi
    spec = wp.closed_court(200.0, 50.0)
    delta, slope = quantum._mismatch(spec, np.array([1.0]), BOTH)
    with mpmath.workdps(40):
        a, v0, e = mpmath.mpf(200), mpmath.mpf(50), mpmath.mpf(1)
        rho = mpmath.cbrt(a / v0)
        z0, zw = -e * a / v0 / rho, (a - e * a / v0) / rho
        theta_w, m2_w = _mp_phase(zw, 0)
        for row, derivative in ((0, 1), (1, 0)):  # even: phi(z_0); odd: theta(z_0)
            origin, mod2 = _mp_phase(z0, derivative)
            rate = -z0 / mod2 if derivative else 1 / mod2
            ref = theta_w - origin
            ref_slope = (1 / m2_w - rate) * (-a / (v0 * rho)) / mpmath.pi
            assert abs(delta[row, 0] - ref) <= 1e-15 * abs(ref), row
            assert abs(slope[row, 0] / ref_slope - 1) <= 1e-14, row


def _mp_error(spec, level):
    """|E - E_mp| / E_mp for the root of the boundary determinant nearest the
    level, at 50 digits (hbar = 2m = 1)."""
    with mpmath.workdps(50):
        a, v0 = mpmath.mpf(spec.a), mpmath.mpf(spec.v0)
        rho = mpmath.cbrt(a / v0)
        d = 0 if level.parity == "odd" else 1

        def det(e):
            z0, zw = -e * a / v0 / rho, (a - e * a / v0) / rho
            return (mpmath.airyai(z0, d) * mpmath.airybi(zw)
                    - mpmath.airybi(z0, d) * mpmath.airyai(zw))

        root = mpmath.findroot(det, mpmath.mpf(level.energy))
        return float(abs(level.energy - root) / root)


@pytest.mark.parametrize("v0", [1.0, 0.1, 0.01, 0.001])
def test_small_v0_levels_agree_with_mpmath(v0):
    # zeta_0 grows like 1/V0 while Delta stays near k a; a difference of two
    # unwrapped phases, each zeta eps off, put these levels 9.9e-16, 9.7e-15,
    # 2.0e-13 and 2.5e-12 off
    spec = wp.closed_court(25.0, v0)
    assert _mp_error(spec, wp.nearest_level(spec, 10.0)) <= 2e-15


def test_deep_levels_agree_with_mpmath():
    # origin arguments -120 to -240, as deep as the benchmark's; the
    # unwrapped-phase difference put these levels up to 9.5e-15 off
    spec = wp.closed_court(15.3, 4.06)
    levels = [lv for lv in wp.spectrum(spec, 100.0) if lv.energy > 50.0]
    assert len(levels) == 29 and wp.nearest_level(spec, 57.92) in levels
    assert max(_mp_error(spec, lv) for lv in levels) <= 2e-15


@settings(max_examples=30, deadline=None)
@given(v0=st.floats(1e-3, 0.1), pick=st.integers(0, 10 ** 6))
def test_odd_levels_approach_the_infinite_well_at_first_order(v0, pick):
    # E_n = E_inf + V0 <|x|> / a + O(V0^2), and <|x|> = a / 2 for an odd
    # infinite-well state; measured deviation up to 2.3e-3 V0 near E = 10
    spec = wp.closed_court(25.0, v0)
    odd = [lv for lv in wp.spectrum(spec, 10.5) if lv.energy > 9.5 and lv.parity == "odd"]
    level = odd[pick % len(odd)]
    e_inf = wp.infinite_well_energy(wp.infinite_well(25.0), level.n // 2, "odd")
    assert abs((level.energy - e_inf) / v0 - 0.5) <= 3e-3 * v0


@pytest.mark.parametrize("n,parity", [(34, "odd"), (33, "even")])
def test_delta_function_limit_of_levels_and_momentum_densities(n, parity):
    # V0 -> 0 down to 1e-8: the level tends to the infinite well's at first
    # order, (E - E_inf)/V0 -> <|x|>/a = 1/2 - [even] / (2 (k a)^2), and its
    # momentum density to the well's two sincs, whose limit is the pair of
    # point masses; measured up to 4.9e-3 V0 and 1.80 V0 off.  The Newton
    # stop rule leaves a level up to 4 eps E off (4.6 eps against mpmath at
    # V0 = 1e-8) and E_inf carries its own rounding, so the rounding term
    # is 8 eps E / V0
    well = wp.infinite_well(25.0)
    index = (n + 1) // 2
    e_inf = wp.infinite_well_energy(well, index, parity)
    p = wp.momentum_transform(wp.eigenstate_infinite_well(well, index, parity)).grid
    exact = np.abs(wp.infinite_well_momentum(well, index, parity, p)) ** 2
    ka = quantum._well_mode(index, parity) * math.pi
    limit = 0.5 - (parity == "even") / (2.0 * ka * ka)
    for v0 in (1e-2, 1e-4, 1e-6, 1e-8):
        spec = wp.closed_court(25.0, v0)
        level = wp.nearest_level(spec, e_inf + 0.5 * v0, 0.05)
        assert (level.n, level.parity) == (n, parity)
        tol = 6e-3 * v0 + 8.0 * np.finfo(float).eps * level.energy / v0
        assert abs((level.energy - e_inf) / v0 - limit) <= tol, v0
        state = wp.eigenstate_closed_court(spec, level.energy, parity, index=level.index)
        phi = wp.momentum_transform(state, p)
        assert np.max(np.abs(phi.density - exact)) <= 2.0 * v0, v0
        assert 1.0 - phi.norm_mass() <= 1e-4


def _mp_state_error(spec, level, nodes=60):
    """max |psi - c psi_mp| / max |psi| at ``nodes`` nodes x >= 0, psi_mp the
    Airy cross product at 40 digits that meets the origin condition and c
    its least-squares fit (hbar = 2m = 1), with the number of quantum._phases
    and quantum.airy_eval_many calls the state made."""
    calls = {"_phases": 0, "airy_eval_many": 0}
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            def counted(z, name=name, evaluate=getattr(quantum, name)):
                calls[name] += 1
                return evaluate(z)

            mp.setattr(quantum, name, counted)
        state = wp.eigenstate_closed_court(spec, level.energy, level.parity, index=level.index)
    at = np.linspace(0, len(state.half) - 1, nodes).round().astype(int)
    x, psi = state.grid[len(state.half) - 1:][at], state.half[at]
    d = 0 if level.parity == "odd" else 1
    with mpmath.workdps(40):
        a, v0, e = mpmath.mpf(spec.a), mpmath.mpf(spec.v0), mpmath.mpf(level.energy)
        rho, sigma = mpmath.cbrt(a / v0), e * a / v0
        ca, cb = mpmath.airyai(-sigma / rho, d), mpmath.airybi(-sigma / rho, d)
        ref = np.array([float(ca * mpmath.airybi((mpmath.mpf(xi) - sigma) / rho)
                              - cb * mpmath.airyai((mpmath.mpf(xi) - sigma) / rho)) for xi in x])
    c = (ref @ psi) / (ref @ ref)
    return float(np.max(np.abs(psi - c * ref)) / np.max(np.abs(psi))), calls


@pytest.mark.parametrize("a,v0,e_ref", [(25.0, 0.01, 10.0), (15.3, 4.06, 57.92),
                                        (25.0, 1e-3, 10.0)])
def test_eigenstates_agree_with_mpmath(a, v0, e_ref):
    # start values from the level solve's own phase gaps, one phase call per
    # state; Airy values combined by cross products, each zeta eps off, put
    # these states 1.6e-11, 4.8e-13 and 1.8e-10 off (measured now: 2.1e-14,
    # 2.2e-14 and 3.5e-14)
    spec = wp.closed_court(a, v0)
    error, calls = _mp_state_error(spec, wp.nearest_level(spec, e_ref))
    assert error <= 1e-13
    assert calls == {"_phases": 1, "airy_eval_many": 0}
    assert not hasattr(quantum, "Z_MAX")


@settings(max_examples=200, deadline=None)
@given(a=st.floats(10.0, 40.0), v0=st.floats(1.0, 12.0), gap=st.floats(0.01, 20.0))
def test_mismatch_agrees_with_the_unwrapped_phase_difference(a, v0, gap):
    # the oracle subtracts two unwrapped phases, each about zeta * eps off
    # (measured up to 3.0 zeta_0 eps, 6.3e-13 absolute); the slopes share
    # their formula
    spec = wp.closed_court(a, v0)
    energies = np.array([v0 + gap])
    delta, slope = quantum._mismatch(spec, energies, BOTH)
    ref, ref_slope = mismatch_modulus_phase(spec, energies, BOTH)
    scales = wp.AiryScales.from_spec(spec, v0 + gap)
    zeta0 = (2.0 / 3.0) * (scales.sigma / scales.rho) ** 1.5
    assert np.all(np.abs(delta - ref) <= 4.0 * (zeta0 + 1.0) * np.finfo(float).eps)
    assert np.all(np.abs(slope / ref_slope - 1.0) <= 1e-13)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(10.0, 40.0), v0=st.floats(1.0, 12.0), gap=st.floats(0.5, 6.0),
       width=st.floats(0.05, 2.0), shift=st.floats(-0.5, 0.5))
def test_a_level_is_the_same_in_every_window(a, v0, gap, width, shift):
    # brackets and starts come from a lattice that the spec alone fixes, so a
    # level solved in a narrow window is the spectrum's, bit for bit
    spec = wp.closed_court(a=a, v0=v0)
    levels = wp.spectrum(spec, v0 + gap)
    for lv in levels[::max(1, len(levels) // 8)]:
        found = wp.nearest_level(spec, lv.energy + shift * width, width)
        if found.n == lv.n:
            assert _level_fields(found) == _level_fields(lv)


@pytest.mark.parametrize("a,v0,e_max", [(25.0, 10.0, 11.2), (1.0, 1.0, 60.0)])
def test_eigenstate_has_n_minus_1_nodes(a, v0, e_max):
    # (1, 1) lists n = 1, 2, ... from the ground state; (25, 10) from n = 34
    spec = wp.closed_court(a, v0)
    levels = wp.spectrum(spec, e_max)
    assert [lv.n for lv in levels] == list(range(levels[0].n, levels[0].n + len(levels)))
    assert levels[0].n == (34 if v0 == 10.0 else 1)
    for lv in levels:
        psi = wp.eigenstate_closed_court(spec, lv.energy, lv.parity, index=lv.index).psi[1:-1]
        psi = psi[psi != 0.0]  # the odd states' exact zero at x = 0
        assert np.count_nonzero(np.sign(psi[1:]) != np.sign(psi[:-1])) == lv.n - 1, lv


@pytest.mark.parametrize("a,v0,e_max", [(25.0, 10.0, 10.5), (25.0, 2.0, 10.3), (12.0, 3.0, 6.0)])
def test_hellmann_feynman(a, v0, e_max):
    # dE_n/dV0 = <|x| / a>: a central difference at fixed quantum number n
    # against Simpson on the x >= 0 half, where |x| psi^2 is smooth
    h = 1e-4

    def energy(v, n):
        return next(lv.energy for lv in wp.spectrum(wp.closed_court(a, v), e_max + 1.0)
                    if lv.n == n)

    for lv in wp.spectrum(wp.closed_court(a, v0), e_max)[:3]:
        slope = (energy(v0 + h, lv.n) - energy(v0 - h, lv.n)) / (2.0 * h)
        state = wp.eigenstate_closed_court(wp.closed_court(a, v0), lv.energy, lv.parity,
                                           index=lv.index)
        half = len(state.grid) // 2
        x, psi = state.grid[half:], state.psi[half:]
        expect = 2.0 * quantum._simpson_uniform(x / a * psi ** 2, x[1] - x[0])
        assert slope == pytest.approx(expect, rel=1e-9), lv


def test_nearest_level_cost_does_not_grow_with_the_levels_below(monkeypatch):
    # 439 levels lie below the window at (40, 1, 300); a scan from V0 took
    # 4272 Airy points
    calls = _count_airy_calls(monkeypatch)
    level = wp.nearest_level(wp.closed_court(40.0, 1.0), 300.0)
    assert level.n == 441 and level.residual < 1e-9
    assert sum(calls) <= 64


# ---------------------------------------------------------------------------
# eigenstates

def test_eigenstate_wall_and_origin_conditions(table1_states):
    for spec, level, state in table1_states:
        assert abs(state.psi[-1]) < 1e-8
        assert abs(state.psi[0]) < 1e-8
        mid = len(state.grid) // 2
        if level.parity == "odd":
            assert state.psi[mid] == 0.0
        else:
            h = state.grid[1] - state.grid[0]
            slope = (state.psi[mid + 1] - state.psi[mid - 1]) / (2.0 * h)
            assert abs(slope) < 1e-8 * np.max(np.abs(state.psi))


@pytest.mark.parametrize("n_grid", [12001, 2000])
def test_eigenstate_evaluates_half_grid(monkeypatch, n_grid):
    # z depends on |x| only, so a state needs Airy values on x >= 0 alone;
    # the mirror keeps even states symmetric and odd ones antisymmetric, exactly.
    calls = _count_airy_calls(monkeypatch)
    levels = wp.spectrum(CC10, 10.4)
    assert {lv.parity for lv in levels} == {"even", "odd"}
    for lv in levels:
        calls.clear()
        state = wp.eigenstate_closed_court(CC10, lv.energy, lv.parity, n_grid,
                                           index=lv.index)
        assert len(state.grid) == n_grid | 1
        assert sum(calls) <= n_grid // 2 + 2
        sign = -1.0 if lv.parity == "odd" else 1.0
        assert np.array_equal(state.psi, sign * state.psi[::-1])


@settings(max_examples=30, deadline=None)
@given(a=st.floats(10.0, 40.0), v0=st.floats(1.0, 12.0), gap=st.floats(0.5, 4.0),
       parity=st.sampled_from(["even", "odd"]), pick=st.integers(0, 10 ** 6),
       n_grid=st.sampled_from([101, 2000, 12001]))
def test_eigenstate_blocks_match_the_pointwise_synthesis(a, v0, gap, parity, pick, n_grid):
    # Airy values at the block starts only, each block summed from
    # its start's Taylor series; blocks span sqrt(|z|) |t| <= 0.75 in z, so
    # n_grid = 101 gives blocks of one or two points, and most larger grids
    # end in a partial block
    spec = wp.closed_court(a=a, v0=v0)
    levels = [lv for lv in wp.spectrum(spec, v0 + gap) if lv.parity == parity]
    assume(levels)
    level = levels[pick % len(levels)]
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_airy_calls(mp)
        state = wp.eigenstate_closed_court(spec, level.energy, parity, n_grid,
                                           index=level.index)
    ref = eigenstate_pointwise(spec, level.energy, parity, n_grid)
    assert np.max(np.abs(state.psi - ref)) <= 1e-12 * np.max(np.abs(ref))
    sign = -1.0 if parity == "odd" else 1.0
    assert np.array_equal(state.psi, sign * state.psi[::-1])
    scales = wp.AiryScales.from_spec(spec, level.energy)
    n_half = len(state.grid) // 2 + 1
    dz = a / (n_half - 1) / scales.rho
    block = max(1, math.floor(0.75 / (math.sqrt(max(1.0, scales.sigma / scales.rho)) * dz)))
    # one phase call: the origin, the wall and the block starts
    assert len(calls) == 1 and calls[0] <= -(-n_half // block) + 2


def test_eigenstate_where_the_moduli_overflow_raises():
    # below V0 on a wide court the wall argument passes z ~ 66, where M^2 and
    # N^2 leave the double range: a RegimeError, not a state of NaNs
    spec = wp.closed_court(200.0, 50.0)

    def gap(e):  # the first odd level's Delta - pi; the wall argument is 123.5 at E = 1
        return quantum._mismatch(spec, np.array([e]), True)[0][0] - math.pi

    energy = brentq(gap, 0.5, 1.5, xtol=1e-15)
    with pytest.raises(wp.RegimeError, match="moduli"):
        wp.eigenstate_closed_court(spec, energy, "odd", index=0)


def test_eigenstate_normalized(table1_states):
    for spec, level, state in table1_states:
        h = state.grid[1] - state.grid[0]
        norm = wp.quantum._simpson_uniform(state.psi ** 2, h)
        assert abs(norm - 1.0) < 1e-8


def test_eigenstate_schrodinger_residual(table1_states):
    # five-point second derivative at h = 1e-3 a; relative to ||E psi||, so
    # the unnormalized piecewise-Airy psi serves
    for spec, level, state in table1_states:
        h = 1e-3 * spec.a
        x = np.linspace(-spec.a + 3 * h, spec.a - 3 * h, 401)
        scales = wp.AiryScales.from_spec(spec, level.energy)

        def psi_at(pts):
            z = (np.abs(pts) - scales.sigma) / scales.rho
            ai, bi, _, _ = wp.airy_eval_many(z)
            z0 = np.array([-scales.sigma / scales.rho])
            ai0, bi0, aip0, bip0 = wp.airy_eval_many(z0)
            ca, cb = (bi0[0], -ai0[0]) if level.parity == "odd" else (bip0[0], -aip0[0])
            raw = ca * ai + cb * bi
            if level.parity == "odd":
                raw = np.where(pts < 0, -raw, raw)
            return raw

        stencil = (-psi_at(x + 2 * h) + 16 * psi_at(x + h) - 30 * psi_at(x)
                   + 16 * psi_at(x - h) - psi_at(x - 2 * h)) / (12.0 * h * h)
        hbar2_2m = spec.constants.hbar ** 2 / (2.0 * spec.constants.mass)
        v = potential_by_kind(spec, x)
        residual = -hbar2_2m * stencil + (v - level.energy) * psi_at(x)
        rel = np.linalg.norm(residual) / np.linalg.norm(level.energy * psi_at(x))
        assert rel < 1e-5


def test_eigenstate_rejects_non_eigenvalue():
    with pytest.raises(wp.NumericalError):
        wp.eigenstate_closed_court(CC10, 10.2, "odd", index=1)


def test_eigenstate_rejects_a_nan_residual(monkeypatch):
    # residual > tol is False for NaN, so the acceptance test must be
    # "not residual <= tol" for a NaN determinant to fail it
    level = wp.nearest_level(CC10, 10.066)
    monkeypatch.setattr(quantum, "_phases", lambda z: tuple(np.full((4, len(z)), np.nan)))
    with pytest.raises(wp.NumericalError, match="nan"):
        wp.eigenstate_closed_court(CC10, level.energy, level.parity, index=level.index)


def test_eigenstate_at_a_nan_energy_raises():
    with pytest.raises(ValueError, match="finite"):
        wp.eigenstate_closed_court(CC10, math.nan, "odd", index=1)


def test_orthogonality():
    odd = wp.eigenvalues_closed_court(CC10, 11.2, "odd")
    even = wp.eigenvalues_closed_court(CC10, 11.2, "even")
    states = [wp.eigenstate_closed_court(CC10, float(e), "odd", index=i + 1)
              for i, e in enumerate(odd[:2])]
    states += [wp.eigenstate_closed_court(CC10, float(e), "even", index=i + 1)
               for i, e in enumerate(even[:2])]
    h = states[0].grid[1] - states[0].grid[0]
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            overlap = wp.quantum._simpson_uniform(states[i].psi * states[j].psi, h)
            assert abs(overlap) < 1e-6, (i, j)


def test_infinite_well_states():
    iw1 = wp.infinite_well(a=1.0)
    st = wp.eigenstate_infinite_well(iw1, 1, "even")
    assert st.energy == pytest.approx((math.pi / 2.0) ** 2, rel=1e-14)
    assert st.psi[0] == pytest.approx(0.0, abs=1e-12)
    assert st.psi[-1] == pytest.approx(0.0, abs=1e-12)
    h = st.grid[1] - st.grid[0]
    assert wp.quantum._simpson_uniform(st.psi ** 2, h) == pytest.approx(1.0, abs=1e-10)
    # analytic energies satisfy the eigenvalue relation -psi''/2m = E psi
    st_odd = wp.eigenstate_infinite_well(IW, 3, "odd")
    k = 3 * math.pi / 25.0
    assert st_odd.energy == pytest.approx(k * k, rel=1e-14)  # hbar = 2m = 1


@pytest.mark.parametrize("index, parity", [(1, "evn"), (1, "Even"), (1, "both"), (0, "even"),
                                           (-2, "odd"), (1.5, "even"), (2.25, "odd"),
                                           (math.nan, "odd"), (math.inf, "even")])
def test_infinite_well_rejects_bad_index_and_parity(index, parity):
    # "evn" once gave the odd energy 0.01579 and index 0 gave 0.00395; index
    # 1.5 with "even" gave cos(pi x / a), psi(+-a) = -0.2, at the odd ground
    # state's energy, labelled index 1.5
    match = "parity" if index >= 1 and float(index).is_integer() else "index must be >= 1"
    with pytest.raises(ValueError, match=match):
        wp.infinite_well_energy(IW, index, parity)
    with pytest.raises(ValueError, match=match):
        wp.eigenstate_infinite_well(IW, index, parity, n_grid=101)
    with pytest.raises(ValueError, match=match):  # "both" once gave the odd state's phi
        wp.infinite_well_momentum(IW, index, parity, [0.0, 0.3])


def test_odd_infinite_well_state_vanishes_at_the_centre_node():
    # the nodes are linspace(0, a, n) mirrored, so the centre node is 0 and
    # sin gives 0 there; nodes from linspace(-a, a, 2n - 1) put it at
    # 4.4e-16 for a = 3.7 and psi(0) at 1.96e-16
    state = wp.eigenstate_infinite_well(wp.infinite_well(3.7), 1, "odd", n_grid=101)
    assert state.grid[50] == 0.0 and state.psi[50] == 0.0


@pytest.mark.parametrize("n_grid", [1, 0, -5])
@pytest.mark.parametrize("build", [
    lambda n_grid: wp.eigenstate_closed_court(CC10, 10.066, "even", n_grid, index=1),
    lambda n_grid: wp.eigenstate_infinite_well(IW, 1, "even", n_grid)],
    ids=["closed_court", "infinite_well"])
def test_eigenstate_rejects_fewer_than_two_grid_points(monkeypatch, build, n_grid):
    # n_grid = 1 and 0 once divided by zero in the closed court, and -5 got
    # numpy's message in the infinite well; both reject it before any work
    calls = _count_airy_calls(monkeypatch)
    with pytest.raises(ValueError, match="n_grid must be at least 2"):
        build(n_grid)
    assert not calls


def _level_fields(level):
    return level.energy, level.parity, level.index, level.residual, level.n


@settings(max_examples=40, deadline=None)
@given(a=st.floats(10.0, 40.0), v0=st.floats(1.0, 12.0), gap=st.floats(0.5, 6.0),
       n_grid=st.integers(2, 60))
def test_eigenstate_is_its_level(a, v0, gap, n_grid):
    # a state's energy, parity, index, residual and quantum number are its
    # level's, bit for bit: the builder forms the residual and n from the
    # phase mismatch as the level solve does
    spec = wp.closed_court(a=a, v0=v0)
    for lv in wp.spectrum(spec, v0 + gap):
        state = wp.eigenstate_closed_court(spec, lv.energy, lv.parity, n_grid, index=lv.index)
        assert _level_fields(state) == _level_fields(lv)
    well = wp.infinite_well(a)
    for lv in wp.spectrum(well, gap):
        state = wp.eigenstate_infinite_well(well, lv.index, lv.parity, n_grid)
        assert _level_fields(state) == _level_fields(lv)


def test_states_compare_and_hash_as_their_level():
    # the generated comparison of the state's arrays raised on == and hash()
    well = wp.infinite_well(3.0)
    s = wp.eigenstate_infinite_well(well, 1, "odd", n_grid=11)
    t = wp.eigenstate_infinite_well(well, 1, "odd", n_grid=11)
    other_grid = wp.eigenstate_infinite_well(well, 1, "odd", n_grid=21)
    assert s == t == other_grid and hash(s) == hash(t)
    assert s != wp.eigenstate_infinite_well(well, 2, "odd", n_grid=11)
    assert hash(s) == hash(wp.EigenLevel(*_level_fields(s)))
    assert len({s, t, other_grid}) == 1


# ---------------------------------------------------------------------------
# momentum transforms

def test_transform_matches_two_sinc_closed_form():
    for n in (1, 5, 10):
        st = wp.eigenstate_infinite_well(IW, n, "even")
        wave = wp.momentum_transform(st)
        closed = wp.infinite_well_momentum(IW, n, "even", wave.grid)
        assert np.max(np.abs(wave.phi - closed)) < 1e-6


def test_transform_matches_closed_form_odd():
    st = wp.eigenstate_infinite_well(IW, 4, "odd")
    wave = wp.momentum_transform(st)
    closed = wp.infinite_well_momentum(IW, 4, "odd", wave.grid)
    assert np.max(np.abs(wave.phi - closed)) < 1e-6


def test_transform_zero_momentum_value():
    iw1 = wp.infinite_well(a=1.0)
    phi0 = complex(wp.infinite_well_momentum(iw1, 1, "even", 0.0))
    assert phi0.real == pytest.approx(math.sqrt(1.0 / (2.0 * math.pi)) * 4.0 / math.pi,
                                      rel=1e-12)
    assert phi0.real == pytest.approx(0.50793, abs=5e-5)
    st = wp.eigenstate_infinite_well(iw1, 1, "even", n_grid=2001)
    wave = wp.momentum_transform(st, p_grid=np.array([-0.5, 0.0, 0.5]))
    assert wave.phi[1].real == pytest.approx(phi0.real, rel=1e-9)


def test_transform_parity_symmetry(table1_waves):
    for spec, level, st, wave in table1_waves:
        assert np.max(np.abs(np.abs(wave.phi) - np.abs(wave.phi[::-1]))) < 1e-10


def test_transform_parseval_on_wide_window(table1_states):
    spec, level, st = table1_states[0]
    p_plus = math.sqrt(2.0 * spec.constants.mass * level.energy)
    wave = wp.momentum_transform(st, p_grid=np.linspace(-6 * p_plus, 6 * p_plus, 4001))
    assert 0.999 <= wave.norm_mass() <= 1.0


def test_transform_parseval_default_grid(table1_waves):
    for spec, level, st, wave in table1_waves:
        assert abs(wave.norm_mass() - 1.0) < 1e-4


def test_transform_against_dense_simpson_oracle(table1_states):
    spec, level, st = table1_states[0]
    p_check = np.linspace(-4.0, 4.0, 41)
    wave = wp.momentum_transform(st, p_grid=p_check)
    oracle = simpson_transform(st.grid, st.psi, p_check, hbar=spec.constants.hbar)
    assert np.max(np.abs(wave.phi - oracle)) < 1e-8


def test_transform_peaks_inside_widened_band(table1_waves):
    for spec, level, st, wave in table1_waves:
        cl = wp.classical_state(spec, level.energy)
        widen = spec.constants.hbar / spec.a
        pos = wave.grid > 0
        peak = wave.grid[pos][np.argmax(wave.density[pos])]
        assert cl.p_minus - widen <= peak <= cl.p_plus + widen


def test_filon_moments_against_mpmath():
    # one series on |q h| <= pi/10, the reach of the 20-panels check; the
    # closed form that took over at |q h| >= 0.1 and the series below it erred
    # by up to 9.7e-14 (measured now: 3.2e-16)
    h = 0.37
    theta = np.concatenate([np.geomspace(1e-6, math.pi / 10, 150), np.linspace(0.09, 0.11, 81)])
    q = np.concatenate([theta, -theta]) / h
    moments = quantum._filon_moments(q, h)
    with mpmath.workdps(40):
        hh = mpmath.mpf(h)
        for i, qi in enumerate(q.tolist()):
            qm = mpmath.mpf(qi)
            t = qm * hh
            sin, cos = mpmath.sin(t), mpmath.cos(t)
            refs = (2 * sin / qm, 2 * (sin - t * cos) / qm ** 2,
                    2 * ((t * t - 2) * sin + 2 * t * cos) / qm ** 3)
            for got, ref in zip((moments[0][i], moments[1][i] / 1j, moments[2][i]), refs):
                assert got.imag == 0.0
                assert abs(float((got.real - ref) / ref)) <= 1e-15, (qi, got, ref)


def test_transform_grid_resolution_guard():
    st = wp.eigenstate_infinite_well(IW, 10, "even", n_grid=201)
    with pytest.raises(wp.ResolutionError) as err:
        wp.momentum_transform(st)
    assert "intervals" in str(err.value)


@pytest.mark.parametrize("p_grid,problem", [
    ([], "empty"),
    (np.array([]), "empty"),
    ([0.0, math.nan, 1.0], "non-finite"),
    ([-math.inf, 0.0], "non-finite"),
    ([[0.0, 0.5], [1.0, 1.5]], "one-dimensional"),
    (0.5, "one-dimensional"),
    (np.geomspace(0.01, 4.0, 300), "evenly spaced"),
])
def test_transform_rejects_bad_p_grid(p_grid, problem):
    st = wp.eigenstate_infinite_well(IW, 1, "even", n_grid=2001)
    with pytest.raises(ValueError, match="p_grid") as err:
        wp.momentum_transform(st, p_grid=p_grid)
    assert problem in str(err.value)


# n_grid with n_int = 0 and 2 (mod 4): x = 0 is a panel edge, or a panel centre
FOLD_GRIDS = (12001, 6003)


def _parity_states(table1_levels, n_grid, iw_states=((25.0, 3, "even"), (25.0, 4, "odd"))):
    """Closed-court states of both parities (the Table-1 levels, all odd, and
    the even level nearest the first) and infinite-well states."""
    levels = list(table1_levels)
    spec, odd = levels[0]
    even = min((lv for lv in wp.spectrum(spec, odd.energy + 0.5) if lv.parity == "even"),
               key=lambda lv: abs(lv.energy - odd.energy))
    levels.append((spec, even))
    return [wp.eigenstate_closed_court(spec, lv.energy, lv.parity, n_grid, index=lv.index)
            for spec, lv in levels] + [
        wp.eigenstate_infinite_well(wp.infinite_well(a), n, parity, n_grid)
        for a, n, parity in iw_states]


def test_chirp_and_dense_paths_agree_on_default_grids(table1_levels):
    # the full-grid oracle sums every panel and never uses the parity
    states = [st for n_grid in FOLD_GRIDS for st in _parity_states(table1_levels, n_grid, [
        (a, n, parity) for a in (10.0, 40.0) for n in (1, 7, 20) for parity in ("even", "odd")])]
    for st in states:
        wave = wp.momentum_transform(st)
        # every fifth momentum (p = 0 and both ends included) keeps the
        # dense reference at a fifth of its full cost
        dense = filon_transform_full(st.grid, st.psi, wave.grid[::5], st.spec.constants.hbar)
        assert np.max(np.abs(wave.phi[::5] - dense)) < 1e-10


@pytest.mark.parametrize("p_grid", [
    [0.7],
    [-0.5, 0.0, 0.5],
    np.linspace(3.0, -2.0, 501),  # descending
    np.linspace(-1.3, 2.9, 777),  # offset, not symmetric
    [0.01 * k for k in range(256)],
    # at n_grid = 12001, the 3000 node pairs with x >= 0 and the 1099 momenta
    # p > 0 give 3000 + 1099 - 1 = 4098 = 2 * 3 * 683: the FFT length steps up to 4320
    np.linspace(-2.0, 2.0, 2198),
])
def test_transform_matches_dense_sums_on_any_grid(table1_levels, p_grid):
    for st in (st for n_grid in FOLD_GRIDS for st in _parity_states(table1_levels, n_grid)):
        wave = wp.momentum_transform(st, p_grid=p_grid)
        dense = filon_transform_full(st.grid, st.psi, p_grid, st.spec.constants.hbar)
        assert np.max(np.abs(wave.phi - dense)) < 1e-11


@pytest.mark.parametrize("n_grid", FOLD_GRIDS)
def test_transform_parity_is_exact(table1_levels, n_grid):
    # the two mirror halves combine as S + eps conj(S), which leaves no rounding
    # in the part that parity makes zero
    for st in _parity_states(table1_levels, n_grid, [(1.0, 1, "even"), (1.0, 2, "odd")]):
        wave = wp.momentum_transform(st, n_points=1001)
        part = wave.phi.imag if st.parity == "even" else wave.phi.real
        assert np.all(part == 0.0), st.parity
        assert np.max(np.abs(wave.phi)) > 0.1


@pytest.mark.parametrize("n_grid", FOLD_GRIDS)
@pytest.mark.parametrize("n_points", [1001, 1000])
def test_transform_mirrors_the_upper_half_of_a_symmetric_grid(table1_levels, n_grid, n_points):
    # with and without a p = 0 point: the lower half is the conjugate of the
    # upper one, which is exactly what the upper half alone transforms to
    for st in _parity_states(table1_levels, n_grid, [(1.0, 1, "even"), (1.0, 2, "odd")]):
        grid = quantum.default_momentum_grid(st, n_points)
        mid = n_points // 2
        phi = wp.momentum_transform(st, p_grid=grid).phi
        upper = wp.momentum_transform(st, p_grid=grid[mid:]).phi
        assert np.array_equal(phi[mid:], upper)
        assert np.array_equal(phi[:mid], upper[::-1][:mid].conj())


@settings(max_examples=200, deadline=None)
@given(half=hnp.arrays(float, st.integers(2, 200), elements=st.floats(-1e3, 1e3)),
       parity=st.sampled_from(["even", "odd"]), a=st.floats(0.5, 50.0))
def test_eigenstate_is_its_half_mirrored_by_parity(half, parity, a):
    # the state cannot disagree with its parity label, so the transform
    # folds by the label with no check; an odd state's builder gives psi(0) = 0
    if parity == "odd":
        half[0] = 0.0
    spec = wp.infinite_well(a)
    state = wp.Eigenstate(energy=1.0, parity=parity, index=1, residual=0.0, n=2,
                          half=half, spec=spec)
    assert isinstance(state, wp.EigenLevel) and (state.residual, state.n) == (0.0, 2)
    n = len(half)
    sign = -1.0 if parity == "odd" else 1.0
    assert np.array_equal(state.psi, sign * state.psi[::-1])
    assert np.array_equal(state.psi[n - 1:], half)
    # the nodes linspace(0, a, n) mirrored: exactly antisymmetric
    assert len(state.grid) == 2 * n - 1
    assert np.array_equal(state.grid, -state.grid[::-1])
    assert np.array_equal(state.grid[n - 1:], np.linspace(0.0, a, n))
    assert state.grid[n - 1] == 0.0
    assert state.grid[0] == -a and state.grid[-1] == a
    for label, bad in (("both", half), (parity, np.stack([half, half])), (parity, half[:1])):
        with pytest.raises(ValueError):
            wp.Eigenstate(energy=1.0, parity=label, index=1, residual=0.0, n=2,
                          half=bad, spec=spec)


def _is_5_smooth(v):
    for d in (2, 3, 5):
        while v % d == 0:
            v //= d
    return v == 1


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 20000))
@example(n=1)
@example(n=7000)  # the CLI defaults
@example(n=5197)  # prime
def test_smooth_length_is_smallest_5_smooth(n):
    size = quantum._smooth_length(n)
    assert size >= n and _is_5_smooth(size)
    assert not any(_is_5_smooth(v) for v in range(n, size))


def test_transform_fft_length_at_cli_defaults(table1_states, monkeypatch):
    # 12001 nodes, two rows of 3000 with x >= 0, and the 2001 momenta p >= 0:
    # 3000 + 2001 - 1 = 5000 = 2^3 5^4, already 5-smooth
    _, _, st = table1_states[0]
    calls = []
    fft = np.fft.fft

    def recorded(a, n=None, *args, **kwargs):
        calls.append((np.shape(a)[-1], n))
        return fft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recorded)
    wp.momentum_transform(st, n_points=4001)
    assert {n for _, n in calls} == {5000}
    assert (3000, 5000) in calls


def test_uniform_grid_detection_fixed_grids():
    for grid in ([0.7], [0.01 * k for k in range(256)], np.linspace(-9.5, 9.5, 4001)):
        assert quantum._is_uniform(np.asarray(grid))
    assert not quantum._is_uniform(np.geomspace(0.01, 4.0, 300))


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-50.0, 50.0), hi=st.floats(-50.0, 50.0), n=st.integers(3, 5000),
       hbar=st.floats(0.05, 20.0))
@example(lo=0.0, hi=2.2e-311, n=7, hbar=0.3)  # subnormal step: absolute rounding
@example(lo=0.0, hi=5e-324, n=7, hbar=0.3)  # the 1e-9-of-span move rounds to 0
def test_uniform_grid_detection_linspace(lo, hi, n, hbar):
    assume(abs(hi - lo) > 1e-5 * max(abs(lo), abs(hi)))
    q = np.linspace(lo, hi, n) / hbar
    assert quantum._is_uniform(q)
    moved = q.copy()
    moved[n // 2] += 1e-9 * (hi - lo) / hbar
    # a uniform grid may already sit up to the subnormal floor off its ideal
    # points, so only a move beyond twice the floor must be seen
    floor = quantum._SUBNORMAL_ULPS * n * np.finfo(float).smallest_subnormal
    if abs(moved[n // 2] - q[n // 2]) > 2.0 * floor:
        assert not quantum._is_uniform(moved)


def test_transform_memory_budget_at_cli_defaults():
    st = wp.eigenstate_infinite_well(IW, 10, "even", n_grid=12001)
    wp.momentum_transform(st, n_points=4001)  # one-time allocations stay out
    tracemalloc.start()
    try:
        wp.momentum_transform(st, n_points=4001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # O(N + M); chunked dense phase blocks peak near 74 MB


def test_position_density_curve(table1_states):
    spec, level, st = table1_states[0]
    assert abs(np.trapezoid(st.psi ** 2, st.grid) - 1.0) < 1e-6
