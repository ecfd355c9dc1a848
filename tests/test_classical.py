import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

import wellprob as wp
from wellprob import classical, cli, model
from wellprob.classical import position_cdf, momentum_cdf
import oracles
from oracles import half_period_quadrature, half_period_tanh_sinh, tanh_sinh

CC10 = wp.closed_court(a=25.0, v0=10.0)
CC2 = wp.closed_court(a=25.0, v0=2.0)
IW = wp.infinite_well(a=25.0)
BOUNCER = wp.bouncer(mass=1.0, g=1.0)
CHI2_9_Q99 = 21.666  # 99th percentile of chi-square with 9 dof


# ---------------------------------------------------------------------------
# half-period

CLOSED_COURTS = st.builds(lambda a, v0, ratio: (wp.closed_court(a=a, v0=v0), ratio * v0),
                          st.floats(1.0, 100.0), st.floats(0.1, 20.0), st.floats(1.001, 10.0))
INFINITE_WELLS = st.builds(lambda a, e: (wp.infinite_well(a=a), e),
                           st.floats(1.0, 100.0), st.floats(0.01, 100.0))
BOUNCERS = st.builds(lambda m, g, e: (wp.bouncer(mass=m, g=g), e),
                     st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 100.0))


@settings(max_examples=300)
@given(case=st.one_of(CLOSED_COURTS, INFINITE_WELLS, BOUNCERS))
@example(case=(CC10, 10.066))
# E - V at the apex rounds to ~eps E here; the u-substitution limit must stay 0
@example(case=(wp.bouncer(mass=9.980867821656812, g=0.8798200768090129), 70.75367929068614))
def test_half_period_matches_quadrature_oracles(case):
    spec, e = case
    tau = wp.classical_state(spec, e).tau
    assert half_period_quadrature(spec, e) == pytest.approx(tau, rel=1e-12)
    if spec.kind is not wp.PotentialKind.BOUNCER:
        # tanh-sinh reconstructs the apex distance inside the raw integrand,
        # which floors its bouncer accuracy near 1e-8
        assert half_period_tanh_sinh(spec, e) == pytest.approx(tau, rel=1e-10)


def test_half_period_scipy_adaptive_oracle():
    for spec, e in [(CC10, 10.066), (CC2, 10.105), (IW, 4.0)]:
        m = spec.constants.mass
        oracle = math.sqrt(m / 2.0) * quad(
            lambda x: 1.0 / math.sqrt(e - oracles.potential_by_kind(spec, x)),
            -spec.a, spec.a, points=[0.0], limit=200)[0]
        assert wp.classical_state(spec, e).tau == pytest.approx(oracle, rel=1e-9)
    # bouncer: integrable singularity at the apex
    oracle = math.sqrt(0.5) * quad(
        lambda z: 1.0 / math.sqrt(2.0 - oracles.potential_by_kind(BOUNCER, z)),
        0.0, 2.0, points=[2.0])[0]
    assert wp.classical_state(BOUNCER, 2.0).tau == pytest.approx(oracle, rel=1e-9)


def test_half_period_closed_court_value():
    # tau = (2a/V0) sqrt(2m) (sqrt(E) - sqrt(E - V0)) = 5 (p+ - p-) here
    s = wp.classical_state(CC10, 10.066)
    assert s.tau == pytest.approx(5.0 * (s.p_plus - s.p_minus), rel=1e-14)
    assert s.tau == pytest.approx(14.58, abs=2e-3)


def test_half_period_infinite_well_and_bouncer():
    assert wp.classical_state(IW, 4.0).tau == pytest.approx(25.0 / 2.0, rel=1e-14)  # a/sqrt(E)
    assert wp.classical_state(BOUNCER, 2.0).tau == pytest.approx(2.0, rel=1e-14)  # sqrt(2H/g)


def test_tanh_sinh_endpoint_singularity():
    assert tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0) == pytest.approx(2.0, rel=1e-10)
    assert tanh_sinh(np.cos, 0.0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# position density

def test_position_density_infinite_well_flat():
    d = wp.classical_position_density(IW, 4.0, grid=np.linspace(-24.0, 24.0, 11))
    assert np.allclose(d.values, 0.02, rtol=1e-14)


def test_position_density_bouncer_floor_value():
    d = wp.classical_position_density(BOUNCER, 2.0, grid=np.array([0.0]))
    assert d.values[0] == pytest.approx(0.25, rel=1e-12)  # 1/(2 sqrt(H H)), H=2


def test_position_density_closed_court_center_value():
    d = wp.classical_position_density(CC2, 10.105, grid=np.array([0.0]))
    e = 10.105
    closed = 2.0 / (4.0 * 25.0 * (math.sqrt(e) - math.sqrt(e - 2.0)) * math.sqrt(e))
    assert d.values[0] == pytest.approx(closed, rel=1e-12)
    assert d.values[0] == pytest.approx(0.01895, abs=2e-5)
    # cross-check against 1/(tau v) with the quadrature-oracle tau
    tau_q = half_period_quadrature(CC2, e)
    arc = wp.classical_state(CC2, e)
    assert 1.0 / (tau_q * arc.p_plus / arc.mass) == pytest.approx(closed, rel=1e-10)


def test_position_density_closed_form_everywhere():
    # m/(tau p) against the explicit closed-court formula, 1e-10 pointwise
    e = 10.066
    x = np.linspace(-24.9, 24.9, 1001)
    d = wp.classical_position_density(CC10, e, grid=x)
    closed = 10.0 / (4.0 * 25.0 * (math.sqrt(e) - math.sqrt(e - 10.0))
                     * np.sqrt(e - 10.0 * np.abs(x) / 25.0))
    assert np.max(np.abs(d.values / closed - 1.0)) < 1e-10


def _position_density_mp(spec, e, grid):
    """m / (tau p(|x|)) in 40 digits, the double inputs taken as exact:
    p(r)^2 = 2 m (E - F r), tau = sides 2 m x_out / (p_plus + p(x_out))."""
    with mpmath.workdps(40):
        m, e = mpmath.mpf(spec.constants.mass), mpmath.mpf(e)
        if spec.kind is wp.PotentialKind.BOUNCER:
            force, sides = m * mpmath.mpf(spec.constants.g), 1
            x_out = e / force
        else:
            force, x_out, sides = mpmath.mpf(spec.v0) / mpmath.mpf(spec.a), mpmath.mpf(spec.a), 2

        def p(r):
            return mpmath.sqrt(2 * m * (e - force * r))

        tau = sides * 2 * m * x_out / (p(0) + p(x_out))
        return [m / (tau * p(abs(mpmath.mpf(float(x))))) for x in grid]


@pytest.mark.parametrize("spec, e", [
    (CC10, 10.066), (CC10, 10.0 * (1.0 + 1e-6)), (CC10, 10.0 * (1.0 + 1e-10)),
    (wp.closed_court(a=17.3, v0=3.3), 3.3000001), (BOUNCER, 2.0), (IW, 4.0),
], ids=["25-10-table1", "25-10-1e-6-above", "25-10-1e-10-above", "17.3-3.3-near-v0",
        "bouncer", "infinite-well"])
def test_position_density_against_mpmath_on_the_default_grid(spec, e):
    # E - F |x| cancels at the walls like eps E / (E - V0) (7.1e-7 relative at
    # E = V0 (1 + 1e-10)); p_minus^2 + 2 m F (a - |x|) does not
    d = wp.classical_position_density(spec, e)
    ref = _position_density_mp(spec, e, d.grid)
    with mpmath.workdps(40):
        err = max(abs(mpmath.mpf(float(v)) / r - 1) for v, r in zip(d.values, ref))
    assert err <= 1e-15


def test_position_density_and_time_to_get_the_speed_from_the_arc_momentum(monkeypatch):
    # the arc's momentum(r) is the only speed formula: replaced by a constant,
    # the density and the arc times follow it exactly
    calls = []

    def constant_speed(self, r):
        calls.append(np.array(r, dtype=float))
        return np.full_like(calls[-1], 3.0)

    monkeypatch.setattr(model.ClassicalState, "momentum", constant_speed)
    for spec, e in ((CC10, 10.066), (BOUNCER, 2.0), (IW, 4.0)):
        arc = wp.classical_state(spec, e)
        lo, hi = arc.turning_points
        grid = np.linspace(lo, 0.9 * hi, 9)
        calls.clear()
        d = wp.classical_position_density(spec, e, grid=grid)
        assert np.array_equal(calls[0], np.abs(grid))
        assert np.all(d.values == arc.mass / (arc.tau * 3.0))
        r = np.abs(grid)
        assert np.array_equal(arc.time_to(r), 2.0 * arc.mass * r / (arc.p_plus + 3.0))


def test_position_density_normalization_defaults():
    for spec, e in [(CC10, 10.066), (CC2, 10.105), (IW, 4.0), (BOUNCER, 2.0)]:
        d = wp.classical_position_density(spec, e)
        assert abs(d.trapezoid_mass() - 1.0) < 1e-6, spec.kind


def test_position_density_support_errors():
    with pytest.raises(wp.SupportError):
        wp.classical_position_density(IW, 4.0, grid=np.array([26.0]))
    with pytest.raises(wp.SupportError):
        # the bouncer apex is a divergent-integrable endpoint
        wp.classical_position_density(BOUNCER, 2.0, grid=np.array([1.0, 2.0]))
    d = wp.classical_position_density(BOUNCER, 2.0)
    assert d.singular_points == (2.0,)
    assert d.omitted_mass > 0.0


def test_densities_reject_non_finite_grid_points():
    # NaN passed both the support check and the diff <= 0 check: the position
    # density came out NaN and the momentum density 0 (an infinite momentum too)
    with pytest.raises(ValueError, match="finite"):
        wp.classical_position_density(CC10, 10.066, grid=[0.0, math.nan])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            wp.classical_momentum_density(CC10, 10.066, grid=[0.1, bad])


@pytest.mark.parametrize("spec, e, grid, ends", [
    (CC10, 10.066, [-25.0 - 5e-13, 0.0, 25.0 + 5e-13], [-25.0, 0.0, 25.0]),
    (wp.bouncer(mass=0.5, g=1.0), 2.0, [-5e-13, 1.0], [0.0, 1.0]),
], ids=["closed-court-walls", "bouncer-floor"])
def test_position_density_in_the_support_tolerance_takes_the_end_value(spec, e, grid, ends):
    # the support check admits points up to 1e-12 outside the allowed region;
    # there V(x) was inf and the density NaN, with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = wp.classical_position_density(spec, e, grid=grid)
    assert np.array_equal(d.values, wp.classical_position_density(spec, e, grid=ends).values)


def test_density_curve_rejects_non_finite_values():
    # values < 0 is False for NaN, so the sign check let a NaN value through
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            wp.DensityCurve("position", np.array([0.0, 1.0]), np.array([bad, 1.0]),
                            ((0.0, 1.0),))


def test_position_cdf_endpoints_and_symmetry():
    arc = wp.classical_state(CC10, 10.066)
    assert position_cdf(arc, -25.0) == 0.0
    assert position_cdf(arc, 25.0) == 1.0
    assert position_cdf(arc, 0.0) == pytest.approx(0.5, rel=1e-14)
    assert position_cdf(wp.classical_state(BOUNCER, 2.0), 2.0) == 1.0


# ---------------------------------------------------------------------------
# momentum density

def test_momentum_density_closed_court_values():
    s = wp.classical_state(CC10, 10.066)
    d = wp.classical_momentum_density(CC10, 10.066, grid=np.array([0.1, 1.0]))
    assert d.values[0] == 0.0  # |p| < p_minus: off support
    assert d.values[1] == pytest.approx(1.0 / (2.0 * s.delta_p), rel=1e-12)
    assert d.values[1] == pytest.approx(0.17147, abs=1e-4)


def test_momentum_density_bouncer_flat():
    d = wp.classical_momentum_density(BOUNCER, 2.0, grid=np.array([-1.5, 0.0, 1.0]))
    assert np.allclose(d.values, 0.25, rtol=1e-14)  # 1/(2 p_m), p_m = 2


def test_momentum_density_infinite_well_rejected():
    with pytest.raises(wp.RegimeError):
        wp.classical_momentum_density(IW, 4.0)
    masses = wp.momentum_delta_masses(IW, 4.0)
    assert masses == [(-2.0, 0.5), (2.0, 0.5)]


def test_delta_pair_is_the_zero_width_band_of_any_kind():
    # V0 = 1e-17 leaves p_minus == p_plus: the infinite well's pair, whatever the kind
    pair = wp.momentum_delta_masses(IW, 10.0)
    assert wp.momentum_delta_masses(wp.closed_court(a=25.0, v0=1e-17), 10.0) == pair
    assert wp.momentum_delta_masses(wp.closed_court(a=25.0, v0=0.0), 10.0) == pair
    for spec, e in [(CC10, 10.066), (BOUNCER, 2.0)]:
        with pytest.raises(wp.RegimeError, match="has width"):
            wp.momentum_delta_masses(spec, e)


SMALL_UNITS = dict(hbar=1e-15, mass=1e-30)


def test_momentum_density_edge_slack_scales_with_the_band():
    # an absolute 1e-12 slack swamped a band of p_plus = 4.5e-15: every point of
    # the grid counted as on the band, a mass of 8.70
    masses = []
    for spec in (CC10, wp.closed_court(a=25.0, v0=10.0, **SMALL_UNITS)):
        p_plus = wp.classical_state(spec, 10.066).p_plus
        grid = np.linspace(-8.0 * p_plus, 8.0 * p_plus, 4001)
        d = wp.classical_momentum_density(spec, 10.066, grid=grid)
        assert abs(np.trapezoid(d.values, grid) - 1.0) <= 2e-3
        assert np.mean(d.values > 0.0) == pytest.approx(0.115, abs=1e-3)
        masses.append(d.trapezoid_mass())
    assert masses[1] == pytest.approx(masses[0], rel=1e-12)


def test_momentum_density_normalization():
    for spec, e in [(CC10, 10.066), (CC2, 10.105), (BOUNCER, 2.0)]:
        d = wp.classical_momentum_density(spec, e)
        assert abs(d.trapezoid_mass() - 1.0) < 1e-9


@settings(max_examples=50)
@given(p=st.floats(-4.0, 4.0))
def test_momentum_density_symmetric(p):
    for spec, e in [(CC10, 10.066), (BOUNCER, 2.0)]:
        d = wp.classical_momentum_density(spec, e, grid=np.array(sorted({-p, p})))
        assert d.values[0] == d.values[-1]


def test_momentum_branch_sum_equals_closed_form_quadrature_tau():
    # two branches of 1/(T|F|) vs the closed form 1/(2 dp), 1e-8 pointwise
    s = wp.classical_state(CC10, 10.066)
    grid = np.linspace(-s.p_plus, s.p_plus, 1000)
    d = wp.classical_momentum_density(CC10, 10.066, grid=grid)
    on = (np.abs(grid) >= s.p_minus) & (np.abs(grid) <= s.p_plus)
    assert np.max(np.abs(d.values[on] * 2.0 * s.delta_p - 1.0)) < 1e-8
    assert np.all(d.values[~on] == 0.0)


def test_flat_limit_of_position_density():
    # P_CL(x) -> 1/(2a) pointwise as V0 -> 0 at fixed E, a
    e, a = 10.105, 25.0
    x = np.linspace(-24.0, 24.0, 401)
    sups = []
    for v0 in (10.0, 6.0, 2.0, 0.2):
        d = wp.classical_position_density(wp.closed_court(a=a, v0=v0), e, grid=x)
        sups.append(np.max(np.abs(d.values - 1.0 / (2.0 * a))))
    assert all(b < c for b, c in zip(sups[1:], sups[:-1]))
    assert sups[-1] < 5e-4


# ---------------------------------------------------------------------------
# orbits

def test_trajectory_bouncer_examples():
    assert wp.trajectory(BOUNCER, 2.0, 0.0) == pytest.approx((0.0, 2.0))
    assert wp.trajectory(BOUNCER, 2.0, 2.0) == pytest.approx((2.0, 0.0))  # apex at tau


def test_trajectory_infinite_well_mid_crossing():
    tau = wp.classical_state(IW, 4.0).tau
    x, p = wp.trajectory(IW, 4.0, tau / 2.0)
    assert x == pytest.approx(0.0, abs=1e-12)
    assert abs(p) == pytest.approx(2.0)


@settings(max_examples=40)
@given(t=st.floats(0.0, 200.0))
def test_trajectory_conserves_energy(t):
    for spec, e in [(CC10, 10.066), (IW, 4.0), (BOUNCER, 2.0)]:
        x, p = wp.trajectory(spec, e, t)
        assert p * p / (2.0 * spec.constants.mass) + oracles.potential_by_kind(spec, x) == \
            pytest.approx(e, rel=1e-9)


def test_trajectory_periodicity():
    for spec, e in [(CC10, 10.066), (IW, 4.0), (BOUNCER, 2.0)]:
        period = wp.classical_state(spec, e).period
        t = np.linspace(0.0, period, 97, endpoint=False)
        x1, p1 = wp.trajectory(spec, e, t)
        x2, p2 = wp.trajectory(spec, e, t + 3.0 * period)
        assert np.allclose(x1, x2, atol=1e-9)
        assert np.allclose(p1, p2, atol=1e-9)


# ---------------------------------------------------------------------------
# histograms and draws

def test_projection_bouncer_momentum_flat_bins():
    h = wp.project_trajectory(BOUNCER, 2.0, 4, "momentum")
    assert np.allclose(h.bin_mass, 0.25, atol=1e-12)


def test_projection_infinite_well_position_uniform():
    h = wp.project_trajectory(IW, 4.0, 10, "position")
    assert np.allclose(h.bin_mass, 0.1, atol=1e-12)


def test_projection_bouncer_position_peaks_at_apex():
    h = wp.project_trajectory(BOUNCER, 2.0, 10, "position")
    assert h.bin_mass[-1] > h.bin_mass[0]
    assert h.bin_mass[-1] == max(h.bin_mass)


def test_projection_masses_sum_to_one():
    for spec, e in [(CC10, 10.066), (IW, 4.0), (BOUNCER, 2.0)]:
        for variable in ("position", "momentum"):
            h = wp.project_trajectory(spec, e, 37, variable)
            assert abs(h.bin_mass.sum() - 1.0) < 1e-9
            assert np.all(h.bin_mass >= -1e-15)


def test_projection_infinite_well_momentum_deltas():
    h = wp.project_trajectory(IW, 4.0, 8, "momentum")
    nonzero = np.nonzero(h.bin_mass)[0]
    assert len(nonzero) == 2
    assert np.allclose(h.bin_mass[nonzero], 0.5)


def test_projection_converges_to_density():
    # interior bins only; the apex bin is dominated by the divergence
    errs = []
    for n_bins in (10, 100, 1000):
        h = wp.project_trajectory(BOUNCER, 2.0, n_bins, "position")
        centers = 0.5 * (h.bin_edges[1:] + h.bin_edges[:-1])
        keep = centers < 0.8 * 2.0
        dens = wp.classical_position_density(BOUNCER, 2.0, grid=centers[keep]).values
        errs.append(np.max(np.abs(h.bin_mass[keep] / h.bin_width[keep] - dens)))
    assert errs[0] > errs[1] > errs[2]


def test_projection_rejects_single_bin():
    with pytest.raises(ValueError):
        wp.project_trajectory(BOUNCER, 2.0, 1, "position")


def test_momentum_cdf_closed_court_plateau():
    s = wp.classical_state(CC10, 10.066)
    assert momentum_cdf(s, -s.p_plus) == 0.0
    assert momentum_cdf(s, 0.0) == 0.5
    assert momentum_cdf(s, s.p_plus) == 1.0


def test_draws_reproducible_and_single():
    d1 = wp.sample_measurements(BOUNCER, 2.0, 1, seed=42)
    d2 = wp.sample_measurements(BOUNCER, 2.0, 1, seed=42)
    assert d1.times[0] == d2.times[0]
    assert d1.positions[0] == d2.positions[0]
    assert d1.momenta[0] == d2.momenta[0]
    assert wp.sample_measurements(BOUNCER, 2.0, 1, seed=43).times[0] != d1.times[0]


def test_draws_stay_on_support_closed_court():
    s = wp.classical_state(CC10, 10.066)
    d = wp.sample_measurements(CC10, 10.066, 1000, seed=12345)
    p_abs = np.abs(d.momenta)
    assert np.all(p_abs >= s.p_minus - 1e-9)
    assert np.all(p_abs <= s.p_plus + 1e-9)
    assert np.all((d.positions >= -25.0 - 1e-9) & (d.positions <= 25.0 + 1e-9))


def test_bouncer_momentum_draws_pass_chi2_flatness():
    d = wp.sample_measurements(BOUNCER, 2.0, 1000, seed=12345)
    counts, _ = np.histogram(d.momenta, bins=10, range=(-2.0, 2.0))
    chi2 = np.sum((counts - 100.0) ** 2 / 100.0)
    assert chi2 < CHI2_9_Q99


def test_measurement_histogram_bundles_draws():
    h = wp.measurement_histogram(BOUNCER, 2.0, 10, "momentum", 250, seed=9)
    assert h.n_draws == 250
    assert h.draws.shape == (250, 2)
    assert np.all(np.abs(h.draws[:, 1]) <= 2.0 + 1e-12)


def test_measurement_histogram_without_draws():
    h = wp.measurement_histogram(BOUNCER, 2.0, 10, "momentum", 0, seed=9)
    assert h.n_draws == 0
    assert h.draws.shape == (0, 2)
    ref = wp.project_trajectory(BOUNCER, 2.0, 10, "momentum")
    assert np.array_equal(h.bin_edges, ref.bin_edges)
    assert np.array_equal(h.bin_mass, ref.bin_mass)
    with pytest.raises(ValueError, match="n must be >= 1"):
        wp.sample_measurements(BOUNCER, 2.0, 0, seed=9)


# ---------------------------------------------------------------------------
# one constant-force arc against the per-kind closed forms

EPS = np.finfo(float).eps
# closed courts with V0/E >= 1e-3: below that the closed forms' own
# cancellation (sqrt(E) - sqrt(E - V0) over V0) passes 1e-12
ARC_CASES = st.one_of(
    st.builds(lambda a, v0, ratio: (wp.closed_court(a=a, v0=v0), ratio * v0),
              st.floats(1.0, 100.0), st.floats(0.01, 20.0), st.floats(1.001, 1000.0)),
    INFINITE_WELLS, BOUNCERS)


@settings(max_examples=200)
@given(case=ARC_CASES)
def test_arc_state_and_potential_match_closed_forms(case):
    spec, e = case
    s = wp.classical_state(spec, e)
    assert s.tau == pytest.approx(oracles.half_period_by_kind(spec, e), rel=1e-12)
    assert s.p_plus == math.sqrt(2.0 * spec.constants.mass * e)
    assert s.p_minus == oracles.p_minus_by_kind(spec, e)
    lo, hi = s.turning_points
    assert lo == (0.0 if spec.kind is wp.PotentialKind.BOUNCER else -spec.a)
    assert hi == pytest.approx(e / (spec.constants.mass * spec.constants.g)
                               if spec.kind is wp.PotentialKind.BOUNCER else spec.a, rel=1e-15)
    # on the allowed region the potential is the arc's F |x|
    x = np.linspace(lo, hi, 101)
    ref = oracles.potential_by_kind(spec, x)
    assert np.all(np.isfinite(ref))
    assert np.allclose(s.force * np.abs(x), ref, rtol=1e-12, atol=0.0)


@settings(max_examples=200)
@given(case=ARC_CASES)
def test_arc_cdfs_match_closed_forms(case):
    spec, e = case
    s = wp.classical_state(spec, e)
    lo, hi = s.turning_points
    x = np.concatenate([np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 241), [0.0]])
    assert np.max(np.abs(position_cdf(s, x)
                         - oracles.position_cdf_by_kind(spec, e, x))) <= 1e-12
    q = np.concatenate([np.linspace(-1.2 * s.p_plus, 1.2 * s.p_plus, 241),
                        [-s.p_plus, -s.p_minus, 0.0, s.p_minus, s.p_plus]])
    assert np.max(np.abs(momentum_cdf(s, q)
                         - oracles.momentum_cdf_by_kind(spec, e, q))) <= 1e-12


@settings(max_examples=200)
@given(case=ARC_CASES, phase=st.floats(0.0, 1.0, exclude_max=True))
def test_arc_trajectory_matches_closed_forms(case, phase):
    # one period: the closed form's tau, off by up to ~eps E/V0, shifts its
    # orbit further with every period
    spec, e = case
    s = wp.classical_state(spec, e)
    arcs = 2 if spec.kind is wp.PotentialKind.BOUNCER else 4
    # a wall or the floor flips p; the two forms may put that instant on either side
    assume(abs(phase * arcs - round(phase * arcs)) > 1e-9)
    x, p = wp.trajectory(spec, e, phase * s.period)
    x_ref, p_ref = oracles.trajectory_by_kind(spec, e, phase * s.period)
    x_scale = max(-s.turning_points[0], s.turning_points[1])
    assert x == pytest.approx(x_ref, abs=1e-12 * x_scale)
    assert p == pytest.approx(p_ref, abs=1e-12 * s.p_plus)


@settings(max_examples=100)
@given(case=ARC_CASES, n_points=st.integers(16, 600))
def test_arc_default_grid_matches_closed_forms(case, n_points):
    spec, e = case
    s = wp.classical_state(spec, e)
    grid = wp.classical.default_position_grid(s, n_points)
    ref = oracles.position_grid_by_kind(spec, e, n_points)
    assert grid.shape == ref.shape
    assert np.max(np.abs(grid - ref)) <= 1e-12 * s.turning_points[1]
    if spec.kind is not wp.PotentialKind.INFINITE_WELL:
        mid_band = np.array([0.5 * (s.p_minus + s.p_plus)])
        d = wp.classical_momentum_density(spec, e, grid=mid_band)
        assert d.values[0] == pytest.approx(oracles.momentum_density_by_kind(spec, e), rel=1e-12)


@settings(max_examples=200)
@given(case=st.one_of(CLOSED_COURTS, INFINITE_WELLS, BOUNCERS), u=st.floats(0.0, 1.0))
def test_position_cdf_inverts_the_orbit(case, u):
    spec, e = case
    arc = wp.classical_state(spec, e)
    x = wp.trajectory(spec, e, u * arc.tau)[0]
    # near the bouncer's apex x rounds to a few ulps of H, which the CDF's
    # square root turns into up to sqrt(ulp/H) ~ 1e-8
    near_apex = spec.kind is wp.PotentialKind.BOUNCER and u > 1.0 - 1e-4
    assert position_cdf(arc, x) == pytest.approx(u, abs=1e-7 if near_apex else 1e-12)


@pytest.mark.parametrize("v0", [1e-3, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
def test_closed_court_tends_to_the_infinite_well(v0):
    # tau = tau_IW 2 / (1 + sqrt(1 - V0/E)); the closed form divided a
    # difference of square roots by V0, off by 2.6e-5 at V0 = 1e-10
    spec = wp.closed_court(a=25.0, v0=v0)
    tau_iw = wp.classical_state(wp.infinite_well(a=25.0), 10.0).tau
    expected = tau_iw * 2.0 / (1.0 + math.sqrt(1.0 - v0 / 10.0))
    assert wp.classical_state(spec, 10.0).tau == pytest.approx(expected, rel=1e-14)
    assert wp.classical_position_density(spec, 10.0).trapezoid_mass() == pytest.approx(
        1.0, abs=1e-12)


def test_closed_court_band_below_rounding_is_the_infinite_well_pair():
    # V0 = 1e-17 leaves E - V0 == E: p_minus == p_plus, a band of zero width
    spec = wp.closed_court(a=25.0, v0=1e-17)
    with pytest.raises(wp.RegimeError, match="zero width"):
        wp.classical_momentum_density(spec, 10.0)
    h = wp.project_trajectory(spec, 10.0, 8, "momentum")
    assert np.array_equal(h.bin_mass, wp.project_trajectory(IW, 10.0, 8, "momentum").bin_mass)


# ---------------------------------------------------------------------------
# one arc per call

@pytest.fixture
def arc_builds(monkeypatch):
    """Energies of every arc built through the classical layer or the CLI."""
    built = []

    def spy(spec, energy):
        built.append(energy)
        return model.classical_state(spec, energy)

    for module in (classical, cli):
        monkeypatch.setattr(module, "classical_state", spy)
    return built


@pytest.mark.parametrize("name, args", [
    ("classical_position_density", (BOUNCER, 2.0)),
    ("classical_momentum_density", (CC10, 10.066)),
    ("momentum_delta_masses", (IW, 4.0)),
    ("trajectory", (CC10, 10.066, np.linspace(0.0, 60.0, 7))),
    ("project_trajectory", (CC10, 10.066, 10, "position")),
    ("sample_measurements", (IW, 4.0, 50, 7)),
    ("measurement_histogram", (BOUNCER, 2.0, 10, "momentum", 50, 7)),
])
def test_each_public_classical_call_builds_the_arc_once(arc_builds, name, args):
    getattr(classical, name)(*args)
    assert arc_builds == [args[1]]


_CLASSICAL_RUN = ("task.n_bins=20", "task.n_draws=500")


@pytest.mark.parametrize("command, overrides, most", [
    ("classical", ("potential.kind=bouncer", "task.energy=2", *_CLASSICAL_RUN), 8),
    ("classical", ("potential.kind=infinite_well", "potential.a=25", "task.energy=4",
                   *_CLASSICAL_RUN), 8),
    ("classical", ("potential.kind=closed_court", "potential.a=25", "potential.v0=10",
                   "task.energy=10.5", *_CLASSICAL_RUN), 8),
    ("bounce-sim", (), 7),
], ids=["classical-bouncer", "classical-infinite-well", "classical-closed-court", "bounce-sim"])
def test_one_cli_run_builds_few_arcs(arc_builds, tmp_path, capsys, command, overrides, most):
    args = [command, "--out", str(tmp_path)]
    for item in overrides:
        args += ["--set", item]
    assert cli.main(args) == 0
    assert 0 < len(arc_builds) <= most


@pytest.mark.parametrize("command, overrides, n_draws", [
    ("classical", ("potential.kind=bouncer", "task.energy=2", *_CLASSICAL_RUN), 500),
    ("bounce-sim", (), 1000),
], ids=["classical", "bounce-sim"])
def test_one_cli_run_draws_one_sample(monkeypatch, tmp_path, capsys, command, overrides,
                                      n_draws):
    # the histograms carry no draws: the draws table is the run's only sample
    calls, draws = [], classical._draws

    def spy(arc, n, seed):
        calls.append(n)
        return draws(arc, n, seed)

    monkeypatch.setattr(classical, "_draws", spy)
    args = [command, "--out", str(tmp_path)]
    for item in overrides:
        args += ["--set", item]
    assert cli.main(args) == 0
    assert calls == [n_draws]
