import mpmath
import pytest
from hypothesis import given, strategies as st

import wellprob as wp


def test_classical_state_table_row1():
    spec = wp.closed_court(a=25.0, v0=10.0)
    s = wp.classical_state(spec, 10.066)
    assert s.p_minus == pytest.approx(0.257, abs=1e-3)
    assert s.p_plus == pytest.approx(3.173, abs=1e-3)


def test_classical_state_infinite_well():
    # the closed court's F = 0 arc: |p| is p_plus all the way to the walls
    s = wp.classical_state(wp.infinite_well(a=25.0), 4.0)
    assert s.p_minus == s.p_plus
    assert s.delta_p == 0.0
    assert s.p_plus == pytest.approx(2.0)
    assert s.turning_points == (-25.0, 25.0)


def test_classical_state_table_row3_delta_p():
    s = wp.classical_state(wp.closed_court(a=25.0, v0=2.0), 10.105)
    assert s.delta_p == pytest.approx(0.332, abs=1e-3)


@pytest.mark.parametrize("a", [25.0, 17.3])
@pytest.mark.parametrize("v0", [6.0, 1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-15])
def test_delta_p_against_mpmath(a, v0):
    # p_plus - p_minus cancels like eps E / V0 (2.5e-7 relative at V0 = 1e-8, 180%
    # at 1e-15); 2 m F x_out / (p_plus + p_minus) does not
    s = wp.classical_state(wp.closed_court(a=a, v0=v0), 10.0)
    with mpmath.workdps(50):
        m, e = mpmath.mpf(s.mass), mpmath.mpf(10.0)
        ref = mpmath.sqrt(2 * m * e) - mpmath.sqrt(2 * m * (e - mpmath.mpf(v0)))
        assert abs(mpmath.mpf(s.delta_p) / ref - 1) <= 2.5e-16


def test_bouncer_delta_p_is_p_plus():
    # the CLI's default bouncer (m = 0.5, g = 1) at E = 2: the identity was 1 ulp off
    s = wp.classical_state(wp.bouncer(mass=0.5, g=1.0), 2.0)
    assert s.p_minus == 0.0
    assert s.delta_p == s.p_plus


@given(mass=st.floats(0.1, 10.0), g=st.floats(0.1, 10.0), e=st.floats(0.1, 100.0))
def test_bouncer_delta_p_within_rounding_of_p_plus(mass, g, e):
    # an arc that ends at rest takes p_plus itself: 2 m (m g) (E / (m g)) / p_plus
    # rounds five times, up to 3 ulps off over 2e5 random bouncers
    s = wp.classical_state(wp.bouncer(mass=mass, g=g), e)
    assert s.delta_p == s.p_plus


def test_bouncer_height_times_mg_is_energy():
    spec = wp.bouncer(mass=1.3, g=2.7)
    s = wp.classical_state(spec, 5.0)
    height = s.turning_points[1]
    assert height * 1.3 * 2.7 == pytest.approx(5.0, rel=1e-12)


@given(e_over_v0=st.floats(1.0 + 1e-6, 50.0), v0=st.floats(0.01, 100.0))
def test_momentum_bounds_identity(e_over_v0, v0):
    spec = wp.closed_court(a=25.0, v0=v0)
    s = wp.classical_state(spec, e_over_v0 * v0)
    m = spec.constants.mass
    assert s.p_plus ** 2 - s.p_minus ** 2 == pytest.approx(2.0 * m * v0, rel=1e-12)


def test_classical_state_deterministic():
    spec = wp.closed_court(a=25.0, v0=10.0)
    a = wp.classical_state(spec, 10.066)
    b = wp.classical_state(spec, 10.066)
    assert (a.energy, a.p_minus, a.p_plus, a.tau, a.turning_points) == \
           (b.energy, b.p_minus, b.p_plus, b.tau, b.turning_points)


def test_regime_rejections():
    cc = wp.closed_court(a=25.0, v0=10.0)
    with pytest.raises(wp.RegimeError):
        wp.classical_state(cc, 10.0)  # E == V0
    with pytest.raises(wp.RegimeError):
        wp.classical_state(cc, -1.0)
    # V0 = 0 is no regime error: the closed court's arc is the infinite well's, bit for bit
    assert wp.classical_state(wp.closed_court(a=25.0, v0=0.0), 1.0) == \
           wp.classical_state(wp.infinite_well(a=25.0), 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        wp.infinite_well(a=-1.0)
    with pytest.raises(ValueError):
        wp.closed_court(a=25.0, v0=-2.0)
    with pytest.raises(ValueError):
        wp.Constants(hbar=0.0)
    with pytest.raises(ValueError):
        wp.Constants(mass=-1.0)


def test_default_constants_are_scaled_units():
    c = wp.Constants()
    assert c.hbar == 1.0 and 2.0 * c.mass == 1.0


@pytest.mark.parametrize("kind", ["bouncer", "infinite_well"])
def test_v0_belongs_to_the_closed_court(kind):
    # a well's arc reads v0 as its ramp, so another kind may not carry one
    with pytest.raises(ValueError, match="closed court only"):
        wp.PotentialSpec(kind, a=25.0, v0=3.0)
    assert wp.PotentialSpec(kind, a=25.0).v0 == 0.0
