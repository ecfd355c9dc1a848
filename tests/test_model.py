import pytest
from hypothesis import given, strategies as st

import wellprob as wp


def test_classical_state_table_row1():
    spec = wp.closed_court(a=25.0, v0=10.0)
    s = wp.classical_state(spec, 10.066)
    assert s.p_minus == pytest.approx(0.257, abs=1e-3)
    assert s.p_plus == pytest.approx(3.173, abs=1e-3)


def test_classical_state_infinite_well():
    s = wp.classical_state(wp.infinite_well(a=25.0), 4.0)
    assert s.p_minus == 0.0
    assert s.p_plus == pytest.approx(2.0)
    assert s.turning_points == (-25.0, 25.0)


def test_classical_state_table_row3_delta_p():
    s = wp.classical_state(wp.closed_court(a=25.0, v0=2.0), 10.105)
    assert s.delta_p == pytest.approx(0.332, abs=1e-3)


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
    with pytest.raises(wp.RegimeError):
        wp.classical_state(wp.closed_court(a=25.0, v0=0.0), 1.0)


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
