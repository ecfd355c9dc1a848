import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

import oracles
import wellprob as wp
from wellprob import airy
from wellprob.airy import Z_SWITCH
from oracles import modulus_phase


# High-precision references (50-digit mpmath, rounded to double).  The
# points just past |z| = 9 cover the band where the asymptotic terms reach
# their smallest before the last coefficient.
MPMATH_REFS = {
    -60.0: (0.07778782447711559, -0.1871968328829833,
            1.4503455958642244, 0.6017623499162852),
    -30.0: (-0.087968188456842163, -0.22444694220056632,
            1.2286206026374851, -0.48369472582768149),
    -20.0: (-0.1764061270779847, -0.20013930932265134,
            0.8928628567364713, -0.7914290338395364),
    -9.5: (0.3191032477191282, 0.037785432489466502,
           -0.10809531881187124, 0.9847140700021197),
    -9.2: (0.16526800465147903, 0.2785842543571156,
           -0.8406710738038019, 0.5089440155457826),
    -9.0001: (-0.022036154154691352, 0.32495304888385956,
              -0.9756838574808899, -0.0571080570491682),
    0.5: (0.23169360648083349, 0.85427704310315549,
          -0.22491053266468389, 0.5445725641405923),
    5.0: (0.00010834442813607442, 657.79204417117118,
          -0.00024741389086846248, 1435.8190802179825),
    8.9: (3.3420610425186999e-9, 15966418.120232323,
          -1.0062109921836912e-8, 47172696.726445931),
    9.0001: (2.470420477925297e-09, 21479250.606791824,
             -7.478417662313322e-09, 63826818.34192302),
    9.2: (1.3444621833707162e-09, 39035987.73643375,
          -4.113712442807929e-09, 117316098.33731891),
    12.0: (1.3931846888753608e-13, 329807225829.07418,
           -4.8547365549853085e-13, 1135507502443.3707),
    20.0: (1.6916728686705404e-27, 2.103765049651104e+25,
           -7.586391625748354e-27, 9.381839336133965e+25),
    40.0: (6.3657426585529149e-75, 3.9531393024385935e+72,
           -4.030017977600678e-74, 2.4977079681706969e+73),
    100.0: (2.6344821520881845e-291, 6.0412239966702014e+288,
            -2.6351403616044099e-290, 6.0397127453106029e+289),
}


def _taylor(z):
    """(ai, bi, ai', bi') rows with every point summed by its anchor's series."""
    z = np.asarray(z, dtype=float)
    return airy._values(z, np.full(z.shape, True))


def _asymptotic(z):
    """(ai, bi, ai', bi') rows with every point from the asymptotic forms."""
    z = np.asarray(z, dtype=float)
    return airy._values(z, np.full(z.shape, False))


def _airy_at(z):
    """(ai, bi, ai', bi') at one point, from a one-element airy_eval_many call."""
    return tuple(float(v[0]) for v in wp.airy_eval_many(np.array([z])))


def test_values_at_zero_against_gamma_oracle():
    # Ai(0) = 3^(-2/3)/Gamma(2/3), Ai'(0) = -3^(-1/3)/Gamma(1/3),
    # Bi(0) = sqrt(3) Ai(0), Bi'(0) = -sqrt(3) Ai'(0).
    ai, bi, aip, bip = _airy_at(0.0)
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    assert ai == pytest.approx(ai0, rel=1e-13)
    assert aip == pytest.approx(aip0, rel=1e-13)
    assert bi == pytest.approx(math.sqrt(3.0) * ai0, rel=1e-13)
    assert bip == pytest.approx(-math.sqrt(3.0) * aip0, rel=1e-13)
    # ten-digit values quoted for the same constants
    assert ai == pytest.approx(0.3550280539, abs=1e-9)
    assert bi == pytest.approx(0.6149266274, abs=1e-9)
    assert aip == pytest.approx(-0.2588194038, abs=1e-9)
    assert bip == pytest.approx(0.4482883574, abs=1e-9)


def test_first_zero_of_ai_by_bisection():
    lo, hi = -2.5, -2.0
    flo = _airy_at(lo)[0]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = _airy_at(mid)[0]
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(-2.33810741, abs=1e-8)
    assert 0.5 * (lo + hi) == pytest.approx(-2.3381074104597670, abs=1e-12)


def test_mpmath_reference_points():
    for z, ref in MPMATH_REFS.items():
        for got, want in zip(_airy_at(z), ref):
            assert got == pytest.approx(want, rel=5e-13), z


@pytest.mark.parametrize("batch", [
    [0.0], [1e-9], [-3e-3], [9.6], [-9.6], [6.5], [-5.0],
    [1e-9, 9.6], [-9.6, 2e-3], [-1e-9, 9.55, -3e-3, -9.59],
    [0.0, 1e-9, -1e-9, 2e-3, -3e-3, 6.5, -5.0, 9.3, -9.4, 9.6, -9.6],
], ids=str)
def test_maclaurin_mixed_batches_against_mpmath(batch):
    # Each point sums the series about its own nearest anchor (for
    # |z| <= 1/4 the Maclaurin series), so a value must not depend on which
    # other points share its batch.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    values = _taylor(np.array(batch))
    for i, z in enumerate(batch):
        ref = (mpmath.airyai(z), mpmath.airybi(z),
               mpmath.airyai(z, derivative=1), mpmath.airybi(z, derivative=1))
        for got, want in zip((v[i] for v in values), ref):
            assert got == pytest.approx(float(want), rel=5e-13), z


def test_wronskian_invariant_10k_points():
    rng = np.random.default_rng(20210517)
    z = rng.uniform(-40.0, 40.0, 10_000)
    ai, bi, aip, bip = wp.airy_eval_many(z)
    w = ai * bip - aip * bi
    assert np.max(np.abs(w - 1.0 / math.pi)) * math.pi < 1e-10


def test_against_scipy_envelope_relative():
    rng = np.random.default_rng(3)
    z = np.sort(rng.uniform(-40.0, 40.0, 4000))
    ai, bi, aip, bip = wp.airy_eval_many(z)
    sai, saip, sbi, sbip = special.airy(z)
    neg = z < 0
    # oscillatory side: compare against the local envelope (Ai, Bi are a
    # quadrature pair, so hypot is the right scale near their zeros)
    env = np.hypot(sai, sbi)[neg]
    assert np.max(np.abs(ai[neg] - sai[neg]) / env) < 1e-10
    assert np.max(np.abs(bi[neg] - sbi[neg]) / env) < 1e-10
    env_p = np.hypot(saip, sbip)[neg]
    assert np.max(np.abs(aip[neg] - saip[neg]) / env_p) < 1e-10
    assert np.max(np.abs(bip[neg] - sbip[neg]) / env_p) < 1e-10
    pos = ~neg
    assert np.max(np.abs(ai[pos] / sai[pos] - 1.0)) < 1e-10
    assert np.max(np.abs(bi[pos] / sbi[pos] - 1.0)) < 1e-10
    assert np.max(np.abs(aip[pos] / saip[pos] - 1.0)) < 1e-10
    assert np.max(np.abs(bip[pos] / sbip[pos] - 1.0)) < 1e-10


def _local_scale(z, f, fp):
    # the residual's truncation term mixes f and f', so the local magnitude
    # is the envelope max(|z f|, |f|, |f'|), not |f| alone (near a zero of
    # Ai the 2 f' part of f'''' dominates)
    return np.maximum(np.abs(z * f), np.maximum(np.abs(f), np.abs(fp)))


def test_ode_residual_central_differences():
    # f'' = z f checked with plain central differences where the h^2
    # truncation term (h^2/12)(z^2 f + 2 f') stays below the 1e-6 budget
    h = 1e-3
    z = np.linspace(-3.0, 3.0, 61)
    vals = {s: wp.airy_eval_many(z + s * h) for s in (-1, 0, 1)}
    for pick in (0, 1):  # Ai and Bi
        fdd = (vals[1][pick] - 2.0 * vals[0][pick] + vals[-1][pick]) / (h * h)
        resid = np.abs(fdd - z * vals[0][pick])
        scale = _local_scale(z, vals[0][pick], vals[0][pick + 2])
        assert np.all(resid <= 1e-6 * scale)


def test_ode_residual_wide_range_high_order():
    # same residual on [-35, 35] with a 5-point stencil (the h^2 term of
    # the 3-point stencil exceeds 1e-6 beyond |z| ~ 3.2)
    h = 1e-3
    z = np.linspace(-35.0, 35.0, 71)
    vals = {s: wp.airy_eval_many(z + s * h) for s in (-2, -1, 0, 1, 2)}
    for pick in (0, 1):
        fdd = (-vals[2][pick] + 16 * vals[1][pick] - 30 * vals[0][pick]
               + 16 * vals[-1][pick] - vals[-2][pick]) / (12.0 * h * h)
        resid = np.abs(fdd - z * vals[0][pick])
        scale = _local_scale(z, vals[0][pick], vals[0][pick + 2])
        assert np.all(resid <= 1e-6 * scale)


def test_crossover_continuity_band():
    for band in (np.linspace(9.0, 9.6, 31), -np.linspace(9.0, 9.6, 31)):
        mac = _taylor(band)
        asym = _asymptotic(band)
        for m_vals, a_vals in zip(mac, asym):
            rel = np.abs(np.asarray(m_vals) - np.asarray(a_vals)) / np.abs(a_vals)
            assert np.max(rel) < 1e-9


def test_bi_overflow_and_domain_errors():
    with pytest.raises(wp.AiryOverflowError):
        _airy_at(110.0)
    with pytest.raises(ValueError):
        _airy_at(1.1e4)
    bi = _airy_at(103.0)[1]  # just below the overflow boundary
    assert math.isfinite(bi) and bi > 1e250


@pytest.mark.parametrize("batch", [[math.nan], [math.nan, 1.0], [1.0, math.inf],
                                   [-math.inf, -20.0, 20.0]], ids=str)
def test_non_finite_input_raises(batch):
    # a NaN falls into no regime; it must not come back as uninitialised memory
    with pytest.raises(ValueError, match="finite"):
        wp.airy_eval_many(np.array(batch))


# regime name -> sampling interval: Taylor |z| <= 9, asymptotic beyond
_REGIMES = {"taylor": (-9.0, 9.0), "asym_pos": (9.0, 103.0), "asym_neg": (-1e4, -9.0)}
# the phases have no overflow bound on z > 9: past z ~ 66, M^2 and N^2 read inf
_PHASE_REGIMES = {**_REGIMES, "asym_pos": (9.0, 200.0)}


@settings(max_examples=60, deadline=None)
@given(regimes=st.sets(st.sampled_from(sorted(_REGIMES)), min_size=1),
       n=st.integers(1, 1200), chunk=st.integers(1, 700), seed=st.integers(0, 2 ** 32 - 1))
@example(regimes={"taylor"}, n=1, chunk=1, seed=0)
@example(regimes={"taylor"}, n=1100, chunk=600, seed=1)  # crosses the 512-point gather
@example(regimes=set(_REGIMES), n=1025, chunk=513, seed=2)
def test_each_point_is_bit_equal_alone_in_chunks_and_in_the_batch(regimes, n, chunk, seed):
    # every point's series is contracted on its own, never in a product
    # across points, so the batch it shares cannot change a bit (the level
    # search relies on this: a root's Newton steps must not depend on the
    # other roots in its call)
    rng = np.random.default_rng(seed)
    bounds = np.array([_REGIMES[r] for r in sorted(regimes)])
    pick = rng.integers(len(bounds), size=n)
    z = rng.uniform(bounds[pick, 0], bounds[pick, 1])
    batch = np.array(wp.airy_eval_many(z))
    chunked = np.concatenate([np.array(wp.airy_eval_many(z[i:i + chunk]))
                              for i in range(0, n, chunk)], axis=1)
    assert np.array_equal(chunked, batch)
    for i in rng.choice(n, size=min(n, 16), replace=False):
        assert np.array_equal(np.array(wp.airy_eval_many(z[i:i + 1]))[:, 0], batch[:, i])


def test_far_negative_axis_still_sane():
    # documented regime beyond the 1e-10 band: phase reduction limits accuracy
    ai, bi, aip, bip = _airy_at(-9999.0)
    w = ai * bip - aip * bi
    assert w * math.pi == pytest.approx(1.0, abs=1e-8)


def test_anchor_series_against_mpmath():
    # Every anchor value is derived at import by stepping the series from
    # the closed forms at 0 (and the asymptotic Ai at the top anchor); check
    # each anchor and the farthest points each series serves, |t| = 1/4.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for offset, bound in ((0.0, 1e-14), (-0.25, 5e-13), (0.25, 5e-13)):
        z = 0.5 * np.arange(-20, 21) + offset  # the 41 anchors j/2, |j| <= 20
        values = np.array(_taylor(z))
        for i, zi in enumerate(z):
            ref = np.array([float(f(zi, derivative=d)) for d in (0, 1)
                            for f in (mpmath.airyai, mpmath.airybi)])
            if zi >= 0:
                err = np.abs(values[:, i] / ref - 1.0)
            else:  # relative to the envelope: Ai and Bi oscillate on z < 0
                env = np.hypot(ref[0], ref[1]), np.hypot(ref[2], ref[3])
                err = np.abs(values[:, i] - ref) / np.repeat(env, 2)
            assert np.max(err) < bound, zi


def test_taylor_table_is_unchanged_by_the_slope_split():
    # the local series no longer carries slope rows; only the anchor build adds them
    assert np.array_equal(airy._TABLE[:-1], oracles.taylor_table_with_slopes())


def test_modulus_phase_is_silent_and_finite_up_to_the_bi_bound():
    # Bi^2 leaves the double range near z = 66, well below Bi's own bound:
    # M^2 and N^2 may be inf there, but no warning and no NaN phase
    z = np.linspace(-200.0, 100.0, 30001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m2, theta, n2, phi = modulus_phase(z, *wp.airy_eval_many(z))
    assert np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))
    assert not np.any(np.isnan(m2)) and not np.any(np.isnan(n2))
    assert np.isinf(m2[-1]) and np.all(np.diff(theta) >= 0.0)


def _mp_offsets(z):
    """(M^2, theta - ref, N^2, phi - ref) at z from 50-digit mpmath, with
    ref = pi/4 - (2/3) max(-z, 0)^1.5, each offset reduced as _phases does."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        ref = mpmath.pi / 4 - mpmath.mpf(2) / 3 * max(-z, 0) ** 1.5
        out = []
        for d, centre in ((0, 0), (1, mpmath.pi / 2)):
            ai, bi = mpmath.airyai(z, d), mpmath.airybi(z, d)
            off = mpmath.atan2(bi, ai) - ref
            off -= 2 * mpmath.pi * mpmath.nint((off - centre) / (2 * mpmath.pi))
            out += [ai * ai + bi * bi, off]
        return out


@pytest.mark.parametrize("z", [-3000.0, -200.0, -60.0, -9.5, -9.0001, -9.0, -3.3, 0.0,
                               4.1, 9.0, 9.2, 30.0, 70.0, 123.5])
def test_phases_against_mpmath(z):
    # every regime, with no zeta * eps error in the phases on the far negative
    # axis (measured at most 2.2e-16 there; 1.3e-15 at z = -9, the rounding of
    # ref = -17.2 that the Taylor phase is reduced by).  The moduli carry the
    # rounding of zeta in exp(2 zeta) on z > 9 (measured 2.3 (zeta + 1) eps),
    # and past z ~ 66 leave the double range and read inf, silently.
    m2, theta, n2, phi = (float(v[0]) for v in airy._phases(np.array([z])))
    ref = _mp_offsets(z)
    assert abs(theta - float(ref[1])) <= 2e-15 and abs(phi - float(ref[3])) <= 2e-15
    zeta = (2.0 / 3.0) * abs(z) ** 1.5
    for ours, exact in ((m2, ref[0]), (n2, ref[2])):
        if exact > np.finfo(float).max:
            assert ours == math.inf
        else:
            assert abs(ours / float(exact) - 1.0) <= 4.0 * (zeta + 1.0) * np.finfo(float).eps


def test_phases_are_silent_monotone_and_batch_independent():
    # theta' = 1/(pi M^2) >= 0; each point's four values are bit-equal alone,
    # in chunks and in the batch (the level solve relies on it); the unwrapped
    # phases of the Airy values agree to their own zeta * eps error
    z = np.linspace(-3000.0, 200.0, 32001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = np.array(airy._phases(z))
    ref = 0.25 * math.pi - (2.0 / 3.0) * np.maximum(-z, 0.0) ** 1.5
    assert np.all(np.isfinite(batch[[1, 3]])) and np.all(np.diff(ref + batch[1]) >= 0.0)
    assert np.isinf(batch[0, -1]) and not np.any(np.isnan(batch))
    chunked = np.concatenate([np.array(airy._phases(z[i:i + 777])) for i in range(0, len(z), 777)],
                             axis=1)
    assert np.array_equal(chunked, batch)
    for i in range(0, len(z), 1601):
        assert np.array_equal(np.array(airy._phases(z[i:i + 1]))[:, 0], batch[:, i])
    low = z <= 100.0
    _, theta, _, phi = modulus_phase(z[low], *wp.airy_eval_many(z[low]))
    zeta = (2.0 / 3.0) * np.abs(z[low]) ** 1.5
    assert np.all(np.abs(ref[low] + batch[1, low] - theta) <= 4.0 * (zeta + 1.0) * 2.2e-16)
    assert np.all(np.abs(ref[low] + batch[3, low] - phi) <= 4.0 * (zeta + 1.0) * 2.2e-16)


# the regime seams, hit exactly: each side of them is summed by another series
_SEAMS = (-Z_SWITCH, 0.0, Z_SWITCH)


@settings(max_examples=60, deadline=None)
@given(regimes=st.sets(st.sampled_from(sorted(_PHASE_REGIMES)), min_size=1),
       n=st.integers(1, 1200), chunk=st.integers(1, 700), seams=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32 - 1))
@example(regimes={"taylor"}, n=1, chunk=1, seams=1, seed=0)
@example(regimes=set(_PHASE_REGIMES), n=1100, chunk=600, seams=8, seed=1)
@example(regimes=set(_PHASE_REGIMES), n=1025, chunk=513, seams=3, seed=2)
def test_each_phase_is_bit_equal_alone_in_chunks_and_in_the_batch(regimes, n, chunk, seams,
                                                                  seed):
    # the phase pass contracts the points of all regimes in one product and
    # finishes them by masks; still no point's four values may depend on its
    # batch, at the seams z = -9, 0, 9 included (the level solve relies on it)
    rng = np.random.default_rng(seed)
    bounds = np.array([_PHASE_REGIMES[r] for r in sorted(regimes)])
    pick = rng.integers(len(bounds), size=n)
    z = rng.uniform(bounds[pick, 0], bounds[pick, 1])
    z[rng.choice(n, size=min(n, seams), replace=False)] = rng.choice(_SEAMS, size=min(n, seams))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = np.array(airy._phases(z))
    chunked = np.concatenate([np.array(airy._phases(z[i:i + chunk])) for i in range(0, n, chunk)],
                             axis=1)
    assert np.array_equal(chunked, batch)
    for i in rng.choice(n, size=min(n, 16), replace=False):
        assert np.array_equal(np.array(airy._phases(z[i:i + 1]))[:, 0], batch[:, i])
    for seam in _SEAMS:  # each seam alone, as in the batch
        at = np.flatnonzero(z == seam)
        if len(at):
            assert np.array_equal(np.array(airy._phases(np.array([seam])))[:, 0], batch[:, at[0]])


def test_phases_are_silent_where_the_moduli_leave_the_range():
    # N^2 = Bi^2 + Bi'^2 overflows from z = 65.625, a little before exp(2 zeta)
    # does: the product that takes it to inf raised an overflow warning there
    z = np.linspace(65.0, 66.5, 20001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m2, theta, n2, phi = airy._phases(z)
    assert np.isinf(n2[-1]) and np.isfinite(n2[0]) and not np.any(np.isnan(m2) | np.isnan(n2))
    assert np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))


@pytest.mark.parametrize("batch", [[math.nan], [1.0, math.inf], [-math.inf, -20.0]], ids=str)
def test_phases_reject_non_finite_input(batch):
    with pytest.raises(ValueError, match="finite"):
        airy._phases(np.array(batch))
