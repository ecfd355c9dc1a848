"""Airy functions Ai, Bi and first derivatives on the real line.

Everything is evaluated in-repo; no external special-function library is
used.  Two regimes, switched at ``|z| = Z_SWITCH``:

* ``|z| <= Z_SWITCH``: local Taylor series of w'' = z w (DLMF 3.7(ii),
  9.2) about the nearest anchor z_j = j/2, |j| <= 20, summed to degree 26
  with c_{k+2} = (z_j c_k + c_{k-1}) / ((k+1)(k+2)).  The anchor values are
  derived at import from Ai(0), Ai'(0), Bi(0), Bi'(0) and the asymptotic
  Ai(10) by stepping the same series from anchor to anchor (Ai on z > 0
  only downward, the way it grows), so no value is stored as a literal.
  Each sum spans |t| = |z - z_j| <= 1/4, where a solution changes
  by at most a factor e^{0.75} (sqrt(|z|) |t| <= 0.76), so its terms add
  up to at most about e^{0.75} of the anchor value and rounding is
  amplified by at most e^{1.5} (a decaying Ai), where a Maclaurin series
  at |z| = 9 loses 4e15.  Plain double arithmetic therefore suffices:
  against 40-digit mpmath on [-9, 9] the error is at most about 1.1e-15
  relative on z >= 0 and 7e-16 relative to the envelope hypot(Ai, Bi) on
  z < 0.

* ``|z| > Z_SWITCH``: Poincare asymptotic expansions (DLMF 9.7.5-9.7.10),
  exponential form on the positive axis and trigonometric phase form on
  the negative axis, summed over all 40 coefficients (power sums in
  +-1/zeta^2) without truncation at the smallest term: for |z| >= 9
  (zeta >= 18) the terms past the smallest one add at most 4.8e-17 of the
  leading term, and above |z| ~ 9.5 the smallest term is the last one.
  The crossover band agrees with the series well inside the 1e-9
  continuity budget.

Both regimes are one contraction (:func:`_contract`): each point's powers
t^0..t^26 of its own variable, t = z - z_j on the series and
sign(z) / zeta^2 on the asymptotic range, times its own 27 x 4 table, its
anchor's or the asymptotic one (20 rows, padded with zeros).  So a call
costs a fixed handful of array operations whatever the regimes of its
points, and every point is contracted on its own (a batch of 1 x k by
k x 4 products, never one product across points): a point's four values
are bit-equal whether it is evaluated alone or in any batch; the level
search relies on that.  The rows are then finished into the values
(:func:`airy_eval_many`) or the phases (:func:`_phases`).

The budget target is relative error <= 1e-10 for |z| <= 40.  On the far
negative axis the phase zeta = (2/3)|z|^1.5 grows, and the trig argument
reduction limits the accuracy of the values to about zeta * eps (still
< 1e-10 for |z| <= 1500).  Bi overflows the double range for z >~ 103.9;
that raises :class:`AiryOverflowError`.  A z that is not finite raises
ValueError.

The level solve needs the modulus-phase form (DLMF 9.8) instead, which
:func:`_phases` gives without the values' two limits: each phase as its
offset from the closed-form trend pi/4 - (2/3) max(-z, 0)^1.5, taken on
the negative asymptotic range straight from the series' rows (no cos, sin
or unwrap, so no zeta * eps error: within 2.2e-16 of 50-digit mpmath at
z = -3000), and on the positive one from Ai/Bi, scaled, so that Bi never
overflows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AiryOverflowError

Z_SWITCH = 9.0
Z_MAX = 1.0e4
# zeta = (2/3) z^{3/2} must stay below log(DBL_MAX) for Bi.
_ZETA_OVERFLOW = 709.0
_Z_BI_OVERFLOW = (1.5 * _ZETA_OVERFLOW) ** (2.0 / 3.0)

_ASYM_TERMS = 40
_ANCHOR_STEP = 0.5
_ANCHORS = _ANCHOR_STEP * np.arange(-20, 21)  # -10 ... 10
_TAYLOR_DEGREE = 26
# points per gather of their 27 x 4 tables, 864 B each: bounds the temporary for a level
# solve's opening block (2 x 4096 points, 7 MB at once) and airy_eval_many's array
_GATHER_BLOCK = 512


def _split_coefficients(n):
    """u_k, v_k (DLMF 9.7.2) for k < n as a power-basis table: row j is the
    coefficient of x^j in (u_2j, u_2j+1, v_2j, v_2j+1)."""
    u = [1.0]
    v = [1.0]
    for k in range(1, n):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
                 / (216.0 * k * (2 * k - 1)))
        v.append(u[-1] * (6 * k + 1) / (1 - 6 * k))
    u, v = np.array(u), np.array(v)
    return np.stack([u[0::2], u[1::2], v[0::2], v[1::2]], axis=1)


# ---------------------------------------------------------------------------
# local Taylor regime

def _local_series(z0, w, wp):
    """Taylor coefficients about z0 of the solutions of w'' = z w with values
    w and slopes wp (rows k = 0.._TAYLOR_DEGREE).  z0 broadcasts against w.

    Two callers: the anchor build below, through :func:`_with_slopes` (Ai
    and Bi about each anchor, and the steps between anchors), and
    ``quantum.eigenstate_closed_court`` (an eigenstate about each of its
    block starts, spanning sqrt(|z|) |t| <= 0.75 as the anchors' series do)."""
    c = np.empty((_TAYLOR_DEGREE + 1,) + np.broadcast(z0, w).shape)
    c[0], c[1], c[2] = w, wp, 0.5 * z0 * w
    for k in range(1, _TAYLOR_DEGREE - 1):
        c[k + 2] = (z0 * c[k] + c[k - 1]) / ((k + 1) * (k + 2))
    return c


def _with_slopes(c):
    """Taylor coefficients c followed along axis 1 by those of their slopes,
    (k + 1) c_{k+1}."""
    slope = np.zeros_like(c)
    slope[:-1] = np.arange(1.0, _TAYLOR_DEGREE + 1).reshape((-1,) + (1,) * (c.ndim - 1)) * c[1:]
    return np.concatenate([c, slope], axis=1)


def _horner(coef, t):
    """sum_k coef[k] t^k."""
    total = coef[-1]
    for c in coef[-2::-1]:
        total = total * t + c
    return total


def _anchor_values():
    """(Ai, Bi, Ai', Bi') at the anchors, rows by function.

    Four solutions step together, one anchor per step: Ai and Bi down from
    their closed forms at 0, Bi up from 0, and Ai down from its asymptotic
    value at the top anchor (stepping Ai up on z > 0 would amplify rounding
    by Bi/Ai ~ exp((4/3) z^1.5)).
    """
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    bi0, bip0 = math.sqrt(3.0) * ai0, -math.sqrt(3.0) * aip0
    top_ai, _, top_aip, _ = _values(_ANCHORS[-1:], np.array([False]))
    z = np.array([0.0, 0.0, 0.0, _ANCHORS[-1]])
    h = _ANCHOR_STEP * np.array([-1.0, -1.0, 1.0, -1.0])
    w = np.array([ai0, bi0, bi0, top_ai[0]])
    wp = np.array([aip0, bip0, bip0, top_aip[0]])
    steps = [np.concatenate([w, wp])]
    for _ in range(len(_ANCHORS) // 2):
        steps.append(_horner(_with_slopes(_local_series(z, w, wp)), np.concatenate([h, h])))
        w, wp = np.split(steps[-1], 2)
        z = z + h
    # s[r, i]: solution r (values 0-3, slopes 4-7) after i steps
    s = np.array(steps).T
    negative = s[[0, 1, 4, 5], ::-1]  # anchors -10 ... 0
    positive = np.stack([s[3, -2::-1], s[2, 1:], s[7, -2::-1], s[6, 1:]])  # 0.5 ... 10
    return np.concatenate([negative, positive], axis=1)


# ---------------------------------------------------------------------------
# one contraction for both regimes

def _contract(z, series, zeta):
    """The four series rows at each point of 1-D z.

    Where ``series`` (any |z| <= 10.25; ``zeta`` must be 1 there):
    (Ai, Bi, Ai', Bi') from the series about the nearest anchor,
    |z - anchor| <= 1/4, no stop rule.  Elsewhere, with zeta = (2/3)|z|^1.5:
    the u- and v-series split by the parity of the term index,
    (u_even, u_odd, v_even, v_odd) = (sum_j c_2j x^j,
    (1/zeta) sum_j c_2j+1 x^j, ...) with x = sign(z) / zeta^2 and c_k = u_k
    or v_k, all 40 coefficients, no truncation.
    """
    j = np.rint(z / _ANCHOR_STEP)
    t = np.where(series, z - j * _ANCHOR_STEP, np.sign(z) / (zeta * zeta))
    table = np.where(series, j + len(_ANCHORS) // 2, -1).astype(int)
    powers = np.empty((len(z), 1, _TAYLOR_DEGREE + 1))  # t^0 .. t^26, as np.vander has them
    powers[:, 0, 0], powers[:, 0, 1:] = 1.0, t[:, None]
    np.multiply.accumulate(powers, axis=2, out=powers)
    rows = np.empty((len(z), 1, 4))
    b = _GATHER_BLOCK
    for i in range(0, len(z), b):
        np.matmul(powers[i:i + b], _TABLE[table[i:i + b]], out=rows[i:i + b])
    rows = rows[:, 0].T
    rows[1::2] /= zeta
    return rows


def _values(z, series):
    """(Ai, Bi, Ai', Bi') rows at 1-D z: from the series where the mask
    ``series`` holds, elsewhere from the trigonometric form on z < 0 and
    the exponential one on z > 0, where Ai carries e^{-zeta} and Bi
    e^{+zeta}."""
    zeta = np.where(series, 1.0, (2.0 / 3.0) * np.abs(z) ** 1.5)
    rows = _contract(z, series, zeta)
    sqp = math.sqrt(math.pi)
    asym = ~series
    neg, pos = asym & (z < 0.0), asym & (z > 0.0)
    if neg.any():
        p, q, r, s = rows[:, neg]
        w = zeta[neg] - 0.25 * math.pi
        cos, sin, quarter = np.cos(w), np.sin(w), np.abs(z[neg]) ** 0.25
        sqpq = sqp * quarter
        rows[:, neg] = ((p * cos + q * sin) / sqpq, (q * cos - p * sin) / sqpq,
                        (r * sin - s * cos) * quarter / sqp, (r * cos + s * sin) * quarter / sqp)
    if pos.any():
        u_even, u_odd, v_even, v_odd = rows[:, pos]
        quarter, em, ep = z[pos] ** 0.25, np.exp(-zeta[pos]), np.exp(zeta[pos])
        rows[:, pos] = ((u_even - u_odd) / (2.0 * sqp * quarter) * em,
                        (u_even + u_odd) / (sqp * quarter) * ep,
                        -quarter * (v_even - v_odd) / (2.0 * sqp) * em,
                        quarter * (v_even + v_odd) / sqp * ep)
    return rows


# (table, degree, function): the anchors' series of (Ai, Bi, Ai', Bi'), and
# last the asymptotic split series (u_2j, u_2j+1, v_2j, v_2j+1), zero past
# its 20 rows.  The anchor build reads only that last table, so it is set
# first and the anchors' tables are put in front of it once derived.
_TABLE = np.zeros((1, _TAYLOR_DEGREE + 1, 4))
_TABLE[0, :_ASYM_TERMS // 2] = _split_coefficients(_ASYM_TERMS)
_TABLE = np.concatenate([
    _with_slopes(_local_series(_ANCHORS, *np.split(_anchor_values(), 2))).transpose(2, 0, 1),
    _TABLE])


# ---------------------------------------------------------------------------
# public surface

def airy_eval_many(z: np.ndarray):
    """Vectorized evaluation: returns arrays (ai, bi, ai_prime, bi_prime).

    Raises :class:`AiryOverflowError` once Bi leaves the double range
    (z > ~103.9) and ValueError for a z that is not finite or has |z| > 1e4.
    """
    z = np.asarray(z, dtype=float)
    if not (np.abs(z) <= Z_MAX).all():
        raise ValueError(f"z must be finite with |z| <= {Z_MAX:g}")
    if (z > _Z_BI_OVERFLOW).any():
        raise AiryOverflowError(
            f"Bi(z) overflows double precision for z > {_Z_BI_OVERFLOW:.1f}")
    flat = z.ravel()
    return tuple(_values(flat, np.abs(flat) <= Z_SWITCH).reshape((4,) + z.shape))


# the (theta, phi) offsets lie within pi/4 of these
_OFFSET_CENTRES = np.array([[0.0], [0.5 * math.pi]])
_ASYM_REF = -_OFFSET_CENTRES


def _phases(z):
    """(M^2, theta - ref, N^2, phi - ref) at each z of a 1-D array, with
    Ai = M cos theta, Bi = M sin theta, Ai' = N cos phi, Bi' = N sin phi
    (DLMF 9.8) and ref = pi/4 - (2/3) max(-z, 0)^(3/2): the phases as
    offsets from their closed-form trend, so a caller can take differences
    of the trend in closed form.  The Wronskian 1/pi gives
    theta' = 1/(pi M^2) and phi' = -z/(pi N^2), so the phases are
    continuous in z: theta(0) = pi/3, phi(0) = 2 pi/3, both tend to pi/2 as
    z -> +inf, and to pi/4 - zeta and 3 pi/4 - zeta as z -> -inf.  The
    theta offset stays within pi/4 of 0 and the phi offset within pi/4 of
    pi/2 on the whole axis.

    One pass over the rows of :func:`_contract`, finished by masks:

    * ``|z| <= Z_SWITCH``: one atan2 of the Taylor values each, less ref,
      reduced into that range.
    * ``z < -Z_SWITCH``: straight from the rows P, Q, R, S,
      theta - ref = atan2(Q, P), phi - ref = pi/2 + atan2(S, R),
      M^2 = (P^2 + Q^2)/(pi sqrt(-z)) and N^2 = (R^2 + S^2) sqrt(-z)/pi: no
      cos, no sin and no unwrap, so no zeta * eps error.
    * ``z > Z_SWITCH``, on those points alone: theta - ref =
      pi/4 - atan(Ai/Bi), and alike for phi, with Ai/Bi from the
      exponentially scaled terms, so Bi never overflows.  M^2 and N^2
      overflow to inf, silently, for z above about 66, where theta' = 0 is
      right to the last digit.

    Each point is computed on its own, bit-equal in any batch.  ValueError
    for a z that is not finite.
    """
    z = np.asarray(z, dtype=float)
    lo, hi = np.minimum.reduce(z, initial=0.0), np.maximum.reduce(z, initial=0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("z must be finite")
    az = np.abs(z)
    series, rt = az <= Z_SWITCH, np.sqrt(az)
    zeta = np.where(series, 1.0, (2.0 / 3.0) * rt ** 3)
    rows = _contract(z, series, zeta)
    # less ref on the series; on the asymptotic range the rows' atan2 are the
    # offsets, phi's a quarter turn on
    ref = np.where(series, 0.25 * math.pi - (2.0 / 3.0) * np.maximum(-z, 0.0) ** 1.5,
                   _ASYM_REF)
    off = np.arctan2(rows[1::2], rows[0::2]) - ref
    off -= 2.0 * math.pi * np.rint((off - _OFFSET_CENTRES) / (2.0 * math.pi))
    sq = rows * rows
    m2, n2 = sq[0::2] + sq[1::2]
    # off the series M^2 = (P^2 + Q^2) / (pi sqrt|z|), N^2 = (R^2 + S^2) sqrt|z| / pi
    rt1, pi1 = np.where(series, 1.0, rt), np.where(series, 1.0, math.pi)
    m2, n2 = m2 / (pi1 * rt1), n2 * rt1 / pi1
    if hi > Z_SWITCH:  # the ratio form, on those points alone
        pos = z > Z_SWITCH
        u_even, u_odd, v_even, v_odd = rows[:, pos]
        u, v, em2 = u_even + u_odd, v_even + v_odd, np.exp(-2.0 * zeta[pos])
        ratios = (em2 * (u_even - u_odd) / (2.0 * u), -em2 * (v_even - v_odd) / (2.0 * v))
        # Bi^2 = ep2 u^2 / sqrt(z), Bi'^2 = ep2 v^2 sqrt(z); either may leave the range
        with np.errstate(over="ignore"):
            ep2 = np.exp(2.0 * zeta[pos]) / math.pi
            m2[pos] = ep2 * u * u / rt[pos] * (1.0 + ratios[0] * ratios[0])
            n2[pos] = ep2 * v * v * rt[pos] * (1.0 + ratios[1] * ratios[1])
        off[:, pos] = 0.25 * math.pi - np.arctan(ratios)
    return m2, off[0], n2, off[1]
