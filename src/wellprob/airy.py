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
  z < 0.  Every point costs the same: its powers t^0..t^26 contracted with
  its anchor's (degree, function) table.

* ``|z| > Z_SWITCH``: Poincare asymptotic expansions (DLMF 9.7.5-9.7.10),
  exponential form on the positive axis and trigonometric phase form on
  the negative axis, summed over all 40 coefficients (power sums in
  +-1/zeta^2) without truncation at the smallest term: for |z| >= 9
  (zeta >= 18) the terms past the smallest one add at most 4.8e-17 of the
  leading term, and above |z| ~ 9.5 the smallest term is the last one.
  The crossover band agrees with the series well inside the 1e-9
  continuity budget.

Each regime costs a fixed handful of array operations per call, whatever
the degree.  Every point is contracted on its own (a batch of 1 x k by
k x 4 products, never one product across points), so a point's four
values are bit-equal whether it is evaluated alone or in any batch; the
level search relies on that.

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


# ---------------------------------------------------------------------------
# asymptotic regime

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


_SPLIT_COEF = _split_coefficients(_ASYM_TERMS)


def _power_sum(t, coef):
    """sum_k coef[..., k, :] t^k as rows by coef's last axis: one 1 x k by
    k x 4 product per point, so no point's value depends on its batch."""
    powers = np.vander(t, coef.shape[-2], increasing=True)[:, None, :]
    return np.matmul(powers, coef)[:, 0, :].T


def _asym_split(zeta, s):
    """Even and odd parts of the u- and v-series as rows (u_even, u_odd,
    v_even, v_odd): sum_j c_{2j} x^j and (1/zeta) sum_j c_{2j+1} x^j with
    x = s / zeta^2, s = +1 on the positive axis and -1 on the negative one.
    All coefficients, no truncation.
    """
    total = _power_sum(s / (zeta * zeta), _SPLIT_COEF)
    total[1::2] /= zeta
    return total


def _asym_pos(z):
    """Exponential asymptotics for z > 0: Ai carries e^{-zeta}, Bi e^{+zeta}."""
    z = np.asarray(z, dtype=float)
    zeta = (2.0 / 3.0) * z ** 1.5
    u_even, u_odd, v_even, v_odd = _asym_split(zeta, 1.0)
    q = z ** 0.25
    sqp = math.sqrt(math.pi)
    ai_s = (u_even - u_odd) / (2.0 * sqp * q)
    aip_s = -q * (v_even - v_odd) / (2.0 * sqp)
    bi_s = (u_even + u_odd) / (sqp * q)
    bip_s = q * (v_even + v_odd) / sqp
    with np.errstate(over="ignore"):
        ep = np.exp(zeta)
    em = np.exp(-zeta)
    return np.array([ai_s * em, bi_s * ep, aip_s * em, bip_s * ep])


def _asym_neg(z):
    """Trigonometric asymptotics for z < 0 (t = -z large)."""
    t = -np.asarray(z, dtype=float)
    zeta = (2.0 / 3.0) * t ** 1.5
    split = _asym_split(zeta, -1.0)  # rows P, Q, R, S
    w = zeta - 0.25 * math.pi
    c, s = split * np.cos(w), split * np.sin(w)  # cos w P, ..., sin w S
    q = t ** 0.25
    sqp = math.sqrt(math.pi)
    sqpq = sqp * q
    return np.array([(c[0] + s[1]) / sqpq, (c[1] - s[0]) / sqpq,  # Ai, Bi
                     (s[2] - c[3]) * q / sqp, (c[2] + s[3]) * q / sqp])  # Ai', Bi'


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
    top_ai, _, top_aip, _ = _asym_pos(_ANCHORS[-1:])
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


# (anchor, degree, function): the local series of (Ai, Bi, Ai', Bi')
_TAYLOR_TABLE = np.ascontiguousarray(
    _with_slopes(_local_series(_ANCHORS, *np.split(_anchor_values(), 2))).transpose(2, 0, 1))
# points per gather of their anchors' 27 x 4 tables: bounds the temporary
# (a 6001-point eigenstate gathered at once would take 5.2 MB)
_GATHER_BLOCK = 512


def _taylor(z):
    """(ai, bi, aip, bip) rows for array z with |z| <= 10.25, each from the
    series about its nearest anchor: |z - anchor| <= 1/4, no stop rule."""
    j = np.rint(z / _ANCHOR_STEP)
    t = z - j * _ANCHOR_STEP
    j = j.astype(int) + len(_ANCHORS) // 2
    b = _GATHER_BLOCK
    return np.concatenate([_power_sum(t[i:i + b], _TAYLOR_TABLE[j[i:i + b]])
                           for i in range(0, len(z), b)], axis=1)


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
    return _by_regime(z, _taylor, _asym_pos, _asym_neg)


def _by_regime(z, taylor, pos, neg):
    """Four rows at each z: ``taylor`` on |z| <= Z_SWITCH, ``pos`` on
    z > Z_SWITCH and ``neg`` on z < -Z_SWITCH, each called on its points."""
    out = np.empty((4,) + z.shape)
    for pick, regime in ((np.abs(z) <= Z_SWITCH, taylor), (z > Z_SWITCH, pos),
                         (z < -Z_SWITCH, neg)):
        if pick.any():
            out[:, pick] = regime(z[pick])
    return tuple(out)


def _phases(z):
    """(M^2, theta - ref, N^2, phi - ref) at each z, with Ai = M cos theta,
    Bi = M sin theta, Ai' = N cos phi, Bi' = N sin phi (DLMF 9.8) and
    ref = pi/4 - (2/3) max(-z, 0)^(3/2): the phases as offsets from their
    closed-form trend, so a caller can take differences of the trend in
    closed form.  The Wronskian 1/pi gives theta' = 1/(pi M^2) and
    phi' = -z/(pi N^2), so the phases are continuous in z: theta(0) = pi/3,
    phi(0) = 2 pi/3, both tend to pi/2 as z -> +inf, and to pi/4 - zeta and
    3 pi/4 - zeta as z -> -inf.  The theta offset stays within pi/4 of 0 and
    the phi offset within pi/4 of pi/2 on the whole axis.

    * ``|z| <= Z_SWITCH``: one atan2 of the Taylor values each, less ref,
      reduced into that range.
    * ``z < -Z_SWITCH``: straight from the rows P, Q, R, S of
      :func:`_asym_split`, theta - ref = atan2(Q, P), phi - ref =
      pi/2 + atan2(S, R), M^2 = (P^2 + Q^2)/(pi sqrt(-z)) and
      N^2 = (R^2 + S^2) sqrt(-z)/pi: no cos, no sin and no unwrap, so no
      zeta * eps error.
    * ``z > Z_SWITCH``: theta - ref = pi/4 - atan(Ai/Bi), and alike for phi,
      with Ai/Bi from the exponentially scaled terms, so Bi never overflows.
      M^2 and N^2 overflow to inf, silently, for z above about 66, where
      theta' = 0 is right to the last digit.

    Each point is computed on its own, bit-equal in any batch.  ValueError
    for a z that is not finite.
    """
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    return _by_regime(z, _phases_taylor, _phases_pos, _phases_neg)


def _phases_taylor(z):
    ai, bi, aip, bip = _taylor(z)
    ref = 0.25 * math.pi - (2.0 / 3.0) * np.maximum(-z, 0.0) ** 1.5
    theta, phi = np.arctan2(bi, ai) - ref, np.arctan2(bip, aip) - ref
    theta -= 2.0 * math.pi * np.round(theta / (2.0 * math.pi))
    phi -= 2.0 * math.pi * np.round((phi - 0.5 * math.pi) / (2.0 * math.pi))
    return ai * ai + bi * bi, theta, aip * aip + bip * bip, phi


def _phases_neg(z):
    rt = np.sqrt(-z)
    p, q, r, s = _asym_split((2.0 / 3.0) * rt ** 3, -1.0)
    return ((p * p + q * q) / (math.pi * rt), np.arctan2(q, p),
            (r * r + s * s) * rt / math.pi, 0.5 * math.pi + np.arctan2(s, r))


def _phases_pos(z):
    rt = np.sqrt(z)
    zeta = (2.0 / 3.0) * rt ** 3
    u_even, u_odd, v_even, v_odd = _asym_split(zeta, 1.0)
    u, v = u_even + u_odd, v_even + v_odd
    em2 = np.exp(-2.0 * zeta)
    ai_bi = em2 * (u_even - u_odd) / (2.0 * u)  # Ai/Bi
    aip_bip = -em2 * (v_even - v_odd) / (2.0 * v)  # Ai'/Bi'
    with np.errstate(over="ignore"):
        ep2 = np.exp(2.0 * zeta) / math.pi  # Bi^2 = ep2 u^2 / sqrt(z), Bi'^2 = ep2 v^2 sqrt(z)
    return (ep2 * u * u / rt * (1.0 + ai_bi * ai_bi), 0.25 * math.pi - np.arctan(ai_bi),
            ep2 * v * v * rt * (1.0 + aip_bip * aip_bip), 0.25 * math.pi - np.arctan(aip_bip))
