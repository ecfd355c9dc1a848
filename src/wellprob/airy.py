"""Airy functions Ai, Bi and first derivatives on the real line.

Everything is evaluated in-repo; no external special-function library is
used.  Two regimes, switched at ``|z| = Z_SWITCH``:

* ``|z| <= Z_SWITCH``: Maclaurin series of the two standard solutions
  f, g of w'' = z w, accumulated in double-double (compensated) arithmetic.
  The series suffers catastrophic cancellation growing like exp(4/3 |z|^1.5)
  (positive z, Ai) or exp(2/3 |z|^1.5) / |z|^(-1/4) (negative z); at the
  switch point the amplification is ~4e15, which double-double absorbs,
  leaving relative errors near 1e-16.  The four series (f, g, f', g') are
  summed together and stop once every current term of every point in the
  batch is below 2^-110 of its series' largest term: 49 terms at
  |z| = 9.6, 14 at |z| = 1, 5 at |z| = 0.01 (cap 60).  A batch therefore
  pays for its largest |z|.

* ``|z| > Z_SWITCH``: Poincare asymptotic expansions (DLMF 9.7.5-9.7.10),
  exponential form on the positive axis and trigonometric phase form on
  the negative axis, summed over all 40 coefficients without truncation at
  the smallest term: for |z| >= 9 (zeta >= 18) the terms past the smallest
  one add at most 4.8e-17 of the leading term, and above |z| ~ 9.5 the
  smallest term is the last one.  The crossover band agrees with the
  series well inside the 1e-9 continuity budget.

The budget target is relative error <= 1e-10 for |z| <= 40.  On the far
negative axis the phase zeta = (2/3)|z|^1.5 grows, and the trig argument
reduction limits accuracy to about zeta * eps (still < 1e-10 for
|z| <= 1500).  Bi overflows the double range for z >~ 103.9; that raises
:class:`AiryOverflowError`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import AiryOverflowError

Z_SWITCH = 9.0
Z_MAX = 1.0e4
# zeta = (2/3) z^{3/2} must stay below log(DBL_MAX) for Bi.
_ZETA_OVERFLOW = 709.0
_Z_BI_OVERFLOW = (1.5 * _ZETA_OVERFLOW) ** (2.0 / 3.0)

# f/g-series mixing constants, split to double-double precision:
# C1 = Ai(0) = 3^(-2/3)/Gamma(2/3),  C2 = -Ai'(0) = 3^(-1/3)/Gamma(1/3).
_C1 = (0.3550280538878172, 2.05233632436212e-17)
_C2 = (0.2588194037928068, -2.522243111610832e-17)
_SQRT3 = (1.7320508075688772, 1.0035084221806903e-16)

_SERIES_TERMS = 60  # cap on the series length
_SERIES_RESOLUTION = 2.0 ** -110  # double-double resolution, relative to the peak term
_ASYM_TERMS = 40


# ---------------------------------------------------------------------------
# double-double helpers (error-free transformations; work on numpy arrays)

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(a, b):
    s, e = _two_sum(a[0], b[0])
    return _fast_two_sum(s, e + a[1] + b[1])


def _dd_mul(a, b):
    p, e = _two_prod(a[0], b[0])
    return _fast_two_sum(p, e + a[0] * b[1] + a[1] * b[0])


def _dd_mul_d(a, b):
    p, e = _two_prod(a[0], b)
    return _fast_two_sum(p, e + a[1] * b)


def _dd_div_d(a, b):
    q = a[0] / b
    p, e = _two_prod(q, b)
    return _fast_two_sum(q, ((a[0] - p) - e + a[1]) / b)


# ---------------------------------------------------------------------------
# Maclaurin regime

def _series_divisors(n):
    """Row k: the (4, 1) column of integer divisors from term k to k + 1."""
    k = np.arange(n, dtype=float)
    return np.stack([(3 * k + 2) * (3 * k + 3), (3 * k + 3) * (3 * k + 4),
                     3 * (k + 1) * (3 * k + 5), (3 * k + 1) * (3 * k + 3)], axis=1)[:, :, None]


_SERIES_DIVISORS = _series_divisors(_SERIES_TERMS)


def _maclaurin(z):
    """Series values (ai, bi, aip, bip) for array z; needs |z| <= ~9.6."""
    z = np.asarray(z, dtype=float)
    zero = np.zeros_like(z)
    one = np.ones_like(z)
    z3 = _dd_mul_d(_two_prod(z, z), z)

    # One double-double row per series, all advanced together:
    # f  = sum T_k,  T_{k+1} = T_k z^3 / ((3k+2)(3k+3)),        T_0 = 1
    # g  = sum U_k,  U_{k+1} = U_k z^3 / ((3k+3)(3k+4)),        U_0 = z
    # f' = sum V_k,  V_{k+1} = V_k z^3 / (3k (3k+2)),            V_1 = z^2/2
    # g' = sum W_k,  W_{k+1} = W_k z^3 / ((3k+1)(3k+3)),        W_0 = 1
    v1 = _dd_div_d(_two_prod(z, z), 2.0)
    term = (np.stack([one, z, v1[0], one]), np.stack([zero, zero, v1[1], zero]))
    total = term
    # Terms rise to a peak and then fall; summing stops once every current
    # term of every point is below double-double resolution of its series'
    # largest term (the sum's own rounding level).
    peak = np.abs(term[0])
    for divisor in _SERIES_DIVISORS:
        term = _dd_div_d(_dd_mul(term, z3), divisor)
        total = _dd_add(total, term)
        size = np.abs(term[0])
        np.maximum(peak, size, out=peak)
        if np.all(size <= _SERIES_RESOLUTION * peak):
            break
    f, g, fp, gp = ((hi, lo) for hi, lo in zip(*total))

    c1f = _dd_mul(_C1, f)
    c2g = _dd_mul(_C2, g)
    c1fp = _dd_mul(_C1, fp)
    c2gp = _dd_mul(_C2, gp)
    ai = _dd_add(c1f, (-c2g[0], -c2g[1]))
    bi = _dd_mul(_SQRT3, _dd_add(c1f, c2g))
    aip = _dd_add(c1fp, (-c2gp[0], -c2gp[1]))
    bip = _dd_mul(_SQRT3, _dd_add(c1fp, c2gp))
    return ai[0] + ai[1], bi[0] + bi[1], aip[0] + aip[1], bip[0] + bip[1]


# ---------------------------------------------------------------------------
# asymptotic regime

def _split_coefficients(n):
    """u_k, v_k (DLMF 9.7.2) for k < n, in Horner order: entry j, highest j
    first, is the column (u_2j, u_2j+1, v_2j, v_2j+1)."""
    u = [1.0]
    v = [1.0]
    for k in range(1, n):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
                 / (216.0 * k * (2 * k - 1)))
        v.append(u[-1] * (6 * k + 1) / (1 - 6 * k))
    u, v = np.array(u), np.array(v)
    return np.stack([u[0::2], u[1::2], v[0::2], v[1::2]], axis=1)[::-1, :, None]


_SPLIT_COEF = _split_coefficients(_ASYM_TERMS)


def _asym_split(zeta, s):
    """Even and odd parts of the u- and v-series as rows (u_even, u_odd,
    v_even, v_odd): sum_j c_{2j} x^j and (1/zeta) sum_j c_{2j+1} x^j with
    x = s / zeta^2, s = +1 on the positive axis and -1 on the negative one.
    One Horner pass over all coefficients, no truncation.
    """
    x = s / (zeta * zeta)
    total = np.zeros((4, len(x)))
    for c in _SPLIT_COEF:
        total = total * x + c
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
    return ai_s * em, bi_s * ep, aip_s * em, bip_s * ep


def _asym_neg(z):
    """Trigonometric asymptotics for z < 0 (t = -z large)."""
    t = -np.asarray(z, dtype=float)
    zeta = (2.0 / 3.0) * t ** 1.5
    P, Q, R, S = _asym_split(zeta, -1.0)
    w = zeta - 0.25 * math.pi
    cw, sw = np.cos(w), np.sin(w)
    q = t ** 0.25
    sqp = math.sqrt(math.pi)
    ai = (cw * P + sw * Q) / (sqp * q)
    bi = (-sw * P + cw * Q) / (sqp * q)
    aip = (sw * R - cw * S) * q / sqp
    bip = (cw * R + sw * S) * q / sqp
    return ai, bi, aip, bip


# ---------------------------------------------------------------------------
# public surface

class AiryValues(NamedTuple):
    ai: float
    bi: float
    ai_prime: float
    bi_prime: float


def airy_eval_many(z: np.ndarray):
    """Vectorized evaluation: returns arrays (ai, bi, ai_prime, bi_prime)."""
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(z) > Z_MAX):
        raise ValueError(f"|z| must be <= {Z_MAX:g}")
    if np.any(z > _Z_BI_OVERFLOW):
        raise AiryOverflowError(
            f"Bi(z) overflows double precision for z > {_Z_BI_OVERFLOW:.1f}")
    ai = np.empty_like(z)
    bi = np.empty_like(z)
    aip = np.empty_like(z)
    bip = np.empty_like(z)
    small = np.abs(z) <= Z_SWITCH
    if np.any(small):
        ai[small], bi[small], aip[small], bip[small] = _maclaurin(z[small])
    pos = (~small) & (z > 0)
    if np.any(pos):
        ai[pos], bi[pos], aip[pos], bip[pos] = _asym_pos(z[pos])
    neg = (~small) & (z < 0)
    if np.any(neg):
        ai[neg], bi[neg], aip[neg], bip[neg] = _asym_neg(z[neg])
    return ai, bi, aip, bip


def airy_eval(z: float) -> AiryValues:
    """Ai, Bi, Ai', Bi' at a real argument.

    Raises :class:`AiryOverflowError` once Bi leaves the double range
    (z > ~103.9) and ValueError for |z| > 1e4.
    """
    ai, bi, aip, bip = airy_eval_many(np.array([float(z)]))
    return AiryValues(float(ai[0]), float(bi[0]), float(aip[0]), float(bip[0]))

