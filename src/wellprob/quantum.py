"""Bound states of the wells and their momentum-space wavefunctions.

The linear well with walls is solved piecewise in Airy functions: on the
right half, psi(x) = C Ai((x - sigma)/rho) + D Bi((x - sigma)/rho) with
rho = (hbar^2 a / (2 m V0))^(1/3) and sigma = E a / V0.  Parity fixes the
condition at the origin (psi = 0 for odd states, psi' = 0 for even states)
and the infinite wall requires psi(a) = 0; eigenvalues are the zeros of the
resulting 2x2 determinant, a cross product of Airy functions.  Only the
regime E > V0 is supported, where both Airy arguments stay in the
oscillatory range.

Momentum-space wavefunctions come from the +i kernel Fourier transform
phi(p) = (2 pi hbar)^(-1/2) int psi(x) exp(+i p x / hbar) dx, evaluated
with a piecewise-quadratic Filon rule whose accuracy is independent of p.
Every eigenstate has a definite parity, so the rule's panel sums need only
the panels with centres c_j >= 0 (about N/2 of N); the mirror half is their
complex conjugate.  The momenta must be evenly spaced: those sums at M
momenta are then one chirp-z (Bluestein) transform at a 5-smooth FFT
length, O((N + M) log(N + M)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .airy import Z_MAX, airy_eval_many
from .classical import DensityCurve
from .errors import NumericalError, RegimeError, ResolutionError
from .model import PotentialKind, PotentialSpec, half_period

_EIGEN_RESIDUAL_TOL = 1e-6  # envelope-normalized determinant at accepted E
_NEWTON_MAX_ITERS = 64
_NEWTON_STEP_TOL = 4.0 * np.finfo(float).eps  # relative to |E|
_NEWTON_STALL_TOL = math.sqrt(np.finfo(float).eps)  # relative; see _newton_roots
_SCAN_STEPS_PER_LEVEL = 5  # scan resolution relative to the local spacing pi hbar / tau
_MAX_LEVELS = 100_000  # phase-space level count a scan may face, both parities
_UNIFORM_ULPS = 8.0  # tolerance of the uniform-p test, in ulps of max |p|
_SUBNORMAL_ULPS = 32.0  # its floor, in subnormal ulps per point; see _is_uniform
_PARITY_TOL = 1e-12  # max |psi(x) - parity psi(-x)| / max |psi| the transform accepts


class SkippedRootWarning(UserWarning):
    """Bracket scan may have missed eigenvalues (count vs phase-space estimate)."""


@dataclass(frozen=True)
class AiryScales:
    """Length scales of the linear-well solution: rho (Airy unit) and
    sigma = E a / V0 (where the extended ramp would reach the energy; an
    array for an array of energies)."""

    rho: float
    sigma: float

    @classmethod
    def from_spec(cls, spec: PotentialSpec, energy: float) -> "AiryScales":
        c = spec.constants
        rho = (c.hbar ** 2 * spec.a / (2.0 * c.mass * spec.v0)) ** (1.0 / 3.0)
        return cls(rho=rho, sigma=energy * spec.a / spec.v0)


@dataclass(frozen=True)
class Eigenstate:
    parity: str  # "even" | "odd"
    index: int
    energy: float
    grid: np.ndarray
    psi: np.ndarray
    spec: PotentialSpec


@dataclass(frozen=True)
class EigenLevel:
    energy: float
    parity: str
    index: int
    residual: float


@dataclass(frozen=True)
class MomentumWavefunction:
    grid: np.ndarray
    phi: np.ndarray
    density: np.ndarray
    hbar: float

    def norm_mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid))


def _simpson_uniform(y: np.ndarray, h: float) -> float:
    n = len(y) - 1
    if n % 2:
        raise ValueError("Simpson rule needs an even interval count")
    return h / 3.0 * float(y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


# ---------------------------------------------------------------------------
# eigenvalues of the linear well with walls

def _require_closed_court(spec: PotentialSpec) -> None:
    if spec.kind is not PotentialKind.CLOSED_COURT:
        raise RegimeError("operation is specific to the closed-court potential")
    if spec.v0 <= 0.0:
        raise RegimeError("closed court needs v0 > 0; use infinite_well for v0 = 0")


def _is_odd(parity: str) -> bool:
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return parity == "odd"


def _determinant(odd, z_origin, origin, wall):
    """Boundary determinant D, its residual |D| / envelope and dD/dz (via
    Ai'' = z Ai, Bi'' = z Bi) from the Airy values (ai, bi, aip, bip) at
    z_origin and the wall.  ``odd`` is a bool, or a bool array that picks
    each point's parity, so points of both parities share one Airy call."""
    ai1, bi1, aip1, bip1 = origin
    ai2, bi2, aip2, bip2 = wall
    t1 = np.where(odd, ai1 * bi2, aip1 * bi2)
    t2 = np.where(odd, ai2 * bi1, ai2 * bip1)
    d_dz = np.where(odd, aip1 * bi2 + ai1 * bip2 - aip2 * bi1 - ai2 * bip1,
                    z_origin * (ai1 * bi2 - ai2 * bi1) + aip1 * bip2 - aip2 * bip1)
    det = t1 - t2
    return det, np.abs(det) / np.maximum(np.abs(t1) + np.abs(t2), 1e-300), d_dz


def _eigencondition(spec: PotentialSpec, energies: np.ndarray, odd):
    """Boundary determinant D, its normalized residual and dD/dE, vectorized over E
    (and over ``odd``, as in :func:`_determinant`) with one Airy call on the
    origin and wall arguments together; both move with dz/dE = -a / (V0 rho)."""
    scales = AiryScales.from_spec(spec, np.asarray(energies, dtype=float))
    z_origin = -scales.sigma / scales.rho
    z_wall = (spec.a - scales.sigma) / scales.rho
    n = len(z_origin)
    vals = airy_eval_many(np.concatenate([z_origin, z_wall]))
    val, residual, d_dz = _determinant(odd, z_origin, [v[:n] for v in vals],
                                       [v[n:] for v in vals])
    return val, residual, d_dz * (-spec.a / (spec.v0 * scales.rho))


def eigencondition_residual(spec: PotentialSpec, energy: float, parity: str) -> float:
    """|determinant| / envelope at one energy; ~0 at an eigenvalue."""
    _, residual, _ = _eigencondition(spec, np.array([energy]), _is_odd(parity))
    return float(residual[0])


def _phase_space_count(spec: PotentialSpec, energy: float) -> float:
    """Semiclassical level count below E (both parities)."""
    c = spec.constants
    if energy <= spec.v0:
        return 0.0
    area = (8.0 * spec.a * math.sqrt(2.0 * c.mass) / (3.0 * spec.v0)) * (
        energy ** 1.5 - (energy - spec.v0) ** 1.5)
    return area / (2.0 * math.pi * c.hbar)


def _scan_grid(spec: PotentialSpec, e_min: float, e_max: float) -> np.ndarray:
    """Energy scan whose step tracks the local level spacing pi hbar / tau."""
    c = spec.constants
    pts = [e_min]
    e = e_min
    while e < e_max:
        step = math.pi * c.hbar / (_SCAN_STEPS_PER_LEVEL * half_period(spec, e))
        e = min(e + step, e_max)
        pts.append(e)
    return np.array(pts)


def _newton_roots(spec: PotentialSpec, odd: np.ndarray, left: np.ndarray, right: np.ndarray,
                  f_left: np.ndarray, f_right: np.ndarray) -> np.ndarray:
    """Bracket-safeguarded Newton iteration, vectorized over the brackets,
    whose parities the bool array ``odd`` gives.

    Each root starts at the false-position point of its bracket.  Every
    evaluation shrinks the bracket to the side that keeps the sign change;
    a Newton step that leaves the bracket is replaced by its midpoint.  A
    root is done once its raw Newton step |D / D'| is within 4 eps |E|, or
    once that step, already below sqrt(eps) |E|, stops shrinking: it is then
    the determinant's noise floor, which the Airy phase error zeta * eps
    lifts above 4 eps |E| for |z| beyond about 50.  Near a root the
    determinant's sign is noise too, so neither the bracket width nor a
    bisection step is a usable stop test.  Each root stops on its own test,
    so it takes the same steps whatever other roots share the loop.
    """
    x = left - f_left * (right - left) / (f_right - f_left)
    sign_left = np.sign(f_left)  # the bracket's left end keeps this sign
    last_step = np.full(len(x), np.inf)
    todo = np.arange(len(x))
    for _ in range(_NEWTON_MAX_ITERS):
        if not len(todo):
            break
        xs = x[todo]
        f, _, df = _eigencondition(spec, xs, odd[todo])
        keeps_left = np.sign(f) == sign_left[todo]
        lo = left[todo] = np.where(keeps_left, xs, left[todo])
        hi = right[todo] = np.where(keeps_left, right[todo], xs)
        step = f / df
        nxt = xs - step
        size = np.abs(step)
        done = (size <= _NEWTON_STEP_TOL * np.abs(xs)) | (
            (size >= last_step[todo]) & (size <= _NEWTON_STALL_TOL * np.abs(xs)))
        last_step[todo] = size
        x[todo] = np.where(done | ((nxt > lo) & (nxt < hi)), nxt, 0.5 * (lo + hi))
        todo = todo[~done]
    return x


def _levels(spec: PotentialSpec, e_max: float, above: float) -> list[EigenLevel]:
    """The levels of both parities in (V0, e_max] whose scan bracket ends
    above ``above``, sorted by energy and indexed as in :func:`spectrum`.

    One scan serves both parities: the grid does not depend on parity, so
    one Airy call on it gives both determinants.  A level's index is the
    rank of its bracket among the sign changes of its parity, so only the
    brackets that end above ``above`` need refining; they share one Newton
    loop and one residual call.
    """
    _require_closed_court(spec)
    if not math.isfinite(e_max):
        raise ValueError(f"e_max must be finite, got {e_max!r}")
    lo = spec.v0 * (1.0 + 1e-12) + 1e-300
    if e_max <= lo:
        return []
    scales = AiryScales.from_spec(spec, e_max)
    if scales.sigma / scales.rho > Z_MAX:
        raise RegimeError(f"e_max={e_max:g} puts the Airy argument at the origin past "
                          f"-{Z_MAX:g}")
    expected = 0.5 * (_phase_space_count(spec, e_max) - _phase_space_count(spec, lo))
    if 2.0 * expected > _MAX_LEVELS:
        raise RegimeError(f"about {2.0 * expected:.3g} levels lie in (V0, {e_max:g}]; "
                          f"a spectrum holds at most {_MAX_LEVELS}")

    grid = _scan_grid(spec, lo, e_max)
    vals = _eigencondition(spec, grid, np.array([[False], [True]]))[0]  # rows: even, odd
    odd, index, k = [], [], []
    for row, parity in enumerate(("even", "odd")):
        brackets = np.nonzero(np.sign(vals[row, :-1]) * np.sign(vals[row, 1:]) < 0)[0]
        if abs(len(brackets) - expected) > 2.0:
            warnings.warn(
                f"found {len(brackets)} {parity} levels in ({lo:.4g}, {e_max:.4g}] but "
                f"phase-space estimate is {expected:.1f}; scan may have skipped roots",
                SkippedRootWarning)
        rank = np.nonzero(grid[brackets + 1] > above)[0]
        odd += [bool(row)] * len(rank)
        index += (rank + 1).tolist()
        k += brackets[rank].tolist()
    odd, k = np.array(odd, dtype=bool), np.array(k, dtype=int)
    rows = odd.astype(int)
    roots = _newton_roots(spec, odd, grid[k], grid[k + 1], vals[rows, k], vals[rows, k + 1])
    _, residuals, _ = _eigencondition(spec, roots, odd)

    levels = [EigenLevel(energy=float(e), parity="odd" if o else "even", index=i,
                         residual=float(r))
              for e, o, i, r in zip(roots, odd, index, residuals)]
    levels.sort(key=lambda lv: lv.energy)
    parities = [lv.parity for lv in levels]
    if any(a == b for a, b in zip(parities, parities[1:])):
        warnings.warn("even/odd levels do not interlace; a root was likely skipped",
                      SkippedRootWarning)
    return levels


def eigenvalues_closed_court(spec: PotentialSpec, e_max: float, parity: str) -> np.ndarray:
    """All eigenvalues of one parity in (V0, e_max], sorted ascending: the
    levels of that parity from :func:`spectrum`."""
    _is_odd(parity)  # rejects any other label
    return np.array([lv.energy for lv in spectrum(spec, e_max) if lv.parity == parity])


def spectrum(spec: PotentialSpec, e_max: float) -> list[EigenLevel]:
    """Every level of both parities in (V0, e_max], sorted by energy.

    Roots of the boundary determinant are bracketed on one energy scan
    finer than the semiclassical level spacing, shared by both parities,
    and refined by a bracket-safeguarded Newton iteration to machine-level
    relative accuracy; every determinant evaluation is one Airy call.  A
    level's index is its rank among the levels of its parity above V0.
    :class:`SkippedRootWarning` is raised if a parity's number of sign
    changes disagrees with the phase-space count estimate by more than 2
    (a bracket may have straddled two roots), or if the levels do not
    interlace.  ValueError for a non-finite ``e_max``; RegimeError when
    ``e_max`` takes the Airy argument at the origin past -1e4 or holds
    more than 10^5 levels by the phase-space count.
    """
    return _levels(spec, e_max, spec.v0)


def nearest_level(spec: PotentialSpec, e_target: float, search_width: float = 1.0) -> EigenLevel:
    """The level closest to e_target within (max(V0, e_target - search_width),
    e_target + search_width], indexed as in :func:`spectrum`.

    The scan runs from V0 to the top of the window, since the index counts
    the sign changes below it, but only the brackets that reach into the
    window are refined.
    """
    lo = max(spec.v0, e_target - search_width)
    levels = [lv for lv in _levels(spec, e_target + search_width, lo) if lv.energy > lo]
    if not levels:
        raise NumericalError(
            f"no eigenvalue within +-{search_width} of E={e_target} (V0={spec.v0})")
    return min(levels, key=lambda lv: abs(lv.energy - e_target))


# ---------------------------------------------------------------------------
# eigenstates

def eigenstate_closed_court(spec: PotentialSpec, energy: float, parity: str,
                            n_grid: int = 12001, *, index: int) -> Eigenstate:
    """Normalized piecewise-Airy eigenstate at a previously located eigenvalue.

    The coefficient pair is the null vector of the origin condition, so odd
    states vanish at x = 0 exactly; the wall value is then proportional to
    the eigencondition residual.  Energies that fail the eigencondition are
    rejected.  ``index`` labels the state with the level's rank within its
    parity, as :func:`spectrum` reports it.
    """
    _require_closed_court(spec)
    if n_grid % 2 == 0:
        n_grid += 1  # Simpson normalization needs an even interval count
    scales = AiryScales.from_spec(spec, energy)
    x = np.linspace(-spec.a, spec.a, n_grid)
    # z depends on |x| only: evaluate x >= 0, from exactly 0 (linspace may
    # leave ~1e-15 at the centre) to the wall, and mirror
    z = (np.concatenate([[0.0], x[n_grid // 2 + 1:]]) - scales.sigma) / scales.rho
    odd = _is_odd(parity)
    vals = airy_eval_many(z)
    _, residual, _ = _determinant(odd, z[0], [v[0] for v in vals], [v[-1] for v in vals])
    if residual > _EIGEN_RESIDUAL_TOL:
        raise NumericalError(
            f"E={energy!r} is not a {parity} eigenvalue "
            f"(normalized residual {residual:.2e} > {_EIGEN_RESIDUAL_TOL})")
    ai, bi, aip, bip = vals
    psi = bi[0] * ai - ai[0] * bi if odd else bip[0] * ai - aip[0] * bi
    psi = np.concatenate([(-psi if odd else psi)[:0:-1], psi])
    psi = psi / math.sqrt(_simpson_uniform(psi ** 2, x[1] - x[0]))
    return Eigenstate(parity=parity, index=index, energy=float(energy),
                      grid=x, psi=psi, spec=spec)


def infinite_well_energy(spec: PotentialSpec, n: int, parity: str) -> float:
    """E = hbar^2 k^2 / 2m with k = (n - 1/2) pi / a (even) or n pi / a (odd)."""
    c = spec.constants
    k = ((n - 0.5) if parity == "even" else float(n)) * math.pi / spec.a
    return (c.hbar * k) ** 2 / (2.0 * c.mass)


def eigenstate_infinite_well(spec: PotentialSpec, n: int, parity: str,
                             n_grid: int = 12001) -> Eigenstate:
    """Analytic infinite-well eigenstate of the given parity (n >= 1)."""
    if spec.kind is not PotentialKind.INFINITE_WELL:
        raise RegimeError("eigenstate_infinite_well needs an infinite-well spec")
    if n < 1:
        raise ValueError("state index n must be >= 1")
    if n_grid % 2 == 0:
        n_grid += 1
    x = np.linspace(-spec.a, spec.a, n_grid)
    if parity == "even":
        psi = np.cos((n - 0.5) * math.pi * x / spec.a) / math.sqrt(spec.a)
    elif parity == "odd":
        psi = np.sin(n * math.pi * x / spec.a) / math.sqrt(spec.a)
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return Eigenstate(parity=parity, index=n, energy=infinite_well_energy(spec, n, parity),
                      grid=x, psi=psi, spec=spec)


def position_density(state: Eigenstate) -> DensityCurve:
    """|psi(x)|^2 as a DensityCurve over the well."""
    return DensityCurve(variable="position", grid=state.grid, values=state.psi ** 2,
                        support=((-state.spec.a, state.spec.a),))


# ---------------------------------------------------------------------------
# momentum space

def infinite_well_momentum(spec: PotentialSpec, n: int, parity: str, p) -> np.ndarray:
    """Closed-form infinite-well momentum wavefunction (two shifted sincs)."""
    c = spec.constants
    y = spec.a * np.asarray(p, dtype=float) / c.hbar
    pref = math.sqrt(spec.a / (2.0 * math.pi * c.hbar))

    def sinxx(u):
        return np.sinc(u / math.pi)

    if parity == "even":
        big = (n - 0.5) * math.pi
        return pref * (sinxx(big - y) + sinxx(big + y)) + 0.0j
    big = n * math.pi
    return 1.0j * pref * (sinxx(big - y) - sinxx(big + y))


def default_momentum_grid(state: Eigenstate, n_points: int = 4001) -> np.ndarray:
    """Symmetric grid wide enough that the tail mass is below ~1e-4.

    The wall kink makes |phi|^2 fall off like p^-4, so the window must
    extend well past the classical band; max(8 p_plus, p_plus + 40 hbar/a)
    keeps the Parseval deficit under 1e-4 for every supported state.
    """
    c = state.spec.constants
    p_plus = math.sqrt(2.0 * c.mass * state.energy)
    half_width = max(8.0 * p_plus, p_plus + 40.0 * c.hbar / state.spec.a)
    return np.linspace(-half_width, half_width, n_points)


def _filon_moments(q: np.ndarray, h: float):
    """Panel moments M_j = int_{-h}^{h} s^j exp(i q s) ds for j = 0, 1, 2."""
    theta = q * h
    small = np.abs(theta) < 0.1
    m0, m1, m2 = np.empty_like(theta), np.empty_like(theta), np.empty_like(theta)
    ts = theta[small]
    t2 = ts * ts
    m0[small] = 2.0 * h * (1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 * t2 * t2 / 5040.0)
    m1[small] = 2.0 * h * h * ts * (1.0 / 3.0 - t2 / 30.0 + t2 * t2 / 840.0
                                    - t2 * t2 * t2 / 45360.0)
    m2[small] = 2.0 * h ** 3 * (1.0 / 3.0 - t2 / 10.0 + t2 * t2 / 168.0
                                - t2 * t2 * t2 / 6480.0)
    big = ~small
    qq, tb = q[big], theta[big]
    sin_t, cos_t = np.sin(tb), np.cos(tb)
    m0[big] = 2.0 * sin_t / qq
    m1[big] = 2.0 * (sin_t - tb * cos_t) / (qq * qq)
    m2[big] = 2.0 * ((tb * tb - 2.0) * sin_t + 2.0 * tb * cos_t) / (qq ** 3)
    return m0, 1.0j * m1, m2


def _step(v: np.ndarray) -> float:
    return float(v[-1] - v[0]) / (len(v) - 1) if len(v) > 1 else 0.0


def _is_uniform(v: np.ndarray) -> bool:
    """Every point within a few ulps of max |v| of v_0 + m (v_last - v_0) / (M - 1).

    Where the step is subnormal, rounding error is absolute instead: a
    linspace's rounded step puts point m up to m/2 subnormal ulps off, a
    later division by hbar scales that, and the step taken here adds as
    much again.  So the tolerance never drops below _SUBNORMAL_ULPS such
    ulps per point, which covers a division by hbar down to about 1/60.
    """
    ideal = v[0] + _step(v) * np.arange(len(v))
    tol = max(_UNIFORM_ULPS * np.finfo(float).eps * float(np.max(np.abs(v))),
              _SUBNORMAL_ULPS * len(v) * np.finfo(float).smallest_subnormal)
    return bool(np.max(np.abs(v - ideal)) <= tol)


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n >= 1, a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()  # the power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # times the smallest power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _panel_sums_chirp(q: np.ndarray, centers: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_j rows[r, j] exp(i q_m c_j) for uniform q, as one chirp-z transform.

    With c_j = c_0 + j dc and q_m = q_0 + m dq, the identity
    m j = (m^2 + j^2 - (m - j)^2) / 2 turns each sum into a convolution
    with the chirp exp(-i alpha k^2), alpha = dq dc / 2, k = -(N-1)..M-1
    (Bluestein), done at the 5-smooth FFT length >= N + M - 1.
    """
    n, m = len(centers), len(q)
    dq, dc = _step(q), _step(centers)
    alpha = 0.5 * dq * dc
    j = np.arange(n, dtype=float)
    k = np.arange(-(n - 1), m, dtype=float)
    size = _smooth_length(n + m - 1)
    a = rows * np.exp(1.0j * (q[0] * dc * j + alpha * j * j))
    conv = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(np.exp(-1.0j * alpha * k * k), size))
    mm = np.arange(m, dtype=float)
    return conv[:, n - 1:n - 1 + m] * np.exp(1.0j * (q * centers[0] + alpha * mm * mm))


def momentum_transform(state: Eigenstate, p_grid=None,
                       n_points: int = 4001) -> MomentumWavefunction:
    """Oscillation-aware Fourier transform of a sampled eigenstate.

    Each pair of grid intervals forms one Filon panel: psi is interpolated
    quadratically and the oscillatory moments are integrated exactly, so the
    error is set by the spatial grid alone.  The state's grid must still
    resolve the fastest requested oscillation (>= 20 panels per oscillation
    at max |p|), otherwise a :class:`ResolutionError` reports the minimal
    admissible grid.

    The rule needs the panel sums sum_j g_j exp(i q c_j) over the N panel
    centres c_j at M momenta, for the three rows g = (psi at the centre,
    slope, curvature).  psi is real with parity s = +-1, so the panel at
    -c_j carries (s, -s, s) times the rows at c_j, and each full sum is
    S + eps conj(S), eps = (s, -s, s), with S taken over the centres
    c_j >= 0 alone: N/2 panels, or (N + 1)/2 when x = 0 is a panel centre,
    whose panel is then counted half.  So phi is exactly real for even
    states and exactly imaginary for odd ones.  S is one chirp-z transform
    at the smallest 5-smooth FFT length >= N/2 + M - 1, in
    O((N + M) log(N + M)) time and O(N + M) memory (7200 long, about 2 ms
    and 1.3 MB at the CLI defaults N = 6000, M = 4001).  So ``p_grid`` must
    be evenly spaced (the default one, any ``np.linspace``, a single point,
    in either direction); any other grid raises ValueError, and so does a
    state whose psi departs from its parity label by more than 1e-12 of
    max |psi|, or whose grid is not symmetric about x = 0.
    """
    spec = state.spec
    c = spec.constants
    if p_grid is None:
        p_grid = default_momentum_grid(state, n_points)
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.ndim != 1:
        raise ValueError(f"p_grid must be one-dimensional, got shape {p_grid.shape}")
    if not p_grid.size:
        raise ValueError("p_grid is empty")
    if not np.all(np.isfinite(p_grid)):
        raise ValueError("p_grid holds non-finite momenta")
    q = p_grid / c.hbar
    if not _is_uniform(q):
        raise ValueError("p_grid must be evenly spaced")
    x = state.grid
    h = x[1] - x[0]
    if not np.allclose(np.diff(x), h, rtol=1e-9) or x[0] != -x[-1]:
        raise ValueError("momentum_transform requires a uniform position grid "
                         "symmetric about x = 0")
    n_int = len(x) - 1
    q_max = float(np.max(np.abs(p_grid))) / c.hbar
    oscillations = q_max * (x[-1] - x[0]) / (2.0 * math.pi)
    n_required = int(math.ceil(20.0 * oscillations))
    if n_int < n_required:
        raise ResolutionError(
            f"position grid too coarse for |p| up to {q_max * c.hbar:.4g}: "
            f"{n_int} intervals < {n_required} (20 panels per oscillation)")
    if n_int % 2:
        raise ValueError("position grid must have an even number of intervals")

    psi = state.psi.astype(float)
    sign = {"even": 1.0, "odd": -1.0}.get(state.parity)
    if sign is None or (np.max(np.abs(psi - sign * psi[::-1]))
                        > _PARITY_TOL * np.max(np.abs(psi))):
        raise ValueError(f"psi does not have the parity {state.parity!r} it is labelled with")

    # the panels with centres c_j >= 0; the first one is centred on x = 0
    # (and counted half, being its own mirror) when n_int = 2 mod 4
    lo = 2 * (n_int // 4)
    centers = x[lo + 1:-1:2]
    f_left, f_center, f_right = psi[lo:-2:2], psi[lo + 1:-1:2], psi[lo + 2::2]
    slope = (f_right - f_left) / (2.0 * h)
    curve = (f_right - 2.0 * f_center + f_left) / (2.0 * h * h)
    rows = np.stack([f_center, slope, curve])
    if n_int % 4:
        rows[:, 0] *= 0.5

    # the mirror panel at -c_j carries (sign f_center, -sign slope, sign curve)
    sums = _panel_sums_chirp(q, centers, rows)
    sums += np.array([[sign], [-sign], [sign]]) * sums.conj()
    phi = (np.stack(_filon_moments(q, h)) * sums).sum(axis=0)
    phi /= math.sqrt(2.0 * math.pi * c.hbar)
    return MomentumWavefunction(grid=p_grid, phi=phi,
                                density=np.abs(phi) ** 2, hbar=c.hbar)
