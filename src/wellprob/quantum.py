"""Bound states of the wells and their momentum-space wavefunctions.

The linear well with walls is solved piecewise in Airy functions: on the
right half, psi(x) = C Ai((x - sigma)/rho) + D Bi((x - sigma)/rho) with
rho = (hbar^2 a / (2 m V0))^(1/3) and sigma = E a / V0.  Parity fixes the
condition at the origin (psi = 0 for odd states, psi' = 0 for even states)
and the infinite wall requires psi(a) = 0; eigenvalues are the zeros of the
resulting 2x2 determinant, a cross product of Airy functions.  In the
modulus-phase form of the Airy functions that determinant is an envelope
times sin(Delta), with Delta a difference of Airy phases, so level k of a
parity solves Delta = k pi and floor(Delta / pi) counts the levels below E
exactly (Sturm oscillation).  Delta is formed from the phases' offsets from
their closed-form trend plus the trend's difference, taken as the action
between the two arguments, so its error does not grow with the origin
argument: levels agree with 50-digit mpmath to 2e-15 relative from deep
levels (origin argument -230) down to V0 = 1e-3.  Each evaluation of
Delta is one call of ``airy._phases`` on the origin and wall arguments of
all its energies, one shared contraction of the Airy series whatever
their regimes, so the level solve pays a fixed handful of array
operations per Newton step.  Levels are listed in the regime E > V0.
Eigenstates come from the same gaps, out to the wall and to their block
starts in one call.  Infinite-well levels and states are closed forms.

Momentum-space wavefunctions come from the +i kernel Fourier transform
phi(p) = (2 pi hbar)^(-1/2) int psi(x) exp(+i p x / hbar) dx, evaluated
with a piecewise-quadratic Filon rule whose accuracy is independent of p,
in node form: a weighted sum of psi at the grid nodes.  An eigenstate is
its x >= 0 half mirrored by parity, so the sum needs only the nodes x >= 0;
the mirror half is their complex conjugate.  psi is real, so phi(-p) =
conj phi(p), and a p grid symmetric about 0 is transformed on p >= 0 only.
The momenta must be evenly spaced: the node sums at M momenta are then one
chirp-z (Bluestein) transform at a 5-smooth FFT length,
O((N + M) log(N + M)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# airy_eval_many is not called here; perfbench/spans.py wraps quantum.airy_eval_many
from .airy import _TAYLOR_DEGREE, _local_series, _phases, airy_eval_many  # noqa: F401
from .errors import NumericalError, RegimeError, ResolutionError
from .model import PotentialKind, PotentialSpec

_EIGEN_RESIDUAL_TOL = 1e-6  # |sin Delta| at an accepted E
_NEWTON_MAX_ITERS = 64
_NEWTON_STEP_TOL = 4.0 * np.finfo(float).eps  # relative to |E|
_NEWTON_STALL_TOL = math.sqrt(np.finfo(float).eps)  # relative; see _newton_roots
_MAX_LEVELS = 100_000  # levels one solve may face, both parities
_LATTICE_PER_PI = 4  # lattice steps per pi of the trend of Delta, where it is steepest
_OPENING_BLOCK = 4096  # energies per call of a level solve's opening evaluation
_UNIFORM_ULPS = 8.0  # tolerance of the uniform-p test, in ulps of max |p|
_SUBNORMAL_ULPS = 32.0  # its floor, in subnormal ulps per point; see _is_uniform
# smallest V0 / E of a level solve: dDelta/dE, a difference of moduli at the
# origin and the wall, is good to about 2 eps E / V0 relative, 4e-3 here
_V0_FLOOR = 1e-13
_BLOCK_REACH = 0.75  # largest sqrt(|z|) |t| of an eigenstate block, as of an Airy anchor's
_BOTH_PARITIES = np.array([[False], [True]])  # the mismatch's rows: even, odd
_PARITIES = ("even", "odd")


class SkippedRootWarning(UserWarning):
    """Kept for callers that filter it; the phase count cannot skip a level,
    so nothing raises it."""


@dataclass(frozen=True)
class AiryScales:
    """Length scales of the linear-well solution: rho (Airy unit) and
    sigma = E a / V0 (where the extended ramp would reach the energy; an
    array for an array of energies)."""

    rho: float
    sigma: float

    @classmethod
    def from_spec(cls, spec: PotentialSpec, energy: float) -> "AiryScales":
        """rho is inf where hbar^2 leaves double precision."""
        c = spec.constants
        try:
            rho = (c.hbar ** 2 * spec.a / (2.0 * c.mass * spec.v0)) ** (1.0 / 3.0)
        except OverflowError:
            rho = math.inf
        return cls(rho=rho, sigma=energy * spec.a / spec.v0)


@dataclass(frozen=True)
class EigenLevel:
    """One level: ``index`` is its rank within its parity above V0 (the
    infinite well: from the ground state), ``n`` its quantum number among
    all levels of both parities, from n = 1 at the ground state."""

    energy: float
    parity: str
    index: int
    residual: float
    n: int


@dataclass(frozen=True, eq=False)
class Eigenstate(EigenLevel):
    """A level and its state, given by ``half``: psi at the nodes x >= 0,
    linspace(0, a, len(half)).  ``grid`` is those nodes mirrored (exactly
    antisymmetric, 0 at the centre) and ``psi`` the half mirrored by the
    parity label, so the state has that parity by construction; ``half`` is
    then a view of ``psi``.  ValueError for a label other than even | odd,
    or a ``half`` that is not 1-D with at least 2 points.

    States compare and hash as their ``EigenLevel`` does, by energy,
    parity, index, residual and n; the arrays and the spec take no part."""

    half: np.ndarray
    spec: PotentialSpec
    grid: np.ndarray = field(init=False)
    psi: np.ndarray = field(init=False)

    def __post_init__(self):
        odd, half = _is_odd(self.parity), np.asarray(self.half, dtype=float)
        if half.ndim != 1 or len(half) < 2:
            raise ValueError(f"half must be 1-D with at least 2 points, got shape {half.shape}")
        x = np.linspace(0.0, self.spec.a, len(half))
        object.__setattr__(self, "grid", np.concatenate([-x[:0:-1], x]))
        object.__setattr__(self, "psi", np.concatenate([(-half if odd else half)[:0:-1], half]))
        object.__setattr__(self, "half", self.psi[len(half) - 1:])


@dataclass(frozen=True)
class MomentumWavefunction:
    grid: np.ndarray
    phi: np.ndarray
    density: np.ndarray

    def norm_mass(self) -> float:  # the grid may run either way
        return abs(float(np.trapezoid(self.density, self.grid)))


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


def _phase_gaps(spec: PotentialSpec, energies: np.ndarray, far, odd):
    """One :func:`airy._phases` call at the origin and at x = ``far`` gives
    the gap Delta = theta(z_x) - origin and dDelta/dE at x, the lift, the
    origin offset, and M^2, the phi offset and N^2, origin first.  The
    origin phase is theta(z_0) where ``odd``, else phi(z_0); ``far`` and
    ``odd`` broadcast against the energies.

    A phase is its trend ref = pi/4 - zeta(z), zeta = (2/3) max(-z, 0)^1.5,
    plus its offset, so a gap is the lift zeta_0 - zeta_x plus a difference
    of offsets.  Where t = -z > 0 at both ends, t_0 - t_x = x / rho and the
    lift is (2/3)(x / rho)(t_0 + sqrt(t_0 t_x) + t_x) / (sqrt(t_0) +
    sqrt(t_x)): no cancellation however deep z_0, 0 at x = 0, and no 0 / 0.
    """
    scales = AiryScales.from_spec(spec, energies)
    n = len(energies)
    z = np.concatenate([-scales.sigma, far - scales.sigma]) / scales.rho  # origin, far
    m2, theta, n2, phi = _phases(z)
    t = np.maximum(-z, 0.0)
    s = np.sqrt(t)
    t0, tx, s0, sx = t[:n], t[n:], s[:n], s[n:]
    trend = np.multiply(t0, s0, out=np.empty_like(tx))  # (3/2) zeta_0, all of it where z_x >= 0
    np.divide(far / scales.rho * (t0 + s0 * sx + tx), s0 + sx, out=trend, where=tx > 0.0)
    lift = (2.0 / 3.0) * trend
    inv = 1.0 / m2  # pi dtheta/dz
    origin = np.where(odd, theta[:n], phi[:n])
    rate = np.where(odd, inv[:n], -z[:n] / n2[:n])  # pi dphase/dz at z_0
    dz_de = -spec.a / (spec.v0 * scales.rho)
    return (lift + (theta[n:] - origin), (inv[n:] - rate) * (dz_de / math.pi),
            lift, origin, m2, phi, n2)


def _mismatch(spec: PotentialSpec, energies: np.ndarray, odd):
    """Delta and dDelta/dE at each energy, the gap at the wall.  The boundary
    determinant is M(z_0) M(z_w) sin(Delta) (odd) or N(z_0) M(z_w) sin(Delta)
    (even), so by Sturm oscillation odd level k >= 1 (n = 2k) and even
    level k >= 0 (n = 2k + 1) solve Delta = k pi, and floor(Delta / pi)
    (+ 1 if even) counts the levels below E."""
    return _phase_gaps(spec, energies, spec.a, odd)[:2]


def _gate(delta: np.ndarray):
    """k = round(Delta / pi) and |sin(Delta - k pi)| of Delta[0], as the level solve has them."""
    k = np.round(delta[:1] / math.pi)
    return float(k[0]), float(np.abs(np.sin(delta[:1] - k * math.pi))[0])


def eigencondition_residual(spec: PotentialSpec, energy: float, parity: str) -> float:
    """|sin(Delta - k pi)| for the nearest k, the boundary determinant over its
    envelope; ~0 at an eigenvalue."""
    return _gate(_mismatch(spec, np.array([energy]), _is_odd(parity))[0])[1]


def _newton_roots(spec: PotentialSpec, odd: np.ndarray, target: np.ndarray, left: np.ndarray,
                  right: np.ndarray, start: np.ndarray):
    """The energies where the mismatch of parity ``odd`` equals ``target``
    (k pi), one in each bracket (Delta < k pi at ``left``, >= k pi at
    ``right``), and the residual |sin(Delta - k pi)| at each; vectorized
    over the roots.

    A bracket-safeguarded Newton iteration from ``start``.  Every evaluation
    shrinks the bracket to the side that keeps the root; a Newton step that
    leaves the bracket is replaced by its midpoint.  A root is done once its
    raw Newton step |(Delta - k pi) / Delta'| is within 4 eps |E|, or once
    that step, already below sqrt(eps) |E|, stops shrinking: it is then the
    mismatch's noise floor.  Delta is good to a few ulps of itself, which
    keeps that floor near 2 eps |E|: the second test stopped 3 of 11404
    roots of the level-search and spectrum inputs at seeds 3, 7 and 11
    (1280 when Delta was a difference of two unwrapped phases, each
    zeta * eps off).  Near a root the sign of Delta - k pi is noise too, so
    neither the bracket width nor a bisection step is a usable stop test.
    Each root stops on its own test, so it takes the same steps whatever
    other roots share the loop.  Each root's result is the last energy
    evaluated, with its residual.

    The loop carries the active roots' state as compact arrays: a step
    that finishes roots writes their results and drops them, all arrays
    at once; a step that finishes none indexes nothing.
    """
    energy, residual = np.empty(len(start)), np.empty(len(start))
    if not len(start):
        return energy, residual
    todo, x, lo, hi, last_step = np.arange(len(start)), start, left, right, np.inf
    for evaluation in range(1, _NEWTON_MAX_ITERS + 1):
        delta, slope = _mismatch(spec, x, odd)
        f = delta - target
        below = f < 0.0
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        step = f / slope
        size, scale = np.abs(step), np.abs(x)
        done = (size <= _NEWTON_STEP_TOL * scale) | (
            (size >= last_step) & (size <= _NEWTON_STALL_TOL * scale))
        if done.all() or evaluation == _NEWTON_MAX_ITERS:
            energy[todo], residual[todo] = x, np.abs(np.sin(f))
            break
        nxt = x - step
        x_next = np.where((nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
        if done.any():
            out, keep = todo[done], ~done
            energy[out], residual[out] = x[done], np.abs(np.sin(f[done]))
            todo, odd, target, lo, hi, size, x_next = (
                v[keep] for v in (todo, odd, target, lo, hi, size, x_next))
        x, last_step = x_next, size
    return energy, residual


def _solve(spec: PotentialSpec, ends: np.ndarray, grid: np.ndarray, delta: np.ndarray,
           slope: np.ndarray):
    """The levels of both parities in a window, given the mismatch of each
    parity (rows even, odd) at the window's ends (``ends``, two columns) and
    Delta and dDelta/dE at every energy of an ascending table ``grid`` that
    spans the window: their parities, their integer targets k, their
    energies and their residuals.

    floor(Delta / pi) at the window's ends lists each parity's targets.
    Each root lies in one table interval, Delta < k pi at its left end and
    >= k pi at its right, which is its bracket; it starts from the cubic
    Hermite interpolant of E(Delta) on that interval, whose end slopes are
    1 / Delta' (the interval's affine interpolant where the cubic leaves the
    bracket).  All roots share one Newton loop: one Airy phase call per step.
    """
    (even_lo, even_hi), (odd_lo, odd_hi) = np.floor(ends / math.pi).astype(int).tolist()
    n_even = even_hi - even_lo
    if n_even + odd_hi - odd_lo > _MAX_LEVELS:
        raise RegimeError(f"{n_even + odd_hi - odd_lo} levels lie in the window; "
                          f"a spectrum holds at most {_MAX_LEVELS}")
    k = np.concatenate([np.arange(even_lo + 1, even_hi + 1), np.arange(odd_lo + 1, odd_hi + 1)])
    odd = np.arange(len(k)) >= n_even
    target = k * math.pi
    right = np.concatenate([np.searchsorted(delta[0], target[:n_even]),
                            np.searchsorted(delta[1], target[n_even:])])
    right = np.minimum(np.maximum(right, 1), len(grid) - 1)
    rows, left = odd.astype(int), right - 1
    d0, d1 = delta[rows, left], delta[rows, right]
    e0, e1 = grid[left], grid[right]
    rise, width = d1 - d0, e1 - e0
    u = (target - d0) / rise
    v = 1.0 - u
    start = (e0 + width * u * u * (3.0 - 2.0 * u)
             + rise * u * v * (v / slope[rows, left] - u / slope[rows, right]))
    start = np.where((start > e0) & (start < e1), start, e0 + u * width)
    return (odd, k, *_newton_roots(spec, odd, target, e0, e1, start))


def _levels(spec: PotentialSpec, e_max: float, above: float) -> list[EigenLevel]:
    """The levels of both parities in (max(V0, above), e_max], sorted by
    energy and indexed as in :func:`spectrum`.

    One opening call gives the mismatch of both parities and its slope at
    V0, at the window's ends and on a lattice that spans the window; the
    count at V0 gives each level's index, and only the window's levels are
    solved.  The lattice is sqrt(E) = j ds, with ds set by the spec alone:
    the trend of Delta, (2/3)(a / (V0 rho))^1.5 (E^1.5 - (E - V0)^1.5),
    rises by at most pi/4 per step (its slope in sqrt(E) is largest at
    E = V0).  So a level's bracket, start and Newton steps do not depend on
    the window: every window that holds a level gives it the same energy
    and residual, bit for bit.  A window that the trend puts above 10^5
    levels fails before any Airy call.
    """
    _require_closed_court(spec)
    if not math.isfinite(e_max):
        raise ValueError(f"e_max must be finite, got {e_max!r}")
    lo = spec.v0 * (1.0 + 1e-12) + 1e-300
    bottom = max(lo, above)
    if e_max <= bottom:
        return []
    scales = AiryScales.from_spec(spec, e_max)
    if not (0.0 < scales.rho < math.inf and math.isfinite(scales.sigma)):
        raise RegimeError(f"the Airy scales rho={scales.rho:g} and sigma={scales.sigma:g} "
                          f"of a={spec.a:g}, V0={spec.v0:g} at the top of the energy "
                          f"window, E={e_max:g}, leave double precision")
    if not spec.v0 >= _V0_FLOOR * e_max:
        raise RegimeError(f"V0={spec.v0:g} is below {_V0_FLOOR:g} of the top of the energy "
                          f"window, E={e_max:g}, where the mismatch's slope loses its digits")
    # the trend of Delta, (2/3)(t_0^1.5 - max(t_0 - a / rho, 0)^1.5) with
    # t_0 = sigma / rho, lies within pi of each parity's Delta
    reach, t_top = spec.a / scales.rho, scales.sigma / scales.rho
    trend = [(2.0 / 3.0) * (t ** 1.5 - max(t - reach, 0.0) ** 1.5)
             for t in (t_top * bottom / e_max, t_top)]
    about = 2.0 * (trend[1] - trend[0]) / math.pi
    if about > _MAX_LEVELS + 4:
        raise RegimeError(f"about {about:.3g} levels lie in ({bottom:g}, {e_max:g}]; "
                          f"a spectrum holds at most {_MAX_LEVELS}")
    # lattice steps per unit sqrt(E): the trend's slope in sqrt(E) is largest
    # at E = V0, 2 (a / rho)^1.5 / sqrt(V0); at least one step spans the
    # window, and one more on each side keeps it covered under rounding
    steps = max(2.0 * _LATTICE_PER_PI * reach ** 1.5 / (math.pi * math.sqrt(spec.v0)),
                1.0 / math.sqrt(e_max))
    first = max(math.floor(math.sqrt(bottom) * steps) - 1, 0)
    last = math.ceil(math.sqrt(e_max) * steps) + 1
    grid = (np.arange(first, last + 1) / steps) ** 2
    energies = np.concatenate([[lo, bottom, e_max], grid])
    # in blocks, to bound memory: each energy's values are bit-equal in any batch
    blocks = [_mismatch(spec, energies[i:i + _OPENING_BLOCK], _BOTH_PARITIES)
              for i in range(0, len(energies), _OPENING_BLOCK)]
    delta, slope = map(np.hstack, zip(*blocks))
    odd, k, energies, residuals = _solve(spec, delta[:, 1:3], grid, delta[:, 3:], slope[:, 3:])
    below = np.floor(delta[:, 0] / math.pi).astype(int)
    order = energies.argsort(kind="stable")
    odd, k = odd[order], k[order]
    return [EigenLevel(energy=e, parity=_PARITIES[o], index=j, residual=r, n=m)
            for e, o, j, r, m in zip(energies[order].tolist(), odd.tolist(),
                                     (k - below[odd.astype(int)]).tolist(),
                                     residuals[order].tolist(), (2 * k + 1 - odd).tolist())]


def eigenvalues_closed_court(spec: PotentialSpec, e_max: float, parity: str) -> np.ndarray:
    """All eigenvalues of one parity in (V0, e_max], sorted ascending: the
    levels of that parity from :func:`spectrum`."""
    _require_closed_court(spec)
    _is_odd(parity)  # rejects any other label
    return np.array([lv.energy for lv in spectrum(spec, e_max) if lv.parity == parity])


def spectrum(spec: PotentialSpec, e_max: float) -> list[EigenLevel]:
    """Every level of both parities in (V0, e_max], sorted by energy.

    Infinite-well levels (V0 = 0) are listed in closed form: level n = 1..K,
    K = floor(2a sqrt(2m e_max) / (pi hbar)) + 1, is state (n + 1) // 2 of
    parity even (n odd) or odd (n even), kept when its
    :func:`infinite_well_energy` is <= e_max.  RegimeError, before any
    level is computed, when K exceeds 10^5 (e_max = inf or nan included).

    Closed-court levels are solved by quantum number: the Airy phase
    mismatch Delta of each parity at V0 and at e_max lists the integer
    targets k with Delta = k pi in between, so no level can be missed, and
    one bracket-safeguarded Newton iteration refines them all to
    machine-level relative accuracy, one Airy phase call per step.  A level's
    index is its rank among the levels of its parity above V0 and ``n``
    its rank among all levels, those below V0 included.  ValueError for a
    non-finite ``e_max``; RegimeError when the window holds more than 10^5
    levels.  No origin argument is too deep for the phase mismatch.
    """
    if spec.kind is not PotentialKind.INFINITE_WELL:
        return _levels(spec, e_max, spec.v0)
    c = spec.constants
    count = 2.0 * spec.a * math.sqrt(2.0 * c.mass * max(e_max, 0.0)) / (math.pi * c.hbar)
    if not count < _MAX_LEVELS:
        raise RegimeError(f"about {count:.3g} levels lie below e_max={e_max:g}; "
                          f"a spectrum holds at most {_MAX_LEVELS}")
    levels = []
    for n in range(1, math.floor(count) + 2):
        index, parity = (n + 1) // 2, "even" if n % 2 else "odd"
        energy = infinite_well_energy(spec, index, parity)
        if energy <= e_max:
            levels.append(EigenLevel(energy=energy, parity=parity, index=index,
                                     residual=0.0, n=n))
    return levels


def nearest_level(spec: PotentialSpec, e_target: float, search_width: float = 1.0) -> EigenLevel:
    """The level closest to e_target within (max(V0, e_target - search_width),
    e_target + search_width], indexed as in :func:`spectrum`.

    Only the levels in the window are solved: the phase count at V0 gives
    their index, so the cost does not grow with the levels below it.  Each
    level is the one :func:`spectrum` lists, bit for bit.  ValueError,
    before any Airy call, unless ``e_target`` is finite, ``search_width``
    finite and > 0, and their sum finite.
    """
    if not math.isfinite(e_target):
        raise ValueError(f"e_target must be finite, got {e_target!r}")
    if not (math.isfinite(search_width) and search_width > 0.0):
        raise ValueError(f"search_width must be finite and > 0, got {search_width!r}")
    top = e_target + search_width
    if not math.isfinite(top):
        raise ValueError(f"e_target + search_width must be finite, got {top!r}")
    levels = _levels(spec, top, max(spec.v0, e_target - search_width))
    if not levels:
        raise NumericalError(
            f"no eigenvalue within +-{search_width} of E={e_target} (V0={spec.v0})")
    return min(levels, key=lambda lv: abs(lv.energy - e_target))


# ---------------------------------------------------------------------------
# eigenstates

def _half_count(n_grid: int) -> int:
    """A state's nodes x >= 0, n_grid // 2 + 1; ValueError for n_grid < 2."""
    if not n_grid >= 2:
        raise ValueError(f"n_grid must be at least 2, got {n_grid!r}")
    return n_grid // 2 + 1


def eigenstate_closed_court(spec: PotentialSpec, energy: float, parity: str,
                            n_grid: int = 12001, *, index: int) -> Eigenstate:
    """Normalized piecewise-Airy eigenstate at a previously located eigenvalue.

    One :func:`_phase_gaps` call at the origin, the wall and the block
    starts: the wall's gap is the level solve's Delta, bit for bit, so
    k = round(Delta / pi), n = 2k + 1 - [odd] and the residual
    |sin(Delta - k pi)| are :func:`spectrum`'s, and a residual that fails
    rejects the energy before any synthesis.  At each start psi =
    -M sin(theta - origin) and dpsi/dz = -N sin(phi - origin), free of
    zeta * eps error; the gap is 0 at x = 0, so psi(0) = 0 (odd) and
    dpsi/dz(0) = 0 (even) exactly.  ValueError, before any Airy call, for a
    non-finite energy or n_grid < 2.  ``index`` is as in :func:`spectrum`.

    z = (|x| - sigma) / rho depends on |x| only, so psi is built on the
    x >= 0 nodes alone: the state's ``half``, n_grid // 2 + 1 points j h,
    h = a / (n_grid // 2), cut into blocks that each span
    sqrt(|z|) |t| <= 0.75 in z (|z| at least 1), the bound of the Airy
    anchors' series, each summed from its start's Taylor series
    (:func:`airy._local_series`), all by one (block x 27) @ (27 x blocks)
    product against the shared powers of r dz.
    """
    _require_closed_court(spec)
    n_half = _half_count(n_grid)
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy!r}")
    odd = _is_odd(parity)
    scales = AiryScales.from_spec(spec, energy)
    h = spec.a / (n_half - 1)
    dz = h / scales.rho
    z_far = max(1.0, abs(scales.sigma) / scales.rho, abs(spec.a - scales.sigma) / scales.rho)
    block = max(1, int(_BLOCK_REACH / (math.sqrt(z_far) * dz)))
    starts = h * np.arange(0, n_half, block)
    gap, _, lift, origin, m2, phi, n2 = _phase_gaps(
        spec, np.array([energy]), np.concatenate([[spec.a], starts]), odd)
    k, residual = _gate(gap)  # gap: the wall, the starts; m2, phi, n2: the origin first
    if not residual <= _EIGEN_RESIDUAL_TOL:  # a NaN residual fails too
        raise NumericalError(
            f"E={energy!r} is not a {parity} eigenvalue "
            f"(normalized residual {residual:.2e} > {_EIGEN_RESIDUAL_TOL})")
    if not np.isfinite(m2[2:] + n2[2:]).all():  # Bi past z ~ 66: E < V0 on a wide court
        raise RegimeError(f"E={energy!r}: the Airy moduli at the nodes leave double precision")
    coef = _local_series((starts - scales.sigma) / scales.rho,  # 0.0 - x: a zero is +0
                         0.0 - np.sqrt(m2[2:]) * np.sin(gap[1:]),
                         0.0 - np.sqrt(n2[2:]) * np.sin(lift[1:] + (phi[2:] - origin)))
    powers = np.vander(dz * np.arange(block), _TAYLOR_DEGREE + 1, increasing=True)
    half = (powers @ coef).T.ravel()[:n_half]
    sq = half ** 2  # |psi|^2 is even whatever the parity
    half = half / math.sqrt(_simpson_uniform(np.concatenate([sq[:0:-1], sq]), h))
    return Eigenstate(energy=float(energy), parity=parity, index=index, residual=residual,
                      n=int(2 * k + 1 - odd), half=half, spec=spec)


def _well_mode(index: int, parity: str) -> float:
    """k a / pi of infinite-well state ``index``: index (odd) or index - 1/2 (even)."""
    if not (index >= 1 and float(index).is_integer()):
        raise ValueError(f"state index must be >= 1 and integral, got {index!r}")
    return float(index) if _is_odd(parity) else index - 0.5


def infinite_well_energy(spec: PotentialSpec, index: int, parity: str) -> float:
    """E = hbar^2 k^2 / 2m with k = (index - 1/2) pi / a (even) or index pi / a (odd).

    ValueError unless the index is an integer >= 1 and the parity even | odd;
    RegimeError unless E is finite and positive.
    """
    c = spec.constants
    k = _well_mode(index, parity) * math.pi / spec.a
    try:
        energy = (c.hbar * k) ** 2 / (2.0 * c.mass)
    except OverflowError:
        energy = math.inf
    if not 0.0 < energy < math.inf:
        raise RegimeError(f"infinite-well level {index} {parity} leaves double precision: "
                          f"E={energy}")
    return energy


def eigenstate_infinite_well(spec: PotentialSpec, index: int, parity: str,
                             n_grid: int = 12001) -> Eigenstate:
    """Analytic infinite-well eigenstate at its n_grid // 2 + 1 nodes x >= 0
    (an odd state's psi(0) is 0 exactly), with residual 0 and n = 2 index -
    [even], as in :func:`spectrum`; ValueError as :func:`infinite_well_energy`
    and for n_grid < 2."""
    if spec.kind is not PotentialKind.INFINITE_WELL:
        raise RegimeError("eigenstate_infinite_well needs an infinite-well spec")
    n_half = _half_count(n_grid)
    energy = infinite_well_energy(spec, index, parity)  # rejects a bad index or label
    x = np.linspace(0.0, spec.a, n_half)
    wave = np.sin if parity == "odd" else np.cos
    half = wave(_well_mode(index, parity) * math.pi * x / spec.a) / math.sqrt(spec.a)
    return Eigenstate(energy=energy, parity=parity, index=index, residual=0.0,
                      n=2 * index - (parity == "even"), half=half, spec=spec)


# ---------------------------------------------------------------------------
# momentum space

def infinite_well_momentum(spec: PotentialSpec, index: int, parity: str, p) -> np.ndarray:
    """Closed-form infinite-well momentum wavefunction (two shifted sincs);
    ValueError unless the index is an integer >= 1 and the parity even | odd."""
    big = _well_mode(index, parity) * math.pi
    c = spec.constants
    y = spec.a * np.asarray(p, dtype=float) / c.hbar
    pref = math.sqrt(spec.a / (2.0 * math.pi * c.hbar))

    def sinxx(u):
        return np.sinc(u / math.pi)

    if parity == "even":
        return pref * (sinxx(big - y) + sinxx(big + y)) + 0.0j
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


# row k: theta^2k's coefficients (-1)^k / ((2k + [j=1])! (2k + 1 + 2[j>0])) in
# M_j / (2 h^(j+1) theta^[j=1]), j = 0, 1, 2; the rest is 1e-19 at theta = pi/10
_FILON_SERIES = np.array([[(-1) ** k / (math.factorial(2 * k + f) * (2 * k + d))
                           for f, d in ((0, 1), (1, 3), (0, 3))] for k in range(7)])


def _filon_moments(q: np.ndarray, h: float):
    """Panel moments M_j = int_{-h}^{h} s^j exp(i q s) ds for j = 0, 1, 2,
    one series in theta = q h for |theta| <= pi/10, which the
    20-panels-per-oscillation check of :func:`momentum_transform` ensures."""
    theta = q * h
    t2 = theta * theta
    total = 0.0
    for row in _FILON_SERIES[::-1]:
        total = total * t2 + row[:, None]
    m0, m1, m2 = total
    return 2.0 * h * m0, 2.0j * h * h * theta * m1, 2.0 * h ** 3 * m2


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
    (Bluestein), done at the 5-smooth FFT length >= N + M - 1.  The one
    chirp also gives the pre-phase exp(i (q_0 dc j + alpha j^2)) when
    q_0 = 0 and the post-phase exp(i (q_m c_0 + alpha m^2)) when c_0 = 0, as
    their conjugates; only a nonzero shift costs a phase of its own.  At
    the CLI defaults neither does: the momenta transformed are p >= 0 of an
    odd-length symmetric grid, and the centres start at x = 0.
    """
    n, m = len(centers), len(q)
    dq, dc = _step(q), _step(centers)
    alpha = 0.5 * dq * dc
    k = np.arange(max(n, m), dtype=float)
    chirp = np.exp(-1.0j * alpha * k * k)  # even in k, bit for bit: built for k >= 0
    j, mm = k[:n], k[:m]
    pre = np.exp(1.0j * (q[0] * dc * j + alpha * j * j)) if q[0] else chirp[:n].conj()
    post = np.exp(1.0j * (q * centers[0] + alpha * mm * mm)) if centers[0] else chirp[:m].conj()
    size = _smooth_length(n + m - 1)
    conv = np.fft.ifft(np.fft.fft(rows * pre, size)
                       * np.fft.fft(np.concatenate([chirp[n - 1:0:-1], chirp[:m]]), size))
    return conv[:, n - 1:n - 1 + m] * post


def momentum_transform(state: Eigenstate, p_grid=None,
                       n_points: int = 4001) -> MomentumWavefunction:
    """Oscillation-aware Fourier transform of a sampled eigenstate.

    Each pair of grid intervals forms one Filon panel: psi is interpolated
    quadratically and the oscillatory moments are integrated exactly, so the
    error is set by the spatial grid alone.  The state's grid must still
    resolve the fastest requested oscillation (>= 20 panels per oscillation
    at max |p|), otherwise a :class:`ResolutionError` reports the minimal
    admissible grid.

    In node form this is Filon's formula (Abramowitz & Stegun 25.4.47):
    phi(q) = sum_i w_i(q) psi_i exp(i q x_i) over the grid nodes, with
    M_j the panel moments int_{-h}^{h} s^j exp(i q s) ds, the weight
    M0 - M2/h^2 at each panel centre, R = (M1/2h + M2/2h^2) exp(-i q h) at
    the wall x = a, conj(R) at x = -a and 2 Re R at every interior panel
    end.  The weights are real in the interior and psi, its ``half``
    mirrored, has the parity s = +-1 of its label, so the full sum is
    S + s conj(S), with S over the nodes x >= 0 alone (x = 0 counted half)
    plus the wall term: phi is exactly real for even states and exactly
    imaginary for odd ones.  Those nodes form two rows at spacing 2h, panel
    ends and panel centres, and S needs their sums at every momentum: one
    chirp-z transform of both rows.  For real psi, phi(-p) = conj phi(p),
    so on a p grid symmetric about 0 (within 8 ulps of max |p|) only the
    half p >= 0 is transformed and the other half is its mirror.  For N
    panels and M momenta transformed, the FFT length is the smallest
    5-smooth one >= N/2 + M - 1, and the cost O((N + M) log(N + M)) time
    and O(N + M) memory (5000 long, about 2 ms and 0.8 MB at the CLI
    defaults, 6000 panels and 4001 momenta).  So ``p_grid`` must be evenly
    spaced (the default one, any ``np.linspace``, a single point, in either
    direction); any other grid raises ValueError.
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
    n = len(state.half) - 1  # intervals on x >= 0
    h = spec.a / n  # the step of the nodes x >= 0, linspace(0, a, n + 1)
    q_max = float(np.max(np.abs(p_grid))) / c.hbar
    oscillations = q_max * spec.a / math.pi  # across the well, 2a wide
    n_required = int(math.ceil(20.0 * oscillations))
    if 2 * n < n_required:
        raise ResolutionError(
            f"position grid too coarse for |p| up to {q_max * c.hbar:.4g}: "
            f"{2 * n} intervals < {n_required} (20 panels per oscillation)")

    sign = -1.0 if state.parity == "odd" else 1.0
    # p < 0 of a symmetric grid mirrors p > 0: phi(-p) = conj phi(p) for real psi
    mid = len(q) // 2 if abs(q[0] + q[-1]) <= _UNIFORM_ULPS * np.finfo(float).eps * q_max else 0
    q = q[mid:]
    # the nodes x >= 0 as two rows at spacing 2h: panel ends x_e and centres
    # x_e + h, from x_e = 0 (n even) or x_e = -h (n odd), whose end is the
    # mirror of a counted node; x = 0 is its own mirror and counts half
    psi, x = state.psi, state.grid
    lo = n - n % 2
    rows = np.stack([psi[lo:-1:2], psi[lo + 1::2]])
    rows[:, 0] *= (0.0, 0.5) if n % 2 else (0.5, 1.0)
    sums = _panel_sums_chirp(q, x[lo:-1:2], rows)
    m0, m1, m2 = _filon_moments(q, h)
    turn = np.exp(1.0j * q * h)
    # Filon's node weights: R at a panel's right end, conj(R) at its left end
    right = (m1 / (2.0 * h) + m2 / (2.0 * h * h)) * turn.conj()
    node_sum = (2.0 * right.real * sums[0] + (m0 - m2 / (h * h)) * turn * sums[1]
                + right * psi[-1] * np.exp(1.0j * q * x[-1]))
    phi = node_sum + sign * node_sum.conj()
    phi = np.concatenate([phi[::-1][:mid].conj(), phi])
    phi /= math.sqrt(2.0 * math.pi * c.hbar)
    return MomentumWavefunction(grid=p_grid, phi=phi, density=np.abs(phi) ** 2)
