"""Quantitative classical-vs-quantum comparisons for closed-court eigenstates.

The quantum position density, averaged over one local de Broglie
wavelength at the walls, is compared to the classical curve through a
relative L2 gap on the interior, taken on the eigenstate's nodes x >= 0
alone since both curves are even in x.  The momentum density is compared
through the fraction of quantum probability inside the (slightly widened)
classical momentum band.  A sweep over decreasing ramp heights V0 at fixed
target energy exposes the approach to the infinite-well limit, where the
classical band 1/(2 delta_p) sharpens toward a pair of point masses.

The gap and support-mass thresholds quoted in the test suite are
calibration constants of this artifact: the comparison is meaningful only
while the classical band width delta_p stays well above the intrinsic
quantum resolution hbar/a, and the report flags the regime
delta_p <= 2 hbar/a as unreliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import classical_position_density
from .errors import NumericalError, RegimeError, SupportError
from .model import ClassicalState, PotentialSpec, classical_state, closed_court
from .quantum import (EigenLevel, MomentumWavefunction, eigenstate_closed_court,
                      momentum_transform, nearest_level)

# delta_p at or below this multiple of hbar/a marks the classical band as
# unresolvable against the intrinsic momentum width.
_BREAKDOWN_FACTOR = 2.0
# a sweep entry whose level misses e_target by more than this fraction is flagged
_TARGET_TOL = 0.02


@dataclass(frozen=True)
class ComparisonReport:
    energy: float
    window: float
    l2_gap_position: float
    support_mass_momentum: float
    delta_p_classical: float
    delta_p_intrinsic: float
    classical_unreliable: bool
    parity: str = ""
    index: int = 0
    flag: str = ""
    n: int = 0  # the level's quantum number (0 when no level was found)


def moving_average(grid: np.ndarray, values: np.ndarray, window: float,
                   eval_points: np.ndarray) -> np.ndarray:
    """Boxcar average of an even curve sampled on nodes x >= 0 from x = 0.

    The cumulative trapezoid F from x = 0 is odd, F(-y) = -F(y), so the
    average (F(x + w/2) - F(x - w/2)) / w is defined for any x with
    |x| + w/2 within the grid's end.
    """
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(grid))])

    def odd_cum(y):
        return np.copysign(np.interp(np.abs(y), grid, cum), y)

    return (odd_cum(eval_points + 0.5 * window) - odd_cum(eval_points - 0.5 * window)) / window


def momentum_support_mass(phi: MomentumWavefunction, state: ClassicalState,
                          widen: float) -> float:
    """Fraction of momentum probability inside the widened classical band.

    The band [p_minus, p_plus] is widened by ``widen`` on both sides before
    integrating; partial cells at band edges are split by linear
    interpolation.  |phi|^2 is even on a p grid symmetric about 0 (the
    transform mirrors it), so band and total are both integrated over
    p >= 0 alone, from p = 0 (a node, or the midpoint of the two middle
    ones), and the factor 2 cancels.  The grid may run in either direction.
    ValueError for a grid that is not symmetric about 0.
    """
    step = 1 if phi.grid[0] <= phi.grid[-1] else -1
    grid, density = phi.grid[::step], phi.density[::step]
    top = float(grid[-1])
    if not abs(float(grid[0]) + top) <= 8.0 * np.finfo(float).eps * top:
        raise ValueError("the momentum grid must be symmetric about 0")
    mid = len(grid) // 2
    half, dens = grid[mid:], density[mid:]
    # from p = 0: half[0] is 0, or half the middle cell, where |phi|^2 is dens[0]
    total = float(np.trapezoid(dens, half)) + float(half[0] * dens[0])
    if total <= 0.0:
        raise NumericalError("momentum density has no mass on its grid")
    lo, hi = max(state.p_minus - widen, 0.0), min(state.p_plus + widen, top)
    if not lo < hi:
        return 0.0
    xs = np.concatenate([[lo], half[(half > lo) & (half < hi)], [hi]])
    # np.interp holds dens[0] on [0, half[0]]
    return min(float(np.trapezoid(np.interp(xs, half, dens), xs)) / total, 1.0)


def compare_state(spec: PotentialSpec, level_energy: float, parity: str,
                  index: int) -> ComparisonReport:
    """Full position + momentum comparison for one closed-court eigenstate.

    P_CL(x), |psi|^2 and its boxcar average are even in x, so the position
    gap is taken on the state's nodes x >= 0 out to a - window: both of its
    integrals are half those over the symmetric interior, and the ratio is
    the same.
    """
    state = classical_state(spec, level_energy)
    # one local de Broglie wavelength where the particle is slowest, at the walls
    window = 2.0 * math.pi * spec.constants.hbar / state.p_minus
    if spec.a <= window:
        raise SupportError("window leaves no interior to compare on")
    eigen = eigenstate_closed_court(spec, level_energy, parity, index=index)
    x = eigen.grid[len(eigen.half) - 1:]
    interior = x[x <= spec.a - window]
    cl = classical_position_density(spec, level_energy, grid=interior).values
    avg_qm = moving_average(x, eigen.half ** 2, window, interior)
    gap = math.sqrt(float(np.trapezoid((avg_qm - cl) ** 2, interior))
                    / float(np.trapezoid(cl ** 2, interior)))
    phi = momentum_transform(eigen)
    dp_int = spec.constants.hbar / spec.a
    frac = momentum_support_mass(phi, state, widen=2.0 * dp_int)
    return ComparisonReport(
        energy=level_energy, window=window, l2_gap_position=gap,
        support_mass_momentum=frac, delta_p_classical=state.delta_p,
        delta_p_intrinsic=dp_int, classical_unreliable=state.delta_p <= _BREAKDOWN_FACTOR * dp_int,
        parity=eigen.parity, index=eigen.index, n=eigen.n)


def _flagged(flag: str, dp_int: float, level: EigenLevel | None = None) -> ComparisonReport:
    """A sweep row without metrics: NaN but for the level found, if any."""
    return ComparisonReport(
        energy=level.energy if level else math.nan, window=math.nan,
        l2_gap_position=math.nan, support_mass_momentum=math.nan,
        delta_p_classical=math.nan, delta_p_intrinsic=dp_int, classical_unreliable=False,
        parity=level.parity if level else "", index=level.index if level else 0, flag=flag,
        n=level.n if level else 0)


def v0_sweep(a: float, hbar: float, mass: float, e_target: float,
             v0_list, search_width: float = 1.0) -> list[ComparisonReport]:
    """Comparison reports along decreasing V0 at (approximately) fixed energy.

    For each V0 the eigenvalue nearest e_target within +-search_width (see
    :func:`nearest_level`) is used; entries without an eigenvalue within
    ``_TARGET_TOL`` (2%) of the target, or whose averaging window reaches
    across the half-width a, are flagged and skipped but do not abort the sweep.
    """
    reports = []
    for v0 in v0_list:
        spec = closed_court(a=a, v0=v0, hbar=hbar, mass=mass)
        try:
            level = nearest_level(spec, e_target, search_width=search_width)
        except (NumericalError, RegimeError) as exc:
            reports.append(_flagged(f"no-eigenvalue: {exc}", hbar / a))
            continue
        if abs(level.energy - e_target) > _TARGET_TOL * e_target:
            reports.append(_flagged(
                f"nearest-eigenvalue-off-target-by-{abs(level.energy-e_target)/e_target:.3%}",
                hbar / a, level))
            continue
        try:
            reports.append(compare_state(spec, level.energy, level.parity, level.index))
        except SupportError as exc:
            reports.append(_flagged(f"window-exceeds-well: {exc}", hbar / a, level))
    return reports


def plateau_height(report: ComparisonReport) -> float:
    """Classical momentum plateau 1/(2 delta_p) for a sweep entry."""
    return 1.0 / (2.0 * report.delta_p_classical)
