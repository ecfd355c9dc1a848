"""Classical probability densities, orbits, histograms, and sampling.

The classical position density is 1/(tau v(x)) and the momentum density is
the branch-summed 1/(T_CL |F(p)|), both normalized by construction.  Orbits
are piecewise analytic (no time stepping anywhere): linear segments of the
potential give parabolic or linear arcs, and histogram masses come from the
closed-form time CDFs of those arcs.

Measurement draws use the counter-based Philox generator keyed by the seed,
so runs are reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RegimeError, SupportError
from .model import (ClassicalState, PotentialKind, PotentialSpec, check_energy,
                    classical_state, evaluate_potential, half_period)

# Fraction of the bouncer's apex mass left to the analytic sliver by the
# default graded grid; trapezoids cannot track the inverse-sqrt divergence.
_BOUNCER_EDGE_FRACTION = 0.02


@dataclass(frozen=True)
class DensityCurve:
    """A sampled probability density over one or two support intervals.

    ``omitted_mass`` is the analytic mass of the support slivers not covered
    by the grid (nonzero only next to declared integrable singularities);
    ``singular_points`` lists support endpoints where the density diverges
    integrably and therefore carries no sample.
    """

    variable: str  # "position" | "momentum"
    grid: np.ndarray
    values: np.ndarray
    support: tuple[tuple[float, float], ...]
    omitted_mass: float = 0.0
    singular_points: tuple[float, ...] = ()

    def __post_init__(self):
        if self.variable not in ("position", "momentum"):
            raise ValueError(f"unknown variable {self.variable!r}")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("density values must be non-negative")

    def trapezoid_mass(self) -> float:
        """Trapezoid integral over the support plus the analytic slivers."""
        total = self.omitted_mass
        for lo, hi in self.support:
            m = (self.grid >= lo - 1e-12) & (self.grid <= hi + 1e-12)
            if np.count_nonzero(m) >= 2:
                total += float(np.trapezoid(self.values[m], self.grid[m]))
        return total


@dataclass(frozen=True)
class HistogramRun:
    """Time-weighted bin masses plus optional raw measurement draws."""

    bin_edges: np.ndarray
    bin_mass: np.ndarray
    draws: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    n_draws: int = 0

    @property
    def bin_width(self) -> np.ndarray:
        return np.diff(self.bin_edges)


@dataclass(frozen=True)
class MeasurementDraws:
    """Random measurement times on one period and the sampled phase point."""

    times: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray

    def pairs(self, variable: str) -> np.ndarray:
        vals = self.positions if variable == "position" else self.momenta
        return np.column_stack([self.times, vals])


# ---------------------------------------------------------------------------
# densities

def speed(spec: PotentialSpec, energy: float, x):
    """Classical speed sqrt(2 (E - V(x)) / m)."""
    v = evaluate_potential(spec, x)
    return np.sqrt(2.0 * (energy - v) / spec.constants.mass)


def default_position_grid(spec: PotentialSpec, energy: float, n_points: int = 4001) -> np.ndarray:
    """Grid covering the allowed region, graded where the density peaks.

    Nodes are uniform in u = sqrt(E - V), which makes the mass per cell
    constant; a uniform grid cannot integrate the near-wall peaks (closed
    court with E barely above V0) or the bouncer apex to the 1e-6 budget.
    """
    check_energy(spec, energy)
    if spec.kind is PotentialKind.BOUNCER:
        height = energy / (spec.constants.mass * spec.constants.g)
        s = np.linspace(0.0, 1.0 - _BOUNCER_EDGE_FRACTION, n_points)
        return height * (1.0 - (1.0 - s) ** 2)
    if spec.kind is PotentialKind.INFINITE_WELL:
        return np.linspace(-spec.a, spec.a, n_points)
    half_n = max(n_points // 2, 2)
    u = np.linspace(math.sqrt(energy - spec.v0), math.sqrt(energy), half_n)
    right = np.clip(spec.a * (energy - u ** 2) / spec.v0, 0.0, spec.a)[::-1]  # 0 .. a
    left = -right[::-1]  # -a .. 0
    return np.concatenate([left[:-1], right])


def position_cdf(spec: PotentialSpec, energy: float, x):
    """Fraction of the classical period spent left of x."""
    check_energy(spec, energy)
    c = spec.constants
    xa = np.asarray(x, dtype=float)
    if spec.kind is PotentialKind.BOUNCER:
        height = energy / (c.mass * c.g)
        out = 1.0 - np.sqrt(np.clip((height - xa) / height, 0.0, 1.0))
    elif spec.kind is PotentialKind.INFINITE_WELL:
        out = np.clip((xa + spec.a) / (2.0 * spec.a), 0.0, 1.0)
    else:
        tau = half_period(spec, energy)
        k = math.sqrt(2.0 * c.mass) * spec.a / spec.v0
        root_e_v = np.sqrt(np.clip(energy - spec.v0 * np.abs(xa) / spec.a, 0.0, None))
        t_from_wall = k * (root_e_v - math.sqrt(energy - spec.v0))
        out = np.where(xa <= 0.0, t_from_wall / tau, 1.0 - t_from_wall / tau)
        out = np.clip(np.where(np.abs(xa) > spec.a, np.where(xa > 0, 1.0, 0.0), out), 0.0, 1.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def classical_position_density(spec: PotentialSpec, energy: float, grid=None,
                               n_points: int = 4001) -> DensityCurve:
    """P_CL(x) = 1/(tau v(x)) sampled on ``grid``.

    Grid points must lie inside the allowed region and strictly away from
    divergent turning points (the bouncer apex).  The default grid covers
    the region, grading toward the apex and leaving its last sliver of mass
    to the ``omitted_mass`` metadata.
    """
    state = classical_state(spec, energy)
    if grid is None:
        grid = default_position_grid(spec, energy, n_points)
    grid = np.asarray(grid, dtype=float)
    lo, hi = state.turning_points
    if np.any(grid < lo - 1e-12) or np.any(grid > hi + 1e-12):
        raise SupportError(f"grid leaves the allowed region [{lo}, {hi}]")
    singular = ()
    if spec.kind is PotentialKind.BOUNCER:
        singular = (hi,)
        if np.any(grid >= hi):
            raise SupportError(
                f"grid must stay strictly below the divergent turning point z={hi}")
    values = 1.0 / (state.tau * speed(spec, energy, grid))
    covered = position_cdf(spec, energy, grid[-1]) - position_cdf(spec, energy, grid[0])
    return DensityCurve(variable="position", grid=grid, values=values,
                        support=((lo, hi),), omitted_mass=float(1.0 - covered),
                        singular_points=singular)


def momentum_support(spec: PotentialSpec, energy: float) -> tuple[tuple[float, float], ...]:
    state = classical_state(spec, energy)
    if spec.kind is PotentialKind.CLOSED_COURT:
        return ((-state.p_plus, -state.p_minus), (state.p_minus, state.p_plus))
    return ((-state.p_plus, state.p_plus),)


def default_momentum_grid(spec: PotentialSpec, energy: float, n_points: int = 2001) -> np.ndarray:
    """Grid covering the momentum support band by band."""
    bands = momentum_support(spec, energy)
    per = max(n_points // len(bands), 2)
    return np.concatenate([np.linspace(lo, hi, per) for lo, hi in bands])


def classical_momentum_density(spec: PotentialSpec, energy: float, grid=None,
                               n_points: int = 2001) -> DensityCurve:
    """P_CL(p): sum over orbit branches of 1/(T_CL |F|), zero off support.

    The infinite well has zero force, so its classical momentum density is a
    pair of point masses at +-sqrt(2mE); that is not representable as a
    sampled curve and raises :class:`RegimeError` (use
    :func:`momentum_delta_masses` or :func:`project_trajectory` instead).
    """
    if spec.kind is PotentialKind.INFINITE_WELL:
        raise RegimeError(
            "infinite-well momentum density is two delta masses at +-sqrt(2mE); "
            "see momentum_delta_masses / project_trajectory")
    state = classical_state(spec, energy)
    if grid is None:
        grid = default_momentum_grid(spec, energy, n_points)
    grid = np.asarray(grid, dtype=float)
    p_abs = np.abs(grid)
    on_support = (p_abs >= state.p_minus - 1e-12) & (p_abs <= state.p_plus + 1e-12)

    c = spec.constants
    bouncer = spec.kind is PotentialKind.BOUNCER
    force = c.mass * c.g if bouncer else spec.v0 / spec.a
    per_branch = 1.0 / (state.period * force)
    # orbit points with a given |p|: one for the bouncer, +-x in the closed court
    n_branches = 1 if bouncer else 2
    values = np.where(on_support, n_branches * per_branch, 0.0)
    return DensityCurve(variable="momentum", grid=grid, values=values,
                        support=momentum_support(spec, energy))


def momentum_delta_masses(spec: PotentialSpec, energy: float) -> list[tuple[float, float]]:
    """Point masses of the infinite well's momentum distribution."""
    if spec.kind is not PotentialKind.INFINITE_WELL:
        raise RegimeError("delta masses are specific to the infinite well")
    state = classical_state(spec, energy)
    return [(-state.p_plus, 0.5), (state.p_plus, 0.5)]


# ---------------------------------------------------------------------------
# orbits, histograms, sampling

def trajectory(spec: PotentialSpec, energy: float, t):
    """Phase-space point (x, p) at time t on the periodic orbit.

    Conventions: the bouncer launches upward from the floor at t = 0; the
    wells start at x = -a moving right.  Vectorized over t.
    """
    state = classical_state(spec, energy)
    c = spec.constants
    ta = np.asarray(t, dtype=float)
    tau, period = state.tau, state.period
    tr = np.mod(ta, period)
    if spec.kind is PotentialKind.BOUNCER:
        v0 = state.p_plus / c.mass
        x = v0 * tr - 0.5 * c.g * tr ** 2
        p = c.mass * (v0 - c.g * tr)
    elif spec.kind is PotentialKind.INFINITE_WELL:
        v = state.p_plus / c.mass
        first = tr < tau
        x = np.where(first, -spec.a + v * tr, spec.a - v * (tr - tau))
        p = np.where(first, state.p_plus, -state.p_plus)
    else:
        forward = tr < tau
        s = np.where(forward, tr, tr - tau)
        accel = spec.v0 / (spec.a * c.mass)  # |F|/m
        rising = s < 0.5 * tau
        r = np.where(rising, s, s - 0.5 * tau)
        x_half = np.where(rising,
                          -spec.a + (state.p_minus / c.mass) * r + 0.5 * accel * r ** 2,
                          (state.p_plus / c.mass) * r - 0.5 * accel * r ** 2)
        p_half = np.where(rising, state.p_minus + c.mass * accel * r,
                          state.p_plus - c.mass * accel * r)
        x = np.where(forward, x_half, -x_half)
        p = np.where(forward, p_half, -p_half)
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(x), float(p)
    return x, p


def momentum_cdf(spec: PotentialSpec, energy: float, q):
    """Fraction of the classical period with momentum <= q."""
    state = classical_state(spec, energy)
    qa = np.asarray(q, dtype=float)
    if spec.kind is PotentialKind.BOUNCER:
        out = np.clip((qa + state.p_plus) / (2.0 * state.p_plus), 0.0, 1.0)
    elif spec.kind is PotentialKind.INFINITE_WELL:
        out = np.where(qa < -state.p_plus, 0.0, np.where(qa < state.p_plus, 0.5, 1.0))
    else:
        dp = state.delta_p
        out = np.where(
            qa <= -state.p_plus, 0.0,
            np.where(qa <= -state.p_minus, (qa + state.p_plus) / (2.0 * dp),
                     np.where(qa < state.p_minus, 0.5,
                              np.where(qa < state.p_plus,
                                       0.5 + (qa - state.p_minus) / (2.0 * dp), 1.0))))
    if np.isscalar(q) or np.ndim(q) == 0:
        return float(out)
    return out


def project_trajectory(spec: PotentialSpec, energy: float, n_bins: int,
                       variable: str) -> HistogramRun:
    """Equal-width bins whose masses are the exact orbit time fractions.

    Masses are differences of the closed-form time CDFs, so the histogram
    is the analytic limit of the bin-projection construction rather than a
    time-stepped estimate.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    state = classical_state(spec, energy)
    if variable == "position":
        lo, hi = state.turning_points
        cdf = lambda e: position_cdf(spec, energy, e)
    elif variable == "momentum":
        lo, hi = -state.p_plus, state.p_plus
        cdf = lambda e: momentum_cdf(spec, energy, e)
    else:
        raise ValueError(f"unknown variable {variable!r}")
    edges = np.linspace(lo, hi, n_bins + 1)
    mass = np.diff(cdf(edges))
    # point masses sitting exactly on the outermost edges (infinite-well
    # momentum) belong inside the histogram, not below/above it
    mass[0] += cdf(edges[0])
    mass[-1] += 1.0 - cdf(edges[-1])
    return HistogramRun(bin_edges=edges, bin_mass=mass)


def sample_measurements(spec: PotentialSpec, energy: float, n: int,
                        seed: int) -> MeasurementDraws:
    """n measurement instants uniform over one period, mapped to (x, p)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    state = classical_state(spec, energy)
    rng = np.random.Generator(np.random.Philox(key=seed))
    times = state.period * rng.random(n)
    x, p = trajectory(spec, energy, times)
    return MeasurementDraws(times=times, positions=x, momenta=p)


def measurement_histogram(spec: PotentialSpec, energy: float, n_bins: int,
                          variable: str, n_draws: int, seed: int) -> HistogramRun:
    """Analytic projection histogram with measurement draws attached."""
    hist = project_trajectory(spec, energy, n_bins, variable)
    draws = sample_measurements(spec, energy, n_draws, seed)
    return HistogramRun(bin_edges=hist.bin_edges, bin_mass=hist.bin_mass,
                        draws=draws.pairs(variable), n_draws=n_draws)
