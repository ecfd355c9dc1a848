"""Classical probability densities, orbits, histograms, and sampling.

The classical position density is m/(tau p(|x|)) and the momentum density
is the branch-summed 1/(T_CL |F(p)|), both normalized by construction.  All of
them come from one source, the constant-force arc
:class:`wellprob.model.ClassicalState`, which each public function builds
once and hands to the helpers: no potential is evaluated, orbits are cycles
of the arc (no time stepping anywhere), and histogram masses come from its
closed-form time CDFs.  The arc, not the potential's kind, decides: a
zero-width momentum band (p_minus == p_plus) is the delta pair of
:func:`momentum_delta_masses`, and every edge test scales with the arc.

Measurement draws use the counter-based Philox generator keyed by the seed,
so runs are reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RegimeError, SupportError
from .model import ClassicalState, PotentialSpec, classical_state

# Fraction of the time on an arc that ends at rest (the bouncer apex) left
# to the analytic sliver by the default grid; trapezoids cannot track the
# inverse-sqrt divergence.
_APEX_FRACTION = 0.02

# Slack of every support edge test, relative to the scale of the edge.
_EDGE_SLACK = 1e-12


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
        if not np.all(np.isfinite(self.grid)):
            raise ValueError("grid must be finite")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density values must be finite")
        if np.any(self.values < 0):
            raise ValueError("density values must be non-negative")

    def trapezoid_mass(self) -> float:
        """Trapezoid integral over the support plus the analytic slivers."""
        total = self.omitted_mass
        for lo, hi in self.support:
            slack = _EDGE_SLACK * max(abs(lo), abs(hi))
            m = (self.grid >= lo - slack) & (self.grid <= hi + slack)
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

def default_position_grid(arc: ClassicalState, n_points: int = 4001) -> np.ndarray:
    """Grid covering the allowed region at equal time steps along the orbit.

    Equal times make the mass per cell constant; a uniform grid cannot
    integrate the near-wall peaks (closed court with E barely above V0) or
    the bouncer apex to the 1e-6 budget.  A well with a ramp takes an odd
    count (2 (n_points // 2) - 1), which puts its kink at x = 0 on a node.
    """
    if arc.sides == 2 and arc.force > 0.0:
        n_points = 2 * max(n_points // 2, 2) - 1
    reach = 1.0 - _APEX_FRACTION if arc.p_minus == 0.0 else 1.0
    return _orbit(arc, np.linspace(0.0, reach * arc.tau, n_points))[0]


def position_cdf(arc: ClassicalState, x):
    """Fraction of the classical period spent left of x:
    (sides - 1)/2 + sign(x) t(|x|)/tau, with t the time from 0 out to |x|."""
    xa = np.asarray(x, dtype=float)
    t = arc.time_to(np.minimum(np.abs(xa), arc.x_out))
    return np.clip((arc.sides - 1) / 2 + np.sign(xa) * t / arc.tau, 0.0, 1.0)[()]


def classical_position_density(spec: PotentialSpec, energy: float, grid=None,
                               n_points: int = 4001) -> DensityCurve:
    """P_CL(x) = m/(tau p(|x|)), p the arc's ``momentum``, sampled on ``grid``.

    Grid points must lie inside the allowed region (a point up to
    ``_EDGE_SLACK`` x_out outside takes the value at its end) and strictly
    away from divergent turning points (the bouncer apex).  The default grid
    covers the region, grading toward the apex and leaving its last sliver of
    mass to the ``omitted_mass`` metadata.  RegimeError where m/(tau p) is not
    finite and positive.
    """
    arc = classical_state(spec, energy)
    if grid is None:
        grid = default_position_grid(arc, n_points)
    grid = np.asarray(grid, dtype=float)
    lo, hi = arc.turning_points
    slack = _EDGE_SLACK * arc.x_out
    if np.any(grid < lo - slack) or np.any(grid > hi + slack):
        raise SupportError(f"grid leaves the allowed region [{lo}, {hi}]")
    singular = ()
    if arc.p_minus == 0.0:  # the arc ends at rest: P_CL diverges there
        singular = (hi,)
        if np.any(grid >= hi):
            raise SupportError(
                f"grid must stay strictly below the divergent turning point z={hi}")
    r = np.abs(np.clip(grid, lo, hi))
    with np.errstate(over="ignore", divide="ignore"):
        values = arc.mass / (arc.tau * arc.momentum(r))
    if np.any((values == 0.0) | (values == np.inf)):  # a NaN grid point is DensityCurve's
        raise RegimeError(f"P_CL(x) = m/(tau p) leaves double precision at E={energy}, "
                          f"tau={arc.tau}")
    covered = position_cdf(arc, grid[-1]) - position_cdf(arc, grid[0])
    return DensityCurve(variable="position", grid=grid, values=values,
                        support=((lo, hi),), omitted_mass=float(1.0 - covered),
                        singular_points=singular)


def momentum_support(arc: ClassicalState) -> tuple[tuple[float, float], ...]:
    bands = ((-arc.p_plus, -arc.p_minus), (arc.p_minus, arc.p_plus))
    return bands if arc.p_minus > 0.0 else ((-arc.p_plus, arc.p_plus),)


def default_momentum_grid(arc: ClassicalState, n_points: int = 2001) -> np.ndarray:
    """Grid covering the momentum support band by band; a band narrower than
    its points' spacing in floating point keeps each representable value once."""
    bands = momentum_support(arc)
    per = max(n_points // len(bands), 2)
    grid = np.concatenate([np.linspace(lo, hi, per) for lo, hi in bands])
    return grid if np.all(np.diff(grid) > 0.0) else np.unique(grid)


def classical_momentum_density(spec: PotentialSpec, energy: float, grid=None,
                               n_points: int = 2001) -> DensityCurve:
    """P_CL(p): sum over orbit branches of 1/(T_CL |F|) on the band
    p_minus <= |p| <= p_plus, edges within ``_EDGE_SLACK`` p_plus; 0 off it.

    A band of zero width (p_minus == p_plus: the infinite well, or V0 below
    the rounding of E) holds a pair of point masses at +-p_plus, which no
    sampled curve represents: :class:`RegimeError` (use
    :func:`momentum_delta_masses` or :func:`project_trajectory` instead).
    """
    arc = classical_state(spec, energy)
    if arc.p_minus == arc.p_plus:
        raise RegimeError(
            "the momentum band has zero width (the infinite well, or V0 below the rounding "
            "of E): the density is two delta masses at +-sqrt(2mE); see "
            "momentum_delta_masses / project_trajectory")
    if grid is None:
        grid = default_momentum_grid(arc, n_points)
    grid = np.asarray(grid, dtype=float)
    p_abs, slack = np.abs(grid), _EDGE_SLACK * arc.p_plus
    on_support = (p_abs >= arc.p_minus - slack) & (p_abs <= arc.p_plus + slack)
    # sides/(T F) (one orbit point per side of x = 0 per |p|) as 1/(2 (p_plus - p_minus)):
    # the rounded edges, not delta_p, keep a band a few ulps wide at mass 1 on them
    values = np.where(on_support, 0.5 / (arc.p_plus - arc.p_minus), 0.0)
    return DensityCurve(variable="momentum", grid=grid, values=values,
                        support=momentum_support(arc))


def momentum_delta_masses(spec: PotentialSpec, energy: float) -> list[tuple[float, float]]:
    """Point masses (+-p_plus, 1/2) of a zero-width momentum band, whatever
    kind built the arc; RegimeError for a band with width (p_minus < p_plus)."""
    arc = classical_state(spec, energy)
    if arc.p_minus != arc.p_plus:
        raise RegimeError(f"the momentum band [{arc.p_minus}, {arc.p_plus}] has width: "
                          "its density is classical_momentum_density")
    return [(-arc.p_plus, 0.5), (arc.p_plus, 0.5)]


# ---------------------------------------------------------------------------
# orbits, histograms, sampling

def _orbit(arc: ClassicalState, t):
    """(x, p) at times t after the orbit leaves the left end of its allowed
    region moving right.

    One period is 2 ``sides`` arcs.  Arc j runs, in a well's order, 0: in on
    the left, 1: out on the right, 2: in on the right, 3: out on the left;
    the bouncer's period is arcs 1 and 2.
    """
    k, s = np.divmod(np.asarray(t, dtype=float), arc.duration)
    j = np.mod(k, 2 * arc.sides) + 2 - arc.sides
    outward = np.mod(j, 2) == 1
    d = np.where(outward, s, arc.duration - s)  # time since the arc was at x = 0
    r = np.minimum(d * (arc.p_plus - 0.5 * arc.force * d) / arc.mass, arc.x_out)
    q = arc.p_plus - arc.force * d
    return np.where((j == 1) | (j == 2), r, -r), np.where(j < 2, q, -q)


def trajectory(spec: PotentialSpec, energy: float, t):
    """Phase-space point (x, p) at time t on the periodic orbit.

    Conventions: the bouncer launches upward from the floor at t = 0; the
    wells start at x = -a moving right.  Vectorized over t.
    """
    x, p = _orbit(classical_state(spec, energy), t)
    return x[()], p[()]


def momentum_cdf(arc: ClassicalState, q):
    """Fraction of the classical period with momentum <= q: uniform on
    p_minus <= |p| <= p_plus, or point masses at +-p_plus when that band has
    no width (each counted from its own q on)."""
    qa = np.asarray(q, dtype=float)
    r = np.abs(qa)
    width = arc.p_plus - arc.p_minus  # rounded, not delta_p: mass 1 on the stored edges
    if width > 0.0:
        inside = np.clip((r - arc.p_minus) / width, 0.0, 1.0)
    else:
        inside = np.where(qa < 0.0, r > arc.p_plus, r >= arc.p_plus)
    return (0.5 + np.copysign(0.5, qa) * inside)[()]


def _projection(arc: ClassicalState, n_bins: int, variable: str) -> HistogramRun:
    """Equal-width bins whose masses are differences of the arc's time CDFs."""
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    if variable == "position":
        (lo, hi), cdf = arc.turning_points, position_cdf
    elif variable == "momentum":
        (lo, hi), cdf = (-arc.p_plus, arc.p_plus), momentum_cdf
    else:
        raise ValueError(f"unknown variable {variable!r}")
    edges = np.linspace(lo, hi, n_bins + 1)
    at_edges = cdf(arc, edges)
    mass = np.diff(at_edges)
    # point masses sitting exactly on the outermost edges (infinite-well
    # momentum) belong inside the histogram, not below/above it
    mass[0] += at_edges[0]
    mass[-1] += 1.0 - at_edges[-1]
    return HistogramRun(bin_edges=edges, bin_mass=mass)


def _draws(arc: ClassicalState, n: int, seed: int) -> MeasurementDraws:
    """n instants uniform over one period, keyed by ``seed``, mapped to (x, p)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    times = arc.period * np.random.Generator(np.random.Philox(key=seed)).random(n)
    return MeasurementDraws(times, *_orbit(arc, times))


def project_trajectory(spec: PotentialSpec, energy: float, n_bins: int,
                       variable: str) -> HistogramRun:
    """Equal-width bins whose masses are the exact orbit time fractions.

    Masses are differences of the closed-form time CDFs, so the histogram
    is the analytic limit of the bin-projection construction rather than a
    time-stepped estimate.
    """
    return _projection(classical_state(spec, energy), n_bins, variable)


def sample_measurements(spec: PotentialSpec, energy: float, n: int,
                        seed: int) -> MeasurementDraws:
    """n measurement instants uniform over one period, mapped to (x, p)."""
    return _draws(classical_state(spec, energy), n, seed)


def measurement_histogram(spec: PotentialSpec, energy: float, n_bins: int,
                          variable: str, n_draws: int, seed: int) -> HistogramRun:
    """Analytic projection histogram with measurement draws attached;
    ``n_draws = 0`` attaches none and draws nothing."""
    arc = classical_state(spec, energy)
    hist = _projection(arc, n_bins, variable)
    if n_draws == 0:
        return hist
    draws = _draws(arc, n_draws, seed)
    return HistogramRun(bin_edges=hist.bin_edges, bin_mass=hist.bin_mass,
                        draws=draws.pairs(variable), n_draws=n_draws)
