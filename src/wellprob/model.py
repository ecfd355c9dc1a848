"""Potential families, physical constants, and energy bookkeeping.

Three one-dimensional bound-state systems are supported:

* ``bouncer``       -- uniform gravity above a perfectly reflecting floor,
                       V(z) = m g z for z >= 0, infinite wall at z = 0;
* ``infinite_well`` -- V = 0 for |x| < a, infinite walls at x = +-a;
* ``closed_court``  -- symmetric linear ramp V(x) = V0 |x| / a inside
                       infinite walls at x = +-a.  Interpolates between the
                       linear well (large V0) and the infinite well (V0 -> 0).

All quantities are in scaled units; the default constants are
hbar = 2m = 1, which is the convention required to reproduce the reference
parameter table for the closed court.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import RegimeError


class PotentialKind(str, Enum):
    BOUNCER = "bouncer"
    INFINITE_WELL = "infinite_well"
    CLOSED_COURT = "closed_court"


@dataclass(frozen=True)
class Constants:
    """Physical constants: hbar, mass, and (bouncer only) g.

    All must be strictly positive.  Defaults give hbar = 2m = 1.
    """

    hbar: float = 1.0
    mass: float = 0.5
    g: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "g"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"constant {name!r} must be strictly positive, got {v}")


@dataclass(frozen=True)
class PotentialSpec:
    """One of the three potential families plus its constants.

    ``a`` is the half-width of the well (well kinds only, must be > 0).
    ``v0`` is the ramp height at the wall edge (closed court only, >= 0).
    """

    kind: PotentialKind
    constants: Constants = Constants()
    a: float | None = None
    v0: float = 0.0

    def __post_init__(self):
        kind = PotentialKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in (PotentialKind.INFINITE_WELL, PotentialKind.CLOSED_COURT):
            if self.a is None or not (self.a > 0.0 and math.isfinite(self.a)):
                raise ValueError(f"well half-width a must be > 0, got {self.a}")
        if self.v0 < 0.0 or not math.isfinite(self.v0):
            raise ValueError(f"v0 must be >= 0, got {self.v0}")


def bouncer(mass: float = 1.0, g: float = 1.0, hbar: float = 1.0) -> PotentialSpec:
    return PotentialSpec(PotentialKind.BOUNCER, Constants(hbar=hbar, mass=mass, g=g))


def infinite_well(a: float, hbar: float = 1.0, mass: float = 0.5) -> PotentialSpec:
    return PotentialSpec(PotentialKind.INFINITE_WELL, Constants(hbar=hbar, mass=mass), a=a)


def closed_court(a: float, v0: float, hbar: float = 1.0, mass: float = 0.5) -> PotentialSpec:
    return PotentialSpec(PotentialKind.CLOSED_COURT, Constants(hbar=hbar, mass=mass), a=a, v0=v0)


@dataclass(frozen=True)
class ClassicalState:
    """Energy bookkeeping for one classical orbit.

    ``p_minus`` is the smallest momentum magnitude on the orbit (0 except
    for the closed court, where it is the value at the walls), ``p_plus``
    the largest, ``tau`` the one-way traversal time (half-period), and
    ``turning_points`` the endpoints of the allowed region.
    """

    energy: float
    p_minus: float
    p_plus: float
    tau: float
    turning_points: tuple[float, float]

    @property
    def period(self) -> float:
        return 2.0 * self.tau

    @property
    def delta_p(self) -> float:
        return self.p_plus - self.p_minus


def evaluate_potential(spec: PotentialSpec, x):
    """V(x), with ``inf`` as the sentinel outside the allowed region.

    Accepts scalars or arrays; the infinite walls are represented exactly
    so that density supports are exact intervals.
    """
    xa = np.asarray(x, dtype=float)
    k = spec.kind
    if k is PotentialKind.BOUNCER:
        mg = spec.constants.mass * spec.constants.g
        v = np.where(xa < 0.0, np.inf, mg * xa)
    elif k is PotentialKind.INFINITE_WELL:
        v = np.where(np.abs(xa) > spec.a, np.inf, 0.0)
    else:
        v = np.where(np.abs(xa) > spec.a, np.inf, spec.v0 * np.abs(xa) / spec.a)
    if np.isscalar(x) or xa.ndim == 0:
        return float(v)
    return v


def check_energy(spec: PotentialSpec, energy: float) -> None:
    """Reject energies outside the supported regime."""
    if not (energy > 0.0 and math.isfinite(energy)):
        raise RegimeError(f"energy must be strictly positive, got {energy}")
    if spec.kind is PotentialKind.CLOSED_COURT:
        if spec.v0 == 0.0:
            raise RegimeError("closed court with v0 = 0 degenerates; use infinite_well")
        if energy <= spec.v0:
            raise RegimeError(
                f"closed court supports only E > V0 (got E={energy}, V0={spec.v0})"
            )


def half_period(spec: PotentialSpec, energy: float) -> float:
    """One-way traversal time tau = sqrt(m/2) * int dx / sqrt(E - V(x)).

    Exact piecewise closed forms: sqrt(2H/g) with apex height H = E/(m g)
    for the bouncer, 2a sqrt(m/(2E)) for the infinite well, and
    sqrt(2m) (2a/V0) (sqrt(E) - sqrt(E - V0)) for the closed court.
    """
    check_energy(spec, energy)
    c = spec.constants
    if spec.kind is PotentialKind.BOUNCER:
        height = energy / (c.mass * c.g)
        return math.sqrt(2.0 * height / c.g)
    if spec.kind is PotentialKind.INFINITE_WELL:
        return 2.0 * spec.a * math.sqrt(c.mass / (2.0 * energy))
    return (math.sqrt(2.0 * c.mass) * (2.0 * spec.a / spec.v0)
            * (math.sqrt(energy) - math.sqrt(energy - spec.v0)))


def classical_state(spec: PotentialSpec, energy: float) -> ClassicalState:
    """Turning points, momentum bounds, and half-period at a given energy."""
    check_energy(spec, energy)
    c = spec.constants
    p_plus = math.sqrt(2.0 * c.mass * energy)
    if spec.kind is PotentialKind.CLOSED_COURT:
        p_minus = math.sqrt(2.0 * c.mass * (energy - spec.v0))
    else:
        p_minus = 0.0
    if spec.kind is PotentialKind.BOUNCER:
        turning = (0.0, energy / (c.mass * c.g))
    else:
        turning = (-spec.a, spec.a)
    return ClassicalState(energy=energy, p_minus=p_minus, p_plus=p_plus,
                          tau=half_period(spec, energy), turning_points=turning)
