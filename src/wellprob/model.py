"""Potential families, physical constants, and energy bookkeeping.

Three one-dimensional bound-state systems are supported:

* ``bouncer``       -- uniform gravity above a perfectly reflecting floor,
                       V(z) = m g z for z >= 0, infinite wall at z = 0;
* ``infinite_well`` -- V = 0 for |x| < a, infinite walls at x = +-a;
* ``closed_court``  -- symmetric linear ramp V(x) = V0 |x| / a inside
                       infinite walls at x = +-a.  Interpolates between the
                       linear well (large V0) and the infinite well (V0 -> 0).

Each is V = F |x| inside its walls, so every orbit is made of arcs under a
constant force F toward x = 0.  An arc leaves x = 0 with |p| = p_plus and
reaches |x| = x_out with |p| = p_out, on one side of x = 0 (the bouncer:
F = m g, x_out = E/F, p_out = 0) or on both (the closed court: F = V0/a,
x_out = a, p_out = sqrt(2m(E - V0)); the infinite well is its F = 0 case,
p_out = p_plus).  Every classical quantity is derived from that one arc.

All quantities are in scaled units; the default constants are
hbar = 2m = 1, which is the convention required to reproduce the reference
parameter table for the closed court.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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
                raise ValueError(f"constants.{name} must be > 0, got {v!r}")


@dataclass(frozen=True)
class PotentialSpec:
    """One of the three potential families plus its constants.

    ``a`` is the half-width of the well (well kinds only, must be > 0).
    ``v0`` is the ramp height at the wall edge (closed court only, >= 0;
    0 for the other kinds).
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
        if self.v0 != 0.0 and kind is not PotentialKind.CLOSED_COURT:
            raise ValueError(f"v0 applies to the closed court only, got {self.v0}")


def bouncer(mass: float = 1.0, g: float = 1.0, hbar: float = 1.0) -> PotentialSpec:
    return PotentialSpec(PotentialKind.BOUNCER, Constants(hbar=hbar, mass=mass, g=g))


def infinite_well(a: float, hbar: float = 1.0, mass: float = 0.5) -> PotentialSpec:
    return PotentialSpec(PotentialKind.INFINITE_WELL, Constants(hbar=hbar, mass=mass), a=a)


def closed_court(a: float, v0: float, hbar: float = 1.0, mass: float = 0.5) -> PotentialSpec:
    return PotentialSpec(PotentialKind.CLOSED_COURT, Constants(hbar=hbar, mass=mass), a=a, v0=v0)


class _Arc(NamedTuple):
    """An orbit's arc: from x = 0, |p| = p_plus, out to |x| = x_out, |p| = p_out,
    under a force ``force`` toward x = 0, on ``sides`` sides; ``time_to(x_out)``
    equals ``duration`` bit for bit, so the position CDF ends at exactly 0 and 1."""

    mass: float
    force: float
    sides: int
    x_out: float
    p_plus: float
    p_out: float

    @property
    def duration(self) -> float:
        return 2.0 * self.mass * self.x_out / (self.p_plus + self.p_out)

    def time_to(self, r):
        """Time from x = 0 out to |x| = r, 2 m r / (p_plus + p(r)): no 1/F, no cancellation."""
        p = np.sqrt(self.p_out ** 2 + 2.0 * self.mass * self.force * (self.x_out - r))
        return 2.0 * self.mass * r / (self.p_plus + p)


def _arc_ends(spec: PotentialSpec, energy: float) -> tuple:
    """(force, sides, x_out, p_plus, p_out) at ``energy``, as the module
    docstring lists them; a plain tuple, cheap enough for the level scan."""
    check_energy(spec, energy)
    c = spec.constants
    p_plus = math.sqrt(2.0 * c.mass * energy)
    if spec.kind is PotentialKind.BOUNCER:
        return c.mass * c.g, 1, energy / (c.mass * c.g), p_plus, 0.0
    return spec.v0 / spec.a, 2, spec.a, p_plus, math.sqrt(2.0 * c.mass * (energy - spec.v0))


def _arc(spec: PotentialSpec, energy: float) -> _Arc:
    return _Arc(spec.constants.mass, *_arc_ends(spec, energy))


@dataclass(frozen=True)
class ClassicalState:
    """Energy bookkeeping for one classical orbit.

    ``p_plus`` is |p| at x = 0 and ``p_minus`` |p| at the ends of an arc (0
    for the bouncer's apex; the infinite well, whose arcs keep |p| = p_plus,
    reports 0 too), ``tau`` the one-way traversal time (half-period): one arc
    for the bouncer, two for a well.  ``turning_points`` are the endpoints of
    the allowed region.
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
    """V(x) = F |x| inside the walls, ``inf`` outside the allowed region.

    Accepts scalars or arrays; the infinite walls are represented exactly
    so that density supports are exact intervals.
    """
    xa = np.asarray(x, dtype=float)
    c = spec.constants
    if spec.kind is PotentialKind.BOUNCER:
        force, outside = c.mass * c.g, xa < 0.0
    else:
        force, outside = spec.v0 / spec.a, np.abs(xa) > spec.a
    return np.where(outside, np.inf, force * np.abs(xa))[()]


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

    ``sides`` arcs of 2 m x_out / (p_plus + p_out) each, with no division by
    F: the closed court tends to the infinite well's 2 a sqrt(m/(2E)) as V0 -> 0.
    """
    _, sides, x_out, p_plus, p_out = _arc_ends(spec, energy)
    return sides * (2.0 * spec.constants.mass * x_out / (p_plus + p_out))  # sides * _Arc.duration


def classical_state(spec: PotentialSpec, energy: float) -> ClassicalState:
    """Turning points, momentum bounds, and half-period at a given energy."""
    arc = _arc(spec, energy)
    return ClassicalState(energy=energy, p_minus=arc.p_out if arc.force > 0.0 else 0.0,
                          p_plus=arc.p_plus, tau=arc.sides * arc.duration,
                          turning_points=(-arc.x_out if arc.sides == 2 else 0.0, arc.x_out))
