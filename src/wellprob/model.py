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
reaches |x| = x_out with |p| = p_minus, on one side of x = 0 (the bouncer:
F = m g, x_out = E/F, p_minus = 0) or on both (the closed court: F = V0/a,
x_out = a, p_minus = sqrt(2m(E - V0)); the infinite well is its F = 0 case,
p_minus = p_plus, and so is closed_court(a, 0), bit for bit).
:class:`ClassicalState` is that arc, with E, F and m on it, and the only
source of every classical quantity: no potential V(x) is evaluated anywhere.

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


@dataclass(frozen=True)
class ClassicalState:
    """One classical orbit at ``energy``: its arc, as the module docstring lists it.

    ``time_to(x_out)`` equals ``duration`` bit for bit, so the position CDF
    ends at exactly 0 and 1.  ``tau`` is the half-period, ``sides`` arcs;
    ``momentum(r)`` is |p| at |x| = r, the one speed formula of the arc;
    ``turning_points`` are the ends of the allowed region.
    """

    energy: float
    mass: float
    force: float
    sides: int
    x_out: float
    p_plus: float
    p_minus: float

    @property
    def duration(self) -> float:
        return 2.0 * self.mass * self.x_out / (self.p_plus + self.p_minus)

    def momentum(self, r):
        """|p| at |x| = r, sqrt(p_minus^2 + 2 m F (x_out - r)): no E - F r to cancel."""
        return np.sqrt(self.p_minus ** 2 + 2.0 * self.mass * self.force * (self.x_out - r))

    def time_to(self, r):
        """Time from x = 0 out to |x| = r, 2 m r / (p_plus + p(r)): no 1/F, no cancellation."""
        return 2.0 * self.mass * r / (self.p_plus + self.momentum(r))

    @property
    def tau(self) -> float:
        return self.sides * self.duration

    @property
    def period(self) -> float:
        return 2.0 * self.tau

    @property
    def delta_p(self) -> float:
        """p_plus - p_minus: p_plus itself on an arc that ends at rest, else from
        p_plus^2 - p_minus^2 = 2 m F x_out, with no cancellation."""
        if self.p_minus == 0.0:
            return self.p_plus
        return 2.0 * self.mass * self.force * self.x_out / (self.p_plus + self.p_minus)

    @property
    def turning_points(self) -> tuple[float, float]:
        return (-self.x_out if self.sides == 2 else 0.0, self.x_out)


def check_energy(spec: PotentialSpec, energy: float) -> None:
    """Reject energies outside the supported regime: finite E > 0, and E > V0."""
    if not (energy > 0.0 and math.isfinite(energy)):
        raise RegimeError(f"energy must be strictly positive, got {energy}")
    if energy <= spec.v0:
        raise RegimeError(f"closed court supports only E > V0 (got E={energy}, V0={spec.v0})")


def classical_state(spec: PotentialSpec, energy: float) -> ClassicalState:
    """The orbit's arc at ``energy``, as the module docstring lists it.

    tau = sqrt(m/2) int dx / sqrt(E - V(x)) is ``sides`` arcs of
    2 m x_out / (p_plus + p_minus) each, with no division by F: the closed
    court tends to the infinite well's 2 a sqrt(m/(2E)) as V0 -> 0.
    RegimeError, as :func:`check_energy`, also when x_out, p_plus or the
    arc's duration is not finite and positive, or 2 m F is not finite.
    """
    check_energy(spec, energy)
    c = spec.constants
    p_plus = math.sqrt(2.0 * c.mass * energy)
    if spec.kind is PotentialKind.BOUNCER:
        arc = ClassicalState(energy, c.mass, c.mass * c.g, 1, energy / (c.mass * c.g),
                             p_plus, 0.0)
    else:
        arc = ClassicalState(energy, c.mass, spec.v0 / spec.a, 2, spec.a, p_plus,
                             math.sqrt(2.0 * c.mass * (energy - spec.v0)))
    # p_plus > 0 is tested before the duration divides by it
    if not (0.0 < arc.x_out < math.inf and 0.0 < p_plus < math.inf
            and 0.0 < arc.duration < math.inf and math.isfinite(2.0 * c.mass * arc.force)):
        raise RegimeError(f"E={energy} at mass={c.mass} leaves double precision: x_out="
                          f"{arc.x_out}, p_plus={p_plus}, 2 m F={2.0 * c.mass * arc.force}")
    return arc
