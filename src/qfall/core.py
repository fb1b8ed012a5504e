"""Units and masses, with the scale check every closed form relies on.

Everything here is immutable after construction and safe to share between
concurrent workers. The default unit system is dimensionless: hbar = 1,
g = 1. Physical (SI) inputs are mapped onto these units through explicit
scale factors, see :meth:`UnitSystem.from_si`. Grids and sampled fields
belong to the oracle in :mod:`qfall.validate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError

__all__ = ["UnitSystem", "MassPair", "DEFAULT_UNITS"]


def _check_scale(name: str, value: float, zero_ok: bool = False) -> None:
    """Raise ConfigurationError, keyed by `name`, unless `value` is positive
    (or zero, with `zero_ok`) with a square that is a finite nonzero double:
    the formulas square each scale, and ``x ** 2`` overflows with an
    OverflowError."""
    if not (value > 0 and 0.0 < value * value < math.inf
            or zero_ok and value == 0):
        raise ConfigurationError(
            f"{name} must be {'zero or ' if zero_ok else ''}positive with "
            f"a finite nonzero square, got {value!r}", key=name)


@dataclass(frozen=True)
class UnitSystem:
    """Simulation units plus optional SI scale factors.

    ``hbar`` and ``g`` set the action and field-strength scales.
    """

    hbar: float = 1.0
    g: float = 1.0
    # SI value of one simulation unit of length / mass / time (None = not mapped)
    si_length: float | None = None
    si_mass: float | None = None
    si_time: float | None = None

    def __post_init__(self):
        _check_scale("hbar", self.hbar)
        if self.g < 0:  # a scale only as the field strength's default
            raise ConfigurationError("g must be nonnegative", key="g")

    @classmethod
    def from_si(cls, m_ref_si, delta0_ref_si, hbar_si=1.054571817e-34,
                g_si=9.80665):
        """Build dimensionless units anchored to SI reference scales.

        The simulation's units of mass and length are m_ref_si and
        delta0_ref_si, with hbar = 1; the time unit follows as
        m_ref_si * delta0_ref_si**2 / hbar_si and the field strength g is
        expressed in the derived acceleration unit.
        """
        t_si = m_ref_si * delta0_ref_si**2 / hbar_si
        g_sim = g_si * t_si**2 / delta0_ref_si
        return cls(hbar=1.0, g=g_sim, si_length=delta0_ref_si,
                   si_mass=m_ref_si, si_time=t_si)


DEFAULT_UNITS = UnitSystem()


@dataclass(frozen=True)
class MassPair:
    """Inertial and gravitational mass of one test particle."""

    m_inertial: float
    m_gravitational: float

    def __post_init__(self):
        _check_scale("m_inertial", self.m_inertial)
        _check_scale("m_gravitational", self.m_gravitational)
        _check_scale("mass ratio", self.m_gravitational / self.m_inertial)

    @property
    def ratio(self) -> float:
        """m_inertial / m_gravitational, the quantity setting the fall time."""
        return self.m_inertial / self.m_gravitational
