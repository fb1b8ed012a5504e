"""Galilean preparation matching across two particles.

Two particles of different inertial mass enter the drop on equal footing
when their mean positions coincide and their mean velocities <p>/m_i
coincide. For cat states the mean velocity is carried entirely by the
interference term, so the relative phase theta is the natural knob: on
the principal branch theta in [-pi/2, pi/2] the velocity is monotone in
theta, and both the phase and the center follow in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DEFAULT_UNITS, MassPair, UnitSystem
from .errors import InfeasibleTargetError
from .states import GAUSSIAN, WavepacketSpec, analytic_moments, _coefficient_terms

__all__ = [
    "MatchReport",
    "check_matched",
    "match_second_particle",
    "velocity_bound",
]

@dataclass(frozen=True)
class MatchReport:
    """Outcome of a matching check; truthy iff matched."""

    matched: bool
    position_residual: float
    velocity_residual: float
    position_scale: float
    velocity_scale: float

    def __bool__(self) -> bool:
        return self.matched


def check_matched(spec1: WavepacketSpec, mass1: MassPair,
                  spec2: WavepacketSpec, mass2: MassPair,
                  tol: float, unit: UnitSystem = DEFAULT_UNITS) -> MatchReport:
    """Compare mean positions and mean velocities of two prepared states.

    Matched means |<z>_1 - <z>_2| <= tol * delta0 and
    |<p>_1/m_i1 - <p>_2/m_i2| <= tol * hbar / delta0, with
    delta0 the larger of the two packet widths. Residuals are always
    reported.
    """
    m1 = analytic_moments(spec1, unit)
    m2 = analytic_moments(spec2, unit)
    d0 = max(spec1.delta0, spec2.delta0)
    pos_scale = d0
    vel_scale = unit.hbar / d0
    dpos = abs(m1.mean_z - m2.mean_z)
    dvel = abs(m1.mean_p / mass1.m_inertial - m2.mean_p / mass2.m_inertial)
    matched = dpos <= tol * pos_scale and dvel <= tol * vel_scale
    return MatchReport(matched, dpos, dvel, pos_scale, vel_scale)


def _velocity_amplitude(family: WavepacketSpec, mass: MassPair,
                        unit: UnitSystem) -> float:
    """Prefactor A in v(theta) = A sin(theta) / Q(theta)."""
    p, m, _, _, w = _coefficient_terms(family)
    mod = math.sqrt(p * m)
    return 2.0 * unit.hbar * (family.delta / family.delta0**2) * w * mod / mass.m_inertial


def velocity_bound(family: WavepacketSpec, mass: MassPair,
                   unit: UnitSystem = DEFAULT_UNITS) -> float:
    """Largest |mean velocity| reachable on the theta in [-pi/2, pi/2] branch.

    Attained at theta = +-pi/2, where the normalization denominator
    reduces to |c+|^2 + |c-|^2. A Gaussian family carries none.
    """
    if family.kind == GAUSSIAN:
        return 0.0
    p, m, _, _, _ = _coefficient_terms(family)
    return _velocity_amplitude(family, mass, unit) / (p + m)


def _with_theta(family: WavepacketSpec, z0: float, theta: float) -> WavepacketSpec:
    """Rebuild the family spec with given center and relative phase."""
    cp = abs(family.c_plus)
    cm = abs(family.c_minus) * complex(math.cos(theta), math.sin(theta))
    return WavepacketSpec.cat(z0, family.delta, family.delta0, cp, cm)


def match_second_particle(spec1: WavepacketSpec, mass1: MassPair,
                          family2: WavepacketSpec, mass2: MassPair,
                          unit: UnitSystem = DEFAULT_UNITS) -> WavepacketSpec:
    """Gauge (z0, theta) of the second family to meet the Galilean target.

    `family2` fixes the geometry (delta, delta0) and the coefficient
    moduli; only the center and the relative phase are solved for, both in
    closed form. On the branch theta in [-pi/2, pi/2] the velocity
    v(theta) = A sin(theta) / (a + b cos(theta)), with a = P + M and
    b = 2 sqrt(P M) w, is monotone, so v(theta) = v* has the one root
    theta = atan2(v* b, A) + asin(v* a / hypot(A, v* b)). The mean
    position is z0 - D (P - M) / Q(theta) and Q does not depend on z0, so
    one shift of the center meets the target. Velocities outside the
    branch's reach raise :class:`InfeasibleTargetError` carrying the
    reachable bound.
    """
    mom1 = analytic_moments(spec1, unit)
    target_z, target_v = mom1.mean_z, mom1.mean_p / mass1.m_inertial

    if family2.kind == GAUSSIAN:
        vel_scale = unit.hbar / family2.delta0
        if abs(target_v) > 1e-12 * vel_scale:
            raise InfeasibleTargetError(
                "Gaussian family carries zero mean velocity", v_max=0.0)
        return WavepacketSpec.gaussian(target_z, family2.delta0)

    v_max = velocity_bound(family2, mass2, unit)
    if abs(target_v) > v_max * (1.0 + 1e-12):
        raise InfeasibleTargetError(
            f"target velocity {target_v!r} beyond the reachable branch",
            v_max=v_max)

    p, m, _, _, w = _coefficient_terms(family2)
    a, b = p + m, 2.0 * math.sqrt(p * m) * w
    amp = _velocity_amplitude(family2, mass2, unit)
    theta = 0.0 if target_v == 0.0 else math.atan2(target_v * b, amp) + math.asin(
        min(1.0, max(-1.0, target_v * a / math.hypot(amp, target_v * b))))
    theta = min(math.pi / 2.0, max(-math.pi / 2.0, theta))  # roundoff at the bound
    z0 = target_z + family2.delta * (p - m) / (a + b * math.cos(theta))
    return _with_theta(family2, z0, theta)
