"""Galilean preparation matching across two particles.

Two particles of different inertial mass enter the drop on equal footing
when their mean positions coincide and their mean velocities <p>/m_i
coincide. For cat states the mean velocity is carried entirely by the
interference term, so the relative phase theta is the natural knob: on
the principal branch theta in [-pi/2, pi/2] the velocity is monotone in
theta and a bisection solve is exact business.
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

# Matching iterates position and phase to this relative tolerance.
_JOINT_TOL = 1e-10
_MAX_ITERATIONS = 50


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
    |<p>_1/m_i1 - <p>_2/m_i2| <= tol * hbar/(m_ref * delta0), with
    delta0 the larger of the two packet widths. Residuals are always
    reported.
    """
    m1 = analytic_moments(spec1, unit)
    m2 = analytic_moments(spec2, unit)
    d0 = max(spec1.delta0, spec2.delta0)
    pos_scale = d0
    vel_scale = unit.hbar / (unit.m_ref * d0)
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


def _family_velocity(family: WavepacketSpec, mass: MassPair, theta: float,
                     unit: UnitSystem) -> float:
    p, m, _, _, w = _coefficient_terms(family)
    q = p + m + 2.0 * math.sqrt(p * m) * w * math.cos(theta)
    return _velocity_amplitude(family, mass, unit) * math.sin(theta) / q


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
    moduli; only the center and the relative phase are solved for. The
    phase is found by bisection on the monotone branch [-pi/2, pi/2]
    (tie-break: smallest |theta|), the center then follows in closed form
    from the mean-position formula; the two are iterated to joint
    tolerance because the mean position couples weakly through the
    normalization. Velocities outside the branch's reach raise
    :class:`InfeasibleTargetError` carrying the reachable bound.
    """
    mom1 = analytic_moments(spec1, unit)
    target_z, target_v = mom1.mean_z, mom1.mean_p / mass1.m_inertial
    vel_scale = unit.hbar / (unit.m_ref * family2.delta0)

    if family2.kind == GAUSSIAN:
        if abs(target_v) > 1e-12 * vel_scale:
            raise InfeasibleTargetError(
                "Gaussian family carries zero mean velocity", v_max=0.0)
        return WavepacketSpec.gaussian(target_z, family2.delta0)

    v_max = velocity_bound(family2, mass2, unit)
    if abs(target_v) > v_max * (1.0 + 1e-12):
        raise InfeasibleTargetError(
            f"target velocity {target_v!r} beyond the reachable branch",
            v_max=v_max)

    theta = _solve_theta(family2, mass2, target_v, vel_scale, unit)
    z0 = target_z
    spec2 = _with_theta(family2, z0, theta)
    for _ in range(_MAX_ITERATIONS):
        mom = analytic_moments(spec2, unit)
        dz = target_z - mom.mean_z
        dv = target_v - mom.mean_p / mass2.m_inertial
        if abs(dz) <= _JOINT_TOL * family2.delta0 and abs(dv) <= _JOINT_TOL * vel_scale:
            break
        z0 += dz
        spec2 = _with_theta(family2, z0, theta)
    return spec2


def _solve_theta(family: WavepacketSpec, mass: MassPair, v_target: float,
                 vel_scale: float, unit: UnitSystem) -> float:
    """Bisect v(theta) = v_target on [-pi/2, pi/2]; v is monotone there."""
    if v_target == 0.0:
        return 0.0

    def f(theta):
        return _family_velocity(family, mass, theta, unit) - v_target

    lo, hi = -math.pi / 2.0, math.pi / 2.0
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:  # exact endpoint hit: |v_target| == v_max
        return lo
    if fhi == 0.0:
        return hi
    if flo > 0.0 or fhi < 0.0:
        raise InfeasibleTargetError(
            f"target velocity {v_target!r} beyond the reachable branch",
            v_max=velocity_bound(family, mass, unit))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= 1e-14 * vel_scale or (hi - lo) < 1e-16:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
