"""Closed-form time evolution in a uniform force field.

The Hamiltonian is H = p^2 / 2 m_i + F z with F = m_g * g in gravity mode
and F = m_i * a in a uniformly accelerated frame: the two modes are the
same operator reached through different parameters, which is exactly the
equivalence-principle statement the experiments exercise.

Two closed forms, both on no grid:

* moment propagation (`moment_evolution`) - exact, since mean values obey
  the classical equations for a linear potential and a uniform force adds
  nothing to the central moments beyond free spreading;
* the extended Galilean transform applied to the free Gaussian branches,
  which gives the field (`closed_form_field`) and the detector current
  (`arrival_current`).

Their grid-based oracles, the exact spectral propagator and the Strang
split-operator solver, live in :mod:`qfall.validate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_UNITS, MassPair, UnitSystem, _check_scale
from .errors import ConfigurationError, PreconditionError
from .states import CAT, MomentSet, WavepacketSpec, normalization_constant

__all__ = [
    "GRAVITY",
    "ACCELERATED_FRAME",
    "LinearPotentialParams",
    "moment_evolution",
    "closed_form_field",
    "arrival_current",
    "dump_snapshots",
]

GRAVITY = "gravity"
ACCELERATED_FRAME = "accelerated_frame"
# The file formats of `dump_snapshots`.
SNAPSHOT_FORMATS = ("csv", "npz")


@dataclass(frozen=True)
class LinearPotentialParams:
    """Mass pair, field strength, and which mass couples to the field.

    Gravity couples the gravitational mass (V = m_g g z); a uniformly
    accelerated frame couples the inertial mass (V = m_i a z). The
    effective downward acceleration of the mean is force / m_inertial.
    """

    mass: MassPair
    field_strength: float
    mode: str = GRAVITY

    def __post_init__(self):
        _check_scale("field strength", self.field_strength, zero_ok=True)
        if self.mode not in (GRAVITY, ACCELERATED_FRAME):
            raise ConfigurationError(f"unknown mode {self.mode!r}")

    @property
    def coupling_mass(self) -> float:
        if self.mode == GRAVITY:
            return self.mass.m_gravitational
        return self.mass.m_inertial

    @property
    def force(self) -> float:
        """Magnitude of the uniform force, coupling_mass * field_strength."""
        return self.coupling_mass * self.field_strength

    @property
    def g_eff(self) -> float:
        """Downward acceleration of the mean, force / m_inertial."""
        return self.force / self.mass.m_inertial


def moment_evolution(m0: MomentSet, params: LinearPotentialParams,
                     t: float) -> MomentSet:
    """Propagate moments exactly for time t under the uniform force.

    Means follow the classical trajectory; the uniform force adds no
    variance, so the second moments spread exactly as in free flight:

        var_z(t) = var_z + 2 cov t / m + var_p t^2 / m^2
        cov(t)   = cov + var_p t / m
        var_p(t) = var_p
    """
    if t < 0:
        raise PreconditionError("evolution time must be nonnegative")
    if t * t == math.inf:
        raise ConfigurationError(f"evolution time {t!r} is too long to square")
    mi = params.mass.m_inertial
    mean_z = m0.mean_z + m0.mean_p * t / mi - 0.5 * params.g_eff * t**2
    mean_p = m0.mean_p - params.force * t
    var_z = m0.var_z + 2.0 * m0.cov_zp * t / mi + m0.var_p * t**2 / mi**2
    cov_zp = m0.cov_zp + m0.var_p * t / mi
    return MomentSet(mean_z, mean_p, var_z, m0.var_p, cov_zp)


def _branch_sum(spec: WavepacketSpec, params: LinearPotentialParams, t, z,
                unit: UnitSystem):
    """(phi, d_u phi) of the free Gaussian branches, each of complex width
    s^2 = delta0^2 + i hbar t / m_i and amplitude N c delta0 / s, at
    u = z + g_eff t^2 / 2 (`t` and `z` broadcast); far tails are set to 0."""
    if np.ndim(t) == np.ndim(z) == 0:  # the in-place products need arrays
        phi, dphi = _branch_sum(spec, params, np.reshape(t, 1),
                                np.reshape(z, 1), unit)
        return phi[0], dphi[0]
    hbar, mi = unit.hbar, params.mass.m_inertial
    lo, hi = spec.peak_centers()
    branches = [(lo, spec.c_plus)] + [(hi, spec.c_minus)] * (spec.kind == CAT)
    phi = dphi = 0.0
    with np.errstate(all="ignore"):  # overflow is left to the callers
        s2 = spec.delta0**2 + 1j * hbar * t / mi
        two_s2 = 2.0 * s2
        x0 = z + 0.5 * params.g_eff * t**2
        # Each product keeps its operand order and writes to an array that
        # is not one of its operands: numpy's complex c * a and a * c can
        # differ in the last bit, and so can a 1-element in-place product.
        for center, coeff in branches:
            x = x0 - center
            exponent = -x * x / two_s2
            gauss = np.exp(exponent, out=np.zeros_like(exponent),
                           where=exponent.real > -800.0)
            branch = np.multiply(coeff, gauss, out=exponent)
            slope = np.divide(x, s2, out=gauss) * branch
            dphi = np.subtract(dphi, slope, out=slope)
            phi = np.add(phi, branch, out=branch)
        scale = normalization_constant(spec) * spec.delta0 / np.sqrt(s2)
        return scale * phi, scale * dphi


def closed_form_field(spec: WavepacketSpec, params: LinearPotentialParams,
                      t, z, unit: UnitSystem = DEFAULT_UNITS) -> np.ndarray:
    """psi(z, t) on no grid (`t` and `z` broadcast): the extended Galilean
    transform of the freely spreading branch sum phi,
    exp(-i F t z / hbar - i F^2 t^3 / (6 m_i hbar)) phi(z + g_eff t^2 / 2)."""
    t, z = np.asarray(t, float), np.asarray(z, float)
    phi, _ = _branch_sum(spec, params, t, z, unit)
    with np.errstate(all="ignore"):
        return _finite("field", _galilean_phase(params, t, z, unit) * phi)


def _galilean_phase(params: LinearPotentialParams, t, z,
                    unit: UnitSystem) -> np.ndarray:
    """exp(-i F t z / hbar - i F^2 t^3 / (6 m_i hbar)) at `t` and `z`
    (broadcast), the field's and its oracle's one phase. `t` is made an
    array, so every caller rounds t^3 alike (a Python float's can differ by
    an ulp, ~1e-11 rad at t ~ 20)."""
    hbar, mi, force = unit.hbar, params.mass.m_inertial, params.force
    t = np.asarray(t, float)
    return np.exp(-1j * force * t * z / hbar
                  - 1j * force**2 * t**3 / (6.0 * mi * hbar))


def arrival_current(spec: WavepacketSpec, params: LinearPotentialParams,
                    z_d: float, times, unit: UnitSystem = DEFAULT_UNITS,
                    ) -> np.ndarray:
    """The probability current J(z_d, t) at `times` on no grid, from the
    branch sum phi of :func:`closed_form_field`:
    J = (hbar / m_i) Im(phi* d_u phi) - (F t / m_i) |phi|^2."""
    hbar, mi, t = unit.hbar, params.mass.m_inertial, np.asarray(times, float)
    phi, dphi = _branch_sum(spec, params, t, z_d, unit)
    with np.errstate(all="ignore"):
        return _finite("current", (hbar * (phi.conjugate() * dphi).imag
                                   - params.force * t * np.abs(phi) ** 2) / mi)


def _finite(what: str, values: np.ndarray) -> np.ndarray:
    """`values`, checked for the non-finite ones an overflow leaves."""
    if not np.isfinite(values).all():
        raise ConfigurationError(f"the closed-form {what} overflows; reduce "
                                 "the drop height or the run length")
    return values


def dump_snapshots(snapshots, directory, fmt: str = "csv"):
    """Write each (t, z, psi) of `snapshots` to its own file
    `snapshot_NNNNNN.<fmt>`, before the next is taken from `snapshots`.

    A CSV file holds {t, z, Re psi, Im psi} rows; an npz file holds the
    arrays `t`, `z` and `psi`. Returns the list of paths written.
    """
    from pathlib import Path

    if fmt not in SNAPSHOT_FORMATS:
        raise ConfigurationError(f"unknown snapshot format {fmt!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (t, z, psi) in enumerate(snapshots):
        paths.append(directory / f"snapshot_{i:06d}.{fmt}")
        if fmt == "npz":
            np.savez(paths[-1], t=t, z=z, psi=psi)
            continue
        with open(paths[-1], "w") as fh:
            fh.write("t,z,re_psi,im_psi\n")
            t_text = repr(float(t))
            for zj, aj in zip(z, psi):
                fh.write(f"{t_text},{float(zj)!r},"
                         f"{float(aj.real)!r},{float(aj.imag)!r}\n")
    return paths
