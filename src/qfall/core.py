"""Units, masses, spatial grids, and the complex field container.

Everything here is immutable after construction and safe to share between
concurrent workers. The default unit system is dimensionless: hbar = 1,
g = 1. Physical (SI) inputs are mapped onto these units through explicit
scale factors, see :meth:`UnitSystem.from_si`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "UnitSystem",
    "MassPair",
    "SpatialGrid",
    "GridField",
    "DEFAULT_UNITS",
    "make_grid",
    "fft_size",
    "norm",
    "boundary_probability",
]


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


def fft_size(need: float) -> int:
    """The smallest even size >= `need` with no prime factor above 5, the
    sizes :class:`SpatialGrid` takes: numpy's FFT is fast on them."""
    half = max(1, math.ceil(need / 2))  # the size is 2 * 2**k * 3**b * 5**c
    bits = (2 * half).bit_length()  # 3**bits and 5**bits exceed 2 * half
    odds = (3**b * 5**c for b in range(bits) for c in range(bits))
    # each odd part 3**b * 5**c times the least power of two reaching `half`
    return 2 * min(odd << (-(-half // odd) - 1).bit_length()
                   for odd in odds if odd < 2 * half)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic 1-D grid with its spectral wavenumbers.

    The domain is [z_min, z_max) sampled at n_points (an `fft_size` >= 16);
    wavenumbers follow the periodic convention k = 2*pi*j/(z_max - z_min)
    with j in [-n/2, n/2).
    """

    z_min: float
    z_max: float
    n_points: int
    points: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.z_min < self.z_max:
            raise ConfigurationError(
                f"z_min must be below z_max, got [{self.z_min}, {self.z_max}]")
        # n divides 30**64 iff its only prime factors are 2, 3, 5 (n < 2**64)
        if self.n_points < 16 or self.n_points % 2 or 30**64 % self.n_points:
            raise ConfigurationError(
                "n_points must be >= 16, even, and have no prime factor above "
                f"5, got {self.n_points}")
        z = self.z_min + self.spacing * np.arange(self.n_points)
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)
        z.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "points", z)
        object.__setattr__(self, "wavenumbers", k)

    @property
    def length(self) -> float:
        return self.z_max - self.z_min

    @property
    def spacing(self) -> float:
        return (self.z_max - self.z_min) / self.n_points

    @property
    def k_max(self) -> float:
        """Nyquist wavenumber pi * n / (z_max - z_min)."""
        return np.pi * self.n_points / self.length


def make_grid(z_min: float, z_max: float, n_points: int) -> SpatialGrid:
    """A spectral grid; n_points is an `fft_size` >= 16 (1,080, 5,400...)."""
    return SpatialGrid(z_min, z_max, n_points)


@dataclass(frozen=True)
class GridField:
    """Complex wavefunction sampled on a :class:`SpatialGrid`.

    The amplitude array is copied and frozen at construction.
    """

    grid: SpatialGrid
    amplitudes: np.ndarray = field(compare=False)

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex, copy=True)
        if amp.shape != (self.grid.n_points,):
            raise ConfigurationError(
                f"amplitudes must have shape ({self.grid.n_points},), "
                f"got {amp.shape}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def norm(field: GridField) -> float:
    """L2 norm sqrt(sum |psi_j|^2 dz) under the rectangle rule.

    The rectangle rule is exact for band-limited periodic integrands,
    which is the representation the spectral solver works in.
    """
    return float(np.sqrt(np.sum(field.density()) * field.grid.spacing))


def boundary_probability(field: GridField, cells: int = 5) -> float:
    """Probability mass in the outermost `cells` grid points on each side."""
    rho = field.density() * field.grid.spacing
    return float(np.sum(rho[:cells]) + np.sum(rho[-cells:]))
