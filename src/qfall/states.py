"""Gaussian and two-peak cat wavefunctions and their moments.

A cat state is the normalized superposition

    psi(z) = N { c+ exp(-(z - z0 + D)^2 / 2 D0^2)
               + c- exp(-(z - z0 - D)^2 / 2 D0^2) },

two Gaussian peaks of width D0 centered at z0 -+ D. D = 0 with c- = 0
recovers a plain Gaussian packet. Moments come in two independent
flavors: closed forms from Gaussian integrals (`analytic_moments`) and
grid quadrature with spectral momentum moments (`numeric_moments`); the
two must agree and each serves as the oracle for the other.

Removing the interference (off-diagonal) part of the density matrix
turns the cat into a classical statistical mixture of its two branches;
`mixture_moments` gives the mixture's moments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_UNITS, GridField, SpatialGrid, UnitSystem,
                   _check_scale)
from .errors import (
    ConfigurationError,
    DegenerateStateError,
    DomainError,
    PreconditionError,
)

__all__ = [
    "GAUSSIAN",
    "CAT",
    "WavepacketSpec",
    "MomentSet",
    "build_wavefunction",
    "normalization_constant",
    "analytic_moments",
    "numeric_moments",
    "mixture_moments",
]

GAUSSIAN = "gaussian"
CAT = "cat"

# Relative peak separation below which a state counts as a plain Gaussian.
_GAUSSIAN_DELTA_TOL = 1e-12
# Relative norm denominator below which the superposition is rejected as empty.
_DEGENERACY_TOL = 1e-14


@dataclass(frozen=True)
class WavepacketSpec:
    """Parametric description of an initial state.

    ``delta`` is the half-separation of the two peaks, ``delta0`` their
    common width, and ``c_plus`` / ``c_minus`` the complex superposition
    coefficients (``c_minus`` is ignored for the Gaussian kind). The
    relative phase theta = arg(c_minus) - arg(c_plus) is derived, never
    stored separately.
    """

    kind: str
    z0: float
    delta: float
    delta0: float
    c_plus: complex
    c_minus: complex

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, CAT):
            raise ConfigurationError(f"unknown wavepacket kind {self.kind!r}")
        _check_scale("delta0", self.delta0)
        _check_scale("delta", self.delta, zero_ok=True)
        _check_scale("delta / delta0", self.delta / self.delta0, zero_ok=True)
        _check_scale("|c+|^2 + |c-|^2", sum(
            part * part for c in (self.c_plus, self.c_minus)
            for part in (c.real, c.imag)))
        gaussian_like = self.delta <= _GAUSSIAN_DELTA_TOL * self.delta0
        if self.kind == GAUSSIAN and not gaussian_like:
            raise ConfigurationError("Gaussian kind requires delta = 0")
        if self.kind == CAT and gaussian_like:
            raise ConfigurationError(
                "cat kind requires delta > 0; use the Gaussian kind instead")
        if self.kind == GAUSSIAN and abs(self.c_plus) == 0:
            raise ConfigurationError("Gaussian kind requires c_plus != 0")
        p, m, x, _, w = _coefficient_terms(self)
        q = p + m + 2.0 * x * w
        if q <= _DEGENERACY_TOL * (p + m):
            raise DegenerateStateError(
                "destructive superposition has vanishing norm")
        _check_scale("the norm denominator Q", q)

    # --- constructors -------------------------------------------------

    @classmethod
    def gaussian(cls, z0: float, delta0: float) -> "WavepacketSpec":
        return cls(GAUSSIAN, z0, 0.0, delta0, 1.0 + 0.0j, 0.0j)

    @classmethod
    def cat(cls, z0, delta, delta0, c_plus, c_minus) -> "WavepacketSpec":
        return cls(CAT, z0, delta, delta0, complex(c_plus), complex(c_minus))

    @classmethod
    def male_cat(cls, z0, delta, delta0) -> "WavepacketSpec":
        """Even-parity combination c+ = c- (theta = 0)."""
        r = 1.0 / math.sqrt(2.0)
        return cls.cat(z0, delta, delta0, r, r)

    @classmethod
    def female_cat(cls, z0, delta, delta0) -> "WavepacketSpec":
        """Odd-parity combination c+ = -c- (theta = pi)."""
        r = 1.0 / math.sqrt(2.0)
        return cls.cat(z0, delta, delta0, r, -r)

    @classmethod
    def yurke_stoler(cls, z0, delta, delta0) -> "WavepacketSpec":
        """Equal-weight superposition at theta = pi/2 (maximal interference)."""
        r = 1.0 / math.sqrt(2.0)
        return cls.cat(z0, delta, delta0, r, 1.0j * r)

    # --- derived quantities -------------------------------------------

    @property
    def theta(self) -> float:
        """Relative phase arg(c_minus) - arg(c_plus), wrapped to (-pi, pi]."""
        if self.kind == GAUSSIAN or abs(self.c_minus) == 0:
            return 0.0
        th = cmath.phase(self.c_minus) - cmath.phase(self.c_plus)
        th = math.remainder(th, 2.0 * math.pi)
        if th <= -math.pi:
            th += 2.0 * math.pi
        return th

    def peak_centers(self) -> tuple[float, float]:
        """Centers of the (+, -) branches, z0 - delta and z0 + delta."""
        return (self.z0 - self.delta, self.z0 + self.delta)

    # --- flat record (config files and manifests) ----------------------

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "z0": self.z0,
            "delta": self.delta,
            "delta0": self.delta0,
            "c_plus_re": self.c_plus.real,
            "c_plus_im": self.c_plus.imag,
            "c_minus_re": self.c_minus.real,
            "c_minus_im": self.c_minus.imag,
        }

    @classmethod
    def from_record(cls, record: dict) -> "WavepacketSpec":
        return cls(
            kind=record["kind"],
            z0=float(record["z0"]),
            delta=float(record["delta"]),
            delta0=float(record["delta0"]),
            c_plus=complex(float(record["c_plus_re"]), float(record["c_plus_im"])),
            c_minus=complex(float(record["c_minus_re"]), float(record["c_minus_im"])),
        )


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of position and momentum at one instant."""

    mean_z: float
    mean_p: float
    var_z: float
    var_p: float
    cov_zp: float  # symmetrized <{z - <z>, p - <p>}> / 2


def _coefficient_terms(spec: WavepacketSpec):
    """(|c+|^2, |c-|^2, Re c+* c-, Im c+* c-, overlap weight e^{-D^2/D0^2})."""
    if spec.kind == GAUSSIAN:
        p = abs(spec.c_plus) ** 2
        return p, 0.0, 0.0, 0.0, 1.0
    cross = spec.c_plus.conjugate() * spec.c_minus
    w = math.exp(-(spec.delta / spec.delta0) ** 2)
    return abs(spec.c_plus) ** 2, abs(spec.c_minus) ** 2, cross.real, cross.imag, w


def normalization_constant(spec: WavepacketSpec) -> float:
    """Real positive N with |N|^2 = [sqrt(pi) D0 (P + M + 2 X w)]^{-1}.

    P, M are the squared moduli, X the real part of c+* c-, and
    w = exp(-D^2/D0^2) the peak overlap.
    """
    p, m, x, _, w = _coefficient_terms(spec)
    denom = p + m + 2.0 * x * w
    return 1.0 / math.sqrt(math.sqrt(math.pi) * spec.delta0 * denom)


def build_wavefunction(spec: WavepacketSpec, grid: SpatialGrid) -> GridField:
    """Sample the normalized one- or two-peak packet on `grid`.

    Requires both peaks +- 8 delta0 inside the domain and a grid fine
    enough (spacing <= delta0 / 2.5) that the spectral tail beyond the
    Nyquist wavenumber is negligible; otherwise the unit-norm contract
    cannot hold.
    """
    lo, hi = spec.peak_centers()
    margin = 8.0 * spec.delta0
    if lo - margin < grid.z_min or hi + margin > grid.z_max:
        raise DomainError(
            f"peaks at {lo}, {hi} need +-{margin} clearance inside "
            f"[{grid.z_min}, {grid.z_max}]")
    if grid.spacing > spec.delta0 / 2.5:
        raise ConfigurationError(
            f"grid spacing {grid.spacing:.4g} too coarse for peak width "
            f"{spec.delta0:.4g}; need spacing <= delta0/2.5")
    z = grid.points
    nconst = normalization_constant(spec)
    psi = spec.c_plus * np.exp(-((z - lo) ** 2) / (2.0 * spec.delta0**2))
    if spec.kind == CAT:
        psi = psi + spec.c_minus * np.exp(-((z - hi) ** 2) / (2.0 * spec.delta0**2))
    return GridField(grid, nconst * psi)


def analytic_moments(spec: WavepacketSpec,
                     unit: UnitSystem = DEFAULT_UNITS) -> MomentSet:
    """Closed-form moments from Gaussian integrals.

    With P = |c+|^2, M = |c-|^2, X + iY = c+* c-, w = exp(-D^2/D0^2) and
    norm denominator Q = P + M + 2 X w:

        <z>  = z0 - D (P - M) / Q
        <p>  = 2 hbar (D / D0^2) w Y / Q
        var_z = D0^2/2 + D^2 (P + M)/Q - D^2 (P - M)^2 / Q^2
        <p^2> = hbar^2/(2 D0^2) [P + M + 2 X w (1 - 2 D^2/D0^2)] / Q
        cov_zp = D (P - M) / Q * <p>

    Only the interference (off-diagonal) term feeds <p>: the diagonal
    branches are real Gaussians and carry no mean momentum, so <p> is
    proportional to w |c+||c-| sin(theta).
    """
    hbar = unit.hbar
    p, m, x, y, w = _coefficient_terms(spec)
    q = p + m + 2.0 * x * w
    d, d0 = spec.delta, spec.delta0
    mean_z = spec.z0 - d * (p - m) / q
    mean_p = 2.0 * hbar * (d / d0**2) * w * y / q
    var_z = d0**2 / 2.0 + d**2 * (p + m) / q - d**2 * (p - m) ** 2 / q**2
    p2 = (hbar**2 / (2.0 * d0**2)) * (p + m + 2.0 * x * w * (1.0 - 2.0 * d**2 / d0**2)) / q
    var_p = p2 - mean_p**2
    cov_zp = (d * (p - m) / q) * mean_p
    return MomentSet(mean_z, mean_p, var_z, var_p, cov_zp)


def numeric_moments(field: GridField,
                    unit: UnitSystem = DEFAULT_UNITS) -> MomentSet:
    """Moments by grid quadrature, momentum side through the spectrum
    (see :func:`spectral_moments`). The field must be unit-norm."""
    from .core import norm as _norm  # local import to avoid shadowing

    nval = _norm(field)
    if abs(nval - 1.0) > 1e-6:
        raise PreconditionError(f"field norm is {nval!r}, expected 1")
    psi = field.amplitudes
    return spectral_moments(psi, np.fft.fft(psi), field.grid, unit.hbar)


def spectral_moments(psi: np.ndarray, psi_k: np.ndarray, grid: SpatialGrid,
                     hbar: float, p_shift: float = 0.0) -> MomentSet:
    """Moments of exp(i p_shift z / hbar) psi from the samples `psi` (unit
    norm) and their spectrum `psi_k`: rectangle rule in z, |psi_k|^2
    weights in p, spectral derivative for the covariance. The boost only
    moves <p>; |psi|^2, var_p and cov_zp are invariant."""
    z, k, dz = grid.points, grid.wavenumbers, grid.spacing
    z_psi = z * psi
    total = float(np.vdot(psi, psi).real) * dz
    mean_z = float(np.vdot(psi, z_psi).real) * dz
    var_z = float(np.vdot(z_psi, z_psi).real) * dz - mean_z**2 * (2.0 - total)
    k_psi = k * psi_k
    weight = float(np.vdot(psi_k, psi_k).real)
    mean_k = float(np.vdot(psi_k, k_psi).real) / weight
    var_p = hbar**2 * (float(np.vdot(k_psi, k_psi).real) / weight - mean_k**2)
    # psi' = i ifft(k psi_k), so Re <z p> = hbar Re sum conj(z psi) ifft(k psi_k)
    zp_sym = hbar * float(np.vdot(z_psi, np.fft.ifft(k_psi)).real) * dz
    mean_p = hbar * mean_k
    return MomentSet(mean_z, mean_p + p_shift, var_z, var_p,
                     zp_sym - mean_z * mean_p)


def mixture_moments(spec: WavepacketSpec,
                    unit: UnitSystem = DEFAULT_UNITS) -> MomentSet:
    """Moments of the decohered state: branch weights |c+-|^2, no cross terms.

    Each branch is a real Gaussian of width delta0 centered at z0 -+ delta
    with zero mean momentum, so the mixture has

        <z> = z0 - delta (p+ - p-),   <p> = 0,
        var_z = delta0^2/2 + 4 delta^2 p+ p-,
        var_p = hbar^2 / (2 delta0^2),   cov_zp = 0,

    with normalized weights p+- = |c+-|^2 / (|c+|^2 + |c-|^2).
    """
    if spec.kind != CAT:
        raise PreconditionError(
            "mixture is undefined for a single-branch Gaussian state")
    p, m, _, _, _ = _coefficient_terms(spec)
    wp, wm = p / (p + m), m / (p + m)
    mean_z = spec.z0 - spec.delta * (wp - wm)
    var_z = spec.delta0**2 / 2.0 + 4.0 * spec.delta**2 * wp * wm
    var_p = unit.hbar**2 / (2.0 * spec.delta0**2)
    return MomentSet(mean_z, 0.0, var_z, var_p, 0.0)
