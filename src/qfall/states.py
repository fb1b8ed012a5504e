"""Gaussian and two-peak cat wavefunctions and their moments.

A cat state is the normalized superposition

    psi(z) = N { c+ exp(-(z - z0 + D)^2 / 2 D0^2)
               + c- exp(-(z - z0 - D)^2 / 2 D0^2) },

two Gaussian peaks of width D0 centered at z0 -+ D. D = 0 with c- = 0
recovers a plain Gaussian packet. Its moments come in closed form from
Gaussian integrals (`analytic_moments`); the oracle in
:mod:`qfall.validate` samples the packet on a grid and checks them by
quadrature.

Removing the interference (off-diagonal) part of the density matrix
turns the cat into a classical statistical mixture of its two branches;
`mixture_moments` gives the mixture's moments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import DEFAULT_UNITS, UnitSystem, _check_scale
from .errors import ConfigurationError, DegenerateStateError, PreconditionError

__all__ = [
    "GAUSSIAN",
    "CAT",
    "WavepacketSpec",
    "MomentSet",
    "normalization_constant",
    "analytic_moments",
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
