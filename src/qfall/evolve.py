"""Time evolution in a uniform force field, by two independent engines.

The Hamiltonian is H = p^2 / 2 m_i + F z with F = m_g * g in gravity mode
and F = m_i * a in a uniformly accelerated frame: the two modes are the
same operator reached through different parameters, which is exactly the
equivalence-principle statement the experiments exercise.

Engines:

* closed-form moment propagation (`moment_evolution`) - exact, since
  mean values obey the classical equations for a linear potential and a
  uniform force adds nothing to the central moments beyond free spreading;
* an exact wavefunction propagator (`exact_wavefunction`) built from the
  extended Galilean transform: free spectral evolution, a coordinate
  shift by the classical drop, and a linear momentum-kick phase;
* the same transform applied to the free Gaussian branches, which gives
  the field (`closed_form_field`) and the detector current
  (`arrival_current`) in closed form;
* a Strang split-operator spectral solver (`split_step_evolve`) with fused
  half kicks, which steps one run: one transform pair per step, and none
  more per record. It is the independent oracle of the two closed forms.

For a linear potential the Strang commutator defect is a c-number, so the
split solution differs from the exact one by a pure global phase
F^2 dt^3/(24 m hbar) per step; dt halving must shrink the L2 error four-fold
and the solver is unconditionally norm-preserving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_UNITS,
    GridField,
    MassPair,
    SpatialGrid,
    UnitSystem,
    _check_scale,
    boundary_probability,
    norm,
)
from .errors import (
    BoundaryBreachError,
    ConfigurationError,
    DomainError,
    PreconditionError,
)
from .states import (CAT, MomentSet, WavepacketSpec, build_wavefunction,
                     normalization_constant, spectral_moments)

__all__ = [
    "GRAVITY",
    "ACCELERATED_FRAME",
    "LinearPotentialParams",
    "EvolutionResult",
    "moment_evolution",
    "exact_wavefunction",
    "closed_form_field",
    "arrival_current",
    "split_step_evolve",
    "default_timestep",
    "refine_timestep",
    "dump_snapshots",
]

GRAVITY = "gravity"
ACCELERATED_FRAME = "accelerated_frame"

# Probability allowed within 5 grid spacings of either boundary before the
# run aborts; prevents silent wraparound on the periodic domain.
BOUNDARY_TOL = 1e-10
BOUNDARY_CELLS = 5
# Factor by which a split-step grid must out-resolve the momentum a run
# acquires.
NYQUIST_MARGIN = 2.0


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


@dataclass
class EvolutionResult:
    """Strided record of a split-operator run.

    `times`, `mean_z`, `norms` and (optionally) `probe_current` share one
    stride. The full moments are kept at release and at the last step, and
    the final field always.
    """

    times: np.ndarray
    mean_z: np.ndarray
    norms: np.ndarray
    initial_moments: MomentSet
    final_moments: MomentSet
    final_field: GridField
    params: LinearPotentialParams
    dt: float
    nyquist_headroom: float  # hbar k_max over the momentum the run acquires
    probe_z: float | None = None
    probe_current: np.ndarray | None = None


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


def exact_wavefunction(spec: WavepacketSpec, params: LinearPotentialParams,
                       t: float, grid: SpatialGrid,
                       unit: UnitSystem = DEFAULT_UNITS) -> GridField:
    """Evolve the initial packet exactly via the extended Galilean transform.

    psi(z, t) = exp(-i F t z / hbar - i F^2 t^3 / (6 m hbar))
                * phi(z + g_eff t^2 / 2, t)

    with phi the free spectral evolution of the initial state. The free
    intermediate never falls, so the domain must contain both the fallen
    and the unfallen spread packet; both are checked against the boundary
    guard and a breach raises :class:`DomainError` advising a larger grid.
    It is the oracle of :func:`closed_form_field`.
    """
    if t < 0:
        raise PreconditionError("evolution time must be nonnegative")
    hbar, mi, force, k = (unit.hbar, params.mass.m_inertial, params.force,
                          grid.wavenumbers)
    shift = 0.5 * params.g_eff * t**2
    spectrum = (np.fft.fft(build_wavefunction(spec, grid).amplitudes)
                * np.exp(-1j * hbar * k**2 * t / (2.0 * mi)))
    free = GridField(grid, np.fft.ifft(spectrum))
    shifted = np.fft.ifft(spectrum * np.exp(1j * k * shift))
    phase = np.exp(-1j * force * t * grid.points / hbar
                   - 1j * force**2 * t**3 / (6.0 * mi * hbar))
    out = GridField(grid, phase * shifted)
    for fld, text in ((free, "free-spreading intermediate reaches the "
                       "boundary; enlarge the grid above the release point"),
                      (out, "evolved state reaches the boundary; enlarge the "
                       "grid below the detector")):
        if boundary_probability(fld, BOUNDARY_CELLS) > BOUNDARY_TOL:
            raise DomainError(text)
    return out


def _branch_sum(spec: WavepacketSpec, params: LinearPotentialParams, t, z,
                unit: UnitSystem):
    """(phi, d_u phi) of the free Gaussian branches, each of complex width
    s^2 = delta0^2 + i hbar t / m_i and amplitude N c delta0 / s, at
    u = z + g_eff t^2 / 2 (`t` and `z` broadcast); far tails are set to 0."""
    hbar, mi = unit.hbar, params.mass.m_inertial
    lo, hi = spec.peak_centers()
    branches = [(lo, spec.c_plus)] + [(hi, spec.c_minus)] * (spec.kind == CAT)
    phi = dphi = 0.0
    with np.errstate(all="ignore"):  # overflow is left to the callers
        s2 = spec.delta0**2 + 1j * hbar * t / mi
        x0 = z + 0.5 * params.g_eff * t**2
        for center, coeff in branches:
            x = x0 - center
            exponent = -x * x / (2.0 * s2)
            branch = coeff * np.exp(exponent, out=np.zeros_like(exponent),
                                    where=exponent.real > -800.0)
            phi, dphi = phi + branch, dphi - x / s2 * branch
        return (normalization_constant(spec) * spec.delta0 / np.sqrt(s2)
                * np.array([phi, dphi]))


def closed_form_field(spec: WavepacketSpec, params: LinearPotentialParams,
                      t, z, unit: UnitSystem = DEFAULT_UNITS) -> np.ndarray:
    """psi(z, t) on no grid (`t` and `z` broadcast): the transform of
    :func:`exact_wavefunction` applied to the branch sum phi,
    exp(-i F t z / hbar - i F^2 t^3 / (6 m_i hbar)) phi(z + g_eff t^2 / 2)."""
    hbar, mi, force = unit.hbar, params.mass.m_inertial, params.force
    t, z = np.asarray(t, float), np.asarray(z, float)
    phi, _ = _branch_sum(spec, params, t, z, unit)
    with np.errstate(all="ignore"):
        return _finite("field", np.exp(
            -1j * force * t * z / hbar
            - 1j * force**2 * t**3 / (6.0 * mi * hbar)) * phi)


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


def default_timestep(t_total: float) -> float:
    """Default dt: the total evolution time divided into 4096 steps."""
    if t_total <= 0:
        raise PreconditionError("total time must be positive")
    return t_total / 4096


def split_step_evolve(initial: GridField, params: LinearPotentialParams,
                      dt: float, n_steps: int, *, probe_z: float | None = None,
                      unit: UnitSystem = DEFAULT_UNITS,
                      record_stride: int = 1) -> EvolutionResult:
    """Strang-split spectral evolution: half kick, full drift, half kick.

    One run of n_steps steps of dt from `initial`, probing the current at
    `probe_z` (None: no probe).

    Adjacent half kicks merge: the loop carries chi = exp(+i F z dt / 2
    hbar) psi, and each step is one full kick, a transform, the kinetic
    phase and the inverse transform; the last half kick is applied only to
    the returned final field. Every factor is a pure phase, so the norm is
    conserved to roundoff.

    The norm, <z> and the probe current are recorded every `record_stride`
    steps from chi and the spectrum the step already holds, with no
    transform; psi is chi boosted by -F dt / 2, which adds
    -(F dt / 2 m) |chi(z_d)|^2 to the current. The full moment sets, whose
    cov_zp costs an inverse transform, are taken at step 0 and at the last
    step, with <p> shifted by the same boost. Negative dt runs the inverse
    evolution, used for reversibility checks.

    Raises :class:`PreconditionError` if the initial field is not unit-norm
    (to 1e-6), :class:`ConfigurationError` if the probe is off the grid or
    the grid cannot represent the momentum the run acquires (from the
    initial <p> and var_p) with a factor ``NYQUIST_MARGIN`` to spare (the
    factor it has is the result's ``nyquist_headroom``), and
    :class:`BoundaryBreachError` (with the step) if probability reaches the
    domain edges mid-run.
    """
    if dt == 0:
        raise PreconditionError("dt must be nonzero")
    if n_steps < 0:
        raise PreconditionError("n_steps must be nonnegative")
    if record_stride < 1:
        raise PreconditionError("record_stride must be >= 1")
    if abs((nval := norm(initial)) - 1.0) > 1e-6:
        raise PreconditionError(f"field norm is {nval!r}, expected 1")
    hbar, grid, force = unit.hbar, initial.grid, params.force
    z, dz, mi = grid.points, grid.spacing, params.mass.m_inertial
    half_kick = np.exp(-1j * force * z * dt / (2.0 * hbar))
    kick = np.exp(-1j * force * z * dt / hbar)
    kinetic = np.exp(-1j * hbar * grid.wavenumbers**2 * dt / (2.0 * mi))
    p_shift = -0.5 * force * dt
    edges = np.r_[:BOUNDARY_CELLS, -BOUNDARY_CELLS:0]

    chi = initial.amplitudes / half_kick
    spectrum = np.fft.fft(chi)
    initial_moments = spectral_moments(chi, spectrum, grid, hbar, p_shift)
    p_reach = (abs(initial_moments.mean_p) + force * abs(dt) * n_steps
               + 5.0 * math.sqrt(initial_moments.var_p))
    headroom = hbar * grid.k_max / p_reach
    if headroom < NYQUIST_MARGIN:
        raise ConfigurationError(
            f"grid resolves momenta up to {hbar * grid.k_max:.4g} but the "
            f"run acquires {p_reach:.4g} (margin {NYQUIST_MARGIN}); "
            "refine the grid")
    if probe_z is not None and not (grid.z_min <= probe_z < grid.z_max):
        raise ConfigurationError(f"probe at {probe_z} outside the domain")
    weights = None if probe_z is None else probe_weights(grid, probe_z)

    n_records = n_steps // record_stride + 1 + (n_steps % record_stride > 0)
    norms, mean_z, currents = np.empty((3, n_records))
    recorded = []
    z_chi = np.empty_like(chi)

    def record(step: int):
        # the same quadratures as spectral_moments, without its transform
        i = len(recorded)
        recorded.append(step)
        np.multiply(z, chi, out=z_chi)
        norms[i] = math.sqrt(float(np.vdot(chi, chi).real) * dz)
        mean_z[i] = float(np.vdot(chi, z_chi).real) * dz
        if weights is not None:
            currents[i] = probe_current(weights, spectrum, hbar, mi, p_shift)

    record(0)
    for step in range(1, n_steps + 1):
        chi *= kick
        np.fft.fft(chi, out=spectrum)
        spectrum *= kinetic
        np.fft.ifft(spectrum, out=chi)
        edge = chi.take(edges)
        if (edge_prob := float(np.vdot(edge, edge).real) * dz) > BOUNDARY_TOL:
            raise BoundaryBreachError(
                f"probability {edge_prob:.3e} reached the domain edge", step)
        if step % record_stride == 0 or step == n_steps:
            record(step)

    return EvolutionResult(
        times=np.array(recorded) * dt, mean_z=mean_z, norms=norms,
        initial_moments=initial_moments,
        final_moments=spectral_moments(chi, spectrum, grid, hbar, p_shift),
        final_field=GridField(grid, half_kick * chi), params=params, dt=dt,
        nyquist_headroom=headroom, probe_z=probe_z,
        probe_current=None if weights is None else currents)


def probe_weights(grid: SpatialGrid, z: float) -> np.ndarray:
    """Rows giving the band-limited (psi(z), psi'(z)) = weights @ psi_k."""
    k = grid.wavenumbers
    phase = np.exp(1j * k * (z - grid.z_min)) / grid.n_points
    return np.stack((phase, 1j * k * phase))


def probe_current(weights: np.ndarray, psi_k: np.ndarray, hbar: float,
                  mass: float, p_shift: float = 0.0) -> float:
    """Current (hbar Im(psi* psi') + p_shift |psi|^2) / mass of the boosted
    field exp(i p_shift z / hbar) psi at the probe of `weights`."""
    val, dval = (weights @ psi_k).tolist()
    return (hbar * (val.conjugate() * dval).imag + p_shift * abs(val) ** 2) / mass


def refine_timestep(spec: WavepacketSpec, params: LinearPotentialParams,
                    t_total: float, grid: SpatialGrid,
                    unit: UnitSystem = DEFAULT_UNITS, dt0: float | None = None,
                    target_error: float = 1e-8) -> dict:
    """Halve dt, at most 8 times, until the order-check ratio stabilizes in
    [3.5, 4.5] and the split-step error against the exact propagator drops
    below `target_error`.

    Returns a dict with the refined ``dt``, the per-level L2 ``errors``
    against :func:`exact_wavefunction`, and the halving ``ratios`` (each
    should sit near 4 for a second-order scheme).
    """
    reference = exact_wavefunction(spec, params, t_total, grid, unit)
    field0 = build_wavefunction(spec, grid)
    dt = default_timestep(t_total) if dt0 is None else dt0
    n = max(1, round(t_total / dt))
    dt = t_total / n

    def l2_error(dt_k, n_k):
        run = split_step_evolve(field0, params, dt_k, n_k,
                                unit=unit, record_stride=n_k)
        diff = run.final_field.amplitudes - reference.amplitudes
        return float(np.sqrt(np.sum(np.abs(diff) ** 2) * grid.spacing))

    errors = [l2_error(dt, n)]
    ratios: list[float] = []
    for _ in range(8):
        stable = ratios and 3.5 <= ratios[-1] <= 4.5
        if errors[-1] <= target_error and (stable or errors[-1] < 1e-12):
            break
        dt /= 2.0
        n *= 2
        errors.append(l2_error(dt, n))
        ratios.append(errors[-2] / errors[-1])
    return {"dt": dt, "n_steps": n, "errors": errors, "ratios": ratios}


def dump_snapshots(snapshots, directory, fmt: str = "csv"):
    """Write each (t, z, psi) of `snapshots` to its own file
    `snapshot_NNNNNN.<fmt>`, before the next is taken from `snapshots`.

    A CSV file holds {t, z, Re psi, Im psi} rows; an npz file holds the
    arrays `t`, `z` and `psi`. Returns the list of paths written.
    """
    from pathlib import Path

    if fmt not in ("csv", "npz"):
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
