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
  the detector current in closed form (`arrival_current`);
* a Strang split-operator spectral solver (`split_step_evolve`) with fused
  half kicks: one transform pair per step, and none more per record;
  `split_step_evolve_many` steps runs of one grid size as rows of one
  array. It is the independent oracle of the two closed forms.

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
    "arrival_current",
    "split_step_evolve",
    "split_step_evolve_many",
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
    """
    [(_, out)] = _exact_fields(spec, params, [t], grid, unit)
    return out


def _exact_fields(spec, params, times, grid, unit=DEFAULT_UNITS):
    """Yield (t, :func:`exact_wavefunction` at t) for each of `times`; the
    initial state and its spectrum are built once for the series."""
    if min(times) < 0:
        raise PreconditionError("evolution time must be nonnegative")
    hbar, mi, force, k = (unit.hbar, params.mass.m_inertial, params.force,
                          grid.wavenumbers)
    spectrum0 = np.fft.fft(build_wavefunction(spec, grid).amplitudes)
    for t in times:
        shift = 0.5 * params.g_eff * t**2
        spectrum = spectrum0 * np.exp(-1j * hbar * k**2 * t / (2.0 * mi))
        free = GridField(grid, np.fft.ifft(spectrum))
        if boundary_probability(free, BOUNDARY_CELLS) > BOUNDARY_TOL:
            raise DomainError(
                "free-spreading intermediate reaches the boundary; enlarge "
                "the grid above the release point")
        shifted = np.fft.ifft(spectrum * np.exp(1j * k * shift))
        phase = np.exp(-1j * force * t * grid.points / hbar
                       - 1j * force**2 * t**3 / (6.0 * mi * hbar))
        out = GridField(grid, phase * shifted)
        if boundary_probability(out, BOUNDARY_CELLS) > BOUNDARY_TOL:
            raise DomainError(
                "evolved state reaches the boundary; enlarge the grid below "
                "the detector")
        yield t, out


def arrival_current(spec: WavepacketSpec, params: LinearPotentialParams,
                    z_d: float, times, unit: UnitSystem = DEFAULT_UNITS,
                    ) -> np.ndarray:
    """The probability current J(z_d, t) at `times`, in closed form.

    Each Gaussian branch spreads freely with the complex width
    s^2 = delta0^2 + i hbar t / m_i and amplitude N c delta0 / s. As in
    :func:`exact_wavefunction`, their sum phi is read at u = z_d + g_eff t^2/2
    and J = (hbar / m_i) Im(phi* d_u phi) - (F t / m_i) |phi|^2. No grid is
    involved; an overflow raises :class:`ConfigurationError`.
    """
    hbar, mi, t = unit.hbar, params.mass.m_inertial, np.asarray(times, float)
    lo, hi = spec.peak_centers()
    branches = [(lo, spec.c_plus)] + [(hi, spec.c_minus)] * (spec.kind == CAT)
    phi = dphi = 0.0
    with np.errstate(all="ignore"):  # far tails are set to 0; overflow below
        s2 = spec.delta0**2 + 1j * hbar * t / mi
        x0 = z_d + 0.5 * params.g_eff * t**2
        for center, coeff in branches:
            x = x0 - center
            exponent = -x * x / (2.0 * s2)
            branch = coeff * np.exp(exponent, out=np.zeros_like(exponent),
                                    where=exponent.real > -800.0)
            phi, dphi = phi + branch, dphi - x / s2 * branch
        phi, dphi = (normalization_constant(spec) * spec.delta0 / np.sqrt(s2)
                     * np.array([phi, dphi]))
        current = (hbar * (phi.conjugate() * dphi).imag
                   - params.force * t * np.abs(phi) ** 2) / mi
    if not np.isfinite(current).all():
        raise ConfigurationError("the closed-form current overflows; reduce "
                                 "the drop height or the run length")
    return current


def default_timestep(t_total: float, steps: int = 4096) -> float:
    """Default dt: the total evolution time divided into 4096 steps."""
    if t_total <= 0:
        raise PreconditionError("total time must be positive")
    return t_total / steps


def split_step_evolve(initial: GridField, params: LinearPotentialParams,
                      dt: float, n_steps: int, *,
                      probe_z: float | None = None, **options) -> EvolutionResult:
    """One run: the one-row case of :func:`split_step_evolve_many`, which
    takes the same keyword `options` and documents the scheme and checks."""
    return split_step_evolve_many([initial], [params], [dt], n_steps,
                                  probe_zs=[probe_z], **options)[0]


def split_step_evolve_many(initials, params, dts, n_steps: int, *,
                           probe_zs, unit: UnitSystem = DEFAULT_UNITS,
                           record_stride: int = 1,
                           boundary_tol: float = BOUNDARY_TOL,
                           nyquist_margin: float = 2.0,
                           ) -> list[EvolutionResult]:
    """Strang-split spectral evolution: half kick, full drift, half kick.

    Run r takes n_steps steps of dts[r] from initials[r] under params[r],
    probing the current at probe_zs[r] (None: no probe). The runs share
    n_points and are the rows of one array, so a step is one kick, one
    transform pair and one kinetic phase for all of them; each row keeps
    its own grid, dt, force, probe and record, and equals its solo run bit
    for bit.

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

    Each run is checked on its own. Raises :class:`PreconditionError` if
    an initial field is not unit-norm (to 1e-6), :class:`ConfigurationError`
    if the runs differ in n_points, a probe is off its grid, or a grid
    cannot represent the momentum its run acquires (from the initial <p>
    and var_p) with a factor ``nyquist_margin`` to spare (the factor it has
    is the result's ``nyquist_headroom``), and
    :class:`BoundaryBreachError` (with the step and the run's row) if
    probability reaches the domain edges mid-run.
    """
    rows = len(initials)
    if {len(params), len(dts), len(probe_zs)} != {rows} \
            or len({f.grid.n_points for f in initials}) != 1:
        raise ConfigurationError("each run needs its params, dt and probe_z, "
                                 "and all share n_points")
    if 0 in dts:
        raise PreconditionError("dt must be nonzero")
    if n_steps < 0:
        raise PreconditionError("n_steps must be nonnegative")
    if record_stride < 1:
        raise PreconditionError("record_stride must be >= 1")
    for initial in initials:
        if abs((nval := norm(initial)) - 1.0) > 1e-6:
            raise PreconditionError(f"field norm is {nval!r}, expected 1")
    hbar = unit.hbar
    grids = [f.grid for f in initials]
    dzs = [grid.spacing for grid in grids]
    z = np.array([grid.points for grid in grids])
    k = np.array([grid.wavenumbers for grid in grids])
    force, tau, mi = (np.array(column, dtype=float)[:, None] for column in (
        [par.force for par in params], dts,
        [par.mass.m_inertial for par in params]))
    half_kick = np.exp(-1j * force * z * tau / (2.0 * hbar))
    kick = np.exp(-1j * force * z * tau / hbar)
    kinetic = np.exp(-1j * hbar * k**2 * tau / (2.0 * mi))
    p_shifts = [-0.5 * par.force * dt for par, dt in zip(params, dts)]
    edges = np.r_[:BOUNDARY_CELLS, -BOUNDARY_CELLS:0]

    chi = np.array([f.amplitudes for f in initials]) / half_kick
    spectrum = np.fft.fft(chi)
    initial_moments = [spectral_moments(c, s, grid, hbar, shift) for c, s, grid,
                       shift in zip(chi, spectrum, grids, p_shifts)]
    headrooms = []
    for grid, par, dt, probe_z, m0 in zip(grids, params, dts, probe_zs,
                                          initial_moments):
        p_reach = _momentum_reach(m0, par.force * abs(dt) * n_steps)
        headrooms.append(hbar * grid.k_max / p_reach)
        if headrooms[-1] < nyquist_margin:
            raise ConfigurationError(
                f"grid resolves momenta up to {hbar * grid.k_max:.4g} but the "
                f"run acquires {p_reach:.4g} (margin {nyquist_margin}); "
                "refine the grid")
        if probe_z is not None and not (grid.z_min <= probe_z < grid.z_max):
            raise ConfigurationError(f"probe at {probe_z} outside the domain")
    weights = [None if probe_z is None else probe_weights(grid, probe_z)
               for grid, probe_z in zip(grids, probe_zs)]

    n_records = n_steps // record_stride + 1 + (n_steps % record_stride > 0)
    norms, mean_z, currents = np.empty((3, rows, n_records))
    recorded = []
    z_chi = np.empty_like(chi)
    per_row = list(zip(chi, z_chi, spectrum, weights, dzs, params, p_shifts))

    def record(step: int):
        # the same quadratures as spectral_moments, without its transform
        i = len(recorded)
        recorded.append(step)
        np.multiply(z, chi, out=z_chi)
        for r, (c, zc, s, w, dz, par, shift) in enumerate(per_row):
            norms[r, i] = math.sqrt(float(np.vdot(c, c).real) * dz)
            mean_z[r, i] = float(np.vdot(c, zc).real) * dz
            if w is not None:
                currents[r, i] = probe_current(w, s, hbar, par.mass.m_inertial,
                                               shift)

    # The per-row edge test runs when a screen over all rows trips; the
    # screen's margin covers its different summation order.
    screen, dz_max = boundary_tol * (1.0 - 1e-9), max(dzs)
    record(0)
    for step in range(1, n_steps + 1):
        chi *= kick
        np.fft.fft(chi, out=spectrum)
        spectrum *= kinetic
        np.fft.ifft(spectrum, out=chi)
        edge = chi.take(edges, axis=1)
        if float(np.vdot(edge, edge).real) * dz_max > screen:
            for r, (e, dz) in enumerate(zip(edge, dzs)):
                edge_prob = float(np.vdot(e, e).real) * dz
                if edge_prob > boundary_tol:
                    raise BoundaryBreachError(
                        f"probability {edge_prob:.3e} reached the domain edge",
                        step, r)
        if step % record_stride == 0 or step == n_steps:
            record(step)

    recorded = np.array(recorded)
    return [EvolutionResult(
        times=recorded * dt, mean_z=mean_z[r], norms=norms[r],
        initial_moments=initial_moments[r],
        final_moments=spectral_moments(chi[r], spectrum[r], grid, hbar,
                                       p_shifts[r]),
        final_field=GridField(grid, half_kick[r] * chi[r]),
        params=params[r], dt=dt, nyquist_headroom=headrooms[r],
        probe_z=probe_zs[r],
        probe_current=None if weights[r] is None else currents[r],
    ) for r, (grid, dt) in enumerate(zip(grids, dts))]


def _momentum_reach(m0: MomentSet, impulse: float) -> float:
    """|<p>| + F t + 5 sigma_p: what a run from `m0` reaches after F t."""
    return abs(m0.mean_p) + impulse + 5.0 * math.sqrt(m0.var_p)


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
                    target_error: float = 1e-8,
                    ratio_band: tuple[float, float] = (3.5, 4.5),
                    max_halvings: int = 8) -> dict:
    """Halve dt until the order-check ratio stabilizes and the split-step
    error against the exact propagator drops below `target_error`.

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
    for _ in range(max_halvings):
        stable = ratios and ratio_band[0] <= ratios[-1] <= ratio_band[1]
        if errors[-1] <= target_error and (stable or errors[-1] < 1e-12):
            break
        dt /= 2.0
        n *= 2
        errors.append(l2_error(dt, n))
        ratios.append(errors[-2] / errors[-1])
    return {"dt": dt, "n_steps": n, "errors": errors, "ratios": ratios}


def dump_snapshots(snapshots, directory, fmt: str = "csv",
                   count: int | None = None):
    """Write (t, field) `snapshots` as {t, z, Re psi, Im psi} records.

    `fmt` selects one CSV file per snapshot, each written before the next
    pair is taken from `snapshots`, or a single .npz bundle, whose fields
    are copied into one array of `count` rows as they are taken (without
    `count` the pairs are listed first). Returns the list of paths written.
    """
    from pathlib import Path

    if fmt not in ("csv", "npz"):
        raise ConfigurationError(f"unknown snapshot format {fmt!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if fmt == "npz":
        if count is None:
            snapshots = list(snapshots)
            count = len(snapshots)
        times = np.empty(count)
        for i, (t, fld) in enumerate(snapshots):
            if i == 0:
                psi = np.empty((count, fld.grid.n_points), dtype=complex)
            times[i], psi[i] = t, fld.amplitudes
        path = directory / "snapshots.npz"
        np.savez(path, times=times, z=fld.grid.points, psi=psi)
        return [path]
    paths = []
    for i, (t, fld) in enumerate(snapshots):
        path = directory / f"snapshot_{i:06d}.csv"
        with open(path, "w") as fh:
            fh.write("t,z,re_psi,im_psi\n")
            for zj, aj in zip(fld.grid.points, fld.amplitudes):
                fh.write(f"{float(t)!r},{float(zj)!r},"
                         f"{float(aj.real)!r},{float(aj.imag)!r}\n")
        paths.append(path)
    return paths
