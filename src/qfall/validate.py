"""The grid-based oracle of the closed forms, and `qfall validate`.

Every grid-based definition of qfall lives here: the periodic grid and
its fields, sampled states and their quadrature moments, the exact
spectral propagator, the Strang split-operator solver with its detector
probe, the estimators that read a solver run, and the domain planner.
The closed forms they check never import this module. In a linear
potential the Strang defect is a c-number: the split solution differs
from the exact one by a global phase F^2 dt^3/(24 m hbar) per step, so
halving dt shrinks the L2 error four-fold, and the norm is conserved.

The oracle suite pits each closed form against an independent numeric
route (grid quadrature, spectral evolution, or brute parameter scans) at
desk-scale resolution. Tier-1 asserts each check of `CHECKS` by name, so a
check is the one home of its assertion and its tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_UNITS, MassPair, UnitSystem
from .errors import (
    BoundaryBreachError,
    ConfigurationError,
    DomainError,
    InfeasibleTargetError,
    NoCrossingError,
    PreconditionError,
)
from .experiments import _momentum_reach, _spacing
from .evolve import (
    ACCELERATED_FRAME,
    GRAVITY,
    LinearPotentialParams,
    _galilean_phase,
    arrival_current,
    closed_form_field,
    moment_evolution,
)
from .prepare import check_matched, match_second_particle, velocity_bound
from .states import (
    CAT,
    MomentSet,
    WavepacketSpec,
    analytic_moments,
    mixture_moments,
    normalization_constant,
)
from .tof import (
    WINDOW_SIGMAS,
    TofDistribution,
    _arrival_windows,
    crossing_spread,
    distribution_distance,
    distribution_from_current,
    ehrenfest_tof,
    epsilon_factor,
)

__all__ = [
    # grids, sampled fields and states
    "SpatialGrid", "GridField", "make_grid", "fft_size", "norm",
    "boundary_probability", "build_wavefunction", "numeric_moments",
    "spectral_moments",
    # the exact propagator, the split-step solver and what reads its runs
    "EvolutionResult", "exact_wavefunction", "split_step_evolve",
    "probe_weights", "probe_current", "refine_timestep", "default_timestep",
    "mean_crossing_time", "current_tof_distribution", "plan_domain",
    # the oracle suite
    "random_cat", "run_all", "CHECKS",
]

# Probability allowed within BOUNDARY_CELLS grid spacings of either boundary
# before a run aborts; prevents silent wraparound on the periodic domain.
BOUNDARY_TOL = 1e-10
BOUNDARY_CELLS = 5
# Edge amplitude exact_wavefunction allows (the tolerance its fields are
# compared at), and the one plan_domain leaves at every time of a run: lower,
# so that FFT roundoff on a planned grid stays below the guard.
EXACT_EDGE_TOL = 1e-12
DOMAIN_TOL = 1e-14
# Factor by which a split-step grid must out-resolve the momentum a run
# acquires.
NYQUIST_MARGIN = 2.0
# The fewest points of a grid that plan_domain plans.
MIN_GRID_POINTS = 1024

_UNIT = DEFAULT_UNITS


# --- grids and fields --------------------------------------------------------
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


def norm(field: GridField) -> float:
    """L2 norm sqrt(sum |psi_j|^2 dz) under the rectangle rule.

    The rectangle rule is exact for band-limited periodic integrands,
    which is the representation the spectral solver works in.
    """
    return float(np.sqrt(np.sum(np.abs(field.amplitudes) ** 2)
                         * field.grid.spacing))


def _edge_probability(amplitudes: np.ndarray, spacing: float,
                      cells: int = BOUNDARY_CELLS) -> float:
    """Probability in the outermost `cells` samples on each side, read from
    those samples alone: the split-step solver's boundary guard."""
    edge = np.concatenate((amplitudes[:cells], amplitudes[-cells:]))
    return float(np.vdot(edge, edge).real) * spacing


def boundary_probability(field: GridField,
                         cells: int = BOUNDARY_CELLS) -> float:
    """Probability mass in the outermost `cells` grid points on each side."""
    return _edge_probability(field.amplitudes, field.grid.spacing, cells)


def _check_unit_norm(field: GridField) -> None:
    """Raise PreconditionError unless `field` has unit norm to 1e-6."""
    if abs((nval := norm(field)) - 1.0) > 1e-6:
        raise PreconditionError(f"field norm is {nval!r}, expected 1")


# --- sampled states ----------------------------------------------------------
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


def numeric_moments(field: GridField,
                    unit: UnitSystem = DEFAULT_UNITS) -> MomentSet:
    """Moments by grid quadrature, momentum side through the spectrum
    (see :func:`spectral_moments`). The field must be unit-norm."""
    _check_unit_norm(field)
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


# --- the exact propagator and the split-step solver --------------------------
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
    peak_edge_probability: float  # the largest the boundary guard saw
    probe_z: float | None = None
    probe_current: np.ndarray | None = None


def exact_wavefunction(spec: WavepacketSpec, params: LinearPotentialParams,
                       t: float, grid: SpatialGrid,
                       unit: UnitSystem = DEFAULT_UNITS) -> GridField:
    """Evolve the initial packet exactly via the extended Galilean transform.

    psi(z, t) = exp(-i F t z / hbar - i F^2 t^3 / (6 m hbar))
                * phi(z + g_eff t^2 / 2, t)

    with phi the free spectral evolution of the initial state. The free
    intermediate never falls, so the domain must contain both the fallen
    and the unfallen spread packet; an amplitude above ``EXACT_EDGE_TOL``
    in the ``BOUNDARY_CELLS`` outermost samples of either raises
    :class:`DomainError` advising a larger grid. It is the oracle of
    :func:`closed_form_field`.
    """
    if t < 0:
        raise PreconditionError("evolution time must be nonnegative")
    hbar, mi, k = unit.hbar, params.mass.m_inertial, grid.wavenumbers
    shift = 0.5 * params.g_eff * t**2
    spectrum = (np.fft.fft(build_wavefunction(spec, grid).amplitudes)
                * np.exp(-1j * hbar * k**2 * t / (2.0 * mi)))
    shifted = np.fft.ifft(spectrum * np.exp(1j * k * shift))
    out = GridField(grid, _galilean_phase(params, t, grid.points, unit)
                    * shifted)
    for amplitudes, text in (
            (np.fft.ifft(spectrum), "free-spreading intermediate reaches the "
             "boundary; enlarge the grid above the release point"),
            (out.amplitudes, "evolved state reaches the boundary; enlarge the "
             "grid below the detector")):
        edge = np.concatenate((amplitudes[:BOUNDARY_CELLS],
                               amplitudes[-BOUNDARY_CELLS:]))
        if np.abs(edge).max() > EXACT_EDGE_TOL:
            raise DomainError(text)
    return out


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
    initial <p> and var_p, by `experiments._momentum_reach`) with a factor
    ``NYQUIST_MARGIN`` to spare (the factor it has is the result's
    ``nyquist_headroom``), and :class:`BoundaryBreachError` (with the step)
    if more than ``BOUNDARY_TOL`` of the probability reaches the domain
    edges after a step; the largest edge probability of the run is the
    result's ``peak_edge_probability``.
    """
    if dt == 0:
        raise PreconditionError("dt must be nonzero")
    if n_steps < 0:
        raise PreconditionError("n_steps must be nonnegative")
    if record_stride < 1:
        raise PreconditionError("record_stride must be >= 1")
    _check_unit_norm(initial)
    hbar, grid, force = unit.hbar, initial.grid, params.force
    z, dz, mi = grid.points, grid.spacing, params.mass.m_inertial
    half_kick = np.exp(-1j * force * z * dt / (2.0 * hbar))
    kick = np.exp(-1j * force * z * dt / hbar)
    kinetic = np.exp(-1j * hbar * grid.wavenumbers**2 * dt / (2.0 * mi))
    p_shift = -0.5 * force * dt

    chi = initial.amplitudes / half_kick
    spectrum = np.fft.fft(chi)
    initial_moments = spectral_moments(chi, spectrum, grid, hbar, p_shift)
    p_reach = _momentum_reach(initial_moments, force * dt * n_steps)
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
    peak = 0.0
    for step in range(1, n_steps + 1):
        chi *= kick
        np.fft.fft(chi, out=spectrum)
        spectrum *= kinetic
        np.fft.ifft(spectrum, out=chi)
        if (edge_prob := _edge_probability(chi, dz)) > BOUNDARY_TOL:
            raise BoundaryBreachError(
                f"probability {edge_prob:.3e} reached the domain edge", step)
        peak = max(peak, edge_prob)
        if step % record_stride == 0 or step == n_steps:
            record(step)

    return EvolutionResult(
        times=np.array(recorded) * dt, mean_z=mean_z, norms=norms,
        initial_moments=initial_moments,
        final_moments=spectral_moments(chi, spectrum, grid, hbar, p_shift),
        final_field=GridField(grid, half_kick * chi), params=params, dt=dt,
        nyquist_headroom=headroom, peak_edge_probability=peak, probe_z=probe_z,
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


# --- estimators on a solver run ----------------------------------------------
def mean_crossing_time(result: EvolutionResult, z_detector: float) -> float:
    """Detector-crossing time of the recorded mean trajectory.

    Uses quadratic interpolation through the three records bracketing the
    first sign change; exact for a uniform force, where the mean is a
    parabola in time.
    """
    t = np.asarray(result.times)
    offset = result.mean_z - z_detector
    below = np.nonzero(offset <= 0.0)[0]
    if len(below) == 0 or below[0] == 0:
        raise NoCrossingError("recorded mean trajectory never crosses the "
                              "detector plane")
    j = below[0]
    lo = min(max(0, j - 2), len(t) - 3)
    sel = slice(lo, lo + 3)
    coeff = np.polyfit(t[sel], offset[sel], 2)
    roots = [r.real for r in np.roots(coeff)
             if abs(r.imag) < 1e-12 and t[j - 1] - 1e-12 <= r.real <= t[j] + 1e-12]
    if not roots:  # fall back to the linear bracket
        return float(t[j - 1] - offset[j - 1] * (t[j] - t[j - 1])
                     / (offset[j] - offset[j - 1]))
    return float(min(roots))


def current_tof_distribution(result: EvolutionResult,
                             params: LinearPotentialParams, z_detector: float,
                             window_sigmas: float = WINDOW_SIGMAS,
                             ) -> TofDistribution:
    """Arrival-time density from the probability current at the detector.

    The window is auto-selected as the predicted mean crossing of the
    recorded initial moments plus/minus ``window_sigmas`` predicted
    spreads (clipped at t = 0; release happens at t = 0 so no flux exists
    earlier). The run must carry the current from a per-step probe at the
    detector (`split_step_evolve(..., probe_z=z_detector)`).
    """
    if result.probe_current is None:
        raise PreconditionError(
            "run carries no detector probe; rerun with probe_z")
    dz = result.final_field.grid.spacing
    if abs(result.probe_z - z_detector) > 0.5 * dz:
        raise PreconditionError(
            f"run probed the current at {result.probe_z}, not at {z_detector}")
    crossing = crossing_spread(result.initial_moments, params, z_detector)
    return distribution_from_current(result.times, result.probe_current,
                                     *_arrival_windows([crossing], window_sigmas))


# --- the domain planner ------------------------------------------------------
def plan_domain(entries, z_detector: float, t_final: float,
                unit: UnitSystem = DEFAULT_UNITS,
                max_points: int = 2**16) -> SpatialGrid:
    """Size the periodic domain for the one (spec, params) drop of `entries`.

    Each branch is a free Gaussian of width w(t) = |delta0^2 + i hbar t /
    m_i| / delta0 about a fixed centre in u = z + g_eff t^2 / 2, of
    amplitude at most A = N (|c+| + |c-|). Beyond w(t_final) sqrt(2 ln(A /
    DOMAIN_TOL)) above the top centre, and as far below the bottom centre
    fallen by g_eff t_final^2 / 2, the field and `exact_wavefunction`'s free
    intermediate stay below ``DOMAIN_TOL`` for all t in [0, t_final]. The
    grid's points span that range and the detector. The spacing is
    `_spacing` at the run's `_momentum_reach`; the size is the smallest
    `fft_size`, at least 1,024. A negative or nan `t_final` raises
    PreconditionError; one too long to square raises ConfigurationError."""
    [(spec, params)] = entries
    if not t_final >= 0:
        raise PreconditionError(f"t_final must be nonnegative, got {t_final!r}")
    if t_final * t_final == math.inf:
        raise ConfigurationError(f"t_final {t_final!r} is too long to square")
    lo, hi = spec.peak_centers()
    amplitude = normalization_constant(spec) * (
        abs(spec.c_plus) + abs(spec.c_minus) * (spec.kind == CAT))
    width = abs(spec.delta0**2 + 1j * unit.hbar * t_final
                / params.mass.m_inertial) / spec.delta0
    reach = width * math.sqrt(2.0 * max(0.0, math.log(amplitude / DOMAIN_TOL)))
    spacing = _spacing(spec, _momentum_reach(analytic_moments(spec, unit),
                                             params.force * t_final), unit)
    # a periodic grid's last point is one spacing below z_top
    z_top = max(hi + reach, z_detector) + spacing
    z_bot = min(lo - 0.5 * params.g_eff * t_final * t_final - reach,
                z_detector)
    need = (z_top - z_bot) / spacing  # inf or nan if a scale overflowed
    n = (max(fft_size(need), MIN_GRID_POINTS) if need <= max_points
         else need)
    if not n <= max_points:
        raise ConfigurationError(
            f"run needs {n:.6g} grid points, above max_points = {max_points}; "
            "reduce the drop height or pass a larger max_points")
    return make_grid(z_bot, z_top, n)


# --- the oracle suite --------------------------------------------------------
def random_cat(rng, z0_range=(-2.0, 2.0)) -> WavepacketSpec:
    """A valid random cat from `rng`, the draws of every seeded check."""
    z0 = rng.uniform(*z0_range)
    delta0 = rng.uniform(0.6, 1.6)
    delta = rng.uniform(0.3, 2.5) * delta0
    mods = rng.uniform(0.3, 1.0, size=2)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return WavepacketSpec.cat(
        z0, delta, delta0,
        mods[0] * np.exp(1j * phases[0]), mods[1] * np.exp(1j * phases[1]))


def _moment_gaps(spec: WavepacketSpec) -> float:
    half = spec.delta + 12.0 * spec.delta0 + abs(spec.z0)
    grid = make_grid(spec.z0 - half, spec.z0 + half, 4096)
    ana = analytic_moments(spec, _UNIT)
    num = numeric_moments(build_wavefunction(spec, grid), _UNIT)
    scales = {
        "mean_z": max(abs(ana.mean_z), spec.delta0),
        "mean_p": max(abs(ana.mean_p), _UNIT.hbar / spec.delta0),
        "var_z": ana.var_z,
        "var_p": ana.var_p,
        "cov_zp": max(abs(ana.cov_zp), _UNIT.hbar),
    }
    return max(abs(getattr(ana, f) - getattr(num, f)) / s
               for f, s in scales.items())


def check_grid_norm():
    grid = make_grid(-30.0, 30.0, 2048)
    worst = 0.0
    for spec in (WavepacketSpec.gaussian(0.0, 1.0),
                 WavepacketSpec.male_cat(0.0, 1.0, 1.0),
                 WavepacketSpec.yurke_stoler(1.0, 2.0, 0.8)):
        worst = max(worst, abs(norm(build_wavefunction(spec, grid)) - 1.0))
    return worst <= 1e-12, f"max |1 - norm| = {worst:.3e}"


def check_moments_agree():
    rng = np.random.default_rng(20260811)
    worst = max(_moment_gaps(random_cat(rng)) for _ in range(100))
    return worst <= 1e-8, f"max scaled moment gap = {worst:.3e} over 100 specs"


def check_epsilon_formulas():
    male = WavepacketSpec.male_cat(0.0, 1.0, 1.0)
    female = WavepacketSpec.female_cat(0.0, 1.0, 1.0)
    gauss = WavepacketSpec.gaussian(0.0, 1.0)
    ratio = (math.e - 1.0) / (math.e + 1.0)
    gaps = [
        abs(epsilon_factor(gauss, _UNIT) - 1.0),  # 0: var_p is the reference
        abs(epsilon_factor(male, _UNIT) - math.sqrt(ratio)),
        abs(epsilon_factor(female, _UNIT) - 1.0 / math.sqrt(ratio)),
    ]
    # independent route: momentum variance by quadrature
    grid = make_grid(-25.0, 25.0, 4096)
    var_p = numeric_moments(build_wavefunction(male, grid), _UNIT).var_p
    gaps.append(abs(math.sqrt(var_p / 0.5) - math.sqrt(ratio)))
    worst = max(gaps)
    return gaps[0] == 0.0 and worst <= 1e-14, f"max epsilon gap = {worst:.3e}"


def check_ehrenfest_closed_form():
    gauss = WavepacketSpec.gaussian(2.0, 1.0)
    worst = 0.0
    for ratio, expected in ((1.0, 2.0), (2.0, 2.0 * math.sqrt(2.0)), (4.0, 4.0)):
        params = LinearPotentialParams(MassPair(ratio, 1.0), 1.0, GRAVITY)
        worst = max(worst, abs(ehrenfest_tof(gauss, params, 0.0, _UNIT) - expected))
    return worst <= 1e-14, f"max |T - closed form| = {worst:.3e}"


def check_uniform_force_variance():
    m0 = analytic_moments(WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0), _UNIT)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        a = moment_evolution(m0, LinearPotentialParams(MassPair(1, 1), 1.0), t)
        b = moment_evolution(m0, LinearPotentialParams(MassPair(1, 1), 2.0), t)
        worst = max(worst, abs(a.var_z - b.var_z), abs(a.var_p - b.var_p),
                    abs(a.cov_zp - b.cov_zp))
    return worst == 0.0, f"second-moment shift across g values = {worst:.3e}"


def check_strang_order():
    spec = WavepacketSpec.gaussian(2.0, 1.0)
    params = LinearPotentialParams(MassPair(1, 1), 1.0, GRAVITY)
    grid = make_grid(-20.0, 20.0, 1024)
    out = refine_timestep(spec, params, 1.0, grid, _UNIT, dt0=1.0 / 512,
                          target_error=1e-8)
    ratios = out["ratios"]
    ok = bool(ratios) and all(3.5 <= r <= 4.5 for r in ratios) \
        and out["errors"][-1] <= 1e-8
    return ok, f"ratios = {[f'{r:.2f}' for r in ratios]}, final error = " \
               f"{out['errors'][-1]:.2e}"


def check_planned_grid_drops():
    # Strang splitting is exact up to a global phase in a linear potential.
    # The m = 32 Gaussian's field: 9.3e-14 on 1,728 points (5-smooth, not a
    # power of two), held to 1e-12. Its probe current and four random cats'
    # (m in [0.5, 16], z0 in [-2, 2] over a detector at 0): 1.3e-13 from
    # `arrival_current`, held to 1e-11. Their fields at t = 3: 8.9e-15 from
    # `closed_form_field`, held to 1e-12.
    rng = np.random.default_rng(20261019)
    runs, field_gap = [], 0.0
    for spec, mass in [(WavepacketSpec.gaussian(2.0, 1.0), 32.0)] + [
            (random_cat(rng), rng.uniform(0.5, 16.0)) for _ in range(4)]:
        params = LinearPotentialParams(MassPair(mass, mass), 1.0, GRAVITY)
        grid = plan_domain([(spec, params)], 0.0, 3.0, _UNIT)
        runs.append((spec, split_step_evolve(
            build_wavefunction(spec, grid), params, 3.0 / 512, 512,
            unit=_UNIT, probe_z=0.0)))
        field_gap = max(field_gap, float(np.max(np.abs(
            closed_form_field(spec, params, 3.0, grid.points, _UNIT)
            - exact_wavefunction(spec, params, 3.0, grid, _UNIT).amplitudes))))
    current_gap = max(float(np.max(np.abs(run.probe_current - arrival_current(
        spec, run.params, 0.0, run.times, _UNIT)))) for spec, run in runs)
    spec, run = runs[0]
    grid, psi = run.final_field.grid, run.final_field.amplitudes
    exact = exact_wavefunction(spec, run.params, 3.0, grid, _UNIT).amplitudes
    phase = np.exp(1j * np.angle(np.vdot(exact, psi)))
    gap = math.sqrt(np.sum(np.abs(psi - phase * exact) ** 2) * grid.spacing)
    n = grid.n_points
    peak = max(run.peak_edge_probability for _, run in runs)
    return (gap <= 1e-12 and current_gap <= 1e-11 and field_gap <= 1e-12
            and n & (n - 1) != 0), \
        f"{n} points, L2 gap {gap:.2e} after phase {np.angle(phase):.2e}; " \
        f"current gap {current_gap:.2e}, field gap {field_gap:.2e} over " \
        f"{len(runs)} drops; peak edge probability {peak:.2e}"


def check_ep_identity_quick():
    spec = WavepacketSpec.gaussian(2.0, 1.0)
    mass = MassPair(1.0, 1.0)
    grid = make_grid(-100.0, 25.0, 2048)
    field0 = build_wavefunction(spec, grid)
    runs = {}
    # the stronger control field falls faster, so it gets a shorter clock
    for label, mode, strength, t_final, steps in (
            ("gravity", GRAVITY, 1.0, 8.6, 2048),
            ("accel", ACCELERATED_FRAME, 1.0, 8.6, 2048),
            ("control", ACCELERATED_FRAME, 2.0, 5.2, 1024)):
        params = LinearPotentialParams(mass, strength, mode)
        res = split_step_evolve(field0, params, t_final / steps, steps,
                                unit=_UNIT, probe_z=0.0)
        runs[label] = current_tof_distribution(res, params, 0.0)
    l1_same, _ = distribution_distance(runs["gravity"], runs["accel"])
    l1_ctrl, _ = distribution_distance(runs["gravity"], runs["control"])
    ok = l1_same <= 1e-10 and l1_ctrl > 0.1
    return ok, f"identity L1 = {l1_same:.2e}, control L1 = {l1_ctrl:.3f}"


def check_preparation_matrix():
    rng = np.random.default_rng(42)
    checked = 0
    worst = 0.0
    while checked < 10:
        spec1 = random_cat(rng)
        mass1 = MassPair(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
        family = random_cat(rng)
        mass2 = MassPair(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
        v1 = analytic_moments(spec1, _UNIT).mean_p / mass1.m_inertial
        if abs(v1) > 0.95 * velocity_bound(family, mass2, _UNIT):
            continue
        spec2 = match_second_particle(spec1, mass1, family, mass2, _UNIT)
        report = check_matched(spec1, mass1, spec2, mass2, 1e-9, _UNIT)
        if not report:
            return False, "matched output failed check_matched at 1e-9"
        worst = max(worst, report.velocity_residual / report.velocity_scale,
                    report.position_residual / report.position_scale)
        checked += 1
    try:
        match_second_particle(
            WavepacketSpec.yurke_stoler(0.0, 1.0, 1.0), MassPair(1, 1),
            WavepacketSpec.gaussian(0.0, 1.0), MassPair(1, 1), _UNIT)
        return False, "infeasible Gaussian target was not rejected"
    except InfeasibleTargetError as exc:
        if exc.v_max != 0.0:
            return False, f"reported v_max {exc.v_max}, expected 0"
    return True, f"10 matches at 1e-9, worst residual {worst:.2e}"


def check_mixture_split():
    cat = WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)
    pure_p = analytic_moments(cat, _UNIT).mean_p
    mixed = mixture_moments(cat, _UNIT)
    ok = abs(pure_p) > 0.1 and mixed.mean_p == 0.0 \
        and abs(mixed.var_z - 1.5) <= 1e-12
    return ok, f"pure <p> = {pure_p:.4f}, mixture <p> = {mixed.mean_p}"


def check_norm_conservation():
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    grid = make_grid(-25.0, 25.0, 1024)
    params = LinearPotentialParams(MassPair(1, 1), 1.0, GRAVITY)
    res = split_step_evolve(build_wavefunction(spec, grid), params,
                            1e-4, 2000, unit=_UNIT, record_stride=100)
    drift = float(np.max(np.abs(res.norms - 1.0)))
    return drift <= 1e-12, f"max |1 - norm| = {drift:.3e} over 2000 steps, " \
        f"peak edge probability {res.peak_edge_probability:.2e}"


CHECKS = [
    ("grid norm quadrature", check_grid_norm),
    ("analytic vs numeric moments", check_moments_agree),
    ("epsilon factors", check_epsilon_formulas),
    ("ehrenfest closed forms", check_ehrenfest_closed_form),
    ("uniform-force variance", check_uniform_force_variance),
    ("strang order", check_strang_order),
    ("planned-grid drops vs closed forms", check_planned_grid_drops),
    ("ep identity (quick)", check_ep_identity_quick),
    ("preparation matching", check_preparation_matrix),
    ("mixture split", check_mixture_split),
    ("norm conservation", check_norm_conservation),
]


def run_all(printer=print) -> bool:
    """Run every oracle check, print one pass/fail line each."""
    all_ok = True
    width = max(len(name) for name, _ in CHECKS)
    for name, fn in CHECKS:
        ok, detail = fn()
        all_ok &= ok
        printer(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    return all_ok
