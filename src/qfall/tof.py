"""Time-of-flight estimators for the quantum drop.

Three estimators with increasing quantum content:

* `ehrenfest_tof` - the crossing time of the mean trajectory, the direct
  generalization of the classical fall time sqrt(2 (m_i/m_g) z0 / g);
* `semiclassical_sigma_tof` - the spread sigma_z(T)/|v_z(T)| (from
  `crossing_spread`, shared with the arrival window) and its
  spreading-dominated limit (sqrt(2)/2) eps hbar / (delta0 m_g g), where
  the state enters only through the factor eps = sigma_p / sigma_p(Gaussian);
* `distribution_from_current` - the operational arrival-time density
  built from samples of the probability current through the detector
  plane, such as the closed-form `evolve.arrival_current`. A quantum
  arrival time has no agreed-upon definition; the current-based density
  with negative-part clipping is a minimal choice, and the clipped
  backflow weight is reported rather than hidden.

Every estimator here works on closed forms or current samples; the ones
that read a split-step run live with the solver in :mod:`qfall.validate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_UNITS, UnitSystem
from .errors import (
    ConfigurationError,
    DegenerateCrossingError,
    NoCrossingError,
    PreconditionError,
)
from .evolve import LinearPotentialParams, moment_evolution
from .states import MomentSet, WavepacketSpec, analytic_moments

__all__ = [
    "TofDistribution",
    "ehrenfest_tof",
    "crossing_time_from_moments",
    "crossing_spread",
    "epsilon_factor",
    "asymptotic_sigma_tof",
    "semiclassical_sigma_tof",
    "distribution_from_current",
    "distribution_distance",
]

# Fewest current samples a density is built from, in the run and its window.
MIN_SAMPLES = 8
# Flux fraction the window must capture before the low-capture flag is set.
CAPTURE_THRESHOLD = 0.999
WINDOW_SIGMAS = 8.0
# One automatic widening of the window when the capture check fails.
EXTENDED_SIGMAS = 16.0


@dataclass(frozen=True)
class TofDistribution:
    """Normalized arrival-time density on a time window.

    `clipped_negativity` is the integrated positive (backflow) current
    removed by the clipping, in probability units; `capture_fraction` is
    the share of the run's total downward flux inside the window.
    """

    times: np.ndarray
    density: np.ndarray
    mean_t: float
    std_t: float
    window: tuple[float, float]
    clipped_negativity: float
    capture_fraction: float = 1.0
    low_capture_warning: bool = False

    def cumulative(self) -> np.ndarray:
        """CDF on `times` by trapezoid accumulation, 0 at the window start."""
        return _cumtrapz(self.density, self.times)

    def sampling_error(self) -> tuple[float, float]:
        """How far mean_t and std_t move when the density keeps only every
        second sample (renormalized): their measured sampling error."""
        times, density = self.times[::2], self.density[::2]
        mean, std = _density_mean_std(times,
                                      density / np.trapezoid(density, times))
        return abs(mean - self.mean_t), abs(std - self.std_t)

    def to_csv(self, path):
        cumulative = self.cumulative()
        with open(path, "w") as fh:
            fh.write("t,density,cumulative\n")
            for t, d, c in zip(self.times, self.density, cumulative):
                fh.write(f"{float(t)!r},{float(d)!r},{float(c)!r}\n")


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    if len(y) > 1:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _density_mean_std(times: np.ndarray, density: np.ndarray) -> tuple[float, float]:
    mean = float(np.trapezoid(times * density, times))
    var = float(np.trapezoid((times - mean) ** 2 * density, times))
    return mean, math.sqrt(max(var, 0.0))


def crossing_time_from_moments(m0: MomentSet, params: LinearPotentialParams,
                               z_detector: float) -> float:
    """Smallest positive root of mean_z(t) = z_detector.

    mean_z(t) = z + v t - g_eff t^2 / 2 is a quadratic; with no field the
    crossing is linear in the initial velocity. No positive root raises
    :class:`NoCrossingError`.
    """
    v0 = m0.mean_p / params.mass.m_inertial
    offset = m0.mean_z - z_detector
    g_eff = params.g_eff
    if g_eff == 0.0:
        if v0 == 0.0 or (t := -offset / v0) <= 0.0:
            raise NoCrossingError(
                "mean trajectory never reaches the detector (no field, "
                "velocity points away)")
        return t
    # -g_eff/2 t^2 + v0 t + offset = 0
    disc = v0**2 + 2.0 * g_eff * offset
    if disc < 0.0:
        raise NoCrossingError("mean trajectory never reaches the detector")
    roots = sorted(((v0 - math.sqrt(disc)) / g_eff,
                    (v0 + math.sqrt(disc)) / g_eff))
    for t in roots:
        if t > 0.0:
            return t
    raise NoCrossingError("both crossing roots are nonpositive")


def crossing_spread(m0: MomentSet, params: LinearPotentialParams,
                    z_detector: float) -> tuple[float, float]:
    """(t_cross, sigma): the mean crossing time of the moments `m0` and the
    fall-time spread sigma_z(t_cross) / |v_z(t_cross)| there, both from the
    exact moment propagation. A vanishing crossing velocity raises
    :class:`DegenerateCrossingError`.
    """
    t_cross = crossing_time_from_moments(m0, params, z_detector)
    m_final = moment_evolution(m0, params, t_cross)
    v_final = abs(m_final.mean_p) / params.mass.m_inertial
    if v_final == 0.0:
        raise DegenerateCrossingError("mean velocity vanishes at the crossing")
    return t_cross, math.sqrt(m_final.var_z) / v_final


def ehrenfest_tof(spec: WavepacketSpec, params: LinearPotentialParams,
                  z_detector: float,
                  unit: UnitSystem = DEFAULT_UNITS) -> float:
    """Mean-trajectory fall time from the state's analytic moments.

    For a state at rest this is sqrt(2 (m_i / m_g) (z0 - z_d) / g): only
    the mass ratio enters, which is what the drop experiments probe.
    """
    return crossing_time_from_moments(analytic_moments(spec, unit), params,
                                      z_detector)


def epsilon_factor(spec: WavepacketSpec,
                   unit: UnitSystem = DEFAULT_UNITS) -> float:
    """Momentum-spread ratio against the width-matched Gaussian.

    eps = sqrt(var_p / (hbar^2 / 2 delta0^2)); 1 for a Gaussian,
    [(e-1)/(e+1)]^{+1/2} for the even and [(e-1)/(e+1)]^{-1/2} for the
    odd cat at delta = delta0.
    """
    var_p = analytic_moments(spec, unit).var_p
    reference = unit.hbar**2 / (2.0 * spec.delta0**2)
    return math.sqrt(var_p / reference)


def asymptotic_sigma_tof(spec: WavepacketSpec, params: LinearPotentialParams,
                         unit: UnitSystem = DEFAULT_UNITS) -> float:
    """sigma_asymptotic of :func:`semiclassical_sigma_tof`."""
    eps = epsilon_factor(spec, unit)
    return (math.sqrt(2.0) / 2.0) * eps * unit.hbar / (
        spec.delta0 * params.coupling_mass * params.field_strength)


def semiclassical_sigma_tof(spec: WavepacketSpec,
                            params: LinearPotentialParams, z_detector: float,
                            unit: UnitSystem = DEFAULT_UNITS,
                            ) -> tuple[float, float]:
    """(sigma_full, sigma_asymptotic) spread estimates of the fall time.

    sigma_full = sigma_z(T) / |v_z(T)| is the `crossing_spread` of the
    state's analytic moments; sigma_asymptotic = (sqrt(2)/2) eps hbar /
    (delta0 * coupling_mass * field_strength) is its spreading-dominated
    limit and depends on the coupling (gravitational) mass alone, not the
    inertial one.
    """
    _, sigma_full = crossing_spread(analytic_moments(spec, unit), params,
                                    z_detector)
    return sigma_full, asymptotic_sigma_tof(spec, params, unit)


def distribution_from_current(times: np.ndarray, current: np.ndarray,
                              window: tuple[float, float],
                              extended_window: tuple[float, float] | None = None,
                              ) -> TofDistribution:
    """Build the arrival density from J(z_d, t) samples on a window.

    density(t) is the normalized negative part of the current (downward
    flux); the removed positive part is reported as clipped_negativity.
    If the window captures less than 99.9% of the run's downward flux it
    is widened once to `extended_window`; a residual shortfall sets the
    low-capture flag instead of failing.
    """
    times = np.asarray(times, dtype=float)
    current = np.asarray(current, dtype=float)
    if (times.ndim != 1 or times.shape != current.shape
            or len(times) < MIN_SAMPLES):
        raise PreconditionError("need matching 1-D time/current arrays with "
                                f"at least {MIN_SAMPLES} samples")
    t_end = times[-1]
    if window[1] > t_end * (1.0 + 1e-12):
        raise ConfigurationError(
            f"crossing window {window} escapes the simulated range "
            f"[0, {t_end}]; extend the run")
    downward = np.maximum(0.0, -current) + 0.0  # a zero current: 0.0, not -0.0

    def build(win):
        mask = (times >= win[0]) & (times <= win[1])
        if np.count_nonzero(mask) < MIN_SAMPLES:
            raise ConfigurationError(
                f"window {win} contains fewer than {MIN_SAMPLES} current "
                "samples")
        tw = times[mask]
        clipped = float(np.trapezoid(np.maximum(0.0, current[mask]), tw))
        return tw, downward[mask], clipped

    tw, flux, clipped = build(window)
    total_flux = float(np.trapezoid(downward, times))
    if total_flux <= 0.0:
        raise PreconditionError("no downward flux recorded at the detector")
    used, captured = window, float(np.trapezoid(flux, tw)) / total_flux
    if captured < CAPTURE_THRESHOLD and extended_window is not None:
        used = (max(0.0, extended_window[0]), min(t_end, extended_window[1]))
        tw, flux, clipped = build(used)
        captured = float(np.trapezoid(flux, tw)) / total_flux
    density = flux / float(np.trapezoid(flux, tw))
    mean_t, std_t = _density_mean_std(tw, density)
    return TofDistribution(
        times=tw, density=density, mean_t=mean_t, std_t=std_t,
        window=(float(used[0]), float(used[1])),
        clipped_negativity=clipped, capture_fraction=captured,
        low_capture_warning=captured < CAPTURE_THRESHOLD)


def _arrival_windows(crossings, window_sigmas: float) -> tuple:
    """(window, extended window) of an arrival density: the span of every
    (t_cross, sigma) crossing plus/minus ``window_sigmas`` spreads, and
    plus/minus ``EXTENDED_SIGMAS`` spreads, both clipped at t = 0."""
    def span(sigmas: float) -> tuple[float, float]:
        return (max(0.0, min(t - sigmas * s for t, s in crossings)),
                max(t + sigmas * s for t, s in crossings))
    return span(window_sigmas), span(EXTENDED_SIGMAS)


def distribution_distance(d1: TofDistribution, d2: TofDistribution,
                          ) -> tuple[float, float]:
    """(L1, Kolmogorov-Smirnov) distance between two arrival densities.

    Both densities are interpolated linearly (zero outside each window)
    onto the union of their sample times, which holds both piecewise-linear
    densities exactly. Disjoint windows are an error.
    """
    a1, b1 = d1.window
    a2, b2 = d2.window
    if min(b1, b2) <= max(a1, a2):
        raise PreconditionError(
            f"windows {d1.window} and {d2.window} do not overlap")
    # np.union1d's sort and dedupe, without the numpy.ma import it costs.
    grid = np.concatenate((d1.times, d2.times))
    grid.sort()
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    f1 = np.interp(grid, d1.times, d1.density, left=0.0, right=0.0)
    f2 = np.interp(grid, d2.times, d2.density, left=0.0, right=0.0)
    l1 = float(np.trapezoid(np.abs(f1 - f2), grid))
    ks = float(np.max(np.abs(_cumtrapz(f1, grid) - _cumtrapz(f2, grid))))
    return l1, ks
