"""Drop experiments: Galileo pairs, gravity-vs-acceleration, sweeps.

Each experiment takes an :class:`ExperimentConfig`, runs the estimators
of :mod:`qfall.tof` (closed-form and split-operator), and returns an
:class:`ExperimentReport` whose records all carry the digest of the
config that produced them. Reports serialize to one CSV per table plus a
JSON manifest, with full round-trip float formatting so reruns of equal
configs produce byte-identical tables.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .core import (DEFAULT_UNITS, MassPair, SpatialGrid, UnitSystem,
                   _check_scale, fft_size, make_grid)
from .errors import BoundaryBreachError, ConfigurationError, PreconditionError
from .evolve import (
    ACCELERATED_FRAME,
    GRAVITY,
    LinearPotentialParams,
    dump_snapshots,
    exact_wavefunction,
    moment_evolution,
    split_step_evolve_many,
)
from .prepare import check_matched, match_second_particle
from .states import (
    CAT,
    WavepacketSpec,
    analytic_moments,
    build_wavefunction,
    mixture_moments,
)
from .tof import (
    WINDOW_SIGMAS,
    asymptotic_sigma_tof,
    _arrival_windows,
    crossing_spread,
    distribution_distance,
    distribution_from_current,
    ehrenfest_tof,
    epsilon_factor,
    mean_crossing_time,
    semiclassical_sigma_tof,
)

__all__ = [
    "STATE_FAMILIES",
    "Particle",
    "GridSettings",
    "SolverSettings",
    "SweepSettings",
    "ExperimentConfig",
    "ExperimentReport",
    "plan_domain",
    "fit_power_law",
    "run_galileo_pair",
    "run_equivalence_test",
    "run_mass_sweep",
    "run_decoherence_comparison",
]

# Canonical initial states by name, used by sweeps and the config file.
STATE_FAMILIES = {
    "gaussian": lambda z0, delta, delta0: WavepacketSpec.gaussian(z0, delta0),
    "male": WavepacketSpec.male_cat,
    "female": WavepacketSpec.female_cat,
    "yurke_stoler": WavepacketSpec.yurke_stoler,
}


@dataclass(frozen=True)
class Particle:
    spec: WavepacketSpec
    mass: MassPair


@dataclass(frozen=True)
class GridSettings:
    """The cap on the size of a grid planned from the drop parameters."""

    max_points: int = 2**16


@dataclass(frozen=True)
class SolverSettings:
    time_steps: int = 4096
    record_stride: int = 1
    snapshot_stride: int = 0
    window_sigmas: float = WINDOW_SIGMAS

    def __post_init__(self):
        if self.time_steps < 16:
            raise ConfigurationError("time_steps must be at least 16")
        if self.record_stride < 1:
            raise ConfigurationError("record_stride must be >= 1")
        if self.snapshot_stride < 0:
            raise ConfigurationError("snapshot_stride must be >= 0")
        _check_scale("window_sigmas", self.window_sigmas)


@dataclass(frozen=True)
class SweepSettings:
    m_g_values: tuple = (1.0, 2.0, 4.0, 8.0, 16.0)
    ratio_values: tuple = (1.0, 1.78, 3.16, 5.62, 10.0)
    state_kinds: tuple = ("gaussian", "male", "female", "yurke_stoler")

    def __post_init__(self):
        for kind in self.state_kinds:
            if kind not in STATE_FAMILIES:
                raise ConfigurationError(f"unknown sweep state kind '{kind}'")


# The canonical record's [units] keys (the SI scale factors stay out) and its
# top-level [experiment] keys.
_UNIT_KEYS = ("hbar", "g")
_EXPERIMENT_KEYS = ("field_strength", "accel_factor", "z_detector",
                    "auto_match", "match_tol")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, hashable into a digest."""

    particles: tuple[Particle, ...]
    unit: UnitSystem = DEFAULT_UNITS
    field_strength: float = 1.0
    accel_factor: float = 2.0  # negative-control a = accel_factor * g; 0 = off
    z_detector: float = 0.0
    grid: GridSettings = GridSettings()
    solver: SolverSettings = SolverSettings()
    sweep: SweepSettings = SweepSettings()
    auto_match: bool = False
    match_tol: float = 1e-6
    threads: int = 1
    output_dir: str = "out"
    snapshot_format: str = "csv"

    def __post_init__(self):
        if not self.particles:
            raise ConfigurationError("at least one particle is required")
        _check_scale("field strength", self.field_strength)

    def canonical_record(self) -> dict:
        """The config as plain data: the digest's input, the manifest's
        ``config``, and the key set and defaults `qfall.config` parses."""
        return {
            **{key: getattr(self, key) for key in _EXPERIMENT_KEYS},
            "units": {key: getattr(self.unit, key) for key in _UNIT_KEYS},
            "grid": asdict(self.grid),
            "solver": asdict(self.solver),
            "sweep": asdict(self.sweep),
            "particles": [dict(p.spec.to_record(), **asdict(p.mass))
                          for p in self.particles],
        }

    def digest(self) -> str:
        text = json.dumps(self.canonical_record(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def fit_power_law(x, y) -> tuple[float, float, float]:
    """OLS fit of log y against log x: (slope, stderr_slope, intercept)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    n = len(lx)
    if n < 2:
        raise PreconditionError("power-law fit needs at least two points")
    dx = lx - lx.mean()
    sxx = float(np.sum(dx**2))
    slope = float(np.sum(dx * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    if n > 2:
        resid = ly - (intercept + slope * lx)
        stderr = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    else:
        stderr = 0.0
    return slope, stderr, intercept


def plan_domain(entries, z_detector: float, t_final: float,
                unit: UnitSystem = DEFAULT_UNITS, max_points: int = 2**16,
                nyquist_margin: float = 2.5) -> SpatialGrid:
    """Size the periodic domain for a set of (spec, params) drops.

    The grid must hold the fallen packet with its spread tails, the
    detector plane, and (for the exact propagator's intermediate) the
    packet spreading in place without falling. The spacing is set by the
    largest momentum acquired during the run with `nyquist_margin` to
    spare and by the peak-width resolution requirement; the size is the
    smallest `fft_size`, and at least 1,024, that meets them."""
    tops, bottoms, spacings = [], [], []
    for spec, params in entries:
        m0 = analytic_moments(spec, unit)
        v0 = m0.mean_p / params.mass.m_inertial
        sigma = max(math.sqrt(m0.var_z),
                    math.sqrt(moment_evolution(m0, params, t_final).var_z))
        pad = 9.0 * sigma + spec.delta + 8.0 * spec.delta0
        free_top = max(m0.mean_z, m0.mean_z + v0 * t_final)
        fall = [m0.mean_z,
                m0.mean_z + v0 * t_final - 0.5 * params.g_eff * t_final**2]
        if params.g_eff > 0 and 0 < v0 / params.g_eff < t_final:
            t_peak = v0 / params.g_eff
            fall.append(m0.mean_z + 0.5 * v0 * t_peak)
        tops.append(max(free_top, max(fall)) + pad)
        bottoms.append(min(min(fall), z_detector) - pad)
        p_reach = max(abs(m0.mean_p), abs(m0.mean_p - params.force * t_final)) \
            + 6.0 * math.sqrt(m0.var_p)
        spacings.append(min(np.pi * unit.hbar / (nyquist_margin * p_reach),
                            spec.delta0 / 3.0))
    z_top, z_bot = max(tops), min(bottoms)
    need = (z_top - z_bot) / min(spacings)  # inf or nan if a scale overflowed
    n = max(fft_size(need), 1024) if need <= max_points else need
    if not n <= max_points:
        raise ConfigurationError(
            f"run needs {n:.6g} grid points, above the cap {max_points}; "
            "reduce the drop height or coarsen the tolerance")
    return make_grid(z_bot, z_top, n)


# A planned split-operator drop: its run name and record label, state and
# parameters, closed-form crossing (t_cross, sigma), grid and time step.
_Drop = namedtuple("_Drop", "name label spec params crossing grid dt")


def _plan(entries, config: ExperimentConfig) -> list[_Drop]:
    """Plan (label, spec, params) drops named `<label>_<mode>` on one clock and
    one planned domain. Each crossing is taken once; the run lasts until the
    latest upper window edge, with slack."""
    crossings = [crossing_spread(analytic_moments(spec, config.unit), params,
                                 config.z_detector) for _, spec, params in entries]
    t_final = max(t + 1.08 * config.solver.window_sigmas * sigma
                  for t, sigma in crossings)
    grid = plan_domain([entry[1:] for entry in entries], config.z_detector,
                       t_final, config.unit, config.grid.max_points)
    return [_Drop(f"{label}_{params.mode}", label, spec, params, crossing, grid,
                  t_final / config.solver.time_steps)
            for (label, spec, params), crossing in zip(entries, crossings)]


# A drop runs on its own domain at the largest planned size of its experiment
# within this factor of its own, so near-equal drops share a solver loop: at
# 1,024 points (2-core Xeon) a second loop costs ~70 us a step, a row ~25 us.
# At 1.6 the default drop (1,152 and 1,800 points) is one loop: 0.59 s against
# 0.73 s as two loops (medians of 12 interleaved in-process runs).
SHARED_SIZE_FACTOR = 1.6


def _solver_inputs(drop: _Drop) -> tuple:
    """What the solver receives for `drop` besides the config's steps, probe
    and strides. Built from the inputs, never from the mode, so a fault in
    the mode -> force mapping shows as two solves and a nonzero identity L1."""
    return (drop.spec, drop.params.mass.m_inertial, drop.params.force,
            drop.grid, drop.dt)


def _solve(drops: list[_Drop], config: ExperimentConfig, log: _RunLog) -> list:
    """The `(drop, run)` pairs of `drops` with the detector probe, in order,
    each drop on the grid it was solved on, each run logged to `log`. Drops
    with equal `_solver_inputs` share the first one's run. Drops of one size,
    after the `SHARED_SIZE_FACTOR` rule, are the rows of one loop. Callers
    read only a run's `times`, `mean_z` and `probe_current`."""
    sizes, drops = {drop.grid.n_points for drop in drops}, list(drops)
    for i, drop in enumerate(drops):
        grid = drop.grid
        n = max(s for s in sizes if s <= SHARED_SIZE_FACTOR * grid.n_points)
        if n != grid.n_points:
            drops[i] = drop._replace(grid=make_grid(grid.z_min, grid.z_max, n))
    first: dict[tuple, int] = {}
    for i, drop in enumerate(drops):
        first.setdefault(_solver_inputs(drop), i)
    groups: dict[int, list[int]] = {}
    for i in first.values():
        groups.setdefault(drops[i].grid.n_points, []).append(i)
    results = {}
    for rows in groups.values():
        group = [drops[i] for i in rows]
        try:
            results.update(zip(rows, split_step_evolve_many(
                [build_wavefunction(d.spec, d.grid) for d in group],
                [d.params for d in group], [d.dt for d in group],
                config.solver.time_steps, unit=config.unit,
                probe_zs=[config.z_detector] * len(group),
                record_stride=config.solver.record_stride)))
        except BoundaryBreachError as err:
            raise BoundaryBreachError(err.message, err.step_index,
                                      group[err.run].name) from err
    pairs = []
    for drop in drops:
        i = first[_solver_inputs(drop)]
        log.solved(results[i], config, drop, drops[i].name)
        pairs.append((drop, results[i]))
    return pairs


def _drop_record(drop: _Drop, run, config: ExperimentConfig, log: _RunLog):
    """Log the arrival density of solved `drop` to `log`; returns the per-run
    record and the density."""
    dist = _arrival(run.times, run.probe_current, [drop], config)
    log.arrived(dist, drop.name)
    spec, mass = drop.spec, drop.params.mass
    return {
        "label": drop.label,
        "mode": drop.params.mode,
        "m_inertial": mass.m_inertial,
        "m_gravitational": mass.m_gravitational,
        "state_kind": spec.kind,
        "theta": spec.theta,
        "t_ehrenfest": drop.crossing[0],
        "t_mean_crossing": mean_crossing_time(run, config.z_detector),
        "sigma_full": drop.crossing[1],
        "sigma_asymptotic": asymptotic_sigma_tof(spec, drop.params,
                                                 config.unit),
        "epsilon": epsilon_factor(spec, config.unit),
        "tof_mean": dist.mean_t,
        "tof_std": dist.std_t,
        "clipped_negativity": dist.clipped_negativity,
        "capture_fraction": dist.capture_fraction,
        "low_capture_warning": dist.low_capture_warning,
        "dt": drop.dt,
        "grid_points": drop.grid.n_points,
        "config_digest": config.digest(),
    }, dist


def _arrival(times, current, drops: list[_Drop], config: ExperimentConfig):
    """The arrival density of the probe `current` in the window spanned by the
    planned crossings of `drops`."""
    return distribution_from_current(times, current, *_arrival_windows(
        [drop.crossing for drop in drops], config.solver.window_sigmas))


# The bound on a solver run's norm drift max |1 - norm| (acceptance
# criterion 7); the split-step solver is unitary, so a larger drift means
# the run cannot be trusted.
NORM_DRIFT_TOL = 1e-10


@dataclass
class _RunLog:
    """What an experiment's runs leave in its manifest: each solver run's
    grid size, Nyquist headroom and `solved_with`, its snapshots, warnings."""

    runs: dict[str, dict] = field(default_factory=dict)
    snapshots: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def solved(self, result, config: ExperimentConfig, drop: _Drop,
               first: str) -> None:
        """Log solver run `drop`, solved as run `first`: write the snapshots
        of a first run to <output_dir>/snapshots/<name>, and warn on the
        run's norm drift. A snapshot is the exact field on the solve grid
        at every `snapshot_stride`-th step, computed as it is written."""
        name, stride = drop.name, config.solver.snapshot_stride
        self.runs[name] = {"grid_points": result.final_field.grid.n_points,
                           "nyquist_headroom": result.nyquist_headroom}
        if first != name:
            self.runs[name]["solved_with"] = first
        elif stride:
            times = (step * drop.dt for step in
                     range(0, config.solver.time_steps + 1, stride))
            exact = ((t, exact_wavefunction(drop.spec, drop.params, t,
                                            drop.grid, config.unit))
                     for t in times)
            out = Path(config.output_dir)
            self.snapshots += [
                path.relative_to(out).as_posix() for path in dump_snapshots(
                    exact, out / "snapshots" / name, config.snapshot_format)]
        drift = float(np.max(np.abs(result.norms - 1.0)))
        if drift > NORM_DRIFT_TOL:
            self.warnings.append(f"{name}: max |1 - norm| = {drift:.3e} "
                                 f"exceeds {NORM_DRIFT_TOL:g}")

    def arrived(self, dist, name: str) -> None:
        """Warn when the arrival density `name` has its low-capture flag."""
        if dist.low_capture_warning:
            self.warnings.append(
                f"{name}: the arrival window captured "
                f"{dist.capture_fraction:.6f} of the downward flux")


@dataclass
class ExperimentReport:
    """Per-run records, fit results, and the reproducibility manifest."""

    experiment: str
    digest: str
    records: list[dict]
    fits: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)
    distributions: dict = field(default_factory=dict, repr=False)

    def table_name(self) -> str:
        return f"{self.experiment}_{self.digest}.csv"

    def manifest_name(self) -> str:
        return f"{self.experiment}_{self.digest}.json"

    def write(self, out_dir) -> list[Path]:
        """Write the record table, per-run arrival-time densities (CSV),
        and the manifest (JSON)."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / self.table_name()
        columns = list(self.records[0].keys()) if self.records else []
        with open(csv_path, "w") as fh:
            fh.write(",".join(columns) + "\n")
            for rec in self.records:
                fh.write(",".join(_cell(rec.get(c)) for c in columns) + "\n")
        paths = [csv_path]
        tables = [csv_path.name]
        for label, dist in self.distributions.items():
            dist_path = out / f"{self.experiment}_{self.digest}_{label}.csv"
            dist.to_csv(dist_path)
            paths.append(dist_path)
            tables.append(dist_path.name)
        manifest_path = out / self.manifest_name()
        payload = dict(self.manifest)
        payload.update({
            "experiment": self.experiment,
            "digest": self.digest,
            "fits": self.fits,
            "summary": self.summary,
            "tables": tables,
        })
        with open(manifest_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(manifest_path)
        return paths


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):  # includes numpy scalars
        return repr(float(value))
    if isinstance(value, int):
        return str(value)
    return str(value) if value is not None else ""


def _base_manifest(config: ExperimentConfig, log: _RunLog) -> dict:
    return {
        "config": config.canonical_record(),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "threads": config.threads,
        "warnings": log.warnings,
        "runs": log.runs,
        "snapshots": log.snapshots,
    }


def run_galileo_pair(config: ExperimentConfig) -> ExperimentReport:
    """Drop two prepared particles and compare their fall statistics.

    Requires exactly two particles whose preparations match (or an
    auto-match request, in which case the second particle's family is
    re-gauged to meet the first one's mean position and velocity). Flags
    whether the mean times of flight coincide, the operational test of a
    common inertial-to-gravitational mass ratio.
    """
    if len(config.particles) != 2:
        raise ConfigurationError("galileo drop needs exactly two particles")
    unit = config.unit
    p1, p2 = config.particles
    if config.auto_match:
        spec2 = match_second_particle(p1.spec, p1.mass, p2.spec, p2.mass, unit)
        p2 = Particle(spec2, p2.mass)
    match = check_matched(p1.spec, p1.mass, p2.spec, p2.mass,
                          config.match_tol, unit)
    if not match:
        raise ConfigurationError(
            "particles are not matched (position residual "
            f"{match.position_residual:.3e}, velocity residual "
            f"{match.velocity_residual:.3e}); enable auto_match or fix the "
            "preparation")

    digest = config.digest()
    drops = []
    for idx, p in enumerate((p1, p2), start=1):  # each on its own domain
        drops += _plan([(f"particle{idx}", p.spec, LinearPotentialParams(
            p.mass, config.field_strength))], config)
    records, distributions, log = [], {}, _RunLog()
    for drop, run in _solve(drops, config, log):
        rec, dist = _drop_record(drop, run, config, log)
        records.append(rec)
        distributions[drop.label] = dist

    solver_tol = records[0]["dt"] + records[1]["dt"]
    l1, ks = distribution_distance(*distributions.values())
    summary = {
        "matched": bool(match),
        "position_residual": match.position_residual,
        "velocity_residual": match.velocity_residual,
        "delta_t_ehrenfest": records[1]["t_ehrenfest"] - records[0]["t_ehrenfest"],
        "delta_tof_mean": records[1]["tof_mean"] - records[0]["tof_mean"],
        "delta_tof_std": records[1]["tof_std"] - records[0]["tof_std"],
        "solver_tolerance": solver_tol,
        # equal mass ratios force equal mean trajectories; the current-based
        # means keep mass- and state-dependent quantum corrections on top
        "ehrenfest_tofs_coincide":
            abs(records[1]["t_ehrenfest"] - records[0]["t_ehrenfest"])
            <= 5.0 * solver_tol,
        "mean_tofs_coincide":
            abs(records[1]["tof_mean"] - records[0]["tof_mean"])
            <= 5.0 * solver_tol,
        "ratio_1": p1.mass.ratio,
        "ratio_2": p2.mass.ratio,
        "l1_distance": l1,
        "ks_distance": ks,
    }
    return ExperimentReport("drop", digest, records, summary=summary,
                            manifest=_base_manifest(config, log),
                            distributions=distributions)


def run_equivalence_test(config: ExperimentConfig) -> ExperimentReport:
    """Compare gravity against a uniformly accelerated frame with a = g.

    Both parameterizations build the same linear Hamiltonian when
    m_i = m_g, so the current-based arrival distributions must agree to
    solver roundoff; a deliberately mismatched control acceleration
    (accel_factor * g) must be clearly distinguishable.
    """
    for particle in config.particles:
        if particle.mass.m_inertial != particle.mass.m_gravitational:
            raise ConfigurationError(
                "equivalence test assumes m_inertial == m_gravitational")
    drops = []
    for idx, particle in enumerate(config.particles, start=1):
        label, spec, mass = f"particle{idx}", particle.spec, particle.mass
        drops += _plan([(label, spec, LinearPotentialParams(
            mass, config.field_strength, mode))
            for mode in (GRAVITY, ACCELERATED_FRAME)], config)
        if idx == 1 and config.accel_factor > 0:
            drops += _plan([("control", spec, LinearPotentialParams(
                mass, config.accel_factor * config.field_strength,
                ACCELERATED_FRAME))], config)
    log = _RunLog()
    built = iter([_drop_record(drop, run, config, log)
                  for drop, run in _solve(drops, config, log)])
    records, identity_l1, control_l1, distributions = [], [], None, {}
    for idx in range(1, len(config.particles) + 1):
        (rec_g, dist_g), (rec_a, dist_a) = next(built), next(built)
        l1, ks = distribution_distance(dist_g, dist_a)
        identity_l1.append(l1)
        distributions[f"particle{idx}_gravity"] = dist_g
        distributions[f"particle{idx}_accelerated"] = dist_a
        records += [dict(rec, identity_l1=l1, identity_ks=ks)
                    for rec in (rec_g, rec_a)]
        if idx == 1 and config.accel_factor > 0:
            rec_c, dist_c = next(built)
            control_l1, _ = distribution_distance(dist_g, dist_c)
            records.append(dict(rec_c, identity_l1=control_l1,
                                identity_ks=float("nan")))
            distributions["control"] = dist_c

    passed = max(identity_l1) <= 1e-10 and (
        config.accel_factor <= 0 or control_l1 > 0.1)
    summary = {
        "max_identity_l1": max(identity_l1),
        "control_l1": control_l1,
        "passed": passed,
    }
    return ExperimentReport("ep_test", config.digest(), records,
                            summary=summary,
                            manifest=_base_manifest(config, log),
                            distributions=distributions)


def run_mass_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Closed-form scaling sweeps with log-log power-law fits.

    Sweeps sigma_asymptotic over the gravitational mass (expected slope
    -1), the mean fall time over the mass ratio (expected slope +1/2),
    and the epsilon factor over the state kinds. Points run on a bounded
    worker pool; records keep the task order (the axes in turn, each in
    config value order), so the table and fits depend on the sweep inputs
    alone.
    """
    sweep = config.sweep
    for name, values in (("m_g_values", sweep.m_g_values),
                         ("ratio_values", sweep.ratio_values)):
        if len(values) < 5:
            raise ConfigurationError(f"{name} needs at least 5 points")
        if max(values) / min(values) < 10.0 - 1e-9:
            raise ConfigurationError(f"{name} must span at least one decade")
    unit = config.unit
    digest = config.digest()
    base = config.particles[0]
    spec = base.spec

    def sigma_point(m_g: float) -> dict:
        mass = MassPair(base.mass.m_inertial, m_g)
        params = LinearPotentialParams(mass, config.field_strength)
        _, sigma_asym = semiclassical_sigma_tof(spec, params,
                                                config.z_detector, unit)
        return {"axis": "sigma_vs_mg", "x": m_g, "value": sigma_asym}

    def ratio_point(ratio: float) -> dict:
        mass = MassPair(ratio, 1.0)
        params = LinearPotentialParams(mass, config.field_strength)
        t_fall = ehrenfest_tof(spec, params, config.z_detector, unit)
        return {"axis": "tof_vs_ratio", "x": ratio, "value": t_fall}

    def epsilon_point(kind: str) -> dict:
        state = STATE_FAMILIES[kind](spec.z0, spec.delta0, spec.delta0)
        return {"axis": "epsilon_vs_state", "x": kind,
                "value": epsilon_factor(state, unit)}

    tasks = ([(sigma_point, v) for v in sweep.m_g_values]
             + [(ratio_point, v) for v in sweep.ratio_values]
             + [(epsilon_point, k) for k in sweep.state_kinds])
    with ThreadPoolExecutor(max_workers=max(1, config.threads)) as pool:
        records = list(pool.map(lambda fv: fv[0](fv[1]), tasks))
    for rec in records:
        rec["config_digest"] = digest
        point_text = json.dumps({k: rec[k] for k in ("axis", "x")},
                                sort_keys=True, default=str)
        rec["point_digest"] = hashlib.sha256(
            (digest + point_text).encode()).hexdigest()[:16]

    sigma_recs = [r for r in records if r["axis"] == "sigma_vs_mg"]
    ratio_recs = [r for r in records if r["axis"] == "tof_vs_ratio"]
    s_slope, s_err, _ = fit_power_law([r["x"] for r in sigma_recs],
                                      [r["value"] for r in sigma_recs])
    t_slope, t_err, _ = fit_power_law([r["x"] for r in ratio_recs],
                                      [r["value"] for r in ratio_recs])
    fits = {
        "sigma_vs_mg": {"slope": s_slope, "stderr": s_err, "expected": -1.0},
        "tof_vs_ratio": {"slope": t_slope, "stderr": t_err, "expected": 0.5},
    }
    epsilons = {r["x"]: r["value"] for r in records
                if r["axis"] == "epsilon_vs_state"}
    return ExperimentReport("sweep", digest, records, fits=fits,
                            summary={"epsilons": epsilons},
                            manifest=_base_manifest(config, _RunLog()))


def run_decoherence_comparison(config: ExperimentConfig) -> ExperimentReport:
    """Pure cat versus its decohered diagonal mixture, side by side.

    The mixture is realized as two independent single-peak drops combined
    with the branch weights |c+-|^2: exact for a diagonal mixture under
    unitary evolution, and far cheaper than density-matrix propagation.
    """
    unit = config.unit
    particle = config.particles[0]
    spec, mass = particle.spec, particle.mass
    if spec.kind != CAT:
        raise PreconditionError("decoherence comparison needs a cat state")
    digest = config.digest()
    params = LinearPotentialParams(mass, config.field_strength)

    lo, hi = spec.peak_centers()
    wp = abs(spec.c_plus) ** 2 / (abs(spec.c_plus) ** 2 + abs(spec.c_minus) ** 2)
    wm = 1.0 - wp

    # Shared clock and domain so branch currents superpose sample by sample.
    drops = [drop._replace(name=drop.label) for drop in _plan([
        ("pure", spec, params),
        ("branch_plus", WavepacketSpec.gaussian(lo, spec.delta0), params),
        ("branch_minus", WavepacketSpec.gaussian(hi, spec.delta0), params)],
        config)]
    dt = drops[0].dt
    log = _RunLog()
    (_, pure), (_, plus), (_, minus) = _solve(drops, config, log)

    dist_pure = _arrival(pure.times, pure.probe_current, drops[:1], config)
    mixed_current = wp * plus.probe_current + wm * minus.probe_current
    dist_mixed = _arrival(plus.times, mixed_current, drops[1:], config)
    log.arrived(dist_pure, "pure")
    log.arrived(dist_mixed, "mixture")

    pure_moments = analytic_moments(spec, unit)
    mixed_moments = mixture_moments(spec, unit)
    solver_tol = 2.0 * dt  # pure run plus mixture run
    records = []
    for label, dist, mom in (("pure", dist_pure, pure_moments),
                             ("mixture", dist_mixed, mixed_moments)):
        records.append({
            "label": label,
            "initial_mean_p": mom.mean_p,
            "initial_var_z": mom.var_z,
            "initial_var_p": mom.var_p,
            "tof_mean": dist.mean_t,
            "tof_std": dist.std_t,
            "clipped_negativity": dist.clipped_negativity,
            "capture_fraction": dist.capture_fraction,
            "dt": dt,
            "config_digest": digest,
        })
    summary = {
        "branch_weight_plus": wp,
        "branch_weight_minus": wm,
        "delta_tof_mean": dist_pure.mean_t - dist_mixed.mean_t,
        "delta_tof_std": dist_pure.std_t - dist_mixed.std_t,
        "solver_tolerance": solver_tol,
        "means_differ":
            abs(dist_pure.mean_t - dist_mixed.mean_t) > 5.0 * solver_tol,
    }
    return ExperimentReport("decohere", digest, records, summary=summary,
                            manifest=_base_manifest(config, log),
                            distributions={"pure": dist_pure,
                                           "mixture": dist_mixed})
