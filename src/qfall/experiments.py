"""Drop experiments: Galileo pairs, gravity-vs-acceleration, sweeps.

Each experiment takes an :class:`ExperimentConfig`, runs the estimators
of :mod:`qfall.tof` on the closed-form detector current of
:func:`qfall.evolve.arrival_current`, and returns an
:class:`ExperimentReport` whose records all carry the digest of the
config that produced them. Reports serialize to one CSV per table plus a
JSON manifest, with full round-trip float formatting so reruns of equal
configs produce byte-identical tables.
"""

from __future__ import annotations

import datetime
import json
import math
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

# CPython's builtin SHA-256, as the stdlib's `random` takes its sha512:
# `hashlib` would load OpenSSL (~3.5 MB resident) for one hash per report.
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from ._version import __version__
from .core import DEFAULT_UNITS, MassPair, UnitSystem, _check_scale
from .errors import ConfigurationError, PreconditionError
from .evolve import (
    ACCELERATED_FRAME,
    GRAVITY,
    SNAPSHOT_FORMATS,
    LinearPotentialParams,
    arrival_current,
    closed_form_field,
    dump_snapshots,
    moment_evolution,
)
from .prepare import check_matched, match_second_particle
from .states import (
    CAT,
    MomentSet,
    WavepacketSpec,
    analytic_moments,
    mixture_moments,
)
from .tof import (
    MIN_SAMPLES,
    WINDOW_SIGMAS,
    asymptotic_sigma_tof,
    _arrival_windows,
    crossing_spread,
    distribution_distance,
    distribution_from_current,
    ehrenfest_tof,
    epsilon_factor,
    semiclassical_sigma_tof,
)

__all__ = [
    "STATE_FAMILIES",
    "Particle",
    "SolverSettings",
    "SweepSettings",
    "ExperimentConfig",
    "ExperimentReport",
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


# The most points of one snapshot window.
MAX_SNAPSHOT_POINTS = 2**16


@dataclass(frozen=True)
class SolverSettings:
    time_steps: int = 4096
    record_stride: int = 1
    snapshot_stride: int = 0
    snapshot_format: str = "csv"
    window_sigmas: float = WINDOW_SIGMAS

    def __post_init__(self):
        # The current is sampled at every step: arrival_current peaks at
        # 176 B per sample, so the cap bounds one call near 740 MB.
        if not 16 <= self.time_steps <= 2**22:
            raise ConfigurationError(
                "time_steps must be between 16 and 4194304 (2^22)",
                key="time_steps")
        if self.record_stride < 1:
            raise ConfigurationError("record_stride must be >= 1",
                                     key="record_stride")
        # _record_steps records steps 0, record_stride, ... and the last step
        max_stride = (self.time_steps - 1) // (MIN_SAMPLES - 2)
        if self.record_stride > max_stride:
            raise ConfigurationError(
                f"record_stride {self.record_stride} is above {max_stride}, the "
                f"largest that records {MIN_SAMPLES} of time_steps "
                f"{self.time_steps}", key="record_stride")
        if self.snapshot_stride < 0:
            raise ConfigurationError("snapshot_stride must be >= 0",
                                     key="snapshot_stride")
        if self.snapshot_format not in SNAPSHOT_FORMATS:
            raise ConfigurationError(f"unknown snapshot format "
                                     f"{self.snapshot_format!r}",
                                     key="snapshot_format")
        _check_scale("window_sigmas", self.window_sigmas)


@dataclass(frozen=True)
class SweepSettings:
    m_g_values: tuple = (1.0, 2.0, 4.0, 8.0, 16.0)
    ratio_values: tuple = (1.0, 1.78, 3.16, 5.62, 10.0)
    state_kinds: tuple = ("gaussian", "male", "female", "yurke_stoler")

    def __post_init__(self):
        for kind in self.state_kinds:
            if kind not in STATE_FAMILIES:
                raise ConfigurationError(f"unknown sweep state kind '{kind}'",
                                         key="state_kinds")


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
    solver: SolverSettings = SolverSettings()
    sweep: SweepSettings = SweepSettings()
    auto_match: bool = False
    match_tol: float = 1e-6
    threads: int = 1
    output_dir: str = "out"

    def __post_init__(self):
        if not self.particles:
            raise ConfigurationError("at least one particle is required")
        _check_scale("field_strength", self.field_strength)

    def canonical_record(self) -> dict:
        """The config as plain data: the digest's input, the manifest's
        ``config``, and the key set and defaults `qfall.config` parses."""
        return {
            **{key: getattr(self, key) for key in _EXPERIMENT_KEYS},
            "units": {key: getattr(self.unit, key) for key in _UNIT_KEYS},
            "solver": asdict(self.solver),
            "sweep": asdict(self.sweep),
            "particles": [dict(p.spec.to_record(), **asdict(p.mass))
                          for p in self.particles],
        }

    def digest(self) -> str:
        return _digest(self.canonical_record())


def _digest(record: dict) -> str:
    """The digest of a config's canonical record."""
    text = json.dumps(record, sort_keys=True)
    return sha256(text.encode()).hexdigest()[:16]


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


def _momentum_reach(m: MomentSet, force_t: float) -> float:
    """The largest momentum a packet with moments `m` holds while a force
    adds -`force_t` to its mean: max(|<p>|, |<p> - F t|) + 6 sigma_p."""
    return (max(abs(m.mean_p), abs(m.mean_p - force_t))
            + 6.0 * math.sqrt(m.var_p))


def _spacing(spec: WavepacketSpec, p_reach: float, unit: UnitSystem) -> float:
    """The grid spacing for a packet of `_momentum_reach` `p_reach`: at most
    delta0 / 3 and pi hbar / (2.5 p_reach)."""
    return min(np.pi * unit.hbar / (2.5 * p_reach), spec.delta0 / 3.0)


def _record_steps(n: int, stride: int) -> np.ndarray:
    """The record steps of an `n`-step run: 0, `stride`, 2 `stride`, ... and
    the last step `n`."""
    steps = np.arange(0, n + 1, stride)
    return steps if steps[-1] == n else np.append(steps, n)


def _solve(entries, config: ExperimentConfig, manifest: dict) -> tuple:
    """`(dt, times, [(crossing, current)])` of the (name, spec, params)
    `entries` on one clock: each closed-form crossing (t_cross, sigma) and
    detector current at the record times k dt, for k = 0, `record_stride`,
    ... and the last step. The run lasts until the latest upper window edge,
    with slack. Each entry's snapshots are logged to `manifest`."""
    crossings = [crossing_spread(analytic_moments(spec, config.unit), params,
                                 config.z_detector) for _, spec, params in entries]
    dt = max(t + 1.08 * config.solver.window_sigmas * sigma
             for t, sigma in crossings) / config.solver.time_steps
    times = _record_steps(config.solver.time_steps,
                          config.solver.record_stride) * dt
    solved = []
    for (name, spec, params), crossing in zip(entries, crossings):
        _snapshots(name, spec, params, dt, config, manifest)
        solved.append((crossing, arrival_current(
            spec, params, config.z_detector, times, config.unit)))
    return dt, times, solved


def _density(name: str, times, current, crossings, config: ExperimentConfig,
             manifest: dict):
    """The arrival density of the detector `current` in the window spanned by
    `crossings`; a low capture is logged to `manifest` under `name`."""
    dist = distribution_from_current(times, current, *_arrival_windows(
        crossings, config.solver.window_sigmas))
    if dist.low_capture_warning:
        manifest["warnings"].append(
            f"{name}: the arrival window captured "
            f"{dist.capture_fraction:.6f} of the downward flux")
    return dist


def _drop(label: str, spec: WavepacketSpec, params: LinearPotentialParams,
          config: ExperimentConfig, manifest: dict):
    """Drop `spec` under `params` as run `<label>_<mode>` on its own clock,
    logged to `manifest`; returns the per-run record, stamped with the
    config's digest, and the arrival density."""
    name = f"{label}_{params.mode}"
    dt, times, [(crossing, current)] = _solve([(name, spec, params)], config,
                                              manifest)
    dist = _density(name, times, current, [crossing], config, manifest)
    mass = params.mass
    return {
        "label": label,
        "mode": params.mode,
        "m_inertial": mass.m_inertial,
        "m_gravitational": mass.m_gravitational,
        "state_kind": spec.kind,
        "theta": spec.theta,
        "t_ehrenfest": crossing[0],
        # the mean of a linear potential crosses at the Ehrenfest time exactly
        "t_mean_crossing": crossing[0],
        "sigma_full": crossing[1],
        "sigma_asymptotic": asymptotic_sigma_tof(spec, params, config.unit),
        "epsilon": epsilon_factor(spec, config.unit),
        "tof_mean": dist.mean_t,
        "tof_std": dist.std_t,
        "clipped_negativity": dist.clipped_negativity,
        "capture_fraction": dist.capture_fraction,
        "low_capture_warning": dist.low_capture_warning,
        "dt": dt,
        "config_digest": manifest["digest"],
    }, dist


def _sampling_errors(dists) -> dict:
    """The largest `TofDistribution.sampling_error` over `dists`."""
    mean, std = np.max([dist.sampling_error() for dist in dists], axis=0)
    return {"sampling_error_tof_mean": float(mean),
            "sampling_error_tof_std": float(std)}


def _snapshots(name: str, spec: WavepacketSpec, params: LinearPotentialParams,
               dt: float, config: ExperimentConfig, manifest: dict) -> None:
    """With snapshots, write the closed-form field of run `name` at every
    `snapshot_stride`-th step to
    <output_dir>/snapshots/<experiment>_<digest>/<name> and log it to
    `manifest`. Each snapshot is computed as it is written on its own window:
    the packet's mean at t padded by 9 sigma_z(t) + delta + 8 delta0 on
    either side, at the `_spacing` of its momentum at t. Every window is
    sized, and held to `MAX_SNAPSHOT_POINTS`, before the first file is
    written."""
    stride, n = config.solver.snapshot_stride, config.solver.time_steps
    if not stride:
        return
    unit = config.unit
    m0, windows = analytic_moments(spec, unit), []
    for t in [step * dt for step in range(0, n + 1, stride)]:
        m = moment_evolution(m0, params, t)
        pad = 9.0 * math.sqrt(m.var_z) + spec.delta + 8.0 * spec.delta0
        dz = _spacing(spec, _momentum_reach(m, 0.0), unit)
        with np.errstate(all="ignore"):  # inf or nan if a scale overflowed
            half = np.ceil(np.divide(pad, dz))
        if not 2 * half + 1 <= MAX_SNAPSHOT_POINTS:
            raise ConfigurationError(
                f"run {name}: the snapshot at t = {t:.6g} needs "
                f"{2 * half + 1:.6g} points, above the cap "
                f"{MAX_SNAPSHOT_POINTS}; reduce the mass or the height")
        windows.append((t, m.mean_z, dz, int(half)))
    manifest["runs"][name] = {
        "snapshot_points": [2 * half + 1 for *_, half in windows]}
    out = Path(config.output_dir)
    fields = ((t, z, closed_form_field(spec, params, t, z, unit))
              for t, z in ((t, centre + dz * np.arange(-half, half + 1))
                           for t, centre, dz, half in windows))
    stem = f"{manifest['experiment']}_{manifest['digest']}"
    paths = dump_snapshots(fields, out / "snapshots" / stem / name,
                           config.solver.snapshot_format)
    manifest["snapshots"] += [path.relative_to(out).as_posix()
                              for path in paths]


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

    def write(self, out_dir) -> list[Path]:
        """Write the record table, per-run arrival-time densities (CSV),
        and the manifest (JSON), all named `<experiment>_<digest>`."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{self.experiment}_{self.digest}"
        paths = [out / f"{stem}.csv"]
        columns = list(self.records[0].keys()) if self.records else []
        with open(paths[0], "w") as fh:
            fh.write(",".join(columns) + "\n")
            for rec in self.records:
                fh.write(",".join(_cell(rec.get(c)) for c in columns) + "\n")
        first = {}  # the bytes a density writes -> the file that holds them
        for label, dist in self.distributions.items():
            paths.append(out / f"{stem}_{label}.csv")
            key = (dist.times.tobytes(), dist.density.tobytes())
            if key in first:
                shutil.copyfile(first[key], paths[-1])
            else:
                dist.to_csv(paths[-1])
                first[key] = paths[-1]
        payload = dict(self.manifest, experiment=self.experiment,
                       digest=self.digest, fits=self.fits,
                       summary=self.summary,
                       tables=[path.name for path in paths])
        paths.append(out / f"{stem}.json")
        with open(paths[-1], "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return paths


def _cell(value) -> str:
    if isinstance(value, float):  # includes numpy scalars
        return repr(float(value))
    return "" if value is None else str(value)


def _provenance(experiment: str, config: ExperimentConfig) -> tuple:
    """(digest, manifest) of a run of `config`: the manifest starts with no
    warnings, runs or snapshots, and the experiment's drops log into it."""
    record = config.canonical_record()
    digest = _digest(record)
    return digest, {
        "experiment": experiment,
        "digest": digest,
        "config": record,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "threads": config.threads,
        "warnings": [],
        "runs": {},
        "snapshots": [],
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

    digest, manifest = _provenance("drop", config)
    records, distributions = [], {}
    for label, p in (("particle1", p1), ("particle2", p2)):
        rec, distributions[label] = _drop(label, p.spec, LinearPotentialParams(
            p.mass, config.field_strength), config, manifest)
        records.append(rec)

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
        **_sampling_errors(distributions.values()),
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
                            manifest=manifest, distributions=distributions)


def run_equivalence_test(config: ExperimentConfig) -> ExperimentReport:
    """Compare gravity against a uniformly accelerated frame with a = g.

    Both parameterizations build the same linear Hamiltonian when
    m_i = m_g, so the current-based arrival distributions must agree to
    roundoff; a deliberately mismatched control acceleration
    (accel_factor * g) must be clearly distinguishable.
    """
    for particle in config.particles:
        if particle.mass.m_inertial != particle.mass.m_gravitational:
            raise ConfigurationError(
                "equivalence test assumes m_inertial == m_gravitational")
    digest, manifest = _provenance("ep_test", config)
    records, identity_l1, control_l1, distributions = [], [], None, {}
    for idx, particle in enumerate(config.particles, start=1):
        label, spec, mass = f"particle{idx}", particle.spec, particle.mass
        # m_i = m_g gives both frames one float force, crossing and dt
        (rec_g, dist_g), (rec_a, dist_a) = (_drop(
            label, spec, LinearPotentialParams(mass, config.field_strength,
                                               mode), config, manifest)
            for mode in (GRAVITY, ACCELERATED_FRAME))
        l1, ks = distribution_distance(dist_g, dist_a)
        identity_l1.append(l1)
        distributions[f"{label}_gravity"] = dist_g
        distributions[f"{label}_accelerated"] = dist_a
        records += [dict(rec, identity_l1=l1, identity_ks=ks)
                    for rec in (rec_g, rec_a)]
        if idx == 1 and config.accel_factor > 0:
            rec_c, dist_c = _drop("control", spec, LinearPotentialParams(
                mass, config.accel_factor * config.field_strength,
                ACCELERATED_FRAME), config, manifest)
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
    return ExperimentReport("ep_test", digest, records, summary=summary,
                            manifest=manifest, distributions=distributions)


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
    digest, manifest = _provenance("sweep", config)
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
        rec["point_digest"] = sha256(
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
    return ExperimentReport(
        "sweep", digest, records, fits=fits, summary={"epsilons": epsilons},
        manifest=manifest)


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
    digest, manifest = _provenance("decohere", config)
    params = LinearPotentialParams(mass, config.field_strength)

    lo, hi = spec.peak_centers()
    wp = abs(spec.c_plus) ** 2 / (abs(spec.c_plus) ** 2 + abs(spec.c_minus) ** 2)
    wm = 1.0 - wp

    # One clock, so the branch currents superpose sample by sample.
    dt, times, [(cross, pure), (cross_p, plus), (cross_m, minus)] = _solve([
        ("pure", spec, params),
        ("branch_plus", WavepacketSpec.gaussian(lo, spec.delta0), params),
        ("branch_minus", WavepacketSpec.gaussian(hi, spec.delta0), params)],
        config, manifest)
    dist_pure = _density("pure", times, pure, [cross], config, manifest)
    dist_mixed = _density("mixture", times, wp * plus + wm * minus,
                          [cross_p, cross_m], config, manifest)

    pure_moments = analytic_moments(spec, unit)
    mixed_moments = mixture_moments(spec, unit)
    solver_tol = 2.0 * dt  # sampling steps of the pure and mixture densities
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
        **_sampling_errors((dist_pure, dist_mixed)),
        "means_differ":
            abs(dist_pure.mean_t - dist_mixed.mean_t) > 5.0 * solver_tol,
    }
    return ExperimentReport("decohere", digest, records, summary=summary,
                            manifest=manifest,
                            distributions={"pure": dist_pure,
                                           "mixture": dist_mixed})
