import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfall import (
    ACCELERATED_FRAME,
    DEFAULT_CONFIG_TEXT,
    GRAVITY,
    STATE_FAMILIES,
    BoundaryBreachError,
    ConfigurationError,
    ExperimentConfig,
    LinearPotentialParams,
    MassPair,
    Particle,
    PreconditionError,
    SimulationError,
    SolverSettings,
    SweepSettings,
    WavepacketSpec,
    analytic_moments,
    build_wavefunction,
    current_tof_distribution,
    ehrenfest_tof,
    exact_wavefunction,
    fit_power_law,
    make_grid,
    parse_config_text,
    plan_domain,
    run_decoherence_comparison,
    run_equivalence_test,
    run_galileo_pair,
    run_mass_sweep,
    semiclassical_sigma_tof,
    split_step_evolve,
    split_step_evolve_many,
)
from qfall import experiments, tof
from conftest import (EPS_RATIO, EXTREME_CONFIGS, largest_prime_factor,
                      short_default)

FAST_SOLVER = SolverSettings(time_steps=1024)


def config_for(particles, **kwargs):
    kwargs.setdefault("solver", FAST_SOLVER)
    return ExperimentConfig(particles=tuple(particles), **kwargs)


def gaussian_particle(mi=1.0, mg=1.0, z0=2.0):
    return Particle(WavepacketSpec.gaussian(z0, 1.0), MassPair(mi, mg))


# --- planning and fitting ------------------------------------------------------

def test_plan_domain_contains_drop():
    spec = WavepacketSpec.gaussian(2.0, 1.0)
    params = LinearPotentialParams(MassPair(1, 1), 1.0, GRAVITY)
    grid = plan_domain([(spec, params)], 0.0, 3.0)
    assert grid.z_min < -4.5  # fallen mean plus tails
    assert grid.z_max > 10.0  # release plus free-spreading margin
    assert grid.n_points <= 2**16


def test_plan_domain_respects_cap():
    spec = WavepacketSpec.gaussian(200.0, 1.0)
    params = LinearPotentialParams(MassPair(1, 1), 1.0, GRAVITY)
    with pytest.raises(ConfigurationError):
        plan_domain([(spec, params)], 0.0, 25.0, max_points=2048)


def is_fft_size(n):
    return n % 2 == 0 and largest_prime_factor(n) <= 5


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(STATE_FAMILIES)), z0=st.floats(1.0, 4.0),
       delta0=st.floats(0.6, 1.6), separation=st.floats(0.3, 2.5),
       mass=st.floats(0.5, 64.0), overshoot=st.floats(1.0, 1.6))
def test_plan_domain_picks_the_smallest_fft_size(kind, z0, delta0, separation,
                                                 mass, overshoot):
    spec = STATE_FAMILIES[kind](z0, separation * delta0, delta0)
    params = LinearPotentialParams(MassPair(mass, mass), 1.0, GRAVITY)
    t_final = overshoot * ehrenfest_tof(spec, params, 0.0)
    grid = plan_domain([(spec, params)], 0.0, t_final, max_points=2**18)
    # the planner's two spacing bounds (hbar = 1): Nyquist with margin 2.5
    # over the momentum reached, and a third of the peak width
    m0 = analytic_moments(spec)
    p_reach = max(abs(m0.mean_p), abs(m0.mean_p - params.force * t_final)) \
        + 6.0 * math.sqrt(m0.var_p)
    dz = min(math.pi / (2.5 * p_reach), delta0 / 3.0)
    need, n = grid.length / dz, grid.n_points
    assert grid.spacing <= dz * (1.0 + 1e-12)
    assert is_fft_size(n) and n >= 1024
    assert n <= max(1024, 2 ** math.ceil(math.log2(need)))
    assert not [size for size in range(max(1024, math.ceil(need)), n)
                if is_fft_size(size)]


def test_fit_power_law_exact():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    slope, stderr, intercept = fit_power_law(x, 3.0 * x**-1.5)
    assert math.isclose(slope, -1.5, rel_tol=1e-12)
    assert stderr <= 1e-12
    assert math.isclose(math.exp(intercept), 3.0, rel_tol=1e-10)


# --- galileo pair ---------------------------------------------------------------

@pytest.fixture(scope="module")
def equal_ratio_report():
    config = ExperimentConfig(
        particles=(gaussian_particle(1.0, 1.0), gaussian_particle(2.0, 2.0)),
        solver=FAST_SOLVER)
    return run_galileo_pair(config)


def test_equal_ratios_share_mean_tof(equal_ratio_report):
    report = equal_ratio_report
    assert report.summary["ehrenfest_tofs_coincide"]
    assert report.summary["delta_t_ehrenfest"] == 0.0
    # the recorded mean trajectories cross together too
    rec1, rec2 = report.records
    assert abs(rec1["t_mean_crossing"] - rec2["t_mean_crossing"]) <= 1e-10


def test_current_mean_keeps_mass_dependence(equal_ratio_report):
    # at fixed ratio the mean trajectory is universal, but the arrival
    # density's mean retains an hbar/m spreading correction: the heavier
    # particle arrives (slightly) more classically
    report = equal_ratio_report
    assert not report.summary["mean_tofs_coincide"]
    rec1, rec2 = report.records
    assert rec1["tof_mean"] > rec2["tof_mean"] > rec1["t_ehrenfest"]


def test_heavier_gravitational_mass_narrows_spread(equal_ratio_report):
    rec1, rec2 = equal_ratio_report.records
    assert math.isclose(rec1["sigma_asymptotic"], 2.0 * rec2["sigma_asymptotic"],
                        rel_tol=1e-12)
    assert rec2["tof_std"] < rec1["tof_std"]


def test_records_carry_digest(equal_ratio_report):
    digest = equal_ratio_report.digest
    assert all(rec["config_digest"] == digest
               for rec in equal_ratio_report.records)


def test_ratio_two_gives_sqrt_two_mean():
    config = ExperimentConfig(
        particles=(gaussian_particle(1.0, 1.0), gaussian_particle(2.0, 1.0)),
        solver=FAST_SOLVER)
    report = run_galileo_pair(config)
    t1 = report.records[0]["t_ehrenfest"]
    t2 = report.records[1]["t_ehrenfest"]
    assert math.isclose(t2 / t1, math.sqrt(2.0), rel_tol=1e-12)
    assert not report.summary["ehrenfest_tofs_coincide"]


def test_unmatched_pair_rejected_without_auto_match():
    moving = Particle(WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0),
                      MassPair(1, 1))
    config = config_for([moving, gaussian_particle()])
    with pytest.raises(ConfigurationError):
        run_galileo_pair(config)


def test_auto_match_regauges_second_particle():
    cat1 = Particle(WavepacketSpec.yurke_stoler(2.0, 1.0, 2.0), MassPair(1, 1))
    family = Particle(WavepacketSpec.male_cat(0.0, 1.0, 1.0), MassPair(1, 1))
    report = run_galileo_pair(config_for([cat1, family], auto_match=True,
                                         match_tol=1e-9))
    assert report.summary["matched"]
    assert report.records[1]["theta"] != 0.0


def test_galileo_needs_two_particles():
    with pytest.raises(ConfigurationError):
        run_galileo_pair(config_for([gaussian_particle()]))


def test_contrapositive_unequal_ratios_show_up():
    # deliberately violating pair: same state, ratios 1 vs 2
    config = ExperimentConfig(
        particles=(gaussian_particle(1.0, 1.0), gaussian_particle(2.0, 1.0)),
        solver=FAST_SOLVER)
    report = run_galileo_pair(config)
    assert not report.summary["ehrenfest_tofs_coincide"]
    assert abs(report.summary["delta_tof_mean"]) \
        > 25.0 * report.summary["solver_tolerance"]


# --- equivalence test -----------------------------------------------------------

def test_equivalence_identity_and_control():
    config = config_for([gaussian_particle()])
    report = run_equivalence_test(config)
    assert report.summary["max_identity_l1"] <= 1e-10
    assert report.summary["control_l1"] > 0.1
    assert report.summary["passed"]


def test_equivalence_requires_equal_masses():
    config = config_for([gaussian_particle(mi=1.0, mg=2.0)])
    with pytest.raises(ConfigurationError):
        run_equivalence_test(config)


# --- mass sweep ------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_report():
    config = ExperimentConfig(particles=(gaussian_particle(),), threads=2)
    return run_mass_sweep(config)


def test_sweep_slopes(sweep_report):
    fits = sweep_report.fits
    assert abs(fits["sigma_vs_mg"]["slope"] + 1.0) <= 0.01
    assert abs(fits["tof_vs_ratio"]["slope"] - 0.5) <= 0.01
    assert fits["sigma_vs_mg"]["stderr"] <= 0.01


def test_sweep_epsilons(sweep_report):
    eps = sweep_report.summary["epsilons"]
    assert eps["gaussian"] == 1.0
    assert abs(eps["male"] - math.sqrt(EPS_RATIO)) <= 1e-9
    assert abs(eps["female"] - 1.0 / math.sqrt(EPS_RATIO)) <= 1e-9


def test_sweep_rows_and_fits_ignore_keys_no_point_reads(sweep_report):
    """A config change that no sweep point reads (here `time_steps`) moves
    the digests only: rows keep the task order, the axes in turn and each
    in config value order, so the table and the fits are bit for bit the
    same."""
    config = ExperimentConfig(particles=(gaussian_particle(),), threads=2,
                              solver=SolverSettings(time_steps=4097))
    other = run_mass_sweep(config)
    assert other.digest != sweep_report.digest
    sweep = config.sweep
    assert [(rec["axis"], rec["x"]) for rec in other.records] == [
        *(("sigma_vs_mg", x) for x in sweep.m_g_values),
        *(("tof_vs_ratio", x) for x in sweep.ratio_values),
        *(("epsilon_vs_state", kind) for kind in sweep.state_kinds)]
    rows = [[(rec["axis"], rec["x"], rec["value"]) for rec in report.records]
            for report in (sweep_report, other)]
    assert rows[0] == rows[1]
    assert json.dumps(other.fits) == json.dumps(sweep_report.fits)
    digests = {rec["point_digest"] for rec in other.records}
    assert len(digests) == len(other.records)


def test_sweep_rejects_narrow_axes():
    config = ExperimentConfig(
        particles=(gaussian_particle(),),
        sweep=SweepSettings(m_g_values=(1.0, 2.0, 3.0, 4.0, 5.0)))
    with pytest.raises(ConfigurationError):
        run_mass_sweep(config)
    config = ExperimentConfig(
        particles=(gaussian_particle(),),
        sweep=SweepSettings(m_g_values=(1.0, 16.0)))
    with pytest.raises(ConfigurationError):
        run_mass_sweep(config)


def test_sweep_rejects_unknown_state_kind():
    with pytest.raises(ConfigurationError, match="unknown sweep state kind"):
        run_mass_sweep(ExperimentConfig(
            particles=(gaussian_particle(),),
            sweep=SweepSettings(state_kinds=("gausian",))))


def test_sweep_reproducible_to_the_byte(tmp_path):
    outputs = []
    for sub in ("a", "b"):
        config = ExperimentConfig(particles=(gaussian_particle(),))
        report = run_mass_sweep(config)
        paths = report.write(tmp_path / sub)
        outputs.append(paths[0].read_bytes())
    assert outputs[0] == outputs[1]


def test_report_manifest_contents(tmp_path):
    config = ExperimentConfig(particles=(gaussian_particle(),))
    report = run_mass_sweep(config)
    paths = report.write(tmp_path)
    manifest = json.loads(paths[-1].read_text())
    assert manifest["digest"] == report.digest
    assert manifest["config"]["particles"][0]["kind"] == "gaussian"
    assert manifest["tables"][0].endswith(".csv")
    assert "version" in manifest and "timestamp" in manifest


# --- decoherence comparison -------------------------------------------------------

@pytest.fixture(scope="module")
def ys_decoherence_report():
    cat = Particle(WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0), MassPair(1, 1))
    return run_decoherence_comparison(config_for([cat]))


def test_decoherence_momentum_split(ys_decoherence_report):
    pure, mixed = ys_decoherence_report.records
    assert abs(pure["initial_mean_p"]) > 0.1
    assert mixed["initial_mean_p"] == 0.0


def test_decoherence_means_differ(ys_decoherence_report):
    summary = ys_decoherence_report.summary
    assert summary["means_differ"]
    assert abs(summary["delta_tof_mean"]) > 5.0 * summary["solver_tolerance"]


def test_male_cat_split_keeps_mean_trajectory():
    cat = Particle(WavepacketSpec.male_cat(2.0, 1.0, 1.0), MassPair(1, 1))
    report = run_decoherence_comparison(config_for([cat]))
    pure, mixed = report.records
    assert pure["initial_mean_p"] == 0.0
    assert mixed["initial_mean_p"] == 0.0
    # spreads decompose differently: the mixture carries the branch-separation
    # variance while the pure state keeps the interference-narrowed var_p
    assert mixed["initial_var_z"] > pure["initial_var_z"]
    assert abs(report.summary["delta_tof_std"]) > 0.01


def test_mixture_mean_is_weighted_branch_mean():
    # branches at z0 = 5 and 7: both far above the detector, so each branch
    # delivers its full unit flux and the equal-weight average is exact
    cat = Particle(WavepacketSpec.male_cat(6.0, 1.0, 1.0), MassPair(1, 1))
    config = config_for([cat])
    report = run_decoherence_comparison(config)
    mixture_mean = report.records[1]["tof_mean"]
    # independent assembly: drop each branch alone and average the means
    params = LinearPotentialParams(MassPair(1, 1), 1.0, GRAVITY)
    means = []
    for z0 in (5.0, 7.0):
        spec = WavepacketSpec.gaussian(z0, 1.0)
        t_cross = ehrenfest_tof(spec, params, 0.0)
        sig, _ = semiclassical_sigma_tof(spec, params, 0.0)
        t_final = t_cross + 1.08 * 8.0 * sig
        grid = plan_domain([(spec, params)], 0.0, t_final)
        res = split_step_evolve(build_wavefunction(spec, grid), params,
                                t_final / 1024, 1024, probe_z=0.0)
        means.append(current_tof_distribution(res, params, 0.0).mean_t)
    assert abs(mixture_mean - 0.5 * (means[0] + means[1])) <= 1e-3


def test_decoherence_requires_cat():
    with pytest.raises(PreconditionError):
        run_decoherence_comparison(config_for([gaussian_particle()]))


# --- manifest warnings ------------------------------------------------------------

@pytest.mark.parametrize("runner,particles,norm_runs,capture_runs", [
    (run_galileo_pair, [gaussian_particle(), gaussian_particle(2.0, 2.0)],
     ["particle1_gravity", "particle2_gravity"],
     ["particle1_gravity", "particle2_gravity"]),
    (run_decoherence_comparison,
     [Particle(WavepacketSpec.male_cat(2.0, 1.0, 1.0), MassPair(1, 1))],
     ["pure", "branch_plus", "branch_minus"], ["pure", "mixture"]),
])
def test_manifest_warns_on_norm_drift_and_low_capture(
        monkeypatch, runner, particles, norm_runs, capture_runs):
    def drifting(*args, **kwargs):
        results = split_step_evolve_many(*args, **kwargs)
        for result in results:
            result.norms = result.norms + 2e-10
        return results

    monkeypatch.setattr(experiments, "split_step_evolve_many", drifting)
    monkeypatch.setattr(tof, "CAPTURE_THRESHOLD", 2.0)  # no window meets it
    warnings = runner(config_for(particles)).manifest["warnings"]
    drift = [w.split(":")[0] for w in warnings if "|1 - norm|" in w]
    capture = [w.split(":")[0] for w in warnings if "captured" in w]
    assert (drift, capture) == (norm_runs, capture_runs)
    assert len(warnings) == len(norm_runs) + len(capture_runs)


@pytest.fixture(scope="module")
def default_drop_runs():
    """(config, report, solver runs) of the default drop."""
    config = parse_config_text(DEFAULT_CONFIG_TEXT)
    runs = []

    def kept(*args, **kwargs):
        runs.extend(split_step_evolve_many(*args, **kwargs))
        return runs[-len(args[0]):]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "split_step_evolve_many", kept)
        return config, run_galileo_pair(config), runs


def test_drop_density_is_the_current_distribution_of_its_run(default_drop_runs):
    # the window comes from the planned crossing, not the run's numeric
    # moments, and selects the same samples
    config, report, runs = default_drop_runs
    assert len(runs) == 2
    for run, dist in zip(runs, report.distributions.values()):
        own = current_tof_distribution(run, run.params, config.z_detector,
                                       config.solver.window_sigmas)
        assert dist.times.tobytes() == own.times.tobytes()
        assert dist.density.tobytes() == own.density.tobytes()


def test_manifest_headroom_is_the_solver_headroom(default_drop_runs):
    _, report, runs = default_drop_runs
    logged = report.manifest["runs"]
    assert [logged[f"particle{i}_gravity"]["nyquist_headroom"]
            for i in (1, 2)] == [run.nyquist_headroom for run in runs]


def test_mixture_widens_to_the_branch_union(monkeypatch):
    # tall and heavy, so the 16-sigma union starts after release
    monkeypatch.setattr(tof, "CAPTURE_THRESHOLD", 2.0)  # no window meets it
    spec, mass = WavepacketSpec.male_cat(18.0, 1.0, 1.0), MassPair(4, 4)
    report = run_decoherence_comparison(config_for([Particle(spec, mass)]))
    params = LinearPotentialParams(mass, 1.0)
    crossings = [tof.crossing_spread(analytic_moments(WavepacketSpec.gaussian(
        center, 1.0)), params, 0.0) for center in spec.peak_centers()]
    t_end = report.records[0]["dt"] * FAST_SOLVER.time_steps
    start = min(t - 16.0 * sigma for t, sigma in crossings)
    assert start > 0.0
    assert report.distributions["mixture"].window == (
        start, min(t_end, max(t + 16.0 * sigma for t, sigma in crossings)))


def test_default_drop_has_no_warnings():
    report = run_galileo_pair(parse_config_text(DEFAULT_CONFIG_TEXT))
    assert report.manifest["warnings"] == []


# --- config digest ----------------------------------------------------------------

def test_digest_stability_and_sensitivity():
    a = ExperimentConfig(particles=(gaussian_particle(),))
    b = ExperimentConfig(particles=(gaussian_particle(),))
    c = ExperimentConfig(particles=(gaussian_particle(),), z_detector=0.5)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_config_requires_particles():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(particles=())


@pytest.mark.parametrize("key,value", [
    ("snapshot_stride", -3),
    ("window_sigmas", 0.0),
    ("window_sigmas", -1.0),
])
def test_solver_settings_reject_out_of_range(key, value):
    with pytest.raises(ConfigurationError, match=key):
        SolverSettings(**{key: value})


RUNNERS = {"drop": run_galileo_pair, "ep-test": run_equivalence_test}


@pytest.mark.parametrize("extra,command", EXTREME_CONFIGS)
def test_extreme_finite_values_raise_configuration_errors(extra, command):
    with pytest.raises(ConfigurationError):
        RUNNERS[command](parse_config_text(short_default(extra)))


# The float keys an ep-test reads; a [particle] key goes to particle1 or to
# both particles.
EP_TEST_FLOAT_KEYS = [
    ("units", "hbar"), ("units", "g"), ("solver", "window_sigmas"),
    *(("experiment", key) for key in ("field_strength", "accel_factor",
                                      "z_detector")),
    *(("particle", key) for key in (
        "z0", "delta", "delta0", "c_plus_re", "c_plus_im", "c_minus_re",
        "c_minus_im", "m_inertial", "m_gravitational")),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EP_TEST_FLOAT_KEYS), st.floats(-308.0, 308.0),
       st.sampled_from((1.0, -1.0)), st.booleans())
def test_one_key_magnitudes_run_or_raise_typed_errors(section_key, exponent,
                                                      sign, both):
    """Any finite magnitude of one key either runs an ep-test or raises one
    of the package's own errors, never a bare Python or numpy error."""
    section, key = section_key
    value = sign * 10.0 ** exponent
    sections = ([f"particle{i}" for i in (1, 2)[:1 + both]]
                if section == "particle" else [section])
    text = short_default("".join(f"[{name}]\n{key} = {value!r}\n"
                                 for name in sections))
    try:
        run_equivalence_test(parse_config_text(text))
    except SimulationError:
        pass


# --- solver loops -----------------------------------------------------------------

def loop_sizes(monkeypatch):
    """Record the rows of every solver loop an experiment runs."""
    sizes = []

    def counted(initials, *args, **kwargs):
        sizes.append([f.grid.n_points for f in initials])
        return split_step_evolve_many(initials, *args, **kwargs)

    monkeypatch.setattr(experiments, "split_step_evolve_many", counted)
    return sizes


def test_same_size_drops_share_one_loop(monkeypatch):
    sizes = loop_sizes(monkeypatch)
    cat = Particle(WavepacketSpec.male_cat(2.0, 1.0, 1.0), MassPair(1, 1))
    run_decoherence_comparison(config_for([cat]))
    run_equivalence_test(config_for([gaussian_particle()]))
    assert [len(rows) for rows in sizes] == [3, 2]
    assert all(len(set(rows)) == 1 for rows in sizes)


def drop_pair(mass):
    """A male cat and a Gaussian of one mass, both released at rest at z = 2."""
    return config_for([
        Particle(WavepacketSpec.male_cat(2.0, 1.0, 1.0), MassPair(mass, mass)),
        Particle(WavepacketSpec.gaussian(2.0, 1.0), MassPair(mass, mass))])


def test_runs_with_snapshots_share_loops(monkeypatch, tmp_path):
    sizes = loop_sizes(monkeypatch)
    config = drop_pair(1.5)
    plain = run_equivalence_test(config)
    snapped = run_equivalence_test(replace(
        config, solver=SolverSettings(time_steps=1024, snapshot_stride=512),
        output_dir=str(tmp_path)))
    assert sizes == [[1250, 1250, 1250]] * 2
    for a, b in zip(snapped.records, plain.records):
        a.pop("config_digest"), b.pop("config_digest")
        assert json.dumps(a) == json.dumps(b)  # bitwise, NaN included
    # steps 0, 512, 1024 of the three solves; each accelerated-frame run
    # shares its gravity run's solve and snapshots (`solved_with`)
    assert len(snapped.manifest["snapshots"]) == 3 * 3


@pytest.mark.parametrize("fmt", ["csv", "npz"])
def test_snapshots_are_the_exact_fields(monkeypatch, tmp_path, fmt):
    """Each listed snapshot holds `exact_wavefunction` on the solve grid at
    t = j K dt, with the stride K not rounded to the record stride."""
    planned = []

    def plan(*args, **kwargs):
        planned.append(plan_domain(*args, **kwargs))
        return planned[-1]

    monkeypatch.setattr(experiments, "plan_domain", plan)
    particle = gaussian_particle()
    solver = SolverSettings(time_steps=1024, record_stride=8,
                            snapshot_stride=300)
    report = run_equivalence_test(config_for(
        [particle], accel_factor=0.0, solver=solver, snapshot_format=fmt,
        output_dir=str(tmp_path)))
    [domain] = planned  # gravity and the accelerated frame share one domain
    grid = make_grid(domain.z_min, domain.z_max, report.manifest["runs"][
        "particle1_gravity"]["grid_points"])
    times = [step * report.records[0]["dt"] for step in (0, 300, 600, 900)]
    params = LinearPotentialParams(particle.mass, 1.0)
    exact = np.array([exact_wavefunction(particle.spec, params, t, grid)
                      .amplitudes for t in times])
    paths = [tmp_path / path for path in report.manifest["snapshots"]]
    if fmt == "npz":
        [path] = paths
        bundle = np.load(path)
        assert np.array_equal(bundle["times"], times)
        assert np.array_equal(bundle["z"], grid.points)
        assert np.array_equal(bundle["psi"], exact)
        return
    assert len(paths) == len(times)
    for path, t, psi in zip(paths, times, exact):
        t_col, z, re, im = np.loadtxt(path, delimiter=",", skiprows=1).T
        assert np.array_equal(t_col, np.full(grid.n_points, t))
        assert np.array_equal(z, grid.points)
        assert np.array_equal(re + 1j * im, psi)


@pytest.fixture(scope="module")
def sized_pairs():
    """mass -> (report, rows of each solver loop) for the light and heavy
    drop pairs on their planned grids."""
    pairs = {}
    with pytest.MonkeyPatch.context() as patch:
        for mass in (1.5, 16.0):
            sizes = loop_sizes(patch)
            pairs[mass] = (run_galileo_pair(drop_pair(mass)), sizes)
    return pairs


def test_drop_pairs_share_a_loop_within_the_size_factor(sized_pairs):
    # planned: cat 1,080 and Gaussian 1,250 points at m = 1.5 (1.16x apart);
    # cat 5,760 and Gaussian 2,880 at m = 16 (2x apart)
    assert sized_pairs[1.5][1] == [[1250, 1250]]
    assert sized_pairs[16.0][1] == [[5760], [2880]]
    for report, sizes in sized_pairs.values():
        solved = [n for rows in sizes for n in rows]
        assert [rec["grid_points"] for rec in report.records] == solved
        runs = report.manifest["runs"]
        assert [runs[f"particle{i}_gravity"]["grid_points"]
                for i in (1, 2)] == solved
        # the solver refuses a run below 2x headroom; a right-sized grid
        # keeps it under 4x
        assert all(2.0 <= run["nyquist_headroom"] < 4.0
                   for run in runs.values())


def test_default_drop_runs_one_loop(monkeypatch):
    # planned: cat 1,152 and Gaussian 1,800 points (1.5625x apart)
    sizes = loop_sizes(monkeypatch)
    run_galileo_pair(parse_config_text(DEFAULT_CONFIG_TEXT))
    assert sizes == [[1800, 1800]]


def test_equal_solver_inputs_are_solved_once(monkeypatch):
    sizes = loop_sizes(monkeypatch)
    config = drop_pair(1.5)  # cat and Gaussian, with the a = 2g control
    shared = run_equivalence_test(config)
    assert sizes == [[1250, 1250, 1250]]
    assert {name: run.get("solved_with")
            for name, run in shared.manifest["runs"].items()} == {
        "particle1_gravity": None,
        "particle1_accelerated_frame": "particle1_gravity",
        "control_accelerated_frame": None,
        "particle2_gravity": None,
        "particle2_accelerated_frame": "particle2_gravity"}
    monkeypatch.setattr(experiments, "_solver_inputs", lambda drop: drop.name)
    apart = run_equivalence_test(config)
    assert [len(rows) for rows in sizes[1:]] == [5]
    assert all("solved_with" not in run
               for run in apart.manifest["runs"].values())
    for a, b in ((shared.records, apart.records),
                 (shared.summary, apart.summary)):
        assert json.dumps(a) == json.dumps(b)  # bitwise, NaN included


def test_a_mode_fault_still_fails_the_equivalence_test(monkeypatch):
    """Runs are shared by solver inputs, never by mode: a wrong accelerated-
    frame coupling gives separate solves and a failing identity check."""
    sizes = loop_sizes(monkeypatch)

    def coupling_mass(params):
        if params.mode == ACCELERATED_FRAME:
            return 1.000001 * params.mass.m_inertial
        return params.mass.m_gravitational

    monkeypatch.setattr(LinearPotentialParams, "coupling_mass",
                        property(coupling_mass))
    report = run_equivalence_test(drop_pair(1.5))
    assert [len(rows) for rows in sizes] == [5]
    assert report.summary["max_identity_l1"] > 1e-10
    assert report.summary["passed"] is False
    assert all("solved_with" not in run
               for run in report.manifest["runs"].values())


@pytest.mark.parametrize("mass", [1.5, 16.0])
def test_right_sized_grid_keeps_the_physics(monkeypatch, sized_pairs, mass):
    right = sized_pairs[mass][0].records
    monkeypatch.setattr(experiments, "fft_size",
                        lambda need: 2 ** math.ceil(math.log2(need)))
    power_of_two = run_galileo_pair(drop_pair(mass)).records
    for a, b in zip(right, power_of_two):
        assert b["grid_points"] in (2048, 4096, 8192)
        assert a["grid_points"] < b["grid_points"]
        for key in ("tof_mean", "tof_std", "t_mean_crossing"):
            assert a[key] == pytest.approx(b[key], rel=1e-12, abs=0.0)


def test_boundary_breach_names_the_experiment_run(monkeypatch):
    monkeypatch.setattr(experiments, "plan_domain",
                        lambda *args, **kwargs: make_grid(-6.0, 12.0, 1024))
    with pytest.raises(BoundaryBreachError) as excinfo:
        run_equivalence_test(config_for([gaussian_particle()]))
    assert excinfo.value.run == "particle1_gravity"
    assert excinfo.value.step_index > 0
    assert "run particle1_gravity)" in str(excinfo.value)
