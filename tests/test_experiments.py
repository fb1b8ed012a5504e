import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfall import (
    ACCELERATED_FRAME,
    DEFAULT_CONFIG_TEXT,
    DEFAULT_UNITS,
    GRAVITY,
    STATE_FAMILIES,
    ConfigurationError,
    ExperimentConfig,
    ExperimentReport,
    LinearPotentialParams,
    MassPair,
    Particle,
    PreconditionError,
    SimulationError,
    SolverSettings,
    SweepSettings,
    TofDistribution,
    WavepacketSpec,
    analytic_moments,
    build_wavefunction,
    closed_form_field,
    current_tof_distribution,
    ehrenfest_tof,
    exact_wavefunction,
    fit_power_law,
    moment_evolution,
    parse_config_text,
    plan_domain,
    run_decoherence_comparison,
    run_equivalence_test,
    run_galileo_pair,
    run_mass_sweep,
    semiclassical_sigma_tof,
    split_step_evolve,
)
from qfall import evolve, experiments, tof, validate
from qfall.validate import probe_weights
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
    with pytest.raises(ConfigurationError,
                       match="above max_points = 2048; .* larger max_points"):
        plan_domain([(spec, params)], 0.0, 25.0, max_points=2048)


@pytest.mark.parametrize("t_final,error", [
    (-1.0, PreconditionError), (math.nan, PreconditionError),
    (1e200, ConfigurationError), (math.inf, ConfigurationError)])
def test_plan_domain_rejects_a_bad_run_length(t_final, error):
    params = LinearPotentialParams(MassPair(1, 1), 1.0, GRAVITY)
    with pytest.raises(error, match="t_final"):
        plan_domain([(WavepacketSpec.gaussian(2.0, 1.0), params)], 0.0, t_final)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(STATE_FAMILIES)), z0=st.floats(1.0, 4.0),
       delta0=st.floats(0.6, 1.6), separation=st.floats(0.3, 2.5),
       mass=st.floats(0.5, 16.0),
       mode=st.sampled_from((GRAVITY, ACCELERATED_FRAME)))
@example(kind="male", z0=2.0, delta0=1.0, separation=1.0, mass=1.0,
         mode=GRAVITY)
def test_plan_domain_edges_hold_the_planner_tolerance(kind, z0, delta0,
                                                      separation, mass, mode):
    """At 9 times of the drop's run, the closed-form field and the free
    intermediate (the field at field strength 0) are within `DOMAIN_TOL` at
    the planned grid's first and last points. The pinned default male cat
    held 7.2e-8 there on a grid planned with a 9 sigma_z pad."""
    spec = STATE_FAMILIES[kind](z0, separation * delta0, delta0)
    params = LinearPotentialParams(MassPair(mass, mass), 1.0, mode)
    t_cross, sigma = tof.crossing_spread(analytic_moments(spec), params, 0.0)
    t_final = t_cross + 1.08 * 8.0 * sigma
    grid = plan_domain([(spec, params)], 0.0, t_final, max_points=2**18)
    t, edges = np.linspace(0.0, t_final, 9)[:, None], grid.points[[0, -1]]
    for field_params in (params, replace(params, field_strength=0.0)):
        field = closed_form_field(spec, field_params, t, edges)
        assert np.max(np.abs(field)) <= validate.DOMAIN_TOL


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


# --- bookkeeping: one record per report, one write per manifest -----------------

@settings(max_examples=100, deadline=None)
@given(st.integers(16, 2**22).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, (n - 1) // 6))))
@example((2**16, 1))
@example((2**22, (2**22 - 1) // 6))
@example((16, 2))
@example((4096, 682))
def test_record_steps_are_the_strided_steps_and_the_last(n_stride):
    """Every allowed `time_steps`/`record_stride` pair records the same steps,
    of the same dtype, as the sorted union of the strided steps and the
    last step."""
    n, stride = n_stride
    SolverSettings(time_steps=n, record_stride=stride)  # an allowed pair
    steps = experiments._record_steps(n, stride)
    expected = np.unique(np.r_[0:n + 1:stride, n])
    assert steps.dtype == expected.dtype
    assert np.array_equal(steps, expected)


@pytest.mark.parametrize("runner", [run_galileo_pair, run_equivalence_test,
                                    run_mass_sweep,
                                    run_decoherence_comparison])
def test_report_carries_the_config_digest_and_record(runner):
    config = replace(parse_config_text(DEFAULT_CONFIG_TEXT), solver=FAST_SOLVER)
    report = runner(config)
    assert report.digest == config.digest()
    assert report.manifest["config"] == config.canonical_record()


def test_manifest_is_one_indented_sorted_json_text(tmp_path):
    """The manifest holds exactly the text `json.dump` would stream."""
    report = run_galileo_pair(replace(parse_config_text(DEFAULT_CONFIG_TEXT),
                                      solver=FAST_SOLVER))
    paths = report.write(tmp_path)
    payload = dict(report.manifest, experiment=report.experiment,
                   digest=report.digest, fits=report.fits,
                   summary=report.summary,
                   tables=[path.name for path in paths[:-1]])
    streamed = io.StringIO()
    json.dump(payload, streamed, indent=2, sort_keys=True)
    text = paths[-1].read_text()
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert text == streamed.getvalue() + "\n"


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

@pytest.mark.parametrize("runner,particles,capture_runs", [
    pytest.param(run_galileo_pair,
                 [gaussian_particle(), gaussian_particle(2.0, 2.0)],
                 ["particle1_gravity", "particle2_gravity"], id="galileo_pair"),
    pytest.param(run_decoherence_comparison,
                 [Particle(WavepacketSpec.male_cat(2.0, 1.0, 1.0), MassPair(1, 1))],
                 ["pure", "mixture"], id="decoherence_comparison"),
])
def test_manifest_warns_on_low_capture(monkeypatch, runner, particles,
                                       capture_runs):
    monkeypatch.setattr(tof, "CAPTURE_THRESHOLD", 2.0)  # no window meets it
    warnings = runner(config_for(particles)).manifest["warnings"]
    assert [w.split(":")[0] for w in warnings] == capture_runs
    assert all("captured" in w for w in warnings)


@pytest.fixture(scope="module")
def default_drop_runs():
    """(config, report, oracle runs) of the default drop. Each oracle run is
    the split-step solve of one drop on the domain `plan_domain` gives it,
    on the drop's clock and probe."""
    config = parse_config_text(DEFAULT_CONFIG_TEXT)
    report = run_galileo_pair(config)
    runs = []
    for particle, rec in zip(config.particles, report.records):
        params = LinearPotentialParams(particle.mass, config.field_strength)
        grid = plan_domain([(particle.spec, params)], config.z_detector,
                           rec["dt"] * config.solver.time_steps, config.unit)
        runs.append(split_step_evolve(
            build_wavefunction(particle.spec, grid), params, rec["dt"],
            config.solver.time_steps, probe_z=config.z_detector))
    return config, report, runs


def test_drop_density_is_the_current_distribution_of_its_run(default_drop_runs):
    # the closed-form current on the solver's record times: the same window
    # samples, and the density within roundoff of the split-step probe's
    config, report, runs = default_drop_runs
    assert len(runs) == 2
    for run, dist in zip(runs, report.distributions.values()):
        own = current_tof_distribution(run, run.params, config.z_detector,
                                       config.solver.window_sigmas)
        assert dist.times.tobytes() == own.times.tobytes()
        assert np.max(np.abs(dist.density - own.density)) <= 1e-11
        assert dist.mean_t == pytest.approx(own.mean_t, rel=1e-12, abs=0.0)
        assert dist.std_t == pytest.approx(own.std_t, rel=1e-12, abs=0.0)


def test_sampling_error_sits_beside_the_solver_tolerance(default_drop_runs):
    # tof_mean and tof_std of each density recomputed on every second sample
    # move by far less than the tolerance
    _, report, _ = default_drop_runs
    gaps = []
    for dist in report.distributions.values():
        t, density = dist.times[::2], dist.density[::2]
        density = density / np.trapezoid(density, t)
        mean = np.trapezoid(t * density, t)
        std = math.sqrt(np.trapezoid((t - mean) ** 2 * density, t))
        gaps.append((abs(mean - dist.mean_t), abs(std - dist.std_t)))
    summary = report.summary
    for key, gap in zip(("sampling_error_tof_mean", "sampling_error_tof_std"),
                        np.max(gaps, axis=0)):
        assert summary[key] == pytest.approx(gap, rel=1e-9, abs=0.0)
        assert 0.0 < summary[key] < 1e-3 * summary["solver_tolerance"]


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


def test_record_stride_must_leave_enough_record_times():
    # 4,096 steps record 8 times at a stride of 682 and 7 at 683
    SolverSettings(time_steps=4096, record_stride=682)
    with pytest.raises(ConfigurationError,
                       match=r"record_stride 683 .*682.* time_steps 4096"):
        SolverSettings(time_steps=4096, record_stride=683)


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


@pytest.mark.parametrize("exponent", range(16))
@pytest.mark.parametrize("key", ["time_steps", "record_stride", "max_points"])
def test_integer_key_magnitudes_run_or_raise_typed_errors(key, exponent,
                                                          tmp_path):
    """Any power of ten up to 1e15 of one integer key either runs an ep-test
    or raises one of the package's own errors. A time_steps above its cap is
    rejected, naming the key, when the config is parsed, so no run is sized
    from it. The removed `[grid] max_points` is ignored without --strict,
    so its snapshot run goes ahead whatever the value."""
    section = "grid" if key == "max_points" else "solver"
    snapshots = "snapshot_stride = 64\n" if key == "max_points" else ""
    text = short_default(f"[{section}]\n{key} = {10**exponent}\n"
                         f"[solver]\n{snapshots}[output]\ndir = {tmp_path}\n")
    if key == "time_steps" and 10**exponent > 2**22:
        with pytest.raises(ConfigurationError, match="time_steps"):
            parse_config_text(text)
        return
    if key == "record_stride" and 10**exponent > 10:  # 64 steps: 8 records
        with pytest.raises(ConfigurationError, match="record_stride"):
            parse_config_text(text)
        return
    try:
        run_equivalence_test(parse_config_text(text))
    except SimulationError:
        pass


# --- closed-form engine -----------------------------------------------------------

def test_each_drop_is_one_closed_form_call(monkeypatch):
    """Every drop is its own `arrival_current` call on the record times,
    and no experiment runs the split-step solver."""
    calls = []

    def counted(spec, params, z_d, times, unit):
        calls.append((params.mode, len(times)))
        return evolve.arrival_current(spec, params, z_d, times, unit)

    def solver(*args, **kwargs):
        pytest.fail("an experiment ran the split-step solver")

    monkeypatch.setattr(experiments, "arrival_current", counted)
    monkeypatch.setattr(validate, "split_step_evolve", solver)
    assert not hasattr(experiments, "split_step_evolve")
    cat = Particle(WavepacketSpec.male_cat(2.0, 1.0, 1.0), MassPair(1, 1))
    run_decoherence_comparison(config_for([cat]))
    run_equivalence_test(drop_pair(1.5))
    run_galileo_pair(replace(drop_pair(1.5), solver=SolverSettings(
        time_steps=1000, record_stride=3)))
    assert calls == [(GRAVITY, 1025)] * 3 + [
        (GRAVITY, 1025), (ACCELERATED_FRAME, 1025), (ACCELERATED_FRAME, 1025),
        (GRAVITY, 1025), (ACCELERATED_FRAME, 1025)] + [(GRAVITY, 335)] * 2


# The default config with m = 16 and every 8th step recorded.
HEAVY_STRIDED = (DEFAULT_CONFIG_TEXT
                 .replace("m_inertial = 1.0", "m_inertial = 16.0")
                 .replace("m_gravitational = 1.0", "m_gravitational = 16.0")
                 .replace("record_stride = 1", "record_stride = 8"))


@pytest.mark.parametrize("runner,text,expected", [
    pytest.param(run_galileo_pair, DEFAULT_CONFIG_TEXT, [
        ("particle1", 0.0020366590903944906, 2.024106298563379,
         0.7123447121347032),
        ("particle2", 0.002155888609854419, 2.089402734352393,
         0.8039874653223821)], id="drop"),
    pytest.param(run_equivalence_test, DEFAULT_CONFIG_TEXT, [
        ("particle1", 0.0020366590903944906, 2.024106298563379,
         0.7123447121347032),
        ("particle1", 0.0020366590903944906, 2.024106298563379,
         0.7123447121347032),
        ("control", 0.0013156871628814141, 1.4072868047499145,
         0.4521407022043732),
        ("particle2", 0.002155888609854419, 2.089402734352393,
         0.8039874653223821),
        ("particle2", 0.002155888609854419, 2.089402734352393,
         0.8039874653223821)], id="ep-test"),
    pytest.param(run_decoherence_comparison, DEFAULT_CONFIG_TEXT, [
        ("pure", 0.002209081724492087, 2.0241063143569997,
         0.7123446757166267),
        ("mixture", 0.002209081724492087, 2.08923411640953,
         0.9216697508287637)], id="decohere"),
    pytest.param(run_galileo_pair, HEAVY_STRIDED, [
        ("particle1", 0.0016602041692308652, 1.9537225619657246,
         0.5700902947468292),
        ("particle2", 0.0012398617304120296, 1.968060707029315,
         0.3755015890941734)], id="drop-m16-stride8"),
])
def test_each_run_keeps_its_clock(runner, text, expected):
    """Each drop runs on its own clock and decohere's three solves share
    one: the step and the density moments of every record are pinned."""
    report = runner(parse_config_text(text))
    assert [rec["label"] for rec in report.records] == [
        label for label, *_ in expected]
    for rec, (_, dt, mean, std) in zip(report.records, expected):
        assert rec["dt"] == pytest.approx(dt, rel=1e-15, abs=0.0)
        assert rec["tof_mean"] == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert rec["tof_std"] == pytest.approx(std, rel=1e-12, abs=0.0)


def drop_pair(mass):
    """A male cat and a Gaussian of one mass, both released at rest at z = 2."""
    return config_for([
        Particle(WavepacketSpec.male_cat(2.0, 1.0, 1.0), MassPair(mass, mass)),
        Particle(WavepacketSpec.gaussian(2.0, 1.0), MassPair(mass, mass))])


def test_snapshots_leave_the_records_unchanged(tmp_path):
    config = drop_pair(1.5)
    plain = run_equivalence_test(config)
    snapped = run_equivalence_test(replace(
        config, solver=SolverSettings(time_steps=1024, snapshot_stride=512),
        output_dir=str(tmp_path)))
    for a, b in zip(snapped.records, plain.records):
        a.pop("config_digest"), b.pop("config_digest")
        assert json.dumps(a) == json.dumps(b)  # bitwise, NaN included
    # steps 0, 512 and 1024 of each of the five runs, each on its own grid
    assert len(snapped.manifest["snapshots"]) == 5 * 3
    assert plain.manifest["runs"] == {}
    assert sorted(snapped.manifest["runs"]) == sorted(
        f"{rec['label']}_{rec['mode']}" for rec in snapped.records)


def read_snapshots(out, report, run):
    """The (t, z, psi) of each snapshot file that `report` lists for `run`
    under the output directory `out`, in order."""
    snapshots, stem = [], f"{report.experiment}_{report.digest}"
    for name in report.manifest["snapshots"]:
        if not name.startswith(f"snapshots/{stem}/{run}/"):
            continue
        if name.endswith(".npz"):
            with np.load(out / name) as saved:
                snapshots.append((float(saved["t"]), saved["z"], saved["psi"]))
        else:
            t, z, re, im = np.loadtxt(out / name, delimiter=",",
                                      skiprows=1).T
            assert np.all(t == t[0])
            snapshots.append((t[0], z, re + 1j * im))
    return snapshots


def assert_unit_norm_windows(snapshots, points):
    """Each window is uniform, holds its logged number of points and a
    rectangle-rule norm within 1e-10 of 1."""
    assert [len(z) for _, z, _ in snapshots] == points
    for _, z, psi in snapshots:
        dz = np.diff(z)
        assert np.allclose(dz, dz[0], rtol=1e-9, atol=0.0)
        assert abs(np.sum(np.abs(psi) ** 2) * dz[0] - 1.0) <= 1e-10


@pytest.mark.parametrize("fmt", ["csv", "npz"])
def test_snapshots_are_the_exact_fields(tmp_path, fmt):
    """Each listed snapshot holds `closed_form_field` on its own window at
    t = j K dt, with the stride K not rounded to the record stride: the
    packet's mean at t padded by 9 sigma_z(t) + delta + 8 delta0 on either
    side, at the `_spacing` of its momentum at t."""
    particle = gaussian_particle()
    solver = SolverSettings(time_steps=1024, record_stride=8,
                            snapshot_stride=300, snapshot_format=fmt)
    report = run_equivalence_test(config_for(
        [particle], accel_factor=0.0, solver=solver,
        output_dir=str(tmp_path)))
    params = LinearPotentialParams(particle.mass, 1.0)
    m0 = analytic_moments(particle.spec)
    snapshots = read_snapshots(tmp_path, report, "particle1_gravity")
    assert [t for t, _, _ in snapshots] == [
        step * report.records[0]["dt"] for step in (0, 300, 600, 900)]
    for t, z, psi in snapshots:
        m = moment_evolution(m0, params, t)
        spec = particle.spec
        pad = 9.0 * math.sqrt(m.var_z) + spec.delta + 8.0 * spec.delta0
        dz = experiments._spacing(spec, experiments._momentum_reach(m, 0.0),
                                  DEFAULT_UNITS)
        half = math.ceil(pad / dz)
        assert np.array_equal(z, m.mean_z + dz * np.arange(-half, half + 1))
        assert np.array_equal(psi, closed_form_field(particle.spec, params,
                                                     t, z))
    assert_unit_norm_windows(snapshots, report.manifest["runs"][
        "particle1_gravity"]["snapshot_points"])


def test_light_cat_snapshot_matches_the_converged_oracle(tmp_path):
    """The male cat (m_i = m_g = 0.7116, z0 = 2.890, delta = delta0 = 1)
    whose last snapshot (t = 9.473) the exact propagator once missed by
    3.4e-7 on a 1,440-point domain padded by 9 sigma_z: the written
    snapshot agrees to 1e-12 with that propagator on its planned domain,
    read at the window's points by band-limited interpolation."""
    particle = Particle(WavepacketSpec.male_cat(2.890, 1.0, 1.0),
                        MassPair(0.7116, 0.7116))
    report = run_equivalence_test(config_for(
        [particle], accel_factor=0.0,
        solver=SolverSettings(snapshot_stride=4096, snapshot_format="npz"),
        output_dir=str(tmp_path)))
    *_, (t, z, psi) = read_snapshots(tmp_path, report, "particle1_gravity")
    assert t == pytest.approx(9.473, abs=5e-4)
    params = LinearPotentialParams(particle.mass, 1.0)
    grid = plan_domain([(particle.spec, params)], 0.0, t)
    spectrum = np.fft.fft(exact_wavefunction(particle.spec, params, t,
                                             grid).amplitudes)
    oracle = np.array([probe_weights(grid, zj)[0] @ spectrum for zj in z])
    assert np.max(np.abs(psi - oracle)) <= 1e-12


@pytest.fixture(scope="module")
def sized_pairs(tmp_path_factory):
    """mass -> (output directory, report) of the light and heavy drop pairs
    with end-point snapshots."""
    pairs = {}
    for mass in (1.5, 16.0):
        out = tmp_path_factory.mktemp("sized")
        pairs[mass] = out, run_galileo_pair(replace(
            drop_pair(mass), output_dir=str(out),
            solver=SolverSettings(time_steps=1024, snapshot_stride=1024,
                                  snapshot_format="npz")))
    return pairs


def test_snapshot_runs_log_their_planned_grids(sized_pairs):
    # each run's window at release (the same for both masses) and at the end
    # of the run, which grows with the spread and, through its spacing,
    # with the momentum the drop acquires
    planned = {1.5: [[115, 745], [99, 919]],
               16.0: [[115, 3407], [99, 1999]]}
    for mass, (out, report) in sized_pairs.items():
        runs = report.manifest["runs"]
        assert sorted(runs) == ["particle1_gravity", "particle2_gravity"]
        assert [runs[f"particle{i}_gravity"]["snapshot_points"]
                for i in (1, 2)] == planned[mass]
        for name, run in runs.items():
            assert_unit_norm_windows(read_snapshots(out, report, name),
                                     run["snapshot_points"])


def test_experiments_plan_no_fft_grid(monkeypatch, tmp_path):
    """All four runners run, the three drop runners with snapshots, while
    the FFT and the grid planner refuse to be called."""

    def refuse(*args, **kwargs):
        pytest.fail("an experiment used an FFT grid")

    for owner, name in ((np.fft, "fft"), (np.fft, "ifft"),
                        (validate, "plan_domain")):
        monkeypatch.setattr(owner, name, refuse)
    cat = Particle(WavepacketSpec.male_cat(2.0, 1.0, 1.0), MassPair(1, 1))
    solver = SolverSettings(time_steps=1024, snapshot_stride=512)
    for runner, particles in ((run_galileo_pair, drop_pair(1.5).particles),
                              (run_equivalence_test, [cat]),
                              (run_decoherence_comparison, [cat]),
                              (run_mass_sweep, [cat])):
        out = tmp_path / runner.__name__
        report = runner(config_for(particles, solver=solver,
                                   output_dir=str(out)))
        assert len(report.manifest["snapshots"]) == 3 * len(
            report.manifest["runs"])
        assert (runner is run_mass_sweep) == (not report.manifest["runs"])


@pytest.mark.parametrize("mass", [256.0, 4096.0])
def test_heavy_drops_run_without_a_grid(tmp_path, mass):
    """No periodic grid holds these drops (86,400 and 1,382,400 points).
    They run without snapshots. With snapshots m = 256 runs in either
    format on windows of at most 52,639 points, and m = 4,096, whose windows
    need up to about 840,000, raises the window cap error, naming the run,
    before it writes a file."""
    text = DEFAULT_CONFIG_TEXT + "".join(
        f"\n[particle{i}]\nm_inertial = {mass}\nm_gravitational = {mass}\n"
        for i in (1, 2))
    config = replace(parse_config_text(text), output_dir=str(tmp_path))
    report = run_galileo_pair(config)
    for rec in report.records:
        assert rec["capture_fraction"] >= 0.999
        assert rec["t_mean_crossing"] == rec["t_ehrenfest"]
        assert math.isfinite(rec["tof_mean"]) and math.isfinite(rec["tof_std"])
    assert report.manifest["runs"] == {} and report.manifest["warnings"] == []
    if mass == 4096.0:
        with pytest.raises(ConfigurationError,
                           match="run particle1_gravity: .* above the cap "
                                 "65536"):
            run_galileo_pair(replace(config, solver=replace(
                config.solver, snapshot_stride=512)))
        assert not (tmp_path / "snapshots").exists()
        return
    for fmt, stride, count in (("npz", 512, 9), ("csv", 4096, 2)):
        out = tmp_path / fmt
        snapped = run_galileo_pair(replace(
            config, output_dir=str(out), solver=replace(
                config.solver, snapshot_stride=stride, snapshot_format=fmt)))
        assert snapped.records == [dict(rec, config_digest=snapped.digest)
                                   for rec in report.records]
        for name, run in snapped.manifest["runs"].items():
            assert max(run["snapshot_points"]) <= 52639
            snapshots = read_snapshots(out, snapped, name)
            assert len(snapshots) == count
            assert_unit_norm_windows(snapshots, run["snapshot_points"])


def test_a_mode_fault_still_fails_the_equivalence_test(monkeypatch, tmp_path):
    """Each drop is its own closed-form call: a wrong accelerated-frame
    coupling shows as a nonzero identity L1, a failing test and density
    tables of its own."""

    def coupling_mass(params):
        if params.mode == ACCELERATED_FRAME:
            return 1.000001 * params.mass.m_inertial
        return params.mass.m_gravitational

    monkeypatch.setattr(LinearPotentialParams, "coupling_mass",
                        property(coupling_mass))
    report = run_equivalence_test(drop_pair(1.5))
    assert report.summary["max_identity_l1"] > 1e-10
    assert report.summary["passed"] is False
    report.write(tmp_path)
    for idx in (1, 2):
        gravity, accelerated = (
            (tmp_path / f"ep_test_{report.digest}_particle{idx}_{mode}.csv")
            .read_bytes() for mode in ("gravity", "accelerated"))
        assert gravity != accelerated


# --- report writing ------------------------------------------------------------

def rendered_tables(patch) -> list[str]:
    """Patch `TofDistribution.to_csv` to log the name of each file it renders."""
    rendered, to_csv = [], TofDistribution.to_csv

    def logged(dist, path):
        rendered.append(path.name)
        to_csv(dist, path)

    patch.setattr(TofDistribution, "to_csv", logged)
    return rendered


@pytest.fixture(scope="module")
def default_ep_test(tmp_path_factory):
    """(report, written paths, rendered table names) of the default ep-test."""
    report = run_equivalence_test(parse_config_text(DEFAULT_CONFIG_TEXT))
    with pytest.MonkeyPatch.context() as patch:
        rendered = rendered_tables(patch)
        paths = report.write(tmp_path_factory.mktemp("ep_test"))
    return report, paths, rendered


def test_equal_densities_are_rendered_once(default_ep_test, tmp_path):
    """A particle's gravity and accelerated-frame densities are equal, so
    the second is a copy; each table holds its own density's bytes."""
    report, paths, rendered = default_ep_test
    stem = f"ep_test_{report.digest}"
    assert rendered == [f"{stem}_{label}.csv" for label in (
        "particle1_gravity", "control", "particle2_gravity")]
    tables = {path.stem[len(stem) + 1:]: path for path in paths[1:-1]}
    assert list(tables) == list(report.distributions)
    for label, dist in report.distributions.items():
        dist.to_csv(tmp_path / "own.csv")
        assert tables[label].read_bytes() == (tmp_path / "own.csv").read_bytes()


def test_written_paths_exist_and_are_listed(default_ep_test):
    _, paths, _ = default_ep_test
    assert all(path.is_file() for path in paths)
    manifest = json.loads(paths[-1].read_text())
    assert manifest["tables"] == [path.name for path in paths[:-1]]


def test_a_signed_zero_gets_its_own_table(monkeypatch, tmp_path):
    """0.0 and -0.0 compare equal but write different bytes, so two
    densities that differ only there are both rendered."""
    times = np.linspace(0.0, 1.0, 9)
    zero, signed = np.full(9, 1.0), np.full(9, 1.0)
    zero[0], signed[0] = 0.0, -0.0
    report = ExperimentReport("probe", "0" * 16, [], distributions={
        label: TofDistribution(times, density, 0.5, 0.25, (0.0, 1.0), 0.0)
        for label, density in (("zero", zero), ("signed", signed))})
    rendered = rendered_tables(monkeypatch)
    paths = report.write(tmp_path)
    assert rendered == ["probe_0000000000000000_zero.csv",
                        "probe_0000000000000000_signed.csv"]
    assert [path.read_text().splitlines()[1] for path in paths[1:3]] == [
        "0.0,0.0,0.0", "0.0,-0.0,0.0"]
