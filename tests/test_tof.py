import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfall import (
    GRAVITY,
    ConfigurationError,
    LinearPotentialParams,
    MassPair,
    NoCrossingError,
    PreconditionError,
    TofDistribution,
    WavepacketSpec,
    analytic_moments,
    build_wavefunction,
    crossing_spread,
    crossing_time_from_moments,
    current_tof_distribution,
    distribution_distance,
    distribution_from_current,
    ehrenfest_tof,
    epsilon_factor,
    mean_crossing_time,
    plan_domain,
    semiclassical_sigma_tof,
    split_step_evolve,
)
from conftest import EPS_RATIO, random_cat


def params_g(mi=1.0, mg=1.0, g=1.0):
    return LinearPotentialParams(MassPair(mi, mg), g, GRAVITY)


def falling_run(spec, params, extra_sigmas=8.0, steps=2048):
    """Split-operator drop with a detector probe at z = 0."""
    t_cross = ehrenfest_tof(spec, params, 0.0)
    sigma_full, _ = semiclassical_sigma_tof(spec, params, 0.0)
    t_final = t_cross + 1.08 * extra_sigmas * sigma_full
    grid = plan_domain([(spec, params)], 0.0, t_final)
    field0 = build_wavefunction(spec, grid)
    return split_step_evolve(field0, params, t_final / steps, steps,
                             probe_z=0.0)


# --- ehrenfest crossing -------------------------------------------------------

def test_unit_drop_time():
    spec = WavepacketSpec.gaussian(1.0, 0.5)
    assert math.isclose(ehrenfest_tof(spec, params_g(), 0.0), math.sqrt(2.0),
                        rel_tol=1e-15)


def test_ratio_scaling_invariance():
    # for a state at rest only the mass ratio enters the crossing time
    spec = WavepacketSpec.male_cat(2.0, 1.0, 1.0)
    a = ehrenfest_tof(spec, params_g(2.0, 1.0), 0.0)
    b = ehrenfest_tof(spec, params_g(6.0, 3.0), 0.0)
    assert math.isclose(a, b, rel_tol=1e-14)


def test_upward_launch_takes_larger_root():
    # Yurke-Stoler carries positive mean momentum: rises, then falls through
    spec = WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)
    v0 = analytic_moments(spec).mean_p
    assert v0 > 0
    t = ehrenfest_tof(spec, params_g(), 0.0)
    assert math.isclose(t, v0 + math.sqrt(v0**2 + 4.0), rel_tol=1e-13)


def test_no_crossing_detected():
    spec = WavepacketSpec.gaussian(2.0, 1.0)
    with pytest.raises(NoCrossingError):
        ehrenfest_tof(spec, params_g(), 5.0)  # detector above the apex
    with pytest.raises(NoCrossingError):
        ehrenfest_tof(spec, params_g(g=0.0), 0.0)  # no field, at rest


def test_both_roots_negative_is_no_crossing():
    from qfall import MomentSet

    # fast downward start below a detector placed above: both quadratic
    # roots sit in the past
    m0 = MomentSet(mean_z=2.0, mean_p=-3.0, var_z=0.5, var_p=0.5, cov_zp=0.0)
    with pytest.raises(NoCrossingError):
        crossing_time_from_moments(m0, params_g(), 5.0)


def test_field_free_crossing_with_downward_velocity():
    spec = WavepacketSpec.cat(2.0, 1.0, 1.0, 1.0 / math.sqrt(2),
                              -1j / math.sqrt(2))  # theta = -pi/2, v < 0
    m0 = analytic_moments(spec)
    t = crossing_time_from_moments(m0, params_g(g=0.0), 0.0)
    assert math.isclose(t, 2.0 / abs(m0.mean_p), rel_tol=1e-13)


# --- epsilon and semiclassical spreads ----------------------------------------

def test_epsilon_reference_values():
    assert epsilon_factor(WavepacketSpec.gaussian(0, 1.0)) == 1.0
    assert abs(epsilon_factor(WavepacketSpec.male_cat(0, 1, 1))
               - math.sqrt(EPS_RATIO)) <= 1e-9
    assert abs(epsilon_factor(WavepacketSpec.female_cat(0, 1, 1))
               - 1.0 / math.sqrt(EPS_RATIO)) <= 1e-9


def test_sigma_asymptotic_plugin_value():
    _, sigma_asym = semiclassical_sigma_tof(WavepacketSpec.gaussian(2.0, 1.0),
                                            params_g(), 0.0)
    assert math.isclose(sigma_asym, math.sqrt(2.0) / 2.0, rel_tol=1e-15)


def test_doubling_gravitational_mass_halves_sigma():
    spec = WavepacketSpec.gaussian(2.0, 1.0)
    _, s1 = semiclassical_sigma_tof(spec, params_g(mg=1.0, mi=1.0), 0.0)
    _, s2 = semiclassical_sigma_tof(spec, params_g(mg=2.0, mi=1.0), 0.0)
    assert math.isclose(s1, 2.0 * s2, rel_tol=1e-15)


def test_sigma_full_converges_from_above():
    spec = WavepacketSpec.gaussian(100.0, 1.0)
    sigma_full, sigma_asym = semiclassical_sigma_tof(spec, params_g(), 0.0)
    assert abs(sigma_full / sigma_asym - 1.0) < 0.01
    assert sigma_full > sigma_asym


def test_crossing_spread_equals_the_spec_estimators():
    # the one home of crossing and spread: bit for bit what the
    # spec-level estimators report
    rng = np.random.default_rng(5)
    for _ in range(30):
        spec = random_cat(rng, z0_range=(1.0, 6.0))
        params = params_g(mi=rng.uniform(0.5, 16.0), mg=rng.uniform(0.5, 16.0))
        t_cross, sigma = crossing_spread(analytic_moments(spec), params, 0.0)
        assert t_cross == ehrenfest_tof(spec, params, 0.0)
        assert sigma == semiclassical_sigma_tof(spec, params, 0.0)[0]


def test_sigma_ratio_equals_epsilon():
    params = params_g()
    _, gauss = semiclassical_sigma_tof(WavepacketSpec.gaussian(2.0, 1.0),
                                       params, 0.0)
    for spec in (WavepacketSpec.male_cat(2.0, 1.0, 1.0),
                 WavepacketSpec.female_cat(2.0, 1.0, 1.0),
                 WavepacketSpec.yurke_stoler(2.0, 1.4, 1.0)):
        _, sigma = semiclassical_sigma_tof(spec, params, 0.0)
        assert math.isclose(sigma / gauss, epsilon_factor(spec),
                            rel_tol=1e-14)


# --- current-based distribution ------------------------------------------------

@pytest.fixture(scope="module")
def semiclassical_drop():
    """z0 = 50 delta0 Gaussian drop, shared by the distribution tests."""
    spec = WavepacketSpec.gaussian(50.0, 1.0)
    params = params_g()
    res = falling_run(spec, params, steps=3072)
    dist = current_tof_distribution(res, params, 0.0)
    return spec, params, res, dist


def test_semiclassical_mean_matches_ehrenfest(semiclassical_drop):
    spec, params, _, dist = semiclassical_drop
    t_ehr = ehrenfest_tof(spec, params, 0.0)
    assert abs(dist.mean_t - t_ehr) / t_ehr < 0.01


def test_semiclassical_std_matches_asymptotic(semiclassical_drop):
    spec, params, _, dist = semiclassical_drop
    _, sigma_asym = semiclassical_sigma_tof(spec, params, 0.0)
    assert abs(dist.std_t - sigma_asym) / sigma_asym < 0.20


def test_semiclassical_backflow_is_negligible(semiclassical_drop):
    _, _, _, dist = semiclassical_drop
    assert dist.clipped_negativity <= 1e-3


def test_distribution_is_normalized(semiclassical_drop):
    _, _, _, dist = semiclassical_drop
    assert abs(np.trapezoid(dist.density, dist.times) - 1.0) <= 1e-9
    assert np.all(dist.density >= 0.0)
    assert dist.window[0] <= dist.mean_t <= dist.window[1]


def test_stored_stats_match_quadrature_bitwise(semiclassical_drop):
    _, _, _, dist = semiclassical_drop
    mean = float(np.trapezoid(dist.times * dist.density, dist.times))
    var = float(np.trapezoid((dist.times - mean) ** 2 * dist.density,
                             dist.times))
    assert mean == dist.mean_t
    assert math.sqrt(max(var, 0.0)) == dist.std_t


def test_distribution_csv_round_trip(tmp_path, semiclassical_drop):
    _, _, _, dist = semiclassical_drop
    path = tmp_path / "dist.csv"
    dist.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,density,cumulative"
    last = lines[-1].split(",")
    assert math.isclose(float(last[2]), 1.0, abs_tol=1e-9)


def test_window_escaping_simulation_errors(semiclassical_drop):
    _, params, res, _ = semiclassical_drop
    with pytest.raises(ConfigurationError):
        # a 60-sigma window cannot fit in the simulated range
        current_tof_distribution(res, params, 0.0, window_sigmas=60.0)


def test_distribution_needs_current_source():
    # the current comes from a probe at the detector only
    spec = WavepacketSpec.gaussian(2.0, 1.0)
    params = params_g()
    grid = plan_domain([(spec, params)], 0.0, 2.2)
    field0 = build_wavefunction(spec, grid)
    for source, message in (({}, "probe_z"),
                            ({"probe_z": 1.0}, "probed the current at 1.0")):
        res = split_step_evolve(field0, params, 2.2 / 256, 256, **source)
        with pytest.raises(PreconditionError, match=message):
            current_tof_distribution(res, params, 0.0)


def test_distance_to_self_is_zero(semiclassical_drop):
    _, _, _, dist = semiclassical_drop
    assert distribution_distance(dist, dist) == (0.0, 0.0)


def test_male_female_distributions_differ():
    params = params_g()
    dists = []
    for spec in (WavepacketSpec.male_cat(2.0, 1.0, 1.0),
                 WavepacketSpec.female_cat(2.0, 1.0, 1.0)):
        res = falling_run(spec, params, steps=1024)
        dists.append(current_tof_distribution(res, params, 0.0))
    l1, ks = distribution_distance(dists[0], dists[1])
    assert l1 > 0.05 and ks > 0.01


def test_disjoint_windows_error():
    times_a = np.linspace(0.0, 1.0, 64)
    times_b = np.linspace(2.0, 3.0, 64)
    bump = np.exp(-((np.linspace(-2, 2, 64)) ** 2))
    bump /= np.trapezoid(bump, times_a)
    d1 = TofDistribution(times_a, bump, 0.5, 0.1, (0.0, 1.0), 0.0)
    d2 = TofDistribution(times_b, bump, 2.5, 0.1, (2.0, 3.0), 0.0)
    with pytest.raises(PreconditionError):
        distribution_distance(d1, d2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(
           st.integers(2, 300), st.integers(2, 300)),
       start=st.floats(0.0, 10.0), dt=st.floats(1e-3, 1.0),
       dt_ratio=st.one_of(st.just(1.0), st.floats(0.3, 3.0)),
       shift=st.floats(0.01, 0.99))
def test_distance_equals_the_union1d_reference(seed, sizes, start, dt,
                                               dt_ratio, shift):
    """L1 and KS equal, bitwise, the same estimators on `np.union1d` of the
    two sample times, also where the windows share sample times (same dt,
    starts a whole number of steps apart)."""
    rng = np.random.default_rng(seed)
    n1, n2 = sizes
    times1 = start + dt * np.arange(n1)
    if dt_ratio == 1.0:  # offset by k steps, 1 - n2 < k < n1 - 1
        k = int(rng.integers(2 - n2, n1 - 1))
        times2 = start + dt * np.arange(k, k + n2)
    else:
        span1, span2 = times1[-1] - start, dt * dt_ratio * (n2 - 1)
        times2 = (times1[-1] - shift * (span1 + span2)
                  + dt * dt_ratio * np.arange(n2))
    d1, d2 = (TofDistribution(times, rng.random(len(times)), 0.0, 0.0,
                              (times[0], times[-1]), 0.0)
              for times in (times1, times2))
    grid = np.union1d(times1, times2)
    f1, f2 = (np.interp(grid, d.times, d.density, left=0.0, right=0.0)
              for d in (d1, d2))
    c1, c2 = (TofDistribution(grid, f, 0.0, 0.0, d.window, 0.0).cumulative()
              for f, d in ((f1, d1), (f2, d2)))
    expected = (float(np.trapezoid(np.abs(f1 - f2), grid)),
                float(np.max(np.abs(c1 - c2))))
    assert distribution_distance(d1, d2) == expected


def test_distribution_from_current_rejects_pure_backflow():
    times = np.linspace(0.0, 1.0, 64)
    current = np.ones_like(times)  # strictly upward: no downward flux
    with pytest.raises(PreconditionError):
        distribution_from_current(times, current, (0.0, 1.0))


def test_a_zero_current_has_a_positive_zero_density():
    times = np.linspace(0.0, 1.0, 64)
    current = -np.sin(np.pi * times)
    current[[0, -1]] = -0.0, 0.0  # both signs of a zero current
    dist = distribution_from_current(times, current, (0.0, 1.0))
    assert dist.density[0] == dist.density[-1] == 0.0
    assert not np.signbit(dist.density).any()


def test_window_extension_and_low_capture_flag():
    times = np.linspace(0.0, 10.0, 2001)
    current = -np.exp(-((times - 5.0) ** 2) / (2.0 * 0.5**2))
    narrow = (4.9, 5.1)  # captures a sliver of the flux
    extended = distribution_from_current(times, current, narrow, (0.0, 10.0))
    assert extended.window == (0.0, 10.0)
    assert extended.capture_fraction > 0.999
    assert not extended.low_capture_warning
    stuck = distribution_from_current(times, current, narrow, None)
    assert stuck.low_capture_warning
    assert stuck.capture_fraction < 0.999
    assert math.isclose(np.trapezoid(stuck.density, stuck.times), 1.0,
                        abs_tol=1e-12)


def test_mean_crossing_time_matches_closed_form():
    spec = WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)
    params = params_g()
    t_ehr = ehrenfest_tof(spec, params, 0.0)
    grid = plan_domain([(spec, params)], 0.0, 1.1 * t_ehr)
    res = split_step_evolve(build_wavefunction(spec, grid), params,
                            1.1 * t_ehr / 512, 512, record_stride=16)
    assert abs(mean_crossing_time(res, 0.0) - t_ehr) <= 1e-8 * t_ehr
