import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfall import (
    ConfigurationError,
    DegenerateStateError,
    DomainError,
    GridField,
    PreconditionError,
    WavepacketSpec,
    analytic_moments,
    build_wavefunction,
    make_grid,
    mixture_moments,
    norm,
    normalization_constant,
    numeric_moments,
)
from qfall.validate import _moment_gaps
from conftest import EPS_RATIO, grid_for, random_cat

HBAR = 1.0


# --- spec validation -------------------------------------------------------

def test_spec_rejects_bad_widths():
    with pytest.raises(ConfigurationError):
        WavepacketSpec.gaussian(0.0, 0.0)
    with pytest.raises(ConfigurationError):
        WavepacketSpec.cat(0.0, -1.0, 1.0, 1.0, 1.0)


def test_spec_kind_consistency():
    with pytest.raises(ConfigurationError):
        WavepacketSpec("gaussian", 0.0, 1.0, 1.0, 1.0 + 0j, 0.0j)
    with pytest.raises(ConfigurationError):
        WavepacketSpec("cat", 0.0, 0.0, 1.0, 1.0 + 0j, 1.0 + 0j)


def test_spec_rejects_empty_superposition():
    with pytest.raises(ConfigurationError):
        WavepacketSpec.cat(0.0, 1.0, 1.0, 0.0, 0.0)


def test_degenerate_destructive_superposition_rejected():
    # nearly coincident peaks with opposite coefficients: norm -> 0
    with pytest.raises(DegenerateStateError):
        WavepacketSpec.cat(0.0, 5e-8, 1.0, 1.0, -1.0)


def test_spec_rejects_norm_denominator_whose_square_underflows():
    # a near-destructive cat at tiny amplitudes: Q = 2e-172, Q^2 = 0
    with pytest.raises(ConfigurationError, match="norm denominator"):
        analytic_moments(WavepacketSpec.cat(0.0, 1e-6, 1.0, 1e-80, -1e-80))


def test_theta_values():
    assert WavepacketSpec.male_cat(0, 1, 1).theta == 0.0
    assert math.isclose(WavepacketSpec.female_cat(0, 1, 1).theta, math.pi)
    assert math.isclose(WavepacketSpec.yurke_stoler(0, 1, 1).theta,
                        math.pi / 2)
    wrapped = WavepacketSpec.cat(0, 1, 1, cmath.exp(3j), cmath.exp(-3j))
    assert math.isclose(wrapped.theta, 2 * math.pi - 6.0, abs_tol=1e-15)


def test_record_round_trip():
    spec = WavepacketSpec.cat(1.5, 0.8, 1.2, 0.6 + 0.1j, -0.3 + 0.7j)
    again = WavepacketSpec.from_record(spec.to_record())
    assert again == spec


# --- wavefunction construction ---------------------------------------------

def test_delta_zero_recovers_gaussian_profile(wide_grid):
    spec = WavepacketSpec.gaussian(2.0, 1.0)
    field = build_wavefunction(spec, wide_grid)
    z = wide_grid.points
    expected = normalization_constant(spec) * np.exp(-((z - 2.0) ** 2) / 2.0)
    np.testing.assert_allclose(field.amplitudes, expected, atol=1e-15)


def test_odd_cat_vanishes_at_center():
    grid = make_grid(-32.0, 32.0, 4096)  # grid point exactly at z0 = 0
    field = build_wavefunction(WavepacketSpec.female_cat(0.0, 1.0, 1.0), grid)
    center = np.argmin(np.abs(grid.points))
    assert grid.points[center] == 0.0
    assert abs(field.amplitudes[center]) < 1e-16


def test_even_cat_unit_norm(wide_grid):
    field = build_wavefunction(WavepacketSpec.male_cat(0.0, 1.0, 1.0),
                               wide_grid)
    assert abs(norm(field) - 1.0) <= 1e-12


def test_build_rejects_peaks_near_boundary():
    grid = make_grid(-5.0, 5.0, 256)
    with pytest.raises(DomainError):
        build_wavefunction(WavepacketSpec.gaussian(0.0, 1.0), grid)


def test_build_rejects_coarse_grid():
    grid = make_grid(-40.0, 40.0, 128)  # spacing 0.625 > delta0 / 2.5
    with pytest.raises(ConfigurationError):
        build_wavefunction(WavepacketSpec.gaussian(0.0, 1.0), grid)


# --- normalization constant ------------------------------------------------

def test_normalization_gaussian():
    spec = WavepacketSpec.gaussian(0.0, 2.0)
    assert math.isclose(normalization_constant(spec) ** 2,
                        1.0 / (math.sqrt(math.pi) * 2.0), rel_tol=1e-15)


def test_normalization_separated_peaks():
    spec = WavepacketSpec.cat(0.0, 9.0, 1.0, 1.0, 1.0)
    assert math.isclose(normalization_constant(spec) ** 2,
                        1.0 / (2.0 * math.sqrt(math.pi)), rel_tol=1e-12)


def test_normalization_overlapping_even_cat(wide_grid):
    spec = WavepacketSpec.cat(0.0, 1.0, 1.0, 1.0, 1.0)
    expected = 1.0 / (math.sqrt(math.pi) * (2.0 + 2.0 * math.exp(-1.0)))
    assert math.isclose(normalization_constant(spec) ** 2, expected,
                        rel_tol=1e-15)
    # cross-check by grid quadrature
    assert abs(norm(build_wavefunction(spec, wide_grid)) - 1.0) <= 1e-12


# The named cats from strong overlap (delta/delta0 = 0.05, near the
# destructive end for the odd cat) to separated peaks, and random cats.
built_cats = st.one_of(
    st.builds(lambda family, ratio, delta0, z0: getattr(
        WavepacketSpec, family)(z0, ratio * delta0, delta0),
        st.sampled_from(("male_cat", "female_cat", "yurke_stoler")),
        st.floats(0.05, 3.0), st.floats(0.5, 2.0), st.floats(-2.0, 2.0)),
    st.integers(0, 2**32 - 1).map(
        lambda seed: random_cat(np.random.default_rng(seed))))


@settings(max_examples=300, deadline=None)
@given(built_cats)
def test_built_cats_have_unit_norm(spec):
    assert abs(1.0 - norm(build_wavefunction(spec, grid_for(spec)))) <= 1e-12


# --- analytic moments -------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(built_cats)
def test_analytic_moments_equal_numeric_moments(spec):
    """The closed-form moments of any built cat equal the grid quadrature's
    within the scaled 1e-8 that `qfall validate` holds its 100 fixed cats
    to."""
    assert _moment_gaps(spec) <= 1e-8


def test_parity_states_have_zero_momentum():
    for spec in (WavepacketSpec.male_cat(1.0, 1.0, 1.0),
                 WavepacketSpec.female_cat(1.0, 1.0, 1.0)):
        assert analytic_moments(spec).mean_p == 0.0


def test_equal_moduli_mean_position():
    spec = WavepacketSpec.yurke_stoler(3.0, 1.4, 0.9)
    assert math.isclose(analytic_moments(spec).mean_z, 3.0, abs_tol=1e-15)


def test_cat_momentum_variances_at_delta0():
    even = analytic_moments(WavepacketSpec.male_cat(0, 1, 1))
    odd = analytic_moments(WavepacketSpec.female_cat(0, 1, 1))
    assert math.isclose(even.var_p, 0.5 * EPS_RATIO, rel_tol=1e-14)
    assert math.isclose(odd.var_p, 0.5 / EPS_RATIO, rel_tol=1e-14)


def test_momentum_maximal_near_quarter_phase_for_separated_peaks():
    # With negligible peak overlap the interference momentum is maximal at
    # theta = pi/2 and 3 pi/2 on the degree grid.
    thetas = np.arange(360) * 2.0 * np.pi / 360.0
    r = 1.0 / math.sqrt(2.0)
    p = [abs(analytic_moments(
        WavepacketSpec.cat(0.0, 3.0, 1.0, r, r * cmath.exp(1j * th))).mean_p)
        for th in thetas]
    assert int(np.argmax(p[:180])) == 90
    assert 180 + int(np.argmax(p[180:])) == 270


def test_momentum_argmax_shifts_with_strong_overlap():
    # At delta = delta0 the theta-dependent normalization pushes the true
    # maximum past pi/2: cos(theta*) = -w for equal moduli, about 112 deg.
    thetas = np.arange(360) * 2.0 * np.pi / 360.0
    r = 1.0 / math.sqrt(2.0)
    p = [abs(analytic_moments(
        WavepacketSpec.cat(0.0, 1.0, 1.0, r, r * cmath.exp(1j * th))).mean_p)
        for th in thetas]
    expected = round(math.degrees(math.acos(-math.exp(-1.0))))
    assert int(np.argmax(p[:180])) == expected == 112


def test_uncertainty_relation_on_random_specs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        mom = analytic_moments(random_cat(rng))
        heisenberg = mom.var_z * mom.var_p - mom.cov_zp**2
        assert heisenberg >= 0.25 * (1.0 - 1e-10)
        assert mom.var_z > 0 and mom.var_p > 0


def test_small_delta_limit_matches_gaussian():
    gauss = analytic_moments(WavepacketSpec.gaussian(1.0, 1.0))
    for builder in (WavepacketSpec.male_cat, WavepacketSpec.yurke_stoler):
        cat = analytic_moments(builder(1.0, 1e-6, 1.0))
        assert abs(cat.mean_z - gauss.mean_z) < 1e-5
        assert abs(cat.mean_p - gauss.mean_p) < 1e-5
        assert abs(cat.var_z - gauss.var_z) < 1e-5
        assert abs(cat.var_p - gauss.var_p) < 1e-5


def test_epsilon_ratio_identity():
    gauss = analytic_moments(WavepacketSpec.gaussian(0, 1.0))
    even = analytic_moments(WavepacketSpec.male_cat(0, 1.0, 1.0))
    odd = analytic_moments(WavepacketSpec.female_cat(0, 1.0, 1.0))
    assert abs(math.sqrt(even.var_p / gauss.var_p)
               - math.sqrt(EPS_RATIO)) <= 1e-10
    assert abs(math.sqrt(odd.var_p / gauss.var_p)
               - 1.0 / math.sqrt(EPS_RATIO)) <= 1e-10


# --- numeric moments --------------------------------------------------------

def test_numeric_moments_gaussian(wide_grid):
    field = build_wavefunction(WavepacketSpec.gaussian(0.0, 1.0), wide_grid)
    mom = numeric_moments(field)
    assert abs(mom.mean_z) <= 1e-10
    assert abs(mom.var_z - 0.5) <= 1e-8
    assert abs(mom.var_p - 0.5) <= 1e-8


def test_real_cat_has_zero_numeric_momentum(wide_grid):
    field = build_wavefunction(WavepacketSpec.male_cat(0.0, 1.0, 1.0),
                               wide_grid)
    assert abs(numeric_moments(field).mean_p) <= 1e-12


def test_numeric_moments_requires_unit_norm(wide_grid):
    field = build_wavefunction(WavepacketSpec.gaussian(0.0, 1.0), wide_grid)
    doubled = GridField(wide_grid, 2.0 * field.amplitudes)
    with pytest.raises(PreconditionError):
        numeric_moments(doubled)


# --- mixture and interference ----------------------------------------------

def test_mixture_momentum_always_zero():
    for th in (0.0, 0.7, math.pi / 2, 2.5):
        spec = WavepacketSpec.cat(0.0, 1.0, 1.0, 0.8,
                                  0.5 * cmath.exp(1j * th))
        assert mixture_moments(spec).mean_p == 0.0


def test_mixture_equal_weights():
    spec = WavepacketSpec.yurke_stoler(1.0, 1.3, 0.9)
    mixed = mixture_moments(spec)
    assert math.isclose(mixed.mean_z, 1.0, abs_tol=1e-15)
    assert math.isclose(mixed.var_z, 0.9**2 / 2.0 + 1.3**2, rel_tol=1e-14)


def test_mixture_undefined_for_gaussian():
    with pytest.raises(PreconditionError):
        mixture_moments(WavepacketSpec.gaussian(0.0, 1.0))


def pure_minus_mixture(spec):
    """Pure-state minus mixture (<z>, <p>): the interference contribution."""
    pure, mixed = analytic_moments(spec), mixture_moments(spec)
    return pure.mean_z - mixed.mean_z, pure.mean_p - mixed.mean_p


def test_momentum_gap_is_full_interference_momentum():
    spec = WavepacketSpec.yurke_stoler(0.0, 1.0, 1.0)
    gap = pure_minus_mixture(spec)[1]
    assert math.isclose(gap, analytic_moments(spec).mean_p, rel_tol=1e-15)
    assert abs(gap - math.exp(-1.0)) <= 1e-15  # hbar w / delta0 at theta=pi/2


def test_momentum_gap_vanishes_at_zero_phase():
    assert pure_minus_mixture(WavepacketSpec.male_cat(0, 1, 1))[1] == 0.0


def test_position_gap():
    equal = WavepacketSpec.yurke_stoler(0.0, 1.0, 1.0)
    assert pure_minus_mixture(equal)[0] == 0.0
    skew = WavepacketSpec.cat(0.0, 1.0, 1.0, 0.9, 0.3)
    p, m = 0.81, 0.09
    q = p + m + 2.0 * 0.9 * 0.3 * math.exp(-1.0)
    expected = -1.0 * (p - m) / q + (p - m) / (p + m)
    assert math.isclose(pure_minus_mixture(skew)[0], expected, rel_tol=1e-12)
