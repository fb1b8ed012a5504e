import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qfall import (
    InfeasibleTargetError,
    MassPair,
    WavepacketSpec,
    analytic_moments,
    check_matched,
    match_second_particle,
    velocity_bound,
)
from conftest import random_cat


def test_identical_preparations_match():
    spec = WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)
    mass = MassPair(1.0, 1.0)
    report = check_matched(spec, mass, spec, mass, tol=1e-12)
    assert report
    assert report.position_residual == 0.0
    assert report.velocity_residual == 0.0


def test_parity_cats_match_for_any_masses():
    # both carry zero mean momentum, so velocities match for free
    spec = WavepacketSpec.male_cat(2.0, 1.0, 1.0)
    assert check_matched(spec, MassPair(1.0, 1.0), spec, MassPair(7.0, 3.0),
                         tol=1e-12)


def test_moving_cat_against_resting_gaussian_fails():
    cat = WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)
    gauss = WavepacketSpec.gaussian(2.0, 1.0)
    report = check_matched(cat, MassPair(1, 1), gauss, MassPair(1, 1),
                           tol=1e-9)
    assert not report
    assert math.isclose(report.velocity_residual, math.exp(-1.0),
                        rel_tol=1e-12)  # the interference momentum


def test_target_from_state():
    cat = WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)
    mom = analytic_moments(cat)  # the target a match must reproduce
    assert math.isclose(mom.mean_z, 2.0, abs_tol=1e-15)
    assert math.isclose(mom.mean_p / MassPair(2.0, 1.0).m_inertial,
                        math.exp(-1.0) / 2.0, rel_tol=1e-12)


def test_match_resting_cat_with_gaussian_family():
    spec1 = WavepacketSpec.male_cat(1.5, 1.0, 1.0)
    family = WavepacketSpec.gaussian(0.0, 0.8)
    spec2 = match_second_particle(spec1, MassPair(1, 1), family,
                                  MassPair(3, 2))
    assert spec2.kind == "gaussian"
    assert spec2.delta0 == 0.8
    assert math.isclose(analytic_moments(spec2).mean_z, 1.5, abs_tol=1e-14)


def test_match_same_family_at_rest_translates():
    spec1 = WavepacketSpec.male_cat(2.0, 1.0, 1.0)
    family = WavepacketSpec.male_cat(0.0, 1.0, 1.0)
    spec2 = match_second_particle(spec1, MassPair(1, 1), family,
                                  MassPair(2, 2))
    assert spec2.theta == 0.0
    assert check_matched(spec1, MassPair(1, 1), spec2, MassPair(2, 2),
                         tol=1e-9)


def test_match_moving_target_by_phase_solve():
    spec1 = WavepacketSpec.yurke_stoler(2.0, 1.0, 2.0)  # v = e^-1 / 2
    family = WavepacketSpec.male_cat(0.0, 1.2, 0.9)
    mass1, mass2 = MassPair(1.0, 1.0), MassPair(1.0, 2.3)
    assert abs(analytic_moments(spec1).mean_p) < velocity_bound(family, mass2)
    spec2 = match_second_particle(spec1, mass1, family, mass2)
    assert check_matched(spec1, mass1, spec2, mass2, tol=1e-9)
    # geometry and moduli of the family are preserved
    assert spec2.delta == 1.2 and spec2.delta0 == 0.9
    assert math.isclose(abs(spec2.c_plus), abs(family.c_plus), rel_tol=1e-15)


def test_matching_invariant_under_common_mass_rescaling():
    # the velocity condition is a ratio condition
    spec1 = WavepacketSpec.yurke_stoler(1.0, 1.0, 2.0)
    family = WavepacketSpec.male_cat(0.0, 1.0, 1.0)
    a = match_second_particle(spec1, MassPair(2, 1), family, MassPair(2, 5))
    b = match_second_particle(spec1, MassPair(8, 4), family, MassPair(8, 20))
    assert math.isclose(a.theta, b.theta, rel_tol=1e-12)
    assert math.isclose(a.z0, b.z0, rel_tol=1e-12)


def test_zero_velocity_target_returns_parity_phase():
    spec1 = WavepacketSpec.female_cat(3.0, 1.0, 1.0)  # <p> = 0
    family = WavepacketSpec.male_cat(0.0, 0.7, 1.1)
    spec2 = match_second_particle(spec1, MassPair(1, 1), family,
                                  MassPair(2, 1))
    assert spec2.theta in (0.0, math.pi)


def test_gaussian_family_rejects_moving_target():
    spec1 = WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)
    family = WavepacketSpec.gaussian(0.0, 1.0)
    with pytest.raises(InfeasibleTargetError) as excinfo:
        match_second_particle(spec1, MassPair(1, 1), family, MassPair(1, 1))
    assert excinfo.value.v_max == 0.0


def test_unreachable_velocity_reports_bound():
    spec1 = WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)  # v = e^-1 ~ 0.368
    family = WavepacketSpec.male_cat(0.0, 3.0, 1.0)     # tiny overlap weight
    mass2 = MassPair(1.0, 1.0)
    bound = velocity_bound(family, mass2)
    assert bound < 0.01
    with pytest.raises(InfeasibleTargetError) as excinfo:
        match_second_particle(spec1, MassPair(1, 1), family, mass2)
    assert math.isclose(excinfo.value.v_max, bound, rel_tol=1e-12)


def test_velocity_bound_attained_at_quarter_phase():
    family = WavepacketSpec.male_cat(0.0, 1.0, 1.0)
    mass = MassPair(1.0, 1.0)
    bound = velocity_bound(family, mass)
    # the Yurke-Stoler member of the family carries exactly the bound
    ys = WavepacketSpec.yurke_stoler(0.0, 1.0, 1.0)
    assert math.isclose(analytic_moments(ys).mean_p / mass.m_inertial, bound,
                        rel_tol=1e-14)


def test_target_at_the_bound_within_roundoff_matches_at_quarter_phase():
    # v* / v_max - 1 = 2.2e-16: inside the bound's 1e-12 slack, so it must
    # match at the branch end rather than raise
    spec1, mass1 = WavepacketSpec.yurke_stoler(0, 1, 1), MassPair(1 - 1.2e-16, 1)
    family, mass2 = WavepacketSpec.male_cat(0, 1, 1), MassPair(1, 1)
    spec2 = match_second_particle(spec1, mass1, family, mass2)
    assert abs(spec2.theta - math.pi / 2) <= 1e-12
    assert check_matched(spec1, mass1, spec2, mass2, tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), f=st.floats(-1.0, 1.0))
@example(seed=29, f=-1.0)  # seed 29: f * v_max rounds past the branch end
@example(seed=29, f=0.0)
@example(seed=29, f=1.0)
def test_any_target_on_the_branch_matches_on_the_branch(seed, f):
    # targets f * v_max, from a Yurke-Stoler cat moving up or down (or a
    # resting male cat) whose inertial mass scales its velocity
    assume(f == 0.0 or abs(f) > 1e-9)
    rng = np.random.default_rng(seed)
    family = random_cat(rng)
    mass2 = MassPair(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
    r = 1.0 / math.sqrt(2.0)
    if f == 0.0:
        spec1, mass1 = WavepacketSpec.male_cat(1.0, 1.0, 1.0), MassPair(1, 1)
    else:
        spec1 = WavepacketSpec.cat(1.0, 1.0, 1.0, r, math.copysign(r, f) * 1j)
        p1 = abs(analytic_moments(spec1).mean_p)
        mass1 = MassPair(p1 / (abs(f) * velocity_bound(family, mass2)), 1.0)
    spec2 = match_second_particle(spec1, mass1, family, mass2)
    assert -math.pi / 2 <= spec2.theta <= math.pi / 2
    assert check_matched(spec1, mass1, spec2, mass2, tol=1e-12)
