"""Analytic-versus-numeric oracle suite behind `qfall validate`.

Each check pits one of the closed forms against an independent numeric
route (grid quadrature, spectral evolution, or brute parameter scans) at
desk-scale resolution. The suite is the fast smoke-test counterpart of
the full pytest acceptance module.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DEFAULT_UNITS, MassPair, make_grid, norm
from .errors import InfeasibleTargetError
from .experiments import plan_domain
from .evolve import (
    ACCELERATED_FRAME,
    GRAVITY,
    LinearPotentialParams,
    arrival_current,
    closed_form_field,
    exact_wavefunction,
    moment_evolution,
    refine_timestep,
    split_step_evolve,
)
from .prepare import check_matched, match_second_particle, velocity_bound
from .states import (
    WavepacketSpec,
    analytic_moments,
    build_wavefunction,
    mixture_moments,
    numeric_moments,
)
from .tof import (
    current_tof_distribution,
    distribution_distance,
    ehrenfest_tof,
    epsilon_factor,
)

__all__ = ["run_all", "CHECKS"]

_UNIT = DEFAULT_UNITS


def _random_spec(rng) -> WavepacketSpec:
    z0 = rng.uniform(-2.0, 2.0)
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
    worst = max(_moment_gaps(_random_spec(rng)) for _ in range(30))
    return worst <= 1e-8, f"max scaled moment gap = {worst:.3e} over 30 specs"


def check_epsilon_formulas():
    male = WavepacketSpec.male_cat(0.0, 1.0, 1.0)
    female = WavepacketSpec.female_cat(0.0, 1.0, 1.0)
    gauss = WavepacketSpec.gaussian(0.0, 1.0)
    ratio = (math.e - 1.0) / (math.e + 1.0)
    gaps = [
        abs(epsilon_factor(gauss, _UNIT) - 1.0),
        abs(epsilon_factor(male, _UNIT) - math.sqrt(ratio)),
        abs(epsilon_factor(female, _UNIT) - 1.0 / math.sqrt(ratio)),
    ]
    # independent route: momentum variance by quadrature
    grid = make_grid(-25.0, 25.0, 4096)
    var_p = numeric_moments(build_wavefunction(male, grid), _UNIT).var_p
    gaps.append(abs(math.sqrt(var_p / 0.5) - math.sqrt(ratio)))
    worst = max(gaps)
    return worst <= 1e-9, f"max epsilon gap = {worst:.3e}"


def check_ehrenfest_closed_form():
    gauss = WavepacketSpec.gaussian(2.0, 1.0)
    worst = 0.0
    for ratio, expected in ((1.0, 2.0), (2.0, 2.0 * math.sqrt(2.0)), (4.0, 4.0)):
        params = LinearPotentialParams(MassPair(ratio, 1.0), 1.0, GRAVITY)
        worst = max(worst, abs(ehrenfest_tof(gauss, params, 0.0, _UNIT) - expected))
    return worst <= 1e-12, f"max |T - closed form| = {worst:.3e}"


def check_uniform_force_variance():
    m0 = analytic_moments(WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0), _UNIT)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        a = moment_evolution(m0, LinearPotentialParams(MassPair(1, 1), 1.0), t)
        b = moment_evolution(m0, LinearPotentialParams(MassPair(1, 1), 2.0), t)
        worst = max(worst, abs(a.var_z - b.var_z), abs(a.var_p - b.var_p))
    return worst == 0.0, f"variance shift across g values = {worst:.3e}"


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
    # The m = 16 Gaussian's field: 4.4e-14 on 1,440 points, held to 1e-12.
    # Its probe current and four random cats' (m in [0.5, 16], z0 in [-2, 2]
    # over a detector at 0): 1.3e-13 from `arrival_current`, held to 1e-11.
    # Their fields at t = 3: 4.0e-13 from `closed_form_field`, held to 1e-12.
    rng = np.random.default_rng(20261019)
    runs, field_gap = [], 0.0
    for spec, mass in [(WavepacketSpec.gaussian(2.0, 1.0), 16.0)] + [
            (_random_spec(rng), rng.uniform(0.5, 16.0)) for _ in range(4)]:
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
    return (gap <= 1e-12 and current_gap <= 1e-11 and field_gap <= 1e-12
            and n & (n - 1) != 0), \
        f"{n} points, L2 gap {gap:.2e} after phase {np.angle(phase):.2e}; " \
        f"current gap {current_gap:.2e}, field gap {field_gap:.2e} over " \
        f"{len(runs)} drops"


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
        spec1 = _random_spec(rng)
        mass1 = MassPair(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
        family = _random_spec(rng)
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
    return drift <= 1e-10, f"max |1 - norm| = {drift:.3e} over 2000 steps"


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
