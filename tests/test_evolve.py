import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfall import (
    ACCELERATED_FRAME,
    GRAVITY,
    BoundaryBreachError,
    ConfigurationError,
    GridField,
    LinearPotentialParams,
    MassPair,
    MomentSet,
    PreconditionError,
    WavepacketSpec,
    analytic_moments,
    build_wavefunction,
    default_timestep,
    dump_snapshots,
    exact_wavefunction,
    make_grid,
    moment_evolution,
    norm,
    numeric_moments,
    split_step_evolve,
    split_step_evolve_many,
)

from qfall.evolve import probe_current, probe_weights

from conftest import grid_for, random_cat


def params_g(mi=1.0, mg=1.0, g=1.0, mode=GRAVITY):
    return LinearPotentialParams(MassPair(mi, mg), g, mode)


def l2_distance(a, b, dz):
    return math.sqrt(float(np.sum(np.abs(a - b) ** 2) * dz))


def fields_at(field0, params, dt, steps):
    """psi after each of `steps`: the final field of a run stopped there,
    bit for bit the field a longer run holds at that step."""
    return [split_step_evolve(field0, params, dt, n, record_stride=max(1, n))
            .final_field for n in steps]


# --- parameters --------------------------------------------------------------

def test_coupling_mass_by_mode():
    mass = MassPair(2.0, 3.0)
    grav = LinearPotentialParams(mass, 1.5, GRAVITY)
    accel = LinearPotentialParams(mass, 1.5, ACCELERATED_FRAME)
    assert grav.coupling_mass == 3.0 and accel.coupling_mass == 2.0
    assert math.isclose(grav.g_eff, 1.5 * 3.0 / 2.0)
    assert math.isclose(accel.g_eff, 1.5)


def test_params_validation():
    with pytest.raises(ConfigurationError):
        LinearPotentialParams(MassPair(1, 1), -1.0)
    with pytest.raises(ConfigurationError):
        LinearPotentialParams(MassPair(1, 1), 1.0, "rotating_frame")


# --- moment evolution ---------------------------------------------------------

def test_free_fall_crossing_moment():
    m0 = analytic_moments(WavepacketSpec.gaussian(2.0, 1.0))
    mt = moment_evolution(m0, params_g(), 2.0)
    assert math.isclose(mt.mean_z, 0.0, abs_tol=1e-14)
    assert math.isclose(mt.mean_p, -2.0, rel_tol=1e-14)


def test_variance_independent_of_field_strength():
    m0 = analytic_moments(WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0))
    for t in (0.3, 1.0, 2.7):
        a = moment_evolution(m0, params_g(g=1.0), t)
        b = moment_evolution(m0, params_g(g=2.0), t)
        assert a.var_z == b.var_z
        assert a.var_p == b.var_p
        assert a.cov_zp == b.cov_zp


def test_gaussian_spreading_law():
    m0 = analytic_moments(WavepacketSpec.gaussian(0.0, 1.0))
    for t in (0.5, 1.0, 3.0):
        mt = moment_evolution(m0, params_g(), t)
        assert math.isclose(mt.var_z, 0.5 + 0.5 * t**2, rel_tol=1e-14)


def test_moment_evolution_rejects_negative_time():
    m0 = MomentSet(0.0, 0.0, 0.5, 0.5, 0.0)
    with pytest.raises(PreconditionError):
        moment_evolution(m0, params_g(), -0.1)


def test_mass_ratio_sets_mean_trajectory():
    m0 = analytic_moments(WavepacketSpec.gaussian(2.0, 1.0))
    heavy = moment_evolution(m0, params_g(mi=4.0, mg=1.0), 2.0)
    assert math.isclose(heavy.mean_z, 2.0 - 0.5 * 0.25 * 4.0, rel_tol=1e-14)


# --- exact propagator ---------------------------------------------------------

def test_exact_zero_field_is_free_spreading():
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    grid = make_grid(-40.0, 40.0, 2048)
    out = exact_wavefunction(spec, params_g(g=0.0), 2.0, grid)
    mom = numeric_moments(out)
    assert abs(mom.mean_z) <= 1e-10
    assert abs(mom.var_z - (0.5 + 0.5 * 4.0)) <= 1e-8


def test_exact_at_time_zero_is_identity():
    spec = WavepacketSpec.male_cat(2.0, 1.0, 1.0)
    grid = make_grid(-30.0, 30.0, 2048)
    out = exact_wavefunction(spec, params_g(), 0.0, grid)
    ref = build_wavefunction(spec, grid)
    assert l2_distance(out.amplitudes, ref.amplitudes, grid.spacing) <= 1e-14


def test_exact_moments_track_moment_evolution():
    spec = WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)
    grid = make_grid(-40.0, 40.0, 4096)
    params = params_g()
    m0 = analytic_moments(spec)
    for t in (0.5, 1.5):
        expected = moment_evolution(m0, params, t)
        got = numeric_moments(exact_wavefunction(spec, params, t, grid))
        assert abs(got.mean_z - expected.mean_z) <= 1e-8
        assert abs(got.mean_p - expected.mean_p) <= 1e-8
        assert abs(got.var_z - expected.var_z) <= 1e-8
        assert abs(got.var_p - expected.var_p) <= 1e-8


# --- split-operator solver ----------------------------------------------------

def test_free_split_step_matches_spreading_law():
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    grid = make_grid(-40.0, 40.0, 2048)
    res = split_step_evolve(build_wavefunction(spec, grid), params_g(g=0.0),
                            2.0 / 512, 512, record_stride=512)
    assert abs(res.final_moments.var_z - (0.5 + 0.5 * 4.0)) <= 1e-8


def test_single_step_reversibility():
    spec = WavepacketSpec.male_cat(0.0, 1.0, 1.0)
    grid = make_grid(-30.0, 30.0, 2048)
    field0 = build_wavefunction(spec, grid)
    fwd = split_step_evolve(field0, params_g(), 0.01, 1, record_stride=1)
    back = split_step_evolve(fwd.final_field, params_g(), -0.01, 1,
                             record_stride=1)
    assert l2_distance(back.final_field.amplitudes, field0.amplitudes,
                       grid.spacing) <= 1e-12


def test_strang_halving_ratio():
    spec = WavepacketSpec.gaussian(2.0, 1.0)
    grid = make_grid(-25.0, 22.0, 2048)
    params = params_g()
    field0 = build_wavefunction(spec, grid)
    exact = exact_wavefunction(spec, params, 2.0, grid)
    errors = []
    for steps in (512, 1024):
        run = split_step_evolve(field0, params, 2.0 / steps, steps,
                                record_stride=steps)
        errors.append(l2_distance(run.final_field.amplitudes,
                                  exact.amplitudes, grid.spacing))
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_equivalence_modes_bitwise_identical():
    spec = WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)
    grid = make_grid(-30.0, 25.0, 2048)
    field0 = build_wavefunction(spec, grid)
    grav = split_step_evolve(field0, params_g(mode=GRAVITY), 0.002, 500,
                             record_stride=500)
    accel = split_step_evolve(field0, params_g(mode=ACCELERATED_FRAME), 0.002,
                              500, record_stride=500)
    assert np.array_equal(grav.final_field.amplitudes,
                          accel.final_field.amplitudes)


def test_norm_conserved_along_run():
    spec = WavepacketSpec.gaussian(2.0, 1.0)
    grid = make_grid(-30.0, 25.0, 2048)
    res = split_step_evolve(build_wavefunction(spec, grid), params_g(),
                            0.001, 1000, record_stride=10)
    assert float(np.max(np.abs(res.norms - 1.0))) <= 1e-12


def test_split_step_tracks_ehrenfest():
    spec = WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)
    grid = make_grid(-40.0, 30.0, 4096)
    params = params_g()
    m0 = analytic_moments(spec)
    field0, dt = build_wavefunction(spec, grid), 2.0 / 1024
    res = split_step_evolve(field0, params, dt, 1024, record_stride=128)
    steps = range(0, 1025, 128)
    assert np.array_equal(res.times, np.array(steps) * dt)
    for t, mean_z, fld in zip(res.times, res.mean_z,
                              fields_at(field0, params, dt, steps)):
        ref = moment_evolution(m0, params, float(t))
        mean_p = numeric_moments(fld).mean_p
        assert abs(mean_z - ref.mean_z) <= 1e-6 * max(1.0, abs(ref.mean_z))
        assert abs(mean_p - ref.mean_p) <= 1e-6 * max(1.0, abs(ref.mean_p))


def test_numeric_variance_independent_of_field_strength():
    spec = WavepacketSpec.male_cat(2.0, 1.0, 1.0)
    grid = make_grid(-30.0, 25.0, 2048)
    field0 = build_wavefunction(spec, grid)
    runs = [split_step_evolve(field0, params_g(g=g), 0.001, 800,
                              record_stride=800) for g in (1.0, 2.0)]
    assert abs(runs[0].final_moments.var_z
               - runs[1].final_moments.var_z) <= 1e-10


def test_boundary_guard_trips_with_step_index():
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    grid = make_grid(-12.0, 12.0, 512)
    field0 = build_wavefunction(spec, grid)
    with pytest.raises(BoundaryBreachError) as excinfo:
        split_step_evolve(field0, params_g(), 0.01, 2000, record_stride=2000)
    assert 0 < excinfo.value.step_index <= 2000


def test_nyquist_guard():
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    field0 = build_wavefunction(spec, make_grid(-20.0, 20.0, 1024))
    # a long strong kick demands far more momentum than the grid resolves
    with pytest.raises(ConfigurationError):
        split_step_evolve(field0, params_g(g=100.0), 0.01, 1000)


def test_nyquist_headroom_is_the_guarded_quantity():
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    field0 = build_wavefunction(spec, make_grid(-20.0, 20.0, 1024))
    headroom = split_step_evolve(field0, params_g(), 0.01, 100,
                                 record_stride=100).nyquist_headroom
    assert headroom > 2.0  # the default margin
    split_step_evolve(field0, params_g(), 0.01, 100, record_stride=100,
                      nyquist_margin=headroom)
    with pytest.raises(ConfigurationError):
        split_step_evolve(field0, params_g(), 0.01, 100, record_stride=100,
                          nyquist_margin=headroom * (1.0 + 1e-12))


def test_default_timestep():
    assert default_timestep(4.096) == 0.001
    with pytest.raises(PreconditionError):
        default_timestep(0.0)


def test_snapshot_dumps(tmp_path):
    spec = WavepacketSpec.gaussian(2.0, 1.0)
    grid = make_grid(-25.0, 20.0, 1024)
    steps = (0, 100, 200)
    snapshots = list(zip(
        [0.002 * n for n in steps],
        fields_at(build_wavefunction(spec, grid), params_g(), 0.002, steps)))
    csv_paths = dump_snapshots(snapshots, tmp_path / "csv", fmt="csv")
    assert len(csv_paths) == 3
    for path, (t, fld) in zip(csv_paths, snapshots):
        lines = path.read_text().splitlines()
        assert lines[0] == "t,z,re_psi,im_psi"
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        assert np.array_equal(rows[:, 0], np.full(grid.n_points, t))
        assert np.array_equal(rows[:, 1], grid.points)
        assert np.array_equal(rows[:, 2] + 1j * rows[:, 3], fld.amplitudes)
    npz_paths = dump_snapshots(iter(snapshots), tmp_path / "npz", fmt="npz")
    bundle = np.load(npz_paths[0])
    assert np.array_equal(bundle["times"], [t for t, _ in snapshots])
    assert np.array_equal(bundle["z"], grid.points)
    assert np.array_equal(bundle["psi"],
                          [fld.amplitudes for _, fld in snapshots])
    with pytest.raises(ConfigurationError):
        dump_snapshots(snapshots, tmp_path, fmt="hdf5")


def test_csv_snapshots_are_written_one_at_a_time(tmp_path):
    """The writer takes the next field only after the previous file is on
    disk, so a lazy source holds one field at a time."""
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    field0 = build_wavefunction(spec, grid_for(spec, 256))

    def lazy():
        for i in range(4):
            if i:
                assert (tmp_path / f"snapshot_{i - 1:06d}.csv").is_file()
            assert not (tmp_path / f"snapshot_{i:06d}.csv").exists()
            yield 0.5 * i, field0

    paths = dump_snapshots(lazy(), tmp_path)
    assert [p.name for p in paths] == [f"snapshot_{i:06d}.csv"
                                       for i in range(4)]


def test_record_costs_no_transform(monkeypatch):
    """Each step is one transform pair, however many rows the loop carries.
    On top of them a loop takes the initial spectrum of all rows (which
    also feeds the Nyquist checks) and, per row, the inverse transform of
    each of its two full moment sets, however often it records."""
    spec = WavepacketSpec.male_cat(0.0, 1.0, 1.0)
    grid = grid_for(spec, 512)
    field0 = build_wavefunction(spec, grid)
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        def counted(*args, name=name, transform=getattr(np.fft, name),
                    **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    n_steps, probe = 40, float(grid.points[grid.n_points // 2])
    split_step_evolve(field0, params_g(), 0.004, n_steps, record_stride=1,
                      probe_z=probe)
    assert calls == {"fft": n_steps + 1, "ifft": n_steps + 2}
    rows = 3
    calls.update(fft=0, ifft=0)
    split_step_evolve_many(
        [field0] * rows, [params_g(g=1.0 + r) for r in range(rows)],
        [0.004] * rows, n_steps, record_stride=1,
        probe_zs=[probe] * rows)
    assert calls == {"fft": n_steps + 1, "ifft": n_steps + 2 * rows}


def test_non_unit_field_is_rejected():
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    field0 = build_wavefunction(spec, grid_for(spec, 512))
    for scale in (1.0 + 1e-5, 0.5, 0.0):
        scaled = GridField(field0.grid, scale * field0.amplitudes)
        with pytest.raises(PreconditionError, match="norm"):
            split_step_evolve(scaled, params_g(), 0.004, 4)


# --- the record against the fields it was taken from -------------------------

def assert_record_matches_snapshots(spec, mass, record_stride, n_steps=64,
                                    dt=0.004):
    """Every record of a run (norm, <z>, detector current), and the full
    moment sets at release and at the end, must equal what psi at the
    recorded step gives; the solver takes them from the boosted chi and its
    spectrum instead, so a wrong boost sign fails here."""
    grid = grid_for(spec, 1024)
    j = grid.n_points // 2  # a grid point near the packet: psi(z_j) = psi_j
    field0 = build_wavefunction(spec, grid)
    params = LinearPotentialParams(mass, 1.0)
    res = split_step_evolve(field0, params, dt, n_steps,
                            probe_z=float(grid.points[j]),
                            record_stride=record_stride)
    steps = range(0, n_steps + 1, record_stride)
    assert len(res.mean_z) == len(steps) == n_steps // record_stride + 1
    assert np.array_equal(res.times, np.array(steps) * dt)
    snapshots = fields_at(field0, params, dt, steps)
    for mom, fld in ((res.initial_moments, snapshots[0]),
                     (res.final_moments, snapshots[-1])):
        ref = numeric_moments(fld)
        for name in ("mean_z", "mean_p", "var_z", "var_p", "cov_zp"):
            assert abs(getattr(mom, name) - getattr(ref, name)) <= 1e-10, name
    for mean_z, nval, current, fld in zip(res.mean_z, res.norms,
                                          res.probe_current, snapshots):
        assert abs(mean_z - numeric_moments(fld).mean_z) <= 1e-10
        assert abs(nval - norm(fld)) <= 1e-12
        psi = fld.amplitudes
        dpsi = np.fft.ifft(1j * grid.wavenumbers * np.fft.fft(psi))
        ref_current = (np.conj(psi[j]) * dpsi[j]).imag / mass.m_inertial
        assert abs(current - ref_current) <= 1e-10


def test_record_matches_snapshots_every_step():
    spec = WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)
    assert analytic_moments(spec).mean_p != 0.0
    assert_record_matches_snapshots(spec, MassPair(1.5, 2.5), record_stride=1)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       m_inertial=st.floats(0.5, 4.0), m_gravitational=st.floats(0.5, 4.0),
       record_stride=st.integers(1, 8))
def test_record_matches_snapshots_property(seed, m_inertial, m_gravitational,
                                           record_stride):
    spec = random_cat(np.random.default_rng(seed))
    assert_record_matches_snapshots(spec, MassPair(m_inertial, m_gravitational),
                                    record_stride, n_steps=8 * record_stride)


# --- several runs in one loop -------------------------------------------------

def assert_same_run(a, b):
    """Bitwise equality of two runs' records, moments and final fields."""
    for name in ("times", "norms", "mean_z", "probe_current"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.initial_moments == b.initial_moments
    assert a.final_moments == b.final_moments
    assert np.array_equal(a.final_field.amplitudes, b.final_field.amplitudes)


def test_rows_equal_their_solo_runs():
    """Rows with their own grid, state, masses, mode, field, dt and probe
    (one without) come out of one loop exactly as from solo runs, also when
    stopped at any recorded step."""
    rng = np.random.default_rng(11)
    runs = []
    for r in range(4):
        spec = random_cat(rng)
        grid = grid_for(spec, 1024)
        mode = (GRAVITY, ACCELERATED_FRAME)[r % 2]
        params = LinearPotentialParams(
            MassPair(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)),
            rng.uniform(0.5, 1.5), mode)
        probe = None if r == 2 else float(grid.points[grid.n_points // 2 + r])
        runs.append((build_wavefunction(spec, grid), params,
                     rng.uniform(0.002, 0.005), probe))
    fields, params, dts, probes = map(list, zip(*runs))
    for n_steps in (*range(0, 100, 12), 100):
        rows = split_step_evolve_many(fields, params, dts, n_steps,
                                      probe_zs=probes, record_stride=3)
        for row, (field0, par, dt, probe) in zip(rows, runs):
            solo = split_step_evolve(field0, par, dt, n_steps, probe_z=probe,
                                     record_stride=3)
            assert_same_run(row, solo)
            assert row.params == par and row.dt == dt and row.probe_z == probe
        assert rows[2].probe_current is None


def test_rows_must_share_grid_size_and_steps():
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    small = build_wavefunction(spec, grid_for(spec, 512))
    large = build_wavefunction(spec, grid_for(spec, 1024))
    for fields, params in (([small, large], [params_g()] * 2),
                           ([small, small], [params_g()])):
        with pytest.raises(ConfigurationError, match="share n_points"):
            split_step_evolve_many(fields, params, [0.004] * 2, 8,
                                   probe_zs=[None] * 2)


@pytest.mark.parametrize("bad", [0, 1])
@pytest.mark.parametrize("flaw,error", [
    ("norm", PreconditionError), ("nyquist", ConfigurationError),
    ("probe", ConfigurationError)])
def test_each_row_is_checked_before_the_loop(bad, flaw, error):
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    field0 = build_wavefunction(spec, make_grid(-20.0, 20.0, 1024))
    fields, params, probes = [field0] * 2, [params_g()] * 2, [0.0] * 2
    if flaw == "norm":
        fields[bad] = GridField(field0.grid, 0.5 * field0.amplitudes)
    elif flaw == "nyquist":
        params[bad] = params_g(g=100.0)
    else:
        probes[bad] = 25.0
    with pytest.raises(error):
        split_step_evolve_many(fields, params, [0.01] * 2, 1000,
                               probe_zs=probes, record_stride=1000)


@pytest.mark.parametrize("tight_row", [0, 1])
def test_boundary_breach_names_the_row(tight_row):
    """A row on a tight grid breaches beside a safe one: the error names the
    tight row and the step its solo run breaches at."""
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    tight = build_wavefunction(spec, make_grid(-12.0, 12.0, 512))
    safe = build_wavefunction(spec, make_grid(-40.0, 40.0, 512))
    with pytest.raises(BoundaryBreachError) as solo:
        split_step_evolve(tight, params_g(), 0.01, 2000, record_stride=2000)
    fields, params = [safe, safe], [params_g(g=0.0), params_g(g=0.0)]
    fields[tight_row], params[tight_row] = tight, params_g()
    with pytest.raises(BoundaryBreachError) as pair:
        split_step_evolve_many(fields, params, [0.01] * 2, 2000,
                               probe_zs=[None] * 2, record_stride=2000)
    assert solo.value.run == 0
    assert pair.value.run == tight_row
    assert pair.value.step_index == solo.value.step_index
    assert f"run {tight_row})" in str(pair.value)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mass=st.floats(0.5, 4.0),
       record_stride=st.integers(1, 8),
       n_points=st.sampled_from([256, 512, 1024]))
def test_gravity_and_accelerated_frame_rows_are_identical(
        seed, mass, record_stride, n_points):
    """With m_i = m_g, gravity and the accelerated frame are one Hamiltonian:
    as two rows of one loop they agree bit for bit with each other and with
    their solo runs."""
    spec = random_cat(np.random.default_rng(seed))
    grid = grid_for(spec, n_points)
    field0 = build_wavefunction(spec, grid)
    modes = [LinearPotentialParams(MassPair(mass, mass), 1.0, mode)
             for mode in (GRAVITY, ACCELERATED_FRAME)]
    n_steps, probe = 8 * record_stride, float(grid.points[n_points // 2])
    rows = split_step_evolve_many([field0] * 2, modes, [0.004] * 2,
                                  n_steps, probe_zs=[probe] * 2,
                                  record_stride=record_stride)
    for row, params in zip(rows, modes):
        solo = split_step_evolve(field0, params, 0.004, n_steps, probe_z=probe,
                                 record_stride=record_stride)
        assert_same_run(row, solo)
    assert_same_run(rows[0], rows[1])


def one_dimensional_strang(field0, params, dt, n_steps, probe_z):
    """The fused-kick Strang loop of one run on 1-D arrays: (final psi,
    norms, <z>, probe currents) at every step."""
    grid, hbar = field0.grid, 1.0
    z, dz, mi, force = grid.points, grid.spacing, params.mass.m_inertial, \
        params.force
    half_kick = np.exp(-1j * force * z * dt / (2.0 * hbar))
    kick = np.exp(-1j * force * z * dt / hbar)
    kinetic = np.exp(-1j * hbar * grid.wavenumbers**2 * dt / (2.0 * mi))
    weights = probe_weights(grid, probe_z)
    chi = field0.amplitudes / half_kick
    spectrum = np.fft.fft(chi)
    norms, mean_z, currents = [], [], []
    for step in range(n_steps + 1):
        if step:
            spectrum = np.fft.fft(chi * kick) * kinetic
            chi = np.fft.ifft(spectrum)
        norms.append(math.sqrt(float(np.vdot(chi, chi).real) * dz))
        mean_z.append(float(np.vdot(chi, z * chi).real) * dz)
        currents.append(probe_current(weights, spectrum, hbar, mi,
                                      -0.5 * force * dt))
    return half_kick * chi, norms, mean_z, currents


def test_rows_match_the_one_dimensional_loop():
    """Row-wise transforms and broadcast phases give, bit for bit, what the
    1-D loop gives for each run alone."""
    rng = np.random.default_rng(5)
    specs = [random_cat(rng) for _ in range(3)]
    fields = [build_wavefunction(s, grid_for(s, 512)) for s in specs]
    params = [LinearPotentialParams(MassPair(m, m), g, mode) for m, g, mode
              in ((1.0, 1.0, GRAVITY), (2.5, 0.7, ACCELERATED_FRAME),
                  (0.6, 1.3, GRAVITY))]
    dts = [0.004, 0.003, 0.005]
    probes = [float(f.grid.points[300]) for f in fields]
    rows = split_step_evolve_many(fields, params, dts, 48, probe_zs=probes)
    for row, *run in zip(rows, fields, params, dts, [48] * 3, probes):
        psi, norms, mean_z, currents = one_dimensional_strang(*run)
        assert np.array_equal(row.final_field.amplitudes, psi)
        assert row.norms.tolist() == norms
        assert row.mean_z.tolist() == mean_z
        assert row.probe_current.tolist() == currents
