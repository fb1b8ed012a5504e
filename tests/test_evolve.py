import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfall import (
    ACCELERATED_FRAME,
    GRAVITY,
    STATE_FAMILIES,
    BoundaryBreachError,
    ConfigurationError,
    DomainError,
    GridField,
    LinearPotentialParams,
    MassPair,
    MomentSet,
    PreconditionError,
    WavepacketSpec,
    analytic_moments,
    arrival_current,
    build_wavefunction,
    closed_form_field,
    crossing_spread,
    default_timestep,
    dump_snapshots,
    exact_wavefunction,
    make_grid,
    moment_evolution,
    norm,
    numeric_moments,
    plan_domain,
    split_step_evolve,
)

from qfall import DEFAULT_UNITS, validate
from qfall.evolve import _branch_sum
from qfall.states import CAT, normalization_constant
from qfall.validate import probe_current, probe_weights

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
    assert str(excinfo.value).endswith(f"(step {excinfo.value.step_index})")


def test_nyquist_guard():
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    field0 = build_wavefunction(spec, make_grid(-20.0, 20.0, 1024))
    # a long strong kick demands far more momentum than the grid resolves
    with pytest.raises(ConfigurationError):
        split_step_evolve(field0, params_g(g=100.0), 0.01, 1000)


def test_nyquist_headroom_is_the_guarded_quantity(monkeypatch):
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    field0 = build_wavefunction(spec, make_grid(-20.0, 20.0, 1024))
    headroom = split_step_evolve(field0, params_g(), 0.01, 100,
                                 record_stride=100).nyquist_headroom
    assert headroom > validate.NYQUIST_MARGIN
    monkeypatch.setattr(validate, "NYQUIST_MARGIN", headroom)
    split_step_evolve(field0, params_g(), 0.01, 100, record_stride=100)
    monkeypatch.setattr(validate, "NYQUIST_MARGIN", headroom * (1.0 + 1e-12))
    with pytest.raises(ConfigurationError, match="margin"):
        split_step_evolve(field0, params_g(), 0.01, 100, record_stride=100)


def test_peak_edge_probability_is_the_guarded_quantity():
    """A run reports the largest edge probability its guard saw: the same
    drop reaches the edges of a tight grid more than those of a wide one,
    both within the guard's tolerance; and a packet falling away from the
    top edge keeps its early peak, far above its final edge probability."""
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    tight, wide = (split_step_evolve(
        build_wavefunction(spec, make_grid(-half, half, 1024)), params_g(),
        0.01, 200, record_stride=200).peak_edge_probability
        for half in (14.0, 25.0))
    assert 0.0 < wide < tight <= validate.BOUNDARY_TOL
    field0 = build_wavefunction(WavepacketSpec.gaussian(6.0, 1.0),
                                make_grid(-20.0, 14.0, 1024))
    half, full = (split_step_evolve(field0, params_g(4.0, 4.0), 0.01, n,
                                    record_stride=n) for n in (100, 200))
    assert half.peak_edge_probability == full.peak_edge_probability
    assert full.peak_edge_probability > 100.0 * validate.boundary_probability(
        full.final_field)


def test_default_timestep():
    assert default_timestep(4.096) == 0.001
    with pytest.raises(PreconditionError):
        default_timestep(0.0)


def test_snapshot_dumps(tmp_path):
    spec = WavepacketSpec.gaussian(2.0, 1.0)
    snapshots = []
    for i, t in enumerate((0.0, 0.2, 0.4)):
        z = np.linspace(-10.0 - i, 10.0 + i, 101 + 10 * i)
        snapshots.append((t, z, closed_form_field(spec, params_g(), t, z)))
    csv_paths = dump_snapshots(snapshots, tmp_path / "csv", fmt="csv")
    assert [p.name for p in csv_paths] == [f"snapshot_{i:06d}.csv"
                                           for i in range(3)]
    for path, (t, z, psi) in zip(csv_paths, snapshots):
        lines = path.read_text().splitlines()
        assert lines[0] == "t,z,re_psi,im_psi"
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        assert np.array_equal(rows[:, 0], np.full(len(z), t))
        assert np.array_equal(rows[:, 1], z)
        assert np.array_equal(rows[:, 2] + 1j * rows[:, 3], psi)
    npz_paths = dump_snapshots(iter(snapshots), tmp_path / "npz", fmt="npz")
    assert [p.name for p in npz_paths] == [f"snapshot_{i:06d}.npz"
                                           for i in range(3)]
    for path, (t, z, psi) in zip(npz_paths, snapshots):
        with np.load(path) as saved:
            assert sorted(saved.files) == ["psi", "t", "z"]
            assert saved["t"] == t
            assert np.array_equal(saved["z"], z)
            assert np.array_equal(saved["psi"], psi)
    with pytest.raises(ConfigurationError):
        dump_snapshots(snapshots, tmp_path, fmt="hdf5")


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(snapshots=st.lists(st.tuples(
    finite, st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(finite, min_size=n, max_size=n),
        st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n)))), min_size=1, max_size=3))
def test_snapshots_read_back_bit_for_bit(tmp_path_factory, snapshots):
    """Any finite (t, z, psi) comes back from either format bit for bit,
    signed zeros included."""
    snapshots = [(t, np.array(z), np.array(psi, dtype=complex))
                 for t, (z, psi) in snapshots]
    out = tmp_path_factory.mktemp("round_trip")
    for path, (t, z, psi) in zip(dump_snapshots(snapshots, out, "csv"),
                                 snapshots):
        t_col, z_col, re, im = (np.loadtxt(path, delimiter=",", skiprows=1,
                                           ndmin=2).T)
        assert t_col.tobytes() == np.full(len(z), t).tobytes()
        assert z_col.tobytes() == z.tobytes()
        assert re.tobytes() == psi.real.tobytes()
        assert im.tobytes() == psi.imag.tobytes()
    for path, (t, z, psi) in zip(dump_snapshots(snapshots, out, "npz"),
                                 snapshots):
        with np.load(path) as saved:
            assert saved["t"].tobytes() == np.float64(t).tobytes()
            assert saved["z"].tobytes() == z.tobytes()
            assert saved["psi"].tobytes() == psi.tobytes()


def test_exact_rejects_negative_time():
    spec = WavepacketSpec.gaussian(0.0, 1.0)
    with pytest.raises(PreconditionError):
        exact_wavefunction(spec, params_g(), -0.1, grid_for(spec, 256))


def test_exact_default_cat_is_guarded_and_exact_on_its_planned_domain():
    """The default male cat at the end of its drop: on its planned domain
    `exact_wavefunction` equals `closed_form_field` to 1e-12. On the
    1,152-point domain a 9 sigma_z pad planned for it, the free
    intermediate holds |psi| = 7.6e-8 at an edge and the field missed by
    6.7e-8, so the guard raises."""
    spec = WavepacketSpec.male_cat(2.0, 1.0, 1.0)
    t_cross, sigma = crossing_spread(analytic_moments(spec), params_g(), 0.0)
    t_final = t_cross + 1.08 * 8.0 * sigma
    grid = plan_domain([(spec, params_g())], 0.0, t_final)
    exact = exact_wavefunction(spec, params_g(), t_final, grid).amplitudes
    field = closed_form_field(spec, params_g(), t_final, grid.points)
    assert np.max(np.abs(field - exact)) <= 1e-12
    wrapping = make_grid(-79.24138938257084, 48.44560906949767, 1152)
    with pytest.raises(DomainError, match="reaches the boundary"):
        exact_wavefunction(spec, params_g(), t_final, wrapping)


def test_csv_snapshots_are_written_one_at_a_time(tmp_path):
    """The writer takes the next snapshot only after the previous file is on
    disk, so a lazy source holds one field at a time; npz files too."""
    z = np.linspace(-5.0, 5.0, 64)
    psi = closed_form_field(WavepacketSpec.gaussian(0.0, 1.0), params_g(),
                            0.0, z)

    def lazy(fmt):
        for i in range(4):
            if i:
                assert (tmp_path / f"snapshot_{i - 1:06d}.{fmt}").is_file()
            assert not (tmp_path / f"snapshot_{i:06d}.{fmt}").exists()
            yield 0.5 * i, z, psi

    for fmt in ("csv", "npz"):
        paths = dump_snapshots(lazy(fmt), tmp_path, fmt)
        assert [p.name for p in paths] == [f"snapshot_{i:06d}.{fmt}"
                                           for i in range(4)]


def test_record_costs_no_transform(monkeypatch):
    """Each step is one transform pair. On top of them a run takes the
    initial spectrum (which also feeds the Nyquist check) and the inverse
    transform of each of its two full moment sets, however often it
    records."""
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


# --- closed-form current against the split-step oracle -------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mass=st.floats(0.5, 16.0),
       mode=st.sampled_from((GRAVITY, ACCELERATED_FRAME)))
@example(seed=4294967295, mass=0.5, mode=GRAVITY)
def test_arrival_current_matches_the_split_step_probe(seed, mass, mode):
    """Random cats of mass 0.5 to 16, released from z0 in [-2, 2] over a
    detector at 0, on their planned grids: the closed-form current equals
    the solver's probe current to 1e-11. The pinned light cat missed by
    1.13e-10 on a grid planned with a 9 sigma_z pad; it agrees to 1.6e-14."""
    spec = random_cat(np.random.default_rng(seed))
    params = LinearPotentialParams(MassPair(mass, mass), 1.0, mode)
    grid = plan_domain([(spec, params)], 0.0, 3.0)
    run = split_step_evolve(build_wavefunction(spec, grid), params, 3.0 / 256,
                            256, probe_z=0.0, record_stride=3)
    current = arrival_current(spec, params, 0.0, run.times)
    assert np.max(np.abs(current - run.probe_current)) <= 1e-11


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(
    sorted(STATE_FAMILIES)), mass=st.floats(0.5, 16.0),
    fraction=st.floats(0.0, 1.0),
    mode=st.sampled_from((GRAVITY, ACCELERATED_FRAME)))
@example(seed=6993, kind="yurke_stoler", mass=0.5, fraction=1.0, mode=GRAVITY)
@example(seed=1133024, kind="female", mass=9.0, fraction=1.0, mode=GRAVITY)
def test_closed_form_field_matches_the_exact_propagator(seed, kind, mass,
                                                        fraction, mode):
    """Each state kind, of mass 0.5 to 16 and released from z0 in [1, 4] over
    a detector at 0, at any t of its drop's run: the closed-form field equals
    `exact_wavefunction` to 1e-12 on the planned domain (above the default
    2^16 points for some long drops). The pinned wide light cat wrapped by
    2.2e-7 on a domain planned with a 9 sigma_z pad.

    The pinned heavy female cat (t = 22.56, 49,152 points) needs both
    routes to round t^3 alike: one ulp apart, as a Python float and a 0-d
    array round it, is a global phase offset of 1.46e-11 rad and a 5.2e-12
    gap. Both take the phase from `evolve._galilean_phase`; the gap is
    8.0e-15."""
    rng = np.random.default_rng(seed)
    delta0 = rng.uniform(0.6, 1.6)
    spec = STATE_FAMILIES[kind](rng.uniform(1.0, 4.0),
                                rng.uniform(0.3, 2.5) * delta0, delta0)
    params = LinearPotentialParams(MassPair(mass, mass), 1.0, mode)
    m0 = analytic_moments(spec)
    t_cross, sigma = crossing_spread(m0, params, 0.0)
    t_final = t_cross + 1.08 * 8.0 * sigma
    grid = plan_domain([(spec, params)], 0.0, t_final, max_points=2**18)
    t = fraction * t_final
    exact = exact_wavefunction(spec, params, t, grid).amplitudes
    field = closed_form_field(spec, params, t, grid.points)
    assert np.max(np.abs(field - exact)) <= 1e-12


def test_arrival_current_of_a_gaussian_ignores_c_minus():
    spec = WavepacketSpec.gaussian(2.0, 1.0)
    odd = WavepacketSpec("gaussian", 2.0, 0.0, 1.0, 1.0, 0.5j)
    times = np.linspace(0.0, 4.0, 9)
    assert np.array_equal(arrival_current(spec, params_g(), 0.0, times),
                          arrival_current(odd, params_g(), 0.0, times))


def plain_branch_sum(spec, params, t, z):
    """`evolve._branch_sum` with a fresh array for each operation: the
    reference its in-place products must equal bit for bit."""
    lo, hi = spec.peak_centers()
    branches = [(lo, spec.c_plus)] + [(hi, spec.c_minus)] * (spec.kind == CAT)
    phi = dphi = 0.0
    with np.errstate(all="ignore"):
        s2 = (spec.delta0**2
              + 1j * DEFAULT_UNITS.hbar * t / params.mass.m_inertial)
        x0 = z + 0.5 * params.g_eff * t**2
        for center, coeff in branches:
            x = x0 - center
            exponent = -x * x / (2.0 * s2)
            branch = coeff * np.exp(exponent, out=np.zeros_like(exponent),
                                    where=exponent.real > -800.0)
            phi, dphi = phi + branch, dphi - x / s2 * branch
        return (normalization_constant(spec) * spec.delta0 / np.sqrt(s2)
                * np.array([phi, dphi]))


def test_branch_sum_matches_the_plain_reference():
    """Bit for bit on the shapes its callers pass: an array of times at one
    height (the current; also of 1 time), one time over an array of heights
    (the field), and a column of times against a row of heights. A scalar
    time and height takes 1-element arrays, within 1e-14 of the reference's
    scalar arithmetic."""
    rng = np.random.default_rng(5)
    for kind in ("gaussian", "cat") * 20:
        spec = (WavepacketSpec.gaussian(rng.uniform(-2.0, 2.0), 1.0)
                if kind == "gaussian" else random_cat(rng))
        params = params_g(*10.0 ** rng.uniform(-1.0, 3.0, size=2),
                          rng.uniform(0.0, 3.0),
                          (GRAVITY, ACCELERATED_FRAME)[rng.integers(2)])
        times = np.linspace(0.0, rng.uniform(0.5, 30.0),
                            int(rng.integers(2, 3000)))
        z = np.linspace(-30.0, 10.0, int(rng.integers(2, 2000)))
        t_one = np.asarray(rng.uniform(0.0, 30.0))
        z_one = rng.uniform(-20.0, 0.0)
        for t, at in ((times, z_one), (times[-1:], z_one), (t_one, z),
                      (times[:5, None], z[:7])):
            got = _branch_sum(spec, params, t, at, DEFAULT_UNITS)
            assert [a.tobytes() for a in got] == [
                b.tobytes() for b in plain_branch_sum(spec, params, t, at)]
        got = _branch_sum(spec, params, t_one, np.asarray(z_one),
                          DEFAULT_UNITS)
        assert [np.ndim(a) for a in got] == [0, 0]
        assert np.allclose(got, plain_branch_sum(spec, params, t_one, z_one),
                           rtol=1e-14, atol=0.0)


# --- checks and bit-for-bit agreement of solo runs ---------------------------

@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("flaw,error", [
    ("norm", PreconditionError), ("nyquist", ConfigurationError),
    ("probe", ConfigurationError), ("dt", PreconditionError),
    ("n_steps", PreconditionError), ("record_stride", PreconditionError)])
def test_each_row_is_checked_before_the_loop(seed, flaw, error):
    """A run of a random cat (seeded by `seed`) with one flaw in its field,
    field strength, probe, dt, step count or stride is rejected, naming the
    flaw, before it takes a step."""
    spec = random_cat(np.random.default_rng(seed))
    field0 = build_wavefunction(spec, grid_for(spec, 1024))
    run = dict(initial=field0, params=params_g(), dt=0.01, n_steps=1000,
               probe_z=None, record_stride=1000)
    run.update({
        "norm": {"initial": GridField(field0.grid, 0.5 * field0.amplitudes)},
        "nyquist": {"params": params_g(g=100.0)},
        "probe": {"probe_z": field0.grid.z_max},
        "dt": {"dt": 0.0},
        "n_steps": {"n_steps": -1},
        "record_stride": {"record_stride": 0}}[flaw])
    with pytest.raises(error, match={"nyquist": "margin"}.get(flaw, flaw)):
        split_step_evolve(**run)


def assert_same_run(a, b):
    """Bitwise equality of two runs' records, moments and final fields."""
    for name in ("times", "norms", "mean_z", "probe_current"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.initial_moments == b.initial_moments
    assert a.final_moments == b.final_moments
    assert np.array_equal(a.final_field.amplitudes, b.final_field.amplitudes)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mass=st.floats(0.5, 4.0),
       record_stride=st.integers(1, 8),
       n_points=st.sampled_from([256, 512, 1024]))
def test_gravity_and_accelerated_frame_rows_are_identical(
        seed, mass, record_stride, n_points):
    """With m_i = m_g, gravity and the accelerated frame are one Hamiltonian:
    their solo runs agree bit for bit."""
    spec = random_cat(np.random.default_rng(seed))
    grid = grid_for(spec, n_points)
    field0 = build_wavefunction(spec, grid)
    grav, accel = (split_step_evolve(
        field0, LinearPotentialParams(MassPair(mass, mass), 1.0, mode), 0.004,
        8 * record_stride, probe_z=float(grid.points[n_points // 2]),
        record_stride=record_stride) for mode in (GRAVITY, ACCELERATED_FRAME))
    assert_same_run(grav, accel)


def one_dimensional_strang(field0, params, dt, n_steps, probe_z):
    """The fused-kick Strang loop of one run, written plainly: (final psi,
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
    """The solver's in-place transforms and buffers give, bit for bit, what
    the plain loop gives, for runs of either mode."""
    rng = np.random.default_rng(5)
    for m, g, mode, dt in ((1.0, 1.0, GRAVITY, 0.004),
                           (2.5, 0.7, ACCELERATED_FRAME, 0.003),
                           (0.6, 1.3, GRAVITY, 0.005)):
        spec = random_cat(rng)
        field0 = build_wavefunction(spec, grid_for(spec, 512))
        run = (field0, LinearPotentialParams(MassPair(m, m), g, mode), dt, 48,
               float(field0.grid.points[300]))
        solo = split_step_evolve(*run[:4], probe_z=run[4])
        psi, norms, mean_z, currents = one_dimensional_strang(*run)
        assert np.array_equal(solo.final_field.amplitudes, psi)
        assert solo.norms.tolist() == norms
        assert solo.mean_z.tolist() == mean_z
        assert solo.probe_current.tolist() == currents
