import math

import numpy as np
import pytest

from qfall import (
    ConfigurationError,
    GridField,
    MassPair,
    UnitSystem,
    WavepacketSpec,
    boundary_probability,
    build_wavefunction,
    make_grid,
    norm,
)
from qfall.validate import fft_size
from conftest import largest_prime_factor


def test_make_grid_spacing():
    grid = make_grid(-10.0, 10.0, 16)
    assert grid.spacing == 1.25


def test_make_grid_rejects_non_power_of_two():
    with pytest.raises(ConfigurationError):
        make_grid(0.0, 1.0, 15)


def test_fft_size_is_the_next_accepted_size():
    sizes = [n for n in range(2, 5000, 2) if largest_prime_factor(n) <= 5]
    for need in (0.5, 2, 15.2, 1023.5, 1025, 4096, 4097):
        assert fft_size(need) == min(n for n in sizes if n >= need)
    huge = fft_size(1e15 + 1)  # found without stepping through the gap
    assert 1e15 < huge < 1.07e15 and 30**64 % huge == 0


@pytest.mark.parametrize("n_points", [1080, 5400])
def test_make_grid_accepts_five_smooth_sizes(n_points):
    grid = make_grid(-10.0, 17.0, n_points)
    assert grid.points.shape == grid.wavenumbers.shape == (n_points,)
    assert grid.k_max == math.pi * n_points / 27.0


# 2 * 7, 2 * 7 * 73, and the odd 3**5 * 5
@pytest.mark.parametrize("n_points", [14, 1022, 1215])
def test_make_grid_rejects_odd_sizes_and_prime_factors_above_five(n_points):
    with pytest.raises(ConfigurationError, match="even"):
        make_grid(0.0, 1.0, n_points)


def test_make_grid_rejects_inverted_bounds():
    with pytest.raises(ConfigurationError):
        make_grid(5.0, -5.0, 64)


def test_make_grid_rejects_tiny_grids():
    with pytest.raises(ConfigurationError):
        make_grid(0.0, 1.0, 8)


def test_nyquist_wavenumber():
    grid = make_grid(-40.0, 40.0, 4096)
    assert math.isclose(grid.k_max, math.pi * 4096 / 80.0, rel_tol=1e-15)
    assert math.isclose(np.max(np.abs(grid.wavenumbers)), grid.k_max,
                        rel_tol=1e-12)


def test_spacing_times_points_is_length():
    grid = make_grid(-7.0, 13.0, 256)
    assert grid.spacing * grid.n_points == grid.length


def test_norm_constant_field():
    grid = make_grid(0.0, 4.0, 64)
    field = GridField(grid, np.full(64, 0.5 + 0.0j))  # 1/sqrt(L), L = 4
    assert math.isclose(norm(field), 1.0, abs_tol=1e-14)


def test_norm_zero_field():
    grid = make_grid(0.0, 4.0, 64)
    assert norm(GridField(grid, np.zeros(64, dtype=complex))) == 0.0


def test_norm_of_built_gaussian():
    grid = make_grid(-20.0, 20.0, 1024)
    field = build_wavefunction(WavepacketSpec.gaussian(0.0, 1.0), grid)
    assert abs(norm(field) - 1.0) <= 1e-12


def test_norm_global_phase_invariant():
    grid = make_grid(-20.0, 20.0, 1024)
    field = build_wavefunction(WavepacketSpec.gaussian(0.0, 1.0), grid)
    rotated = GridField(grid, field.amplitudes * np.exp(0.7j))
    assert math.isclose(norm(field), norm(rotated), rel_tol=1e-15)


def test_grid_field_is_frozen():
    grid = make_grid(-20.0, 20.0, 1024)
    field = build_wavefunction(WavepacketSpec.gaussian(0.0, 1.0), grid)
    with pytest.raises(ValueError):
        field.amplitudes[0] = 1.0
    with pytest.raises(ValueError):
        grid.points[0] = 0.0


def test_grid_field_shape_check():
    grid = make_grid(-1.0, 1.0, 64)
    with pytest.raises(ConfigurationError):
        GridField(grid, np.zeros(65, dtype=complex))


def test_boundary_probability_centered_packet():
    grid = make_grid(-20.0, 20.0, 1024)
    field = build_wavefunction(WavepacketSpec.gaussian(0.0, 1.0), grid)
    assert boundary_probability(field) < 1e-30


def test_mass_pair_validation():
    with pytest.raises(ConfigurationError):
        MassPair(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        MassPair(1.0, -2.0)
    assert MassPair(3.0, 1.5).ratio == 2.0


def test_unit_system_validation():
    with pytest.raises(ConfigurationError):
        UnitSystem(hbar=0.0)
    with pytest.raises(ConfigurationError):
        UnitSystem(g=-1.0)
    assert (UnitSystem().hbar, UnitSystem().g) == (1.0, 1.0)


def test_unit_system_from_si():
    # cesium-atom-like reference scales
    unit = UnitSystem.from_si(m_ref_si=2.2e-25, delta0_ref_si=1e-6)
    assert unit.hbar == 1.0 and unit.si_mass == 2.2e-25
    assert unit.g > 0.0
    assert math.isclose(unit.si_time,
                        2.2e-25 * 1e-12 / 1.054571817e-34, rel_tol=1e-12)
    # g expressed in derived units reproduces g_SI = L / T^2
    g_si = unit.g * unit.si_length / unit.si_time**2
    assert math.isclose(g_si, 9.80665, rel_tol=1e-12)
