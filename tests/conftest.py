import numpy as np
import pytest

from qfall import (
    DEFAULT_CONFIG_TEXT,
    MassPair,
    WavepacketSpec,
    make_grid,
)
from qfall.validate import fft_size, random_cat

EPS_RATIO = (np.e - 1.0) / (np.e + 1.0)  # epsilon^2 of the even cat at delta = delta0


@pytest.fixture(scope="session")
def wide_grid():
    return make_grid(-40.0, 40.0, 4096)


@pytest.fixture
def gaussian_at_two():
    return WavepacketSpec.gaussian(2.0, 1.0)


@pytest.fixture
def male_cat():
    return WavepacketSpec.male_cat(2.0, 1.0, 1.0)


@pytest.fixture
def female_cat():
    return WavepacketSpec.female_cat(2.0, 1.0, 1.0)


@pytest.fixture
def yurke_stoler():
    return WavepacketSpec.yurke_stoler(2.0, 1.0, 1.0)


@pytest.fixture
def unit_mass():
    return MassPair(1.0, 1.0)


def largest_prime_factor(n: int) -> int:
    """By trial division, independent of the grid-size code under test."""
    p = 2
    while p * p <= n:
        if n % p:
            p += 1
        else:
            n //= p
    return n


def grid_for(spec: WavepacketSpec, n_points: int = 4096):
    """Grid holding the spec with wide spectral margins."""
    half = spec.delta + 14.0 * spec.delta0
    return make_grid(spec.z0 - half, spec.z0 + half, n_points)


def padded(grid, pad: float):
    """`grid` widened by `pad` on each side at (about) its spacing."""
    return make_grid(grid.z_min - pad, grid.z_max + pad,
                     fft_size((grid.length + 2.0 * pad) / grid.spacing))


def short_default(extra: str = "") -> str:
    """The default config text at 64 time steps, with `extra` appended."""
    return (DEFAULT_CONFIG_TEXT.replace("time_steps = 4096", "time_steps = 64")
            + "\n" + extra + "\n")


# One-key changes to `short_default` whose extreme but finite values once
# escaped as a bare OverflowError or ZeroDivisionError from the formulas,
# each with the subcommand that reached the formula. particle1 is the
# default's even (male) cat.
EXTREME_CONFIGS = [
    pytest.param("[particle1]\ndelta0 = 1e-200", "ep-test", id="delta0"),
    pytest.param("[units]\nhbar = 1e200", "ep-test", id="hbar"),
    pytest.param("[particle1]\nz0 = 1e300\n[particle2]\nz0 = 1e300", "drop",
                 id="z0"),
    pytest.param("[experiment]\nfield_strength = 1e-300", "ep-test",
                 id="field_strength"),
    pytest.param("[experiment]\nfield_strength = 1e-155", "ep-test",
                 id="run_length"),
    pytest.param("[particle1]\nm_inertial = 1e308\nm_gravitational = 1e308",
                 "ep-test", id="heavy"),
    pytest.param("[particle1]\nm_inertial = 1e-300\nm_gravitational = 1e-300",
                 "ep-test", id="light"),
]
