import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfall import (
    STATE_FAMILIES,
    ExperimentConfig,
    MassPair,
    ParseError,
    Particle,
    SolverSettings,
    SweepSettings,
    UnitSystem,
    WavepacketSpec,
    parse_config_text,
)
from qfall.config import DEFAULT_CONFIG_TEXT, _render

# The default config text as it was written out by hand, with the keys since
# removed: `auto` (with its section, [grid]), `seed`, `m_ref` and
# `delta0_ref`.
FORMER_DEFAULT_TEXT = """\
[units]
hbar = 1.0
g = 1.0
m_ref = 1.0
delta0_ref = 1.0

[particle1]
kind = male
z0 = 2.0
delta = 1.0
delta0 = 1.0
m_inertial = 1.0
m_gravitational = 1.0

[particle2]
kind = gaussian
z0 = 2.0
delta0 = 1.0
m_inertial = 1.0
m_gravitational = 1.0

[grid]
auto = true

[solver]
time_steps = 4096
record_stride = 1
snapshot_stride = 0
window_sigmas = 8.0

[experiment]
z_detector = 0.0
field_strength = 1.0
accel_factor = 2.0
auto_match = false
match_tol = 1e-6

[sweep]
m_g_values = 1, 2, 4, 8, 16
ratio_values = 1, 1.78, 3.16, 5.62, 10
state_kinds = gaussian, male, female, yurke_stoler

[output]
dir = out
seed = 0
threads = 1
"""


def test_default_text_keeps_the_former_default():
    assert (parse_config_text(DEFAULT_CONFIG_TEXT, strict=True)
            == parse_config_text(FORMER_DEFAULT_TEXT))


def test_seed_is_an_unknown_key():
    """Strict mode rejects each removed key; the keys of the removed [grid]
    section, `auto` and `max_points`, with their section. Without --strict
    they are ignored."""
    removed = ("[grid]", "auto", "seed", "m_ref", "delta0_ref")
    for key in removed[2:]:  # each removed key alone in the former text
        text = "".join(line for line in FORMER_DEFAULT_TEXT.splitlines(True)
                       if line.split(" = ")[0].strip() not in removed
                       or line.startswith(f"{key} = "))
        with pytest.raises(ParseError, match=f"unknown key '{key}'"):
            parse_config_text(text, strict=True)
    default = parse_config_text(DEFAULT_CONFIG_TEXT)
    for line in ("auto = true", "max_points = 65536"):
        text = f"{DEFAULT_CONFIG_TEXT}\n[grid]\n{line}\n"
        with pytest.raises(ParseError, match="unknown section 'grid'"):
            parse_config_text(text, strict=True)
        assert parse_config_text(text) == default


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key,template", [
    ("particle1", "z0", "{}"),
    ("particle1", "m_inertial", "{}"),
    ("sweep", "m_g_values", "1, {}, 4"),
])
def test_non_finite_number_is_a_parse_error(value, section, key, template):
    text = f"[{section}]\n{key} = {template.format(value)}\n"
    with pytest.raises(ParseError, match="expected a number") as excinfo:
        parse_config_text(text)
    assert excinfo.value.key == key
    assert excinfo.value.line == 2


# (section, key, value, message): one value that each config section's class
# rejects after the value has parsed.
REJECTED_SETTINGS = [
    ("solver", "time_steps", "10", "time_steps must be between 16"),
    ("solver", "record_stride", "1000",
     "record_stride 1000 is above 682, .* of time_steps 4096"),
    ("solver", "snapshot_stride", "-1", "snapshot_stride must be >= 0"),
    ("solver", "snapshot_format", "hdf5", "unknown snapshot format 'hdf5'"),
    ("solver", "window_sigmas", "0", "window_sigmas must be positive"),
    ("units", "hbar", "0", "hbar must be positive"),
    ("units", "g", "-1", "g must be nonnegative"),
    ("sweep", "state_kinds", "gaussian, gausian",
     "unknown sweep state kind 'gausian'"),
    ("particle1", "m_inertial", "0", "m_inertial must be positive"),
    ("experiment", "field_strength", "0", "field_strength must be positive"),
]


@pytest.mark.parametrize("section,key,value,message", [
    pytest.param(*case, id=case[1]) for case in REJECTED_SETTINGS])
def test_a_rejected_setting_names_its_key_and_line(section, key, value,
                                                   message):
    """A value that its section's class rejects is reported with its key and
    the line it was read from, not with its section."""
    text = (f"[experiment]\nz_detector = 0.0\n\n[{section}]\n# line 5\n"
            f"{key} = {value}\n")
    with pytest.raises(ParseError, match=message) as excinfo:
        parse_config_text(text)
    assert (excinfo.value.key, excinfo.value.line) == (key, 6)
    assert str(excinfo.value).endswith(f"(key '{key}', line 6)")


def test_a_derived_scale_names_its_section():
    """A particle's mass ratio is no key of its own, so the section is
    named."""
    text = "[particle1]\nm_inertial = 1e-100\nm_gravitational = 1e100\n"
    with pytest.raises(ParseError, match="mass ratio") as excinfo:
        parse_config_text(text)
    assert (excinfo.value.key, excinfo.value.line) == ("particle1", None)


def test_defaults_that_depend_on_other_values():
    config = parse_config_text("[units]\ng = 2.5\n"
                               "[particle1]\nkind = cat\n"
                               "[particle2]\nkind = male\n")
    assert config.field_strength == 2.5
    assert config.particles[0].spec == WavepacketSpec.cat(2.0, 1.0, 1.0, 1, 1)
    assert config.particles[1].spec == WavepacketSpec.male_cat(2.0, 1.0, 1.0)


@pytest.mark.parametrize("text,expected", [
    ("[output]\ndir = runs;2\n", "runs;2"),
    ("[output]\ndir = out ; note\n", "out"),
    ("# first\n[output]\n; second\n  # third\ndir = runs#2\n", "runs#2"),
])
def test_comment_starts_at_line_start_or_after_whitespace(text, expected):
    assert parse_config_text(text, strict=True).output_dir == expected


def test_inline_comment_after_a_number():
    config = parse_config_text("[particle1]\nz0 = 2.5 ; note\n", strict=True)
    assert config.particles[0].spec.z0 == 2.5


@pytest.mark.parametrize("kind,key", [("male", "c_plus_re"),
                                      ("gaussian", "delta"),
                                      ("gaussian", "c_minus_im")])
def test_strict_rejects_a_key_the_kind_does_not_read(kind, key):
    read = f"[particle1]\nkind = {kind}\nz0 = 2.5\n"
    text = read + f"{key} = 5\n"
    with pytest.raises(ParseError, match=f"kind '{kind}' does not read") \
            as excinfo:
        parse_config_text(text, strict=True)
    assert (excinfo.value.key, excinfo.value.line) == (key, 4)
    assert parse_config_text(text) == parse_config_text(read, strict=True)


@st.composite
def particles(draw):
    kind = draw(st.sampled_from(("cat", *STATE_FAMILIES)))
    z0, delta0 = draw(st.floats(-5.0, 5.0)), draw(st.floats(0.2, 3.0))
    delta = draw(st.floats(0.5, 3.0)) * delta0
    if kind == "cat":
        c_plus, c_minus = (draw(st.floats(0.3, 1.0))
                           * complex(math.cos(phase), math.sin(phase))
                           for phase in draw(st.tuples(st.floats(0.0, 6.3),
                                                       st.floats(0.0, 6.3))))
        spec = WavepacketSpec.cat(z0, delta, delta0, c_plus, c_minus)
    else:
        spec = STATE_FAMILIES[kind](z0, delta, delta0)
    return Particle(spec, MassPair(draw(st.floats(0.1, 100.0)),
                                   draw(st.floats(0.1, 100.0))))


value_lists = st.lists(st.floats(0.1, 100.0), min_size=1,
                       max_size=6).map(tuple)

configs = st.builds(
    ExperimentConfig,
    particles=st.lists(particles(), min_size=1, max_size=3).map(tuple),
    unit=st.builds(UnitSystem, hbar=st.floats(0.1, 10.0),
                   g=st.floats(0.0, 10.0)),
    field_strength=st.floats(0.1, 10.0),
    accel_factor=st.floats(0.0, 5.0),
    z_detector=st.floats(-5.0, 5.0),
    # a record keeps at least 8 times: time_steps > 6 record_stride
    solver=st.integers(1, 64).flatmap(lambda stride: st.builds(
        SolverSettings, time_steps=st.integers(max(16, 6 * stride + 1), 10**5),
        record_stride=st.just(stride), snapshot_stride=st.integers(0, 64),
        snapshot_format=st.sampled_from(("csv", "npz")),
        window_sigmas=st.floats(0.5, 20.0))),
    sweep=st.builds(SweepSettings, m_g_values=value_lists,
                    ratio_values=value_lists,
                    state_kinds=st.lists(
                        st.sampled_from(list(STATE_FAMILIES)),
                        max_size=4).map(tuple)),
    auto_match=st.booleans(),
    match_tol=st.floats(1e-12, 1e-3),
    threads=st.integers(1, 8),
    output_dir=st.text("abc_-./0123456789", min_size=1, max_size=12),
)


@settings(max_examples=40, deadline=None)
@given(config=configs)
def test_rendered_config_parses_back(config):
    parsed = parse_config_text(_render(config), strict=True)
    assert parsed == config
    assert parsed.digest() == config.digest()
