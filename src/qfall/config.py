"""INI-style experiment configuration: parsing, validation, defaults.

The config file is flat sectioned key-value text, chosen for
diff-friendliness: configs are the experiment record, and sweeps are
usually prepared by hand-editing copies. The parser tracks line numbers
so every complaint can name the offending key and line, and strict mode
rejects unknown keys with a nearest-name suggestion.

Sections, keys, value types and defaults all come from the canonical
record of a default :class:`ExperimentConfig`, so a field added to a
settings dataclass is parsed, strict-checked and listed in
`DEFAULT_CONFIG_TEXT` with no edit here.
"""

from __future__ import annotations

import difflib
import math
import re

from .core import MassPair, UnitSystem
from .errors import ConfigurationError, ParseError
from .experiments import (
    STATE_FAMILIES,
    ExperimentConfig,
    Particle,
    SolverSettings,
    SweepSettings,
)
from .states import CAT, GAUSSIAN, WavepacketSpec

__all__ = ["parse_config", "parse_config_text", "DEFAULT_CONFIG_TEXT"]

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_]+)\]$")
_PARTICLE_RE = re.compile(r"^particle(\d+)$")
# A comment starts at a '#' or ';' that opens the line or follows whitespace,
# so one inside a value (`dir = runs;2`) stays part of it.
_COMMENT_RE = re.compile(r"(?:^|\s)[#;]")

_KNOWN_KINDS = (CAT, *STATE_FAMILIES)
# The particle keys each kind does not read: the coefficients are the general
# cat's alone, and a Gaussian has no half-separation.
_COEFFICIENTS = ("c_plus_re", "c_plus_im", "c_minus_re", "c_minus_im")
_UNREAD = {**dict.fromkeys(STATE_FAMILIES, _COEFFICIENTS), CAT: (),
           GAUSSIAN: ("delta", *_COEFFICIENTS)}

# The section each settings dataclass is read from.
_SETTINGS = {"units": UnitSystem, "solver": SolverSettings,
             "sweep": SweepSettings}


def _sections(config: ExperimentConfig) -> dict[str, dict]:
    """The config file sections of `config`: its canonical record, with the
    top-level scalars under [experiment], plus the [output] keys."""
    record = config.canonical_record()
    sections = {f"particle{i}": particle
                for i, particle in enumerate(record.pop("particles"), 1)}
    sections.update((name, value) for name, value in record.items()
                    if isinstance(value, dict))
    sections["experiment"] = {key: value for key, value in record.items()
                              if not isinstance(value, dict)}
    sections["output"] = {"dir": config.output_dir, "threads": config.threads}
    return sections


def _text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_text(item) for item in value)
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)  # str() of a float round-trips


def _render(config: ExperimentConfig) -> str:
    """Config text listing every key that `config` reads (a particle only
    those of its kind), which parses back to `config`."""
    return "\n".join(
        f"[{name}]\n" + "".join(
            f"{key} = {_text(value)}\n" for key, value in values.items()
            if key not in _UNREAD.get(values.get("kind"), ()))
        for name, values in _sections(config).items())


# The particle of a config file without [particleN] sections.
_DEFAULT_PARTICLE = Particle(WavepacketSpec.gaussian(2.0, 1.0),
                             MassPair(1.0, 1.0))

# Each section's keys with their defaults, whose types the values take.
_SCHEMA = _sections(ExperimentConfig(particles=(_DEFAULT_PARTICLE,)))
_SCHEMA["particle"] = _SCHEMA.pop("particle1")

# Default experiment: an even cat against a width-matched Gaussian released
# from the same height at rest; matched trivially, with distinguishable
# arrival spreads. Works for every subcommand.
DEFAULT_CONFIG_TEXT = _render(ExperimentConfig(particles=(
    Particle(WavepacketSpec.male_cat(2.0, 1.0, 1.0), MassPair(1.0, 1.0)),
    _DEFAULT_PARTICLE)))


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_BOOLEANS = {"true": True, "yes": True, "1": True, "on": True,
             "false": False, "no": False, "0": False, "off": False}

# Value type -> (what the error message says was expected, reader).
_READERS = {
    bool: ("a boolean", lambda text: _BOOLEANS[text.lower()]),
    int: ("an integer", int),
    float: ("a number", _number),
    str: ("text", str),
}


class _Raw:
    """Parsed key-value store remembering source lines."""

    def __init__(self):
        self.sections: dict[str, dict[str, tuple[str, int]]] = {}

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, (default, None))[0]

    def line(self, section, key):
        return self.sections.get(section, {}).get(key, (None, None))[1]

    def values(self, section: str, defaults: dict) -> dict:
        """Every key of `defaults`, read from `section` as its default's type
        (a tuple default: comma-separated items of its first item's type)."""
        return {key: self._value(section, key, default)
                for key, default in defaults.items()}

    def _value(self, section, key, default):
        text = self.get(section, key)
        if text is None:
            return default
        listed = isinstance(default, tuple)
        kind = type(default[0]) if listed else type(default)
        expected, read = _READERS[kind]
        try:
            if listed:
                items = (item.strip() for item in text.split(","))
                return tuple(read(item) for item in items
                             if item or kind is not str)
            return read(text)
        except (KeyError, ValueError):
            raise ParseError(f"expected {expected}, got {text!r}", key=key,
                             line=self.line(section, key)) from None


def _scan(text: str, strict: bool) -> _Raw:
    raw = _Raw()
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT_RE.split(line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        header = _SECTION_RE.match(stripped)
        if header:
            section = header.group(1)
            family = "particle" if _PARTICLE_RE.match(section) else section
            if family not in _SCHEMA and strict:
                hint = difflib.get_close_matches(section, _SCHEMA, n=1)
                extra = f"; did you mean '[{hint[0]}]'?" if hint else ""
                raise ParseError(f"unknown section '{section}'{extra}",
                                 line=lineno)
            raw.sections.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}",
                             line=lineno)
        if section is None:
            raise ParseError("key before any [section] header", line=lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        family = "particle" if _PARTICLE_RE.match(section) else section
        known = _SCHEMA.get(family)
        if known is not None and key not in known:
            if strict:
                hint = difflib.get_close_matches(key, known, n=1)
                extra = f"; did you mean '{hint[0]}'?" if hint else ""
                raise ParseError(f"unknown key '{key}'{extra}",
                                 key=key, line=lineno)
            continue  # tolerated outside strict mode
        raw.sections[section][key] = (value, lineno)
    return raw


def _located(exc: ConfigurationError, raw: _Raw, section: str,
             keys) -> ParseError:
    """`exc`, raised by the values of `section`, as a ParseError naming its
    key and that key's line when the key is one of `keys`, else the
    section."""
    key = exc.key if exc.key in keys else section
    return ParseError(str(exc), key=key, line=raw.line(section, key))


def _particle(raw: _Raw, section: str, strict: bool) -> Particle:
    kind = raw.get(section, "kind", GAUSSIAN).lower()
    if kind not in _KNOWN_KINDS:
        hint = difflib.get_close_matches(kind, _KNOWN_KINDS, n=1)
        extra = f"; did you mean '{hint[0]}'?" if hint else ""
        raise ParseError(f"unknown state kind '{kind}'{extra}",
                         key="kind", line=raw.line(section, "kind"))
    unread = [key for key in _UNREAD[kind] if raw.get(section, key) is not None]
    if strict and unread:
        raise ParseError(f"kind '{kind}' does not read '{unread[0]}'",
                         key=unread[0], line=raw.line(section, unread[0]))
    defaults = dict(_SCHEMA["particle"])
    # The defaults a Gaussian record cannot state: two peaks default to a
    # unit half-separation, and a general cat to c+ = c- = 1.
    if kind != GAUSSIAN:
        defaults["delta"] = 1.0
    if kind == CAT:
        defaults["c_minus_re"] = 1.0
    values = dict(raw.values(section, defaults), kind=kind)
    try:
        spec = (WavepacketSpec.from_record(values) if kind == CAT else
                STATE_FAMILIES[kind](values["z0"], values["delta"],
                                     values["delta0"]))
        mass = MassPair(values["m_inertial"], values["m_gravitational"])
    except ConfigurationError as exc:
        raise _located(exc, raw, section, values) from exc
    return Particle(spec, mass)


def parse_config_text(text: str, strict: bool = False) -> ExperimentConfig:
    """Parse config text into a validated :class:`ExperimentConfig`.

    Missing keys take their documented defaults; the effective values are
    echoed into the experiment manifest via the config's canonical record.
    """
    raw = _scan(text, strict)

    settings = {}
    for name, settings_type in _SETTINGS.items():
        values = raw.values(name, _SCHEMA[name])
        try:
            settings[name] = settings_type(**values)
        except ConfigurationError as exc:
            raise _located(exc, raw, name, values) from exc

    labels = sorted((s for s in raw.sections if _PARTICLE_RE.match(s)),
                    key=lambda s: int(_PARTICLE_RE.match(s).group(1)))
    particles = (tuple(_particle(raw, label, strict) for label in labels)
                 or (_DEFAULT_PARTICLE,))

    unit = settings.pop("units")
    # The field strength defaults to the gravitational acceleration g.
    experiment = raw.values("experiment", dict(_SCHEMA["experiment"],
                                               field_strength=unit.g))
    output = raw.values("output", _SCHEMA["output"])
    try:
        return ExperimentConfig(particles=particles, unit=unit, **settings,
                                **experiment, output_dir=output["dir"],
                                threads=output["threads"])
    except ConfigurationError as exc:
        raise _located(exc, raw, "experiment", experiment) from exc


def parse_config(path, strict: bool = False) -> ExperimentConfig:
    """Read and parse a config file; see :func:`parse_config_text`."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, strict)
