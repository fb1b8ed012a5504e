import argparse
import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfall
from qfall import ParseError, parse_config, parse_config_text
from qfall import cli
from qfall.cli import main
from qfall.config import DEFAULT_CONFIG_TEXT
from conftest import EXTREME_CONFIGS, short_default

MINIMAL = """\
[particle1]
kind = gaussian
z0 = 2.0
delta0 = 1.0
"""

SMALL_DROP = """\
[particle1]
kind = male
z0 = 2.0
delta = 1.0
delta0 = 1.0

[particle2]
kind = gaussian
z0 = 2.0
delta0 = 1.0

[solver]
time_steps = 512
"""


# --- parsing ---------------------------------------------------------------

def test_minimal_config_gets_defaults():
    config = parse_config_text(MINIMAL)
    assert len(config.particles) == 1
    assert config.particles[0].spec.kind == "gaussian"
    assert config.solver.time_steps == 4096
    assert config.z_detector == 0.0
    assert config.field_strength == 1.0


def test_default_config_text_parses():
    config = parse_config_text(DEFAULT_CONFIG_TEXT, strict=True)
    assert len(config.particles) == 2
    assert config.particles[0].spec.kind == "cat"


def test_zero_width_is_a_parse_error():
    text = MINIMAL.replace("delta0 = 1.0", "delta0 = 0")
    with pytest.raises(ParseError, match="delta0 must be positive"):
        parse_config_text(text)


def test_unknown_key_suggestion_in_strict_mode():
    text = MINIMAL.replace("delta0 = 1.0", "detla0 = 1.0")
    with pytest.raises(ParseError) as excinfo:
        parse_config_text(text, strict=True)
    message = str(excinfo.value)
    assert "detla0" in message and "delta0" in message
    assert excinfo.value.line == 4
    # tolerated outside strict mode (falls back to the default)
    config = parse_config_text(text)
    assert config.particles[0].spec.delta0 == 1.0


def test_unknown_section_strict():
    text = MINIMAL + "\n[partcle2]\nkind = gaussian\n"
    with pytest.raises(ParseError, match="unknown section"):
        parse_config_text(text, strict=True)


def test_bad_number_names_key_and_line():
    text = MINIMAL.replace("z0 = 2.0", "z0 = two")
    with pytest.raises(ParseError) as excinfo:
        parse_config_text(text)
    assert excinfo.value.key == "z0"
    assert excinfo.value.line == 3


def test_unknown_kind_suggestion():
    text = MINIMAL.replace("kind = gaussian", "kind = gausian")
    with pytest.raises(ParseError, match="gaussian"):
        parse_config_text(text)


def test_malformed_line_reports_position():
    with pytest.raises(ParseError) as excinfo:
        parse_config_text("[particle1]\nkind gaussian\n")
    assert excinfo.value.line == 2


def test_key_outside_section():
    with pytest.raises(ParseError, match="before any"):
        parse_config_text("kind = gaussian\n")


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        parse_config(tmp_path / "absent.ini")


def test_digest_ignores_formatting_not_values(tmp_path):
    base = parse_config_text(SMALL_DROP)
    commented = parse_config_text("# a comment\n" + SMALL_DROP + "\n\n")
    assert base.digest() == commented.digest()
    moved = parse_config_text(SMALL_DROP.replace("z0 = 2.0", "z0 = 2.5", 1))
    assert base.digest() != moved.digest()


def test_cat_coefficients_from_record_keys():
    text = """\
[particle1]
kind = cat
z0 = 1.0
delta = 1.0
delta0 = 1.0
c_plus_re = 0.7071067811865475
c_plus_im = 0.0
c_minus_re = 0.0
c_minus_im = 0.7071067811865475
"""
    config = parse_config_text(text, strict=True)
    spec = config.particles[0].spec
    assert spec.c_minus.imag > 0 and spec.c_plus.imag == 0.0


# --- main ------------------------------------------------------------------

def test_main_sweep_writes_outputs(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "config digest" in out
    csvs = list(tmp_path.glob("sweep_*.csv"))
    manifests = list(tmp_path.glob("sweep_*.json"))
    assert len(csvs) == 1 and len(manifests) == 1
    header = csvs[0].read_text().splitlines()[0]
    assert header.startswith("axis,")
    manifest = json.loads(manifests[0].read_text())
    assert manifest["command"] == "sweep"
    assert manifest["digest"] in csvs[0].name


def test_main_sweep_reruns_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        assert main(["sweep", "--out", str(tmp_path / sub)]) == 0
    csv_a = next((tmp_path / "a").glob("*.csv")).read_bytes()
    csv_b = next((tmp_path / "b").glob("*.csv")).read_bytes()
    assert csv_a == csv_b


@pytest.mark.parametrize("command", ["drop", "ep-test", "decohere"])
def test_main_solver_reruns_are_byte_identical(tmp_path, capsys, command):
    # the planned grids are not powers of two (1,152 to 1,920 points here)
    config_path = tmp_path / "drop.ini"
    config_path.write_text(SMALL_DROP)
    tables = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main([command, "--config", str(config_path), "--out",
                     str(out)]) == 0
        tables.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    assert len(tables[0]) >= 3 and tables[0] == tables[1]


def test_main_drop_with_config(tmp_path, capsys):
    config_path = tmp_path / "drop.ini"
    config_path.write_text(SMALL_DROP)
    code = main(["drop", "--config", str(config_path), "--out",
                 str(tmp_path / "out"), "--strict"])
    assert code == 0
    names = {p.name.split("_", 1)[0] for p in (tmp_path / "out").iterdir()}
    assert names == {"drop"}
    assert any(p.name.endswith("particle1.csv")
               for p in (tmp_path / "out").iterdir())


def test_main_snapshot_flag(tmp_path):
    config_path = tmp_path / "drop.ini"
    config_path.write_text(SMALL_DROP)
    code = main(["drop", "--config", str(config_path), "--out",
                 str(tmp_path / "out"), "--snapshots", "strided:256"])
    assert code == 0
    [stem] = (tmp_path / "out" / "snapshots").iterdir()
    # steps 0, 256 and 512 of each particle's gravity run
    assert sorted((d.name, len(list(d.glob("snapshot_*.csv"))))
                  for d in stem.iterdir()) == [
        ("particle1_gravity", 3), ("particle2_gravity", 3)]


def snapshot_run(tmp_path, command, text):
    """Run `command` with snapshots; returns (snapshot dirs, files on disk,
    files the manifest lists), paths relative to the output directory."""
    config_path = tmp_path / "run.ini"
    config_path.write_text(text)
    out = tmp_path / "out"
    code = main([command, "--config", str(config_path), "--out", str(out),
                 "--snapshots", "strided:256"])
    assert code == 0
    manifest = json.loads(next(out.glob("*.json")).read_text())
    [stem] = (out / "snapshots").iterdir()
    assert stem.name == f"{manifest['experiment']}_{manifest['digest']}"
    dirs = {d.name for d in stem.iterdir()}
    on_disk = {p.relative_to(out).as_posix()
               for p in (out / "snapshots").rglob("*") if p.is_file()}
    return dirs, on_disk, manifest["snapshots"]


def test_ep_test_snapshots_one_directory_per_solve(tmp_path, capsys):
    # each run is its own closed-form solve and writes its own snapshots
    dirs, on_disk, listed = snapshot_run(tmp_path, "ep-test", SMALL_DROP)
    assert dirs == {"particle1_gravity", "particle1_accelerated_frame",
                    "particle2_gravity", "particle2_accelerated_frame",
                    "control_accelerated_frame"}
    assert on_disk and sorted(on_disk) == sorted(listed)


def test_decohere_dumps_its_snapshots(tmp_path, capsys):
    dirs, on_disk, listed = snapshot_run(tmp_path, "decohere", SMALL_DROP)
    assert dirs == {"pure", "branch_plus", "branch_minus"}
    assert on_disk and sorted(on_disk) == sorted(listed)


def shared_drops(out, *runs):
    """Run `drop` into `out` once per argument list of `runs`; returns each
    run's manifest's snapshot list, once the lists are checked to be
    disjoint and, together, the files on disk."""
    listed = []
    for args in runs:
        known = set(out.glob("*.json"))
        assert main(["drop", *args, "--out", str(out)]) == 0
        [manifest] = set(out.glob("*.json")) - known
        listed.append(set(json.loads(manifest.read_text())["snapshots"]))
    assert not set.intersection(*listed)
    assert set.union(*listed) == {p.relative_to(out).as_posix()
                                  for p in (out / "snapshots").rglob("*")
                                  if p.is_file()}
    return listed


def test_two_configs_keep_their_snapshots_apart(tmp_path, capsys):
    """Two configs' snapshots in one output directory: each manifest lists
    files of its own, and the two lists together are the files on disk."""
    heavy = tmp_path / "heavy.ini"
    heavy.write_text(DEFAULT_CONFIG_TEXT.replace(
        "m_inertial = 1.0", "m_inertial = 16.0").replace(
        "m_gravitational = 1.0", "m_gravitational = 16.0"))
    first, second = shared_drops(
        tmp_path / "out", ["--snapshots", "strided:512"],
        ["--config", str(heavy), "--snapshots", "strided:1024"])
    assert (len(first), len(second)) == (2 * 9, 2 * 5)


def test_two_snapshot_formats_keep_their_snapshots_apart(tmp_path, capsys):
    """The snapshot format is part of the config digest, so one config's
    csv and npz snapshots in one output directory are each listed by the
    manifest of their own run."""
    csv, npz = shared_drops(
        tmp_path / "out", *(["--snapshots", "strided:2048",
                             "--snapshot-format", fmt]
                            for fmt in ("csv", "npz")))
    assert len(csv) == len(npz) == 2 * 3
    assert {Path(name).suffix for name in csv} == {".csv"}
    assert {Path(name).suffix for name in npz} == {".npz"}


@pytest.mark.parametrize("flags, suffix", [
    ([], ".npz"), (["--snapshot-format", "csv"], ".csv")],
    ids=["config", "flag"])
def test_snapshot_keys_from_the_config_file(tmp_path, capsys, flags, suffix):
    """The config's `[solver]` snapshot keys apply without `--snapshots`,
    and `--snapshot-format` overrides the config's format."""
    config_path = tmp_path / "drop.ini"
    config_path.write_text(
        SMALL_DROP + "snapshot_stride = 512\nsnapshot_format = npz\n")
    assert main(["drop", "--config", str(config_path), "--out",
                 str(tmp_path / "out"), *flags]) == 0
    assert {p.suffix for p in (tmp_path / "out" / "snapshots").rglob("*.*")
            } == {suffix}


def test_snapshots_none_turns_off_the_config_stride(tmp_path, capsys):
    """An explicit `--snapshots none` overrides the config's stride."""
    config_path = tmp_path / "drop.ini"
    config_path.write_text(DEFAULT_CONFIG_TEXT.replace(
        "snapshot_stride = 0", "snapshot_stride = 2048"))
    assert main(["drop", "--config", str(config_path), "--out",
                 str(tmp_path / "out"), "--snapshots", "none"]) == 0
    assert json.loads(next((tmp_path / "out").glob("*.json")).read_text())[
        "snapshots"] == []
    assert not (tmp_path / "out" / "snapshots").exists()


def test_manifest_lists_no_snapshots_by_default(tmp_path, capsys):
    config_path = tmp_path / "drop.ini"
    config_path.write_text(SMALL_DROP)
    assert main(["drop", "--config", str(config_path), "--out",
                 str(tmp_path)]) == 0
    assert json.loads(next(tmp_path.glob("*.json")).read_text())[
        "snapshots"] == []


def test_main_infeasible_match_exits_3(tmp_path, capsys):
    text = SMALL_DROP.replace("kind = male", "kind = yurke_stoler") \
        + "\n[experiment]\nauto_match = true\n"
    config_path = tmp_path / "bad.ini"
    config_path.write_text(text)
    code = main(["drop", "--config", str(config_path), "--out",
                 str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InfeasibleTargetError"
    assert err["v_max"] == 0.0


def test_main_unmatched_pair_exits_2(tmp_path, capsys):
    text = SMALL_DROP.replace("kind = male", "kind = yurke_stoler")
    config_path = tmp_path / "bad.ini"
    config_path.write_text(text)
    code = main(["drop", "--config", str(config_path), "--out",
                 str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "not matched" in err["message"]


@pytest.mark.parametrize("extra,command", EXTREME_CONFIGS)
def test_main_extreme_finite_values_exit_2(tmp_path, capsys, extra, command):
    config_path = tmp_path / "extreme.ini"
    config_path.write_text(short_default(extra))
    code = main([command, "--config", str(config_path), "--out",
                 str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] in ("ConfigurationError", "ParseError")
    assert not (tmp_path / "out").exists()


EXTREMES = {param.id: param.values[0] for param in EXTREME_CONFIGS}


def merged_extremes(ids) -> str:
    """The config text of the EXTREME_CONFIGS changes `ids` together, each
    section once with the keys of every change (a later value wins)."""
    sections = {}
    for text in map(EXTREMES.get, ids):
        for line in text.splitlines():
            if line.startswith("["):
                keys = sections.setdefault(line, {})
            else:
                key, value = line.split(" = ")
                keys[key] = value
    return "\n".join(header + "".join(f"\n{key} = {value}"
                                      for key, value in keys.items())
                     for header, keys in sections.items())


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(st.sampled_from(sorted(EXTREMES)), min_size=2,
                    max_size=3, unique=True),
       command=st.sampled_from(("drop", "ep-test", "decohere")))
def test_several_extreme_keys_exit_0_or_2(tmp_path_factory, ids, command):
    """Two or three of the extreme one-key changes at once: each runner
    exits 0, or exits 2 with one ConfigurationError or ParseError record
    and no output directory."""
    work = tmp_path_factory.mktemp("extremes")
    config_path = work / "extreme.ini"
    config_path.write_text(short_default(merged_extremes(ids)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config_path), "--out",
                     str(work / "out")])
    if code == 0:
        return
    assert code == 2
    assert json.loads(err.getvalue())["error"] in ("ConfigurationError",
                                                   "ParseError")
    assert not (work / "out").exists()


def test_main_record_stride_above_the_record_exits_2(tmp_path, capsys):
    # too few record times is a config error, not a solver error (exit 3)
    config_path = tmp_path / "stride.ini"
    config_path.write_text(DEFAULT_CONFIG_TEXT.replace(
        "record_stride = 1", "record_stride = 5000"))
    code = main(["drop", "--config", str(config_path), "--out",
                 str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert "record_stride 5000" in err["message"]
    assert "time_steps 4096" in err["message"]
    assert not (tmp_path / "out").exists()


def test_main_time_steps_above_its_cap_names_the_key_and_line(tmp_path,
                                                               capsys):
    config_path = tmp_path / "huge.ini"
    config_path.write_text(DEFAULT_CONFIG_TEXT.replace(
        "time_steps = 4096", "time_steps = 1000000000000000"))
    line = DEFAULT_CONFIG_TEXT.splitlines().index("time_steps = 4096") + 1
    code = main(["drop", "--config", str(config_path), "--out",
                 str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["message"].endswith(f"(key 'time_steps', line {line})")


def test_main_bad_snapshot_flag(tmp_path, capsys):
    code = main(["sweep", "--out", str(tmp_path), "--snapshots", "all"])
    assert code == 2
    capsys.readouterr()


def test_main_bad_config_path(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "nope.ini")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"


def test_main_ep_test(tmp_path, capsys):
    config_path = tmp_path / "ep.ini"
    config_path.write_text("""\
[particle1]
kind = gaussian
z0 = 2.0
delta0 = 1.0

[solver]
time_steps = 512
""")
    code = main(["ep-test", "--config", str(config_path), "--out",
                 str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "max_identity_l1 = 0.0" in out
    assert "passed = True" in out


def test_main_validate(monkeypatch, capsys):
    """One line per check, and exit 4 when any fails; the real checks run
    in test_validate."""
    monkeypatch.setattr(cli.validate_module, "CHECKS", [
        ("passing stub", lambda: (True, "gap 0.0")),
        ("failing stub", lambda: (False, "gap 1.0"))])
    assert main(["validate"]) == cli.EXIT_CHECK == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["PASS  passing stub  gap 0.0",
                         "FAIL  failing stub  gap 1.0"]


# --- one parser per process ----------------------------------------------------

@pytest.fixture
def counted_parsers(monkeypatch):
    """Count the top-level parsers built while the test runs, starting from
    an empty parser cache, and log the namespace of each `parse_args`."""
    built, parsed = [], []
    init, parse_args = (argparse.ArgumentParser.__init__,
                        argparse.ArgumentParser.parse_args)

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "qfall":
            built.append(self)

    def logged_parse_args(self, *args, **kwargs):
        parsed.append(parse_args(self, *args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        logged_parse_args)
    cli._build_parser.cache_clear()
    yield built, parsed
    cli._build_parser.cache_clear()


def test_back_to_back_calls_share_one_parser_and_no_arguments(
        tmp_path, capsys, counted_parsers):
    """A call's flags do not leak into the next call, which sees every
    default, and a bad flag after good calls still exits 2 in argparse."""
    built, parsed = counted_parsers
    config_path = tmp_path / "drop.ini"
    config_path.write_text(SMALL_DROP.replace("time_steps = 512",
                                              "time_steps = 64"))
    common = ["--config", str(config_path), "--out"]
    assert main(["drop", *common, str(tmp_path / "a"), "--snapshots",
                 "strided:8", "--threads", "2", "--strict"]) == 0
    assert main(["drop", *common, str(tmp_path / "b")]) == 0
    assert main(["ep-test", *common, str(tmp_path / "c")]) == 0
    first, *later = parsed
    assert (first.snapshots, first.threads, first.strict) == (
        "strided:8", 2, True)
    for args in later:
        assert (args.snapshots, args.threads, args.strict) == (
            None, None, False)
    for sub, snapshots in (("a", 9 * 2), ("b", 0), ("c", 0)):
        manifest = json.loads(next((tmp_path / sub).glob("*.json"))
                              .read_text())
        assert len(manifest["snapshots"]) == snapshots
        assert manifest["threads"] == (2 if sub == "a" else 1)
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["drop", "--no-such-flag"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    """A fresh interpreter that imports `qfall.cli` builds no parser."""
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counted(self, *args, **kwargs):\n"
             "    built.append(1)\n"
             "    init(self, *args, **kwargs)\n"
             "argparse.ArgumentParser.__init__ = counted\n"
             "import qfall.cli\n"
             "print(len(built))\n")
    src = str(Path(qfall.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.stdout == "0\n"


@pytest.mark.skipif(importlib.util.find_spec("_sha2") is None
                    and importlib.util.find_spec("_sha256") is None,
                    reason="no builtin SHA-256 module in this Python")
def test_experiment_runs_load_neither_openssl_nor_numpy_ma(tmp_path):
    """A fresh interpreter that runs `drop`, `ep-test`, `decohere` and
    `sweep` never imports `hashlib` (OpenSSL) or `numpy.ma`."""
    probe = ("import sys\n"
             "from qfall.cli import main\n"
             "for command in ('drop', 'ep-test', 'decohere', 'sweep'):\n"
             "    assert main([command, '--out', sys.argv[1]]) == 0\n"
             "loaded = [name for name in ('hashlib', '_hashlib', 'numpy.ma')\n"
             "          if name in sys.modules]\n"
             "print(loaded, file=sys.stderr)\n")
    src = str(Path(qfall.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                            check=True, capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.stderr == "[]\n"


# --- package layout ------------------------------------------------------------

SRC = Path(qfall.__file__).resolve().parent


def test_every_public_name_resolves():
    """Each name in the `__all__` of each qfall module exists (the
    benchmark's tracer reads them with getattr), and each name the
    acceptance suite imports from `qfall` is an attribute of `qfall`."""
    for info in pkgutil.iter_modules([str(SRC)]):
        module = importlib.import_module(f"qfall.{info.name}")
        assert [name for name in getattr(module, "__all__", ())
                if not hasattr(module, name)] == [], info.name
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "qfall"
                for alias in node.names]
    assert imported
    assert [name for name in imported if not hasattr(qfall, name)] == []


def qfall_imports(path: Path) -> set:
    """The qfall modules that the source file `path` imports anywhere in it,
    by `from .x import` or `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module.split(".")[0]} if node.module
                      else {alias.name for alias in node.names})
    return found


def test_the_closed_forms_never_import_the_oracle():
    """The import closure of the closed-form modules, read from their source
    (``qfall/__init__`` re-exports the oracle, so importing would not
    tell), excludes `validate`; and the FFT and the grid class appear in
    `validate` alone (``__init__`` only re-exports the class)."""
    imports = {path.stem: qfall_imports(path) for path in SRC.glob("*.py")}
    closure, todo = set(), ["core", "states", "prepare", "evolve", "tof",
                            "experiments", "config"]
    while todo:
        if (name := todo.pop()) not in closure:
            closure.add(name)
            todo += imports[name]
    assert "validate" not in closure and "errors" in closure
    for path in SRC.glob("*.py"):
        text = path.read_text()
        assert "from qfall" not in text and "import qfall" not in text
        if path.name != "validate.py":
            assert "np.fft" not in text and "numpy.fft" not in text, path.name
        if path.name not in ("validate.py", "__init__.py"):
            assert "SpatialGrid" not in text, path.name
    assert qfall.SpatialGrid is qfall.validate.SpatialGrid
