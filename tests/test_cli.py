import json

import pytest

from qfall import ParseError, parse_config, parse_config_text
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
    assert config.grid.max_points == 2**16
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
    snap_dirs = list((tmp_path / "out" / "snapshots").iterdir())
    assert snap_dirs
    assert any(d.glob("snapshot_*.csv") for d in snap_dirs)


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
    dirs = {d.name for d in (out / "snapshots").iterdir()}
    on_disk = {p.relative_to(out).as_posix()
               for p in (out / "snapshots").rglob("*") if p.is_file()}
    return dirs, on_disk, manifest["snapshots"]


def test_ep_test_snapshots_one_directory_per_solve(tmp_path, capsys):
    # each accelerated-frame run shares its gravity run's solve and snapshots
    dirs, on_disk, listed = snapshot_run(tmp_path, "ep-test", SMALL_DROP)
    assert dirs == {"particle1_gravity", "particle2_gravity",
                    "control_accelerated_frame"}
    assert on_disk and sorted(on_disk) == sorted(listed)


def test_decohere_dumps_its_snapshots(tmp_path, capsys):
    dirs, on_disk, listed = snapshot_run(tmp_path, "decohere", SMALL_DROP)
    assert dirs == {"pure", "branch_plus", "branch_minus"}
    assert on_disk and sorted(on_disk) == sorted(listed)


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


def test_main_validate(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
