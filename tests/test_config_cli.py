import csv
import json
from pathlib import Path

import numpy as np
import pytest

from noiseimaging.cli import main
from noiseimaging.config import FIELDS, ConfigError, RunConfig, config_text, load_config

from config_files import write_config

R_REF = 0.2532843602293450


def run_cli(args):
    return main(args)


class TestConfigFile:
    def test_round_trip_is_lossless(self, tmp_path):
        cfg = RunConfig(seed=777, angles_deg=(0.0, 1.25, 3.5), lock_noise=0.015,
                        out_dir="results", font_dir="", weight_map="")
        path = tmp_path / "run.cfg"
        write_config(cfg, path)
        loaded = load_config(path)
        for name in (name for fields in FIELDS.values() for name, _ in fields):
            a, b = getattr(cfg, name), getattr(loaded, name)
            if name == "r":
                assert np.isnan(a) == np.isnan(b)
            else:
                assert a == b, name

    def test_round_trip_with_explicit_r(self, tmp_path):
        cfg = RunConfig(r=0.31415926535)
        path = tmp_path / "run.cfg"
        write_config(cfg, path)
        assert config_text(load_config(path)) == config_text(cfg)

    def test_saved_file_is_stable_bytes(self, tmp_path):
        cfg = RunConfig()
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        write_config(cfg, a)
        write_config(load_config(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_key_names_field(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[source]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="source.bogus"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[things]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unparsable_value_names_field(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[acquisition]\nn_series = many\n")
        with pytest.raises(ConfigError, match="acquisition.n_series"):
            load_config(path)

    def test_key_given_twice_names_field_and_lines(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("[scene]\ngrid_size = 64\ngrid_size = 32\n")
        with pytest.raises(ConfigError, match="given twice, on lines 2 and 3") as exc:
            load_config(path)
        assert exc.value.field == "scene.grid_size"
        # a second [scene] header does not start the count over
        path.write_text("[scene]\ncell_size = 2\n[source]\nr = 0.1\n[scene]\ncell_size = 4\n")
        with pytest.raises(ConfigError, match="scene.cell_size: given twice, on lines 2 and 6"):
            load_config(path)

    @pytest.mark.parametrize("blank", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"],
                             ids=["vt", "ff", "fs", "gs", "rs"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_error_names_the_line_an_editor_shows(self, tmp_path, blank, eol):
        # inside a line, a separator that str.splitlines() breaks at is no
        # line end: the bad header is on line 3 of 3
        path = tmp_path / "bad.cfg"
        path.write_bytes(("[source]%sr = 0.5%s%s[bad]%s" % (eol, blank, eol, eol)).encode())
        with pytest.raises(ConfigError, match="unknown section 'bad'") as exc:
            load_config(path)
        assert exc.value.field == "line 3"

    @pytest.mark.parametrize("ends", [["\r\n"], ["\r"], ["\r\n", "\r"]],
                             ids=["crlf", "cr", "mixed"])
    def test_any_line_end_reads_as_its_lf_copy(self, tmp_path, ends):
        # the shipped desk config: comments, blank lines and r = nan, so the
        # loads are compared by their text (nan != nan in ==)
        lf = Path(__file__).resolve().parents[1] / "configs" / "desk_sweep.cfg"
        lines = lf.read_text(encoding="ascii").split("\n")
        text = lines[0]
        for k, line in enumerate(lines[1:]):
            text += ends[k % len(ends)] + line
        path = tmp_path / "ends.cfg"
        path.write_bytes(text.encode("ascii"))
        assert b"\n" not in path.read_bytes().replace(b"\r\n", b"")
        assert config_text(load_config(path)) == config_text(load_config(lf))

    # finite values out of range, each named by its own field
    @pytest.mark.parametrize("name,value,field", [
        ("cell_size", 0, "scene.cell_size"),
        ("t_probe", 1.5, "source.t_probe"),
        ("r", -0.1, "source.r"),
        ("t_probe", 1.2, "source.t_probe"),
        ("t_conj", -0.1, "source.t_conj"),
        ("lock_noise", -0.01, "source.lock_noise"),
        ("electronic_floor", -1.0, "source.electronic_floor"),
        ("power_per_pixel", 0.0, "source.power_per_pixel"),
    ])
    def test_validation_reports_field(self, name, value, field):
        with pytest.raises(ConfigError) as exc:
            RunConfig(**{name: value}).validate()
        assert exc.value.field == field

    def test_acquisition_bug_is_not_reported_as_a_config_error(self, monkeypatch):
        # only an invalid acquisition is a config error; a fault in the code
        # that checks it surfaces as itself
        def broken(cfg):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr("noiseimaging.traces.check_acquisition", broken)
        with pytest.raises(ZeroDivisionError):
            RunConfig().validate()

    def test_resolve_r_prefers_explicit(self):
        cfg = RunConfig(r=0.4, squeezing_db_detected=2.2)
        assert cfg.resolve_r() == 0.4

    def test_shipped_example_configs_validate(self):
        base = Path(__file__).resolve().parents[1] / "configs"
        for name in ("desk_sweep.cfg", "alphabet_recognition.cfg"):
            cfg = load_config(base / name)
            cfg.validate()
            assert cfg.resolve_r() > 0

    def test_missing_weight_map_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="scene.weight_map"):
            RunConfig(weight_map=str(tmp_path / "nope.txt")).validate()

    def test_weight_map_shape_checked(self, tmp_path):
        path = tmp_path / "w.txt"
        np.savetxt(path, np.ones((4, 4)))
        cfg = RunConfig(grid_size=8, cell_size=1, weight_map=str(path))
        with pytest.raises(ConfigError, match="scene.weight_map"):
            cfg.validate()

    def test_weight_map_loads(self, tmp_path):
        path = tmp_path / "w.txt"
        np.savetxt(path, np.full((8, 8), 2.0))
        cfg = RunConfig(grid_size=8, cell_size=1, weight_map=str(path))
        assert cfg.validate().weights.shape == (8, 8)
        # parsed once: validate and the sweep share one array
        assert cfg.weights is cfg.weights

    def test_resolve_r_from_db(self):
        assert RunConfig().resolve_r() == pytest.approx(R_REF, abs=1e-10)


class TestCalibrateCommand:
    def test_lossless_reference(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert run_cli(["calibrate", "--db", "2.2", "--out", str(out)]) == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert payload["r"] == pytest.approx(R_REF, abs=1e-4)
        assert payload["detected_db"] == pytest.approx(-2.2, abs=1e-9)
        assert abs(payload["measured_db_over_series"] + 2.2) < 0.05
        # the calibrated config reloads with the solved r baked in
        cal = load_config(out / "calibrated.cfg")
        assert cal.r == pytest.approx(payload["r"], abs=1e-12)

    def test_zero_db(self, tmp_path):
        out = tmp_path / "cal0"
        assert run_cli(["calibrate", "--db", "0", "--out", str(out)]) == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert payload["r"] == 0.0

    def test_lossy_balanced(self, tmp_path):
        cfgfile = tmp_path / "lossy.cfg"
        write_config(RunConfig(t_probe=0.912, t_conj=0.912), cfgfile)
        out = tmp_path / "cal2"
        assert run_cli(["calibrate", "--db", "2.2", "--config", str(cfgfile),
                        "--out", str(out)]) == 0
        payload = json.loads((out / "calibration.json").read_text())
        expected = -0.5 * np.log((10**-0.22 - (1 - 0.912)) / 0.912)
        assert payload["r"] == pytest.approx(expected, abs=1e-9)

    def test_key_given_twice_fails_with_field(self, tmp_path, capsys):
        cfgfile = tmp_path / "twice.cfg"
        cfgfile.write_text("[scene]\ngrid_size = 64\ngrid_size = 32\n")
        out = tmp_path / "x"
        code = run_cli(["calibrate", "--db", "2.2", "--config", str(cfgfile), "--out", str(out)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"]["command"] == "calibrate"
        assert payload["error"]["field"] == "scene.grid_size"
        assert "lines 2 and 3" in payload["error"]["message"]
        assert not out.exists()

    def test_unachievable_target_fails_with_bound(self, tmp_path, capsys):
        cfgfile = tmp_path / "deep.cfg"
        write_config(RunConfig(t_probe=0.5, t_conj=0.5), cfgfile)
        code = run_cli(["calibrate", "--db", "10", "--config", str(cfgfile),
                        "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"]["command"] == "calibrate"
        assert "-3.01" in payload["error"]["message"]


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep")
    cfgfile = base / "run.cfg"
    write_config(RunConfig(grid_size=256, cell_size=1, n_series=3,
                           samples_per_point=100, seed=9), cfgfile)
    out = base / "out"
    assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    return cfgfile, out


@pytest.fixture(scope="module")
def alphabet_out(tmp_path_factory):
    base = tmp_path_factory.mktemp("alphabet")
    cfgfile = base / "run.cfg"
    write_config(RunConfig(
        squeezing_db_detected=2.2, t_probe=0.44, t_conj=0.44, lock_noise=0.02,
        electronic_floor=1400.0, cell_size=8, n_series=3,
        samples_per_point=100, seed=11,
    ), cfgfile)
    out = base / "out"
    assert run_cli(["alphabet", "--mask", "Z", "--config", str(cfgfile),
                    "--out", str(out)]) == 0
    return out


class TestSweepCommand:
    def test_row_count_contract(self, sweep_out):
        _, out = sweep_out
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# schema: noiseimaging.sweep.v1")
        assert len(lines) == 2 + 15 * 3 * 2  # comment + header + rows

    def test_noise_db_column_is_ten_log10_of_noise(self, sweep_out):
        _, out = sweep_out
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()[1:]))
        assert len(rows) == 15 * 3 * 2
        for row in rows:
            noise, db = float(row["noise_snl"]), float(row["noise_db"])
            # both columns are rounded to 12 significant digits, a relative
            # 5e-12 each; 10 log10 turns noise_snl's into 10/ln(10) * 5e-12 dB
            bound = 10.0 / np.log(10.0) * 5e-12 + 5e-12 * abs(db) + 1e-15
            assert abs(db - 10.0 * np.log10(noise)) <= bound, row
            assert row["noise_db"] == format(db, ".12g")

    def test_rerun_is_byte_identical(self, sweep_out, tmp_path):
        cfgfile, out = sweep_out
        out2 = tmp_path / "again"
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out2)]) == 0
        for name in ("sweep.csv", "fits.json", "summary.json"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_echoes_resolved_config(self, sweep_out):
        _, out = sweep_out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seed"] == 9
        assert summary["config"]["n_series"] == 3
        assert summary["config"]["r_resolved"] == pytest.approx(R_REF, abs=1e-9)
        assert set(summary["techniques"]) == {"classical", "quantum"}

    def test_seed_override_changes_outputs(self, sweep_out, tmp_path):
        cfgfile, out = sweep_out
        out3 = tmp_path / "seeded"
        assert run_cli(["sweep", "--config", str(cfgfile), "--seed", "10",
                        "--out", str(out3)]) == 0
        assert (out / "sweep.csv").read_bytes() != (out3 / "sweep.csv").read_bytes()

    def test_invalid_config_fails_with_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scene]\ncell_size = 0\n")
        code = run_cli(["sweep", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"]["field"] == "scene.cell_size"


class TestAlphabetCommand:
    def test_one_row_per_letter_and_technique(self, alphabet_out):
        lines = (alphabet_out / "alphabet.csv").read_text().splitlines()
        assert lines[0].startswith("# schema: noiseimaging.alphabet.v1")
        assert len(lines) == 2 + 26 * 2

    def test_ranking_selects_mask_letter(self, alphabet_out):
        payload = json.loads((alphabet_out / "ranking.json").read_text())
        assert payload["rankings"]["quantum"]["best"] == "Z"
        assert payload["rankings"]["quantum"]["sub_snl_letters"] == ["Z"]
        assert payload["rankings"]["classical"]["best"] == "Z"

    def test_exclusions_match_floor_failures(self, alphabet_out):
        payload = json.loads((alphabet_out / "ranking.json").read_text())
        assert [e["letter"] for e in payload["excluded"]] == ["I"]
        rows = (alphabet_out / "alphabet.csv").read_text().splitlines()[2:]
        invalid = [r.split(",")[0] for r in rows if r.split(",")[2] == "0"]
        assert set(invalid) == {"I"}

    def test_unknown_mask_letter(self, tmp_path, capsys):
        code = run_cli(["alphabet", "--mask", "5", "--out", str(tmp_path / "o")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert "'5'" in payload["error"]["message"]


class TestUsageErrors:
    @pytest.mark.parametrize("argv, command, field, message", [
        (["sweep", "--seed", "abc"], "sweep", "--seed", "invalid int value: 'abc'"),
        (["calibrate", "--db", "deep"], "calibrate", "--db", "invalid float value: 'deep'"),
        (["calibrate", "--db"], "calibrate", "--db", "expected one argument"),
        (["sweep", "--bogus", "1"], None, None, "unrecognized arguments: --bogus 1"),
        (["alphabet"], "alphabet", None, "required: --mask"),
        (["calibrate"], "calibrate", None, "required: --db"),
        (["survey"], None, "command", "invalid choice: 'survey'"),
        ([], None, None, "required: command"),
    ], ids=["seed", "db", "db-value-missing", "unknown-option", "mask-missing",
            "db-missing", "unknown-command", "command-missing"])
    def test_usage_error_is_one_json_line(self, argv, command, field, message, tmp_path,
                                          capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["command"] == command
        assert error.get("field") == field
        assert message in error["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, options", [
        (["-h"], ["--config", "--seed", "--out", "--mask", "--db"]),
        (["sweep", "--help"], ["--config", "--seed", "--out"]),
        (["alphabet", "-h"], ["--config", "--seed", "--out", "--mask"]),
        (["calibrate", "--help"], ["--config", "--seed", "--out", "--db"]),
    ], ids=["top", "sweep", "alphabet", "calibrate"])
    def test_help_keeps_its_text(self, argv, options, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: noiseimaging")
        assert captured.err == ""
        assert [option for option in options if option not in captured.out] == []
