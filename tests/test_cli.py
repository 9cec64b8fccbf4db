"""Command-line interface behavior and exit codes."""

import pytest

from pairsim import cli, parse_config, reference_preset
from pairsim.cli import EXIT_CONFIG, EXIT_RUNTIME, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_preset_prints_parseable_config(capsys):
    code, out, _ = run_cli(capsys, "preset")
    assert code == 0
    assert parse_config(out) == reference_preset()


def test_preset_writes_file(tmp_path, capsys):
    target = tmp_path / "preset.cfg"
    code, _, _ = run_cli(capsys, "preset", "--out", str(target))
    assert code == 0
    assert parse_config(target.read_text()) == reference_preset()


@pytest.fixture
def preset_file(tmp_path, capsys):
    target = tmp_path / "preset.cfg"
    main(["preset", "--out", str(target)])
    capsys.readouterr()
    return str(target)


def test_run_prints_report_and_exports(preset_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "run", "--config", preset_file,
                           "--trials", "20000", "--seed", "5",
                           "--out", str(out_dir))
    assert code == 0
    assert "schema = correlation_report_v1" in out
    for name in ("hist_11.csv", "hist_22.csv", "hist_12.csv", "hist_12b.csv",
                 "report.txt", "config.txt", "manifest.json"):
        assert (out_dir / name).exists(), name
    assert not (out_dir / "events.csv").exists()


def test_run_keep_events(preset_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, "run", "--config", preset_file,
                         "--trials", "5000", "--out", str(out_dir),
                         "--keep-events")
    assert code == 0
    assert (out_dir / "events.csv").exists()


def test_run_set_override_applied(preset_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, "run", "--config", preset_file,
                         "--trials", "2000", "--out", str(out_dir),
                         "--set", "p_excitation=0.333")
    assert code == 0
    cfg = parse_config((out_dir / "config.txt").read_text())
    assert cfg.p_excitation == 0.333


def test_run_rejects_unknown_override(preset_file, capsys):
    code, _, err = run_cli(capsys, "run", "--config", preset_file,
                           "--trials", "1000", "--set", "detuning=5")
    assert code == 2
    assert "unknown key" in err


def test_run_rejects_out_of_bound_override(preset_file, capsys):
    code, _, err = run_cli(capsys, "run", "--config", preset_file,
                           "--trials", "1000", "--set", "retrieval_eff=1.3")
    assert code == 2
    assert "retrieval_eff" in err


def test_run_rejects_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("source_model = quantum_tms\nwhat is this\n")
    code, _, err = run_cli(capsys, "run", "--config", str(bad))
    assert code == 2
    assert "line 2" in err


def test_sweep_prints_table(preset_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "sweep", "--config", preset_file,
                           "--param", "delay_dt", "--values", "0,2e-6",
                           "--trials", "10000", "--out", str(tmp_path / "sw"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("value,")
    assert len([l for l in lines if not l.startswith("#")]) == 3
    assert (tmp_path / "sw" / "sweep_delay_dt.csv").exists()


def test_sweep_empty_values(preset_file, capsys):
    code, out, _ = run_cli(capsys, "sweep", "--config", preset_file,
                           "--param", "delay_dt", "--values", ",")
    assert code == 0
    assert out.splitlines()[0].startswith("value,")
    assert len(out.splitlines()) == 1


def test_sweep_unknown_parameter(preset_file, capsys):
    code, _, err = run_cli(capsys, "sweep", "--config", preset_file,
                           "--param", "detuning", "--values", "1,2")
    assert code == 2
    assert "unknown config parameter" in err


def test_oracle_report(preset_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "oracle", "--config", preset_file,
                           "--out", str(tmp_path / "or"))
    assert code == 0
    assert "schema = correlation_report_v1" in out
    assert "rate_stokes_hz = 220.0" in out
    assert (tmp_path / "or" / "oracle_patterns.csv").exists()
    assert (tmp_path / "or" / "oracle_report.txt").exists()


def test_compare_zscore_table(preset_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "compare", "--config", preset_file,
                           "--trials", "50000", "--seed", "3",
                           "--out", str(tmp_path / "cmp"))
    assert code == 0
    assert out.splitlines()[0] == "quantity,mc,oracle,sigma_mc,z,flagged"
    assert "pattern_none" in out
    assert (tmp_path / "cmp" / "compare.csv").exists()


@pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--workers", "-3"),
                                         ("--trials", "0"), ("--seed", "-1")])
def test_run_rejects_bad_numeric_flags(preset_file, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", preset_file, flag, value])
    assert exc.value.code == EXIT_CONFIG
    assert flag in capsys.readouterr().err


def test_sweep_rejects_unparseable_values(preset_file, capsys):
    code, _, err = run_cli(capsys, "sweep", "--config", preset_file,
                           "--param", "delay_dt", "--values", "0,soon")
    assert code == EXIT_CONFIG
    assert "delay_dt" in err


def test_internal_value_error_is_a_runtime_failure(preset_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal defect")
    monkeypatch.setattr(cli, "simulate_run", broken)
    code, _, err = run_cli(capsys, "run", "--config", preset_file, "--trials", "10")
    assert code == EXIT_RUNTIME
    assert "internal defect" in err


@pytest.mark.parametrize("command", ["oracle", "compare"])
@pytest.mark.parametrize("overrides, message", [
    (["p_excitation=1e6"], "source mean too large"),
    (["p_excitation=0", "memory_diffusion_in=0", "dark_mean=0", "bg_stokes_mean=0"],
     "can never click"),
])
def test_oracle_config_limits_are_config_errors(preset_file, capsys, command,
                                                overrides, message):
    argv = [command, "--config", preset_file]
    if command == "compare":
        argv += ["--trials", "10"]
    for override in overrides:
        argv += ["--set", override]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert message in err
