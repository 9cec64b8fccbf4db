"""Command-line interface behavior and exit codes."""

import argparse
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pairsim import SourceModel, cli, oracle_report, parse_config, reference_preset
from pairsim.cli import EXIT_CONFIG, EXIT_IO, EXIT_RUNTIME, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_leaves_scipy_unloaded():
    # scipy takes most of a cold start; the package and its CLI do not need it.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, pairsim, pairsim.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "False"


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
    assert "detuning" in err and "line" not in err


def test_run_set_overrides_are_typed_like_the_config_file(preset_file, tmp_path,
                                                           capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, "run", "--config", preset_file,
                         "--trials", "2000", "--out", str(out_dir),
                         "--set", "source_model=classical_correlated",
                         "--set", "baseline_peaks=5")
    assert code == 0
    cfg = parse_config((out_dir / "config.txt").read_text())
    assert cfg.source_model is SourceModel.CLASSICAL_CORRELATED
    assert cfg.baseline_peaks == 5
    code, _, err = run_cli(capsys, "run", "--config", preset_file,
                           "--trials", "1000", "--set", "baseline_peaks=5.5")
    assert code == EXIT_CONFIG
    assert "baseline_peaks must be an integer" in err


def test_run_rejects_out_of_bound_override(preset_file, capsys):
    code, _, err = run_cli(capsys, "run", "--config", preset_file,
                           "--trials", "1000", "--set", "retrieval_eff=1.3")
    assert code == 2
    assert "retrieval_eff" in err


@pytest.mark.parametrize("override", [
    "p_excitation=nan", "delay_dt=nan", "dark_mean=nan", "memory_diffusion_in=nan",
    "bg_stokes_mean=inf", "p_excitation=inf",
])
def test_run_rejects_non_finite_values(preset_file, capsys, override):
    code, out, err = run_cli(capsys, "run", "--config", preset_file,
                             "--trials", "2000", "--set", override)
    assert code == EXIT_CONFIG
    assert f"{override.partition('=')[0]} must be finite and >= 0" in err
    assert out == ""


def test_run_rejects_gate_longer_than_half_a_cycle(preset_file, capsys):
    code, _, err = run_cli(capsys, "run", "--config", preset_file, "--trials", "1000",
                           "--set", "gate_width=1.2e-4", "--set", "delay_dt=0")
    assert code == EXIT_CONFIG
    assert "gate_width" in err


def test_run_rejects_uneven_binning_before_simulating(preset_file, tmp_path, capsys,
                                                     monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulate_run called before validation")

    monkeypatch.setattr(cli, "simulate_run", no_run)
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "run", "--config", preset_file, "--trials", "100000",
                           "--set", "hist_bin=7e-9", "--out", str(out_dir))
    assert code == EXIT_CONFIG
    assert "hist_span must be a whole number of hist_bin" in err
    assert not out_dir.exists()


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


def test_sweep_source_model_writes_config_literals(preset_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "sweep", "--config", preset_file,
                           "--param", "source_model",
                           "--values", "quantum_tms,classical_correlated",
                           "--trials", "10000", "--out", str(tmp_path / "sw"))
    assert code == 0
    printed = [line.split(",")[0] for line in out.splitlines()[1:3]]
    assert printed == ["quantum_tms", "classical_correlated"]
    exported = (tmp_path / "sw" / "sweep_source_model.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in exported[1:]] == printed


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


@pytest.mark.parametrize("param, extra", [("rng_seed", []),
                                          ("n_trials", ["--trials", "1000"])])
def test_sweep_rejects_ignored_parameter(preset_file, capsys, param, extra):
    code, _, err = run_cli(capsys, "sweep", "--config", preset_file,
                           "--param", param, "--values", "1000,2000", *extra)
    assert code == EXIT_CONFIG
    assert f"{param} cannot be swept" in err


def test_oracle_report(preset_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "oracle", "--config", preset_file,
                           "--out", str(tmp_path / "or"))
    assert code == 0
    assert "schema = correlation_report_v1" in out
    lines = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    # The preset is solved for 220 Stokes counts per second.
    assert float(lines["rate_stokes_hz"]) == pytest.approx(220.0, rel=1e-12)
    assert (tmp_path / "or" / "oracle_report.txt").exists()
    rows = (tmp_path / "or" / "oracle_patterns.csv").read_text().splitlines()
    assert rows[0] == "pattern_a,pattern_b,pattern_c,pattern_d,probability"
    probs = oracle_report(reference_preset()).pattern.probs
    for mask, row in enumerate(rows[1:]):
        *bits, prob = row.split(",")
        assert [int(b) for b in bits] == [(mask >> bit) & 1 for bit in range(4)]
        assert float(prob) == probs[mask]
    assert len(rows) == 17


def test_compare_zscore_table(preset_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "compare", "--config", preset_file,
                           "--trials", "50000", "--seed", "3",
                           "--out", str(tmp_path / "cmp"))
    assert code == 0
    assert out.splitlines()[0] == "quantity,mc,oracle,sigma_mc,z,flagged"
    assert "pattern_none" in out
    assert "quantities flagged (|z| > 4)" in out
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


def test_oracle_answers_for_huge_classical_source_mean(preset_file, capsys):
    code, out, _ = run_cli(capsys, "oracle", "--config", preset_file,
                           "--set", "source_model=classical_correlated",
                           "--set", "p_excitation=1e6")
    assert code == 0
    assert "verdict" in out


@pytest.fixture
def no_simulation(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulate_run called")

    monkeypatch.setattr(cli, "simulate_run", no_run)


def test_keep_events_without_out_is_a_usage_error(tmp_path, capsys, no_simulation):
    # A config that is never read: reading it would be an i/o error (exit 3).
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(tmp_path / "missing.cfg"), "--keep-events"])
    assert exc.value.code == EXIT_CONFIG
    assert "--keep-events" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, no_simulation):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"source_model = quantum_tms\n# \xff\n")
    code, out, err = run_cli(capsys, "run", "--config", str(bad))
    assert code == EXIT_CONFIG
    assert err == f"configuration error: {bad} is not UTF-8 text\n"
    assert out == ""


@pytest.mark.parametrize("overrides", [
    ["--set", "dark_mean=1", "--set", "dark_mean=0"],
    ["--set", "dark_mean"],
], ids=["repeated-key", "no-equals-sign"])
def test_malformed_set_is_refused(preset_file, capsys, no_simulation, overrides):
    code, out, err = run_cli(capsys, "run", "--config", preset_file, "--trials", "1000",
                             *overrides)
    assert code == EXIT_CONFIG
    assert "--set" in err and "'dark_mean'" in err
    assert out == ""


@pytest.mark.parametrize("unusable", ["config", "out"])
def test_unusable_path_is_an_io_error(preset_file, tmp_path, capsys, unusable):
    # A directory as --config, or the config file itself as --out.
    config, out = ((str(tmp_path), str(tmp_path / "run")) if unusable == "config"
                   else (preset_file, preset_file))
    code, _, err = run_cli(capsys, "run", "--config", config, "--trials", "1000",
                           "--out", out)
    assert code == EXIT_IO
    assert err.startswith("i/o error: ")


def _usage(text):
    """{subcommand: long options on its ``pairsim <subcommand>`` usage lines}."""
    usage, command = {}, None
    for line in text.splitlines():
        words = line.split()
        if words[:1] == ["pairsim"]:
            command = words[1]
            usage[command] = set()
        elif not (command and words and line.startswith(" ")):
            command = None
        if command:
            usage[command].update(re.findall(r"--[a-z-]+", line))
    return usage


def _parser_options():
    """{subcommand: its long options}, from the parser itself."""
    [commands] = [action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return {name: {option for action in parser._actions
                   for option in action.option_strings
                   if option.startswith("--") and option != "--help"}
            for name, parser in commands.choices.items()}


def _readme_usage():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("source", ["README", "cli docstring"])
def test_usage_lines_list_every_long_option(source):
    text = _readme_usage() if source == "README" else cli.__doc__
    assert _usage(text) == _parser_options()
