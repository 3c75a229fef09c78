"""Command-line interface: subcommands, config files, exit codes."""

import subprocess
import sys

import pytest

from nanofilter.bench import parse_trials_csv
from nanofilter.cli import ConfigError, main, parse_config_file

RUN_SMALL = ["--trials", "2", "--horizon", "10", "--seed", "3"]


def test_list_output(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for model in ("fm", "attitude", "duffing"):
        assert model in out
    for fid in ("kf", "ekf", "iekf", "ukf", "plf", "nano", "nano-ekf",
                "nano-nopd", "nano-chol"):
        assert fid in out
    for rule in ("cubature", "unscented", "gh:"):
        assert rule in out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_run_small(tmp_path, capsys):
    code = main(["run", "--model", "duffing", "--filter", "ekf,nano",
                 *RUN_SMALL, "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "trials.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    out = capsys.readouterr().out
    assert "wrote" in out and "ekf: mean_rmse=" in out
    rows = parse_trials_csv(tmp_path / "trials.csv")
    assert set(rows) == {"ekf", "nano"}
    assert len(rows["ekf"]) == 2


def test_run_gh_rule(tmp_path):
    code = main(["run", "--model", "duffing", "--filter", "ukf", "--mm", "gh:3",
                 *RUN_SMALL, "--out", str(tmp_path)])
    assert code == 0


def test_run_twice_byte_identical(tmp_path):
    # same config => byte-for-byte identical outputs (timing stays opt-in)
    args = ["run", "--model", "duffing", "--filter", "nano,ekf",
            "--trials", "4", "--horizon", "15", "--seed", "42"]
    for d in ("a", "b"):
        assert main([*args, "--out", str(tmp_path / d)]) == 0
    for name in ("trials.csv", "summary.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_run_timing_column(tmp_path):
    code = main(["run", "--model", "duffing", "--filter", "nano", *RUN_SMALL,
                 "--timing", "--out", str(tmp_path)])
    assert code == 0
    rows = parse_trials_csv(tmp_path / "trials.csv")
    assert all(r.update_ms is not None for r in rows["nano"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--model", "fm", "--filter", "kf"],           # measurement not linear
        ["run", "--model", "duffing", "--filter", "bogus"],
        ["run", "--model", "nosuch"],                         # rejected by argparse
        ["run", "--filter", "nano"],                          # model required
        ["run", "--model", "duffing", "--mismatch", "system", "--level", "0.17"],
        ["run", "--model", "duffing", "--mm", "gh:1"],
        ["sweep", "--model", "duffing"],                      # mismatch kind required
        ["sweep", "--model", "duffing", "--mismatch", "none"],
        ["ablate", "--models", "nosuch"],
        ["sweep", "--model", "duffing", "--mismatch", "outlier", "--filter", "bogus"],
        ["ablate", "--models", ","],                          # empty model list
        ["run", "--model", "duffing", "--filter", "ekf,ekf"],  # repeated filter id
        ["ablate", "--models", "duffing,duffing"],            # repeated model
        ["sweep", "--model", "duffing", "--mismatch", "outlier", "--levels", "0.03,0.03"],
    ],
)
def test_usage_errors_exit_2(argv, tmp_path, capsys):
    assert main([*argv, "--trials", "1", "--horizon", "5", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_nonpositive_horizon_exit_2(horizon, tmp_path, capsys):
    assert main(["run", "--model", "duffing", "--filter", "ekf", "--trials", "1",
                 "--horizon", horizon, "--out", str(tmp_path)]) == 2
    assert "horizon must be positive" in capsys.readouterr().err


def test_negative_seed_exit_2(tmp_path, capsys):
    # rejected by the scenario's own check, before numpy's generator sees it
    assert main(["run", "--model", "duffing", "--seed", "-1", "--trials", "1",
                 "--horizon", "5", "--out", str(tmp_path)]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "trials.csv").exists()


def test_sweep_smoke(tmp_path):
    code = main(["sweep", "--model", "duffing", "--mismatch", "outlier",
                 "--levels", "0.0,0.05", "--filter", "ekf,nano",
                 *RUN_SMALL, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + levels x filters


def test_sweep_off_grid_level_exit_2(tmp_path):
    assert main(["sweep", "--model", "duffing", "--mismatch", "outlier",
                 "--levels", "0.0,0.17", *RUN_SMALL, "--out", str(tmp_path)]) == 2


def test_ablate_smoke(tmp_path, capsys):
    code = main(["ablate", "--models", "duffing", "--trials", "2",
                 "--horizon", "10", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "ablation.csv").exists()
    out = capsys.readouterr().out
    assert "nano-nopd" in out and "duffing" in out  # grid echoed to stdout


# ---------------------------------------------------------------------------
# config files

def test_parse_config_file(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(
        "# comment line\n"
        "model = duffing\n"
        "trials = 7\n"
        "\n"
        "[mismatch]\n"
        "kind = system   # trailing comment\n"
        "level = 0.1\n"
    )
    settings = parse_config_file(path)
    assert settings == {
        "model": "duffing",
        "trials": 7,
        "mismatch.kind": "system",
        "mismatch.level": 0.1,
    }


@pytest.mark.parametrize("text", [
    pytest.param("modle = duffing\n", id="misspelt-key"),
    pytest.param("[nano]\nstep_size = 0.5\n", id="nano-step_size"),
    pytest.param("[nano]\nexponent_mode = plain\n", id="nano-exponent_mode"),
    pytest.param("[nano]\nmax_iters = 1\n", id="nano-max_iters"),
])
def test_parse_config_rejects_unknown_key(tmp_path, capsys, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_file(path)
    assert main(["run", "--model", "duffing", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_parse_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("trials = many\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_file(path)


def test_parse_config_rejects_bare_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("duffing\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(path)


def test_run_from_config_file(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("model = duffing\nfilter = ekf\ntrials = 2\nhorizon = 10\nseed = 3\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    rows = parse_trials_csv(tmp_path / "out" / "trials.csv")
    assert set(rows) == {"ekf"} and len(rows["ekf"]) == 2


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("model = duffing\nfilter = ekf\ntrials = 5\nhorizon = 10\n")
    code = main(["run", "--config", str(cfg), "--trials", "2", "--filter", "ukf",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    rows = parse_trials_csv(tmp_path / "out" / "trials.csv")
    assert set(rows) == {"ukf"} and len(rows["ukf"]) == 2


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nanofilter", "list"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "filters:" in proc.stdout
