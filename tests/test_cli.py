"""Command-line interface: subcommands, exit codes, output formats."""
import re
import warnings

import numpy as np
import pytest

from nfce.cli import main
from nfce.harness import BOUNDS_COLUMNS, CSV_COLUMNS


COMMON = ["--n-antennas", "64", "--n-subarrays", "16",
          "--n-subcarriers", "128", "--paths", "1", "--seed", "5"]


def test_simulate_then_estimate(tmp_path, capsys):
    npz = tmp_path / "scene.npz"
    rc = main(["simulate", *COMMON, "--snr-db", "20", "--out", str(npz)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote scenario with L=1" in out
    data = np.load(npz)
    assert data["Y"].shape == (16, 128)
    assert data["H"].shape == (64, 128)

    rc = main(["estimate", "--scenario", str(npz)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "algorithm=dps" in out
    assert "nmse_db=" in out

    rc = main(["estimate", "--scenario", str(npz), "--algorithm", "ls"])
    assert rc == 0
    assert "algorithm=ls L_hat=0" in capsys.readouterr().out


def test_estimate_fresh_trial(capsys):
    rc = main(["estimate", *COMMON, "--snr-db", "15"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "L_hat=" in out and "corr=" in out


def test_bounds_stdout_and_file(tmp_path, capsys):
    rc = main(["bounds", "--n-antennas", "512", "--n-subarrays", "128",
               "--n-subcarriers", "512", "--theta", "0.1,0.3",
               "--d-m", "10,15", "--r-m", "10,12"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == BOUNDS_COLUMNS
    assert len(lines) == 3
    path = tmp_path / "bounds.csv"
    rc = main(["bounds", "--n-antennas", "512", "--n-subarrays", "128",
               "--n-subcarriers", "512", "--theta", "0.2", "--d-m", "10",
               "--r-m", "10", "--out", str(path)])
    assert rc == 0
    assert path.read_text().startswith(BOUNDS_COLUMNS)


def test_bounds_mismatched_lists(capsys):
    rc = main(["bounds", "--theta", "0.1,0.2", "--d-m", "10", "--r-m", "10"])
    assert rc == 2
    assert "error: config:" in capsys.readouterr().err


def test_sweep_stdout_csv(capsys):
    rc = main(["sweep", *COMMON, "--trials", "2", "--snr-db", "10",
               "--algorithms", "dps,ls"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 1 + 2 * 2
    assert "# dps: mean nmse_db" in captured.err


def test_sweep_file_output(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    rc = main(["sweep", *COMMON, "--trials", "1", "--snr-db", "10",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith(CSV_COLUMNS)


def test_config_file_plus_flag_override(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[geometry]\nn_antennas = 64\nn_subarrays = 16\n"
        "[grid]\nn_subcarriers = 128\n"
        "[paths]\ncount = 1\n"
        "[sweep]\ntrials = 1\nsnr_db = 10\n"
    )
    rc = main(["sweep", "--config", str(ini), "--trials", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3  # header + 2 trials (flag beat the file)


def test_exit_codes(tmp_path, capsys):
    # unknown algorithm -> config error
    rc = main(["sweep", *COMMON, "--trials", "1", "--algorithms", "cg"])
    assert rc == 2
    assert "error: config:" in capsys.readouterr().err
    # unreadable config file -> config error
    rc = main(["sweep", "--config", str(tmp_path / "nope.ini")])
    assert rc == 2
    capsys.readouterr()
    # invalid geometry (K does not divide N) -> config error
    rc = main(["estimate", "--n-antennas", "10", "--n-subarrays", "3"])
    assert rc == 2
    assert "error: config:" in capsys.readouterr().err
    # a drawn path delay of a symbol or more (16 subcarriers) -> run error
    rc = main(["estimate", *COMMON, "--n-subcarriers", "16"])
    assert rc == 1
    assert "error: run:" in capsys.readouterr().err
    # simulate to an unwritable path -> io error
    rc = main(["simulate", *COMMON, "--out", str(tmp_path / "no" / "dir" / "x.npz")])
    assert rc == 3
    assert "error: io:" in capsys.readouterr().err


@pytest.mark.parametrize("ini, flags, key", [
    ("[omp]\ndistance_grid_min_m = 0\n", [], "distance_grid_min_m"),
    ("[omp]\ndistance_grid_size = 0\n", [], "distance_grid_size"),
    ("[omp]\nangle_grid_size = 0\n", [], "angle_grid_size"),
    ("", ["--max-paths", "-1"], "max_paths"),
    ("", ["--snr-db", "nan"], "sweep.snr_db"),
    ("", ["--snr-db", "10,inf"], "sweep.snr_db"),
    ("", ["--power", "-1"], "sweep.power"),
    ("", ["--power", "0"], "sweep.power"),
    ("", ["--power", "inf"], "sweep.power"),
    ("", ["--n-subcarriers", "0"], "n_subcarriers"),
    ("", ["--n-subarrays", "3"], "n_subarrays"),
    ("", ["--paths", "0"], "paths.count"),
    ("", ["--carrier-hz", "nan"], "carrier_hz"),
    ("[geometry]\nspacing_m = nan\n", [], "spacing_m"),
    ("", ["--bandwidth-hz", "nan"], "bandwidth_hz"),
    ("[paths]\nd_min_m = nan\n", [], "d_min_m"),
])
def test_bad_omp_grid_and_max_paths_are_config_errors(tmp_path, capsys, ini, flags, key):
    # rejected when the config is built, even by a sweep that runs no OMP,
    # and before any NumPy work can warn
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(ini)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", "--config", str(cfg), *COMMON, "--trials", "1",
                   "--algorithms", "dps", *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert key in err


def test_scenario_round_trip_keeps_spacing(tmp_path, capsys):
    # a non-default element spacing must survive simulate -> estimate --scenario
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[geometry]\nn_antennas = 64\nn_subarrays = 16\nspacing_m = 0.01\n"
        "[grid]\nn_subcarriers = 128\n"
        "[paths]\ncount = 1\n"
        "[sweep]\nseed = 5\nsnr_db = 20\n"
    )
    npz = tmp_path / "scene.npz"
    assert main(["simulate", "--config", str(ini), "--out", str(npz)]) == 0
    capsys.readouterr()

    def fields(argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        return re.search(r"L_hat=(\d+) nmse_db=(\S+)", out).groups()

    for alg in ("dps", "omp"):
        replayed = fields(["estimate", "--config", str(ini), "--algorithm", alg,
                           "--scenario", str(npz)])
        fresh = fields(["estimate", "--config", str(ini), "--algorithm", alg])
        assert replayed == fresh, alg


def test_scenario_round_trip_keeps_impairments(tmp_path, capsys):
    # simulate must save the impaired observation that estimate runs on
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[geometry]\nn_antennas = 64\nn_subarrays = 16\n"
        "[grid]\nn_subcarriers = 128\n"
        "[paths]\ncount = 1\n"
        "[sweep]\nseed = 5\nsnr_db = 20\n"
        "[impairments]\nclock_offset_frac_max = 0.3\ngain_factor_min = 0.5\n"
    )
    npz = tmp_path / "scene.npz"
    assert main(["simulate", "--config", str(ini), "--out", str(npz)]) == 0
    capsys.readouterr()

    def nmse(argv):
        assert main(argv) == 0
        return re.search(r"nmse_db=(\S+)", capsys.readouterr().out).group(1)

    for alg in ("dps", "omp"):
        replayed = nmse(["estimate", "--config", str(ini), "--algorithm", alg,
                         "--scenario", str(npz)])
        fresh = nmse(["estimate", "--config", str(ini), "--algorithm", alg])
        assert replayed == fresh, alg
