"""Command-line interface: subcommands, exit codes, output formats."""
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nfce import cli
from nfce.cli import main
from nfce.harness import BOUNDS_COLUMNS, CONFIG_KEYS, CSV_COLUMNS, SimConfig, load_config


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


@pytest.mark.parametrize("edit, key", [
    (lambda data: data.pop("n_antennas"), "n_antennas"),
    (lambda data: data.update(n_subarrays=np.int64(7)), "n_subarrays"),
])
def test_malformed_scenario_is_a_config_error(tmp_path, capsys, edit, key):
    npz = tmp_path / "scene.npz"
    assert main(["simulate", *COMMON, "--out", str(npz)]) == 0
    with np.load(npz) as data:
        arrays = dict(data)
    edit(arrays)
    np.savez(npz, **arrays)
    capsys.readouterr()
    rc = main(["estimate", "--scenario", str(npz)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and key in err


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


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bounds_bad_noise_var_is_a_config_error(value, capsys):
    rc = main(["bounds", "--noise-var", value])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: config:" in err and "--noise-var" in err


@pytest.mark.parametrize("command", [["estimate"], ["simulate", "--out", "x.npz"]])
def test_negative_trial_is_a_config_error(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main([*command, *COMMON, "--trial", "-3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: config:" in err and "--trial" in err
    assert not (tmp_path / "x.npz").exists()


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


def test_odd_subarray_count_is_a_config_error_for_dps_only(capsys):
    # DPS pairs mirrored subarrays, so it needs an even K; LS and OMP do not
    odd = ["--n-antennas", "48", "--n-subarrays", "3", "--n-subcarriers", "64"]
    for argv in (["sweep", *odd, "--trials", "1", "--algorithms", "dps,ls,omp"],
                 ["estimate", *odd, "--algorithm", "dps"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: config:" in err and "geometry.n_subarrays" in err
    assert main(["sweep", *odd, "--trials", "1", "--algorithms", "ls,omp"]) == 0
    assert main(["estimate", *odd, "--algorithm", "omp"]) == 0
    capsys.readouterr()


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
    ("", ["--seed", "-1"], "sweep.seed"),
    ("", ["--seed", "1.5"], "--seed"),
    ("[paths]\ntheta_list = 0.1\nd_list_m = 10, 12\nr_list_m = 9\n", [], "theta_list"),
    ("[paths]\ntheta_list = 1.5\nd_list_m = 10\nr_list_m = 9\n", [], "theta_list"),
    ("[impairments]\nclock_offset_frac_max = nan\n", [], "clock_offset_frac_max"),
    ("[impairments]\nclock_offset_frac_max = -0.1\n", [], "clock_offset_frac_max"),
    ("[omp]\ndistance_grid_max_m = inf\n", [], "distance_grid_max_m"),
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


@pytest.mark.parametrize("command", [
    ["simulate", "--out", "x.npz"], ["estimate"], ["sweep"],
])
@pytest.mark.parametrize("key", ["snr_db", "algorithms"])
def test_empty_sweep_list_is_a_config_error(tmp_path, monkeypatch, capsys, command, key):
    monkeypatch.chdir(tmp_path)
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[sweep]\n{key} =\n")
    rc = main([*command, "--config", str(ini), *COMMON])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and f"sweep.{key}" in err
    assert not (tmp_path / "x.npz").exists()


@pytest.mark.parametrize("argv, where", [
    (["sweep", *COMMON, "--snr-db", "a,b"], "--snr-db"),
    (["sweep", *COMMON, "--snr-db", ""], "sweep.snr_db"),
    (["sweep", *COMMON, "--algorithms", ","], "sweep.algorithms"),
    (["simulate", *COMMON, "--snr-db", "1e", "--out", "x.npz"], "--snr-db"),
    (["bounds", "--theta", "a"], "--theta"),
    (["bounds", "--d-m", "10,x"], "--d-m"),
    (["bounds", "--theta", "", "--d-m", "", "--r-m", ""], "nonempty"),
    (["bounds", "--d-m", "inf"], "--theta/--d-m/--r-m: dist_m"),
    (["bounds", "--r-m", "nan"], "--theta/--d-m/--r-m: range_m"),
    (["bounds", "--theta", "1.5"], "--theta/--d-m/--r-m: theta"),
])
def test_malformed_list_flag_is_a_config_error(tmp_path, monkeypatch, capsys, argv, where):
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and where in err
    assert not (tmp_path / "x.npz").exists()


@pytest.mark.parametrize("ini, flags", [
    ("", ["--algorithms", "ls,ls"]),
    ("[sweep]\nalgorithms = dps, ls, dps\n", []),
])
def test_repeated_algorithm_is_a_config_error(tmp_path, capsys, ini, flags):
    # a repeated name would run that algorithm twice and write its rows twice
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(ini)
    rc = main(["sweep", "--config", str(cfg), *COMMON, "--trials", "1", *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config:") and "sweep.algorithms" in captured.err
    assert ("ls" if flags else "dps") in captured.err.split("names", 1)[1]
    assert not captured.out


@pytest.mark.parametrize("ini, flags, repeated", [
    ("", ["--snr-db", "10,10"], "10.0"),
    ("", ["--snr-db", "10,10.0,1e1"], "10.0"),
    ("[sweep]\nsnr_db = 0, 10, 0\n", [], "0.0"),
])
def test_repeated_snr_is_a_config_error(tmp_path, capsys, ini, flags, repeated):
    # a repeated value, however it is written, would run that SNR twice
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(ini)
    rc = main(["sweep", "--config", str(cfg), *COMMON, "--trials", "1",
               "--algorithms", "ls", *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: config: sweep.snr_db names {repeated} more than once\n"
    assert not captured.out


def _file_bytes(write) -> bytes:
    buf = io.BytesIO()
    write(buf)
    return buf.getvalue()


@pytest.mark.parametrize("command, content", [
    (["sweep"], b"[sweep]\ntrials = 1\ntrials = 2\n"),
    (["sweep"], b"[sweep]\ntrials = 1\n[sweep]\nseed = 2\n"),
    (["sweep"], b"trials = 1\n"),
    (["sweep"], b"[sweep]\ntrials = 1 # \xff\xfe\n"),
    (["sweep"], b"[output]\ncsv_path = out%.csv\n"),
    (["estimate", "--scenario"], b"PK\x03\x04" + bytes(40)),
    (["estimate", "--scenario"], b"not a scenario\n"),
    (["estimate", "--scenario"], _file_bytes(lambda fh: np.save(fh, np.zeros(3)))),
    (["estimate", "--scenario"], _file_bytes(lambda fh: np.savez(
        fh, theta=0.1, **dict.fromkeys(cli._SCENARIO_FIELDS, 1)))),
], ids=["duplicate-key", "duplicate-section", "no-section", "not-utf8", "interpolation",
     "bad-zip", "text", "npy", "0-d-theta"])
def test_malformed_input_file_is_a_config_error(tmp_path, capsys, command, content):
    # one categorized line naming the file, never a traceback or a run error
    path = tmp_path / "input.bin"
    path.write_bytes(content)
    flag = [] if command[-1] == "--scenario" else ["--config"]
    rc = main([*command, *flag, str(path), *COMMON])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err


def test_npy_scenario_is_refused_before_it_is_read(tmp_path, capsys):
    # np.load gives an array, not an archive; the refusal must not rest on
    # the error a with-statement raises, which differs across Python versions
    path = tmp_path / "scene.npy"
    np.save(path, np.zeros(3))
    assert main(["estimate", "--scenario", str(path), *COMMON]) == 2
    assert capsys.readouterr().err == f"error: config: scenario {path}: not an .npz archive\n"


def test_list_flags_read_like_ini_lists(capsys):
    # the flags share the INI parser: empty entries and spaces are skipped
    rc = main(["sweep", *COMMON, "--trials", "1", "--snr-db", "10,,20",
               "--algorithms", "ls, dps"])
    assert rc == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [(r.split(",")[2], r.split(",")[8]) for r in rows] == [
        ("10", "ls"), ("10", "dps"), ("20", "ls"), ("20", "dps")]


def test_module_entry_point_runs_a_sweep():
    # python -m nfce.cli, as a user runs it, in a fresh interpreter
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nfce.cli", "sweep", "--trials", "1", "--snr-db", "10",
         "--algorithms", "dps,ls"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 1 + 2


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


# the config surface, pinned: (SimConfig field, INI key, parse kind, flag or None)
_CONFIG_SURFACE = [
    ("n_antennas", "geometry.n_antennas", int, "--n-antennas"),
    ("n_subarrays", "geometry.n_subarrays", int, "--n-subarrays"),
    ("carrier_hz", "geometry.carrier_hz", float, "--carrier-hz"),
    ("spacing_m", "geometry.spacing_m", float, None),
    ("n_subcarriers", "grid.n_subcarriers", int, "--n-subcarriers"),
    ("bandwidth_hz", "grid.bandwidth_hz", float, "--bandwidth-hz"),
    ("n_paths", "paths.count", int, "--paths"),
    ("d_min_m", "paths.d_min_m", float, None),
    ("d_max_m", "paths.d_max_m", float, None),
    ("r_min_m", "paths.r_min_m", float, None),
    ("r_max_m", "paths.r_max_m", float, None),
    ("theta_max", "paths.theta_max", float, None),
    ("theta_list", "paths.theta_list", "floats", None),
    ("d_list_m", "paths.d_list_m", "floats", None),
    ("r_list_m", "paths.r_list_m", "floats", None),
    ("snr_db", "sweep.snr_db", "floats", "--snr-db"),
    ("trials", "sweep.trials", int, "--trials"),
    ("seed", "sweep.seed", int, "--seed"),
    ("algorithms", "sweep.algorithms", "strs", "--algorithms"),
    ("p_fa", "stopping.p_fa", float, "--p-fa"),
    ("max_paths", "stopping.max_paths", int, "--max-paths"),
    ("power", "sweep.power", float, "--power"),
    ("clock_offset_frac_max", "impairments.clock_offset_frac_max", float, None),
    ("gain_factor_min", "impairments.gain_factor_min", float, None),
    ("angle_grid_size", "omp.angle_grid_size", int, None),
    ("distance_grid_size", "omp.distance_grid_size", int, None),
    ("distance_grid_min_m", "omp.distance_grid_min_m", float, None),
    ("distance_grid_max_m", "omp.distance_grid_max_m", float, None),
    ("csv_path", "output.csv_path", str, None),
    ("timing", "sweep.timing", "bool", None),
]


def test_config_surface_is_pinned():
    # renaming or dropping a key, kind or flag fails here instead of silently
    # dropping a case of the flag test below
    assert CONFIG_KEYS == {name: (key, kind) for name, key, kind, _ in _CONFIG_SURFACE}
    assert cli._FLAGS == {flag: name for name, _, _, flag in _CONFIG_SURFACE if flag}


# a valid value for each override flag, unlike the SimConfig default
_FLAG_VALUES = {
    "n_antennas": "128", "n_subarrays": "16", "carrier_hz": "6e9",
    "n_subcarriers": "128", "bandwidth_hz": "400e6", "n_paths": "3", "trials": "4",
    "seed": "7", "p_fa": "1e-2", "max_paths": "5", "power": "2",
    "snr_db": "0, 10", "algorithms": "ls omp",
}


@pytest.mark.parametrize("flag, field", [
    (flag, name) for name, _, _, flag in _CONFIG_SURFACE if flag])
def test_each_flag_sets_its_ini_key(tmp_path, capsys, flag, field):
    # a flag and its INI key share one parser, so both build the same config
    value = _FLAG_VALUES[field]
    key, _ = CONFIG_KEYS[field]
    section, name = key.split(".")
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[{section}]\n{name} = {value}\n")
    from_flag = cli._build_config(cli.build_parser().parse_args(["sweep", flag, value]))
    assert from_flag == load_config(str(ini))
    assert from_flag != SimConfig()
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert f"overrides {key}" in capsys.readouterr().out
