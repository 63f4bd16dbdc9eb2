"""Simulation harness: reproducible streams, config, trials, CSV output."""
import dataclasses
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from nfce import harness
from nfce.model import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    PathParams,
    SubcarrierGrid,
    steering_vector,
    synthesize_channel,
)
from nfce.frontend import observe, random_phase_combiner
from nfce.estimator import (
    DelayDictionary,
    StoppingRule,
    fit_and_cancel,
    ml_delay_detect,
    reconstruct_channel,
    reconstruct_rows,
    run_dps,
    stopping_threshold,
)
from nfce.harness import (
    ALGORITHMS,
    BOUNDS_COLUMNS,
    CONFIG_KEYS,
    CSV_COLUMNS,
    ConfigError,
    SimConfig,
    bounds_table,
    draw_paths,
    draw_trial,
    estimate,
    load_config,
    ls_baseline,
    ls_rows,
    match_paths,
    monte_carlo_sweep,
    nmse,
    nmse_db,
    parameter_errors,
    polar_omp_fallback,
    records_csv_text,
    run_trial,
    trial_rng,
)


def test_trial_rng_reproducible_and_stream_separated():
    a = trial_rng(123, 5, 0).standard_normal(8)
    b = trial_rng(123, 5, 0).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = trial_rng(123, 5, 1).standard_normal(8)
    d = trial_rng(123, 6, 0).standard_normal(8)
    e = trial_rng(124, 5, 0).standard_normal(8)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)
    assert not np.allclose(a, e)


def test_simconfig_validation():
    with pytest.raises(ConfigError):
        SimConfig(n_paths=-1)
    with pytest.raises(ConfigError):
        SimConfig(theta_max=1.5)
    with pytest.raises(ConfigError):
        SimConfig(d_min_m=5.0, d_max_m=2.0)
    with pytest.raises(ConfigError):
        SimConfig(algorithms=("gradient",))
    with pytest.raises(ConfigError):
        SimConfig(p_fa=0.0)
    with pytest.raises(ConfigError):
        SimConfig(gain_factor_min=0.0)
    with pytest.raises(ConfigError, match="sweep.seed must be >= 0"):
        SimConfig(seed=-1)
    # explicit path lists are checked when the config is built, not when drawn
    with pytest.raises(ConfigError, match="paths.theta_list"):
        SimConfig(theta_list=(0.1,), d_list_m=(10.0,), r_list_m=())
    with pytest.raises(ConfigError, match="paths.theta_list.*theta must lie in"):
        SimConfig(theta_list=(0.1, 1.5), d_list_m=(10.0, 9.0), r_list_m=(9.0, 9.0))
    with pytest.raises(ConfigError, match="paths.theta_list.*dist_m must be positive"):
        SimConfig(theta_list=(0.1,), d_list_m=(0.0,), r_list_m=(9.0,))
    with pytest.raises(ConfigError, match="paths.theta_list.*range_m must be non-neg"):
        SimConfig(theta_list=(0.1,), d_list_m=(10.0,), r_list_m=(-1.0,))
    # a NaN or negative bound turned the clock-offset impairment off silently
    for bad in (float("nan"), -0.1, float("inf")):
        with pytest.raises(ConfigError, match="impairments.clock_offset_frac_max"):
            SimConfig(clock_offset_frac_max=bad)
    # NaN and infinity passed the sign tests and failed only as run errors
    small = dict(n_antennas=64, n_subarrays=16, n_subcarriers=128, theta_list=(0.1,))
    for d, r, match in ((float("nan"), 9.0, "dist_m must be positive and finite"),
                        (float("inf"), 9.0, "dist_m must be positive and finite"),
                        (10.0, float("inf"), "range_m must be non-negative and finite")):
        with pytest.raises(ConfigError, match=f"paths.theta_list.*{match}"):
            SimConfig(**small, d_list_m=(d,), r_list_m=(r,))
    # explicit path lists need no drawn count
    SimConfig(n_paths=0, theta_list=(0.1,), d_list_m=(10.0,), r_list_m=(9.0,))
    cfg = SimConfig()
    assert cfg.geometry().n_antennas == 256
    assert cfg.grid().n_subcarriers == 256


@pytest.mark.parametrize("field,key", [
    ("n_antennas", "geometry.n_antennas"),
    ("n_subarrays", "geometry.n_subarrays"),
    ("n_subcarriers", "grid.n_subcarriers"),
    ("trials", "sweep.trials"),
    ("max_paths", "stopping.max_paths"),
    ("angle_grid_size", "omp.angle_grid_size"),
    ("distance_grid_size", "omp.distance_grid_size"),
    ("n_paths", "paths.count"),
    ("seed", "sweep.seed"),
])
def test_simconfig_rejects_non_integer_sizes(field, key):
    # a float reached np.geomspace (a bare TypeError) or the estimators; a
    # bool is an int to Python but never a size
    for value in (2.5, 4.0, True):
        with pytest.raises(ConfigError, match=rf"^{key} must be an integer, got {value!r}$"):
            SimConfig(**{field: value})
    SimConfig(**{field: np.int64(getattr(SimConfig(), field))})


@pytest.mark.parametrize("key", ["snr_db", "algorithms"])
def test_empty_sweep_list_is_a_config_error(tmp_path, key):
    # an empty list leaves a trial no SNR to draw at and a sweep nothing to run
    with pytest.raises(ConfigError, match=f"sweep.{key}"):
        SimConfig(**{key: ()})
    path = tmp_path / "run.ini"
    path.write_text(f"[sweep]\n{key} =\n")
    with pytest.raises(ConfigError, match=f"sweep.{key}"):
        load_config(str(path))


def test_load_config_ini(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[geometry]\n"
        "n_antennas = 128\n"
        "n_subarrays = 32\n"
        "[grid]\n"
        "n_subcarriers = 64\n"
        "bandwidth_hz = 600e6\n"
        "[paths]\n"
        "count = 3\n"
        "d_min_m = 8.0\n"
        "d_max_m = 18.0  # inline comment\n"
        "[sweep]\n"
        "snr_db = 0, 10, 20\n"
        "trials = 4\n"
        "algorithms = dps ls\n"
        "timing = yes\n"
        "[stopping]\n"
        "p_fa = 1e-2\n"
    )
    cfg = load_config(str(path))
    assert cfg.n_antennas == 128
    assert cfg.n_paths == 3
    assert cfg.d_max_m == 18.0
    assert cfg.snr_db == (0.0, 10.0, 20.0)
    assert cfg.algorithms == ("dps", "ls")
    assert cfg.p_fa == 1e-2
    assert cfg.timing is True
    # overrides take precedence over file values
    cfg2 = load_config(str(path), overrides={"trials": 9})
    assert cfg2.trials == 9


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[geometry]\nantennas = 64\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))


def test_load_config_bad_value(tmp_path):
    path = tmp_path / "bad2.ini"
    path.write_text("[sweep]\ntrials = many\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_config_keys_match_simconfig_fields():
    # every field has exactly one INI key (and flag), and every key sets a field
    names = [field.name for field in dataclasses.fields(SimConfig)]
    assert sorted(CONFIG_KEYS) == sorted(names)
    assert len(harness._INI_LOOKUP) == len(names)
    keys = [key for key, _ in CONFIG_KEYS.values()]
    assert len(set(keys)) == len(keys)


def test_nmse_definitions():
    H = np.ones((4, 4), complex)
    assert nmse(np.zeros_like(H), H) == pytest.approx(1.0)
    assert nmse_db(np.zeros_like(H), H) == pytest.approx(0.0)
    assert nmse_db(0.9 * H, H) == pytest.approx(-20.0)
    with pytest.raises(ValueError):
        nmse(H, np.zeros_like(H))


@pytest.mark.parametrize("shape", [(1000, 999), (3, 20000), (17, 5)])
def test_nmse_matches_plain_formula(shape):
    # the chunked sum agrees with the one-pass formula, also when the row
    # count is not a multiple of the chunk or one row exceeds a chunk
    rng = np.random.default_rng(4)
    H = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    H_est = H + 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    plain = np.sum(np.abs(H_est - H) ** 2) / np.sum(np.abs(H) ** 2)
    assert nmse(H_est, H) == pytest.approx(plain, rel=1e-12)


def test_nmse_rejects_mismatched_shapes():
    # these used to broadcast (or raise numpy's own error); a transposed
    # estimate of a square channel has the right shape and cannot be caught.
    # Row blocks of another geometry are caught before any block is built.
    rng = np.random.default_rng(5)
    H = rng.standard_normal((64, 128)) + 1j * rng.standard_normal((64, 128))
    blocks = reconstruct_rows([], ArrayGeometry(128, 16, 7e9),
                              SubcarrierGrid.from_bandwidth(128, 600e6))
    for bad in (H[:1], H[:, :1], H[0], H.T, blocks):
        with pytest.raises(ValueError, match="H_est has shape"):
            nmse(bad, H)


def _traced_peak(fn):
    """(peak bytes numpy allocated while ``fn`` ran, its result)."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_nmse_and_ls_peak_memory():
    # at 1024/256/1024: nmse sums the error chunk by chunk, and LS divides
    # its output by sqrt(P) in place (they peaked at 1.5x H and 2x the output)
    geom = ArrayGeometry(1024, 256, 7e9)
    rng = np.random.default_rng(6)
    H = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    W = random_phase_combiner(geom, rng)
    Y = rng.standard_normal((256, 1024)) + 1j * rng.standard_normal((256, 1024))
    peak, H_ls = _traced_peak(lambda: ls_baseline(Y, W, 2.0))
    assert peak <= 1.1 * H_ls.nbytes
    peak, _ = _traced_peak(lambda: nmse(H_ls, H))
    assert peak <= 0.1 * H.nbytes


def _full_scale(**kw) -> SimConfig:
    return SimConfig(n_antennas=1024, n_subarrays=256, n_subcarriers=1024, n_paths=4,
                     **kw)


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_run_trial_scores_blocks_as_the_dense_estimate(alg):
    # at 512/128/512 the estimate is scored as two blocks of subarray rows;
    # the score is the same bits as nmse_db of the whole estimate
    harness._SLOT.clear()
    cfg = SimConfig(n_antennas=512, n_subarrays=128, n_subcarriers=512, n_paths=3,
                    seed=5, power=2.0)
    geom, grid = cfg.geometry(), cfg.grid()
    _, H, W, noise_var, Y = draw_trial(cfg, 0, 10.0)
    assert H.size > harness._SCORE_BLOCK
    rule = StoppingRule(noise_var=noise_var, p_fa=cfg.p_fa, max_paths=cfg.max_paths)
    if alg == "dps":
        paths = run_dps(Y, W, geom, grid, rule, cfg.power).paths
        dense = reconstruct_channel(paths, geom, grid)
    elif alg == "omp":
        paths, _ = polar_omp_fallback(Y, W, geom, grid, rule, cfg.angle_grid_size,
                                      cfg.distance_grid(), cfg.power)
        dense = reconstruct_channel(paths, geom, grid)
    else:
        dense = ls_baseline(Y, W, cfg.power)
    assert run_trial(cfg, 0, 10.0, alg).nmse_db == nmse_db(dense, H)
    # any block of subarrays is the same bits as those rows of the whole
    rows = estimate(cfg, alg, Y, W, noise_var)[1]
    ns = geom.subarray_size
    assert rows.shape == dense.shape
    for k0, k1 in ((0, 128), (3, 70), (127, 128)):
        assert np.array_equal(rows.build(k0, k1), dense[k0 * ns:k1 * ns])
    harness._SLOT.clear()


def test_run_trial_peak_memory():
    # with the draw held, a full-scale run forms no estimate of H's size: it
    # is scored one block of rows at a time (1.3x H for dps and 1.0x for ls
    # when it was formed whole).  DPS's own working set, its residual copy
    # of Y (0.25x) and the gain fit's temporaries, peaks at about 0.30x.
    harness._SLOT.clear()
    cfg = _full_scale(seed=3)
    _, H, W, _, Y = draw_trial(cfg, 0, 10.0)
    run_trial(cfg, 0, 10.0, "dps")  # first-call caches are not the run's
    for alg, bound in (("dps", 0.32), ("ls", 0.3)):
        peak, _ = _traced_peak(lambda: run_trial(cfg, 0, 10.0, alg))
        assert peak <= bound * H.nbytes, alg
    # scoring holds one block and one chunk's difference at a time
    peak, _ = _traced_peak(lambda: nmse(ls_rows(Y, W), H))
    assert peak <= 0.2 * H.nbytes
    harness._SLOT.clear()


def test_new_draw_frees_the_old_one_first():
    # a new SNR frees the old Y, and a new trial the old H and Y, before it
    # draws; while the old ones lived on, this peaked at 2.35x H
    harness._SLOT.clear()
    cfg = _full_scale(seed=3)

    def draws():
        draw_trial(cfg, 0, 10.0)
        draw_trial(cfg, 0, 20.0)
        return draw_trial(cfg, 1, 10.0)[1]

    peak, H = _traced_peak(draws)
    harness._SLOT.clear()
    assert peak <= 1.6 * H.nbytes


_DRAW_DIGEST = """
import hashlib
from nfce.harness import SimConfig, draw_trial, run_trial
cfg = SimConfig(n_antennas=1024, n_subarrays=256, n_subcarriers=1024, n_paths=4, seed=3)
_, _, _, noise_var, Y = draw_trial(cfg, 0, 10.0)
print(noise_var.hex(), hashlib.sha256(Y.tobytes()).hexdigest())
print(run_trial(cfg, 0, 10.0, "ls").nmse_db.hex())
"""


def test_draw_does_not_depend_on_blas_threads():
    # the noise variance and nmse's sums were BLAS dot products, whose last
    # bits moved with the thread count at full scale, and Y scales with the
    # noise variance
    src = str(pathlib.Path(harness.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _DRAW_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout)
    assert digests[0] == digests[1]


def test_ls_baseline_projects_back():
    geom = ArrayGeometry(64, 16, 7e9)
    grid = SubcarrierGrid.from_bandwidth(32, 600e6)
    H = synthesize_channel([PathParams(0.2, 12.0, 9.0, 1 + 0j)], geom, grid)
    W = random_phase_combiner(geom, np.random.default_rng(4))
    Y = observe(H, W, 4.0, 0.0)
    H_ls = ls_baseline(Y, W, 4.0)
    assert H_ls.shape == H.shape
    # A H_ls reproduces the noiseless observation exactly (minimum-norm LS)
    from nfce.frontend import combine

    np.testing.assert_allclose(combine(H_ls, W), Y / 2.0, atol=1e-10)
    # the block form equals the dense A^H Y / sqrt(P) it replaces
    from nfce.frontend import combining_matrix

    np.testing.assert_allclose(
        H_ls, combining_matrix(W).conj().T @ Y / np.sqrt(4.0), rtol=1e-12
    )


@pytest.mark.parametrize("power", [1.0, 2.0, 3.7, 0.3])
def test_ls_scales_by_the_reciprocal_with_the_division_s_values(power):
    # ls_rows multiplies by 1 / sqrt(P); numpy divides a complex by a real s
    # as (a + b 0) (1 / s), so the values equal the plain division
    rng = np.random.default_rng(25)
    K, ns, M = 6, 4, 40
    W = rng.standard_normal((K, ns)) + 1j * rng.standard_normal((K, ns))
    Y = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
    blocks = (W[:, :, None] * Y[:, None, :]).reshape(K * ns, M)
    assert np.array_equal(ls_rows(Y, W, power).build(0, K), blocks / np.sqrt(power))


def test_draw_paths_ranges_and_rejection():
    cfg = SimConfig(n_paths=4, d_min_m=9.0, d_max_m=16.0, r_min_m=7.0,
                    r_max_m=19.0, theta_max=0.8, seed=3)
    grid = cfg.grid()
    paths = draw_paths(cfg, trial_rng(3, 0, 0), grid)
    assert len(paths) == 4
    for p in paths:
        assert 9.0 <= p.dist_m <= 16.0
        assert 7.0 <= p.range_m <= 19.0
        assert abs(p.theta) <= 0.8
    # all pairs resolvable by at least one dictionary bin
    from nfce.bounds import resolution_predicate

    for i in range(4):
        for j in range(i + 1, 4):
            assert resolution_predicate(paths[i], paths[j], grid)[0]


def test_draw_paths_explicit_list():
    cfg = SimConfig(theta_list=(0.1, -0.2), d_list_m=(10.0, 12.0),
                    r_list_m=(9.0, 11.0))
    paths = draw_paths(cfg, trial_rng(0, 0, 0), cfg.grid())
    assert [p.theta for p in paths] == [0.1, -0.2]
    assert [p.dist_m for p in paths] == [10.0, 12.0]
    with pytest.raises(ConfigError, match="differ in length"):
        SimConfig(theta_list=(0.1,), d_list_m=(10.0, 12.0), r_list_m=(9.0,))


def test_draw_paths_impossible_rejection():
    # zero-width delay window cannot host two resolvable paths
    cfg = SimConfig(n_paths=2, d_min_m=10.0, d_max_m=10.0, r_min_m=10.0,
                    r_max_m=10.0, theta_max=0.01)
    with pytest.raises(ConfigError):
        draw_paths(cfg, trial_rng(0, 0, 0), cfg.grid())


def test_match_paths_bijective():
    grid = SubcarrierGrid.from_bandwidth(256, 600e6)
    t1 = PathParams(0.1, 10.0, 10.0, 1 + 0j)
    t2 = PathParams(0.2, 14.0, 12.0, 1 + 0j)

    class E:
        def __init__(self, d, r):
            self.dist_m, self.range_m = d, r

    e_near_t1 = E(10.0, 10.1)
    e_near_t2 = E(14.2, 11.9)
    pairs = match_paths([e_near_t1, e_near_t2], [t1, t2], grid)
    assert len(pairs) == 2
    matched_truths = {id(t) for _, t in pairs}
    assert matched_truths == {id(t1), id(t2)}
    # a far-away estimate matches nothing
    assert match_paths([E(40.0, 40.0)], [t1, t2], grid) == []
    th, dd, rr = parameter_errors([], [t1], grid)
    assert np.isnan(th) and np.isnan(dd) and np.isnan(rr)


def test_run_trial_record_fields():
    cfg = SimConfig(n_antennas=64, n_subarrays=16, n_subcarriers=128,
                    n_paths=1, trials=1, seed=7)
    rec = run_trial(cfg, 0, 15.0, "dps")
    assert rec.algorithm == "dps"
    assert rec.n_antennas == 64 and rec.n_subcarriers == 128
    assert rec.runtime_ms == 0.0  # timing off by default for byte-stable CSV
    assert rec.corr_count > 0
    assert np.isfinite(rec.nmse_db)
    rec_ls = run_trial(cfg, 0, 15.0, "ls")
    assert rec_ls.corr_count == 0
    with pytest.raises(ConfigError):
        run_trial(cfg, 0, 15.0, "newton")


def test_run_trial_timing_flag():
    cfg = SimConfig(n_antennas=64, n_subarrays=16, n_subcarriers=128,
                    n_paths=1, trials=1, seed=7, timing=True)
    rec = run_trial(cfg, 0, 15.0, "dps")
    assert rec.runtime_ms > 0.0


def test_sweep_csv_byte_determinism(tmp_path):
    cfg = SimConfig(n_antennas=64, n_subarrays=16, n_subcarriers=128,
                    n_paths=2, trials=3, seed=11, snr_db=(5.0, 15.0),
                    algorithms=("dps", "ls"))
    text1 = records_csv_text(monte_carlo_sweep(cfg))
    text2 = records_csv_text(monte_carlo_sweep(cfg))
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[0] == CSV_COLUMNS
    assert lines[0] == ("seed,trial,snr_db,N,K,M,L,L_hat,algorithm,nmse_db,"
                        "theta_err,d_err_m,r_err_m,runtime_ms,fallback,corr_count")
    assert len(lines) == 1 + 3 * 2 * 2
    # rows carry the right static fields
    first = lines[1].split(",")
    assert first[0] == "11" and first[3] == "64"
    assert first[8] in ALGORITHMS
    # file output matches the in-memory text
    out = tmp_path / "sweep.csv"
    cfg_file = SimConfig(n_antennas=64, n_subarrays=16, n_subcarriers=128,
                         n_paths=2, trials=3, seed=11, snr_db=(5.0, 15.0),
                         algorithms=("dps", "ls"), csv_path=str(out))
    monte_carlo_sweep(cfg_file)
    assert out.read_text() == text1


# ---------------------------------------------------------------------------
# the one-slot trial memo: a trial's paths, H and W are drawn once


_SMALL = dict(n_antennas=64, n_subarrays=16, n_subcarriers=128, n_paths=2)


def test_sweep_synthesizes_each_trial_once(monkeypatch):
    harness._SLOT.clear()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return synthesize_channel(*args, **kwargs)

    monkeypatch.setattr(harness, "synthesize_channel", counted)
    cfg = SimConfig(**_SMALL, trials=2, seed=21, snr_db=(0.0, 10.0, 20.0),
                    algorithms=ALGORITHMS)
    assert len(monte_carlo_sweep(cfg)) == 2 * 3 * 3
    assert len(calls) == 2
    # the sweep does not keep its last trial's channel once it returns
    draw_trial(cfg, 1, 10.0)
    assert len(calls) == 3


def test_sweep_observes_each_trial_snr_once(monkeypatch):
    harness._SLOT.clear()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return observe(*args, **kwargs)

    monkeypatch.setattr(harness, "observe", counted)
    cfg = SimConfig(**_SMALL, trials=2, seed=21, snr_db=(0.0, 10.0, 20.0),
                    algorithms=ALGORITHMS)
    assert len(monte_carlo_sweep(cfg)) == 2 * 3 * 3
    assert len(calls) == 2 * 3  # once per (trial, SNR), not per algorithm
    # the sweep does not keep its last observation once it returns
    draw_trial(cfg, 1, 20.0)
    assert len(calls) == 7


def test_memo_hits_equal_fresh_draws():
    cfg = SimConfig(**_SMALL, seed=22)
    other = dataclasses.replace(cfg, seed=23)
    order = [(cfg, 0), (cfg, 1), (cfg, 0), (other, 0), (cfg, 0), (other, 0)]

    def rows(empty_slot_each_run: bool) -> list[str]:
        harness._SLOT.clear()
        out = []
        for c, trial in order:
            for snr in (5.0, 15.0):
                for alg in ALGORITHMS:
                    if empty_slot_each_run:
                        harness._SLOT.clear()
                    out.append(run_trial(c, trial, snr, alg).csv_row())
        return out

    assert rows(False) == rows(True)
    # a draw that raises (16 subcarriers: a path delay of a symbol or more)
    # leaves the slot empty, so the next trial is served nothing of the last
    bad = dataclasses.replace(cfg, n_subcarriers=16)

    def after_failed_draw(fail: bool) -> list[str]:
        harness._SLOT.clear()
        run_trial(cfg, 0, 5.0, "omp")
        if fail:
            with pytest.raises(ValueError, match="symbol"):
                run_trial(bad, 0, 5.0, "ls")
            assert not harness._SLOT
        else:
            harness._SLOT.clear()
        return [run_trial(cfg, 1, 5.0, alg).csv_row() for alg in ALGORITHMS]

    assert after_failed_draw(True) == after_failed_draw(False)


def test_config_changed_in_place_draws_afresh():
    harness._SLOT.clear()
    cfg = SimConfig(**_SMALL, seed=25, theta_list=[0.1, -0.2],
                    d_list_m=[10.0, 12.0], r_list_m=[9.0, 11.0])
    assert draw_trial(cfg, 0, 10.0)[0][0].theta == 0.1
    cfg.theta_list[0] = 0.3
    assert draw_trial(cfg, 0, 10.0)[0][0].theta == 0.3


def test_shared_trial_arrays_are_read_only():
    harness._SLOT.clear()
    cfg = SimConfig(**_SMALL, seed=24)
    paths, H, W, _, Y = draw_trial(cfg, 0, 10.0)
    assert draw_trial(cfg, 0, 20.0)[1] is H  # shared across SNRs
    # every caller of the trial, run_trial included, reads the same arrays
    # and none can write them
    Y = draw_trial(cfg, 0, 10.0)[4]
    assert draw_trial(cfg, 0, 10.0)[4] is Y
    for arr in (H, W, Y):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    assert Y[0, 0] != 0.0
    paths.clear()  # the list of paths is the caller's own
    assert len(draw_trial(cfg, 0, 10.0)[0]) == 2


def test_path_params_are_frozen():
    path = PathParams(0.1, 10.0, 9.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        path.gain = 2.0 + 0.0j


def test_polar_omp_recovers_single_path():
    geom = ArrayGeometry(128, 32, 7e9)
    grid = SubcarrierGrid.from_bandwidth(128, 600e6)
    truth = PathParams(0.25, 12.0, 10.0, 1.0 + 0j)
    H = synthesize_channel([truth], geom, grid)
    W = random_phase_combiner(geom, np.random.default_rng(9))
    Y = observe(H, W, 1.0, 0.0)
    scale = float(np.mean(np.abs(Y) ** 2))
    rule = StoppingRule(noise_var=1e-2 * scale, p_fa=1e-3, max_paths=4)
    dist_grid = np.geomspace(5.0, 40.0, 24)
    paths, corr_iters = polar_omp_fallback(Y, W, geom, grid, rule,
                                           angle_grid_size=128,
                                           distance_grid=dist_grid)
    assert paths, "expected at least one detected path"
    assert corr_iters[0] == 128 * 24
    best = paths[0]
    assert best.theta == pytest.approx(truth.theta, abs=2.0 / 128)
    assert best.range_m + best.dist_m == pytest.approx(truth.total_m, abs=1.0)


def test_polar_omp_stops_on_the_middle_row_at_odd_counts():
    # K = 3: the stop rule reads the middle row, DPS's detection row, so a
    # signal only there is extracted
    geom = ArrayGeometry(48, 3, 7e9)
    grid = SubcarrierGrid.from_bandwidth(64, 600e6)
    H = synthesize_channel([PathParams(0.25, 12.0, 10.0, 1.0 + 0j)], geom, grid)
    W = random_phase_combiner(geom, np.random.default_rng(9))
    Y = observe(H, W, 1.0, 0.0)
    rule = StoppingRule(noise_var=1e-2 * float(np.mean(np.abs(Y) ** 2)), p_fa=1e-3)
    Y[[0, 2]] = 0.0
    paths, _ = polar_omp_fallback(Y, W, geom, grid, rule, 16,
                                  SimConfig().distance_grid())
    assert paths


def _reference_atoms(W, geom, angle_grid_size, distance_grid):
    """(theta grid, (G_theta, G_d, K) table of f_k^H w_k(theta, d)), one vdot
    per entry."""
    theta_grid = (2.0 * np.arange(angle_grid_size) + 1.0) / angle_grid_size - 1.0
    atoms = np.zeros((angle_grid_size, distance_grid.size, geom.n_subarrays),
                     dtype=complex)
    for i, th in enumerate(theta_grid):
        for j, dg in enumerate(distance_grid):
            w = steering_vector(th, dg, geom)
            for k in range(geom.n_subarrays):
                atoms[i, j, k] = np.vdot(W[k], w[geom.subarray_slice(k)])
    return theta_grid, atoms


def _polar_omp_reference(Y, W, geom, grid, rule, angle_grid_size, distance_grid,
                         power=1.0):
    """Polar OMP written out plainly: a vdot per (angle, distance, subarray),
    the full (G_theta, G_d, M) projection, and scores as its band energy."""
    K, M = geom.n_subarrays, grid.n_subcarriers
    theta_grid, atoms = _reference_atoms(W, geom, angle_grid_size, distance_grid)
    norms = np.maximum(np.linalg.norm(atoms, axis=2), 1e-300)
    dictionary = DelayDictionary(M)
    threshold = stopping_threshold(rule.noise_var, M, rule.p_fa)
    resid = np.array(Y, dtype=complex, copy=True)
    paths, corr_per_iter = [], []
    while len(paths) < rule.max_paths:
        if ml_delay_detect(resid[(K + 1) // 2 - 1], dictionary)[2] <= threshold:
            break
        proj = np.einsum("ijk,km->ijm", atoms.conj(), resid)
        scores = np.sum(np.abs(proj) ** 2, axis=2) / norms**2
        corr_per_iter.append(scores.size)
        i, j = np.unravel_index(int(np.argmax(scores)), scores.shape)
        tau = ml_delay_detect(proj[i, j] / norms[i, j] ** 2, dictionary)[1]
        rng_m = tau * SPEED_OF_LIGHT / grid.spacing_hz - distance_grid[j]
        paths.append(fit_and_cancel(resid, float(theta_grid[i]),
                                    float(distance_grid[j]), rng_m, W, geom, grid,
                                    power))
    return paths, corr_per_iter


def _omp_scenarios(equivalence):
    for seed, snr in ((1000, 0.0), (1001, 10.0), (1002, 20.0)):
        yield equivalence.harness_scenario(SimConfig(seed=seed), snr)
    for seed in (0, 1, 2):
        yield equivalence.a12_scenario(seed)


def test_polar_omp_matches_plain_reference(equivalence):
    for cfg, _, W, Y, rule in _omp_scenarios(equivalence):
        geom, grid = cfg.geometry(), cfg.grid()
        args = (Y, W, geom, grid, rule, cfg.angle_grid_size, cfg.distance_grid(),
                cfg.power)
        paths, corr = polar_omp_fallback(*args)
        ref_paths, ref_corr = _polar_omp_reference(*args)
        assert ref_paths, "every scenario should extract a path"
        assert corr == ref_corr
        assert len(paths) == len(ref_paths)
        for p, q in zip(paths, ref_paths):
            assert (p.theta, p.dist_m, p.range_m) == (q.theta, q.dist_m, q.range_m)
            scale = np.abs(q.lpu_gains).max()
            np.testing.assert_allclose(p.lpu_gains, q.lpu_gains, rtol=0,
                                       atol=1e-12 * scale)


def test_gram_scores_equal_projection_energy():
    # a^H (R R^H) a, as polar_omp_fallback scores atoms, against ||a^H R||^2
    # over the default config's polar dictionary
    cfg = SimConfig(seed=1001)
    _, _, W, _, Y = draw_trial(cfg, 0, 10.0)
    atoms = _reference_atoms(W, cfg.geometry(), cfg.angle_grid_size,
                             cfg.distance_grid())[1].reshape(-1, cfg.n_subarrays)
    gram = Y @ Y.conj().T
    scores = np.sum((atoms.conj() @ gram) * atoms, axis=1).real
    explicit = np.sum(np.abs(atoms.conj() @ Y) ** 2, axis=1)
    np.testing.assert_allclose(scores, explicit, rtol=1e-12)


# ---------------------------------------------------------------------------
# the one-slot polar-OMP atom table: built once per (geometry, grid, W)


def _direct_atom_table(W, geom, angle_grid_size, distance_grid):
    """The atom table with one ``steering_vector`` call per angle, as
    ``polar_omp_fallback`` built it before the table was mirrored."""
    theta_grid = (2.0 * np.arange(angle_grid_size) + 1.0) / angle_grid_size - 1.0
    K, n_dist = geom.n_subarrays, distance_grid.size
    atoms = np.empty((angle_grid_size, n_dist, K), dtype=complex)
    for i, th in enumerate(theta_grid):
        w = steering_vector(th, distance_grid[:, None], geom)
        atoms[i] = np.einsum("kn,gkn->gk", W.conj(), w.reshape(n_dist, K, -1))
    return theta_grid, atoms.reshape(-1, K)


@pytest.mark.parametrize("angle_grid_size", [64, 7, 10, 1])
@pytest.mark.parametrize("shape", [(256, 32), (64, 16)])
def test_mirrored_atom_table_equals_direct_build(angle_grid_size, shape):
    harness._SLOT.clear()
    geom = ArrayGeometry(*shape, 7e9)
    W = random_phase_combiner(geom, np.random.default_rng(angle_grid_size))
    dist = SimConfig().distance_grid()
    theta_grid, atoms, atoms_h, norms2 = harness._polar_atom_table(
        W, geom, angle_grid_size, dist)
    ref_theta, ref_atoms = _direct_atom_table(W, geom, angle_grid_size, dist)
    assert np.array_equal(theta_grid, ref_theta)
    assert np.array_equal(atoms, ref_atoms)
    assert np.array_equal(atoms_h, ref_atoms.conj())
    assert np.array_equal(
        norms2, np.maximum(np.linalg.norm(ref_atoms, axis=1), 1e-300) ** 2)
    harness._SLOT.clear()


def test_sweep_builds_each_trial_atom_table_once(monkeypatch):
    harness._SLOT.clear()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return steering_vector(*args, **kwargs)

    # harness calls steering_vector only to build the polar-OMP table
    monkeypatch.setattr(harness, "steering_vector", counted)
    cfg = SimConfig(**_SMALL, trials=2, seed=21, snr_db=(0.0, 10.0, 20.0),
                    algorithms=ALGORITHMS)
    assert cfg.angle_grid_size == 64
    assert len(monte_carlo_sweep(cfg)) == 2 * 3 * 3
    # G/2 per trial: one table per trial, its negative angles mirrored
    assert len(calls) == 2 * cfg.angle_grid_size // 2
    assert not harness._SLOT  # released with its trial
    # a new trial drops the last trial's table before it draws
    run_trial(cfg, 0, 10.0, "omp")
    assert "atoms" in harness._SLOT
    draw_trial(cfg, 1, 10.0)
    assert "atoms" not in harness._SLOT
    harness._SLOT.clear()


def test_atom_table_follows_the_combiners():
    harness._SLOT.clear()
    geom = ArrayGeometry(64, 16, 7e9)
    dist = SimConfig().distance_grid()
    W = random_phase_combiner(geom, np.random.default_rng(31))
    first = harness._polar_atom_table(W, geom, 10, dist)
    assert harness._polar_atom_table(W.copy(), geom, 10, dist) is first
    for arr in first:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # a writable W changed in place builds afresh
    W[3, 1] *= -1.0
    changed = harness._polar_atom_table(W, geom, 10, dist)
    assert changed is not first
    assert np.array_equal(changed[1], _direct_atom_table(W, geom, 10, dist)[1])
    # so does the same W in another dtype, and another grid
    W64 = W.astype(np.complex64)
    narrow = harness._polar_atom_table(W64, geom, 10, dist)
    assert narrow is not changed
    assert np.array_equal(narrow[1], _direct_atom_table(W64, geom, 10, dist)[1])
    assert harness._polar_atom_table(W64, geom, 12, dist)[1].shape == (12 * 16, 16)
    assert harness._polar_atom_table(W64, geom, 12, dist[:4])[1].shape == (12 * 4, 16)
    harness._SLOT.clear()


def test_bounds_table_format():
    geom = ArrayGeometry(512, 128, 7e9)
    grid = SubcarrierGrid.from_bandwidth(512, 600e6)
    text = bounds_table(
        [PathParams(0.1, 10.0, 10.0), PathParams(0.3, 15.0, 12.0)], geom, grid, 1.0, 1e-2
    )
    lines = text.strip().split("\n")
    assert lines[0] == BOUNDS_COLUMNS
    assert len(lines) == 3
    row = lines[1].split(",")
    assert len(row) == len(BOUNDS_COLUMNS.split(","))
    assert float(row[0]) == 0.1
    # 17 significant digits survive a parse round trip bit-exactly
    for cell in row[9:]:
        assert float(cell) == float(format(float(cell), ".17g"))


# ---------------------------------------------------------------------------
# input validation at the three estimator entry points


def _entry_points():
    geom = ArrayGeometry(64, 16, 7e9)
    grid = SubcarrierGrid.from_bandwidth(128, 600e6)
    rule = StoppingRule(noise_var=1.0)
    W = random_phase_combiner(geom, np.random.default_rng(0))
    Y = observe(synthesize_channel([PathParams(0.2, 12.0, 9.0)], geom, grid), W, 1.0, 0.0)
    calls = {
        "dps": lambda Y, W, power: run_dps(Y, W, geom, grid, rule, power=power),
        "omp": lambda Y, W, power: polar_omp_fallback(Y, W, geom, grid, rule, 8,
                                                      [10.0], power),
        "ls": lambda Y, W, power: ls_baseline(Y, W, power),
    }
    return Y, W, calls


ENTRY_POINTS = ("dps", "omp", "ls")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_inputs_valid_pass(entry):
    Y, W, calls = _entry_points()
    calls[entry](Y, W, 1.0)
    calls[entry](Y.astype(np.complex64), W, 2)  # any numeric dtype, integer power


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_inputs_reject_wrong_observation_shape(entry):
    Y, W, calls = _entry_points()
    for bad in (Y[:8], Y[:, :, None], Y[0]):
        with pytest.raises(ValueError, match="observation Y must be"):
            calls[entry](bad, W, 1.0)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_inputs_reject_wrong_combiner_shape(entry):
    Y, W, calls = _entry_points()
    with pytest.raises(ValueError, match="combiners must be 2-D"):
        calls[entry](Y, W.ravel(), 1.0)
    with pytest.raises(ValueError, match=r"must be 8x128|must be 16x4"):
        calls[entry](Y, W[:8], 1.0)
    if entry != "ls":  # LS knows no geometry: any subarray size is consistent
        with pytest.raises(ValueError, match=r"combiners must be 16x4, got \(16, 3\)"):
            calls[entry](Y, W[:, :3], 1.0)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_inputs_reject_non_finite(entry):
    Y, W, calls = _entry_points()
    for value in (np.nan, np.inf, complex(0.0, -np.inf)):
        bad = Y.copy()
        bad[3, 7] = value
        with pytest.raises(ValueError, match="observation Y has NaN or infinite"):
            calls[entry](bad, W, 1.0)
    with pytest.raises(ValueError, match="observation Y has NaN or infinite"):
        calls[entry](np.full_like(Y, np.nan), W, 1.0)
    bad = W.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="combiners has NaN or infinite"):
        calls[entry](Y, bad, 1.0)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_inputs_reject_non_numeric(entry):
    Y, W, calls = _entry_points()
    for bad in (Y.astype(object), Y.astype(str), Y.real > 0):
        with pytest.raises(ValueError, match="observation Y must be numeric"):
            calls[entry](bad, W, 1.0)
    with pytest.raises(ValueError, match="combiners must be numeric"):
        calls[entry](Y, W.astype(object), 1.0)


def test_omp_rejects_bad_polar_grid():
    # a bad distance entry used to give paths at that distance, a fractional
    # angle grid size a bare TypeError
    Y, W, _ = _entry_points()
    geom = ArrayGeometry(64, 16, 7e9)
    grid = SubcarrierGrid.from_bandwidth(128, 600e6)
    rule = StoppingRule(noise_var=1.0)

    def omp(angle_grid_size, distance_grid):
        return polar_omp_fallback(Y, W, geom, grid, rule, angle_grid_size,
                                  distance_grid)

    for bad in ([10.0, np.nan], [np.inf], [0.0, 10.0], [-5.0], [10.0, -np.inf]):
        with pytest.raises(ValueError, match="distance_grid entries must be finite "
                                             "and positive"):
            omp(8, bad)
    with pytest.raises(ValueError, match="distance_grid is empty"):
        omp(8, [])
    for bad in (2.5, 8.0, 0, -1, "8", True, None):
        with pytest.raises(ValueError, match="angle_grid_size must be a positive "
                                             "integer"):
            omp(bad, [10.0])
    omp(np.int64(8), np.array([10.0, 20.0]))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_inputs_reject_bad_power(entry):
    Y, W, calls = _entry_points()
    for power in (0.0, -1.0, np.inf, np.nan, None, "1", 1j):
        with pytest.raises(ValueError, match="power must be finite and positive"):
            calls[entry](Y, W, power)
