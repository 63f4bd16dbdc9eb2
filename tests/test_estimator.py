"""Delay detection, extrapolation, decoupling, and the full estimator loop."""
import math
import tracemalloc

import numpy as np
import pytest

from nfce.model import (
    ArrayGeometry,
    PathParams,
    SPEED_OF_LIGHT,
    SubcarrierGrid,
    delay_steering,
    index_offsets,
    phase_ramp,
    steering_vector,
    subarray_centers,
    subarray_delay_profile,
    synthesize_channel,
)
from nfce.frontend import observe, random_phase_combiner
from nfce.estimator import (
    _RECONSTRUCT_CHUNK_ENTRIES,
    DelayDictionary,
    PathEstimate,
    StoppingRule,
    central_index,
    conj_atoms,
    decouple_angle,
    decouple_distance,
    decouple_profile,
    decouple_range,
    estimate_gain_lpu,
    extrapolate_delays,
    extrapolate_step,
    fit_and_cancel,
    fit_profile_exact,
    gain_column,
    grid_scores,
    max_hop,
    ml_delay_detect,
    reconstruct_channel,
    residual_update,
    run_dps,
    shift_table,
    stopping_threshold,
    window_scores,
)

from conftest import fresnel_delay_profile


def test_dictionary_grid_points():
    dic = DelayDictionary(8)
    np.testing.assert_allclose(dic.grid, (2 * np.arange(1, 9) - 1) / 16.0)
    with pytest.raises(ValueError):
        DelayDictionary(1)


def test_dictionary_atoms_orthogonal():
    dic = DelayDictionary(16)
    B = np.stack([delay_steering(t, 16) for t in dic.grid])
    G = B.conj() @ B.T
    np.testing.assert_allclose(G, 16.0 * np.eye(16), atol=1e-9)


def test_grid_scores_match_direct_correlation():
    dic = DelayDictionary(64)
    rng = np.random.default_rng(23)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    direct = np.array([np.abs(np.vdot(delay_steering(t, 64), y)) ** 2 / 64.0
                       for t in dic.grid])
    np.testing.assert_allclose(grid_scores(y, dic), direct, atol=1e-10)
    with pytest.raises(ValueError):
        grid_scores(y[:10], dic)


def test_window_scores_match_grid_scores_on_grid():
    dic = DelayDictionary(32)
    rng = np.random.default_rng(4)
    y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    np.testing.assert_allclose(
        window_scores(y, conj_atoms(dic.grid, 32)), grid_scores(y, dic), atol=1e-10
    )


def test_ml_delay_detect_finds_planted_atom():
    dic = DelayDictionary(128)
    idx_true = 37
    y = 2.2 * delay_steering(dic.grid[idx_true], 128)
    idx, tau, score = ml_delay_detect(y, dic)
    assert idx == idx_true
    assert tau == pytest.approx(dic.grid[idx_true])
    assert score == pytest.approx(2.2**2 * 128.0, rel=1e-12)


def test_max_hop_values():
    # B ns / (2 fc): 600 MHz * 4 / 14 GHz is below 1, so the floor of one
    # bin applies; a 64-antenna subarray needs 3 bins
    assert max_hop(ArrayGeometry(1024, 256, 7e9), SubcarrierGrid.from_bandwidth(1024, 600e6)) == 1
    assert max_hop(ArrayGeometry(1024, 16, 7e9), SubcarrierGrid.from_bandwidth(1024, 600e6)) == 3
    # exact integer ratio must not round up: B ns / (2 fc) = 2 exactly
    assert max_hop(ArrayGeometry(256, 8, 7e9), SubcarrierGrid.from_bandwidth(256, 875e6)) == 2
    # the hop reads the real pitch: 3-lambda/2 spacing triples the drift,
    # 600 MHz * 32 * 3 / 14 GHz = 4.11 bins
    wide = ArrayGeometry(256, 8, 7e9, spacing_m=3 * SPEED_OF_LIGHT / (2 * 7e9))
    assert max_hop(wide, SubcarrierGrid.from_bandwidth(256, 600e6)) == 5


def test_central_index():
    assert central_index(2) == 0
    assert central_index(6) == 2
    assert central_index(256) == 127
    with pytest.raises(ValueError):
        central_index(5)


def test_extrapolate_step_window():
    dic = DelayDictionary(64)
    prev = dic.grid[20]
    y = delay_steering(dic.grid[22], 64)  # two bins up
    kappa, tau, _ = extrapolate_step(y, prev, 2, dic)
    assert kappa == 2
    assert tau == pytest.approx(dic.grid[22])
    # hop cap of one bin cannot reach it; best in-window candidate wins
    kappa1, _, _ = extrapolate_step(y, prev, 1, dic)
    assert kappa1 == 1


def test_stopping_threshold_frozen_values():
    assert stopping_threshold(1.0, 1024, 1e-3) == pytest.approx(
        13.838726876123081, rel=1e-12
    )
    assert stopping_threshold(2.5, 256, 1e-2) == pytest.approx(
        25.36331667814034, rel=1e-12
    )
    with pytest.raises(ValueError):
        stopping_threshold(1.0, 1024, 0.0)


def test_stopping_threshold_false_alarm_rate():
    # on pure noise the max grid score should exceed the threshold with
    # probability close to p_fa
    dic = DelayDictionary(256)
    rng = np.random.default_rng(99)
    nv = 2.0
    thr = stopping_threshold(nv, 256, 0.05)
    hits = 0
    trials = 2000
    for _ in range(trials):
        y = np.sqrt(nv / 2) * (
            rng.standard_normal(256) + 1j * rng.standard_normal(256)
        )
        if grid_scores(y, dic).max() > thr:
            hits += 1
    assert hits / trials == pytest.approx(0.05, abs=0.02)


def _profile_case(theta=0.35, d=14.0, r=9.0, K=64, N=256, M=512):
    geom = ArrayGeometry(N, K, 7e9)
    grid = SubcarrierGrid.from_bandwidth(M, 600e6)
    taus = fresnel_delay_profile(theta, d, r, geom, grid)
    return geom, grid, taus


def test_decouple_angle_recovers_theta():
    geom, grid, taus = _profile_case()
    theta, clamped = decouple_angle(taus, geom, grid)
    assert not clamped
    assert theta == pytest.approx(0.35, rel=1e-12)


def test_decouple_distance_and_range():
    geom, grid, taus = _profile_case()
    theta, _ = decouple_angle(taus, geom, grid)
    d = decouple_distance(taus, theta, geom, grid)
    assert d == pytest.approx(14.0, rel=1e-10)
    r = decouple_range(taus, theta, d, geom, grid)
    assert r == pytest.approx(9.0, rel=1e-10)


def test_decouple_angle_clamps_garbage():
    geom = ArrayGeometry(256, 64, 7e9)
    grid = SubcarrierGrid.from_bandwidth(512, 600e6)
    # a wildly sloped profile implies |theta| > 1
    taus = np.linspace(0.0, 0.5, 64)
    theta, clamped = decouple_angle(taus, geom, grid)
    assert clamped
    assert abs(theta) == pytest.approx(1.0, abs=1e-8)


def test_fit_profile_exact_roundtrip():
    # exact subarray-center delays in, parameters out, machine precision
    rng = np.random.default_rng(31)
    geom = ArrayGeometry(512, 128, 7e9)
    grid = SubcarrierGrid.from_bandwidth(1024, 600e6)
    for _ in range(25):
        theta = rng.uniform(-0.95, 0.95)
        d = rng.uniform(10.0, 20.0)
        r = rng.uniform(10.0, 20.0)
        taus = subarray_delay_profile(theta, d, r, geom, grid)
        fit = fit_profile_exact(taus, geom, grid)
        assert fit is not None
        assert fit[0] == pytest.approx(theta, rel=1e-9, abs=1e-12)
        assert fit[1] == pytest.approx(d, rel=1e-9)
        assert fit[2] == pytest.approx(r, rel=1e-9)


def test_fit_profile_exact_rejects_flat():
    geom = ArrayGeometry(64, 16, 7e9)
    grid = SubcarrierGrid.from_bandwidth(256, 600e6)
    assert fit_profile_exact(np.full(16, 0.3), geom, grid) is None


def test_decouple_profile_prefers_exact():
    geom = ArrayGeometry(512, 128, 7e9)
    grid = SubcarrierGrid.from_bandwidth(1024, 600e6)
    taus = subarray_delay_profile(0.5, 12.0, 10.0, geom, grid)

    class FakeTrack:
        taus_unwrapped = taus

    out = decouple_profile(FakeTrack(), geom, grid)
    assert out is not None
    theta, d, r, clamped, refined = out
    assert refined and not clamped
    assert theta == pytest.approx(0.5, rel=1e-9)
    assert d == pytest.approx(12.0, rel=1e-8)
    # refine="none" keeps the reflection solution (Fresnel-accurate only)
    out2 = decouple_profile(FakeTrack(), geom, grid, refine="none")
    assert out2 is not None and not out2[4]
    with pytest.raises(ValueError):
        decouple_profile(FakeTrack(), geom, grid, refine="bogus")


def test_gain_fit_exact_on_matched_row():
    geom = ArrayGeometry(64, 16, 7e9)
    grid = SubcarrierGrid.from_bandwidth(128, 600e6)
    W = random_phase_combiner(geom, np.random.default_rng(8))
    rho = 0.7 - 1.1j
    power = 2.0
    v = gain_column(0.25, 13.0, 7.0, W, geom, grid)[5]
    y = math.sqrt(power) * rho * v
    rho_hat = estimate_gain_lpu(y, v, power)
    assert rho_hat == pytest.approx(rho, rel=1e-12)
    np.testing.assert_allclose(
        residual_update(y, rho_hat, v, power), 0.0, atol=1e-10
    )


def test_estimate_gain_degenerate_column():
    assert estimate_gain_lpu(np.ones(8, complex), np.zeros(8, complex)) == 0.0 + 0.0j


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(noise_var=-1.0)
    with pytest.raises(ValueError):
        StoppingRule(noise_var=1.0, p_fa=1.5)
    with pytest.raises(ValueError):
        StoppingRule(noise_var=1.0, max_paths=-2)
    # a NaN noise variance makes the CFAR threshold NaN, and no peak ever
    # falls below it; zero stays allowed (a noiseless observation)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="noise_var must be finite"):
            StoppingRule(noise_var=value)
    assert StoppingRule(noise_var=0.0).noise_var == 0.0


def _single_path_setup(theta=0.4, d=12.0, r=9.0, N=256, K=64, M=256, seed=2):
    geom = ArrayGeometry(N, K, 7e9)
    grid = SubcarrierGrid.from_bandwidth(M, 600e6)
    path = PathParams(theta, d, r, gain=1.0 + 0.5j)
    H = synthesize_channel([path], geom, grid)
    W = random_phase_combiner(geom, np.random.default_rng(seed))
    Y = observe(H, W, 1.0, 0.0)
    return geom, grid, path, H, W, Y


def test_run_dps_single_clean_path():
    geom, grid, path, H, W, Y = _single_path_setup()
    scale = float(np.mean(np.abs(Y) ** 2))
    rule = StoppingRule(noise_var=1e-2 * scale, p_fa=1e-3)
    res = run_dps(Y, W, geom, grid, rule)
    assert res.n_paths == 1
    assert res.stop_reason == "threshold"
    est = res.paths[0]
    assert est.theta == pytest.approx(path.theta, abs=2e-2)
    assert est.dist_m == pytest.approx(path.dist_m, rel=0.25)
    # the center-subarray delay is the quantity the detector pins down:
    # it must land within one grid bin (c/B meters) of the truth
    kc = central_index(geom.n_subarrays)
    eta_hat = est.range_m + subarray_centers(est.theta, est.dist_m, geom)[0][kc]
    eta_true = path.range_m + subarray_centers(path.theta, path.dist_m, geom)[0][kc]
    assert eta_hat == pytest.approx(eta_true, abs=SPEED_OF_LIGHT / grid.bandwidth_hz)
    H_hat = reconstruct_channel(res.paths, geom, grid)
    nmse = np.linalg.norm(H_hat - H) ** 2 / np.linalg.norm(H) ** 2
    # desk-scale quantization residual; full-scale accuracy is asserted in
    # the acceptance suite
    assert 10 * np.log10(nmse) < -15.0


def test_run_dps_correlation_counter():
    geom, grid, path, H, W, Y = _single_path_setup()
    scale = float(np.mean(np.abs(Y) ** 2))
    rule = StoppingRule(noise_var=1e-2 * scale, p_fa=1e-3)
    res = run_dps(Y, W, geom, grid, rule)
    K, M = geom.n_subarrays, grid.n_subcarriers
    hop = max_hop(geom, grid)
    per_iter = M + (K - 1) * (2 * hop + 1)
    assert res.corr_per_iter == [per_iter] * res.n_paths
    # terminal threshold check costs another M central correlations
    assert res.corr_total == per_iter * res.n_paths + M


def test_run_dps_pure_noise_stops_immediately():
    geom = ArrayGeometry(128, 32, 7e9)
    grid = SubcarrierGrid.from_bandwidth(128, 600e6)
    W = random_phase_combiner(geom, np.random.default_rng(3))
    rng = np.random.default_rng(12)
    nv = 0.5
    Y = np.sqrt(nv / 2) * (
        rng.standard_normal((32, 128)) + 1j * rng.standard_normal((32, 128))
    )
    res = run_dps(Y, W, geom, grid, StoppingRule(noise_var=nv, p_fa=1e-3))
    assert res.n_paths == 0
    assert res.stop_reason == "threshold"
    assert res.corr_total == 128  # one full-grid check, nothing else
    assert res.corr_per_iter == []


def test_run_dps_max_paths_cap():
    geom, grid, path, H, W, Y = _single_path_setup()
    rule = StoppingRule(noise_var=1e-12, p_fa=1e-3, max_paths=2)
    res = run_dps(Y, W, geom, grid, rule)
    assert res.n_paths <= 2
    if res.stop_reason == "max_paths":
        assert res.n_paths == 2


def test_run_dps_two_paths_separated():
    geom = ArrayGeometry(256, 64, 7e9)
    grid = SubcarrierGrid.from_bandwidth(256, 600e6)
    bin_m = SPEED_OF_LIGHT / grid.bandwidth_hz  # c / (M df): one-bin length
    p1 = PathParams(0.3, 12.0, 8.0, 1.0 + 0.0j)
    p2 = PathParams(-0.45, 15.0, 8.0 + 12.0 * bin_m, 0.8 + 0.3j)
    H = synthesize_channel([p1, p2], geom, grid)
    W = random_phase_combiner(geom, np.random.default_rng(21))
    Y = observe(H, W, 1.0, 0.0)
    scale = float(np.mean(np.abs(Y) ** 2))
    res = run_dps(Y, W, geom, grid, StoppingRule(noise_var=1e-4 * scale, max_paths=8))
    assert res.n_paths >= 2
    # the two dominant estimates straddle the true center delays
    got = sorted(e.range_m + e.dist_m for e in res.paths[:2])
    want = sorted([p1.total_m, p2.total_m])
    assert got[0] == pytest.approx(want[0], abs=1.0)
    assert got[1] == pytest.approx(want[1], abs=1.0)


def test_run_dps_shape_validation():
    geom = ArrayGeometry(64, 16, 7e9)
    grid = SubcarrierGrid.from_bandwidth(128, 600e6)
    W = random_phase_combiner(geom, np.random.default_rng(0))
    with pytest.raises(ValueError):
        run_dps(np.zeros((4, 4), complex), W, geom, grid, StoppingRule(noise_var=1.0))


def test_extrapolate_delays_tracks_profile():
    # plant per-subarray delay atoms directly and check the serial tracker
    geom = ArrayGeometry(256, 64, 7e9)
    grid = SubcarrierGrid.from_bandwidth(256, 600e6)
    dic = DelayDictionary(256)
    taus_true = subarray_delay_profile(0.6, 11.0, 9.0, geom, grid)
    idx_true = np.round(taus_true * 256 - 0.5).astype(int)
    Y = np.stack([delay_steering(dic.grid[i], 256) for i in idx_true])
    kc = central_index(64)
    track = extrapolate_delays(Y, dic.grid[idx_true[kc]], geom, dic, max_hop(geom, grid))
    np.testing.assert_array_equal(track.grid_indices, idx_true)
    assert track.kappas[kc] == 0
    assert not track.all_equal()


# a12's scenarios (64/16/128, 1 + seed % 3 paths, 15 dB, max_paths=8) whose
# run_dps stops for each of the four reasons
_STOP_SEEDS = {"max_paths": 0, "fallback": 2, "rejected": 3, "threshold": 15}


def _a12_scenario(equivalence, seed):
    cfg, _, W, Y, rule = equivalence.a12_scenario(seed)
    return cfg.geometry(), cfg.grid(), W, Y, rule


@pytest.mark.parametrize("reason", sorted(_STOP_SEEDS))
def test_run_dps_iteration_record(equivalence, reason):
    geom, grid, W, Y, rule = _a12_scenario(equivalence, _STOP_SEEDS[reason])
    res = run_dps(Y, W, geom, grid, rule)
    assert res.stop_reason == reason
    K, M = geom.n_subarrays, grid.n_subcarriers
    hop = max_hop(geom, grid)
    assert res.threshold == stopping_threshold(rule.noise_var, M, rule.p_fa)
    steps = res.iterations
    tracked = [s for s in steps if s.track is not None]
    # one record per detection attempt: each costs M correlations at the
    # center, and each that went on to extrapolate (K-1)(2 M_s + 1) more
    assert len(tracked) == len(res.corr_per_iter)
    assert res.corr_total == len(steps) * M + len(tracked) * (K - 1) * (2 * hop + 1)
    accepted = [s.path for s in steps if s.path is not None]
    assert len(accepted) == res.n_paths
    assert all(a is p for a, p in zip(accepted, res.paths))
    assert all(s.peak > res.threshold for s in steps[:-1])
    last = steps[-1]
    if reason == "threshold":
        assert last.peak <= res.threshold and last.track is None
    elif reason == "max_paths":
        assert last.peak > res.threshold and last.track is None
        assert res.n_paths == rule.max_paths
    else:
        assert last.peak > res.threshold
        assert last.track is not None and last.path is None


# ---------------------------------------------------------------------------
# vectorized kernels against the plain formulas they replace.  Their
# arithmetic is reordered (factored exponentials, row-wise reductions), so
# they agree to 1e-12 relative, or absolute against the largest entry


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("M", [2, 7, 96, 128, 1024])
def test_phase_ramp_matches_direct_exponential(M):
    phis = np.concatenate([[0.0, 2 * np.pi, -2 * np.pi, 1e-9],
                           np.random.default_rng(M).uniform(-2 * np.pi, 2 * np.pi, 12)])
    for phi in phis:
        np.testing.assert_allclose(phase_ramp(phi, M),
                                   np.exp(1j * phi * index_offsets(M)),
                                   rtol=1e-12, atol=0)
    # an array of phases gives one ramp per entry along a new last axis
    np.testing.assert_allclose(phase_ramp(phis, M),
                               np.exp(1j * np.outer(phis, index_offsets(M))),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("off_grid", [False, True])
def test_hop_scores_match_direct_window(off_grid):
    M, m_hop = 256, 3
    dic = DelayDictionary(M)
    rng = np.random.default_rng(5 + off_grid)
    kappas = np.arange(-m_hop, m_hop + 1)
    delta = index_offsets(M)
    for _ in range(10):
        prev = dic.grid[rng.integers(M)] + (rng.uniform(-0.5, 0.5) / M if off_grid else 0)
        y = (rng.standard_normal(M) + 1j * rng.standard_normal(M)
             + 3.0 * delay_steering(prev + rng.integers(-m_hop, m_hop + 1) / M, M))
        direct = np.abs(
            np.exp(2j * np.pi * np.outer(prev + kappas / M, delta)).conj() @ y) ** 2 / M
        hop = window_scores(y * np.exp(-2j * np.pi * prev * delta), shift_table(m_hop, M))
        _assert_close(hop, direct)
        kappa, tau, score = extrapolate_step(y, prev, m_hop, dic)
        assert kappa == kappas[np.argmax(direct)]
        assert tau == prev + kappa / M
        assert score == pytest.approx(direct.max(), rel=1e-12)
    # one read-only table per (m_hop, M), shared by every hop
    assert shift_table(m_hop, M) is shift_table(m_hop, M)
    assert not shift_table(m_hop, M).flags.writeable


def _gain_column_row(k, theta, dist_m, range_m, combiner_row, geom, grid):
    """Subarray k's model column, built on its own from the formula."""
    w = steering_vector(theta, dist_m, geom)
    fk_wk = np.vdot(combiner_row, w[geom.subarray_slice(k)])
    dist_k, _ = subarray_centers(theta, dist_m, geom)
    return fk_wk * np.exp(2j * np.pi / SPEED_OF_LIGHT * grid.freq_offsets_hz
                          * (range_m + dist_k[k]))


def test_gain_columns_match_per_row_build():
    geom = ArrayGeometry(256, 32, 7e9)
    grid = SubcarrierGrid.from_bandwidth(256, 600e6)
    W = random_phase_combiner(geom, np.random.default_rng(17))
    for theta, d, r in [(0.25, 13.0, 7.0), (-0.9, 5.5, 19.0), (0.0, 40.0, 0.0)]:
        V = gain_column(theta, d, r, W, geom, grid)
        assert V.shape == (32, 256)
        want = np.stack([_gain_column_row(k, theta, d, r, W[k], geom, grid)
                         for k in range(32)])
        _assert_close(V, want)


def test_fit_and_cancel_matches_per_row_fit():
    geom = ArrayGeometry(256, 32, 7e9)
    grid = SubcarrierGrid.from_bandwidth(256, 600e6)
    W = random_phase_combiner(geom, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((32, 256)) + 1j * rng.standard_normal((32, 256))
    theta, d, r, power = -0.3, 11.0, 14.0, 2.0
    want_gains = np.zeros(32, complex)
    want_resid = Y.copy()
    for k in range(32):
        v = _gain_column_row(k, theta, d, r, W[k], geom, grid)
        want_gains[k] = np.vdot(v, Y[k]) / (math.sqrt(power) * np.vdot(v, v).real)
        want_resid[k] = Y[k] - math.sqrt(power) * want_gains[k] * v
    resid = Y.copy()
    est = fit_and_cancel(resid, theta, d, r, W, geom, grid, power)
    _assert_close(est.lpu_gains, want_gains)
    _assert_close(resid, want_resid)
    assert est.gain == np.mean(est.lpu_gains)
    # LPU split: changing subarray 4's row and combiner moves only its gain
    Y2, W2 = Y.copy(), W.copy()
    Y2[4] *= 1j
    W2[4] = W2[4][::-1]
    other = fit_and_cancel(Y2, theta, d, r, W2, geom, grid, power).lpu_gains
    keep = np.arange(32) != 4
    np.testing.assert_array_equal(other[keep], est.lpu_gains[keep])
    assert other[4] != est.lpu_gains[4]


def _reconstruct_per_block(paths, geom, grid):
    """Block-by-block reconstruction: one outer product per subarray and path."""
    H = np.zeros((geom.n_antennas, grid.n_subcarriers), dtype=complex)
    for est in paths:
        w = steering_vector(est.theta, est.dist_m, geom)
        dist_k, _ = subarray_centers(est.theta, est.dist_m, geom)
        for k in range(geom.n_subarrays):
            rho = est.lpu_gains[k]
            if rho == 0:
                continue
            p = np.exp(2j * np.pi / SPEED_OF_LIGHT * grid.freq_offsets_hz
                       * (est.range_m + dist_k[k]))
            sl = geom.subarray_slice(k)
            H[sl] += rho * np.outer(w[sl], p)
    return H


def _drawn_paths(n_paths, n_subarrays, seed=0):
    """``n_paths`` estimates with random parameters and per-LPU gains."""
    rng = np.random.default_rng(seed)
    return [
        PathEstimate(rng.uniform(-0.8, 0.8), rng.uniform(8.0, 30.0), rng.uniform(5.0, 20.0),
                     0j, rng.standard_normal(n_subarrays)
                     + 1j * rng.standard_normal(n_subarrays), None)
        for _ in range(n_paths)
    ]


def test_reconstruct_channel_matches_per_block_loop(equivalence):
    geom, grid, W, Y, rule = _a12_scenario(equivalence, _STOP_SEEDS["max_paths"])
    paths = run_dps(Y, W, geom, grid, rule).paths
    assert len(paths) == rule.max_paths
    paths[1].lpu_gains[3] = 0.0  # a zero gain leaves its block out
    _assert_close(reconstruct_channel(paths, geom, grid),
                  _reconstruct_per_block(paths, geom, grid))
    assert not reconstruct_channel([], geom, grid).any()
    # subarrays are walked in chunks: 48 = 25 + 23 (a partial last chunk),
    # one subarray per chunk, and a single path (all 32 in one chunk)
    for n, k, m, n_paths, chunk in ((96, 48, 64, 5, 25), (32, 8, 1024, 5, 1),
                                    (256, 32, 256, 1, 32)):
        geom = ArrayGeometry(n, k, 7e9)
        grid = SubcarrierGrid.from_bandwidth(m, 600e6)
        assert max(1, _RECONSTRUCT_CHUNK_ENTRIES // (n_paths * m)) == chunk
        paths = _drawn_paths(n_paths, k, seed=n_paths)
        paths[0].lpu_gains[k - 1] = 0.0
        _assert_close(reconstruct_channel(paths, geom, grid),
                      _reconstruct_per_block(paths, geom, grid))


@pytest.mark.parametrize("n, k, m", [(1024, 256, 1024), (256, 32, 256)])
def test_reconstruct_channel_needs_no_channel_sized_scratch(n, k, m):
    # 16 paths: the traced peak of one call stays within twice the bytes of H
    geom = ArrayGeometry(n, k, 7e9)
    grid = SubcarrierGrid.from_bandwidth(m, 600e6)
    paths = _drawn_paths(16, k)
    tracemalloc.start()
    try:
        H = reconstruct_channel(paths, geom, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.shape == (n, m)
    assert peak <= 2 * H.nbytes


def test_estimate_gain_rows_are_independent():
    rng = np.random.default_rng(0)
    V = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    V[2] = 0.0  # a vanishing column fits a zero gain in its row only
    rho = np.array([1 + 1j, -0.5j, 2.0, 0.25])
    Y = rho[:, None] * V * math.sqrt(3.0)
    got = estimate_gain_lpu(Y, V, 3.0)
    np.testing.assert_allclose(got, [1 + 1j, -0.5j, 0.0, 0.25], rtol=1e-12)
    for k in range(4):
        assert got[k] == estimate_gain_lpu(Y[k], V[k], 3.0)
    np.testing.assert_allclose(residual_update(Y, got, V, 3.0), 0.0, atol=1e-12)
