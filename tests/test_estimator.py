"""Delay detection, extrapolation, decoupling, and the full estimator loop."""
import math
import tracemalloc

import numpy as np
import pytest

from nfce.model import (
    _PROFILE_CHUNK_ENTRIES,
    _ramp_split,
    ArrayGeometry,
    PathParams,
    SPEED_OF_LIGHT,
    SubcarrierGrid,
    delay_steering,
    index_offsets,
    steering_vector,
    subarray_centers,
    subarray_delay_profile,
    synthesize_channel,
)
from nfce.frontend import observe, random_phase_combiner
from nfce.harness import SimConfig, draw_trial
from nfce.runtime import run_distributed
from nfce.estimator import (
    DelayDictionary,
    PathEstimate,
    StoppingRule,
    central_index,
    decouple_linear,
    decouple_profile,
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

from conftest import delay_grid, fresnel_delay_profile


def test_dictionary_grid_points():
    dic = DelayDictionary(8)
    np.testing.assert_allclose(delay_grid(dic), (2 * np.arange(1, 9) - 1) / 16.0)
    with pytest.raises(ValueError):
        DelayDictionary(1)


def test_dictionary_atoms_orthogonal():
    dic = DelayDictionary(16)
    B = np.stack([delay_steering(t, 16) for t in delay_grid(dic)])
    G = B.conj() @ B.T
    np.testing.assert_allclose(G, 16.0 * np.eye(16), atol=1e-9)


def test_grid_scores_match_direct_correlation():
    dic = DelayDictionary(64)
    rng = np.random.default_rng(23)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    direct = np.array([np.abs(np.vdot(delay_steering(t, 64), y)) ** 2 / 64.0
                       for t in delay_grid(dic)])
    np.testing.assert_allclose(grid_scores(y, dic), direct, atol=1e-10)
    with pytest.raises(ValueError):
        grid_scores(y[:10], dic)


def test_window_scores_match_grid_scores_on_grid():
    dic = DelayDictionary(32)
    rng = np.random.default_rng(4)
    y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    np.testing.assert_allclose(
        window_scores(y, delay_steering(delay_grid(dic)[:, None], 32).conj()), grid_scores(y, dic),
        atol=1e-10
    )


@pytest.mark.parametrize("M, m_hop", [(16, 1), (128, 1), (97, 2), (1024, 3)])
def test_scores_are_the_bits_of_the_plain_expressions(M, m_hop):
    # grid_scores squares and scales one buffer in place, and window_scores
    # calls ndarray.dot and squares and scales Python floats; both must give
    # the bits of the one-line expressions
    rng = np.random.default_rng(M)
    pre = np.exp(-1j * np.pi * np.arange(M) / M)
    for _ in range(20):
        y = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        window = shift_table(m_hop, M) * delay_steering(rng.uniform(), M).conj()
        scores = window_scores(y, window)
        assert type(scores) is list and all(type(v) is float for v in scores)
        assert np.array_equal(scores, np.abs(window @ y) ** 2 / M)
        assert np.array_equal(grid_scores(y, DelayDictionary(M)),
                              np.abs(np.fft.fft(y * pre)) ** 2 / M)


def test_ml_delay_detect_finds_planted_atom():
    dic = DelayDictionary(128)
    idx_true = 37
    y = 2.2 * delay_steering(delay_grid(dic)[idx_true], 128)
    idx, tau, score = ml_delay_detect(y, dic)
    assert idx == idx_true
    assert tau == pytest.approx(delay_grid(dic)[idx_true])
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


def _window_at(tau, m_hop, M):
    """Candidate window b(tau + kappa/M)^*, kappa = -m_hop..m_hop, rebuilt from tau."""
    return delay_steering((tau + np.arange(-m_hop, m_hop + 1) / M)[:, None], M).conj()


def test_extrapolate_step_window():
    dic = DelayDictionary(64)
    prev = delay_grid(dic)[20]
    window = shift_table(2, 64) * delay_steering(prev, 64).conj()  # b(prev + kappa/M)^*
    y = delay_steering(delay_grid(dic)[22], 64)  # two bins up
    kappa, _ = extrapolate_step(y, window, 2)
    assert kappa == 2
    assert prev + kappa / 64 == pytest.approx(delay_grid(dic)[22])
    # the window slid to the winner holds b(prev + kappa/M + kappa'/M)^*
    np.testing.assert_allclose(window, _window_at(delay_grid(dic)[22], 2, 64), rtol=0, atol=1e-12)
    # a hop that stays put leaves the window's bits as they are
    before = window.copy()
    assert extrapolate_step(y, window, 2)[0] == 0
    np.testing.assert_array_equal(window, before)
    # hop cap of one bin cannot reach it; best in-window candidate wins
    window1 = shift_table(1, 64) * delay_steering(prev, 64).conj()
    kappa1, _ = extrapolate_step(y, window1, 1)
    assert kappa1 == 1
    np.testing.assert_allclose(window1, _window_at(delay_grid(dic)[21], 1, 64), rtol=0, atol=1e-12)


def test_extrapolate_step_on_a_zero_row_takes_the_most_negative_hop():
    # every score is 0.0, so the first candidate, kappa = -m_hop, wins
    for m_hop in (1, 3):
        window = shift_table(m_hop, 32) * delay_steering(0.3, 32).conj()
        kappa, score = extrapolate_step(np.zeros(32, dtype=complex), window, m_hop)
        assert (kappa, score) == (-m_hop, 0.0)
        assert type(score) is float


def test_extrapolate_step_exact_tie_goes_to_the_more_negative_hop():
    # integer-valued rows make every product exact, so kappa = -1 and +1
    # score exactly M each (kappa = 0 scores 0) in any summation order
    M = 16
    y = np.ones(M, dtype=complex)
    window = np.ones((3, M), dtype=complex)
    window[1, ::2] = -1.0
    assert window_scores(y, window) == [float(M), 0.0, float(M)]
    assert extrapolate_step(y, window, 1) == (-1, float(M))


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
    theta, _, _, clamped = decouple_linear(taus, geom, grid)
    assert not clamped
    assert theta == pytest.approx(0.35, rel=1e-12)


def test_decouple_distance_and_range():
    geom, grid, taus = _profile_case()
    _, d, r, _ = decouple_linear(taus, geom, grid)
    assert d == pytest.approx(14.0, rel=1e-10)
    assert r == pytest.approx(9.0, rel=1e-10)


def test_decouple_angle_clamps_garbage():
    geom = ArrayGeometry(256, 64, 7e9)
    grid = SubcarrierGrid.from_bandwidth(512, 600e6)
    # a wildly sloped profile implies |theta| > 1; its convex bulge keeps d
    # positive (a pure ramp leaves d at zero up to rounding), so the solve
    # returns the clamped path rather than None
    ramp = np.linspace(0.0, 0.5, 64)
    taus = ramp + 0.01 * (ramp - 0.25) ** 2
    theta, d, _, clamped = decouple_linear(taus, geom, grid)
    assert clamped
    assert abs(theta) == pytest.approx(1.0, abs=1e-8)
    assert math.isfinite(d) and d > 0.0


def test_decouple_linear_rejects_odd_counts_and_flat_profiles():
    grid = SubcarrierGrid.from_bandwidth(256, 600e6)
    with pytest.raises(ValueError, match="even subarray count"):
        decouple_linear(np.linspace(0.0, 0.1, 5), ArrayGeometry(40, 5, 7e9), grid)
    # an all-equal track leaves v_de zero: d is undefined
    assert decouple_linear(np.full(16, 0.3), ArrayGeometry(64, 16, 7e9), grid) is None


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


def _no_solve(*args):
    raise AssertionError("solve not expected")


def _lstsq_fit(taus, geom, grid):
    """fit_profile_exact's steps with np.linalg.lstsq solving each LS fit."""
    x = index_offsets(geom.n_subarrays) * geom.subarray_pitch_m
    basis = np.vander(x, 3, increasing=True)
    eta = SPEED_OF_LIGHT / grid.spacing_hz * np.asarray(taus, dtype=float)
    coef_eta = np.linalg.lstsq(basis, eta, rcond=None)[0]
    coef_eta2 = np.linalg.lstsq(basis, eta * eta, rcond=None)[0]
    curv = coef_eta[2]
    scale = max(abs(coef_eta[1]) / (abs(x[-1]) + 1.0), abs(coef_eta[0]) / (x[-1] ** 2 + 1.0))
    if abs(curv) <= 1e-12 * max(scale, 1e-30):
        return None
    r = (coef_eta2[2] - 1.0) / (2.0 * curv)
    coef_z = np.linalg.lstsq(basis[:, :2], (eta - r) ** 2 - x * x, rcond=None)[0]
    if not np.isfinite(coef_z).all() or coef_z[0] <= 0.0:
        return None
    d = math.sqrt(coef_z[0])
    theta = -coef_z[1] / (2.0 * d)
    if not (math.isfinite(theta) and -1.0 < theta < 1.0 and math.isfinite(r)):
        return None
    return theta, d, r


def _fit_cases(equivalence):
    """(taus, geom, grid): every DPS track of a12 seeds 0-29, then exact profiles."""
    for seed in range(30):
        cfg, _, W, Y, rule = equivalence.a12_scenario(seed)
        geom, grid = cfg.geometry(), cfg.grid()
        for step in run_dps(Y, W, geom, grid, rule, power=cfg.power).iterations:
            if step.track is not None:
                yield step.track.taus_unwrapped, geom, grid
    rng = np.random.default_rng(47)
    for n, k, m in ((64, 16, 128), (1024, 256, 1024)):
        cfg = SimConfig(n_antennas=n, n_subarrays=k, n_subcarriers=m)
        geom, grid = cfg.geometry(), cfg.grid()
        for _ in range(40):
            theta, d, r = rng.uniform(-0.95, 0.95), rng.uniform(3.0, 30.0), rng.uniform(5.0, 40.0)
            yield subarray_delay_profile(theta, d, r, geom, grid), geom, grid


def test_fit_profile_exact_matches_lstsq_reference(equivalence):
    # the cached pseudo-inverses give lstsq's verdicts and its (theta, d, r)
    # up to rounding, on grid-valued tracks and on exact profiles alike
    verdicts = []
    for taus, geom, grid in _fit_cases(equivalence):
        fit, want = fit_profile_exact(taus, geom, grid), _lstsq_fit(taus, geom, grid)
        verdicts.append(want is None)
        assert (fit is None) == (want is None)
        if fit is not None:
            for got, ref in zip(fit, want):
                assert abs(got - ref) <= 1e-9 * abs(ref)
    # both verdicts occur: some a12 tracks carry no usable curvature
    assert any(verdicts) and not all(verdicts)


def test_run_dps_makes_no_lstsq_call(equivalence, monkeypatch):
    scenarios = [equivalence.a12_scenario(11),
                 equivalence.harness_scenario(SimConfig(), 10.0)]

    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    for cfg, _, W, Y, rule in scenarios:
        res = run_dps(Y, W, cfg.geometry(), cfg.grid(), rule, power=cfg.power)
        assert res.n_paths >= 1


def test_decouple_profile_prefers_exact(monkeypatch):
    geom = ArrayGeometry(512, 128, 7e9)
    grid = SubcarrierGrid.from_bandwidth(1024, 600e6)
    taus = subarray_delay_profile(0.5, 12.0, 10.0, geom, grid)

    class FakeTrack:
        taus_unwrapped = taus

    # a valid exact fit gives the path; the linear solve does not run
    with monkeypatch.context() as patch:
        patch.setattr("nfce.estimator.decouple_linear", _no_solve)
        out = decouple_profile(FakeTrack(), geom, grid)
    assert out is not None
    theta, d, r, clamped, refined = out
    assert refined and not clamped
    assert theta == pytest.approx(0.5, rel=1e-9)
    assert d == pytest.approx(12.0, rel=1e-8)
    # without an exact fit the linear solve gives the path (Fresnel-accurate only)
    monkeypatch.setattr("nfce.estimator.fit_profile_exact", lambda *args: None)
    out2 = decouple_profile(FakeTrack(), geom, grid)
    assert out2 == (*decouple_linear(taus, geom, grid), False)
    assert out2[3] is False
    for mode in ("none", "bogus"):
        with pytest.raises(ValueError):
            decouple_profile(FakeTrack(), geom, grid, refine=mode)
    # an unidentifiable track is rejected
    monkeypatch.setattr("nfce.estimator.decouple_linear", lambda *args: None)
    assert decouple_profile(FakeTrack(), geom, grid) is None


def test_decouple_profile_rejects_odd_count_before_any_solve(monkeypatch):
    # three subarrays fit a quadratic exactly, so the exact fit alone would
    # accept the track; the count is refused before either solve runs
    geom = ArrayGeometry(48, 3, 7e9)
    grid = SubcarrierGrid.from_bandwidth(64, 600e6)

    class FakeTrack:
        taus_unwrapped = subarray_delay_profile(0.3, 12.0, 10.0, geom, grid)

    assert fit_profile_exact(FakeTrack.taus_unwrapped, geom, grid) is not None

    monkeypatch.setattr("nfce.estimator.fit_profile_exact", _no_solve)
    monkeypatch.setattr("nfce.estimator.decouple_linear", _no_solve)
    with pytest.raises(ValueError, match="even subarray count"):
        decouple_profile(FakeTrack(), geom, grid)


def test_clamped_marks_only_a_path_whose_own_theta_was_clamped(equivalence):
    # a12 seed 18's third path carries theta = +0.42 from the exact fit,
    # while the linear solve of its track clamps theta to -1
    for seed in range(30):
        cfg, _, W, Y, rule = equivalence.a12_scenario(seed)
        geom, grid = cfg.geometry(), cfg.grid()
        paths = run_dps(Y, W, geom, grid, rule, power=cfg.power).paths
        assert not any(p.clamped and p.refined for p in paths), seed
        if seed == 18:
            path = paths[2]
            assert decouple_linear(path.track.taus_unwrapped, geom, grid)[3] is True
            theta, _, _, clamped, refined = decouple_profile(path.track, geom, grid)
            assert refined and not clamped
            assert theta == path.theta == pytest.approx(0.42, abs=0.005)


def test_gain_fit_exact_on_matched_row():
    geom = ArrayGeometry(64, 16, 7e9)
    grid = SubcarrierGrid.from_bandwidth(128, 600e6)
    W = random_phase_combiner(geom, np.random.default_rng(8))
    rho = 0.7 - 1.1j
    power = 2.0
    coarse, fine = gain_column(0.25, 13.0, 7.0, W, geom, grid)
    v = (coarse[5], fine[5])
    y = math.sqrt(power) * rho * np.kron(*v)
    rho_hat = estimate_gain_lpu(y, v, power)
    assert rho_hat == pytest.approx(rho, rel=1e-12)
    np.testing.assert_allclose(
        residual_update(y, rho_hat, v, power), 0.0, atol=1e-10
    )


def test_estimate_gain_degenerate_column():
    # kron(zeros(4), ones(2)) is the zero column of length 8
    zero = (np.zeros(4, complex), np.ones(2, complex))
    assert estimate_gain_lpu(np.ones(8, complex), zero) == 0.0 + 0.0j


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
    Y = np.stack([delay_steering(delay_grid(dic)[i], 256) for i in idx_true])
    kc = central_index(64)
    track = extrapolate_delays(Y, delay_grid(dic)[idx_true[kc]], geom, dic, max_hop(geom, grid))
    np.testing.assert_array_equal(track.grid_indices, idx_true)
    assert track.kappas[kc] == 0
    assert not track.all_equal()


def _extrapolate_rebuilt(Y, seed_tau, geom, dictionary, m_hop):
    """Reference walk that rebuilds the de-rotation b(tau_prev)^* at every hop."""
    K, M = geom.n_subarrays, dictionary.size
    kc = central_index(K)
    taus = np.zeros(K)
    kappas = np.zeros(K, dtype=int)
    taus[kc] = seed_tau
    table = shift_table(m_hop, M)
    for chain, back in ((range(kc + 1, K), -1), (range(kc - 1, -1, -1), 1)):
        for k in chain:
            prev = taus[k + back]
            scores = window_scores(Y[k] * delay_steering(prev, M).conj(), table)
            kappas[k] = int(np.argmax(scores)) - m_hop
            taus[k] = prev + kappas[k] / M
    return kappas, taus


def _first_observations(equivalence):
    """(geom, grid, Y) of the 30 a12 scenarios and one 1024/256/1024 draw."""
    for seed in range(30):
        geom, grid, _, Y, _ = _a12_scenario(equivalence, seed)
        yield geom, grid, Y
    cfg = SimConfig(n_antennas=1024, n_subarrays=256, n_subcarriers=1024, n_paths=4,
                    seed=3)
    yield cfg.geometry(), cfg.grid(), draw_trial(cfg, 0, 10.0)[4]


def test_chained_hops_match_rebuilt_ramps(equivalence):
    # first-iteration residuals: the carried ramps pick the same hops as
    # ramps rebuilt from tau at every hop, so the tracks agree bit for bit
    for geom, grid, Y in _first_observations(equivalence):
        dic = DelayDictionary(grid.n_subcarriers)
        m_hop = max_hop(geom, grid)
        kc = central_index(geom.n_subarrays)
        _, tau_c, _ = ml_delay_detect(Y[kc], dic)
        track = extrapolate_delays(Y, tau_c, geom, dic, m_hop)
        kappas, taus = _extrapolate_rebuilt(Y, tau_c, geom, dic, m_hop)
        np.testing.assert_array_equal(track.kappas, kappas)
        np.testing.assert_array_equal(track.taus_unwrapped, taus)
    # the window carried to the end of the longer (ascending) chain stays
    # within 1e-12 of the window rebuilt at that tau
    M, K = dic.size, geom.n_subarrays
    window = shift_table(m_hop, M) * delay_steering(tau_c, M).conj()
    for k in range(kc + 1, K):
        extrapolate_step(Y[k], window, m_hop)
    assert K - 1 - kc == 128
    assert np.count_nonzero(track.kappas[kc + 1:]) > 0  # the window did slide
    np.testing.assert_allclose(window, _window_at(track.taus_unwrapped[-1], m_hop, M),
                               rtol=0, atol=1e-12)


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
    assert [s.corr for s in steps] == [
        M + (s.track is not None) * (K - 1) * (2 * hop + 1) for s in steps]
    assert res.corr_per_iter == [s.corr for s in tracked]
    assert res.corr_total == len(steps) * M + len(tracked) * (K - 1) * (2 * hop + 1)
    assert res.fallback is (reason == "fallback")
    assert type(res.rejected) is int and res.rejected == (reason == "rejected")
    # the distributed run replays the same record, so it reads the same values
    dist = run_distributed(Y, W, geom, grid, rule)
    for name in ("stop_reason", "n_paths", "fallback", "rejected",
                 "corr_per_iter", "corr_total"):
        assert getattr(dist, name) == getattr(res, name)
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
def test_hop_atoms_match_direct_exponential(M, monkeypatch):
    # the hop table's rows b(kappa/M)^* and extrapolate_delays' seed window
    # b(tau_c + kappa/M)^* are the plain exponentials exp(-j 2 pi delta_m tau)
    delta = index_offsets(M)
    for m_hop in (1, 3):
        kappas = np.arange(-m_hop, m_hop + 1)
        np.testing.assert_allclose(shift_table(m_hop, M),
                                   np.exp(-2j * np.pi * np.outer(kappas / M, delta)),
                                   rtol=1e-12, atol=0)
    # with K = 2 the one hop, center -> subarray 1, is handed the seed
    # window (copied before the hop slides it)
    windows = []

    def record_window(y, window, m_hop):
        windows.append(window.copy())
        return extrapolate_step(y, window, m_hop)

    monkeypatch.setattr("nfce.estimator.extrapolate_step", record_window)
    geom, dic = ArrayGeometry(2, 2), DelayDictionary(M)
    Y = np.ones((2, M), dtype=complex)
    taus = np.concatenate([[0.0, 1e-9, delay_grid(dic)[0], delay_grid(dic)[-1]],
                           np.random.default_rng(M).uniform(0.0, 1.0, 8)])
    kappas = np.arange(-1, 2)
    for tau in taus:
        extrapolate_delays(Y, tau, geom, dic, 1)
        np.testing.assert_allclose(windows.pop(),
                                   np.exp(-2j * np.pi * np.outer(tau + kappas / M, delta)),
                                   rtol=1e-12, atol=0)
    assert not windows


@pytest.mark.parametrize("off_grid", [False, True])
def test_hop_scores_match_direct_window(off_grid):
    M, m_hop = 256, 3
    dic = DelayDictionary(M)
    rng = np.random.default_rng(5 + off_grid)
    kappas = np.arange(-m_hop, m_hop + 1)
    delta = index_offsets(M)
    seen = set()
    for _ in range(10):
        prev = delay_grid(dic)[rng.integers(M)] + (rng.uniform(-0.5, 0.5) / M if off_grid else 0)
        y = (rng.standard_normal(M) + 1j * rng.standard_normal(M)
             + 3.0 * delay_steering(prev + rng.integers(-m_hop, m_hop + 1) / M, M))
        direct = np.abs(
            np.exp(2j * np.pi * np.outer(prev + kappas / M, delta)).conj() @ y) ** 2 / M
        window = shift_table(m_hop, M) * np.exp(-2j * np.pi * prev * delta)
        _assert_close(window_scores(y, window), direct)
        kappa, score = extrapolate_step(y, window, m_hop)
        assert kappa == kappas[np.argmax(direct)]
        assert score == pytest.approx(direct.max(), rel=1e-12)
        seen.add(kappa)
        # the slid window holds b(tau + kappa'/M)^* around the winner
        # tau = prev + kappa/M
        tau = prev + kappa / M
        np.testing.assert_allclose(window, np.exp(-2j * np.pi * np.outer(tau + kappas / M, delta)),
                                   rtol=0, atol=1e-12)
    # slides of more than one row, both ways
    assert min(seen) < -1 and max(seen) > 1
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
        coarse, fine = gain_column(theta, d, r, W, geom, grid)
        assert coarse.shape[-1] * fine.shape[-1] == 256
        V = np.stack([np.kron(c, f) for c, f in zip(coarse, fine)])
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


def test_fit_and_cancel_needs_one_residual_sized_temporary():
    # the factored model columns are (K, A + B); the rank-1 terms subtracted
    # from the residual are its one sized temporary: the traced peak of one
    # full-scale fit stays within 1.25 times the residual's bytes
    geom = ArrayGeometry(1024, 256, 7e9)
    grid = SubcarrierGrid.from_bandwidth(1024, 600e6)
    W = random_phase_combiner(geom, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    resid = rng.standard_normal((256, 1024)) + 1j * rng.standard_normal((256, 1024))
    tracemalloc.start()
    try:
        fit_and_cancel(resid, -0.3, 11.0, 14.0, W, geom, grid, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * resid.nbytes


def _random_factors(rng, rows, a, b):
    """Random factored columns (coarse (rows, a), fine (rows, b))."""
    return (rng.standard_normal((rows, a)) + 1j * rng.standard_normal((rows, a)),
            rng.standard_normal((rows, b)) + 1j * rng.standard_normal((rows, b)))


def test_residual_update_subtracts_in_place():
    rng = np.random.default_rng(1)
    C, F = _random_factors(rng, 4, 4, 4)
    Y = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    rho = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    # the rank-1 term of each row, sqrt(P) rho kron(c, f)
    want = Y - ((math.sqrt(3.0) * rho[:, None] * C)[:, :, None] * F[:, None, :]).reshape(4, 16)
    out = residual_update(Y, rho, (C, F), 3.0)
    assert out is Y
    np.testing.assert_array_equal(Y, want)
    row = Y[1].copy()
    assert residual_update(row, rho[1], (C[1], F[1]), 3.0) is row
    # rows of M = 4096 go two per chunk of 2^13 entries: 5 = 2 + 2 + 1
    C, F = _random_factors(rng, 5, 64, 64)
    Y = rng.standard_normal((5, 4096)) + 1j * rng.standard_normal((5, 4096))
    rho = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    want = Y - ((math.sqrt(3.0) * rho[:, None] * C)[:, :, None] * F[:, None, :]).reshape(5, 4096)
    residual_update(Y, rho, (C, F), 3.0)
    np.testing.assert_array_equal(Y, want)


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
                     rng.standard_normal(n_subarrays)
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
    # profile_sum walks the subarrays in chunks of about 2^13 entries of
    # ns x A x L: 48 = 25 + 23 (a partial last chunk), one subarray per
    # chunk, and a single path (all 32 in one chunk of up to 64)
    for n, k, m, n_paths, chunk in ((96, 48, 1024, 5, 25), (512, 8, 1024, 5, 1),
                                    (256, 32, 256, 1, 64)):
        geom = ArrayGeometry(n, k, 7e9)
        grid = SubcarrierGrid.from_bandwidth(m, 600e6)
        ns_a_l = geom.subarray_size * _ramp_split(m)[0] * n_paths
        assert max(1, _PROFILE_CHUNK_ENTRIES // ns_a_l) == chunk
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
    C, F = _random_factors(rng, 4, 4, 4)
    C[2] = 0.0  # a vanishing column fits a zero gain in its row only
    V = np.stack([np.kron(c, f) for c, f in zip(C, F)])
    rho = np.array([1 + 1j, -0.5j, 2.0, 0.25])
    Y = rho[:, None] * V * math.sqrt(3.0)
    got = estimate_gain_lpu(Y, (C, F), 3.0)
    np.testing.assert_allclose(got, [1 + 1j, -0.5j, 0.0, 0.25], rtol=1e-12)
    for k in range(4):
        assert got[k] == estimate_gain_lpu(Y[k], (C[k], F[k]), 3.0)
    np.testing.assert_allclose(residual_update(Y, got, (C, F), 3.0), 0.0, atol=1e-12)
