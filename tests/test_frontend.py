"""Analog combining and observation model."""
import tracemalloc

import numpy as np
import pytest

from nfce.model import (
    ArrayGeometry,
    PathParams,
    SubcarrierGrid,
    index_offsets,
    synthesize_channel,
)
from nfce.frontend import (
    apply_impairments,
    combine,
    combining_matrix,
    noise_var_for_snr,
    observe,
    random_phase_combiner,
)

from conftest import matched_combiner


def _setup(n=64, k=16, m=128):
    geom = ArrayGeometry(n, k, 7e9)
    grid = SubcarrierGrid.from_bandwidth(m, 600e6)
    path = PathParams(0.3, 12.0, 8.0, 0.9 - 0.3j)
    H = synthesize_channel([path], geom, grid)
    return geom, grid, path, H


def test_random_phase_combiner_modulus():
    geom = ArrayGeometry(64, 16, 7e9)
    W = random_phase_combiner(geom, np.random.default_rng(5))
    assert W.shape == (16, 4)
    np.testing.assert_allclose(np.abs(W), 1.0 / 2.0, rtol=1e-12)
    # rows are unit-norm
    np.testing.assert_allclose(np.sum(np.abs(W) ** 2, axis=1), 1.0, rtol=1e-12)


def test_combine_matches_block_matrix():
    geom, grid, _, H = _setup()
    W = random_phase_combiner(geom, np.random.default_rng(7))
    A = combining_matrix(W)
    assert A.shape == (16, 64)
    np.testing.assert_allclose(A @ A.conj().T, np.eye(16), atol=1e-12)
    np.testing.assert_allclose(combine(H, W), A @ H, rtol=1e-12)


def test_matched_combiner_coherent_gain():
    geom, grid, path, H = _setup()
    W = matched_combiner(path, geom)
    np.testing.assert_allclose(np.abs(W), 0.5, rtol=1e-12)
    Y = combine(H, W)
    # coherent combining of a single path: every column's energy is
    # ns * |g|^2 per subarray at the center subcarrier
    mid = grid.n_subcarriers // 2
    ns = geom.subarray_size
    np.testing.assert_allclose(
        np.abs(Y[:, mid]) ** 2,
        ns * abs(path.gain) ** 2,
        rtol=1e-6,
    )


def test_observe_noiseless_and_power():
    geom, grid, _, H = _setup()
    W = random_phase_combiner(geom, np.random.default_rng(3))
    Y0 = observe(H, W, 4.0, 0.0)
    np.testing.assert_allclose(Y0, 2.0 * combine(H, W), rtol=1e-12)
    with pytest.raises(ValueError):
        observe(H, W, 1.0, 0.1)  # noise needs an rng


def test_observe_noise_statistics():
    geom, grid, _, H = _setup()
    W = random_phase_combiner(geom, np.random.default_rng(3))
    rng = np.random.default_rng(17)
    nv = 0.25
    Z = observe(H, W, 1.0, nv, rng=rng) - observe(H, W, 1.0, 0.0)
    measured = float(np.mean(np.abs(Z) ** 2))
    assert measured == pytest.approx(nv, rel=0.1)


@pytest.mark.parametrize("power,noise_var", [(1.0, 0.25), (4.0, 1e-3), (0.3, 7.0)])
def test_observe_matches_plain_formula(power, noise_var):
    # the real parts' draw, then the imaginary parts', added in place, is the
    # plain sqrt(P) A H + Z bit for bit, from the same seeded stream
    geom, grid, _, H = _setup()
    W = random_phase_combiner(geom, np.random.default_rng(3))
    rng = np.random.default_rng(11)
    a = rng.standard_normal((geom.n_subarrays, grid.n_subcarriers))
    b = rng.standard_normal((geom.n_subarrays, grid.n_subcarriers))
    scale = np.sqrt(noise_var / 2.0)
    want = np.sqrt(power) * combine(H, W) + scale * (a + 1j * b)
    got = observe(H, W, power, noise_var, np.random.default_rng(11))
    assert np.array_equal(got, want)


def test_observe_rejects_bad_power_and_noise_var():
    geom, grid, _, H = _setup()
    W = random_phase_combiner(geom, np.random.default_rng(3))
    rng = np.random.default_rng(0)
    for noise_var in (-1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_var must be finite and nonnegative"):
            observe(H, W, 1.0, noise_var, rng)
    for power in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="power must be finite and positive"):
            observe(H, W, power, 0.1, rng)


def test_noise_var_for_snr_rejects_non_finite():
    geom, grid, _, H = _setup()
    W = random_phase_combiner(geom, np.random.default_rng(9))
    for snr in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="snr_target_db must be finite"):
            noise_var_for_snr(H, W, 1.0, snr)
    for power in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="power must be finite and positive"):
            noise_var_for_snr(H, W, power, 10.0)


def test_observe_peak_memory():
    # at 1024/256/1024 the noisy Y is built in place: Y plus one (K, M) real
    # draw, about 1.5x Y's bytes (2.0x with one (2, K, M) draw, 3.0x when the
    # noise was summed as complex temporaries)
    geom = ArrayGeometry(1024, 256, 7e9)
    rng = np.random.default_rng(2)
    H = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    W = random_phase_combiner(geom, rng)
    tracemalloc.start()
    try:
        Y = observe(H, W, 2.0, 0.5, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * Y.nbytes


def test_snr_roundtrip():
    geom, grid, _, H = _setup()
    W = random_phase_combiner(geom, np.random.default_rng(9))
    nv = noise_var_for_snr(H, W, 2.0, 12.5)
    # the post-combining SNR P ||A H||_F^2 / (K M sigma^2) is the target
    AH = combining_matrix(W) @ H
    signal = 2.0 * np.sum(np.abs(AH) ** 2)
    assert nv == pytest.approx(signal / (AH.size * 10.0 ** (12.5 / 10.0)), rel=1e-12)
    assert 10.0 * np.log10(signal / (AH.size * nv)) == pytest.approx(12.5, abs=1e-9)


def test_noise_var_sums_over_chunks():
    # 256 subarrays at 128 subcarriers are two chunks of the energy sum
    geom, grid, _, H = _setup(n=1024, k=256, m=128)
    W = random_phase_combiner(geom, np.random.default_rng(9))
    AH = combine(H, W)
    plain = 0.5 * np.sum(np.abs(AH) ** 2) / (AH.size * 10.0 ** (3.0 / 10.0))
    assert noise_var_for_snr(H, W, 0.5, 3.0) == pytest.approx(plain, rel=1e-12)


def test_apply_impairments_gain_only():
    geom, grid, _, H = _setup()
    W = random_phase_combiner(geom, np.random.default_rng(1))
    Y = observe(H, W, 1.0, 0.0)
    g = np.linspace(0.2, 1.0, geom.n_subarrays).astype(complex)
    Yg = apply_impairments(Y, grid, geom.carrier_hz, gain_factors=g)
    np.testing.assert_allclose(Yg, Y * g[:, None], rtol=1e-12)


def test_apply_impairments_clock_rotation():
    geom, grid, _, H = _setup()
    W = random_phase_combiner(geom, np.random.default_rng(2))
    Y = observe(H, W, 1.0, 0.0)
    T = np.zeros(geom.n_subarrays)
    T[3] = 1e-3
    Yt = apply_impairments(Y, grid, geom.carrier_hz, clock_offsets=T)
    # untouched rows are bit-identical
    np.testing.assert_array_equal(Yt[:3], Y[:3])
    np.testing.assert_array_equal(Yt[4:], Y[4:])
    # rotated row keeps its magnitude
    np.testing.assert_allclose(np.abs(Yt[3]), np.abs(Y[3]), rtol=1e-12)
    assert not np.allclose(Yt[3], Y[3])


def test_apply_impairments_matches_per_row_formula():
    geom, grid, _, H = _setup()
    W = random_phase_combiner(geom, np.random.default_rng(4))
    Y = observe(H, W, 1.0, 0.0)
    rng = np.random.default_rng(5)
    K = geom.n_subarrays
    T = rng.uniform(-0.3, 0.3, K)
    g = rng.uniform(0.5, 1.0, K) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, K))
    want = Y.copy()
    for k in range(K):
        want[k] *= np.exp(2j * np.pi * index_offsets(grid.n_subcarriers) * T[k])
        want[k] *= np.exp(2j * np.pi * geom.carrier_hz * (T[k] / grid.spacing_hz))
    want *= g[:, None]
    got = apply_impairments(Y, grid, geom.carrier_hz, clock_offsets=T, gain_factors=g)
    np.testing.assert_array_equal(got, want)


def test_apply_impairments_validation():
    geom, grid, _, H = _setup()
    W = random_phase_combiner(geom, np.random.default_rng(2))
    Y = observe(H, W, 1.0, 0.0)
    with pytest.raises(ValueError):
        apply_impairments(Y, grid, geom.carrier_hz, clock_offsets=np.zeros(3))
    with pytest.raises(ValueError):
        apply_impairments(Y, grid, geom.carrier_hz, gain_factors=np.ones(3))
    bad_grid = SubcarrierGrid.from_bandwidth(64, 600e6)
    with pytest.raises(ValueError):
        apply_impairments(Y, bad_grid, geom.carrier_hz)
