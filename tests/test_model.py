"""Geometry, steering, and channel synthesis checks.

Hand-computed distance oracles use a 2-element array with 2 m spacing so the
element offsets are exactly +-1 m and the law of cosines reduces to integer
arithmetic under the square root.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nfce.model import (
    _PROFILE_CHUNK_ENTRIES,
    _ramp_split,
    ArrayGeometry,
    PathParams,
    SPEED_OF_LIGHT,
    SubcarrierGrid,
    antenna_delays,
    check_delay_validity,
    combined_gain,
    delay_steering,
    exact_distances,
    index_offsets,
    profile_factors,
    profile_sum,
    steering_vector,
    subarray_centers,
    subarray_delay_profile,
    synthesize_channel,
)

from conftest import fresnel_delay_profile, fresnel_deltas


def test_index_offsets_small():
    assert index_offsets(4).tolist() == [-1.5, -0.5, 0.5, 1.5]
    assert index_offsets(1).tolist() == [0.0]
    assert index_offsets(5).tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_index_offsets_symmetric():
    for count in (2, 7, 64, 1023):
        off = index_offsets(count)
        assert off.sum() == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(np.diff(off), 1.0)
        np.testing.assert_allclose(off, -off[::-1])


def test_geometry_defaults_half_wavelength():
    geom = ArrayGeometry(256, 32, 7e9)
    assert geom.spacing_m == pytest.approx(299792458.0 / 7e9 / 2, rel=1e-15)
    assert geom.subarray_size == 8
    assert geom.subarray_pitch_m == pytest.approx(8 * geom.spacing_m)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(10, 3, 7e9)  # K must divide N
    with pytest.raises(ValueError):
        ArrayGeometry(0, 1, 7e9)
    with pytest.raises(ValueError):
        ArrayGeometry(16, 4, -1.0)


def test_subarray_slices_partition():
    geom = ArrayGeometry(24, 6, 7e9)
    touched = np.zeros(24, dtype=int)
    for k in range(6):
        touched[geom.subarray_slice(k)] += 1
    assert touched.tolist() == [1] * 24


def test_grid_from_bandwidth():
    grid = SubcarrierGrid.from_bandwidth(1024, 600e6)
    assert grid.spacing_hz == pytest.approx(600e6 / 1024)
    assert grid.bandwidth_hz == pytest.approx(600e6)
    off = grid.freq_offsets_hz
    assert off.shape == (1024,)
    assert off.sum() == pytest.approx(0.0, abs=1e-3)


def test_exact_distances_hand_oracle():
    # offsets are exactly -1 m and +1 m with 2 m spacing
    geom = ArrayGeometry(2, 1, 7e9, spacing_m=2.0)
    d0 = exact_distances(0.0, 10.0, geom)
    np.testing.assert_allclose(d0, [np.sqrt(101.0)] * 2, rtol=1e-15)
    assert d0[0] == pytest.approx(10.04987562112089, rel=1e-14)
    d1 = exact_distances(0.25, 10.0, geom)
    # sqrt(100 + 2*10*0.25 + 1) and sqrt(100 - 2*10*0.25 + 1)
    assert d1[0] == pytest.approx(10.295630140987, rel=1e-12)
    assert d1[1] == pytest.approx(9.797958971132712, rel=1e-12)


def test_exact_distances_mirror_symmetry():
    geom = ArrayGeometry(64, 8, 7e9)
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = rng.uniform(-0.95, 0.95)
        d = rng.uniform(5.0, 50.0)
        np.testing.assert_allclose(
            exact_distances(theta, d, geom),
            exact_distances(-theta, d, geom)[::-1],
            rtol=1e-14,
        )


def test_fresnel_matches_exact_far_away():
    geom = ArrayGeometry(128, 16, 7e9)
    theta, d = 0.3, 5000.0
    exact = exact_distances(theta, d, geom) - d
    fres = fresnel_deltas(theta, d, geom)
    np.testing.assert_allclose(fres, exact, atol=1e-9)
    # and visibly diverges close in
    close = exact_distances(theta, 5.0, geom) - 5.0
    assert np.max(np.abs(fresnel_deltas(theta, 5.0, geom) - close)) > 1e-6


def test_steering_vector_unit_modulus():
    geom = ArrayGeometry(256, 64, 7e9)
    w = steering_vector(0.37, 12.0, geom)
    np.testing.assert_allclose(np.abs(w), 1.0, rtol=1e-12)


def test_delay_steering_periodicity():
    # half-integer offsets for even M: b(tau+1) = -b(tau); odd M: periodic
    b0 = delay_steering(0.3, 64)
    b1 = delay_steering(1.3, 64)
    np.testing.assert_allclose(b1, -b0, rtol=1e-10)
    c0 = delay_steering(0.3, 63)
    c1 = delay_steering(1.3, 63)
    np.testing.assert_allclose(c1, c0, rtol=1e-10)


# the plain per-entry formula: antenna n at offset delta_n s on the array axis,
# the source at (d sqrt(1 - theta^2), d theta), and
#   A[n, m] = exp(j 2 pi f_c (d_n - d) / c) exp(j 2 pi delta_m df (r + d_n) / c).
# Entries are unit-modulus, so an error is a phase error.  Each phase is a
# wavenumber times a length, and both sides round it to a few ulps of
# (k_c + max |k_m|)(r + max d_n); f_c d_n dominates, and d_n itself carries
# an ulp of d.  The tolerance is 8 eps times that scale; over 3000 random
# geometries the largest error was 1.6 eps times it.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_subarrays=st.integers(1, 6),
    subarray_size=st.integers(1, 9),
    M=st.sampled_from([2, 7, 12, 13, 16, 31, 60, 64, 97]),
    spacing_m=st.one_of(st.none(), st.floats(0.004, 0.06)),
    theta=st.floats(-0.95, 0.95),
    dist_m=st.floats(2.0, 60.0),
    range_m=st.floats(0.0, 60.0),
    bandwidth_hz=st.floats(50e6, 800e6),
)
# a prime M (factors A = M, B = 1), odd and even subarray sizes, and a
# spacing that is not half a wavelength
@example(n_subarrays=3, subarray_size=3, M=13, spacing_m=None, theta=0.4,
         dist_m=9.0, range_m=7.0, bandwidth_hz=600e6)
@example(n_subarrays=4, subarray_size=4, M=64, spacing_m=0.01, theta=-0.7,
         dist_m=5.0, range_m=20.0, bandwidth_hz=400e6)
def test_path_response_matches_plain_formula(
    n_subarrays, subarray_size, M, spacing_m, theta, dist_m, range_m, bandwidth_hz
):
    geom = ArrayGeometry(n_subarrays * subarray_size, n_subarrays, 7e9, spacing_m)
    grid = SubcarrierGrid.from_bandwidth(M, bandwidth_hz)
    delta = (np.arange(geom.n_antennas) - (geom.n_antennas - 1) / 2.0) * geom.spacing_m
    dn = np.hypot(dist_m * np.sqrt(1.0 - theta * theta), dist_m * theta - delta)
    k_c = 2.0 * np.pi * geom.carrier_hz / SPEED_OF_LIGHT
    k_m = 2.0 * np.pi * grid.spacing_hz / SPEED_OF_LIGHT * index_offsets(M)
    profiles = np.exp(1j * np.outer(range_m + dn, k_m))
    expect = np.exp(1j * k_c * (dn - dist_m))[:, None] * profiles
    atol = 8 * np.finfo(float).eps * (k_c + np.abs(k_m).max()) * (range_m + dn.max())

    # one unit-gain path's channel, less its center-of-array carrier phase
    path = PathParams(theta, dist_m, range_m)
    got = synthesize_channel([path], geom, grid) / combined_gain(path, geom)
    assert got.shape == (geom.n_antennas, M)
    np.testing.assert_allclose(got, expect, rtol=0, atol=atol)
    # the profile's Kronecker factors alone: a scalar length, and an array of
    # lengths whose factors run along a new last axis
    coarse, fine = profile_factors(range_m + dn[0], grid)
    assert coarse.size * fine.size == M
    np.testing.assert_allclose(np.kron(coarse, fine), profiles[0], rtol=0, atol=atol)
    lengths = (range_m + dn).reshape(n_subarrays, subarray_size)
    coarse, fine = profile_factors(lengths, grid)
    assert coarse.shape[:-1] == fine.shape[:-1] == (n_subarrays, subarray_size)
    np.testing.assert_allclose((coarse[..., :, None] * fine[..., None, :]).reshape(
                                   n_subarrays, subarray_size, M),
                               profiles.reshape(n_subarrays, subarray_size, M),
                               rtol=0, atol=atol)


@pytest.mark.parametrize("M, B", [(64, 8), (96, 8), (13, 1), (2, 1)])
def test_profile_factors_split(M, B):
    # M = A B with B the largest divisor not above sqrt(M); a prime M gives
    # B = 1 and a fine factor of ones
    grid = SubcarrierGrid.from_bandwidth(M, 600e6)
    coarse, fine = profile_factors(np.array([3.0, 41.5]), grid)
    assert coarse.shape == (2, M // B) and fine.shape == (2, B)
    if B == 1:
        np.testing.assert_array_equal(fine, 1.0)


@pytest.mark.parametrize("M", [2, 7, 9, 13, 15, 96, 128, 1000, 1024])
def test_profile_factors_are_the_plain_exponentials(M):
    # only the non-negative offsets are exponentiated and the mirror half is
    # their conjugate; that must be the same bits as exponentiating every
    # offset, for even, odd and prime A and B, negative phases included
    grid = SubcarrierGrid.from_bandwidth(M, 600e6)
    outer, j_offsets = _ramp_split(M)
    rng = np.random.default_rng(M)
    for lengths in (np.float64(17.25), rng.uniform(-50.0, 500.0, (3, 5)), np.zeros(2)):
        phi = 2.0 * np.pi * grid.spacing_hz / SPEED_OF_LIGHT * lengths
        plain = np.exp(phi[..., None] * j_offsets)
        coarse, fine = profile_factors(lengths, grid)
        assert np.array_equal(coarse, plain[..., :outer])
        assert np.array_equal(fine, plain[..., outer:])


def test_subarray_centers_against_exact_distances():
    # a virtual array whose elements sit at the subarray centers must see
    # exactly the same spherical geometry
    geom = ArrayGeometry(512, 64, 7e9)
    virtual = ArrayGeometry(64, 64, 7e9, spacing_m=geom.subarray_pitch_m)
    theta, d = -0.62, 17.3
    dist_k, theta_k = subarray_centers(theta, d, geom)
    np.testing.assert_allclose(dist_k, exact_distances(theta, d, virtual), rtol=1e-14)
    # transverse-projection invariant d~^2 (1 - theta~^2) = d^2 (1 - theta^2)
    np.testing.assert_allclose(
        dist_k**2 * (1.0 - theta_k**2), d * d * (1.0 - theta * theta), rtol=1e-11
    )


def test_path_params_validation():
    with pytest.raises(ValueError):
        PathParams(1.5, 10.0, 10.0, 1.0 + 0j)
    with pytest.raises(ValueError):
        PathParams(0.2, -1.0, 10.0, 1.0 + 0j)
    with pytest.raises(ValueError):
        PathParams(0.2, 10.0, -0.5, 1.0 + 0j)
    p = PathParams(0.2, 10.0, 5.0, 0.5 - 0.5j)
    assert p.total_m == pytest.approx(15.0)


def test_antenna_delays_formula():
    geom = ArrayGeometry(64, 16, 7e9)
    grid = SubcarrierGrid.from_bandwidth(256, 600e6)
    path = PathParams(0.5, 11.0, 14.0, 1.0 + 0j)
    tau = antenna_delays([path], geom, grid)[:, 0]
    expect = grid.spacing_hz * (14.0 + exact_distances(0.5, 11.0, geom)) / SPEED_OF_LIGHT
    np.testing.assert_allclose(tau, expect, rtol=1e-14)
    assert np.all(tau > 0) and np.all(tau < 1)


def test_subarray_delay_profile_models():
    geom = ArrayGeometry(256, 32, 7e9)
    grid = SubcarrierGrid.from_bandwidth(512, 600e6)
    prof_exact = subarray_delay_profile(0.4, 12.0, 9.0, geom, grid)
    dist_k, _ = subarray_centers(0.4, 12.0, geom)
    np.testing.assert_allclose(
        prof_exact, grid.spacing_hz * (9.0 + dist_k) / SPEED_OF_LIGHT, rtol=1e-14
    )
    prof_fres = fresnel_delay_profile(0.4, 12.0, 9.0, geom, grid)
    # third-order aperture terms separate the two models at this range
    gap = np.max(np.abs(prof_fres - prof_exact))
    assert 1e-8 < gap < 2e-4


def test_synthesize_channel_entry_oracle():
    geom = ArrayGeometry(8, 2, 7e9)
    grid = SubcarrierGrid.from_bandwidth(16, 600e6)
    path = PathParams(0.3, 10.0, 7.0, 0.8 + 0.2j)
    H = synthesize_channel([path], geom, grid)
    assert H.shape == (8, 16)
    dn = exact_distances(0.3, 10.0, geom)
    dm = grid.freq_offsets_hz
    for n in (0, 5):
        for m in (0, 11):
            phase = (
                2.0 * np.pi * geom.carrier_hz / SPEED_OF_LIGHT * (dn[n] - 10.0)
                + 2.0 * np.pi * dm[m] * (7.0 + dn[n]) / SPEED_OF_LIGHT
            )
            expect = combined_gain(path, geom) * np.exp(1j * phase)
            assert H[n, m] == pytest.approx(expect, rel=1e-10)


def test_synthesize_channel_superposition():
    geom = ArrayGeometry(32, 8, 7e9)
    grid = SubcarrierGrid.from_bandwidth(64, 600e6)
    p1 = PathParams(0.1, 10.0, 6.0, 1.0 + 0j)
    p2 = PathParams(-0.4, 15.0, 11.0, 0.3 + 0.4j)
    H = synthesize_channel([p1, p2], geom, grid)
    np.testing.assert_allclose(
        H,
        synthesize_channel([p1], geom, grid) + synthesize_channel([p2], geom, grid),
        rtol=1e-12,
    )


def test_check_delay_validity():
    geom = ArrayGeometry(64, 16, 7e9)
    grid = SubcarrierGrid.from_bandwidth(256, 600e6)
    ok = PathParams(0.2, 10.0, 10.0, 1.0 + 0j)
    worst = check_delay_validity([ok], geom, grid)
    assert 0.0 < worst < 1.0
    # c / df = c M / B is about 128 m here; push past it
    bad = PathParams(0.2, 80.0, 60.0, 1.0 + 0j)
    with pytest.raises(ValueError):
        check_delay_validity([ok, bad], geom, grid)


def _profile_sum_loop(weights, lengths, grid):
    """sum_l weights[g, r, l] p(lengths[g, l]), one plain profile per term."""
    k_m = 2.0 * np.pi * grid.spacing_hz / SPEED_OF_LIGHT * index_offsets(grid.n_subcarriers)
    G, R, L = weights.shape
    out = np.zeros((G, R, grid.n_subcarriers), dtype=complex)
    for g in range(G):
        for l in range(L):
            out[g] += np.outer(weights[g, :, l], np.exp(1j * k_m * lengths[g, l]))
    return out


# groups of R x A x L coarse-times-weights entries, chunked at 2^13:
# R = 1 with a partial last chunk (1 x 32 x 32, 20 = 8 + 8 + 4), R = 6 with
# one group per chunk (6 x 32 x 22 > 4096), a prime M (B = 1, 3 x 37 x 4,
# 40 = 18 + 18 + 4) and everything in one chunk
@pytest.mark.parametrize("G, R, L, M, chunk", [(20, 1, 32, 1024, 8), (5, 6, 22, 1024, 1),
                                              (40, 3, 4, 37, 18), (9, 2, 3, 64, 9)])
def test_profile_sum_matches_plain_loop(G, R, L, M, chunk):
    assert min(G, max(1, _PROFILE_CHUNK_ENTRIES // (R * _ramp_split(M)[0] * L))) == chunk
    grid = SubcarrierGrid.from_bandwidth(M, 600e6)
    rng = np.random.default_rng(G + R + L)
    weights = rng.standard_normal((G, R, L)) + 1j * rng.standard_normal((G, R, L))
    lengths = rng.uniform(1.0, 60.0, (G, L))
    want = _profile_sum_loop(weights, lengths, grid)
    got = profile_sum(weights, lengths, grid)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    # written into a given array, which it returns
    out = np.empty((G, R, M), dtype=complex)
    assert profile_sum(weights, lengths, grid, out=out) is out
    np.testing.assert_array_equal(out, got)


def test_synthesize_channel_needs_no_channel_sized_scratch():
    # 4 paths at 1024/256/1024: the traced peak of one call stays within
    # 1.25 times the bytes of H, which it returns
    geom = ArrayGeometry(1024, 256, 7e9)
    grid = SubcarrierGrid.from_bandwidth(1024, 600e6)
    paths = [PathParams(0.3, 12.0, 8.0, 1.0 + 0.2j), PathParams(-0.6, 25.0, 30.0, 0.5j),
             PathParams(0.05, 7.5, 14.0, -0.8), PathParams(0.8, 40.0, 3.0, 0.3 - 0.3j)]
    tracemalloc.start()
    try:
        H = synthesize_channel(paths, geom, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.shape == (1024, 1024)
    assert peak <= 1.25 * H.nbytes
