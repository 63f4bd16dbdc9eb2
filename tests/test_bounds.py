"""Fisher information and estimation lower bounds.

The closed forms are validated against the numeric FIM inverse and a
finite-difference oracle; comparisons between matrices use Frobenius-relative
error because individual entries pass through zero (the angle/distance cross
term vanishes at broadside, where an entrywise relative test is meaningless).
"""
import numpy as np
import pytest

from nfce.model import ArrayGeometry, PathParams, SubcarrierGrid
from nfce.bounds import (
    bounds_report,
    crlb_closed_form,
    crlb_numeric,
    delay_sensitivities,
    fim_finite_diff,
    fim_numeric,
    fim_scale,
    lb_closed_form,
    resolution_predicate,
    sum_cube_offsets,
    sum_quart_offsets,
    sum_sq_offsets,
)


def _brute_sums(K):
    delta = np.arange(1, K + 1) - (K + 1) / 2.0
    return (
        float(np.sum(delta**2)),
        float(np.sum(delta**3)),
        float(np.sum(delta**4)),
    )


def test_offset_sum_identities():
    for K in (4, 6, 16, 64, 256):
        s2, s3, s4 = _brute_sums(K)
        assert sum_sq_offsets(K) == s2 == K * (K * K - 1) / 12.0
        assert sum_cube_offsets(K) == s3 == 0.0
        assert sum_quart_offsets(K) == s4 == K * (K * K - 1) * (3 * K * K - 7) / 240.0


def test_delay_sensitivities_structure():
    geom = ArrayGeometry(512, 128, 7e9)
    path = PathParams(0.0, 12.0, 9.0, 1.0 + 0j)
    rho = delay_sensitivities(path, geom)
    assert rho.shape == (3, 128)
    # range sensitivity is exactly one everywhere
    np.testing.assert_array_equal(rho[2], 1.0)
    # at broadside the angle sensitivity is odd and purely linear
    sp = geom.subarray_pitch_m
    np.testing.assert_allclose(rho[0], -geom.subarray_offsets * sp, rtol=1e-12)
    np.testing.assert_allclose(rho[0], -rho[0][::-1], atol=1e-18)


def test_fim_scale_formula():
    geom = ArrayGeometry(1024, 128, 7e9)
    grid = SubcarrierGrid.from_bandwidth(1024, 600e6)
    M, df = 1024, grid.spacing_hz
    want = (
        2 * np.pi**2 * 2.0 * 0.25 * 8 * M * (M * M - 1) * df * df
        / (3 * 299792458.0**2 * 0.5)
    )
    assert fim_scale(geom, grid, 2.0, 0.5, gain=0.5j) == pytest.approx(want, rel=1e-12)


def test_fim_matches_finite_difference_oracle():
    geom = ArrayGeometry(1024, 128, 7e9)
    grid = SubcarrierGrid.from_bandwidth(1024, 600e6)
    rng = np.random.default_rng(44)
    for _ in range(6):
        path = PathParams(
            rng.uniform(-0.9, 0.9), rng.uniform(8.0, 25.0), rng.uniform(5.0, 25.0),
            1.0 + 0j,
        )
        an = fim_numeric(path, geom, grid, 1.0, 1e-2)
        fd = fim_finite_diff(path, geom, grid, 1.0, 1e-2)
        rel = np.linalg.norm(fd.fim - an.fim) / np.linalg.norm(an.fim)
        assert rel < 1e-6
        # FIM is symmetric positive definite at these geometries
        np.testing.assert_allclose(an.fim, an.fim.T, rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(an.fim) > 0)


def test_crlb_closed_form_near_numeric():
    # the large-K/large-M forms track the exact inverse at full scale
    geom = ArrayGeometry(1024, 128, 7e9)
    grid = SubcarrierGrid.from_bandwidth(1024, 600e6)
    path = PathParams(0.2, 10.0, 10.0, 1.0 + 0j)
    rep = fim_numeric(path, geom, grid, 1.0, 1e-2)
    num = crlb_numeric(rep)
    closed = crlb_closed_form(path, geom, grid, 1.0, 1e-2)
    for c, n in zip(closed, num):
        assert c == pytest.approx(n, rel=0.05)
    with pytest.raises(ValueError):
        crlb_closed_form(path, geom, grid, 1.0, 1e-2, form="exotic")


def test_crlb_printed_form_ratio():
    geom = ArrayGeometry(1024, 128, 7e9)
    grid = SubcarrierGrid.from_bandwidth(1024, 600e6)
    path = PathParams(0.3, 11.0, 9.0, 1.0 + 0j)
    cor = crlb_closed_form(path, geom, grid, 1.0, 1e-2, form="corrected")
    pri = crlb_closed_form(path, geom, grid, 1.0, 1e-2, form="printed")
    th2 = 0.3 * 0.3
    factor = 2.0 * (1.0 - th2) / (2.0 + 7.0 * th2)
    for c, p in zip(cor, pri):
        assert p == pytest.approx(c * factor, rel=1e-12)
    # identical at broadside
    p0 = PathParams(0.0, 11.0, 9.0, 1.0 + 0j)
    np.testing.assert_allclose(
        crlb_closed_form(p0, geom, grid, 1.0, 1e-2, form="printed"),
        crlb_closed_form(p0, geom, grid, 1.0, 1e-2, form="corrected"),
        rtol=1e-14,
    )


def test_lb_meets_crlb_at_broadside():
    geom = ArrayGeometry(1024, 128, 7e9)
    grid = SubcarrierGrid.from_bandwidth(1024, 1024 * 585937.5)
    path = PathParams(0.0, 12.0, 10.0, 1.0 + 0j)
    _, theta_lb, _, _, _ = lb_closed_form(path, geom, grid, 1.0, 1e-2)
    theta_cb = crlb_closed_form(path, geom, grid, 1.0, 1e-2)[0]
    # identical up to the (K^2-1)/K^2 and (M^2-1)/M^2 finite-size factors
    assert theta_lb / theta_cb == pytest.approx(1.0, abs=1e-3)


def test_lb_scalings():
    geom1 = ArrayGeometry(512, 64, 7e9)
    geom2 = ArrayGeometry(1024, 128, 7e9)  # K doubles, ns fixed
    grid = SubcarrierGrid.from_bandwidth(512, 600e6)
    path = PathParams(0.1, 15.0, 12.0, 1.0 + 0j)
    lb1 = lb_closed_form(path, geom1, grid, 1.0, 1e-2)
    lb2 = lb_closed_form(path, geom2, grid, 1.0, 1e-2)
    # theta_lb ~ 1/(K(K^2-1)); inv_d_lb ~ 1/(K^3(K^2-4)); r_lb ~ 1/K
    assert lb2[1] / lb1[1] == pytest.approx(
        (64 * (64**2 - 1)) / (128 * (128**2 - 1)), rel=1e-12
    )
    assert lb2[2] / lb1[2] == pytest.approx(
        (64**3 * (64**2 - 4)) / (128**3 * (128**2 - 4)), rel=1e-12
    )
    assert lb2[4] / lb1[4] == pytest.approx(0.5, rel=1e-12)
    # doubling noise doubles every bound
    lb3 = lb_closed_form(path, geom1, grid, 1.0, 2e-2)
    for a, b in zip(lb1, lb3):
        assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_bounds_blow_up_toward_endfire():
    geom = ArrayGeometry(512, 64, 7e9)
    grid = SubcarrierGrid.from_bandwidth(512, 600e6)
    mild = PathParams(0.1, 12.0, 9.0, 1.0 + 0j)
    steep = PathParams(0.99, 12.0, 9.0, 1.0 + 0j)
    d_mild = crlb_closed_form(mild, geom, grid, 1.0, 1e-2)[1]
    d_steep = crlb_closed_form(steep, geom, grid, 1.0, 1e-2)[1]
    assert d_steep > 100.0 * d_mild


def test_bounds_report_fields():
    geom = ArrayGeometry(512, 64, 7e9)
    grid = SubcarrierGrid.from_bandwidth(512, 600e6)
    path = PathParams(0.25, 14.0, 10.0, 1.0 + 0j)
    rep = bounds_report(path, geom, grid, 1.0, 1e-2)
    assert rep.theta_cb > 0 and rep.d_cb > 0 and rep.r_cb > 0
    inv_d_lb = lb_closed_form(path, geom, grid, 1.0, 1e-2)[2]
    assert rep.d_lb == pytest.approx(path.dist_m**4 * inv_d_lb, rel=1e-12)
    # distributed bounds can only be looser than the full-observation CRLB
    assert rep.theta_lb >= 0.5 * rep.theta_cb


@pytest.mark.parametrize("power, noise_var", [(1.0, 0.0), (1.0, -1e-2), (1.0, float("nan")),
                                              (1.0, float("inf")), (0.0, 1e-2), (-1.0, 1e-2)])
def test_bounds_report_rejects_bad_power_and_noise(power, noise_var):
    geom = ArrayGeometry(512, 64, 7e9)
    grid = SubcarrierGrid.from_bandwidth(512, 600e6)
    path = PathParams(0.25, 14.0, 10.0, 1.0 + 0j)
    name = "noise_var" if power == 1.0 else "power"
    with pytest.raises(ValueError, match=name):
        bounds_report(path, geom, grid, power, noise_var)


def test_resolution_predicate():
    grid = SubcarrierGrid.from_bandwidth(256, 600e6)
    bin_m = 299792458.0 / 600e6  # c / (M df)
    a = PathParams(0.1, 10.0, 10.0, 1.0 + 0j)
    b = PathParams(-0.2, 12.0, 8.0 + 2.0 * bin_m, 1.0 + 0j)
    ok, margin = resolution_predicate(a, b, grid)
    assert ok and margin == pytest.approx(2.0, rel=1e-9)
    c = PathParams(-0.2, 11.0, 9.0 + 0.4 * bin_m, 1.0 + 0j)
    ok2, margin2 = resolution_predicate(a, c, grid)
    assert not ok2 and margin2 == pytest.approx(0.4, rel=1e-9)
