"""Estimation-theoretic bounds for the subarray delay-profile observation.

Fisher information for the per-subarray parameterization (theta, d, r) of the
quadratic delay profile, its closed-form inverse in the large-K/large-M
regime, the per-subarray delay CRLB, the looser bounds that apply when each
subarray reports only a scalar delay, and the two-path delay-domain
resolution predicate.

Two variants of the closed-form CRLBs are exposed.  ``form="corrected"``
(default) uses the coefficient-matrix determinant

    det U = N_s^6 s^6 K^3 (K^2-1)^2 (K^2-4) (1-theta^2)^2 / (8640 d^4)

re-derived from the matrix entries; it agrees with the numerically inverted
FIM to well under a percent at K >= 128.  ``form="printed"`` keeps the
determinant as printed in the source derivation, which differs by the factor
2(1-theta^2)/(2+7theta^2); the variants coincide at broadside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ArrayGeometry, PathParams, SubcarrierGrid, SPEED_OF_LIGHT


# ---------------------------------------------------------------------------
# index-offset power sums (delta_k = k - (K+1)/2, k = 1..K)


def sum_sq_offsets(K: int) -> float:
    """Sum of delta_k^2 over a symmetric length-K index set."""
    return K * (K * K - 1) / 12.0

def sum_cube_offsets(K: int) -> float:
    """Sum of delta_k^3; zero by symmetry."""
    return 0.0

def sum_quart_offsets(K: int) -> float:
    """Sum of delta_k^4."""
    return K * (K * K - 1) * (3 * K * K - 7) / 240.0


# ---------------------------------------------------------------------------
# Fisher information


@dataclass(frozen=True)
class FimReport:
    coeff: np.ndarray        # 3x3 coefficient matrix U (delay-profile geometry)
    fim: np.ndarray          # 3x3 Fisher information = scale * U
    scale: float             # 2 pi^2 P |g|^2 N_s M (M^2-1) df^2 / (3 c^2 sigma^2)


@dataclass(frozen=True)
class BoundsReport:
    theta_cb: float
    d_cb: float
    r_cb: float
    theta_cb_cf: float
    d_cb_cf: float
    r_cb_cf: float
    tau_cb: float
    theta_lb: float
    inv_d_lb: float
    d_lb: float
    r_lb: float


def delay_sensitivities(path: PathParams, geom: ArrayGeometry) -> np.ndarray:
    """Rows (d eta_k / d theta, d eta_k / d d, d eta_k / d r), shape (3, K).

    eta_k is the quadratic (Fresnel) subarray delay profile
    r + d - delta_k s' theta + delta_k^2 s'^2 (1-theta^2)/(2d).
    """
    delta = geom.subarray_offsets
    sp = geom.subarray_pitch_m
    th, d = path.theta, path.dist_m
    rho_theta = -delta * sp - delta**2 * sp**2 * th / d
    rho_d = 1.0 - delta**2 * sp**2 * (1.0 - th * th) / (2.0 * d * d)
    rho_r = np.ones_like(delta)
    return np.vstack([rho_theta, rho_d, rho_r])


def fim_scale(geom: ArrayGeometry, grid: SubcarrierGrid, power: float,
              noise_var: float, gain: complex = 1.0 + 0.0j) -> float:
    M, df = grid.n_subcarriers, grid.spacing_hz
    return (
        2.0 * np.pi**2 * power * abs(gain) ** 2 * geom.subarray_size
        * M * (M * M - 1.0) * df * df
        / (3.0 * SPEED_OF_LIGHT**2 * noise_var)
    )


def fim_numeric(path: PathParams, geom: ArrayGeometry, grid: SubcarrierGrid,
                power: float, noise_var: float) -> FimReport:
    """FIM for (theta, d, r) from the analytic profile sensitivities."""
    rho = delay_sensitivities(path, geom)
    coeff = rho @ rho.T
    scale = fim_scale(geom, grid, power, noise_var, path.gain)
    return FimReport(coeff=coeff, fim=scale * coeff, scale=scale)


def fim_finite_diff(path: PathParams, geom: ArrayGeometry, grid: SubcarrierGrid,
                    power: float, noise_var: float,
                    rel_step: float = 1e-6) -> FimReport:
    """Independent FIM oracle: central differences of the delay profile."""

    delta = geom.subarray_offsets
    sp = geom.subarray_pitch_m

    def profile(th, d, r):
        return (r + d - delta * sp * th
                + delta**2 * sp**2 * (1.0 - th * th) / (2.0 * d))

    th, d, r = path.theta, path.dist_m, path.range_m
    h_th = rel_step * max(abs(th), 1.0)
    h_d = rel_step * d
    h_r = rel_step * max(abs(r), 1.0)
    rho = np.vstack([
        (profile(th + h_th, d, r) - profile(th - h_th, d, r)) / (2 * h_th),
        (profile(th, d + h_d, r) - profile(th, d - h_d, r)) / (2 * h_d),
        (profile(th, d, r + h_r) - profile(th, d, r - h_r)) / (2 * h_r),
    ])
    coeff = rho @ rho.T
    scale = fim_scale(geom, grid, power, noise_var, path.gain)
    return FimReport(coeff=coeff, fim=scale * coeff, scale=scale)


def crlb_numeric(report: FimReport) -> tuple[float, float, float]:
    """Diagonal of the inverse FIM in the order (theta, d, r)."""
    inv = np.linalg.inv(report.fim)
    return float(inv[0, 0]), float(inv[1, 1]), float(inv[2, 2])


def crlb_closed_form(path: PathParams, geom: ArrayGeometry, grid: SubcarrierGrid,
                     power: float, noise_var: float,
                     form: str = "corrected") -> tuple[float, float, float]:
    """Large-K/large-M closed forms for the (theta, d, r) CRLBs.

    ``form="printed"`` reproduces the source determinant (see module note);
    both coincide at theta = 0.
    """
    if form not in ("corrected", "printed"):
        raise ValueError(f"unknown form {form!r}")
    th, d = path.theta, path.dist_m
    K = geom.n_subarrays
    ns = geom.subarray_size
    N = geom.n_antennas
    s = geom.spacing_m
    M, df = grid.n_subcarriers, grid.spacing_hz
    kappa = (SPEED_OF_LIGHT**2 * noise_var
             / (np.pi**2 * power * abs(path.gain) ** 2))
    one_m = 1.0 - th * th

    theta_cb = kappa * 18.0 / (K**3 * ns**3 * M**3 * df * df * s * s)
    d_cb = (kappa * 72.0 * d * d * (15.0 * d * d + s * s * th * th * N * N)
            / (K**5 * ns**5 * M**3 * df * df * s**4 * one_m * one_m))
    r_cb = (kappa * (8640.0 * d**4
                     + s * s * d * d * N * N * (1296.0 * th * th - 720.0)
                     + 27.0 * s**4 * N**4 * one_m * one_m)
            / (8.0 * K**5 * ns**5 * M**3 * df * df * s**4 * one_m * one_m))
    if form == "printed":
        factor = 2.0 * one_m / (2.0 + 7.0 * th * th)
        theta_cb *= factor
        d_cb *= factor
        r_cb *= factor
    return theta_cb, d_cb, r_cb


def lb_closed_form(path: PathParams, geom: ArrayGeometry, grid: SubcarrierGrid,
                   power: float, noise_var: float
                   ) -> tuple[float, float, float, float, float]:
    """Bounds under the scalar-delay-per-subarray observation model.

    Returns (tau_cb, theta_lb, inv_d_lb, d_lb, r_lb): the per-subarray
    normalized-delay CRLB and the parameter bounds obtained by propagating
    i.i.d. delay errors of that variance through the linear decoupling.
    d_lb is the delta-method conversion d^4 * inv_d_lb.
    """
    th, d = path.theta, path.dist_m
    K = geom.n_subarrays
    ns = geom.subarray_size
    s = geom.spacing_m
    M, df = grid.n_subcarriers, grid.spacing_hz
    g2 = abs(path.gain) ** 2
    kappa = SPEED_OF_LIGHT**2 * noise_var / (np.pi**2 * power * g2)
    one_m = 1.0 - th * th

    tau_cb = 3.0 * noise_var / (2.0 * np.pi**2 * power * ns * g2 * M * (M * M - 1.0))
    theta_lb = kappa * 18.0 / (K * (K * K - 1.0) * ns**3 * M * (M * M - 1.0)
                               * df * df * s * s)
    inv_d_lb = kappa * 1152.0 / (K**3 * (K * K - 4.0) * ns**5
                                 * M * (M * M - 1.0) * df * df * s**4
                                 * one_m * one_m)
    d_lb = d**4 * inv_d_lb
    r_lb = kappa * 3.0 / (2.0 * K * ns * M * (M * M - 1.0) * df * df)
    return tau_cb, theta_lb, inv_d_lb, d_lb, r_lb


def bounds_report(path: PathParams, geom: ArrayGeometry, grid: SubcarrierGrid,
                  power: float, noise_var: float,
                  form: str = "corrected") -> BoundsReport:
    """Numeric and closed-form bounds of one path.

    Raises ValueError unless ``power`` and ``noise_var`` are finite and
    positive: a zero noise variance has no finite bound, and a negative or
    NaN one would print negative or NaN bounds.
    """
    for name, value in (("power", power), ("noise_var", noise_var)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    rep = fim_numeric(path, geom, grid, power, noise_var)
    th_n, d_n, r_n = crlb_numeric(rep)
    th_c, d_c, r_c = crlb_closed_form(path, geom, grid, power, noise_var, form)
    tau_cb, th_lb, invd_lb, d_lb, r_lb = lb_closed_form(path, geom, grid,
                                                        power, noise_var)
    return BoundsReport(
        theta_cb=th_n, d_cb=d_n, r_cb=r_n,
        theta_cb_cf=th_c, d_cb_cf=d_c, r_cb_cf=r_c,
        tau_cb=tau_cb, theta_lb=th_lb, inv_d_lb=invd_lb, d_lb=d_lb, r_lb=r_lb,
    )


# ---------------------------------------------------------------------------
# two-path delay-domain resolution


def resolution_predicate(path_i: PathParams, path_j: PathParams,
                         grid: SubcarrierGrid) -> tuple[bool, float]:
    """Whether two paths are separable in the delay dictionary.

    The center-of-array delays must differ by at least one dictionary bin,
    i.e. |delta(r+d)| >= c / (M * df).  Returns (separable, margin) with
    margin the separation in bins; the test is margin >= 1.
    """
    M, df = grid.n_subcarriers, grid.spacing_hz
    sep_m = abs(path_i.total_m - path_j.total_m)
    margin = sep_m * M * df / SPEED_OF_LIGHT
    return bool(margin >= 1.0), float(margin)
