"""Delay-profile-symmetry (DPS) path estimator.

One iteration detects the strongest path's delay on the central subarray's
DFT grid, extrapolates it outward across subarrays with a tiny candidate
window, inverts the reflection symmetries of the resulting delay profile to
decouple (theta, dist, range), fits one complex gain per subarray, and
cancels the path from the residual.  A CFAR threshold on the central
correlation peak stops the iteration.

Every detection attempt appends one :class:`Iteration` (central peak, delay
track, accepted path) to the result.  The message-passing runtime
(:mod:`nfce.runtime`) replays that record as LPU/CPU messages instead of
running a second copy of the loop, so the two entry points agree exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from nfce.model import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    SubcarrierGrid,
    freq_profile,
    index_offsets,
    phase_ramp,
    steering_vector,
    subarray_centers,
)

# ---------------------------------------------------------------------------
# delay dictionary


@dataclass(frozen=True)
class DelayDictionary:
    """DFT delay grid with points tau_m = (2m-1)/(2M), m = 1..M.

    The implied atoms b(tau_m) are mutually orthogonal with ||b||^2 = M, so
    correlation against the whole grid is a scaled FFT.
    """

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("dictionary needs at least 2 grid points")

    @property
    def grid(self) -> np.ndarray:
        m = np.arange(1, self.size + 1, dtype=float)
        return (2.0 * m - 1.0) / (2.0 * self.size)


def grid_scores(y: np.ndarray, dictionary: DelayDictionary) -> np.ndarray:
    """|b(tau_m)^H y|^2 / M over the full grid, computed via one FFT.

    With delta_i = i - (M-1)/2 (0-based) and tau_m = (2m+1)/(2M) (0-based m):
    b^H y = e^{j pi (M-1)(2m+1)/(2M)} * FFT(y * e^{-j pi i / M})[m], so the
    magnitudes are an FFT of a pre-rotated copy of y.
    """
    M = dictionary.size
    if y.shape != (M,):
        raise ValueError(f"expected length-{M} vector, got {y.shape}")
    i = np.arange(M)
    pre = np.exp(-1j * np.pi * i / M)
    spectrum = np.fft.fft(y * pre)
    return np.abs(spectrum) ** 2 / M


def conj_atoms(taus, size: int) -> np.ndarray:
    """Conjugated atoms b(tau)^*, one row per entry of ``taus``, shape (len, size)."""
    delta = index_offsets(size)
    return np.exp(2j * np.pi * np.outer(np.asarray(taus, dtype=float), delta)).conj()


def window_scores(y: np.ndarray, atoms_h: np.ndarray) -> np.ndarray:
    """|b(tau)^H y|^2 / M for a handful of off-grid candidates (direct).

    ``atoms_h`` holds the candidates' conjugated atoms row by row
    (:func:`conj_atoms`, or the cached hop table :func:`shift_table`).
    """
    return np.abs(atoms_h @ y) ** 2 / atoms_h.shape[-1]


def ml_delay_detect(y: np.ndarray, dictionary: DelayDictionary):
    """Largest-correlation grid point: (0-based index, tau, score).

    Score is |b^H y|^2 / ||b||^2; ties resolve to the smallest index
    (np.argmax returns the first maximum).  A zero vector returns score 0.
    """
    scores = grid_scores(y, dictionary)
    idx = int(np.argmax(scores))
    return idx, float(dictionary.grid[idx]), float(scores[idx])


def max_hop(geom: ArrayGeometry, grid: SubcarrierGrid) -> int:
    """Largest grid-bin jump between adjacent subarrays' delays.

    M_s = ceil(B * pitch / c): adjacent subarray centers sit one pitch
    ns*s apart, i.e. ns*s*df/c symbol fractions of delay drift per subarray
    at worst (|theta|=1), which spans that many 1/M bins.  At half-wavelength
    spacing this is B * ns / (2 f_c).  A tiny epsilon keeps exact-integer
    ratios from rounding up.
    """
    ratio = grid.bandwidth_hz * geom.subarray_pitch_m / SPEED_OF_LIGHT
    return max(1, math.ceil(ratio - 1e-12))


@functools.lru_cache(maxsize=8)
def shift_table(m_hop: int, size: int) -> np.ndarray:
    """Conjugated hop atoms b(kappa/M)^*, kappa = -m_hop..m_hop, shape (2 m_hop + 1, M).

    b(tau + kappa/M) = b(tau) * b(kappa/M) elementwise, so after de-rotating
    a row by b(tau)^* every hop is scored against this one fixed table.  The
    table is shared by every caller, hence read-only.
    """
    table = conj_atoms(np.arange(-m_hop, m_hop + 1) / size, size)
    table.flags.writeable = False
    return table


def extrapolate_step(
    y: np.ndarray, prev_tau: float, m_hop: int, dictionary: DelayDictionary
):
    """One serial hop: pick kappa in [-m_hop, m_hop] maximizing the score.

    Candidates are prev_tau + kappa/M; b() is 1-periodic so no explicit wrap
    is needed for the correlation.  Returns (kappa, unwrapped tau, score).
    Ties resolve to the most negative kappa (first maximum).
    """
    M = dictionary.size
    derotated = y * phase_ramp(-2.0 * np.pi * prev_tau, M)
    scores = window_scores(derotated, shift_table(m_hop, M))
    j = int(np.argmax(scores))
    kappa = j - m_hop
    return kappa, prev_tau + kappa / M, float(scores[j])


def central_index(n_subarrays: int) -> int:
    """0-based index of the detection subarray, floor((K+1)/2) in 1-based."""
    if n_subarrays % 2 != 0:
        raise ValueError(f"subarray count must be even, got {n_subarrays}")
    return (n_subarrays + 1) // 2 - 1


@dataclass
class SubarrayDelayTrack:
    """Per-subarray delay profile from one detection + extrapolation pass."""

    taus_unwrapped: np.ndarray  # cumulative track, may leave [0, 1)
    kappas: np.ndarray  # int hops; 0 at the central subarray
    m_hop: int
    center: int  # 0-based central subarray
    grid_size: int

    @property
    def taus(self) -> np.ndarray:
        """Grid-valued delays wrapped to [0, 1)."""
        return np.mod(self.taus_unwrapped, 1.0)

    @property
    def grid_indices(self) -> np.ndarray:
        """0-based dictionary indices of the wrapped delays."""
        return np.mod(
            np.round(self.taus * self.grid_size - 0.5).astype(int), self.grid_size
        )

    def all_equal(self) -> bool:
        return bool(np.all(self.grid_indices == self.grid_indices[0]))


def extrapolate_delays(
    Y: np.ndarray,
    seed_tau: float,
    geom: ArrayGeometry,
    dictionary: DelayDictionary,
    m_hop: int,
) -> SubarrayDelayTrack:
    """Serial outward extrapolation of the central delay across subarrays.

    Ascending chain center -> K-1 and descending chain center -> 0, each hop
    evaluating exactly 2*m_hop+1 correlations on that subarray's row.
    """
    K = geom.n_subarrays
    kc = central_index(K)
    taus = np.zeros(K)
    kappas = np.zeros(K, dtype=int)
    taus[kc] = seed_tau
    for k in range(kc + 1, K):
        kappas[k], taus[k], _ = extrapolate_step(Y[k], taus[k - 1], m_hop, dictionary)
    for k in range(kc - 1, -1, -1):
        kappas[k], taus[k], _ = extrapolate_step(Y[k], taus[k + 1], m_hop, dictionary)
    return SubarrayDelayTrack(taus, kappas, m_hop, kc, dictionary.size)


# ---------------------------------------------------------------------------
# parametric-symmetry decoupling (reflection differences / sums of the
# delay profile)


def decouple_angle(taus_unwrapped: np.ndarray, geom: ArrayGeometry, grid: SubcarrierGrid):
    """Sine-angle from the odd symmetry of the delay profile.

    Pairing subarray k with its mirror K-k+1 cancels every even term of the
    profile, leaving a difference linear in theta; an LS fit over the K/2
    pairs gives theta.  Returns (theta_hat, clamped_flag).
    """
    K = geom.n_subarrays
    if K % 2 != 0:
        raise ValueError("decoupling requires an even subarray count")
    half = K // 2
    delta = index_offsets(K)[:half]
    diffs = taus_unwrapped[::-1][:half] - taus_unwrapped[:half]
    pitch = geom.subarray_pitch_m
    denom = float(delta @ delta)
    theta = (
        SPEED_OF_LIGHT / (2.0 * pitch * grid.spacing_hz) * float(delta @ diffs) / denom
    )
    clamped = False
    limit = 1.0 - 1e-9
    if not -limit < theta < limit:
        theta = math.copysign(limit, theta) if math.isfinite(theta) else 0.0
        clamped = True
    return theta, clamped


def decouple_distance(
    taus_unwrapped: np.ndarray, theta: float, geom: ArrayGeometry, grid: SubcarrierGrid
) -> float:
    """Scatterer distance from the half-array shift of the delay profile.

    v_de stacks (c/df)(tau_{K/2+k} - tau_k) + (K/2)*pitch*theta, which the
    quadratic profile term makes proportional to (delta_k + K/4)/d; solving
    by pseudoinverse yields d.  Non-positive / non-finite results signal an
    unidentifiable geometry (caller rejects the path).
    """
    K = geom.n_subarrays
    half = K // 2
    delta = index_offsets(K)[:half]
    pitch = geom.subarray_pitch_m
    v_de = (
        SPEED_OF_LIGHT / grid.spacing_hz * (taus_unwrapped[half:] - taus_unwrapped[:half])
        + 0.5 * K * pitch * theta
    )
    u = delta + K / 4.0
    denom = float(v_de @ v_de)
    if denom == 0.0:
        return float("nan")
    return (
        0.5 * K * pitch * pitch * (1.0 - theta * theta) * float(v_de @ u) / denom
    )


def decouple_range(
    taus_unwrapped: np.ndarray,
    theta: float,
    dist_m: float,
    geom: ArrayGeometry,
    grid: SubcarrierGrid,
) -> float:
    """Residual range from the even symmetry of the delay profile.

    Mirror sums cancel the odd (angle) term; subtracting the known quadratic
    bulge and the distance leaves r in every entry, averaged over pairs.
    """
    K = geom.n_subarrays
    half = K // 2
    delta = index_offsets(K)[:half]
    pitch = geom.subarray_pitch_m
    v_re = (
        0.5 * SPEED_OF_LIGHT / grid.spacing_hz
        * (taus_unwrapped[::-1][:half] + taus_unwrapped[:half])
        - delta * delta * pitch * pitch * (1.0 - theta * theta) / (2.0 * dist_m)
        - dist_m
    )
    return float(np.mean(v_re))


def fit_profile_exact(
    taus_unwrapped: np.ndarray, geom: ArrayGeometry, grid: SubcarrierGrid
):
    """Closed-form (theta, d, r) fit with the exact subarray-center geometry.

    (eta(k) - r)^2 = d^2 - 2 d theta x_k + x_k^2 holds exactly with
    x_k = delta_k * pitch (law of cosines), so the quadratic-in-x LS
    coefficients of eta and eta^2 give r linearly, after which
    (eta - r)^2 - x^2 is an affine function of x yielding d and theta.
    Returns (theta, d, r) or None when the profile carries no usable
    curvature (e.g. endfire or an all-equal track).
    """
    x = index_offsets(geom.n_subarrays) * geom.subarray_pitch_m
    eta = SPEED_OF_LIGHT / grid.spacing_hz * np.asarray(taus_unwrapped, dtype=float)
    basis = np.vander(x, 3, increasing=True)  # columns 1, x, x^2
    coef_eta, *_ = np.linalg.lstsq(basis, eta, rcond=None)
    coef_eta2, *_ = np.linalg.lstsq(basis, eta * eta, rcond=None)
    curv = coef_eta[2]
    scale = max(abs(coef_eta[1]) / (abs(x[-1]) + 1.0), abs(coef_eta[0]) / (x[-1] ** 2 + 1.0))
    if abs(curv) <= 1e-12 * max(scale, 1e-30):
        return None
    r = (coef_eta2[2] - 1.0) / (2.0 * curv)
    z = (eta - r) ** 2 - x * x
    coef_z, *_ = np.linalg.lstsq(basis[:, :2], z, rcond=None)
    if not np.isfinite(coef_z).all() or coef_z[0] <= 0.0:
        return None
    d = math.sqrt(coef_z[0])
    theta = -coef_z[1] / (2.0 * d)
    if not (math.isfinite(theta) and -1.0 < theta < 1.0 and math.isfinite(r)):
        return None
    return float(theta), float(d), float(r)


# ---------------------------------------------------------------------------
# gain fitting and residual update


def gain_column(
    theta: float,
    dist_m: float,
    range_m: float,
    combiners: np.ndarray,
    geom: ArrayGeometry,
    grid: SubcarrierGrid,
) -> np.ndarray:
    """Model columns v_gc of every subarray, shape (K, M); row k is subarray k's.

    v_gc = (f_k^H w_k(theta, d)) * p(r + d~_k): the scalar combiner gain
    times the frequency profile of the estimated subarray-center length.
    Row k reads only combiner row k.  The steering vector, the subarray
    centers and the phase ramps are computed once for all K rows.
    """
    w = steering_vector(theta, dist_m, geom)
    fk_wk = np.einsum(
        "kn,kn->k", combiners.conj(), w.reshape(geom.n_subarrays, geom.subarray_size)
    )
    dist_k, _ = subarray_centers(theta, dist_m, geom)
    return fk_wk[:, None] * freq_profile(range_m + dist_k, grid)


def estimate_gain_lpu(
    y_row: np.ndarray, v_gc: np.ndarray, power: float = 1.0
):
    """LS complex gain of each subarray row: v^H y / (sqrt(P) ||v||^2).

    Rows run along the last axis: one row gives one complex gain, a (K, M)
    pair gives K gains, each from its own row of ``y_row`` and ``v_gc``.
    On a matched noiseless row y = sqrt(P) rho v this returns rho exactly.
    A vanishing model column (combiner orthogonal to the steering) returns 0
    rather than amplifying noise.
    """
    v_h = np.conj(v_gc)
    norm2 = np.einsum("...m,...m->...", v_h, v_gc).real
    usable = norm2 > 1e-12
    corr = np.einsum("...m,...m->...", v_h, y_row)
    gains = np.where(usable, corr / (math.sqrt(power) * np.where(usable, norm2, 1.0)), 0.0)
    return gains[()]


def residual_update(
    y_row: np.ndarray, rho_k, v_gc: np.ndarray, power: float = 1.0
) -> np.ndarray:
    """Remove the fitted path from one subarray row, or from each of K rows."""
    return y_row - math.sqrt(power) * np.asarray(rho_k)[..., None] * v_gc


def check_inputs(
    Y: np.ndarray,
    combiners: np.ndarray,
    power: float,
    geom: ArrayGeometry | None = None,
    grid: SubcarrierGrid | None = None,
) -> None:
    """Reject an estimator's inputs with a ValueError naming the problem.

    Y must be a finite numeric (K, M) array, ``combiners`` a finite numeric
    (K, N/K) array, and ``power`` finite and positive.  Without ``geom`` and
    ``grid`` the two shapes are only checked against each other.
    """
    arrays = (("observation Y", Y), ("combiners", combiners))
    for name, arr in arrays:
        dtype = np.asarray(arr).dtype
        if not np.issubdtype(dtype, np.number):
            raise ValueError(f"{name} must be numeric, got dtype {dtype}")
        if np.ndim(arr) != 2:
            raise ValueError(f"{name} must be 2-D, got shape {np.shape(arr)}")
    y_shape, w_shape = np.shape(Y), np.shape(combiners)
    K, ns = w_shape if geom is None else (geom.n_subarrays, geom.subarray_size)
    M = y_shape[1] if grid is None else grid.n_subcarriers
    if y_shape != (K, M):
        raise ValueError(f"observation Y must be {K}x{M}, got {y_shape}")
    if w_shape != (K, ns):
        raise ValueError(f"combiners must be {K}x{ns}, got {w_shape}")
    for name, arr in arrays:
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has NaN or infinite entries")
    try:
        ok = math.isfinite(power) and power > 0.0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"power must be finite and positive, got {power!r}")


# ---------------------------------------------------------------------------
# stopping rule


@dataclass(frozen=True)
class StoppingRule:
    """CFAR stop on the central correlation peak plus a path-count cap."""

    noise_var: float
    p_fa: float = 1e-3
    max_paths: int = 16

    def __post_init__(self):
        if not 0.0 < self.p_fa < 1.0:
            raise ValueError(f"p_fa must lie in (0, 1), got {self.p_fa}")
        if not (math.isfinite(self.noise_var) and self.noise_var >= 0.0):
            raise ValueError(f"noise_var must be finite and nonnegative, "
                             f"got {self.noise_var}")
        if self.max_paths < 0:
            raise ValueError("max_paths must be nonnegative")


def stopping_threshold(noise_var: float, n_subcarriers: int, p_fa: float) -> float:
    """CFAR threshold: sigma^2 ln M - sigma^2 ln(ln(1/(1-P_fa))).

    Under pure noise the grid scores are i.i.d. Exp(sigma^2); the maximum
    exceeds this level with probability P_fa (asymptotically in M).
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError(f"p_fa must lie in (0, 1), got {p_fa}")
    return noise_var * math.log(n_subcarriers) - noise_var * math.log(
        math.log(1.0 / (1.0 - p_fa))
    )


# ---------------------------------------------------------------------------
# results


@dataclass
class PathEstimate:
    """One detected path with its per-subarray gains and delay track."""

    theta: float
    dist_m: float
    range_m: float
    gain: complex  # average of lpu_gains
    lpu_gains: np.ndarray  # shape (K,)
    track: SubarrayDelayTrack
    clamped: bool = False  # theta hit the (-1, 1) clamp during decoupling
    refined: bool = False  # exact-geometry fit accepted over the Fresnel one


@dataclass
class Iteration:
    """Record of one detection attempt of :func:`run_dps`.

    ``track`` is None when the loop stopped at the detection (threshold or
    path cap); ``path`` is None when it stopped after extrapolating
    (fallback or rejected).
    """

    peak: float  # central-subarray grid score, compared to the CFAR threshold
    track: SubarrayDelayTrack | None = None
    path: PathEstimate | None = None


@dataclass
class DpsResult:
    paths: list
    fallback: bool
    rejected: int
    corr_per_iter: list  # dictionary correlations per completed iteration
    corr_total: int  # includes the terminal stopping check
    stop_reason: str
    residual: np.ndarray
    iterations: list  # one Iteration per detection attempt
    threshold: float  # CFAR level each Iteration.peak is compared against

    @property
    def n_paths(self) -> int:
        return len(self.paths)


def decouple_profile(
    track: SubarrayDelayTrack,
    geom: ArrayGeometry,
    grid: SubcarrierGrid,
    refine: str = "exact",
):
    """Full parameter decoupling of one delay track.

    Runs the Fresnel reflection solves, then (refine="exact") the
    exact-geometry closed-form fit, keeping whichever is valid.  Returns
    (theta, d, r, clamped, refined) or None when the path is unidentifiable.
    """
    if refine not in ("exact", "none"):
        raise ValueError(f"unknown refine mode {refine!r}")
    taus = track.taus_unwrapped
    theta, clamped = decouple_angle(taus, geom, grid)
    dist = decouple_distance(taus, theta, geom, grid)
    fresnel_ok = math.isfinite(dist) and dist > 0.0
    if fresnel_ok:
        rng_m = decouple_range(taus, theta, dist, geom, grid)
    if refine == "exact":
        fit = fit_profile_exact(taus, geom, grid)
        if fit is not None and fit[1] > 0.0:
            return fit[0], fit[1], fit[2], clamped, True
    if not fresnel_ok:
        return None
    return theta, dist, rng_m, clamped, False


def fit_and_cancel(
    resid: np.ndarray,
    theta: float,
    dist_m: float,
    range_m: float,
    combiners: np.ndarray,
    geom: ArrayGeometry,
    grid: SubcarrierGrid,
    power: float = 1.0,
    track: SubarrayDelayTrack | None = None,
    clamped: bool = False,
    refined: bool = False,
) -> PathEstimate:
    """Fit one path's per-subarray gains and cancel it from ``resid`` in place.

    Each LPU's gain and cancellation use only its own residual row and
    combiner row; the K rows are processed as one array.
    """
    v_gc = gain_column(theta, dist_m, range_m, combiners, geom, grid)
    gains = estimate_gain_lpu(resid, v_gc, power)
    resid[...] = residual_update(resid, gains, v_gc, power)
    return PathEstimate(theta, dist_m, range_m, complex(np.mean(gains)), gains,
                        track, clamped, refined)


def run_dps(
    Y: np.ndarray,
    combiners: np.ndarray,
    geom: ArrayGeometry,
    grid: SubcarrierGrid,
    rule: StoppingRule,
    power: float = 1.0,
) -> DpsResult:
    """Iterative path extraction on the combined observation Y (K x M).

    Per iteration: full-grid detection at the central subarray (M
    correlations), serial extrapolation (2*M_s+1 correlations at each of the
    K-1 other subarrays), symmetry decoupling, per-subarray gain fit, and
    residual cancellation.  Stops when the central peak falls below the CFAR
    threshold, the path cap is reached, a path is rejected as
    unidentifiable, or the all-delays-equal fallback fires.
    """
    check_inputs(Y, combiners, power, geom, grid)
    K, M = geom.n_subarrays, grid.n_subcarriers
    dictionary = DelayDictionary(M)
    m_hop = max_hop(geom, grid)
    kc = central_index(K)
    threshold = stopping_threshold(rule.noise_var, M, rule.p_fa)
    resid = np.array(Y, dtype=complex, copy=True)

    paths: list[PathEstimate] = []
    iterations: list[Iteration] = []
    corr_per_iter: list[int] = []
    corr_total = 0
    rejected = 0
    fallback = False
    stop_reason = "max_paths"

    while True:
        idx, tau_c, peak = ml_delay_detect(resid[kc], dictionary)
        corr_total += M
        step = Iteration(peak)
        iterations.append(step)
        if peak <= threshold:
            stop_reason = "threshold"
            break
        if len(paths) >= rule.max_paths:
            stop_reason = "max_paths"
            break

        track = extrapolate_delays(resid, tau_c, geom, dictionary, m_hop)
        step.track = track
        corr_per_iter.append(M + (K - 1) * (2 * m_hop + 1))
        corr_total += (K - 1) * (2 * m_hop + 1)

        if track.all_equal():
            # parametric symmetry carries no information and the residual is
            # still above threshold: stop.  No other method takes over; the
            # caller gets the paths found so far and DpsResult.fallback is set
            fallback = True
            stop_reason = "fallback"
            break

        decoupled = decouple_profile(track, geom, grid)
        if decoupled is None:
            rejected += 1
            stop_reason = "rejected"
            break
        theta, dist, rng_m, clamped, refined = decoupled
        step.path = fit_and_cancel(
            resid, theta, dist, rng_m, combiners, geom, grid, power,
            track=track, clamped=clamped, refined=refined,
        )
        paths.append(step.path)

    return DpsResult(
        paths=paths,
        fallback=fallback,
        rejected=rejected,
        corr_per_iter=corr_per_iter,
        corr_total=corr_total,
        stop_reason=stop_reason,
        residual=resid,
        iterations=iterations,
        threshold=threshold,
    )


# Entries of one chunk's (subarrays, paths, M) profile stack in
# reconstruct_channel: 2^13 complex entries, about 128 KB.
_RECONSTRUCT_CHUNK_ENTRIES = 2**13


def reconstruct_channel(paths, geom: ArrayGeometry, grid: SubcarrierGrid) -> np.ndarray:
    """Rebuild the antenna-domain channel from path estimates, shape (N, M).

    Each path contributes per-subarray rank-1 blocks
    rho_k * w_k(theta, d) p(r + d~_k)^T with rho_k subarray k's own fitted
    gain, which absorbs per-subarray phase error.  So subarray k's rows of H
    are one product over the path axis, H_k = W_k P_k: column l of W_k
    (ns x L) is path l's steering entries on subarray k, row l of P_k (L x M)
    is rho_lk p(r_l + d~_lk).  The subarrays are walked in chunks of about
    ``_RECONSTRUCT_CHUNK_ENTRIES`` profile entries, each product written
    straight into H.
    """
    K, ns, M = geom.n_subarrays, geom.subarray_size, grid.n_subcarriers
    if not paths:
        return np.zeros((K * ns, M), dtype=complex)
    steer = np.stack(
        [steering_vector(e.theta, e.dist_m, geom).reshape(K, ns) for e in paths], axis=-1
    )  # (K, ns, L)
    lengths = np.stack(
        [e.range_m + subarray_centers(e.theta, e.dist_m, geom)[0] for e in paths], axis=-1
    )  # (K, L)
    gains = np.stack([e.lpu_gains for e in paths], axis=-1)  # (K, L)
    H = np.empty((K * ns, M), dtype=complex)
    blocks = H.reshape(K, ns, M)  # view: blocks[k] is subarray k's rows of H
    chunk = max(1, _RECONSTRUCT_CHUNK_ENTRIES // (len(paths) * M))
    for k0 in range(0, K, chunk):
        ks = slice(k0, k0 + chunk)
        profiles = freq_profile(lengths[ks], grid)  # (c, L, M)
        np.multiply(gains[ks, :, None], profiles, out=profiles)
        np.matmul(steer[ks], profiles, out=blocks[ks])
    return H
