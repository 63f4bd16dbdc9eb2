"""Delay-profile-symmetry (DPS) path estimator.

One iteration detects the strongest path's delay on the central subarray's
DFT grid, extrapolates it outward across subarrays with a tiny candidate
window, decouples (theta, dist, range) from the resulting delay profile, fits
one complex gain per subarray, and cancels the path from the residual.  The
decoupling tries the closed-form fit of the exact subarray-center geometry
first, each of its least-squares fits one matvec with a cached per-geometry
pseudo-inverse; only when it fails does the paper's linear step, mirror
differences and sums of the delays, give the path.  A CFAR threshold on the
central correlation peak stops the iteration.

Every detection attempt appends one :class:`Iteration` (central peak,
correlations spent, delay track, accepted path) to the result, and every
count the result reports is read off that record.  The message-passing runtime
(:mod:`nfce.runtime`) replays that record as LPU/CPU messages instead of
running a second copy of the loop, so the two entry points agree exactly.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from nfce.model import (
    _PROFILE_CHUNK_ENTRIES,
    _read_only,
    SPEED_OF_LIGHT,
    ArrayGeometry,
    SubcarrierGrid,
    delay_steering,
    index_offsets,
    profile_factors,
    profile_sum,
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


@functools.lru_cache(maxsize=8)
def _pre_rotation(size: int) -> np.ndarray:
    """exp(-j pi i / M), i = 0..M-1: :func:`grid_scores`' pre-rotation, shared and read-only."""
    pre = np.exp(-1j * np.pi * np.arange(size) / size)
    pre.flags.writeable = False
    return pre


def grid_scores(y: np.ndarray, dictionary: DelayDictionary) -> np.ndarray:
    """|b(tau_m)^H y|^2 / M over the full grid, computed via one FFT.

    With delta_i = i - (M-1)/2 (0-based) and tau_m = (2m+1)/(2M) (0-based m):
    b^H y = e^{j pi (M-1)(2m+1)/(2M)} * FFT(y * e^{-j pi i / M})[m], so the
    magnitudes are an FFT of a pre-rotated copy of y.
    """
    M = dictionary.size
    if y.shape != (M,):
        raise ValueError(f"expected length-{M} vector, got {y.shape}")
    scores = np.abs(np.fft.fft(y * _pre_rotation(M)))
    np.square(scores, out=scores)
    scores /= M
    return scores


def window_scores(y: np.ndarray, atoms_h: np.ndarray) -> list[float]:
    """|b(tau)^H y|^2 / M for a handful of off-grid candidates (direct), as a list.

    ``atoms_h`` holds the candidates' conjugated atoms b(tau)^* row by row,
    e.g. an extrapolation hop's candidate window.  ``ndarray.dot`` runs the
    same gemv as ``atoms_h @ y`` with less dispatch per call.  The few
    magnitudes are squared and scaled as Python floats, which gives the bits
    of ``np.square`` and ``/=`` without two ufunc dispatches; the complex
    magnitude itself stays ``np.abs``, whose last bit differs from Python's
    ``abs`` on some inputs.
    """
    M = atoms_h.shape[-1]
    return [a * a / M for a in np.abs(atoms_h.dot(y)).tolist()]


def ml_delay_detect(y: np.ndarray, dictionary: DelayDictionary):
    """Largest-correlation grid point: (0-based index, tau, score).

    Score is |b^H y|^2 / ||b||^2; ties resolve to the smallest index
    (argmax returns the first maximum).  A zero vector returns score 0.
    The winner's tau is (2 idx + 1) / (2M), computed alone.
    """
    scores = grid_scores(y, dictionary)
    idx = int(scores.argmax())
    return idx, (2.0 * idx + 1.0) / (2.0 * dictionary.size), float(scores[idx])


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

    b(tau + kappa/M) = b(tau) * b(kappa/M) elementwise, so the candidate
    window of a hop from tau is this table times b(tau)^*, and rows
    m_hop -+ 1 step a window by one bin.  The table is shared by every
    caller, hence read-only.
    """
    table = delay_steering((np.arange(-m_hop, m_hop + 1) / size)[:, None], size).conj()
    table.flags.writeable = False
    return table


def extrapolate_step(y: np.ndarray, window: np.ndarray, m_hop: int):
    """One serial hop: pick kappa in [-m_hop, m_hop] maximizing the score.

    ``window`` is the (2 m_hop + 1, M) candidate window, row kappa + m_hop
    holding b(tau_prev + kappa/M)^*; ``y`` is scored against it as it is.
    b() is 1-periodic so no explicit wrap is needed.  Ties resolve to the
    most negative kappa (first maximum).  Returns (kappa, score) and slides
    ``window`` in place to the winner, so that it holds the next hop's
    candidates: the rows move by |kappa| and each new edge row is its
    neighbour times :func:`shift_table`'s row b(+-1/M)^*.  A kappa = 0 hop
    leaves the window as it is.
    """
    scores = window_scores(y, window)
    best = max(scores)
    kappa = scores.index(best) - m_hop
    if kappa:
        # slide toward the winner: a negative kappa slides the row-reversed view up
        rows, n = (window, kappa) if kappa > 0 else (window[::-1], -kappa)
        rows[:-n] = rows[n:]
        step = shift_table(m_hop, y.shape[-1])[m_hop + kappa // n]
        for row in range(len(rows) - n, len(rows)):
            np.multiply(rows[row - 1], step, out=rows[row])
    return kappa, best


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
    def grid_indices(self) -> np.ndarray:
        """0-based dictionary indices of the delays wrapped to [0, 1)."""
        taus = np.mod(self.taus_unwrapped, 1.0)
        return np.mod(np.round(taus * self.grid_size - 0.5).astype(int), self.grid_size)

    def all_equal(self) -> bool:
        """Whether every delay falls in one grid bin (:attr:`grid_indices`' rule).

        A plain loop over Python floats that stops at the first bin that
        differs; K is small and most tracks differ early.
        """
        M = self.grid_size
        taus = self.taus_unwrapped.tolist()
        first = round((taus[0] % 1.0) * M - 0.5) % M
        for tau in taus:
            if round((tau % 1.0) * M - 0.5) % M != first:
                return False
        return True


def extrapolate_delays(
    Y: np.ndarray,
    seed_tau: float,
    geom: ArrayGeometry,
    dictionary: DelayDictionary,
    m_hop: int,
) -> SubarrayDelayTrack:
    """Serial outward extrapolation of the central delay across subarrays.

    Ascending chain center -> K-1 and descending chain center -> 0, each hop
    evaluating exactly 2*m_hop+1 correlations on that subarray's row.  The
    candidate window around seed_tau, ``shift_table`` times b(seed_tau)^*,
    is built once; each chain slides its own copy from hop to hop
    (:func:`extrapolate_step`).
    """
    K, M = geom.n_subarrays, dictionary.size
    kc = central_index(K)
    # Python floats and ints until the track is built: the same sums, no
    # per-hop array indexing
    taus = [0.0] * K
    kappas = [0] * K
    taus[kc] = seed_tau
    seed_window = shift_table(m_hop, M) * delay_steering(seed_tau, M).conj()
    for chain, back in ((range(kc + 1, K), -1), (range(kc - 1, -1, -1), 1)):
        window = seed_window.copy()
        for k in chain:
            kappa, _ = extrapolate_step(Y[k], window, m_hop)
            kappas[k] = kappa
            taus[k] = taus[k + back] + kappa / M
    return SubarrayDelayTrack(np.array(taus), np.array(kappas, dtype=int), m_hop, kc, M)


# ---------------------------------------------------------------------------
# decoupling: the exact-geometry fit, and the linear solve on mirror
# differences / sums of the delay profile


@functools.lru_cache(maxsize=8)
def _fit_basis(geom: ArrayGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, x^2, pinv [1, x, x^2], pinv [1, x]): :func:`fit_profile_exact`'s tables.

    x holds the subarray offsets in metres.  The two least-squares operators,
    (3, K) and (2, K), are the pseudo-inverses of the Vandermonde bases with
    the singular-value cutoff ``lstsq(rcond=None)`` uses, max(K, columns) eps
    relative to the largest, so a fit is one matvec.  Built once per
    geometry, shared by every caller and read-only.
    """
    x = index_offsets(geom.n_subarrays) * geom.subarray_pitch_m
    operators = []
    for cols in (3, 2):
        rcond = max(geom.n_subarrays, cols) * np.finfo(float).eps
        operators.append(np.linalg.pinv(np.vander(x, cols, increasing=True), rcond=rcond))
    return _read_only(x, x * x, *operators)


def decouple_linear(taus_unwrapped: np.ndarray, geom: ArrayGeometry, grid: SubcarrierGrid):
    """(theta, d, r, clamped) from linear combinations of the delay profile.

    Pairing subarray k with its mirror K-k+1 cancels every even term of the
    profile, leaving a difference linear in theta; an LS fit over the K/2
    pairs gives theta, clamped into (-1, 1).  The half-array shift
    v_de = (c/df)(tau_{K/2+k} - tau_k) + (K/2)*pitch*theta is proportional
    to (delta_k + K/4)/d through the quadratic profile term, and its
    pseudoinverse gives d.  Mirror sums cancel the angle term; subtracting
    the quadratic bulge and d leaves r in every entry, averaged over the
    pairs.  Returns None when d is not finite and positive (an
    unidentifiable geometry).
    """
    K = geom.n_subarrays
    if K % 2 != 0:
        raise ValueError("decoupling requires an even subarray count")
    half = K // 2
    delta = index_offsets(K)[:half]
    pitch = geom.subarray_pitch_m
    mirror = taus_unwrapped[::-1][:half]
    theta = (
        SPEED_OF_LIGHT / (2.0 * pitch * grid.spacing_hz)
        * float(delta @ (mirror - taus_unwrapped[:half])) / float(delta @ delta)
    )
    clamped = False
    limit = 1.0 - 1e-9
    if not -limit < theta < limit:
        theta = math.copysign(limit, theta) if math.isfinite(theta) else 0.0
        clamped = True
    v_de = (
        SPEED_OF_LIGHT / grid.spacing_hz * (taus_unwrapped[half:] - taus_unwrapped[:half])
        + 0.5 * K * pitch * theta
    )
    denom = float(v_de @ v_de)
    if denom == 0.0:
        return None
    dist = (
        0.5 * K * pitch * pitch * (1.0 - theta * theta) * float(v_de @ (delta + K / 4.0))
        / denom
    )
    if not (math.isfinite(dist) and dist > 0.0):
        return None
    v_re = (
        0.5 * SPEED_OF_LIGHT / grid.spacing_hz * (mirror + taus_unwrapped[:half])
        - delta * delta * pitch * pitch * (1.0 - theta * theta) / (2.0 * dist)
        - dist
    )
    return theta, dist, float(np.mean(v_re)), clamped


def fit_profile_exact(
    taus_unwrapped: np.ndarray, geom: ArrayGeometry, grid: SubcarrierGrid
):
    """Closed-form (theta, d, r) fit with the exact subarray-center geometry.

    (eta(k) - r)^2 = d^2 - 2 d theta x_k + x_k^2 holds exactly with
    x_k = delta_k * pitch (law of cosines), so the quadratic-in-x LS
    coefficients of eta and eta^2 give r linearly, after which
    (eta - r)^2 - x^2 is an affine function of x yielding d and theta.
    Each LS fit applies :func:`_fit_basis`' cached pseudo-inverse of the
    basis [1, x, x^2] or [1, x] as one matvec, so no track calls into
    ``np.linalg``.  Returns (theta, d, r) or None when the profile carries no
    usable curvature (e.g. endfire or an all-equal track).
    """
    x, x_sq, fit_quad, fit_line = _fit_basis(geom)
    eta = SPEED_OF_LIGHT / grid.spacing_hz * np.asarray(taus_unwrapped, dtype=float)
    coef_eta = fit_quad.dot(eta)
    coef_eta2 = fit_quad.dot(eta * eta)
    curv = coef_eta[2]
    scale = max(abs(coef_eta[1]) / (abs(x[-1]) + 1.0), abs(coef_eta[0]) / (x[-1] ** 2 + 1.0))
    if abs(curv) <= 1e-12 * max(scale, 1e-30):
        return None
    r = (coef_eta2[2] - 1.0) / (2.0 * curv)
    z = (eta - r) ** 2 - x_sq
    coef_z = fit_line.dot(z)
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
) -> tuple[np.ndarray, np.ndarray]:
    """Model columns v_gc of every subarray in factored form, (coarse (K, A), fine (K, B)).

    v_gc = (f_k^H w_k(theta, d)) * p(r + d~_k): the scalar combiner gain
    times the frequency profile of the estimated subarray-center length.
    Row k of the model is kron(coarse[k], fine[k]), M = A B
    (:func:`nfce.model.profile_factors`), with the combiner gain folded into
    ``coarse``.  Row k reads only combiner row k.  The steering vector, the
    subarray centers and the factors are computed once for all K rows.
    """
    w = steering_vector(theta, dist_m, geom)
    fk_wk = np.einsum(
        "kn,kn->k", combiners.conj(), w.reshape(geom.n_subarrays, geom.subarray_size)
    )
    dist_k, _ = subarray_centers(theta, dist_m, geom)
    coarse, fine = profile_factors(range_m + dist_k, grid)
    coarse *= fk_wk[:, None]
    return coarse, fine


def _as_blocks(y_row: np.ndarray, v_gc):
    """View of each row of ``y_row`` as the A x B matrix of ``v_gc``'s factors, (rows, A, B)."""
    coarse, fine = v_gc
    return y_row.reshape(-1, coarse.shape[-1], fine.shape[-1])


def estimate_gain_lpu(
    y_row: np.ndarray, v_gc, power: float = 1.0
):
    """LS complex gain of each subarray row: v^H y / (sqrt(P) ||v||^2).

    ``v_gc`` is :func:`gain_column`'s factored pair, v = kron(coarse, fine)
    row by row.  Rows run along the last axis: one row gives one complex
    gain, K rows give K gains, each from its own row of ``y_row`` and of the
    factors.  v^H y is read as the bilinear form coarse^H Y fine^* of the row
    viewed as an A x B matrix Y, and ||v||^2 = ||coarse||^2 ||fine||^2.
    On a matched noiseless row y = sqrt(P) rho v this returns rho.  A
    vanishing model column (combiner orthogonal to the steering) returns 0
    rather than amplifying noise.
    """
    coarse, fine = v_gc
    # vecdot conjugates its first argument
    norm2 = np.vecdot(coarse, coarse).real * np.vecdot(fine, fine).real
    usable = norm2 > 1e-12
    y_fine = (_as_blocks(y_row, v_gc) @ fine.conj()[..., None]).reshape(coarse.shape)
    corr = np.vecdot(coarse, y_fine)
    gains = np.where(usable, corr / (math.sqrt(power) * np.where(usable, norm2, 1.0)), 0.0)
    return gains[()]


def residual_update(
    y_row: np.ndarray, rho_k, v_gc, power: float = 1.0
) -> np.ndarray:
    """Remove the fitted path from one subarray row, or from each of K rows.

    Subtracts the rank-1 term sqrt(P) rho coarse fine^T from each row viewed
    as an A x B matrix, in place: ``y_row`` is overwritten with the residual
    and returned.  The rows are walked in chunks of about
    ``_PROFILE_CHUNK_ENTRIES`` entries, so no residual-sized term is formed.
    """
    coarse, fine = v_gc
    blocks = _as_blocks(y_row, v_gc)
    rho = math.sqrt(power) * np.reshape(rho_k, (-1, 1))
    coarse, fine = coarse.reshape(-1, coarse.shape[-1]), fine.reshape(-1, fine.shape[-1])
    chunk = max(1, _PROFILE_CHUNK_ENTRIES // y_row.shape[-1])
    for k0 in range(0, len(blocks), chunk):
        ks = slice(k0, k0 + chunk)
        # the scaled coarse factor is formed per chunk, so no K-row copy of it
        # lives while the chunk's rank-1 term is formed
        blocks[ks] -= (rho[ks] * coarse[ks])[:, :, None] * fine[ks, None, :]
    return y_row


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
            raise ValueError(f"max_paths must be nonnegative, got {self.max_paths}")


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
    lpu_gains: np.ndarray  # shape (K,)
    track: SubarrayDelayTrack
    clamped: bool = False  # the linear fallback gave the path and clamped its theta into (-1, 1)
    refined: bool = False  # the exact-geometry fit gave the path (never clamped)

    @property
    def gain(self) -> complex:
        """Average of ``lpu_gains``."""
        return complex(np.mean(self.lpu_gains))


@dataclass
class Iteration:
    """Record of one detection attempt of :func:`run_dps`.

    ``track`` is None when the loop stopped at the detection (threshold or
    path cap); ``path`` is None when it stopped after extrapolating
    (fallback or rejected).
    """

    peak: float  # central-subarray grid score, compared to the CFAR threshold
    corr: int  # dictionary correlations spent: M, plus (K-1)(2 M_s + 1) with a track
    track: SubarrayDelayTrack | None = None
    path: PathEstimate | None = None


@dataclass
class DpsResult:
    """:func:`run_dps`'s iteration record and stop reason; every count is read off them."""

    iterations: list  # one Iteration per detection attempt
    stop_reason: str
    threshold: float  # CFAR level each Iteration.peak is compared against

    @property
    def paths(self) -> list:
        return [step.path for step in self.iterations if step.path is not None]

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def fallback(self) -> bool:
        return self.stop_reason == "fallback"

    @property
    def rejected(self) -> int:
        return int(self.stop_reason == "rejected")

    @property
    def corr_per_iter(self) -> list:
        """Dictionary correlations of each iteration that extrapolated."""
        return [step.corr for step in self.iterations if step.track is not None]

    @property
    def corr_total(self) -> int:
        """All dictionary correlations, the terminal stopping check included."""
        return sum(step.corr for step in self.iterations)


def decouple_profile(
    track: SubarrayDelayTrack,
    geom: ArrayGeometry,
    grid: SubcarrierGrid,
    refine: str = "exact",
):
    """Full parameter decoupling of one delay track.

    The exact-geometry closed-form fit gives the path when it is valid;
    only when it returns None does :func:`decouple_linear` solve the track,
    so ``clamped`` marks only a path whose own theta hit the clamp.
    ``refine`` accepts only "exact", and K must be even.  Returns
    (theta, d, r, clamped, refined) or None when the path is unidentifiable.
    """
    if refine != "exact":
        raise ValueError(f"unknown refine mode {refine!r}")
    if geom.n_subarrays % 2 != 0:
        raise ValueError("decoupling requires an even subarray count")
    fit = fit_profile_exact(track.taus_unwrapped, geom, grid)
    if fit is not None:
        return *fit, False, True
    linear = decouple_linear(track.taus_unwrapped, geom, grid)
    return None if linear is None else (*linear, False)


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
    residual_update(resid, gains, v_gc, power)
    return PathEstimate(theta, dist_m, range_m, gains, track, clamped, refined)


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

    iterations: list[Iteration] = []
    while True:
        _, tau_c, peak = ml_delay_detect(resid[kc], dictionary)
        step = Iteration(peak, M)
        iterations.append(step)
        if peak <= threshold:
            stop_reason = "threshold"
            break
        # every earlier attempt accepted a path, so this counts the paths
        if len(iterations) > rule.max_paths:
            stop_reason = "max_paths"
            break

        step.track = extrapolate_delays(resid, tau_c, geom, dictionary, m_hop)
        step.corr += (K - 1) * (2 * m_hop + 1)
        if step.track.all_equal():
            # parametric symmetry carries no information and the residual is
            # still above threshold: stop.  No other method takes over; the
            # caller gets the paths found so far and DpsResult.fallback is set
            stop_reason = "fallback"
            break

        decoupled = decouple_profile(step.track, geom, grid)
        if decoupled is None:
            stop_reason = "rejected"
            break
        theta, dist, rng_m, clamped, refined = decoupled
        step.path = fit_and_cancel(
            resid, theta, dist, rng_m, combiners, geom, grid, power,
            track=step.track, clamped=clamped, refined=refined,
        )

    return DpsResult(iterations, stop_reason, threshold)


@dataclass
class RowBlocks:
    """An (N, M) channel estimate that is built a block of whole subarrays at a time.

    ``build(k0, k1)`` returns the rows of subarrays k0..k1-1, shape
    ((k1 - k0) * subarray_size, M).  :meth:`rows` calls it and adds the wall
    time it took to ``build_s``, so a caller that never forms the whole
    estimate can still count the time spent building it.
    """

    shape: tuple
    subarray_size: int
    build: Callable
    build_s: float = 0.0

    def rows(self, k0: int, k1: int) -> np.ndarray:
        t0 = time.perf_counter()
        block = self.build(k0, k1)
        self.build_s += time.perf_counter() - t0
        return block


def reconstruct_rows(paths, geom: ArrayGeometry, grid: SubcarrierGrid) -> RowBlocks:
    """The channel rebuilt from path estimates, as blocks of subarray rows.

    Each path contributes per-subarray rank-1 blocks
    rho_k * w_k(theta, d) p(r + d~_k)^T with rho_k subarray k's own fitted
    gain, which absorbs per-subarray phase error.  So row i of subarray k's
    block of H is sum_l rho_lk w_lk[i] p(r_l + d~_lk): the steering rows,
    gains and lengths are prepared once, and each block is one
    :func:`nfce.model.profile_sum` over its subarrays, with ns rows each.  A
    subarray's rows are the same bits in any block.
    """
    K, ns, M = geom.n_subarrays, geom.subarray_size, grid.n_subcarriers
    if not paths:
        return RowBlocks((K * ns, M), ns,
                         lambda k0, k1: np.zeros(((k1 - k0) * ns, M), dtype=complex))
    steer = np.stack(
        [steering_vector(e.theta, e.dist_m, geom).reshape(K, ns) for e in paths], axis=-1
    )  # (K, ns, L)
    lengths = np.stack(
        [e.range_m + subarray_centers(e.theta, e.dist_m, geom)[0] for e in paths], axis=-1
    )  # (K, L)
    gains = np.stack([e.lpu_gains for e in paths], axis=-1)  # (K, L)
    steer *= gains[:, None, :]

    def build(k0: int, k1: int) -> np.ndarray:
        block = np.empty(((k1 - k0) * ns, M), dtype=complex)
        profile_sum(steer[k0:k1], lengths[k0:k1], grid, out=block.reshape(k1 - k0, ns, M))
        return block

    return RowBlocks((K * ns, M), ns, build)


def reconstruct_channel(paths, geom: ArrayGeometry, grid: SubcarrierGrid) -> np.ndarray:
    """Rebuild the antenna-domain channel from path estimates, shape (N, M).

    The whole of :func:`reconstruct_rows` as one block.
    """
    return reconstruct_rows(paths, geom, grid).build(0, geom.n_subarrays)
