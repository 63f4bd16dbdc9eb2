"""Geometry and wideband channel synthesis for subarrayed uniform linear arrays.

Everything downstream (frontend, estimator, bounds) is built on the quantities
defined here: symmetric index offsets, exact propagation distances,
the one frequency-profile kernel (:func:`freq_profile` over :func:`phase_ramp`),
the exact per-path response :func:`path_response` that synthesis sums, and the
per-subarray delay structure that the estimator exploits.

Conventions
-----------
* ``theta`` is the sine of the physical angle, in (-1, 1).
* ``dist_m`` is the distance from the array center to the scatterer (the
  geometry that bends the wavefront across the aperture).
* ``range_m`` is the remaining propagation distance of the path, so the total
  path length seen by antenna ``n`` is ``range_m + d_n(theta, dist_m)``.
* Delays are expressed as dimensionless fractions of the OFDM symbol,
  ``tau = delay_seconds * subcarrier_spacing``; the usable range is [0, 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def index_offsets(count: int) -> np.ndarray:
    """Symmetric element offsets ``i - (count + 1) / 2`` for ``i = 1..count``.

    For even ``count`` these are half-integers (e.g. count=4 gives
    [-1.5, -0.5, 0.5, 1.5]); the mean is always exactly zero.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return np.arange(1, count + 1, dtype=float) - (count + 1) / 2.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array split into equal contiguous subarrays.

    ``spacing_m=None`` selects half-wavelength spacing at the carrier.
    """

    n_antennas: int
    n_subarrays: int
    carrier_hz: float = 7.0e9
    spacing_m: float | None = None

    def __post_init__(self):
        if self.n_antennas <= 0 or self.n_subarrays <= 0:
            raise ValueError("n_antennas and n_subarrays must be positive")
        if self.n_antennas % self.n_subarrays != 0:
            raise ValueError(
                f"n_subarrays ({self.n_subarrays}) must divide "
                f"n_antennas ({self.n_antennas})"
            )
        if not (math.isfinite(self.carrier_hz) and self.carrier_hz > 0):
            raise ValueError(f"carrier_hz must be finite and positive, got {self.carrier_hz}")
        if self.spacing_m is None:
            object.__setattr__(
                self, "spacing_m", SPEED_OF_LIGHT / (2.0 * self.carrier_hz)
            )
        elif not (math.isfinite(self.spacing_m) and self.spacing_m > 0):
            raise ValueError(f"spacing_m must be finite and positive, got {self.spacing_m}")

    @property
    def subarray_size(self) -> int:
        return self.n_antennas // self.n_subarrays

    @property
    def antenna_offsets(self) -> np.ndarray:
        """Signed antenna offsets delta_{N,n} (unitless, scale by spacing_m)."""
        return index_offsets(self.n_antennas)

    @property
    def subarray_offsets(self) -> np.ndarray:
        """Signed subarray-center offsets delta_{K,k} in units of the
        subarray pitch ``subarray_size * spacing_m``."""
        return index_offsets(self.n_subarrays)

    @property
    def subarray_pitch_m(self) -> float:
        return self.subarray_size * self.spacing_m

    @property
    def aperture_m(self) -> float:
        return (self.n_antennas - 1) * self.spacing_m

    def subarray_slice(self, k: int) -> slice:
        """Row slice of subarray ``k`` (0-based) into length-N arrays."""
        if not 0 <= k < self.n_subarrays:
            raise ValueError(f"subarray index {k} out of range")
        ns = self.subarray_size
        return slice(k * ns, (k + 1) * ns)


@dataclass(frozen=True)
class SubcarrierGrid:
    """OFDM frequency grid: ``n_subcarriers`` tones spaced ``spacing_hz``."""

    n_subcarriers: int
    spacing_hz: float

    def __post_init__(self):
        if self.n_subcarriers <= 0:
            raise ValueError("n_subcarriers must be positive")
        if not (math.isfinite(self.spacing_hz) and self.spacing_hz > 0):
            raise ValueError(f"spacing_hz must be finite and positive, got {self.spacing_hz}")

    @classmethod
    def from_bandwidth(cls, n_subcarriers: int, bandwidth_hz: float) -> "SubcarrierGrid":
        if n_subcarriers <= 0:
            raise ValueError("n_subcarriers must be positive")
        if not (math.isfinite(bandwidth_hz) and bandwidth_hz > 0):
            raise ValueError(f"bandwidth_hz must be finite and positive, got {bandwidth_hz}")
        return cls(n_subcarriers, bandwidth_hz / n_subcarriers)

    @property
    def bandwidth_hz(self) -> float:
        return self.n_subcarriers * self.spacing_hz

    @property
    def freq_offsets_hz(self) -> np.ndarray:
        """Baseband frequency of each subcarrier, symmetric around 0."""
        return index_offsets(self.n_subcarriers) * self.spacing_hz


@dataclass(frozen=True)
class PathParams:
    """One propagation path: sine-angle, bend distance, residual range, gain."""

    theta: float
    dist_m: float
    range_m: float
    gain: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not -1.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (-1, 1), got {self.theta}")
        if self.dist_m <= 0:
            raise ValueError(f"dist_m must be positive, got {self.dist_m}")
        if self.range_m < 0:
            raise ValueError(f"range_m must be non-negative, got {self.range_m}")

    @property
    def total_m(self) -> float:
        """Center-of-array path length range_m + dist_m."""
        return self.range_m + self.dist_m


def exact_distances(theta: float, dist_m: float, geom: ArrayGeometry) -> np.ndarray:
    """Per-antenna propagation distance d_n for a spherical wavefront.

    d_n = sqrt(d^2 - 2 d delta_n s theta + delta_n^2 s^2), the law of cosines
    with the source at distance ``dist_m`` and sine-angle ``theta`` from the
    array normal.
    """
    delta = geom.antenna_offsets * geom.spacing_m
    return np.sqrt(dist_m * dist_m - 2.0 * dist_m * delta * theta + delta * delta)


def steering_vector(theta: float, dist_m: float, geom: ArrayGeometry) -> np.ndarray:
    """Near-field array response at the carrier, unit-modulus entries.

    w_n = exp(j 2 pi f_c (d_n - d) / c) with the exact spherical distances.
    A column of distances, shape (G, 1), gives one response per row.
    """
    dd = exact_distances(theta, dist_m, geom) - dist_m
    return np.exp(2j * np.pi * geom.carrier_hz / SPEED_OF_LIGHT * dd)


@functools.lru_cache(maxsize=8)
def _ramp_split(count: int):
    """(A, j * [c, f]) with c[a] + f[b] = index_offsets(count)[a*B + b], count = A B.

    B is the largest divisor of ``count`` not above its square root; None
    when that is 1 (count prime or 1), where factoring saves nothing.  The
    array is shared by every caller, hence read-only.
    """
    inner = max(d for d in range(1, math.isqrt(count) + 1) if count % d == 0)
    if inner == 1:
        return None
    outer = count // inner
    coarse = (np.arange(outer) - (outer - 1) / 2.0) * inner
    fine = np.arange(inner) - (inner - 1) / 2.0
    j_offsets = 1j * np.concatenate([coarse, fine])
    j_offsets.flags.writeable = False
    return outer, j_offsets


def phase_ramp(phi, count: int) -> np.ndarray:
    """exp(j phi delta_m) over the offsets delta = index_offsets(count).

    ``phi`` is a scalar or an array; the ramp runs along a new last axis.
    Splitting count = A B, delta = c_a + f_b and the ramp is the outer
    product of exp(j phi c) and exp(j phi f): A + B complex exponentials
    instead of count.  A prime count falls back to the direct exponential.
    """
    phi = np.asarray(phi, dtype=float)
    split = _ramp_split(count)
    if split is None:
        return np.exp(1j * (phi[..., None] * index_offsets(count)))
    outer, j_offsets = split
    e = np.exp(phi[..., None] * j_offsets)
    return (e[..., :outer, None] * e[..., None, outer:]).reshape(phi.shape + (count,))


def freq_profile(length_m, grid: SubcarrierGrid) -> np.ndarray:
    """Frequency-domain phase profile p_m = exp(j 2 pi delta_m df L / c).

    ``length_m`` is a propagation length L, or an array of them; the profile
    runs along a new last axis (shape (K,) gives (K, M)).
    """
    phi = 2.0 * np.pi * grid.spacing_hz / SPEED_OF_LIGHT * length_m
    return phase_ramp(phi, grid.n_subcarriers)


def delay_steering(tau, n_subcarriers: int) -> np.ndarray:
    """Delay-domain steering vector b(tau)_m = exp(j 2 pi delta_m tau).

    ``tau`` is a dimensionless symbol-fraction delay, or an array of them
    that broadcasts against the subcarrier axis (shape (K, 1) gives K rows);
    b is 1-periodic in tau up to a global sign when ``n_subcarriers`` is even
    (half-integer offsets).
    """
    return np.exp(2j * np.pi * index_offsets(n_subcarriers) * tau)


def combined_gain(path: PathParams, geom: ArrayGeometry) -> complex:
    """Path gain with the center-of-array carrier phase folded in."""
    return path.gain * np.exp(
        2j * np.pi * geom.carrier_hz / SPEED_OF_LIGHT * path.total_m
    )


def subarray_centers(theta: float, dist_m: float, geom: ArrayGeometry):
    """Observed geometry of each subarray: center distance and sine-angle.

    Treating subarray k's center as a small array of its own, the wavefront
    there is locally described by

        d~_k = sqrt(d^2 - 2 delta_k d ns s theta + delta_k^2 ns^2 s^2)
        theta~_k = (d theta - delta_k ns s) / d~_k

    Returns ``(dist_k, theta_k)`` arrays of length n_subarrays.
    """
    pitch = geom.subarray_pitch_m
    delta = geom.subarray_offsets
    dist_k = np.sqrt(
        dist_m * dist_m - 2.0 * delta * dist_m * pitch * theta + delta * delta * pitch * pitch
    )
    theta_k = (dist_m * theta - delta * pitch) / dist_k
    return dist_k, theta_k


def path_response(
    theta: float, dist_m: float, range_m: float, geom: ArrayGeometry, grid: SubcarrierGrid
) -> np.ndarray:
    """Exact wideband response of one unit-gain path, shape (N, M).

    Row n is w_n p(r + d_n): the carrier steering entry times the frequency
    profile of antenna n's own path length, so the beam squint across the
    whole aperture is kept.
    """
    d_n = exact_distances(theta, dist_m, geom)
    w = steering_vector(theta, dist_m, geom)
    return w[:, None] * freq_profile(range_m + d_n, grid)


def synthesize_channel(paths, geom: ArrayGeometry, grid: SubcarrierGrid) -> np.ndarray:
    """Multipath frequency-domain channel H of shape (N, M).

    H = sum_l rho_l A_l with rho_l the gain carrying the center-of-array
    carrier phase and A_l the exact :func:`path_response`, which reproduces
    the physical model H[n, m] = g_l exp(j 2 pi f_m (r_l + d_n) / c) per path.
    """
    H = np.zeros((geom.n_antennas, grid.n_subcarriers), dtype=complex)
    for path in paths:
        H += combined_gain(path, geom) * path_response(
            path.theta, path.dist_m, path.range_m, geom, grid
        )
    return H


def antenna_delays(path: PathParams, geom: ArrayGeometry, grid: SubcarrierGrid) -> np.ndarray:
    """Per-antenna symbol-fraction delays tau_n = df (r + d_n) / c."""
    d_n = exact_distances(path.theta, path.dist_m, geom)
    return grid.spacing_hz / SPEED_OF_LIGHT * (path.range_m + d_n)


def subarray_delay_profile(
    theta: float,
    dist_m: float,
    range_m: float,
    geom: ArrayGeometry,
    grid: SubcarrierGrid,
    model: str = "exact",
) -> np.ndarray:
    """Symbol-fraction delay observed at each subarray center.

    Uses the exact spherical subarray-center distances; ``model`` names that
    wavefront model and accepts only ``"exact"``.
    """
    if model != "exact":
        raise ValueError(f"unknown wavefront model {model!r}")
    dist_k, _ = subarray_centers(theta, dist_m, geom)
    return grid.spacing_hz / SPEED_OF_LIGHT * (range_m + dist_k)


def check_delay_validity(paths, geom: ArrayGeometry, grid: SubcarrierGrid) -> float:
    """Largest per-antenna delay across paths; raises if it reaches one symbol.

    Delays at or beyond one symbol-fraction alias onto the grid and the
    model stops being identifiable, so synthesis refuses to proceed.
    """
    worst = 0.0
    for path in paths:
        worst = max(worst, float(antenna_delays(path, geom, grid).max()))
    if worst >= 1.0:
        raise ValueError(
            f"path delay {worst:.3f} symbol-fractions >= 1; reduce ranges or "
            f"subcarrier spacing"
        )
    return worst
